"""Small numeric helpers: grids, spectral norms, range bases, sample vectors.

Everything here is deterministic; random vectors always come from an
explicitly seeded generator.
"""
from __future__ import annotations

import math

import numpy as np

_RANGE_CUTOFF = 0.5  # projector singular values cluster at {0} and [1, inf)


def opnorm(m: np.ndarray) -> float:
    """Spectral norm (largest singular value); 0.0 for empty matrices."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def range_basis(p: np.ndarray, cutoff: float = _RANGE_CUTOFF) -> np.ndarray:
    """Orthonormal basis of the column space of a projector matrix.

    Left singular vectors with singular value >= cutoff are kept; nonzero
    singular values of an idempotent matrix are >= 1, so 0.5 separates
    range directions from numerical noise.
    """
    u, sigma, _ = np.linalg.svd(p)
    rank = int(np.count_nonzero(sigma >= cutoff))
    return np.ascontiguousarray(u[:, :rank])


def make_grid(t_max: float, step: float) -> list[float]:
    """Uniform time grid 0, step, 2*step, ... covering [0, t_max]."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if step <= 0:
        raise ValueError("step must be positive")
    n = int(math.floor(t_max / step + 1e-9))
    grid = [i * step for i in range(n + 1)]
    if grid[-1] < t_max - 1e-9 * max(1.0, t_max):
        grid.append(t_max)
    return grid


def grid_pairs(grid: list[float]) -> list[tuple[float, float]]:
    """All ordered pairs (t, s) with t >= s, including t == s."""
    return [(grid[i], grid[j]) for i in range(len(grid)) for j in range(i + 1)]


def grid_triples(grid: list[float]) -> list[tuple[float, float, float]]:
    """All ordered triples (t, s, t0) with t >= s >= t0."""
    out = []
    for i in range(len(grid)):
        for j in range(i + 1):
            for k in range(j + 1):
                out.append((grid[i], grid[j], grid[k]))
    return out


def sample_unit_vectors(dimension: int, count: int, seed: int) -> np.ndarray:
    """(dimension, count) matrix of unit columns from a seeded generator."""
    if count <= 0:
        return np.zeros((dimension, 0))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((dimension, count))
    v /= np.linalg.norm(v, axis=0)
    return v


def test_vector_batch(dimension: int, samples: int, seed: int) -> tuple[list[str], np.ndarray]:
    """Standard basis columns followed by seeded random unit columns."""
    ids = [f"e{i + 1}" for i in range(dimension)]
    ids += [f"r{i + 1:02d}" for i in range(samples)]
    basis = np.eye(dimension)
    randoms = sample_unit_vectors(dimension, samples, seed)
    return ids, np.hstack([basis, randoms])
