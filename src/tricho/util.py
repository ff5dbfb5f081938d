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
    return float(opnorms(m))


def opnorms(stack: np.ndarray) -> np.ndarray:
    """Spectral norms of a (..., rows, cols) stack in one batched SVD call,
    bitwise equal to per-matrix ``opnorm``; 0.0 for empty matrices."""
    stack = np.asarray(stack, dtype=float)
    if stack.size == 0:
        return np.zeros(stack.shape[:-2])
    return np.linalg.norm(stack, 2, axis=(-2, -1))


def peak(values) -> float:
    """Largest entry of an array of nonnegative residuals; 0.0 when empty."""
    return float(np.max(values, initial=0.0))


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


def pair_slots(triples) -> tuple[list[tuple[float, float]], np.ndarray]:
    """Distinct pairs of (t, s, t0) triples, and per triple the positions
    of its (t, t0), (t, s) and (s, t0) pairs as an (m, 3) array. Raises
    ValueError naming the first triple not ordered t >= s >= t0 >= 0."""
    triples = list(triples)
    arr = np.asarray(triples, dtype=float).reshape(-1, 3)
    ordered = (arr[:, 0] >= arr[:, 1]) & (arr[:, 1] >= arr[:, 2]) & (arr[:, 2] >= 0)
    if not ordered.all():
        t, s, t0 = triples[int(np.argmin(ordered))]
        raise ValueError(f"triple ({t}, {s}, {t0}) not ordered t >= s >= t0 >= 0")
    times, index = np.unique(arr, return_inverse=True)
    index = index.reshape(-1, 3)
    width = len(times)
    keys = index[:, [0, 0, 1]] * width + index[:, [2, 1, 2]]
    distinct, slots = np.unique(keys, return_inverse=True)
    values = times.tolist()
    pairs = [(values[k // width], values[k % width]) for k in distinct.tolist()]
    return pairs, slots.reshape(-1, 3)


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
