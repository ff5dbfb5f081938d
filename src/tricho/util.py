"""Small numeric helpers: a matrix store, grids, spectral norms, range bases,
sample vectors.

Everything here is deterministic; random vectors always come from an
explicitly seeded generator.
"""
from __future__ import annotations

import math

import numpy as np

_RANGE_CUTOFF = 0.5  # projector singular values cluster at {0} and [1, inf)
_SCREEN_MARGIN = 1e-9  # relative, far above the rounding of either bound


class MatrixStore:
    """Matrices of one shape by key, each computed once and kept read-only.

    ``compute(keys)`` gives the matrices of a batch of unseen keys as a stack,
    one call per batch; the rows live in one array that doubles when full.
    """

    def __init__(self, shape: tuple, compute):
        self.shape = tuple(shape)
        self.compute = compute
        self._index: dict = {}  # key -> row of _values
        self._values = np.empty((0, *self.shape))

    def _rows(self, keys) -> list[int]:
        index = self._index
        missing = [k for k in dict.fromkeys(keys) if k not in index]
        if missing:
            stack = np.asarray(self.compute(missing), dtype=float)
            start, stop = len(index), len(index) + len(missing)
            if stop > len(self._values):  # rows handed out keep the old buffer
                grown = np.empty((max(stop, 2 * len(self._values)), *self.shape))
                grown[:start] = self._values[:start]
                self._values = grown
            self._values[start:stop] = stack.reshape(-1, *self.shape)
            index.update(zip(missing, range(start, stop)))
        return [index[k] for k in keys]

    def get(self, key) -> np.ndarray:
        """The read-only matrix of one key."""
        row = self._rows([key])[0]  # may grow _values
        m = self._values[row]
        m.flags.writeable = False
        return m

    def stack(self, keys) -> np.ndarray:
        """The matrices of ``keys`` as a new (m, *shape) stack."""
        rows = self._rows(keys)  # may grow _values
        return self._values[rows]


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


def peak(stack: np.ndarray, scale=1.0) -> float:
    """Largest spectral norm over a (..., rows, cols) stack, each divided by
    its positive ``scale``: ``max(opnorms(stack) / scale)`` to the bit, 0.0
    with no SVD if all are zero. Each norm lies in [max(|r_ij|, ||R||_F /
    sqrt(min(rows, cols))), ||R||_F]; only a matrix whose upper bound reaches
    the largest lower bound, less a margin rounding cannot cross, goes to the
    SVD. Non-finite stacks all go: the SVD raises on NaN, gives NaN on inf."""
    scale = np.broadcast_to(scale, stack.shape[:-2])
    if np.isfinite(stack).all():
        size = np.abs(stack).max(axis=(-2, -1), initial=0.0)
        unit = stack / np.where(size > 0.0, size, 1.0)[..., None, None]  # no under/overflow
        upper = size * np.linalg.norm(unit, axis=(-2, -1)) / scale
        if not upper.any():
            return 0.0
        floor = max((size / scale).max(), upper.max() / math.sqrt(min(stack.shape[-2:])))
        if math.isfinite(floor):
            keep = upper * (1.0 + _SCREEN_MARGIN) >= floor * (1.0 - _SCREEN_MARGIN)
            stack, scale = stack[keep], scale[keep]
    return float(np.max(opnorms(stack) / scale, initial=0.0))


def range_basis(p: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of a projector matrix.

    Left singular vectors with singular value >= 0.5 are kept; nonzero
    singular values of an idempotent matrix are >= 1, so 0.5 separates
    range directions from numerical noise.
    """
    u, sigma, _ = np.linalg.svd(p)
    rank = int(np.count_nonzero(sigma >= _RANGE_CUTOFF))
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


def grid_slots(size: int) -> np.ndarray:
    """For every triple of grid indices i >= j >= k, in ``grid_triples``
    order, the positions in ``grid_pairs`` of its (i, k), (i, j) and (j, k)
    pairs as an (m, 3) array; pair (i, j) sits at i(i+1)/2 + j."""
    rows, cols = np.tril_indices(size)  # pair p is (rows[p], cols[p])
    left = np.repeat(np.arange(len(rows)), cols + 1)
    k = np.arange(len(left)) - np.repeat(np.cumsum(cols + 1) - (cols + 1), cols + 1)
    i, j = rows[left], cols[left]
    return np.stack([i * (i + 1) // 2 + k, left, j * (j + 1) // 2 + k], axis=1)


def test_vector_batch(dimension: int, samples: int, seed: int) -> tuple[list[str], np.ndarray]:
    """Standard basis columns followed by seeded random unit columns."""
    ids = [f"e{i + 1}" for i in range(dimension)]
    ids += [f"r{i + 1:02d}" for i in range(samples)]
    randoms = np.random.default_rng(seed).standard_normal((dimension, max(samples, 0)))
    randoms /= np.linalg.norm(randoms, axis=0)
    return ids, np.hstack([np.eye(dimension), randoms])
