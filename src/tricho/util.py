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
    """Matrices of one shape keyed by time or by (t, s) pair, each computed
    once and kept read-only in ``values``, in the order computed.

    Keys are a 1-D array of times or an (m, 2) array of pairs, or lists of
    them. A pair is the complex t + 1j*s, which numpy sorts lexicographically,
    so a lookup is one ``searchsorted`` in the sorted keys, one hit test and
    one gather. ``compute(keys)`` gets the unseen keys of a batch once each,
    in first-seen order; 0.0 and -0.0 are one key, and NaN is never found.
    """

    def __init__(self, shape: tuple, compute):
        self.shape = tuple(shape)
        self.compute = compute
        self.values = np.empty((0, *self.shape))
        self._keys = np.array([np.nan])  # sorted; NaN sorts last and equals no key
        self._slots = np.array([-1])  # row of values of each key

    def rows(self, keys) -> np.ndarray:
        """The row of ``values`` holding each key, computing unseen keys first."""
        keys = np.asarray(keys, dtype=float)
        flat = np.ascontiguousarray(keys).view(complex)[:, 0] if keys.ndim == 2 else keys
        pos = np.searchsorted(self._keys, flat)
        miss = np.flatnonzero(self._keys[pos] != flat)
        if len(miss):
            order = miss[np.argsort(flat[miss], kind="stable")]
            heads = np.concatenate(([True], flat[order[1:]] != flat[order[:-1]]))
            new = np.flatnonzero(np.bincount(order[heads], minlength=len(flat)))  # first-seen order
            stack = np.asarray(self.compute(keys[new]), dtype=float)
            slots = np.arange(len(self.values), len(self.values) + len(new))
            self.values = np.concatenate((self.values, stack.reshape(-1, *self.shape)))
            merged = np.concatenate((self._keys, flat[new]))
            order = np.argsort(merged, kind="stable")
            self._keys, self._slots = merged[order], np.concatenate((self._slots, slots))[order]
            pos = np.searchsorted(self._keys, flat)
        return self._slots[pos]

    def get(self, key) -> np.ndarray:
        """The read-only matrix of one key."""
        row = self.rows([key])[0]  # may grow values
        m = self.values[row]
        m.flags.writeable = False
        return m

    def stack(self, keys) -> np.ndarray:
        """The matrices of ``keys`` as a new (m, *shape) stack."""
        rows = self.rows(keys)  # may grow values
        return self.values[rows]


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


def range_bases(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal range bases of a (..., n, n) stack of projectors from one
    SVD: left singular vectors with singular value >= 0.5, zero columns after
    them, and the ranks. Nonzero singular values of an idempotent matrix are
    >= 1, so 0.5 separates range directions from numerical noise."""
    u, sigma, _ = np.linalg.svd(stack)
    keep = sigma >= _RANGE_CUTOFF  # a leading run: sigma is descending
    return np.where(keep[..., None, :], u, 0.0), np.count_nonzero(keep, axis=-1)


def range_basis(p: np.ndarray) -> np.ndarray:
    """``range_bases`` of one projector matrix, as an n x rank matrix."""
    u, rank = range_bases(p)
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


def grid_pairs(grid) -> np.ndarray:
    """All ordered pairs (t, s) with t >= s as an (m, 2) array; grid indices
    i >= j sit at row i(i+1)/2 + j. An empty grid raises ValueError."""
    grid = np.asarray(grid, dtype=float)
    if not len(grid):
        raise ValueError("grid must be nonempty")
    rows, cols = np.tril_indices(len(grid))
    return np.stack((grid[rows], grid[cols]), axis=1)


def triple_blocks(size: int):
    """For each outer grid index i, the rows in ``grid_pairs`` of the (i, k),
    (i, j) and (j, k) pairs of every triple i >= j >= k. The (j, k) pairs are
    the leading (i + 1)(i + 2)/2 rows, so they come as a slice; the (i, k)
    and (i, j) pairs as index arrays. No block is longer than the pairs."""
    rows, cols = np.tril_indices(size)
    for i in range(size):
        m, first = (i + 1) * (i + 2) // 2, i * (i + 1) // 2
        yield first + cols[:m], first + rows[:m], slice(m)


def test_vector_batch(dimension: int, samples: int, seed: int) -> tuple[list[str], np.ndarray]:
    """Standard basis columns followed by seeded random unit columns; the
    random block comes first, so a size numpy rejects builds no ids."""
    randoms = np.random.default_rng(seed).standard_normal((dimension, max(samples, 0)))
    randoms /= np.linalg.norm(randoms, axis=0)
    ids = [f"e{i + 1}" for i in range(dimension)]
    ids += [f"r{i + 1:02d}" for i in range(samples)]
    return ids, np.hstack([np.eye(dimension), randoms])
