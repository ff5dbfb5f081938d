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
_SQUARE_SAFE = (1e-150, 1e150)  # largest entries whose Frobenius sums need no rescale


class MatrixStore:
    """Matrices of one shape keyed by time or by (t, s) pair, each computed
    once and kept read-only in ``values``, in the order computed, with the
    spectral norm of each row computed on its first read by ``norms``.

    Keys are a 1-D array of times or an (m, 2) array of pairs, or lists of
    them. A pair is the complex t + 1j*s, which numpy sorts lexicographically,
    so a lookup is one ``searchsorted`` in the sorted keys, one hit test and
    one gather; a batch's unseen keys are merged into them with one
    ``searchsorted`` and one ``insert``. ``compute(keys)`` gets the unseen
    keys of a batch once each, in first-seen order; 0.0 and -0.0 are one
    key, and NaN is never found.
    """

    def __init__(self, shape: tuple, compute):
        self.shape = tuple(shape)
        self.compute = compute
        self.values = np.empty((0, *self.shape))
        self._norms = np.empty(0)  # of each row of values; NaN until read
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
            heads = order[np.concatenate(([True], flat[order[1:]] != flat[order[:-1]]))]
            new = np.flatnonzero(np.bincount(heads, minlength=len(flat)))  # first-seen order
            stack = np.asarray(self.compute(keys[new]), dtype=float)
            self.values = np.concatenate((self.values, stack.reshape(-1, *self.shape)))
            # heads holds the new keys in key order, each one's row after new's
            at, slots = pos[heads], len(self.values) - len(new) + np.searchsorted(new, heads)
            self._keys = np.insert(self._keys.astype(flat.dtype, copy=False), at, flat[heads])
            self._slots = np.insert(self._slots, at, slots)
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

    def norms(self, keys) -> np.ndarray:
        """The spectral norms of the matrices of ``keys``, ``opnorms`` to the
        bit; each row's is computed once, in one batched SVD per call."""
        rows = self.rows(keys)  # may grow values
        grown = len(self.values) - len(self._norms)
        self._norms = np.concatenate((self._norms, np.full(grown, np.nan)))
        unread = np.zeros(len(self.values), dtype=bool)
        unread[rows] = np.isnan(self._norms[rows])
        if unread.any():
            self._norms[unread] = opnorms(self.values[unread])
        return self._norms[rows]


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


def norm_bounds(stack: np.ndarray):
    """Bounds on the spectral norm of each matrix of a (..., rows, cols)
    stack, max(max|r_ij|, ||R||_F / sqrt(min(rows, cols))) <= ||R|| <=
    ||R||_F, as two flat arrays; None when an entry is not finite. The
    entries go into one (rows * cols, m) copy, so each reduction runs across
    matrices. The Frobenius norms are rescaled by each matrix's largest entry
    only when some nonzero matrix's largest entry lies outside [1e-150,
    1e150]: within it no square overflows, and the squares that underflow
    move a sum of at least 1e-300 by less than 1e-20 of it."""
    flat = np.abs(np.moveaxis(stack, (-2, -1), (0, 1)), order="C")
    flat = flat.reshape(math.prod(stack.shape[-2:]), math.prod(stack.shape[:-2]))
    size = flat.max(axis=0, initial=0.0)
    if not np.isfinite(size).all():  # max keeps a NaN
        return None
    if size.max(initial=0.0) > _SQUARE_SAFE[1] or ((size > 0.0) & (size < _SQUARE_SAFE[0])).any():
        flat /= np.where(size > 0.0, size, 1.0)
        upper = size * np.sqrt(np.square(flat, out=flat).sum(axis=0))
    else:
        upper = np.sqrt(np.square(flat, out=flat).sum(axis=0))
    return np.maximum(size, upper / math.sqrt(max(1, min(stack.shape[-2:])))), upper


def contenders(lower: np.ndarray, upper: np.ndarray, length: int) -> np.ndarray:
    """Which matrices can hold the largest norm of their segment of
    ``length`` consecutive ones, given bounds on each (``norm_bounds``):
    those whose upper bound reaches the segment's largest lower bound, less a
    margin rounding cannot cross."""
    floor = lower.reshape(-1, length).max(axis=1, keepdims=True)
    return (upper.reshape(-1, length) * (1.0 + _SCREEN_MARGIN)
            >= floor * (1.0 - _SCREEN_MARGIN)).ravel()


def peak(stack: np.ndarray, scale=1.0) -> float:
    """Largest spectral norm over a (..., rows, cols) stack, each divided by
    its positive ``scale``: ``max(opnorms(stack) / scale)`` to the bit, 0.0
    with no SVD if all are zero. Only the ``contenders`` of the scaled
    ``norm_bounds`` go to the SVD; non-finite stacks all go: the SVD raises
    on NaN, gives NaN on inf."""
    scale = np.broadcast_to(scale, stack.shape[:-2]).reshape(-1)
    stack = stack.reshape(len(scale), *stack.shape[-2:])
    bounds = norm_bounds(stack)
    if bounds is not None:
        lower, upper = (b / scale for b in bounds)
        if not upper.any():
            return 0.0
        keep = contenders(lower, upper, len(lower))
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


def cocycle_residual(stack: np.ndarray, scale=1.0) -> float:
    """Worst residual M(i, k) - M(i, j) M(j, k) over every triple i >= j >= k
    of grid indices, for a stack in ``grid_pairs`` order, each divided by the
    positive ``scale`` of its (i, k) pair, as ``peak`` takes it. The triples
    go one outer index i at a time: its (j, k) pairs are the leading
    (i + 1)(i + 2)/2 rows, and its (i, k) and (i, j) pairs are gathered,
    multiplied and subtracted into two buffers of the stack's size."""
    scale = np.broadcast_to(scale, len(stack))
    size = math.isqrt(2 * len(stack))  # len(stack) = size (size + 1) / 2
    rows, cols = np.tril_indices(size)
    gathered, residual = np.empty(stack.shape), np.empty(stack.shape)
    worst = 0.0
    for i in range(size):
        m, first = (i + 1) * (i + 2) // 2, i * (i + 1) // 2
        direct, left = first + cols[:m], first + rows[:m]
        a, r = gathered[:m], residual[:m]
        # mode "clip" (the rows are in range): "raise" would buffer out
        np.matmul(np.take(stack, left, axis=0, out=a, mode="clip"), stack[:m], out=r)
        np.subtract(np.take(stack, direct, axis=0, out=a, mode="clip"), r, out=r)
        worst = max(worst, peak(r, scale[direct]))
    return worst


def test_vector_batch(dimension: int, samples: int, seed: int) -> tuple[list[str], np.ndarray]:
    """Standard basis columns followed by seeded random unit columns; the
    random block comes first, so a size numpy rejects builds no ids."""
    randoms = np.random.default_rng(seed).standard_normal((dimension, max(samples, 0)))
    randoms /= np.linalg.norm(randoms, axis=0)
    ids = [f"e{i + 1}" for i in range(dimension)]
    ids += [f"r{i + 1:02d}" for i in range(samples)]
    return ids, np.hstack([np.eye(dimension), randoms])
