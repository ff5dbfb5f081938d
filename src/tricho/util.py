"""Small numeric helpers: a matrix store, a checker for time-indexed stacks,
grids, spectral norms, range bases, sample vectors.

Everything here is deterministic; random vectors always come from an
explicitly seeded generator.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import StructuralError

_RANGE_CUTOFF = 0.5  # projector singular values cluster at {0} and [1, inf)
_SCREEN_MARGIN = 1e-9  # relative, far above the rounding of either bound
_SQUARE_SAFE = (1e-150, 1e150)  # largest entries whose Frobenius sums need no rescale
BUDGET = 2 ** 16  # floats (512 kB) a run of any batched pass holds: see ``chunks``


class MatrixStore:
    """Matrices of one shape keyed by time or by (t, s) pair, each computed
    once and kept in ``values`` in the order computed. ``stack`` reads them
    as a new array, ``norms`` their spectral norms, each taken once.

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
        self._norms = np.empty(0)  # of each row of values (or more); NaN until read
        self._keys = np.array([np.nan])  # sorted; NaN sorts last and equals no key
        self._slots = np.array([-1])  # row of values of each key

    def rows(self, keys) -> np.ndarray:
        """The row of ``values`` holding each key, computing unseen keys first a
        ``chunks`` run at a time: a run that raises keeps the runs before it,
        unkeyed, and which error a batch raises can depend on where runs end."""
        keys = np.asarray(keys, dtype=float)
        flat = np.ascontiguousarray(keys).view(complex)[:, 0] if keys.ndim == 2 else keys
        pos = np.searchsorted(self._keys, flat)
        miss = np.flatnonzero(self._keys[pos] != flat)
        if len(miss):
            order = miss[np.argsort(flat[miss], kind="stable")]
            heads = order[np.concatenate(([True], flat[order[1:]] != flat[order[:-1]]))]
            new = np.flatnonzero(np.bincount(heads, minlength=len(flat)))  # first-seen order
            start = len(self.values)
            self.values = np.concatenate((self.values, np.empty((len(new), *self.shape))))
            self._norms = np.concatenate((self._norms[:start], np.full(len(new), np.nan)))
            for lo, hi in chunks(len(new), math.prod(self.shape)):
                try:
                    self.values[start + lo:start + hi] = self.compute(keys[new[lo:hi]])
                except BaseException:
                    self.values = self.values[:start + lo].copy()
                    raise
            # heads holds the new keys in key order, each one's row after new's
            at, slots = pos[heads], start + np.searchsorted(new, heads)
            self._keys = np.insert(self._keys.astype(flat.dtype, copy=False), at, flat[heads])
            self._slots = np.insert(self._slots, at, slots)
            pos = np.searchsorted(self._keys, flat)
        return self._slots[pos]

    def stack(self, keys) -> np.ndarray:
        """The matrices of ``keys`` as a new (m, *shape) stack."""
        rows = self.rows(keys)  # may grow values
        return self.values[rows]

    def norms(self, keys) -> np.ndarray:
        """The spectral norms of the matrices of ``keys``, ``opnorms`` to the
        bit; each row's is computed once, in one batched SVD per ``chunks`` run."""
        rows = self.rows(keys)  # may grow values
        unread = np.zeros(len(self.values), dtype=bool)
        unread[rows] = np.isnan(self._norms[rows])
        unread = np.flatnonzero(unread)
        for lo, hi in chunks(len(unread), math.prod(self.shape)):
            self._norms[unread[lo:hi]] = opnorms(self.values[unread[lo:hi]])
        return self._norms[rows]


def time_stack(name: str, fn, times, n: int) -> np.ndarray:
    """``fn(times)`` over a 1-D float array of m times, checked to be an (m, n, n)
    stack: a wrong shape raises StructuralError and a NaN or inf ValueError (max
    and min keep both: no (m, n, n) mask), naming ``name`` and the first bad time."""
    times = np.asarray(times, dtype=float)
    a = np.asarray(fn(times), dtype=float)
    if a.shape != (len(times), n, n):
        at = f" from t={times[0]}" if len(times) else ""
        raise StructuralError(f"{name}{at} has shape {a.shape}, expected {(len(times), n, n)}")
    finite = np.isfinite(a.max(axis=(1, 2))) & np.isfinite(a.min(axis=(1, 2)))
    if not finite.all():
        raise ValueError(f"{name} is NaN or unbounded at t={times[np.argmin(finite)]}")
    return a


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
    flat = np.abs(stack.transpose(*range(stack.ndim)[-2:], *range(stack.ndim - 2)), order="C")
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


@functools.lru_cache(maxsize=4)
def pair_index(size: int) -> tuple[np.ndarray, np.ndarray]:
    """``grid_pairs``' (t, s) grid indices, read-only: one copy per grid size."""
    index = np.tril_indices(size)
    index[0].flags.writeable = index[1].flags.writeable = False
    return index


def grid_pairs(grid) -> np.ndarray:
    """All ordered pairs (t, s) with t >= s as an (m, 2) array; grid indices
    i >= j sit at row i(i+1)/2 + j. An empty grid raises ValueError."""
    grid = np.asarray(grid, dtype=float)
    if not len(grid):
        raise ValueError("grid must be nonempty")
    rows, cols = pair_index(len(grid))
    return np.stack((grid[rows], grid[cols]), axis=1)


def chunks(items, width: int):
    """Runs [lo, hi) of consecutive items, ``width`` floats a row, each of at
    most ``BUDGET`` floats or of one item. ``items`` is a count of one-row items
    or an array of row counts, cut by ``searchsorted``: no Python step per item."""
    items = np.ones(items, np.int64) if np.ndim(items) == 0 else items
    edge, hi = np.concatenate(([0], np.cumsum(items, dtype=np.int64))) * width, 0
    while hi < len(edge) - 1:
        lo, hi = hi, max(hi + 1, int(np.searchsorted(edge, edge[hi] + BUDGET, "right")) - 1)
        yield lo, hi


def cocycle_residual(values: np.ndarray, rows: np.ndarray, scale: np.ndarray) -> float:
    """Worst residual M(i, k) - M(i, j) M(j, k) over every triple i >= j >= k
    of grid indices of the stack ``values[rows]`` (``grid_pairs`` order), each
    divided by the positive ``scale`` of its (i, k) pair, taken a ``chunks``
    run of (i, j) pairs and their j + 1 triples at a time, gathered by row."""
    t, s = pair_index(math.isqrt(2 * len(rows)))  # len(rows) = size (size + 1) / 2
    # per (i, j) pair: the pair (i, 0), the pair (j, 0) and its first triple
    row_i, row_j, edge = t * (t + 1) // 2, s * (s + 1) // 2, np.cumsum(s + 1) - (s + 1)
    take = lambda pair: values.take(rows.take(pair), axis=0)
    worst = 0.0
    for lo, hi in chunks(s + 1, 5 * values[0].size):  # three gathered, a product, indices
        left = np.repeat(np.arange(lo, hi), s[lo:hi] + 1)  # (i, j)
        k = np.arange(edge[lo], edge[lo] + len(left)) - edge[left]
        direct = row_i[left] + k  # (i, k)
        residual = np.matmul(take(left), take(row_j[left] + k))  # M(i, j) M(j, k)
        np.subtract(take(direct), residual, out=residual)
        bounds = norm_bounds(residual)  # a run all below the worst so far takes no SVD
        if bounds is None or (bounds[1] / scale[direct]).max() * (1.0 + _SCREEN_MARGIN) >= worst:
            worst = max(worst, peak(residual, scale[direct]))
    return worst


def test_vector_batch(dimension: int, samples: int, seed: int) -> tuple[list[str], np.ndarray]:
    """Standard basis columns followed by seeded random unit columns; the
    random block comes first, so a size numpy rejects builds no ids."""
    randoms = np.random.default_rng(seed).standard_normal((dimension, max(samples, 0)))
    randoms /= np.linalg.norm(randoms, axis=0)
    ids = [f"e{i + 1}" for i in range(dimension)]
    ids += [f"r{i + 1:02d}" for i in range(samples)]
    return ids, np.hstack([np.eye(dimension), randoms])
