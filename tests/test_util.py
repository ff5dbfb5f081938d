import math

import numpy as np
import pytest

from tricho import GeneratorSpec, ProjectorFamily, check_cocycle, from_generator, util
from tricho.norms import query_lattice
from tricho.util import grid_pairs, grid_slots, make_grid, opnorms, peak, range_basis


def all_svd_peak(stack, scale=1.0):
    """The reference: every matrix through the SVD."""
    return float(np.max(opnorms(stack) / scale, initial=0.0))


def test_peak_matches_every_matrix_through_the_svd():
    rng = np.random.default_rng(5)
    for shape in ((40, 3, 3), (40, 4, 4), (40, 3, 1), (40, 2, 5), (6, 7, 3, 3)):
        for trial in range(20):
            stack = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8)
            scale = 10.0 ** rng.uniform(-3, 3, shape[:-2])
            assert peak(stack, scale) == all_svd_peak(stack, scale)
            assert peak(stack) == all_svd_peak(stack)
    # ties: equal spectral norms with unequal Frobenius norms, and repeats
    ties = np.stack([np.diag(d) for d in ([1.0, 0, 0], [1.0, 1.0, 1.0],
                                          [1.0, 0.5, 0.5], [0.5, 1.0, 0])] * 3)
    assert peak(ties) == all_svd_peak(ties) == 1.0
    assert peak(ties, np.ones(12)) == 1.0
    lone = np.stack([np.diag([0.9, 0.3, 0.3]), np.diag([1.0, 0, 0])])  # bounds meet
    assert peak(lone) == all_svd_peak(lone) == 1.0


def test_peak_of_zeros_takes_no_svd(monkeypatch):
    def refuse(stack):
        raise AssertionError("no SVD expected")
    monkeypatch.setattr(util, "opnorms", refuse)
    assert peak(np.zeros((5, 3, 3)), np.full(5, 2.0)) == 0.0
    assert peak(np.zeros((0, 3, 3))) == 0.0
    assert peak(-0.0 * np.ones((2, 3, 1))) == 0.0


def test_peak_keeps_the_svd_answer_on_nonfinite_residuals():
    stack = np.zeros((4, 3, 3))
    stack[1] = np.eye(3)
    stack[2, 0, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        all_svd_peak(stack)
    with pytest.raises(np.linalg.LinAlgError):
        peak(stack)
    stack[2, 0, 1] = np.inf
    assert np.isnan(all_svd_peak(stack)) and np.isnan(peak(stack))
    assert np.isnan(peak(stack, np.full(4, 3.0)))


def test_cocycle_sends_fewer_residuals_than_triples_to_the_svd(monkeypatch):
    # the ode_block_g41 benchmark operator: G = 41, 12,341 triples
    matrix = [[-1.5, 0.0, 0.0, 0.0], [0.0, 2.5, 1.0, 0.0],
              [0.0, -1.0, 2.5, 0.0], [0.0, 0.0, 0.0, 0.0]]
    grid = make_grid(10.0, 0.25)
    operator = from_generator(GeneratorSpec.constant(matrix, 0.05),
                              anchors=query_lattice(grid, 5.0, 0.25))
    pairs, slots = grid_pairs(grid), grid_slots(len(grid))
    stack = operator.evaluate_many(pairs)
    direct, left, right = slots.T
    want = all_svd_peak(stack[direct] - stack[left] @ stack[right],
                        np.maximum(1.0, opnorms(stack))[direct])
    counted = []

    def counting(stack):
        counted.append(len(stack))
        return opnorms(stack)
    monkeypatch.setattr(util, "opnorms", counting)
    got = check_cocycle(operator, slots, 1e-8, pairs=pairs).residuals["cocycle"]
    assert got == want > 0.0
    assert 0 < sum(counted) < len(slots) // 10



class DictStore:
    """The reference: matrices by float or float-tuple key in a dict, each
    computed once, as the store was before it was keyed by arrays."""

    def __init__(self, shape, compute):
        self.shape, self.compute = tuple(shape), compute
        self.index, self.values = {}, np.empty((0, *self.shape))

    def stack(self, keys):
        missing = [k for k in dict.fromkeys(keys) if k not in self.index]
        if missing:
            stack = np.asarray(self.compute(missing), dtype=float)
            start = len(self.values)
            self.index.update(zip(missing, range(start, start + len(missing))))
            self.values = np.concatenate((self.values, stack.reshape(-1, *self.shape)))
        return self.values[[self.index[k] for k in keys]]


def pair_matrices(pairs):
    """A 2x2 matrix per (t, s) pair, keeping the sign of a zero time."""
    return np.array([[[t, s], [t * s, 1.0 / (1.0 + t + s)]] for t, s in pairs])


def time_matrices(times):
    return np.array([[[t, -t], [2.0 * t, 1.0 / (1.0 + t)]] for t in times])


PAIR_BATCHES = [
    [(2.0, 1.0), (0.5, 0.25), (2.0, 1.0), (3.0, 0.0), (0.5, 0.25)],  # unsorted, repeated
    [(3.0, -0.0), (1.0, -0.0), (1.0, 0.0), (0.0, 0.0), (-0.0, -0.0)],  # 0.0 and -0.0 are one key
    [(2.0, 1.0), (7.5, 2.0), (2.0, 1.5), (2.0, 0.5)],  # seen and unseen, new keys in between
    [(float(t), float(s)) for t in range(40) for s in range(0, t + 1, 7)][::-1],
    [(1.0, 0.0), (7.5, 2.0), (39.0, 35.0)],  # all seen
]
TIME_BATCHES = [[2.0, 0.5, 2.0, 0.0], [-0.0, 1.0, 0.0, 0.5],
                np.arange(30.0)[::-3].tolist(), [0.0, 2.0]]


@pytest.mark.parametrize("batches, matrices", [(PAIR_BATCHES, pair_matrices),
                                               (TIME_BATCHES, time_matrices)],
                         ids=["pairs", "times"])
def test_array_store_matches_the_dict_store_bit_for_bit(batches, matrices):
    seen = {"dict": [], "array": []}

    def logged(name):
        def compute(keys):
            keys = [tuple(k) if isinstance(k, list) else k
                    for k in (keys if isinstance(keys, list) else keys.tolist())]
            seen[name].append(keys)
            return matrices(keys)
        return compute

    reference = DictStore((2, 2), logged("dict"))
    store = util.MatrixStore((2, 2), logged("array"))
    handed_out = []
    for keys in batches:
        want = reference.stack(keys)
        for form in (keys, np.array(keys)):  # a list and an array give the same rows
            got = store.stack(form)
            assert got.tobytes() == want.tobytes()
        assert store.get(keys[0]).tobytes() == want[0].tobytes()
        handed_out.append((got, want, store.get(keys[-1])))
    # compute saw each unseen key once, the first-seen one of 0.0 and -0.0,
    # in first-seen order, batch by batch
    assert seen["array"] == seen["dict"]
    assert [np.signbit(batch).tolist() for batch in seen["array"]] == [
        np.signbit(batch).tolist() for batch in seen["dict"]]
    # stacks and rows handed out before later batches are unchanged
    for got, want, row in handed_out:
        assert got.tobytes() == want.tobytes()
        assert row.tobytes() == want[-1].tobytes()


def test_store_rows_are_read_only_and_stacks_are_new():
    store = util.MatrixStore((2, 2), pair_matrices)
    first = store.stack([(2.0, 1.0), (3.0, 0.0)])
    first[:] = 7.0
    assert store.get((2.0, 1.0))[0, 0] == 2.0
    with pytest.raises(ValueError):
        store.get((2.0, 1.0))[0, 0] = 7.0
    assert store.stack([]).shape == (0, 2, 2)


def projector(*columns):
    """The orthogonal projector onto the span of ``columns`` in R^3."""
    q, _ = np.linalg.qr(np.array(columns, dtype=float).T)
    return q @ q.T


def test_batched_range_bases_match_range_basis_bit_for_bit():
    times = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 7.25]

    def turning(t):  # rank 0 before t = 1, then 1, then 2 from t = 2.5
        if t < 1.0:
            return np.zeros((3, 3))
        first = [math.cos(t), math.sin(t), 0.5]
        return projector(first) if t < 2.5 else projector(first, [0.0, 1.0, t])

    oblique = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    turning_family = ProjectorFamily(3, [turning, lambda t: np.eye(3) - turning(t),
                                         lambda t: np.zeros((3, 3))])
    families = [ProjectorFamily.coordinate_split(1, 2, 0),
                ProjectorFamily.constant(oblique, np.eye(3) - oblique, np.zeros((3, 3))),
                turning_family]
    for family in families:
        for j in (1, 2, 3):
            family.bases(j, times[5:][::-1])  # a first batch
            bases, ranks = family.bases(j, times)
            for t, basis, rank in zip(times, bases, ranks):
                want = range_basis(family.member(j, t))
                assert rank == want.shape[1]
                assert basis[:, :rank].tobytes() == want.tobytes()
                assert not basis[:, rank:].any()
    assert turning_family.bases(1, times)[1].tolist() == [0, 0, 1, 1, 1, 2, 2, 2]
    assert turning_family.bases(2, times)[1].tolist() == [3, 3, 2, 2, 2, 1, 1, 1]
