import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricho import (GeneratorSpec, ProjectorFamily, build_inverses, build_norm_family,
                    check_cocycle, check_compatible, check_identity,
                    check_invariance, check_inverse_properties,
                    check_orthogonal, check_trichotomy,
                    from_generator, runner, scenario_from_tree, trichotomy, util)
from tricho.norms import query_lattice
from tricho.scenario import read_tree
from tricho.util import grid_pairs, make_grid, norm_bounds, opnorms, peak, range_basis


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
    assert peak(np.ones((4, 3, 0))) == peak(np.ones((2, 0, 3))) == 0.0  # empty matrices


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


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.integers(1, 4), st.data())
def test_peak_is_the_largest_scaled_norm_from_1e_200_to_1e200(m, rows, cols, data):
    """Entries span 1e-200 to 1e200 with zeros, so both the direct and the
    rescaled Frobenius bound are taken, and matrices far apart in size meet
    in one stack."""
    def draw(elements, shape):
        return np.array(data.draw(st.lists(elements, min_size=math.prod(shape),
                                           max_size=math.prod(shape)))).reshape(shape)
    shape = (m, rows, cols)
    sign = draw(st.sampled_from([-1.0, 0.0, 0.0, 1.0]), shape)
    stack = sign * 10.0 ** draw(st.floats(-200.0, 200.0), shape)
    stack *= 10.0 ** draw(st.floats(-200.0, 0.0), (m, 1, 1))  # sizes apart
    scale = 10.0 ** draw(st.floats(-3.0, 3.0), (m,))
    assert peak(stack, scale) == all_svd_peak(stack, scale)
    assert peak(stack) == all_svd_peak(stack)
    stack[data.draw(st.integers(0, m - 1)), 0, 0] = np.inf  # an inf: every matrix
    assert np.isnan(peak(stack, scale)) and np.isnan(all_svd_peak(stack, scale))


def test_peak_screen_keeps_the_largest_of_each_segment():
    rng = np.random.default_rng(7)
    stack = rng.standard_normal((30, 3, 3)) * 10.0 ** rng.uniform(-170, 170, (30, 1, 1))
    stack[10:15] = 0.0  # a segment of zeros keeps all its rows: none is below 0
    keep = util.contenders(*util.norm_bounds(stack), 5)
    norms = opnorms(stack)
    for lo in range(0, 30, 5):
        assert keep[lo:lo + 5].any()
        assert norms[lo:lo + 5][keep[lo:lo + 5]].max() == norms[lo:lo + 5].max()
    assert not keep.all()
    assert util.norm_bounds(np.where(np.arange(30)[:, None, None] == 3, np.nan, stack)) is None


def ode_block_g41():
    """The ode_block_g41 benchmark operator and its grid: G = 41, 861 pairs,
    12,341 triples."""
    matrix = [[-1.5, 0.0, 0.0, 0.0], [0.0, 2.5, 1.0, 0.0],
              [0.0, -1.0, 2.5, 0.0], [0.0, 0.0, 0.0, 0.0]]
    grid = make_grid(10.0, 0.25)
    return from_generator(GeneratorSpec.constant(matrix, 0.05),
                          anchors=query_lattice(grid, 5.0, 0.25)), grid


def test_cocycle_sends_fewer_residuals_than_triples_to_the_svd(monkeypatch):
    operator, grid = ode_block_g41()
    stack = operator.evaluate_many(grid_pairs(grid))
    row = lambda a, b: a * (a + 1) // 2 + b  # of pair (a, b) in grid_pairs
    i, j, k = np.array([(i, j, k) for i in range(len(grid))
                        for j in range(i + 1) for k in range(j + 1)]).T
    direct, left, right = row(i, k), row(i, j), row(j, k)
    want = all_svd_peak(stack[direct] - stack[left] @ stack[right],
                        np.maximum(1.0, opnorms(stack))[direct])
    operator.norms(grid_pairs(grid))  # the scale |U| is kept beside U: not counted
    counted = []

    def counting(stack):
        counted.append(len(stack))
        return opnorms(stack)
    monkeypatch.setattr(util, "opnorms", counting)
    got = check_cocycle(operator, grid, 1e-8).residuals["cocycle"]
    assert got == want > 0.0
    assert 0 < sum(counted) < len(direct) // 10


def test_cocycle_residual_stacks_are_no_taller_than_the_pair_stack(monkeypatch):
    operator, grid = ode_block_g41()
    heights, peaked = [], []

    def bounding(stack):  # each run's residuals, and again in peak for a run screened in
        heights.append(len(stack))
        return norm_bounds(stack)

    def measuring(stack, scale=1.0):
        peaked.append(len(stack))
        return peak(stack, scale)
    monkeypatch.setattr(util, "norm_bounds", bounding)
    monkeypatch.setattr(util, "peak", measuring)
    check_cocycle(operator, grid, 1e-8)
    assert sum(heights) - sum(peaked) == 12341 and peaked
    assert max(heights) <= len(grid_pairs(grid)) == 861


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
        assert store.stack([keys[0]])[0].tobytes() == want[0].tobytes()
        handed_out.append((got, want, store.stack([keys[-1]])[0]))
    # compute saw each unseen key once, the first-seen one of 0.0 and -0.0,
    # in first-seen order, batch by batch
    assert seen["array"] == seen["dict"]
    assert [np.signbit(batch).tolist() for batch in seen["array"]] == [
        np.signbit(batch).tolist() for batch in seen["dict"]]
    # stacks and rows handed out before later batches are unchanged
    for got, want, row in handed_out:
        assert got.tobytes() == want.tobytes()
        assert row.tobytes() == want[-1].tobytes()


def zero_at_three(pairs):
    """``pair_matrices``, zero where t = 3."""
    return [np.zeros((2, 2)) if t == 3.0 else m
            for (t, _), m in zip(pairs, pair_matrices(pairs))]


def test_store_norms_are_opnorms_read_once(monkeypatch):
    sent = []

    def counting(stack):
        sent.extend(m.tobytes() for m in stack)
        return opnorms(stack)
    monkeypatch.setattr(util, "opnorms", counting)
    store = util.MatrixStore((2, 2), lambda pairs: zero_at_three(pairs.tolist()))
    first = [(2.0, 1.0), (3.0, 0.0), (2.0, 1.0), (0.5, 0.25), (3.0, 0.0)]  # repeats, a zero
    for keys in (first, first[::-1]):
        got = store.norms(keys)
        assert got.tobytes() == opnorms(store.stack(keys)).tobytes()
    assert len(sent) == 3 and got[0] == 0.0
    store.stack([(7.5, 2.0), (2.0, 0.5)])  # rows added after norms were read
    keys = [(7.5, 2.0), (2.0, 1.0), (3.0, 0.0), (4.0, 1.0)]  # read, unread, unseen
    assert store.norms(keys).tobytes() == opnorms(store.stack(keys)).tobytes()
    assert len(sent) == 5 and len(set(sent)) == 5
    assert store.norms(keys + first).tobytes() == opnorms(store.stack(keys + first)).tobytes()
    assert len(sent) == 5


def test_a_run_that_raises_keeps_the_runs_before_it_unkeyed(monkeypatch):
    """With two keys a run, a compute that raises on the second run leaves
    the first run's rows in ``values`` with no key, as a family's notes kept
    by compute call line up; the next batch's rows follow them."""
    monkeypatch.setattr(util, "BUDGET", 2 * 4)  # two 2 x 2 matrices a run
    calls = []

    def compute(times):
        calls.append(times.tolist())
        if (times < 0.0).any():
            raise ValueError("a negative time")
        return times[:, None, None] * np.ones((len(times), 2, 2))
    store = util.MatrixStore((2, 2), compute)
    with pytest.raises(ValueError, match="a negative time"):
        store.rows([1.0, 2.0, -3.0, 4.0, 5.0])
    assert calls == [[1.0, 2.0], [-3.0, 4.0]] and store.values[:, 0, 0].tolist() == [1.0, 2.0]
    assert store.rows([2.0, 6.0]).tolist() == [2, 3]
    assert store.stack([6.0, 2.0])[:, 0, 0].tolist() == [6.0, 2.0]
    assert store.norms([2.0, 6.0]).tobytes() == opnorms(store.stack([2.0, 6.0])).tobytes()


def test_single_pair_lookups_match_one_batch():
    """5,151 one-pair ``evaluate`` calls over the unseen grid pairs of the
    rate_g101 workload (the nonuniform example at step 0.1), each merging one
    new key into the store, give the matrices of one batched call."""
    tree = read_tree(Path(__file__).resolve().parents[1] / "scenarios" / "nonuniform_example.json")
    tree["grid"]["step"] = 0.1
    example = scenario_from_tree(tree)
    grid = make_grid(example.grid_max, example.grid_step)
    pairs = grid_pairs(grid)
    batched, single = (runner._build_operator(example, grid) for _ in range(2))
    want = batched.evaluate_many(pairs)
    order = np.random.default_rng(3).permutation(len(pairs))  # keys land between seen ones
    got = np.empty_like(want)
    for i in order.tolist():
        got[i] = single.evaluate(*pairs[i].tolist())
    assert len(pairs) == 5151
    assert got.tobytes() == want.tobytes()
    assert single.evaluate_many(pairs).tobytes() == want.tobytes()
    assert single.store.values.shape == (5151, 3, 3)


def test_every_read_is_a_new_array_with_the_stores_bits():
    """``MatrixStore.stack``, ``EvolutionOperator.evaluate`` and
    ``InverseFamily.evaluate`` each return a new, writable array holding the
    store's bits; writing into it leaves the next read unchanged."""
    store = util.MatrixStore((2, 2), pair_matrices)
    operator = from_generator(GeneratorSpec.constant(np.diag([-1.0, 0.5, 2.0]), 0.1),
                              anchors=[0.0, 1.0, 2.0])
    inverses = build_inverses(operator, ProjectorFamily.coordinate_split(1, 1, 1))[2]
    for source, read, keys in [
            (store, store.stack, [(2.0, 1.0), (3.0, 0.0), (2.0, 1.0)]),
            (operator.store, lambda keys: operator.evaluate(*keys[0]), [(2.0, 0.5)]),
            (inverses.store, lambda keys: inverses.evaluate(*keys[0]), [(2.0, 0.5)])]:
        got = read(keys)
        held = source.values[source.rows(keys)].reshape(got.shape)
        assert got.tobytes() == held.tobytes() and held.any()
        assert got.flags.writeable and not np.shares_memory(got, source.values)
        got[...] = 7.0
        assert read(keys).tobytes() == held.tobytes()
    assert store.stack([]).shape == (0, 2, 2)


def projector(*columns):
    """The orthogonal projector onto the span of ``columns`` in R^3."""
    q, _ = np.linalg.qr(np.array(columns, dtype=float).T)
    return q @ q.T


def test_batched_range_bases_match_range_basis_bit_for_bit():
    times = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 7.25]

    def turning(times):  # rank 0 before t = 1, then 1, then 2 from t = 2.5
        def at(t):
            if t < 1.0:
                return np.zeros((3, 3))
            first = [math.cos(t), math.sin(t), 0.5]
            return projector(first) if t < 2.5 else projector(first, [0.0, 1.0, t])
        return np.reshape([at(t) for t in times], (-1, 3, 3))

    oblique = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    turning_family = ProjectorFamily(3, [turning, lambda times: np.eye(3) - turning(times),
                                         lambda times: np.zeros((len(times), 3, 3))])
    families = [ProjectorFamily.coordinate_split(1, 2, 0),
                ProjectorFamily.constant(oblique, np.eye(3) - oblique, np.zeros((3, 3))),
                turning_family]
    ranks = lambda family, j: np.count_nonzero(family.frame(j, times)[0].any(axis=-2), axis=-1)
    for family in families:
        for j in (1, 2, 3):
            bases, left = family.frame(j, times)
            for t, basis, rank, s in zip(times, bases, ranks(family, j), left):
                p = family.stack(j, [t])[0]
                want = range_basis(p)
                if family.frames is not None:  # a constant frame: columns by leading row
                    want = want[:, np.argsort(np.abs(want).argmax(axis=0), kind="stable")]
                assert rank == want.shape[1]
                assert basis.shape[1] == (rank if family.frames is not None else 3)
                assert np.ascontiguousarray(basis[:, :rank]).tobytes() == want.tobytes()
                assert not basis[:, rank:].any()
                assert s.tobytes() == (basis.T @ p).tobytes()
    assert ranks(turning_family, 1).tolist() == [0, 0, 1, 1, 1, 2, 2, 2]
    assert ranks(turning_family, 2).tolist() == [3, 3, 2, 2, 2, 1, 1, 1]


def test_impossible_test_vector_batch_raises_before_building_ids(monkeypatch):
    def bounded_range(n):  # an id list this long would not finish
        assert n < 10 ** 6, "ids built before the random block"
        return range(n)

    monkeypatch.setattr(util, "range", bounded_range, raising=False)
    for samples in (10 ** 30, 2 ** 62):  # numpy rejects both before allocating
        with pytest.raises(ValueError):
            util.test_vector_batch(3, samples, 0)
    ids, x = util.test_vector_batch(3, 4, 0)
    assert ids == ["e1", "e2", "e3", "r01", "r02", "r03", "r04"] and x.shape == (3, 7)


EMPTY_GRID_ENTRY_POINTS = {
    "check_identity": lambda op, family, rates: check_identity(op, [], 1e-10),
    "check_cocycle": lambda op, family, rates: check_cocycle(op, [], 1e-10),
    "check_invariance": lambda op, family, rates: check_invariance(family, op, [], 1e-10),
    "check_inverse_properties": lambda op, family, rates: check_inverse_properties(
        op, family, 2, [], 1e-10),
    "check_compatible": lambda op, family, rates: check_compatible(family, op, [], 1e-10),
    "check_orthogonal": lambda op, family, rates: check_orthogonal(family, [], 1e-10),
    "check_trichotomy": lambda op, family, rates: check_trichotomy(op, family, rates, []),
    "build_norm_family": lambda op, family, rates: build_norm_family(
        "forward", op, family, rates, 1.0, 0.5, []),
}


@pytest.mark.parametrize("entry", EMPTY_GRID_ENTRY_POINTS.values(),
                         ids=EMPTY_GRID_ENTRY_POINTS)
def test_an_empty_grid_raises_at_every_entry_point(entry, nonuniform_operator,
                                                   split_family, exp_rates):
    # no check passes vacuously on no times
    with pytest.raises(ValueError, match="grid must be nonempty"):
        entry(nonuniform_operator, split_family, exp_rates)


def covered(runs, sizes, width, budget) -> None:
    """``chunks``' runs are contiguous, cover every item once, and each holds
    at most ``budget`` floats or one item."""
    ends = [0] + [hi for _, hi in runs]
    assert [lo for lo, _ in runs] == ends[:-1] and ends[-1] == len(sizes)
    for lo, hi in runs:
        assert hi > lo and (sum(sizes[lo:hi]) * width <= budget or hi - lo == 1)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(counts=st.lists(st.integers(0, 50), max_size=40), items=st.integers(0, 300),
       width=st.integers(1, 20), budget=st.integers(1, 400))
def test_chunks_cover_every_item_once_within_the_budget(counts, items, width, budget):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(util, "BUDGET", budget)
        covered(list(util.chunks(np.array(counts, dtype=int), width)), counts, width, budget)
        covered(list(util.chunks(items, width)), [1] * items, width, budget)
        # equal items are runs of as many as fit, as per-item counts of 1 give them
        assert list(util.chunks(items, width)) == list(util.chunks(np.ones(items, int), width))


def g201():
    """The nonuniform example at step 0.05 (G=201): its scenario and grid."""
    tree = read_tree(Path(__file__).resolve().parents[1] / "scenarios" / "nonuniform_example.json")
    tree["grid"]["step"] = 0.05
    scenario = scenario_from_tree(tree)
    return scenario, make_grid(scenario.grid_max, scenario.grid_step)


def high_water(call) -> float:
    """The tracemalloc high-water of ``call()`` in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cocycle_and_factor_table_walk_in_bounded_runs():
    """At G=201 (20,301 pairs, 1.5 MB a stack of U) U's first read, the
    cocycle's triples and a splitting system's factors go a ``chunks`` run at
    a time: 6.5 and 10.1 MB traced, where whole-stack passes took 10.1 and
    18.9 MB."""
    scenario, grid = g201()
    operator = runner._build_operator(scenario, grid)
    assert len(grid) == 201
    assert high_water(lambda: check_cocycle(operator, grid, 1e-10)) <= 8e6
    operator = runner._build_operator(scenario, grid)
    assert high_water(lambda: trichotomy.factor_table(
        operator, scenario.family, scenario.rates, grid)) <= 14e6
