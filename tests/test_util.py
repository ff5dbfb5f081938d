import numpy as np
import pytest

from tricho import GeneratorSpec, check_cocycle, from_generator, util
from tricho.norms import query_lattice
from tricho.util import grid_pairs, grid_slots, make_grid, opnorms, peak


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
