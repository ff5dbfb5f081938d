import math

import numpy as np

from tricho.reports import Rows, TheoremReport, TrichotomyReport, smallest_margins


def test_ties_in_factor_and_margin_bind_the_first_record():
    grid = [0.0, 1.0]
    t, s = np.tril_indices(2)  # pairs (0, 0), (1, 0), (1, 1)
    value = np.array([[1.0, 2.0], [3.0, 2.0], [3.0, 0.5]])
    rows = Rows(grid, t, s, ["a", "b"], value, np.array([4.0, 4.0]), binds=["s", "t"])
    assert rows.margin().tolist() == (4.0 - value).tolist()
    report = TrichotomyReport("x", grid, rows, pointwise={}, requirement=[],
                              envelope=[], uniform_constant=3.0,
                              bound_values=[4.0, 4.0])
    binding = report.payload()["binding"]
    at = {tag: {kind: (r["t"], r["s"]) for kind, r in b.items()}
          for tag, b in binding.items()}
    assert at == {"a": {"factor": (1.0, 0.0), "margin": (1.0, 0.0)},
                  "b": {"factor": (0.0, 0.0), "margin": (0.0, 0.0)}}


def test_ties_in_theorem_margins_bind_the_first_record_and_its_zero():
    grid = [0.0, 1.0]
    diagonal = np.arange(2)
    margin = np.array([[0.0, 1.0, 0.5], [-0.0, 0.5, 2.0]])
    vector = np.array([[0, 1, 0], [1, 0, 1]], dtype=np.uint8)
    table = Rows(grid, diagonal, diagonal, ["a", "p", "p"], np.zeros((2, 3)), margin,
                 vector, np.zeros((2, 3), dtype=bool), ["e1", "e2"])
    assert table.margin().tobytes() == margin.tobytes()  # rhs - 0.0 keeps -0.0
    best = smallest_margins([table])
    assert (best["a"]["t"], best["a"]["vector_id"]) == (0.0, "e1")
    assert math.copysign(1.0, best["a"]["margin"]) == 1.0  # as min() keeps it
    assert best["p"] == {"tag": "p", "t": 0.0, "s": 0.0, "vector_id": "e1",
                         "lhs": 0.0, "rhs": 0.5, "margin": 0.5, "vacuous": False}
    report = TheoremReport("x", [table], {}, 0.0, 1e-9, 0.0, True)
    assert report.payload()["binding"] == best
