from fractions import Fraction as Q

import pytest

from superroot.errors import FeasibilitySizeError
from superroot.linalg import mat, nullspace, rank, rref, solve
from superroot.lp import feasible_nonneg, in_nonneg_cone


def test_rref_identity():
    rows, pivots = rref(mat([[1, 2], [3, 4]]))
    assert pivots == [0, 1]
    assert rows == [[Q(1), Q(0)], [Q(0), Q(1)]]


def test_solve_consistent_and_inconsistent():
    a = mat([[1, 1], [1, -1]])
    assert solve(a, [Q(2), Q(0)]) == [Q(1), Q(1)]
    a2 = mat([[1, 1], [2, 2]])
    assert solve(a2, [Q(1), Q(3)]) is None


def test_nullspace_dimension():
    a = mat([[1, 2, 3]])
    ns = nullspace(a)
    assert len(ns) == 2
    for v in ns:
        assert sum(x * y for x, y in zip((1, 2, 3), v)) == 0
    assert rank(a) == 1


def test_feasible_simple():
    # x + y = 2, x - y = 0 with x,y >= 0: feasible at (1,1)
    sol = feasible_nonneg([[1, 1], [1, -1]], [2, 0])
    assert sol == [Q(1), Q(1)]


def test_infeasible_needs_negative():
    # x = -1 with x >= 0
    assert feasible_nonneg([[1]], [-1]) is None


def test_cone_membership():
    gens = [(1, 0), (1, 1)]
    assert in_nonneg_cone(gens, (2, 1))       # 1*(1,0) + 1*(1,1)
    assert in_nonneg_cone(gens, (0, 0))
    assert not in_nonneg_cone(gens, (-1, 0))
    assert not in_nonneg_cone(gens, (0, 1))   # would need a negative multiple of (1,0)


def test_degenerate_pivoting_terminates():
    # A classically degenerate system; Bland's rule must still terminate.
    rows = [[1, 1, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1]]
    b = [1, 1, 1]
    sol = feasible_nonneg(rows, b)
    assert sol is not None
    for row, rhs in zip(rows, b):
        assert sum(Q(c) * x for c, x in zip(row, sol)) == rhs
    assert all(x >= 0 for x in sol)


def test_env_cap(monkeypatch):
    monkeypatch.setenv("SUPERROOT_MAX_LP_VARS", "2")
    with pytest.raises(FeasibilitySizeError):
        feasible_nonneg([[1, 1, 1]], [1])
    for malformed in ("two", "-1", "2.5"):
        monkeypatch.setenv("SUPERROOT_MAX_LP_VARS", malformed)
        with pytest.raises(FeasibilitySizeError, match="SUPERROOT_MAX_LP_VARS"):
            feasible_nonneg([[1, 1, 1]], [1])
    monkeypatch.delenv("SUPERROOT_MAX_LP_VARS")
    assert feasible_nonneg([[1, 1, 1]], [1]) is not None
