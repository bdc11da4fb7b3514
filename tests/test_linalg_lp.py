from fractions import Fraction as Q

import pytest

from superroot.linalg import rref, solve
from superroot.lp import feasible_nonneg, in_nonneg_cone
from support import nullspace, rank


def test_rref_identity():
    rows, pivots = rref([[1, 2], [3, 4]])
    assert pivots == [0, 1]
    assert rows == [[Q(1), Q(0)], [Q(0), Q(1)]]


def test_solve_consistent_and_inconsistent():
    a = [[1, 1], [1, -1]]
    assert solve(a, [Q(2), Q(0)]) == [Q(1), Q(1)]
    a2 = [[1, 1], [2, 2]]
    assert solve(a2, [Q(1), Q(3)]) is None


def test_rank_and_solve_stay_exact_on_int_input():
    # in floats the first matrix reads rank 3 and the solution [-1.0, 1.0]
    assert rank([(-3, -1, 1), (-2, 3, 1), (-10, 4, 4)]) == 2
    sol = solve([(1, 2), (3, 4)], [1, 1])
    assert sol == [Q(-1), Q(1)]
    assert all(type(x) is Q for x in sol)
    rows, _ = rref([(2, 4), (1, 3)])
    assert all(type(x) is Q for row in rows for x in row)


def test_nullspace_dimension():
    a = [[1, 2, 3]]
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


@pytest.mark.parametrize("target", [(), (0,), (3,), (-1,), (0, 0, 0), (0, 2, 0), (1, -1, 1)])
def test_the_empty_cone_holds_only_zero(target):
    # in_nonneg_cone answers for no generators itself, and the phase-one
    # tableau, with no branch of its own for them, agrees: with no column of
    # A the artificials leave the basis exactly when the target is zero
    assert in_nonneg_cone([], target) == (not any(target))
    assert feasible_nonneg([[] for _ in target], list(target)) == ([] if not any(target) else None)


def test_degenerate_pivoting_terminates():
    # A classically degenerate system; Bland's rule must still terminate.
    rows = [[1, 1, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1]]
    b = [1, 1, 1]
    sol = feasible_nonneg(rows, b)
    assert sol is not None
    for row, rhs in zip(rows, b):
        assert sum(Q(c) * x for c, x in zip(row, sol)) == rhs
    assert all(x >= 0 for x in sol)


def _reference_feasible_nonneg(rows, b):
    # the Fraction-tableau phase-one simplex that the integer tableau replaced:
    # Bland's rule, reduced costs summed afresh on every iteration
    a = [[Q(x) for x in r] for r in rows]
    rhs = [Q(x) for x in b]
    m = len(a)
    n = len(a[0]) if m else 0
    if m == 0:
        return []
    if n == 0:
        return [] if all(x == 0 for x in rhs) else None
    tab = []
    for i in range(m):
        row = a[i][:] if rhs[i] >= 0 else [-x for x in a[i]]
        art = [Q(0)] * m
        art[i] = Q(1)
        tab.append(row + art + [abs(rhs[i])])
    basis = [n + i for i in range(m)]
    total = n + m

    def reduced_cost(j):
        c = Q(1) if j >= n else Q(0)
        return c - sum((tab[i][j] for i in range(m) if basis[i] >= n), Q(0))

    while True:
        enter = next((j for j in range(total) if j not in basis and reduced_cost(j) < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        pv = tab[leave][enter]
        tab[leave] = [x / pv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        basis[leave] = enter
    if sum((tab[i][total] for i in range(m) if basis[i] >= n), Q(0)) != 0:
        return None
    x = [Q(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][total]
    return x


def _random_system(rng):
    m, n = rng.randint(1, 4), rng.randint(1, 7)
    entry = lambda: rng.randint(-3, 3)
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    shape = rng.choice(("feasible", "degenerate", "zero", "free", "free"))
    if shape == "feasible":
        # b = A x for a nonnegative x: feasible by construction
        x = [rng.randint(0, 3) for _ in range(n)]
        b = [sum(c * v for c, v in zip(r, x)) for r in rows]
    elif shape == "degenerate":
        # a repeated row and a point with zeros: degenerate vertices
        rows.append(list(rows[0]))
        x = [rng.choice((0, 0, 1)) for _ in range(n)]
        b = [sum(c * v for c, v in zip(r, x)) for r in rows]
    elif shape == "zero":
        b = [0] * m
    else:
        b = [entry() for _ in range(m)]
    return rows, b


def test_integer_tableau_equals_the_fraction_tableau():
    # seeded random int systems; the solution, not only feasibility, must
    # match the Fraction simplex
    import random

    rng = random.Random(20240917)
    outcomes = [0, 0]
    for _ in range(1500):
        rows, b = _random_system(rng)
        got = feasible_nonneg(rows, b)
        assert got == _reference_feasible_nonneg(rows, b), (rows, b)
        outcomes[got is None] += 1
        if got is not None:
            assert all(type(x) is Q and x >= 0 for x in got)
            assert all(sum(Q(c) * x for c, x in zip(r, got)) == rhs for r, rhs in zip(rows, b))
    # both verdicts are reached
    assert all(count > 100 for count in outcomes)
    # infeasible, and solved on one pivot from a divisor above 1
    assert feasible_nonneg([[3, 2]], [-1]) is None
    assert feasible_nonneg([[6, 4], [3, 0]], [10, 3]) == [Q(1), Q(1)]


@pytest.mark.parametrize("rows, b", [
    ([[Q(1, 2), 1]], [1]),
    ([[1, 1]], [Q(1)]),
    ([[True, 1]], [1]),
    ([[1, 1]], [1.0]),
])
def test_feasible_nonneg_refuses_a_non_int_entry(rows, b):
    # the tableau is integral: any other entry fails loudly, never coerced
    with pytest.raises(TypeError, match="int entries"):
        feasible_nonneg(rows, b)
