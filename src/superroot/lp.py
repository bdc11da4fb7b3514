"""Exact feasibility for small integer cone-membership queries.

Phase-one simplex with Bland's rule on a fraction-free integer tableau
(Bareiss, *Math. Comp.* 1968; Edmonds, *J. Res. NBS* 1967): every entry is
an integer, and the true tableau is the integer one divided by a common
positive divisor d.  Ties cannot occur in exact arithmetic and Bland's rule
rules out cycling, so the search always terminates.  Problem sizes here are
tiny (a handful of roots).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence


def feasible_nonneg(rows: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[list[Fraction]]:
    """Find x >= 0 with A x = b, or return None if the system is infeasible.

    ``rows`` are the rows of A.  Every entry of A and b must be an int, and
    any other entry raises ``TypeError``: the callers pass root coordinates.

    The tableau is [A | I | b] with the phase-one objective (cost 1 on the
    artificials, priced out) as row m, and its divisor d starts at 1.  A
    pivot on entry pv of row r sets every other row to (pv * x - f * y) // d,
    where f is that row's entry in the pivot column and y is the entry of
    row r in x's column, and then sets d = pv.  The division is exact
    (Bareiss): after any pivots, d is det B for the current basis matrix B,
    drawn from the integer starting tableau, and by Cramer's rule each entry
    is det B times an entry of B^-1 times that tableau, a determinant of
    integers; row m is det B (c - c_B B^-1 [A | I | b]), again integral.
    The true pivot pv / d is positive, so d stays positive, and signs and
    cross-multiplied ratios are read off the integers.  Each basic x_j is
    Fraction(rhs, d).
    """
    for x in chain(b, *rows):
        if type(x) is not int:
            raise TypeError(f"feasible_nonneg takes int entries, not {x!r}")
    a = [list(r) for r in rows]
    rhs = list(b)
    m = len(a)
    n = len(a[0]) if m else 0
    if m == 0:
        return []
    if n == 0:
        return [] if all(x == 0 for x in rhs) else None

    # Orient rows so the right-hand side is nonnegative, append artificials.
    total = n + m
    tab = []
    for i in range(m):
        row, r = (a[i], rhs[i]) if rhs[i] >= 0 else ([-x for x in a[i]], -rhs[i])
        art = [0] * m
        art[i] = 1
        tab.append(row + art + [r])
    objective = [-sum(col) for col in zip(*tab)]
    objective[n:total] = [0] * m
    tab.append(objective)
    basis = [n + i for i in range(m)]
    d = 1

    while True:
        # Basic columns have reduced cost 0, so the first negative one is
        # Bland's entering column.
        cost = tab[m]
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        # Ratio test, Bland tie-break on the smallest leaving basis index.
        leave = None
        for i in range(m):
            y = tab[i][enter]
            if y > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = tab[i][total] * tab[leave][enter]
                best = tab[leave][total] * y
                if lhs < best or (lhs == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            # Unbounded direction in phase one cannot occur (costs >= 0).
            raise AssertionError("phase-one simplex became unbounded")
        prow = tab[leave]
        pv = prow[enter]
        for i, row in enumerate(tab):
            if i == leave:
                continue
            f = row[enter]
            if f:
                tab[i] = [(pv * x - f * y) // d for x, y in zip(row, prow)]
            elif pv != d:
                tab[i] = [pv * x // d for x in row]
        d = pv
        basis[leave] = enter

    # Row m's right-hand side is -d times the sum of the artificials.
    if tab[m][total] != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][total], d)
    return x


def in_nonneg_cone(generators: Sequence[Sequence], target: Sequence) -> bool:
    """Exact test for target in the rational cone spanned by the generators."""
    if not generators:
        return all(x == 0 for x in target)
    rows = [[g[i] for g in generators] for i in range(len(target))]
    return feasible_nonneg(rows, target) is not None
