"""Exact rational feasibility for small cone-membership queries.

Phase-one simplex with Bland's rule over ``Fraction`` entries.  Ties cannot
occur in exact arithmetic and Bland's rule rules out cycling, so the search
always terminates.  Problem sizes here are tiny (a handful of roots), but an
environment cap ``SUPERROOT_MAX_LP_VARS`` is honoured as a safety valve.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Optional, Sequence

from .errors import FeasibilitySizeError

_ENV_CAP = "SUPERROOT_MAX_LP_VARS"


def _max_vars() -> Optional[int]:
    raw = os.environ.get(_ENV_CAP)
    if raw is None or raw == "":
        return None
    if not raw.strip().isdecimal():
        raise FeasibilitySizeError(f"{_ENV_CAP} must be a nonnegative integer, got {raw!r}")
    return int(raw)


def feasible_nonneg(rows: Sequence[Sequence], b: Sequence) -> Optional[list[Fraction]]:
    """Find x >= 0 with A x = b, or return None if the system is infeasible.

    ``rows`` are the rows of A; all entries are coerced to Fraction.
    """
    a = [[Fraction(x) for x in r] for r in rows]
    rhs = [Fraction(x) for x in b]
    m = len(a)
    n = len(a[0]) if m else 0
    cap = _max_vars()
    if cap is not None and n > cap:
        raise FeasibilitySizeError(f"{n} variables exceeds {_ENV_CAP}={cap}")
    if m == 0:
        return []
    if n == 0:
        return [] if all(x == 0 for x in rhs) else None

    # Orient rows so the right-hand side is nonnegative, append artificials.
    tab = []
    for i in range(m):
        row = a[i][:] if rhs[i] >= 0 else [-x for x in a[i]]
        r = rhs[i] if rhs[i] >= 0 else -rhs[i]
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tab.append(row + art + [r])
    basis = [n + i for i in range(m)]
    total = n + m

    def reduced_cost(j: int) -> Fraction:
        # Cost 1 on artificial columns, 0 on the originals.
        c = Fraction(1) if j >= n else Fraction(0)
        return c - sum(
            (tab[i][j] for i in range(m) if basis[i] >= n), Fraction(0)
        )

    while True:
        enter = next((j for j in range(total) if j not in basis and reduced_cost(j) < 0), None)
        if enter is None:
            break
        # Ratio test, Bland tie-break on the smallest leaving basis index.
        leave = None
        best: Optional[Fraction] = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            # Unbounded direction in phase one cannot occur (costs >= 0).
            raise AssertionError("phase-one simplex became unbounded")
        pv = tab[leave][enter]
        tab[leave] = [x / pv if x else x for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        basis[leave] = enter

    objective = sum((tab[i][total] for i in range(m) if basis[i] >= n), Fraction(0))
    if objective != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][total]
    return x


def in_nonneg_cone(generators: Sequence[Sequence], target: Sequence) -> bool:
    """Exact test for target in the rational cone spanned by the generators."""
    if not generators:
        return all(x == 0 for x in target)
    rows = [[g[i] for g in generators] for i in range(len(target))]
    return feasible_nonneg(rows, target) is not None
