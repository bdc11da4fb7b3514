"""Exact rational linear algebra on tuples of Fractions.

Everything here is small and dense: matrices are lists (or tuples) of rows,
entries are ``fractions.Fraction``.  No floating point anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import SuperrootError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def frac(x) -> Fraction:
    """An exact rational from a Fraction, an int (not a bool) or a "p/q" string, q != 0."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int or (isinstance(x, str) and re.fullmatch(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?", x)):
        return Fraction(x)
    raise SuperrootError(f'expected an integer, a Fraction or a "p/q" string, got {x!r}')


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def is_zero_vec(x: Sequence) -> bool:
    return all(a == 0 for a in x)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def solve(rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """One exact solution of A x = b (free variables set to 0), or None."""
    if not rows:
        return [] if is_zero_vec(b) else None
    ncols = len(rows[0])
    aug = [list(r) + [bi] for r, bi in zip(rows, b)]
    red, pivots = rref(aug)
    for row in red:
        if is_zero_vec(row[:-1]) and row[-1] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        if c == ncols:
            return None
        sol[c] = red[i][-1]
    return sol


def nullspace(rows: Sequence[Sequence[Fraction]]) -> list[Vec]:
    """Basis of the right nullspace of A."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        basis.append(tuple(v))
    return basis
