"""Exact rational linear algebra, and the one form of an exact scalar.

``frac`` parses an input scalar, and ``exact`` picks the one stored form of a
scalar: an int when integral, else the Fraction.  Matrices are small dense
sequences of rows; ``rref`` and ``solve`` take ints or Fractions and compute
in Fractions, never in floats.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence

from .errors import SuperrootError


def frac(x) -> Fraction:
    """An exact rational from a Fraction, an int (not a bool) or a "p/q" string, q != 0."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int or (isinstance(x, str) and re.fullmatch(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?", x)):
        return Fraction(x)
    raise SuperrootError(f'expected an integer, a Fraction or a "p/q" string, got {x!r}')


def exact(x):
    """An exact scalar in its one stored form: an int when integral, else the
    Fraction.  A bool, a float, a string or anything else raises TypeError."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"exact scalars are int or Fraction, not {x!r}")


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form, in Fractions; returns (rows, pivot column indices)."""
    m = [[Fraction(x) for x in r] for r in rows]
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


def solve(rows: Sequence[Sequence], b: Sequence) -> Optional[list[Fraction]]:
    """One exact solution of A x = b (free variables set to 0), or None."""
    if not rows:
        return [] if all(x == 0 for x in b) else None
    ncols = len(rows[0])
    aug = [list(r) + [bi] for r, bi in zip(rows, b)]
    red, pivots = rref(aug)
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        if c == ncols:  # a row 0 = b_i with b_i != 0
            return None
        sol[c] = red[i][-1]
    return sol

