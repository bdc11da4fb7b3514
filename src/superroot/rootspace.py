"""Exact coordinate arithmetic for roots.

Roots are integer tuples over the simple roots.  ``pair`` evaluates a root on
a rational combination of the simple coroots, the bilinear extension of the
defining pairing a_ij; ``bilinear`` is the symmetrized form attached to a
symmetrizer.  Root height is the sum of absolute values of the coordinates
and is the truncation parameter used throughout the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .cartan import CartanData
from .errors import DimensionMismatchError, NotSymmetrizableError

Root = tuple[int, ...]


def height(beta: Sequence[int]) -> int:
    return sum(abs(c) for c in beta)


def add(x: Root, y: Root) -> Root:
    return tuple(a + b for a, b in zip(x, y))


def sub(x: Root, y: Root) -> Root:
    return tuple(a - b for a, b in zip(x, y))


def neg(x: Root) -> Root:
    return tuple(-a for a in x)


def scale(k: int, x: Root) -> Root:
    return tuple(k * a for a in x)


def pair(beta: Sequence, h: Sequence, cd: CartanData) -> Fraction:
    """Evaluate beta on the coroot h: sum over i,j of h_i beta_j a_ij."""
    if len(beta) != cd.n or len(h) != cd.n:
        raise DimensionMismatchError("vector length differs from Cartan rank")
    total = Fraction(0)
    for i, hi in enumerate(h):
        if hi == 0:
            continue
        row = cd.matrix[i]
        total += hi * sum((beta[j] * row[j] for j in range(cd.n)), Fraction(0))
    return total


def bilinear(beta: Sequence, gamma: Sequence, cd: CartanData, d: Optional[Sequence[Fraction]]) -> Fraction:
    """Symmetric form (alpha_i, alpha_j) = d_i a_ij, extended bilinearly."""
    if d is None:
        raise NotSymmetrizableError("no symmetrizer available")
    if len(beta) != cd.n or len(gamma) != cd.n:
        raise DimensionMismatchError("vector length differs from Cartan rank")
    total = Fraction(0)
    for i, bi in enumerate(beta):
        if bi == 0:
            continue
        row = cd.matrix[i]
        total += d[i] * bi * sum((gamma[j] * row[j] for j in range(cd.n)), Fraction(0))
    return total
