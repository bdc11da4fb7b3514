"""Exact lattice arithmetic for roots.

Roots are integer tuples over the simple roots.  Root height is the sum of
absolute values of the coordinates and is the truncation parameter used
throughout the package.  No form lives here: a pairing or isotropy query is
answered by the catalog handle, or by the Cartan matrix a base carries.
"""

from __future__ import annotations

from typing import Sequence

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
