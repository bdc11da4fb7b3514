"""Exact lattice arithmetic for roots.

Roots are integer tuples over the simple roots.  Root height is the sum of
absolute values of the coordinates and is the truncation parameter used
throughout the package.  No form lives here: a pairing or isotropy query is
answered by the catalog handle, or by the Cartan matrix a base carries.
"""

from __future__ import annotations

from typing import Optional, Sequence

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


def check_bound(name: str, value: Optional[int]) -> None:
    """The one check of a height, degree or window bound: None or an int >= 0."""
    if value is not None and type(value) is not int:  # a bool or a float is refused, not coerced
        raise TypeError(f"{name} must be an int or None, got {value!r}")
    if value is not None and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
