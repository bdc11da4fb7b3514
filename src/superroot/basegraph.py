"""Bases, even/odd reflections with coroot bookkeeping, base-graph search.

A base is an ordered list of (root, coroot) pairs together with the ambient
Cartan data; its own Cartan matrix is a_{alpha beta} = beta(h_alpha).  Odd
reflections follow the case split for isotropic odd simple roots, with the
reflected coroot (-1)^{p(beta)} (a_{alpha beta} h_beta + a_{beta alpha} h_alpha)
and the convention that the coroot of -alpha is h_alpha itself.  After an odd
reflection every row is rescaled (root fixed, coroot scaled) so the diagonal
of the base Cartan matrix lies in {0,2}; rows with a vanishing diagonal keep
the coroot verbatim.

The breadth-first search over bases reachable from the standard base checks
regularity and admissibility of every Cartan matrix it encounters, as the
regular Kac-Moody assumption demands, and aborts with the offending matrix
otherwise.  Frontier expansion is deterministic; results do not depend on
visit order, so a parallel driver may split the frontier as long as
visited-set updates stay atomic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import rootspace as rs
from .cartan import CartanData, validate
from .errors import (
    IsotropicReflectorError,
    NonRegularBaseError,
    NotIsotropicOddError,
    NotRegularInBaseError,
)
from .linalg import rank
from .rootspace import Coroot, Root, height, pair


@dataclass(frozen=True)
class Base:
    roots: tuple[Root, ...]
    coroots: tuple[Coroot, ...]

    def __post_init__(self):
        if len(self.roots) != len(self.coroots):
            raise ValueError("roots and coroots differ in length")

    @property
    def size(self) -> int:
        return len(self.roots)

    def root_set(self) -> frozenset[Root]:
        return frozenset(self.roots)

    def max_height(self) -> int:
        return max(height(r) for r in self.roots)

    def cartan_matrix(self, cd: CartanData) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(
            tuple(pair(b, h, cd) for b in self.roots) for h in self.coroots
        )

    def parities(self, cd: CartanData) -> tuple[int, ...]:
        return tuple(cd.root_parity(r) for r in self.roots)


def standard_base(cd: CartanData) -> Base:
    n = cd.n
    roots = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    coroots = tuple(
        tuple(Fraction(1) if j == i else Fraction(0) for j in range(n)) for i in range(n)
    )
    return Base(roots, coroots)


def _renormalize(roots: list[Root], coroots: list[Coroot], cd: CartanData) -> Base:
    out = []
    for r, h in zip(roots, coroots):
        d = pair(r, h, cd)
        out.append(h if d == 0 else tuple(x * 2 / d for x in h))
    return Base(tuple(roots), tuple(out))


def odd_reflect_base(base: Base, cd: CartanData, t: int) -> Base:
    """Reflect a base at its t-th entry, an isotropic odd root regular in the base."""
    alpha, h_alpha = base.roots[t], base.coroots[t]
    a_row = [pair(b, h_alpha, cd) for b in base.roots]
    a_col = [pair(alpha, h, cd) for h in base.coroots]
    if a_row[t] != 0 or cd.root_parity(alpha) != 1:
        raise NotIsotropicOddError(f"entry {t} is not an isotropic odd root")
    for u in range(base.size):
        if a_row[u] == 0 and a_col[u] != 0:
            raise NotRegularInBaseError(f"entry {t} is singular against entry {u}")
    p = base.parities(cd)
    roots: list[Root] = []
    coroots: list[Coroot] = []
    for u in range(base.size):
        beta, h_beta = base.roots[u], base.coroots[u]
        if u == t:
            # s_alpha(alpha) = -alpha; the coroot h_alpha is kept because the
            # bracket of the swapped root vectors reproduces it.
            roots.append(rs.neg(alpha))
            coroots.append(h_alpha)
        elif a_row[u] == 0 and a_col[u] == 0:
            roots.append(beta)
            coroots.append(h_beta)
        else:
            roots.append(rs.add(beta, alpha))
            sign = -1 if p[u] else 1
            coroots.append(
                tuple(sign * (a_row[u] * hb + a_col[u] * ha) for hb, ha in zip(h_beta, h_alpha))
            )
    return _renormalize(roots, coroots, cd)


def even_reflect_base(base: Base, cd: CartanData, alpha: Root, h_alpha: Coroot) -> Base:
    """Apply s_alpha to every root and the dual action to every coroot."""
    if pair(alpha, h_alpha, cd) != 2:
        raise IsotropicReflectorError("reflector must pair to 2 with its coroot")
    roots = [rs.sub(b, rs.scale(int(pair(b, h_alpha, cd)), alpha)) for b in base.roots]
    coroots = [
        tuple(hx - c * hax for hx, hax in zip(h, h_alpha))
        for h, c in ((h, pair(alpha, h, cd)) for h in base.coroots)
    ]
    return Base(tuple(roots), tuple(coroots))


def even_reflect_base_at(base: Base, cd: CartanData, t: int) -> Base:
    return even_reflect_base(base, cd, base.roots[t], base.coroots[t])


def _validated(base: Base, cd: CartanData) -> Base:
    matrix = base.cartan_matrix(cd)
    report = validate(CartanData(matrix, base.parities(cd)))
    if not (report.regular and report.admissible):
        raise NonRegularBaseError(
            f"encountered a base whose Cartan matrix is not regular admissible: {report}",
            matrix=matrix,
        )
    if rank(base.roots) != base.size:
        raise NonRegularBaseError("encountered a base with dependent roots")
    return base


@dataclass(frozen=True)
class RealRootsResult:
    roots: frozenset[Root]
    complete_up_to: Optional[float]  # math.inf when fully enumerated, else None
    bases_visited: int


def _neighbors(base: Base, cd: CartanData, odd_only: bool) -> list[Base]:
    out = []
    par = base.parities(cd)
    for t in range(base.size):
        d = pair(base.roots[t], base.coroots[t], cd)
        if d == 0 and par[t] == 1:
            out.append(odd_reflect_base(base, cd, t))
        elif d == 2 and not odd_only:
            out.append(even_reflect_base_at(base, cd, t))
    return out


def _search(cd: CartanData, h_explore: int, odd_only: bool) -> tuple[list[Base], bool]:
    """Breadth-first search over the bases reachable from the standard base.

    Returns the visited bases in visit order and whether a neighbour holding
    a root above ``h_explore`` was pruned.
    """
    start = _validated(standard_base(cd), cd)
    bases = [start]  # also the queue: the loop below reaches what it appends
    visited = {start.root_set()}
    pruned = False
    for base in bases:
        for nb in _neighbors(base, cd, odd_only):
            if nb.max_height() > h_explore:
                pruned = True
                continue
            key = nb.root_set()
            if key not in visited:
                visited.add(key)
                bases.append(_validated(nb, cd))
    return bases, pruned


def enumerate_real_roots(
    cd: CartanData, h_report: int, h_explore: Optional[int] = None
) -> RealRootsResult:
    """BFS over bases from the standard base; collect base roots and doubles.

    Bases containing a root of height above ``h_explore`` are pruned and the
    result is then only best-effort; a run that terminates without pruning
    has enumerated every real root and reports ``complete_up_to = inf``.
    The real roots are closed under negation, so the output is symmetrized.
    """
    if h_explore is None:
        h_explore = h_report
    if h_explore < h_report:
        raise ValueError("h_explore must be at least h_report")
    bases, pruned = _search(cd, h_explore, odd_only=False)
    found: set[Root] = set()
    for base in bases:
        for r, h in zip(base.roots, base.coroots):
            found.add(r)
            if cd.root_parity(r) == 1 and pair(r, h, cd) == 2:
                found.add(rs.scale(2, r))
    symmetric = {r for r in found if height(r) <= h_report}
    symmetric |= {rs.neg(r) for r in symmetric}
    return RealRootsResult(
        roots=frozenset(symmetric),
        complete_up_to=None if pruned else math.inf,
        bases_visited=len(bases),
    )


@dataclass(frozen=True)
class PrincipalRootsResult:
    roots: frozenset[Root]
    complete: bool
    bases_visited: int


def principal_roots(cd: CartanData, h_explore: int = 64) -> PrincipalRootsResult:
    """Even roots alpha with alpha or alpha/2 in a base reachable by odd reflections.

    The set of principal roots is finite, but the odd-reflection base graph
    itself need not be: affine types with two or more isotropic simple roots
    keep producing new bases shifted along the null root while their even
    entries cycle through the same finite set.  The search therefore prunes
    bases above ``h_explore`` and reports whether it closed without pruning;
    a pruned run is best-effort (in practice the root set stabilizes at tiny
    heights long before any reasonable bound).
    """
    bases, pruned = _search(cd, h_explore, odd_only=True)
    found: set[Root] = set()
    for base in bases:
        for r, h in zip(base.roots, base.coroots):
            if cd.root_parity(r) == 0:
                found.add(r)
            elif pair(r, h, cd) == 2:
                found.add(rs.scale(2, r))
    return PrincipalRootsResult(
        roots=frozenset(found), complete=not pruned, bases_visited=len(bases)
    )
