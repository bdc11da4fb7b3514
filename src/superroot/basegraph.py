"""Bases, even/odd reflections, base-graph search.

A base is an ordered list of roots together with its own Cartan matrix
a_{ij} = b_j(h_i), the pairing of entry j against the coroot h_i of entry i.
The roots and the matrix fix every reflection, so a base records nothing
else; the standard base carries the ambient Cartan matrix.

An odd reflection at an isotropic odd entry alpha follows the case split for
isotropic odd simple roots: -alpha keeps its row, and an entry beta with
a_{alpha beta} != 0 becomes beta + alpha with the row of the coroot
(-1)^{p(beta)} (a_{alpha beta} h_beta + a_{beta alpha} h_alpha).  Every row
is then rescaled so the diagonal lies in {0,2}; rows with a vanishing
diagonal stay as they are.  An even reflection keeps the matrix.

The breadth-first search over bases reachable from the standard base checks
regularity and admissibility of every Cartan matrix it encounters (once per
distinct matrix and parities), as the regular Kac-Moody assumption demands,
and aborts with the offending matrix otherwise.  It builds only the
neighbours it has not visited.  Frontier expansion is deterministic; results
do not depend on visit order, so a parallel driver may split the frontier as
long as visited-set updates stay atomic.
"""

from __future__ import annotations

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
from .linalg import exact
from .rootspace import Root, height


@dataclass(frozen=True)
class Base:
    """Roots and the base's own Cartan matrix matrix[i][j] = roots[j](h_i), h_i the coroot of roots[i]."""

    roots: tuple[Root, ...]
    matrix: tuple[tuple[int | Fraction, ...], ...]  # each entry in the form linalg.exact picks

    def __post_init__(self):
        if len(self.roots) != len(self.matrix):
            raise ValueError("roots and matrix differ in length")

    @property
    def size(self) -> int:
        return len(self.roots)

    def root_set(self) -> frozenset[Root]:
        return frozenset(self.roots)

    def parities(self, cd: CartanData) -> tuple[int, ...]:
        return tuple(cd.root_parity(r) for r in self.roots)


def standard_base(cd: CartanData) -> Base:
    units = tuple(tuple(int(j == i) for j in range(cd.n)) for i in range(cd.n))
    return Base(units, tuple(tuple(map(exact, row)) for row in cd.matrix))


def _odd_roots(base: Base, t: int) -> tuple[Root, ...]:
    """Roots of the odd reflection at entry t: -alpha, and beta + alpha where a_{alpha beta} != 0."""
    alpha, a_row = base.roots[t], base.matrix[t]
    return tuple(
        rs.neg(alpha) if u == t else beta if a_row[u] == 0 else rs.add(beta, alpha)
        for u, beta in enumerate(base.roots)
    )


def _even_roots(base: Base, t: int) -> tuple[Root, ...]:
    """Roots of the even reflection at entry t: s_alpha(beta) = beta - a_{alpha beta} alpha."""
    alpha = base.roots[t]
    return tuple(rs.sub(b, rs.scale(c, alpha)) for b, c in zip(base.roots, base.matrix[t]))


def odd_reflect_base(base: Base, cd: CartanData, t: int) -> Base:
    """Reflect a base at its t-th entry, an isotropic odd root regular in the base.

    The new matrix comes from the carried one.  Entry u becomes beta_u + c_u
    alpha (c_t = -2, c_u = 0 where a_{alpha beta_u} = 0, else 1), and a changed
    row is that of the coroot x h_u + y h_alpha, x (a_{uj} + c_j a_{u alpha}) +
    y a_{alpha j}.  Rows orthogonal to alpha stay as they are.  A changed row
    with a diagonal d other than 0 or 2 is rescaled by 2/d.
    """
    alpha = base.roots[t]
    a_row = base.matrix[t]
    a_col = [row[t] for row in base.matrix]
    if a_row[t] != 0 or cd.root_parity(alpha) != 1:
        raise NotIsotropicOddError(f"entry {t} is not an isotropic odd root")
    for u in range(base.size):
        if a_row[u] == 0 and a_col[u] != 0:
            raise NotRegularInBaseError(f"entry {t} is singular against entry {u}")
    p = base.parities(cd)
    c = [-2 if u == t else 0 if a_row[u] == 0 else 1 for u in range(base.size)]
    matrix = []
    for u, row in enumerate(base.matrix):
        # s_alpha(alpha) = -alpha keeps the row of alpha (a_row[t] = 0) because
        # the bracket of the swapped root vectors reproduces h_alpha.
        if a_row[u] != 0:
            sign = -1 if p[u] else 1
            x, y = sign * a_row[u], sign * a_col[u]
            row = [x * (m + cj * a_col[u]) + y * a for m, cj, a in zip(row, c, a_row)]
            s = 1 if row[u] in (0, 2) else 2 / Fraction(row[u])
            row = tuple(exact(v * s) for v in row)
        matrix.append(row)
    return Base(_odd_roots(base, t), tuple(matrix))


def even_reflect_base(base: Base, t: int) -> Base:
    """Reflect a base at its t-th entry alpha, whose diagonal entry must be 2.

    s(b) = b - b(h_alpha) alpha reads b_u(h_alpha) = a_{tu} from the carried
    matrix.  The matrix is kept: with s'(h) = h - alpha(h) h_alpha on the
    coroots, (s b)(s' h) = b(h) - 2 alpha(h) b(h_alpha) + b(h_alpha)
    alpha(h) alpha(h_alpha) = b(h).
    """
    if base.matrix[t][t] != 2:
        raise IsotropicReflectorError("reflector must pair to 2 with its coroot")
    return Base(_even_roots(base, t), base.matrix)


def _validated(base: Base, cd: CartanData, checked: set) -> Base:
    """Check a base's matrix unless ``checked`` already holds it.

    ``checked`` holds the (matrix, parities) keys that passed in this search.

    The roots need no check: the start base is the unit vectors, an odd
    reflection sends alpha to -alpha and each other beta to beta or beta +
    alpha, and an even one sends beta_u to beta_u - a_{tu} alpha (a_{tt} = 2,
    a_{tu} integral).  Both are integer maps of determinant -1, so every
    base's roots have determinant +-1, affine types included.
    """
    key = (base.matrix, base.parities(cd))
    if key not in checked:
        report = validate(CartanData(*key))
        if not (report.regular and report.admissible):
            raise NonRegularBaseError(
                f"encountered a base whose Cartan matrix is not regular admissible: {report}",
                matrix=base.matrix,
            )
        checked.add(key)
    return base


@dataclass(frozen=True)
class RealRootsResult:
    """Roots found by a base-graph search and their isotropic subset; ``complete`` when nothing was pruned."""

    roots: frozenset[Root]
    isotropic: frozenset[Root]
    complete: bool
    bases_visited: int


def _search(cd: CartanData, h_explore: int, odd_only: bool) -> tuple[list[Base], bool]:
    """Breadth-first search over the bases reachable from the standard base.

    Returns the visited bases in visit order and whether a neighbour holding
    a root above ``h_explore`` was pruned.  A neighbour's roots are read off
    the carried matrix first; only a neighbour that is neither pruned nor
    visited is built and checked.
    """
    checked: set = set()
    start = _validated(standard_base(cd), cd, checked)
    bases = [start]  # also the queue: the loop below reaches what it appends
    visited = {start.root_set()}
    pruned = False
    for base in bases:
        par = base.parities(cd)
        for t in range(base.size):
            d = base.matrix[t][t]
            if d == 0 and par[t] == 1:
                roots = _odd_roots(base, t)
            elif d == 2 and not odd_only:
                roots = _even_roots(base, t)
            else:
                continue
            if max(height(r) for r in roots) > h_explore:
                pruned = True
                continue
            key = frozenset(roots)
            if key not in visited:
                visited.add(key)
                nb = odd_reflect_base(base, cd, t) if d == 0 else even_reflect_base(base, t)
                bases.append(_validated(nb, cd, checked))
    return bases, pruned


def _base_roots_and_doubles(cd: CartanData, bases: list[Base]) -> tuple[set[Root], set[Root]]:
    """Base roots, 2r for each odd base root r of diagonal 2, and the isotropic roots: those of diagonal 0."""
    found, isotropic = set(), set()
    for base in bases:
        for i, r in enumerate(base.roots):
            found.add(r)
            if base.matrix[i][i] == 0:
                isotropic.add(r)
            elif cd.root_parity(r) == 1 and base.matrix[i][i] == 2:
                found.add(rs.scale(2, r))
    return found, isotropic


def enumerate_real_roots(
    cd: CartanData, h_report: int, h_explore: Optional[int] = None
) -> RealRootsResult:
    """BFS over bases from the standard base; collect base roots and doubles.

    Bases containing a root of height above ``h_explore`` are pruned and the
    result is then only best-effort; a run that terminates without pruning
    has enumerated every real root and reports ``complete``.
    The real roots are closed under negation, so the output is symmetrized.
    A negative bound raises ``ValueError``.
    """
    if h_explore is None:
        h_explore = h_report
    if not 0 <= h_report <= h_explore:
        raise ValueError(f"need 0 <= h_report <= h_explore, got {h_report} and {h_explore}")
    bases, pruned = _search(cd, h_explore, odd_only=False)
    found, isotropic = _base_roots_and_doubles(cd, bases)
    symmetric = {s for r in found if height(r) <= h_report for s in (r, rs.neg(r))}
    isotropic = {r for r in symmetric if r in isotropic or rs.neg(r) in isotropic}
    return RealRootsResult(frozenset(symmetric), frozenset(isotropic), not pruned, len(bases))


def principal_roots(cd: CartanData, h_explore: int = 64) -> RealRootsResult:
    """Even roots alpha with alpha or alpha/2 in a base reachable by odd reflections.

    These are the even members of the base roots and doubles of the
    odd-reflection search.  The set of principal roots is finite, but the
    odd-reflection base graph itself need not be: affine types with two or
    more isotropic simple roots keep producing new bases shifted along the
    null root while their even entries cycle through the same finite set.
    The search therefore prunes bases above ``h_explore`` and reports whether
    it closed without pruning; a pruned run is best-effort (in practice the
    root set stabilizes at tiny heights long before any reasonable bound).
    A negative ``h_explore`` raises ``ValueError``.
    """
    if h_explore < 0:
        raise ValueError(f"h_explore must be >= 0, got {h_explore}")
    bases, pruned = _search(cd, h_explore, odd_only=True)
    found, isotropic = _base_roots_and_doubles(cd, bases)
    found = {r for r in found if cd.root_parity(r) == 0}
    return RealRootsResult(frozenset(found), frozenset(found & isotropic), not pruned, len(bases))
