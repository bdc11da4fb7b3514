"""Bases, even/odd reflections, base-graph search.

A base is an ordered list of roots together with its own Cartan data: the
matrix a_{ij} = b_j(h_i), the pairing of entry j against the coroot h_i of
entry i, and the parity of each entry.  The roots and these Cartan data fix
every reflection, so a base records its roots and its own Cartan data and
nothing else; the standard base carries the ambient Cartan data.

An odd reflection at an isotropic odd entry alpha follows the case split for
isotropic odd simple roots: -alpha keeps its row, and an entry beta with
a_{alpha beta} != 0 becomes beta + alpha with the row of the coroot
(-1)^{p(beta)} (a_{alpha beta} h_beta + a_{beta alpha} h_alpha).  Every row
is then rescaled so the diagonal lies in {0,2}; rows with a vanishing
diagonal stay as they are.  beta + alpha has the opposite parity to beta,
and every other entry keeps its parity.  An even reflection keeps the Cartan
data.

The breadth-first search over bases reachable from the standard base checks
regularity and admissibility of every Cartan datum it encounters (once per
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
from .rootspace import Root, height


@dataclass(frozen=True)
class Base:
    """Roots and their own Cartan data: matrix[i][j] = roots[j](h_i), parity[i] that of roots[i]."""

    roots: tuple[Root, ...]
    cartan: CartanData

    def __post_init__(self):
        if len(self.roots) != self.cartan.n:
            raise ValueError("roots and Cartan data differ in length")

    @property
    def size(self) -> int:
        return len(self.roots)

    def root_set(self) -> frozenset[Root]:
        return frozenset(self.roots)


def standard_base(cd: CartanData) -> Base:
    return Base(tuple(tuple(int(j == i) for j in range(cd.n)) for i in range(cd.n)), cd)


def _odd_roots(base: Base, t: int) -> tuple[Root, ...]:
    """Roots of the odd reflection at entry t: -alpha, and beta + alpha where a_{alpha beta} != 0."""
    alpha, a_row = base.roots[t], base.cartan.matrix[t]
    return tuple(
        rs.neg(alpha) if u == t else beta if a_row[u] == 0 else rs.add(beta, alpha)
        for u, beta in enumerate(base.roots)
    )


def _even_roots(base: Base, t: int) -> tuple[Root, ...]:
    """Roots of the even reflection at entry t: s_alpha(beta) = beta - a_{alpha beta} alpha."""
    alpha = base.roots[t]
    return tuple(rs.sub(b, rs.scale(c, alpha)) for b, c in zip(base.roots, base.cartan.matrix[t]))


def odd_reflect_base(base: Base, t: int) -> Base:
    """Reflect a base at its t-th entry, an isotropic odd root regular in the base.

    The new Cartan data come from the carried ones.  Entry u becomes beta_u +
    c_u alpha (c_t = -2, c_u = 0 where a_{alpha beta_u} = 0, else 1), and a
    changed row is that of the coroot x h_u + y h_alpha, x (a_{uj} + c_j
    a_{u alpha}) + y a_{alpha j}.  Rows orthogonal to alpha stay as they are.
    A changed row with a diagonal d other than 0 or 2 is rescaled by 2/d.
    -alpha stays odd, and beta_u + alpha has the opposite parity to beta_u.
    """
    a, p = base.cartan.matrix, base.cartan.parity
    a_row = a[t]
    a_col = [row[t] for row in a]
    if a_row[t] != 0 or p[t] != 1:
        raise NotIsotropicOddError(f"entry {t} is not an isotropic odd root")
    for u in range(base.size):
        if a_row[u] == 0 and a_col[u] != 0:
            raise NotRegularInBaseError(f"entry {t} is singular against entry {u}")
    c = [-2 if u == t else 0 if a_row[u] == 0 else 1 for u in range(base.size)]
    matrix, parity = [], []
    for u, row in enumerate(a):
        # s_alpha(alpha) = -alpha keeps the row of alpha (a_row[t] = 0) because
        # the bracket of the swapped root vectors reproduces h_alpha.
        if a_row[u] != 0:
            sign = -1 if p[u] else 1
            x, y = sign * a_row[u], sign * a_col[u]
            row = [x * (m + cj * a_col[u]) + y * b for m, cj, b in zip(row, c, a_row)]
            s = 1 if row[u] in (0, 2) else Fraction(2) / row[u]
            row = [v * s for v in row]
        matrix.append(row)
        parity.append(1 - p[u] if c[u] == 1 else p[u])
    return Base(_odd_roots(base, t), CartanData(matrix, parity))


def even_reflect_base(base: Base, t: int) -> Base:
    """Reflect a base at its t-th entry alpha, whose diagonal entry must be 2.

    s(b) = b - b(h_alpha) alpha reads b_u(h_alpha) = a_{tu} from the carried
    matrix.  The matrix is kept: with s'(h) = h - alpha(h) h_alpha on the
    coroots, (s b)(s' h) = b(h) - 2 alpha(h) b(h_alpha) + b(h_alpha)
    alpha(h) alpha(h_alpha) = b(h).  So are the parities p(s b_u) = p(b_u) +
    a_{tu} p(alpha) mod 2 on an admissible base, where a_{tu} is even if alpha is odd.
    A non-integral a_{tu} would leave the root lattice and raises
    ``NonRegularBaseError``.
    """
    cd = base.cartan
    if cd.matrix[t][t] != 2:
        raise IsotropicReflectorError("reflector must pair to 2 with its coroot")
    for u, x in enumerate(cd.matrix[t]):
        if type(x) is not int:
            raise NonRegularBaseError(f"entry {t} pairs to a_{{{t}{u}}} = {x} with entry {u}, "
                                      "not an integer", matrix=cd.matrix)
    if cd.parity[t] and any(x % 2 for x in cd.matrix[t]):
        cd = CartanData(cd.matrix, [(p + x) % 2 for p, x in zip(cd.parity, cd.matrix[t])])
    return Base(_even_roots(base, t), cd)


def _validated(base: Base, checked: set) -> Base:
    """Check a base's Cartan data unless ``checked`` already holds them.

    ``checked`` holds the Cartan data that passed in this search.

    The roots need no check: the start base is the unit vectors, an odd
    reflection sends alpha to -alpha and each other beta to beta or beta +
    alpha, and an even one sends beta_u to beta_u - a_{tu} alpha (a_{tt} = 2,
    a_{tu} integral).  Both are integer maps of determinant -1, so every
    base's roots have determinant +-1, affine types included.
    """
    if base.cartan not in checked:
        report = validate(base.cartan)
        if not (report.regular and report.admissible):
            raise NonRegularBaseError(
                f"encountered a base whose Cartan matrix is not regular admissible: {report}",
                matrix=base.cartan.matrix,
            )
        checked.add(base.cartan)
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
    start = _validated(standard_base(cd), checked)
    bases = [start]  # also the queue: the loop below reaches what it appends
    visited = {start.root_set()}
    pruned = False
    for base in bases:
        a, par = base.cartan.matrix, base.cartan.parity
        for t in range(base.size):
            d = a[t][t]
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
                nb = odd_reflect_base(base, t) if d == 0 else even_reflect_base(base, t)
                bases.append(_validated(nb, checked))
    return bases, pruned


def _base_roots_and_doubles(bases: list[Base]) -> tuple[set[Root], set[Root]]:
    """Base roots, 2r for each odd base root r of diagonal 2, and the isotropic roots: those of diagonal 0."""
    found, isotropic = set(), set()
    for base in bases:
        a, par = base.cartan.matrix, base.cartan.parity
        for i, r in enumerate(base.roots):
            found.add(r)
            if a[i][i] == 0:
                isotropic.add(r)
            elif par[i] == 1 and a[i][i] == 2:
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
    rs.check_bound("h_report", h_report)
    rs.check_bound("h_explore", h_explore)
    if h_explore is None:
        h_explore = h_report
    if h_report > h_explore:
        raise ValueError(f"need h_report <= h_explore, got {h_report} and {h_explore}")
    bases, pruned = _search(cd, h_explore, odd_only=False)
    found, isotropic = _base_roots_and_doubles(bases)
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
    rs.check_bound("h_explore", h_explore)
    bases, pruned = _search(cd, h_explore, odd_only=True)
    found, isotropic = _base_roots_and_doubles(bases)
    found = {r for r in found if cd.root_parity(r) == 0}
    return RealRootsResult(frozenset(found), frozenset(found & isotropic), not pruned, len(bases))
