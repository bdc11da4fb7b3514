"""pi-systems, reflection closures, closed subroot systems and Pi(Psi).

A ``RootSet`` is a finite set of real roots in simple-root coordinates bound
to a catalog handle.  The reflection s_alpha acts by the isotropic case split
when alpha is isotropic and as the even reflection beta - beta(h_alpha) alpha
otherwise.  The closure S_infinity iterates S_k = +-{s_alpha(beta)} starting
from (S u 2S) n Delta^re until S_k stops growing, which it always does: the
height window, or the finite root system, holds finitely many roots.  A
closure that had to discard a root above the height bound reports
"truncated", and every downstream consumer of a truncated closure answers
"inconclusive" rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Optional

from . import rootspace as rs
from .catalog import RootSystemHandle
from .errors import (
    InconclusiveError,
    NotARealRootError,
    NotClosedError,
    NotInLatticeError,
)
from .lp import in_nonneg_cone
from .rootspace import Root, height

STABILIZED = "stabilized"
TRUNCATED = "truncated"


@dataclass(frozen=True)
class RootSet:
    elements: frozenset[Root]
    handle: RootSystemHandle

    def __post_init__(self):
        for r in self.elements:
            if not self.handle.is_real(r):
                raise NotARealRootError(f"{r} is not a real root of {self.handle.label}")

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, r) -> bool:
        return tuple(r) in self.elements

    def sorted(self) -> list[Root]:
        return sorted(self.elements)

    def positive(self) -> list[Root]:
        return sorted(r for r in self.elements if self.handle.is_positive(r))


def root_set(handle: RootSystemHandle, roots: Iterable[Iterable[int]]) -> RootSet:
    """Bind roots to a handle; coordinates must be ints (bools, floats and strings are refused)."""
    out = []
    for r in roots:
        r = tuple(r)
        if any(type(c) is not int for c in r):
            raise NotInLatticeError(f"root {r!r} has a coordinate that is not an int")
        out.append(r)
    return RootSet(frozenset(out), handle)


def reflect_all(handle: RootSystemHandle, alpha: Root, betas: Collection[Root]) -> list[Root]:
    """s_alpha(beta) for each beta, in order, reading alpha's data once.

    An isotropic alpha maps +-alpha to -+alpha, beta to beta + alpha when
    alpha + beta is real, and fixes every other beta; one ``real_sums``
    call answers for every beta but +-alpha, and none is made when no other
    beta is given.  Otherwise beta goes to beta - beta(h_alpha) alpha, with
    one ``pairings`` call per alpha; a beta with pairing 0 is returned as is.
    """
    if handle.is_isotropic(alpha):
        minus = rs.neg(alpha)
        rest = [b for b in betas if b != alpha and b != minus]
        if not rest:
            return [rs.neg(b) for b in betas]
        real = iter(handle.real_sums(alpha, rest))
        return [rs.neg(b) if b == alpha or b == minus else rs.add(b, alpha) if next(real) else b
                for b in betas]
    return [tuple(x - c * y for x, y in zip(b, alpha)) if c else b
            for b, c in zip(betas, handle.pairings(alpha, betas))]


def reflect(handle: RootSystemHandle, alpha: Root, beta: Root) -> Root:
    """s_alpha(beta) on real roots: ``reflect_all`` on one beta."""
    return reflect_all(handle, alpha, (beta,))[0]


@dataclass(frozen=True)
class PiSystemReport:
    ok: bool
    difference_violations: tuple[tuple[Root, Root, Root], ...]
    cone_violations: tuple[Root, ...]


def is_pi_system(sigma: RootSet) -> PiSystemReport:
    """Check both defining conditions, listing every violation found.

    Condition one: no pairwise difference is a root.  Condition two: no
    element lies in the nonnegative rational cone of the others, decided by
    exact feasibility.  An empty set raises ``ValueError``.
    """
    handle = sigma.handle
    elems = sigma.sorted()
    if not elems:
        raise ValueError("the set is empty; give at least one root")
    diffs = []
    for a in elems:
        for b in elems:
            if a != b:
                d = rs.sub(a, b)
                if handle.contains(d):
                    diffs.append((a, b, d))
    cone = [a for a in elems if in_nonneg_cone([b for b in elems if b != a], a)]
    return PiSystemReport(
        ok=not diffs and not cone,
        difference_violations=tuple(diffs),
        cone_violations=tuple(cone),
    )


@dataclass(frozen=True)
class ClosureResult:
    roots: RootSet
    status: str  # STABILIZED or TRUNCATED
    rounds: int

    @property
    def stabilized(self) -> bool:
        return self.status == STABILIZED


def _sign_class(r: Root) -> Root:
    # the representative of {r, -r}
    return max(r, rs.neg(r))


def closure_S_infinity(seed: RootSet, height_bound: Optional[int] = None) -> ClosureResult:
    """Iterate the reflection-and-negation closure of a set of real roots.

    Round k maps S_{k-1} to S_k = W(F(S_{k-1})), where F(S) = +-{s_a(b) :
    a, b in S} and W drops the roots above the height bound.  F contains the
    identity (s_a(a) = -a, negated back to a) and is monotone, and every S_k
    with k >= 1 lies in the window, so S_k <= S_{k+1}.  The images of a pair
    inside S_k n S_{k-1} lie in F(S_{k-1}): those in the window are in S_k,
    and the others were discarded, and flagged, in round k.  So S_{k+1} is
    S_k together with W of the images of the pairs that involve a root of
    S_k - S_{k-1}, and only those pairs are reflected (semi-naive
    evaluation): the rounds, sets and status are those of reflecting every
    pair every round.  In round 1 every root is new, so all pairs are
    reflected; S_0 need not lie in S_1, as the seed may hold roots above the
    bound.

    The loop always ends.  From round 1 on, S_k lies in the roots of height
    at most the bound, or in the finite root system when no bound is given;
    either set is finite, as a height bounds every coordinate.  An increasing
    chain in a finite set stops growing, and the loop returns the first S_k
    with S_{k+1} = S_k.  The status is "truncated" exactly when some round
    discarded a root above the bound, and "stabilized" otherwise.

    From round 2 on the pairs are taken on sign classes {r, -r}.  Every S_k
    with k >= 1 is symmetric: F(S) is, and so is the height window.  For a
    non-isotropic a, s_{-a} = s_a and s_a(-b) = -s_a(b), so the four sign
    choices of a class pair give only +-s_a(b): one reflection.  For an
    isotropic a, s_{-a}(+-b) = -s_a(-+b), so they give +-s_a(b) and
    +-s_a(-b): two reflections.  A class is new when either of its members
    is new, which keeps every pair that the semi-naive rule keeps.  Round 1
    reflects the ordered pairs of S_0 itself, as S_0 need not be symmetric:
    -a or -b may be missing from it, and s_a(-b) then need not lie in F(S_0).

    Each round hands every a one ``reflect_all`` call over the b that these
    rules keep for it, so each kept pair is still reflected exactly once.  The
    isotropic a share the signed lists b, -b of their round, one over ``reps``
    and one over ``fresh``, each negated at most once.
    """
    handle = seed.handle
    if height_bound is None and not handle.is_finite:
        raise ValueError("affine closures need a height bound")
    rs.check_bound("height_bound", height_bound)
    s0 = set(seed.elements)
    for r in seed.elements:
        twice = rs.scale(2, r)
        if handle.is_real(twice):
            s0.add(twice)
    current = reps = fresh = frozenset(s0)
    discarded = False
    rounds = 0
    while True:
        rounds += 1
        nxt = set(current)
        signed = {}  # reps or fresh -> its members and their negatives
        for a in reps:
            betas = reps if a in fresh else fresh
            if rounds > 1 and handle.is_isotropic(a):
                if betas not in signed:
                    signed[betas] = [x for b in betas for x in (b, rs.neg(b))]
                betas = signed[betas]
            for r in reflect_all(handle, a, betas):
                nxt.add(r)
                nxt.add(rs.neg(r))
        if height_bound is not None:
            kept = {r for r in nxt if height(r) <= height_bound}
            if len(kept) != len(nxt):
                discarded = True
            nxt = kept
        nxt = frozenset(nxt)
        if nxt == current:
            status = TRUNCATED if discarded else STABILIZED
            return ClosureResult(RootSet(current, handle), status, rounds)
        reps = frozenset(map(_sign_class, nxt))
        fresh = frozenset(map(_sign_class, nxt - current))
        current = nxt


@dataclass(frozen=True)
class SubsetClassification:
    symmetric: bool
    closed: bool
    subroot_system: bool


def classify_subset(psi: RootSet) -> SubsetClassification:
    """Symmetry, closedness and reflection stability by exhaustive pair checks."""
    handle = psi.handle
    elems = psi.sorted()
    symmetric = all(rs.neg(r) in psi.elements for r in elems)
    # all() stops at the first a that fails
    closed = all(rs.add(a, b) in psi.elements
                 for a in elems for b, real in zip(elems, handle.real_sums(a, elems)) if real)
    subroot = all(psi.elements.issuperset(reflect_all(handle, a, elems)) for a in elems)
    return SubsetClassification(symmetric, closed, subroot)


def minimal_positive_elements(psi: RootSet) -> RootSet:
    """Preorder-minimal positive elements, with no closedness gate.

    gamma precedes alpha when t alpha = gamma + a nonnegative combination of
    the positives other than gamma and alpha, t >= 0; alpha is minimal when
    only its own multiples k alpha (k >= 1) precede it.  Those multiples
    are alpha and 2 alpha at most: each eps/delta coordinate of a root's
    finite part lies in [-B, B], B = ``coord_bound`` <= 2 on every catalog
    type, and a real alpha has a nonzero integer finite coordinate, so
    k alpha is no root for k >= 3.  One cone test per alpha decides
    minimality: alpha is non-minimal exactly when it lies in the cone of G,
    the positives other than alpha and 2 alpha (so alpha/2 is in G).  If
    gamma in G precedes alpha, the right side is a nonzero nonnegative
    vector; moving its k alpha terms to the left leaves c alpha = gamma + a
    combination of G, and c > 0 because the right side is still nonzero and
    nonnegative, so alpha is in the cone of G.  Conversely, if alpha is a
    nonnegative combination of G, some gamma in G has a coefficient c > 0,
    and dividing by c shows that gamma precedes alpha with t = 1/c.

    A sum needs no cone test.  Say beta and alpha - beta both lie in Psi+.
    Positive roots have nonnegative coordinates, so the two heights add up
    to alpha's and each is at least 1: each is below alpha's height, so
    neither is alpha or 2 alpha.  Both lie in G, and alpha = beta +
    (alpha - beta) is in the cone of G.  The argument asks nothing of Psi
    but that both summands lie in it, so it holds without closedness.

    This is also meaningful on a window-restricted closure: the witnesses
    that exclude a non-minimal element are same-sign combinations of the
    generating set, which any window containing that set retains.
    """
    positives = psi.positive()
    members = set(positives)
    out = []
    for alpha in positives:
        if any(rs.sub(alpha, beta) in members for beta in positives):
            continue
        multiples = (alpha, rs.scale(2, alpha))
        if not in_nonneg_cone([g for g in positives if g not in multiples], alpha):
            out.append(alpha)
    return RootSet(frozenset(out), psi.handle)


def pi_of_psi(psi: RootSet) -> RootSet:
    """The preorder-minimal positive part Pi(Psi) of a closed subroot system."""
    cls = classify_subset(psi)
    if not cls.closed:
        raise NotClosedError("Pi(Psi) is defined for closed subsets only")
    return minimal_positive_elements(psi)


def admits_pi_system(psi: RootSet, height_bound: Optional[int] = None) -> Optional[RootSet]:
    """The unique candidate pi-system of Psi, or None when Psi admits none.

    Any pi-system admitted by Psi must equal Pi(Psi), so it suffices to test
    that single candidate: it must be a pi-system and its closure must
    stabilize to exactly Psi.
    """
    rs.check_bound("height_bound", height_bound)
    cls = classify_subset(psi)
    if not (cls.closed and cls.subroot_system):
        raise NotClosedError("admits_pi_system requires a closed subroot system")
    sigma = minimal_positive_elements(psi)
    if not is_pi_system(sigma).ok:
        return None
    closure = closure_S_infinity(sigma, height_bound)
    if not closure.stabilized:
        raise InconclusiveError("closure of Pi(Psi) did not stabilize within bounds")
    return sigma if closure.roots.elements == psi.elements else None
