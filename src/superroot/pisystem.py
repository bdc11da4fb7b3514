"""pi-systems, reflection closures, closed subroot systems and Pi(Psi).

A ``RootSet`` is a finite set of real roots in simple-root coordinates bound
to a catalog handle.  The reflection s_alpha acts by the isotropic case split
when alpha is isotropic and as the even reflection beta - beta(h_alpha) alpha
otherwise.  The closure S_infinity iterates S_k = +-{s_alpha(beta)} starting
from (S u 2S) n Delta^re; iterations that had to discard a root above the
height bound can only report "truncated" and every downstream consumer of a
truncated closure answers "inconclusive" rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from . import rootspace as rs
from .catalog import RootSystemHandle
from .errors import (
    InconclusiveError,
    NotARealRootError,
    NotClosedError,
    NotInLatticeError,
    PairingNotIntegralError,
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


def reflect(handle: RootSystemHandle, alpha: Root, beta: Root) -> Root:
    """s_alpha(beta) on real roots: odd case split or even reflection."""
    if handle.is_isotropic(alpha):
        if beta == alpha or beta == rs.neg(alpha):
            return rs.neg(beta)
        if handle.is_real(rs.add(alpha, beta)):
            return rs.add(beta, alpha)
        return beta
    c = handle.pairing(beta, alpha)
    if c.denominator != 1:
        raise PairingNotIntegralError(
            f"pairing of {beta} against {alpha} is {c}, not an integer"
        )
    return rs.sub(beta, rs.scale(int(c), alpha))


@dataclass(frozen=True)
class PiSystemReport:
    ok: bool
    difference_violations: tuple[tuple[Root, Root, Root], ...]
    cone_violations: tuple[Root, ...]


def is_pi_system(sigma: RootSet) -> PiSystemReport:
    """Check both defining conditions, listing every violation found.

    Condition one: no pairwise difference is a root.  Condition two: no
    element lies in the nonnegative rational cone of the others, decided by
    exact feasibility.
    """
    handle = sigma.handle
    elems = sigma.sorted()
    diffs = []
    for a in elems:
        for b in elems:
            if a != b:
                d = rs.sub(a, b)
                if handle.contains(d):
                    diffs.append((a, b, d))
    cone = [a for a in elems if in_nonneg_cone([b for b in elems if b != a], a)]
    return PiSystemReport(
        ok=not diffs and not cone and len(elems) > 0,
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


def closure_S_infinity(
    seed: RootSet, height_bound: Optional[int] = None, max_rounds: int = 64
) -> ClosureResult:
    """Iterate the reflection-and-negation closure of a set of real roots.

    Round k maps S_{k-1} to S_k = W(F(S_{k-1})), where F(S) = +-{s_a(b) :
    a, b in S} and W drops the roots above the height bound.  F contains the
    identity (s_a(a) = -a, negated back to a) and is monotone, and every S_k
    with k >= 1 lies in the window, so S_k <= S_{k+1}.  The images of a pair
    inside S_k n S_{k-1} lie in F(S_{k-1}): those in the window are in S_k,
    and the others were discarded, and flagged, in round k.  So S_{k+1} is
    S_k together with W of the images of the pairs that involve a root of
    S_k - S_{k-1}, and only those pairs are reflected (semi-naive
    evaluation): the rounds, sets, status and round cap behave as if every
    pair were reflected every round.  In round 1 every root is new, so all
    pairs are reflected; S_0 need not lie in S_1, as the seed may hold roots
    above the bound.

    From round 2 on the pairs are taken on sign classes {r, -r}.  Every S_k
    with k >= 1 is symmetric: F(S) is, and so is the height window.  For a
    non-isotropic a, s_{-a} = s_a and s_a(-b) = -s_a(b), so the four sign
    choices of a class pair give only +-s_a(b): one reflection.  For an
    isotropic a, s_{-a}(+-b) = -s_a(-+b), so they give +-s_a(b) and
    +-s_a(-b): two reflections.  A class is new when either of its members
    is new, which keeps every pair that the semi-naive rule keeps.  Round 1
    reflects the ordered pairs of S_0 itself, as S_0 need not be symmetric:
    -a or -b may be missing from it, and s_a(-b) then need not lie in F(S_0).
    """
    handle = seed.handle
    if height_bound is None and not handle.is_finite:
        raise ValueError("affine closures need a height bound")
    s0 = set(seed.elements)
    for r in seed.elements:
        twice = rs.scale(2, r)
        if handle.is_real(twice):
            s0.add(twice)
    current = reps = fresh = frozenset(s0)
    discarded = False
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        nxt = set(current)
        for a in reps:
            betas = reps if a in fresh else fresh
            if rounds > 1 and handle.is_isotropic(a):
                betas = [x for b in betas for x in (b, rs.neg(b))]
            for b in betas:
                r = reflect(handle, a, b)
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
    return ClosureResult(RootSet(current, handle), TRUNCATED, rounds)


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
    closed = True
    for a in elems:
        for b in elems:
            s = rs.add(a, b)
            if any(s) and handle.is_real(s) and s not in psi.elements:
                closed = False
                break
        if not closed:
            break
    subroot = True
    for a in elems:
        for b in elems:
            if reflect(handle, a, b) not in psi.elements:
                subroot = False
                break
        if not subroot:
            break
    return SubsetClassification(symmetric, closed, subroot)


def _is_positive_multiple(gamma: Root, alpha: Root) -> bool:
    # gamma in N * alpha with alpha nonzero
    ks = {g // a for g, a in zip(gamma, alpha) if a != 0}
    if len(ks) != 1:
        return False
    k = ks.pop()
    return k >= 1 and gamma == rs.scale(k, alpha)


def minimal_positive_elements(psi: RootSet) -> RootSet:
    """Preorder-minimal positive elements, with no closedness gate.

    gamma precedes alpha when t alpha = gamma + a nonnegative combination of
    the positives other than gamma and alpha, t >= 0; alpha is minimal when
    only its own multiples k alpha (k >= 1) precede it.  One cone test per
    alpha decides this: alpha is non-minimal exactly when it lies in the
    cone of G, the positives other than k alpha for k >= 1 (so alpha/2 is
    in G).  If gamma in G precedes alpha, the right side is a nonzero
    nonnegative vector; moving its k alpha terms to the left leaves
    c alpha = gamma + a combination of G, and c > 0 because the right side
    is still nonzero and nonnegative, so alpha is in the cone of G.
    Conversely, if alpha is a nonnegative combination of G, some gamma in G
    has a coefficient c > 0, and dividing by c shows that gamma precedes
    alpha with t = 1/c.

    This is also meaningful on a window-restricted closure: the witnesses
    that exclude a non-minimal element are same-sign combinations of the
    generating set, which any window containing that set retains.
    """
    positives = psi.positive()
    out = [
        alpha for alpha in positives
        if not in_nonneg_cone(
            [g for g in positives if not _is_positive_multiple(g, alpha)], alpha)
    ]
    return RootSet(frozenset(out), psi.handle)


def pi_of_psi(psi: RootSet) -> RootSet:
    """The preorder-minimal positive part Pi(Psi) of a closed subroot system."""
    cls = classify_subset(psi)
    if not cls.closed:
        raise NotClosedError("Pi(Psi) is defined for closed subsets only")
    return minimal_positive_elements(psi)


def admits_pi_system(
    psi: RootSet, height_bound: Optional[int] = None, max_rounds: int = 64
) -> Optional[RootSet]:
    """The unique candidate pi-system of Psi, or None when Psi admits none.

    Any pi-system admitted by Psi must equal Pi(Psi), so it suffices to test
    that single candidate: it must be a pi-system and its closure must
    stabilize to exactly Psi.
    """
    cls = classify_subset(psi)
    if not (cls.closed and cls.subroot_system):
        raise NotClosedError("admits_pi_system requires a closed subroot system")
    sigma = minimal_positive_elements(psi)
    if not is_pi_system(sigma).ok:
        return None
    closure = closure_S_infinity(sigma, height_bound, max_rounds)
    if not closure.stabilized:
        raise InconclusiveError("closure of Pi(Psi) did not stabilize within bounds")
    return sigma if closure.roots.elements == psi.elements else None


@dataclass(frozen=True)
class DynkinCertificate:
    closure_closed_subroot: bool
    pi_roundtrip: bool
    oracle_match: Optional[bool]
    closure: RootSet
    status: str

    def ok(self) -> bool:
        return (
            self.closure_closed_subroot
            and self.pi_roundtrip
            and self.oracle_match is not False
        )


def verify_dynkin_maps(
    sigma: RootSet,
    height_bound: Optional[int] = None,
    max_rounds: int = 64,
    with_oracle: bool = True,
    loop_degree: Optional[int] = None,
) -> DynkinCertificate:
    """Certify the bijection data for one pi-system inside the positive roots."""
    report = is_pi_system(sigma)
    if not report.ok:
        raise ValueError(f"input is not a pi-system: {report}")
    if any(not sigma.handle.is_positive(r) for r in sigma):
        raise ValueError("the pi-system must lie in the positive roots")
    closure = closure_S_infinity(sigma, height_bound, max_rounds)
    if not closure.stabilized:
        raise InconclusiveError("closure did not stabilize; cannot certify")
    cls = classify_subset(closure.roots)
    if not cls.closed:
        raise NotClosedError("Pi(Psi) is defined for closed subsets only")
    roundtrip = minimal_positive_elements(closure.roots).elements == sigma.elements
    oracle_match: Optional[bool] = None
    if with_oracle:
        from . import oracle  # deferred to avoid an import cycle
        from .errors import TruncationHitError, UnsupportedTypeError

        try:
            verdict = oracle.verify_theorem_main(sigma, loop_degree=loop_degree)
            oracle_match = verdict.ok
        except (UnsupportedTypeError, InconclusiveError, TruncationHitError):
            oracle_match = None
    return DynkinCertificate(
        closure_closed_subroot=cls.closed and cls.subroot_system and cls.symmetric,
        pi_roundtrip=roundtrip,
        oracle_match=oracle_match,
        closure=closure.roots,
        status=closure.status,
    )
