"""Brute-force ground truth: matrix realizations and subalgebra closures.

Finite types are realized concretely: A(m,n) as supertraceless matrices on
C^{m+1|n+1}, the orthosymplectic families as the matrices that preserve an
even supersymmetric form, with every root vector written in closed form
rather than solved for.  Untwisted affine types are loop
algebras over the finite realization with the central extension omitted;
root-space statements are insensitive to the centre.  All elements are kept
Cartan-homogeneous by seeding every computation with root vectors, so spans
can be reduced weight by weight.

The realizations are almost elementary matrices, so a matrix keeps only its
nonzero entries, each in the form ``linalg.exact`` picks (an int where
integral, else a Fraction); brackets multiply sparse by sparse and span
reduction runs on sparse vectors.  Nothing is ever rounded.  Dense views
remain for callers that want them, such as the independent echelon check ``span_signature``.

An element is a (weight, matrix) pair; the last weight coordinate is its
loop degree.  A realization fixes a truncation window K, and a nonzero
bracket whose degree would leave it raises; the span growth records the
event and reports a truncated status instead of silently dropping anything.

The root spaces and the Chevalley generators, with their Cartan-row
checks, are built once per type into a read-only record that every
realization of that type shares, whatever its window.  The records are kept
in a ``functools.lru_cache`` of at most ``TABLE_LIMIT`` of them, which
drops the least recently used; they hold no handle.  The caller's handle,
with its memo of root images, stays with each realization.
"""

from __future__ import annotations

import functools
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Collection, Iterable, Mapping, Optional, Sequence

from . import pisystem as ps
from . import rootspace as rs
from .catalog import AFFINE, FINITE, TABLE_LIMIT, CatalogType, EpsDeltaVector, RootSystemHandle, build
from .errors import InconclusiveError, NotARootError, NotClosedError, TruncationHitError, UnsupportedTypeError
from .linalg import exact, rref, solve
from .rootspace import Root, height

# ---------------------------------------------------------------------------
# graded matrices and weighted elements


Entry = tuple[int, int]  # (row, column)


class GradedMatrix:
    """A parity-homogeneous matrix on a Z/2-graded space, stored sparsely.

    ``nz`` maps (row, column) to the nonzero entries only, each in the form
    ``linalg.exact`` picks, so arithmetic stays exact and mostly in integers.
    Every construction checks, over the
    nonzero entries, that each lies in the matrix and in the block of the
    matrix's parity; zero values are dropped.  ``entries`` and ``flat()``
    are dense read-only views with ``Fraction`` values.  Attributes cannot be
    rebound.  ``nz`` is a plain dict, except on the matrices of a shared
    realization record, where it is a read-only view; nothing writes to it.
    """

    __slots__ = ("nz", "parity", "space")

    def __init__(self, nz: dict[Entry, object], parity: int, space: Sequence[int]):
        space = tuple(space)
        d = len(space)
        kept = {}
        for (r, c), x in nz.items():
            if not x:
                continue
            if not (0 <= r < d and 0 <= c < d):
                raise ValueError(f"entry {(r, c)} lies outside a {d}x{d} matrix")
            if space[r] ^ space[c] != parity:
                raise ValueError("matrix is not parity-homogeneous")
            kept[r, c] = exact(x)
        object.__setattr__(self, "nz", kept)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):
        raise AttributeError("GradedMatrix is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return (self.parity, self.space, self.nz) == (other.parity, other.space, other.nz)

    def __repr__(self) -> str:
        return f"GradedMatrix({dict(self.nz)!r}, {self.parity}, {self.space})"

    @property
    def dim(self) -> int:
        return len(self.space)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        d, get = self.dim, self.nz.get
        return tuple(tuple(Fraction(get((r, c), 0)) for c in range(d)) for r in range(d))

    def flat(self) -> tuple[Fraction, ...]:
        return tuple(x for row in self.entries for x in row)

    def is_zero(self) -> bool:
        return not self.nz

    def scaled(self, c: Fraction) -> "GradedMatrix":
        return GradedMatrix({k: c * x for k, x in self.nz.items()}, self.parity, self.space)


def _add_product(acc: dict[Entry, object], a: GradedMatrix, b: GradedMatrix, s: int) -> None:
    """acc += s * a b, with the right factor indexed by row."""
    b_rows: dict[int, list] = {}
    for (t, j), y in b.nz.items():
        b_rows.setdefault(t, []).append((j, s * y))
    for (i, t), x in a.nz.items():
        for j, y in b_rows.get(t, ()):
            acc[i, j] = acc.get((i, j), 0) + x * y


def gm_bracket(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Superbracket ab - (-1)^{p(a)p(b)} ba, sparse by sparse."""
    sign = -1 if (a.parity and b.parity) else 1
    acc: dict[Entry, object] = {}
    _add_product(acc, a, b, 1)
    _add_product(acc, b, a, -sign)
    return GradedMatrix(acc, a.parity ^ b.parity, a.space)


@dataclass(frozen=True)
class WeightedElement:
    """A Cartan-homogeneous element: ``matrix`` times t to the loop degree.

    ``weight`` holds the ambient handle's eps, delta and null coordinates;
    its last entry is the loop degree, 0 for a finite type.
    """

    weight: tuple[int, ...]
    matrix: GradedMatrix


def loop_bracket(x: WeightedElement, y: WeightedElement, truncation: int) -> WeightedElement:
    """[x, y]: weights add and matrices bracket; a nonzero result beyond the window raises."""
    br = gm_bracket(x.matrix, y.matrix)
    w = tuple(p + q for p, q in zip(x.weight, y.weight))
    if abs(w[-1]) > truncation and not br.is_zero():
        raise TruncationHitError(f"bracket degree {w[-1]} exceeds the window {truncation}")
    return WeightedElement(w, br)


# ---------------------------------------------------------------------------
# realizations


class Realization:
    """Root vectors of sl(m+1|n+1) or osp(M|2n) in closed form (Kac 1977).

    The index basis is eps_i then delta_p for sl; for osp it is +-eps_i, the
    middle index for B only, then +-delta_p, and the even supersymmetric form
    J pairs each index i with the index i' of opposite weight, J[i][i'] = g_i:
    -1 on -delta_p and 1 on the others.  The root vector at w is E_rc for the
    largest index pair (r, c) of weight w.  For osp it is completed to the
    J-invariant E_rc + s E_c'r', or is E_rc alone when (c', r') = (r, c).
    Invariance, X^T J + sigma J X = 0 with sigma = -1 on the odd rows of an
    odd X, gives s = -g_r sigma_c g_c; sigma_c = 1 always, because the larger
    of the two pairs of an odd vector has the odd index, which comes last, as
    its row.  The result is the invariance nullspace with its last free
    entry set to 1.

    The weights w are the degree-0 real roots of ``handle``: the roots of
    its finite type, which an affine type's loop elements reuse at every
    degree.  ``realize`` checks that the type is one of these families.

    A realization is the caller's ``handle``, its window ``truncation`` and
    the fields of a read-only record (``_realization_data``) that is built
    and checked once per type and shared by every realization of that type,
    at every window: the ``index_weights`` (the finite eps+delta coordinates
    of each basis index), ``space``, the root spaces and the Chevalley
    ``generators``.  ``root_vector`` reads the handle's own ``to_ed`` memo.
    """

    def __init__(self, handle: RootSystemHandle, truncation: int, data: Mapping[str, object]):
        self.handle, self.truncation = handle, truncation
        for name, value in data.items():
            setattr(self, name, value)

    def root_vector(self, root: Sequence[int]) -> WeightedElement:
        """The root vector x_beta as a weighted element."""
        ed = self.handle.to_ed(tuple(root))
        if abs(ed.null) > self.truncation:
            raise TruncationHitError(f"degree {ed.null} exceeds the window {self.truncation}")
        matrix = self._root_spaces.get(ed.eps + ed.delta)
        if matrix is None:
            raise NotARootError(f"no root space at {ed} in the realization")
        return WeightedElement(ed.coords(), matrix)

    def subalgebra(self, roots: Collection[Root]) -> "SubalgebraBasis":
        """g(roots): the subalgebra generated by the root vectors of +-roots.

        The generators are x_r for each r, then x_-r for each r; a root
        beyond the window raises ``TruncationHitError`` before any growth.
        """
        gens = [self.root_vector(r) for r in roots] + [self.root_vector(rs.neg(r)) for r in roots]
        return generated_subalgebra(gens, self)

    def full_basis(self) -> "SubalgebraBasis":
        """The whole windowed algebra: the subalgebra of the simple roots."""
        return self.subalgebra(self.handle.simple_roots_alpha())


def _weight_eval(plus: Mapping[int, int], functional: EpsDeltaVector, diag: GradedMatrix) -> Fraction:
    """The functional on a diagonal matrix; ``plus`` maps each index of weight
    +eps_i or +delta_p to that coordinate, and the other indices count 0."""
    coords = functional.eps + functional.delta
    return Fraction(sum(coords[plus[r]] * x for (r, c), x in diag.nz.items()
                        if r == c and r in plus))


def _read_only(m: GradedMatrix) -> GradedMatrix:
    """m, not yet shared, with its entries made read-only."""
    object.__setattr__(m, "nz", MappingProxyType(m.nz))
    return m


@functools.lru_cache(maxsize=TABLE_LIMIT)
def _realization_data(ctype: CatalogType) -> MappingProxyType:
    """The shared, read-only record of the type's realization, for every window.

    Its keys are the attributes a ``Realization`` copies.  Nothing in it
    depends on the window: the root spaces are those of the degree-0 real
    roots, and each h_i = [x+_i, x-_i] has degree 0.  The build makes a
    handle of its own and the record keeps none.  A type that fails a check
    raises on every call and is never stored.
    """
    handle = build(ctype)
    m, n = handle.eps_dim, handle.delta_dim
    osp = ctype.family != "A"
    signs = (1, -1) if osp else (1,)

    def unit(slot: int, val: int) -> tuple[int, ...]:
        return tuple(val if k == slot else 0 for k in range(m + n))

    index_weights = [unit(i, s) for s in signs for i in range(m)]
    if ctype.family == "B":
        index_weights.append((0,) * (m + n))
    index_weights += [unit(m + p, s) for s in signs for p in range(n)]
    # index weights are +-unit vectors or zero; _weight_eval reads the
    # indices of weight +eps_i or +delta_p, at that coordinate
    plus = {idx: wt.index(1) for idx, wt in enumerate(index_weights) if 1 in wt}
    space = tuple(int(any(w[m:])) for w in index_weights)
    dual = [index_weights.index(rs.neg(w)) for w in index_weights] if osp else None
    g = [-1 if space[i] and min(w) < 0 else 1 for i, w in enumerate(index_weights)]
    # weight -> its largest index pair; pairs come in increasing order
    largest: dict[tuple[int, ...], tuple[int, int]] = {}
    for r, wr in enumerate(index_weights):
        for c, wc in enumerate(index_weights):
            largest[rs.sub(wr, wc)] = (r, c)

    root_spaces = {}  # finite eps+delta coords -> matrix
    for v in handle.real_roots_ed(0):
        fin = v.eps + v.delta
        r, c = largest[fin]
        nz = {}
        if osp and (dual[c], dual[r]) != (r, c):
            # (c', r') precedes (r, c), so the entries stay in row-major order
            nz[dual[c], dual[r]] = -g[r] * g[c]
        nz[r, c] = 1
        root_spaces[fin] = _read_only(GradedMatrix(nz, space[r] ^ space[c], space))

    # Chevalley generators (x+_i, x-_i, h_i), x-_i scaled so that the
    # realized Cartan row of h_i is the catalog's
    generators = []
    cat = handle.cartan.matrix
    for i, alpha in enumerate(handle.simple_ed):
        minus = -alpha
        xplus = WeightedElement(alpha.coords(), root_spaces[alpha.eps + alpha.delta])
        xminus_raw = WeightedElement(minus.coords(), root_spaces[minus.eps + minus.delta])
        h_raw = loop_bracket(xplus, xminus_raw, 0)
        if h_raw.matrix.is_zero():
            raise AssertionError("vanishing coroot bracket in the realization")
        row_raw = [_weight_eval(plus, aj, h_raw.matrix) for aj in handle.simple_ed]
        j = next(j for j in range(len(cat)) if cat[i][j] != 0)
        if row_raw[j] == 0:
            raise AssertionError("realized Cartan row is not proportional to the catalog row")
        c = cat[i][j] / row_raw[j]
        for jj in range(len(cat)):
            if c * row_raw[jj] != cat[i][jj]:
                raise AssertionError(
                    f"realized Cartan row {i} mismatches the catalog: "
                    f"{[c * x for x in row_raw]} vs {list(cat[i])}"
                )
        # the bracket is bilinear, so [x+, c x-] is c h_raw
        xminus = WeightedElement(xminus_raw.weight, _read_only(xminus_raw.matrix.scaled(c)))
        h = WeightedElement(h_raw.weight, _read_only(h_raw.matrix.scaled(c)))
        generators.append((xplus, xminus, h))

    return MappingProxyType(dict(
        index_weights=tuple(index_weights), _plus_coord=MappingProxyType(plus), space=space,
        _root_spaces=MappingProxyType(root_spaces), generators=tuple(generators),
    ))


def realize(handle_or_type, loop_degree: Optional[int] = None) -> Realization:
    """Generators and root vectors for a supported catalog type.

    Finite A, B, C and D families are realized directly; their untwisted
    affinizations as loop algebras truncated at ``loop_degree``, which an
    affine type needs, a finite type refuses with ``ValueError``, and which
    must not be negative.  The twisted family and the exceptional families
    are combinatorial-only here.  Each call returns a new realization on the
    record shared by its type; a window that cuts off a simple root,
    alpha_0 = null - theta at 0, raises ``TruncationHitError``.
    """
    rs.check_bound("loop_degree", loop_degree)
    handle = build(handle_or_type) if isinstance(handle_or_type, str) else handle_or_type
    if handle.is_finite and loop_degree is not None:
        raise ValueError(f"{handle.label} is finite and has no loop_degree, got {loop_degree}")
    if not realizable(handle):
        raise UnsupportedTypeError(f"no matrix realization for {handle.label}")
    if handle.ctype.twist == AFFINE and loop_degree is None:
        raise ValueError(f"an affine realization of {handle.label} needs a loop_degree")
    truncation = 0 if handle.ctype.twist == FINITE else loop_degree
    for alpha in handle.simple_ed:
        if abs(alpha.null) > truncation:
            raise TruncationHitError(f"degree {alpha.null} exceeds the window {truncation}")
    return Realization(handle, truncation, _realization_data(handle.ctype))


def realizable(handle: RootSystemHandle) -> bool:
    """Whether ``realize`` has the type: a finite A, B, C or D family or its untwisted affinization."""
    return handle.ctype.twist in (FINITE, AFFINE) and handle.ctype.family in ("A", "B", "C", "D")


def realize_sigma(sigma: ps.RootSet, loop_degree: Optional[int] = None) -> Realization:
    """The one realization g(sigma) is read in; an affine window is the given
    one, else three beyond sigma's largest |loop degree|.  An empty sigma, or a
    ``loop_degree`` that no realization reads, raises ``ValueError``."""
    handle = sigma.handle
    if not sigma:
        raise ValueError("sigma is empty; give at least one root")
    if loop_degree is None:
        loop_degree = None if handle.is_finite else max(abs(handle.degree_of(r)) for r in sigma) + 3
    elif not handle.is_finite and not realizable(handle):
        raise ValueError(f"{handle.label} has no realization to read loop_degree {loop_degree}")
    return realize(handle, loop_degree)


# ---------------------------------------------------------------------------
# span growth


@dataclass
class SubalgebraBasis:
    elements: list[WeightedElement]
    truncated: bool

    def dimension(self) -> int:
        return len(self.elements)


def generated_subalgebra(gens: Iterable[WeightedElement], realization: Realization) -> SubalgebraBasis:
    """Grow the span of iterated superbrackets until it stabilizes.

    Weighted elements are Cartan-homogeneous and so are their brackets, so
    reduction happens weight by weight, on sparse vectors keyed by matrix
    entry (row, column).  The pivot of a vector is its smallest key, which
    is its first nonzero in row-major order.

    ``basis`` is also the worklist: the loop reaches what it appends, and
    each element x is bracketed with itself and every element before it, so
    every unordered pair is bracketed exactly once, when the later of the
    two is reached, and a final basis of n elements costs n(n+1)/2
    brackets.  A bracket that is not inserted lies in the span already.
    The other order is never needed: for homogeneous x and y,
    [y,x] = -(-1)^{p(x)p(y)} [x,y] term by term, so the two brackets span
    the same line, are zero together and leave the degree window together.
    A bracket leaving the window marks the result truncated.
    """
    K = realization.truncation
    spans: dict[tuple[int, ...], list[tuple[Entry, dict[Entry, object]]]] = {}
    basis: list[WeightedElement] = []
    truncated = False

    def insert(e: WeightedElement) -> None:
        if e.matrix.is_zero():
            return
        vec = dict(e.matrix.nz)
        rows = spans.setdefault(e.weight, [])
        for pivot, rvec in rows:
            f = vec.get(pivot)
            if f:
                for k, y in rvec.items():
                    x = vec.get(k, 0) - f * y
                    if x:
                        vec[k] = x
                    else:
                        del vec[k]
        if not vec:
            return
        pivot = min(vec)
        inv = 1 / Fraction(vec[pivot])
        rows.append((pivot, {k: exact(x * inv) for k, x in vec.items()}))
        rows.sort(key=lambda t: t[0])
        basis.append(e)

    for g in gens:
        insert(g)
    for i, x in enumerate(basis):
        for y in basis[: i + 1]:
            try:
                insert(loop_bracket(x, y, K))
            except TruncationHitError:
                truncated = True
    return SubalgebraBasis(basis, truncated)


def span_signature(basis: SubalgebraBasis) -> dict:
    """Canonical per-weight echelon form of a span, for exact span comparison."""
    table: dict[tuple[int, ...], list[list[Fraction]]] = {}
    for e in basis.elements:
        table.setdefault(e.weight, []).append(list(e.matrix.flat()))
    return {w: tuple(tuple(row) for row in rref(vecs)[0] if any(row))
            for w, vecs in table.items()}


def _real_elements(basis: SubalgebraBasis, handle: RootSystemHandle) -> dict[Root, WeightedElement]:
    """Each real root with a nonzero space in the span, mapped to its first element."""
    e, d = handle.eps_dim, handle.delta_dim
    out: dict[Root, WeightedElement] = {}
    for x in basis.elements:
        w = x.weight
        ed = EpsDeltaVector(w[:e], w[e : e + d], w[-1])
        if handle.is_real_ed(ed):
            out.setdefault(handle.to_alpha(ed), x)
    return out


def subalgebra_real_roots(basis: SubalgebraBasis, handle: RootSystemHandle) -> ps.RootSet:
    """Real weights with a nonzero space in the spanned subalgebra."""
    return ps.RootSet(frozenset(_real_elements(basis, handle)), handle)


# ---------------------------------------------------------------------------
# theorem-level verifiers


@dataclass(frozen=True)
class TheoremVerdict:
    ok: bool
    closure_roots: frozenset[Root]
    subalgebra_roots: frozenset[Root]
    window_degree: Optional[int]  # None means the comparison was exact
    closure_status: str

    def mismatch(self) -> tuple[set[Root], set[Root]]:
        a, b = set(self.closure_roots), set(self.subalgebra_roots)
        return a - b, b - a


def _require_pi_system(sigma: ps.RootSet) -> None:
    report = ps.is_pi_system(sigma)
    if not report.ok:
        raise ValueError(f"input is not a pi-system: {report}")


def verify_theorem_main(sigma: ps.RootSet, loop_degree: Optional[int] = None) -> TheoremVerdict:
    """Compare the reflection closure of a pi-system with the oracle's real roots;
    ``realize_sigma`` runs first, to refuse a bad window or type before any closure.

    A finite type closes with no bound; an affine one at the window K closes
    at (K + 2) ht(null) + ht(theta) + 2, as theta = null - alpha_0 is the top
    degree-0 root."""
    realization = realize_sigma(sigma, loop_degree)
    _require_pi_system(sigma)
    handle = sigma.handle
    bound = None if handle.is_finite else (realization.truncation + 3) * height(handle.null_root()) + 1
    return _compare(sigma, realization, ps.closure_S_infinity(sigma, bound))


def _compare(sigma: ps.RootSet, realization: Realization, closure: ps.ClosureResult) -> TheoremVerdict:
    """The closure of sigma against the real roots of g(sigma) in the window K
    of an affine type.  Only the closure is cut to the window: ``root_vector``
    and ``loop_bracket`` raise beyond it, so g(sigma) holds no element there."""
    handle = sigma.handle
    window = None if handle.is_finite else realization.truncation
    sub_roots = subalgebra_real_roots(realization.subalgebra(sigma), handle).elements
    clo_roots = closure.roots.elements
    if window is not None:
        clo_roots = frozenset(r for r in clo_roots if abs(handle.degree_of(r)) <= window)
    return TheoremVerdict(
        ok=(sub_roots == clo_roots),
        closure_roots=clo_roots,
        subalgebra_roots=sub_roots,
        window_degree=window,
        closure_status=closure.status,
    )


@dataclass(frozen=True)
class DynkinCertificate:
    closure_closed_subroot: bool
    pi_roundtrip: bool
    oracle_match: Optional[bool]
    closure: ps.RootSet  # always stabilized: a truncated closure raises InconclusiveError

    def ok(self) -> bool:
        return self.closure_closed_subroot and self.pi_roundtrip and self.oracle_match is not False


def verify_dynkin_maps(
    sigma: ps.RootSet,
    height_bound: Optional[int] = None,
    loop_degree: Optional[int] = None,
) -> DynkinCertificate:
    """Certify the bijection data for one pi-system inside the positive roots.

    ``realize_sigma`` refuses an unread ``loop_degree`` before the closure, and
    a type or window it cannot realize gives no oracle verdict.  The oracle
    reads this closure on every type.  It stabilized: no round of it
    discarded a root, so every round, and the result, equals the unbounded
    closure's.  A closure at any bound lies inside the unbounded one, so, cut
    to an affine window K, this closure contains the cut of the closure
    ``verify_theorem_main`` runs at its own bound."""
    _require_pi_system(sigma)
    if any(not sigma.handle.is_positive(r) for r in sigma):
        raise ValueError("the pi-system must lie in the positive roots")
    try:
        realization: Optional[Realization] = realize_sigma(sigma, loop_degree)
    except (UnsupportedTypeError, TruncationHitError):
        realization = None
    closure = ps.closure_S_infinity(sigma, height_bound)
    if not closure.stabilized:
        raise InconclusiveError("closure did not stabilize; cannot certify")
    cls = ps.classify_subset(closure.roots)
    if not cls.closed:
        raise NotClosedError("Pi(Psi) is defined for closed subsets only")
    roundtrip = ps.minimal_positive_elements(closure.roots).elements == sigma.elements
    oracle_match = None
    with suppress(TruncationHitError):  # a root of sigma beyond a given window
        if realization is not None:
            oracle_match = _compare(sigma, realization, closure).ok
    return DynkinCertificate(
        closure_closed_subroot=cls.closed and cls.subroot_system and cls.symmetric,
        pi_roundtrip=roundtrip,
        oracle_match=oracle_match,
        closure=closure.roots,
    )


@dataclass(frozen=True)
class BracketReport:
    pairs_checked: int
    bracket_counterexamples: tuple
    reflection_counterexamples: tuple

    def ok(self) -> bool:
        return not self.bracket_counterexamples and not self.reflection_counterexamples


def bracket_criteria_sweep(
    basis: SubalgebraBasis, handle: RootSystemHandle, realization: Realization
) -> BracketReport:
    """Exhaustive check of the regular-subalgebra bracket and reflection laws.

    For real roots alpha, beta of the subalgebra with alpha + beta nonzero the
    bracket of their root spaces is nonzero exactly when alpha + beta is a
    root; and the even reflection by any non-isotropic alpha whose negative
    also appears maps real subalgebra roots to real subalgebra roots.  The
    loop window is the realization's; pairs whose bracket or reflection
    would leave it are skipped.
    """
    K = realization.truncation
    real_elems = _real_elements(basis, handle)
    bracket_bad = []
    checked = 0
    roots = sorted(real_elems)
    # [b,a] = -(-1)^{p(a)p(b)} [a,b]: the two orders are zero together and
    # leave the window together, so each unordered pair is bracketed once
    # and counted, and reported, in both orders
    for i, a in enumerate(roots):
        for b in roots[i:]:
            s = rs.add(a, b)
            if not any(s):
                continue
            try:
                br = loop_bracket(real_elems[a], real_elems[b], K)
            except TruncationHitError:
                continue
            orders = [(a, b)] if a == b else [(a, b), (b, a)]
            checked += len(orders)
            nonzero = not br.matrix.is_zero()
            in_delta = handle.contains(s)
            if nonzero != in_delta:
                bracket_bad += [(x, y, nonzero, in_delta) for x, y in orders]
    bracket_bad.sort()

    reflection_bad = []
    for a in roots:
        if handle.is_isotropic(a) or rs.neg(a) not in real_elems:
            continue
        for b, img in zip(roots, ps.reflect_all(handle, a, roots)):
            if not handle.is_finite and abs(handle.degree_of(img)) > K:
                continue
            if img not in real_elems:
                reflection_bad.append((a, b, img))
    return BracketReport(checked, tuple(bracket_bad), tuple(reflection_bad))


# ---------------------------------------------------------------------------
# the osp(1,2) module table


@dataclass(frozen=True)
class ModuleTable:
    k: int
    e: GradedMatrix
    f: GradedMatrix
    h: GradedMatrix


def osp12_module_table(k: int) -> ModuleTable:
    """Action table of the (2k+1)-dimensional irreducible osp(1,2)-module.

    Basis v_0..v_{2k} with v_j = f^j v_0; h acts by 2k - 2j; e sends v_j to
    -j v_{j-1} for even j and to (2k+1-j) v_{j-1} for odd j.
    """
    rs.check_bound("k", k, required=True)
    d = 2 * k + 1
    space = tuple(j % 2 for j in range(d))
    e = {(j - 1, j): -j if j % 2 == 0 else d - j for j in range(1, d)}
    f = {(j + 1, j): 1 for j in range(d - 1)}
    h = {(j, j): 2 * k - 2 * j for j in range(d)}
    return ModuleTable(
        k,
        GradedMatrix(e, 1, space),
        GradedMatrix(f, 1, space),
        GradedMatrix(h, 0, space),
    )


def verify_osp12_module(k: int) -> bool:
    """Check the module table against the matrix realization of osp(1,2) = B(0,1).

    Maps the realization's basis e, f, h, [e,e], [f,f] to the corresponding
    module operators and verifies that every structure constant is preserved.
    """
    e, f, _ = realize("B(0,1)").generators[0]
    em, fm = e.matrix, f.matrix
    hm = gm_bracket(em, fm)
    basis_r = [em, fm, hm, gm_bracket(em, em), gm_bracket(fm, fm)]
    table = osp12_module_table(k)
    if gm_bracket(table.e, table.f) != table.h:
        return False
    basis_m = [table.e, table.f, table.h,
               gm_bracket(table.e, table.e), gm_bracket(table.f, table.f)]
    cols = [list(m.flat()) for m in basis_r]
    rows = [[cols[j][i] for j in range(5)] for i in range(len(cols[0]))]
    for i in range(5):
        for j in range(5):
            target = gm_bracket(basis_r[i], basis_r[j])
            coeffs = solve(rows, list(target.flat()))
            if coeffs is None:
                return False
            rhs: dict[Entry, object] = {}
            for c, bm in zip(coeffs, basis_m):
                for key, x in bm.nz.items():
                    rhs[key] = rhs.get(key, 0) + c * x
            if {key: x for key, x in rhs.items() if x} != gm_bracket(basis_m[i], basis_m[j]).nz:
                return False
    return True

