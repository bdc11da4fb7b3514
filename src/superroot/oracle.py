"""Brute-force ground truth: matrix realizations and subalgebra closures.

Finite types are realized concretely: A(m,n) as supertraceless matrices on
C^{m+1|n+1}, the orthosymplectic families by solving the invariance equations
of the even supersymmetric form exactly.  Untwisted affine types are loop
algebras over the finite realization with the central extension omitted;
root-space statements are insensitive to the centre.  All elements are kept
Cartan-homogeneous by seeding every computation with root vectors, so spans
can be reduced weight by weight.

The realizations are almost elementary matrices, so a matrix keeps only its
nonzero entries, as integers where they are integral and as Fractions
otherwise; brackets multiply sparse by sparse and span reduction runs on
sparse vectors.  Nothing is ever rounded.  Dense views remain for callers
that want them, such as the independent echelon check ``span_signature``.

Loop elements carry a truncation degree K fixed per session.  A bracket whose
result would leave the window raises; the span growth records the event and
reports a truncated status instead of silently dropping anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import pisystem as ps
from . import rootspace as rs
from .catalog import (
    EpsDeltaVector,
    FiniteHandle,
    RootSystemHandle,
    UntwistedAffineHandle,
    build,
)
from .errors import (
    InconclusiveError,
    NotARootError,
    TruncationHitError,
    UnsupportedTypeError,
)
from .linalg import nullspace, rref, solve
from .rootspace import Root, height

# ---------------------------------------------------------------------------
# graded matrices and loop elements


Entry = tuple[int, int]  # (row, column)


def _exact(x):
    """An exact matrix value: an int when integral, else the Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):  # bool and other int subclasses
        return int(x)
    raise TypeError(f"matrix entries must be int or Fraction, not {x!r}")


class GradedMatrix:
    """A parity-homogeneous matrix on a Z/2-graded space, stored sparsely.

    ``nz`` maps (row, column) to the nonzero entries only; a value is an
    ``int`` when integral and a ``Fraction`` otherwise, so arithmetic stays
    exact and mostly in integers.  Every construction checks, over the
    nonzero entries, that each lies in the matrix and in the block of the
    matrix's parity.  ``GradedMatrix(rows, parity, space)`` builds from dense
    rows and ``GradedMatrix.sparse`` from a map; ``entries`` and ``flat()``
    are dense read-only views with ``Fraction`` values.  Instances are
    immutable.
    """

    __slots__ = ("nz", "parity", "space")

    def __init__(self, rows: Sequence[Sequence], parity: int, space: Sequence[int]):
        d = len(space)
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ValueError("matrix shape does not match the space")
        self._init({(r, c): x for r, row in enumerate(rows) for c, x in enumerate(row)},
                   parity, space)

    @classmethod
    def sparse(cls, nz: dict[Entry, object], parity: int, space: Sequence[int]) -> "GradedMatrix":
        """The matrix with entries ``nz``; zero values are dropped."""
        m = object.__new__(cls)
        m._init(nz, parity, space)
        return m

    def _init(self, nz: dict[Entry, object], parity: int, space: Sequence[int]) -> None:
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
            kept[r, c] = _exact(x)
        object.__setattr__(self, "nz", kept)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):
        raise AttributeError("GradedMatrix is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return (self.parity, self.space, self.nz) == (other.parity, other.space, other.nz)

    def __hash__(self) -> int:
        return hash((self.parity, self.space, frozenset(self.nz.items())))

    def __repr__(self) -> str:
        return f"GradedMatrix.sparse({self.nz!r}, {self.parity}, {self.space})"

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
        return GradedMatrix.sparse({k: c * x for k, x in self.nz.items()}, self.parity, self.space)

    def plus(self, other: "GradedMatrix") -> "GradedMatrix":
        if other.parity != self.parity:
            raise ValueError("cannot add matrices of different parity")
        acc = dict(self.nz)
        for k, x in other.nz.items():
            acc[k] = acc.get(k, 0) + x
        return GradedMatrix.sparse(acc, self.parity, self.space)


def gm_unit(space: tuple[int, ...], r: int, c: int, val=1) -> GradedMatrix:
    return GradedMatrix.sparse({(r, c): val}, space[r] ^ space[c], space)


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
    return GradedMatrix.sparse(acc, a.parity ^ b.parity, a.space)


@dataclass(frozen=True)
class LoopElement:
    """Finite sum of matrix-times-t^degree terms, all of one parity."""

    terms: tuple[tuple[int, GradedMatrix], ...]  # sorted by degree, no zeros

    @property
    def parity(self) -> int:
        return self.terms[0][1].parity if self.terms else 0

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> list[int]:
        return [d for d, _ in self.terms]

    def scaled(self, c: Fraction) -> "LoopElement":
        if c == 0:
            return LoopElement(())
        return LoopElement(tuple((d, m.scaled(c)) for d, m in self.terms))


def loop(matrix: GradedMatrix, degree: int = 0) -> LoopElement:
    if matrix.is_zero():
        return LoopElement(())
    return LoopElement(((degree, matrix),))


def loop_add(a: LoopElement, b: LoopElement) -> LoopElement:
    acc: dict[int, GradedMatrix] = {d: m for d, m in a.terms}
    for d, m in b.terms:
        acc[d] = acc[d].plus(m) if d in acc else m
    return LoopElement(tuple((d, acc[d]) for d in sorted(acc) if not acc[d].is_zero()))


def loop_bracket(a: LoopElement, b: LoopElement, truncation: int) -> LoopElement:
    """Bracket of loop elements; degrees add, results beyond the window raise."""
    acc: dict[int, GradedMatrix] = {}
    for da, ma in a.terms:
        for db, mb in b.terms:
            d = da + db
            br = gm_bracket(ma, mb)
            if br.is_zero():
                continue
            if abs(d) > truncation:
                raise TruncationHitError(f"bracket degree {d} exceeds the window {truncation}")
            acc[d] = acc[d].plus(br) if d in acc else br
    return LoopElement(tuple((d, acc[d]) for d in sorted(acc) if not acc[d].is_zero()))


# ---------------------------------------------------------------------------
# realizations


@dataclass(frozen=True)
class WeightedElement:
    """A Cartan-homogeneous element with its ambient-handle weight coordinates."""

    weight: tuple[int, ...]  # eps + delta + null coords of the ambient handle
    value: LoopElement


class Realization:
    """Chevalley generators and root spaces of one catalog type as matrices."""

    def __init__(self, handle: RootSystemHandle, finite: FiniteHandle,
                 space: tuple[int, ...], index_weights: list[tuple[int, ...]],
                 root_spaces: dict[tuple[int, ...], GradedMatrix], truncation: int):
        self.handle = handle
        self.finite = finite
        self.space = space
        self.index_weights = index_weights  # finite eps+delta coords per basis index
        self._root_spaces = root_spaces  # finite eps+delta coords -> matrix
        self.truncation = truncation
        self.generators = self._chevalley_generators()

    # -- basic helpers -------------------------------------------------------

    def _fin_coords(self, v: EpsDeltaVector) -> tuple[int, ...]:
        return v.eps + v.delta

    def weight_eval(self, functional: EpsDeltaVector, diag: GradedMatrix) -> Fraction:
        """Evaluate an eps/delta functional on a diagonal matrix; null gives 0."""
        total = Fraction(0)
        coords = functional.eps + functional.delta
        for idx, wt in enumerate(self.index_weights):
            ci = next((i for i, x in enumerate(wt) if x != 0), None)
            if ci is not None and wt[ci] == 1:
                total += coords[ci] * diag.nz.get((idx, idx), 0)
        return total

    def finite_root_matrix(self, v: EpsDeltaVector) -> GradedMatrix:
        key = self._fin_coords(v.finite_part())
        if key not in self._root_spaces:
            raise NotARootError(f"no root space at {v} in the realization")
        return self._root_spaces[key]

    def root_vector(self, root: Sequence[int]) -> WeightedElement:
        """The root vector x_beta as a weighted loop element."""
        ed = self.handle.to_ed(tuple(root))
        if abs(ed.null) > self.truncation:
            raise TruncationHitError(f"degree {ed.null} exceeds the window {self.truncation}")
        m = self.finite_root_matrix(ed)
        return WeightedElement(ed.coords(), loop(m, ed.null))

    # -- generator construction ------------------------------------------------

    def _chevalley_generators(self) -> list[tuple[WeightedElement, WeightedElement, WeightedElement]]:
        out = []
        cat = self.handle.cartan.matrix
        simples_alpha = self.handle.simple_roots_alpha()
        for i, alpha in enumerate(self.handle.simple_ed):
            xplus = self.root_vector(simples_alpha[i])
            ed_minus = -alpha
            m_minus = self.finite_root_matrix(ed_minus)
            xminus_raw = WeightedElement(ed_minus.coords(), loop(m_minus, ed_minus.null))
            h_raw = loop_bracket(xplus.value, xminus_raw.value, self.truncation)
            if h_raw.is_zero():
                raise AssertionError("vanishing coroot bracket in the realization")
            h_mat = h_raw.terms[0][1]
            row_raw = [self.weight_eval(aj, h_mat) for aj in self.handle.simple_ed]
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
            xminus = WeightedElement(xminus_raw.weight, xminus_raw.value.scaled(c))
            h = WeightedElement(
                tuple(0 for _ in xplus.weight),
                loop_bracket(xplus.value, xminus.value, self.truncation),
            )
            out.append((xplus, xminus, h))
        return out

    def recomputed_cartan(self) -> tuple[tuple[Fraction, ...], ...]:
        rows = []
        for _, _, h in self.generators:
            h_mat = h.value.terms[0][1]
            rows.append(tuple(self.weight_eval(aj, h_mat) for aj in self.handle.simple_ed))
        return tuple(rows)

    def full_basis(self) -> "SubalgebraBasis":
        gens = []
        for e, f, _ in self.generators:
            gens.extend([e, f])
        return generated_subalgebra(gens, self)


def _sl_realization(handle: FiniteHandle, ambient: RootSystemHandle, K: int) -> Realization:
    m1, n1 = handle.eps_dim, handle.delta_dim
    space = (0,) * m1 + (1,) * n1
    index_weights = []
    for i in range(m1):
        w = [0] * (m1 + n1)
        w[i] = 1
        index_weights.append(tuple(w))
    for p in range(n1):
        w = [0] * (m1 + n1)
        w[m1 + p] = 1
        index_weights.append(tuple(w))
    root_spaces: dict[tuple[int, ...], GradedMatrix] = {}
    for v in handle.real_roots_ed(None):
        key = v.eps + v.delta
        sup = [(a, x) for a, x in enumerate(key) if x != 0]
        (a, xa), (b, xb) = sup
        r, c = (a, b) if xa == 1 else (b, a)
        root_spaces[key] = gm_unit(space, r, c)
    return Realization(ambient, handle, space, index_weights, root_spaces, K)


def _osp_realization(handle: FiniteHandle, ambient: RootSystemHandle, K: int) -> Realization:
    m, n = handle.eps_dim, handle.delta_dim
    with_middle = handle.ctype.family == "B"
    dim_even = 2 * m + (1 if with_middle else 0)
    space = (0,) * dim_even + (1,) * (2 * n)
    d = len(space)

    def fincoord(slot: int, val: int) -> tuple[int, ...]:
        w = [0] * (m + n)
        w[slot] = val
        return tuple(w)

    index_weights: list[tuple[int, ...]] = []
    for i in range(m):
        index_weights.append(fincoord(i, 1))
    for i in range(m):
        index_weights.append(fincoord(i, -1))
    if with_middle:
        index_weights.append(tuple([0] * (m + n)))
    for p in range(n):
        index_weights.append(fincoord(m + p, 1))
    for p in range(n):
        index_weights.append(fincoord(m + p, -1))

    gram = [[Fraction(0)] * d for _ in range(d)]
    for i in range(m):
        gram[i][m + i] = Fraction(1)
        gram[m + i][i] = Fraction(1)
    if with_middle:
        gram[2 * m][2 * m] = Fraction(1)
    off = dim_even
    for p in range(n):
        gram[off + p][off + n + p] = Fraction(1)
        gram[off + n + p][off + p] = Fraction(-1)

    def solve_weight(target: tuple[int, ...], parity: int) -> list[GradedMatrix]:
        pairs = [
            (r, c)
            for r in range(d)
            for c in range(d)
            if (space[r] ^ space[c]) == parity
            and tuple(a - b for a, b in zip(index_weights[r], index_weights[c])) == target
        ]
        if not pairs:
            return []
        rows = []
        for a in range(d):
            sign = Fraction(-1 if (parity and space[a]) else 1)
            for b in range(d):
                row = []
                for (r, c) in pairs:
                    coeff = Fraction(0)
                    if c == a:
                        coeff += gram[r][b]
                    if c == b:
                        coeff += sign * gram[a][r]
                    row.append(coeff)
                rows.append(row)
        return [GradedMatrix.sparse(dict(zip(pairs, vecsol)), parity, space)
                for vecsol in nullspace(rows)]

    root_spaces: dict[tuple[int, ...], GradedMatrix] = {}
    for v in handle.real_roots_ed(None):
        key = v.eps + v.delta
        basis = solve_weight(key, handle.parity_ed(v))
        if len(basis) != 1:
            raise AssertionError(f"root space at {v} has dimension {len(basis)}")
        root_spaces[key] = basis[0]
    return Realization(ambient, handle, space, index_weights, root_spaces, K)


def realize(handle_or_type, loop_degree: Optional[int] = None) -> Realization:
    """Generators and root vectors for a supported catalog type.

    Finite A, B, C and D families are realized directly; their untwisted
    affinizations as loop algebras truncated at ``loop_degree``.  The twisted
    family and the exceptional families are combinatorial-only here.
    """
    handle = build(handle_or_type) if isinstance(handle_or_type, str) else handle_or_type
    if isinstance(handle, FiniteHandle):
        finite, ambient, K = handle, handle, 0
    elif isinstance(handle, UntwistedAffineHandle):
        finite, ambient = handle.finite, handle
        K = loop_degree if loop_degree is not None else 6
    else:
        raise UnsupportedTypeError(f"no matrix realization for {handle.label}")
    if finite.ctype.family == "A":
        return _sl_realization(finite, ambient, K)
    if finite.ctype.family in ("B", "C", "D"):
        return _osp_realization(finite, ambient, K)
    raise UnsupportedTypeError(f"no matrix realization for family {finite.ctype.family}")


# ---------------------------------------------------------------------------
# span growth


@dataclass
class SubalgebraBasis:
    elements: list[WeightedElement]
    truncated: bool
    truncation: int

    def weights(self) -> set[tuple[int, ...]]:
        return {e.weight for e in self.elements}

    def by_weight(self, weight: tuple[int, ...]) -> list[WeightedElement]:
        return [e for e in self.elements if e.weight == weight]

    def dimension(self) -> int:
        return len(self.elements)


def _flatten(e: WeightedElement) -> tuple[Fraction, ...]:
    # Homogeneous elements at one weight share a single degree.
    if not e.value.terms:
        return ()
    return e.value.terms[0][1].flat()


def generated_subalgebra(gens: Iterable[WeightedElement], realization: Realization) -> SubalgebraBasis:
    """Grow the span of iterated superbrackets until it stabilizes.

    Elements must be Cartan-homogeneous; brackets of homogeneous elements are
    homogeneous, so reduction happens weight by weight, on sparse vectors
    keyed by matrix entry (row, column).  The pivot of a vector is its
    smallest key, which is its first nonzero in row-major order.

    Each pair is bracketed in one order only.  For homogeneous x and y,
    [y,x] = -(-1)^{p(x)p(y)} [x,y] term by term, so [y,x] lies in the span
    once [x,y] has been offered; it is zero exactly when [x,y] is, and it
    leaves the degree window exactly when [x,y] does.  Bracketing one order
    therefore admits the same elements in the same order, and marks the
    result truncated in the same cases, as bracketing both.  In the loop
    case a bracket leaving the degree window marks the result truncated.
    """
    K = realization.truncation
    spans: dict[tuple[int, ...], list[tuple[Entry, dict[Entry, object]]]] = {}
    basis: list[WeightedElement] = []
    truncated = False

    def insert(e: WeightedElement) -> bool:
        if e.value.is_zero():
            return False
        if len(e.value.terms) != 1:
            raise ValueError("span growth expects Cartan-homogeneous elements")
        vec = dict(e.value.terms[0][1].nz)
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
            return False
        pivot = min(vec)
        inv = 1 / Fraction(vec[pivot])
        rows.append((pivot, {k: _exact(x * inv) for k, x in vec.items()}))
        rows.sort(key=lambda t: t[0])
        basis.append(e)
        return True

    queue: list[WeightedElement] = []
    for g in gens:
        if insert(g):
            queue.append(g)
    while queue:
        x = queue.pop()
        for y in list(basis):
            try:
                br = loop_bracket(x.value, y.value, K)
            except TruncationHitError:
                truncated = True
                continue
            if br.is_zero():
                continue
            w = tuple(p + q for p, q in zip(x.weight, y.weight))
            e = WeightedElement(w, br)
            if insert(e):
                queue.append(e)
    return SubalgebraBasis(basis, truncated, K)


def span_signature(basis: SubalgebraBasis, window: Optional[int] = None) -> dict:
    """Canonical per-weight echelon form of a span, for exact span comparison."""
    table: dict[tuple[int, ...], list[list[Fraction]]] = {}
    for e in basis.elements:
        if window is not None and abs(e.weight[-1]) > window:
            continue
        table.setdefault(e.weight, []).append(list(_flatten(e)))
    return {w: tuple(tuple(row) for row in rref(vecs)[0] if any(row))
            for w, vecs in table.items()}


def subalgebra_real_roots(basis: SubalgebraBasis, handle: RootSystemHandle) -> ps.RootSet:
    """Real weights with a nonzero space in the spanned subalgebra."""
    roots = []
    for w in basis.weights():
        e, d = handle.eps_dim, handle.delta_dim
        ed = EpsDeltaVector(w[:e], w[e : e + d], w[-1])
        if ed.is_zero():
            continue
        if handle.is_real_ed(ed):
            roots.append(handle.to_alpha(ed))
    return ps.RootSet(frozenset(roots), handle)


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


def _closure_height_bound(handle: RootSystemHandle, K: int) -> int:
    null = handle.null_root()
    ht_null = height(null) if null else 0
    finite_max = max(height(r) for r in handle.real_roots(max_degree=0))
    return (K + 2) * ht_null + finite_max + 2


def verify_theorem_main(
    sigma: ps.RootSet,
    loop_degree: Optional[int] = None,
    max_rounds: int = 64,
) -> TheoremVerdict:
    """Compare the reflection closure of a pi-system with the oracle's real roots."""
    handle = sigma.handle
    report = ps.is_pi_system(sigma)
    if not report.ok:
        raise ValueError(f"input is not a pi-system: {report}")
    if handle.is_finite:
        closure = ps.closure_S_infinity(sigma, None, max_rounds)
        if not closure.stabilized:
            raise InconclusiveError("finite-type closure did not stabilize")
        window = None
    else:
        K = loop_degree if loop_degree is not None else (
            max(abs(handle.degree_of(r)) for r in sigma) + 3
        )
        closure = ps.closure_S_infinity(sigma, _closure_height_bound(handle, K), max_rounds)
        window = K
    realization = realize(handle, loop_degree=window)
    gens = [realization.root_vector(r) for r in sigma]
    gens += [realization.root_vector(rs.neg(r)) for r in sigma]
    basis = generated_subalgebra(gens, realization)
    sub_roots = subalgebra_real_roots(basis, handle).elements
    clo_roots = closure.roots.elements
    if window is not None:
        sub_roots = frozenset(r for r in sub_roots if abs(handle.degree_of(r)) <= window)
        clo_roots = frozenset(r for r in clo_roots if abs(handle.degree_of(r)) <= window)
    return TheoremVerdict(
        ok=(sub_roots == clo_roots),
        closure_roots=clo_roots,
        subalgebra_roots=sub_roots,
        window_degree=window,
        closure_status=closure.status,
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
    also appears maps real subalgebra roots to real subalgebra roots.  Pairs
    whose bracket would leave the loop window are skipped.
    """
    real_elems: dict[Root, WeightedElement] = {}
    all_weights = set()
    for e in basis.elements:
        w = e.weight
        eps, dlt = handle.eps_dim, handle.delta_dim
        ed = EpsDeltaVector(w[:eps], w[eps : eps + dlt], w[-1])
        all_weights.add(w)
        if not ed.is_zero() and handle.is_real_ed(ed):
            real_elems.setdefault(handle.to_alpha(ed), e)

    bracket_bad = []
    checked = 0
    roots = sorted(real_elems)
    for a in roots:
        for b in roots:
            s = rs.add(a, b)
            if not any(s):
                continue
            try:
                br = loop_bracket(real_elems[a].value, real_elems[b].value, basis.truncation)
            except TruncationHitError:
                continue
            checked += 1
            nonzero = not br.is_zero()
            in_delta = handle.contains(s)
            if nonzero != in_delta:
                bracket_bad.append((a, b, nonzero, in_delta))

    reflection_bad = []
    for a in roots:
        if handle.is_isotropic(a) or rs.neg(a) not in real_elems:
            continue
        for b in roots:
            img = ps.reflect(handle, a, b)
            if not handle.is_finite and abs(handle.degree_of(img)) > basis.truncation:
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
    if k < 0:
        raise ValueError("k must be nonnegative")
    d = 2 * k + 1
    space = tuple(j % 2 for j in range(d))
    emat = [[Fraction(0)] * d for _ in range(d)]
    fmat = [[Fraction(0)] * d for _ in range(d)]
    hmat = [[Fraction(0)] * d for _ in range(d)]
    for j in range(d):
        hmat[j][j] = Fraction(2 * k - 2 * j)
        if j + 1 < d:
            fmat[j + 1][j] = Fraction(1)
        if j > 0:
            emat[j - 1][j] = Fraction(-j if j % 2 == 0 else 2 * k + 1 - j)
    return ModuleTable(
        k,
        GradedMatrix(tuple(tuple(r) for r in emat), 1, space),
        GradedMatrix(tuple(tuple(r) for r in fmat), 1, space),
        GradedMatrix(tuple(tuple(r) for r in hmat), 0, space),
    )


def verify_osp12_module(k: int, realization: Optional[Realization] = None) -> bool:
    """Check the module table against the osp(1,2) matrix realization.

    Maps the realization's basis e, f, h, [e,e], [f,f] to the corresponding
    module operators and verifies that every structure constant is preserved.
    """
    real = realization if realization is not None else realize("B(0,1)")
    e, f, _ = real.generators[0]
    em, fm = e.value.terms[0][1], f.value.terms[0][1]
    hm = gm_bracket(em, fm)
    basis_r = [em, fm, hm, gm_bracket(em, em), gm_bracket(fm, fm)]
    table = osp12_module_table(k)
    hmod = gm_bracket(table.e, table.f)
    if hmod.entries != table.h.entries:
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
            lhs = gm_bracket(basis_m[i], basis_m[j])
            acc = [[Fraction(0)] * table.e.dim for _ in range(table.e.dim)]
            for c, bm in zip(coeffs, basis_m):
                if c:
                    dense = bm.entries
                    for r in range(table.e.dim):
                        for s in range(table.e.dim):
                            acc[r][s] += c * dense[r][s]
            if tuple(tuple(r) for r in acc) != lhs.entries:
                return False
    return True


def super_jacobi_defect(x: GradedMatrix, y: GradedMatrix, z: GradedMatrix) -> GradedMatrix:
    """[x,[y,z]] - [[x,y],z] - (-1)^{p(x)p(y)} [y,[x,z]]; zero iff Jacobi holds."""
    lhs = gm_bracket(x, gm_bracket(y, z))
    r1 = gm_bracket(gm_bracket(x, y), z)
    r2 = gm_bracket(y, gm_bracket(x, z))
    sign = Fraction(-1 if (x.parity and y.parity) else 1)
    return lhs.plus(r1.scaled(Fraction(-1))).plus(r2.scaled(-sign))
