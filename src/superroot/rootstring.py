"""Root strings through a root in a real direction, and the string laws.

The string through beta in direction alpha is {beta + k alpha} intersected
with the root set.  For non-isotropic alpha the string is unbroken once the
zero vector is allowed to fill its slot: beta + k alpha lies in the roots or
is zero exactly for -p <= k <= q with p - q equal to the coroot pairing, and
s_alpha reverses the string.  Strings in isotropic directions are finite and
carry at most two real roots.  Every string is scanned whole, inside the
type's coordinate box, so none is cut short.  Violations of any of these
laws raise; they would signal a defect in the membership oracle, never a
tolerable state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import mul
from typing import Optional

from . import rootspace as rs
from .catalog import RootSystemHandle
from .errors import BrokenStringError, NotARootError, PatternViolationError
from .rootspace import Root


@dataclass(frozen=True)
class StringEntry:
    k: int
    root: Root
    real: bool


@dataclass(frozen=True)
class RootString:
    base_root: Root
    direction: Root
    entries: tuple[StringEntry, ...]  # sorted by k
    zero_slot: Optional[int]  # k with beta + k alpha = 0, if any
    direction_isotropic: bool
    pairing: Optional[int]  # beta(h_alpha) for non-isotropic directions

    def real_count(self) -> int:
        return sum(1 for e in self.entries if e.real)


def _column(handle, alpha) -> Root:
    # Eps/delta coordinate i of each simple root, i the first that is nonzero
    # on alpha: a root's dot product with it is the root's coordinate i.
    a = handle.to_ed(alpha)
    i = next(i for i, x in enumerate(a.eps + a.delta) if x)
    return tuple((s.eps + s.delta)[i] for s in handle.simple_ed)


def _box(handle, beta, alpha, column) -> range:
    # The k with |b_i + k a_i| <= the type's coord_bound, flipped so that a_i > 0.
    ai, bi, bound = sum(map(mul, alpha, column)), sum(map(mul, beta, column)), handle.coord_bound
    if ai < 0:
        ai, bi = -ai, -bi
    return range(-((bound + bi) // ai), (bound - bi) // ai + 1)


def _scan(beta, alpha, ks, handle):
    # One ``membership`` query per nonzero slot.
    membership = handle.membership
    entries = []
    zero_slot = None
    for k in ks:
        v = tuple(b + k * a for b, a in zip(beta, alpha))
        if not any(v):
            zero_slot = k
            continue
        root, real = membership(v)
        if root:
            entries.append(StringEntry(k, v, real))
    return entries, zero_slot


def _string(handle, beta, alpha, isotropic, column) -> RootString:
    # The alpha-string through beta, scanned over the coordinate box; beta's
    # own slot says whether beta is a root.
    entries, zero_slot = _scan(beta, alpha, _box(handle, beta, alpha, column), handle)
    if not any(e.k == 0 for e in entries):
        raise NotARootError(f"{beta} is not a root")
    return RootString(beta, alpha, tuple(entries), zero_slot, isotropic,
                      None if isotropic else handle.pairing(beta, alpha))


def root_string(handle: RootSystemHandle, beta: Root, alpha: Root) -> RootString:
    """Scan the alpha-string through beta and tag each member real/imaginary.

    Every root, and the zero vector, has finite eps/delta coordinates in
    [-B, B], B the type's ``coord_bound`` (1 on A(m,n) and A(m,n)^(1), 2
    elsewhere).  A real alpha has a nonzero finite coordinate a_i, so
    beta + k alpha can be a root or zero only when |b_i + k a_i| <= B: at
    most 2B + 1 consecutive k, and 0 among them since beta is a root.  The
    scan visits exactly those k, so it sees the whole string in one pass, in
    an isotropic direction as in any other, and never truncates.
    """
    if not handle.is_real(alpha):
        raise NotARootError(f"direction {alpha} is not a real root")
    handle.to_ed(beta)  # refuses, naming it, a beta that is no int vector of the type's rank
    return _string(handle, beta, alpha, handle.is_isotropic(alpha), _column(handle, alpha))


@dataclass(frozen=True)
class UnbrokenReport:
    p: int
    q: int


def check_unbroken(s: RootString) -> UnbrokenReport:
    """Verify contiguity, p - q = pairing, and reversal by s_alpha.

    p and q count the extent below and above the base root, with the zero
    vector allowed to occupy its slot inside the string.
    """
    if s.direction_isotropic:
        raise ValueError("unbrokenness applies to non-isotropic directions")
    occupied = {e.k for e in s.entries}
    if s.zero_slot is not None:
        occupied.add(s.zero_slot)
    if 0 not in occupied:
        raise BrokenStringError("the base root is missing from its own string")
    q = 0
    while q + 1 in occupied:
        q += 1
    p = 0
    while -(p + 1) in occupied:
        p += 1
    if any(k > q or k < -p for k in occupied):
        raise BrokenStringError(
            f"string through {s.base_root} along {s.direction} has a gap: {sorted(occupied)}"
        )
    if p - q != s.pairing:
        raise BrokenStringError(
            f"p - q = {p - q} differs from the pairing {s.pairing}"
        )
    shift = p - q
    tags = {e.k: e.real for e in s.entries}
    for e in s.entries:
        mirror = -e.k - shift
        if tags.get(mirror) != e.real:
            raise BrokenStringError(
                f"s_alpha does not reverse the string at k = {e.k}"
            )
    return UnbrokenReport(p=p, q=q)


@dataclass(frozen=True)
class PatternReport:
    p_real: int
    q_imag: int
    r_real: int


def string_pattern(s: RootString) -> PatternReport:
    """Decompose tags into real prefix, imaginary middle, real suffix."""
    if s.direction_isotropic:
        raise ValueError("the pattern law applies to non-isotropic directions")
    tags = [e.real for e in s.entries]
    if not any(tags):
        raise ValueError("the pattern law needs at least one real root in the string")
    i = 0
    while i < len(tags) and tags[i]:
        i += 1
    j = len(tags)
    while j > i and tags[j - 1]:
        j -= 1
    if any(tags[i:j]):
        raise PatternViolationError(
            f"real root between imaginary ones in the string through {s.base_root}"
        )
    p, q, r = i, j - i, len(tags) - j
    if q != 0 and p != r:
        raise PatternViolationError(
            f"imaginary middle with unequal real wings p={p}, r={r}"
        )
    if q == 0:
        p, r = len(tags), 0
    return PatternReport(p_real=p, q_imag=q, r_real=r)


@dataclass(frozen=True)
class LawVerdict:
    law: str
    applicable: bool
    passed: bool
    detail: str = ""


def pairing_laws(handle: RootSystemHandle, string: RootString) -> list[LawVerdict]:
    """Evaluate the applicable pairing laws for the pair of one string:
    alpha is its direction and beta its base root.

    Covered: the sum of two strongly negative non-isotropic roots is never
    real; at most four real roots per non-isotropic string; the pairing value
    sets for isotropic beta against non-isotropic alpha; the exclusion
    alpha+beta real => alpha-beta not a root for isotropic alpha; and the
    two-real-roots bound for isotropic directions.

    ``string`` is the alpha-string through beta from ``root_string``.  It
    is the one source for beta + k alpha: alpha's isotropy, beta's reality
    (k = 0), beta(h_alpha), and the reality and membership of alpha + beta
    (k = 1).  The handle is asked only what the string cannot hold:
    alpha(h_beta), which needs beta's coroot; the isotropy of beta and of
    the members; finite parts; and, in one ``membership`` query, the
    membership and reality of alpha - beta, which is not in the string and
    is not read as the negative of its k = -1 slot, since the oracle is not
    assumed closed under negation.  ``sweep_strings`` reads the same laws
    from a line's scan; this is its case m = 0, sign = +1.
    """
    verdicts = _laws(handle, _Line(handle, string), string.base_root, string.direction, 0, 1,
                     functools.cache(handle.is_isotropic))
    return [LawVerdict(law, applicable, passed, detail()) for law, applicable, passed, detail in verdicts]


class _Line:
    # The facts of one c-string s through b that the pairs on its line read.
    __slots__ = ("string", "real", "n_real", "coroots", "wide")

    def __init__(self, handle, string: RootString):
        self.string = string
        self.real = {e.k: e.real for e in string.entries}  # k -> is b + k c real
        self.n_real = string.real_count()
        self.coroots: dict[int, int] = {}  # m -> c(h_beta) for beta = b + m c
        # may an isotropic string pass k = +-1: on a finite type, or when f_c and f_b are proportional
        self.wide = not handle.has_null or (string.direction_isotropic and _proportional(
            _finite(handle, string.direction), _finite(handle, string.base_root)))


def _laws(handle, line: _Line, beta: Root, alpha: Root, m: int, sign: int, isotropic):
    # The pairing laws of beta = b + m c against alpha = sign c, read from the c-string
    # s through b, as (law, applicable, passed, detail), detail() making the witness text.
    s, real, n_real = line.string, line.real, line.n_real
    beta_real, sum_real = real.get(m, False), real.get(m + sign, False)
    out = []
    if not s.direction_isotropic:
        pb = sign * (s.pairing + 2 * m)  # beta(h_alpha)
        beta_iso = beta_real and isotropic(beta)
        if beta_real and not beta_iso:
            pa = line.coroots.get(m)
            if pa is None:
                pa = line.coroots[m] = handle.pairing(s.direction, beta)
            pa *= sign  # alpha(h_beta)
            if pa < -1 and pb < -1:
                out.append(("sum-not-real", True, not sum_real,
                            lambda: f"alpha(h_beta)={pa}, beta(h_alpha)={pb}"))
            else:
                out.append(("sum-not-real", False, True, str))  # str() == ""
        out.append(("four-real-roots", True, n_real <= 4, lambda: f"{n_real} real roots"))
        if beta_iso:
            bad = []
            for e in s.entries if sign > 0 else reversed(s.entries):
                k = sign * (e.k - m)
                if k and e.real:
                    allowed = {-k} if isotropic(e.root) else {0, -2 * k}
                    if pb not in allowed:
                        bad.append(f"k={k}: pairing {pb} outside {sorted(allowed)}")
            out.append(("isotropic-pairing-values", True, not bad, lambda: "; ".join(bad)))
    elif beta_real:
        diff_root, diff_real = handle.membership(rs.sub(alpha, beta))
        failed = []
        if sum_real and diff_root:
            failed.append("alpha+beta real and alpha-beta a root")
        if diff_real and m + sign in real:
            failed.append("alpha-beta real and alpha+beta a root")
        out.append(("isotropic-sum-difference-exclusion", sum_real or diff_real,
                    not failed, lambda: "; ".join(failed)))
        bound_ok = n_real <= 2 and (line.wide or all(-1 <= e.k - m <= 1 for e in s.entries))
        out.append(("isotropic-string-bound", True, bound_ok,
                    lambda: f"{n_real} real roots, ks={sorted(sign * (e.k - m) for e in s.entries)}"))
    return out


def _finite(handle, x) -> Root:
    # x - deg(x) null: x's finite part in simple-root coordinates, a linear image of its eps/delta one
    d = handle.degree_of(x)
    return tuple([a - d * n for a, n in zip(x, handle.null_root())])


def _proportional(x, y) -> bool:
    # Is y a rational multiple of x (or either zero)?  Every 2x2 minor vanishes.
    return all(x[i] * y[j] == x[j] * y[i]
               for i in range(len(x)) for j in range(i + 1, len(x)))


@dataclass
class SweepReport:
    pairs: int = 0
    law_counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures

    def record(self, law: str, passed: bool, witness: str = ""):
        self.law_counts[law] = self.law_counts.get(law, 0) + 1
        if not passed:
            self.failures.append((law, witness))


def sweep_strings(
    handle: RootSystemHandle,
    max_height: Optional[int] = None,
    max_degree: Optional[int] = None,
) -> SweepReport:
    """Run every string law over a grid of (beta, alpha) pairs.

    beta ranges over the listed roots inside the height (finite) or
    null-degree (affine) window, and alpha over those that are not multiples
    of null: the real ones, as the catalog lists real roots and multiples of
    null only.  Non-isotropic directions are checked for unbrokenness, the
    pairing identity, reversal, the real/imaginary block pattern and the
    four-real-roots bound; isotropic directions for the two-real-roots bound
    and the exclusion laws.  Every law is recorded for every pair, and the
    report is the one that scanning each pair's string through its own beta
    would give, witnesses and order included.  Three facts let the sweep do
    less work than that:

    - The alpha-line and the (-alpha)-line through beta are one set of
      vectors, so the sweep keeps one table of lines, keyed by c and rep:
      c = min(alpha, -alpha) is the direction of +-alpha that the sorted
      sweep meets first, and rep = beta - (beta_i // c_i) c with i the first
      nonzero coordinate of c.  Each line is scanned once, in direction c,
      through the first member met, and c's lines are dropped once the pass
      of -c has read them.  Slot k of the (sign c)-string through
      beta = b + m c is slot m + sign k of the c-string through b; an empty
      slot m raises ``NotARootError``.
    - Each pair's pairing laws are read from its line's scan, building no
      string: beta(h_alpha) = sign (b(h_c) + 2m), as the pairing is linear
      in beta and c(h_c) = 2, and alpha(h_beta) = sign c(h_beta), c(h_beta)
      asked once per (line, root).  The finite-part test of the isotropic
      bound is a line constant: the 2x2 minors x_i y_j - x_j y_i are
      bilinear, so those of f_c and f_b + m f_c are those of f_c and f_b
      (the m f_c f_c terms cancel), and a sign flips them all.  Each root's
      isotropy is asked once per sweep, alpha - beta once per pair, and
      witness text is made only for a failed law.
    - The unbroken and pattern laws are decided once per line, for both
      directions.  Under a shift by m the occupied slots move by -m, so
      p' = p + m, q' = q - m and p' - q' = p - q + 2m, the shifted pairing;
      the mirror slot -k - (p - q) moves by -m as well.  A flip k -> -k
      swaps p and q and negates p - q and the pairing.  So
      ``check_unbroken`` passes for every pair of a line or fails for every
      one, and ``string_pattern`` reads only the tag order, which a shift
      keeps and a flip reverses, swapping the equal real wings.  On a line
      that fails, each pair's string is scanned again through its own beta,
      so that each keeps its own witness.

    ``string_pattern`` cannot fail once ``check_unbroken`` has passed:
    beta + k alpha has a zero finite part for at most one k, so a string has
    at most one imaginary member, and reversal by s_alpha makes the real
    wings equal.  It runs anyway: its ``pattern`` count is part of the
    ``string-sweep`` certificate and of the ``strings`` benchmark digest.

    A negative bound or one that the type does not read raises
    ``ValueError``, and so does an affine type without ``max_degree``;
    ``all_roots`` checks each bound with ``rootspace.check_bound``.
    """
    report = SweepReport()
    if handle.is_finite:
        if max_degree is not None:
            raise ValueError("a finite type has no null degree; bound it by max_height (--height)")
    else:
        if max_height is not None:
            raise ValueError("an affine type is swept by null degree; bound it by max_degree (--degree)")
        if max_degree is None:
            raise ValueError("an affine sweep needs a null-degree bound: give max_degree (--degree)")
    betas = handle.all_roots(max_height=max_height, max_degree=max_degree)
    null = handle.null_root()
    alphas = betas if null is None else [b for b in betas if not _proportional(null, b)]
    isotropic = functools.cache(handle.is_isotropic)
    lines: dict[Root, dict] = {}  # c -> rep -> (j, _Line of the c-string through rep + j c, its laws if they pass)
    for alpha in alphas:
        iso = isotropic(alpha)
        c = min(alpha, rs.neg(alpha))
        sign = 1 if c == alpha else -1
        table = lines.setdefault(c, {}) if sign > 0 else lines.pop(c, {})  # -c's pass is the last to read c's lines
        i = next(n for n, a in enumerate(c) if a)
        column = _column(handle, c)
        for beta in betas:
            report.pairs += 1
            j = beta[i] // c[i]
            rep = tuple(b - j * a for b, a in zip(beta, c))
            entry = table.get(rep)
            if entry is None:
                s = _string(handle, beta, c, iso, column)
                laws = [] if iso else _string_laws(s)
                entry = table[rep] = (j, _Line(handle, s), laws if all(ok for _, ok, _ in laws) else None)
            j0, line, line_laws = entry
            m = j - j0
            if m not in line.real:
                raise NotARootError(f"{beta} is not a root")
            laws = line_laws if line_laws is not None else _string_laws(_string(handle, beta, alpha, iso, column))
            for law in laws:
                report.record(*law)
            if laws and not laws[0][1]:
                continue  # a broken string: the pairing laws are not run on it
            for law, applicable, passed, detail in _laws(handle, line, beta, alpha, m, sign, isotropic):
                if applicable:
                    report.record(law, passed, "" if passed else f"beta={beta} alpha={alpha}: {detail()}")
    return report


def _string_laws(s: RootString) -> list[tuple[str, bool, str]]:
    # The (law, passed, witness) records of unbrokenness and, on an unbroken
    # string with a real member, of the pattern.
    try:
        check_unbroken(s)
    except BrokenStringError as exc:
        return [("unbroken", False, f"beta={s.base_root} alpha={s.direction}: {exc}")]
    if not any(e.real for e in s.entries):
        return [("unbroken", True, "")]
    try:
        string_pattern(s)
    except PatternViolationError as exc:
        return [("unbroken", True, ""), ("pattern", False, f"beta={s.base_root} alpha={s.direction}: {exc}")]
    return [("unbroken", True, ""), ("pattern", True, "")]

