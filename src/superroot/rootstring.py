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

from dataclasses import dataclass, field
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

    def ks(self) -> list[int]:
        return [e.k for e in self.entries]

    def real_count(self) -> int:
        return sum(1 for e in self.entries if e.real)


def _box(handle, beta, alpha) -> range:
    # The k with |b_i + k a_i| <= the type's coord_bound on the first nonzero
    # finite coordinate a_i of alpha, flipped so that a_i > 0.
    a, b, bound = handle.to_ed(alpha), handle.to_ed(beta), handle.coord_bound
    ai, bi = next((x, y) for x, y in zip(a.eps + a.delta, b.eps + b.delta) if x)
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


def _string(handle, beta, alpha, isotropic) -> RootString:
    # The alpha-string through beta, scanned over the coordinate box; beta's
    # own slot says whether beta is a root.
    entries, zero_slot = _scan(beta, alpha, _box(handle, beta, alpha), handle)
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
    return _string(handle, beta, alpha, handle.is_isotropic(alpha))


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
    occupied = set(s.ks())
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

    ``string`` is the alpha-string through beta from ``root_string``, or
    the sweep's view of its line's scan.  It is the one source for
    beta + k alpha: alpha's isotropy, beta's reality (k = 0), beta(h_alpha),
    and the reality and membership of alpha + beta (k = 1).  The handle is
    asked only what the string cannot hold: alpha(h_beta), which needs beta's
    coroot; the isotropy of beta and of the members; finite parts; and, in
    one ``membership`` query, the membership and reality of alpha - beta,
    which is not in the string and is not read as the negative of its
    k = -1 slot, since the oracle is not assumed closed under negation.
    """
    alpha, beta = string.direction, string.base_root
    real = {e.k: e.real for e in string.entries}  # k -> is beta + k alpha real
    alpha_iso, beta_iso = string.direction_isotropic, handle.is_isotropic(beta)
    beta_real, sum_real, pb = real.get(0, False), real.get(1, False), string.pairing
    n_real = string.real_count()
    out: list[LawVerdict] = []

    if beta_real and not alpha_iso and not beta_iso:
        pa = handle.pairing(alpha, beta)
        if pa < -1 and pb < -1:
            out.append(LawVerdict("sum-not-real", True, not sum_real,
                                  f"alpha(h_beta)={pa}, beta(h_alpha)={pb}"))
        else:
            out.append(LawVerdict("sum-not-real", False, True))

    if not alpha_iso:
        out.append(LawVerdict("four-real-roots", True, n_real <= 4, f"{n_real} real roots"))

    if beta_real and beta_iso and not alpha_iso:
        details = []
        for e in string.entries:
            if e.k == 0 or not e.real:
                continue
            allowed = {-e.k} if handle.is_isotropic(e.root) else {0, -2 * e.k}
            if pb not in allowed:
                details.append(f"k={e.k}: pairing {pb} outside {sorted(allowed)}")
        out.append(LawVerdict("isotropic-pairing-values", True, not details, "; ".join(details)))

    if beta_real and alpha_iso:
        diff_root, diff_real = handle.membership(rs.sub(alpha, beta))
        failed = []
        if sum_real and diff_root:
            failed.append("alpha+beta real and alpha-beta a root")
        if diff_real and 1 in real:
            failed.append("alpha-beta real and alpha+beta a root")
        out.append(LawVerdict("isotropic-sum-difference-exclusion", sum_real or diff_real,
                              not failed, "; ".join(failed)))
        window_ok = True
        if handle.has_null:
            fa = handle.finite_part(alpha).coords()
            fb = handle.finite_part(beta).coords()
            if not _proportional(fa, fb):
                window_ok = all(-1 <= e.k <= 1 for e in string.entries)
        out.append(LawVerdict("isotropic-string-bound", True, n_real <= 2 and window_ok,
                              f"{n_real} real roots, ks={string.ks()}"))

    return out


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

    beta ranges over all roots and alpha over all real roots inside the
    height (finite) or null-degree (affine) window.  Non-isotropic directions
    are checked for unbrokenness, the pairing identity, reversal, the
    real/imaginary block pattern and the four-real-roots bound; isotropic
    directions for the two-real-roots bound and the exclusion laws.  Every
    law is recorded for every pair, and the report is the one that scanning
    each pair's string through its own beta would give, witnesses and order
    included.  Three facts let the sweep do less work than that:

    - The alpha-line and the (-alpha)-line through beta are one set of
      vectors, so the sweep keeps one table of lines, keyed by c and rep:
      c = min(alpha, -alpha) is the direction of +-alpha that the sorted
      sweep meets first, and rep = beta - (beta_i // c_i) c with i the first
      nonzero coordinate of c.  Each line is scanned once, in direction c,
      through the first member met, and c's lines are dropped once the
      pass of -c has read them.  Every pair reads its string from that
      scan with ``_view``: slot k of the (sign c)-string through
      beta = b + m c is slot m + sign k of the c-string through b, and
      beta(h_alpha) = sign (b(h_c) + 2m), as the pairing is linear in beta
      and c(h_c) = 2.  An empty slot m raises ``NotARootError``.
    - Each nonzero slot of a scan is one ``handle.membership`` query: one
      ``to_ed`` and one ``contains_ed`` answer is-root and is-real.  The
      sweep keeps no memo of its own; a vector met again on another line
      is asked again, its image read from the handle's ``to_ed`` memo.
    - The unbroken and pattern laws are decided once per line, for both
      directions.  Under a shift by m the occupied slots move by -m, so
      p' = p + m, q' = q - m and p' - q' = p - q + 2m, the shifted pairing;
      the mirror slot -k - (p - q) moves by -m as well.  A flip k -> -k
      swaps p and q and negates p - q and the pairing.  So
      ``check_unbroken`` passes for every pair of a line or fails for every
      one, and ``string_pattern`` reads only the tag order, which a shift
      keeps and a flip reverses, swapping the equal real wings.  On a line
      that fails, each pair is checked again, so that each keeps its own
      witness.

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
    alphas = [b for b in betas if handle.is_real(b)]
    lines: dict[Root, dict] = {}  # c -> rep -> (j, c-string through rep + j c, its laws if they pass)
    for alpha in alphas:
        iso = handle.is_isotropic(alpha)
        c = min(alpha, rs.neg(alpha))
        sign = 1 if c == alpha else -1
        table = lines.setdefault(c, {}) if sign > 0 else lines.pop(c, {})  # -c's pass is the last to read c's lines
        i = next(n for n, a in enumerate(c) if a)
        for beta in betas:
            report.pairs += 1
            j = beta[i] // c[i]
            rep = tuple(b - j * a for b, a in zip(beta, c))
            line = table.get(rep)
            if line is None:
                s = _string(handle, beta, c, iso)
                laws = [] if iso else _string_laws(s)
                line = table[rep] = (j, s, laws if all(ok for _, ok, _ in laws) else None)
            j0, s, passed = line
            s = _view(s, beta, j - j0, sign)
            laws = passed if passed is not None else _string_laws(s)
            for law in laws:
                report.record(*law)
            if laws and not laws[0][1]:
                continue  # a broken string: the pairing laws are not run on it
            for v in pairing_laws(handle, s):
                if v.applicable:
                    report.record(v.law, v.passed, "" if v.passed else f"beta={beta} alpha={alpha}: {v.detail}")
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


def _view(s: RootString, beta: Root, m: int, sign: int) -> RootString:
    # The (sign c)-string through beta = b + m c, from s, the c-string through
    # b: slot k of the view is slot m + sign k of s, entries reversed when
    # sign is -1, and beta(h_alpha) = sign (b(h_c) + 2m).
    if m == 0 and sign > 0:  # beta is b: the view is s
        return s
    if not any(e.k == m for e in s.entries):
        raise NotARootError(f"{beta} is not a root")
    entries = s.entries if sign > 0 else reversed(s.entries)
    return RootString(beta, s.direction if sign > 0 else rs.neg(s.direction),
                      tuple(StringEntry(sign * (e.k - m), e.root, e.real) for e in entries),
                      None if s.zero_slot is None else sign * (s.zero_slot - m), s.direction_isotropic,
                      None if s.direction_isotropic else sign * (s.pairing + 2 * m))
