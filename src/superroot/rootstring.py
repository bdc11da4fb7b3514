"""Root strings through a root in a real direction, and the string laws.

The string through beta in direction alpha is {beta + k alpha} intersected
with the root set.  For non-isotropic alpha the string is unbroken once the
zero vector is allowed to fill its slot: beta + k alpha lies in the roots or
is zero exactly for -p <= k <= q with p - q equal to the coroot pairing, and
s_alpha reverses the string.  Strings in isotropic directions are finite and
carry at most two real roots.  Every string is scanned whole, inside the
catalog's coordinate box, so none is cut short.  Violations of any of these
laws raise; they would signal a defect in the membership oracle, never a
tolerable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import rootspace as rs
from .catalog import ROOT_COORD_BOUND, RootSystemHandle
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
    # The k with |b_i + k a_i| <= ROOT_COORD_BOUND on the first nonzero
    # finite coordinate a_i of alpha, flipped so that a_i > 0.
    a, b = handle.to_ed(alpha), handle.to_ed(beta)
    ai, bi = next((x, y) for x, y in zip(a.eps + a.delta, b.eps + b.delta) if x)
    if ai < 0:
        ai, bi = -ai, -bi
    return range(-((ROOT_COORD_BOUND + bi) // ai), (ROOT_COORD_BOUND - bi) // ai + 1)


def _scan(handle, beta, alpha, ks):
    # One membership query per slot: a member is real exactly when its
    # finite part is nonzero.
    entries = []
    zero_slot = None
    for k in ks:
        v = tuple(b + k * a for b, a in zip(beta, alpha))
        if all(c == 0 for c in v):
            zero_slot = k
            continue
        ed = handle.to_ed(v)
        if handle.contains_ed(ed):
            entries.append(StringEntry(k, v, any(ed.eps) or any(ed.delta)))
    return entries, zero_slot


def root_string(handle: RootSystemHandle, beta: Root, alpha: Root) -> RootString:
    """Scan the alpha-string through beta and tag each member real/imaginary.

    Every root, and the zero vector, has finite eps/delta coordinates in
    [-2, 2] (``catalog.ROOT_COORD_BOUND``).  A real alpha has a nonzero
    finite coordinate a_i, so beta + k alpha can be a root or zero only when
    |b_i + k a_i| <= 2: at most five consecutive k, and 0 among them since
    beta is a root.  The scan visits exactly those k, so it sees the whole
    string in one pass, in an isotropic direction as in any other, and
    never truncates.
    """
    if not handle.is_real(alpha):
        raise NotARootError(f"direction {alpha} is not a real root")
    if not handle.contains(beta):
        raise NotARootError(f"{beta} is not a root")
    isotropic = handle.is_isotropic(alpha)
    entries, zero_slot = _scan(handle, beta, alpha, _box(handle, beta, alpha))
    return RootString(
        base_root=beta,
        direction=alpha,
        entries=tuple(entries),
        zero_slot=zero_slot,
        direction_isotropic=isotropic,
        pairing=None if isotropic else handle.pairing(beta, alpha),
    )


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


def pairing_laws(
    handle: RootSystemHandle,
    alpha: Root,
    beta: Root,
    string: Optional[RootString] = None,
) -> list[LawVerdict]:
    """Evaluate the applicable pairing laws for one (alpha, beta) pair.

    Covered: the sum of two strongly negative non-isotropic roots is never
    real; at most four real roots per non-isotropic string; the pairing value
    sets for isotropic beta against non-isotropic alpha; the exclusion
    alpha+beta real => alpha-beta not a root for isotropic alpha; and the
    two-real-roots bound for isotropic directions.

    ``string`` is the alpha-string through beta from ``root_string``, or
    the sweep's shift of one along its line.  alpha's reality, beta's
    membership and reality (its k = 0 entry) and beta(h_alpha) (its
    ``pairing``) are read from it, not asked of the handle again.  Without it
    the string is built at most once, and only when a law needs it.  A string
    through another root or along another direction raises ``ValueError``.
    """
    if string is not None and (
        tuple(string.base_root) != tuple(beta) or tuple(string.direction) != tuple(alpha)
    ):
        raise ValueError(
            f"the string through {string.base_root} along {string.direction} "
            f"is not the one through {beta} along {alpha}"
        )

    def the_string() -> RootString:
        nonlocal string
        if string is None:
            string = root_string(handle, beta, alpha)
        return string

    out: list[LawVerdict] = []
    alpha_iso = handle.is_isotropic(alpha)
    beta_iso = handle.is_isotropic(beta)
    if string is None:
        alpha_real, beta_real = handle.is_real(alpha), handle.is_real(beta)
        beta_in = beta_real or handle.contains(beta)
    else:
        at_beta = next((e for e in string.entries if e.k == 0), None)
        alpha_real, beta_in = True, at_beta is not None
        beta_real = beta_in and at_beta.real
    both_real = alpha_real and beta_real

    if both_real and not alpha_iso and not beta_iso:
        pa = handle.pairing(alpha, beta)
        pb = handle.pairing(beta, alpha) if string is None else string.pairing
        if pa < -1 and pb < -1:
            s = rs.add(alpha, beta)
            out.append(
                LawVerdict(
                    "sum-not-real", True, not handle.is_real(s),
                    f"alpha(h_beta)={pa}, beta(h_alpha)={pb}",
                )
            )
        else:
            out.append(LawVerdict("sum-not-real", False, True))

    if not alpha_iso and alpha_real and beta_in:
        s = the_string()
        out.append(
            LawVerdict(
                "four-real-roots", True, s.real_count() <= 4,
                f"{s.real_count()} real roots",
            )
        )

    if both_real and beta_iso and not alpha_iso:
        ok = True
        details = []
        pb = the_string().pairing
        for e in the_string().entries:
            if e.k == 0 or not e.real:
                continue
            allowed = {-e.k} if handle.is_isotropic(e.root) else {0, -2 * e.k}
            if pb not in allowed:
                ok = False
                details.append(f"k={e.k}: pairing {pb} outside {sorted(allowed)}")
        out.append(LawVerdict("isotropic-pairing-values", True, ok, "; ".join(details)))

    if both_real and alpha_iso:
        checks = []
        if handle.is_real(rs.add(alpha, beta)):
            checks.append(not handle.contains(rs.sub(alpha, beta)))
        if handle.is_real(rs.sub(alpha, beta)):
            checks.append(not handle.contains(rs.add(alpha, beta)))
        out.append(
            LawVerdict("isotropic-sum-difference-exclusion", bool(checks), all(checks))
        )
        s = the_string()
        bound_ok = s.real_count() <= 2
        window_ok = True
        if handle.has_null:
            fa = handle.finite_part(alpha).coords()
            fb = handle.finite_part(beta).coords()
            if not _proportional(fa, fb):
                window_ok = all(-1 <= e.k <= 1 for e in s.entries)
        out.append(
            LawVerdict(
                "isotropic-string-bound", True, bound_ok and window_ok,
                f"{s.real_count()} real roots, ks={s.ks()}",
            )
        )

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
    directions for the two-real-roots bound and the exclusion laws.

    Each alpha-line {rep + j alpha}, rep = beta - (beta_i // alpha_i) alpha
    with i the first nonzero coordinate of alpha, is scanned once, by
    ``root_string`` through its first member; a later member reads the same
    entries from its own slot, with its own pairing, and raises
    ``NotARootError`` if its slot is empty.  This is exact: each vector gets
    the same ``contains_ed`` answer as in a scan through its own beta, and
    every law still runs on every pair.  ``string_pattern`` cannot fail once
    ``check_unbroken`` has passed: beta + k alpha has a zero finite part for
    at most one k, so a string has at most one imaginary member, and
    reversal by s_alpha makes the real wings equal.  It runs anyway: its
    ``pattern`` count is part of the ``string-sweep`` certificate and of the
    ``strings`` benchmark digest.

    A negative bound or one that the type does not read raises
    ``ValueError``, and so does an affine type without ``max_degree``.
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
    name, bound = ("max_height", max_height) if handle.is_finite else ("max_degree", max_degree)
    if bound is not None and bound < 0:
        raise ValueError(f"{name} must be >= 0, got {bound}")
    betas = handle.all_roots(max_height=max_height, max_degree=max_degree)
    alphas = [b for b in betas if handle.is_real(b)]
    for alpha in alphas:
        iso = handle.is_isotropic(alpha)
        i = next(n for n, a in enumerate(alpha) if a)
        lines: dict[Root, tuple[int, RootString]] = {}  # rep -> (j, string through rep + j alpha)
        for beta in betas:
            report.pairs += 1
            j = beta[i] // alpha[i]
            rep = tuple(b - j * a for b, a in zip(beta, alpha))
            line = lines.get(rep)
            s = _shifted(handle, line, beta, j) if line else root_string(handle, beta, alpha)
            lines.setdefault(rep, (j, s))
            if not iso:
                try:
                    check_unbroken(s)
                    report.record("unbroken", True)
                except BrokenStringError as exc:
                    report.record("unbroken", False, f"beta={beta} alpha={alpha}: {exc}")
                    continue
                if any(e.real for e in s.entries):
                    try:
                        string_pattern(s)
                        report.record("pattern", True)
                    except PatternViolationError as exc:
                        report.record("pattern", False, f"beta={beta} alpha={alpha}: {exc}")
            for v in pairing_laws(handle, alpha, beta, string=s):
                if v.applicable:
                    report.record(v.law, v.passed, "" if v.passed else f"beta={beta} alpha={alpha}: {v.detail}")
    return report


def _shifted(handle: RootSystemHandle, line: tuple[int, RootString], beta: Root, j: int) -> RootString:
    # The line's string, scanned through rep + j0 alpha, seen from beta = rep + j alpha.
    j0, s = line
    m = j - j0
    if not any(e.k == m for e in s.entries):
        raise NotARootError(f"{beta} is not a root")
    return RootString(beta, s.direction, tuple(StringEntry(e.k - m, e.root, e.real) for e in s.entries),
                      None if s.zero_slot is None else s.zero_slot - m, s.direction_isotropic,
                      None if s.direction_isotropic else handle.pairing(beta, s.direction))
