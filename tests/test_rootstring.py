from fractions import Fraction as Q

import pytest

from superroot import rootspace as rs
from superroot.catalog import EpsDeltaVector as ED, build
from superroot.errors import (
    BrokenStringError,
    DimensionMismatchError,
    NotARootError,
    NotInLatticeError,
    PatternViolationError,
)
from superroot.rootstring import (
    RootString,
    StringEntry,
    SweepReport,
    check_unbroken,
    pairing_laws,
    root_string,
    string_pattern,
    sweep_strings,
)
from support import claim_a_root, reference_sweep, scaled_norm


def test_string_through_multiples():
    # a string through +-alpha or +-2alpha stays inside {+-alpha, +-2alpha}
    h = build("B(0,1)")
    allowed = {(1,), (-1,), (2,), (-2,)}
    for beta in allowed:
        s = root_string(h, beta, (1,))
        assert {e.root for e in s.entries} <= allowed


def test_string_odd_nonisotropic_direction():
    h = build("B(1,1)")
    alpha = h.to_alpha(ED((0,), (1,)))
    beta = h.to_alpha(ED((1,), (0,)))
    s = root_string(h, beta, alpha)
    assert [e.root for e in s.entries] == [
        h.to_alpha(ED((1,), (-1,))), beta, h.to_alpha(ED((1,), (1,)))
    ]
    rep = check_unbroken(s)
    assert (rep.p, rep.q) == (1, 1)
    assert h.pairing(beta, alpha) == 0


def test_string_affine_with_imaginary_middle():
    h = build("B(1,1)^(1)")
    alpha = h.to_alpha(ED((1,), (0,), 0))
    beta = h.to_alpha(ED((-1,), (0,), 1))
    s = root_string(h, beta, alpha)
    assert [(e.k, e.real) for e in s.entries] == [(0, True), (1, False), (2, True)]
    pat = string_pattern(s)
    assert (pat.p_real, pat.q_imag, pat.r_real) == (1, 1, 1)


def test_unbroken_zero_pairing_isolated():
    # orthogonal pair with no string: p = q = 0
    h = build("B(2,1)")
    alpha = h.to_alpha(ED((1, -1), (0,)))
    beta = h.to_alpha(ED((0, 0), (2,)))
    assert h.pairing(beta, alpha) == 0
    s = root_string(h, beta, alpha)
    rep = check_unbroken(s)
    assert (rep.p, rep.q) == (0, 0)
    assert [e.root for e in s.entries] == [beta]


def test_unbroken_self_string_even():
    # through alpha in direction alpha: members -alpha, [0], alpha, so p=2, q=0
    h = build("B(1,1)")
    eps = h.to_alpha(ED((1,), (0,)))
    s = root_string(h, eps, eps)
    assert s.zero_slot == -1
    rep = check_unbroken(s)
    assert (rep.p, rep.q) == (2, 0)


def test_pattern_all_real():
    h = build("B(1,1)")
    alpha = h.to_alpha(ED((0,), (1,)))
    s = root_string(h, h.to_alpha(ED((1,), (0,))), alpha)
    pat = string_pattern(s)
    assert pat.q_imag == 0 and pat.p_real == 3


def test_pattern_violation_detected():
    # synthetic tag sequence real, imaginary, real, imaginary
    fake = RootString(
        base_root=(1, 0), direction=(0, 1),
        entries=(
            StringEntry(0, (1, 0), True),
            StringEntry(1, (1, 1), False),
            StringEntry(2, (1, 2), True),
            StringEntry(3, (1, 3), False),
        ),
        zero_slot=None, direction_isotropic=False, pairing=Q(0),
    )
    with pytest.raises(PatternViolationError):
        string_pattern(fake)


def test_pattern_unequal_wings_detected():
    fake = RootString(
        base_root=(1, 0), direction=(0, 1),
        entries=(
            StringEntry(0, (1, 0), True),
            StringEntry(1, (1, 1), False),
            StringEntry(2, (1, 2), True),
            StringEntry(3, (1, 3), True),
        ),
        zero_slot=None, direction_isotropic=False, pairing=Q(0),
    )
    with pytest.raises(PatternViolationError):
        string_pattern(fake)


@pytest.mark.parametrize("ks, reals, pairing, message", [
    ((1, 2), (True, True), Q(-1), "base root is missing"),
    ((0, 2), (True, True), Q(0), "has a gap"),
    ((0, 1), (True, True), Q(0), "differs from the pairing"),
    ((0, 1), (True, False), Q(-1), "does not reverse"),
])
def test_check_unbroken_rejects_each_broken_string(ks, reals, pairing, message):
    # each string breaks exactly one law: the base slot, contiguity,
    # p - q = pairing, reversal by s_alpha
    fake = RootString(
        base_root=(1, 0), direction=(0, 1),
        entries=tuple(StringEntry(k, (1, k), real) for k, real in zip(ks, reals)),
        zero_slot=None, direction_isotropic=False, pairing=pairing,
    )
    with pytest.raises(BrokenStringError, match=message):
        check_unbroken(fake)


def test_sweep_records_the_failures_of_a_membership_lie(monkeypatch):
    # 2 eps_1 is not a root of B(1,1); calling it one breaks the eps_1-strings
    # through +-eps_1, which the sweep must record rather than drop
    import superroot.rootstring as rstr

    claim_a_root(monkeypatch, "B(1,1)", (2, 0))
    report = sweep_strings(build("B(1,1)"), max_height=6)
    broken = [w for law, w in report.failures if law == "unbroken"]
    assert not report.ok() and report.pairs == 100
    assert len(broken) == 4 and all("differs from the pairing" in w for w in broken)

    # no membership lie breaks the pattern law while unbrokenness holds, so
    # lie about the pattern itself
    def violated(s):
        raise PatternViolationError("imaginary middle with unequal real wings")

    monkeypatch.undo()
    monkeypatch.setattr(rstr, "string_pattern", violated)
    report = sweep_strings(build("B(1,1)"), max_height=6)
    assert report.law_counts["pattern"] == 60
    assert [law for law, _ in report.failures] == ["pattern"] * 60


def _assert_same_report(got, expected):
    assert (got.pairs, got.failures) == (expected.pairs, expected.failures)
    assert list(got.law_counts.items()) == list(expected.law_counts.items())


# The exact reports of sweep_strings under claim_a_root(.., label, (2, 0)):
# pairs, law counts and every failure with its witness, in order.  Pinned
# from the sweep that scanned one string per (beta, alpha) pair.
# Each exclusion failure under this lie breaks both implications.
_BOTH_WAYS = "alpha+beta real and alpha-beta a root; alpha-beta real and alpha+beta a root"

_LIE_B11_HEIGHT_6 = SweepReport(
    pairs=100,
    law_counts={
        "unbroken": 60,
        "pattern": 56,
        "four-real-roots": 56,
        "isotropic-pairing-values": 24,
        "sum-not-real": 4,
        "isotropic-sum-difference-exclusion": 32,
        "isotropic-string-bound": 40,
    },
    failures=[
        ("isotropic-string-bound", "beta=(-2, -2) alpha=(-1, -2): 3 real roots, ks=[-2, -1, 0]"),
        ("isotropic-string-bound", "beta=(-1, 0) alpha=(-1, -2): 3 real roots, ks=[-1, 0, 1]"),
        ("isotropic-sum-difference-exclusion", "beta=(-1, -2) alpha=(-1, 0): " + _BOTH_WAYS),
        ("isotropic-sum-difference-exclusion", "beta=(1, 2) alpha=(-1, 0): " + _BOTH_WAYS),
        ("isotropic-string-bound", "beta=(1, 2) alpha=(-1, 0): 3 real roots, ks=[-1, 0, 1]"),
        ("isotropic-string-bound", "beta=(2, 2) alpha=(-1, 0): 3 real roots, ks=[0, 1, 2]"),
        ("unbroken", "beta=(0, -1) alpha=(0, -1): p - q = 3 differs from the pairing 2"),
        ("unbroken", "beta=(0, 1) alpha=(0, -1): p - q = -1 differs from the pairing -2"),
        ("unbroken", "beta=(0, -1) alpha=(0, 1): p - q = -3 differs from the pairing -2"),
        ("unbroken", "beta=(0, 1) alpha=(0, 1): p - q = 1 differs from the pairing 2"),
        ("isotropic-string-bound", "beta=(1, 2) alpha=(1, 0): 3 real roots, ks=[-1, 0, 1]"),
        ("isotropic-string-bound", "beta=(2, 2) alpha=(1, 0): 3 real roots, ks=[-2, -1, 0]"),
        ("isotropic-string-bound", "beta=(-2, -2) alpha=(1, 2): 3 real roots, ks=[0, 1, 2]"),
        ("isotropic-sum-difference-exclusion", "beta=(-1, 0) alpha=(1, 2): " + _BOTH_WAYS),
        ("isotropic-string-bound", "beta=(-1, 0) alpha=(1, 2): 3 real roots, ks=[-1, 0, 1]"),
        ("isotropic-sum-difference-exclusion", "beta=(1, 0) alpha=(1, 2): " + _BOTH_WAYS),
    ],
)

_LIE_B11AFF_DEGREE_1 = SweepReport(
    pairs=960,
    law_counts={
        "unbroken": 576,
        "pattern": 568,
        "four-real-roots": 568,
        "isotropic-pairing-values": 216,
        "sum-not-real": 50,
        "isotropic-sum-difference-exclusion": 288,
        "isotropic-string-bound": 360,
    },
    failures=[
        ("isotropic-string-bound", "beta=(-1, -3, -2) alpha=(-1, -3, -4): 3 real roots, ks=[-1, 0, 1]"),
        ("isotropic-sum-difference-exclusion", "beta=(-1, -3, -4) alpha=(-1, -3, -2): " + _BOTH_WAYS),
        ("isotropic-sum-difference-exclusion", "beta=(1, 3, 4) alpha=(-1, -3, -2): " + _BOTH_WAYS),
        ("isotropic-string-bound", "beta=(1, 3, 4) alpha=(-1, -3, -2): 3 real roots, ks=[-1, 0, 1]"),
        ("unbroken", "beta=(-1, -2, -1) alpha=(-1, -2, -3): p - q = -1 differs from the pairing -2"),
        ("unbroken", "beta=(1, 2, 3) alpha=(-1, -2, -1): p - q = 1 differs from the pairing 2"),
        ("isotropic-string-bound", "beta=(-1, -1, 0) alpha=(-1, -1, -2): 3 real roots, ks=[-1, 0, 1]"),
        ("isotropic-sum-difference-exclusion", "beta=(-1, -1, -2) alpha=(-1, -1, 0): " + _BOTH_WAYS),
        ("isotropic-sum-difference-exclusion", "beta=(1, 1, 2) alpha=(-1, -1, 0): " + _BOTH_WAYS),
        ("isotropic-string-bound", "beta=(1, 1, 2) alpha=(-1, -1, 0): 3 real roots, ks=[-1, 0, 1]"),
        ("isotropic-string-bound", "beta=(0, -2, -2) alpha=(0, -1, -2): 3 real roots, ks=[-2, -1, 0]"),
        ("isotropic-string-bound", "beta=(0, -1, 0) alpha=(0, -1, -2): 3 real roots, ks=[-1, 0, 1]"),
        ("isotropic-sum-difference-exclusion", "beta=(0, -1, -2) alpha=(0, -1, 0): " + _BOTH_WAYS),
        ("isotropic-sum-difference-exclusion", "beta=(0, 1, 2) alpha=(0, -1, 0): " + _BOTH_WAYS),
        ("isotropic-string-bound", "beta=(0, 1, 2) alpha=(0, -1, 0): 3 real roots, ks=[-1, 0, 1]"),
        ("isotropic-string-bound", "beta=(0, 2, 2) alpha=(0, -1, 0): 3 real roots, ks=[0, 1, 2]"),
        ("unbroken", "beta=(0, 0, -1) alpha=(0, 0, -1): p - q = 3 differs from the pairing 2"),
        ("unbroken", "beta=(0, 0, 1) alpha=(0, 0, -1): p - q = -1 differs from the pairing -2"),
        ("unbroken", "beta=(0, 0, -1) alpha=(0, 0, 1): p - q = -3 differs from the pairing -2"),
        ("unbroken", "beta=(0, 0, 1) alpha=(0, 0, 1): p - q = 1 differs from the pairing 2"),
        ("isotropic-string-bound", "beta=(0, 1, 2) alpha=(0, 1, 0): 3 real roots, ks=[-1, 0, 1]"),
        ("isotropic-string-bound", "beta=(0, 2, 2) alpha=(0, 1, 0): 3 real roots, ks=[-2, -1, 0]"),
        ("isotropic-string-bound", "beta=(0, -2, -2) alpha=(0, 1, 2): 3 real roots, ks=[0, 1, 2]"),
        ("isotropic-sum-difference-exclusion", "beta=(0, -1, 0) alpha=(0, 1, 2): " + _BOTH_WAYS),
        ("isotropic-string-bound", "beta=(0, -1, 0) alpha=(0, 1, 2): 3 real roots, ks=[-1, 0, 1]"),
        ("isotropic-sum-difference-exclusion", "beta=(0, 1, 0) alpha=(0, 1, 2): " + _BOTH_WAYS),
        ("isotropic-string-bound", "beta=(1, 1, 2) alpha=(1, 1, 0): 3 real roots, ks=[-1, 0, 1]"),
        ("isotropic-sum-difference-exclusion", "beta=(-1, -1, 0) alpha=(1, 1, 2): " + _BOTH_WAYS),
        ("isotropic-string-bound", "beta=(-1, -1, 0) alpha=(1, 1, 2): 3 real roots, ks=[-1, 0, 1]"),
        ("isotropic-sum-difference-exclusion", "beta=(1, 1, 0) alpha=(1, 1, 2): " + _BOTH_WAYS),
        ("unbroken", "beta=(1, 2, 3) alpha=(1, 2, 1): p - q = -1 differs from the pairing -2"),
        ("unbroken", "beta=(-1, -2, -1) alpha=(1, 2, 3): p - q = 1 differs from the pairing 2"),
        ("isotropic-string-bound", "beta=(1, 3, 4) alpha=(1, 3, 2): 3 real roots, ks=[-1, 0, 1]"),
        ("isotropic-sum-difference-exclusion", "beta=(-1, -3, -2) alpha=(1, 3, 4): " + _BOTH_WAYS),
        ("isotropic-string-bound", "beta=(-1, -3, -2) alpha=(1, 3, 4): 3 real roots, ks=[-1, 0, 1]"),
        ("isotropic-sum-difference-exclusion", "beta=(1, 3, 2) alpha=(1, 3, 4): " + _BOTH_WAYS),
    ],
)


@pytest.mark.parametrize("spec, window, expected", [
    ("B(1,1)", {"max_height": 6}, _LIE_B11_HEIGHT_6),
    ("B(1,1)^(1)", {"max_degree": 1}, _LIE_B11AFF_DEGREE_1),
], ids=["B(1,1)-height-6", "B(1,1)^(1)-degree-1"])
def test_sweep_reports_a_membership_lie_exactly(monkeypatch, spec, window, expected):
    # failing lines are checked pair by pair again, so every witness is kept,
    # as in the per-pair reference
    claim_a_root(monkeypatch, spec, (2, 0))
    report = sweep_strings(build(spec), **window)
    assert report == expected
    _assert_same_report(report, reference_sweep(build(spec), **window))


@pytest.mark.parametrize("finite, beta", [((1, 1), "(1, 2)"), ((0, 1), "(1, 1)")],
                         ids=["eps_1+delta_1", "delta_1"])
def test_sweep_raises_when_a_listed_root_is_denied(monkeypatch, finite, beta):
    # the catalog lists the root with eps+delta coordinates ``finite`` (eps_1 +
    # delta_1 and delta_1 of B(1,1)), but membership denies it: the first pair
    # through it must refuse, as root_string does in the per-pair reference.
    # delta_1 lies inside an alpha-line that an earlier member scanned, so
    # only the member's own slot check can refuse it.
    from superroot.catalog import RootSystemHandle

    gate = RootSystemHandle._gate

    def denying(self, root):
        if self.label == "B(1,1)" and self.to_ed(root).coords() == (*finite, 0):
            return False, None
        return gate(self, root)

    monkeypatch.setattr(RootSystemHandle, "_gate", denying)
    for sweep in (sweep_strings, reference_sweep):
        with pytest.raises(NotARootError) as raised:
            sweep(build("B(1,1)"), max_height=6)
        assert str(raised.value) == f"{beta} is not a root", sweep


@pytest.mark.parametrize("spec, window", [
    ("B(1,1)", {"max_height": 6}),
    ("A(1,2)", {"max_height": 3}),
    ("C(3)", {"max_height": 3}),
    ("B(2,2)", {"max_height": 6}),
    ("B(1,1)^(1)", {"max_degree": 1}),
    ("A(1,2)^(1)", {"max_degree": 1}),
    ("D(2,1;1/2)^(1)", {"max_degree": 1}),
    ("C(3)^(1)", {"max_degree": 1}),
    ("A(2,2)^(4)", {"max_degree": 2}),
], ids=lambda x: x if isinstance(x, str) else "-".join(f"{k}-{v}" for k, v in x.items()))
def test_sweep_matches_the_per_pair_reference(spec, window):
    # mirrored lines, the membership memo and one law verdict per line give
    # the report of one scan and one check per pair, in the same order
    h = build(spec)
    report = sweep_strings(h, **window)
    assert report.ok() and report.pairs > 0
    _assert_same_report(report, reference_sweep(h, **window))


def test_remark_isotropic_pairing_values():
    # beta isotropic, alpha non-isotropic, beta + k alpha real: the pairing is
    # -k for isotropic targets and 0 or -2k otherwise
    h = build("B(1,1)")
    alpha = h.to_alpha(ED((1,), (0,)))
    beta = h.to_alpha(ED((-1,), (1,)))
    v1 = rs.add(beta, alpha)  # delta_1: non-isotropic
    assert h.is_real(v1) and not h.is_isotropic(v1)
    assert h.pairing(beta, alpha) in (Q(0), Q(-2))
    v2 = rs.add(beta, rs.scale(2, alpha))  # delta_1 + eps_1: isotropic
    assert h.is_real(v2) and h.is_isotropic(v2)
    assert h.pairing(beta, alpha) == Q(-2)
    verdicts = {v.law: v for v in pairing_laws(h, root_string(h, beta, alpha))}
    assert verdicts["isotropic-pairing-values"].passed


def test_cor_exclusion_for_isotropic():
    h = build("B(1,1)")
    alpha = h.to_alpha(ED((-1,), (1,)))
    beta = h.to_alpha(ED((1,), (1,)))
    assert h.is_real(rs.add(alpha, beta))
    assert not h.contains(rs.sub(alpha, beta))
    verdicts = {v.law: v for v in pairing_laws(h, root_string(h, beta, alpha))}
    assert verdicts["isotropic-sum-difference-exclusion"].applicable
    assert verdicts["isotropic-sum-difference-exclusion"].passed


def test_exclusion_names_the_implication_that_failed(monkeypatch):
    # alpha + beta = 2 delta_1 is real and a root.  A handle that calls
    # alpha - beta = -2 eps_1 a root also calls it real, as one membership
    # query answers both and its finite part is nonzero; so both
    # implications fail, and the detail names them in order
    h = build("B(1,1)")
    alpha = h.to_alpha(ED((-1,), (1,)))
    beta = h.to_alpha(ED((1,), (1,)))
    s = root_string(h, beta, alpha)
    diff, gate = rs.sub(alpha, beta), h._gate
    monkeypatch.setattr(h, "_gate", lambda x: (True, scaled_norm(h, h.to_ed(x))) if x == diff else gate(x))
    verdict = {v.law: v for v in pairing_laws(h, s)}["isotropic-sum-difference-exclusion"]
    assert verdict.applicable and not verdict.passed
    assert verdict.detail == ("alpha+beta real and alpha-beta a root; "
                              "alpha-beta real and alpha+beta a root")


def test_pairing_laws_ask_about_alpha_minus_beta_once(monkeypatch):
    # for an isotropic alpha and a real beta, whether alpha - beta is a root
    # and whether it is real come from one query of the gate, and the laws
    # make no other
    h = build("B(1,1)^(1)")
    asked, gate = [], h._gate
    monkeypatch.setattr(h, "_gate", lambda x: asked.append(x) or gate(x))
    pairs = 0
    for alpha in h.real_roots(max_degree=1):
        if not h.is_isotropic(alpha):
            continue
        for beta in h.all_roots(max_degree=1):
            s = root_string(h, beta, alpha)
            expected = [rs.sub(alpha, beta)] if h.is_real(beta) else []
            del asked[:]
            pairing_laws(h, s)
            assert asked == expected, (alpha, beta, asked)
            pairs += bool(expected)
    assert pairs > 0


def test_pairing_laws_refuse_a_bad_direction_or_root():
    # a null alpha is not real and (5, 5) is not a root of B(1,1): no string,
    # and so no verdict list, not even an empty one, comes back for them
    affine = build("B(1,1)^(1)")
    null = affine.to_alpha(ED((0,), (0,), 1))
    with pytest.raises(NotARootError, match=r"is not a real root"):
        pairing_laws(affine, root_string(affine, affine.to_alpha(ED((1,), (0,))), null))
    h = build("B(1,1)")
    with pytest.raises(NotARootError) as raised:
        pairing_laws(h, root_string(h, (5, 5), h.to_alpha(ED((1,), (0,)))))
    assert str(raised.value) == "(5, 5) is not a root"


def test_isotropic_pairing_values_name_the_slot_that_failed():
    # a hand-built string whose beta(h_alpha) = -2 fits no slot: at k = 1 the
    # real non-isotropic member allows {-2, 0}, at k = 2 the isotropic one {-2}
    h = build("B(1,1)")
    alpha = h.to_alpha(ED((1,), (0,)))
    beta = h.to_alpha(ED((-1,), (1,)))
    good = root_string(h, beta, alpha)
    assert good.pairing == -2
    bad = RootString(good.base_root, good.direction, good.entries, good.zero_slot,
                     good.direction_isotropic, 2)
    assert {v.law: v for v in pairing_laws(h, good)}["isotropic-pairing-values"].passed
    verdict = {v.law: v for v in pairing_laws(h, bad)}["isotropic-pairing-values"]
    assert verdict.applicable and not verdict.passed
    assert verdict.detail == "k=1: pairing 2 outside [-2, 0]; k=2: pairing 2 outside [-2]"


def test_isotropic_direction_bound():
    h = build("B(2,2)^(1)")
    alpha = h.to_alpha(ED((1, 0), (-1, 0), 0))
    beta = h.to_alpha(ED((0, 1), (0, -1), 1))
    s = root_string(h, beta, alpha)
    assert s.real_count() <= 2
    verdicts = {v.law: v for v in pairing_laws(h, root_string(h, beta, alpha))}
    assert verdicts["isotropic-string-bound"].passed


def test_sum_not_real_law_fires_in_sweeps():
    # the strongly-negative-pairing hypothesis occurs and never has a real sum
    report = sweep_strings(build("B(1,1)^(1)"), max_degree=2)
    assert report.ok(), report.failures[:3]
    assert report.law_counts.get("sum-not-real", 0) >= 1


def test_sweep_finite_types():
    for spec in ("A(0,2)", "B(1,1)"):
        report = sweep_strings(build(spec), max_height=8)
        assert report.ok(), (spec, report.failures[:3])
        assert report.law_counts["unbroken"] > 0
        assert report.law_counts["four-real-roots"] > 0


def test_sweep_empty_height():
    report = sweep_strings(build("B(1,1)"), max_height=0)
    assert report.pairs == 0 and report.ok()


@pytest.mark.parametrize("spec, window", [
    ("B(1,1)", {"max_height": -1}),
    ("B(1,1)^(1)", {"max_degree": -1}),
], ids=["height", "degree"])
def test_sweep_rejects_a_negative_bound(spec, window):
    # an empty window would sweep no pair and pass vacuously
    (name, _), = window.items()
    with pytest.raises(ValueError, match=name):
        sweep_strings(build(spec), **window)


def _counting_scans(monkeypatch):
    # record the (beta, alpha) of every line scan the sweep makes
    import superroot.rootstring as rstr

    calls, scan = [], rstr._scan

    def counting(beta, alpha, *rest):
        calls.append((beta, alpha))
        return scan(beta, alpha, *rest)

    monkeypatch.setattr(rstr, "_scan", counting)
    return calls


@pytest.mark.parametrize("spec, window", [
    ("B(1,1)^(1)", {"max_degree": 1}),
    ("A(1,2)", {"max_height": 3}),
], ids=["B(1,1)^(1)-degree-1", "A(1,2)-height-3"])
def test_sweep_scans_each_string_at_most_once(monkeypatch, spec, window):
    calls = _counting_scans(monkeypatch)
    report = sweep_strings(build(spec), **window)
    assert report.ok(), report.failures[:3]
    assert report.pairs > 0
    assert len(calls) <= report.pairs
    assert len(set(calls)) == len(calls)


def _alpha_lines(alpha, betas):
    # the betas grouped into alpha-lines: beta and gamma share a line when
    # beta - gamma is an integer multiple of alpha
    i = next(n for n, a in enumerate(alpha) if a)
    lines = []
    for beta in betas:
        for line in lines:
            d = rs.sub(beta, line[0])
            if d[i] % alpha[i] == 0 and d == rs.scale(d[i] // alpha[i], alpha):
                line.append(beta)
                break
        else:
            lines.append([beta])
    return lines


@pytest.mark.parametrize("spec, window", [
    ("B(1,1)^(1)", {"max_degree": 1}),
    ("A(1,2)", {"max_height": 3}),
], ids=["B(1,1)^(1)-degree-1", "A(1,2)-height-3"])
def test_sweep_scans_each_alpha_line_once(monkeypatch, spec, window):
    # the alpha-line and the (-alpha)-line through beta are one set of
    # vectors, so each line of a pair +-alpha is scanned once, in the
    # direction that the sweep meets first
    calls = _counting_scans(monkeypatch)
    h = build(spec)
    report = sweep_strings(h, **window)
    betas = h.all_roots(**window)
    alphas = h.real_roots(**window)
    assert all(rs.neg(alpha) in alphas for alpha in alphas)
    first = [alpha for alpha in alphas if alpha < rs.neg(alpha)]
    lines = sum(len(_alpha_lines(alpha, betas)) for alpha in first)
    assert report.ok(), report.failures[:3]
    assert {alpha for _, alpha in calls} == set(first)
    assert len(calls) == lines < report.pairs


@pytest.mark.parametrize("spec, window, lie", [
    ("B(1,1)^(1)", {"max_degree": 1}, False),
    ("A(1,2)", {"max_height": 3}, False),
    ("A(2,2)^(4)", {"max_degree": 1}, False),
    ("D(2,1;1/2)^(1)", {"max_degree": 1}, False),
    ("B(1,1)", {"max_height": 6}, True),
], ids=["B(1,1)^(1)-degree-1", "A(1,2)-height-3", "A(2,2)^(4)-degree-1",
        "D(2,1;1/2)^(1)-degree-1", "B(1,1)-height-6-lie"])
def test_sweep_decides_each_pair_as_pairing_laws_do(monkeypatch, spec, window, lie):
    # the verdicts that every unbroken pair takes from its line's scan, at its
    # offset and sign, are those of pairing_laws on the string that root_string
    # scans through the pair's own beta: law, applicability, outcome and the
    # detail of each failure.  Under the lie some laws fail.
    import superroot.rootstring as rstr

    if lie:
        claim_a_root(monkeypatch, spec, (2, 0))
    taken, laws = [], rstr._laws

    def recording(handle, line, beta, alpha, *rest):
        verdicts = laws(handle, line, beta, alpha, *rest)
        taken.append((beta, alpha, [(law, applicable, passed, None if passed else detail())
                                    for law, applicable, passed, detail in verdicts]))
        return verdicts

    monkeypatch.setattr(rstr, "_laws", recording)
    h = build(spec)
    report = sweep_strings(h, **window)
    monkeypatch.setattr(rstr, "_laws", laws)
    broken = sum(law == "unbroken" for law, _ in report.failures)
    assert report.ok() is not lie
    assert len(taken) == len({(beta, alpha) for beta, alpha, _ in taken}) == report.pairs - broken
    assert any(not passed for *_, verdicts in taken for _, _, passed, _ in verdicts) is lie
    for beta, alpha, verdicts in taken:
        expected = [(v.law, v.applicable, v.passed, None if v.passed else v.detail)
                    for v in pairing_laws(h, root_string(h, beta, alpha))]
        assert verdicts == expected, (beta, alpha)


@pytest.mark.parametrize("spec, window", [
    ("B(1,1)^(1)", {"max_degree": 1}),
    ("A(1,2)", {"max_height": 3}),
], ids=["B(1,1)^(1)-degree-1", "A(1,2)-height-3"])
def test_sweep_asks_each_root_and_line_fact_once(monkeypatch, spec, window):
    # a root's isotropy is asked once per sweep; c(h_beta), which gives
    # alpha(h_beta) = sign c(h_beta) on both directions +-c of a line, once per
    # (line, root) that needs it; and b(h_c) once per scan in a non-isotropic
    # direction
    calls = _counting_scans(monkeypatch)
    h, ref = build(spec), build(spec)
    isotropy, pairings = [], []
    for name, asked in (("is_isotropic", isotropy), ("pairings", pairings)):
        original = getattr(h, name)
        monkeypatch.setattr(h, name, lambda *a, _f=original, _asked=asked: _asked.append(a) or _f(*a))
    report = sweep_strings(h, **window)
    assert report.ok(), report.failures[:3]
    assert len(isotropy) == len(set(isotropy)) > 0
    alphas = ref.real_roots(**window)
    needed = sum(1 for c in alphas if c < rs.neg(c) and not ref.is_isotropic(c)
                 for beta in alphas if not ref.is_isotropic(beta))
    assert needed > 0
    assert len(pairings) <= sum(not ref.is_isotropic(c) for _, c in calls) + needed


@pytest.mark.parametrize("spec, window", [
    ("A(2,2)^(4)", {"max_degree": 1}),
    ("C(3)", {"max_height": 3}),
    ("B(1,1)^(1)", {"max_degree": 2}),
    ("B(1,1)^(1)", {"max_degree": 1}),
    ("A(1,2)", {"max_height": 3}),
], ids=["A(2,2)^(4)-degree-1", "C(3)-height-3", "B(1,1)^(1)-degree-2", "B(1,1)^(1)-degree-1",
        "A(1,2)-height-3"])
def test_pairing_laws_read_their_facts_from_the_given_string(monkeypatch, spec, window):
    # alpha's isotropy, beta's membership and reality, beta(h_alpha) and the
    # reality and membership of alpha + beta (the k = 1 entry) come from the
    # string, and no second string is built
    import superroot.rootstring as rstr

    h = build(spec)
    asked, built = [], []
    for name in ("contains", "is_real", "is_isotropic", "pairing"):
        original = getattr(h, name)
        monkeypatch.setattr(h, name, lambda *a, _f=original, _n=name: asked.append((_n, *a)) or _f(*a))
    monkeypatch.setattr(rstr, "root_string", lambda *args: built.append(args))
    branches = set()
    for alpha in h.real_roots(**window):
        for beta in h.all_roots(**window):
            s = root_string(h, beta, alpha)
            total = rs.add(alpha, beta)
            unasked = {("contains", beta), ("is_real", alpha), ("is_real", beta), ("is_real", total),
                       ("contains", total)}
            if alpha != beta:  # beta's own isotropy is asked
                unasked.add(("is_isotropic", alpha))
            del asked[:]
            pairing_laws(h, s)
            assert not built, (alpha, beta)
            assert not unasked & set(asked), (alpha, beta, asked)
            assert all(q == ("pairing", alpha, beta) for q in asked if q[0] == "pairing"), asked
            branches.add((h.is_isotropic(alpha), h.is_isotropic(beta)))
    assert branches == {(False, False), (False, True), (True, False), (True, True)}


def test_scan_makes_one_membership_query_per_slot(monkeypatch):
    # a member is tagged real from its finite part, not by a second query
    from superroot.rootstring import _scan

    for spec, window in (("B(2,1)^(1)", {"max_degree": 1}), ("A(1,2)", {"max_height": 3}),
                         ("A(2,2)^(4)", {"max_degree": 2})):
        h = build(spec)
        queries = []
        original = h._gate
        monkeypatch.setattr(h, "_gate", lambda x: queries.append(x) or original(x))
        alphas = h.real_roots(**window)
        for alpha in alphas[:6]:
            for beta in h.all_roots(**window):
                del queries[:]
                entries, zero_slot = _scan(beta, alpha, range(-4, 5), h)
                assert len(queries) == 9 - (zero_slot is not None), (spec, alpha, beta)
                for e in entries:
                    assert e.real == h.is_real(e.root), (spec, alpha, beta, e)


def test_root_string_asks_each_vector_once_and_refuses_a_bad_beta(monkeypatch):
    # beta's own slot says whether beta is a root, so the only queries are
    # alpha's (its reality, its isotropy and its norm for the pairing) and
    # one per distinct nonzero slot of the box
    from superroot.rootstring import _box, _column

    h = build("B(1,1)^(1)")
    beta, alpha = (1, 2, 1), (0, 0, 1)
    asked, original = [], h._gate
    monkeypatch.setattr(h, "_gate", lambda x: asked.append(x) or original(x))
    root_string(h, beta, alpha)
    slots = {rs.add(beta, rs.scale(k, alpha)) for k in _box(h, beta, alpha, _column(h, alpha))} - {(0, 0, 0)}
    slot_queries = [x for x in asked if x != alpha]
    assert len(slot_queries) == len(set(slot_queries)) == len(slots)
    assert set(slot_queries) == slots and asked.count(alpha) == 3
    for bad, error, message in (
        ((3, 0, 0), NotARootError, "(3, 0, 0) is not a root"),
        ((1, 2), DimensionMismatchError, "root (1, 2) has length 2, but B(1,1)^(1) has rank 3"),
        ((1.0, 2, 1), NotInLatticeError, "root (1.0, 2, 1) has a coordinate that is not an int"),
        ((0, 0, 0), NotARootError, "(0, 0, 0) is not a root"),
    ):
        with pytest.raises(error) as info:
            root_string(build("B(1,1)^(1)"), bad, alpha)
        assert type(info.value) is error and str(info.value) == message, bad


def test_a_warm_handle_refuses_what_a_fresh_one_refuses():
    # (1.0, 2, 1) and (True, 2, 1) hash and compare equal to (1, 2, 1), so a
    # handle that has converted (1, 2, 1) must still check each coordinate,
    # and a string through a bad beta names beta, not one of its slots
    h = build("B(1,1)^(1)")
    assert h.contains((1, 2, 1))
    for bad in ((1.0, 2, 1), (True, 2, 1)):
        with pytest.raises(NotInLatticeError) as info:
            h.contains(bad)
        assert str(info.value) == f"root {bad!r} has a coordinate that is not an int"
    with pytest.raises(NotInLatticeError) as info:
        root_string(h, (1.0, 2, 1), (0, 0, 1))
    assert str(info.value) == "root (1.0, 2, 1) has a coordinate that is not an int"
    # the same after an isotropy query, which reads the one memo through the same check
    assert not h.is_isotropic((1, 2, 1))
    for bad in ((1.0, 2, 1), (True, 2, 1)):
        with pytest.raises(NotInLatticeError) as info:
            h.is_isotropic(bad)
        assert str(info.value) == f"root {bad!r} has a coordinate that is not an int"


def _wide_string(h, beta, alpha):
    # the reference: a plain scan over |k| <= height(beta) + 8, far past the
    # five-slot coordinate box that root_string scans
    w = rs.height(beta) + 8
    entries, zero_slot = [], None
    for k in range(-w, w + 1):
        v = rs.add(beta, rs.scale(k, alpha))
        if not any(v):
            zero_slot = k
        elif h.contains(v):
            entries.append(StringEntry(k, v, h.is_real(v)))
    return entries, zero_slot


@pytest.mark.parametrize("spec, window", [
    ("B(1,1)^(1)", {"max_degree": 1}),
    ("A(1,2)", {"max_height": 3}),
    ("D(2,1;1/2)^(1)", {"max_degree": 1}),
    ("A(2,2)^(4)", {"max_degree": 2}),
], ids=["B(1,1)^(1)-degree-1", "A(1,2)-height-3", "D(2,1;1/2)^(1)-degree-1",
        "A(2,2)^(4)-degree-2"])
def test_box_scan_matches_a_wide_scan(spec, window):
    h = build(spec)
    for alpha in h.real_roots(**window):
        iso = h.is_isotropic(alpha)
        for beta in h.all_roots(**window):
            s = root_string(h, beta, alpha)
            assert (list(s.entries), s.zero_slot) == _wide_string(h, beta, alpha), (alpha, beta)
            assert s.direction_isotropic is iso
            assert s.pairing == (None if iso else h.pairing(beta, alpha))


def test_proportional_truth_table():
    from superroot.rootstring import _proportional

    cases = [
        ((0, 0), (0, 0), True), ((0, 0), (1, -2), True), ((1, -2), (0, 0), True),
        ((1, 2), (2, 4), True), ((1, 2), (-3, -6), True), ((2, 0), (1, 0), True),
        ((0, 3), (0, -1), True), ((1, 0), (1, 1), False), ((0, 1), (1, 0), False),
        ((1, 2), (2, 3), False), ((1, 0, 2), (2, 0, 4), True), ((1, 0, 2), (2, 1, 4), False),
        ((2, 4, 6), (3, 6, 9), True), ((1, 1, 0), (1, 1, 1), False),
    ]
    for x, y, expected in cases:
        assert _proportional(x, y) is expected, (x, y)
        assert _proportional(y, x) is expected, (y, x)


def test_the_string_laws_refuse_an_isotropic_direction_and_an_all_imaginary_string():
    h = build("B(1,1)")
    alpha = h.to_alpha(ED((1,), (1,)))
    assert h.is_isotropic(alpha)
    s = root_string(h, h.to_alpha(ED((0,), (-1,))), alpha)
    with pytest.raises(ValueError, match="non-isotropic"):
        check_unbroken(s)
    with pytest.raises(ValueError, match="non-isotropic"):
        string_pattern(s)
    imaginary = RootString((0, 0), (1, 0), (StringEntry(0, (0, 0), False),), None, False, 0)
    with pytest.raises(ValueError, match="at least one real root"):
        string_pattern(imaginary)


def test_an_affine_sweep_needs_a_degree_bound():
    with pytest.raises(ValueError, match="needs a null-degree bound"):
        sweep_strings(build("B(1,1)^(1)"))
