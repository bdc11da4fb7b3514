from fractions import Fraction as Q

import pytest

from superroot import rootspace as rs
from superroot.catalog import EpsDeltaVector as ED, build
from superroot.errors import PatternViolationError, WindowExhaustedError
from superroot.rootstring import (
    RootString,
    StringEntry,
    check_unbroken,
    pairing_laws,
    root_string,
    string_pattern,
    sweep_strings,
)


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
    verdicts = {v.law: v for v in pairing_laws(h, alpha, beta)}
    assert verdicts["isotropic-pairing-values"].passed


def test_cor_exclusion_for_isotropic():
    h = build("B(1,1)")
    alpha = h.to_alpha(ED((-1,), (1,)))
    beta = h.to_alpha(ED((1,), (1,)))
    assert h.is_real(rs.add(alpha, beta))
    assert not h.contains(rs.sub(alpha, beta))
    verdicts = {v.law: v for v in pairing_laws(h, alpha, beta)}
    assert verdicts["isotropic-sum-difference-exclusion"].applicable
    assert verdicts["isotropic-sum-difference-exclusion"].passed


def test_isotropic_direction_bound():
    h = build("B(2,2)^(1)")
    alpha = h.to_alpha(ED((1, 0), (-1, 0), 0))
    beta = h.to_alpha(ED((0, 1), (0, -1), 1))
    s = root_string(h, beta, alpha)
    assert s.real_count() <= 2
    verdicts = {v.law: v for v in pairing_laws(h, alpha, beta)}
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
    ("B(1,1)^(1)", {"max_degree": 1}),
    ("A(1,2)", {"max_height": 3}),
], ids=["B(1,1)^(1)-degree-1", "A(1,2)-height-3"])
def test_sweep_scans_each_string_at_most_once(monkeypatch, spec, window):
    import superroot.rootstring as rstr

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return root_string(*args, **kwargs)

    monkeypatch.setattr(rstr, "root_string", counting)
    report = sweep_strings(build(spec), **window)
    assert report.ok(), report.failures[:3]
    assert report.pairs > 0
    assert len(calls) <= report.pairs
    assert len(set(calls)) == len(calls)


def test_pairing_laws_reuse_the_given_string():
    for spec, window in (("B(1,1)^(1)", {"max_degree": 1}), ("A(1,2)", {"max_height": 3})):
        h = build(spec)
        alphas = h.real_roots(**window)
        betas = h.all_roots(**window)
        for alpha in alphas:
            for beta in betas:
                s = root_string(h, beta, alpha)
                assert pairing_laws(h, alpha, beta, string=s) == pairing_laws(h, alpha, beta), (
                    spec, alpha, beta)


def test_pairing_laws_reject_a_foreign_string():
    h = build("B(1,1)")
    alpha = h.to_alpha(ED((1,), (0,)))
    beta = h.to_alpha(ED((-1,), (1,)))
    other = h.to_alpha(ED((0,), (1,)))
    with pytest.raises(ValueError):
        pairing_laws(h, alpha, beta, string=root_string(h, other, alpha))
    with pytest.raises(ValueError):
        pairing_laws(h, alpha, beta, string=root_string(h, beta, other))
    with pytest.raises(ValueError):
        pairing_laws(h, alpha, beta, string=root_string(h, alpha, beta))
    assert pairing_laws(h, alpha, beta, string=root_string(h, beta, alpha))


def test_scan_makes_one_membership_query_per_slot(monkeypatch):
    # a member is tagged real from its finite part, not by a second query
    from superroot.rootstring import _scan

    for spec, window in (("B(2,1)^(1)", {"max_degree": 1}), ("A(1,2)", {"max_height": 3}),
                         ("A(2,2)^(4)", {"max_degree": 2})):
        h = build(spec)
        queries = []
        original = h.contains_ed
        monkeypatch.setattr(h, "contains_ed", lambda v: queries.append(v) or original(v))
        alphas = h.real_roots(**window)
        for alpha in alphas[:6]:
            for beta in h.all_roots(**window):
                del queries[:]
                entries, zero_slot = _scan(h, beta, alpha, range(-4, 5))
                assert len(queries) == 9 - (zero_slot is not None), (spec, alpha, beta)
                for e in entries:
                    assert e.real == h.is_real(e.root), (spec, alpha, beta, e)


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


def test_explicit_window_clips_only_isotropic_directions():
    # a non-isotropic string comes back whole whatever the window, 0 included;
    # an isotropic one is clipped to |k| <= window and raises when a member
    # sits at either end
    h = build("B(1,1)^(1)")
    betas = h.all_roots(max_degree=1)
    for alpha in h.real_roots(max_degree=1):
        iso = h.is_isotropic(alpha)
        for beta in betas:
            whole = root_string(h, beta, alpha)
            for w in range(8):
                if not iso:
                    assert root_string(h, beta, alpha, w) == whole, (alpha, beta, w)
                    continue
                clipped = [e for e in whole.entries if abs(e.k) <= w]
                if clipped and (clipped[0].k == -w or clipped[-1].k == w):
                    with pytest.raises(WindowExhaustedError):
                        root_string(h, beta, alpha, w)
                else:
                    s = root_string(h, beta, alpha, w)
                    assert list(s.entries) == clipped, (alpha, beta, w)
                    zero = whole.zero_slot
                    assert s.zero_slot == (zero if zero is not None and abs(zero) <= w else None)


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


def test_negative_window_is_rejected():
    # a window of -1 used to clip the isotropic string to nothing, beta
    # included, and return it empty without a WindowExhaustedError
    h = build("B(1,1)")
    assert h.is_isotropic((1, 0)) and h.contains((1, 2))
    assert root_string(h, (1, 2), (1, 0)).entries
    with pytest.raises(ValueError):
        root_string(h, (1, 2), (1, 0), window=-1)
