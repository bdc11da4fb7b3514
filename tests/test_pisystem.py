import itertools
import random

import pytest

from superroot import pisystem
from superroot import rootspace as rs
from superroot.catalog import EpsDeltaVector as ED, build
from superroot.errors import InconclusiveError, NotARealRootError, NotClosedError, SuperrootError
from superroot.lp import in_nonneg_cone
from superroot.oracle import verify_dynkin_maps
from superroot.pisystem import (
    admits_pi_system,
    classify_subset,
    closure_S_infinity,
    is_pi_system,
    minimal_positive_elements,
    pi_of_psi,
    reflect,
    reflect_all,
    root_set,
)
from support import SMALL_CATALOG, positive_real_roots, reflect_pair


def _neg(r):
    return tuple(-x for x in r)


def _with_negatives(roots):
    return list(roots) + [_neg(r) for r in roots]


def test_rootset_rejects_imaginary():
    h = build("B(1,1)^(1)")
    with pytest.raises(NotARealRootError):
        root_set(h, [h.null_root()])


def test_rootset_refuses_non_int_coordinates():
    h = build("A(0,1)")
    # (True, 1) == (1, 1), so each bad root is checked before deduplication
    for bad in ([[1.7, 0], [True, 1]], [[1, 1], [True, 1]], [[1.0, 0]], [["1", 0]]):
        with pytest.raises(SuperrootError):
            root_set(h, bad)
    assert root_set(h, [[1, 0], (1, 1)]).sorted() == [(1, 0), (1, 1)]


def test_simple_roots_are_pi_system():
    for spec in ("A(0,1)", "B(2,1)", "B(2,2)^(1)", "A(2,2)^(4)"):
        h = build(spec)
        assert is_pi_system(root_set(h, h.simple_roots_alpha())).ok, spec


@pytest.mark.parametrize("spec", ["B(1,1)", "B(1,1)^(1)"])
def test_the_empty_set_is_refused_as_a_pi_system(spec):
    # the CLI refuses an empty --roots before this; a library caller reaches it
    with pytest.raises(ValueError, match=r"^the set is empty; give at least one root$"):
        is_pi_system(root_set(build(spec), []))


def test_pi_system_difference_violation():
    h = build("A(0,1)")
    report = is_pi_system(root_set(h, [(1, 0), (1, 1)]))
    assert not report.ok
    assert ((1, 1), (1, 0), (0, 1)) in report.difference_violations


def test_pi_system_cone_violation():
    h = build("A(0,2)")
    # eps-delta1, delta1-delta2 and their sum: the sum lies in the others' cone
    a = h.to_alpha(ED((1,), (-1, 0, 0)))
    b = h.to_alpha(ED((0,), (1, -1, 0)))
    report = is_pi_system(root_set(h, [a, b, rs.add(a, b)]))
    assert not report.ok
    assert rs.add(a, b) in report.cone_violations


def test_paper_affine_pi_system():
    # the three-root pattern in the affine B family is a pi-system
    h = build("B(2,2)^(1)")
    roots = [
        h.to_alpha(ED((1, 0), (0, -1), 1)),
        h.to_alpha(ED((0, 1), (-1, 0), 2)),
        h.to_alpha(ED((0, -1), (1, 0), 3)),
    ]
    assert is_pi_system(root_set(h, roots)).ok


def test_reflect_isotropic_cases():
    h = build("B(1,1)")
    alpha = h.to_alpha(ED((-1,), (1,)))  # isotropic
    assert reflect(h, alpha, alpha) == _neg(alpha)
    assert reflect(h, alpha, _neg(alpha)) == alpha
    # beta with alpha+beta real gets shifted
    beta = h.to_alpha(ED((1,), (1,)))
    assert reflect(h, alpha, beta) == rs.add(beta, alpha)
    # beta with alpha+beta not real stays put
    gamma = h.to_alpha(ED((0,), (2,)))
    assert not h.is_real(rs.add(alpha, gamma)) or True
    fixed = h.to_alpha(ED((-1,), (1,)))
    # alpha + alpha is not a root, covered by the +-alpha branch already;
    # use the affine handle for a genuinely fixed root
    ha = build("B(1,1)^(1)")
    al = ha.to_alpha(ED((-1,), (1,), 0))
    far = ha.to_alpha(ED((-1,), (1,), 2))
    assert not ha.is_real(rs.add(al, far))
    assert reflect(ha, al, far) == far


def test_reflect_even_case():
    h = build("B(1,1)")
    eps = h.to_alpha(ED((1,), (0,)))
    twod = h.to_alpha(ED((0,), (2,)))
    assert reflect(h, eps, twod) == twod  # orthogonal pair
    assert reflect(h, eps, eps) == _neg(eps)
    mixed = h.to_alpha(ED((1,), (1,)))
    assert reflect(h, eps, mixed) == h.to_alpha(ED((-1,), (1,)))


def test_reflect_all_matches_the_per_pair_reference():
    # every pair of real roots up to height 5 on the 49 pinned types, among
    # them beta = +-alpha and, on every affine type, sums alpha + beta = k null
    from test_catalog import _PINNED_SPECS

    for spec in _PINNED_SPECS:
        h = build(spec)
        roots = h.real_roots(max_height=5)
        null_sums = 0
        for alpha in roots:
            assert reflect_all(h, alpha, roots) == [reflect_pair(h, alpha, b) for b in roots], (spec, alpha)
            sums = [rs.add(alpha, b) for b in roots]
            assert h.real_sums(alpha, roots) == [h.is_real(s) for s in sums], (spec, alpha)
            null_sums += sum(1 for s in sums if any(s) and not any(h.to_ed(s).eps + h.to_ed(s).delta))
        assert (null_sums > 0) == h.has_null, spec


def test_a_negative_height_bound_is_refused():
    h = build("B(1,1)^(1)")
    seed = root_set(h, h.simple_roots_alpha())
    for call in (closure_S_infinity, admits_pi_system, verify_dynkin_maps):
        with pytest.raises(ValueError, match=r"^height_bound must be >= 0, got -1$"):
            call(seed, -1)


def test_closure_single_isotropic():
    h = build("B(1,1)")
    alpha = h.to_alpha(ED((-1,), (1,)))
    result = closure_S_infinity(root_set(h, [alpha]))
    assert result.stabilized
    assert set(result.roots.elements) == {alpha, _neg(alpha)}


def test_closure_standard_base_a01():
    h = build("A(0,1)")
    result = closure_S_infinity(root_set(h, h.simple_roots_alpha()))
    assert result.stabilized
    assert set(result.roots.elements) == set(h.real_roots())


def test_closure_includes_doubles():
    h = build("B(0,1)")
    result = closure_S_infinity(root_set(h, [(1,)]))
    assert set(result.roots.elements) == {(1,), (-1,), (2,), (-2,)}


def test_closure_paper_six_root_set():
    h = build("B(2,2)^(1)")
    pi = [
        h.to_alpha(ED((1, 0), (0, -1), 1)),
        h.to_alpha(ED((0, 1), (-1, 0), 2)),
        h.to_alpha(ED((0, -1), (1, 0), 3)),
    ]
    result = closure_S_infinity(root_set(h, pi), height_bound=80)
    assert result.stabilized
    assert set(result.roots.elements) == set(_with_negatives(pi))


def test_closure_truncation_flagged():
    h = build("B(1,1)^(1)")
    seed = root_set(h, [h.to_alpha(ED((0,), (2,), 0)), h.to_alpha(ED((0,), (-2,), 1))])
    result = closure_S_infinity(seed, height_bound=12)
    assert result.status == "truncated"


def test_classify_subset_examples():
    ha = build("B(1,1)^(1)")
    al = ha.to_alpha(ED((-1,), (1,), 0))
    shifted = ha.to_alpha(ED((-1,), (1,), 1))
    psi = root_set(ha, _with_negatives([al, shifted]))
    cls = classify_subset(psi)
    assert cls.symmetric and cls.closed and cls.subroot_system

    single = root_set(ha, [al])
    assert not classify_subset(single).symmetric

    h = build("B(1,1)")
    a = h.to_alpha(ED((-1,), (1,)))
    b = h.to_alpha(ED((1,), (1,)))
    pair_system = root_set(h, _with_negatives([a, b, rs.add(a, b)]))
    cls2 = classify_subset(pair_system)
    assert cls2.subroot_system and cls2.closed and cls2.symmetric


def test_all_real_roots_are_closed_subroot_system():
    for spec in ("A(0,1)", "B(1,1)", "D(2,1;3)"):
        h = build(spec)
        cls = classify_subset(root_set(h, h.real_roots()))
        assert cls.symmetric and cls.closed and cls.subroot_system, spec


def test_closed_requires_doubles():
    h = build("B(0,1)")
    assert not classify_subset(root_set(h, [(1,), (-1,)])).closed
    assert classify_subset(root_set(h, [(1,), (-1,), (2,), (-2,)])).closed


def test_pi_of_psi_examples():
    ha = build("B(1,1)^(1)")
    al = ha.to_alpha(ED((-1,), (1,), 0))
    shifted = ha.to_alpha(ED((-1,), (1,), 1))
    psi = root_set(ha, _with_negatives([al, shifted]))
    assert set(pi_of_psi(psi).elements) == {al, shifted}

    h = build("B(1,1)")
    a = h.to_alpha(ED((-1,), (1,)))
    assert set(pi_of_psi(root_set(h, [a, _neg(a)])).elements) == {a}


def test_pi_of_psi_requires_closed():
    h = build("B(0,1)")
    with pytest.raises(NotClosedError):
        pi_of_psi(root_set(h, [(1,), (-1,)]))


def test_pi_of_psi_weak_difference_law():
    # differences of distinct minimal elements are never real roots, and when
    # they are roots at all both elements must be isotropic
    cases = []
    ha = build("B(1,1)^(1)")
    al = ha.to_alpha(ED((-1,), (1,), 0))
    shifted = ha.to_alpha(ED((-1,), (1,), 1))
    cases.append((ha, _with_negatives([al, shifted])))
    h = build("A(0,2)")
    cases.append((h, h.real_roots()))
    for handle, roots in cases:
        psi = root_set(handle, roots)
        pi = pi_of_psi(psi)
        for x in pi:
            for y in pi:
                if x == y:
                    continue
                d = rs.sub(x, y)
                if handle.contains(d):
                    assert not handle.is_real(d)
                    assert handle.is_isotropic(x) and handle.is_isotropic(y)


def test_admits_pi_system_paper_counterexamples():
    ha = build("B(1,1)^(1)")
    al = ha.to_alpha(ED((-1,), (1,), 0))
    shifted = ha.to_alpha(ED((-1,), (1,), 1))
    psi = root_set(ha, _with_negatives([al, shifted]))
    assert admits_pi_system(psi, height_bound=40) is None

    hb = build("B(2,2)^(1)")
    members = [
        hb.to_alpha(ED((1, 0), (0, -1), 6)),
        hb.to_alpha(ED((1, 0), (0, -1), 1)),
        hb.to_alpha(ED((0, 1), (-1, 0), 2)),
        hb.to_alpha(ED((0, -1), (1, 0), 3)),
    ]
    psi8 = root_set(hb, _with_negatives(members))
    assert admits_pi_system(psi8, height_bound=130) is None


def test_admits_pi_system_positive_case():
    h = build("A(0,1)")
    closure = closure_S_infinity(root_set(h, h.simple_roots_alpha()))
    sigma = admits_pi_system(closure.roots)
    assert sigma is not None
    assert set(sigma.elements) == set(h.simple_roots_alpha())


def test_closure_roundtrip_for_pi_systems():
    # Pi(closure(Sigma)) = Sigma for pi-systems inside the positive roots
    h = build("B(1,1)")
    positives = positive_real_roots(h)
    import itertools

    for size in (1, 2):
        for combo in itertools.combinations(positives, size):
            sigma = root_set(h, combo)
            if not is_pi_system(sigma).ok:
                continue
            closure = closure_S_infinity(sigma)
            assert closure.stabilized
            assert set(pi_of_psi(closure.roots).elements) == set(combo)


def test_closure_is_weyl_orbit_for_nonisotropic():
    # with no isotropic members the closure equals the orbit of S_0 under the
    # group generated by the even reflections in the seed
    h = build("B(2,1)")
    seeds = [
        [h.to_alpha(ED((1, -1), (0,))), h.to_alpha(ED((0, 1), (0,)))],
        [h.to_alpha(ED((0, 0), (2,))), h.to_alpha(ED((1, 0), (0,)))],
    ]
    for seed in seeds:
        sigma = root_set(h, seed)
        result = closure_S_infinity(sigma)
        assert result.stabilized
        s0 = set(seed)
        for r in seed:
            if h.is_real(rs.scale(2, r)):
                s0.add(rs.scale(2, r))
        s0 |= {_neg(r) for r in s0}
        orbit = set(s0)
        while True:
            new = {reflect(h, a, b) for a in seed for b in orbit}
            new |= {_neg(r) for r in new}
            if new <= orbit:
                break
            orbit |= new
        assert set(result.roots.elements) == orbit


def test_remark_nonisotropic_psi_admits():
    # a closed subroot system with no isotropic roots always closes back up
    h = build("B(2,1)")
    seed = root_set(h, [h.to_alpha(ED((1, -1), (0,))), h.to_alpha(ED((0, 1), (0,)))])
    psi = closure_S_infinity(seed).roots
    assert all(not h.is_isotropic(r) for r in psi)
    pi = pi_of_psi(psi)
    back = closure_S_infinity(pi)
    assert back.stabilized and back.roots.elements == psi.elements


def test_verify_dynkin_maps():
    h = build("A(0,1)")
    cert = verify_dynkin_maps(root_set(h, h.simple_roots_alpha()))
    assert cert.closure_closed_subroot and cert.pi_roundtrip and cert.oracle_match

    o = build("B(0,1)")
    cert2 = verify_dynkin_maps(root_set(o, [(1,)]))
    assert cert2.ok()
    assert set(cert2.closure.elements) == {(1,), (-1,), (2,), (-2,)}

    hb = build("B(2,2)^(1)")
    pi = [
        hb.to_alpha(ED((1, 0), (0, -1), 1)),
        hb.to_alpha(ED((0, 1), (-1, 0), 2)),
        hb.to_alpha(ED((0, -1), (1, 0), 3)),
    ]
    cert3 = verify_dynkin_maps(root_set(hb, pi), height_bound=130)
    assert cert3.closure_closed_subroot and cert3.pi_roundtrip


def test_verify_dynkin_rejects_non_pi_input():
    h = build("A(0,1)")
    with pytest.raises(ValueError):
        verify_dynkin_maps(root_set(h, [(1, 0), (1, 1)]))
    with pytest.raises(ValueError):
        verify_dynkin_maps(root_set(h, [(-1, 0)]))


def _all_pairs_closure(seed, height_bound=None, trail=None):
    # the reference round map: reflect every pair of the current set each round;
    # ``trail`` receives the set that each round starts from
    handle = seed.handle
    current = set(seed.elements)
    current |= {rs.scale(2, r) for r in seed.elements if handle.is_real(rs.scale(2, r))}
    current = frozenset(current)
    discarded = False
    rounds = 0
    while True:
        rounds += 1
        if trail is not None:
            trail.append(current)
        nxt = set()
        for a in current:
            for b in current:
                r = reflect_pair(handle, a, b)
                nxt.add(r)
                nxt.add(_neg(r))
        if height_bound is not None:
            kept = {r for r in nxt if rs.height(r) <= height_bound}
            discarded = discarded or len(kept) != len(nxt)
            nxt = kept
        nxt = frozenset(nxt)
        if nxt == current:
            return current, "truncated" if discarded else "stabilized", rounds
        current = nxt


def _closure_cases():
    b11 = build("B(1,1)^(1)")
    a12 = build("A(1,2)^(1)")
    b22 = build("B(2,2)^(1)")
    b21 = build("B(2,1)")
    c3 = build("C(3)")
    b11f = build("B(1,1)")
    high = b11.to_alpha(ED((0,), (2,), 5))
    low = b11.to_alpha(ED((1,), (1,), -6))
    return [
        ("B(1,1)^(1) simple, height 40", root_set(b11, b11.simple_roots_alpha()), 40),
        ("A(1,2)^(1) simple, height 30", root_set(a12, a12.simple_roots_alpha()), 30),
        ("B(2,2)^(1) simple, height 20", root_set(b22, b22.simple_roots_alpha()), 20),
        ("B(2,1) simple, no bound", root_set(b21, b21.simple_roots_alpha()), None),
        # a finite type under a height bound: here the (old, new) pairs matter
        ("C(3) mixed signs, height 3", root_set(c3, [(1, 2, 1), (-1, -1, 0), (0, -1, 0)]), 3),
        ("seed above the bound", root_set(b11, [high, b11.simple_roots_alpha()[1]]),
         rs.height(high) - 1),
        # reflecting S_0 by sign classes in round 1 changes both closures, and so
        # does one reflection per class pair for an isotropic reflector
        ("A(1,2)^(1) mixed signs, height 4",
         root_set(a12, [(-1, -1, 0, -1, -1), (-1, 0, 0, -1, -1), (0, 0, -1, 0, 0)]), 4),
        ("A(1,2)^(1) mixed signs, height 6",
         root_set(a12, [(-1, -2, -2, -2, -2), (0, 1, 1, 0, 0), (0, 1, 1, 1, 0)]), 6),
        # round 1 reads S_0 itself: a symmetric S_0 that is already closed stops
        # there, a class of S_0 with one member is new, and so is every class
        # of S_1 when S_0 lies above the bound
        ("B(1,1) symmetric and closed", root_set(b11f, [(1, 0), (-1, 0)]), None),
        ("B(1,1) r without -r", root_set(b11f, [(1, 0), (-1, 0), (0, 1)]), None),
        ("every seed root above the bound", root_set(b11, [high, _neg(high), low]),
         rs.height(low) - 1),
    ]


@pytest.mark.parametrize("case", _closure_cases(), ids=lambda c: c[0])
def test_semi_naive_closure_matches_all_pairs_rounds(case):
    _, seed, bound = case
    result = closure_S_infinity(seed, bound)
    roots, status, rounds = _all_pairs_closure(seed, bound)
    assert (result.roots.elements, result.status, result.rounds) == (roots, status, rounds)


_DIFFERENTIAL_FINITE = ("A(1,2)", "B(2,1)", "B(1,2)", "C(3)", "D(2,1;2)")
_DIFFERENTIAL_AFFINE = ("B(1,1)^(1)", "A(0,1)^(1)", "A(0,2)^(1)", "A(2,2)^(4)", "C(2)^(1)",
                        "B(0,1)^(1)", "A(1,2)^(1)", "C(3)^(1)", "D(2,1;1/2)^(1)")


def _random_closure_cases():
    # seeds of 1 to 3 real roots of either sign, some of them above the bound
    rng = random.Random(7)
    cases = []
    for spec in _DIFFERENTIAL_FINITE + _DIFFERENTIAL_AFFINE:
        h = build(spec)
        bounds = (None, 2, 3, 4, 6) if h.is_finite else (3, 4, 6, 8)
        for bound in bounds:
            pool = h.real_roots() if h.is_finite else h.real_roots(max_height=bound + 1)
            for size in (1, 1, 2, 2, 3, 3):
                seed = root_set(h, rng.sample(pool, size))
                cases.append((f"{spec} {seed.sorted()} {bound}", seed, bound))
    return cases


def test_sign_class_closure_matches_all_pairs_on_random_seeds():
    for name, seed, bound in _random_closure_cases():
        result = closure_S_infinity(seed, bound)
        expected = _all_pairs_closure(seed, bound)
        assert (result.roots.elements, result.status, result.rounds) == expected, name


def test_finite_closures_stabilize_with_no_bound():
    # with no bound, a finite-type closure grows inside the finite root
    # system, so it reaches its fixpoint with nothing discarded
    for name, seed, _ in _random_closure_cases():
        if seed.handle.is_finite:
            result = closure_S_infinity(seed)
            assert result.stabilized and result.roots.elements <= set(seed.handle.real_roots()), name


def _class_pair_count(seed, height_bound):
    # the reflections that the sign-class argument needs: every ordered pair
    # of S_0 in round 1; after that, for each pair of classes of which at
    # least one is new, one for a non-isotropic reflector, two for an
    # isotropic one
    handle = seed.handle
    trail = []
    _all_pairs_closure(seed, height_bound, trail)
    count = len(trail[0]) ** 2
    for prev, cur in zip(trail, trail[1:]):
        classes = {max(r, _neg(r)) for r in cur}
        fresh = {max(r, _neg(r)) for r in cur - prev}
        for a in classes:
            count += (2 if handle.is_isotropic(a) else 1) * len(classes if a in fresh else fresh)
    return count


def test_closure_reflects_once_per_class_pair(monkeypatch):
    pairs = []

    def counting(handle, alpha, betas):
        pairs.extend((alpha, b) for b in betas)
        return reflect_all(handle, alpha, betas)

    monkeypatch.setattr(pisystem, "reflect_all", counting)
    # reflecting every ordered pair each round takes 25 600 and 57 600 pairs
    for spec, bound, count in (("B(1,1)^(1)", 40, 8969), ("A(1,2)^(1)", 30, 23065)):
        h = build(spec)
        seed = root_set(h, h.simple_roots_alpha())
        pairs.clear()
        closure_S_infinity(seed, bound)
        assert len(pairs) == _class_pair_count(seed, bound) == count, spec


def _signed_class_count(seed, height_bound):
    # the negations that signing the classes needs: from round 2 on, the new
    # classes' reflectors take every class, the others take the new ones,
    # and each of these two lists is signed once if an isotropic a takes it
    handle = seed.handle
    trail = []
    _all_pairs_closure(seed, height_bound, trail)
    count = 0
    for prev, cur in zip(trail, trail[1:]):
        classes = {max(r, _neg(r)) for r in cur}
        fresh = {max(r, _neg(r)) for r in cur - prev}
        isotropic = {a for a in classes if handle.is_isotropic(a)}
        count += len(classes) * bool(isotropic & fresh) + len(fresh) * bool(isotropic - fresh)
    return count


def test_closure_negates_each_class_once_a_round(monkeypatch):
    signed = {}  # id -> each signed list handed to reflect_all, kept alive

    def counting(handle, alpha, betas):
        if isinstance(betas, list):
            signed[id(betas)] = betas
        return reflect_all(handle, alpha, betas)

    monkeypatch.setattr(pisystem, "reflect_all", counting)
    # signing the list again for every isotropic a takes 2 560 and 8 640
    for spec, bound, count in (("B(1,1)^(1)", 40, 270), ("A(1,2)^(1)", 30, 380)):
        h = build(spec)
        seed = root_set(h, h.simple_roots_alpha())
        signed.clear()
        closure_S_infinity(seed, bound)
        negated = sum(len(betas) // 2 for betas in signed.values())
        assert negated == _signed_class_count(seed, bound) == count, spec


def test_closure_on_sign_classes_saves_negations(monkeypatch):
    count = [0]

    def counting(r):
        count[0] += 1
        return tuple(-x for x in r)

    monkeypatch.setattr(rs, "neg", counting)
    # storing both members of every class, and negating every image, took
    # 9 934 and 24 522 negations
    for spec, bound, most in (("B(1,1)^(1)", 40, 3526), ("A(1,2)^(1)", 30, 9236)):
        h = build(spec)
        count[0] = 0
        closure_S_infinity(root_set(h, h.simple_roots_alpha()), bound)
        assert count[0] <= most, spec


def test_closure_cases_cover_the_truncation_paths():
    cases = {name: (seed, bound) for name, seed, bound in _closure_cases()}
    seed, bound = cases["seed above the bound"]
    assert any(rs.height(r) > bound for r in seed)
    assert closure_S_infinity(seed, bound).status == "truncated"
    seed, bound = cases["B(2,1) simple, no bound"]
    assert closure_S_infinity(seed, bound).stabilized
    seed, bound = cases["every seed root above the bound"]
    assert all(rs.height(r) > bound for r in seed)
    seed, _ = cases["B(1,1) r without -r"]
    assert any(_neg(r) not in seed for r in seed)
    result = closure_S_infinity(*cases["B(1,1) symmetric and closed"])
    assert (len(result.roots), result.status, result.rounds) == (2, "stabilized", 1)


def _is_positive_multiple(gamma, alpha):
    # gamma in N * alpha with alpha nonzero, for any k
    ks = {g // a for g, a in zip(gamma, alpha) if a != 0}
    if len(ks) != 1:
        return False
    k = ks.pop()
    return k >= 1 and gamma == rs.scale(k, alpha)


def _precedes(gamma, alpha, positives):
    # t alpha = gamma + a nonnegative combination of the other positives, t >= 0
    others = [_neg(o) for o in positives if o != gamma and o != alpha]
    return in_nonneg_cone([alpha] + others, gamma)


def _pairwise_minimal(psi):
    # the reference: alpha is minimal when only its multiples k alpha precede it
    positives = psi.positive()
    return frozenset(
        alpha for alpha in positives
        if not any(gamma != alpha and _precedes(gamma, alpha, positives)
                   and not _is_positive_multiple(gamma, alpha) for gamma in positives)
    )


def _minimal_cases():
    cases = []
    for spec, heights in (("B(1,1)^(1)", (6, 12)), ("A(0,1)^(1)", (6, 12)),
                          ("A(0,2)^(1)", (6, 10)), ("A(2,2)^(4)", (6, 10)),
                          ("C(2)^(1)", (6, 10)), ("B(0,1)^(1)", (6, 12)),
                          ("A(1,2)^(1)", (6, 8))):
        h = build(spec)
        for bound in heights:
            closure = closure_S_infinity(root_set(h, h.simple_roots_alpha()), bound)
            cases.append((f"{spec} simple, height {bound}", closure.roots))
    h = build("B(1,1)^(1)")
    seed = root_set(h, [h.to_alpha(ED((0,), (2,), 0)), h.to_alpha(ED((0,), (-2,), 1))])
    clipped = closure_S_infinity(seed, height_bound=12)
    assert clipped.status == "truncated"
    cases.append(("B(1,1)^(1) window-clipped", clipped.roots))
    # every subset of the positive roots of two B types: among them sets
    # holding delta and 2 delta, and sets holding 2 delta without delta
    for spec in ("B(1,1)", "B(0,2)"):
        h = build(spec)
        positives = positive_real_roots(h)
        for size in range(1, len(positives) + 1):
            for subset in itertools.combinations(positives, size):
                cases.append((f"{spec} {subset}", root_set(h, subset)))
    return cases


def test_one_cone_test_per_root_matches_pairwise_minimality():
    for name, psi in _minimal_cases():
        assert minimal_positive_elements(psi).elements == _pairwise_minimal(psi), name


def test_a_sum_in_psi_plus_needs_no_cone_test(monkeypatch):
    # on the B(1,1)^(1) simple-base closure at height 40 every positive root
    # but the three simple roots is a sum of two positives, so only those
    # three reach the cone test
    h = build("B(1,1)^(1)")
    closure = closure_S_infinity(root_set(h, h.simple_roots_alpha()), 40)
    assert (len(closure.roots), len(closure.roots.positive())) == (160, 80)
    calls = []

    def counting(generators, target):
        calls.append(target)
        return in_nonneg_cone(generators, target)

    monkeypatch.setattr(pisystem, "in_nonneg_cone", counting)
    assert minimal_positive_elements(closure.roots).elements == set(h.simple_roots_alpha())
    assert sorted(calls) == sorted(h.simple_roots_alpha())


def test_minimality_of_multiples():
    # alpha with 2 alpha present stays minimal; 2 alpha is not minimal
    # when alpha = (2 alpha)/2 is present, and is minimal otherwise
    h = build("B(0,1)^(1)")
    half = h.to_alpha(ED((), (1,), 1))
    both = minimal_positive_elements(root_set(h, [half, rs.scale(2, half)]))
    assert both.elements == {half}
    alone = minimal_positive_elements(root_set(h, [rs.scale(2, half)]))
    assert alone.elements == {rs.scale(2, half)}


def test_a_root_set_holds_a_root_given_as_a_list():
    roots = root_set(build("A(0,1)"), [(1, 0)])
    assert [1, 0] in roots and (1, 0) in roots and [0, 1] not in roots


def test_no_real_root_has_a_root_multiple_beyond_two():
    # minimal_positive_elements leaves only alpha and 2 alpha out of G: every
    # finite coordinate of a root lies in [-coord_bound, coord_bound], and a
    # real root has a nonzero one, so k alpha is no root for k >= 3
    checked = 0
    for spec in SMALL_CATALOG:
        h = build(spec)
        assert h.coord_bound <= 2, spec
        for alpha in h.real_roots(max_degree=4 if h.has_null else None):
            for k in range(3, 7):
                assert not h.contains(rs.scale(k, alpha)), (spec, alpha, k)
            checked += 1
    assert checked == 2266  # real roots, affine ones up to null degree 4


def test_dynkin_checks_classify_each_set_once(monkeypatch):
    # verify_dynkin_maps and admits_pi_system classified a set and then let
    # pi_of_psi classify the same set again
    from superroot import replay

    calls = []
    original = pisystem.classify_subset

    def counting(psi):
        calls.append(psi)
        return original(psi)

    monkeypatch.setattr(pisystem, "classify_subset", counting)
    h = build("B(1,1)")
    sigma = root_set(h, h.simple_roots_alpha())
    assert verify_dynkin_maps(sigma).ok()
    assert len(calls) == 1
    del calls[:]
    assert replay.replay_broken_closure()["passed"]
    assert len(calls) == 2  # the replay's own check and admits_pi_system
    del calls[:]
    assert replay.replay_affine_pair()["passed"]
    assert len(calls) == 2  # the replay's own check and admits_pi_system
    # a closure that does not classify as closed is still refused
    monkeypatch.setattr(pisystem, "classify_subset",
                        lambda psi: pisystem.SubsetClassification(True, False, True))
    with pytest.raises(NotClosedError):
        verify_dynkin_maps(sigma)


def test_the_closure_and_admits_pi_refuse_what_they_cannot_answer():
    aff = build("B(1,1)^(1)")
    with pytest.raises(ValueError, match="affine closures need a height bound"):
        closure_S_infinity(root_set(aff, aff.simple_roots_alpha()))
    h = build("B(1,1)")
    # the simple roots are not closed: their sum is a real root
    with pytest.raises(NotClosedError):
        admits_pi_system(root_set(h, h.simple_roots_alpha()))
    # every real root is a closed subroot system, but at height 1 the closure
    # of its Pi, the simple roots, is cut short
    psi = root_set(h, h.real_roots())
    assert admits_pi_system(psi).elements == set(h.simple_roots_alpha())
    with pytest.raises(InconclusiveError):
        admits_pi_system(psi, height_bound=1)
