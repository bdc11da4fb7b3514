"""Property-based checks of the exact-arithmetic invariants."""

import random
from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from superroot import rootspace as rs
from superroot.basegraph import odd_reflect_base, standard_base
from superroot.cartan import normalize, symmetrizer
from superroot.catalog import EpsDeltaVector as ED, build
from superroot.pisystem import classify_subset, closure_S_infinity, is_pi_system, root_set
from support import bilinear, pair, positive_real_roots, rank

coeff = st.integers(min_value=-4, max_value=4)


@st.composite
def sl12_vectors(draw):
    return tuple(draw(coeff) for _ in range(2))


@given(sl12_vectors(), sl12_vectors(), sl12_vectors())
@settings(max_examples=60, deadline=None)
def test_pair_additive(x, y, h):
    cd = normalize([[0, 1], [-1, 2]], (1, 0))
    hq = tuple(Q(c) for c in h)
    assert pair(rs.add(x, y), hq, cd) == pair(x, hq, cd) + pair(y, hq, cd)


@given(sl12_vectors(), sl12_vectors())
@settings(max_examples=60, deadline=None)
def test_bilinear_symmetric(x, y):
    cd = normalize([[0, 1], [-1, 2]], (1, 0))
    d = symmetrizer(cd)
    assert bilinear(x, y, cd, d) == bilinear(y, x, cd, d)


@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-2, max_value=2))
@settings(max_examples=60, deadline=None)
def test_twisted_convert_round_trip(a, b, r):
    h = build("A(2,2)^(4)")
    v = ED((a,), (b,), r)
    root = h.to_alpha(v)
    assert h.to_ed(root) == v


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_to_alpha_inverts_to_ed_on_integer_combinations(data):
    # the integer solver on any point of the root lattice, including the
    # types whose solver rows share a denominator above 1
    spec = data.draw(st.sampled_from(["A(1,2)", "B(2,1)^(1)", "C(3)", "D(2,1)", "D(2,1;1/2)",
                                      "D(2,1;-5/3)^(1)", "A(2,4)^(4)"]))
    h = build(spec)
    root = tuple(data.draw(st.lists(coeff, min_size=h.rank, max_size=h.rank)))
    back = h.to_alpha(h.to_ed(root))
    assert back == root
    assert all(type(c) is int for c in back)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_closure_output_symmetric_subroot(data):
    # any stabilized closure is a symmetric subroot system; closedness needs
    # the pi-system hypothesis (hypothesis once found {-eps, -delta} in
    # B(1,1), whose closure misses the real sum eps+delta)
    h = build("B(1,1)")
    roots = h.real_roots()
    size = data.draw(st.integers(min_value=1, max_value=3))
    seed = data.draw(st.sets(st.sampled_from(roots), min_size=size, max_size=size))
    result = closure_S_infinity(root_set(h, seed))
    assert result.stabilized
    cls = classify_subset(result.roots)
    assert cls.symmetric and cls.subroot_system
    seed_set = root_set(h, seed)
    if is_pi_system(seed_set).ok and all(h.is_positive(r) for r in seed):
        assert cls.closed


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_closure_idempotent(data):
    h = build("A(0,2)")
    roots = h.real_roots()
    seed = data.draw(st.sets(st.sampled_from(roots), min_size=1, max_size=2))
    once = closure_S_infinity(root_set(h, seed))
    twice = closure_S_infinity(once.roots)
    assert twice.roots.elements == once.roots.elements


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_odd_reflection_is_base_involution(data):
    # reflecting twice at the image of an isotropic entry restores the roots
    spec = data.draw(st.sampled_from(["A(0,1)", "B(1,1)", "A(0,2)", "B(2,2)"]))
    cd = build(spec).cartan
    base = standard_base(cd)
    odd = [t for t in range(cd.n)
           if base.cartan.matrix[t][t] == 0 and cd.parity[t] == 1]
    t = data.draw(st.sampled_from(odd))
    reflected = odd_reflect_base(base, t)
    back_index = reflected.roots.index(rs.neg(base.roots[t]))
    back = odd_reflect_base(reflected, back_index)
    assert set(back.roots) == set(base.roots)


def test_pi_systems_random_subsets_have_stable_reports():
    rng = random.Random(11)
    h = build("B(2,1)")
    positives = positive_real_roots(h)
    for _ in range(50):
        seed = rng.sample(positives, rng.randint(1, 3))
        report = is_pi_system(root_set(h, seed))
        # condition two alone never fires for purely non-isotropic seeds
        if all(not h.is_isotropic(r) for r in seed) and not report.difference_violations:
            assert report.ok


_ROW = st.lists(st.integers(min_value=-12, max_value=12), min_size=3, max_size=3)


@given(_ROW, _ROW, st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5))
@settings(max_examples=200, deadline=None)
def test_rank_of_int_rows_is_the_rank_of_their_fractions(a, b, p, q):
    # a third row dependent on the first two: the case a float elimination misreads
    rows = [a, b, [p * x + q * y for x, y in zip(a, b)]]
    assert rank(rows) == rank([[Q(x) for x in row] for row in rows])
