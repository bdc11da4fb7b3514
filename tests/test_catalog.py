import functools
import hashlib
import itertools
import re
from fractions import Fraction as Q

import pytest

from superroot.catalog import CatalogType, EpsDeltaVector as ED, build, parse_type
from superroot.errors import (IsotropicReflectorError, NotInLatticeError, PairingNotIntegralError,
                              UnsupportedTypeError)
from support import (SMALL_CATALOG, form, is_imaginary, is_imaginary_ed, is_isotropic_ed, membership_classify,
                     positive_real_roots, scaled_norm)


def test_parse_type_grammar():
    assert parse_type("A(0,1)") == CatalogType("A", 0, 1)
    assert parse_type("B(1,1)^(1)") == CatalogType("B", 1, 1, "affine")
    assert parse_type("A(2,2)^(4)") == CatalogType("A", 2, 2, "twisted4")
    assert parse_type("C(3)") == CatalogType("C", 0, 3)
    assert parse_type("D(2,1;1/2)") == CatalogType("D21", 2, 1, "finite", Q(1, 2))
    assert parse_type("D(2,1;-3)^(1)").param == Q(-3)
    with pytest.raises(UnsupportedTypeError):
        parse_type("E(8)")
    with pytest.raises(UnsupportedTypeError):
        parse_type("B(1,1)^(2)")


def test_parse_type_accepts_only_decimal_digit_ranks():
    # int() read "+1" as 1 and "1_0" as 10, and raised a bare ValueError on "x"
    assert parse_type(" B( 1 , 10 ) ") == CatalogType("B", 1, 10)
    for bad in ("B(+1,1_0)", "B(x,1)", "B(1,-1)", "C(3.0)", "A(,1)", "C()",
                "B(1,\u0661)", "D(+2,1;1)"):
        with pytest.raises(UnsupportedTypeError):
            parse_type(bad)


@pytest.mark.parametrize("spec, message", [
    ("B(1,1;2)", "unexpected parameter"),
    ("D(3,1;2)", "requires D\\(2,1;a\\)"),
    ("C(2,1)", "C takes one rank"),
    ("B(1)", "B takes two ranks"),
])
def test_parse_type_refuses_a_misplaced_parameter_and_a_wrong_rank_count(spec, message):
    with pytest.raises(UnsupportedTypeError, match=message):
        parse_type(spec)


def test_unsupported_types():
    for bad in ("A(1,1)", "A(2,2)", "B(2,0)", "C(1)", "D(1,1)", "D(2,1;0)",
                "B(2,2)^(4)", "A(1,2)^(4)", "A(2,1)^(4)"):
        with pytest.raises(UnsupportedTypeError):
            build(bad)


def test_build_refuses_a_hand_built_type_outside_the_catalog():
    # a CatalogType built by hand skips the label grammar
    for ctype, message in ((CatalogType("A", -1, 1), "negative rank"),
                           (CatalogType("E", 1, 1), "family 'E' is not in the catalog"),
                           (CatalogType("A", 0, 1, "twisted2"), "unknown twist 'twisted2'")):
        with pytest.raises(UnsupportedTypeError, match=f"^{message}$"):
            build(ctype)


def test_a01_distinguished_base():
    h = build("A(0,1)")
    assert h.cartan.matrix == ((Q(0), Q(1)), (Q(-1), Q(2)))
    assert h.cartan.parity == (1, 0)
    assert len(h.real_roots()) == 6


def test_root_counts():
    # |roots| from the standard tables: A(m,n): (m+n+1)(m+n+2) minus even overlap
    assert len(build("A(0,1)").real_roots()) == 6
    assert len(build("A(0,2)").real_roots()) == 12
    assert len(build("B(0,1)").real_roots()) == 4
    assert len(build("B(1,1)").real_roots()) == 10
    # B(2,1): 4 (eps pairs) + 4 (eps) + 2 (2delta) + 2 (delta) + 8 (mixed) = 20
    assert len(build("B(2,1)").real_roots()) == 20
    assert len(build("D(2,1;1/2)").real_roots()) == 14


def test_twisted_membership_paper_cases():
    t = build("A(2,2)^(4)")
    assert t.contains_ed(ED((2,), (0,), 2))        # doubled eps at degree 2 mod 4
    assert not t.contains_ed(ED((2,), (0,), 4))    # 4 is not 2 mod 4
    v = ED((1,), (1,), 2)
    assert t.contains_ed(v) and is_isotropic_ed(t, v) and t.parity_ed(v) == 1
    assert is_imaginary_ed(t, ED((0,), (0,), 3))
    assert not t.contains_ed(ED((0,), (0,), 0))


def test_membership_classify_bundle():
    t = build("A(2,2)^(4)")
    rep = membership_classify(t, ED((1,), (1,), 2))
    assert rep.in_delta and rep.real and not rep.imaginary
    assert rep.parity == 1 and rep.isotropic
    rep2 = membership_classify(t, ED((0,), (0,), 3))
    assert rep2.in_delta and rep2.imaginary and not rep2.real
    rep3 = membership_classify(t, ED((2,), (0,), 4))
    assert not rep3.in_delta and rep3.parity is None
    b = build("B(1,1)")
    rep4 = membership_classify(b, ED((1,), (0,)))
    assert rep4.real and rep4.parity == 0 and rep4.isotropic is False


def test_twisted_clause_periodicity():
    t = build("A(4,2)^(4)")
    # each clause repeats along its own null-degree congruence class
    cases = [
        (ED((1, -1), (0,), 0), 2),   # eps pair: even degrees
        (ED((0, 0), (2,), 0), 4),    # doubled delta: 0 mod 4
        (ED((2, 0), (0,), 2), 4),    # doubled eps: 2 mod 4
        (ED((1, 0), (-1,), 0), 2),   # mixed isotropic: even degrees
        (ED((1, 0), (0,), 0), 1),    # single eps: all degrees
        (ED((0, 0), (1,), 0), 1),    # single delta: all degrees
    ]
    for base, period in cases:
        assert t.contains_ed(base)
        for k in range(-8, 9):
            shifted = ED(base.eps, base.delta, base.null + k)
            assert t.contains_ed(shifted) == (k % period == 0), (base, k)


def test_twisted_doubling_rule():
    # 2*alpha is a root exactly for odd non-isotropic real alpha
    t = build("A(2,2)^(4)")
    for r in t.real_roots(max_degree=4):
        ed = t.to_ed(r)
        doubled = _scaled(ed, 2)
        if t.parity_ed(ed) == 1 and not is_isotropic_ed(t, ed):
            assert t.contains_ed(doubled), r
        else:
            assert not t.contains_ed(doubled), r


def test_even_real_and_zero_vector():
    h = build("A(2,1)")
    rep = membership_classify(h, ED((1, -1, 0), (0, 0)))
    assert rep.in_delta and rep.real and rep.parity == 0 and rep.isotropic is False
    zero = ED((0, 0, 0), (0, 0))
    assert not h.contains_ed(zero)
    ha = build("B(1,1)^(1)")
    assert not ha.contains_ed(ED((0,), (0,), 0))


def test_root_multiple_rule():
    # k*alpha is a root only for k in {+-1} (isotropic), {+-1,+-2} (odd
    # non-isotropic), {+-1,+-1/2} (even)
    for spec in ("B(2,1)", "A(0,2)", "B(1,1)^(1)", "A(2,2)^(4)"):
        h = build(spec)
        degree = 3 if h.has_null else None
        roots = h.real_roots(max_height=10, max_degree=degree)
        root_set = set(roots)
        for r in roots:
            ed = h.to_ed(r)
            doubled = _scaled(ed, 2)
            if is_isotropic_ed(h, ed):
                assert not h.contains_ed(doubled), (spec, r)
            elif h.parity_ed(ed) == 1:
                assert h.contains_ed(doubled), (spec, r)
            else:
                assert not h.contains_ed(doubled), (spec, r)
            for k in (3, 4, 5):
                assert not h.contains_ed(_scaled(ed, k)), (spec, r, k)


def test_convert_round_trip():
    for spec in ("A(0,2)", "B(2,1)", "B(1,1)^(1)", "A(2,2)^(4)", "D(2,2)", "C(3)",
                 "C(2)^(1)", "D(2,1)^(1)", "D(2,1;-2)^(1)", "A(1,0)^(1)"):
        h = build(spec)
        degree = 3 if h.has_null else None
        for r in h.real_roots(max_height=7, max_degree=degree):
            assert h.to_alpha(h.to_ed(r)) == r


def test_convert_simple_roots_are_units():
    h = build("B(1,1)")
    assert h.to_alpha(ED((-1,), (1,))) == (1, 0)
    assert h.to_alpha(ED((1,), (0,))) == (0, 1)


def test_convert_rejects_non_lattice():
    h = build("A(0,1)")
    # eps_1 alone is not in the root lattice of sl(1|2)
    with pytest.raises(NotInLatticeError):
        h.to_alpha(ED((1,), (0, 0)))


def test_to_alpha_round_trips_in_integers_on_every_type():
    # the solver rows are integers over one denominator, so every coordinate
    # comes back an int, never a Fraction
    for spec in _PINNED_SPECS:
        h = build(spec)
        for r in h.all_roots(max_height=5):
            back = h.to_alpha(h.to_ed(r))
            assert back == r, (spec, r)
            assert all(type(c) is int for c in back), (spec, r)


def test_to_alpha_rejects_non_integer_coordinates():
    # eps_1 of D(2,1) lies in the span of the simple roots, so it passes the
    # consistency rows, but it is (alpha_2 + alpha_3) / 2
    h = build("D(2,1)")
    with pytest.raises(NotInLatticeError, match="non-integer simple-root coordinates"):
        h.to_alpha(ED((1, 0), (0,)))


def test_null_root_is_positive_combination():
    for spec in ("A(0,1)^(1)", "B(1,1)^(1)", "B(2,2)^(1)", "A(2,2)^(4)", "C(2)^(1)"):
        h = build(spec)
        null = h.null_root()
        assert all(c >= 0 for c in null) and any(c > 0 for c in null)
        assert is_imaginary(h, null)
        assert h.degree_of(null) == 1


def test_roots_have_uniform_sign():
    for spec in ("B(2,1)", "A(2,2)^(4)"):
        h = build(spec)
        for r in h.real_roots(max_height=8, max_degree=3 if h.has_null else None):
            assert all(c >= 0 for c in r) or all(c <= 0 for c in r), (spec, r)


def test_affine_membership_from_finite_part():
    h = build("B(1,1)^(1)")
    for k in (-2, 0, 5):
        assert h.contains_ed(ED((1,), (1,), k))     # finite root, any degree
        assert not h.contains_ed(ED((2,), (0,), k))  # 2eps is not a B(1,1) root
    assert h.contains_ed(ED((0,), (0,), -4))
    assert not h.contains_ed(ED((0,), (0,), 0))


def test_finite_part_and_degree():
    h = build("B(2,2)^(1)")
    r = h.to_alpha(ED((1, 0), (0, -1), 6))
    assert h.degree_of(r) == 6
    assert h.to_ed(r) == ED((1, 0), (0, -1), 6)


def test_positive_real_roots_split():
    h = build("B(1,1)")
    pos = positive_real_roots(h)
    assert len(pos) * 2 == len(h.real_roots())
    for r in pos:
        assert h.is_positive(r)
        assert not h.is_positive(tuple(-c for c in r))


def _scaled(v, k):
    return ED(tuple(k * a for a in v.eps), tuple(k * a for a in v.delta), k * v.null)


def _grid(dim):
    """Vectors with support <= 3 and entries in {+-1, +-2, +-3}."""
    vals = (1, -1, 2, -2, 3, -3)
    for size in range(4):
        for pos in itertools.combinations(range(dim), size):
            for xs in itertools.product(vals, repeat=size):
                v = [0] * dim
                for p, x in zip(pos, xs):
                    v[p] = x
                yield tuple(v)


def test_real_roots_ed_is_the_membership_grid():
    # the enumerators and contains_ed must describe the same finite pattern
    specs = ["B(0,1)", "B(0,2)", "B(1,1)", "B(2,1)", "B(1,2)", "B(3,2)", "C(2)", "C(3)",
             "C(4)", "D(2,1)", "D(2,2)", "D(3,1)", "D(3,2)",
             "A(2,2)^(4)", "A(4,2)^(4)", "A(2,4)^(4)", "A(4,4)^(4)"]
    for spec in specs:
        h = build(spec)
        e = h.eps_dim
        for k in ((0, 1, 3) if h.has_null else (None,)):
            listed = list(h.real_roots_ed(k))
            assert len(listed) == len(set(listed)), (spec, k)
            window = (0,) if k is None else range(-k, k + 1)
            accepted = {ED(c[:e], c[e:], r) for c in _grid(e + h.delta_dim) for r in window}
            accepted = {v for v in accepted if h.is_real_ed(v)}
            assert set(listed) == accepted, (spec, k)


def test_real_roots_lie_in_the_coordinate_box():
    # the bound that root strings scan by: every finite eps/delta coordinate
    # of a real root is in [-B, B], B the type's coord_bound, and some root
    # reaches it (imaginary roots have none nonzero); B is 1 exactly on the
    # A(m,n) and A(m,n)^(1) types
    specs = ["A(0,1)", "A(1,2)", "A(2,1)", "A(0,3)", "B(0,1)", "B(1,1)", "B(2,1)", "B(1,2)",
             "C(2)", "C(3)", "D(2,1)", "D(2,2)", "D(3,1)",
             "D(2,1;1)", "D(2,1;1/2)", "D(2,1;-5/3)", "D(2,1;3)"]
    specs += [s + "^(1)" for s in specs] + ["A(2,2)^(4)", "A(4,2)^(4)", "A(2,4)^(4)", "A(4,4)^(4)"]
    for spec in specs:
        h = build(spec)
        assert h.coord_bound == (1 if h.ctype.family == "A" and h.ctype.twist != "twisted4" else 2), spec
        largest = 0
        for k in ((0, 1, 2) if h.has_null else (None,)):
            listed = list(h.real_roots_ed(k))
            assert listed, (spec, k)
            for v in listed:
                largest = max(largest, *(abs(c) for c in v.eps + v.delta))
        assert largest == h.coord_bound, spec


def test_the_form_is_the_defining_diagonal_form():
    # _gram / _denom gives (alpha_i, alpha_j) in the diagonal form (eps_i,
    # eps_j) = s_i delta_ij, (delta_p, delta_q) = -delta_pq, the null root
    # isotropic, exactly, also when the eps norms are not integers
    for spec in ("A(1,2)", "B(2,1)", "C(3)", "D(2,2)^(1)", "A(2,2)^(4)",
                 "D(2,1;1/2)", "D(2,1;-5/3)^(1)", "D(2,1;3)"):
        h = build(spec)
        e, d = h.eps_dim, h.delta_dim
        units = [ED(tuple(int(i == k) for i in range(e)), (0,) * d) for k in range(e)]
        units += [ED((0,) * e, tuple(int(p == k) for p in range(d))) for k in range(d)]
        norms = list(h.eps_norms) + [Q(-1)] * d
        if h.has_null:
            units.append(ED((0,) * e, (0,) * d, 1))
            norms.append(Q(0))
        for i, u in enumerate(units):
            for j, w in enumerate(units):
                assert form(h, u, w) == (norms[i] if i == j else 0), (spec, i, j)
            assert is_isotropic_ed(h, u) is (norms[i] == 0), (spec, i)
        for i, a in enumerate(h.simple_ed):
            for j, b in enumerate(h.simple_ed):
                assert type(h._gram[i][j]) is int, (spec, i, j)
                assert Q(h._gram[i][j], h._denom) == form(h, a, b), (spec, i, j)


def test_no_query_in_simple_root_coordinates_converts_to_eps_delta(monkeypatch):
    # the members that answer in simple-root coordinates read the gate, the
    # Gram matrix and the null root only: with to_ed raising, every answer
    # is the one it was
    from superroot.catalog import RootSystemHandle

    def answers(h):
        probes = sorted(_membership_probes(h))[:300]
        roots = h.all_roots(max_degree=1) if h.has_null else h.all_roots()
        alphas = [a for a in roots if h.is_real(a) and not h.is_isotropic(a)][:5]
        return (
            [(h.contains(x), h.is_real(x), h.membership(x), h.is_isotropic(x), h.degree_of(x)) for x in probes],
            [h.real_sums(a, probes) for a in roots[:5]],
            [h.pairings(a, roots) for a in alphas],
            h.null_root(), h.real_roots(max_height=4), h.all_roots(max_height=4),
        )

    specs = ("B(1,1)", "D(2,1;1/2)", "A(1,2)^(1)", "C(3)^(1)", "A(2,2)^(4)")
    expected = {spec: answers(build(spec)) for spec in specs}

    def refuse(self, root):
        raise AssertionError("to_ed called")

    monkeypatch.setattr(RootSystemHandle, "to_ed", refuse)
    for spec in specs:
        assert answers(build(spec)) == expected[spec], spec


def test_a_handle_holds_only_its_records_fields():
    # no per-handle state: a handle's attributes are its type record's
    # fields, before and after it has answered queries
    from superroot import catalog

    for spec in ("B(1,1)^(1)", "A(2,2)^(4)", "D(2,1;1/2)"):
        h = build(spec)
        fields = dict(catalog._type_data(h.ctype))
        assert vars(h) == fields, spec
        for x in _membership_probes(h):
            h.membership(x)
            h.is_isotropic(x)
        assert vars(h) == fields, spec


def test_d21_cartan_matrix():
    for a in (Q(1), Q(1, 2), Q(-5, 3), Q(3)):
        h = build(f"D(2,1;{a})")
        assert h.eps_norms == (-(1 + a), 1, a)
        assert h.cartan.matrix == ((0, 1, a), (-1, 2, 0), (-1, 0, 2))


def test_affine_contains_ed_checks_dimensions_once(monkeypatch):
    # one dimension check per affine query; the finite rule runs unchecked
    from superroot.catalog import RootSystemHandle

    checked = []
    original = RootSystemHandle._check_dims

    def counting(self, v):
        checked.append(v)
        return original(self, v)

    monkeypatch.setattr(RootSystemHandle, "_check_dims", counting)
    for spec in ("A(1,2)^(1)", "B(1,1)^(1)", "C(3)^(1)", "D(2,2)^(1)", "D(2,1;1/2)^(1)"):
        h, finite = build(spec), build(spec.removesuffix("^(1)"))
        e, d = h.eps_dim, h.delta_dim
        queries = [ED(c[:e], c[e:], r) for c in _grid(e + d) for r in (-2, 0, 1)]
        del checked[:]
        verdicts = [h.contains_ed(v) for v in queries]
        assert len(checked) == len(queries), spec
        for v, verdict in zip(queries, verdicts):
            fin = ED(v.eps, v.delta)
            assert verdict == (finite.contains_ed(fin) if any(v.eps + v.delta)
                               else v.null != 0), (spec, v)


def test_all_roots_lists_the_multiples_of_null_without_asking(monkeypatch):
    # the gate accepts every nonzero multiple of null, so all_roots asks it
    # nothing and lists the same roots
    from superroot.catalog import RootSystemHandle
    from superroot.rootspace import height

    expected = {}
    bounds = ({"max_degree": 2}, {"max_height": 6}, {"max_height": 6, "max_degree": 3})
    for spec in ("A(0,1)^(1)", "B(1,1)^(1)", "A(2,2)^(4)"):
        h = build(spec)
        null = ED((0,) * h.eps_dim, (0,) * h.delta_dim, 1)
        for i, bound in enumerate(bounds):
            d = bound.get("max_degree", bound.get("max_height"))
            multiples = [h.to_alpha(_scaled(null, k)) for k in range(-d, d + 1)
                         if k and h.contains_ed(_scaled(null, k))]
            multiples = [r for r in multiples if height(r) <= bound.get("max_height", height(r))]
            expected[spec, i] = sorted(h.real_roots(**bound) + multiples)
    calls = []
    original = RootSystemHandle._gate
    monkeypatch.setattr(RootSystemHandle, "_gate", lambda self, x: calls.append(x) or original(self, x))
    for (spec, i), roots in expected.items():
        assert build(spec).all_roots(**bounds[i]) == roots, (spec, bounds[i])
    assert calls == []


_MEMO_SPECS = ["A(0,1)", "A(1,2)", "B(0,1)", "B(1,1)", "B(2,1)", "C(3)", "D(2,1)", "D(3,1)",
               "D(2,1;1/2)", "D(2,1;-5/3)"]
_MEMO_SPECS += [s + "^(1)" for s in _MEMO_SPECS] + ["A(2,2)^(4)"]


def test_repeated_verdicts_equal_the_reference_rules():
    # first and repeated queries give the reference verdict; a vector of the
    # wrong shape raises on every query
    from superroot.errors import DimensionMismatchError

    for spec in _MEMO_SPECS:
        h = build(spec)
        e, d = h.eps_dim, h.delta_dim
        queries = [ED(c[:e], c[e:], r) for c in _grid(e + d)
                   for r in ((-2, 0, 1) if h.has_null else (0,))]
        expected = [_reference_contains(h, v) for v in queries]
        assert [h.contains_ed(v) for v in queries] == expected, spec
        assert [h.contains_ed(v) for v in queries] == expected, spec
        bad = [ED((0,) * (e + 1), (0,) * d), ED((1,) * e, (0,) * (d + 1), 1)]
        if not h.has_null:
            bad.append(ED(queries[1].eps, queries[1].delta, 1))
        for v in bad * 2:
            with pytest.raises(DimensionMismatchError):
                h.contains_ed(v)
        assert [h.contains_ed(v) for v in queries[:50]] == expected[:50], spec


def test_real_sums_refuse_a_beta_of_the_wrong_length():
    from superroot.errors import DimensionMismatchError

    h = build("B(1,1)^(1)")
    for bad in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(DimensionMismatchError):
            h.is_real(bad)
        with pytest.raises(DimensionMismatchError):
            h.real_sums((1, 0, 0), [(0, 1, 0), bad])


def test_pairings_equal_one_pairing_per_beta():
    # every real root pair, affine types to null degree 2; an isotropic alpha
    # is refused for any batch, the empty one included
    for spec in SMALL_CATALOG:
        h = build(spec)
        roots = h.real_roots(max_degree=2)
        for alpha in roots:
            if h.is_isotropic(alpha):
                for betas in (roots, ()):
                    with pytest.raises(IsotropicReflectorError, match="is isotropic"):
                        h.pairings(alpha, betas)
            else:
                assert h.pairings(alpha, roots) == [h.pairing(b, alpha) for b in roots], (spec, alpha)


def test_pairings_name_the_first_beta_whose_pairing_is_not_an_integer():
    # 3 alpha_2 is no root of B(1,1): alpha_2 pairs to 2/3 against it, 3 alpha_2 to 2
    h = build("B(1,1)")
    assert h.pairings((0, 3), [(0, 3), (0, 6)]) == [2, 4]
    message = "pairing of (0, 1) against (0, 3) is 2/3, not an integer"
    for betas in ([(0, 1)], [(0, 3), (0, 1), (0, 2)]):
        with pytest.raises(PairingNotIntegralError, match=re.escape(message)):
            h.pairings((0, 3), betas)
    with pytest.raises(PairingNotIntegralError, match=re.escape(message)):
        h.pairing((0, 1), (0, 3))


def _support(xs):
    return [(i, x) for i, x in enumerate(xs) if x != 0]


def _reference_finite(h, v):
    """The A, osp (B, C, D) and D(2,1;a) rules on the eps and delta entries of v."""
    family = h.ctype.family
    if family == "A":
        se, sd = _support(v.eps), _support(v.delta)
        if len(se) == 2 and not sd:
            return sorted(x for _, x in se) == [-1, 1]
        if len(sd) == 2 and not se:
            return sorted(x for _, x in sd) == [-1, 1]
        if len(se) == 1 and len(sd) == 1:
            return abs(se[0][1]) == 1 and sd[0][1] == -se[0][1]
        return False
    if family == "D21":
        se = _support(v.eps)
        if len(se) == 1:
            return abs(se[0][1]) == 2
        return len(se) == 3 and all(abs(x) == 1 for _, x in se)
    # osp: two entries +-1, +-2 delta_p, and for B (odd M) also +-eps_i, +-delta_p
    sup = _support(v.eps + v.delta)
    if len(sup) == 2:
        return abs(sup[0][1]) == 1 and abs(sup[1][1]) == 1
    if len(sup) == 1:
        i, x = sup[0]
        return (abs(x) == 2 and i >= h.eps_dim) or (abs(x) == 1 and family == "B")
    return False


def _reference_contains(h, v):
    """Membership by clause-by-clause family rules (Kac 1977); v has h's shape."""
    if h.ctype.twist == "twisted4":
        sup, r = _support(v.eps + v.delta), v.null
        if len(sup) == 2:
            return abs(sup[0][1]) == 1 and abs(sup[1][1]) == 1 and r % 2 == 0
        if len(sup) == 1:
            i, x = sup[0]
            return abs(x) == 1 or (abs(x) == 2 and r % 4 == (2 if i < h.eps_dim else 0))
        return not sup and r != 0
    if not h.has_null:
        return v.null == 0 and _reference_finite(h, v)
    if not any(v.eps + v.delta):
        return v.null != 0
    return _reference_finite(h, v)


def test_contains_ed_equals_the_reference_rules():
    specs = _MEMO_SPECS + ["B(3,2)", "D(3,2)", "A(4,2)^(4)", "A(2,4)^(4)"]
    for spec in specs:
        h = build(spec)
        e, d = h.eps_dim, h.delta_dim
        for c in _grid(e + d):
            for r in (range(-5, 6) if h.has_null else (0,)):
                v = ED(c[:e], c[e:], r)
                assert h.contains_ed(v) == _reference_contains(h, v), (spec, v)


_PINNED_FINITE = ["A(0,1)", "A(1,0)", "A(0,2)", "A(1,2)", "A(2,1)", "A(0,3)", "A(1,3)",
                  "B(0,1)", "B(0,2)", "B(1,1)", "B(2,1)", "B(1,2)", "B(2,2)",
                  "C(2)", "C(3)", "C(4)", "D(2,1)", "D(3,1)", "D(2,2)", "D(3,2)",
                  "D(2,1;1/2)", "D(2,1;-5/3)", "D(2,1;2)"]
_PINNED_SPECS = (_PINNED_FINITE + [s + "^(1)" for s in _PINNED_FINITE]
                 + ["A(2,2)^(4)", "A(4,2)^(4)", "A(2,4)^(4)"])

HANDLE_DIGESTS = {
    "A(0,1)": "f02f83105c6398cb068830612ea3a7fc02c753d2441c399ace368e3bea85fb97",
    "A(1,0)": "e2a492b303962615113a79de3385ee9bb7cad2fd588d2b41dfa4755713f8029e",
    "A(0,2)": "3ffd62ac56fc5bbbf2de7a39b20ff9cacbc8b66c3b298aa4814b0af8742cb805",
    "A(1,2)": "5e7938a95f3dd3bcb302d00ee407c63c372b6b01dc9219a5f963da337283b97c",
    "A(2,1)": "488823e62e4d2b85ef4c04439f3a29c7b57bd695f9a05824e494443df9f0150d",
    "A(0,3)": "fdf7cda34eb515b1921f6503f9bbd7451e275f5e1ec8a2e3f35b9d2cdac7d7ca",
    "A(1,3)": "9506dd01a1fadb3203ff821670a96e6cc413eb3dc492f9ad8b7d120f2ac2c8a7",
    "B(0,1)": "8787e2fa10e3845fc304d48f77a0d2a456dd03a4188d113274cbed2fb3ae428d",
    "B(0,2)": "ad4d3cfde4290e1e870e0aeada4a771213ade1ee996dbf0cd75ff0db9ccddca4",
    "B(1,1)": "6f41ab9c073fd6e0a301dcfb110b6f7202c6fa8454f1f68a3e247666bcf51297",
    "B(2,1)": "cb54b9cc66ee02350fa18402c88f8e8e5e09223a623d3cfc650571a76cb555b2",
    "B(1,2)": "f13ff02d23417be02b93d485db68d25da7aef0d174142b865435e149af9449b5",
    "B(2,2)": "a4420acd9715d08583c45af9aaff76cdb378dfb1fb9776c817b1fdfbefa07c77",
    "C(2)": "30979fab0d8303c52d0883477dfb4b7c592465c14bda617e64991ff2b50d3056",
    "C(3)": "02f4194dd92dd4d111825539860024ce30e9262a5fbaf4566a45292d55f60403",
    "C(4)": "9aabab5e12ec373ffd0b763e232fcfa44b033f8507c921a3abd88e13d1d9eea1",
    "D(2,1)": "3afff247d2e701af686351b4162957ec7f5781184a60adce1cef2c9f4b425a5c",
    "D(3,1)": "6735a0de3675557ef02c9bb1f85082674db62c929dc5f9e5cfdea1024467d38d",
    "D(2,2)": "413a25458b41e00096b01184f3da1c9b5ca5b2518a764178efce3baa53d0b9be",
    "D(3,2)": "e2faa43045ac48053a195a928399db5dbd37c5cf1ffb006691d5ff59121e4877",
    "D(2,1;1/2)": "95517e984029d1c4519910d6ff3841b92ca11c8e1edca5c481f1de63cba657f8",
    "D(2,1;-5/3)": "d2217e428a8fc7a841d359e17f840fbc268632ec394eff49215314c4c2bd54d5",
    "D(2,1;2)": "1d81f14fdb7c9c7c7ef0ef9aae4e19ce5f00f5bcc7112e1e66f8d8aa048aa856",
    "A(0,1)^(1)": "642790642e14e24f029e97f810a2739dcc990a5767b83096965b1f7a043412b8",
    "A(1,0)^(1)": "e119159c411ea8888e7b21005805aadde8198bc0d1e57f5c07385b4a1e6468ee",
    "A(0,2)^(1)": "13f08e656b7fc976e47c1cbf184800068a7ba2da1efa689ee4d35923b92715d1",
    "A(1,2)^(1)": "d010e36ba3d4182be9c100267ff668bc3cbd73a93ff7559cf4d6fcfa8716b86d",
    "A(2,1)^(1)": "adc6aa864bb9796f939826e1fff19b98a6fae9330c0e290b4f18a9678c06020f",
    "A(0,3)^(1)": "f007bb6277f813fc52feb11777654201a0917f6e6212bd911da3b5f29d7f1021",
    "A(1,3)^(1)": "4365c6b57a244bb0ef46ac7d14bc2ae27e466c2e2c148fcf15c02c420f3d6cc4",
    "B(0,1)^(1)": "8458a682cdd92f821e28415c5d07f63a120f5616f20fefc8b7a3c417b8768779",
    "B(0,2)^(1)": "badaa86bef58396ed5737311250d494d826b8b84e508a9bec3534d4efa0c1204",
    "B(1,1)^(1)": "57a077b861214a4d45dbee525d0556ad1330ab0dc43c84da913984414aac22eb",
    "B(2,1)^(1)": "e6f9de9c6ac7e4d52f2b3538bc3857c82da2c60f1100e2f383263412d1a2bd73",
    "B(1,2)^(1)": "fde68efa2698659752106135c8a1de4b0d4b90a8752aeea1f39fadb24fd61592",
    "B(2,2)^(1)": "2cb5751ccad1907af6c9db71bad559b357a9f7471b3b2ae548310f4672c904ac",
    "C(2)^(1)": "d3220928b915f5763bd001f2c23f570e2595b700040fdba72ce1eb117efebf75",
    "C(3)^(1)": "4c09f4e7a011e5ad6674dde4e66362bbe3aca073fe82b1cdbaac2caf890b6ada",
    "C(4)^(1)": "188cbdc52078bbc569a8c664dcf02b3940189365a60f85a1677777ed55c7630f",
    "D(2,1)^(1)": "0f88e4e47aa6133b16dbaed5b1048a62cf917bf9afc1dbc18f29f1fa2975e984",
    "D(3,1)^(1)": "37d1261bb89b818052d5bc53cdb89fbfabf54c0cbde892aae4cc3003eb8351e5",
    "D(2,2)^(1)": "09c7ad081d01b1d568f7bd757bc8f5b9dd60b2766f9e03d21956fe4dba55339a",
    "D(3,2)^(1)": "360414ffd7c3acdfd80fada3c0d13c7378f0574b819fd7417df891a0cb2a0461",
    "D(2,1;1/2)^(1)": "852f1782c5eeee7278169191d5d27da07f61b0cf352ade930eab7018a4f3b5d3",
    "D(2,1;-5/3)^(1)": "039e5a92a30a613260db73dd0dabe11d4ba631621be271970ac8ceb669eb1c6c",
    "D(2,1;2)^(1)": "17fbbe1898567df9a1ee25d21e0ba11bac607b2b6f80bac408ff9d67ff0219ef",
    "A(2,2)^(4)": "dc3c79fcebd9b9c0187e78e08e906a7cb0c01acb87d058500adf2e27f3c2434d",
    "A(4,2)^(4)": "dc1ecd20af2b482a6b764a26d6574441cc5e9b669754cdfdbe0e520a5ac7deb2",
    "A(2,4)^(4)": "7ae085f910977c9c6743f5707452e4d14c323e32e01be220566b38bd3a561858",
}


def _handle_digest(h):
    # the matrix goes through Fraction, the form it was pinned in, so an int
    # entry hashes as the equal Fraction did
    pinned = (
        h.label, h.eps_dim, h.delta_dim,
        tuple(tuple(map(Q, row)) for row in h.cartan.matrix), h.cartan.parity,
        h.simple_ed, h.eps_norms, h.parity_coeffs, h.null_root(),
        h.real_roots(max_height=6), h.all_roots(max_height=4),
    )
    return hashlib.sha256(repr(pinned).encode()).hexdigest()


def _gate_probes(h):
    # finite parts in simple-root coordinates: the box [-1, 1], each real
    # finite part of the index, twice each and each plus a simple root; on an
    # affine type each at every degree up to two periods in size
    finite_rank = h.rank - h.has_null
    parts = {(0,) * h.has_null + c for c in itertools.product((-1, 0, 1), repeat=finite_rank)}
    keys = {f for entry in h._index for f in entry}
    parts |= keys | {tuple(2 * x for x in f) for f in keys}
    parts |= {tuple(map(sum, zip(f, s))) for f in keys for s in h.simple_roots_alpha()}
    if not h.has_null:
        return parts
    period = len(h._index)
    return {tuple(x + d * n for x, n in zip(f, h.null_root()))
            for f in parts for d in range(-2 * period, 2 * period + 1)}


@pytest.mark.parametrize("spec", _PINNED_SPECS)
def test_the_gate_agrees_with_the_table_rule_and_the_form(spec):
    # the gate's (is root, is real, norm) against the family table rule in
    # eps/delta coordinates: real when the finite part is in _table at the
    # degree mod the period, a root when real or a nonzero multiple of null;
    # the norm is D (v, v) in the reference diagonal form
    h = build(spec)
    e, period = h.eps_dim, len(h._table)
    assert len(h._index) == period
    for r, entry in enumerate(h._table):
        assert set(h._index[r]) == {h.to_alpha(ED(f[:e], f[e:])) for f in entry}, (spec, r)
    for x in _gate_probes(h):
        v = h.to_ed(x)
        fin = v.eps + v.delta
        real = fin in h._table[v.null % period]
        root = real or (v.null != 0 and not any(fin))
        assert h._gate(x) == (root, scaled_norm(h, v) if real else None), (spec, x)
        assert h.membership(x) == (root, real), (spec, x)
        assert h.is_isotropic(x) is (form(h, v, v) == 0), (spec, x)
        assert h.degree_of(x) == v.null, (spec, x)
    # an eps/delta vector off the root lattice is no root, nor a real one
    off = [v for v in (ED(c[:e], c[e:]) for c in _grid(e + h.delta_dim)) if not _in_lattice(h, v)]
    assert all(not h.contains_ed(v) and not h.is_real_ed(v) for v in off), spec
    if h.ctype.family == "D21":
        assert ED((1, 0, 0), ()) in off, spec


def _in_lattice(h, v):
    try:
        h.to_alpha(v)
    except NotInLatticeError:
        return False
    return True


def test_handles_match_the_pinned_digests():
    # the public data of every handle, pinned so that a rebuild of the
    # catalog cannot move a root, a sign or a parity unnoticed
    for spec in _PINNED_SPECS:
        assert _handle_digest(build(spec)) == HANDLE_DIGESTS[spec], spec


def test_catalog_matrices_hold_exact_entries():
    # each entry in linalg.exact's form: an int, or a Fraction that is not one
    for spec in _PINNED_SPECS:
        assert all(type(x) is int or (type(x) is Q and x.denominator > 1)
                   for row in build(spec).cartan.matrix for x in row), spec


def test_each_build_constructs_one_handle(monkeypatch):
    # an ^(1) build used to build and keep a whole finite handle first, and
    # each handle ran a second RREF for its rank check and a second
    # symmetrizer; now the RREF and the validation run once per type, the
    # validation asks for no symmetrizer, and a second build of a type only
    # makes its handle
    from collections import Counter

    from superroot import cartan, catalog, linalg

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    catalog._type_data.cache_clear()
    handle_init = catalog.RootSystemHandle.__init__
    monkeypatch.setattr(catalog.RootSystemHandle, "__init__", counted("handle", handle_init))
    monkeypatch.setattr(linalg, "rref", counted("rref", linalg.rref))
    monkeypatch.setattr(catalog, "rref", counted("rref", catalog.rref))
    monkeypatch.setattr(cartan, "symmetrizer", counted("symmetrizer", cartan.symmetrizer))
    monkeypatch.setattr(cartan, "validate", counted("validate", cartan.validate))
    for spec in ("B(1,1)", "B(1,1)^(1)", "A(2,2)^(4)"):
        calls.clear()
        build(spec)
        assert calls == {"handle": 1, "rref": 1, "validate": 1}, spec
        calls.clear()
        build(spec)
        assert calls == {"handle": 1}, spec


def test_a_warm_build_equals_a_cold_build(monkeypatch):
    # a handle on a stored type record has the public data of one built
    # from scratch
    from superroot import catalog

    for spec in _PINNED_SPECS:
        catalog._type_data.cache_clear()
        cold = _handle_digest(build(spec))
        assert catalog._type_data.cache_info().currsize == 1, spec
        assert _handle_digest(build(spec)) == cold, spec
        assert catalog._type_data.cache_info().misses == 1, spec
    # an int parameter is the same type as the equal Fraction and shares its record
    catalog._type_data.cache_clear()
    build(CatalogType("D21", 2, 1, "finite", 2))
    assert _handle_digest(build("D(2,1;2)")) == HANDLE_DIGESTS["D(2,1;2)"]
    assert catalog._type_data.cache_info().misses == 1


def test_a_float_or_bool_root_leaves_the_memo_exact():
    # a float coordinate used to store a float image under the key of the
    # equal int root, and every later query of that int root then raised
    fresh = build("B(1,1)")
    expected = fresh.to_ed((1, 0)), fresh.is_real((1, 0))
    h = build("B(1,1)")
    queries = (h.contains, h.is_real, h.membership, h.is_isotropic, h.degree_of, h.to_ed,
               lambda x: h.real_sums(x, [(0, 1)]), lambda x: h.real_sums((0, 1), [x]),
               lambda x: h.pairings(x, [(0, 1)]), lambda x: h.pairings((0, 1), [x]))
    for bad in ((1.0, 0), (True, 0), (1, Q(0))):
        for query in queries:
            with pytest.raises(NotInLatticeError, match="not an int"):
                query(bad)
    assert (h.to_ed((1, 0)), h.is_real((1, 0))) == expected
    assert all(type(x) is int for x in h.to_ed((1, 0)).coords())


@pytest.mark.parametrize("eps, delta, null", [((1.0,), (1,), 0), ((1,), (True,), 0), ((1,), (Q(1),), 0),
                                               ((1,), (1,), 0.0)],
                         ids=["float-eps", "bool-delta", "fraction-delta", "float-null"])
def test_a_caller_built_vector_with_a_coordinate_that_is_not_an_int_is_refused(eps, delta, null):
    # eps_1 + delta_1 with a float, bool or Fraction coordinate is refused
    # when it is built, so no handle reads it as the lattice vector (1, 2)
    with pytest.raises(NotInLatticeError, match="not an int"):
        ED(eps, delta, null)
    h = build("B(1,1)")
    assert h.to_alpha(ED((1,), (1,))) == (1, 2) and h.contains_ed(ED((1,), (1,)))


def _membership_probes(h):
    # every vector with entries all >= 0 or all <= 0 and height at most 4 in
    # size, zero among them; on an affine type also every root of null degree
    # at most 2, the multiples of null among them, and each such root plus a
    # simple root
    probes = set()
    for v in itertools.product(range(5), repeat=h.rank):
        if sum(v) <= 4:
            probes |= {v, tuple(-x for x in v)}
    if not h.is_finite:
        roots = h.all_roots(max_degree=2)
        probes.update(roots)
        probes.update(tuple(map(sum, zip(r, s))) for r in roots for s in h.simple_roots_alpha())
    return probes


@pytest.mark.parametrize("spec", SMALL_CATALOG)
def test_membership_is_contains_and_is_real(spec):
    h = build(spec)
    answers = set()
    for v in _membership_probes(h):
        answer = h.membership(v)
        assert answer == (h.contains(v), h.is_real(v)), v
        answers.add(answer)
    assert h.membership((0,) * h.rank) == (False, False)
    assert answers == {(True, True), (False, False)} | (set() if h.is_finite else {(True, False)})
    if not h.is_finite:
        null = h.null_root()
        assert all(h.membership(tuple(k * x for x in null)) == (True, False) for k in (-2, -1, 1, 2))


def test_the_type_table_keeps_at_most_TABLE_LIMIT_types(monkeypatch):
    from superroot import catalog

    assert catalog._type_data.cache_info().maxsize == catalog.TABLE_LIMIT
    # the same build in a table of 2: a dropped type is rebuilt to its pinned digest
    small = functools.lru_cache(maxsize=2)(catalog._type_data.__wrapped__)
    monkeypatch.setattr(catalog, "_type_data", small)
    first = _handle_digest(build("B(1,1)"))
    build("A(0,1)^(1)")
    build("A(2,2)^(4)")
    assert small.cache_info().currsize == 2
    assert _handle_digest(build("B(1,1)")) == first == HANDLE_DIGESTS["B(1,1)"]
    assert small.cache_info().misses == 4


def test_a_failing_type_raises_on_every_build(monkeypatch):
    from dataclasses import replace

    from superroot import cartan, catalog

    catalog._type_data.cache_clear()
    for _ in range(2):
        with pytest.raises(UnsupportedTypeError):
            build("A(1,1)")
    # a base that fails validation is not stored either
    validate = cartan.validate
    monkeypatch.setattr(cartan, "validate", lambda cd: replace(validate(cd), regular=False))
    for _ in range(2):
        with pytest.raises(AssertionError, match="failed validation"):
            build("B(1,1)")
    assert catalog._type_data.cache_info().currsize == 0


def test_the_parity_guard_reads_the_parity_functional():
    # every parity query reads the eps/delta parity functional, and the
    # Cartan parities are read off it too, so the two agree on every simple
    # root; a wrong functional changes the pinned HANDLE_DIGESTS
    for spec in _PINNED_SPECS:
        h = build(spec)
        assert [h.parity(r) for r in h.simple_roots_alpha()] == list(h.cartan.parity), spec


def test_real_roots_ed_refuses_a_bad_bound_at_the_call():
    # it was a generator, so a negative bound raised only when iterated
    aff = build("B(1,1)^(1)")
    with pytest.raises(ValueError, match="max_degree must be >= 0"):
        aff.real_roots_ed(-1)
    with pytest.raises(ValueError, match="affine enumeration needs a degree bound"):
        aff.real_roots_ed(None)
    with pytest.raises(ValueError, match="affine enumeration needs max_height or max_degree"):
        aff.real_roots()
    fin = build("B(1,1)")
    assert len(list(fin.real_roots_ed())) == len(fin.real_roots()) == 10
