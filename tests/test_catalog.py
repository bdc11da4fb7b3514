import itertools
from fractions import Fraction as Q

import pytest

from superroot.catalog import ROOT_COORD_BOUND, CatalogType, EpsDeltaVector as ED, build, parse_type
from superroot.errors import NotInLatticeError, UnsupportedTypeError


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


def test_unsupported_types():
    for bad in ("A(1,1)", "A(2,2)", "B(2,0)", "C(1)", "D(1,1)", "D(2,1;0)",
                "B(2,2)^(4)", "A(1,2)^(4)", "A(2,1)^(4)"):
        with pytest.raises(UnsupportedTypeError):
            build(bad)


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
    assert t.contains_ed(v) and t.is_isotropic_ed(v) and t.parity_ed(v) == 1
    assert t.is_imaginary_ed(ED((0,), (0,), 3))
    assert not t.contains_ed(ED((0,), (0,), 0))


def test_membership_classify_bundle():
    t = build("A(2,2)^(4)")
    rep = t.membership_classify(ED((1,), (1,), 2))
    assert rep.in_delta and rep.real and not rep.imaginary
    assert rep.parity == 1 and rep.isotropic
    rep2 = t.membership_classify(ED((0,), (0,), 3))
    assert rep2.in_delta and rep2.imaginary and not rep2.real
    rep3 = t.membership_classify(ED((2,), (0,), 4))
    assert not rep3.in_delta and rep3.parity is None
    b = build("B(1,1)")
    rep4 = b.membership_classify(ED((1,), (0,)))
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
        doubled = ed.scaled(2)
        if t.parity_ed(ed) == 1 and not t.is_isotropic_ed(ed):
            assert t.contains_ed(doubled), r
        else:
            assert not t.contains_ed(doubled), r


def test_even_real_and_zero_vector():
    h = build("A(2,1)")
    rep = h.membership_classify(ED((1, -1, 0), (0, 0)))
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
            doubled = ed.scaled(2)
            if h.is_isotropic_ed(ed):
                assert not h.contains_ed(doubled), (spec, r)
            elif h.parity_ed(ed) == 1:
                assert h.contains_ed(doubled), (spec, r)
            else:
                assert not h.contains_ed(doubled), (spec, r)
            for k in (3, 4, 5):
                assert not h.contains_ed(ed.scaled(k)), (spec, r, k)


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


def test_null_root_is_positive_combination():
    for spec in ("A(0,1)^(1)", "B(1,1)^(1)", "B(2,2)^(1)", "A(2,2)^(4)", "C(2)^(1)"):
        h = build(spec)
        null = h.null_root()
        assert all(c >= 0 for c in null) and any(c > 0 for c in null)
        assert h.is_imaginary(null)
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
    assert h.finite_part(r) == ED((1, 0), (0, -1), 0)


def test_positive_real_roots_split():
    h = build("B(1,1)")
    pos = h.positive_real_roots()
    assert len(pos) * 2 == len(h.real_roots())
    for r in pos:
        assert h.is_positive(r)
        assert not h.is_positive(tuple(-c for c in r))


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
    # of a real root is in [-2, 2] (imaginary roots have none nonzero)
    specs = ["A(0,1)", "A(1,2)", "A(2,1)", "A(0,3)", "B(0,1)", "B(1,1)", "B(2,1)", "B(1,2)",
             "C(2)", "C(3)", "D(2,1)", "D(2,2)", "D(3,1)",
             "D(2,1;1)", "D(2,1;1/2)", "D(2,1;-5/3)", "D(2,1;3)"]
    specs += [s + "^(1)" for s in specs] + ["A(2,2)^(4)", "A(4,2)^(4)", "A(2,4)^(4)", "A(4,4)^(4)"]
    assert ROOT_COORD_BOUND == 2
    largest = 0
    for spec in specs:
        h = build(spec)
        for k in ((0, 1, 2) if h.has_null else (None,)):
            listed = list(h.real_roots_ed(k))
            assert listed, (spec, k)
            for v in listed:
                assert all(abs(c) <= 2 for c in v.eps + v.delta), (spec, v)
                largest = max(largest, *(abs(c) for c in v.eps + v.delta))
    assert largest == 2


def test_bilinear_ed_is_the_defining_diagonal_form():
    # (eps_i, eps_j) = s_i delta_ij, (delta_p, delta_q) = -delta_pq, the null
    # root isotropic, exactly, also when the eps norms are not integers
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
                value = h.bilinear_ed(u, w)
                assert type(value) is Q and value == (norms[i] if i == j else 0), (spec, i, j)
            assert h.is_isotropic_ed(u) is (norms[i] == 0), (spec, i)


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
        h = build(spec)
        e, d = h.eps_dim, h.delta_dim
        queries = [ED(c[:e], c[e:], r) for c in _grid(e + d) for r in (-2, 0, 1)]
        del checked[:]
        verdicts = [h.contains_ed(v) for v in queries]
        assert len(checked) == len(queries), spec
        for v, verdict in zip(queries, verdicts):
            fin = ED(v.eps, v.delta)
            assert verdict == (h.finite.contains_ed(fin) if any(v.eps + v.delta)
                               else v.null != 0), (spec, v)


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


def test_bounded_tables_keep_their_verdicts(monkeypatch):
    # a stream over the B(1,1)^(1) degree-2 grid: with the tables capped at
    # 8 entries, every answer is that of an unbounded handle
    from superroot import catalog

    unbounded = build("B(1,1)^(1)")
    queries = [ED(c[:1], c[1:], r) for c in _grid(2) for r in range(-2, 3)]
    alpha0 = unbounded.simple_roots_alpha()[0]

    def stream(h):
        out, sizes = [], []
        for v in queries * 2:
            alpha = h.to_alpha(v)
            answers = [h.contains_ed(v), h.contains(alpha), h.is_real(alpha), h.is_imaginary(alpha)]
            if h.is_real(alpha):
                iso = h.is_isotropic(alpha)
                answers += [iso, None if iso else h.pairing(alpha0, alpha)]
            out.append(answers)
            sizes.append(max(len(h._ed_cache), len(h._norms)))
        return out, max(sizes)

    expected, largest = stream(unbounded)
    assert largest > 100
    monkeypatch.setattr(catalog, "TABLE_LIMIT", 8)
    got, largest = stream(build("B(1,1)^(1)"))
    assert got == expected
    assert largest == 8


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
