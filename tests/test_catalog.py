import itertools
from fractions import Fraction as Q

import pytest

from superroot.catalog import CatalogType, EpsDeltaVector as ED, build, parse_type
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
