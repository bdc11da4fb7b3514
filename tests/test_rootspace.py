from fractions import Fraction as Q

import pytest

from superroot.catalog import EpsDeltaVector as ED, build
from superroot.rootspace import bilinear, height, pair
from superroot.cartan import normalize, symmetrizer
from superroot.errors import IsotropicReflectorError
from support import membership_classify


def _sl12():
    return normalize([[0, 1], [-1, 2]], (1, 0))


def test_pair_reads_matrix_entry():
    cd = normalize([[2, -1], [-1, 2]], (0, 0))
    assert pair((0, 1), (Q(1), Q(0)), cd) == Q(-1)  # a_12
    assert pair((1, 0), (Q(1), Q(0)), cd) == Q(2)


def test_pair_double_sum():
    # (alpha_1 + alpha_2)(h_1 + h_2) = a_11 + a_12 + a_21 + a_22 = 2
    cd = normalize([[2, -1], [-1, 2]], (0, 0))
    assert pair((1, 1), (Q(1), Q(1)), cd) == Q(2)


def test_pair_bilinearity():
    cd = _sl12()
    x, y = (2, -1), (0, 3)
    h1, h2 = (Q(1), Q(2)), (Q(-1, 2), Q(0))
    lhs = pair(tuple(a + b for a, b in zip(x, y)), h1, cd)
    assert lhs == pair(x, h1, cd) + pair(y, h1, cd)
    lhs2 = pair(x, tuple(a + b for a, b in zip(h1, h2)), cd)
    assert lhs2 == pair(x, h1, cd) + pair(x, h2, cd)


def test_bilinear_isotropy_of_odd_simple():
    cd = _sl12()
    d = symmetrizer(cd)
    assert bilinear((1, 0), (1, 0), cd, d) == 0
    assert bilinear((1, 0), (0, 1), cd, d) == bilinear((0, 1), (1, 0), cd, d)


_SMALL_FINITE = (
    "A(0,1)", "A(1,0)", "A(0,2)", "A(2,0)",
    "B(0,1)", "B(1,1)", "B(0,2)", "B(2,1)", "B(1,2)", "B(0,3)",
    "C(2)", "C(3)", "D(2,1)",
    "D(2,1;1)", "D(2,1;1/2)", "D(2,1;-5/3)", "D(2,1;3)",
)
_SMALL_CATALOG = _SMALL_FINITE + tuple(f + "^(1)" for f in _SMALL_FINITE) + ("A(2,2)^(4)",)


def test_bilinear_matches_catalog_form_up_to_scalar():
    # both are invariant forms of an indecomposable type, hence proportional;
    # the catalog's integer form must also give the Cartan form's isotropy and
    # pairings, in exact Fractions
    for spec in _SMALL_CATALOG:
        handle = build(spec)
        cd, d = handle.cartan, symmetrizer(handle.cartan)
        roots = handle.real_roots(max_height=4)
        assert roots, spec
        ratios = set()
        for a in roots:
            aa = bilinear(a, a, cd, d)
            assert handle.is_isotropic(a) is (aa == 0), (spec, a)
            if aa == 0:
                with pytest.raises(IsotropicReflectorError):
                    handle.pairing(a, a)
            for b in roots:
                lhs = bilinear(b, a, cd, d)
                rhs = handle.bilinear(b, a)
                assert type(rhs) is Q, (spec, a, b, rhs)
                if rhs != 0:
                    ratios.add(lhs / rhs)
                else:
                    assert lhs == 0, (spec, a, b)
                if aa != 0:
                    p = handle.pairing(b, a)
                    assert type(p) is Q, (spec, a, b, p)
                    assert p == 2 * lhs / aa, (spec, a, b)
        assert len(ratios) == 1 and 0 not in ratios, (spec, ratios)


def test_classify_isotropic_odd_real():
    handle = build("B(1,1)")
    beta = handle.to_alpha(ED((1,), (-1,)))
    c = membership_classify(handle, handle.to_ed(beta))
    assert c.parity == 1 and c.isotropic and c.real


def test_classify_null_root_imaginary():
    handle = build("B(1,1)^(1)")
    c = membership_classify(handle, handle.to_ed(handle.null_root()))
    assert not c.real
    assert c.parity == 0


def test_classify_even_real_roots_nonisotropic():
    # every even real root is non-isotropic
    for spec in ("A(0,2)", "B(1,1)", "B(2,1)", "B(1,1)^(1)", "A(2,2)^(4)"):
        handle = build(spec)
        for r in handle.real_roots(max_height=8, max_degree=2 if handle.has_null else None):
            c = membership_classify(handle, handle.to_ed(r))
            if c.parity == 0:
                assert not c.isotropic, (spec, r)


def test_classify_rejects_non_roots():
    handle = build("A(0,1)")
    assert membership_classify(handle, handle.to_ed((5, 0))).in_delta is False


def test_parity_symmetric_under_negation():
    handle = build("B(2,1)")
    for r in handle.real_roots():
        assert handle.parity(r) == handle.parity(tuple(-x for x in r))


def test_height():
    assert height((1, -2, 3)) == 6
    assert height(()) == 0


def test_real_nonisotropic_pairing_matches_coroot():
    # 2(beta,alpha)/(alpha,alpha) agrees with the Cartan pairing on simples
    handle = build("B(2,1)")
    cd = handle.cartan
    simples = handle.simple_roots_alpha()
    for i, alpha in enumerate(simples):
        if handle.is_isotropic(alpha):
            continue
        for j, beta in enumerate(simples):
            assert handle.pairing(beta, alpha) == cd.matrix[i][j]
