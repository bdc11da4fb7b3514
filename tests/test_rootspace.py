from fractions import Fraction as Q

import pytest

from superroot.catalog import EpsDeltaVector as ED, build
from superroot.rootspace import check_bound, height
from superroot.cartan import normalize, symmetrizer
from superroot.errors import IsotropicReflectorError, PairingNotIntegralError
from support import SMALL_CATALOG, bilinear, membership_classify, pair


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


def test_bilinear_matches_catalog_form_up_to_scalar():
    # both are invariant forms of an indecomposable type, hence proportional;
    # the catalog's integer form must also give the Cartan form's isotropy and
    # pairings, the form in exact Fractions and the pairings in ints
    for spec in SMALL_CATALOG:
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
                rhs = Q(handle._form(handle.to_ed(b), handle.to_ed(a)), handle._denom)
                assert type(rhs) is Q, (spec, a, b, rhs)
                if rhs != 0:
                    ratios.add(lhs / rhs)
                else:
                    assert lhs == 0, (spec, a, b)
                if aa != 0:
                    p = handle.pairing(b, a)
                    assert type(p) is int, (spec, a, b, p)
                    assert p == 2 * lhs / aa, (spec, a, b)
        assert len(ratios) == 1 and 0 not in ratios, (spec, ratios)


def test_a_non_integral_pairing_raises():
    # 3 alpha_2 is no root of B(1,1), and alpha_2 pairs to 2/3 against it
    handle = build("B(1,1)")
    with pytest.raises(PairingNotIntegralError, match="2/3"):
        handle.pairing((0, 1), (0, 3))


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


def test_check_bound_takes_none_or_a_nonnegative_int():
    for ok in (None, 0, 7):
        check_bound("k", ok)
    for bad in (True, False, 1.5, 2.0, "3"):
        with pytest.raises(TypeError, match="^k must be an int or None"):
            check_bound("k", bad)
    with pytest.raises(ValueError, match=r"^k must be >= 0, got -1$"):
        check_bound("k", -1)


def test_every_bound_is_checked_without_coercion():
    # each call ran before: a float or bool bound was used as it came, and a
    # negative enumeration bound gave an empty list
    from superroot.basegraph import enumerate_real_roots, principal_roots
    from superroot.oracle import realize
    from superroot.pisystem import admits_pi_system, closure_S_infinity, root_set
    from superroot.rootstring import sweep_strings

    aff, fin = build("B(1,1)^(1)"), build("B(1,1)")
    seed = root_set(aff, aff.simple_roots_alpha())
    calls = [
        (TypeError, lambda: realize("B(1,1)^(1)", loop_degree=1.5)),
        (TypeError, lambda: closure_S_infinity(seed, 2.5)),
        (TypeError, lambda: admits_pi_system(root_set(fin, fin.real_roots()), True)),
        (TypeError, lambda: enumerate_real_roots(fin.cartan, True)),
        (TypeError, lambda: principal_roots(fin.cartan, 4.0)),
        (TypeError, lambda: sweep_strings(fin, max_height=1.5)),
        (TypeError, lambda: aff.real_roots(max_degree=1.5)),
        (ValueError, lambda: aff.real_roots(max_height=-1)),
        (ValueError, lambda: aff.real_roots(max_degree=-1)),
        (ValueError, lambda: aff.all_roots(max_height=-2)),
        (ValueError, lambda: list(aff.real_roots_ed(-1))),
    ]
    for error, call in calls:
        with pytest.raises(error, match="must be"):
            call()
