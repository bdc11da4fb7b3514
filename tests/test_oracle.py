import hashlib
import random
import re
from fractions import Fraction as Q

import pytest

from superroot import rootspace as rs
from superroot.catalog import EpsDeltaVector as ED, build
from superroot.errors import (InconclusiveError, NotARootError, SuperrootError, TruncationHitError,
                              UnsupportedTypeError)
from superroot.oracle import (
    GradedMatrix,
    WeightedElement,
    bracket_criteria_sweep,
    generated_subalgebra,
    gm_bracket,
    loop_bracket,
    osp12_module_table,
    realize,
    realize_sigma,
    subalgebra_real_roots,
    verify_dynkin_maps,
    verify_osp12_module,
    verify_theorem_main,
)
from superroot.pisystem import closure_S_infinity, is_pi_system, root_set
from support import (by_weight, claim_a_root, dynkin_reference, nullspace, plus, positive_real_roots, rank,
                     recomputed_cartan, super_jacobi_defect, weights)


def _neg(r):
    return tuple(-x for x in r)


def test_graded_matrix_homogeneity_enforced():
    with pytest.raises(ValueError):
        GradedMatrix({(-1, 0): 1}, 0, (0, 1))
    with pytest.raises(ValueError):
        GradedMatrix({(0, 1): Q(1, 2)}, 0, (0, 1))
    with pytest.raises(ValueError):
        GradedMatrix({(0, 2): 1}, 1, (0, 1))
    with pytest.raises(TypeError):
        GradedMatrix({(0, 0): 1.5, (1, 1): 1}, 0, (0, 1))


# Reference: the dense O(d^3) bracket that the sparse one replaced.
def _dense_matmul(a, b):
    d, ea, eb = a.dim, a.entries, b.entries
    return tuple(
        tuple(sum((ea[i][t] * eb[t][j] for t in range(d)), Q(0)) for j in range(d))
        for i in range(d)
    )


def _dense_bracket(a, b):
    sign = -1 if (a.parity and b.parity) else 1
    ab, ba = _dense_matmul(a, b), _dense_matmul(b, a)
    return tuple(tuple(x - sign * y for x, y in zip(r1, r2)) for r1, r2 in zip(ab, ba))


def _random_graded(rng, space, parity):
    values = (Q(1), Q(-1), Q(2), Q(1, 2), Q(-2, 3), Q(5, 4))
    d = len(space)
    nz = {(r, c): rng.choice(values) for r in range(d) for c in range(d)
          if (space[r] ^ space[c]) == parity and rng.random() < 0.4}
    return GradedMatrix(nz, parity, space)


def test_sparse_arithmetic_matches_dense_reference():
    rng = random.Random(11)
    cancelled = 0
    for _ in range(300):
        space = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 5)))
        x = _random_graded(rng, space, rng.randint(0, 1))
        y = _random_graded(rng, space, rng.randint(0, 1))
        for a, b in ((x, y), (x, x), (y, x)):
            br = gm_bracket(a, b)
            dense = br.entries
            assert dense == _dense_bracket(a, b)
            assert br.parity == a.parity ^ b.parity
            ab = _dense_matmul(a, b)
            cancelled += sum(1 for r in range(a.dim) for c in range(a.dim)
                             if ab[r][c] != 0 and dense[r][c] == 0)
        c = rng.choice((Q(0), Q(3), Q(-1, 2)))
        assert x.scaled(c).entries == tuple(tuple(c * v for v in row) for row in x.entries)
        if x.parity == y.parity:
            assert plus(x, y).entries == tuple(
                tuple(u + v for u, v in zip(r1, r2)) for r1, r2 in zip(x.entries, y.entries))
        else:
            with pytest.raises(ValueError):
                plus(x, y)
        assert plus(x, x.scaled(Q(-1))).is_zero()
        # dense and sparse views round-trip, and integral values are ints
        assert x.flat() == tuple(v for row in x.entries for v in row)
        assert GradedMatrix(
            {(i // x.dim, i % x.dim): v for i, v in enumerate(x.flat())}, x.parity, x.space) == x
        for m in (x, br):
            assert all(type(v) is int or v.denominator != 1 for v in m.nz.values())
    assert cancelled > 0


def test_defining_relations():
    for spec in ("A(0,1)", "A(0,2)", "B(0,1)", "B(1,1)", "B(2,1)", "C(2)", "D(2,1)"):
        r = realize(spec)
        n = len(r.generators)
        for i in range(n):
            ei, fi, hi = r.generators[i]
            for j in range(n):
                ej, fj, _ = r.generators[j]
                if i != j:
                    assert loop_bracket(ei, fj, 0).matrix.is_zero(), (spec, i, j)
                # [h_i, e_j] = a_ij e_j
                lhs = loop_bracket(hi, ej, 0)
                rhs = ej.matrix.scaled(r.handle.cartan.matrix[i][j])
                assert (lhs.weight, lhs.matrix) == (ej.weight, rhs), (spec, i, j)


def test_recomputed_cartan_matches_catalog():
    # C(n)^(1) is the interesting affine case: its highest root is isotropic,
    # so the extra node is odd isotropic rather than even
    for spec in ("A(0,1)", "A(1,2)", "B(1,1)", "B(2,2)", "C(3)", "D(2,2)",
                 "A(0,1)^(1)", "B(1,1)^(1)", "C(2)^(1)", "D(2,1)^(1)"):
        r = realize(spec, loop_degree=2 if "^" in spec else None)
        assert recomputed_cartan(r) == r.handle.cartan.matrix, spec


def test_affine_c_family_slice():
    r = realize("C(2)^(1)", loop_degree=2)
    h = r.handle
    assert h.is_isotropic(h.simple_roots_alpha()[0])
    basis = r.full_basis()
    got = {w for w in subalgebra_real_roots(basis, h).elements
           if abs(h.degree_of(w)) <= 2}
    assert got == set(h.real_roots(max_degree=2))


def test_dimensions():
    assert realize("B(0,1)").full_basis().dimension() == 5   # osp(1|2)
    assert realize("A(0,1)").full_basis().dimension() == 8   # sl(1|2)
    assert realize("B(1,1)").full_basis().dimension() == 12  # osp(3|2)
    assert realize("A(0,2)").full_basis().dimension() == 15  # sl(1|3)


def test_full_algebra_roots_match_catalog():
    for spec in ("A(0,1)", "A(0,2)", "B(0,1)", "B(1,1)", "B(2,1)", "C(2)", "D(2,1)",
                 "B(0,2)", "B(1,2)", "B(2,2)", "B(3,1)", "C(3)", "D(2,2)", "D(3,1)"):
        r = realize(spec)
        h = r.handle
        basis = r.full_basis()
        assert not basis.truncated
        assert set(subalgebra_real_roots(basis, h).elements) == set(h.real_roots()), spec
        # every real root space is one-dimensional
        for w in weights(basis):
            if any(w):
                assert len(by_weight(basis, w)) == 1, (spec, w)


def _osp_form(handle):
    """Index weights, parities and even supersymmetric form J of osp(M|2n).

    Indices run +eps_i, -eps_i, the middle index (B only), +delta_p, -delta_p.
    """
    m, n = handle.eps_dim, handle.delta_dim

    def unit(slot, val):
        return tuple(val if k == slot else 0 for k in range(m + n))

    weights = [unit(i, 1) for i in range(m)] + [unit(i, -1) for i in range(m)]
    if handle.ctype.family == "B":
        weights.append((0,) * (m + n))
    even = len(weights)
    weights += [unit(m + p, 1) for p in range(n)] + [unit(m + p, -1) for p in range(n)]
    space = (0,) * even + (1,) * (2 * n)
    J = [[0] * len(space) for _ in space]
    for i in range(m):
        J[i][m + i] = J[m + i][i] = 1
    if handle.ctype.family == "B":
        J[2 * m][2 * m] = 1
    for p in range(n):
        J[even + p][even + n + p] = 1
        J[even + n + p][even + p] = -1
    return weights, space, J


def test_osp_root_vectors_solve_the_invariance_equations():
    # Reference solve: the matrices X of the root's weight and parity with
    # (X^T J)[a][b] + s_a (J X)[a][b] = 0 for all a, b, where s_a = -1 when X
    # and index a are both odd.  The root space is that nullspace.
    for spec in ("B(0,1)", "B(1,1)", "B(0,2)", "B(2,1)", "B(1,2)", "B(2,2)", "B(3,1)",
                 "C(2)", "C(3)", "C(4)", "D(2,1)", "D(2,2)", "D(3,1)", "D(3,2)"):
        r = realize(spec)
        weights, space, J = _osp_form(r.handle)
        assert (list(r.index_weights), r.space) == (weights, space), spec
        d = len(space)
        for v in r.handle.real_roots_ed(None):
            key, parity = v.eps + v.delta, r.handle.parity_ed(v)
            pairs = [(x, c) for x in range(d) for c in range(d)
                     if space[x] ^ space[c] == parity and rs.sub(weights[x], weights[c]) == key]
            rows = []
            for a in range(d):
                s = -1 if parity and space[a] else 1
                for b in range(d):
                    rows.append([Q((c == a) * J[x][b] + (c == b) * s * J[a][x]) for x, c in pairs])
            null = nullspace(rows)
            assert len(null) == 1, (spec, key)
            m = r._root_spaces[key]
            assert m.nz and m.parity == parity and set(m.nz) <= set(pairs), (spec, key)
            assert rank([null[0], [Q(m.nz.get(p, 0)) for p in pairs]]) == 1, (spec, key)


def test_affine_slice_matches_catalog():
    r = realize("B(1,1)^(1)", loop_degree=2)
    h = r.handle
    basis = r.full_basis()
    got = {w for w in subalgebra_real_roots(basis, h).elements
           if abs(h.degree_of(w)) <= 2}
    expected = set(h.real_roots(max_degree=2))
    assert got == expected


def test_rank_one_generated():
    r = realize("B(1,1)")
    h = r.handle
    # non-isotropic rank one inside osp(3|2): eps_1 gives an sl2 triple
    eps = h.to_alpha(ED((1,), (0,)))
    basis = generated_subalgebra(
        [r.root_vector(eps), r.root_vector(_neg(eps))], r
    )
    assert basis.dimension() == 3
    # the odd non-isotropic rank one grows the osp(1,2) five
    delta = h.to_alpha(ED((0,), (1,)))
    basis2 = generated_subalgebra(
        [r.root_vector(delta), r.root_vector(_neg(delta))], r
    )
    assert basis2.dimension() == 5
    assert set(subalgebra_real_roots(basis2, h).elements) == {
        delta, _neg(delta), rs.scale(2, delta), rs.scale(-2, delta)
    }


def test_span_growth_truncation_flags():
    # values of the growth that bracketed both orders of every pair
    h = build("B(0,1)^(1)")
    r = realize(h, loop_degree=1)
    simples = h.simple_roots_alpha()
    gens = [r.root_vector(x) for x in simples] + [r.root_vector(_neg(x)) for x in simples]
    basis = generated_subalgebra(gens, r)
    assert basis.dimension() == 15
    assert basis.truncated is True
    full = realize("B(1,1)^(1)", loop_degree=3).full_basis()
    assert full.dimension() == 84
    assert full.truncated is True


def _counted_span_growth(monkeypatch):
    """Record the arguments of each loop_bracket call made inside span growth.

    Returns the list of (x, y) arguments and the list of bases grown.
    """
    from superroot import oracle

    bracket, growth = oracle.loop_bracket, oracle.generated_subalgebra
    calls, bases, growing = [], [], []

    def counted_bracket(x, y, truncation):
        if growing:
            calls.append((x, y))
        return bracket(x, y, truncation)

    def counted_growth(gens, realization):
        growing.append(True)
        try:
            basis = growth(gens, realization)
        finally:
            growing.pop()
        bases.append(basis)
        return basis

    monkeypatch.setattr(oracle, "loop_bracket", counted_bracket)
    monkeypatch.setattr(oracle, "generated_subalgebra", counted_growth)
    return calls, bases


def _assert_each_pair_bracketed_once(calls, basis):
    index = {id(e): i for i, e in enumerate(basis.elements)}
    pairs = {frozenset((index[id(x)], index[id(y)])) for x, y in calls}
    n = basis.dimension()
    assert len(calls) == len(pairs) == n * (n + 1) // 2


@pytest.mark.parametrize("spec, dim, brackets", [
    ("B(1,1)^(1)", 84, 3570),
    ("B(2,1)^(1)", 161, 13041),
])
def test_span_growth_brackets_each_unordered_pair_once(monkeypatch, spec, dim, brackets):
    r = realize(spec, loop_degree=3)
    calls, _ = _counted_span_growth(monkeypatch)
    basis = r.full_basis()
    assert (basis.dimension(), basis.truncated, len(calls)) == (dim, True, brackets)
    _assert_each_pair_bracketed_once(calls, basis)


def test_span_growth_brackets_each_pair_once_in_the_main_theorem(monkeypatch):
    h = build("A(1,2)")
    calls, bases = _counted_span_growth(monkeypatch)
    assert verify_theorem_main(root_set(h, h.simple_roots_alpha())).ok
    [basis] = bases
    assert (basis.dimension(), basis.truncated) == (24, False)  # sl(2|3)
    _assert_each_pair_bracketed_once(calls, basis)


def _simple_basis(spec, loop_degree=None):
    h = build(spec)
    r = realize(h, loop_degree=loop_degree)
    simples = h.simple_roots_alpha()
    gens = [r.root_vector(x) for x in simples] + [r.root_vector(_neg(x)) for x in simples]
    return generated_subalgebra(gens, r)


# sha256 of (dimension, truncated, sorted span_signature items): pins every
# span the growth reaches, weight by weight, in exact echelon form
SPAN_DIGESTS = {
    "A(0,1)": "af239f1cb6842ba066a88d0bbc8ea542c988385a3c0b56a74db8c164fc564f06",
    "B(0,1)": "bdd79d3cb0313196a29e3326e443c0f44e656e5634bd8c3a86f60f88df2f4883",
    "B(1,1)": "09a6ff306696e3f68f19893697f157588a560d2832fc7b0787f37612daa78873",
    "A(1,2)": "b31003f2da30e9c49cc66ed89bb544852ab6792caa55ea23255f2ac1ceb1cca2",
    "B(0,1)^(1) K=1": "4ad1a229dcb414af432635f9bd89899341c4bbca691a910038fdd02c0d8e7317",
    "A(0,1)^(1) K=2": "c00c27d5fb47d8186e4e3611cc7d5004375e439cd0a0e8ce6528b87e96e84a7d",
    "B(1,1)^(1) full K=3": "fdf2f2f1e663e9aa060a96442f2985aa02e19a21d7daff35d387e194d83e8943",
}


def test_spans_match_the_pinned_digests():
    from superroot.oracle import span_signature

    bases = {
        "A(0,1)": _simple_basis("A(0,1)"),
        "B(0,1)": _simple_basis("B(0,1)"),
        "B(1,1)": _simple_basis("B(1,1)"),
        "A(1,2)": _simple_basis("A(1,2)"),
        "B(0,1)^(1) K=1": _simple_basis("B(0,1)^(1)", 1),
        "A(0,1)^(1) K=2": _simple_basis("A(0,1)^(1)", 2),
        "B(1,1)^(1) full K=3": realize("B(1,1)^(1)", loop_degree=3).full_basis(),
    }
    assert bases["B(0,1)^(1) K=1"].truncated
    for name, basis in bases.items():
        pinned = (basis.dimension(), basis.truncated, sorted(span_signature(basis).items()))
        digest = hashlib.sha256(repr(pinned).encode()).hexdigest()
        assert digest == SPAN_DIGESTS[name], name


def test_generated_subalgebra_empty():
    r = realize("A(0,1)")
    assert generated_subalgebra([], r).dimension() == 0


def test_an_empty_sigma_has_no_loop_window():
    # refused on either kind of type, whether or not a window is given
    for spec in ("B(1,1)", "B(1,1)^(1)"):
        empty = root_set(build(spec), [])
        for loop_degree in (None, 2):
            with pytest.raises(ValueError, match="sigma is empty"):
                realize_sigma(empty, loop_degree)


def test_loop_truncation_rejected_not_dropped():
    r = realize("B(1,1)^(1)", loop_degree=1)
    h = r.handle
    # odd non-isotropic at degree one: the self-bracket is a genuine root
    # vector at degree two, outside the window
    x = r.root_vector(h.to_alpha(ED((0,), (1,), 1)))
    with pytest.raises(TruncationHitError):
        loop_bracket(x, x, 1)


def test_zero_bracket_outside_the_window_is_not_a_hit():
    # an even root vector at degree one commutes with itself: the bracket
    # lands at degree two, outside the window, but is zero, so nothing is lost
    r = realize("B(1,1)^(1)", loop_degree=1)
    x = r.root_vector(r.handle.to_alpha(ED((1,), (0,), 1)))
    br = loop_bracket(x, x, 1)
    assert br.matrix.is_zero() and br.weight[-1] == 2
    basis = generated_subalgebra([x], r)
    assert (basis.dimension(), basis.truncated) == (1, False)


def test_affine_pair_subalgebra():
    # isotropic alpha and its null shift: a seven-dimensional subalgebra whose
    # real roots are exactly the four generators' weights
    r = realize("B(1,1)^(1)", loop_degree=3)
    h = r.handle
    alpha = h.to_alpha(ED((-1,), (1,), 0))
    shifted = h.to_alpha(ED((-1,), (1,), 1))
    roots = [alpha, _neg(alpha), shifted, _neg(shifted)]
    basis = generated_subalgebra([r.root_vector(x) for x in roots], r)
    assert basis.dimension() == 7
    assert not basis.truncated
    assert set(subalgebra_real_roots(basis, h).elements) == set(roots)


def test_verify_theorem_main_finite():
    h = build("A(0,1)")
    verdict = verify_theorem_main(root_set(h, h.simple_roots_alpha()))
    assert verdict.ok and len(verdict.closure_roots) == 6

    o = build("B(0,1)")
    verdict2 = verify_theorem_main(root_set(o, [(1,)]))
    assert verdict2.ok
    assert set(verdict2.closure_roots) == {(1,), (-1,), (2,), (-2,)}


def test_verify_theorem_main_affine_window():
    h = build("B(1,1)^(1)")
    sigma = root_set(h, [
        h.to_alpha(ED((-1,), (1,), 0)),
        h.to_alpha(ED((1,), (0,), 1)),
    ])
    verdict = verify_theorem_main(sigma, loop_degree=3)
    assert verdict.window_degree == 3
    assert verdict.ok, verdict.mismatch()


def test_dynkin_round_trip_size_three():
    # beyond the acceptance grid: every 3-element pi-system of A(0,2) and
    # B(1,1) round-trips through closure, minimal part and oracle spans
    import itertools

    from superroot.oracle import span_signature
    from superroot.pisystem import is_pi_system, pi_of_psi

    for spec in ("A(0,2)", "B(1,1)"):
        h = build(spec)
        r = realize(spec)
        positives = positive_real_roots(h)
        count = 0
        for combo in itertools.combinations(positives, 3):
            sigma = root_set(h, combo)
            if not is_pi_system(sigma).ok:
                continue
            count += 1
            verdict = verify_theorem_main(sigma)
            assert verdict.ok, (spec, combo, verdict.mismatch())
            closure = verdict.closure_roots
            pi = pi_of_psi(root_set(h, closure))
            assert set(pi.elements) == set(combo), (spec, combo)
            gens = [r.root_vector(x) for x in combo]
            gens += [r.root_vector(_neg(x)) for x in combo]
            b_sigma = generated_subalgebra(gens, r)
            b_clo = generated_subalgebra([r.root_vector(x) for x in closure], r)
            assert span_signature(b_sigma) == span_signature(b_clo), (spec, combo)
        if spec == "A(0,2)":
            assert count > 0


def test_verify_theorem_main_whole_affine_base():
    # sigma = the distinguished affine base generates the whole loop algebra;
    # the windowed closure must reproduce every real root in the window
    h = build("A(0,1)^(1)")
    sigma = root_set(h, h.simple_roots_alpha())
    verdict = verify_theorem_main(sigma, loop_degree=2)
    assert verdict.ok, verdict.mismatch()
    expected = {r for r in h.real_roots(max_degree=2)}
    assert set(verdict.subalgebra_roots) == expected


def test_verify_theorem_rejects_non_pi_system():
    h = build("A(0,1)")
    with pytest.raises(ValueError):
        verify_theorem_main(root_set(h, [(1, 0), (1, 1)]))


def test_verify_theorem_main_rejects_a_negative_loop_degree_first(monkeypatch):
    # the window used to be read only by realize, after the closure: the
    # affine case closed at height 11 before it raised, the finite one
    # ignored the value
    from superroot import pisystem

    def refuse(*args, **kwargs):
        raise AssertionError("the closure ran")

    monkeypatch.setattr(pisystem, "closure_S_infinity", refuse)
    monkeypatch.setattr(pisystem, "is_pi_system", refuse)
    for spec, k in (("B(1,1)^(1)", -1), ("B(1,1)", -5)):
        h = build(spec)
        with pytest.raises(ValueError, match="loop_degree"):
            verify_theorem_main(root_set(h, h.simple_roots_alpha()), loop_degree=k)
    monkeypatch.undo()
    h = build("B(1,1)^(1)")
    with pytest.raises(TruncationHitError):
        verify_theorem_main(root_set(h, h.simple_roots_alpha()), loop_degree=0)


def test_the_closure_bound_premise_holds_on_every_untwisted_affine_type():
    # verify_theorem_main bounds an affine closure at (K + 3) ht(null) + 1,
    # which is (K + 2) ht(null) + ht(theta) + 2 because the highest degree-0
    # root theta = null - alpha_0 has height ht(null) - 1
    from test_catalog import _PINNED_SPECS

    specs = [s for s in _PINNED_SPECS if s.endswith("^(1)")]
    assert len(specs) == 23
    for spec in specs:
        h = build(spec)
        top = max(rs.height(r) for r in h.real_roots(max_degree=0))
        assert top == rs.height(h.null_root()) - 1, spec


def test_verify_theorem_main_refuses_an_unrealized_type_before_the_closure(monkeypatch):
    from superroot import pisystem

    closure, calls = pisystem.closure_S_infinity, []

    def counted(*args, **kwargs):
        calls.append(args)
        return closure(*args, **kwargs)

    monkeypatch.setattr(pisystem, "closure_S_infinity", counted)
    for spec in ("A(2,2)^(4)", "D(2,1;2)^(1)"):
        h = build(spec)
        with pytest.raises(UnsupportedTypeError):
            verify_theorem_main(root_set(h, h.simple_roots_alpha()))
    assert not calls


def test_verify_dynkin_refuses_an_unread_loop_degree_before_the_closure(monkeypatch):
    # a --K on a type without a realization, or on a finite type, was echoed
    # back (the first) or refused only after the closure and Pi had run
    from superroot import cli, pisystem

    closure, calls = pisystem.closure_S_infinity, []

    def counted(*args, **kwargs):
        calls.append(args)
        return closure(*args, **kwargs)

    monkeypatch.setattr(pisystem, "closure_S_infinity", counted)
    for spec, sigma in (("A(2,2)^(4)", [(1, 0, 0)]), ("D(2,1;2)^(1)", [(0, 1, 0, 0)]), ("B(1,1)", [(1, 0)])):
        h = build(spec)
        with pytest.raises(ValueError):
            verify_dynkin_maps(root_set(h, sigma), height_bound=6, loop_degree=5)
        argv = ["verify-dynkin", "--type", spec, "--sigma", str([list(r) for r in sigma]),
                "--height", "6", "--K", "5", "--format", "json"]
        assert cli.main(argv) == 2, spec
    assert not calls
    # with no --K an unrealized type still runs and gives no oracle verdict
    h = build("A(2,2)^(4)")
    cert = verify_dynkin_maps(root_set(h, [(1, 0, 0)]), height_bound=6)
    assert cert.pi_roundtrip and cert.oracle_match is None and calls


def test_full_basis_real_weights_match_the_catalog_on_every_realizable_type():
    # the realization's real weights against the catalog's real roots, at
    # every degree of the window K = 1 on the untwisted affine types
    from test_catalog import _PINNED_SPECS

    realized = []
    for spec in _PINNED_SPECS:
        try:
            r = realize(spec, loop_degree=1 if "^" in spec else None)
        except UnsupportedTypeError:
            continue
        realized.append(spec)
        K = r.truncation
        # a weight with a nonzero finite part is real; the others are k null
        real = {w for w in weights(r.full_basis()) if abs(w[-1]) <= K and any(w[:-1])}
        assert real == {v.coords() for v in r.handle.real_roots_ed(K)}, spec
    assert sum("^" not in s for s in realized) == 20
    assert len(realized) == 40


def test_unsupported_realizations():
    with pytest.raises(UnsupportedTypeError):
        realize("A(2,2)^(4)")
    with pytest.raises(UnsupportedTypeError):
        realize("D(2,1;1/2)")


def test_bracket_criteria_full_algebra():
    for spec in ("A(0,1)", "B(1,1)"):
        r = realize(spec)
        basis = r.full_basis()
        report = bracket_criteria_sweep(basis, r.handle, r)
        assert report.ok(), (spec, report)
        assert report.pairs_checked > 0


def test_bracket_criteria_affine_pattern():
    r = realize("B(1,1)^(1)", loop_degree=3)
    h = r.handle
    alpha = h.to_alpha(ED((-1,), (1,), 0))
    shifted = h.to_alpha(ED((-1,), (1,), 1))
    roots = [alpha, _neg(alpha), shifted, _neg(shifted)]
    basis = generated_subalgebra([r.root_vector(x) for x in roots], r)
    report = bracket_criteria_sweep(basis, h, r)
    assert report.ok(), report


def test_bracket_sweep_brackets_each_unordered_pair_once(monkeypatch):
    # the sweep brackets a pair of real roots once, whatever its order, and
    # counts it in both orders: a sweep over ordered pairs is the reference
    from superroot import oracle

    r = realize("B(1,1)^(1)", loop_degree=2)
    basis = r.full_basis()
    elems = oracle._real_elements(basis, r.handle)
    roots = sorted(elems)
    ordered = 0
    for a in roots:
        for b in roots:
            if any(rs.add(a, b)):
                try:
                    loop_bracket(elems[a], elems[b], 2)
                except TruncationHitError:
                    continue
                ordered += 1
    bracket, calls = oracle.loop_bracket, []

    def counted(x, y, truncation):
        calls.append(frozenset((x.weight, y.weight)))
        return bracket(x, y, truncation)

    monkeypatch.setattr(oracle, "loop_bracket", counted)
    report = bracket_criteria_sweep(basis, r.handle, r)
    unordered = sum(1 for i, a in enumerate(roots) for b in roots[i:] if any(rs.add(a, b)))
    assert report.ok() and report.pairs_checked == ordered == 2138
    assert len(calls) == len(set(calls)) == unordered == 1250


def test_bracket_sweep_reports_a_counterexample_in_both_orders(monkeypatch):
    # calling 2 eps_1 = (0, 2) a root of B(1,1) makes the zero brackets of
    # eps_1 with itself and of eps_1 +- delta with each other counterexamples
    r = realize("B(1,1)")
    claim_a_root(monkeypatch, "B(1,1)", (2, 0))
    report = bracket_criteria_sweep(r.full_basis(), r.handle, r)
    assert report.pairs_checked == 90
    assert report.bracket_counterexamples == (
        ((-1, 0), (1, 2), False, True), ((0, 1), (0, 1), False, True), ((1, 2), (-1, 0), False, True))
    assert not report.reflection_counterexamples

    # a span that lost its 2 delta element: the reflections by +-delta
    # send -2 delta to 2 delta, which is no longer there
    monkeypatch.undo()
    basis = r.full_basis()
    basis.elements = [e for e in basis.elements if e.weight != (0, 2, 0)]
    report = bracket_criteria_sweep(basis, r.handle, r)
    assert not report.bracket_counterexamples
    assert report.reflection_counterexamples == (((-1, -1), (-2, -2), (2, 2)), ((1, 1), (-2, -2), (2, 2)))


def test_osp12_module_table_values():
    t0 = osp12_module_table(0)
    assert t0.e.is_zero() and t0.f.is_zero() and t0.h.is_zero()
    t1 = osp12_module_table(1)
    # e v_1 = 2 v_0 (odd index), e v_2 = -2 v_1 (even index)
    assert t1.e.entries[0][1] == 2
    assert t1.e.entries[1][2] == -2
    assert [t1.h.entries[j][j] for j in range(3)] == [2, 0, -2]
    # [e,f] = h as operators
    assert gm_bracket(t1.e, t1.f).entries == t1.h.entries


def test_osp12_module_vs_realization():
    for k in range(6):
        assert verify_osp12_module(k), k


def test_osp12_module_check_rejects_a_wrong_table(monkeypatch):
    # f doubled with h = [e, f] kept consistent: only the structure constants
    # tell this table from the module
    from superroot import oracle

    good = osp12_module_table(1)
    f = good.f.scaled(Q(2))
    bad = oracle.ModuleTable(1, good.e, f, gm_bracket(good.e, f))
    monkeypatch.setattr(oracle, "osp12_module_table", lambda k: bad)
    assert not verify_osp12_module(1)


def test_osp12_module_check_rejects_a_table_whose_e_f_bracket_misses_h(monkeypatch):
    # e doubled alone: the table fails [e, f] = h before any structure constant
    from superroot import oracle

    good = osp12_module_table(2)
    bad = oracle.ModuleTable(2, good.e.scaled(Q(2)), good.f, good.h)
    assert gm_bracket(bad.e, bad.f) != bad.h
    monkeypatch.setattr(oracle, "osp12_module_table", lambda k: bad)
    assert not verify_osp12_module(2)


def test_osp12_module_check_fails_when_a_bracket_leaves_the_span(monkeypatch):
    from superroot import oracle

    monkeypatch.setattr(oracle, "solve", lambda rows, b: None)
    assert not verify_osp12_module(1)


def _zero_at(x):
    """The zero element at x's weight, in x's graded space."""
    return WeightedElement(x.weight, GradedMatrix({}, 0, x.matrix.space))


@pytest.mark.parametrize("target, lie, message", [
    ("_weight_eval", lambda plus, functional, diag: Q(1), "realized Cartan row 0 mismatches the catalog"),
    ("loop_bracket", lambda x, y, truncation: _zero_at(x), "vanishing coroot bracket"),
])
def test_a_realization_that_fails_a_check_is_not_stored(monkeypatch, target, lie, message):
    from superroot import oracle

    oracle._realization_data.cache_clear()
    monkeypatch.setattr(oracle, target, lie)
    for _ in range(2):
        with pytest.raises(AssertionError, match=message):
            realize("B(1,1)")
    assert oracle._realization_data.cache_info().currsize == 0


def test_a_graded_matrix_equals_no_other_kind_of_value():
    m = GradedMatrix({(0, 0): 1}, 0, (0, 1))
    assert m != {(0, 0): 1} and not m == 1 and m == GradedMatrix({(0, 0): 1}, 0, (0, 1))


def test_a_graded_matrix_repr_evaluates_to_an_equal_matrix():
    m = GradedMatrix({(0, 1): Q(1, 2), (1, 0): 3}, 1, (0, 1))
    text = repr(m)
    assert "Fraction(1, 2)" in text
    again = eval(text, {"GradedMatrix": GradedMatrix, "Fraction": Q})
    assert again == m and again.nz == {(0, 1): Q(1, 2), (1, 0): 3}


def test_super_jacobi_random_triples():
    rng = random.Random(7)
    for spec in ("A(0,2)", "B(1,1)", "B(2,1)"):
        r = realize(spec)
        elems = [e.matrix for e in r.full_basis().elements]
        for _ in range(40):
            x, y, z = (rng.choice(elems) for _ in range(3))
            assert super_jacobi_defect(x, y, z).is_zero(), spec


def test_ad_nilpotency():
    # admissibility makes every Chevalley generator act nilpotently
    for spec in ("A(0,1)", "B(1,1)", "B(0,2)"):
        r = realize(spec)
        basis = r.full_basis()
        dim = basis.dimension()
        for e, f, _ in r.generators:
            for gen in (e, f):
                for elem in basis.elements:
                    current = elem.matrix
                    steps = 0
                    while not current.is_zero() and steps <= dim:
                        current = gm_bracket(gen.matrix, current)
                        steps += 1
                    assert current.is_zero(), spec


def test_weight_parity_matches_block_parity():
    # the catalog parity of each subalgebra weight equals the matrix parity
    for spec in ("A(0,2)", "B(2,1)"):
        r = realize(spec)
        h = r.handle
        for elem in r.full_basis().elements:
            if not any(elem.weight):
                assert elem.matrix.parity == 0
                continue
            ed = ED(elem.weight[: h.eps_dim], elem.weight[h.eps_dim:-1], elem.weight[-1])
            assert h.parity_ed(ed) == elem.matrix.parity, (spec, elem.weight)


def test_an_affine_realization_needs_a_loop_degree():
    with pytest.raises(ValueError, match="needs a loop_degree"):
        realize("A(0,1)^(1)")
    assert realize("A(0,1)").truncation == 0


def test_a_finite_realization_refuses_a_loop_degree():
    # a window on a finite type is refused, not dropped, as realize_sigma refuses it
    for spec, k in (("B(1,1)", 5), ("A(0,1)", 0), ("D(2,1;1/2)", 2)):
        with pytest.raises(ValueError, match=rf"{re.escape(spec)} is finite and has no loop_degree, got {k}"):
            realize(spec, loop_degree=k)


def test_negative_loop_degree_is_rejected():
    with pytest.raises(ValueError):
        realize("A(0,1)^(1)", loop_degree=-1)
    with pytest.raises(ValueError):
        realize("A(0,1)", loop_degree=-1)
    # a zero window cannot hold the root vector of alpha_0 = null - theta:
    # that stays a truncation, which the Dynkin certificate reports as no verdict
    with pytest.raises(TruncationHitError):
        realize("A(0,1)^(1)", loop_degree=0)
    h = build("A(0,1)^(1)")
    sigma = root_set(h, [(0, 1, 0)])
    assert h.is_isotropic((0, 1, 0))
    cert = verify_dynkin_maps(sigma, height_bound=4, loop_degree=0)
    assert cert.pi_roundtrip and cert.oracle_match is None


def test_realizations_of_one_type_share_one_record_at_every_window():
    r1 = realize("B(1,1)^(1)", loop_degree=2)
    r2 = realize(build("B(1,1)^(1)"), loop_degree=2)
    assert r1.handle is not r2.handle
    assert r1.generators is r2.generators and r1._root_spaces is r2._root_spaces
    assert all(x is y for g1, g2 in zip(r1.generators, r2.generators) for x, y in zip(g1, g2))
    # another window reads the same record; only the realization's window differs
    r3 = realize("B(1,1)^(1)", loop_degree=3)
    assert r3.generators is r1.generators and r3._root_spaces is r1._root_spaces
    assert (r1.truncation, r3.truncation) == (2, 3)
    assert len({id(realize("B(0,1)^(1)", loop_degree=k).generators) for k in (1, 2, 3)}) == 1
    # root vectors read the caller's handle memo, not a shared one
    alpha0 = r1.handle.simple_roots_alpha()[0]
    r1.handle._images.cache_clear()
    r2.handle._images.cache_clear()
    r1.root_vector(alpha0)
    assert r1.handle._images.cache_info().currsize == 1 and r2.handle._images.cache_info().currsize == 0


def _reachable(obj):
    """Every object that obj refers to, transitively; classes and modules stop the walk."""
    import gc
    import types

    seen, todo = set(), [obj]
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, (type, types.ModuleType)):
            continue
        seen.add(id(x))
        yield x
        todo += gc.get_referents(x)


def test_the_realization_table_holds_no_handle():
    from superroot import oracle
    from superroot.catalog import RootSystemHandle, parse_type

    for spec, k in (("A(0,1)", None), ("B(1,1)^(1)", 1), ("D(2,1)^(1)", 2)):
        realize(build(spec), loop_degree=k).full_basis()
        hits = oracle._realization_data.cache_info().hits
        record = oracle._realization_data(parse_type(spec))
        assert oracle._realization_data.cache_info().hits == hits + 1, spec
        held = list(_reachable(record))
        assert any(isinstance(x, GradedMatrix) for x in held), spec
        assert not any(isinstance(x, RootSystemHandle) for x in held), spec


def test_the_shared_record_cannot_be_mutated():
    from dataclasses import FrozenInstanceError

    r, other = realize("B(1,1)"), realize("B(1,1)")
    x_plus = r.generators[0][0]
    key = x_plus.weight[:-1]
    with pytest.raises(TypeError):
        r.generators[0] = r.generators[1]
    with pytest.raises(TypeError):
        r.generators[0][0] = x_plus
    with pytest.raises(TypeError):
        r._root_spaces[key] = x_plus.matrix
    with pytest.raises(TypeError):
        r._plus_coord[0] = 1
    with pytest.raises(FrozenInstanceError):
        x_plus.matrix = x_plus.matrix.scaled(2)
    with pytest.raises(AttributeError):
        x_plus.matrix.nz = {}
    shared = [x.matrix for triple in r.generators for x in triple] + list(r._root_spaces.values())
    for m in shared:
        with pytest.raises(TypeError):
            m.nz[next(iter(m.nz))] = 7
    # index_weights is the record's tuple
    assert type(r.index_weights) is tuple and r.index_weights is other.index_weights


def test_the_realization_table_keeps_at_most_TABLE_LIMIT_records(monkeypatch):
    import functools

    from superroot import catalog, oracle

    assert oracle._realization_data.cache_info().maxsize == catalog.TABLE_LIMIT
    # the same build in a table of 2: a dropped record is rebuilt equal
    small = functools.lru_cache(maxsize=2)(oracle._realization_data.__wrapped__)
    monkeypatch.setattr(oracle, "_realization_data", small)
    first = realize("B(1,1)").generators
    realize("A(0,1)^(1)", loop_degree=1)
    realize("A(0,1)^(1)", loop_degree=2)
    realize("B(0,1)")
    assert small.cache_info().currsize == 2
    again = realize("B(1,1)").generators
    assert again is not first and again == first
    assert small.cache_info().misses == 4


def test_a_failing_realization_raises_on_every_call(monkeypatch):
    from superroot import oracle

    oracle._realization_data.cache_clear()
    # alpha_0 = null - theta has loop degree 1, outside a zero window; the
    # window is refused before the record is looked up
    for _ in range(2):
        with pytest.raises(TruncationHitError, match="^degree 1 exceeds the window 0$"):
            realize("A(0,1)^(1)", loop_degree=0)
    info = oracle._realization_data.cache_info()
    assert (info.misses, info.currsize) == (0, 0)
    # a realized Cartan row of zeros fails its check and is not stored either
    monkeypatch.setattr(oracle, "_weight_eval", lambda plus, functional, diag: Q(0))
    for _ in range(2):
        with pytest.raises(AssertionError, match="not proportional"):
            realize("B(1,1)")
    assert oracle._realization_data.cache_info().currsize == 0


def test_verify_dynkin_maps_refuses_a_cut_closure():
    h = build("B(1,1)")
    sigma = root_set(h, h.simple_roots_alpha())
    assert verify_dynkin_maps(sigma).ok()
    with pytest.raises(InconclusiveError, match="did not stabilize"):
        verify_dynkin_maps(sigma, height_bound=1)


def test_root_vector_refuses_a_degree_beyond_the_window_and_a_non_root():
    r = realize("B(1,1)^(1)", loop_degree=1)
    null = r.handle.null_root()
    alpha = r.handle.simple_roots_alpha()[1]
    assert r.root_vector(rs.add(null, alpha)).weight[-1] == 1
    with pytest.raises(TruncationHitError):
        r.root_vector(rs.add(rs.scale(2, null), alpha))
    with pytest.raises(NotARootError):
        r.root_vector(null)  # imaginary: no root space in the realization
    with pytest.raises(NotARootError):
        realize("B(1,1)").root_vector((3, 0))


def test_realize_sigma_settles_the_window_once():
    fin, aff = build("B(1,1)"), build("B(1,1)^(1)")
    assert realize_sigma(root_set(fin, [(1, 0)])).truncation == 0
    assert realize_sigma(root_set(aff, [(7, 15, 14)])).truncation == 10  # 7 + 3
    assert realize_sigma(root_set(aff, [(7, 15, 14)]), 2).truncation == 2
    with pytest.raises(ValueError, match="is finite and has no loop_degree"):
        realize_sigma(root_set(fin, [(1, 0)]), 2)
    # a window on a type without a realization is refused as unread; with
    # no window the type itself is unsupported
    for spec, sigma in (("A(2,2)^(4)", [(1, 0, 0)]), ("D(2,1;2)^(1)", [(0, 1, 0, 0)])):
        s = root_set(build(spec), sigma)
        with pytest.raises(ValueError, match="has no realization to read loop_degree 5"):
            realize_sigma(s, 5)
        with pytest.raises(UnsupportedTypeError):
            realize_sigma(s)


def _certificate_cases():
    # seeded pi-systems of one to three positive roots; on the realized
    # affine types each is certified at a given window or at the default one
    rng = random.Random(31)
    cases = []
    for spec, bound in (("B(1,1)", None), ("A(1,2)", None), ("C(3)", 3),
                        ("A(0,1)^(1)", 8), ("B(1,1)^(1)", 8), ("A(2,2)^(4)", 8)):
        h = build(spec)
        pool = [r for r in (h.real_roots() if h.is_finite else h.real_roots(max_height=4)) if h.is_positive(r)]
        windows = (None, 0, 1, 2) if spec.endswith("^(1)") else (None,)
        for i in range(40):
            sigma = root_set(h, rng.sample(pool, rng.choice((1, 2, 3))))
            if is_pi_system(sigma).ok:
                cases.append((sigma, bound, windows[i % len(windows)]))
    return cases


def _outcome(call, *args):
    try:
        return call(*args)
    except SuperrootError as exc:
        return type(exc)


def test_the_certificate_matches_the_two_separate_checks():
    # one pi-system verdict, and on a finite type one closure, give the
    # certificate of the Dynkin check followed by a separate main-theorem check
    seen = {}
    for sigma, bound, window in _certificate_cases():
        cert = _outcome(verify_dynkin_maps, sigma, bound, window)
        if isinstance(cert, type):
            got = cert
        else:
            got = (cert.closure_closed_subroot, cert.pi_roundtrip, cert.oracle_match, cert.closure)
        assert got == _outcome(dynkin_reference, sigma, bound, window), (sigma.sorted(), bound, window)
        kind = got if isinstance(got, type) else got[2]
        seen.setdefault(sigma.handle.label, set()).add(kind)
    assert seen == {"B(1,1)": {True}, "A(1,2)": {True}, "C(3)": {True, InconclusiveError},
                    "A(0,1)^(1)": {True, None, InconclusiveError},
                    "B(1,1)^(1)": {True, None, InconclusiveError},
                    "A(2,2)^(4)": {None, InconclusiveError}}


@pytest.mark.parametrize("spec", ["A(0,1)^(1)", "B(1,1)^(1)", "A(0,2)^(1)", "C(2)^(1)", "B(0,1)^(1)",
                                  "A(1,2)^(1)"])
def test_an_affine_certificate_reads_its_own_closure_as_the_two_checks_do(spec):
    # on a stabilizing pi-system, the certificate's one closure, cut to the
    # window, gives the verdict of a separate main-theorem check at the
    # windows K = dmax and dmax + 1, dmax the largest |degree| in sigma
    rng = random.Random(32)
    h = build(spec)
    pool = [r for r in h.real_roots(max_height=5) if h.is_positive(r)]
    verdicts = []
    for _ in range(40):
        sigma = root_set(h, rng.sample(pool, rng.choice((1, 2, 3))))
        if not is_pi_system(sigma).ok or not closure_S_infinity(sigma, 24).stabilized:
            continue
        dmax = max(abs(h.degree_of(r)) for r in sigma)
        for window in (dmax, dmax + 1):
            cert = verify_dynkin_maps(sigma, 24, window)
            got = (cert.closure_closed_subroot, cert.pi_roundtrip, cert.oracle_match, cert.closure)
            assert got == dynkin_reference(sigma, 24, window), (sigma.sorted(), window)
            verdicts.append(cert.oracle_match)
    assert verdicts.count(True) >= 15, verdicts


def test_a_certificate_checks_sigma_once_and_closes_a_finite_type_once(monkeypatch):
    from superroot import pisystem

    counts = {"is_pi_system": 0, "closure_S_infinity": 0}
    for name in counts:
        def counted(*args, _name=name, _call=getattr(pisystem, name), **kwargs):
            counts[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(pisystem, name, counted)
    for spec in ("B(2,1)", "B(2,2)"):
        h = build(spec)
        counts.update(is_pi_system=0, closure_S_infinity=0)
        assert verify_dynkin_maps(root_set(h, h.simple_roots_alpha())).ok()
        assert counts == {"is_pi_system": 1, "closure_S_infinity": 1}, spec
    # an affine comparison reads the certificate's closure too
    h = build("B(1,1)^(1)")
    counts.update(is_pi_system=0, closure_S_infinity=0)
    cert = verify_dynkin_maps(root_set(h, [h.simple_roots_alpha()[1]]), height_bound=8)
    assert cert.ok() and cert.oracle_match
    assert counts == {"is_pi_system": 1, "closure_S_infinity": 1}


def test_osp12_module_table_checks_k_as_a_bound():
    assert osp12_module_table(0).h.dim == 1
    for k, error in ((True, TypeError), (1.0, TypeError), (None, TypeError), (-1, ValueError)):
        with pytest.raises(error, match="^k must be"):
            osp12_module_table(k)

