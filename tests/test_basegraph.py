from fractions import Fraction as Q

import pytest

from superroot import basegraph
from superroot import rootspace as rs
from superroot.basegraph import (
    _search,
    enumerate_real_roots,
    even_reflect_base,
    odd_reflect_base,
    principal_roots,
    standard_base,
)
from superroot.cartan import CartanData, normalize, symmetrizer, validate
from superroot.catalog import build
from superroot.errors import (
    IsotropicReflectorError,
    NonRegularBaseError,
    NotIsotropicOddError,
    NotRegularInBaseError,
)
from superroot.rootspace import height
from support import SMALL_CATALOG, bilinear, det, pair, rank


def _sl12():
    return normalize([[0, 1], [-1, 2]], (1, 0))


def test_odd_reflection_sl12():
    cd = _sl12()
    base = odd_reflect_base(standard_base(cd), 0)
    assert set(base.roots) == {(-1, 0), (1, 1)}


def test_odd_reflection_coroot_formula():
    # coroot of alpha_1 + alpha_2 is a_12 h_2 + a_21 h_1 = h_2 - h_1, and
    # -alpha_1 keeps h_1: the new rows pair the new roots with those coroots
    cd = _sl12()
    base = odd_reflect_base(standard_base(cd), 0)
    assert base.roots == ((-1, 0), (1, 1))
    coroots = ((Q(1), Q(0)), (Q(-1), Q(1)))
    assert base.cartan.matrix == tuple(tuple(pair(b, h, cd) for b in base.roots) for h in coroots)


def test_odd_reflection_requires_isotropic_odd():
    cd = _sl12()
    with pytest.raises(NotIsotropicOddError):
        odd_reflect_base(standard_base(cd), 1)  # alpha_2 is even sl2-type


def test_odd_reflection_requires_regularity():
    # the reflector's own row vanishes against entry 1 while the column does not
    cd = normalize([[0, 0], [1, 2]], (1, 0))
    with pytest.raises(NotRegularInBaseError):
        odd_reflect_base(standard_base(cd), 0)


def test_odd_reflection_renormalizes_diagonal():
    for spec in ("B(1,1)", "A(0,2)", "B(2,2)"):
        cd = build(spec).cartan
        base = standard_base(cd)
        for t in range(cd.n):
            if cd.matrix[t][t] == 0 and cd.parity[t] == 1:
                nb = odd_reflect_base(base, t)
                m = nb.cartan.matrix
                assert all(m[i][i] in (0, 2) for i in range(cd.n))


def test_even_reflection_basics():
    cd = normalize([[2, -1], [-1, 2]], (0, 0))
    base = standard_base(cd)
    nb = even_reflect_base(base, 0)
    # s_1(alpha_1) = -alpha_1 and s_1(alpha_2) = alpha_1 + alpha_2
    assert set(nb.roots) == {(-1, 0), (1, 1)}
    # pairing-zero roots are fixed
    cd3 = build("B(2,1)").cartan
    b3 = standard_base(cd3)
    m = b3.cartan.matrix
    for t in range(cd3.n):
        if m[t][t] != 2:
            continue
        nb3 = even_reflect_base(b3, t)
        for u in range(cd3.n):
            if m[t][u] == 0:
                assert nb3.roots[u] == b3.roots[u]


def test_even_reflection_rejects_isotropic():
    cd = _sl12()
    base = standard_base(cd)
    with pytest.raises(IsotropicReflectorError):
        even_reflect_base(base, 0)


def test_even_reflection_refuses_a_non_integral_reflector_row():
    # s(b_1) = b_1 + alpha/2 would leave the root lattice; it came back as
    # ((-1, 0), (1/2, 1)) with no error
    base = standard_base(normalize([[2, Q(-1, 2)], [-1, 2]], (0, 0)))
    with pytest.raises(NonRegularBaseError, match=r"a_\{01\} = -1/2"):
        even_reflect_base(base, 0)
    assert even_reflect_base(base, 1).roots == ((1, 1), (0, -1))


def test_even_reflection_is_involutive():
    cd = build("B(1,1)").cartan
    base = standard_base(cd)
    twice = even_reflect_base(even_reflect_base(base, 1), 1)
    assert twice.roots == base.roots and twice.cartan.matrix == base.cartan.matrix


def test_enumerate_sl12():
    cd = _sl12()
    res = enumerate_real_roots(cd, 4)
    assert set(res.roots) == {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}
    assert res.complete


def test_enumerate_osp12_doubling():
    cd = normalize([[2]], (1,))
    res = enumerate_real_roots(cd, 4)
    assert set(res.roots) == {(1,), (-1,), (2,), (-2,)}


def test_enumerate_contains_plus_minus_simples():
    for spec in ("A(0,2)", "B(2,1)", "D(2,1;2)"):
        cd = build(spec).cartan
        res = enumerate_real_roots(cd, 1)
        units = {tuple(1 if j == i else 0 for j in range(cd.n)) for i in range(cd.n)}
        assert units <= set(res.roots)
        assert {rs.neg(u) for u in units} <= set(res.roots)


def test_enumerate_matches_catalog_finite():
    for spec in ("A(0,1)", "A(0,2)", "A(1,2)", "B(1,1)", "B(2,1)", "C(2)", "D(2,1)",
                 "D(2,1;1/2)", "B(0,2)", "B(1,2)", "C(3)", "D(2,2)"):
        h = build(spec)
        res = enumerate_real_roots(h.cartan, 16)
        assert res.complete, spec
        assert set(res.roots) == set(h.real_roots()), spec


def test_enumerate_matches_catalog_affine_slice():
    for spec in ("A(0,1)^(1)", "B(1,1)^(1)", "A(2,2)^(4)", "C(2)^(1)", "D(2,1;2)^(1)"):
        h = build(spec)
        res = enumerate_real_roots(h.cartan, 8, 13)
        assert not res.complete  # affine runs are best-effort
        catalog = {r for r in h.real_roots(max_height=8)}
        assert set(res.roots) == catalog, spec


def test_enumerate_negation_closed():
    res = enumerate_real_roots(build("B(1,1)^(1)").cartan, 7, 11)
    for r in res.roots:
        assert rs.neg(r) in res.roots


def test_enumerate_rejects_singular_matrix():
    cd = normalize([[0, 1], [0, 2]], (1, 0))
    with pytest.raises(NonRegularBaseError):
        enumerate_real_roots(cd, 3)


def test_exchange_identity():
    # positive roots of a base and its reflection differ by the reflector orbit
    h = build("B(1,1)")
    cd = h.cartan
    all_roots = set(h.real_roots())

    def positives(base):
        cols = [list(r) for r in base.roots]
        out = set()
        for root in all_roots:
            from superroot.linalg import solve
            sol = solve([[Q(cols[j][i]) for j in range(len(cols))] for i in range(len(root))],
                        [Q(c) for c in root])
            if sol is not None and all(x >= 0 for x in sol):
                out.add(root)
        return out

    base = standard_base(cd)
    matrix = base.cartan.matrix
    for t in range(cd.n):
        if matrix[t][t] == 0 and cd.parity[t] == 1:
            nb = odd_reflect_base(base, t)
        else:
            nb = even_reflect_base(base, t)
        alpha = base.roots[t]
        orbit = {alpha, rs.scale(2, alpha)}
        neg_orbit = {rs.neg(a) for a in orbit}
        assert positives(base) - orbit == positives(nb) - neg_orbit, t


def test_compatibility_even_odd():
    # w s_alpha(Sigma) = s_{w alpha} w(Sigma) as root sets, for every pair of
    # an odd isotropic entry alpha and an even reflector w = s_gamma
    for spec in ("B(1,1)", "A(0,2)", "B(2,1)"):
        cd = build(spec).cartan
        base = standard_base(cd)
        matrix = base.cartan.matrix
        odd_idx = [t for t in range(cd.n) if matrix[t][t] == 0 and cd.parity[t] == 1]
        even_idx = [t for t in range(cd.n) if matrix[t][t] == 2]
        for t in odd_idx:
            for u in even_idx:
                # gamma need not be an entry of s_alpha(Sigma): apply s_gamma to
                # each entry by the simple coroot h_u; w keeps the form, so it
                # keeps the matrix of s_alpha(Sigma)
                gamma = base.roots[u]
                h_gamma = tuple(Q(1 if j == u else 0) for j in range(cd.n))
                odd = odd_reflect_base(base, t)
                lhs = tuple(rs.sub(b, rs.scale(int(pair(b, h_gamma, cd)), gamma)) for b in odd.roots)
                # the even reflection acts entrywise, so w(alpha) sits at index t
                rhs = odd_reflect_base(even_reflect_base(base, u), t)
                assert (lhs, odd.cartan.matrix) == (rhs.roots, rhs.cartan.matrix), (spec, t, u)


def test_principal_roots_no_isotropic_simples():
    # with no isotropic simple roots the principal set reads off the diagram
    h = build("B(0,2)")
    cd = h.cartan
    expected = set()
    for i in range(cd.n):
        unit = tuple(1 if j == i else 0 for j in range(cd.n))
        if cd.parity[i] == 0:
            expected.add(unit)
        else:
            expected.add(rs.scale(2, unit))
    result = principal_roots(cd)
    assert result.complete and set(result.roots) == expected


def test_principal_roots_examples():
    assert set(principal_roots(build("A(0,1)").cartan).roots) == {(0, 1)}
    assert set(principal_roots(build("B(0,1)").cartan).roots) == {(2,)}
    assert set(principal_roots(build("B(1,1)").cartan).roots) == {(0, 1), (2, 2)}


def test_principal_roots_affine_closed_graph():
    # the odd-reflection graph of B(1,1)^(1) is finite: the run is certified
    # complete and finds the four even generators of the principal system
    h = build("B(1,1)^(1)")
    result = principal_roots(h.cartan, h_explore=80)
    assert result.complete
    assert set(result.roots) == {(0, 0, 1), (0, 2, 2), (1, 0, 0), (1, 2, 1)}
    for r in result.roots:
        assert h.parity(r) == 0 and h.is_positive(r)


def test_principal_roots_affine_open_graph_best_effort():
    # A(0,1)^(1) has two isotropic simple roots; odd reflections keep shifting
    # bases along the null root, so the graph never closes.  The principal
    # set itself stabilizes: the same two roots at caps 20 and 40.
    h = build("A(0,1)^(1)")
    small = principal_roots(h.cartan, h_explore=20)
    large = principal_roots(h.cartan, h_explore=40)
    assert not small.complete and not large.complete
    assert small.roots == large.roots == frozenset({(0, 0, 1), (1, 1, 0)})
    assert large.bases_visited > small.bases_visited


def test_base_cartan_matches_catalog():
    for spec in ("A(0,2)", "B(2,1)", "A(2,2)^(4)"):
        h = build(spec)
        base = standard_base(h.cartan)
        assert base.cartan.matrix == h.cartan.matrix


def test_coroots_agree_with_bilinear_form():
    # every non-isotropic entry alpha of every reachable base has the row
    # matrix[t][u] = 2 (b_u, alpha) / (alpha, alpha); the base roots span the
    # lattice, so pair(beta, h_alpha) = 2 (beta, alpha) / (alpha, alpha) for all beta
    for spec in ("B(1,1)", "A(0,2)"):
        h = build(spec)
        cd = h.cartan
        d = symmetrizer(cd)
        queue = [standard_base(cd)]
        seen = {queue[0].root_set()}
        while queue:
            base = queue.pop()
            matrix = base.cartan.matrix
            par = base.cartan.parity
            for t in range(base.size):
                alpha = base.roots[t]
                if matrix[t][t] != 2:
                    continue
                aa = bilinear(alpha, alpha, cd, d)
                for u, beta in enumerate(base.roots):
                    assert matrix[t][u] == 2 * bilinear(beta, alpha, cd, d) / aa
            for t in range(base.size):
                if matrix[t][t] == 0 and par[t] == 1:
                    nb = odd_reflect_base(base, t)
                elif matrix[t][t] == 2:
                    nb = even_reflect_base(base, t)
                else:
                    continue
                if nb.root_set() not in seen:
                    seen.add(nb.root_set())
                    queue.append(nb)


# -- the full-build search, kept as the reference for ``_search`` --------------
#
# Every neighbour of every base is built from ``pair`` alone (no carried
# matrix), and every visited base has its matrix recomputed, validated and
# its roots rank-checked.


def _ref_matrix(roots, coroots, cd):
    return tuple(tuple(pair(b, h, cd) for b in roots) for h in coroots)


def _ref_odd(roots, coroots, cd, t):
    alpha, h_alpha = roots[t], coroots[t]
    a_row = [pair(b, h_alpha, cd) for b in roots]
    a_col = [pair(alpha, h, cd) for h in coroots]
    assert a_row[t] == 0 and cd.root_parity(alpha) == 1
    new_roots, new_coroots = [], []
    for u, (beta, h_beta) in enumerate(zip(roots, coroots)):
        if u == t:
            new_roots.append(rs.neg(alpha))
            new_coroots.append(h_alpha)
        elif a_row[u] == 0 and a_col[u] == 0:
            new_roots.append(beta)
            new_coroots.append(h_beta)
        else:
            new_roots.append(rs.add(beta, alpha))
            sign = -1 if cd.root_parity(beta) else 1
            new_coroots.append(tuple(sign * (a_row[u] * hb + a_col[u] * ha)
                                     for hb, ha in zip(h_beta, h_alpha)))
    out = []
    for r, h in zip(new_roots, new_coroots):
        d = pair(r, h, cd)
        out.append(h if d == 0 else tuple(x * 2 / d for x in h))
    return tuple(new_roots), tuple(out)


def _ref_even(roots, coroots, cd, alpha, h_alpha):
    assert pair(alpha, h_alpha, cd) == 2
    new_roots = tuple(rs.sub(b, rs.scale(int(pair(b, h_alpha, cd)), alpha)) for b in roots)
    new_coroots = tuple(tuple(hx - pair(alpha, h, cd) * hax for hx, hax in zip(h, h_alpha))
                        for h in coroots)
    return new_roots, new_coroots


def _ref_neighbors(roots, coroots, cd, odd_only):
    out = []
    for t in range(len(roots)):
        d = pair(roots[t], coroots[t], cd)
        if d == 0 and cd.root_parity(roots[t]) == 1:
            out.append(_ref_odd(roots, coroots, cd, t))
        elif d == 2 and not odd_only:
            out.append(_ref_even(roots, coroots, cd, roots[t], coroots[t]))
    return out


def _ref_validated(roots, coroots, cd):
    matrix = _ref_matrix(roots, coroots, cd)
    report = validate(CartanData(matrix, tuple(cd.root_parity(r) for r in roots)))
    assert report.regular and report.admissible
    assert rank(roots) == len(roots)
    return roots, coroots


def _ref_search(cd, h_explore, odd_only):
    # the simple roots and the simple coroots
    units = [tuple(1 if j == i else 0 for j in range(cd.n)) for i in range(cd.n)]
    start = (tuple(units), tuple(tuple(map(Q, u)) for u in units))
    bases = [_ref_validated(*start, cd)]
    visited = {frozenset(start[0])}
    pruned = False
    for roots, coroots in bases:
        for nb in _ref_neighbors(roots, coroots, cd, odd_only):
            if max(height(r) for r in nb[0]) > h_explore:
                pruned = True
                continue
            if frozenset(nb[0]) not in visited:
                visited.add(frozenset(nb[0]))
                bases.append(_ref_validated(*nb, cd))
    return bases, pruned


# Finite types at a pruning height and at 16, where both searches close;
# affine even searches are always pruned, and some affine odd-only ones close.
# The last case is off the catalog: B(1,1) with its isotropic row scaled by
# 3/2, a gauge that ``normalize`` keeps.
_REFERENCE_CASES = (
    ("A(1,2)", (2, 3, 16)),
    ("B(2,2)", (3, 16)),
    ("C(3)", (2, 16)),
    ("D(2,1;1/2)", (2, 16)),
    ("D(2,1;-5/3)", (3, 16)),
    ("A(0,2)^(1)", (3, 5)),
    ("B(0,1)^(1)", (4, 5)),
    ("B(1,1)^(1)", (4, 6)),
    ("D(2,1;1/2)^(1)", (3, 5)),
    pytest.param(normalize([[0, Q(-3, 2)], [-2, 2]], (1, 0)), (2, 16), id="B(1,1)-row-3/2"),
)


@pytest.mark.parametrize("spec,explores", _REFERENCE_CASES)
def test_search_matches_the_full_build_reference(spec, explores):
    cd = build(spec).cartan if isinstance(spec, str) else spec
    for h_explore in explores:
        for odd_only in (False, True):
            bases, pruned = _search(cd, h_explore, odd_only)
            ref, ref_pruned = _ref_search(cd, h_explore, odd_only)
            assert pruned == ref_pruned, (spec, h_explore, odd_only)
            assert [(b.roots, b.cartan.matrix) for b in bases] == [
                (roots, _ref_matrix(roots, coroots, cd)) for roots, coroots in ref
            ], (spec, h_explore, odd_only)
            search = principal_roots if odd_only else enumerate_real_roots
            res = search(cd, h_explore)
            assert (res.complete, res.bases_visited) == (not ref_pruned, len(ref))


def test_validate_runs_once_per_distinct_matrix(monkeypatch):
    # and the search builds only the bases it visits
    calls = {"validate": [], "built": []}

    def counting(name, fn, record):
        def wrapper(*args):
            result = fn(*args)
            calls[name].append(record(args, result))
            return result
        monkeypatch.setattr(basegraph, fn.__name__, wrapper)

    counting("validate", validate, lambda args, _: (args[0].matrix, args[0].parity))
    counting("built", odd_reflect_base, lambda args, nb: nb.roots)
    counting("built", even_reflect_base, lambda args, nb: nb.roots)
    cd = build("A(3,1)").cartan
    sizes = {}
    for odd_only in (False, True):
        for record in calls.values():
            record.clear()
        bases, _ = _search(cd, 6, odd_only)
        distinct = {(b.cartan.matrix, b.cartan.parity) for b in bases}
        assert len(calls["validate"]) == len(set(calls["validate"])) == len(distinct)
        assert set(calls["validate"]) == distinct
        assert calls["built"] == [b.roots for b in bases[1:]]
        sizes[odd_only] = (len(bases), len(distinct))
    # the 720 bases share the 15 matrices of the odd skeleton
    assert sizes == {False: (720, 15), True: (15, 15)}


def test_every_base_is_unimodular_and_holds_exact_entries():
    # the search runs no rank test: every base it visits has roots of
    # determinant +-1, and each matrix entry is in linalg.exact's form
    from test_catalog import _PINNED_SPECS

    for spec in _PINNED_SPECS:
        cd = build(spec).cartan
        for odd_only in (False, True):
            bases, _ = _search(cd, 6, odd_only)
            for b in bases:
                assert det(b.roots) in (1, -1), (spec, odd_only, b.roots)
                assert all(type(x) is int or (type(x) is Q and x.denominator > 1)
                           for row in b.cartan.matrix for x in row), (spec, odd_only, b.cartan.matrix)


def test_every_base_carries_the_parities_of_its_roots():
    # root_parity on the ambient Cartan data is the reference for the
    # parities that each reflection carries along
    from test_catalog import _PINNED_SPECS

    for spec in _PINNED_SPECS:
        cd = build(spec).cartan
        for h_explore, odd_only in ((4, False), (6, True)):
            bases, _ = _search(cd, h_explore, odd_only)
            for b in bases:
                assert b.cartan.parity == tuple(cd.root_parity(r) for r in b.roots), (spec, b.roots)


def test_even_reflection_keeps_the_very_cartan_data():
    for spec in ("B(1,1)", "B(0,2)", "D(2,1;2)", "A(2,2)^(4)"):
        base = standard_base(build(spec).cartan)
        for t in range(base.size):
            if base.cartan.matrix[t][t] == 2:
                assert even_reflect_base(base, t).cartan is base.cartan, (spec, t)
    # off an admissible base an odd reflector with an odd a_12 flips a parity
    cd = normalize([[2, -1], [-1, 2]], (1, 0))
    nb = even_reflect_base(standard_base(cd), 0)
    assert nb.cartan.parity == tuple(cd.root_parity(r) for r in nb.roots) == (1, 1)


def test_even_reflections_read_the_carried_matrix(monkeypatch):
    # the search reads every pairing from the carried matrices: no pair call
    pairs = []
    builds = {"odd": [], "even": []}

    def counting_pair(*args):
        pairs.append(args)
        return pair(*args)

    def counting(kind, fn):
        def wrapper(*args):
            before = len(pairs)
            nb = fn(*args)
            builds[kind].append(len(pairs) - before)
            return nb
        monkeypatch.setattr(basegraph, fn.__name__, wrapper)

    assert not hasattr(basegraph, "pair")  # so every call would go through rs.pair
    # rootspace defines no pair; a pair brought back there would be counted
    monkeypatch.setattr(rs, "pair", counting_pair, raising=False)
    counting("odd", odd_reflect_base)
    counting("even", even_reflect_base)
    for spec, h_explore in (("A(3,1)", 6), ("B(2,2)^(1)", 6)):
        pairs.clear()
        builds["odd"].clear()
        builds["even"].clear()
        bases, _ = _search(build(spec).cartan, h_explore, odd_only=False)
        assert len(bases) == 1 + len(builds["odd"]) + len(builds["even"]), spec
        assert builds["odd"] and builds["even"], spec
        assert set(builds["odd"] + builds["even"]) == {0} and not pairs, spec


def test_negative_bounds_are_refused():
    cd = build("A(0,1)").cartan
    for call in (lambda: enumerate_real_roots(cd, -1), lambda: enumerate_real_roots(cd, -1, 4),
                 lambda: enumerate_real_roots(cd, 3, -1), lambda: principal_roots(cd, -3)):
        with pytest.raises(ValueError):
            call()


def test_enumerate_rejects_a_matrix_reached_only_by_reflection():
    cd = normalize([[0, -2, 0], [-1, 0, -3], [0, -2, 0]], (1, 1, 1))
    report = validate(cd)
    assert report.regular and report.admissible
    with pytest.raises(NonRegularBaseError) as exc:
        enumerate_real_roots(cd, 4)
    assert [list(row) for row in exc.value.matrix] == [[0, -2, 0], [-1, 2, 3], [0, -2, 0]]


_CATALOG_TYPES = (
    "A(0,1)", "A(0,2)", "A(0,3)", "A(1,2)", "B(0,1)", "B(0,2)", "B(0,3)", "B(1,1)",
    "B(1,2)", "B(1,3)", "B(2,1)", "B(2,2)", "B(3,1)", "C(2)", "C(3)", "C(4)", "D(2,1)",
    "D(2,2)", "D(3,1)", "D(2,1;2)", "D(2,1;1/2)",
    "A(0,1)^(1)", "B(0,1)^(1)", "B(0,2)^(1)", "B(1,1)^(1)", "C(2)^(1)", "A(2,2)^(4)",
)
# the catalog roots of height <= 6 that a search pruned at height 6 misses:
# every path of bases to them passes a base that holds a root above height 6
_PRUNED_MISSES = {
    "B(0,1)^(1)": {(2, 3), (-2, -3)},
    "B(0,2)^(1)": {(1, 2, 3), (-1, -2, -3)},
}


@pytest.mark.parametrize("spec", _CATALOG_TYPES)
def test_search_agrees_with_the_catalog_at_height_6(spec):
    # a complete search finds every catalog root; a pruned one finds only
    # catalog roots, and misses exactly the pinned ones
    h = build(spec)
    res = enumerate_real_roots(h.cartan, 6)
    catalog = set(h.real_roots(max_height=6))
    if res.complete:
        assert set(res.roots) == catalog
    else:
        assert set(res.roots) <= catalog
        assert catalog - set(res.roots) == _PRUNED_MISSES.get(spec, set())


def test_the_search_reports_isotropy_as_the_base_diagonal():
    # a reported root is isotropic exactly when its diagonal entry is 0 in a
    # base that holds it; that agrees with the catalog form and with the
    # symmetrizer form, on every reported root
    isotropic_types = set()
    for spec in SMALL_CATALOG:
        h = build(spec)
        cd, d = h.cartan, symmetrizer(h.cartan)
        res = enumerate_real_roots(cd, 4)
        assert res.isotropic <= res.roots, spec
        assert {rs.neg(r) for r in res.isotropic} == res.isotropic, spec
        assert res.isotropic == {r for r in res.roots if h.is_isotropic(r)}, spec
        assert res.isotropic == {r for r in res.roots if bilinear(r, r, cd, d) == 0}, spec
        assert not principal_roots(cd, 6).isotropic, spec
        if res.isotropic:
            isotropic_types.add(spec)
    assert {"A(0,1)", "D(2,1;3)^(1)", "A(2,2)^(4)"} <= isotropic_types
