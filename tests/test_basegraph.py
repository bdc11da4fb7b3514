import math
from fractions import Fraction as Q

import pytest

from superroot import basegraph
from superroot import rootspace as rs
from superroot.basegraph import (
    _search,
    enumerate_real_roots,
    even_reflect_base,
    even_reflect_base_at,
    odd_reflect_base,
    principal_roots,
    standard_base,
)
from superroot.cartan import CartanData, normalize, validate
from superroot.catalog import build
from superroot.errors import (
    IsotropicReflectorError,
    NonRegularBaseError,
    NotIsotropicOddError,
    NotRegularInBaseError,
)
from superroot.linalg import rank
from superroot.rootspace import height, pair


def _sl12():
    return normalize([[0, 1], [-1, 2]], (1, 0))


def test_odd_reflection_sl12():
    cd = _sl12()
    base = odd_reflect_base(standard_base(cd), cd, 0)
    assert set(base.roots) == {(-1, 0), (1, 1)}


def test_odd_reflection_coroot_formula():
    # coroot of alpha_1 + alpha_2 is a_12 h_2 + a_21 h_1 = h_2 - h_1
    cd = _sl12()
    base = odd_reflect_base(standard_base(cd), cd, 0)
    by_root = dict(zip(base.roots, base.coroots))
    assert by_root[(1, 1)] == (Q(-1), Q(1))
    assert by_root[(-1, 0)] == (Q(1), Q(0))  # h_alpha kept for -alpha


def test_odd_reflection_requires_isotropic_odd():
    cd = _sl12()
    with pytest.raises(NotIsotropicOddError):
        odd_reflect_base(standard_base(cd), cd, 1)  # alpha_2 is even sl2-type


def test_odd_reflection_requires_regularity():
    # the reflector's own row vanishes against entry 1 while the column does not
    cd = normalize([[0, 0], [1, 2]], (1, 0))
    with pytest.raises(NotRegularInBaseError):
        odd_reflect_base(standard_base(cd), cd, 0)


def test_odd_reflection_renormalizes_diagonal():
    for spec in ("B(1,1)", "A(0,2)", "B(2,2)"):
        cd = build(spec).cartan
        base = standard_base(cd)
        for t in range(cd.n):
            if cd.matrix[t][t] == 0 and cd.parity[t] == 1:
                nb = odd_reflect_base(base, cd, t)
                m = nb.cartan_matrix(cd)
                assert all(m[i][i] in (0, 2) for i in range(cd.n))


def test_even_reflection_basics():
    cd = normalize([[2, -1], [-1, 2]], (0, 0))
    base = standard_base(cd)
    nb = even_reflect_base_at(base, cd, 0)
    # s_1(alpha_1) = -alpha_1 and s_1(alpha_2) = alpha_1 + alpha_2
    assert set(nb.roots) == {(-1, 0), (1, 1)}
    # pairing-zero roots are fixed
    cd3 = build("B(2,1)").cartan
    b3 = standard_base(cd3)
    m = b3.cartan_matrix(cd3)
    for t in range(cd3.n):
        if m[t][t] != 2:
            continue
        nb3 = even_reflect_base_at(b3, cd3, t)
        for u in range(cd3.n):
            if m[t][u] == 0:
                assert nb3.roots[u] == b3.roots[u]


def test_even_reflection_rejects_isotropic():
    cd = _sl12()
    base = standard_base(cd)
    with pytest.raises(IsotropicReflectorError):
        even_reflect_base(base, cd, base.roots[0], base.coroots[0])


def test_even_reflection_is_involutive():
    cd = build("B(1,1)").cartan
    base = standard_base(cd)
    twice = even_reflect_base_at(even_reflect_base_at(base, cd, 1), cd, 1)
    assert twice.roots == base.roots and twice.coroots == base.coroots


def test_enumerate_sl12():
    cd = _sl12()
    res = enumerate_real_roots(cd, 4)
    assert set(res.roots) == {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}
    assert res.complete_up_to == math.inf


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
        assert res.complete_up_to == math.inf, spec
        assert set(res.roots) == set(h.real_roots()), spec


def test_enumerate_matches_catalog_affine_slice():
    for spec in ("A(0,1)^(1)", "B(1,1)^(1)", "A(2,2)^(4)", "C(2)^(1)", "D(2,1;2)^(1)"):
        h = build(spec)
        res = enumerate_real_roots(h.cartan, 8, 13)
        assert res.complete_up_to is None  # affine runs are best-effort
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
    matrix = base.cartan_matrix(cd)
    for t in range(cd.n):
        if matrix[t][t] == 0 and cd.parity[t] == 1:
            nb = odd_reflect_base(base, cd, t)
        else:
            nb = even_reflect_base_at(base, cd, t)
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
        matrix = base.cartan_matrix(cd)
        odd_idx = [t for t in range(cd.n) if matrix[t][t] == 0 and cd.parity[t] == 1]
        even_idx = [t for t in range(cd.n) if matrix[t][t] == 2]
        for t in odd_idx:
            for u in even_idx:
                gamma, h_gamma = base.roots[u], base.coroots[u]
                lhs = even_reflect_base(odd_reflect_base(base, cd, t), cd, gamma, h_gamma)
                w_sigma = even_reflect_base(base, cd, gamma, h_gamma)
                # the even reflection acts entrywise, so w(alpha) sits at index t
                rhs = odd_reflect_base(w_sigma, cd, t)
                assert set(lhs.roots) == set(rhs.roots), (spec, t, u)


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
        assert base.cartan_matrix(h.cartan) == h.cartan.matrix


def test_coroots_agree_with_bilinear_form():
    # every non-isotropic entry (alpha, h_alpha) of every reachable base
    # satisfies pair(beta, h_alpha) = 2 (beta, alpha) / (alpha, alpha)
    from superroot.cartan import symmetrizer
    from superroot.rootspace import bilinear

    for spec in ("B(1,1)", "A(0,2)"):
        h = build(spec)
        cd = h.cartan
        d = symmetrizer(cd)
        queue = [standard_base(cd)]
        seen = {queue[0].root_set()}
        while queue:
            base = queue.pop()
            matrix = base.cartan_matrix(cd)
            par = base.parities(cd)
            for t in range(base.size):
                alpha, h_alpha = base.roots[t], base.coroots[t]
                if matrix[t][t] != 2:
                    continue
                aa = bilinear(alpha, alpha, cd, d)
                for beta in h.real_roots():
                    assert pair(beta, h_alpha, cd) == 2 * bilinear(beta, alpha, cd, d) / aa
            for t in range(base.size):
                if matrix[t][t] == 0 and par[t] == 1:
                    nb = odd_reflect_base(base, cd, t)
                elif matrix[t][t] == 2:
                    nb = even_reflect_base_at(base, cd, t)
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


def _ref_even(roots, coroots, cd, t):
    alpha, h_alpha = roots[t], coroots[t]
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
            out.append(_ref_even(roots, coroots, cd, t))
    return out


def _ref_validated(roots, coroots, cd):
    matrix = _ref_matrix(roots, coroots, cd)
    report = validate(CartanData(matrix, tuple(cd.root_parity(r) for r in roots)))
    assert report.regular and report.admissible
    assert rank(roots) == len(roots)
    return roots, coroots


def _ref_search(cd, h_explore, odd_only):
    start = standard_base(cd)
    bases = [_ref_validated(start.roots, start.coroots, cd)]
    visited = {frozenset(start.roots)}
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
)


@pytest.mark.parametrize("spec,explores", _REFERENCE_CASES)
def test_search_matches_the_full_build_reference(spec, explores):
    cd = build(spec).cartan
    for h_explore in explores:
        for odd_only in (False, True):
            bases, pruned = _search(cd, h_explore, odd_only)
            ref, ref_pruned = _ref_search(cd, h_explore, odd_only)
            assert pruned == ref_pruned, (spec, h_explore, odd_only)
            assert [(b.roots, b.coroots) for b in bases] == ref, (spec, h_explore, odd_only)
            for b in bases:
                assert b.matrix == _ref_matrix(b.roots, b.coroots, cd)
            if odd_only:
                res = principal_roots(cd, h_explore)
                assert (res.complete, res.bases_visited) == (not ref_pruned, len(ref))
            else:
                res = enumerate_real_roots(cd, h_explore)
                assert res.bases_visited == len(ref)
                assert res.complete_up_to == (None if ref_pruned else math.inf)


def test_validate_runs_once_per_distinct_matrix(monkeypatch):
    # and the search builds only the bases it visits
    calls = {"validate": [], "rank": [], "built": []}

    def counting(name, fn, record):
        def wrapper(*args):
            result = fn(*args)
            calls[name].append(record(args, result))
            return result
        monkeypatch.setattr(basegraph, fn.__name__, wrapper)

    counting("validate", validate, lambda args, _: (args[0].matrix, args[0].parity))
    counting("rank", rank, lambda args, _: tuple(args[0]))
    counting("built", odd_reflect_base, lambda args, nb: nb.roots)
    counting("built", even_reflect_base, lambda args, nb: nb.roots)
    cd = build("A(3,1)").cartan
    sizes = {}
    for odd_only in (False, True):
        for record in calls.values():
            record.clear()
        bases, _ = _search(cd, 6, odd_only)
        distinct = {(b.matrix, b.parities(cd)) for b in bases}
        assert len(calls["validate"]) == len(set(calls["validate"])) == len(distinct)
        assert set(calls["validate"]) == distinct
        assert calls["rank"] == [b.roots for b in bases]
        assert calls["built"] == [b.roots for b in bases[1:]]
        sizes[odd_only] = (len(bases), len(distinct))
    # the 720 bases share the 15 matrices of the odd skeleton
    assert sizes == {False: (720, 15), True: (15, 15)}


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
    if res.complete_up_to == math.inf:
        assert set(res.roots) == catalog
    else:
        assert set(res.roots) <= catalog
        assert catalog - set(res.roots) == _PRUNED_MISSES.get(spec, set())
