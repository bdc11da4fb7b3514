"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value here is exact; the time budgets are the stated ones.
Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.
"""

import itertools
import random
import time

import pytest

from superroot import oracle, pisystem as ps, replay, rootstring
from superroot import rootspace as rsp
from superroot.cartan import validate
from superroot.catalog import EpsDeltaVector as ED, build
from support import is_isotropic_ed, positive_real_roots


def _report(name: str, budget: float, started: float, ok: bool, detail: str = ""):
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    print(f"[{name}] {status} in {elapsed:.2f}s (budget {budget:.0f}s) {detail}")
    assert ok, f"{name} failed: {detail}"
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_affine_pair_replay():
    t0 = time.time()
    cert = replay.replay_affine_pair()
    bad = [k for k, v in cert["checks"].items() if not v]
    _report("criterion-1 affine-pair replay", 10, t0, not bad, str(bad))


def test_criterion_2_broken_closure_replay():
    t0 = time.time()
    cert = replay.replay_broken_closure()
    bad = [k for k, v in cert["checks"].items() if not v]
    _report("criterion-2 broken-closure replay", 30, t0, not bad, str(bad))


def _finite_pi_systems(handle, max_size=2):
    positives = positive_real_roots(handle)
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(positives, size):
            sigma = ps.root_set(handle, combo)
            if ps.is_pi_system(sigma).ok:
                yield sigma


def _sampled_affine_pi_systems(handle, count, rng, max_degree=2):
    positives = [r for r in positive_real_roots(handle, max_degree=max_degree)
                 if abs(handle.degree_of(r)) <= max_degree]
    found = []
    seen = set()
    while len(found) < count:
        size = rng.choice((1, 2, 2))
        combo = tuple(sorted(rng.sample(positives, size)))
        if combo in seen:
            continue
        seen.add(combo)
        sigma = ps.root_set(handle, combo)
        if ps.is_pi_system(sigma).ok:
            found.append(sigma)
    return found


@pytest.fixture(scope="module")
def theorem_cases():
    """Criterion-3 inputs with their verdicts, reused by criterion 6."""
    t0 = time.time()
    cases = []
    for spec in ("A(0,1)", "A(0,2)", "B(1,1)"):
        handle = build(spec)
        for sigma in _finite_pi_systems(handle):
            verdict = oracle.verify_theorem_main(sigma)
            cases.append((sigma, verdict, None))
    rng = random.Random(2024)
    affine = build("B(1,1)^(1)")
    for sigma in _sampled_affine_pi_systems(affine, 20, rng):
        verdict = oracle.verify_theorem_main(sigma, loop_degree=3)
        cases.append((sigma, verdict, 3))
    return cases, time.time() - t0


def test_criterion_3_main_theorem_desk_scale(theorem_cases):
    cases, build_seconds = theorem_cases
    t0 = time.time() - build_seconds
    failures = []
    n_finite = n_affine = 0
    for sigma, verdict, window in cases:
        if window is None:
            n_finite += 1
        else:
            n_affine += 1
        if not verdict.ok:
            failures.append((sigma.handle.label, sigma.sorted(), verdict.mismatch()))
    ok = not failures and n_affine >= 20
    _report(
        "criterion-3 main theorem", 300, t0, ok,
        f"{n_finite} finite + {n_affine} affine pi-systems; failures: {failures[:3]}",
    )


def test_criterion_4_root_string_suite():
    t0 = time.time()
    failures = []
    for spec in ("A(0,2)", "B(1,1)", "B(2,1)"):
        rep = rootstring.sweep_strings(build(spec), max_height=8)
        failures += [(spec, f) for f in rep.failures]
    for spec in ("A(0,2)^(1)", "B(1,1)^(1)", "B(2,1)^(1)"):
        rep = rootstring.sweep_strings(build(spec), max_degree=3)
        failures += [(spec, f) for f in rep.failures]
    _report("criterion-4 root strings", 300, t0, not failures, str(failures[:3]))


def _independent_a4_membership(v: ED, k: int, l: int) -> bool:
    # straight clause-by-clause transliteration, kept separate from the
    # catalog implementation on purpose
    eps, dlt, r = list(v.eps), list(v.delta), v.null
    se = [(i, x) for i, x in enumerate(eps) if x]
    sd = [(p, x) for p, x in enumerate(dlt) if x]
    if not se and not sd:
        return r != 0
    if len(se) == 2 and not sd and all(abs(x) == 1 for _, x in se):
        return r % 2 == 0
    if len(sd) == 2 and not se and all(abs(x) == 1 for _, x in sd):
        return r % 2 == 0
    if len(se) == 1 and not sd and abs(se[0][1]) == 1:
        return True
    if len(sd) == 1 and not se and abs(sd[0][1]) == 1:
        return True
    if len(se) == 1 and not sd and abs(se[0][1]) == 2:
        return (r - 2) % 4 == 0
    if len(sd) == 1 and not se and abs(sd[0][1]) == 2:
        return r % 4 == 0
    if len(se) == 1 and len(sd) == 1 and abs(se[0][1]) == 1 and abs(sd[0][1]) == 1:
        return r % 2 == 0
    return False


def test_criterion_5_twisted_conformance():
    t0 = time.time()
    handle = build("A(2,2)^(4)")
    queries = 0
    failures = []

    def check(v: ED):
        nonlocal queries
        queries += 1
        if handle.contains_ed(v) != _independent_a4_membership(v, 1, 1):
            failures.append(v)

    # the three verbatim cases first
    assert handle.contains_ed(ED((2,), (0,), 2))
    assert not handle.contains_ed(ED((2,), (0,), 4))
    v = ED((1,), (1,), 2)
    assert handle.contains_ed(v) and is_isotropic_ed(handle, v) and handle.parity_ed(v) == 1
    for w in (ED((2,), (0,), 2), ED((2,), (0,), 4), v):
        check(w)
    # clause-generated positives and systematic near-misses
    for a in (-2, -1, 0, 1, 2):
        for b in (-2, -1, 0, 1, 2):
            for r in range(-5, 6):
                check(ED((a,), (b,), r))
    rng = random.Random(5)
    while queries < 200:
        check(ED((rng.randint(-4, 4),), (rng.randint(-4, 4),), rng.randint(-9, 9)))
    report = validate(handle.cartan)
    ok = not failures and queries >= 200 and report.admissible and report.regular
    _report("criterion-5 twisted conformance", 10, t0, ok,
            f"{queries} queries; failures {failures[:3]}")


def test_criterion_6_dynkin_round_trip(theorem_cases):
    cases, _ = theorem_cases
    t0 = time.time()
    failures = []
    for sigma, verdict, window in cases:
        handle = sigma.handle
        closure_roots = verdict.closure_roots
        # Pi(Sigma_infinity) = Sigma; on the affine samples the closure is
        # window-restricted, which can clip an out-of-window double, so the
        # minimality engine is used without the closedness gate
        pi = ps.minimal_positive_elements(ps.RootSet(frozenset(closure_roots), handle))
        if set(pi.elements) != set(sigma.elements):
            failures.append(("pi-roundtrip", handle.label, sigma.sorted()))
            continue
        # g(Sigma_infinity) and g(Sigma) have equal spans
        realization = oracle.realize(handle, loop_degree=window)
        gens_sigma = [realization.root_vector(r) for r in sigma]
        gens_sigma += [realization.root_vector(rsp.neg(r)) for r in sigma]
        basis_sigma = oracle.generated_subalgebra(gens_sigma, realization)
        gens_closure = [realization.root_vector(r) for r in closure_roots]
        basis_closure = oracle.generated_subalgebra(gens_closure, realization)
        sig_a = oracle.span_signature(basis_sigma)
        sig_b = oracle.span_signature(basis_closure)
        if sig_a != sig_b:
            failures.append(("span", handle.label, sigma.sorted()))
    _report("criterion-6 Dynkin round trip", 300, t0, not failures, str(failures[:3]))


def test_criterion_7_structural_suites():
    t0 = time.time()
    failures = []

    # Lemma-style admissibility vs ad-nilpotency in finite realizations
    for spec in ("A(0,1)", "A(0,2)", "B(0,1)", "B(1,1)"):
        realization = oracle.realize(spec)
        report = validate(realization.handle.cartan)
        if not report.admissible:
            failures.append(("admissible", spec))
        basis = realization.full_basis()
        dim = basis.dimension()
        for e, f, _ in realization.generators:
            for gen in (e, f):
                g = gen.matrix
                for elem in basis.elements:
                    cur = elem.matrix
                    steps = 0
                    while not cur.is_zero() and steps <= dim:
                        cur = oracle.gm_bracket(g, cur)
                        steps += 1
                    if not cur.is_zero():
                        failures.append(("ad-nilpotency", spec))

    # Pi(Psi) is nonempty on 100 random closed subroot systems
    rng = random.Random(99)
    finite_handles = [build(s) for s in ("A(0,2)", "B(1,1)", "B(2,1)")]
    affine_handles = [build(s) for s in ("B(1,1)^(1)", "B(2,2)^(1)")]
    collected = 0
    attempts = 0
    while collected < 98 and attempts < 4000:
        attempts += 1
        if rng.random() < 0.7:
            handle = rng.choice(finite_handles)
            positives = positive_real_roots(handle)
            bound = None
        else:
            handle = rng.choice(affine_handles)
            positives = positive_real_roots(handle, max_degree=2)
            bound = 60
        seed = rng.sample(positives, rng.randint(1, 2))
        sigma = ps.root_set(handle, seed)
        if not ps.is_pi_system(sigma).ok:
            continue
        closure = ps.closure_S_infinity(sigma, height_bound=bound)
        if not closure.stabilized:
            continue
        collected += 1
        if not ps.pi_of_psi(closure.roots).elements:
            failures.append(("empty-pi", handle.label, sorted(seed)))
    if collected < 98:
        failures.append(("sampling", collected))
    for cert in (replay.replay_affine_pair(), replay.replay_broken_closure()):
        handle = build(cert["type"])
        psi = ps.root_set(handle, cert["roots"])
        if not ps.pi_of_psi(psi).elements:
            failures.append(("empty-pi", cert["example"]))

    # module table against the osp(1,2) realization for k <= 5
    for k in range(6):
        if not oracle.verify_osp12_module(k):
            failures.append(("osp-module", k))

    _report("criterion-7 structural suites", 120, t0, not failures, str(failures[:3]))
