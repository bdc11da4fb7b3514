"""The four benchmark workloads: seeded case lists, the timed call, the cross-check.

A workload is a fixed list of strata.  Each stratum contributes a fixed
number of cases of one cost class, a group of types of similar size at one
kind of window, taking the types in turn; the seed picks the windows, the
D(2,1;a) parameters, the pi-systems and the case order.  Fixing the strata
keeps the mix of cheap and expensive cases the same on every seed, so that
seeds change the inputs but not what the workload measures.

``plan`` needs nothing from superroot, so set-up can time ``import
superroot``.  ``fill`` draws the pi-systems after set-up, on scratch handles
that no case uses.  ``run`` is the only timed call.  ``check`` is the
cross-check that holds on every seed; it returns the canonical result that
the reference digest covers, without work counters such as rounds or bases
visited, which a valid optimization may change.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Case:
    stratum: str
    type_spec: str
    params: dict = field(default_factory=dict)

    def label(self) -> str:
        return f"{self.stratum}:{self.type_spec}:{json.dumps(self.params, sort_keys=True)}"


def _d21(rng: random.Random) -> str:
    while True:
        a = Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 5))
        if a not in (0, -1):
            return f"D(2,1;{a})"


def _type(rng: random.Random, t: str) -> str:
    return _d21(rng) if t == "D(2,1;a)" else t


class Workload:
    name = ""
    # (stratum name, count, types, params drawn per case); a type may come
    # with fixed params as a (type, params) pair
    strata: tuple = ()

    def plan(self, seed: int) -> list[Case]:
        rng = random.Random(f"{self.name}:{seed}")
        cases = []
        for stratum, count, types, draw in self.strata:
            for j in range(count):
                t = types[j % len(types)]
                t, fixed = t if isinstance(t, tuple) else (t, {})
                cases.append(Case(stratum, _type(rng, t), {**fixed, **draw(rng)}))
        rng.shuffle(cases)
        return cases

    def fill(self, sr, cases: list[Case], seed: int) -> None:
        pass

    def run(self, sr, case: Case, handle):
        raise NotImplementedError

    def check(self, sr, case: Case, handle, result) -> tuple[bool, dict]:
        raise NotImplementedError


def _sorted_roots(roots) -> list[list[int]]:
    return [list(r) for r in sorted(roots)]


# ---------------------------------------------------------------------------
# strings: rootstring.sweep_strings over (type, window) cases


class Strings(Workload):
    name = "strings"
    # A pass must be short enough that a run repeats every case six times
    # or more (see run.py), so the heaviest cases here take about 100 ms;
    # finite types saturate at small heights.  The twelve fixed-window cases
    # of fin-large-cut and aff-deg1 (40-110 ms) hold the p90, and the seeded
    # ones stay at or below their low end, so that the p90 does not hinge on
    # the seed.
    strata = (
        ("fin-small", 60, ("A(0,1)", "A(1,0)", "C(2)"),
         lambda r: {"height": r.randint(2, 9)}),
        ("fin-mid", 16, ("A(0,2)", "B(1,1)", "D(2,1)", "D(2,1;a)"),
         lambda r: {"height": r.randint(3, 4)}),
        ("fin-large-cut", 8, tuple((t, {"height": h}) for t in ("A(1,2)", "B(2,1)", "B(1,2)", "C(3)")
                                   for h in (3, 4)),
         lambda r: {}),
        ("aff-deg0", 12, ("A(0,1)^(1)", "B(0,1)^(1)", "C(2)^(1)", "A(2,2)^(4)", "B(1,1)^(1)",
                          "A(0,2)^(1)"),
         lambda r: {"degree": 0}),
        ("aff-deg1", 4, ("A(0,1)^(1)", "B(0,1)^(1)", "C(2)^(1)", "A(2,2)^(4)"),
         lambda r: {"degree": 1}),
    )

    def run(self, sr, case, handle):
        return sr.rootstring.sweep_strings(
            handle, max_height=case.params.get("height"), max_degree=case.params.get("degree"))

    def check(self, sr, case, handle, report):
        canon = {"pairs": report.pairs, "law_counts": report.law_counts,
                 "failures": [list(f) for f in report.failures]}
        return report.ok(), canon


# ---------------------------------------------------------------------------
# closure: is_pi_system, closure_S_infinity, classify_subset, minimal_positive_elements

# type -> height bound of the closures of single-root pi-systems
CLOSURE_TYPES = {
    "B(1,1)^(1)": 12, "A(0,1)^(1)": 12, "A(0,2)^(1)": 10, "A(2,2)^(4)": 10,
    "C(2)^(1)": 10, "B(0,1)^(1)": 12, "A(1,2)^(1)": 8,
}
PI_ROOT_HEIGHT = 4  # pi-systems are made of positive real roots up to this height
RANDOM_PI_HEIGHT = 6  # height bound of the closures of random pi-systems


def _each_root(counts: dict[str, int], **fixed) -> tuple:
    """Strata types for one single-root pi-system per positive real root.

    ``counts`` gives the number of positive real roots up to
    ``PI_ROOT_HEIGHT`` of each type; ``set_sigmas`` fails if one is too large.
    """
    return tuple((t, {"root": i, **fixed}) for t, n in counts.items() for i in range(n))


def set_sigmas(sr, cases: list[Case], seed: int, tag: str) -> None:
    """Turn the pi-system recipe of each case into its roots.

    ``simple``: the distinguished simple base.  ``root``: the i-th positive
    real root.  ``size``: a random pi-system of that many positive real
    roots, drawn from the seed.
    """
    rng = random.Random(f"{tag}:pi:{seed}")
    pools: dict[str, tuple] = {}
    for c in cases:
        if c.type_spec not in pools:
            h = sr.build(c.type_spec)
            pools[c.type_spec] = (h, [r for r in h.real_roots(max_height=PI_ROOT_HEIGHT)
                                      if h.is_positive(r)])
        h, positives = pools[c.type_spec]
        if c.params.pop("simple", False):
            sigma = h.simple_roots_alpha()
        elif "root" in c.params:
            sigma = [positives[c.params.pop("root")]]
        else:
            k = c.params.pop("size")
            for _ in range(10_000):
                sigma = sorted(rng.sample(positives, k))
                if sr.ps.is_pi_system(sr.ps.root_set(h, sigma)).ok:
                    break
            else:
                raise RuntimeError(f"no {k}-element pi-system found in {c.type_spec}")
        c.params["sigma"] = [list(r) for r in sigma]


class Closure(Workload):
    name = "closure"
    _types = tuple(CLOSURE_TYPES)
    # The single-root pi-systems hold the median, and simple bases at fixed
    # height bounds (2-130 ms low, 90-120 ms high) hold the p90, so that
    # neither hinges on which multi-root pi-systems a seed draws.
    _roots = _each_root({"B(1,1)^(1)": 10, "A(0,1)^(1)": 9, "A(0,2)^(1)": 12, "A(2,2)^(4)": 11,
                         "C(2)^(1)": 9, "B(0,1)^(1)": 6, "A(1,2)^(1)": 20})
    _low = tuple((t, {"height": h}) for t in _types for h in (2, 3, 4, 5))
    _high = tuple((t, {"height": h}) for t, h in (
        ("B(1,1)^(1)", 10), ("A(0,1)^(1)", 10), ("C(2)^(1)", 10), ("A(2,2)^(4)", 8),
        ("A(0,2)^(1)", 6)))
    strata = (
        ("pi-1", len(_roots), _roots, lambda r: {}),
        ("simple-low", len(_low), _low, lambda r: {"simple": True}),
        ("simple-high", len(_high), _high, lambda r: {"simple": True}),
        # random pi-systems close at a low height bound, so that they stay
        # below the p90 on every seed
        ("pi-2", 7, _types, lambda r: {"size": 2, "height": RANDOM_PI_HEIGHT}),
        # B(0,1)^(1) has rank 2 and no three-element pi-system
        ("pi-3", 6, tuple(t for t in _types if t != "B(0,1)^(1)"),
         lambda r: {"size": 3, "height": RANDOM_PI_HEIGHT}),
    )

    def plan(self, seed):
        cases = super().plan(seed)
        for c in cases:
            c.params.setdefault("height", CLOSURE_TYPES[c.type_spec])
        return cases

    def fill(self, sr, cases, seed):
        set_sigmas(sr, cases, seed, self.name)

    def run(self, sr, case, handle):
        ps = sr.ps
        sigma = ps.root_set(handle, case.params["sigma"])
        report = ps.is_pi_system(sigma)
        closure = ps.closure_S_infinity(sigma, case.params["height"])
        cls = ps.classify_subset(closure.roots)
        minimal = ps.minimal_positive_elements(closure.roots)
        return sigma, report, closure, cls, minimal

    def check(self, sr, case, handle, result):
        sigma, report, closure, cls, minimal = result
        ok = report.ok and minimal.elements == sigma.elements
        if closure.stabilized:
            ok = ok and cls.closed and cls.symmetric and cls.subroot_system
        canon = {"pi_system": report.ok, "status": closure.status,
                 "closure": _sorted_roots(closure.roots), "minimal": _sorted_roots(minimal),
                 "classification": [cls.symmetric, cls.closed, cls.subroot_system]}
        return ok, canon


# ---------------------------------------------------------------------------
# oracle: verify_theorem_main, and bracket_criteria_sweep on some cases

ORACLE_K = 3  # loop truncation for the affine type


class Oracle(Workload):
    name = "oracle"
    # The single-root pi-systems hold the median and the p90, so that
    # neither hinges on which pi-systems a seed draws: the random two-root
    # pi-systems of A(1,2) (70-140 ms) always lie beyond the p90.  Simple
    # bases of rank 3 and more take 200-750 ms and are left out (see
    # README.md).  Span growth in the loop algebra leaves the window for the
    # B(0,1)^(1) simple base at K=1.
    _roots = (_each_root({"A(0,1)": 3, "A(1,0)": 3, "B(0,1)": 2, "A(0,2)": 3}, brackets=True)
              + _each_root({"A(0,1)": 3, "A(1,0)": 3, "B(0,1)": 2, "A(0,2)": 6, "B(1,1)": 5,
                            "B(0,2)": 6, "A(1,2)": 6, "A(2,1)": 6, "A(0,3)": 5})
              + _each_root({"B(1,1)^(1)": 8}, K=ORACLE_K)
              + tuple(("A(0,1)^(1)", {"root": i, "K": K}) for K in (1, 2, ORACLE_K)
                      for i in range(6))
              + _each_root({"B(0,1)^(1)": 6}, K=2) + _each_root({"B(0,1)^(1)": 6}, K=ORACLE_K))
    _small = ("A(0,1)", "A(1,0)", "B(0,1)")
    strata = (
        ("pi-1", len(_roots), _roots, lambda r: {}),
        ("simple-small", len(_small), _small, lambda r: {"simple": True, "brackets": True}),
        ("simple-plain", len(_small), _small, lambda r: {"simple": True}),
        ("simple-loop", 1, ("B(0,1)^(1)",), lambda r: {"simple": True, "K": 1}),
        ("pi-2", 3, ("A(1,2)",), lambda r: {"size": 2}),
    )

    def fill(self, sr, cases, seed):
        set_sigmas(sr, cases, seed, self.name)

    def run(self, sr, case, handle):
        oracle = sr.oracle
        sigma = sr.ps.root_set(handle, case.params["sigma"])
        K = case.params.get("K")
        verdict = oracle.verify_theorem_main(sigma, loop_degree=K)
        brackets = None
        if case.params.get("brackets"):
            real = oracle.realize(handle, loop_degree=K)
            gens = [real.root_vector(r) for r in sigma]
            gens += [real.root_vector(tuple(-x for x in r)) for r in sigma]
            basis = oracle.generated_subalgebra(gens, real)
            brackets = oracle.bracket_criteria_sweep(basis, handle, real)
        return verdict, brackets

    def check(self, sr, case, handle, result):
        verdict, brackets = result
        ok = verdict.ok and (brackets is None or brackets.ok())
        canon = {"ok": verdict.ok, "window": verdict.window_degree,
                 "status": verdict.closure_status,
                 "closure": _sorted_roots(verdict.closure_roots),
                 "subalgebra": _sorted_roots(verdict.subalgebra_roots)}
        if brackets is not None:
            canon["brackets"] = [brackets.ok(), [list(map(str, c)) for c in brackets.bracket_counterexamples],
                                 [list(map(str, c)) for c in brackets.reflection_counterexamples]]
        return ok, canon


# ---------------------------------------------------------------------------
# basegraph: cli.main real-roots / principal-roots with --format json


class Basegraph(Workload):
    name = "basegraph"
    _fin_small = ("A(0,1)", "A(1,0)", "B(0,1)", "B(1,1)", "B(0,2)", "C(2)")
    _fin_mid = ("A(0,2)", "B(2,1)", "B(1,2)", "C(3)", "D(2,1)", "D(2,1;a)")
    _aff = ("A(0,1)^(1)", "B(0,1)^(1)", "B(1,1)^(1)", "C(2)^(1)", "A(2,2)^(4)")
    strata = (
        ("real-fin-small", 46, _fin_small,
         lambda r: {"cmd": "real-roots", "height": r.randint(5, 9)}),
        # fixed heights: these hold the p90, which must not hinge on the seed
        ("real-fin-mid", 10, _fin_mid, lambda r: {"cmd": "real-roots", "height": 4}),
        # mid-size searches: A(1,2) visits 120 bases, A(0,2)^(1) 57
        ("real-search", 2, (("A(1,2)", {"height": 4}), ("A(0,2)^(1)", {"height": 4, "explore": 5})),
         lambda r: {"cmd": "real-roots"}),
        ("real-aff-4", 5, _aff, lambda r: {"cmd": "real-roots", "height": 4, "explore": 4}),
        ("real-aff-5", 5, _aff, lambda r: {"cmd": "real-roots", "height": 5, "explore": 5}),
        ("principal-fin", 16, _fin_small + _fin_mid,
         lambda r: {"cmd": "principal-roots", "explore": 64}),
        ("principal-aff", 16, _aff + ("A(0,2)^(1)",),
         lambda r: {"cmd": "principal-roots", "explore": 6}),
    )

    @staticmethod
    def argv(case: Case) -> list[str]:
        argv = [case.params["cmd"], "--type", case.type_spec]
        for key in ("height", "explore"):
            if key in case.params:
                argv += [f"--{key}", str(case.params[key])]
        return argv + ["--format", "json"]

    def run(self, sr, case, handle):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sr.cli.main(self.argv(case))
        return code, out.getvalue()

    def check(self, sr, case, handle, result):
        code, stdout = result
        if code != 0:
            return False, {"exit": code}
        cert = json.loads(stdout)
        # the digest covers the results, not the work done or the release
        for key in ("bases_visited", "tool", "version"):
            cert.pop(key)
        if case.params["cmd"] == "real-roots":
            roots = {tuple(e["root"]) for e in cert["roots"]}
            h = case.params["height"]
            # Each reported root is a catalog real root with the same parity
            # and isotropy; a completed search finds all of them.
            ok = all(handle.is_real(tuple(e["root"]))
                     and e["parity"] == handle.parity(tuple(e["root"]))
                     and e["isotropic"] == handle.is_isotropic(tuple(e["root"]))
                     for e in cert["roots"])
            if cert["complete_up_to"] is not None:
                ok = ok and roots == set(handle.real_roots(max_height=h))
        else:
            ok = all(handle.is_real(tuple(r)) and handle.parity(tuple(r)) == 0
                     for r in cert["roots"])
        return ok, {"exit": code, **cert}


WORKLOADS = {w.name: w for w in (Strings(), Closure(), Oracle(), Basegraph())}
