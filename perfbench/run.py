#!/usr/bin/env python3
"""Benchmark of superroot: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload strings --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-reference

A set-up is ``import superroot`` afresh plus one new catalog handle per
case.  A run makes one set-up, draws its inputs, then runs whole passes over
the workload's fixed case list until the next pass would end more than
``--seconds`` after the run began.  Every pass makes its own set-ups outside
the timed region and runs on the last, so no case runs on a cache an earlier
case warmed.

Times are reported at a reference core speed: every case and every set-up
is timed between two runs of ``calibrate``, a fixed loop, and its wall time
is scaled by ``CAL_REFERENCE_S`` over their mean.  On a shared host the
speed of a core swings by up to 2x within a second and stays low for
minutes at a time; the scaled times follow the program, not the host.  A
case's latency is the median of its scaled times over the passes, and
``setup_s`` the median over the run's set-ups.  The report line gives the
same figures in unscaled wall time.  After each pass every
result is cross-checked and, on the default seed, compared with the
committed reference digest.  With ``--trace 1`` the first pass runs untraced
and the remaining passes under ``tracer.Tracer``; the traced results must
equal the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a report with sample counts, failed_frac, the src/ line counts and, traced,
the module self-time shares.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

DEFAULT_SEED = 1
HELDOUT_SEED = 7919  # later claims must also hold here
DEFAULT_SECONDS = 30
# calibrate() on an unloaded 2.1 GHz x86-64 core, CPython 3.11
CAL_REFERENCE_S = 0.45e-3
SETUPS_PER_PASS = 3  # timed set-ups before each untraced pass; a pass runs on the last


class MissingProgram(Exception):
    pass


def import_superroot() -> SimpleNamespace:
    init = SRC / "superroot" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"superroot sources not found at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("superroot")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise MissingProgram(f"imported superroot from {pkg.__file__}, not {init}")
    mods = {m: importlib.import_module(f"superroot.{m}") for m in ("rootstring", "pisystem", "oracle", "cli")}
    return SimpleNamespace(build=pkg.build, rootstring=mods["rootstring"], ps=mods["pisystem"],
                           oracle=mods["oracle"], cli=mods["cli"])


def calibrate() -> float:
    """Wall time of a fixed loop of exact arithmetic and dict updates.

    Run next to each timed region, it measures how fast the core runs at
    that moment.  Garbage collection is held off so that it times only the
    loop.
    """
    gc.disable()
    t0 = time.perf_counter()
    d, s = {}, Fraction(0)
    for i in range(1, 200):
        d[i % 50, i % 3] = d.get((i % 50, i % 3), 0) + i
        s += Fraction(i % 7, i % 5 + 1)
    t = time.perf_counter() - t0
    gc.enable()
    return t


def at_reference_speed(wall: float, cal_before: float, cal_after: float) -> float:
    return wall * CAL_REFERENCE_S * 2 / (cal_before + cal_after)


def timed_setup(cases) -> tuple[tuple[float, float], SimpleNamespace, list]:
    """Import superroot from scratch and build one handle per case.

    The package's modules are dropped from ``sys.modules`` first, so every
    set-up executes them again, as a fresh process would; objects of an
    earlier set-up keep their own copies of the modules until they are freed.
    Returns the set-up's (wall, scaled) time, the modules and the handles.
    """
    for name in [m for m in sys.modules if m == "superroot" or m.startswith("superroot.")]:
        del sys.modules[name]
    gc.collect()
    c0 = calibrate()
    t0 = time.perf_counter()
    sr = import_superroot()
    handles = [sr.build(c.type_spec) for c in cases]
    wall = time.perf_counter() - t0
    return (wall, at_reference_speed(wall, c0, calibrate())), sr, handles


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]


def src_line_counts() -> dict[str, int]:
    counts = {p.stem: len(p.read_text().splitlines()) for p in sorted((SRC / "superroot").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


class Runner:
    """Runs passes of one workload and collects latencies and verdicts."""

    def __init__(self, wl, sr, cases, reference):
        self.wl, self.sr, self.cases = wl, sr, cases
        self.reference = reference  # per-case digests, or None
        self.latencies: list[float] = []  # at reference speed, pass by pass
        self.wall_latencies: list[float] = []
        self.pass_times: list[float] = []  # case time of each pass, at reference speed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_digests: list[str] | None = None
        self.setup_samples: list[tuple[float, float]] = []  # (wall, scaled)

    def setup(self, reimport: bool) -> list:
        """Fresh handles for one pass; with ``reimport``, timed set-ups."""
        if not reimport:
            gc.collect()
            return [self.sr.build(c.type_spec) for c in self.cases]
        for _ in range(SETUPS_PER_PASS):
            handles = None  # free the previous set-up's handles before the next
            t, self.sr, handles = timed_setup(self.cases)
            self.setup_samples.append(t)
        return handles

    def run_pass(self, handles, tracer=None) -> None:
        results = []
        pass_time = 0.0
        for case, handle in zip(self.cases, handles):
            c0 = calibrate()
            if tracer is not None:
                tracer.begin_case(case.stratum)
            t0 = time.perf_counter()
            try:
                res = self.wl.run(self.sr, case, handle)
            except Exception as exc:  # a case that raises counts as failed
                res = exc
            finally:
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.end_case()
            self.latencies.append(at_reference_speed(t1 - t0, c0, calibrate()))
            self.wall_latencies.append(t1 - t0)
            pass_time += self.latencies[-1]
            results.append(res)
        self.pass_times.append(pass_time)

        digests = []
        for i, (case, handle, res) in enumerate(zip(self.cases, handles, results)):
            self.attempted += 1
            if isinstance(res, Exception):
                ok, canon = False, {"error": f"{type(res).__name__}: {res}"}
            else:
                ok, canon = self.wl.check(self.sr, case, handle, res)
            d = digest(canon)
            digests.append(d)
            why = None
            if not ok:
                why = f"cross-check failed: {json.dumps(canon, default=str)[:300]}"
            elif self.reference is not None and self.reference[i] != d:
                why = "differs from the reference digest"
            elif self.first_digests is not None and self.first_digests[i] != d:
                why = "differs from the first pass"
            if why:
                self.failed += 1
                self.failures.append(f"case {i} {case.label()}: {why}")
        if self.first_digests is None:
            self.first_digests = digests

    def case_latencies(self, latencies: list[float]) -> list[float]:
        """Each case's median latency over the passes.

        Every pass runs the same inputs on fresh handles, so the passes are
        repeats of one cold measurement.
        """
        n = len(self.cases)
        return [statistics.median(latencies[j::n]) for j in range(n)]

    def passes(self, deadline: float, reimport: bool, tracer=None) -> None:
        """Whole passes, at least one, until the next would end after ``deadline``.

        A pass's wall time counts its set-up and cross-checks too.  Each pass
        runs on handles of its own, freed before the next set is built, so
        ``peak_rss_mib`` measures one pass's handle caches.
        """
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            self.run_pass(self.setup(reimport), tracer)
            t1 = time.perf_counter()
            longest = max(longest, t1 - t0)
            if t1 + longest > deadline:
                return


def time_metrics(latencies: list[float], setups: list[float]) -> tuple[dict, int]:
    """The end-to-end time metrics, and the number of cases beyond p90."""
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10)[-1]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "cases_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "case_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
        "case_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
    }
    return metrics, sum(1 for x in latencies if x > p90)


def run_workload(args) -> int:
    deadline = time.perf_counter() + args.seconds
    wl = workloads.WORKLOADS[args.workload]
    cases = wl.plan(args.seed)
    try:
        first_setup, sr = timed_setup(cases)[:2]  # its handles are freed here
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl.fill(sr, cases, args.seed)

    reference = None
    if args.seed == DEFAULT_SEED and not args.record_reference and REFERENCE.is_file():
        ref = json.loads(REFERENCE.read_text())["workloads"].get(args.workload)
        if ref is not None:
            reference = ref["case_digests"]

    runner = Runner(wl, sr, cases, reference)
    runner.setup_samples.append(first_setup)
    report = {"workload": args.workload, "seed": args.seed, "cases": len(cases)}
    if args.trace:
        runner.passes(0.0, reimport=True)  # one untraced pass, the overhead baseline
        untraced_cps = len(cases) / runner.pass_times[0]
        tracer = tracing.Tracer()
        tracer.install()  # on the modules of the last set-up, which later passes keep
        n0 = len(runner.pass_times)
        runner.passes(deadline, reimport=False, tracer=tracer)
        traced_time = sum(runner.pass_times[n0:])
        traced_cps = len(cases) * (len(runner.pass_times) - n0) / traced_time
        layer = tracing.per_layer_metrics(tracer)
        layer["trace.cases_per_s"] = (traced_cps, "1/s")
        layer["trace.untraced_cases_per_s"] = (untraced_cps, "1/s")
        layer["trace.overhead_frac"] = (untraced_cps / traced_cps - 1.0, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans_{args.workload}_{args.seed}.json")
        report["spans_kept"] = len(tracer.spans)
        report["spans_dropped"] = tracer.spans_dropped
        report["self_frac"] = {k.split(".")[0]: round(v, 4) for k, (v, u) in layer.items()
                               if k.endswith(".self_frac")}
    else:
        runner.passes(deadline, reimport=True)
        metrics, beyond = time_metrics(runner.case_latencies(runner.latencies),
                                       [scaled for wall, scaled in runner.setup_samples])
        metrics["peak_rss_mib"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                   "unit": "MiB"}
        wall = time_metrics(runner.case_latencies(runner.wall_latencies),
                            [wall for wall, scaled in runner.setup_samples])[0]
        report["wall"] = {k: m["value"] for k, m in wall.items()}
        report["p90_beyond"] = beyond
        report["setups"] = len(runner.setup_samples)

    if args.record_reference:
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {"workloads": {}}
        ref["seed"] = DEFAULT_SEED
        ref["workloads"][args.workload] = {"cases": len(cases), "digest": digest(runner.first_digests),
                                           "case_digests": runner.first_digests}
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")

    report.update({
        "passes": len(runner.pass_times), "samples": len(runner.latencies),
        "failed_frac": runner.failed / runner.attempted,
        "digest": digest(runner.first_digests),
        "reference_checked": reference is not None,
        "src_lines": src_line_counts(),
        "failures": runner.failures[:20],
    })
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every metric with its unit."""
    status = 0
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {out.returncode}\n{out.stderr}")
            status = 1
            continue
        report = json.loads(lines[-2].removeprefix("report "))
        result = json.loads(lines[-1])
        status |= not result["correct"]
        print(f"== {name}  seed {args.seed}  correct={result['correct']}  "
              f"attempted={result['attempted']}  failed={result['failed']}  "
              f"failed_frac={report['failed_frac']:.4f}  passes={report['passes']}  "
              f"samples={report['samples']}")
        for key, m in result["metrics"].items():
            print(f"  {key:44s} {m['value']:14.6g} {m['unit']}")
        if "p90_beyond" in report:
            print(f"  (p50 and p90 over {report['cases']} case latencies of {report['samples']} "
                  f"latency samples, {report['p90_beyond']} beyond p90; setup_s over "
                  f"{report['setups']} set-ups; in wall time: "
                  + ", ".join(f"{k} {v:.6g}" for k, v in report["wall"].items()) + ")")
        for failure in report["failures"]:
            print(f"  FAILED {failure}")
    print(f"src/ lines: {json.dumps(src_line_counts())}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="superroot benchmark")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload, one process each")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="write the default seed's per-case digests to reference.json")
    args = ap.parse_args(argv)
    if args.record_reference:
        status = 0
        for name in workloads.WORKLOADS:
            status |= run_workload(ap.parse_args(["--workload", name, "--seconds", "0",
                                                  "--record-reference"]))
        return status
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload or --all is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
