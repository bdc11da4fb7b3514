"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Each workload runs once traced (one untraced pass, then one traced pass) on
the default seed.  A traced result that differs from the untraced one, or
from the committed reference digest, fails the run; a wrapper the tracer
missed shows up as a zero counter on the workload that should move it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"

# Per-layer metrics that must be nonzero on their home workload.
HOME = {
    "strings": [
        "catalog.contains_ed.calls", "catalog.contains_ed.self_s", "catalog.to_ed.calls",
        "catalog.to_ed.distinct_frac", "rootstring.root_string.calls",
        "rootstring.root_string.per_pair",
    ],
    "closure": [
        "catalog.bilinear.calls", "catalog.bilinear.self_s", "catalog.pairing.calls",
        "catalog.pairing.self_s", "catalog.is_isotropic.calls", "catalog.is_isotropic.self_s",
        "lp.feasible_nonneg.calls", "lp.feasible_nonneg.self_s",
        "lp.feasible_nonneg.feasible_frac", "lp.feasible_nonneg.vars_mean",
        "pisystem.reflect.calls", "pisystem.closure.rounds", "pisystem.closure.new_root_frac",
        "pisystem.closure_S_infinity.self_s", "pisystem.minimal_positive_elements.self_s",
    ],
    "oracle": [
        "oracle.gm_bracket.calls", "oracle.gm_bracket.self_s", "oracle.gm_bracket.zero_frac",
        "oracle.generated_subalgebra.self_s", "oracle.realize.self_s", "oracle.truncation_hits",
    ],
    "basegraph": [
        "basegraph.bases_visited", "basegraph.reflections", "basegraph.new_base_frac",
        "rootspace.pair.calls", "rootspace.pair.self_s", "cartan.validate.calls",
        "linalg.rank.calls", "linalg.rref.calls", "cli.main.self_s",
    ],
}
# Layers whose self time must make up at least 80% of the case time.
HOME_LAYERS = {
    "strings": ("catalog", "rootstring"),
    "closure": ("catalog", "lp", "pisystem"),
    "oracle": ("oracle",),
    "basegraph": ("basegraph", "rootspace", "cartan", "linalg"),
}
# Layers a workload bypasses.
BYPASSED = {
    "strings": ("oracle.gm_bracket.calls", "lp.feasible_nonneg.calls"),
    "closure": ("oracle.gm_bracket.calls",),
    "oracle": (),
    "basegraph": ("oracle.gm_bracket.calls", "lp.feasible_nonneg.calls"),
}


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request):
    out = subprocess.run([sys.executable, str(RUN), "--workload", request.param, "--seconds", "0",
                          "--trace", "1"], capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    report = json.loads(lines[-2].removeprefix("report "))
    result = json.loads(lines[-1])
    return request.param, report, result


def test_traced_results_equal_untraced_and_reference(traced):
    name, report, result = traced
    assert report["reference_checked"]
    assert report["passes"] == 2
    assert result["correct"] and result["failed"] == 0, report["failures"]


def test_home_counters_nonzero(traced):
    name, report, result = traced
    zero = [k for k in HOME[name] if not result["metrics"][k]["value"] > 0]
    assert not zero


def test_bypassed_layers_stay_zero(traced):
    name, report, result = traced
    assert all(result["metrics"][k]["value"] == 0 for k in BYPASSED[name])


def test_home_layers_dominate_self_time(traced):
    name, report, result = traced
    share = sum(result["metrics"][f"{layer}.self_frac"]["value"] for layer in HOME_LAYERS[name])
    assert share >= 0.8


def test_exactly_the_per_layer_metrics_are_reported(traced):
    name, report, result = traced
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(result["metrics"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_plan_is_seeded_and_large_enough(name):
    wl = workloads.WORKLOADS[name]
    a, b, c = wl.plan(3), wl.plan(3), wl.plan(4)
    assert [x.label() for x in a] == [x.label() for x in b]
    assert [x.label() for x in a] != [x.label() for x in c]
    assert len(a) >= 100  # so that p90 has at least 10 samples beyond it


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
                          "strings", "--seconds", "1"], capture_output=True, text=True,
                         timeout=180, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
