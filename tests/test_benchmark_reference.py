"""Each benchmark workload, run for one pass, still reproduces its committed
reference digests, so a change that moves a result fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["strings", "closure", "oracle", "basegraph"])
def test_workload_matches_its_reference(workload):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seconds", "0"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.splitlines()
    assert report.startswith("report "), report
    assert json.loads(report.removeprefix("report "))["reference_checked"] is True, report
    result = json.loads(result)
    assert result["correct"] is True and result["failed"] == 0, result


@pytest.mark.parametrize("workload, digest", [
    ("strings", "4fe2470bf7d175ea"),
    ("closure", "4c531997cd6ff41b"),
    ("oracle", "f88a2c265b65346f"),
    ("basegraph", "616d19e749b04a96"),
], ids=["strings", "closure", "oracle", "basegraph"])
def test_workload_matches_its_held_out_digest(workload, digest):
    # the committed reference covers seed 1 only; seed 7919 draws other cases
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", "7919",
                           "--seconds", "0"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.splitlines()
    assert report.startswith("report "), report
    assert json.loads(report.removeprefix("report "))["digest"] == digest, report
    result = json.loads(result)
    assert result["correct"] is True and result["failed"] == 0, result
