"""Re-measure the single-run baseline rows of ROADMAP.md with repeats.

Each row runs in a fresh interpreter, so no row sees a handle cache or
realization that an earlier row warmed.  Prints one line per row with the
median and quartiles of its wall times.

    python3 perfbench/baseline.py [--repeats 5] [--rows sweep,closure,...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (workload that covers it, code timed between the two clock reads)
ROWS = {
    "gensub_B21aff_K3": ("oracle", """
h = build("B(2,1)^(1)"); real = oracle.realize(h, loop_degree=3)
t0 = clock(); real.full_basis(); t1 = clock()"""),
    "gensub_B11aff_K3": ("oracle", """
h = build("B(1,1)^(1)"); real = oracle.realize(h, loop_degree=3)
t0 = clock(); real.full_basis(); t1 = clock()"""),
    "main_theorem_B22": ("oracle", """
h = build("B(2,2)"); sigma = ps.root_set(h, h.simple_roots_alpha())
t0 = clock(); assert oracle.verify_theorem_main(sigma).ok; t1 = clock()"""),
    "sweep_B21aff_deg3": ("strings", """
h = build("B(2,1)^(1)")
t0 = clock(); assert rootstring.sweep_strings(h, max_degree=3).ok(); t1 = clock()"""),
    "closure_B11aff_h40": ("closure", """
h = build("B(1,1)^(1)"); sigma = ps.root_set(h, h.simple_roots_alpha())
t0 = clock(); c = ps.closure_S_infinity(sigma, 40); t1 = clock()
assert len(c.roots) == 160"""),
    "minpos_B11aff_h40": ("closure", """
h = build("B(1,1)^(1)"); sigma = ps.root_set(h, h.simple_roots_alpha())
c = ps.closure_S_infinity(sigma, 40)
t0 = clock(); m = ps.minimal_positive_elements(c.roots); t1 = clock()
assert m.elements == sigma.elements"""),
    "realroots_A31_h6": ("basegraph", """
cd = build("A(3,1)").cartan
t0 = clock(); r = basegraph.enumerate_real_roots(cd, 6); t1 = clock()
assert len(r.roots) == 30"""),
}

PRELUDE = """
import sys, time
sys.path.insert(0, {src!r})
from time import perf_counter as clock
from superroot import basegraph, oracle, pisystem as ps, rootstring
from superroot.catalog import build
"""


def measure(code: str) -> float:
    script = PRELUDE.format(src=str(ROOT / "src")) + code + "\nprint(repr(t1 - t0))\n"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--rows", default=",".join(ROWS))
    args = ap.parse_args(argv)
    results = {}
    for name in args.rows.split(","):
        workload, code = ROWS[name]
        times = [measure(code) for _ in range(args.repeats)]
        q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (times[0],) * 3
        results[name] = {"workload": workload, "median_s": statistics.median(times),
                         "q1_s": q1, "q3_s": q3, "runs": times}
        print(f"{name:22s} {workload:10s} median {statistics.median(times):8.3f} s  "
              f"q1 {q1:8.3f}  q3 {q3:8.3f}  n={len(times)}", flush=True)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
