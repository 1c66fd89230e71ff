#!/usr/bin/env python3
"""Rerun the whole benchmark: every workload on seeds 1..10, each run in
a fresh process, then one traced run per workload.

    python3 perfbench/run_all.py

For each workload and end-to-end metric it prints the median and the
spread between the first and third quartile as a share of the median,
next to the metric's bound in BENCHMARK.json, and the share of failed
operations.  Everything it saw goes to perfbench/results/summary.json.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple:
    """Median, and the interquartile distance as a share of it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = [run(wl, s, spec["run_seconds"], 0) for s in SEEDS]
        entry = {"runs": runs, "metrics": {},
                 "failed_shares": sorted({r["failed"] / r["attempted"] for r in runs}),
                 "correct": all(r["correct"] for r in runs)}
        print(f"{wl}: correct={entry['correct']} failed share(s)={entry['failed_shares']}")
        for name, bound in bounds.items():
            med, sp = spread([r["metrics"][name]["value"] for r in runs])
            entry["metrics"][name] = {"median": med, "spread": sp, "bound": bound}
            print(f"  {name:12s} median {med:12.4f}  spread {sp:6.3f}  bound {bound}")
        entry["trace"] = run(wl, SEEDS[0], spec["run_seconds"], 1)
        for name, m in entry["trace"]["metrics"].items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
        summary[wl] = entry
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
