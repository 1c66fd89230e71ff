#!/usr/bin/env python3
"""Run one benchmark workload of structcs and print its metrics.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  The workload's inputs are made
from --seed; whole rounds of its operations repeat for about --seconds;
then the outputs are checked against computations made apart from the
program.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  A full record (machine, environment, rounds, checks) goes
to perfbench/results/.
"""

import os
import sys
import time

_T0 = time.perf_counter()
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")  # as in workloads


def _process_age() -> float:
    """Seconds since this process started, or 0.  The start time is kept
    in clock ticks of the boot-time clock (10 ms resolution)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        uptime = time.clock_gettime(time.CLOCK_BOOTTIME)
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE0 = _process_age()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("desk-sweep", "full-slice", "certificates"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin-blas", action="store_true",
                   help="set the BLAS thread variables to 1 instead of removing "
                        "them (reference figures only)")
    return p.parse_args(argv)


def blas_environment(pin: bool) -> dict:
    """Remove (or pin to 1) the BLAS thread variables before numpy loads,
    so that the program's own thread choice is what gets measured."""
    before = {v: os.environ.get(v) for v in BLAS_VARS}
    for v in BLAS_VARS:
        if pin:
            os.environ[v] = "1"
        else:
            os.environ.pop(v, None)
    return {"action": "pinned to 1" if pin else "removed", "before": before}


def machine_record(blas_env: dict) -> dict:
    import multiprocessing

    import numpy as np
    import scipy

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return {k: dep.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_env": blas_env,
        "start_method": multiprocessing.get_start_method(),
    }


def rate(ops_per_round: int, rounds: list) -> float:
    """Operations completed per second over the given rounds."""
    return ops_per_round * len(rounds) / sum(r["seconds"] for r in rounds)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "structcs" / "__init__.py").is_file():
        print(f"run.py: no structcs sources under {SRC}", file=sys.stderr)
        return 2
    blas_env = blas_environment(args.pin_blas)
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads

    results = HERE / "results"
    work_dir = results / f"tmp-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.seed, work_dir)
        setup_s = _AGE0 + time.perf_counter() - _T0
        rec = tracing.Recorder(work_dir) if args.trace else None

        # whole rounds until the time is up; with tracing, rounds alternate
        # untraced and traced so that the overhead is measured in one run
        first, rounds, problems = None, [], []
        start = time.perf_counter()
        while True:
            traced = rec is not None and len(rounds) % 2 == 1
            if traced:
                rec.round = len(rounds)
                rec.install()
            cpu0, t0 = _cpu_s(), time.perf_counter()
            try:
                out = wl.run_round()
            finally:
                t1, cpu1 = time.perf_counter(), _cpu_s()
                if traced:
                    rec.uninstall()
                    rec.collect()
            rounds.append({"seconds": t1 - t0, "cpu_s": cpu1 - cpu0, "traced": traced})
            # keep one round's outputs only, so memory does not grow with rounds
            if first is None:
                first = out
            elif out != first:
                problems.append(f"round {len(rounds) - 1} gave other outputs than round 0")
            del out
            # stop when another round would end further past --seconds than
            # stopping now falls short of it
            if t1 - start + (t1 - t0) / 2 >= args.seconds and (rec is None or len(rounds) >= 2):
                break
        peak_rss_mb = _peak_rss_mb()

        found, failed_per_round, seen = wl.check(first)
        problems += found
        untraced = [r for r in rounds if not r["traced"]]
        ops_per_s = rate(wl.ops_per_round, untraced)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "cpu_s": (sum(r["cpu_s"] for r in untraced) / len(untraced), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        if rec is not None:
            traced_rounds = [r for r in rounds if r["traced"]]
            layers = tracing.layer_metrics(rec, len(traced_rounds))
            layers.update(wl.layer_reference())
            traced_ops_per_s = rate(wl.ops_per_round, traced_rounds)
            layers["trace.ops_per_s_traced"] = traced_ops_per_s
            layers["trace.ops_per_s_untraced"] = ops_per_s
            layers["trace.slowdown"] = ops_per_s / traced_ops_per_s
            # a layer that does not run on this workload reads 0
            metrics = {k: (layers.get(k, 0.0), unit) for k, unit in tracing.UNITS.items()}
            rec.dump(results / f"trace-{args.workload}-seed{args.seed}.jsonl")

        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "machine": machine_record(blas_env),
            "inputs": wl.describe(), "ops_per_round": wl.ops_per_round,
            "failed_per_round": failed_per_round, "rounds": rounds,
            "problems": problems, "seen": seen,
            "metrics": {k: v for k, (v, _) in metrics.items()},
        }
        (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=str) + "\n")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for p in problems:
        print(f"run.py: check failed: {p}", file=sys.stderr)
    print("# machine " + json.dumps(record["machine"], default=str))
    print("# seen " + json.dumps(seen, default=str))
    print(json.dumps({
        "correct": not problems,
        "attempted": wl.ops_per_round * len(rounds),
        "failed": failed_per_round * len(rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
