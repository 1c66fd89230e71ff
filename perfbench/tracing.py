"""Spans and counters around the calls into structcs, from outside the program.

``Recorder.install`` replaces public functions of the structcs modules
(and the scipy/numpy factor, solve and least-squares calls that
``structcs.recovery`` makes) with wrappers that record what each call
cost; ``uninstall`` puts the originals back.  Coarse calls (a trial, a
matrix build, a decode, a certificate) leave a span: name, start, end,
the span that caused it, the round, and a few attributes.  Calls made
thousands of times per trial (operator applies, triangular solves)
only add to a counter, so tracing stays cheap.

Pool workers forked while tracing is installed inherit the wrappers;
each keeps its spans in memory and writes them to one file as it
exits.  ``collect`` merges those files into the parent's record.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing.util
import os
import time
import types
from collections import defaultdict
from pathlib import Path

import numpy as np

perf = time.perf_counter


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.round = 0
        self.spans: list = []
        self.counters: dict = defaultdict(lambda: [0, 0.0])
        self.stack: list = []
        self._seq = 0
        self._patches: list = []
        # a pool worker runs this after multiprocessing has cleared the
        # finalizers it inherited, so the one registered here stays
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    # -- recording --------------------------------------------------------

    def _after_fork(self):
        # keep the stack: a worker's trials are children of the parent's
        # success_curve span that forked it
        self.spans = []
        self.counters = defaultdict(lambda: [0, 0.0])
        if self._patches:
            multiprocessing.util.Finalize(self, self._flush, exitpriority=10)

    def _flush(self):
        if not self.spans and not self.counters:
            return
        path = self.out_dir / f"worker-r{self.round}-{os.getpid()}.json"
        path.write_text(json.dumps({"spans": self.spans,
                                    "counters": dict(self.counters)}))

    def _new_id(self) -> str:
        self._seq += 1
        return f"{os.getpid()}.{self._seq}"

    def spanned(self, name: str, fn, attrs=None):
        """Wrap ``fn`` so that each call records one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._new_id()
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                self.stack.pop()
            self.spans.append([sid, parent, name, t0, t1, self.round,
                               attrs(args, kwargs, out) if attrs else None])
            return out

        return wrapper

    def counted(self, key, fn):
        """Wrap ``fn`` so that each call adds to a counter; ``key`` may be
        a function of the arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            out = fn(*args, **kwargs)
            c = self.counters[key(*args) if callable(key) else key]
            c[0] += 1
            c[1] += perf() - t0
            return out

        return wrapper

    # -- installing -------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the structcs entry points the benchmark reaches."""
        from structcs import bench, dependency, devore, fastops, recovery, ripest

        self._patch(bench, "success_curve", self.spanned(
            "bench.success_curve", bench.success_curve,
            lambda a, k, out: {"threads": k.get("threads", 1)}))
        self._patch(bench, "run_trial", self.spanned(
            "bench.run_trial", bench.run_trial,
            lambda a, k, out: {"kind": a[1], "n": a[2], "trial": a[3], "ok": bool(out)}))
        self._patch(bench, "build_structured", self.spanned(
            "matrices.build_structured", bench.build_structured))
        self._patch(bench, "basis_pursuit", self.spanned(
            "recovery.basis_pursuit", bench.basis_pursuit,
            lambda a, k, out: {"iters": out.iterations, "status": out.status.value}))

        def by_ndim(op, x):
            return "fastops.vector" if np.ndim(x) == 1 else "fastops.batched"

        for name in ("forward", "adjoint"):
            self._patch(fastops.LinearOperator, name,
                        self.counted(by_ndim, getattr(fastops.LinearOperator, name)))

        # recovery's own views of scipy and numpy: module copies with the
        # factor, solve and least-squares calls replaced, so every other
        # name falls through to the real module
        def view(module, **calls):
            copy = types.ModuleType(module.__name__)
            copy.__dict__.update(module.__dict__)
            copy.__dict__.update(calls)
            return copy

        sp_linalg = recovery.scipy.linalg
        sp_view = view(recovery.scipy, linalg=view(
            sp_linalg,
            cho_factor=self.counted("recovery.factor", sp_linalg.cho_factor),
            cho_solve=self.counted("recovery.solve", sp_linalg.cho_solve)))
        np_view = view(np, linalg=view(
            np.linalg,
            pinv=self.counted("recovery.factor", np.linalg.pinv),
            lstsq=self.counted("recovery.polish", np.linalg.lstsq),
            solve=self.counted("recovery.polish", np.linalg.solve)))
        self._patch(recovery, "scipy", sp_view)
        self._patch(recovery, "np", np_view)

        self._patch(ripest, "delta_exhaustive", self.spanned(
            "ripest.delta_exhaustive", ripest.delta_exhaustive,
            lambda a, k, out: {"supports": math.comb(a[0].N, a[1])}))
        self._patch(devore, "verify_rip_guarantee", self.spanned(
            "devore.verify_rip_guarantee", devore.verify_rip_guarantee,
            lambda a, k, out: {"supports": out.supports_checked}))
        self._patch(dependency, "dependency_report", self.spanned(
            "dependency.dependency_report", dependency.dependency_report))
        self._patch(dependency, "equitable_coloring", self.spanned(
            "dependency.equitable_coloring", dependency.equitable_coloring))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def collect(self):
        """Merge the files that this round's workers wrote at exit."""
        for path in sorted(self.out_dir.glob(f"worker-r{self.round}-*.json")):
            data = json.loads(path.read_text())
            self.spans.extend(data["spans"])
            for key, (calls, secs) in data["counters"].items():
                self.counters[key][0] += calls
                self.counters[key][1] += secs
            path.unlink()

    def dump(self, path: Path):
        """Write every span, one JSON array per line, and the counters."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start", "end",
                                            "round", "attrs"],
                                 "counters": dict(self.counters)}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(rec: Recorder, rounds: int) -> dict:
    """Per-layer figures per traced round (counts and seconds) and as
    percentiles over calls, from the recorder's spans and counters."""
    by_name = defaultdict(list)
    by_id = {}
    for s in rec.spans:
        by_name[s[2]].append(s)
        by_id[s[0]] = s
    dur = lambda s: s[4] - s[3]  # noqa: E731
    per = lambda x: x / rounds  # noqa: E731
    counter = lambda key: rec.counters.get(key, [0, 0.0])  # noqa: E731
    out = {}

    def root_kind(s):
        while s is not None and s[2] != "bench.run_trial":
            s = by_id.get(s[1])
        return s[6]["kind"] if s is not None else None

    builds = by_name["matrices.build_structured"]
    out["matrices.build_calls"] = per(len(builds))
    out["matrices.build_s"] = per(sum(map(dur, builds)))
    for kind in ("iid", "toeplitz", "toeplitz-block"):
        out[f"matrices.build_ms_p50.{kind}"] = _pct(
            [1e3 * dur(s) for s in builds if root_kind(s) == kind], 50)

    for name in ("vector", "batched"):
        calls, secs = counter(f"fastops.{name}")
        out[f"fastops.{name}_calls"] = per(calls)
        out[f"fastops.{name}_apply_s"] = per(secs)

    bps = by_name["recovery.basis_pursuit"]
    iters = [s[6]["iters"] for s in bps]
    bp_s = sum(map(dur, bps))
    factor_calls, factor_s = counter("recovery.factor")
    solve_calls, solve_s = counter("recovery.solve")
    _, polish_s = counter("recovery.polish")
    _, gram_s = counter("fastops.batched")  # the projector's A (A^T I)
    wasted = sum(s[6]["iters"] for s in bps if s[6]["status"] == "max-iter")
    out.update({
        "recovery.bp_calls": per(len(bps)),
        "recovery.bp_s": per(bp_s),
        "recovery.bp_ms_p50": _pct([1e3 * dur(s) for s in bps], 50),
        "recovery.bp_ms_p95": _pct([1e3 * dur(s) for s in bps], 95),
        "recovery.dr_iters_p50": _pct(iters, 50),
        "recovery.dr_iters_p95": _pct(iters, 95),
        "recovery.dr_iters_total": per(sum(iters)),
        "recovery.dr_iter_us": (1e6 * (bp_s - factor_s - gram_s - polish_s) / sum(iters)
                                if sum(iters) else 0.0),
        "recovery.max_iter_calls": per(sum(s[6]["status"] == "max-iter" for s in bps)),
        "recovery.wasted_iters_share": wasted / sum(iters) if sum(iters) else 0.0,
        "recovery.factor_calls": per(factor_calls),
        "recovery.factor_s": per(factor_s),
        "recovery.solve_calls": per(solve_calls),
        "recovery.solve_s": per(solve_s),
        "recovery.polish_s": per(polish_s),
    })

    trials = by_name["bench.run_trial"]
    idle = 0.0
    for sc in by_name["bench.success_curve"]:
        inside = [t for t in trials if t[1] == sc[0]]
        idle += sc[6]["threads"] * dur(sc) - sum(map(dur, inside))
    out.update({
        "bench.trials": per(len(trials)),
        "bench.trial_ms_p50": _pct([1e3 * dur(s) for s in trials], 50),
        "bench.trial_ms_p95": _pct([1e3 * dur(s) for s in trials], 95),
        "bench.pool_idle_s": per(idle),
    })

    scans = by_name["ripest.delta_exhaustive"]
    supports = sum(s[6]["supports"] for s in scans)
    scan_s = sum(map(dur, scans))
    verifies = by_name["devore.verify_rip_guarantee"]
    reports = by_name["dependency.dependency_report"]
    colorings = by_name["dependency.equitable_coloring"]
    out.update({
        "ripest.supports": per(supports),
        "ripest.scan_s": per(scan_s),
        "ripest.supports_per_s": supports / scan_s if scan_s else 0.0,
        "devore.supports": per(sum(s[6]["supports"] for s in verifies)),
        "devore.verify_s": per(sum(map(dur, verifies))),
        "dependency.reports": per(len(reports)),
        "dependency.report_us_p50": _pct([1e6 * dur(s) for s in reports], 50),
        "dependency.colorings": per(len(colorings)),
        "dependency.coloring_ms_p50": _pct([1e3 * dur(s) for s in colorings], 50),
    })
    return out


UNITS = {
    "matrices.build_calls": "count",
    "matrices.build_s": "s",
    "matrices.build_ms_p50.iid": "ms",
    "matrices.build_ms_p50.toeplitz": "ms",
    "matrices.build_ms_p50.toeplitz-block": "ms",
    "fastops.vector_calls": "count",
    "fastops.vector_apply_s": "s",
    "fastops.batched_calls": "count",
    "fastops.batched_apply_s": "s",
    "fastops.dense_apply_us": "us",
    "fastops.fft_apply_us": "us",
    "recovery.bp_calls": "count",
    "recovery.bp_s": "s",
    "recovery.bp_ms_p50": "ms",
    "recovery.bp_ms_p95": "ms",
    "recovery.dr_iters_p50": "count",
    "recovery.dr_iters_p95": "count",
    "recovery.dr_iters_total": "count",
    "recovery.dr_iter_us": "us",
    "recovery.max_iter_calls": "count",
    "recovery.wasted_iters_share": "ratio",
    "recovery.factor_calls": "count",
    "recovery.factor_s": "s",
    "recovery.solve_calls": "count",
    "recovery.solve_s": "s",
    "recovery.polish_s": "s",
    "bench.trials": "count",
    "bench.trial_ms_p50": "ms",
    "bench.trial_ms_p95": "ms",
    "bench.pool_idle_s": "s",
    "ripest.supports": "count",
    "ripest.scan_s": "s",
    "ripest.supports_per_s": "1/s",
    "devore.supports": "count",
    "devore.verify_s": "s",
    "dependency.reports": "count",
    "dependency.report_us_p50": "us",
    "dependency.colorings": "count",
    "dependency.coloring_ms_p50": "ms",
    "trace.ops_per_s_traced": "1/s",
    "trace.ops_per_s_untraced": "1/s",
    "trace.slowdown": "ratio",
}
