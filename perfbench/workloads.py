"""The benchmark's workloads: their inputs, one round of operations, and
the checks of a run's outputs.

A round is a fixed set of operations on inputs made once per run,
so every round of a run repeats the same work and must give the same
outputs.  ``check`` compares one round's outputs with the computations
in ``oracles`` and returns the problems it found, the failed operations
per round, and what it saw.
"""

from __future__ import annotations

import gc
import itertools
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

import oracles
from structcs import bench, dependency, devore, fastops, matrices, ripest

# The sweeps decode the trials of one fixed master seed, whatever --seed.
# Whether the decoder misses a trial depends on its inputs; seeded inputs
# would change the share of failed operations from seed to seed, so the
# inputs are fixed and every miss they hold is counted.  Master seed 2 is
# the one the reference measurements of the decoder misses were made at.
SWEEP_SEED = 2
DESK_TRIALS = 4
FULL_N_GRID = (160, 580, 1000)
FULL_TRIALS = 1

# (kind, n, trial) at SWEEP_SEED of the desk preset, outside its first
# DESK_TRIALS trials: run_trial scores each as not recovered
# (basis_pursuit stops at MAX_ITER, relative error 3e-5 to 6e-5) while
# the LP recovers it.
KNOWN_MISSES = (("toeplitz", 80, 25), ("toeplitz-block", 80, 25), ("iid", 180, 120))

# certificates: an exhaustive scan near the 10^6-support guard, the
# deterministic construction's certificates, and all supports of size
# 1..3 of two banded grids
SCAN_GRID = dict(k=45, l=8, d=4, e=4)  # N = 180 columns, C(180, 3) supports
SCAN_ORDER = 3
SCAN_SAMPLES = 2000
DEVORE_CASES = ((devore.PolySpec(p=7, r=1, t=4, s=2, l=5), (2, 3, 4, 5)),
                (devore.PolySpec(p=5, r=2, t=5, s=3, l=6), (2, 3)))
DEP_GRIDS = (("toeplitz-block", dict(k=8, l=6, d=3, e=2)),
             ("circulant-block", dict(k=8, l=6, d=3, e=2)))
DEP_MAX_SUPPORT = 3


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def capture_trial(config, kind, n, trial, matrix=False):
    """run_trial's verdict, the signal and the decoder's estimate it scored
    (None when the decode raised), and the matrix entries if asked."""
    seen = {}
    originals = {name: getattr(bench, name) for name in
                 ("generate_sparse_signal", "build_structured", "basis_pursuit")}

    def keep(name, fn):
        def wrapper(*a, **k):
            seen[name] = fn(*a, **k)
            return seen[name]
        return wrapper

    for name, fn in originals.items():
        setattr(bench, name, keep(name, fn))
    try:
        ok = bench.run_trial(config, kind, n, trial)
    finally:
        for name, fn in originals.items():
            setattr(bench, name, fn)
    result = seen.get("basis_pursuit")
    return (ok, seen["generate_sparse_signal"].to_dense(),
            None if result is None else np.array(result.estimate),
            seen["build_structured"].entries if matrix else None)


def _apply_us(op, x, y, reps=50) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        op.forward(x)
        op.adjoint(y)
        times.append(time.perf_counter() - t0)
    return 1e6 * float(np.median(times))


class Sweep:
    """Success-curve cells through ``success_curve``, plus fixed trials."""

    def __init__(self, config, threads, work_dir: Path, fixed=()):
        self.config = config
        self.threads = threads
        self.work_dir = work_dir
        self.fixed = fixed
        self.jobs = [(kind, n, t) for kind in config.kinds for n in config.n_grid
                     for t in range(config.trials)]
        self.ops_per_round = len(fixed) + len(self.jobs)
        self._rounds = itertools.count()

    def describe(self) -> dict:
        return {"N": self.config.N, "m": self.config.m, "kinds": self.config.kinds,
                "n_grid": self.config.n_grid, "trials": self.config.trials,
                "master_seed": self.config.master_seed, "threads": self.threads,
                "fixed_trials": [dict(kind=k, n=n, trial=t) for k, n, t in self.fixed]}

    def run_round(self):
        fixed = tuple(bench.run_trial(self.config, k, n, t) for k, n, t in self.fixed)
        cache = self.work_dir / f"cache-{next(self._rounds)}.json"
        curve = bench.success_curve(self.config, threads=self.threads, cache_path=cache)
        cache.unlink()
        return fixed, tuple((c.kind, c.n, c.successes, c.trials) for c in curve.cells)

    def check(self, output):
        return self.check_records(output, self.records())

    def check_records(self, output, records):
        """``output`` of a round against ``records``, one (verdict, signal,
        estimate) per trial of ``self.jobs`` then of ``self.fixed``, from
        a rerun of every trial: each verdict must agree with the relative
        error of its estimate, each cell count with the estimates of its
        trials, and each trial not recovered goes to the LP."""
        cfg = self.config
        problems = []
        fixed, cells = output
        if [(k, n, t) for k, n, _, t in cells] != [
                (k, n, cfg.trials) for k in cfg.kinds for n in cfg.n_grid]:
            return problems + ["the curve's cells are not the configured grid"], 0, {}
        counts = {(k, n): s for k, n, s, _ in cells}
        problems += oracles.curve_problems(cfg.N, cfg.m, cfg.n_grid, cfg.trials, counts)

        recovered = {}
        for job, (ok, x, estimate) in zip(self.jobs + list(self.fixed), records):
            tag = "{} n={} #{}".format(*job)
            problems += oracles.trial_problems(tag, ok, x, estimate)
            recovered[job] = oracles.recovered(x, estimate)
        for (kind, n), s in counts.items():
            cell = [recovered[(kind, n, t)] for t in range(cfg.trials)]
            problems += oracles.cell_problems(kind, n, cfg.trials, s, cell)
        for job, ok in zip(self.fixed, fixed):
            if ok != recovered[job]:
                problems.append("fixed trial {} n={} #{}: scored {}, its estimate {}".format(
                    *job, ok, "recovers" if recovered[job] else "does not recover"))

        misses, lp_failures, lp_s = [], [], 0.0
        for job in [j for j, ok in recovered.items() if not ok]:
            _, x, _, A = capture_trial(cfg, *job, matrix=True)
            t0 = time.perf_counter()
            err = oracles.lp_relative_error(A, x)
            lp_s += time.perf_counter() - t0
            rec = dict(zip(("kind", "n", "trial"), job), lp_rel_err=err)
            (misses if err <= oracles.RECOVERY_REL_TOL else lp_failures).append(rec)
        seen = {"master_seed": cfg.master_seed, "decoder_misses": misses,
                "lp_failures": len(lp_failures), "lp_s": lp_s,
                "statistical_dimension": oracles.l1_statistical_dimension(cfg.N, cfg.m),
                "transition_halfwidth": oracles.transition_halfwidth(cfg.N)}
        return problems, len(misses), seen

    def records(self) -> list:
        """capture_trial on every job and fixed trial, in spawned workers
        with one BLAS thread each: the check is not timed, and a verdict
        that changed with the BLAS thread count would be a fault of its own."""
        saved = {v: os.environ.get(v) for v in BLAS_VARS}
        os.environ.update({v: "1" for v in BLAS_VARS})
        try:
            ctx = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=nproc(), mp_context=ctx) as pool:
                args = zip(*[(self.config,) + job for job in self.jobs + list(self.fixed)])
                records = [r[:3] for r in pool.map(capture_trial, *args, chunksize=4)]
            # the spawned pool started multiprocessing's resource tracker:
            # stop it and wait for it, so that no process outlives the run
            del pool
            gc.collect()
            resource_tracker._resource_tracker._stop()
            return records
        finally:
            for v, old in saved.items():
                if old is None:
                    os.environ.pop(v, None)
                else:
                    os.environ[v] = old

    def layer_reference(self) -> dict:
        """Forward plus adjoint, dense against FFT, on the structured kinds'
        matrices at the sweep's largest n (mean of the two kinds)."""
        cfg = self.config
        n = max(cfg.n_grid)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(cfg.N), rng.standard_normal(n)
        dense, fft = [], []
        for kind in ("toeplitz", "toeplitz-block"):
            spec = bench.spec_template(kind, cfg.N, cfg.m, cfg.distribution, n, seed=1)
            M = matrices.build_structured(spec)
            fast = fastops.structured_operator(M)
            if fast.backend != "fft":
                raise RuntimeError(f"{kind}: no FFT operator at n={n}")
            dense.append(_apply_us(fastops.dense_operator(M), x, y))
            fft.append(_apply_us(fast, x, y))
        return {"fastops.dense_apply_us": float(np.mean(dense)),
                "fastops.fft_apply_us": float(np.mean(fft))}


class Certificates:
    """An exhaustive isometry scan, deterministic certificates, and the
    dependency reports and colorings of all small supports."""

    def __init__(self, seed: int):
        self.seed = seed
        spec = matrices.toeplitz_block_spec(**SCAN_GRID, dist_kind="gaussian", seed=seed)
        self.scan_matrix = matrices.build_structured(spec)
        self.dep_cases = []
        for kind, grid in DEP_GRIDS:
            make = (matrices.toeplitz_block_spec if kind == "toeplitz-block"
                    else matrices.circulant_block_spec)
            M = matrices.build_structured(make(**grid, dist_kind="bernoulli", seed=seed))
            supports = [dependency.SupportSet(T) for s in range(1, DEP_MAX_SUPPORT + 1)
                        for T in itertools.combinations(range(M.N), s)]
            self.dep_cases.append((kind, grid, M, supports))
        self.ops_per_round = (
            math.comb(self.scan_matrix.N, SCAN_ORDER)
            + sum(math.comb(spec.shape[1], m) for spec, orders in DEVORE_CASES for m in orders)
            + sum(len(sups) for *_, sups in self.dep_cases))

    def describe(self) -> dict:
        return {"scan": dict(SCAN_GRID, order=SCAN_ORDER, seed=self.seed,
                             supports=math.comb(self.scan_matrix.N, SCAN_ORDER)),
                "devore": [dict(p=s.p, r=s.r, t=s.t, s=s.s, l=s.l, orders=o)
                           for s, o in DEVORE_CASES],
                "dependency": [dict(grid, kind=k, supports=len(sups))
                               for k, grid, _, sups in self.dep_cases]}

    def run_round(self):
        est = ripest.delta_exhaustive(self.scan_matrix, SCAN_ORDER)
        certs = tuple(devore.verify_rip_guarantee(spec, m)
                      for spec, orders in DEVORE_CASES for m in orders)
        deps = tuple((dependency.dependency_report(M, T), dependency.equitable_coloring(M, T))
                     for _, _, M, sups in self.dep_cases for T in sups)
        return est, certs, deps

    def check(self, output):
        problems = []
        est, certs, deps = output
        A = self.scan_matrix.entries
        rng = np.random.default_rng([self.seed, 3])
        samples = [tuple(sorted(rng.choice(A.shape[1], SCAN_ORDER, replace=False)))
                   for _ in range(SCAN_SAMPLES)]
        problems += oracles.delta_problems(A, SCAN_ORDER, est.delta,
                                           est.worst_support.indices, samples)
        cases = [(spec, m) for spec, orders in DEVORE_CASES for m in orders]
        for (spec, m), cert in zip(cases, certs):
            problems += oracles.devore_problems(spec.p, spec.r, spec.shape[1], m, cert)
        pairs = iter(deps)
        for kind, grid, _, sups in self.dep_cases:
            for T in sups:
                report, coloring = next(pairs)
                expected = oracles.layout_dependencies(
                    kind == "circulant-block", grid["k"], grid["l"], grid["d"], grid["e"],
                    T.indices)
                problems += oracles.dependency_problems(grid["l"], T.indices, report, expected)
                problems += oracles.coloring_problems(T.indices, coloring.classes, expected)
        seen = {"delta": est.delta, "witness": list(est.worst_support.indices),
                "devore_supports": sum(c.supports_checked for c in certs)}
        return problems, 0, seen

    def layer_reference(self) -> dict:
        return {}


def make(name: str, seed: int, work_dir: Path):
    """The workload ``name``; ``seed`` makes the inputs of ``certificates``,
    the sweeps decode the trials of SWEEP_SEED."""
    if name == "desk-sweep":
        config = bench.desk_preset(master_seed=SWEEP_SEED, trials=DESK_TRIALS)
        return Sweep(config, nproc(), work_dir, fixed=KNOWN_MISSES)
    if name == "full-slice":
        config = bench.full_preset(master_seed=SWEEP_SEED, n_grid=FULL_N_GRID,
                                   trials=FULL_TRIALS)
        return Sweep(config, 1, work_dir)
    if name == "certificates":
        return Certificates(seed)
    raise ValueError(f"unknown workload {name!r}")
