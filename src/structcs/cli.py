"""Command-line interface: build / rip / deps / bounds / recover / bench.

Exit codes: 0 success, 1 verification failure (a checked bound was
violated), 2 usage or guard error.  With ``--json`` the primary result
is printed to stdout as a single JSON document; the resolved effective
configuration is always logged to stderr first.  All stochastic
behavior is pinned by ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .bounds import BoundParams, rip_success_bound
from .dependency import SupportSet, dependency_report
from .devore import PolySpec, build_devore_block
from .fastops import dense_operator
from .matrices import (
    MatrixKind,
    build_structured,
    spec_from_json,
    spec_to_dict,
    truncate_rows,
)
from . import matrices
from .matrixio import (
    read_matrix,
    read_vector_csv,
    write_matrix,
    write_vector_csv,
)
from .recovery import basis_pursuit, omp
from .ripest import GuardExceededError, delta_exhaustive, delta_monte_carlo

log = logging.getLogger("structcs")

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Bad arguments or a guard overrun; maps to exit code 2."""


def _log_effective(name: str, config: dict) -> None:
    log.info("effective config for %s: %s", name, json.dumps(config, sort_keys=True))


def _emit(args, payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _parse_support(text: str) -> SupportSet:
    try:
        return SupportSet(tuple(int(tok) for tok in text.split(",") if tok.strip()))
    except ValueError as exc:
        raise UsageError(f"bad --support {text!r}: {exc}") from exc


def _kind_spec(args, l: int) -> matrices.BlockStructureSpec:
    """Spec of the --kind grid with ``l`` block rows, from its flags."""
    kind, dist, seed = args.kind, args.dist, args.seed
    if kind in ("iid", "toeplitz-block", "circulant-block"):
        # checked here: the entry scale l*d would otherwise fail first
        for flag, value in (("k", args.k), ("l", l), ("d", args.d), ("e", args.e)):
            if value < 1:
                raise UsageError(f"--{flag} must be >= 1, got {value}")
        return matrices.BlockStructureSpec(kind, args.k, l, args.d, args.e,
                                           matrices.EntryDistribution(dist, l * args.d), seed)
    if kind == "circulant-circulant":
        if args.p is None or args.q is None:
            raise UsageError("circulant-circulant needs --p and --q")
        return matrices.circulant_circulant_spec(args.k, l, args.p, args.q, dist, seed)
    if kind == "circulant-circulant-block":
        for flag in ("k2", "l2", "d2", "e2"):
            if getattr(args, flag) is None:
                raise UsageError(f"circulant-circulant-block needs --{flag}")
        return matrices.circulant_circulant_block_spec(
            args.k, l, args.k2, args.l2, args.d2, args.e2, dist, seed
        )
    raise UsageError(f"unknown kind {kind!r}")


def _matrix_from_args(args, rows: int | None = None):
    """The matrix that --spec, --kind and its flags, or the devore flags name,
    and the dict its effective-config line logs.  A --kind grid short of
    ``rows`` gets more block rows of its own height; the others never pad."""
    if args.spec:
        spec = spec_from_json(Path(args.spec).read_text())
    elif args.kind == "devore":
        if args.p is None or args.r is None:
            raise UsageError("devore needs --p and --r")
        pspec = PolySpec(p=args.p, r=args.r, t=args.t, s=args.s, l=args.l)
        return build_devore_block(pspec), {"devore": True, **pspec.__dict__}
    else:
        l = 1 if args.l is None else args.l
        spec = _kind_spec(args, l)
        if rows is not None and rows > spec.n:
            spec = _kind_spec(args, -(-rows // (spec.n // l)))
    return build_structured(spec), spec_to_dict(spec)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build(args) -> int:
    if args.save_spec and args.kind == "devore":
        raise UsageError("--save-spec does not apply to devore: no spec file rebuilds it")
    rows = args.rows
    matrix, meta = _matrix_from_args(args, rows)
    if rows is not None:
        if rows > matrix.n:
            raise UsageError(f"--rows {rows} exceeds built row count {matrix.n}")
        matrix = truncate_rows(matrix, rows)
    _log_effective("build", {"meta": meta, "rows": matrix.n, "cols": matrix.N,
                             "out": str(args.out)})
    write_matrix(args.out, matrix.entries)
    if args.save_spec:
        Path(args.save_spec).write_text(json.dumps(meta, indent=2, sort_keys=True))
    _emit(args, {"out": str(args.out), "rows": matrix.n, "cols": matrix.N,
                 "kind": matrix.spec.kind.value, "truncated": matrix.is_truncated})
    return EXIT_OK


def _cmd_rip(args) -> int:
    if args.matrix:
        entries = read_matrix(args.matrix)
        source = {"matrix": str(args.matrix)}
    else:
        matrix, meta = _matrix_from_args(args)
        entries = matrix.entries
        source = {"built": meta}
    _log_effective("rip", {"order": args.order, "method": args.method,
                           "samples": args.samples, "seed": args.seed, **source})
    if args.method == "exhaustive":
        est = delta_exhaustive(entries, args.order)
    else:
        est = delta_monte_carlo(entries, args.order, args.samples, args.seed)
    _emit(args, {
        "delta": est.delta,
        "method": est.method,
        "order": est.order,
        "samples": est.samples,
        "worst_support": list(est.worst_support.indices),
    })
    return EXIT_OK


def _cmd_deps(args) -> int:
    matrix, meta = _matrix_from_args(args)
    if args.support:
        support = _parse_support(args.support)
    else:
        rng = np.random.default_rng([args.seed, 1])
        size = 2 if args.t_size is None else args.t_size
        support = SupportSet(tuple(sorted(
            rng.choice(matrix.N, size=size, replace=False).tolist())))
    _log_effective("deps", {"built": meta, "support": list(support.indices)})
    report = dependency_report(matrix, support)
    _emit(args, {
        "T": list(support.indices),
        "per_row": [len(s) for s in report.per_row],
        "max": report.max_size,
        "bound": report.bound,
        "pass": report.passed,
    })
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _cmd_bounds(args) -> int:
    if (args.l1 is None) != (args.l2 is None):
        raise UsageError("--l1 and --l2 must be given together")
    if args.l1 is not None and min(args.l1, args.l2) < 1:
        raise UsageError("--l1 and --l2 must be >= 1")
    l = args.l if args.l1 is None else args.l1 * args.l2

    def params_at(n):
        return BoundParams(m=args.m, N=args.N, n=n, l=l,
                           delta=args.delta, c0=args.c0, c2=args.c2)

    # by default, evaluate the bound at its own measurement requirement
    n = args.n if args.n is not None else rip_success_bound(params_at(1)).n_required
    params = params_at(n)
    result = rip_success_bound(params)
    _log_effective("bounds", {
        "m": params.m, "N": params.N, "n": params.n, "l": params.l,
        "delta": params.delta, "c0": params.c0, "c2": params.c2,
    })
    _emit(args, {
        "regime": result.regime,
        "prob_lower": result.prob_lower,
        "n_required": result.n_required,
        "vacuous": result.vacuous,
        "c1": result.c1,
    })
    return EXIT_OK


def _cmd_recover(args) -> int:
    entries = read_matrix(args.matrix)
    y = read_vector_csv(args.y)
    _log_effective("recover", {"matrix": str(args.matrix), "y": str(args.y),
                               "solver": args.solver, "tol": args.tol,
                               "max_iter": args.max_iter, "sparsity": args.sparsity,
                               "out": str(args.out)})
    op = dense_operator(entries)
    if args.solver == "bp":
        result = basis_pursuit(op, y, tol=args.tol, max_iter=args.max_iter)
    else:
        if args.sparsity is None:
            raise UsageError("omp needs --sparsity")
        result = omp(op, y, args.sparsity, tol=args.tol)
    write_vector_csv(args.out, result.estimate)
    _emit(args, {
        "out": str(args.out),
        "status": result.status.value,
        "iterations": result.iterations,
        "residual_norm": result.residual_norm,
        "nnz": int(np.count_nonzero(result.estimate)),
    })
    return EXIT_OK


def _checked_threads(value: int, source: str) -> int:
    if value < 1:
        raise UsageError(f"{source} must be a positive integer, got {value}")
    return value


def _threads_default() -> int:
    env = os.environ.get("STRUCTCS_THREADS")
    if not env:
        return 1
    try:
        value = int(env)
    except ValueError:
        raise UsageError(
            f"STRUCTCS_THREADS must be a positive integer, got {env!r}") from None
    return _checked_threads(value, "STRUCTCS_THREADS")


def _cmd_bench(args) -> int:
    if args.config:
        data = json.loads(Path(args.config).read_text())
        if not isinstance(data, dict):
            raise UsageError(f"--config {args.config} must hold a JSON object")
    else:
        preset = bench_mod.full_preset if args.preset == "full" else bench_mod.desk_preset
        data = {k: v for k, v in preset().__dict__.items()}
    # flag overrides win over config-file values
    for field in ("trials", "master_seed"):
        value = getattr(args, field)
        if value is not None:
            data[field] = value
    try:
        config = bench_mod.ExperimentConfig(**data)
    except TypeError as exc:
        raise UsageError(f"bad --config {args.config}: {exc}") from None
    threads = (_checked_threads(args.threads, "--threads") if args.threads is not None
               else _threads_default())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    blas = [Path(lib.path).name for lib in bench_mod._openblas_libraries()]
    if not blas:
        log.warning("no OpenBLAS found to limit per trial; trials run with the "
                    "BLAS library's default thread count")
    _log_effective("bench", {"config": json.loads(json.dumps(config.__dict__)),
                             "threads": threads, "out": str(out_dir),
                             "blas_one_thread_per_trial": blas})
    curve = bench_mod.success_curve(
        config,
        threads=threads,
        cache_path=out_dir / "cache.json",
        progress=lambda kind, n, s: log.info("cell %s n=%d: %d/%d",
                                             kind, n, s, config.trials),
    )
    csv_path = bench_mod.write_run(out_dir, curve)
    _emit(args, {"out": str(out_dir), "cells": len(curve.cells), "csv": str(csv_path)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_structure_flags(sub, with_devore=False):
    """Flags that name a matrix; returns the required group of its sources."""
    kinds = ["iid", "toeplitz-block", "circulant-block",
             "circulant-circulant", "circulant-circulant-block"]
    if with_devore:
        kinds.append("devore")
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", help="spec JSON file")
    source.add_argument("--kind", choices=kinds)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument(*(("--l", "--l-cols") if with_devore else ("--l",)), type=int,
                     help="block rows, default 1; devore: columns per block, default p^(r+1)/t")
    sub.add_argument("--d", type=int, default=1)
    sub.add_argument("--e", type=int, default=1)
    sub.add_argument("--p", type=int, help="inner columns (nested) / field prime (devore)")
    sub.add_argument("--q", type=int, help="inner rows for circulant-circulant")
    sub.add_argument("--k2", type=int)
    sub.add_argument("--l2", type=int)
    sub.add_argument("--d2", type=int)
    sub.add_argument("--e2", type=int)
    if with_devore:
        sub.add_argument("--r", type=int, help="polynomial degree bound (devore)")
        sub.add_argument("--t", type=int, default=1, help="block columns (devore)")
        sub.add_argument("--s", type=int, default=1, help="block rows (devore)")
    sub.add_argument("--dist", choices=[k.value for k in matrices.DistributionKind],
                     default="gaussian")
    sub.add_argument("--seed", type=int, default=0)
    return source


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structcs",
        description="structured compressed-sensing toolkit",
    )
    parser.add_argument("--verbose", "-v", action="count", default=0)
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="build a matrix and export it")
    _add_structure_flags(b, with_devore=True)
    b.add_argument("--rows", type=int, help="keep this many rows (pads a --kind grid)")
    b.add_argument("--out", required=True, help="output file (.csv or .bin)")
    b.add_argument("--save-spec", help="also write the spec JSON here")
    b.add_argument("--json", action="store_true")

    r = subs.add_parser("rip", help="estimate the restricted-isometry constant")
    _add_structure_flags(r, with_devore=True).add_argument(
        "--matrix", help="matrix file instead of building from flags")
    r.add_argument("--order", type=int, required=True)
    r.add_argument("--method", choices=["exhaustive", "mc"], default="exhaustive")
    r.add_argument("--samples", type=int, default=1000)
    r.add_argument("--json", action="store_true")

    d = subs.add_parser("deps", help="row-dependency report for a support")
    _add_structure_flags(d)
    d.add_argument("--support", help="comma-separated column indices")
    d.add_argument("--t-size", type=int, help="random support size when --support absent")
    d.add_argument("--json", action="store_true")

    bo = subs.add_parser("bounds", help="evaluate the success-probability bounds")
    bo.add_argument("--m", type=int, required=True)
    bo.add_argument("--N", type=int, required=True)
    bo.add_argument("--n", type=int, help="measurement count (default: the computed requirement)")
    bo.add_argument("--l", type=int, default=1)
    bo.add_argument("--l1", type=int, help="outer block rows (with --l2, overrides --l)")
    bo.add_argument("--l2", type=int)
    bo.add_argument("--delta", type=float, required=True)
    bo.add_argument("--c0", type=float)
    bo.add_argument("--c2", type=float)
    bo.add_argument("--json", action="store_true")

    re = subs.add_parser("recover", help="decode a measurement vector")
    re.add_argument("--matrix", required=True)
    re.add_argument("--y", required=True)
    re.add_argument("--solver", choices=["bp", "omp"], default="bp")
    re.add_argument("--tol", type=float, default=1e-7)
    re.add_argument("--max-iter", type=int, default=3000)
    re.add_argument("--sparsity", type=int)
    re.add_argument("--out", required=True)
    re.add_argument("--json", action="store_true")

    be = subs.add_parser("bench", help="run the success-probability sweep")
    be.add_argument("--config", help="experiment config JSON")
    be.add_argument("--preset", choices=["desk", "full"], default="desk")
    be.add_argument("--out", required=True, help="output directory")
    be.add_argument("--threads", type=int)
    be.add_argument("--trials", type=int)
    be.add_argument("--master-seed", type=int, dest="master_seed")
    be.add_argument("--json", action="store_true")

    return parser


_DISPATCH = {
    "build": _cmd_build,
    "rip": _cmd_rip,
    "deps": _cmd_deps,
    "bounds": _cmd_bounds,
    "recover": _cmd_recover,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.INFO if args.verbose == 0 else logging.DEBUG
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(name)s: %(message)s", force=True)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, GuardExceededError, IndexError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
