"""Seeded Monte Carlo harness: empirical recovery success vs measurements.

For each matrix kind and measurement count n, the harness runs seeded
trials: draw a sparse signal, build a fresh sensing matrix, measure,
decode, and score exact recovery.  Signal seeds depend only on
(master_seed, n, trial), so at a fixed grid cell every matrix kind sees
the same signal and the curves are paired.  Matrix seeds additionally
hash the kind.  Results are fully deterministic for a given config,
independent of worker count, and cached per cell so sweeps resume.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import hashlib
import io
import json
import logging
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .fastops import dense_operator, structured_operator
from .matrices import (
    BlockStructureSpec,
    DistributionKind,
    MatrixKind,
    build_structured,
    iid_spec,
    toeplitz_block_spec,
    circulant_block_spec,
)
from .recovery import RecoveryStatus, SparseSignal, basis_pursuit, is_exact_recovery, omp

__all__ = [
    "ExperimentConfig",
    "CurveCell",
    "SuccessCurve",
    "KNOWN_KINDS",
    "desk_preset",
    "full_preset",
    "wilson_interval",
    "generate_sparse_signal",
    "spec_template",
    "run_trial",
    "success_curve",
    "write_plot_script",
    "write_run",
]

log = logging.getLogger("structcs.bench")

KNOWN_KINDS = ("iid", "toeplitz", "toeplitz-block", "circulant-block")

WILSON_Z = 1.959963984540054  # two-sided 95%

# the curve's file name inside a run directory
CURVE_CSV = "curve.csv"


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one success-probability sweep."""

    N: int
    m: int
    kinds: tuple[str, ...]
    n_grid: tuple[int, ...]
    trials: int
    distribution: str = "bernoulli"
    solver: str = "bp"
    success_rel_tol: float = 1e-5
    solver_tol: float = 1e-7
    solver_max_iter: int = 1500
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not 0 <= self.m <= self.N:
            raise ValueError(f"m must be in 0..{self.N}, got {self.m}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.kinds or not self.n_grid:
            raise ValueError("kinds and n_grid must not be empty")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ValueError("n_grid must be strictly increasing")
        if not all(1 <= n <= self.N for n in self.n_grid):
            raise ValueError(f"every n must be in 1..{self.N}")
        if self.solver_max_iter < 1:
            raise ValueError(f"solver_max_iter must be >= 1, got {self.solver_max_iter}")
        if not (self.solver_tol > 0 and self.success_rel_tol > 0):
            raise ValueError("solver_tol and success_rel_tol must be > 0")
        for kind in self.kinds:
            if kind not in KNOWN_KINDS:
                raise ValueError(f"unknown matrix kind template {kind!r}")
        DistributionKind(self.distribution)
        if self.solver not in ("bp", "omp"):
            raise ValueError(f"unknown solver {self.solver!r}")

    def digest(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


def desk_preset(master_seed: int = 0, **overrides) -> ExperimentConfig:
    """Minutes-scale default sweep: N=512, m=10, 200 trials per cell."""
    cfg = ExperimentConfig(
        N=512,
        m=10,
        kinds=("iid", "toeplitz", "toeplitz-block"),
        n_grid=tuple(range(40, 241, 20)) + (256,),
        trials=200,
        master_seed=master_seed,
    )
    return replace(cfg, **overrides) if overrides else cfg


def full_preset(master_seed: int = 0, **overrides) -> ExperimentConfig:
    """Hours-scale sweep at the original experiment size: N=2048, m=20,
    1000 trials per cell (the measurement grid is our choice)."""
    cfg = ExperimentConfig(
        N=2048,
        m=20,
        kinds=("iid", "toeplitz", "toeplitz-block"),
        n_grid=tuple(range(100, 1001, 60)),
        trials=1000,
        master_seed=master_seed,
    )
    return replace(cfg, **overrides) if overrides else cfg


# ---------------------------------------------------------------------------
# seeds, signals, matrix templates


def _derive_seed(master_seed: int, *parts) -> int:
    """Stable 63-bit seed from the master seed and a label path."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master_seed)).encode())
    for part in parts:
        h.update(b"\x1f")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "little") >> 1


def generate_sparse_signal(N: int, m: int, seed: int) -> SparseSignal:
    """Uniform random m-subset support with standard normal values."""
    if not 0 <= m <= N:
        raise ValueError(f"m must be in 0..{N}")
    rng = np.random.default_rng([seed])
    support = tuple(sorted(rng.choice(N, size=m, replace=False).tolist())) if m else ()
    values = rng.standard_normal(m)
    return SparseSignal(length=N, support=support, values=values)


def _largest_divisor_at_most(n: int, cap: int) -> int:
    for l in range(min(cap, n), 0, -1):
        if n % l == 0:
            return l
    return 1


def spec_template(kind: str, N: int, m: int, dist: str, n: int, seed: int) -> BlockStructureSpec:
    """Resolve a named matrix-kind template at measurement count n.

    ``toeplitz`` is the scalar band (d = e = 1, l = n, k = N).  For the
    block kinds, l is the largest divisor of n with l <= 3m(3m-1) and
    d = n/l >= 8, and e is the largest divisor of N not exceeding d;
    these choices are echoed in the output metadata.
    """
    if kind == "iid":
        return iid_spec(n, N, dist, seed)
    if kind == "toeplitz":
        return toeplitz_block_spec(k=N, l=n, d=1, e=1, dist_kind=dist, seed=seed)
    if kind in ("toeplitz-block", "circulant-block"):
        l_cap = min(3 * m * (3 * m - 1), max(n // 8, 1))
        l = _largest_divisor_at_most(n, l_cap)
        d = n // l
        e = _largest_divisor_at_most(N, d)
        k = N // e
        build = toeplitz_block_spec if kind == "toeplitz-block" else circulant_block_spec
        return build(k=k, l=l, d=d, e=e, dist_kind=dist, seed=seed)
    raise ValueError(f"unknown matrix kind template {kind!r}")


# (get, set) thread-count calls, tried in order on each mapped OpenBLAS
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),  # numpy wheel
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),  # scipy wheel
    ("openblas_get_num_threads", "openblas_set_num_threads"),  # system build
)


class _OpenBLAS(NamedTuple):
    path: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


@functools.cache
def _openblas_libraries() -> tuple[_OpenBLAS, ...]:
    """Every OpenBLAS mapped into this process that exports a thread-count call.

    Read once per process from /proc/self/maps; empty where that file does
    not exist.  A forked worker inherits the parent's result, which stays
    valid because the child maps the same libraries at the same addresses.
    """
    paths: list[str] = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                fields = line.split(maxsplit=5)
                if len(fields) == 6:
                    path = fields[5].rstrip("\n")
                    if "openblas" in os.path.basename(path).lower() and path not in paths:
                        paths.append(path)
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append(_OpenBLAS(path, get, set_))
                break
    return tuple(found)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread, then restore
    each library's previous thread count.

    A trial's BLAS calls are small, so threads inside them cost more in
    hand-off than they save, and in the pool they contend for the cores
    the workers already use.
    """
    libs = _openblas_libraries()
    previous = [lib.get_threads() for lib in libs]
    for lib in libs:
        lib.set_threads(1)
    try:
        yield
    finally:
        for lib, threads in zip(libs, previous):
            lib.set_threads(threads)


# the size, in matrix entries n*N, from which a trial decodes through the FFT
# operator.  Per decode on one thread (2-core x86_64, numpy 2.4.6), toeplitz
# and toeplitz-block: at N=2048, n=100 (204,800 entries) the two tie (52.1
# and 49.2 ms dense, 52.3 and 55.8 ms FFT); at n=160 (327,680) the FFT wins
# (12.1 and 17.0 ms dense, 8.3 and 11.8 ms FFT); at the desk preset's
# largest, N=512, n=256 (131,072), dense wins (1.02 and 1.04 ms dense, 1.11
# and 1.27 ms FFT)
FFT_MIN_ENTRIES = 2**18


def run_trial(config: ExperimentConfig, kind: str, n: int, trial_index: int) -> bool:
    """One seeded build-measure-decode round; True on exact recovery.

    The signal seed omits the kind so all kinds share signals at a
    fixed (n, trial); the matrix seed includes it.  The dense matrix is
    always built.  A matrix of at least ``FFT_MIN_ENTRIES`` entries is
    measured and decoded through ``structured_operator``, which is FFT
    backed for the block-convolution kinds and dense for IID; a smaller
    one through ``dense_operator``.  A solver failure (LinAlgError or
    ValueError) counts as a non-success and logs one WARNING.  The trial
    runs on one BLAS thread, and numpy's FFT runs on one thread too.
    """
    with _one_blas_thread():
        signal_seed = _derive_seed(config.master_seed, "signal", n, trial_index)
        signal = generate_sparse_signal(config.N, config.m, signal_seed)
        matrix_seed = _derive_seed(config.master_seed, "matrix", kind, n, trial_index)
        spec = spec_template(kind, config.N, config.m, config.distribution, n, matrix_seed)
        matrix = build_structured(spec)
        op = (structured_operator(matrix) if matrix.entries.size >= FFT_MIN_ENTRIES
              else dense_operator(matrix))
        y = op.forward(signal.to_dense())
        try:
            if config.solver == "bp":
                result = basis_pursuit(op, y, tol=config.solver_tol,
                                       max_iter=config.solver_max_iter)
            else:
                result = omp(op, y, config.m, tol=config.solver_tol)
        except (np.linalg.LinAlgError, ValueError) as exc:
            log.warning("%s n=%d trial %d: decoder raised %s: %s; scored not recovered",
                        kind, n, trial_index, type(exc).__name__, exc)
            return False
        if result.status is RecoveryStatus.INFEASIBLE:
            return False
        return is_exact_recovery(signal, result, config.success_rel_tol)


# ---------------------------------------------------------------------------
# curves


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial fraction."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be in 0..trials")
    phat = successes / trials
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = WILSON_Z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class CurveCell:
    kind: str
    n: int
    successes: int
    trials: int

    @property
    def fraction(self) -> float:
        return self.successes / self.trials

    @property
    def ci(self) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials)


@dataclass(frozen=True)
class SuccessCurve:
    config: ExperimentConfig
    cells: tuple[CurveCell, ...]

    def cell(self, kind: str, n: int) -> CurveCell:
        for c in self.cells:
            if c.kind == kind and c.n == n:
                return c
        raise KeyError((kind, n))

    def fractions(self, kind: str) -> list[float]:
        return [c.fraction for c in self.cells if c.kind == kind]

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["kind", "n", "successes", "trials", "fraction", "ci_lo", "ci_hi"])
        for c in self.cells:
            lo, hi = c.ci
            writer.writerow([c.kind, c.n, c.successes, c.trials,
                             f"{c.fraction:.6f}", f"{lo:.6f}", f"{hi:.6f}"])
        return buf.getvalue()

    def write_csv(self, path) -> None:
        Path(path).write_text(self.to_csv_text())


# names the code behind a cached cell: the decoder, the matrix sampler and
# the operator that decodes.  A change to what the decoders return, to the
# values a spec samples or to the products a decode reads must change it,
# so that a cache of the old results is not read
RESULTS_VERSION = "lasso-homotopy-2+one-stream-pool-1+fft-adjoint-1"


def _cell_key(config: ExperimentConfig, kind: str, n: int) -> str:
    return f"{config.digest()}:{RESULTS_VERSION}:{kind}:{n}"


def _load_cache(cache_file: Path, config: ExperimentConfig) -> dict[str, int]:
    """Read a cache file; ValueError names it unless it is a JSON object
    whose counts for this config's cells are ints in 0..trials."""
    try:
        cache = json.loads(cache_file.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"cache {cache_file} is not valid JSON: {exc}") from None
    if not isinstance(cache, dict):
        raise ValueError(f"cache {cache_file} must hold a JSON object, "
                         f"got {type(cache).__name__}")
    for kind in config.kinds:
        for n in config.n_grid:
            count = cache.get(_cell_key(config, kind, n))
            if count is not None and not (type(count) is int
                                          and 0 <= count <= config.trials):
                raise ValueError(f"cache {cache_file}: {kind} n={n} holds {count!r}, "
                                 f"not a count in 0..{config.trials}")
    return cache


def _run_cell(config: ExperimentConfig, kind: str, n: int) -> int:
    return sum(run_trial(config, kind, n, t) for t in range(config.trials))


def _atomic_write_json(path: Path, payload: dict) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=0, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def success_curve(
    config: ExperimentConfig,
    threads: int = 1,
    cache_path=None,
    progress=None,
) -> SuccessCurve:
    """Sweep the full (kind, n) grid; returns the paired success curve.

    ``threads`` > 1 distributes whole cells over worker processes; the
    per-trial seeding makes the outcome identical for any thread count.
    Each trial runs on one BLAS thread, so parallelism comes only from
    ``threads``, across cells, and ``OPENBLAS_NUM_THREADS`` need not be
    set.  With ``cache_path`` set, each cell is stored as JSON (written
    atomically) as soon as it completes, and reused on reruns of the
    same config; a malformed cache file raises ValueError.
    """
    cache: dict[str, int] = {}
    cache_file = Path(cache_path) if cache_path else None
    if cache_file and cache_file.exists():
        cache = _load_cache(cache_file, config)
    cells = [(kind, n) for kind in config.kinds for n in config.n_grid]
    pending = [(kind, n) for kind, n in cells
               if _cell_key(config, kind, n) not in cache]

    def record(kind, n, successes):
        cache[_cell_key(config, kind, n)] = successes
        if cache_file:
            _atomic_write_json(cache_file, cache)
        if progress:
            progress(kind, n, successes)

    if threads > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = {pool.submit(_run_cell, config, kind, n): (kind, n)
                       for kind, n in pending}
            for fut in as_completed(futures):
                record(*futures[fut], fut.result())
    else:
        for kind, n in pending:
            record(kind, n, _run_cell(config, kind, n))

    out = tuple(
        CurveCell(kind, n, cache[_cell_key(config, kind, n)], config.trials)
        for kind, n in cells
    )
    return SuccessCurve(config=config, cells=out)


def write_plot_script(path, kinds) -> None:
    """Emit a gnuplot script that renders the curve CSV."""
    lines = [
        "# gnuplot script; expects the curve CSV in the same directory",
        "set datafile separator comma",
        "set key bottom right",
        'set xlabel "measurements n"',
        'set ylabel "empirical success fraction"',
        "set yrange [0:1.05]",
    ]
    plots = [
        f'"{CURVE_CSV}" using 2:(strcol(1) eq "{kind}" ? $5 : 1/0) '
        f'with linespoints title "{kind}"'
        for kind in kinds
    ]
    lines.append("plot " + ", \\\n     ".join(plots))
    Path(path).write_text("\n".join(lines) + "\n")


def write_run(out_dir, curve: SuccessCurve) -> Path:
    """Write a run directory: the curve CSV, the config echo (itself a
    valid bench config file) and the gnuplot script.  Returns the CSV path.
    """
    out_dir = Path(out_dir)
    csv_path = out_dir / CURVE_CSV
    curve.write_csv(csv_path)
    (out_dir / "config-echo.json").write_text(
        json.dumps(asdict(curve.config), indent=2, sort_keys=True) + "\n"
    )
    write_plot_script(out_dir / "plot.gp", kinds=curve.config.kinds)
    return csv_path
