"""Acceptance suite: one test per exit criterion, stated tolerances pinned.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see
them on success).  Heavy artifacts are produced once in session
fixtures; the determinism criterion re-runs the producing code fresh
and compares bytes.  The sweep in each criterion is sized so that the
stated support/parameter ranges are covered exhaustively within the
stated runtime budget.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.optimize import linprog

from structcs.bench import desk_preset, success_curve, wilson_interval
from structcs.bounds import BoundParams, default_c0, rip_success_bound
from structcs.dependency import SupportSet, circulant_dependency_bound
from structcs.devore import PolySpec, verify_rip_guarantee
from structcs.fastops import structured_operator
from structcs.matrices import build_structured, circulant_block_spec, toeplitz_block_spec
from structcs.recovery import basis_pursuit

THREADS = min(8, os.cpu_count() or 1)
MASTER_SEED = 2  # pinned: all stochastic acceptance artifacts derive from it


def report(criterion, passed, detail):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: fast operator vs dense oracle


def fast_oracle_table(seed=MASTER_SEED, trials=100):
    """CSV of relative fast-vs-dense errors over random structured specs."""
    rng = np.random.default_rng([seed, 1])
    rows = ["trial,kind,n,N,forward_rel_err,adjoint_rel_err"]
    for trial in range(trials):
        build = toeplitz_block_spec if trial % 2 == 0 else circulant_block_spec
        while True:
            d, e = (int(rng.integers(1, 9)) for _ in range(2))
            k, l = (int(rng.integers(1, 65)) for _ in range(2))
            if (l * d) * (k * e) <= 2**18:
                break
        spec = build(k, l, d, e, "gaussian", seed=int(rng.integers(2**31)))
        M = build_structured(spec)
        op = structured_operator(M)
        # the dense fallback would pass this oracle and show nothing
        assert op.backend == "fft", f"trial {trial}: {op.backend} operator"
        x = rng.standard_normal(spec.N)
        y = rng.standard_normal(spec.n)
        fwd = op.forward(x)
        ref = M.entries @ x
        fe = np.linalg.norm(fwd - ref) / max(np.linalg.norm(ref), 1e-300)
        adj = op.adjoint(y)
        aref = M.entries.T @ y
        ae = np.linalg.norm(adj - aref) / max(np.linalg.norm(aref), 1e-300)
        rows.append(f"{trial},{spec.kind.value},{spec.n},{spec.N},{fe:.3e},{ae:.3e}")
    return "\n".join(rows) + "\n"


def test_criterion_1_fast_operator_oracle():
    start = time.time()
    table = fast_oracle_table()
    worst = max(
        max(float(line.split(",")[4]), float(line.split(",")[5]))
        for line in table.strip().split("\n")[1:]
    )
    elapsed = time.time() - start
    report(
        "criterion 1 (fast operator oracle, 100 specs)",
        worst <= 1e-10 and elapsed < 30,
        f"max rel err {worst:.2e} (tol 1e-10), {elapsed:.1f}s (budget 30s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: exhaustive dependency bound sweep, banded grids


def _max_dependency(var_id, cols):
    V = var_id[:, cols]
    eq = (V[:, None, :, None] == V[None, :, None, :]).any(axis=(2, 3))
    np.fill_diagonal(eq, False)
    return int(eq.sum(axis=1).max())


def dependency_sweep_summary(max_cols=20, max_l=6):
    """Exhaustive check over banded-grid shapes with N <= 20, |T| <= 4.

    Covers every block-column count at column widths 1, 2 and 4, block
    heights 1 and 3, and all l in 1..6; all supports of size 1..4.
    """
    checked = 0
    violations = 0
    worst = -1
    for e in (1, 2, 4):
        for k in range(1, max_cols // e + 1):
            N = k * e
            sizes = [s for s in (1, 2, 3, 4) if s <= N]
            supports = {
                s: [list(c) for c in itertools.combinations(range(N), s)]
                for s in sizes
            }
            for l in range(1, max_l + 1):
                for d in (1, 3):
                    spec = toeplitz_block_spec(k, l, d, e, "bernoulli",
                                               seed=k * 100 + l * 10 + d)
                    M = build_structured(spec)
                    for s in sizes:
                        bound = min(s * (s - 1), l - 1)
                        for cols in supports[s]:
                            got = _max_dependency(M.var_id, cols)
                            checked += 1
                            worst = max(worst, got - bound)
                            violations += got > bound
    return {"supports_checked": checked, "violations": violations,
            "worst_excess": worst}


def test_criterion_2_dependency_bound_exhaustive():
    start = time.time()
    summary = dependency_sweep_summary()
    elapsed = time.time() - start
    report(
        "criterion 2 (banded-grid dependency bound, exhaustive)",
        summary["violations"] == 0 and elapsed < 60,
        f"{summary['supports_checked']} support checks, "
        f"{summary['violations']} violations, {elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: circulant shift dependency counts


def circulant_shift_summary(max_q=12):
    checked = 0
    violations = 0
    for q in range(1, max_q + 1):
        for s in (1, 2, 3, 4):
            if s > q:
                continue
            for T in itertools.combinations(range(q), s):
                count = circulant_dependency_bound(q, q, SupportSet(T))
                checked += 1
                violations += count > s * (s - 1)
    return {"supports_checked": checked, "violations": violations}


def test_criterion_3_circulant_shift_dependency_exhaustive():
    start = time.time()
    summary = circulant_shift_summary()
    elapsed = time.time() - start
    report(
        "criterion 3 (circulant shift dependency, exhaustive p=q<=12)",
        summary["violations"] == 0 and elapsed < 30,
        f"{summary['supports_checked']} supports, "
        f"{summary['violations']} violations, {elapsed:.1f}s (budget 30s)",
    )


# ---------------------------------------------------------------------------
# criterion 4: deterministic construction isometry certificates

# instance sizes chosen so every valid order is exhaustible in budget;
# each (p, r) runs one plain (s = 1) and one banded (s >= 2) instance
DETERMINISTIC_INSTANCES = [
    PolySpec(p=3, r=1, t=1, s=1, l=9),
    PolySpec(p=3, r=1, t=3, s=2, l=3),
    PolySpec(p=3, r=2, t=1, s=1, l=27),
    PolySpec(p=3, r=2, t=4, s=2, l=6),
    PolySpec(p=5, r=1, t=1, s=1, l=25),
    PolySpec(p=5, r=1, t=4, s=2, l=5),
    PolySpec(p=5, r=2, t=1, s=1, l=125),
    PolySpec(p=5, r=2, t=5, s=3, l=6),
    PolySpec(p=7, r=1, t=1, s=1, l=21),
    PolySpec(p=7, r=1, t=4, s=2, l=5),
    PolySpec(p=7, r=2, t=1, s=1, l=24),
    PolySpec(p=7, r=2, t=4, s=2, l=6),
]


def deterministic_certificates():
    out = []
    for spec in DETERMINISTIC_INSTANCES:
        # every m with m < p/r + 1 (strict)
        m_max = math.ceil(spec.p / spec.r + 1) - 1
        for m in range(1, min(m_max, spec.shape[1]) + 1):
            cert = verify_rip_guarantee(spec, m)
            out.append({
                "p": spec.p, "r": spec.r, "t": spec.t, "s": spec.s, "l": spec.l,
                "m": m,
                "delta_bound": cert.delta_bound,
                "worst_eig_delta": cert.worst_eig_delta,
                "worst_rowsum_delta": cert.worst_rowsum_delta,
                "supports": cert.supports_checked,
                "passed": cert.passed,
            })
    return out


def test_criterion_4_deterministic_rip_exhaustive():
    start = time.time()
    certs = deterministic_certificates()
    elapsed = time.time() - start
    all_pass = all(c["passed"] for c in certs)
    total = sum(c["supports"] for c in certs)
    gershgorin = all(
        c["worst_eig_delta"] <= c["worst_rowsum_delta"] + 1e-12 for c in certs
    )
    report(
        "criterion 4 (deterministic construction, exhaustive eigenvalue checks)",
        all_pass and gershgorin and elapsed < 300,
        f"{len(certs)} (p,r,m) instances, {total} supports, "
        f"all within (m-1)r/p, {elapsed:.1f}s (budget 300s)",
    )


# ---------------------------------------------------------------------------
# criterion 5: bound reductions and regime inequality


def bounds_property_summary(seed=MASTER_SEED, tuples=10_000):
    rng = np.random.default_rng([seed, 5])
    iid_violations = 0
    rate_violations = 0
    for _ in range(tuples):
        m = int(rng.integers(1, 9))
        delta = float(rng.uniform(0.05, 0.95))
        c0 = default_c0(delta)
        c2 = c0 * float(rng.uniform(0.05, 0.9))
        n = int(rng.integers(1, 10**6))
        # reduction: a single block row gives exponent exactly -c2*n
        params = BoundParams(m=m, N=10**7, n=n, l=1, delta=delta, c0=c0, c2=c2)
        res = rip_success_bound(params)
        if not res.vacuous:
            expect = 1.0 - math.exp(-c2 * n)
            if abs(res.prob_lower - expect) > 1e-12:
                iid_violations += 1
        # the small-l exponent dominates the m^2 rate for all valid l
        cap = 3 * m * (3 * m - 1)
        l = int(rng.integers(1, cap + 1))
        if -c2 * n / l > -c2 * n / (9 * m * m - 3 * m) + 1e-18:
            rate_violations += 1
    return {"tuples": tuples, "iid_reduction_violations": iid_violations,
            "rate_inequality_violations": rate_violations}


def test_criterion_5_bound_reductions_and_inequality():
    start = time.time()
    summary = bounds_property_summary()
    elapsed = time.time() - start
    report(
        "criterion 5 (bound reduction + rate inequality, 10^4 tuples)",
        summary["iid_reduction_violations"] == 0
        and summary["rate_inequality_violations"] == 0
        and elapsed < 5,
        f"{summary['tuples']} tuples, 0 expected violations, "
        f"got {summary['iid_reduction_violations']}+"
        f"{summary['rate_inequality_violations']}, {elapsed:.1f}s (budget 5s)",
    )


# ---------------------------------------------------------------------------
# criterion 6: desk-scale success-probability reproduction


@pytest.fixture(scope="session")
def desk_curve():
    config = desk_preset(master_seed=MASTER_SEED)
    start = time.time()
    curve = success_curve(config, threads=THREADS)
    elapsed = time.time() - start
    return config, curve, curve.to_csv_text(), elapsed


def test_criterion_6_phase_transition_desk_scale(desk_curve):
    config, curve, _, elapsed = desk_curve
    problems = []
    largest = config.n_grid[-1]
    for kind in config.kinds:
        fr = curve.fractions(kind)
        if curve.cell(kind, largest).fraction < 0.95:
            problems.append(f"{kind} tops out at {fr[-1]:.3f} < 0.95")
        if min(fr) > 0.1:
            problems.append(f"{kind} never drops to 0.1 (min {min(fr):.3f})")
        if max(fr) < 0.9:
            problems.append(f"{kind} never reaches 0.9 (max {max(fr):.3f})")
    for n in config.n_grid:
        iid_cell = curve.cell("iid", n)
        lo, hi = iid_cell.ci
        tb = curve.cell("toeplitz-block", n).fraction
        if not (lo - 0.05 <= tb <= hi + 0.05):
            problems.append(
                f"toeplitz-block at n={n}: {tb:.3f} outside iid "
                f"[{lo:.3f}, {hi:.3f}] +- 0.05"
            )
    budget = 1200 * (8 / THREADS if THREADS < 8 else 1)
    ok = not problems and elapsed < budget
    report(
        "criterion 6 (desk-scale success curves)",
        ok,
        f"{len(curve.cells)} cells x {config.trials} trials in {elapsed:.0f}s "
        f"on {THREADS} workers" + ("; " + "; ".join(problems) if problems else ""),
    )


# ---------------------------------------------------------------------------
# criterion 7: l1 decoder against an LP oracle


def lp_comparison_records(seed=MASTER_SEED, instances=50):
    rng = np.random.default_rng([seed, 7])
    records = []
    for trial in range(instances):
        n = int(rng.integers(5, 21))
        N = int(rng.integers(n + 1, 41))
        A = rng.standard_normal((n, N)) / math.sqrt(n)
        if trial % 2 == 0:
            x0 = np.zeros(N)
            sup = rng.choice(N, 3, replace=False)
            x0[sup] = rng.standard_normal(3)
            y = A @ x0
        else:
            y = rng.standard_normal(n)
        res = basis_pursuit(A, y, tol=1e-9, max_iter=20_000)
        lp = linprog(np.ones(2 * N), A_eq=np.hstack([A, -A]), b_eq=y,
                     bounds=[(0, None)] * (2 * N), method="highs")
        assert lp.status == 0
        records.append({
            "trial": trial,
            "objective": float(np.abs(res.estimate).sum()),
            "lp_objective": float(lp.fun),
        })
    return records


def test_criterion_7_l1_objective_matches_lp_oracle():
    start = time.time()
    records = lp_comparison_records()
    worst = max(
        abs(r["objective"] - r["lp_objective"]) / max(1.0, abs(r["lp_objective"]))
        for r in records
    )
    elapsed = time.time() - start
    report(
        "criterion 7 (l1 decoder vs LP oracle, 50 instances)",
        worst <= 1e-6 and elapsed < 60,
        f"worst objective gap {worst:.2e} (tol 1e-6), {elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# criterion 8: byte determinism of every artifact


def test_criterion_8_outputs_deterministic(desk_curve):
    config, _, csv_first, _ = desk_curve
    start = time.time()
    fresh = success_curve(config, threads=THREADS).to_csv_text()
    checks = {
        "bench curve.csv": csv_first == fresh,
        "fast-operator error table": fast_oracle_table() == fast_oracle_table(),
        "dependency sweep summary": (
            json.dumps(dependency_sweep_summary(max_cols=10, max_l=4))
            == json.dumps(dependency_sweep_summary(max_cols=10, max_l=4))
        ),
        "circulant shift summary": (
            json.dumps(circulant_shift_summary())
            == json.dumps(circulant_shift_summary())
        ),
        "deterministic certificates": (
            json.dumps(deterministic_certificates()[:40])
            == json.dumps(deterministic_certificates()[:40])
        ),
        "bounds summary": (
            json.dumps(bounds_property_summary(tuples=2000))
            == json.dumps(bounds_property_summary(tuples=2000))
        ),
        "lp comparison records": (
            json.dumps(lp_comparison_records(instances=10))
            == json.dumps(lp_comparison_records(instances=10))
        ),
    }
    elapsed = time.time() - start
    bad = [name for name, ok in checks.items() if not ok]
    report(
        "criterion 8 (byte-identical reruns, same master seed)",
        not bad,
        f"{len(checks)} artifact classes compared in {elapsed:.0f}s"
        + (f"; mismatches: {bad}" if bad else ""),
    )
