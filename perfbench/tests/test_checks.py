"""Every check of the benchmark rejects a deliberately wrong output.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import itertools
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from structcs import bench, dependency, devore, matrices  # noqa: E402


# -- sweeps -------------------------------------------------------------------


def test_statistical_dimension_matches_the_published_values():
    assert oracles.l1_statistical_dimension(512, 10) == pytest.approx(52, abs=1)
    assert oracles.l1_statistical_dimension(2048, 20) == pytest.approx(123, abs=1)


GRID = (40, 60, 80, 160, 256)


def _curve(iid=(1, 3, 4, 4, 4), other=(0, 2, 4, 4, 4)):
    counts = {("iid", n): s for n, s in zip(GRID, iid)}
    counts.update({("toeplitz", n): s for n, s in zip(GRID, other)})
    return counts


def test_curve_check_accepts_a_plausible_curve():
    assert oracles.curve_problems(512, 10, GRID, 4, _curve()) == []


@pytest.mark.parametrize("tamper", [
    lambda c: c.update({("iid", 80): 5}),             # one success too many
    lambda c: c.update({("toeplitz", 256): 3}),       # misses far above n*
    lambda c: c.update({("iid", 40): 0, ("iid", 60): 0, ("iid", 80): 0,
                        ("iid", 160): 1}),            # crossing far from n*
])
def test_curve_check_rejects(tamper):
    counts = _curve()
    tamper(counts)
    assert oracles.curve_problems(512, 10, GRID, 4, counts)


def test_cell_check_rejects_a_count_its_trials_do_not_give():
    assert oracles.cell_problems("iid", 40, 4, 2, [True, False, True, False]) == []
    assert oracles.cell_problems("iid", 40, 4, 3, [True, False, True, False])
    assert oracles.cell_problems("iid", 40, 4, 1, [True, False, True, False])


def test_lp_oracle_tells_recovery_from_failure():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((40, 100)) / math.sqrt(40)
    x = np.zeros(100)
    x[[3, 17, 58]] = [1.0, -2.0, 0.5]
    assert oracles.lp_relative_error(A, x) <= oracles.RECOVERY_REL_TOL
    assert oracles.lp_relative_error(A, rng.standard_normal(100)) > oracles.RECOVERY_REL_TOL


def test_trial_check_rejects_a_verdict_its_estimate_does_not_bear():
    x = np.zeros(50)
    x[[2, 9]] = [1.0, -1.0]
    close, far = x + 1e-7, x + 1e-3
    assert oracles.trial_problems("t", True, x, close) == []
    assert oracles.trial_problems("t", False, x, far) == []
    assert oracles.trial_problems("t", False, x, None) == []
    assert oracles.trial_problems("t", True, x, far)      # a false success
    assert oracles.trial_problems("t", True, x, None)
    assert oracles.trial_problems("t", False, x, close)   # a false failure


# the desk geometry at the sweeps' master seed, on a grid small enough
# for a test: n=40 lies below the transition, n=256 far above it
SMALL = bench.desk_preset(master_seed=workloads.SWEEP_SEED, kinds=("iid", "toeplitz"),
                          n_grid=(40, 256), trials=2)


@pytest.fixture(scope="module")
def small_round(tmp_path_factory):
    sweep = workloads.Sweep(SMALL, 1, tmp_path_factory.mktemp("sweep"),
                            fixed=workloads.KNOWN_MISSES[:1])
    out = sweep.run_round()
    return sweep, out, sweep.records()


def test_sweep_check_counts_the_known_miss(small_round):
    sweep, out, records = small_round
    problems, failed, seen = sweep.check_records(out, records)
    assert problems == []
    assert [(m["kind"], m["n"], m["trial"]) for m in seen["decoder_misses"]] == \
        [workloads.KNOWN_MISSES[0]]
    assert failed == 1


def _bump(out, at, by):
    fixed, cells = out
    cells = list(cells)
    k, n, s, t = cells[at]
    cells[at] = (k, n, s + by, t)
    return fixed, tuple(cells)


def test_sweep_check_rejects_a_tampered_count(small_round):
    sweep, out, records = small_round
    short = next(i for i, c in enumerate(out[1]) if c[2] < c[3])
    some = next(i for i, c in enumerate(out[1]) if c[2] > 0)
    assert sweep.check_records(_bump(out, short, +1), records)[0]
    assert sweep.check_records(_bump(out, some, -1), records)[0]


def test_sweep_check_rejects_a_failed_trial_scored_as_recovered(small_round):
    """A looser tolerance, a broken scoring or a decoder that returns a
    wrong point would report a failed trial as recovered, in the curve
    and in the rerun alike; the estimate's own error gives it away."""
    sweep, out, records = small_round
    at = next(i for i, (ok, _, _) in enumerate(records[:len(sweep.jobs)]) if not ok)
    kind, n, _ = sweep.jobs[at]
    cell = next(i for i, c in enumerate(out[1]) if c[:2] == (kind, n))
    tampered = list(records)
    tampered[at] = (True,) + tampered[at][1:]
    problems = sweep.check_records(_bump(out, cell, +1), tampered)[0]
    assert any("scored recovered" in p for p in problems)
    # the fixed known miss scored as recovered
    tampered = list(records)
    tampered[-1] = (True,) + tampered[-1][1:]
    assert sweep.check_records(((True,), out[1]), tampered)[0]


# -- isometry constants -------------------------------------------------------


def _scan(A, m):
    best = max(itertools.combinations(range(A.shape[1]), m),
               key=lambda T: oracles.svd_delta(A, T))
    return oracles.svd_delta(A, best), best


def test_delta_check_rejects_a_lowered_or_misplaced_constant():
    A = np.random.default_rng(1).standard_normal((6, 12)) / math.sqrt(6)
    delta, witness = _scan(A, 3)
    samples = list(itertools.combinations(range(12), 3))
    assert oracles.delta_problems(A, 3, delta, witness, samples) == []
    assert oracles.delta_problems(A, 3, delta - 1e-3, witness, samples)
    other = samples[0] if samples[0] != witness else samples[1]
    assert oracles.delta_problems(A, 3, oracles.svd_delta(A, other), other, samples)


def test_devore_check_rejects_a_certificate_out_of_bounds():
    spec = devore.PolySpec(p=5, r=1, t=1, s=1, l=25)
    cert = devore.verify_rip_guarantee(spec, 3)
    N = spec.shape[1]
    assert oracles.devore_problems(5, 1, N, 3, cert) == []
    for bad in (dataclasses.replace(cert, worst_eig_delta=cert.delta_bound + 1e-3),
                dataclasses.replace(cert, supports_checked=cert.supports_checked - 1),
                dataclasses.replace(cert, passed=False)):
        assert oracles.devore_problems(5, 1, N, 3, bad)


# -- row dependencies ---------------------------------------------------------


@pytest.mark.parametrize("kind", ["toeplitz-block", "circulant-block"])
def test_layout_sets_match_the_program_on_every_small_support(kind):
    make = (matrices.toeplitz_block_spec if kind == "toeplitz-block"
            else matrices.circulant_block_spec)
    k, l, d, e = 5, 4, 2, 2
    M = matrices.build_structured(make(k, l, d, e, "bernoulli", seed=3))
    for T in itertools.chain.from_iterable(
            itertools.combinations(range(M.N), s) for s in (1, 2, 3)):
        report = dependency.dependency_report(M, dependency.SupportSet(T))
        expected = oracles.layout_dependencies(kind == "circulant-block", k, l, d, e, T)
        assert oracles.dependency_problems(l, T, report, expected) == []


def _case():
    M = matrices.build_structured(matrices.toeplitz_block_spec(6, 5, 2, 2, seed=4))
    T = dependency.SupportSet((0, 5, 9))
    expected = oracles.layout_dependencies(False, 6, 5, 2, 2, T.indices)
    return M, T, expected


def test_dependency_check_rejects_a_dropped_row():
    M, T, expected = _case()
    report = dependency.dependency_report(M, T)
    row = next(i for i, s in enumerate(report.per_row) if s)
    per_row = list(report.per_row)
    per_row[row] = frozenset(sorted(per_row[row])[1:])
    fake = types.SimpleNamespace(per_row=per_row, max_size=report.max_size)
    assert oracles.dependency_problems(5, T.indices, fake, expected)
    fake = types.SimpleNamespace(per_row=report.per_row, max_size=report.max_size + 1)
    assert oracles.dependency_problems(5, T.indices, fake, expected)


def test_coloring_check_rejects_dependent_or_unequal_classes():
    M, T, expected = _case()
    classes = [list(c) for c in dependency.equitable_coloring(M, T).classes]
    assert oracles.coloring_problems(T.indices, classes, expected) == []
    row = next(i for i, s in enumerate(expected) if s)
    mate = next(iter(expected[row]))
    moved = [[r for r in c if r != mate] for c in classes]
    next(c for c in moved if row in c).append(mate)
    assert oracles.coloring_problems(T.indices, moved, expected)
    uneven = [c[:] for c in classes]
    small = min(uneven, key=len)
    max(uneven, key=len).append(small.pop())
    assert any("equitable" in p for p in oracles.coloring_problems(T.indices, uneven, expected))
