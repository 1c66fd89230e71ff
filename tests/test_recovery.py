import logging

import numpy as np
import pytest
from scipy.optimize import linprog

from structcs import bench, recovery
from structcs.devore import build_devore
from structcs.fastops import LinearOperator, dense_operator, structured_operator
from structcs.matrices import build_structured, iid_spec, toeplitz_block_spec
from structcs.recovery import (
    RecoveryStatus,
    SparseSignal,
    basis_pursuit,
    is_exact_recovery,
    omp,
)


def lp_minimizer(A, y):
    """Generic-simplex oracle: min 1'(u+v) s.t. A(u-v) = y, u, v >= 0.
    Returns the optimal objective and x = u - v."""
    N = A.shape[1]
    res = linprog(np.ones(2 * N), A_eq=np.hstack([A, -A]), b_eq=y,
                  bounds=[(0, None)] * (2 * N), method="highs")
    assert res.status == 0
    return res.fun, res.x[:N] - res.x[N:]


def lp_objective(A, y):
    return lp_minimizer(A, y)[0]


class TestSparseSignal:
    def test_dense_round_trip(self):
        sig = SparseSignal(6, (1, 4), np.array([2.0, -3.0]))
        np.testing.assert_array_equal(sig.to_dense(), [0, 2.0, 0, 0, -3.0, 0])
        assert sig.sparsity == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseSignal(4, (0, 0), np.array([1.0, 2.0]))
        with pytest.raises(IndexError):
            SparseSignal(4, (5,), np.array([1.0]))


class TestBasisPursuit:
    def test_identity_returns_y(self):
        y = np.array([0.5, -2.0, 0.0, 3.0])
        res = basis_pursuit(np.eye(4), y, tol=1e-9)
        assert res.status is RecoveryStatus.CONVERGED
        np.testing.assert_allclose(res.estimate, y, atol=1e-7)

    def test_zero_rhs_returns_zero(self):
        res = basis_pursuit(np.eye(3), np.zeros(3))
        assert res.iterations == 0
        np.testing.assert_array_equal(res.estimate, 0.0)
        assert res.status is RecoveryStatus.CONVERGED

    def test_recovers_sparse_signals_128x512(self):
        rng = np.random.default_rng(12)
        wins = 0
        for trial in range(100):
            M = build_structured(iid_spec(128, 512, "bernoulli", seed=trial))
            support = tuple(sorted(rng.choice(512, 5, replace=False).tolist()))
            sig = SparseSignal(512, support, rng.standard_normal(5))
            op = dense_operator(M)
            y = op.forward(sig.to_dense())
            res = basis_pursuit(op, y, tol=1e-7)
            wins += is_exact_recovery(sig, res, 1e-5)
        assert wins >= 95

    def test_feasibility_recheck_on_return(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((30, 80)) / np.sqrt(30)
        x = np.zeros(80)
        x[[5, 50]] = [1.0, -2.0]
        y = A @ x
        res = basis_pursuit(A, y, tol=1e-8)
        assert res.status is RecoveryStatus.CONVERGED
        recomputed = np.linalg.norm(A @ res.estimate - y)
        assert res.residual_norm == pytest.approx(recomputed, abs=1e-14)
        assert recomputed <= 1e-8 * np.linalg.norm(y)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((20, 60)) / np.sqrt(20)
        x = np.zeros(60)
        x[[3, 17, 40]] = [1.0, -2.0, 0.5]
        y = A @ x
        r1 = basis_pursuit(A, y, tol=1e-9, max_iter=20_000)
        r2 = basis_pursuit(A, 7.5 * y, tol=1e-9, max_iter=20_000)
        np.testing.assert_allclose(r2.estimate, 7.5 * r1.estimate, atol=1e-6)

    def test_objective_matches_lp_oracle_small(self):
        rng = np.random.default_rng(90)
        for trial in range(10):
            n = int(rng.integers(5, 15))
            N = int(rng.integers(n + 1, 41))
            A = rng.standard_normal((n, N)) / np.sqrt(n)
            y = rng.standard_normal(n)
            res = basis_pursuit(A, y, tol=1e-9, max_iter=20_000)
            obj = np.abs(res.estimate).sum()
            assert obj == pytest.approx(lp_objective(A, y), abs=1e-6, rel=1e-6)

    def test_repeated_and_negated_columns_reach_the_lp_objective(self):
        # a column equal to an active one, or to its negative, never joins the
        # active set, whose Gram it would make singular
        rng = np.random.default_rng(8)
        for trial in range(20):
            B = rng.choice([-1.0, 1.0], size=(8, 12))
            A = np.hstack([B, B[:, :4], -B[:, 4:6]])
            x = np.zeros(A.shape[1])
            x[rng.choice(12, 2, replace=False)] = rng.standard_normal(2)
            res = basis_pursuit(A, A @ x)
            assert res.status is RecoveryStatus.CONVERGED
            assert np.abs(res.estimate).sum() == pytest.approx(lp_objective(A, A @ x), rel=1e-9)

    def test_a_path_that_skips_events_ends_uncertified(self, monkeypatch):
        # a coarse rounding threshold makes the path skip slow events, so
        # some ends are feasible but not l1-optimal: the certificate must
        # keep every one of them from reading CONVERGED
        monkeypatch.setattr(recovery, "ROUNDING", 0.05)
        rng = np.random.default_rng(3)
        statuses = []
        for trial in range(10):
            A, y = rng.standard_normal((10, 30)), rng.standard_normal(10)
            res = basis_pursuit(A, y)
            statuses.append(res.status)
            if res.status is RecoveryStatus.CONVERGED:
                assert np.abs(res.estimate).sum() == pytest.approx(lp_objective(A, y), rel=1e-9)
        assert RecoveryStatus.MAX_ITER in statuses

    def test_works_with_fft_backed_operator(self):
        spec = toeplitz_block_spec(64, 8, 4, 4, "bernoulli", seed=5)
        M = build_structured(spec)
        op = structured_operator(M)
        assert op.backend == "fft"
        rng = np.random.default_rng(3)
        sig = SparseSignal(M.N, tuple(sorted(rng.choice(M.N, 3, replace=False).tolist())),
                           rng.standard_normal(3))
        y = op.forward(sig.to_dense())
        res = basis_pursuit(op, y, tol=1e-7)
        assert is_exact_recovery(sig, res, 1e-5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            basis_pursuit(np.eye(3), np.ones(4))
        with pytest.raises(ValueError):
            basis_pursuit(np.eye(3), np.array([1.0, np.nan, 0.0]))
        for kwargs in ({"max_iter": 0}, {"max_iter": -5}, {"tol": -1.0}):
            with pytest.raises(ValueError):
                basis_pursuit(np.eye(3), np.ones(3), **kwargs)

    def test_unreachable_rhs_is_infeasible(self):
        # rank-1 rows cannot produce y outside their span
        A = np.array([[1.0, 0.0, 2.0], [1.0, 0.0, 2.0]])
        res = basis_pursuit(A, np.array([1.0, -1.0]))
        assert res.status is RecoveryStatus.INFEASIBLE


class TestOmp:
    def test_single_spike_one_step(self):
        A = np.eye(6)
        y = A[:, 4] * 3.0
        res = omp(A, y, sparsity=1)
        assert res.iterations == 1
        np.testing.assert_allclose(res.estimate, y, atol=1e-12)

    def test_zero_rhs(self):
        res = omp(np.eye(4), np.zeros(4), sparsity=2)
        assert res.iterations == 0
        np.testing.assert_array_equal(res.estimate, 0.0)

    def test_low_coherence_polynomial_matrix_pairs(self):
        # coherence <= 1/7 guarantees exact greedy recovery of 2-sparse
        # +-1 signals; all 100 seeded trials must succeed
        M = build_devore(7, 1)
        op = dense_operator(M)
        rng = np.random.default_rng(17)
        wins = 0
        for _ in range(100):
            support = tuple(sorted(rng.choice(M.N, 2, replace=False).tolist()))
            sig = SparseSignal(M.N, support, rng.choice([-1.0, 1.0], 2))
            res = omp(op, op.forward(sig.to_dense()), sparsity=2)
            wins += is_exact_recovery(sig, res, 1e-8)
        assert wins == 100

    def test_rank_deficient_refit_is_infeasible(self):
        # a zero column can win the correlation argmax only when the
        # whole matrix is degenerate; the refit must flag it, not crash
        A = np.zeros((3, 2))
        y = np.array([1.0, 0.0, 0.0])
        res = omp(A, y, sparsity=2, tol=0.0)
        assert res.status is RecoveryStatus.INFEASIBLE

    def test_sparsity_bounded_by_rows(self):
        with pytest.raises(ValueError):
            omp(np.eye(3), np.ones(3), sparsity=4)
        with pytest.raises(ValueError):
            omp(np.eye(3), np.ones(3), sparsity=-1)
        with pytest.raises(ValueError):
            omp(np.eye(3), np.ones(3), sparsity=2, tol=-1.0)


@pytest.mark.parametrize("decode", [
    lambda A, y: basis_pursuit(A, y, tol=1e-8),
    lambda A, y: omp(A, y, sparsity=3),
], ids=["bp", "omp"])
def test_array_and_dense_operator_decode_identically(decode):
    rng = np.random.default_rng(31)
    A = rng.standard_normal((30, 90)) / np.sqrt(30)
    x = np.zeros(90)
    x[[4, 33, 71]] = [1.5, -0.7, 2.0]
    y = A @ x
    from_array, from_op = decode(A, y), decode(dense_operator(A), y)
    np.testing.assert_array_equal(from_array.estimate, from_op.estimate)
    assert from_array.iterations == from_op.iterations
    assert from_array.status is from_op.status


def desk_trial(kind, n, trial, master_seed=2):
    """The matrix, signal and measurement of one desk-preset bench trial."""
    cfg = bench.desk_preset(master_seed=master_seed)
    signal = bench.generate_sparse_signal(
        cfg.N, cfg.m, bench._derive_seed(master_seed, "signal", n, trial))
    spec = bench.spec_template(kind, cfg.N, cfg.m, cfg.distribution, n,
                               bench._derive_seed(master_seed, "matrix", kind, n, trial))
    A = build_structured(spec).entries
    return cfg, A, signal, A @ signal.to_dense()


def assert_same_result(a, b):
    np.testing.assert_array_equal(a.estimate, b.estimate)
    assert a.iterations == b.iterations
    assert a.status is b.status
    assert a.residual_norm == b.residual_norm


@pytest.mark.parametrize("kind,n,trial", [
    ("iid", 60, 0),
    ("toeplitz", 60, 1),  # an l1 failure: its path takes 81 steps
    ("toeplitz-block", 120, 3),
    ("toeplitz", 80, 25),  # recovered: checked against its signal below
])
def test_generic_operator_decodes_like_dense_on_desk_trials(kind, n, trial):
    # the generic unit-vector columns against the dense operator's own
    # slices: every output bit must agree
    cfg, A, signal, y = desk_trial(kind, n, trial)
    plain = LinearOperator(A.shape, lambda x: A @ x, lambda v: A.T @ v)
    dense = dense_operator(A)
    bp = [basis_pursuit(op, y, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
          for op in (plain, dense)]
    assert_same_result(*bp)
    if (kind, n, trial) == ("toeplitz", 80, 25):
        assert bp[0].status is RecoveryStatus.CONVERGED
        assert is_exact_recovery(signal, bp[0], cfg.success_rel_tol)
    assert_same_result(*(omp(op, y, cfg.m, tol=cfg.solver_tol) for op in (plain, dense)))


class _RecordingOperator(LinearOperator):
    """A held array that records the dimension of each adjoint's input and
    the index of each ``column`` call."""

    def __init__(self, A):
        super().__init__(A.shape, lambda x: A @ x, lambda v: A.T @ v)
        self.adjoint_ndims, self.column_calls = [], []

    def adjoint(self, y):
        self.adjoint_ndims.append(np.ndim(y))
        return super().adjoint(y)

    def column(self, j):
        self.column_calls.append(j)
        return super().column(j)


def test_homotopy_applies_the_adjoint_to_y_and_to_each_added_column_once():
    # toeplitz n=40 #1 runs longer than n steps, so its path drops indices
    cfg, A, _, y = desk_trial("toeplitz", 40, 1)
    op = _RecordingOperator(A)
    res = basis_pursuit(op, y, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    assert res.iterations > 40
    assert op.column_calls
    # A^T y, then one vector apply per added column: no step applies it
    assert op.adjoint_ndims == [1] * (len(op.column_calls) + 1)
    # the steps are the adds after the first, the drops and the final
    # solve: a drop fetches no column and applies nothing
    assert len(op.column_calls) < res.iterations


def test_a_capped_path_returns_the_point_of_its_last_solve():
    # every cap short of toeplitz n=40 #1's full path, drops included: the
    # estimate must sit on the active set of the capped step's solve, where
    # the residual's correlations reach +-lambda, the largest they take
    cfg, A, _, y = desk_trial("toeplitz", 40, 1)
    steps = basis_pursuit(A, y, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter).iterations
    assert steps > 40
    for cap in range(1, steps):
        res = basis_pursuit(A, y, tol=cfg.solver_tol, max_iter=cap)
        assert res.status is RecoveryStatus.MAX_ITER and res.iterations == cap
        x = res.estimate
        assert res.residual_norm == np.linalg.norm(A @ x - y)
        c = A.T @ (y - A @ x)
        lam = np.abs(c).max()
        support = np.flatnonzero(x)
        assert 0 < len(support) <= 40
        np.testing.assert_allclose(np.abs(c[support]), lam, rtol=1e-9)
        # an index added at this very step sits at 0 up to rounding
        settled = support[np.abs(x[support]) > 1e-9 * np.abs(x).max()]
        np.testing.assert_array_equal(np.sign(c[settled]), np.sign(x[settled]))


# the first four desk trials (master seed 2) of every kind at n = 40 to 120
FIDELITY_TRIALS = tuple((kind, n, trial) for kind in ("iid", "toeplitz", "toeplitz-block")
                        for n in (40, 60, 80, 100, 120) for trial in range(4))
# those the LP does not recover: every n = 40 trial but iid #2, and one at n = 60
LP_FAILURES = (("iid", 40, 0), ("iid", 40, 1), ("iid", 40, 3)) + tuple(
    (kind, 40, trial) for kind in ("toeplitz", "toeplitz-block") for trial in range(4)
) + (("toeplitz", 60, 1),)


@pytest.mark.parametrize("kind,n,trial", FIDELITY_TRIALS)
def test_run_trial_verdict_matches_lp_on_desk_trials(kind, n, trial):
    cfg, A, signal, y = desk_trial(kind, n, trial)
    x = signal.to_dense()
    lp_ok = np.linalg.norm(lp_minimizer(A, y)[1] - x) <= cfg.success_rel_tol * np.linalg.norm(x)
    assert bench.run_trial(cfg, kind, n, trial) == lp_ok
    assert lp_ok == ((kind, n, trial) not in LP_FAILURES)
    res = basis_pursuit(A, y, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    assert res.status is RecoveryStatus.CONVERGED


def _poisoned_operator(A, clean_calls):
    """Forward returns NaN once it has been called ``clean_calls`` times."""
    calls = []

    def forward(x):
        calls.append(None)
        out = A @ x
        return out if len(calls) <= clean_calls else np.full_like(out, np.nan)

    return LinearOperator(A.shape, forward, lambda y: A.T @ y)


def test_non_finite_iterate_raises():
    _, A, _, y = desk_trial("iid", 100, 0)
    # one unit-vector forward fetches the first column, and steps 1 and 2
    # each add one more; the column step 3 adds is the first to see NaN
    with pytest.raises(ValueError, match="step 3 is not finite"):
        basis_pursuit(_poisoned_operator(A, 3), y)


def test_non_finite_iterate_scores_trial_false(monkeypatch, caplog):
    cfg = bench.desk_preset(master_seed=2)
    # one forward measures the signal, then the decode runs as above
    monkeypatch.setattr(bench, "dense_operator", lambda M: _poisoned_operator(M.entries, 4))
    with caplog.at_level(logging.WARNING, logger="structcs.bench"):
        assert bench.run_trial(cfg, "iid", 100, 0) is False
    assert "ValueError: homotopy step 3 is not finite" in caplog.text


class TestErrorBimodality:
    def test_error_histogram_has_a_gap_around_threshold(self):
        # mixed easy and hard instances: relative errors cluster either
        # at solver precision or at O(1); nothing lands near the 1e-5
        # success threshold, which is what makes the cutoff meaningful
        rng = np.random.default_rng(23)
        errors = []
        for trial in range(60):
            n = 40 if trial % 2 else 120
            M = build_structured(iid_spec(n, 256, "bernoulli", seed=trial))
            support = tuple(sorted(rng.choice(256, 8, replace=False).tolist()))
            sig = SparseSignal(256, support, rng.standard_normal(8))
            x = sig.to_dense()
            op = dense_operator(M)
            res = basis_pursuit(op, op.forward(x), tol=1e-7, max_iter=1200)
            errors.append(np.linalg.norm(res.estimate - x) / np.linalg.norm(x))
        errors = np.array(errors)
        assert ((errors <= 1e-6) | (errors >= 1e-2)).all()
        assert (errors <= 1e-6).any() and (errors >= 1e-2).any()


class TestExactRecoveryPredicate:
    def test_equal_is_exact(self):
        sig = SparseSignal(5, (1,), np.array([2.0]))
        res = basis_pursuit(np.eye(5), sig.to_dense(), tol=1e-10)
        assert is_exact_recovery(sig, res, 1e-5)

    def test_zero_truth_zero_estimate(self):
        sig = SparseSignal(4, (), np.array([]))
        res = basis_pursuit(np.eye(4), np.zeros(4))
        assert is_exact_recovery(sig, res, 1e-5)

    def test_threshold_separates(self):
        sig = SparseSignal(3, (0,), np.array([1.0]))
        res = basis_pursuit(np.eye(3), np.array([1.0 + 1e-3, 0.0, 0.0]))
        assert not is_exact_recovery(sig, res, 1e-5)
