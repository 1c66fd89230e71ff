import itertools
import math

import numpy as np
import pytest

from structcs import ripest
from structcs.dependency import SupportSet
from structcs.devore import build_devore
from structcs.matrices import build_structured, iid_spec, toeplitz_block_spec
from structcs.ripest import (
    GuardExceededError,
    coherence,
    delta_exhaustive,
    delta_for_support,
    delta_monte_carlo,
)


class TestDeltaForSupport:
    def test_orthonormal_columns(self):
        assert delta_for_support(np.eye(5), SupportSet((0, 2, 4))) == pytest.approx(0.0)

    def test_single_column_norm(self):
        c = 1.7
        A = np.zeros((4, 1))
        A[0, 0] = c
        assert delta_for_support(A, SupportSet((0,))) == pytest.approx(c**2 - 1)

    def test_duplicated_unit_column(self):
        # Gram [[1, 1], [1, 1]] has eigenvalues {0, 2}: delta = 1
        A = np.zeros((3, 2))
        A[0, :] = 1.0
        assert delta_for_support(A, SupportSet((0, 1))) == pytest.approx(1.0)

    def test_gram_route_matches_svd_route(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((20, 30)) / np.sqrt(20)
        for _ in range(25):
            T = SupportSet(tuple(sorted(rng.choice(30, 4, replace=False).tolist())))
            sv = np.linalg.svd(A[:, list(T.indices)], compute_uv=False)
            via_svd = max(sv.max() ** 2 - 1.0, 1.0 - sv.min() ** 2)
            assert delta_for_support(A, T) == pytest.approx(via_svd, abs=1e-10)


class TestDeltaExhaustive:
    def test_identity_is_isometry(self):
        for m in (1, 2, 3):
            est = delta_exhaustive(np.eye(6), m)
            assert est.delta == pytest.approx(0.0, abs=1e-12)
            assert est.method == "exhaustive"

    def test_duplicated_column_order_two(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 5))
        A /= np.linalg.norm(A, axis=0)
        A[:, 4] = A[:, 0]
        est = delta_exhaustive(A, 2)
        assert est.delta >= 1.0 - 1e-12
        assert set(est.worst_support.indices) <= set(range(5))

    def test_matches_direct_pair_sweep(self):
        M = build_structured(iid_spec(20, 40, "bernoulli", seed=6))
        est = delta_exhaustive(M.entries, 2)
        best = max(
            delta_for_support(M.entries, SupportSet(pair))
            for pair in itertools.combinations(range(40), 2)
        )
        assert est.delta == pytest.approx(best, abs=1e-12)

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            delta_exhaustive(np.eye(100), 6)

    def test_monotone_in_order(self):
        M = build_structured(iid_spec(15, 12, "gaussian", seed=2))
        deltas = [delta_exhaustive(M.entries, m).delta for m in (1, 2, 3, 4)]
        assert all(a <= b + 1e-12 for a, b in zip(deltas, deltas[1:]))

    def test_sandwich_on_worst_support(self):
        M = build_structured(iid_spec(24, 16, "gaussian", seed=4))
        est = delta_exhaustive(M.entries, 3)
        sub = M.entries[:, list(est.worst_support.indices)]
        rng = np.random.default_rng(9)
        for _ in range(1000):
            z = rng.standard_normal(3)
            nz = (z**2).sum()
            pz = ((sub @ z) ** 2).sum()
            assert (1 - est.delta) * nz - 1e-10 <= pz <= (1 + est.delta) * nz + 1e-10


class TestDeltaMonteCarlo:
    def test_sampling_everything_matches_exhaustive(self):
        M = build_structured(iid_spec(10, 4, "gaussian", seed=8))
        exact = delta_exhaustive(M.entries, 3)
        mc = delta_monte_carlo(M.entries, 3, samples=500, seed=1)
        # 500 draws over C(4,3) = 4 supports cover everything
        assert mc.delta == pytest.approx(exact.delta, abs=1e-12)

    def test_lower_bounds_exhaustive(self):
        M = build_structured(iid_spec(12, 10, "bernoulli", seed=5))
        exact = delta_exhaustive(M.entries, 3)
        for seed in range(5):
            mc = delta_monte_carlo(M.entries, 3, samples=20, seed=seed)
            assert mc.delta <= exact.delta + 1e-12

    def test_seed_stability_reported(self, capsys):
        spec = toeplitz_block_spec(64, 16, 4, 4, "bernoulli", seed=10)
        M = build_structured(spec)
        a = delta_monte_carlo(M.entries, 4, samples=10_000, seed=1)
        b = delta_monte_carlo(M.entries, 4, samples=10_000, seed=2)
        # reported, not asserted
        print(f"[report] 64x256 monte-carlo delta spread across seeds: "
              f"{abs(a.delta - b.delta):.4f} ({a.delta:.4f} vs {b.delta:.4f})")

    def test_validation(self):
        with pytest.raises(ValueError):
            delta_monte_carlo(np.eye(4), 2, samples=0, seed=0)
        with pytest.raises(ValueError):
            delta_exhaustive(np.eye(4), 0)


class TestCoherence:
    def test_identity(self):
        assert coherence(np.eye(4)) == pytest.approx(0.0)

    def test_duplicated_column(self):
        A = np.column_stack([np.eye(3), np.eye(3)[:, 0]])
        assert coherence(A) == pytest.approx(1.0)

    def test_polynomial_matrix_bound(self):
        # graphs of distinct degree-<=1 polynomials over Z_3 share at
        # most one point: normalized inner products at most 1/3
        M = build_devore(3, 1)
        assert coherence(M.entries) <= 1 / 3 + 1e-12

    def test_zero_column_rejected(self):
        A = np.eye(3).copy()
        A[:, 1] = 0.0
        with pytest.raises(ValueError):
            coherence(A)

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            coherence(np.ones((3, 1)))


class TestNonFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_every_entry_point_rejects_non_finite_entries(self, value):
        A = np.eye(4)
        A[2, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            delta_for_support(A, SupportSet((0, 1)))
        with pytest.raises(ValueError, match="non-finite"):
            delta_exhaustive(A, 2)
        with pytest.raises(ValueError, match="non-finite"):
            delta_monte_carlo(A, 2, samples=5, seed=0)
        with pytest.raises(ValueError, match="non-finite"):
            coherence(A)


def _unpruned(A, supports):
    """Delta and first maximizer with eigvalsh on every support's sub-Gram,
    gathered from the full Gram as the scan gathers it."""
    idx = np.array(supports)
    gram = A.T @ A
    eig = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
    deltas = np.maximum(eig[:, -1] - 1.0, 1.0 - eig[:, 0])
    j = int(np.argmax(deltas))
    return float(deltas[j]), tuple(int(v) for v in idx[j])


def _mc_draws(N, m, samples, seed):
    """The supports delta_monte_carlo draws, in its order."""
    rng = np.random.default_rng([seed])
    return [tuple(sorted(rng.choice(N, size=m, replace=False).tolist()))
            for _ in range(samples)]


def _tb40(dist, seed=3):
    """A 32 x 40 toeplitz-block matrix: 4 x 4 blocks, 8 block rows, 10 block columns."""
    return build_structured(toeplitz_block_spec(10, 8, 4, 4, dist, seed=seed)).entries


class TestPrunedScanExactness:
    """The pruned scan returns the unpruned scan's float and witness: ``==``."""

    @pytest.mark.parametrize("dist", ["gaussian", "bernoulli"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_exhaustive_equals_unpruned(self, dist, m):
        A = _tb40(dist)
        est = delta_exhaustive(A, m)
        ref = _unpruned(A, list(itertools.combinations(range(A.shape[1]), m)))
        assert (est.delta, est.worst_support.indices) == ref

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_all_ties_keep_the_lexicographically_first(self, m):
        est = delta_exhaustive(np.eye(6), m)
        assert (est.delta, est.worst_support.indices) == (0.0, tuple(range(m)))
        same = np.full((4, 7), 0.5)  # seven copies of one unit column
        est = delta_exhaustive(same, m)
        supports = list(itertools.combinations(range(7), m))
        assert (est.delta, est.worst_support.indices) == _unpruned(same, supports)
        assert est.worst_support.indices == tuple(range(m))

    def test_maximizer_before_the_largest_bound(self):
        # Gram blocks [[1, .5], [.5, 1]] (delta 0.5, bound 0.5) and
        # [[1.4, .2], [.2, .6]] (delta ~0.447, bound 0.6): the support with
        # the largest bound is eigensolved first but is not the maximizer
        gram = np.zeros((4, 4))
        gram[:2, :2] = [[1.0, 0.5], [0.5, 1.0]]
        gram[2:, 2:] = [[1.4, 0.2], [0.2, 0.6]]
        A = np.linalg.cholesky(gram).T
        est = delta_exhaustive(A, 2)
        assert (est.delta, est.worst_support.indices) == _unpruned(
            A, list(itertools.combinations(range(4), 2)))
        assert est.worst_support.indices == (0, 1)

    def test_monte_carlo_ties_keep_the_first_draw(self):
        same = np.full((4, 9), 0.5)
        draws = _mc_draws(9, 3, 50, seed=4)
        assert draws[0] != min(draws)  # the first draw is not the smallest
        est = delta_monte_carlo(same, 3, samples=50, seed=4)
        assert est.worst_support.indices == draws[0]
        assert (est.delta, est.worst_support.indices) == _unpruned(same, draws)

    @pytest.mark.parametrize("m", [2, 3])
    def test_monte_carlo_equals_unpruned(self, m):
        A = _tb40("bernoulli")
        draws = _mc_draws(40, m, 5000, seed=7)
        est = delta_monte_carlo(A, m, samples=5000, seed=7)
        assert (est.delta, est.worst_support.indices) == _unpruned(A, draws)

    def test_column_route_equals_unpruned_einsum(self, monkeypatch):
        # above FULL_GRAM_MAX columns the sub-Grams come from einsum over
        # COLUMN_CHUNK consecutive supports; the reference does the same
        monkeypatch.setattr(ripest, "FULL_GRAM_MAX", 8)
        A = _tb40("gaussian")
        supports = np.array(list(itertools.combinations(range(40), 3)))
        deltas = []
        for start in range(0, len(supports), ripest.COLUMN_CHUNK):
            cols = A[:, supports[start : start + ripest.COLUMN_CHUNK]]
            eig = np.linalg.eigvalsh(np.einsum("ncm,ncp->cmp", cols, cols))
            deltas.append(np.maximum(eig[:, -1] - 1.0, 1.0 - eig[:, 0]))
        deltas = np.concatenate(deltas)
        j = int(np.argmax(deltas))
        est = delta_exhaustive(A, 3)
        assert (est.delta, est.worst_support.indices) == (
            float(deltas[j]), tuple(int(v) for v in supports[j]))

    @pytest.mark.parametrize("N", range(1, 13))
    def test_enumerator_is_lexicographic_and_capped(self, N):
        for m in range(1, min(N, 5) + 1):
            count, chunks = ripest._all_supports(N, m, ripest.EXHAUSTIVE_GUARD)
            chunks = list(chunks)
            assert all(len(c) <= ripest.CHUNK for c in chunks)
            rows = [tuple(int(v) for v in row) for c in chunks for row in c]
            assert rows == list(itertools.combinations(range(N), m))
            assert count == len(rows)
            # a small cap splits runs of supports across prefixes
            small = list(ripest._support_chunks(N, m, size=5))
            assert all(1 <= len(c) <= 5 for c in small)
            assert np.array_equal(np.concatenate(small), np.concatenate(chunks))

    def test_guard_is_checked_before_any_work(self, monkeypatch):
        monkeypatch.setattr(ripest, "_support_chunks", None)
        with pytest.raises(GuardExceededError):
            ripest._all_supports(100, 6, ripest.EXHAUSTIVE_GUARD)


def test_scan_eigensolves_under_one_percent_of_supports(monkeypatch):
    """The 32 x 180 benchmark scan matrix at order 3: the Gershgorin bound
    leaves fewer than 1% of its C(180, 3) supports to eigvalsh."""
    M = build_structured(toeplitz_block_spec(45, 8, 4, 4, "gaussian", seed=1))
    solved = []
    real = ripest._gram_deltas

    def counting(stack):
        solved.append(len(stack))
        return real(stack)

    monkeypatch.setattr(ripest, "_gram_deltas", counting)
    ripest.delta_exhaustive(M, 3)
    assert sum(solved) < 0.01 * math.comb(180, 3)
