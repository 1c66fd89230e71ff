import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structcs import matrices
from structcs.bench import spec_template
from structcs.devore import PolySpec, build_devore_block
from structcs.fastops import LinearOperator, dense_operator, structured_operator
from structcs.matrices import (
    build_structured,
    circulant_block_spec,
    circulant_circulant_block_spec,
    circulant_circulant_spec,
    iid_spec,
    toeplitz_block_spec,
    truncate_rows,
)


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def random_structured(rng, max_dim=5):
    kind = rng.choice(["toeplitz", "circulant", "nested"])
    seed = int(rng.integers(2**31))
    if kind == "nested":
        dims = [int(rng.integers(1, max_dim)) for _ in range(4)]
        return circulant_circulant_spec(*dims, "gaussian", seed)
    dims = [int(rng.integers(1, max_dim + 2)) for _ in range(4)]
    build = toeplitz_block_spec if kind == "toeplitz" else circulant_block_spec
    return build(*dims, "gaussian", seed)


def fft_operator(M):
    """``structured_operator(M)``, checked to be the FFT one: an oracle
    test that passed on the dense fallback would show nothing."""
    op = structured_operator(M)
    assert op.backend == "fft"
    return op


class TestDenseMatvec:
    def test_identity(self):
        op = dense_operator(np.eye(2))
        assert np.array_equal(op.forward(np.array([3.0, 4.0])), [3.0, 4.0])

    def test_unit_vector_selects_column(self):
        M = build_structured(toeplitz_block_spec(2, 2, 1, 1, seed=5))
        e0 = np.array([1.0, 0.0])
        np.testing.assert_array_equal(dense_operator(M).forward(e0), M.entries[:, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dense_operator(np.eye(3)).forward(np.ones(4))


class TestFastAgainstDense:
    def test_random_specs_match_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            spec = random_structured(rng)
            M = build_structured(spec)
            x = rng.standard_normal(spec.N)
            assert rel_err(fft_operator(M).forward(x), M.entries @ x) <= 1e-10

    def test_toeplitz_block_8x16(self):
        rng = np.random.default_rng(7)
        spec = toeplitz_block_spec(4, 2, 4, 4, seed=77)
        M = build_structured(spec)
        op = fft_operator(M)
        for _ in range(20):
            x = rng.standard_normal(16)
            assert rel_err(op.forward(x), M.entries @ x) <= 1e-10

    def test_64x256_block_within_1e10(self):
        rng = np.random.default_rng(8)
        spec = toeplitz_block_spec(64, 16, 4, 4, seed=3)
        M = build_structured(spec)
        op = fft_operator(M)
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal(spec.N)
            worst = max(worst, rel_err(op.forward(x), M.entries @ x))
        assert worst <= 1e-10

    def test_zero_maps_to_zero(self):
        spec = circulant_block_spec(3, 4, 2, 2, seed=1)
        op = fft_operator(build_structured(spec))
        assert np.array_equal(op.forward(np.zeros(spec.N)), np.zeros(spec.n))
        assert np.array_equal(op.adjoint(np.zeros(spec.n)), np.zeros(spec.N))

    def test_pure_toeplitz_unit_vector_gives_first_column(self):
        spec = toeplitz_block_spec(5, 4, 1, 1, seed=21)
        M = build_structured(spec)
        e1 = np.zeros(5)
        e1[0] = 1.0
        np.testing.assert_allclose(
            fft_operator(M).forward(e1), M.entries[:, 0], rtol=0, atol=1e-12
        )

    def test_adjoint_consistency_100_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            spec = random_structured(rng)
            op = fft_operator(build_structured(spec))
            x = rng.standard_normal(spec.N)
            y = rng.standard_normal(spec.n)
            lhs = np.dot(op.forward(x), y)
            rhs = np.dot(x, op.adjoint(y))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_square_single_block_adjoint_is_transpose(self):
        spec = toeplitz_block_spec(1, 1, 6, 6, seed=13)
        M = build_structured(spec)
        y = np.random.default_rng(5).standard_normal(6)
        np.testing.assert_allclose(fft_operator(M).adjoint(y), M.entries.T @ y, rtol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 5), st.integers(1, 5), st.integers(1, 3), st.integers(1, 3),
        st.integers(0, 10_000), st.integers(0, 2**31),
    )
    def test_linearity(self, k, l, d, e, seed, xs):
        spec = toeplitz_block_spec(k, l, d, e, seed=seed)
        op = fft_operator(build_structured(spec))
        rng = np.random.default_rng(xs)
        x, z = rng.standard_normal((2, spec.N))
        a, b = rng.standard_normal(2)
        lhs = op.forward(a * x + b * z)
        rhs = a * op.forward(x) + b * op.forward(z)
        assert rel_err(lhs, rhs) <= 1e-12


class TestOperators:
    def test_structured_operator_uses_fft(self):
        M = build_structured(toeplitz_block_spec(4, 3, 2, 2, seed=2))
        op = structured_operator(M)
        assert op.backend == "fft"
        x = np.random.default_rng(1).standard_normal(M.N)
        np.testing.assert_allclose(op.forward(x), M.entries @ x, rtol=1e-10)

    def test_iid_falls_back_dense(self):
        M = build_structured(iid_spec(4, 6, seed=3))
        op = structured_operator(M)
        assert op.backend == "dense"

    def test_nested_and_deterministic_kinds_use_fft(self):
        # every kind holds its band in its top block row and first block
        # column, so these get the FFT operator too
        rng = np.random.default_rng(3)
        for M in (build_structured(circulant_circulant_block_spec(2, 2, 2, 2, 2, 2, seed=3)),
                  build_devore_block(PolySpec(p=5, r=2, t=4, s=2, l=5))):
            op = fft_operator(M)
            x, y = rng.standard_normal(M.N), rng.standard_normal(M.n)
            assert rel_err(op.forward(x), M.entries @ x) <= 1e-10
            assert rel_err(op.adjoint(y), M.entries.T @ y) <= 1e-10
            for j in range(M.N):
                np.testing.assert_array_equal(op.column(j), M.entries[:, j])

    def test_truncated_falls_back_dense(self):
        M = truncate_rows(build_structured(toeplitz_block_spec(3, 3, 2, 2, seed=2)), 5)
        assert structured_operator(M).backend == "dense"

    def test_operator_dim_checks(self):
        op = dense_operator(np.eye(3))
        with pytest.raises(ValueError):
            op.forward(np.ones(4))
        with pytest.raises(ValueError):
            op.adjoint(np.ones(4))

    @pytest.mark.parametrize("spec", [
        toeplitz_block_spec(5, 3, 2, 3, "bernoulli", seed=4),
        circulant_block_spec(3, 8, 2, 2, "sparse-ternary", seed=5),
        circulant_circulant_spec(3, 2, 4, 2, "gaussian", seed=6),
    ], ids=lambda spec: spec.kind.value)
    def test_fft_operator_forms_no_label_grid(self, spec, monkeypatch):
        def no_labels(spec):
            raise AssertionError("a label grid was formed")

        monkeypatch.setattr(matrices, "label_grid", no_labels)
        M = build_structured(spec)
        op = structured_operator(M)
        assert op.backend == "fft"
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(M.N), rng.standard_normal(M.n)
        assert rel_err(op.forward(x), M.entries @ x) <= 1e-10
        assert rel_err(op.adjoint(y), M.entries.T @ y) <= 1e-10

    @pytest.mark.parametrize("kind", ["toeplitz", "toeplitz-block", "circulant-block"])
    def test_full_size_operator_matches_dense(self, kind):
        # the bench's largest full-preset matrices, N=2048, n=1000
        M = build_structured(spec_template(kind, 2048, 20, "bernoulli", 1000, seed=4))
        op = structured_operator(M)
        assert op.backend == "fft"
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(M.N), rng.standard_normal(M.n)
        assert rel_err(op.forward(x), M.entries @ x) <= 1e-10
        assert rel_err(op.adjoint(y), M.entries.T @ y) <= 1e-10
        X, Y = rng.standard_normal((M.N, 3)), rng.standard_normal((M.n, 3))
        assert rel_err(op.forward(X), M.entries @ X) <= 1e-10
        assert rel_err(op.adjoint(Y), M.entries.T @ Y) <= 1e-10

    def test_batched_forward(self):
        M = build_structured(circulant_block_spec(3, 2, 2, 2, seed=6))
        op = structured_operator(M)
        X = np.random.default_rng(0).standard_normal((M.N, 5))
        np.testing.assert_allclose(op.forward(X), M.entries @ X, rtol=1e-10)


# sha256 of the forward and adjoint bytes of the full preset's matrices,
# read with numpy 2.4 (pocketfft) and OpenBLAS on x86-64: a change to
# how the band is read, embedded or transformed shows here
OPERATOR_BITS = {
    ("toeplitz", 160): ("94558ed261dad697712e697da010aa5e65700f99754ec65666ed9a7fad0d93f5",
                        "648c47154bbb3dc58f6d00a5de5dec11ea59e96d4390c0f7e9d8954768f4a645"),
    ("toeplitz", 1000): ("6a11d514565c70b5c117749bd29b42aae4836672fca644c1af2e8a878e05cbfd",
                         "464ab89eb15e2374f5b3e9da1abd81af18b82464e0de495dbad7b22787f3e895"),
    ("toeplitz-block", 160): (
        "3140e4b54caad9017716b9db2d63a8bc65a52527fd8aece8a5a36b962e3b089d",
        "31848b2cd7ad9b8804bb823284837bb9d0a0a113d488784d5433667806e2e48a"),
    ("toeplitz-block", 1000): (
        "9d019040a16cdfd5def0d793523f4d2f363fbe4753fc304dcf2211312d254838",
        "92c79717c4e04ca7e9dfbae3461c4614c30c59b629eb689cdbd57517b0044492"),
}


@pytest.mark.parametrize("kind, n", sorted(OPERATOR_BITS))
def test_operator_bits_are_pinned(kind, n):
    M = build_structured(spec_template(kind, 2048, 20, "bernoulli", n, seed=11))
    op = fft_operator(M)
    rng = np.random.default_rng(12)
    x, y = rng.standard_normal(M.N), rng.standard_normal(M.n)
    digests = tuple(hashlib.sha256(v.tobytes()).hexdigest()
                    for v in (op.forward(x), op.adjoint(y)))
    assert digests == OPERATOR_BITS[kind, n]


class TestColumns:
    def test_columns_are_slices_and_unit_forwards(self):
        A = np.random.default_rng(4).standard_normal((30, 90))
        op = dense_operator(A)
        for j in (7, 0, 88, 41):
            np.testing.assert_array_equal(op.column(j), A[:, j])
            np.testing.assert_array_equal(op.column(j), op.forward(np.eye(90)[j]))

    def test_generic_operator_derives_columns_from_its_maps(self):
        A = np.random.default_rng(5).standard_normal((20, 60))
        plain = LinearOperator(A.shape, lambda x: A @ x, lambda y: A.T @ y)
        dense = dense_operator(A)
        for j in (3, 59, 0):
            np.testing.assert_array_equal(plain.column(j), dense.column(j))

    def test_fft_operator_columns_match_dense(self, monkeypatch):
        # every column of a toeplitz-block, a circulant-block whose block
        # indices wrap (l > k) and a circulant-circulant matrix, read off
        # the band with the dense bits and without a forward apply
        specs = (toeplitz_block_spec(8, 4, 3, 2, seed=9),
                 circulant_block_spec(3, 8, 2, 2, "sparse-ternary", seed=5),
                 circulant_circulant_spec(3, 2, 4, 2, "gaussian", seed=6))
        ops = [(M, structured_operator(M)) for M in map(build_structured, specs)]

        def no_apply(self, x):
            raise AssertionError("a column read made a forward apply")

        monkeypatch.setattr(LinearOperator, "forward", no_apply)
        for M, op in ops:
            assert op.backend == "fft"
            for j in range(M.N):
                np.testing.assert_array_equal(op.column(j), M.entries[:, j])
            with pytest.raises(IndexError):
                op.column(M.N)


def test_speedup_reported_not_asserted(capsys):
    # scalar band with 4096 columns: print the measured ratio of the dense
    # applies to the operator's, whose band spectrum is made once
    import time

    spec = toeplitz_block_spec(4096, 512, 1, 1, "gaussian", seed=0)
    M = build_structured(spec)
    op = structured_operator(M)
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal(spec.N), rng.standard_normal(spec.n)

    def per_apply_ms(forward, adjoint):
        forward(x), adjoint(y)
        t0 = time.perf_counter()
        for _ in range(10):
            forward(x), adjoint(y)
        return (time.perf_counter() - t0) / 20 * 1e3

    dense_t = per_apply_ms(lambda v: M.entries @ v, lambda v: M.entries.T @ v)
    fft_t = per_apply_ms(op.forward, op.adjoint)
    print(f"[report] 512x4096 scalar band apply: dense {dense_t:.3f} ms, "
          f"fft {fft_t:.3f} ms, ratio {dense_t / fft_t:.1f}x")
    # the timing is only reported, but the products must agree at this size
    assert rel_err(op.forward(x), M.entries @ x) <= 1e-10
    assert rel_err(op.adjoint(y), M.entries.T @ y) <= 1e-10
