import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structcs import matrices
from structcs.fastops import (
    LinearOperator,
    UnsupportedStructureError,
    dense_matvec,
    dense_operator,
    fast_adjoint_matvec,
    fast_matvec,
    structured_operator,
)
from structcs.matrices import (
    build_structured,
    circulant_block_spec,
    circulant_circulant_block_spec,
    circulant_circulant_spec,
    distinct_blocks,
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


class TestDenseMatvec:
    def test_identity(self):
        assert np.array_equal(dense_matvec(np.eye(2), np.array([3.0, 4.0])), [3.0, 4.0])

    def test_unit_vector_selects_column(self):
        M = build_structured(toeplitz_block_spec(2, 2, 1, 1, seed=5))
        e0 = np.array([1.0, 0.0])
        np.testing.assert_array_equal(dense_matvec(M, e0), M.entries[:, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dense_matvec(np.eye(3), np.ones(4))


class TestFastAgainstDense:
    def test_random_specs_match_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            spec = random_structured(rng)
            M = build_structured(spec)
            B = distinct_blocks(M)
            x = rng.standard_normal(spec.N)
            assert rel_err(fast_matvec(spec, B, x), dense_matvec(M, x)) <= 1e-10

    def test_toeplitz_block_8x16(self):
        rng = np.random.default_rng(7)
        spec = toeplitz_block_spec(4, 2, 4, 4, seed=77)
        M = build_structured(spec)
        B = distinct_blocks(M)
        for _ in range(20):
            x = rng.standard_normal(16)
            assert rel_err(fast_matvec(spec, B, x), dense_matvec(M, x)) <= 1e-10

    def test_64x256_block_within_1e10(self):
        rng = np.random.default_rng(8)
        spec = toeplitz_block_spec(64, 16, 4, 4, seed=3)
        M = build_structured(spec)
        B = distinct_blocks(M)
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal(spec.N)
            worst = max(worst, rel_err(fast_matvec(spec, B, x), M.entries @ x))
        assert worst <= 1e-10

    def test_zero_maps_to_zero(self):
        spec = circulant_block_spec(3, 4, 2, 2, seed=1)
        B = distinct_blocks(build_structured(spec))
        assert np.array_equal(fast_matvec(spec, B, np.zeros(spec.N)), np.zeros(spec.n))
        assert np.array_equal(
            fast_adjoint_matvec(spec, B, np.zeros(spec.n)), np.zeros(spec.N)
        )

    def test_pure_toeplitz_unit_vector_gives_first_column(self):
        spec = toeplitz_block_spec(5, 4, 1, 1, seed=21)
        M = build_structured(spec)
        B = distinct_blocks(M)
        e1 = np.zeros(5)
        e1[0] = 1.0
        np.testing.assert_allclose(
            fast_matvec(spec, B, e1), M.entries[:, 0], rtol=0, atol=1e-12
        )

    def test_adjoint_consistency_100_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            spec = random_structured(rng)
            M = build_structured(spec)
            B = distinct_blocks(M)
            x = rng.standard_normal(spec.N)
            y = rng.standard_normal(spec.n)
            lhs = np.dot(fast_matvec(spec, B, x), y)
            rhs = np.dot(x, fast_adjoint_matvec(spec, B, y))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_square_single_block_adjoint_is_transpose(self):
        spec = toeplitz_block_spec(1, 1, 6, 6, seed=13)
        M = build_structured(spec)
        B = distinct_blocks(M)
        y = np.random.default_rng(5).standard_normal(6)
        np.testing.assert_allclose(
            fast_adjoint_matvec(spec, B, y), M.entries.T @ y, rtol=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 5), st.integers(1, 5), st.integers(1, 3), st.integers(1, 3),
        st.integers(0, 10_000), st.integers(0, 2**31),
    )
    def test_linearity(self, k, l, d, e, seed, xs):
        spec = toeplitz_block_spec(k, l, d, e, seed=seed)
        B = distinct_blocks(build_structured(spec))
        rng = np.random.default_rng(xs)
        x, z = rng.standard_normal((2, spec.N))
        a, b = rng.standard_normal(2)
        lhs = fast_matvec(spec, B, a * x + b * z)
        rhs = a * fast_matvec(spec, B, x) + b * fast_matvec(spec, B, z)
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

    def test_nested_block_kind_falls_back_dense(self):
        M = build_structured(circulant_circulant_block_spec(2, 2, 2, 2, 2, 2, seed=3))
        op = structured_operator(M)
        assert op.backend == "dense"
        with pytest.raises(UnsupportedStructureError):
            fast_matvec(M.spec, None, np.zeros(M.N))

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
        assert rel_err(op.forward(x), dense_matvec(M, x)) <= 1e-10
        assert rel_err(op.adjoint(y), dense_matvec(M.entries.T, y)) <= 1e-10

    def test_batched_forward(self):
        M = build_structured(circulant_block_spec(3, 2, 2, 2, seed=6))
        op = structured_operator(M)
        X = np.random.default_rng(0).standard_normal((M.N, 5))
        np.testing.assert_allclose(op.forward(X), M.entries @ X, rtol=1e-10)


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

    def test_fft_operator_columns_match_dense(self):
        M = build_structured(toeplitz_block_spec(8, 4, 3, 2, seed=9))
        op = structured_operator(M)
        assert op.backend == "fft"
        for j in (0, 5, 15):
            np.testing.assert_allclose(op.column(j), M.entries[:, j], atol=1e-12)


def test_speedup_reported_not_asserted(capsys):
    # scalar band with 4096 columns: print the measured ratio only
    import time

    from structcs.matrices import distinct_blocks, toeplitz_block_spec
    from structcs.fastops import fast_matvec

    spec = toeplitz_block_spec(4096, 512, 1, 1, "gaussian", seed=0)
    M = build_structured(spec)
    blocks = distinct_blocks(M)
    x = np.random.default_rng(2).standard_normal(spec.N)
    fast_matvec(spec, blocks, x)
    t0 = time.perf_counter()
    for _ in range(10):
        M.entries @ x
    dense_t = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(10):
        fast_matvec(spec, blocks, x)
    fft_t = time.perf_counter() - t0
    print(f"[report] 512x4096 scalar band matvec: dense {dense_t / 10 * 1e3:.2f} ms, "
          f"fft {fft_t / 10 * 1e3:.2f} ms, ratio {dense_t / fft_t:.1f}x")
    # the timing is only reported, but the products must agree at this size
    dense_y = M.entries @ x
    rel = np.linalg.norm(fast_matvec(spec, blocks, x) - dense_y) / np.linalg.norm(dense_y)
    assert rel <= 1e-10
