import json
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structcs import matrices
from structcs.matrices import (
    BlockStructureSpec,
    DistributionKind,
    EntryDistribution,
    InnerSpec,
    MatrixKind,
    SensingMatrix,
    build_structured,
    circulant_block_spec,
    circulant_circulant_block_spec,
    circulant_circulant_spec,
    column_block_of,
    distinct_blocks,
    distinct_label_count,
    from_blocks,
    iid_spec,
    label_grid,
    sample_iid,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
    toeplitz_block_spec,
    truncate_rows,
)
from structcs.matrices import _sample_pool
from structcs.matrixio import (
    read_matrix,
    read_matrix_binary,
    read_matrix_csv,
    write_matrix_binary,
    write_matrix_csv,
)


def bernoulli(n):
    return EntryDistribution(DistributionKind.BERNOULLI, n)


class TestEntryDistribution:
    def test_bernoulli_scale_one_support(self):
        # one entry with unit scaling lands on +-1
        M = sample_iid(1, 1, bernoulli(1), seed=3)
        assert M.entries[0, 0] in (1.0, -1.0)

    def test_sparse_ternary_support(self):
        dist = EntryDistribution(DistributionKind.SPARSE_TERNARY, 2)
        M = sample_iid(2, 3, dist, seed=11)
        root = np.sqrt(1.5)
        for v in M.entries.ravel():
            assert v in (0.0, root, -root)

    def test_gaussian_column_norm_concentration(self):
        # chi-square concentration: squared column norms of 1e4 samples
        # stay within [0.9, 1.1] in at least 990 of 1000 seeded draws
        dist = EntryDistribution(DistributionKind.GAUSSIAN, 10**4)
        hits = 0
        for seed in range(1000):
            rng = np.random.default_rng([seed])
            col = dist.sample(rng, 10**4)
            hits += 0.9 <= (col**2).sum() <= 1.1
        assert hits >= 990

    @pytest.mark.parametrize("kind", list(DistributionKind))
    def test_expected_squared_column_norm_is_one(self, kind):
        n = 50_000
        dist = EntryDistribution(kind, n)
        rng = np.random.default_rng([17])
        norm2 = (dist.sample(rng, n) ** 2).sum()
        assert norm2 == pytest.approx(1.0, abs=0.05)

    def test_scale_rows_validated(self):
        with pytest.raises(ValueError):
            EntryDistribution(DistributionKind.GAUSSIAN, 0)


class TestSampleIid:
    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            sample_iid(0, 4, bernoulli(1), seed=0)
        with pytest.raises(ValueError):
            sample_iid(4, 0, bernoulli(4), seed=0)

    def test_all_labels_distinct(self):
        M = sample_iid(5, 7, bernoulli(5), seed=1)
        assert len(np.unique(M.var_id)) == 35

    def test_seed_determinism(self):
        a = sample_iid(6, 9, bernoulli(6), seed=42)
        b = sample_iid(6, 9, bernoulli(6), seed=42)
        assert np.array_equal(a.entries, b.entries)
        c = sample_iid(6, 9, bernoulli(6), seed=43)
        assert not np.array_equal(a.entries, c.entries)


class TestBlockLayouts:
    def test_toeplitz_k2_l2_scalar_layout(self):
        # three scalar blocks laid out [[b1, b0], [b2, b1]] (0-indexed)
        M = build_structured(toeplitz_block_spec(2, 2, 1, 1, "gaussian", seed=5))
        v = M.var_id
        assert v[0, 0] == v[1, 1]
        assert len({v[0, 0], v[0, 1], v[1, 0]}) == 3
        assert M.entries[0, 0] == M.entries[1, 1]

    def test_toeplitz_l1_is_iid(self):
        # a single block row shares nothing: all labels distinct
        M = build_structured(toeplitz_block_spec(4, 1, 3, 2, "gaussian", seed=9))
        assert len(np.unique(M.var_id)) == M.n * M.N

    def test_iid_spec_is_one_block_whatever_k_and_l(self):
        # a 4x8 IID spec written with k=4, l=2 and 2x2 blocks
        spec = BlockStructureSpec(MatrixKind.IID, 4, 2, 2, 2, bernoulli(4), seed=3)
        M = build_structured(spec)
        assert np.array_equal(M.var_id, np.arange(32).reshape(4, 8))
        assert distinct_label_count(spec) == 32
        assert np.array_equal(M.entries, sample_iid(4, 8, bernoulli(4), seed=3).entries)
        # stored as its one 4x8 block, and read back in that form
        assert (spec.k, spec.l, spec.d, spec.e) == (1, 1, 4, 8)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_circulant_3x3_scalar_layout(self):
        M = build_structured(circulant_block_spec(3, 3, 1, 1, "bernoulli", seed=2))
        a = [M.entries[0, 2], M.entries[0, 1], M.entries[0, 0]]  # a1, a2, a3
        expect = np.array([
            [a[2], a[1], a[0]],
            [a[0], a[2], a[1]],
            [a[1], a[0], a[2]],
        ])
        assert np.array_equal(M.entries, expect)

    def test_toeplitz_scalar_reduction_is_classic_toeplitz(self):
        # d = e = 1: constant along every diagonal band
        M = build_structured(toeplitz_block_spec(6, 5, 1, 1, "gaussian", seed=8))
        E = M.entries
        for i in range(M.n - 1):
            for j in range(M.N - 1):
                assert E[i, j] == E[i + 1, j + 1]

    def test_distinct_label_counts(self):
        spec = toeplitz_block_spec(4, 3, 2, 5, seed=1)
        assert distinct_label_count(spec) == (4 + 3 - 1) * 2 * 5
        assert len(np.unique(build_structured(spec).var_id)) == (4 + 3 - 1) * 2 * 5
        spec = circulant_block_spec(4, 3, 2, 5, seed=1)
        assert distinct_label_count(spec) == 4 * 2 * 5
        assert len(np.unique(build_structured(spec).var_id)) == 4 * 2 * 5

    def test_circulant_wraparound_when_l_exceeds_k(self):
        # block rows beyond the period reuse block ids modulo k
        M = build_structured(circulant_block_spec(2, 5, 1, 1, "gaussian", seed=4))
        assert len(np.unique(M.var_id)) == 2
        assert np.array_equal(M.var_id[0], M.var_id[2])

    def test_nested_circulant_label_count(self):
        spec = circulant_circulant_spec(3, 4, 5, 2, seed=9)
        M = build_structured(spec)
        assert len(np.unique(M.var_id)) == 3 * 5 == distinct_label_count(spec)
        spec = circulant_circulant_block_spec(3, 2, 4, 2, 2, 3, seed=9)
        M = build_structured(spec)
        assert len(np.unique(M.var_id)) == 3 * 4 * 2 * 3 == distinct_label_count(spec)

    def test_nested_block_is_circulant_of_scalars(self):
        M = build_structured(circulant_circulant_spec(2, 2, 3, 3, seed=6))
        blk = M.entries[:3, :3]
        a = [blk[0, 2], blk[0, 1], blk[0, 0]]
        expect = np.array([
            [a[2], a[1], a[0]],
            [a[0], a[2], a[1]],
            [a[1], a[0], a[2]],
        ])
        assert np.array_equal(blk, expect)

    def test_deterministic_kind_rejected_here(self):
        spec = BlockStructureSpec(
            MatrixKind.DETERMINISTIC, 2, 1, 4, 2, bernoulli(4), 0
        )
        with pytest.raises(ValueError):
            build_structured(spec)

    def test_nested_dim_mismatch_rejected(self):
        inner = InnerSpec(MatrixKind.CIRCULANT_BLOCK, 3, 3, 1, 1)
        with pytest.raises(ValueError):
            BlockStructureSpec(
                MatrixKind.CIRCULANT_CIRCULANT, 2, 2, 4, 3, bernoulli(8), 0,
                nested=inner,
            )


@st.composite
def small_specs(draw):
    """A small spec of any kind ``build_structured`` takes, in any of the
    three distributions; circulant block rows run to 2k + 3, past a wrap."""
    kind = draw(st.sampled_from(["iid", "toeplitz", "circulant", "nested", "nested-block"]))
    dist = draw(st.sampled_from(list(DistributionKind)))
    seed = draw(st.integers(0, 2**32))
    if kind == "iid":
        return iid_spec(draw(st.integers(1, 8)), draw(st.integers(1, 8)), dist, seed)
    if kind == "nested":
        k, l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        return circulant_circulant_spec(k, l, p, q, dist, seed)
    if kind == "nested-block":
        k1, l1, k2, l2 = (draw(st.integers(1, 3)) for _ in range(4))
        d2, e2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        return circulant_circulant_block_spec(k1, l1, k2, l2, d2, e2, dist, seed)
    k = draw(st.integers(1, 4))
    l = draw(st.integers(1, 2 * k + 3 if kind == "circulant" else 4))
    d, e = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    build = toeplitz_block_spec if kind == "toeplitz" else circulant_block_spec
    return build(k, l, d, e, dist, seed)


class TestStructuralInvariants:
    @settings(max_examples=40, deadline=None)
    @given(small_specs())
    def test_equal_labels_imply_equal_entries(self, spec):
        M = build_structured(spec)
        flat_v = M.var_id.ravel()
        flat_e = M.entries.ravel()
        order = np.argsort(flat_v, kind="stable")
        v, e = flat_v[order], flat_e[order]
        same = v[1:] == v[:-1]
        assert np.array_equal(e[1:][same], e[:-1][same])

    @settings(max_examples=20, deadline=None)
    @given(small_specs())
    def test_spec_seed_determinism(self, spec):
        a = build_structured(spec)
        b = build_structured(spec)
        assert np.array_equal(a.entries, b.entries)
        assert np.array_equal(a.var_id, b.var_id)

    def test_entries_are_frozen(self):
        M = build_structured(toeplitz_block_spec(2, 2, 2, 2, seed=1))
        with pytest.raises(ValueError):
            M.entries[0, 0] = 7.0


# one spec of every kind build_structured takes, the nested kinds included
EVERY_KIND = [
    iid_spec(4, 6, "gaussian", seed=3),
    toeplitz_block_spec(3, 2, 2, 2, "bernoulli", seed=4),
    circulant_block_spec(3, 4, 1, 2, "sparse-ternary", seed=5),
    circulant_circulant_spec(2, 2, 3, 2, "gaussian", seed=6),
    circulant_circulant_block_spec(2, 2, 2, 2, 1, 2, "bernoulli", seed=7),
]


def _labels_by_index(kind, k, l, inner):
    """The label grid of ``l`` block rows by ``k`` block columns, each block
    labelled like ``inner`` (labels 0 .. per - 1, per = inner.max() + 1):
    entry (i*d + a, j*e + b) holds label blk(i, j)*per + inner[a, b], with
    blk(i, j) = k - 1 + i - j, taken mod k unless the grid is Toeplitz."""
    d, e = inner.shape
    per = inner.max() + 1
    grid = np.empty((l * d, k * e), dtype=np.int64)
    for i, j in np.ndindex(l, k):
        blk = k - 1 + i - j
        if kind is not MatrixKind.TOEPLITZ_BLOCK:
            blk %= k
        grid[i * d:(i + 1) * d, j * e:(j + 1) * e] = blk * per + inner
    return grid


class TestOneStream:
    @pytest.mark.parametrize("spec", EVERY_KIND, ids=lambda spec: spec.kind.value)
    def test_build_makes_one_generator(self, spec, monkeypatch):
        seeds = []
        default_rng = np.random.default_rng

        def counted(seed):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(matrices.np.random, "default_rng", counted)
        build_structured(spec)
        assert seeds == [[spec.seed]]

    @pytest.mark.parametrize("spec", EVERY_KIND, ids=lambda spec: spec.kind.value)
    def test_pool_is_one_draw_in_label_order(self, spec):
        stream = spec.distribution.sample(np.random.default_rng([spec.seed]),
                                          distinct_label_count(spec))
        np.testing.assert_array_equal(_sample_pool(spec), stream)
        M = build_structured(spec)
        assert M.entries.tobytes() == stream[M.var_id].tobytes()

    @settings(max_examples=80, deadline=None)
    @given(small_specs())
    def test_tiled_build_is_the_stream_through_the_labels(self, spec):
        # the band tiler reproduces the label gather byte for byte
        stream = spec.distribution.sample(np.random.default_rng([spec.seed]),
                                          distinct_label_count(spec))
        M = build_structured(spec)
        assert M.entries.flags.c_contiguous
        assert M.entries.tobytes() == stream[M.var_id].tobytes()
        # the labels by index arithmetic, written here apart from the tiler
        if spec.nested is None:
            inner = np.arange(spec.d * spec.e).reshape(spec.d, spec.e)
        else:
            nest = spec.nested
            leaf = np.arange(nest.d * nest.e).reshape(nest.d, nest.e)
            inner = _labels_by_index(nest.kind, nest.k, nest.l, leaf)
        np.testing.assert_array_equal(M.var_id,
                                      _labels_by_index(spec.kind, spec.k, spec.l, inner))
        if spec.kind is not MatrixKind.IID:
            # block b holds labels b * per_block + the one-block label grid
            blocks = stream.reshape(-1, inner.max() + 1)[:, inner]
            assert distinct_blocks(M).tobytes() == blocks.tobytes()

    @pytest.mark.parametrize("spec", EVERY_KIND[1:], ids=lambda spec: spec.kind.value)
    def test_from_blocks_rebuilds_the_matrix(self, spec):
        M = build_structured(spec)
        again = from_blocks(spec, distinct_blocks(M))
        assert again.entries.tobytes() == M.entries.tobytes()
        with pytest.raises(ValueError, match="do not fit"):
            from_blocks(spec, distinct_blocks(M)[:-1])

    @pytest.mark.parametrize("spec", EVERY_KIND, ids=lambda spec: spec.kind.value)
    def test_build_forms_no_label_grid(self, spec, monkeypatch):
        def no_labels(spec):
            raise AssertionError("the build formed a label grid")

        with monkeypatch.context() as patch:
            patch.setattr(matrices, "label_grid", no_labels)
            M = build_structured(spec)
            if spec.kind is not MatrixKind.IID:
                distinct_blocks(M)
        np.testing.assert_array_equal(M.var_id, label_grid(spec))


def _old_sample(dist, rng, count):
    """The sampler as it was before the table lookup: int64 arithmetic and
    boolean masks."""
    n = dist.scale_rows
    if dist.kind is DistributionKind.GAUSSIAN:
        return rng.standard_normal(count) / math.sqrt(n)
    if dist.kind is DistributionKind.BERNOULLI:
        return (rng.integers(0, 2, size=count) * 2 - 1) / math.sqrt(n)
    u = rng.integers(0, 6, size=count)
    vals = np.zeros(count)
    vals[u == 0] = math.sqrt(3.0 / n)
    vals[u == 1] = -math.sqrt(3.0 / n)
    return vals


@pytest.mark.parametrize("n", [1, 7, 40, 1000])
@pytest.mark.parametrize("kind", list(DistributionKind), ids=lambda kind: kind.value)
def test_sampler_keeps_the_old_bytes(kind, n):
    dist = EntryDistribution(kind, n)
    new = dist.sample(np.random.default_rng([n]), 3000)
    old = _old_sample(dist, np.random.default_rng([n]), 3000)
    # bytes, not values: a -0.0 for a 0.0 would show here
    assert new.tobytes() == old.tobytes()
    if kind is DistributionKind.SPARSE_TERNARY:
        zeros = new[new == 0]
        assert len(zeros) > 0 and not np.signbit(zeros).any()


class TestColumnBlockOf:
    def test_examples(self):
        spec = toeplitz_block_spec(3, 1, 1, 4, seed=0)
        assert column_block_of(spec, 0) == 0
        assert column_block_of(spec, 7) == 1
        scalar = toeplitz_block_spec(5, 1, 1, 1, seed=0)
        for c in range(5):
            assert column_block_of(scalar, c) == c

    def test_out_of_range(self):
        spec = toeplitz_block_spec(3, 1, 1, 4, seed=0)
        with pytest.raises(IndexError):
            column_block_of(spec, 12)


class TestDistinctBlocksAndTruncation:
    def test_blocks_reassemble_toeplitz(self):
        spec = toeplitz_block_spec(3, 2, 2, 2, seed=12)
        M = build_structured(spec)
        B = distinct_blocks(M)
        assert B.shape == (4, 2, 2)
        for i in range(2):
            for j in range(3):
                b = (3 - 1) + i - j
                np.testing.assert_array_equal(
                    M.entries[2 * i : 2 * i + 2, 2 * j : 2 * j + 2], B[b]
                )

    def test_truncation_keeps_prefix_rows(self):
        M = build_structured(toeplitz_block_spec(3, 3, 2, 2, seed=12))
        T = truncate_rows(M, 5)
        assert T.shape == (5, 6)
        assert T.is_truncated
        np.testing.assert_array_equal(T.entries, M.entries[:5])
        np.testing.assert_array_equal(T.var_id, M.var_id[:5])
        assert not T.var_id.flags.writeable
        with pytest.raises(FrozenInstanceError):
            T.var_id = M.var_id
        with pytest.raises(ValueError):
            distinct_blocks(T)

    @pytest.mark.parametrize("shape", [(7, 6), (0, 6), (5, 5), (6,)],
                             ids=["too-many-rows", "no-rows", "wrong-cols", "one-axis"])
    def test_entries_must_fit_the_spec(self, shape):
        # a 6x6 spec takes 1..6 rows of 6 columns
        spec = toeplitz_block_spec(3, 3, 2, 2, seed=12)
        with pytest.raises(ValueError):
            SensingMatrix(entries=np.zeros(shape), spec=spec)

    def test_truncation_bounds(self):
        M = build_structured(toeplitz_block_spec(2, 2, 2, 2, seed=1))
        with pytest.raises(ValueError):
            truncate_rows(M, 0)
        assert truncate_rows(M, M.n) is M


class TestSerialization:
    @settings(max_examples=30, deadline=None)
    @given(small_specs())
    def test_json_round_trip(self, spec):
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_dict_shape(self):
        spec = circulant_circulant_spec(2, 2, 3, 3, "bernoulli", seed=7)
        d = spec_to_dict(spec)
        assert set(d) == {"kind", "k", "l", "d", "e", "nested", "distribution", "seed"}
        assert d["nested"] == {"kind": "circulant-block", "k": 3, "l": 3, "d": 1, "e": 1}
        assert spec_from_dict(json.loads(json.dumps(d))) == spec

    def test_matrix_csv_round_trip(self, tmp_path):
        M = build_structured(toeplitz_block_spec(3, 2, 2, 2, seed=3))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, M.entries)
        np.testing.assert_array_equal(read_matrix_csv(path), M.entries)

    @pytest.mark.parametrize("shape", [(9, 1), (1, 9), (1, 1)])
    def test_matrix_csv_keeps_a_single_row_or_column(self, tmp_path, shape):
        A = np.arange(1.0, 1.0 + shape[0] * shape[1]).reshape(shape)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, A)
        np.testing.assert_array_equal(read_matrix_csv(path), A)

    def test_matrix_binary_round_trip(self, tmp_path):
        M = build_structured(circulant_block_spec(3, 2, 2, 2, seed=3))
        path = tmp_path / "m.bin"
        write_matrix_binary(path, M.entries)
        np.testing.assert_array_equal(read_matrix_binary(path), M.entries)
        assert path.read_bytes()[:4] == b"SCS1"
        assert read_matrix(path).shape == M.shape

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_matrix_binary(path)
