import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structcs import matrices
from structcs.devore import (
    PolySpec,
    build_devore,
    build_devore_block,
    enumerate_polynomials,
    graph_vector,
    is_prime,
    verify_rip_guarantee,
)
from structcs.ripest import GuardExceededError


class TestPrimality:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
        for v in range(25):
            assert is_prime(v) == (v in primes)


class TestEnumeration:
    def test_p3_r1_full_lex_order(self):
        # lexicographic on (a_1, a_0): tuple i has value a_1*3 + a_0 = i
        polys = enumerate_polynomials(3, 1, 9)
        assert polys == [
            (0, 0), (1, 0), (2, 0),
            (0, 1), (1, 1), (2, 1),
            (0, 2), (1, 2), (2, 2),
        ]

    def test_p2_r1_first_two(self):
        assert enumerate_polynomials(2, 1, 2) == [(0, 0), (1, 0)]

    def test_p5_r2_complete_and_distinct(self):
        polys = enumerate_polynomials(5, 2, 125)
        assert len(polys) == 125
        assert len(set(polys)) == 125

    def test_count_overflow(self):
        with pytest.raises(ValueError):
            enumerate_polynomials(3, 1, 10)

    @settings(max_examples=30)
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 2), st.data())
    def test_rank_matches_base_p_digits(self, p, r, data):
        if not r < p:
            return
        total = p ** (r + 1)
        i = data.draw(st.integers(0, total - 1))
        coeffs = enumerate_polynomials(p, r, i + 1)[i]
        assert sum(a * p**j for j, a in enumerate(coeffs)) == i


class TestGraphVector:
    def test_identity_polynomial(self):
        gv = graph_vector(3, (0, 1))  # f(x) = x
        assert set(np.nonzero(gv.bits)[0]) == {0, 4, 8}

    def test_constant_zero(self):
        gv = graph_vector(3, (0, 0))
        assert set(np.nonzero(gv.bits)[0]) == {0, 3, 6}

    @settings(max_examples=50)
    @given(st.sampled_from([2, 3, 5, 7, 11]), st.data())
    def test_exactly_p_ones(self, p, data):
        r = data.draw(st.integers(1, min(3, p - 1)))
        coeffs = tuple(data.draw(st.integers(0, p - 1)) for _ in range(r + 1))
        gv = graph_vector(p, coeffs)
        assert gv.bits.sum() == p
        # one marker per grid block of p rows, at offset f(x)
        for x in range(p):
            assert gv.bits[x * p : (x + 1) * p].sum() == 1


class TestBuildDevore:
    def test_unit_columns(self):
        M = build_devore(5, 1)
        np.testing.assert_allclose(np.linalg.norm(M.entries, axis=0), 1.0)

    def test_pairwise_inner_products_bounded(self):
        M = build_devore(3, 1)
        raw = np.rint(M.entries * math.sqrt(3)).astype(int)
        gram = raw.T @ raw
        np.fill_diagonal(gram, 0)
        assert gram.max() <= 1  # r = 1 shared point at most

    def test_disjoint_graphs_give_zero_inner_product(self):
        # f(x) = x and g(x) = x + 1 never agree over Z_3
        fx = graph_vector(3, (0, 1)).bits
        gx = graph_vector(3, (1, 1)).bits
        assert int(fx @ gx) == 0

    def test_determinism_byte_for_byte(self):
        a = build_devore(5, 2, 60)
        b = build_devore(5, 2, 60)
        assert a.entries.tobytes() == b.entries.tobytes()

    def test_column_budget(self):
        with pytest.raises(ValueError):
            build_devore(3, 1, 10)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PolySpec(p=4, r=1)  # not prime
        with pytest.raises(ValueError):
            PolySpec(p=3, r=3)  # r >= p
        with pytest.raises(ValueError):
            PolySpec(p=3, r=1, t=4, l=3)  # t*l > 9
        for p, r in ((4, 1), (3, 0), (3, 3)):  # the one-block case checks the same
            with pytest.raises(ValueError):
                build_devore(p, r)


class TestBuildDevoreBlock:
    def test_single_block_reduces_to_plain(self):
        plain = build_devore(3, 1, 9)
        block = build_devore_block(PolySpec(p=3, r=1, t=1, s=1, l=9))
        assert np.array_equal(plain.entries, block.entries)

    def test_18x9_shape_and_unit_columns(self):
        M = build_devore_block(PolySpec(p=3, r=1, t=3, s=2, l=3))
        assert M.shape == (18, 9)
        np.testing.assert_allclose(np.linalg.norm(M.entries, axis=0), 1.0)

    def test_every_column_has_sp_ones(self):
        spec = PolySpec(p=5, r=1, t=3, s=3, l=4)
        M = build_devore_block(spec)
        raw = np.rint(M.entries * math.sqrt(3 * 5)).astype(int)
        assert set(np.unique(raw)) <= {0, 1}
        np.testing.assert_array_equal(raw.sum(axis=0), 3 * 5)

    def test_block_sharing_recorded_in_labels(self):
        spec = PolySpec(p=3, r=1, t=3, s=2, l=3)
        M = build_devore_block(spec)
        # top-left block (number t-1+1-0 = 3 mod 3 = 0) equals the
        # top-right block (number t-1+0-(t-1) = 0): same labels
        d = 9
        np.testing.assert_array_equal(M.var_id[d:, :3], M.var_id[:d, 6:])
        np.testing.assert_array_equal(M.entries[d:, :3], M.entries[:d, 6:])

    def test_block_build_forms_no_label_grid(self, monkeypatch):
        def no_labels(spec):
            raise AssertionError("the build formed a label grid")

        spec = PolySpec(p=5, r=2, t=4, s=3, l=5)
        with monkeypatch.context() as patch:
            patch.setattr(matrices, "label_grid", no_labels)
            M = build_devore_block(spec)
        # the circulant band of graph-column blocks is the label gather
        d = 25
        raw = np.rint(M.entries * math.sqrt(3 * 5)).astype(np.int64)
        pool = raw[:d].reshape(d, 4, 5)[:, ::-1].transpose(1, 0, 2).ravel()
        np.testing.assert_array_equal(raw, pool[M.var_id])

    def test_raw_inner_products_at_most_sr(self):
        spec = PolySpec(p=5, r=2, t=4, s=2, l=5)
        M = build_devore_block(spec)
        raw = np.rint(M.entries * math.sqrt(2 * 5)).astype(np.int64)
        gram = raw.T @ raw
        np.fill_diagonal(gram, 0)
        assert gram.max() <= 2 * 2  # s*r


class TestRipGuarantee:
    def test_order_one_is_exact_isometry(self):
        cert = verify_rip_guarantee(PolySpec(p=3, r=1, t=3, s=2, l=3), 1)
        assert cert.passed
        assert cert.delta_bound == 0.0
        assert cert.worst_eig_delta <= 1e-12

    def test_p3_r1_all_pairs(self):
        cert = verify_rip_guarantee(PolySpec(p=3, r=1, t=1, s=1, l=9), 2)
        assert cert.passed
        assert cert.delta_bound == pytest.approx(1 / 3)
        assert cert.supports_checked == 36
        assert cert.worst_eig_delta <= 1 / 3 + 1e-12

    def test_p5_r1_exhaustive_triples(self):
        cert = verify_rip_guarantee(PolySpec(p=5, r=1, t=1, s=1, l=25), 3)
        assert cert.passed
        assert cert.delta_bound == pytest.approx(2 / 5)
        assert cert.supports_checked == 2300

    def test_eigen_delta_within_rowsum_delta(self):
        # Gershgorin: the spectral deviation is at most the worst row sum
        cert = verify_rip_guarantee(PolySpec(p=5, r=2, t=4, s=2, l=5), 3)
        assert cert.worst_eig_delta <= cert.worst_rowsum_delta + 1e-12

    @pytest.mark.parametrize("spec,m", [
        (PolySpec(p=5, r=2, t=4, s=2, l=5), 3),
        (PolySpec(p=7, r=1, t=3, s=1, l=4), 4),
    ])
    def test_rowsum_delta_is_the_brute_force_maximum(self, spec, m):
        # the largest off-diagonal row sum over every size-m support
        M = build_devore_block(spec)
        scale = spec.s * spec.p
        raw = np.rint(M.entries * math.sqrt(scale)).astype(np.int64)
        gram = raw.T @ raw
        worst = max(int(gram[i, T].sum()) - scale
                    for T in itertools.combinations(range(M.N), m) for i in T)
        cert = verify_rip_guarantee(spec, m)
        assert cert.worst_rowsum_delta == worst / scale
        assert cert.passed

    def test_order_domain(self):
        with pytest.raises(ValueError):
            verify_rip_guarantee(PolySpec(p=3, r=1, t=1, s=1, l=9), 4)  # m >= p/r+1

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            verify_rip_guarantee(PolySpec(p=7, r=1, t=1, s=1, l=49), 7, guard=1000)


# (spec, m): worst_eig_delta and worst_rowsum_delta as float.hex, and the
# support count, from the scan that eigensolved every support
_PINNED_CERTIFICATES = {
    ((7, 1, 4, 2, 5), 2): ("0x1.2492492492494p-3", "0x1.2492492492492p-3", 190),
    ((7, 1, 4, 2, 5), 3): ("0x1.2492492492490p-2", "0x1.2492492492492p-2", 1140),
    ((7, 1, 4, 2, 5), 4): ("0x1.76b7f50c90ee4p-2", "0x1.b6db6db6db6dbp-2", 4845),
    ((7, 1, 4, 2, 5), 5): ("0x1.d963f8d3ff30cp-2", "0x1.2492492492492p-1", 15504),
    ((5, 2, 5, 3, 6), 2): ("0x1.5555555555556p-2", "0x1.5555555555555p-2", 435),
    ((5, 2, 5, 3, 6), 3): ("0x1.3f182bab1f86ep-1", "0x1.5555555555555p-1", 4060),
    ((5, 1, 5, 2, 5), 4): ("0x1.3333333333338p-1", "0x1.3333333333333p-1", 12650),
    ((5, 2, 4, 2, 5), 3): ("0x1.9999999999998p-2", "0x1.999999999999ap-2", 1140),
}


@pytest.mark.parametrize("case", sorted(_PINNED_CERTIFICATES))
def test_certificate_bits_are_pinned(case):
    (p, r, t, s, l), m = case
    eig, rowsum, count = _PINNED_CERTIFICATES[case]
    cert = verify_rip_guarantee(PolySpec(p=p, r=r, t=t, s=s, l=l), m)
    assert cert.worst_eig_delta.hex() == eig
    assert cert.worst_rowsum_delta.hex() == rowsum
    assert (cert.supports_checked, cert.passed) == (count, True)
