import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structcs.bounds import (
    BoundParams,
    concentration_exponent,
    default_c0,
    default_c2,
    prob_rip_fixed_support,
    prob_rip_fixed_support_balanced,
    rip_success_bound,
)

deltas = st.floats(0.01, 0.99)
c0s = st.floats(1e-4, 1.0)


class TestConcentrationExponent:
    def test_zero_order_drops_middle_term(self):
        for n, delta, c0 in ((10, 0.2, 0.05), (400, 0.9, 0.01)):
            assert concentration_exponent(n, 0, delta, c0) == pytest.approx(
                c0 * n - math.log(2)
            )

    def test_frozen_value(self):
        # 1 - 3*ln(24) - ln(2), computed independently to 20 digits
        val = concentration_exponent(100, 3, 0.5, 0.01)
        assert val == pytest.approx(-9.2273086716037821684, abs=1e-12)
        assert val == pytest.approx(-9.227, abs=1e-3)

    @settings(max_examples=100)
    @given(st.integers(1, 10_000), st.integers(0, 50), deltas, c0s)
    def test_monotone_in_n_and_m(self, n, m, delta, c0):
        assert concentration_exponent(n + 1, m, delta, c0) > concentration_exponent(
            n, m, delta, c0
        )
        assert concentration_exponent(n, m + 1, delta, c0) < concentration_exponent(
            n, m, delta, c0
        )


class TestFixedSupportProbability:
    def test_single_block_row_reduces_to_iid_bound(self):
        for d, m, delta, c0 in ((200, 2, 0.3, 0.05), (1000, 5, 0.8, 0.02)):
            expect = 1.0 - math.exp(-concentration_exponent(d, m, delta, c0))
            got = prob_rip_fixed_support(d, m, delta, 1, c0)
            assert got == pytest.approx(max(0.0, expect), abs=1e-15)

    def test_vacuous_clamped_to_zero(self):
        # f(d, ...) <= ln(l) makes the union bound carry no information
        assert prob_rip_fixed_support(10, 5, 0.2, 1000, 0.001) == 0.0

    def test_frozen_arithmetic_case(self):
        # d=1000, m=3, delta=0.5, l=4, c0=0.05: exponent is
        # (50 - 3 ln 24 - ln 2) - ln 4 = 38.386396967276327 exactly
        got = prob_rip_fixed_support(1000, 3, 0.5, 4, 0.05)
        assert got == pytest.approx(1.0 - math.exp(-38.386396967276327), abs=1e-15)

    @settings(max_examples=100)
    @given(st.integers(1, 2000), st.integers(0, 20), deltas, st.integers(1, 50), c0s)
    def test_within_unit_interval(self, d, m, delta, l, c0):
        assert 0.0 <= prob_rip_fixed_support(d, m, delta, l, c0) <= 1.0


class TestBalancedFixedSupportProbability:
    def test_order_one_reduces_to_iid(self):
        # q = 1: the partition is the whole row set
        for n, delta, c0 in ((100, 0.4, 0.05), (333, 0.7, 0.02)):
            expect = prob_rip_fixed_support(n, 1, delta, 1, c0)
            assert prob_rip_fixed_support_balanced(n, 1, delta, c0) == expect

    def test_class_size_floor_arithmetic(self):
        # m=3: q=7 classes of floor(90/7)=12 rows; using 90/7 instead
        # of the floor would shift the exponent and fail the comparison
        got = prob_rip_fixed_support_balanced(90, 3, 0.5, 2.0)
        exponent = concentration_exponent(12, 3, 0.5, 2.0) - math.log(7)
        assert exponent > 0
        assert got == pytest.approx(1.0 - math.exp(-exponent), abs=1e-15)

    @settings(max_examples=60)
    @given(st.integers(1, 5000), st.integers(1, 10), deltas, c0s)
    def test_monotone_nondecreasing_in_n(self, n, m, delta, c0):
        a = prob_rip_fixed_support_balanced(n, m, delta, c0)
        b = prob_rip_fixed_support_balanced(n + 7, m, delta, c0)
        assert b >= a - 1e-15


class TestSuccessBound:
    def test_iid_reduction_exponent(self):
        # l = 1: probability 1 - e^{-c2 n} once n meets the requirement
        params = BoundParams(m=3, N=4096, n=10**7, l=1, delta=0.5, c0=0.05, c2=0.01)
        result = rip_success_bound(params)
        assert result.regime == "small-l"
        assert not result.vacuous
        assert result.prob_lower == pytest.approx(
            1.0 - math.exp(-0.01 * 10**7), abs=1e-15
        )

    def test_frozen_requirement_example(self):
        # m=3, N=1024, l=4, delta=0.5, c0=0.05, c2=0.01:
        # c1 = (3 ln 24 + 15)/0.04 = 613.35403727609592 and
        # ceil(c1 * 12 * ln(1024/3)) = 42932, both frozen independently
        params = BoundParams(m=3, N=1024, n=50_000, l=4, delta=0.5, c0=0.05, c2=0.01)
        result = rip_success_bound(params)
        assert result.regime == "small-l"
        assert result.c1 == pytest.approx(613.35403727609592, rel=1e-13)
        assert result.n_required == 42932
        assert not result.vacuous

    def test_vacuous_below_requirement(self):
        params = BoundParams(m=3, N=1024, n=100, l=4, delta=0.5, c0=0.05, c2=0.01)
        result = rip_success_bound(params)
        assert result.vacuous
        assert result.prob_lower == 0.0

    def test_regime_selector(self):
        small = BoundParams(m=2, N=100, n=10, l=30, delta=0.5, c0=0.5, c2=0.01)
        assert rip_success_bound(small).regime == "small-l"  # 30 <= 6*5
        large = BoundParams(m=2, N=100, n=10, l=31, delta=0.5, c0=0.5, c2=0.01)
        assert rip_success_bound(large).regime == "large-l"

    def test_large_l_regime_formula(self):
        params = BoundParams(m=2, N=10_000, n=10**7, l=1000, delta=0.5,
                             c0=0.9, c2=0.01)
        result = rip_success_bound(params)
        assert result.regime == "large-l"
        c3 = math.log(24) + math.log(2) + 0.9 + 4.0
        assert result.c1 == pytest.approx(27 * c3 / (0.9 - 0.09), rel=1e-13)
        assert result.n_required == math.ceil(result.c1 * 8 * math.log(5000))
        assert result.prob_lower == pytest.approx(
            1.0 - math.exp(-0.01 * 10**7 / 4), abs=1e-15
        )

    def test_constant_sign_constraints(self):
        with pytest.raises(ValueError):
            BoundParams(m=2, N=100, n=10, l=2, delta=0.5, c0=0.01, c2=0.02)
        params = BoundParams(m=2, N=100, n=10, l=31, delta=0.5, c0=0.05, c2=0.01)
        with pytest.raises(ValueError):
            rip_success_bound(params)  # large-l needs c0 > 9 c2

    @settings(max_examples=60)
    @given(st.integers(1, 8), st.integers(2, 12), deltas)
    def test_small_l_exponent_dominates_m_squared_rate(self, m, scale, delta):
        # for every l <= 3m(3m-1): -c2 n / l <= -c2 n / (9m^2 - 3m)
        c0 = default_c0(delta)
        c2 = default_c2(c0)
        n = 1000 * scale
        cap = 3 * m * (3 * m - 1)
        for l in (1, max(1, cap // 2), cap):
            assert -c2 * n / l <= -c2 * n / (9 * m * m - 3 * m) + 1e-18

    @settings(max_examples=60)
    @given(st.integers(1, 6), st.integers(1, 200), deltas)
    def test_prob_monotone_in_n(self, m, l, delta):
        lo = rip_success_bound(BoundParams(m=m, N=10_000, n=10**6, l=l, delta=delta))
        hi = rip_success_bound(BoundParams(m=m, N=10_000, n=2 * 10**6, l=l, delta=delta))
        assert hi.prob_lower >= lo.prob_lower - 1e-15


class TestDefaults:
    def test_defaults_resolve_and_validate(self):
        params = BoundParams(m=3, N=100, n=50, l=2, delta=0.5)
        assert params.c0 == pytest.approx(default_c0(0.5))
        assert params.c2 == pytest.approx(params.c0 / 10.0)
        assert 0 < params.c2 < params.c0

    def test_delta_range(self):
        with pytest.raises(ValueError):
            BoundParams(m=1, N=10, n=5, l=1, delta=1.5)
