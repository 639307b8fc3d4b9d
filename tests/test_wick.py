"""Pairing enumeration, Gaussian moments, and the truncated series machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from ddse.integrand import DivergentIntegralError, IntegrandSpec, TimeGrid
from ddse.paths import SeedSpec
from ddse.wick import (
    MAX_ENUM_ORDER,
    CapacityError,
    PairPartition,
    cgf_truncated,
    check_log_relation,
    compensated_series_mean,
    discrete_moment_oracle,
    enumerate_pairings,
    gaussian_moment,
    mgf_truncated,
    pairing_count,
)

UNIT = IntegrandSpec.constant(1.0)
ZERO = IntegrandSpec.constant(0.0)


def count_oracle(m: int) -> int:
    # independent recursion c(m) = (m - 1) c(m - 2), c(0) = 1
    if m % 2:
        return 0
    if m == 0:
        return 1
    return (m - 1) * count_oracle(m - 2)


def is_positive_bitwise_zero(x: float) -> bool:
    return x == 0.0 and math.copysign(1.0, x) == 1.0


class TestEnumeratePairings:
    def test_counts_match_recursion_oracle(self):
        for m in range(0, MAX_ENUM_ORDER + 1):
            assert len(enumerate_pairings(m)) == count_oracle(m), f"m={m}"

    def test_single_pair(self):
        assert enumerate_pairings(2) == [PairPartition((((1, 2)),))]

    def test_order_four_lexicographic(self):
        got = [p.pairs for p in enumerate_pairings(4)]
        assert got == [
            ((1, 2), (3, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        ]

    def test_odd_orders_empty(self):
        assert enumerate_pairings(5) == []
        assert enumerate_pairings(13) == []

    def test_empty_order(self):
        assert enumerate_pairings(0) == [PairPartition(())]

    def test_every_partition_covers_indices_once(self):
        for partition in enumerate_pairings(8):
            flat = sorted(i for pair in partition.pairs for i in pair)
            assert flat == list(range(1, 9))

    def test_no_duplicates(self):
        partitions = enumerate_pairings(10)
        assert len(set(partitions)) == len(partitions) == 945

    def test_capacity_guard_names_count(self):
        with pytest.raises(CapacityError, match="2027025"):
            enumerate_pairings(16)
        with pytest.raises(ValueError):
            enumerate_pairings(-2)

    def test_deterministic_across_calls(self):
        assert enumerate_pairings(6) == enumerate_pairings(6)


class TestPairPartitionValidation:
    def test_rejects_unordered_pair(self):
        with pytest.raises(ValueError, match="i < j"):
            PairPartition(((2, 1),))

    def test_rejects_gaps_and_repeats(self):
        with pytest.raises(ValueError, match="cover"):
            PairPartition(((1, 2), (2, 3)))
        with pytest.raises(ValueError, match="cover"):
            PairPartition(((1, 4),))


class TestPairingCount:
    def test_double_factorial_values(self):
        assert [pairing_count(m) for m in (0, 2, 4, 6, 8)] == [1, 1, 3, 15, 105]
        assert pairing_count(7) == 0

    def test_extends_past_enumeration_guard(self):
        assert pairing_count(16) == 2027025

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pairing_count(-1)


class TestGaussianMoment:
    def test_second_moment_is_variance(self):
        for v in (0.0, 0.5, 1.0, 7.0):
            assert gaussian_moment(v, 2) == v

    def test_fourth_moment_against_quadrature_oracle(self):
        variance = 2.0
        sigma = math.sqrt(variance)

        def integrand(x):
            return x**4 * math.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))

        oracle, _ = scipy_quad(integrand, -12.0 * sigma, 12.0 * sigma, epsabs=1e-10)
        assert gaussian_moment(variance, 4) == 12.0
        assert oracle == pytest.approx(12.0, abs=1e-8)

    def test_odd_moments_vanish(self):
        for m in (1, 3, 7, 13):
            assert gaussian_moment(5.0, m) == 0.0

    def test_closed_form_equality_is_exact(self):
        # the closed form against the Isserlis sum over explicit pairings
        for m in range(0, MAX_ENUM_ORDER + 1, 2):
            n_pairings = len(enumerate_pairings(m))
            for v in (0.3, 1.0, 2.0, 7.0):
                assert gaussian_moment(v, m) == n_pairings * v ** (m // 2), f"m={m}, v={v}"

    def test_guards(self):
        with pytest.raises(ValueError, match="variance"):
            gaussian_moment(-1.0, 2)
        with pytest.raises(CapacityError):
            gaussian_moment(1.0, 16)

    def test_overflow_is_divergent(self):
        # (m-1)!! v^(m/2) past float64 range: the series cannot be formed
        assert gaussian_moment(1e300, 2) == 1e300
        with pytest.raises(DivergentIntegralError, match="order 4"):
            gaussian_moment(1e300, 4)
        with pytest.raises(DivergentIntegralError, match="order 14"):
            gaussian_moment(1e44, 14)


@settings(max_examples=30, deadline=None)
@given(v=st.floats(0.0, 10.0), half=st.integers(0, 5))
def test_gaussian_moment_double_factorial_property(v, half):
    m = 2 * half
    assert gaussian_moment(v, m) == pairing_count(m) * v**half


class TestDiscreteMomentOracle:
    GRID = TimeGrid.uniform(1.0, 8)

    def test_variance_recovered(self):
        got = discrete_moment_oracle(UNIT, self.GRID, 2, 1_000_000, SeedSpec(11))
        assert got == pytest.approx(1.0, rel=0.01)

    def test_fourth_moment_recovered(self):
        got = discrete_moment_oracle(UNIT, self.GRID, 4, 1_000_000, SeedSpec(12))
        assert got == pytest.approx(3.0, rel=0.03)

    def test_odd_moment_within_se(self):
        n = 200_000
        got = discrete_moment_oracle(UNIT, self.GRID, 3, n, SeedSpec(13))
        # Var S^3 = E S^6 = 15 for unit variance
        assert abs(got) <= 3.0 * math.sqrt(15.0 / n)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="m <= 8"):
            discrete_moment_oracle(UNIT, self.GRID, 9, 10_000, SeedSpec(1))
        with pytest.raises(ValueError, match="n_mc"):
            discrete_moment_oracle(UNIT, self.GRID, 2, 100, SeedSpec(1))


class TestMgfTruncated:
    def test_order_two_example(self):
        series = mgf_truncated(UNIT, 1.0, 2)
        assert series.orders == ((0, 1.0), (1, 0.0), (2, 0.5))
        assert series.total == 1.5
        assert series.beta == 1.0

    def test_zero_integrand_total_one(self):
        assert mgf_truncated(ZERO, 3.0, 8).total == 1.0

    def test_order_fourteen_near_limit(self):
        total = mgf_truncated(UNIT, 1.0, 14).total
        # truncated sum sits below exp(1/2); tail is about 1.0e-7
        assert total < math.exp(0.5)
        assert abs(total - math.exp(0.5)) <= 2.0e-7

    def test_totals_nondecreasing_and_bounded(self):
        for spec, t in ((UNIT, 1.0), (IntegrandSpec.polynomial([0.0, 1.0]), 1.5)):
            from ddse.integrand import quad_var

            limit = math.exp(0.5 * quad_var(spec, t))
            totals = [mgf_truncated(spec, t, M).total for M in range(0, 15)]
            assert all(a <= b for a, b in zip(totals, totals[1:]))
            assert all(v <= limit for v in totals)

    def test_odd_terms_bitwise_zero(self):
        series = mgf_truncated(UNIT, 2.0, 9)
        for m, term in series.orders:
            if m % 2:
                assert is_positive_bitwise_zero(term)

    def test_json_shape(self):
        doc = mgf_truncated(UNIT, 1.0, 2).to_json_dict()
        assert doc == {"beta": 1, "orders": [[0, 1.0], [1, 0.0], [2, 0.5]], "total": 1.5}

    def test_guards(self):
        with pytest.raises(ValueError):
            mgf_truncated(UNIT, 1.0, 15)
        with pytest.raises(ValueError):
            mgf_truncated(UNIT, 1.0, -1)
        with pytest.raises(DivergentIntegralError):
            mgf_truncated(IntegrandSpec.inverse_sqrt_blowup(1.0, 0.5), 1.0, 4)


class TestCgfTruncated:
    def test_unit_integrand_orders(self):
        series = cgf_truncated(UNIT, 1.0, 6)
        assert series.orders == ((1, 0.0), (2, 0.5), (3, 0.0), (4, 0.0), (5, 0.0), (6, 0.0))
        assert series.total == 0.5

    def test_zero_integrand(self):
        assert cgf_truncated(ZERO, 5.0, 4).total == 0.0

    def test_identity_integrand_sixth(self):
        series = cgf_truncated(IntegrandSpec.polynomial([0.0, 1.0]), 1.0, 2)
        assert series.total == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_high_orders_structurally_zero(self):
        series = cgf_truncated(UNIT, 1.0, 14)
        for m, term in series.orders:
            if m >= 3:
                assert is_positive_bitwise_zero(term), f"order {m} not a clean zero"

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            cgf_truncated(UNIT, 1.0, 1)
        with pytest.raises(ValueError):
            cgf_truncated(UNIT, 1.0, 16)


class TestLogRelation:
    def test_zero_integrand_exact(self):
        report = check_log_relation(ZERO, 1.0, 2)
        assert report.gap == 0.0
        assert report.passed

    def test_order_fourteen_tight(self):
        report = check_log_relation(UNIT, 1.0, 14)
        assert report.gap <= 1e-6
        assert report.passed

    def test_order_two_gap_is_log_ratio(self):
        report = check_log_relation(UNIT, 1.0, 2)
        assert report.gap == pytest.approx(abs(math.log(1.5) - 0.5), abs=1e-15)
        assert report.bound >= report.gap
        assert report.passed

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            check_log_relation(UNIT, 1.0, 3)

    def test_json_keys(self):
        doc = check_log_relation(UNIT, 1.0, 4).to_json_dict()
        assert set(doc) == {"gap", "bound", "pass"}


class TestCompensatedSeriesMean:
    @pytest.mark.parametrize(
        "spec,t",
        [
            (UNIT, 0.25),
            (UNIT, 1.0),
            (UNIT, 4.0),
            (IntegrandSpec.polynomial([0.0, 1.0]), 2.0),
            (IntegrandSpec.exponential_decay(1.5, 0.5), 3.0),
            (IntegrandSpec.tabulated([(0.0, 1.0), (0.5, 2.0), (1.0, 0.0)]), 1.0),
        ],
    )
    def test_exactly_one(self, spec, t):
        # the compensator and the order-two cumulant share one float, so
        # the exponent cancels to exactly 0.0
        assert compensated_series_mean(spec, t) == 1.0
