"""Deterministic reductions, estimate reports, and the martingale test battery."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddse.estimators import (
    BIN_GAP_SIGMAS,
    EstimateReport,
    IncrementBins,
    NodeMoments,
    det_sum,
    drift_expectation_check,
    estimate_mean_z,
    estimate_p_moment,
    jackknife_mean_se,
    martingale_increment_test,
    p_moment_targets,
    reports_to_csv,
    submartingale_scan,
    _check,
)
from ddse.integrand import IntegrandSpec, TimeGrid
from ddse.paths import PathBundle, SeedSpec, stoch_exp_em, stoch_exp_exact

UNIT = IntegrandSpec.constant(1.0)
ZERO = IntegrandSpec.constant(0.0)
IDENT = IntegrandSpec.polynomial([0.0, 1.0])


def loo_jackknife_se(x) -> float:
    """Brute-force jackknife SE of the mean over the n leave-one-out means."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    loo = (math.fsum(x) - x) / (n - 1.0)
    dev = loo - math.fsum(loo) / n
    return math.sqrt((n - 1.0) / n * math.fsum(dev * dev))


def rebuilt_with_z(bundle: PathBundle, z: np.ndarray) -> PathBundle:
    return PathBundle(
        grid=bundle.grid,
        n_paths=bundle.n_paths,
        increments=bundle.increments,
        ito=bundle.ito,
        z=z,
        quad_var=bundle.quad_var,
        scheme=bundle.scheme,
        seed=bundle.seed,
        antithetic=bundle.antithetic,
    )


class TestDetSum:
    def test_matches_fsum(self):
        rng = np.random.default_rng(7)
        x = rng.standard_cauchy(20_001)  # rough values, no benign cancellation
        assert det_sum(x) == pytest.approx(math.fsum(x), rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 8191, 8192, 8193, 16384])
    def test_block_boundaries(self, n):
        x = np.arange(n, dtype=np.float64)
        assert det_sum(x) == pytest.approx(n * (n - 1) / 2.0, rel=1e-14)

    def test_empty_is_zero(self):
        assert det_sum(np.array([])) == 0.0


class TestJackknife:
    def test_agrees_with_naive_standard_error(self):
        rng = np.random.default_rng(9)
        x = rng.normal(3.0, 2.0, size=5000)
        mean, se = jackknife_mean_se(x)
        assert mean == pytest.approx(float(np.mean(x)), rel=1e-14)
        # for the sample mean the jackknife SE equals s / sqrt(n) identically
        assert se == pytest.approx(float(np.std(x, ddof=1)) / math.sqrt(x.size), rel=1e-10)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            jackknife_mean_se([1.0])

    def test_constant_sample(self):
        mean, se = jackknife_mean_se(np.full(100, 4.0))
        assert mean == 4.0
        assert se == 0.0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=400))
def test_jackknife_matches_classic_formula(values):
    x = np.asarray(values)
    mean, se = jackknife_mean_se(x)
    assert mean == pytest.approx(float(np.mean(x)), rel=1e-12, abs=1e-12)
    classic = float(np.std(x, ddof=1)) / math.sqrt(x.size)
    assert se == pytest.approx(classic, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("n", [8193, 50_000, 100_003])
def test_slice_merge_matches_two_pass_oracle(n):
    # several 8192-value slices merged in order against one exact two-pass
    # computation over the whole sample; the mean is det_sum's float
    x = np.random.default_rng(n).lognormal(0.0, 1.5, size=n)
    mean, se = jackknife_mean_se(x)
    assert mean == det_sum(x) / n
    centre = math.fsum(x) / n
    oracle = math.sqrt(math.fsum((x - centre) ** 2) / (n * (n - 1.0)))
    assert se == pytest.approx(oracle, rel=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=400))
def test_jackknife_matches_leave_one_out_oracle(values):
    _, se = jackknife_mean_se(np.asarray(values))
    assert se == pytest.approx(loo_jackknife_se(values), rel=1e-8, abs=1e-12)


class TestEstimateReport:
    def test_rejects_negative_standard_error(self):
        with pytest.raises(ValueError, match="nonnegative"):
            EstimateReport("q", 10, 1.0, -0.1, 0.9, 1.1)

    def test_rejects_interval_missing_estimate(self):
        with pytest.raises(ValueError, match="bracket"):
            EstimateReport("q", 10, 1.0, 0.1, 1.2, 1.4)

    def test_target_and_verdict_travel_together(self):
        with pytest.raises(ValueError, match="verdict"):
            EstimateReport("q", 10, 1.0, 0.1, 0.7, 1.3, target=1.0, passed=None)
        with pytest.raises(ValueError, match="verdict"):
            EstimateReport("q", 10, 1.0, 0.1, 0.7, 1.3, target=None, passed=True)

    def test_json_uses_pass_key(self):
        doc = EstimateReport("q", 10, 1.0, 0.1, 0.7, 1.3, target=1.0, passed=True).to_json_dict()
        assert doc["pass"] is True
        assert "passed" not in doc


class TestCheckRule:
    def test_bound_is_inclusive(self):
        assert _check("g", 10, -4.0, 1.0, 0.0, (), BIN_GAP_SIGMAS).passed is True
        assert _check("g", 10, 4.5, 1.0, 0.0, (), BIN_GAP_SIGMAS).passed is False
        check = _check("m", 10, 1.5, 0.25, 1.0, ["kept"], 3.0)
        assert (check.passed, check.ci_low, check.ci_high, check.notes) == (True, 0.75, 2.25, ("kept",))

    @pytest.mark.parametrize("se", [math.inf, math.nan])
    def test_finite_gap_with_nonfinite_se_fails(self, se):
        for gap in (0.0, 0.1):
            check = _check("g", 10, gap, se, 0.0, (), BIN_GAP_SIGMAS)
            assert check.passed is False
            assert check.notes[0].startswith("non-finite statistic")


class TestEstimateMeanZ:
    def test_zero_integrand_is_exact(self):
        bundle = stoch_exp_exact(ZERO, TimeGrid.uniform(1.0, 4), 500, SeedSpec(1))
        report = estimate_mean_z(bundle, 4)
        assert report.estimate == 1.0
        assert report.std_error == 0.0
        assert report.passed
        assert report.quantity == "mean_z@t=1"

    def test_small_sample_refused(self):
        bundle = stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 4), 99, SeedSpec(1))
        with pytest.raises(ValueError, match="100 paths"):
            estimate_mean_z(bundle, 4)

    def test_heavy_tail_note_keyed_to_accumulated_variance(self):
        grid = TimeGrid.uniform(4.0, 8)
        bundle = stoch_exp_exact(UNIT, grid, 1_000, SeedSpec(2))
        hot = estimate_mean_z(bundle, 8)  # qv = 4 at the horizon
        cold = estimate_mean_z(bundle, 2)  # qv = 1
        assert any("heavy-tail" in n for n in hot.notes)
        assert not any("heavy-tail" in n for n in cold.notes)

    def test_antithetic_counts_pairs(self):
        bundle = stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 4), 2_000, SeedSpec(3), antithetic=True)
        report = estimate_mean_z(bundle, 4)
        assert report.n == 1_000
        assert any("pair means" in n for n in report.notes)

    def test_node_out_of_range(self):
        bundle = stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 4), 500, SeedSpec(4))
        with pytest.raises(IndexError):
            estimate_mean_z(bundle, 5)

    def test_partials_read_only_a_node_major_z(self):
        # a bundle's rows are row-major: the bundle functions fold node-major
        # copies of them, and the fold itself makes none
        bundle = stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 4), 500, SeedSpec(5))
        moments = NodeMoments(bundle.grid, bundle.quad_var, bundle.n_paths)
        with pytest.raises(ValueError, match="node-major"):
            moments.partials(bundle.z)
        moments.merge(moments.partials(np.ascontiguousarray(bundle.z.T).T))
        assert moments.mean_z(4) == estimate_mean_z(bundle, 4)


class TestEstimatePMoment:
    def test_p_one_is_the_martingale_estimate(self):
        bundle = stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 8), 10_000, SeedSpec(5))
        assert bundle.nonpositive_count == 0
        assert estimate_p_moment(bundle, 8, 1.0) == estimate_mean_z(bundle, 8)

    def test_p_one_on_signed_paths_uses_magnitude(self):
        # a coarse Euler grid leaves sign changes in z, so |z| and z differ
        bundle = stoch_exp_em(UNIT, TimeGrid.uniform(1.0, 2), 50_000, SeedSpec(2024))
        assert bundle.nonpositive_count > 0
        moment = estimate_p_moment(bundle, 2, 1.0)
        plain = estimate_mean_z(bundle, 2)
        assert moment.estimate > plain.estimate
        assert moment.quantity == "pth_moment@p=1;t=1"

    def test_second_moment_hits_closed_form(self):
        bundle = stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 8), 100_000, SeedSpec(302))
        report = estimate_p_moment(bundle, 8, 2.0)
        assert report.target == pytest.approx(math.e, rel=1e-12)
        assert report.passed
        assert any("variance oracle" in n for n in report.notes)

    def test_moment_order_must_be_positive(self):
        bundle = stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 4), 500, SeedSpec(6))
        with pytest.raises(ValueError, match="positive"):
            estimate_p_moment(bundle, 4, 0.0)

    def test_targets_closed_form(self):
        qv = np.array([0.0, 0.5, 1.0])
        got = p_moment_targets(qv, 3.0)
        np.testing.assert_allclose(got, np.exp(3.0 * qv), rtol=1e-15)

    def test_nonfinite_statistic_fails_and_writes_null(self):
        bundle = stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 4), 500, SeedSpec(6))
        z = bundle.z.copy()
        z[7, 4] = np.inf
        report = estimate_p_moment(rebuilt_with_z(bundle, z), 4, 2.0)
        assert report.estimate == np.inf
        assert report.passed is False
        assert any(n.startswith("non-finite statistic") for n in report.notes)
        doc = report.to_json_dict()
        assert doc["estimate"] is None and doc["std_error"] is None and doc["pass"] is False
        assert reports_to_csv([report]).splitlines()[1].endswith(",,,,2.718281828459045,false")


def scan_of(spec, grid, p, n_paths, seed):
    return submartingale_scan(stoch_exp_exact(spec, grid, n_paths, seed), p)


class TestSubmartingaleScan:
    def test_unit_integrand_profile(self):
        scan = scan_of(UNIT, TimeGrid.uniform(1.0, 2), 2.0, 200_000, SeedSpec(701))
        assert scan.targets == (1.0, math.exp(0.5), math.exp(1.0))
        assert scan.monotone_pass
        assert scan.statistical_pass
        assert scan.notes == ()
        assert [r.quantity for r in scan.reports] == [
            "pth_moment@p=2;t=0",
            "pth_moment@p=2;t=0.5",
            "pth_moment@p=2;t=1",
        ]

    def test_zero_integrand_profile_is_flat_not_failing(self):
        scan = scan_of(ZERO, TimeGrid.uniform(1.0, 2), 2.0, 1_000, SeedSpec(7))
        assert not scan.monotone_pass
        assert scan.statistical_pass
        assert any("constant profile" in n for n in scan.notes)

    def test_vanishing_integrand_start_reported_as_non_strict(self):
        # left-endpoint accumulation leaves the first step of t -> t^2/2 flat
        scan = scan_of(IDENT, TimeGrid.uniform(2.0, 2), 1.5, 50_000, SeedSpec(808))
        assert scan.targets == (1.0, 1.0, pytest.approx(math.exp(0.375), rel=1e-15))
        assert not scan.monotone_pass
        assert scan.statistical_pass
        assert any("non-strict target profile on steps 0->1" in n for n in scan.notes)

    def test_requires_p_above_one(self):
        with pytest.raises(ValueError, match="p > 1"):
            scan_of(UNIT, TimeGrid.uniform(1.0, 2), 1.0, 10_000, SeedSpec(8))

    def test_json_shape(self):
        scan = scan_of(ZERO, TimeGrid.uniform(1.0, 2), 2.0, 1_000, SeedSpec(7))
        doc = scan.to_json_dict()
        assert set(doc) == {"p", "times", "targets", "monotone_pass", "statistical_pass", "notes", "reports"}
        assert doc["monotone_pass"] is False


class TestMartingaleIncrementTest:
    GRID = TimeGrid.uniform(1.0, 16)

    def test_degenerate_conditioning_collapses_to_one_group(self):
        bundle = stoch_exp_exact(ZERO, self.GRID, 20_000, SeedSpec(9))
        report = martingale_increment_test(bundle, 8, 16)
        assert report.gaps == (0.0,)
        assert report.gaps_in_se == (0.0,)
        assert report.passed
        assert any("merged low-occupancy bins: 16 requested -> 1 groups" in n for n in report.notes)

    def test_bins_are_gaussian_quantiles_of_the_ito_sum(self):
        # I(s) ~ Normal(0, qv_N(s)) with qv_N(s) = 0.5 here, so each of the
        # 16 bins holds 1/16 of the paths up to binomial noise
        n = 160_000
        bins = IncrementBins.of_bundle(stoch_exp_exact(UNIT, self.GRID, n, SeedSpec(77)), 8, 16)
        oracle = [NormalDist(0.0, math.sqrt(0.5)).inv_cdf(k / 16) for k in range(1, 16)]
        np.testing.assert_allclose(bins.edges, oracle, rtol=1e-12, atol=1e-15)
        sd = math.sqrt(n / 16 * (1 - 1 / 16))
        assert all(abs(count - n / 16) <= 5 * sd for count in bins._bins.count)
        assert bins.report().notes == ()

    def test_exact_scheme_passes(self):
        bundle = stoch_exp_exact(UNIT, self.GRID, 20_000, SeedSpec(402))
        report = martingale_increment_test(bundle, 8, 16)
        assert report.passed
        assert report.n_bins == 16
        assert len(report.gaps) == 16
        assert report.max_abs_gap_in_se == max(abs(g) for g in report.gaps_in_se)
        # one check per bin group, and the test passes when all of them do
        checks = report.checks
        assert [c.quantity for c in checks] == [f"increment_gap@s=0.5;t=1;group={k}" for k in range(16)]
        assert sum(c.n for c in checks) == 20_000
        assert tuple(c.estimate for c in checks) == report.gaps
        assert tuple(abs(c.estimate) / c.std_error for c in checks) == report.gaps_in_se
        assert all(c.target == 0.0 and c.ci_high == c.estimate + BIN_GAP_SIGMAS * c.std_error for c in checks)
        assert report.passed is all(c.passed for c in checks) is True

    def test_euler_scheme_passes(self):
        # the Euler recursion is a discrete martingale too, sign changes and all
        bundle = stoch_exp_em(UNIT, self.GRID, 20_000, SeedSpec(556))
        report = martingale_increment_test(bundle, 8, 16)
        assert report.passed

    def test_injected_drift_is_detected(self):
        bundle = stoch_exp_exact(UNIT, self.GRID, 20_000, SeedSpec(402))
        z = bundle.z.copy()
        z[:, 16] *= math.exp(0.10)
        report = martingale_increment_test(rebuilt_with_z(bundle, z), 8, 16)
        assert not report.passed
        assert report.max_abs_gap_in_se > 4.0

    def test_validations(self):
        bundle = stoch_exp_exact(UNIT, self.GRID, 20_000, SeedSpec(10))
        with pytest.raises(ValueError, match="s_index < t_index"):
            martingale_increment_test(bundle, 8, 8)
        small = stoch_exp_exact(UNIT, self.GRID, 9_999, SeedSpec(10))
        with pytest.raises(ValueError, match="10000 paths"):
            martingale_increment_test(small, 8, 16)

    def test_json_uses_pass_key(self):
        bundle = stoch_exp_exact(ZERO, self.GRID, 20_000, SeedSpec(9))
        doc = martingale_increment_test(bundle, 8, 16).to_json_dict()
        assert doc["pass"] is True
        assert set(doc) == {"s", "t", "n_bins", "gaps", "gaps_in_se", "max_abs_gap_in_se", "pass", "notes"}


class TestDriftExpectation:
    def test_no_drift_no_noise_is_exact(self):
        bundle = stoch_exp_exact(ZERO, TimeGrid.uniform(1.0, 4), 500, SeedSpec(11))
        report = drift_expectation_check(bundle, 0.0, 2.0)
        assert report.estimate == 2.0
        assert report.std_error == 0.0
        assert report.passed
        assert report.quantity == "mean_x@t=1"
        # a constant sample whose sum rounds: the mean lands a few ulps off
        # its target with SE 0 or ~1e-18, and must still pass; the last case
        # is the deterministic decay x(2) = 3 exp(-2)
        cases = [(0.0, x0, 1.0, n) for x0 in (0.1, 0.3, 0.7, 1.1, 2.3, 3.7, 5.9) for n in (500, 1_000, 3_000)]
        cases.append((-1.0, 3.0, 2.0, 500))
        for alpha, x0, horizon, n in cases:
            bundle = stoch_exp_exact(ZERO, TimeGrid.uniform(horizon, 4), n, SeedSpec(11))
            report = drift_expectation_check(bundle, alpha, x0)
            oracle = x0 * math.exp(alpha * horizon)
            assert report.target == pytest.approx(oracle, rel=1e-15), (alpha, x0, n)
            assert report.estimate == pytest.approx(oracle, rel=1e-14), (alpha, x0, n)
            assert report.passed, (alpha, x0, n)

    def test_negative_drift(self):
        report = drift_expectation_check(
            stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 8), 100_000, SeedSpec(602)), -2.0, 1.0
        )
        assert report.target == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert report.passed

    def test_antithetic(self):
        report = drift_expectation_check(
            stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 8), 100_000, SeedSpec(603), antithetic=True), 0.5, 2.0
        )
        assert report.n == 50_000
        assert report.passed

    def test_positive_start_required(self):
        bundle = stoch_exp_exact(UNIT, TimeGrid.uniform(1.0, 2), 100, SeedSpec(11))
        with pytest.raises(ValueError, match="x0"):
            drift_expectation_check(bundle, 0.0, 0.0)


def test_replicated_coverage_rate():
    # the 3-sigma rule should reject rarely; 200 independent replications
    grid = TimeGrid.uniform(1.0, 2)
    hits = 0
    for rep in range(200):
        bundle = stoch_exp_exact(UNIT, grid, 5_000, SeedSpec(777, rep))
        hits += estimate_mean_z(bundle, 2).passed
    assert hits / 200 >= 0.98


def test_reports_to_csv_golden():
    reports = [
        EstimateReport("mean_z@t=1", 4, 1.5, 0.25, 0.75, 2.25, target=1.0, passed=False),
        EstimateReport("aux", 2, 0.5, 0.0, 0.5, 0.5),
    ]
    assert reports_to_csv(reports) == (
        "quantity,n,estimate,se,ci_low,ci_high,target,pass\n"
        "mean_z@t=1,4,1.5,0.25,0.75,2.25,1.0,false\n"
        "aux,2,0.5,0.0,0.5,0.5,,\n"
    )
