"""Integrand evaluation, accumulated-square quadrature, finiteness verdicts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddse.integrand import (
    DEFAULT_TOL,
    DIVERGENCE_CAP,
    DivergentIntegralError,
    IntegrandDomainError,
    IntegrandSpec,
    TimeGrid,
    novikov_check,
    quad_var,
    quad_var_between,
    quad_var_profile,
)

# absolute agreement demanded between independent quadrature routes; the
# default tolerance is 1e-9, routes can each miss by that much
CROSS_ROUTE_TOL = 2e-9

TRIANGLE = IntegrandSpec.tabulated([(0.0, 1.0), (0.5, 2.0), (1.0, 0.0)])
# piecewise closed form: int (1+2u)^2 on [0,.5] = 7/6, int (4-4u)^2 on [.5,1] = 2/3
TRIANGLE_QV_1 = 7.0 / 6.0 + 2.0 / 3.0


class TestEvaluation:
    def test_constant(self):
        assert IntegrandSpec.constant(1.0).value(0.7) == 1.0

    def test_polynomial_ascending_coefficients(self):
        # polynomial([0, 1]) is the identity
        assert IntegrandSpec.polynomial([0.0, 1.0]).value(2.0) == 2.0
        spec = IntegrandSpec.polynomial([1.0, 2.0, 3.0])
        assert spec.value(2.0) == pytest.approx(1.0 + 4.0 + 12.0, abs=1e-12)

    def test_exponential_decay(self):
        spec = IntegrandSpec.exponential_decay(2.0, 0.5)
        assert spec.value(2.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)

    def test_inverse_sqrt_closed_form(self):
        spec = IntegrandSpec.inverse_sqrt_blowup(1.0, 1.0)
        got = spec.value(0.75)
        assert got == pytest.approx(2.0, rel=1e-12)
        assert got * got == pytest.approx(1.0 / 0.25, rel=1e-12)

    def test_inverse_sqrt_refuses_singular_time(self):
        spec = IntegrandSpec.inverse_sqrt_blowup(1.0, 2.0)
        with pytest.raises(IntegrandDomainError) as err:
            spec.value(2.0)
        assert err.value.singular_time == 2.0
        with pytest.raises(IntegrandDomainError):
            spec.values(np.array([0.0, 3.0]))

    def test_tabulated_interpolates_and_extends_flat(self):
        assert TRIANGLE.value(0.25) == pytest.approx(1.5, rel=1e-15)
        # constant extrapolation beyond the last knot
        assert TRIANGLE.value(7.0) == 0.0
        spec = IntegrandSpec.tabulated([(0.0, 3.0)])
        assert spec.value(11.0) == 3.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="t >= 0"):
            IntegrandSpec.constant(1.0).value(-0.1)

    def test_vectorized_matches_scalar(self):
        t = np.linspace(0.0, 0.9, 7)
        for spec in (
            IntegrandSpec.polynomial([0.5, -1.0, 2.0]),
            IntegrandSpec.exponential_decay(1.0, 2.0),
            TRIANGLE,
            IntegrandSpec.inverse_sqrt_blowup(0.7, 1.0),
        ):
            vec = spec.values(t)
            assert vec.tolist() == [spec.value(float(u)) for u in t]


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown integrand kind"):
            IntegrandSpec("fourier", (1.0,))

    @pytest.mark.parametrize(
        "kind,params",
        [("constant", ()), ("constant", (1.0, 2.0)), ("polynomial", ()), ("exponential_decay", (1.0,))],
    )
    def test_wrong_parameter_counts(self, kind, params):
        with pytest.raises(ValueError):
            IntegrandSpec(kind, params)

    def test_blowup_time_required_and_exclusive(self):
        with pytest.raises(ValueError, match="blowup_time > 0"):
            IntegrandSpec("inverse_sqrt_blowup", (1.0,))
        with pytest.raises(ValueError, match="only valid for inverse_sqrt_blowup"):
            IntegrandSpec("constant", (1.0,), blowup_time=1.0)

    def test_table_knot_rules(self):
        with pytest.raises(ValueError, match="start at 0"):
            IntegrandSpec.tabulated([(0.5, 1.0), (1.0, 2.0)])
        with pytest.raises(ValueError, match="strictly increasing"):
            IntegrandSpec.tabulated([(0.0, 1.0), (0.0, 2.0)])
        with pytest.raises(ValueError, match="only valid for tabulated"):
            IntegrandSpec("constant", (1.0,), table=((0.0, 1.0),))

    def test_json_round_trip(self):
        for spec in (
            IntegrandSpec.constant(2.0),
            IntegrandSpec.polynomial([0.0, 1.0, -0.5]),
            IntegrandSpec.exponential_decay(1.0, 0.25),
            IntegrandSpec.inverse_sqrt_blowup(1.0, 2.0),
            TRIANGLE,
        ):
            assert IntegrandSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_tabulated_identity_ignores_cached_knots(self):
        knots = [(0.0, 1.0), (0.5, 2.0), (1.0, 0.0)]
        twin = IntegrandSpec.tabulated(knots)
        assert twin == TRIANGLE and hash(twin) == hash(TRIANGLE)
        assert repr(twin) == (
            "IntegrandSpec(kind='tabulated', params=(), blowup_time=None,"
            " table=((0.0, 1.0), (0.5, 2.0), (1.0, 0.0)))"
        )
        assert twin.to_json_dict() == {"kind": "tabulated", "params": [], "table": [list(k) for k in knots]}
        for array in (twin._knot_times, twin._knot_values):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 5.0
        assert twin.value(0.25) == 1.5

    def test_json_unknown_field_and_missing_kind(self):
        with pytest.raises(ValueError, match="unknown integrand field"):
            IntegrandSpec.from_json_dict({"kind": "constant", "params": [1.0], "scale": 2})
        with pytest.raises(ValueError, match="missing required field 'kind'"):
            IntegrandSpec.from_json_dict({"params": [1.0]})


class TestQuadVar:
    def test_constant_linear_accumulation(self):
        assert quad_var(IntegrandSpec.constant(1.0), 2.0) == 2.0

    def test_identity_integrand_cubic(self):
        # antiderivative of u^2 is u^3/3
        got = quad_var(IntegrandSpec.polynomial([0.0, 1.0]), 1.0)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_inverse_sqrt_log_form(self):
        spec = IntegrandSpec.inverse_sqrt_blowup(1.0, 1.0)
        assert quad_var(spec, 0.5) == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize(
        "spec,t",
        [
            (IntegrandSpec.constant(1.5), 2.0),
            (IntegrandSpec.polynomial([0.5, -1.0, 2.0]), 1.3),
            (IntegrandSpec.exponential_decay(2.0, 0.7), 3.0),
            (IntegrandSpec.exponential_decay(2.0, 0.0), 1.0),
            (IntegrandSpec.inverse_sqrt_blowup(1.0, 2.0), 1.5),
        ],
    )
    def test_closed_form_agrees_with_adaptive(self, spec, t):
        closed = quad_var(spec, t, method="closed_form")
        adaptive = quad_var(spec, t, method="adaptive")
        assert closed == pytest.approx(adaptive, abs=CROSS_ROUTE_TOL)

    def test_decay_subnormal_rate_keeps_leading_term(self):
        # a subnormal rate once pushed the expm1 numerator into subnormal
        # rounding, costing 11% of the leading term; it must behave as rate 0
        spec = IntegrandSpec.exponential_decay(1.5, 5e-324)
        assert quad_var(spec, 1.0, method="closed_form") == 2.25
        assert quad_var(spec, 1.0, method="adaptive") == pytest.approx(2.25, abs=CROSS_ROUTE_TOL)

    def test_tabulated_both_routes_match_hand_value(self):
        assert quad_var(TRIANGLE, 1.0) == pytest.approx(TRIANGLE_QV_1, abs=CROSS_ROUTE_TOL)
        assert quad_var(TRIANGLE, 1.0, method="adaptive") == pytest.approx(
            TRIANGLE_QV_1, abs=CROSS_ROUTE_TOL
        )

    def test_additivity_between(self):
        for spec in (TRIANGLE, IntegrandSpec.exponential_decay(1.0, 1.0)):
            whole = quad_var(spec, 1.0)
            split = quad_var_between(spec, 0.0, 0.3) + quad_var_between(spec, 0.3, 1.0)
            assert split == pytest.approx(whole, abs=2.0 * DEFAULT_TOL)

    def test_argument_validation(self):
        spec = IntegrandSpec.constant(1.0)
        with pytest.raises(ValueError):
            quad_var(spec, -1.0)
        with pytest.raises(ValueError):
            quad_var_between(spec, 0.5, 0.2)
        with pytest.raises(ValueError):
            quad_var(spec, 1.0, method="simpson")
        with pytest.raises(ValueError, match="no closed form"):
            quad_var(TRIANGLE, 1.0, method="closed_form")
        with pytest.raises(ValueError, match="tol"):
            quad_var(spec, 1.0, tol=0.0)

    def test_divergence_analytic(self):
        spec = IntegrandSpec.inverse_sqrt_blowup(1.0, 1.0)
        with pytest.raises(DivergentIntegralError) as err:
            quad_var(spec, 1.0)
        # the running integral -log(1 - t) crosses the cap essentially at the pole
        assert err.value.first_excess_time == pytest.approx(1.0, abs=1e-9)

    def test_divergence_cap_for_tabulated(self):
        # f^2 = 4e12 crosses the 1e12 cap at t = 0.25
        spec = IntegrandSpec.tabulated([(0.0, 2.0e6), (1.0, 2.0e6)])
        with pytest.raises(DivergentIntegralError) as err:
            quad_var(spec, 1.0)
        assert err.value.first_excess_time == pytest.approx(0.25, abs=1e-6)
        assert quad_var(spec, 0.2) == pytest.approx(0.8e12, rel=1e-9)


class TestNovikov:
    def test_unit_integrand_finite(self):
        report = novikov_check(IntegrandSpec.constant(1.0), 1.0)
        assert report.verdict == "finite"
        assert report.half_qv == 0.5

    def test_zero_integrand(self):
        report = novikov_check(IntegrandSpec.constant(0.0), 10.0)
        assert (report.verdict, report.half_qv) == ("finite", 0.0)

    def test_blowup_divergent_then_finite(self):
        spec = IntegrandSpec.inverse_sqrt_blowup(1.0, 1.0)
        assert novikov_check(spec, 1.0).verdict == "divergent"
        at_half = novikov_check(spec, 0.5)
        assert at_half.verdict == "finite"
        assert abs(at_half.half_qv - 0.5 * math.log(2.0)) <= 1e-9

    def test_divergent_records_cap_crossing(self):
        spec = IntegrandSpec.tabulated([(0.0, 2.0e6), (1.0, 2.0e6)])
        report = novikov_check(spec, 1.0)
        assert report.verdict == "divergent"
        assert report.first_excess_time == pytest.approx(0.25, abs=1e-6)

    def test_requires_positive_time(self):
        with pytest.raises(ValueError):
            novikov_check(IntegrandSpec.constant(1.0), 0.0)

    def test_finite_iff_quad_var_returns(self):
        specs = [
            (IntegrandSpec.constant(2.0), 1.0),
            (IntegrandSpec.inverse_sqrt_blowup(1.0, 1.0), 0.9),
            (IntegrandSpec.inverse_sqrt_blowup(1.0, 1.0), 1.2),
            (TRIANGLE, 1.0),
            # closed forms that overflow float64 are divergent
            (IntegrandSpec.exponential_decay(1.0, -800.0), 1.0),
            (IntegrandSpec.polynomial([0.0] * 5 + [1e200]), 1.0),
        ]
        for spec, t in specs:
            verdict = novikov_check(spec, t).verdict
            try:
                quad_var(spec, t)
                returned = True
            except DivergentIntegralError:
                returned = False
            assert (verdict == "finite") == returned


class TestProfile:
    def test_unit_integrand_linear(self):
        profile = quad_var_profile(IntegrandSpec.constant(1.0), TimeGrid(np.array([0.0, 0.5, 1.0])))
        assert profile.values.tolist() == [0.0, 0.5, 1.0]
        assert profile.method == "closed_form"

    def test_identity_integrand_cubic_nodes(self):
        profile = quad_var_profile(IntegrandSpec.polynomial([0.0, 1.0]), TimeGrid(np.array([0.0, 1.0, 2.0])))
        assert profile.values == pytest.approx([0.0, 1.0 / 3.0, 8.0 / 3.0], abs=1e-12)

    def test_zero_integrand_all_zero(self):
        profile = quad_var_profile(IntegrandSpec.constant(0.0), TimeGrid.uniform(3.0, 7))
        assert not profile.values.any()

    def test_panels_sum_to_direct_value(self):
        grid = TimeGrid.uniform(1.0, 5)
        profile = quad_var_profile(TRIANGLE, grid)
        assert profile.method == "trapezoid"
        for i, t in enumerate(grid.t):
            assert profile.values[i] == pytest.approx(
                quad_var(TRIANGLE, float(t)), abs=len(grid.t) * DEFAULT_TOL
            )

    def test_nondecreasing(self):
        for spec in (TRIANGLE, IntegrandSpec.polynomial([1.0, -1.0])):
            profile = quad_var_profile(spec, TimeGrid.uniform(2.0, 9))
            assert np.all(np.diff(profile.values) >= 0.0)

    def test_divergence_propagates(self):
        spec = IntegrandSpec.inverse_sqrt_blowup(1.0, 1.0)
        with pytest.raises(DivergentIntegralError):
            quad_var_profile(spec, TimeGrid.uniform(1.0, 4))


class TestTimeGrid:
    def test_uniform(self):
        grid = TimeGrid.uniform(2.0, 4)
        assert grid.t.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert grid.horizon == 2.0
        assert grid.n_steps == 4
        assert grid.dt.tolist() == [0.5] * 4

    @pytest.mark.parametrize(
        "nodes",
        [[0.0], [0.1, 0.5], [0.0, 0.5, 0.5], [0.0, 0.7, 0.3], [0.0, math.inf]],
    )
    def test_rejects_bad_grids(self, nodes):
        with pytest.raises(ValueError):
            TimeGrid(np.array(nodes))

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            TimeGrid.uniform(1.0, 0)
        with pytest.raises(ValueError):
            TimeGrid.uniform(0.0, 4)

    def test_nodes_write_protected(self):
        grid = TimeGrid.uniform(1.0, 2)
        with pytest.raises(ValueError):
            grid.t[0] = 5.0


@settings(max_examples=40, deadline=None)
@given(c=st.floats(-3.0, 3.0), t=st.floats(0.0, 5.0))
def test_constant_quad_var_closed_form(c, t):
    assert quad_var(IntegrandSpec.constant(c), t) == pytest.approx(c * c * t, rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
    s=st.floats(0.0, 3.0),
    t=st.floats(0.0, 3.0),
)
def test_quad_var_monotone_in_time(coeffs, s, t):
    spec = IntegrandSpec.polynomial(coeffs)
    lo, hi = sorted((s, t))
    assert quad_var(spec, lo) <= quad_var(spec, hi) + 1e-12


@settings(max_examples=25, deadline=None)
@given(c=st.floats(0.1, 2.0), rate=st.floats(0.0, 2.0), t=st.floats(0.01, 4.0))
def test_decay_quadrature_consistency(c, rate, t):
    # randomized closed-form vs adaptive agreement
    spec = IntegrandSpec.exponential_decay(c, rate)
    closed = quad_var(spec, t, method="closed_form")
    adaptive = quad_var(spec, t, method="adaptive")
    assert abs(closed - adaptive) <= CROSS_ROUTE_TOL
