import math

import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from affine2f.errors import HypothesisError
from affine2f.model import (
    DiffusionParams,
    DriftParams,
    InitialLaw,
    Regime,
    classify_regime,
    conditional_mean_x,
    conditional_mean_y,
    make_spec,
    require,
    validate_spec,
)


class TestRegime:
    @pytest.mark.parametrize(
        "b,gamma,expected",
        [
            (1.0, 2.0, Regime.SUBCRITICAL),
            (0.0, 0.0, Regime.CRITICAL),
            (-0.5, -1.0, Regime.SUPERCRITICAL),
            (0.0, 5.0, Regime.CRITICAL),
            (3.0, -1.0, Regime.SUPERCRITICAL),
            (1e-300, 1e-300, Regime.SUBCRITICAL),
        ],
    )
    def test_classification(self, b, gamma, expected):
        assert classify_regime(DriftParams(1.0, b, 0.0, 0.0, gamma)) is expected

    @given(
        a=st.floats(min_value=0.0, max_value=10.0),
        alpha=st.floats(allow_nan=False, allow_infinity=False, width=32),
        beta=st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    def test_independent_of_levels_and_coupling(self, a, alpha, beta):
        base = classify_regime(DriftParams(0.0, 0.3, 0.0, 0.0, -0.2))
        assert classify_regime(DriftParams(a, 0.3, alpha, beta, -0.2)) is base


class TestConstruction:
    def test_negative_a_rejected(self):
        with pytest.raises(ValueError, match="a must be nonnegative"):
            DriftParams(-0.1, 1.0, 0.0, 0.0, 1.0)

    def test_nan_a_rejected(self):
        with pytest.raises(ValueError):
            DriftParams(float("nan"), 1.0, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("rho", [-1.0001, 1.5, float("nan")])
    def test_bad_rho_rejected(self, rho):
        with pytest.raises(ValueError, match="rho"):
            DiffusionParams(1.0, 1.0, 1.0, rho)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("cls,fields,name", [
        (DriftParams, (1.0, 1.0, 0.0, 0.0, 1.0), "a"),
        (DriftParams, (1.0, 1.0, 0.0, 0.0, 1.0), "b"),
        (DriftParams, (1.0, 1.0, 0.0, 0.0, 1.0), "alpha"),
        (DriftParams, (1.0, 1.0, 0.0, 0.0, 1.0), "beta"),
        (DriftParams, (1.0, 1.0, 0.0, 0.0, 1.0), "gamma"),
        (DiffusionParams, (1.0, 1.0, 1.0, 0.0), "sigma1"),
        (DiffusionParams, (1.0, 1.0, 1.0, 0.0), "sigma2"),
        (DiffusionParams, (1.0, 1.0, 1.0, 0.0), "sigma3"),
        (DiffusionParams, (1.0, 1.0, 1.0, 0.0), "rho"),
        (InitialLaw, ("stationary", 0.0, 0.0, 2.0), "y0"),
        (InitialLaw, ("stationary", 0.0, 0.0, 2.0), "x0"),
        (InitialLaw, ("stationary", 0.0, 0.0, 2.0), "burn_in"),
    ])
    def test_non_finite_field_rejected(self, cls, fields, name, value):
        kw = dict(zip(cls.__dataclass_fields__, fields), **{name: value})
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cls(**kw)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma2"):
            DiffusionParams(1.0, -0.5, 1.0, 0.0)

    def test_point_init_needs_nonneg_y0(self):
        with pytest.raises(ValueError, match="y0"):
            InitialLaw(kind="point", y0=-1.0)

    def test_unknown_init_kind(self):
        with pytest.raises(ValueError, match="init kind"):
            InitialLaw(kind="gaussian")

    @pytest.mark.parametrize(
        "sigma2,sigma3,rho,expected",
        [
            (0.4, 0.25, -0.35, True),
            (0.4, 0.0, 1.0, False),   # rho = +/-1 kills the independent part
            (0.4, 0.0, -1.0, False),
            (0.0, 0.0, 0.0, False),
            (0.0, 0.1, 0.0, True),
            (0.4, 0.0, 0.0, True),
        ],
    )
    def test_second_block_flag(self, sigma2, sigma3, rho, expected):
        assert DiffusionParams(1.0, sigma2, sigma3, rho).second_block_ok is expected


class TestConditionalMeans:
    def test_mean_y_zero_rate(self):
        spec = make_spec(1.0, 0.0, 0, 0, 0, 1, 0, 0, 0)
        assert conditional_mean_y(spec, 2.0, 3.0) == 5.0

    def test_mean_y_balances_at_level(self):
        # e^{-ln 2} * 1 + (1 - e^{-ln 2}) * 1 = 1
        spec = make_spec(1.0, 1.0, 0, 0, 0, 1, 0, 0, 0)
        assert_allclose(conditional_mean_y(spec, 1.0, math.log(2.0)), 1.0, rtol=1e-15)

    def test_mean_y_pure_decay(self):
        spec = make_spec(0.0, 2.0, 0, 0, 0, 1, 0, 0, 0)
        assert_allclose(conditional_mean_y(spec, 4.0, 0.5), 4.0 * math.exp(-1.0), rtol=1e-15)

    def test_mean_x_drift_only(self):
        spec = make_spec(0.0, 0.0, 1.0, 0.0, 0.0, 1, 0, 0, 0)
        assert_allclose(conditional_mean_x(spec, 5.0, 0.0, 2.0), 2.0, rtol=1e-15)

    def test_mean_x_pure_coupling_critical(self):
        spec = make_spec(0.0, 0.0, 0.0, 1.0, 0.0, 1, 0, 0, 0)
        assert_allclose(conditional_mean_x(spec, 1.0, 0.0, 1.0), -1.0, rtol=1e-15)

    def test_mean_x_equal_rates(self):
        spec = make_spec(0.0, 1.0, 0.0, 1.0, 1.0, 1, 0, 0, 0)
        assert_allclose(conditional_mean_x(spec, 1.0, 0.0, 1.0), -math.exp(-1.0), rtol=1e-14)

    def test_frozen_reference_values(self, ref_spec):
        # mpmath (dps=50) evaluations of the defining integral formulas
        assert_allclose(conditional_mean_y(ref_spec, 0.7, 1.3), 1.0637341034829936984, rtol=1e-14)
        assert_allclose(
            conditional_mean_x(ref_spec, 0.7, -0.4, 1.3), 0.4929621774172236227, rtol=1e-14
        )

    def test_short_horizon_drift_consistency(self, ref_spec):
        y, x, h = 0.7, -0.4, 1e-7
        d = ref_spec.drift
        rate_y = (conditional_mean_y(ref_spec, y, h) - y) / h
        rate_x = (conditional_mean_x(ref_spec, y, x, h) - x) / h
        assert_allclose(rate_y, d.a - d.b * y, rtol=1e-6)
        assert_allclose(rate_x, d.alpha - d.beta * y - d.gamma * x, rtol=1e-6)

    @given(
        b=st.sampled_from([-1.5, -0.3, 0.0, 0.4, 2.0]),
        gamma=st.sampled_from([-1.0, 0.0, 0.4, 1.7]),
        dt1=st.floats(min_value=0.01, max_value=3.0),
        dt2=st.floats(min_value=0.01, max_value=3.0),
        y=st.floats(min_value=0.0, max_value=5.0),
        x=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_two_step_composition(self, b, gamma, dt1, dt2, y, x):
        # the conditional means are affine in the state, so iterating the
        # one-step map over dt1 then dt2 must equal the single dt1+dt2 map
        spec = make_spec(0.9, b, -0.2, 0.7, gamma, 1, 0, 0, 0)
        y_mid = conditional_mean_y(spec, y, dt1)
        x_mid = conditional_mean_x(spec, y, x, dt1)
        assert_allclose(
            conditional_mean_y(spec, y_mid, dt2),
            conditional_mean_y(spec, y, dt1 + dt2),
            rtol=1e-12, atol=1e-12,
        )
        assert_allclose(
            conditional_mean_x(spec, y_mid, x_mid, dt2),
            conditional_mean_x(spec, y, x, dt1 + dt2),
            rtol=1e-12, atol=1e-12,
        )


class TestValidate:
    def test_continuous_clse_needs_second_block(self):
        spec = make_spec(1, 1, 0, 0, 1, 1.0, 0.0, 0.0, 0.0)
        report = validate_spec(spec, "continuous-clse")
        assert not report.ok
        assert any("sigma3" in v for v in report.violations)

    def test_supercritical_pass(self):
        spec = make_spec(1, -1.0, 0.0, 0.5, -2.0, 1.0, 0.5, 1.0, 0.1)
        assert validate_spec(spec, "supercritical-limit").ok

    def test_supercritical_ordering_enforced(self):
        spec = make_spec(1, -2.0, 0.0, 0.5, -1.0, 1.0, 0.5, 1.0, 0.1)
        report = validate_spec(spec, "supercritical-limit")
        assert not report.ok
        assert any("gamma < b < 0" in v for v in report.violations)

    def test_supercritical_noise_alternative(self):
        # sigma3 = 0 passes only through the (a - sigma1^2/2) route
        ok = make_spec(1.0, -1, 0, 0, -2, 1.0, 0.5, 0.0, 0.1)
        assert validate_spec(ok, "supercritical-limit").ok
        bad = make_spec(0.2, -1, 0, 0, -2, 1.0, 0.5, 0.0, 0.1)
        assert not validate_spec(bad, "supercritical-limit").ok

    def test_critical_requires_zero_coupling(self):
        spec = make_spec(1, 0.0, 0.3, 0.1, 0.0, 1.0, 0.5, 0.5, 0.0)
        report = validate_spec(spec, "critical-limit")
        assert not report.ok
        assert "beta = 0 required" in report.violations

    def test_critical_pass(self):
        spec = make_spec(1, 0.0, 0.3, 0.0, 0.0, 1.0, 0.5, 0.5, 0.0)
        assert validate_spec(spec, "critical-limit").ok

    def test_subcritical_limit_requires_positive_rates(self, ref_spec):
        assert validate_spec(ref_spec, "subcritical-limit").ok
        crit = make_spec(1.2, 0.0, 0.5, -0.3, 0.8, 0.6, 0.4, 0.25, -0.35)
        assert not validate_spec(crit, "subcritical-limit").ok

    def test_diffusion_stats_warning_only(self):
        spec = make_spec(0.5, 1, 0, 0, 1, 1.0, 0.4, 0.2, 0.0)  # a < sigma1^2
        report = validate_spec(spec, "diffusion-stats")
        assert report.ok
        assert report.warnings

    def test_unknown_purpose_rejected(self, ref_spec):
        with pytest.raises(ValueError, match="purpose"):
            validate_spec(ref_spec, "mle")

    def test_simulation_always_passes_for_constructible(self, ref_spec):
        assert validate_spec(ref_spec, "simulation").ok

    def test_require_raises_every_violation(self):
        spec = make_spec(1, 0.0, 0.3, 0.1, 0.2, 1.0, 0.5, 0.5, 0.0)
        with pytest.raises(HypothesisError) as exc:
            require(spec, "critical-limit")
        assert str(exc.value) == "beta = 0 required; gamma = 0 required"
        # existing `except ValueError` callers still catch it
        assert isinstance(exc.value, ValueError)
        require(spec, "simulation")
