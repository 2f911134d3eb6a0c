import math
import re

import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from affine2f.errors import HypothesisError
from affine2f.experiments import ExperimentPlan
from affine2f.limit_laws import subcritical_limit, supercritical_limit_sample
from affine2f.model import (
    InitialLaw,
    Regime,
    classify_regime,
    make_spec,
    require,
)
from affine2f.rng import RngStream


# the nine constants in the constructor's order, and a valid value of each
NINE = ("a", "b", "alpha", "beta", "gamma", "sigma1", "sigma2", "sigma3", "rho")
VALID = dict(a=1.0, b=1.0, alpha=0.0, beta=0.0, gamma=1.0,
             sigma1=1.0, sigma2=1.0, sigma3=1.0, rho=0.0)


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
        assert classify_regime(make_spec(**dict(VALID, b=b, gamma=gamma))) is expected

    @given(
        a=st.floats(min_value=0.0, max_value=10.0),
        alpha=st.floats(allow_nan=False, allow_infinity=False, width=32),
        beta=st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    def test_independent_of_levels_and_coupling(self, a, alpha, beta):
        base = classify_regime(make_spec(**dict(VALID, a=0.0, b=0.3, gamma=-0.2)))
        spec = make_spec(**dict(VALID, a=a, b=0.3, alpha=alpha, beta=beta, gamma=-0.2))
        assert classify_regime(spec) is base


class TestConstruction:
    """Every refusal of the model constructor, through make_spec only."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", NINE)
    def test_non_finite_constant_named(self, name, value):
        with pytest.raises(ValueError) as exc:
            make_spec(**dict(VALID, **{name: value}))
        assert str(exc.value) == f"{name} must be finite, got {value}"

    @pytest.mark.parametrize("args,text", [
        # the drift's checks, a >= 0 included, before any diffusion check
        ((-1.0, 1, 0, 0, 1, math.nan, 1, 1, 0), "a must be nonnegative"),
        # every diffusion constant finite before any sign
        ((1, 1, 0, 0, 1, -1.0, 1, 1, math.nan), "rho must be finite"),
        # each sigma >= 0 before |rho| <= 1
        ((1, 1, 0, 0, 1, 1, 1, -1.0, 2.0), "sigma3 must be nonnegative"),
    ], ids=["drift-first", "finite-first", "sigma-before-rho"])
    def test_checks_run_in_order(self, args, text):
        with pytest.raises(ValueError, match=text):
            make_spec(*args)

    def test_negative_a_rejected(self):
        with pytest.raises(ValueError, match="a must be nonnegative, got -0.1"):
            make_spec(**dict(VALID, a=-0.1))

    @pytest.mark.parametrize("rho", [-1.0001, 1.5])
    def test_bad_rho_rejected(self, rho):
        with pytest.raises(ValueError, match=re.escape("rho must lie in [-1, 1]")):
            make_spec(**dict(VALID, rho=rho))

    @pytest.mark.parametrize("name", ["sigma1", "sigma2", "sigma3"])
    def test_negative_sigma_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be nonnegative, got -0.5"):
            make_spec(**dict(VALID, **{name: -0.5}))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["y0", "x0", "burn_in"])
    def test_non_finite_init_field_rejected(self, name, value):
        kw = dict(kind="stationary", y0=0.0, x0=0.0, burn_in=2.0)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            InitialLaw(**dict(kw, **{name: value}))

    def test_point_init_needs_nonneg_y0(self):
        with pytest.raises(ValueError, match="y0"):
            InitialLaw(kind="point", y0=-1.0)

    def test_unknown_init_kind(self):
        with pytest.raises(ValueError, match="init kind"):
            InitialLaw(kind="gaussian")

    @pytest.mark.parametrize("kind", ["point", "stationary-y"])
    def test_burn_in_only_for_a_stationary_start(self, kind):
        with pytest.raises(ValueError, match="burn_in applies only to a stationary start"):
            InitialLaw(kind=kind, burn_in=1.0)
        # a nonpositive burn_in is refused as such first, whatever the kind
        with pytest.raises(ValueError, match="burn_in must be positive"):
            InitialLaw(kind=kind, burn_in=-1.0)

    @pytest.mark.parametrize("kind,name,takers", [
        ("stationary-y", "y0", "point"),
        ("stationary", "y0", "point"),
        ("stationary", "x0", "point or stationary-y"),
    ])
    def test_field_the_kind_does_not_read_rejected(self, kind, name, takers):
        # refused even at the value it would default to
        with pytest.raises(ValueError, match=f"^{name} applies only to a "
                           f"{takers} start, got kind '{kind}'$"):
            InitialLaw(kind=kind, **{name: 0.0})

    def test_unset_fields_the_kind_reads_are_zero(self):
        assert InitialLaw() == InitialLaw("point", 0.0, 0.0)
        assert InitialLaw("stationary-y") == InitialLaw("stationary-y", x0=0.0)
        law = InitialLaw("stationary")
        assert (law.y0, law.x0, law.burn_in) == (None, None, None)

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
        spec = make_spec(**dict(VALID, sigma2=sigma2, sigma3=sigma3, rho=rho))
        assert spec.second_block_ok is expected


class TestConditionalMeans:
    def test_mean_y_zero_rate(self, conditional_mean_y):
        spec = make_spec(1.0, 0.0, 0, 0, 0, 1, 0, 0, 0)
        assert conditional_mean_y(spec, 2.0, 3.0) == 5.0

    def test_mean_y_balances_at_level(self, conditional_mean_y):
        # e^{-ln 2} * 1 + (1 - e^{-ln 2}) * 1 = 1
        spec = make_spec(1.0, 1.0, 0, 0, 0, 1, 0, 0, 0)
        assert_allclose(conditional_mean_y(spec, 1.0, math.log(2.0)), 1.0, rtol=1e-15)

    def test_mean_y_pure_decay(self, conditional_mean_y):
        spec = make_spec(0.0, 2.0, 0, 0, 0, 1, 0, 0, 0)
        assert_allclose(conditional_mean_y(spec, 4.0, 0.5), 4.0 * math.exp(-1.0), rtol=1e-15)

    def test_mean_x_drift_only(self, conditional_mean_x):
        spec = make_spec(0.0, 0.0, 1.0, 0.0, 0.0, 1, 0, 0, 0)
        assert_allclose(conditional_mean_x(spec, 5.0, 0.0, 2.0), 2.0, rtol=1e-15)

    def test_mean_x_pure_coupling_critical(self, conditional_mean_x):
        spec = make_spec(0.0, 0.0, 0.0, 1.0, 0.0, 1, 0, 0, 0)
        assert_allclose(conditional_mean_x(spec, 1.0, 0.0, 1.0), -1.0, rtol=1e-15)

    def test_mean_x_equal_rates(self, conditional_mean_x):
        spec = make_spec(0.0, 1.0, 0.0, 1.0, 1.0, 1, 0, 0, 0)
        assert_allclose(conditional_mean_x(spec, 1.0, 0.0, 1.0), -math.exp(-1.0), rtol=1e-14)

    def test_frozen_reference_values(self, ref_spec, conditional_mean_y,
                                     conditional_mean_x):
        # mpmath (dps=50) evaluations of the defining integral formulas
        assert_allclose(conditional_mean_y(ref_spec, 0.7, 1.3), 1.0637341034829936984, rtol=1e-14)
        assert_allclose(
            conditional_mean_x(ref_spec, 0.7, -0.4, 1.3), 0.4929621774172236227, rtol=1e-14
        )

    def test_short_horizon_drift_consistency(self, ref_spec, conditional_mean_y,
                                              conditional_mean_x):
        y, x, h = 0.7, -0.4, 1e-7
        spec = ref_spec
        rate_y = (conditional_mean_y(spec, y, h) - y) / h
        rate_x = (conditional_mean_x(spec, y, x, h) - x) / h
        assert_allclose(rate_y, spec.a - spec.b * y, rtol=1e-6)
        assert_allclose(rate_x, spec.alpha - spec.beta * y - spec.gamma * x, rtol=1e-6)

    @given(
        b=st.sampled_from([-1.5, -0.3, 0.0, 0.4, 2.0]),
        gamma=st.sampled_from([-1.0, 0.0, 0.4, 1.7]),
        dt1=st.floats(min_value=0.01, max_value=3.0),
        dt2=st.floats(min_value=0.01, max_value=3.0),
        y=st.floats(min_value=0.0, max_value=5.0),
        x=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_two_step_composition(self, b, gamma, dt1, dt2, y, x,
                                   conditional_mean_y, conditional_mean_x):
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
    def test_subcritical_needs_second_block(self):
        spec = make_spec(1, 1, 0, 0, 1, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(HypothesisError,
                           match=re.escape("(1-rho^2)*sigma2^2 + sigma3^2 > 0 violated")):
            require(spec, Regime.SUBCRITICAL)

    def test_supercritical_pass(self):
        spec = make_spec(1, -1.0, 0.0, 0.5, -2.0, 1.0, 0.5, 1.0, 0.1)
        require(spec, Regime.SUPERCRITICAL)

    def test_supercritical_ordering_enforced(self):
        spec = make_spec(1, -2.0, 0.0, 0.5, -1.0, 1.0, 0.5, 1.0, 0.1)
        with pytest.raises(HypothesisError, match="gamma < b < 0"):
            require(spec, Regime.SUPERCRITICAL)

    def test_supercritical_noise_alternative(self):
        # sigma3 = 0 passes only through the (a - sigma1^2/2) route
        ok = make_spec(1.0, -1, 0, 0, -2, 1.0, 0.5, 0.0, 0.1)
        require(ok, Regime.SUPERCRITICAL)
        bad = make_spec(0.2, -1, 0, 0, -2, 1.0, 0.5, 0.0, 0.1)
        with pytest.raises(HypothesisError,
                           match=re.escape("(a - sigma1^2/2)*(1-rho^2)*sigma2^2 > 0")):
            require(bad, Regime.SUPERCRITICAL)

    def test_critical_requires_zero_coupling(self):
        spec = make_spec(1, 0.0, 0.3, 0.1, 0.0, 1.0, 0.5, 0.5, 0.0)
        with pytest.raises(HypothesisError, match="beta = 0 required"):
            require(spec, Regime.CRITICAL)

    def test_critical_pass(self):
        spec = make_spec(1, 0.0, 0.3, 0.0, 0.0, 1.0, 0.5, 0.5, 0.0)
        require(spec, Regime.CRITICAL)

    def test_subcritical_limit_requires_positive_rates(self, ref_spec):
        require(ref_spec, Regime.SUBCRITICAL)
        crit = make_spec(1.2, 0.0, 0.5, -0.3, 0.8, 0.6, 0.4, 0.25, -0.35)
        with pytest.raises(HypothesisError,
                           match=re.escape("subcritical regime (b > 0 and gamma > 0)")):
            require(crit, Regime.SUBCRITICAL)

    def test_require_raises_every_violation(self):
        spec = make_spec(1, 0.0, 0.3, 0.1, 0.2, 1.0, 0.5, 0.5, 0.0)
        with pytest.raises(HypothesisError) as exc:
            require(spec, Regime.CRITICAL)
        assert str(exc.value) == "beta = 0 required; gamma = 0 required"
        # existing `except ValueError` callers still catch it
        assert isinstance(exc.value, ValueError)

    def test_require_takes_a_regime(self, ref_spec):
        with pytest.raises(TypeError, match="must be a Regime"):
            require(ref_spec, "subcritical")


# subcritical, with a = 0 and no noise at all
NOISELESS = make_spec(0.0, 1.0, 0.5, 0.3, 0.6, 0.0, 0.0, 0.0, 0.3)


class TestRefusalText:
    """Each regime's full refusal text, through public entry points."""

    @pytest.mark.parametrize("call,text", [
        (lambda: ExperimentPlan(spec=NOISELESS, T=1.0, dt=0.01,
                                replications=2, base_seed=1),
         "sigma1 > 0 required; (1-rho^2)*sigma2^2 + sigma3^2 > 0 violated; "
         "a > 0 required"),
        (lambda: ExperimentPlan(spec=make_spec(1.0, 0.0, 0.5, 0.2, 0.0, 0.5,
                                               0.0, 0.0, 0.3),
                                T=1.0, dt=0.01, replications=2, base_seed=1),
         "beta = 0 required; (1-rho^2)*sigma2^2 + sigma3^2 > 0 violated"),
        (lambda: supercritical_limit_sample(NOISELESS, None, 0.1, RngStream(1)),
         "gamma < b < 0 required; alpha*beta <= 0 required; "
         "sigma1 > 0 required; "
         "sigma3 > 0 or (a - sigma1^2/2)*(1-rho^2)*sigma2^2 > 0 required"),
        (lambda: subcritical_limit(make_spec(0.2, -1.0, 0.5, 0.3, -0.5, 0.0,
                                             0.3, 0.0, 0.3)),
         "sigma1 > 0 required; "
         "subcritical regime (b > 0 and gamma > 0) required"),
    ], ids=["subcritical-plan", "critical-plan", "supercritical-sample",
            "subcritical-covariance"])
    def test_message(self, call, text):
        with pytest.raises(HypothesisError) as exc:
            call()
        assert str(exc.value) == text
