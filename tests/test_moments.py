import math
from dataclasses import replace
import time

import mpmath
import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from affine2f import moments
from affine2f.errors import HypothesisError
from affine2f.model import InitialLaw, conditional_mean_x, conditional_mean_y, make_spec
from affine2f.moments import (
    MomentTable,
    _extended_lattice,
    _generator_matrix,
    _initial_moments,
    fractional_moment_y,
    laplace_y,
    mean_growth_check,
    stationary_moments,
    stationary_y_gamma_params,
    transient_moments,
)

# closed-form stationary values at the reference spec, evaluated with
# mpmath at dps=50 from the displayed special-case formulas
REF_STATIONARY = {
    (1, 0): 1.2,
    (2, 0): 1.656,
    (3, 0): 2.58336,
    (0, 1): 1.075,
    (1, 1): 1.27,
    (0, 2): 1.3071875,
    (2, 1): 1.725,
    (1, 2): 1.5385480769230769231,
}


def _rule_matrix(spec, lattice):
    """Test-side transcription of the moment balance rule, term by term."""
    idx = {kl: i for i, kl in enumerate(lattice)}
    A = np.zeros((len(lattice), len(lattice)))
    for (k, l), r in idx.items():
        A[r, r] -= k * spec.b + l * spec.gamma
        if k >= 1:
            A[r, idx[(k - 1, l)]] += k * spec.a + 0.5 * k * (k - 1) * spec.sigma1**2
        if l >= 1:
            A[r, idx[(k, l - 1)]] += l * (spec.alpha + k * spec.rho * spec.sigma1 * spec.sigma2)
            A[r, idx[(k + 1, l - 1)]] -= l * spec.beta
        if l >= 2:
            A[r, idx[(k + 1, l - 2)]] += 0.5 * l * (l - 1) * spec.sigma2**2
            A[r, idx[(k, l - 2)]] += 0.5 * l * (l - 1) * spec.sigma3**2
    return A


def _rk4(A, m0, t, steps):
    h = t / steps
    m = m0.astype(float).copy()
    for _ in range(steps):
        k1 = A @ m
        k2 = A @ (m + 0.5 * h * k1)
        k3 = A @ (m + 0.5 * h * k2)
        k4 = A @ (m + h * k3)
        m = m + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return m


class TestTransient:
    def test_linear_growth_at_zero_rate(self):
        spec = make_spec(1, 0, 0, 0, 0, 1, 0, 0, 0, InitialLaw("point", 2.0, 0.0))
        table = transient_moments(spec, 3.0, 1, 0)
        assert_allclose(table.get(1, 0), 5.0, rtol=1e-12)

    def test_long_run_second_moment(self):
        spec = make_spec(1, 1, 0, 0, 1, 1, 0, 0, 0, InitialLaw("point", 0.0, 0.0))
        table = transient_moments(spec, 40.0, 2, 0)
        assert_allclose(table.get(2, 0), 1.5, rtol=1e-8)

    def test_drift_plus_independent_noise(self):
        # X_t = alpha*t + sigma3*L_t, so E(X_t^2) = alpha^2 t^2 + sigma3^2 t
        spec = make_spec(0, 0, 1.0, 0, 0, 1, 0, 1.0, 0, InitialLaw("point", 0.0, 0.0))
        table = transient_moments(spec, 2.0, 0, 2)
        assert_allclose(table.get(0, 2), 6.0, rtol=1e-12)

    def test_first_moments_match_conditional_means(self, ref_spec):
        table = transient_moments(ref_spec, 1.3, 1, 1)
        assert_allclose(table.get(1, 0), conditional_mean_y(ref_spec, 0.7, 1.3), rtol=1e-10)
        assert_allclose(
            table.get(0, 1), conditional_mean_x(ref_spec, 0.7, -0.4, 1.3), rtol=1e-10
        )
        assert table.get(0, 0) == 1.0

    def test_first_moments_with_stationary_y_init(self, ref_spec):
        spec = replace(ref_spec, init=InitialLaw("stationary-y", x0=-0.4))
        table = transient_moments(spec, 0.9, 1, 1)
        ey = spec.a / spec.b
        assert_allclose(table.get(1, 0), ey, rtol=1e-12)
        assert_allclose(
            table.get(0, 1), conditional_mean_x(spec, ey, -0.4, 0.9), rtol=1e-10
        )

    def test_relaxes_to_stationary(self, ref_spec):
        t = 60.0 / min(ref_spec.b, ref_spec.gamma)
        trans = transient_moments(ref_spec, t, 4, 4)
        stat = stationary_moments(ref_spec, 4, 4)
        for k in range(5):
            for l in range(5):
                if k + l == 0 or k + l > 4:
                    continue
                assert_allclose(trans.get(k, l), stat.get(k, l), rtol=1e-6)

    def test_stationary_init_is_fixed_point(self, ref_spec):
        spec = replace(ref_spec, init=InitialLaw("stationary"))
        trans = transient_moments(spec, 2.5, 2, 2)
        stat = stationary_moments(ref_spec, 2, 2)
        for kl in trans.values:
            assert_allclose(trans.get(*kl), stat.get(*kl), rtol=1e-10)

    def test_time_zero_returns_initial_moments(self, ref_spec):
        table = transient_moments(ref_spec, 0.0, 2, 2)
        assert_allclose(table.get(2, 1), 0.7**2 * (-0.4), rtol=1e-14)

    def test_rejects_negative_time(self, ref_spec):
        with pytest.raises(ValueError):
            transient_moments(ref_spec, -1.0, 1, 1)

    @pytest.mark.parametrize("t,needle", [
        (math.inf, "finite and nonnegative"),
        (math.nan, "finite and nonnegative"),
        # finite t, but A*t overflows: no power of 2 scales it down
        (1e308, "t=1e[+]308 is too large"),
    ])
    def test_rejects_non_finite_or_overflowing_time(self, ref_spec, t, needle):
        with pytest.raises(ValueError, match=needle):
            transient_moments(ref_spec, t, 1, 1)

    @pytest.mark.parametrize("init, k_max, needle", [
        # the generator's own growth overflows inside the exponential
        (InitialLaw("point", 0.7, -0.4), 300, "transient table overflows"),
        # the start already overflows: refused before the exponential
        (InitialLaw("point", 2.0, 0.2), 1100,
         "initial table overflows double precision: "
         "its moment at [(]k, l[)] = [(]1024, 0[)] is inf"),
        (InitialLaw("stationary"), 300, "initial table overflows"),
    ], ids=["point", "large-point", "stationary"])
    def test_overflowing_table_is_refused(self, ref_spec, init, k_max, needle):
        spec = replace(ref_spec, init=init)
        with pytest.raises(ValueError, match=needle):
            transient_moments(spec, 1.0, k_max, 0)

    def test_overflowing_exponential_is_named(self, ref_spec):
        # exp(A t) itself overflows to NaN here, which made even E(1) read
        # NaN; the refusal names t and the exponential, not a table entry
        with pytest.raises(ValueError, match="transient table overflows double "
                           r"precision: the matrix exponential exp\(A t\) at "
                           r"t=1.0 has \d+ NaN entries of 90601") as info:
            transient_moments(ref_spec, 1.0, 300, 0)
        assert "(0, 0)" not in str(info.value)

    @pytest.mark.parametrize("k_max, l_max", [(3, 700), (3, 100)])
    def test_oversized_lattice_is_refused_before_building(self, ref_spec,
                                                          monkeypatch, k_max, l_max):
        rows = len(_extended_lattice(k_max, l_max))

        def build(*args):
            raise AssertionError("the lattice was built")

        monkeypatch.setattr(moments, "_extended_lattice", build)
        with pytest.raises(ValueError, match=rf"\(k_max, l_max\) = \({k_max}, "
                           rf"{l_max}\) needs a transient lattice of {rows} rows"):
            transient_moments(ref_spec, 1.0, k_max, l_max)

    def test_negative_orders_read_zero(self, ref_spec):
        table = transient_moments(ref_spec, 1.0, 1, 1)
        assert table.get(-1, 0) == 0.0
        assert table.get(0, -2) == 0.0

    def test_dual_route_integration(self, ref_spec):
        # same balance rule, independent solver: RK4 stepping with
        # Richardson halving must agree with the matrix exponential
        lattice = [(k, l) for l in range(3) for k in range(2 + (2 - l) + 1)]
        A = _rule_matrix(ref_spec, lattice)
        m0 = np.array([0.7**k * (-0.4) ** l for k, l in lattice])
        coarse = _rk4(A, m0, 1.5, 1500)
        fine = _rk4(A, m0, 1.5, 3000)
        assert np.max(np.abs(fine - coarse)) < 1e-10 * np.max(np.abs(fine))
        table = transient_moments(ref_spec, 1.5, 2, 2)
        for kl, v in zip(lattice, fine):
            if kl[0] <= 2 and kl[1] <= 2:
                assert_allclose(table.get(*kl), v, rtol=1e-8)


# the specs of the benchmark's subcritical, critical and supercritical
# workloads, a subcritical one with b = gamma (a repeated rate) and a
# supercritical one whose X equations pull in higher Y powers (beta != 0)
EXPM_SPECS = {
    "subcritical": make_spec(12.0, 8.0, 0.5, 0.2, 7.0, 1.5, 0.6, 0.6, 0.2,
                             init=InitialLaw("point", y0=1.5, x0=1.6 / 56)),
    "critical": make_spec(1.0, 0.0, 0.5, 0.0, 0.0, 0.5, 0.3, 0.4, 0.3,
                          init=InitialLaw("point", y0=1.0, x0=0.2)),
    "supercritical": make_spec(1.0, -0.5, 0.2, 0.0, -1.0, 0.5, 0.3, 0.4, 0.3,
                               init=InitialLaw("point", y0=1.0, x0=0.5)),
    "b=gamma": make_spec(1.0, 2.0, 0.5, 0.3, 2.0, 0.5, 0.3, 0.4, 0.3,
                         init=InitialLaw("point", y0=1.0, x0=0.2)),
    "supercritical, beta": make_spec(1.0, -1.0, 0.2, 0.3, -0.2, 0.5, 0.3, 0.4,
                                     0.3, init=InitialLaw("point", y0=1.0, x0=0.5)),
}


class TestExponential:
    """transient_moments against scipy.linalg.expm as an outside oracle."""

    @staticmethod
    def _long(spec):
        rate = abs(min(spec.b, spec.gamma))
        return 60.0 / rate if rate else 60.0

    @pytest.mark.parametrize("name", sorted(EXPM_SPECS))
    @pytest.mark.parametrize("when", ["zero", "short", "long"])
    def test_matches_scipy_expm(self, name, when):
        spec = EXPM_SPECS[name]
        t = {"zero": 0.0, "short": 0.5, "long": self._long(spec)}[when]
        lattice = _extended_lattice(4, 4)
        A = _generator_matrix(spec, lattice)
        want = dict(zip(lattice, scipy.linalg.expm(A * t)
                        @ _initial_moments(spec, lattice)))
        got = transient_moments(spec, t, 4, 4).values
        assert len(got) == 25
        assert_allclose([got[kl] for kl in sorted(got)],
                        [want[kl] for kl in sorted(got)], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", ["supercritical", "supercritical, beta"])
    def test_supercritical_long_horizon_to_the_last_bits(self, name):
        # rows of exp(A t) span up to 200 orders of magnitude here; a
        # 30-digit mpmath exponential is exact to double precision
        spec = EXPM_SPECS[name]
        t = self._long(spec)
        lattice = _extended_lattice(4, 4)
        A = _generator_matrix(spec, lattice) * t
        m0 = _initial_moments(spec, lattice)
        with mpmath.workdps(30):
            exact = mpmath.expm(mpmath.matrix(A.tolist())) * mpmath.matrix(m0.tolist())
            exact = dict(zip(lattice, (float(v) for v in exact)))
        got = transient_moments(spec, t, 4, 4).values
        assert_allclose([got[kl] for kl in sorted(got)],
                        [exact[kl] for kl in sorted(got)], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name", sorted(EXPM_SPECS))
    def test_generator_matches_the_balance_rule(self, name):
        # _generator_rows against the test-side transcription, entry by entry
        lattice = _extended_lattice(4, 4)
        spec = EXPM_SPECS[name]
        np.testing.assert_array_equal(_generator_matrix(spec, lattice),
                                      _rule_matrix(spec, lattice))

    def test_generator_is_lower_triangular(self):
        # _expm_lower keeps the triangle; the l-major lattice must give one
        for spec in EXPM_SPECS.values():
            A = _generator_matrix(spec, _extended_lattice(4, 4))
            assert not np.triu(A, 1).any()

    @pytest.mark.parametrize("name", sorted(EXPM_SPECS))
    def test_long_horizon_is_fast(self, name):
        spec = EXPM_SPECS[name]
        t = self._long(spec)
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            transient_moments(spec, t, 4, 4)
            best = min(best, time.perf_counter() - start)
        assert best < 0.010, best


class TestStationary:
    def test_displayed_special_cases(self):
        assert_allclose(
            stationary_moments(make_spec(2, 4, 0, 0, 1, 1, 0, 0, 0), 1, 0).get(1, 0),
            0.5, rtol=1e-14,
        )
        assert_allclose(
            stationary_moments(make_spec(1, 1, 0, 0, 1, 1, 0, 0, 0), 3, 0).get(3, 0),
            3.0, rtol=1e-14,
        )
        assert_allclose(
            stationary_moments(make_spec(1, 1, 1, 0, 2, 1, 0, 0, 0), 0, 1).get(0, 1),
            0.5, rtol=1e-14,
        )

    def test_frozen_reference_lattice(self, ref_spec):
        table = stationary_moments(ref_spec, 3, 2)
        for kl, expected in REF_STATIONARY.items():
            assert_allclose(table.get(*kl), expected, rtol=1e-13)
        assert table.get(0, 0) == 1.0

    @pytest.mark.parametrize(
        "spec_args",
        [
            (1.2, 1.0, 0.5, -0.3, 0.8, 0.6, 0.4, 0.25, -0.35),
            (0.7, 2.0, -0.4, 0.6, 1.5, 1.0, 0.8, 0.0, 0.6),
            (2.0, 0.5, 0.0, 0.0, 3.0, 0.5, 0.0, 1.0, 0.0),
        ],
    )
    def test_recursion_residuals_vanish(self, spec_args):
        spec = make_spec(*spec_args)
        table = stationary_moments(spec, 4, 4)
        for (n, p), v in table.values.items():
            if (n, p) == (0, 0):
                continue
            rhs = (
                (n * spec.a + 0.5 * n * (n - 1) * spec.sigma1**2) * table.get(n - 1, p)
                + p * (spec.alpha + n * spec.rho * spec.sigma1 * spec.sigma2) * table.get(n, p - 1)
                - p * spec.beta * (table.values.get((n + 1, p - 1), 0.0) or _ext(spec, n + 1, p - 1))
                + 0.5 * p * (p - 1) * spec.sigma2**2 * (table.values.get((n + 1, p - 2), 0.0) or _ext(spec, n + 1, p - 2))
                + 0.5 * p * (p - 1) * spec.sigma3**2 * table.get(n, p - 2)
            )
            residual = (n * spec.b + p * spec.gamma) * v - rhs
            assert abs(residual) < 1e-12 * max(1.0, abs(v))

    def test_pure_y_moments_are_nonnegative(self, ref_spec):
        table = stationary_moments(ref_spec, 5, 0)
        assert all(table.get(n, 0) >= 0.0 for n in range(6))

    def test_rejects_non_subcritical(self):
        crit = make_spec(1, 0, 0, 0, 1, 1, 0, 0, 0)
        with pytest.raises(ValueError, match="subcritical"):
            stationary_moments(crit, 2, 2)

    @pytest.mark.parametrize("n_max, p_max, rows", [
        (3000, 3000, 13_507_501), (2_097_152, 0, 2_097_153)])
    def test_oversized_lattice_is_refused_before_building(
            self, ref_spec, monkeypatch, n_max, p_max, rows):
        # about 0.13 KB and 3 us a row: 13.5 M rows would take some 1.8 GB
        # and 40 s
        def build(*args):
            raise AssertionError("the lattice was built")

        monkeypatch.setattr(moments, "_extended_lattice", build)
        with pytest.raises(ValueError, match=rf"\(k_max, l_max\) = \({n_max}, "
                           rf"{p_max}\) needs a stationary lattice of {rows} rows"):
            stationary_moments(ref_spec, n_max, p_max)

    def test_lattice_rows_counts_the_extended_lattice(self):
        # the guards count the rows without building the lattice
        for k_max, l_max in [(0, 0), (3, 2), (5, 7), (0, 9)]:
            assert moments._lattice_rows(k_max, l_max) == len(
                _extended_lattice(k_max, l_max))

    def test_stationary_start_solves_on_the_transient_lattice(self, ref_spec):
        # the start of a stationary-init transient is the stationary table
        spec = replace(ref_spec, init=InitialLaw("stationary"))
        lattice = _extended_lattice(3, 2)
        wide = stationary_moments(ref_spec, 5, 2)
        np.testing.assert_array_equal(_initial_moments(spec, lattice),
                                      [wide.get(*kl) for kl in lattice])

    def test_overflowing_table_is_refused(self, ref_spec):
        with pytest.raises(ValueError,
                           match=r"stationary table overflows double precision: "
                                 r"its moment at \(k, l\) = \(\d+, 0\) is inf"):
            stationary_moments(ref_spec, 300, 2)
        # every table that is returned is finite
        table = stationary_moments(ref_spec, 100, 2)
        assert all(math.isfinite(v) for v in table.values.values())

    @pytest.mark.parametrize("n_max, p_max", [(300, 300), (100_000, 0)])
    def test_overflow_is_refused_before_the_lattice_is_solved(self, n_max,
                                                              p_max):
        # the spec of the CLI smoke run: the (300, 300) lattice has 135 751
        # rows, the (100000, 0) one 100 001, and both overflow at (268, 0)
        import tracemalloc

        spec = make_spec(1.0, 1.0, 0.5, 0.3, 0.6, 0.5, 0.3, 0.4, 0.3)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"stationary table overflows "
                               r"double precision: its moment at \(k, l\) = "
                               r"\(268, 0\) is inf"):
                stationary_moments(spec, n_max, p_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_overflowing_headroom_is_not_refused(self):
        # beta = sigma2 = 0: no X row reads the Y headroom, so the table of
        # (267, 1) is finite although its headroom entry (268, 0) is not
        spec = make_spec(1.0, 1.0, 0.5, 0.0, 0.6, 0.5, 0.0, 0.4, 0.3)
        table = stationary_moments(spec, 267, 1)
        assert len(table.values) == 268 * 2
        assert all(math.isfinite(v) for v in table.values.values())
        with pytest.raises(ValueError, match=r"\(268, 0\) is inf"):
            stationary_moments(spec, 268, 1)


def _ext(spec, n, p):
    # fetch a lattice value beyond the trimmed window for residual checks
    if n < 0 or p < 0:
        return 0.0
    return stationary_moments(spec, n, p).get(n, p)


class TestGammaLaw:
    def test_parameters(self, ref_spec):
        shape, rate = stationary_y_gamma_params(ref_spec)
        assert_allclose(shape, 20.0 / 3.0, rtol=1e-15)
        assert_allclose(rate, 50.0 / 9.0, rtol=1e-15)

    def test_fractional_moment(self, ref_spec):
        assert_allclose(fractional_moment_y(ref_spec, 0.5), 1.0751156528443798674, rtol=1e-13)

    def test_integer_orders_cross_check(self, ref_spec):
        table = stationary_moments(ref_spec, 2, 0)
        assert_allclose(fractional_moment_y(ref_spec, 1.0), table.get(1, 0), rtol=1e-12)
        assert_allclose(fractional_moment_y(ref_spec, 2.0), table.get(2, 0), rtol=1e-12)

    def test_divergent_order_rejected(self, ref_spec):
        with pytest.raises(ValueError, match="diverges"):
            fractional_moment_y(ref_spec, -7.0)

    def test_rejects_degenerate(self):
        spec = make_spec(1, 1, 0, 0, 1, 0.0, 1, 1, 0)
        with pytest.raises(ValueError, match="sigma1"):
            stationary_y_gamma_params(spec)


class TestLaplace:
    def test_at_zero_is_one(self, ref_spec):
        assert laplace_y(ref_spec, 1.0, 0.0, 2.0) == 1.0

    def test_unit_exponent_reduction(self):
        # a = sigma1^2/2 makes the prefactor a simple reciprocal
        spec = make_spec(0.5, 0.7, 0, 0, 1, 1.0, 0, 0, 0)
        from affine2f.kernels import psi

        lam, t = 2.0, 1.3
        expected = 1.0 / (1.0 + lam * psi(0.7, t) / 2.0)
        assert_allclose(laplace_y(spec, t, lam, 0.0), expected, rtol=1e-15)

    def test_frozen_value(self):
        spec = make_spec(1, 1, 0, 0, 1, 1, 0, 0, 0)
        assert_allclose(laplace_y(spec, 1.0, 1.0, 1.0), 0.43656582285641995234, rtol=1e-15)

    def test_derivative_at_zero_is_mean(self, ref_spec):
        h = 1e-6
        fd = -(laplace_y(ref_spec, 1.3, h, 0.7) - 1.0) / h
        mean = transient_moments(ref_spec, 1.3, 1, 0).get(1, 0)
        assert_allclose(fd, mean, rtol=1e-5)

    def test_preconditions(self, ref_spec):
        with pytest.raises(ValueError):
            laplace_y(ref_spec, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            laplace_y(ref_spec, 1.0, -1.0, 1.0)


class TestMeanGrowth:
    def test_critical_y_is_linear(self):
        spec = make_spec(1, 0, 0, 0, 0, 1, 0, 0, 0, InitialLaw("point", 2.0, 0.0))
        g = mean_growth_check(spec)
        assert g.y_kind == "linear" and g.y_coef == 1.0

    def test_subcritical_levels_match_stationary_means(self, ref_spec):
        g = mean_growth_check(ref_spec)
        stat = stationary_moments(ref_spec, 1, 1)
        assert g.y_kind == "constant" and g.x_kind == "constant"
        assert_allclose(g.y_coef, stat.get(1, 0), rtol=1e-13)
        assert_allclose(g.x_coef, stat.get(0, 1), rtol=1e-13)

    def test_equal_negative_rates_give_t_exponential(self):
        spec = make_spec(1, -0.5, 0, 0.4, -0.5, 1, 0, 0, 0, InitialLaw("point", 2.0, 1.0))
        g = mean_growth_check(spec)
        assert g.x_kind == "t-exponential"
        assert g.x_rate == -0.5
        assert_allclose(g.x_coef, -0.4 * 2.0 + 1.0 * 0.4 / -0.5, rtol=1e-13)

    def test_x_dominated_by_own_rate(self):
        spec = make_spec(1, -0.5, 0.3, 0.4, -1.0, 1, 0, 0, 0, InitialLaw("point", 2.0, 1.0))
        g = mean_growth_check(spec)
        assert (g.x_kind, g.x_rate) == ("exponential", -1.0)

    def test_x_dominated_by_y_rate(self):
        spec = make_spec(1, -1.0, 0.3, 0.4, -0.5, 1, 0, 0, 0, InitialLaw("point", 2.0, 1.0))
        g = mean_growth_check(spec)
        assert (g.x_kind, g.x_rate) == ("exponential", -1.0)

    def test_mixed_critical_quadratic(self):
        spec = make_spec(1.5, 0, 0.3, 0.4, 0, 1, 0, 0, 0)
        g = mean_growth_check(spec)
        assert g.x_kind == "quadratic"
        assert_allclose(g.x_coef, -1.5 * 0.4 / 2.0, rtol=1e-14)

    @pytest.mark.parametrize("kind", ["stationary-y", "stationary"])
    @pytest.mark.parametrize("args", [
        (1, 0, 0.5, 0, 0, 0.5, 0.3, 0.4, 0.3),
        (1, -0.5, 0.2, 0, -1, 0.5, 0.3, 0.4, 0.3),
    ], ids=["critical", "supercritical"])
    def test_stationary_start_needs_subcritical_spec(self, args, kind):
        # no stationary law, so no stationary mean to start from
        x0 = dict(x0=0.5) if kind == "stationary-y" else {}
        spec = make_spec(*args, init=InitialLaw(kind, **x0))
        with pytest.raises(HypothesisError, match="subcritical"):
            mean_growth_check(spec)

    def test_growth_against_transient_oracle(self):
        # supercritical: E(Y_t) e^{b t} should flatten to the predicted coef
        spec = make_spec(1, -0.5, 0, 0, 1, 1, 0, 0, 0, InitialLaw("point", 2.0, 0.0))
        g = mean_growth_check(spec)
        for t in (20.0, 30.0):
            m = transient_moments(spec, t, 1, 0).get(1, 0)
            assert_allclose(m * math.exp(g.y_rate * t), g.y_coef, rtol=1e-3)


class TestTableExport:
    def test_round_trip_text(self, ref_spec):
        table = stationary_moments(ref_spec, 2, 1)
        text = table.to_text()
        assert text.startswith("# stationary")
        assert "1,0,1.2" in text
