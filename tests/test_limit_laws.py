"""Limit objects: sandwich covariance, critical samples, mixed-normal pieces."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from affine2f import limit_laws, simulate
from affine2f.errors import HypothesisError, NonPositiveVY, SingularGram
from affine2f.estimators import (
    functionals_from_arrays,
    functionals_from_path,
    solve_blocks,
)
from affine2f.experiments import _ks_two_sample
from affine2f.kernels import psi
from affine2f.limit_laws import (
    PROBE_SPAN,
    critical_limit_batch,
    critical_limit_blocks,
    critical_limit_sample,
    eta_factor,
    eta_sq_matrix,
    limit_draws,
    subcritical_limit,
    supercritical_limit_sample,
    v_matrix,
)
from affine2f.model import InitialLaw, make_spec
from affine2f.moments import stationary_moments
from affine2f.rng import RngStream


class TestSubcritical:
    def test_y_block_of_g(self):
        spec = make_spec(1.0, 1.0, 0.3, 0.2, 0.9, 1.0, 0.5, 0.2, 0.1)
        lim = subcritical_limit(spec)
        # E(Y) = 1, E(Y^2) = a(2a+s1^2)/(2b^2) = 1.5
        np.testing.assert_allclose(lim.g_inf[:2, :2],
                                   [[1.0, -1.0], [-1.0, 1.5]], rtol=1e-14)

    def test_g_block_structure(self):
        lim = subcritical_limit(make_spec(1.0, 1.0, 0.3, 0.2, 0.9,
                                          1.0, 0.5, 0.2, 0.1))
        assert np.all(lim.g_inf[:2, 2:] == 0.0)
        assert np.all(lim.g_inf[2:, :2] == 0.0)
        assert np.linalg.eigvalsh(lim.g_inf).min() > 0.0

    def test_cross_blocks_vanish_without_shared_driver(self):
        lim = subcritical_limit(make_spec(1.0, 1.0, 0.3, 0.2, 0.9,
                                          1.0, 0.0, 1.0, 0.7))
        assert np.all(lim.g_tilde_inf[:2, 2:] == 0.0)
        assert np.all(lim.g_tilde_inf[2:, :2] == 0.0)

    def test_g_tilde_entries_from_moment_lattice(self, ref_spec):
        """Every entry is a fixed combination of stationary moments."""
        lim = subcritical_limit(ref_spec)
        gt = lim.g_tilde_inf
        np.testing.assert_array_equal(gt, gt.T)
        m = stationary_moments(ref_spec, 3, 2)
        s1, s2, s3 = 0.36, 0.16, 0.0625
        c = -0.35 * 0.6 * 0.4
        assert gt[0, 0] == pytest.approx(s1 * m.get(1, 0), rel=1e-10)
        assert gt[1, 1] == pytest.approx(s1 * m.get(3, 0), rel=1e-10)
        assert gt[2, 2] == pytest.approx(s2 * m.get(1, 0) + s3, rel=1e-10)
        assert gt[0, 4] == pytest.approx(-c * m.get(1, 1), rel=1e-10)
        assert gt[3, 4] == pytest.approx(
            s2 * m.get(2, 1) + s3 * m.get(1, 1), rel=1e-10)
        assert gt[4, 4] == pytest.approx(
            s2 * m.get(1, 2) + s3 * m.get(0, 2), rel=1e-10)

    def test_frozen_reference_values(self, ref_spec):
        # hand arithmetic: m10=1.2, m20=1.38*1.2, m30=1.56*m20, m11=1.27,
        # m21=1.725, m12=1.5385480769230766, m02=1.3071875
        lim = subcritical_limit(ref_spec)
        gt = lim.g_tilde_inf
        assert gt[0, 0] == pytest.approx(0.432, rel=1e-12)
        assert gt[1, 1] == pytest.approx(0.9300096, rel=1e-12)
        assert gt[2, 2] == pytest.approx(0.2545, rel=1e-12)
        assert gt[0, 2] == pytest.approx(-0.1008, rel=1e-12)
        assert gt[1, 3] == pytest.approx(-0.21700224, rel=1e-12)
        assert gt[3, 4] == pytest.approx(0.355375, rel=1e-12)
        assert gt[4, 4] == pytest.approx(0.32786691105769228, rel=1e-12)
        np.testing.assert_allclose(
            lim.asym_cov.diagonal(),
            [3.312, 2.6, 4.465843460577303, 1.4602318227585991,
             1.7874398065629569],
            rtol=1e-12)

    def test_sandwich_identity(self, ref_spec):
        lim = subcritical_limit(ref_spec)
        back = lim.g_inf @ lim.asym_cov @ lim.g_inf
        np.testing.assert_allclose(back, lim.g_tilde_inf, rtol=1e-10,
                                   atol=1e-13)

    def test_covariance_is_symmetric_psd(self, ref_spec):
        cov = subcritical_limit(ref_spec).asym_cov
        np.testing.assert_array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > -1e-12 * np.trace(cov)

    def test_y_corner_blind_to_x_inputs(self, ref_spec):
        other = make_spec(1.2, 1.0, -2.0, 1.4, 0.35, 0.6, 1.1, 0.9, 0.85,
                          init=InitialLaw("point", y0=0.7, x0=-0.4))
        a = subcritical_limit(ref_spec).asym_cov[:2, :2]
        b = subcritical_limit(other).asym_cov[:2, :2]
        np.testing.assert_array_equal(a, b)

    def test_regime_and_noise_preconditions(self):
        with pytest.raises(ValueError):
            subcritical_limit(make_spec(1.0, 0.0, 0.3, 0.0, 0.0,
                                        1.0, 0.5, 0.2, 0.1))
        with pytest.raises(ValueError):
            # no second-block noise at all
            subcritical_limit(make_spec(1.0, 1.0, 0.3, 0.2, 0.9,
                                        1.0, 0.0, 0.0, 0.0))

    def test_report_labels(self, ref_spec):
        text = subcritical_limit(ref_spec).to_text()
        for label in ("g_inf", "g_tilde_inf", "asym_cov"):
            assert label in text


class TestCritical:
    def test_deterministic_pair_closed_forms(self, aux_path):
        """With all noise off the functionals reduce to dt-exact algebra."""
        a, alpha, dt = 1.4, -0.6, 1e-3
        path = aux_path(a, alpha, 0.0, 0.0, 0.0, dt, RngStream(600))
        g1, t1, g2, t2 = critical_limit_blocks(
            functionals_from_path(path), a, alpha, 0.0, 0.0, 0.0)
        assert abs(t1[0]) < 1e-10
        sol = np.linalg.solve(g1, t1)
        np.testing.assert_allclose(
            sol, [-3.0 * a * dt / (1.0 + dt), -6.0 * dt / (1.0 - dt * dt)],
            rtol=1e-6)
        # X = (alpha/a) Y exactly, so the 3x3 block is rank-deficient
        assert np.linalg.cond(g2) > 1e12

    def test_degenerate_draw_raises_after_redraws(self, monkeypatch):
        monkeypatch.setattr(limit_laws, "MAX_REDRAWS", 2)
        with pytest.raises(SingularGram, match=r"^RngStream\(seed=604, "
                           r"stream=0\): .* after 2 redraws"):
            critical_limit_sample(1.4, -0.6, 0.0, 0.0, 0.0, 0.005,
                                  RngStream(604))
        # no noise at all: every row of the batch is singular, and the
        # error names the first row's redraw stream, n_draws + 0
        with pytest.raises(SingularGram, match=r"^RngStream\(seed=604, "
                           r"stream=3\.6\): .* after 2 redraws"):
            critical_limit_batch(6, 1.4, -0.6, 0.0, 0.0, 0.0, 0.005,
                                 RngStream(604, 3))

    @pytest.mark.parametrize("dt", [0.34, 0.5, 1.0])
    def test_coarse_dt_is_refused_before_any_draw(self, dt, monkeypatch):
        # fewer than 3 steps on [0, 1] leave the 3x3 X Gram singular on
        # every draw; the refusal must not come from simulating redraws
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before refusing dt")

        monkeypatch.setattr(limit_laws, "_step", no_simulation)
        monkeypatch.setattr(limit_laws, "functionals_per_stream",
                            no_simulation)
        args = (1.0, 0.3, 0.75, 0.5, -0.2, dt)
        with pytest.raises(HypothesisError, match=f"dt={dt!r}"):
            critical_limit_batch(300, *args, RngStream(77))
        with pytest.raises(HypothesisError, match=f"dt={dt!r}"):
            critical_limit_sample(*args, RngStream(77))
        spec = make_spec(1.0, 0.0, 0.3, 0.0, 0.0, 0.75, 0.5, 0.4, -0.2)
        with pytest.raises(HypothesisError, match=f"dt={dt!r}"):
            limit_draws(spec, 5, dt, 1, 0)

    @pytest.mark.parametrize("n_draws", [0, -1])
    def test_batch_refuses_no_draws(self, n_draws):
        with pytest.raises(ValueError,
                           match=f"n_draws must be at least 1, got {n_draws}"):
            critical_limit_batch(n_draws, 1.0, 0.3, 0.75, 0.5, -0.2, 0.01,
                                 RngStream(77))

    @pytest.mark.parametrize("n_draws", [3.0, 2.5])
    def test_batch_refuses_a_non_integer_count(self, n_draws):
        with pytest.raises(ValueError,
                           match=f"n_draws must be an integer, got {n_draws!r}"):
            critical_limit_batch(n_draws, 1.0, 0.3, 0.75, 0.5, -0.2, 0.01,
                                 RngStream(77))

    def test_batch_folds_the_whole_path_reduction(self, monkeypatch,
                                                  stepped_paths):
        # 7-step blocks: the batch folds 15 of them per row; the reference
        # stacks the same run's whole paths and reduces them at once
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 7)
        args = (1.0, 0.3, 0.75, 0.5, -0.2, 0.01)
        n_draws = 40
        assert n_draws <= simulate.WIDE_ROWS
        draws, redrawn = critical_limit_batch(n_draws, *args, RngStream(611))
        assert redrawn == 0
        aux = make_spec(1.0, 0.0, 0.3, 0.0, 0.0, 0.75, 0.5, 0.0, -0.2)
        y, x = stepped_paths(aux, 1.0, 0.01, "exact_y_euler_x", RngStream(611),
                             n_draws)
        want, _, _ = solve_blocks(*critical_limit_blocks(
            functionals_from_arrays(y, x, 0.01), *args[:5]))
        np.testing.assert_array_equal(draws, want)

    @pytest.mark.parametrize("alpha, rho, retries",
                             [(0.5, 0.3, False), (3e-6, 1.0, True)])
    def test_batch_redraws_are_sample_draws_on_their_streams(
            self, alpha, rho, retries, stepped_paths, aux_path):
        # a = 1e-5 against sigma1 = 1 on 10 steps: exact Y stays absorbed
        # at 0 on nearly all first-pass rows, whose Y Grams are singular.
        # The full_euler redraws leave 0 at once (Y_1 = a dt). With
        # rho = 1 and alpha = a sigma2 / sigma1 their X is sigma2 / sigma1
        # times Y until Y first truncates, so the redraws whose Y never
        # truncates have a singular X Gram too, and reach spawn(k)
        args = (1e-5, alpha, 1.0, 0.3, rho, 0.1)
        n_draws, rng = 300, RngStream(5, 0)
        draws, redrawn = critical_limit_batch(n_draws, *args, rng)
        aux = make_spec(1e-5, 0.0, alpha, 0.0, 0.0, 1.0, 0.3, 0.0, rho)
        y, x = stepped_paths(aux, 1.0, 0.1, "exact_y_euler_x", rng, n_draws)
        first, _, _ = solve_blocks(*critical_limit_blocks(
            functionals_from_arrays(y, x, 0.1), *args[:5]))
        failed = ~np.isfinite(first).all(axis=1)
        assert redrawn == failed.sum() > 0
        np.testing.assert_array_equal(draws[~failed], first[~failed])
        retried = 0
        for i in np.flatnonzero(failed):
            row = rng.spawn(n_draws + int(i))
            np.testing.assert_array_equal(draws[i],
                                          critical_limit_sample(*args, row))
            # scalar replay: attempt k of the row runs on row.spawn(k)
            for k in range(limit_laws.MAX_REDRAWS + 1):
                path = aux_path(*args, row if k == 0 else row.spawn(k))
                want, _, _ = solve_blocks(*critical_limit_blocks(
                    functionals_from_path(path), *args[:5]))
                if np.isfinite(want).all():
                    break
            np.testing.assert_array_equal(draws[i], want)
            retried += k > 0
        assert (retried > 0) == retries

    def test_coarsest_accepted_dt_draws(self):
        draws, redrawn = critical_limit_batch(
            50, 1.0, 0.3, 0.75, 0.5, -0.2, 1.0 / 3.0, RngStream(77))
        assert np.isfinite(draws).all() and redrawn == 0

    def test_draw_is_reproducible(self, aux_path):
        args = (1.0, 0.3, 0.75, 0.5, -0.2, 2e-3)
        one = critical_limit_sample(*args, RngStream(601))
        two = critical_limit_sample(*args, RngStream(601))
        np.testing.assert_array_equal(one, two)
        assert one.shape == (5,)
        # no redraw: the draw is the solve of the stream's own first path
        path = aux_path(*args, RngStream(601))
        first, _, _ = solve_blocks(*critical_limit_blocks(
            functionals_from_path(path), *args[:5]))
        np.testing.assert_array_equal(one, first)
        assert not np.array_equal(one,
                                  critical_limit_sample(*args, RngStream(605)))

    def test_batch_moments_show_nonnormal_tail(self):
        draws, redrawn = critical_limit_batch(
            4000, 1.0, 0.3, 0.75, 0.5, -0.2, 0.01, RngStream(602))
        assert draws.shape == (4000, 5) and redrawn == 0
        assert np.isfinite(draws).all()
        comp2 = draws[:, 1]
        assert np.isfinite(comp2.mean())
        z = (comp2 - comp2.mean()) / comp2.std(ddof=1)
        excess_kurtosis = (z**4).mean() - 3.0
        # a normal sample of this size sits within +-4*sqrt(24/n) ~ 0.31
        assert excess_kurtosis > 4.0 * math.sqrt(24.0 / comp2.size)


def _grid_exact_means(a, alpha, sigma1, dt):
    """Means of the critical auxiliary pair's left-point sums on [0, 1].

    From (0, 0) with b = beta = gamma = 0, E Y_t = a t and
    E Y_t^2 = (a^2 + a sigma1^2/2) t^2; exact Y has them at every grid
    point, and Euler X, whose drift is the constant alpha, has
    E X_t = alpha t there too. Summed over t_i = i dt, i < 1/dt, times dt.
    Keyed as the table of sums: (k, l, "t") is the sum of Y^k X^l dt.
    """
    return {
        (1, 0, "t"): a * (1.0 - dt) / 2.0,
        (2, 0, "t"): (a**2 + a * sigma1**2 / 2.0) * (1.0 - dt) * (2.0 - dt) / 6.0,
        (0, 1, "t"): alpha * (1.0 - dt) / 2.0,
    }


VAR_INT_Y = ("var", 1, 0, "t")


def _second_moments(a, alpha, sigma1, sigma2, rho):
    """The dt -> 0 second moments of the critical auxiliary pair on [0, 1].

    From (0, 0) with b = beta = gamma = 0 every moment is a polynomial in
    t: Var int Y = a sigma1^2/12, E int Y^2 = (a^2 + a sigma1^2/2)/3,
    E int XY = (a alpha + rho sigma1 sigma2 a/2)/3 and E int X dY = a alpha/2.
    Keyed as the table of sums; VAR_INT_Y is the mean of the squared
    deviations of int Y.
    """
    return {
        VAR_INT_Y: a * sigma1**2 / 12.0,
        (2, 0, "t"): (a**2 + a * sigma1**2 / 2.0) / 3.0,
        (1, 1, "t"): (a * alpha + rho * sigma1 * sigma2 * a / 2.0) / 3.0,
        (0, 1, "y"): a * alpha / 2.0,
    }


def _first_pass(rows, a, alpha, sigma1, sigma2, rho, dt, rng):
    """The functionals that critical_limit_batch folds from its shared
    exact-Y run, before any solve or redraw."""
    seen = []
    reduce = limit_laws.functionals_from_blocks

    def recorded(blocks, dt):
        seen.append(reduce(blocks, dt))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limit_laws, "functionals_from_blocks", recorded)
        critical_limit_batch(rows, a, alpha, sigma1, sigma2, rho, dt, rng)
    (fn,) = seen
    return fn


class TestCriticalReferenceLaw:
    """The critical reference's first pass against its own law: grid-exact
    means at dt = 0.01, and second moments at dt = 1e-3, where the dt -> 0
    values are within Monte Carlo error."""

    # criterion 07's constants
    A, ALPHA, SIGMA1, SIGMA2, RHO, DT, ROWS = 1.0, 0.5, 0.5, 0.3, 0.3, 0.01, 20000
    FINE_DT, FINE_ROWS = 1e-3, 10000

    @pytest.fixture(scope="class")
    def first_pass(self):
        return _first_pass(self.ROWS, self.A, self.ALPHA, self.SIGMA1,
                           self.SIGMA2, self.RHO, self.DT, RngStream(1))

    @pytest.fixture(scope="class")
    def fine_pass(self):
        fn = _first_pass(self.FINE_ROWS, self.A, self.ALPHA, self.SIGMA1,
                         self.SIGMA2, self.RHO, self.FINE_DT, RngStream(1))
        int_y = fn.sums[1, 0, "t"]
        return {**fn.sums, VAR_INT_Y: (int_y - int_y.mean())**2}

    def _z(self, samples, means):
        return {name: (np.mean(samples[name]) - want)
                / (np.std(samples[name], ddof=1) / math.sqrt(samples[name].size))
                for name, want in means.items()}

    def test_means_are_grid_exact(self, first_pass):
        z = self._z(first_pass.sums, _grid_exact_means(self.A, self.ALPHA,
                                                       self.SIGMA1, self.DT))
        assert all(abs(v) < 4.0 for v in z.values()), z

    def test_wrong_level_fails(self, first_pass):
        # negative control: the oracle of a model with a 10 % larger a
        z = self._z(first_pass.sums, _grid_exact_means(1.1 * self.A, self.ALPHA,
                                                       self.SIGMA1, self.DT))
        assert max(abs(v) for v in z.values()) >= 4.0, z

    def test_second_moments_converge(self, fine_pass):
        z = self._z(fine_pass, _second_moments(self.A, self.ALPHA, self.SIGMA1,
                                               self.SIGMA2, self.RHO))
        assert all(abs(v) < 4.0 for v in z.values()), z

    def test_wrong_volatility_fails(self, fine_pass):
        # negative control: the oracle of a model with a 10 % larger sigma1
        z = self._z(fine_pass, _second_moments(self.A, self.ALPHA,
                                               1.1 * self.SIGMA1, self.SIGMA2,
                                               self.RHO))
        assert max(abs(v) for v in z.values()) >= 4.0, z


class TestSupercritical:
    def test_displayed_determinant_example(self, v_det_closed_form):
        V = v_matrix(-0.5, -1.0, 2.0, 3.0)
        assert v_det_closed_form(-0.5, -1.0, 2.0, 3.0) == pytest.approx(8.0)
        assert np.linalg.det(V) == pytest.approx(8.0, rel=1e-12)

    def test_displayed_eta_entry(self):
        E = eta_sq_matrix(-0.5, -1.0, 2.0, 3.0, 1.0, 1.0, 0.5)
        assert E[0, 0] == 4.0  # -sigma1^2 V_Y / b

    def test_eta_cross_blocks_need_correlation(self):
        E = eta_sq_matrix(-0.5, -1.0, 2.0, 3.0, 1.0, 1.0, 0.0)
        assert np.all(E[:2, 2:] == 0.0)
        assert np.all(E[2:, :2] == 0.0)

    def test_random_tuples_det_identity_and_psd(self, v_det_closed_form):
        rng = np.random.default_rng(7)
        for _ in range(100):
            b = -rng.uniform(0.05, 3.0)
            g = b - rng.uniform(0.05, 3.0)
            vy, vx = rng.uniform(0.1, 5.0, 2)
            s1, s2 = rng.uniform(0.1, 2.0, 2)
            r = rng.uniform(-1.0, 1.0)
            V = v_matrix(b, g, vy, vx)
            assert np.linalg.det(V) == pytest.approx(
                v_det_closed_form(b, g, vy, vx), rel=1e-10)
            E = eta_sq_matrix(b, g, vy, vx, s1, s2, r)
            np.testing.assert_array_equal(E, E.T)
            assert np.linalg.eigvalsh(E).min() >= -1e-10 * np.trace(E)

    def test_eta_factor_squares_back(self):
        E = eta_sq_matrix(-0.5, -1.0, 2.0, 3.0, 1.0, 0.8, 0.4)
        F = eta_factor(E)
        np.testing.assert_array_equal(F, F.T)
        np.testing.assert_allclose(F @ F, E, rtol=1e-11, atol=1e-13)

    def test_sample_pipeline(self, v_det_closed_form):
        spec = make_spec(1.0, -0.5, 0.2, -0.1, -1.0, 0.6, 0.4, 0.3, -0.2,
                         init=InitialLaw("point", y0=1.0, x0=0.5))
        lim, draw = supercritical_limit_sample(spec, None, 1e-3,
                                               RngStream(603))
        assert lim.v_y_sample == pytest.approx(2.7319412209965, rel=1e-12)
        assert lim.v_x_sample == pytest.approx(1.2930430182261774, rel=1e-12)
        assert np.linalg.det(lim.v_matrix) == pytest.approx(
            v_det_closed_form(-0.5, -1.0, lim.v_y_sample, lim.v_x_sample),
            rel=1e-10)
        assert draw.shape == (5,)
        again = supercritical_limit_sample(spec, None, 1e-3, RngStream(603))
        np.testing.assert_array_equal(draw, again[1])

    def test_absorbed_y_factor_raises(self):
        # a = 0 lets the CIR factor die out; the limit scaling is then void
        spec = make_spec(0.0, -0.5, 0.0, 0.0, -1.0, 1.0, 0.5, 0.5, 0.0,
                         init=InitialLaw("point", y0=0.01, x0=0.3))
        with pytest.raises(NonPositiveVY):
            supercritical_limit_sample(spec, 20.0, 0.01, RngStream(606))

    def test_batched_absorbed_probe_names_its_stream(self):
        # same spec as above: the scalar loop's first failure is the batch's
        spec = make_spec(0.0, -0.5, 0.0, 0.0, -1.0, 1.0, 0.5, 0.5, 0.0,
                         init=InitialLaw("point", y0=0.01, x0=0.3))
        for j in range(6):
            stream = RngStream(606, 3 + j)
            try:
                supercritical_limit_sample(spec, None, 0.05, stream)
            except NonPositiveVY as exc:
                scalar = str(exc)
                break
        else:
            pytest.fail("no probe was absorbed")
        assert repr(stream) in scalar
        with pytest.raises(NonPositiveVY) as exc:
            limit_draws(spec, 6, 0.05, 606, 3)
        assert str(exc.value) == scalar

    def test_hypothesis_enforcement(self):
        subcrit = make_spec(1.0, 1.0, 0.3, 0.2, 0.9, 1.0, 0.5, 0.2, 0.1)
        with pytest.raises(ValueError):
            supercritical_limit_sample(subcrit, None, 1e-3, RngStream(607))
        # ordering gamma < b < 0 violated (b below gamma)
        wrong = make_spec(1.0, -1.0, 0.2, -0.1, -0.5, 0.6, 0.4, 0.3, -0.2)
        with pytest.raises(ValueError):
            supercritical_limit_sample(wrong, None, 1e-3, RngStream(608))

    def test_report_labels(self):
        spec = make_spec(1.0, -0.5, 0.2, -0.1, -1.0, 0.6, 0.4, 0.3, -0.2,
                         init=InitialLaw("point", y0=1.0, x0=0.5))
        lim, _ = supercritical_limit_sample(spec, 10.0, 0.01, RngStream(609))
        text = lim.to_text()
        assert "v_matrix" in text and "eta_sq" in text
        assert "v_y_sample" in text


# The displayed matrices, written out entry by entry as the reference for
# the layouts (estimators.gram_layout and qv_layout) that build them.


def _displayed_g_tilde(spec):
    mom = stationary_moments(spec, 3, 2)
    m10, m20, m30 = mom.get(1, 0), mom.get(2, 0), mom.get(3, 0)
    m01, m11, m02 = mom.get(0, 1), mom.get(1, 1), mom.get(0, 2)
    m21, m12 = mom.get(2, 1), mom.get(1, 2)
    g_inf = np.zeros((5, 5))
    g_inf[:2, :2] = [[1.0, -m10], [-m10, m20]]
    g_inf[2:, 2:] = [[1.0, -m10, -m01], [-m10, m20, m11], [-m01, m11, m02]]
    s1, s2, s3 = spec.sigma1**2, spec.sigma2**2, spec.sigma3**2
    c = spec.rho * spec.sigma1 * spec.sigma2
    gt = np.array([
        [s1 * m10, -s1 * m20, c * m10, -c * m20, -c * m11],
        [-s1 * m20, s1 * m30, -c * m20, c * m30, c * m21],
        [c * m10, -c * m20, s2 * m10 + s3,
         -(s2 * m20 + s3 * m10), -(s2 * m11 + s3 * m01)],
        [-c * m20, c * m30, -(s2 * m20 + s3 * m10),
         s2 * m30 + s3 * m20, s2 * m21 + s3 * m11],
        [-c * m11, c * m21, -(s2 * m11 + s3 * m01),
         s2 * m21 + s3 * m11, s2 * m12 + s3 * m02],
    ])
    return g_inf, gt


def _displayed_v(b, gamma, v_y, v_x):
    vy2 = v_y * v_y
    return np.array([
        [1.0, v_y / b, 0.0, 0.0, 0.0],
        [0.0, -vy2 / (2.0 * b), 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, v_y / b, v_x / gamma],
        [0.0, 0.0, 0.0, -vy2 / (2.0 * b), -v_y * v_x / (b + gamma)],
        [0.0, 0.0, 0.0, -v_y * v_x / (b + gamma), -v_x**2 / (2.0 * gamma)],
    ])


def _displayed_eta_sq(b, gamma, v_y, v_x, sigma1, sigma2, rho):
    s1, s2 = sigma1**2, sigma2**2
    c = rho * sigma1 * sigma2
    w1 = -v_y / b
    w2 = v_y**2 / (2.0 * b)
    w3 = -v_y**3 / (3.0 * b)
    u1 = v_y * v_x / (b + gamma)
    u2 = -(v_y**2) * v_x / (2.0 * b + gamma)
    u3 = -v_y * v_x**2 / (b + 2.0 * gamma)
    return np.array([
        [s1 * w1, s1 * w2, c * w1, c * w2, c * u1],
        [s1 * w2, s1 * w3, c * w2, c * w3, c * u2],
        [c * w1, c * w2, s2 * w1, s2 * w2, s2 * u1],
        [c * w2, c * w3, s2 * w2, s2 * w3, s2 * u2],
        [c * u1, c * u2, s2 * u1, s2 * u2, s2 * u3],
    ])


def _same_bits(got, want):
    return (np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


class TestDisplayedMatrices:
    """The layouts reproduce the displayed matrices bit for bit, signed
    zeros included."""

    def test_subcritical_g_and_g_tilde(self):
        rng = np.random.default_rng(29)
        for i in range(200):
            a, b, gamma = rng.uniform(0.05, 3.0, 3)
            alpha, beta = rng.uniform(-2.0, 2.0, 2)
            s1, s2 = rng.uniform(0.05, 2.0, 2)
            s3 = 0.0 if i % 4 == 0 else rng.uniform(0.0, 2.0)
            rho = rng.uniform(-0.99, 0.99)
            spec = make_spec(a, b, alpha, beta, gamma, s1, s2, s3, rho)
            lim = subcritical_limit(spec)
            g_inf, gt = _displayed_g_tilde(spec)
            assert _same_bits(lim.g_inf, g_inf), spec
            assert _same_bits(lim.g_tilde_inf, gt), spec

    def test_supercritical_v_and_eta_sq(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            b = -rng.uniform(0.05, 3.0)
            gamma = b - rng.uniform(0.05, 3.0)
            v_y, v_x = rng.uniform(0.01, 5.0), rng.uniform(-5.0, 5.0)
            s1, s2 = rng.uniform(0.05, 2.0, 2)
            rho = rng.uniform(-1.0, 1.0)
            assert _same_bits(v_matrix(b, gamma, v_y, v_x),
                              _displayed_v(b, gamma, v_y, v_x))
            assert _same_bits(
                eta_sq_matrix(b, gamma, v_y, v_x, s1, s2, rho),
                _displayed_eta_sq(b, gamma, v_y, v_x, s1, s2, rho))


class TestSupercriticalPathLimits:
    """V and eta eta^T are the scaled limits of one path's own G_T and Q_T.

    G_T and Q_T are built here from the path's left-point sums as sums of
    outer products, with u = (1, -y) and v = (1, -y, -x): G_T has the
    blocks u u^T dt and v v^T dt, and Q_T, the quadratic variation of
    f - G theta, the blocks sigma1^2 y u u^T dt, rho sigma1 sigma2 y u v^T
    dt and (sigma2^2 y + sigma3^2) v v^T dt. The gap left is Euler X's
    growth rate against gamma, |gamma| dt / 2 = 5e-4 here.
    """

    # criterion 08's spec, as in TestSupercriticalProbeLaws
    SPEC = make_spec(1.0, -0.5, 0.2, 0.0, -1.0, 0.5, 0.3, 0.4, 0.3,
                     init=InitialLaw("point", y0=1.0, x0=0.5))
    GATE = 2e-3

    @pytest.fixture(scope="class")
    def path(self):
        p = simulate.simulate_path(self.SPEC, 40.0, 1e-3, rng=RngStream(2028))
        T, s = (p.y.size - 1) * p.dt, self.SPEC
        yl, xl = p.y[:-1], p.x[:-1]
        v = np.stack([np.ones_like(yl), -yl, -xl])
        u = v[:2]
        gram = v * p.dt @ v.T
        g = np.zeros((5, 5))
        g[:2, :2], g[2:, 2:] = gram[:2, :2], gram
        q = np.zeros((5, 5))
        q[:2, :2] = s.sigma1**2 * (u * yl * p.dt @ u.T)
        q[:2, 2:] = s.rho * s.sigma1 * s.sigma2 * (u * yl * p.dt @ v.T)
        q[2:, :2] = q[:2, 2:].T
        q[2:, 2:] = v * (s.sigma2**2 * yl + s.sigma3**2) * p.dt @ v.T
        v_y = math.exp(s.b * T) * p.y[-1]
        v_x = math.exp(s.gamma * T) * p.x[-1]
        return T, g, q, v_y, v_x

    @staticmethod
    def _gap(got, want):
        nonzero = want != 0.0
        return float(np.max(np.abs(got - want)[nonzero]
                            / np.abs(want)[nonzero]))

    def _scaled_g(self, path):
        T, g, _, _, _ = path
        eb, eg = math.exp(self.SPEC.b * T), math.exp(self.SPEC.gamma * T)
        left = np.array([1.0, eb, 1.0, eb, eg])
        right = np.array([1.0 / T, eb, 1.0 / T, eb, eg])
        return left[:, None] * g * right[None, :]

    def _scaled_q(self, path):
        T, _, q, _, _ = path
        b, gamma = self.SPEC.b, self.SPEC.gamma
        s = np.exp(np.array([b / 2, 3 * b / 2, b / 2, 3 * b / 2,
                             b / 2 + gamma]) * T)
        return s[:, None] * q * s[None, :]

    def _eta_sq(self, path, **wrong):
        s = self.SPEC
        _, _, _, v_y, v_x = path
        args = dict(b=s.b, gamma=s.gamma, sigma2=s.sigma2, rho=s.rho) | wrong
        return eta_sq_matrix(args["b"], args["gamma"], v_y, v_x, s.sigma1,
                             args["sigma2"], args["rho"])

    def test_v_is_the_scaled_gram(self, path):
        _, _, _, v_y, v_x = path
        V = v_matrix(self.SPEC.b, self.SPEC.gamma, v_y, v_x)
        # below each block's corner, the first column of L G_T R is
        # -e^(bT) int y / T or -e^(gamma T) int x / T, which vanish like
        # 1/T and which V sets to 0; the gap leaves them out
        zeros = {(i, j) for i in range(5) for j in range(5)
                 if (i < 2) != (j < 2)} | {(1, 0), (3, 2), (4, 2)}
        assert {tuple(ij) for ij in np.argwhere(V == 0.0)} == zeros
        scaled = self._scaled_g(path)
        assert self._gap(scaled, V) < self.GATE
        V_off = v_matrix(self.SPEC.b, self.SPEC.gamma, v_y, 1.01 * v_x)
        assert self._gap(scaled, V_off) > self.GATE

    def test_eta_sq_is_the_scaled_quadratic_variation(self, path):
        scaled = self._scaled_q(path)
        assert np.all(self._eta_sq(path) != 0.0)
        assert self._gap(scaled, self._eta_sq(path)) < self.GATE

    @pytest.mark.parametrize("wrong", [
        dict(rho=-0.3), dict(sigma2=1.01 * 0.3), dict(b=-1.0, gamma=-0.5),
    ], ids=["-rho", "1.01 sigma2", "b <-> gamma"])
    def test_wrong_eta_sq_fails(self, path, wrong):
        assert self._gap(self._scaled_q(path),
                         self._eta_sq(path, **wrong)) > self.GATE


class TestSupercriticalProbeLaws:
    """The probes' V_Y = e^(bT) Y_T and V_X = e^(gamma T) X_T on criterion
    08's spec, against their exact laws at the probe's horizon T.

    Exact Y is exact in law at any dt, so a coarse dt is fair for V_Y.
    """

    SPEC = make_spec(1.0, -0.5, 0.2, 0.0, -1.0, 0.5, 0.3, 0.4, 0.3,
                     init=InitialLaw("point", y0=1.0, x0=0.5))
    DT = 0.1

    @pytest.fixture(scope="class")
    def probes(self):
        limits = [supercritical_limit_sample(self.SPEC, None, self.DT,
                                             RngStream(77, j))[0]
                  for j in range(600)]
        return (np.array([lim.v_y_sample for lim in limits]),
                np.array([lim.v_x_sample for lim in limits]))

    def test_v_y_has_the_exact_cir_law(self, probes):
        # e^(bT) Y_T = e^(bT) s_T chi'^2(df = 4a/sigma1^2, nc = e^(-bT) y0 / s_T)
        # with s_T = sigma1^2 psi(b, T) / 4, the law sample_cir_transition draws
        s, v_y = self.SPEC, probes[0]
        T = (simulate._n_grid(PROBE_SPAN / abs(s.b), self.DT) - 1) * self.DT
        scale = s.sigma1**2 * psi(s.b, T) / 4.0
        df, nc = 4.0 * s.a / s.sigma1**2, math.exp(-s.b * T) * s.init.y0 / scale
        growth = math.exp(s.b * T) * scale
        exact = growth * np.random.default_rng(8).noncentral_chisquare(
            df, nc, 200_000)
        # the two-sample KS distance's 5 % critical value
        crit = 1.358 * math.sqrt(1.0 / v_y.size + 1.0 / exact.size)
        assert _ks_two_sample(v_y, exact) < crit
        se = v_y.std(ddof=1) / math.sqrt(v_y.size)
        assert abs(v_y.mean() - growth * (df + nc)) <= 4.0 * se

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: X is Euler, so it grows by (1 - gamma*dt) per step "
        "and e^(gamma T) is the wrong normaliser of V_X"))
    def test_v_x_mean_is_x0_plus_alpha_over_abs_gamma(self, probes):
        # with beta = 0 the first-moment equation gives E(V_X) = 0.70
        s, v_x = self.SPEC, probes[1]
        se = v_x.std(ddof=1) / math.sqrt(v_x.size)
        assert abs(v_x.mean() - (s.init.x0 + s.alpha / abs(s.gamma))) <= 4.0 * se


@pytest.mark.parametrize("sigma3, rho", [(0.4, 0.2), (0.0, 0.2), (0.4, -1.0)],
                         ids=["b-and-l", "no-l", "no-b"])
def test_batched_draws_follow_their_streams(monkeypatch, sigma3, rho):
    """Draw j of limit_draws is the scalar draw on stream first + j.

    Seven draws in batches of 3 end on a 1-row batch, and the 857-step
    probe ends on a 3-step block, short of 30/|b| = 60 time units;
    sigma3 = 0 skips the L substream and |rho| = 1 the B substream.
    """
    monkeypatch.setattr(simulate, "WIDE_ROWS", 3)
    monkeypatch.setattr(simulate, "BLOCK_STEPS", 7)
    spec = make_spec(1.2, -0.5, 0.4, 0.0, -1.0, 0.5, 0.3, sigma3, rho,
                     init=InitialLaw("point", y0=1.0, x0=0.5))
    draws, redraws = limit_draws(spec, 7, 0.07, 610, 4)
    assert draws.shape == (7, 5) and redraws == 0
    for j, row in enumerate(draws):
        _, want = supercritical_limit_sample(spec, None, 0.07,
                                             RngStream(610, 4 + j))
        np.testing.assert_array_equal(row, want)


def test_supercritical_probes_keep_end_points_only(monkeypatch):
    """The probes fold no path sums: a draw reads only a probe's end point."""
    def refuse(*args, **kwargs):
        raise AssertionError("a supercritical probe was reduced to path sums")

    monkeypatch.setattr(limit_laws, "functionals_per_stream", refuse)
    spec = make_spec(1.2, -0.5, 0.4, 0.0, -1.0, 0.5, 0.3, 0.4, 0.2,
                     init=InitialLaw("point", y0=1.0, x0=0.5))
    draws, redraws = limit_draws(spec, 2, 0.07, 610, 4)
    assert draws.shape == (2, 5) and redraws == 0


def test_supercritical_draws_hold_one_batch_of_streams():
    """Supercritical memory is the draws array and one WIDE_ROWS batch of
    probes: no stream is built before the batch that steps it.

    A stream costs about 136 B, so 1280 streams built up front would add
    about 170 KB, more than three times the 5 % of a batch allowed. The
    probes are 10 steps long (T_probe = 30/|b| = 1, dt = 0.1), and the
    streams start past 256 so that the one-batch run, like every later
    batch, allocates its stream ids rather than reading Python's cached
    small ints.
    """
    spec = make_spec(1.0, -30.0, 0.2, 0.0, -60.0, 0.5, 0.3, 0.4, 0.3,
                     init=InitialLaw("point", y0=1.0, x0=0.5))

    def peak(n_draws):
        gc.collect()
        tracemalloc.start()
        try:
            limit_draws(spec, n_draws, 0.1, 611, 1000)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    limit_draws(spec, 2, 0.1, 611, 1000)  # first-call caches are no batch
    one_batch = peak(simulate.WIDE_ROWS)
    n_draws = 5 * simulate.WIDE_ROWS
    # the draws array and one batch, give or take 5 % of a batch
    got = peak(n_draws)
    assert got <= n_draws * 5 * 8 + 1.05 * one_batch, (got, one_batch)


def test_critical_batch_holds_few_block_arrays():
    """200 draws at dt = 0.002 are one 500 x 200 block of 0.76 MiB per
    array: Y and X, the B and L noise, the rebuilt W increments and the X
    shock, then the reduction's temporaries. No spent array outlives its
    use, so the peak stays under 5.5 MiB (6.19 MiB when the stepper held
    the exact-Y inversion's temporaries, and both increment arrays of the
    reduction, at once)."""
    def batch():
        return critical_limit_batch(200, 1.0, 0.5, 0.5, 0.3, 0.3, 0.002,
                                    RngStream(5, 0))

    want, _ = batch()  # first-call caches are no batch
    gc.collect()
    tracemalloc.start()
    try:
        got, _ = batch()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 5.5 * 2**20, peak / 2**20


def test_exact_y_past_numpys_poisson_range_names_its_stream():
    # criterion 08's model with sigma1 = 0.05: the probe's Y grows like
    # e^(|b| t), and its Poisson mixture mean decay*y/(2*scale) passes
    # numpy's limit of about 9.2e18 near Y = 1.15e13, long before T_probe
    spec = make_spec(1.0, -0.5, 0.2, 0.0, -1.0, 0.05, 0.3, 0.4, 0.3,
                     init=InitialLaw("point", y0=1.0, x0=0.5))
    with pytest.raises(ValueError) as exc:
        limit_draws(spec, 2, 1e-3, 1, 0)
    assert str(exc.value).startswith(
        "RngStream(seed=1, stream=0): exact Y left numpy's Poisson range")
    assert "9.2e18" in str(exc.value)


def test_shared_stream_exact_y_past_numpys_poisson_range_names_its_stream():
    # the same model on one shared stream, as simulate_ensemble and the
    # first pass of a critical batch step it: the rows draw a step at a
    # time, and the message names the stream and the largest Y reached
    spec = make_spec(1.0, -0.5, 0.2, 0.0, -1.0, 0.05, 0.3, 0.4, 0.3,
                     init=InitialLaw("point", y0=1.0, x0=0.5))
    with pytest.raises(ValueError) as exc:
        simulate.simulate_ensemble(spec, 60.0, 1e-3, rng=RngStream(1), n_paths=2)
    msg = str(exc.value)
    assert msg.startswith(
        "RngStream(seed=1, stream=0): exact Y left numpy's Poisson range")
    assert "9.2e18" in msg
    # Y of the step that failed: past the limit's Y of about 1.15e13
    largest = float(msg.split("largest Y reached ")[1].split(":")[0])
    assert 1.1e13 < largest < 1e15, msg


def test_limit_draws_checks_every_regime():
    # critical by min(b, gamma) = 0, but beta and gamma are not zero, so
    # the critical limit law does not apply
    spec = make_spec(1, 0, 0.5, 0.2, 1, 0.5, 0.3, 0.4, 0.3)
    with pytest.raises(HypothesisError,
                       match="beta = 0 required; gamma = 0 required"):
        limit_draws(spec, 5, 0.01, 1, 0)


@pytest.mark.parametrize("n_draws", [0, -1])
@pytest.mark.parametrize("args", [
    (1.0, 1.0, 0.5, 0.3, 0.6, 0.5, 0.3, 0.4, 0.3),
    (1.0, 0.0, 0.5, 0.0, 0.0, 0.5, 0.3, 0.4, 0.3),
    (1.2, -0.5, 0.4, 0.0, -1.0, 0.5, 0.3, 0.4, 0.2),
], ids=["subcritical", "critical", "supercritical"])
def test_limit_draws_refuses_no_draws(args, n_draws):
    spec = make_spec(*args, init=InitialLaw("point", y0=1.0, x0=0.5))
    with pytest.raises(ValueError, match=f"n_draws must be at least 1, got {n_draws}"):
        limit_draws(spec, n_draws, 0.01, 1, 0)


@pytest.mark.parametrize("n_draws", [2.5, 3.0, "3"])
@pytest.mark.parametrize("args", [
    (1.0, 1.0, 0.5, 0.3, 0.6, 0.5, 0.3, 0.4, 0.3),
    (1.0, 0.0, 0.5, 0.0, 0.0, 0.5, 0.3, 0.4, 0.3),
    (1.2, -0.5, 0.4, 0.0, -1.0, 0.5, 0.3, 0.4, 0.2),
], ids=["subcritical", "critical", "supercritical"])
def test_limit_draws_refuses_a_non_integer_count(args, n_draws):
    spec = make_spec(*args, init=InitialLaw("point", y0=1.0, x0=0.5))
    with pytest.raises(ValueError,
                       match=f"n_draws must be an integer, got {n_draws!r}"):
        limit_draws(spec, n_draws, 0.01, 1, 0)
