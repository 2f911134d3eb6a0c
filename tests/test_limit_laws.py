"""Limit objects: sandwich covariance, critical samples, mixed-normal pieces."""

import math

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
    v_det_closed_form,
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


class TestSupercritical:
    def test_displayed_determinant_example(self):
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

    def test_random_tuples_det_identity_and_psd(self):
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

    def test_sample_pipeline(self):
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
