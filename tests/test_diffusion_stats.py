"""Realized-variation statistics for the four diffusion constants."""

import math

import numpy as np
import pytest

from affine2f.diffusion_stats import (
    DiffusionEstimate,
    QuadraticVariations,
    diffusion_from_qv,
    estimate_diffusion,
    realized_qv,
)
from affine2f.errors import SingularSystem
from affine2f.model import InitialLaw, make_spec
from affine2f.rng import RngStream
from affine2f.simulate import PathGrid, simulate_path


def make_qv(**kw):
    base = dict(qv_y_T=1.0, qv_x_T=2.45, qv_x_halfT=0.87, qcov_yx_T=0.1,
                int_y_T=3.7, int_y_halfT=1.2, horizon=2.0, t_half=0.9)
    base.update(kw)
    return QuadraticVariations(**base)


class TestRealizedQV:
    def test_shrinks_on_smooth_path(self):
        spec = make_spec(1.0, 0.5, 0.2, 0.1, 0.3, 0.0, 0.0, 0.0, 0.0,
                         init=InitialLaw("point", y0=0.7, x0=-0.4))
        path = simulate_path(spec, 1.0, 1e-4, scheme="full_euler",
                             rng=RngStream(520))
        qv = realized_qv(path)
        assert qv.qv_y_T < 1e-4
        assert qv.qv_x_T < 1e-4
        assert abs(qv.qcov_yx_T) < 1e-4

    def test_additive_noise_variation(self):
        # X is a centered random walk with variance 4 dt per step
        spec = make_spec(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0,
                         init=InitialLaw("point", y0=0.0, x0=0.0))
        path = simulate_path(spec, 1.0, 1e-4, scheme="full_euler",
                             rng=RngStream(521))
        qv = realized_qv(path)
        assert qv.qv_x_T == pytest.approx(4.0, rel=0.05)
        assert qv.qv_x_halfT == pytest.approx(2.0, rel=0.07)
        assert qv.qv_y_T == 0.0

    def test_cross_variation_centered_when_uncoupled(self, stepped_paths):
        spec = make_spec(1.0, 1.0, 0.2, 0.1, 0.5, 0.5, 0.5, 0.1, 0.0,
                         init=InitialLaw("point", y0=1.0, x0=0.0))
        y, x = stepped_paths(spec, 1.0, 0.01, "exact_y_euler_x",
                             RngStream(522), 300)
        qcov = (np.diff(y, axis=1) * np.diff(x, axis=1)).sum(axis=1)
        se = qcov.std(ddof=1) / math.sqrt(qcov.size)
        assert abs(qcov.mean()) < 4.0 * se + 1e-6

    def test_half_horizon_bookkeeping(self):
        y = np.array([1.0, 2.0, 1.0, 3.0, 2.0])
        x = np.array([0.0, 1.0, -1.0, 0.0, 2.0])
        qv = realized_qv(PathGrid(0.0, 0.5, y, x))
        # 4 increments, half = first 2
        assert qv.t_half == 1.0 and qv.horizon == 2.0
        assert qv.qv_x_halfT == 1.0 + 4.0
        assert qv.int_y_halfT == 0.5 * (1.0 + 2.0)
        assert qv.int_y_T == 0.5 * (1.0 + 2.0 + 1.0 + 3.0)

    def test_rejects_short_path(self):
        with pytest.raises(ValueError):
            realized_qv(PathGrid(0.0, 1.0, np.array([1.0, 2.0]),
                                 np.array([0.0, 1.0])))

    def test_type_invariants(self):
        with pytest.raises(ValueError):
            make_qv(qv_y_T=-0.1)
        with pytest.raises(ValueError):
            make_qv(qv_x_halfT=3.0)  # exceeds qv_x_T


class TestDiffusionEstimate:
    def test_sigma1_is_definitional_ratio(self):
        qv = make_qv(qv_y_T=0.25 * 3.7)
        assert diffusion_from_qv(qv).sigma1_sq == 0.25

    def test_two_by_two_inverts_exactly(self):
        est = diffusion_from_qv(make_qv())
        # 2.45 = 0.5*3.7 + 0.3*2.0 and 0.87 = 0.5*1.2 + 0.3*0.9
        assert est.sigma2_sq == pytest.approx(0.5, rel=1e-13)
        assert est.sigma3_sq == pytest.approx(0.3, rel=1e-13)
        assert est.sigma2_sq == est.sigma2_sq_raw
        assert not est.rho_clamped

    def test_system_residual_is_interpolatory(self):
        qv = make_qv()
        est = diffusion_from_qv(qv)
        lhs = np.array([
            qv.int_y_T * est.sigma2_sq_raw + qv.horizon * est.sigma3_sq_raw,
            qv.int_y_halfT * est.sigma2_sq_raw + qv.t_half * est.sigma3_sq_raw,
        ])
        np.testing.assert_allclose(lhs, [qv.qv_x_T, qv.qv_x_halfT],
                                   rtol=1e-13)

    def test_rho_clamps_with_flag(self):
        est = diffusion_from_qv(make_qv(qcov_yx_T=50.0))
        assert est.rho == 1.0 and est.rho_clamped
        est = diffusion_from_qv(make_qv(qcov_yx_T=-50.0))
        assert est.rho == -1.0 and est.rho_clamped

    def test_degenerate_alignment_raises(self):
        # constant Y makes the half-horizon average equal the full one
        rw = np.concatenate([[0.0], np.cumsum(np.full(60, 0.1))])
        path = PathGrid(0.0, 0.05, np.full(61, 1.5), rw)
        with pytest.raises(SingularSystem):
            estimate_diffusion(path)

    @pytest.mark.xfail(strict=True, raises=SingularSystem, reason=(
        "ROADMAP item 17: the half/full-horizon system is singular whenever "
        "the two Y averages coincide, though Y varies and a regression of "
        "the squared X increments on (Y dt, dt) recovers both constants"))
    def test_varying_y_with_equal_half_averages(self):
        # Y varies, but its second half repeats its first; the X increments
        # alternate in sign with (dX)^2 = (0.16*y + 0.09)*dt at each left point
        n, dt = 2000, 0.01
        half = np.linspace(0.5, 2.0, n // 2)
        y = np.concatenate([half, half, half[:1]])
        sign = np.where(np.arange(n) % 2, -1.0, 1.0)
        dx = sign * np.sqrt((0.16 * y[:-1] + 0.09) * dt)
        path = PathGrid(0.0, dt, y, np.concatenate([[0.0], np.cumsum(dx)]))
        est = estimate_diffusion(path)
        assert est.sigma2_sq == pytest.approx(0.16, rel=1e-9)
        assert est.sigma3_sq == pytest.approx(0.09, rel=1e-9)

    def test_vanishing_y_integral_raises(self):
        path = PathGrid(0.0, 0.1, np.zeros(20), np.linspace(0.0, 1.0, 20))
        with pytest.raises(ValueError):
            estimate_diffusion(path)

    def test_recovers_simulated_coefficients(self, stepped_paths):
        # The (sigma2^2, sigma3^2) system needs the half- and full-horizon
        # Y averages to differ; a transient start (y0 far above a/b)
        # provides that contrast deterministically. Per-path noise on the
        # split still sits at a few percent, so the 5% check is on the
        # 20-path average.
        spec = make_spec(1.0, 1.0, 0.2, 0.1, 0.5, 0.6, 0.4, 0.3, 0.5,
                         init=InitialLaw("point", y0=20.0, x0=0.0))
        y, x = stepped_paths(spec, 50.0, 1e-3, "exact_y_euler_x",
                             RngStream(523), 20)
        ests = [estimate_diffusion(PathGrid(0.0, 1e-3, y[i], x[i]))
                for i in range(20)]
        mean = lambda f: float(np.mean([f(e) for e in ests]))
        assert mean(lambda e: e.sigma1_sq) == pytest.approx(0.36, rel=0.05)
        assert mean(lambda e: e.sigma2_sq) == pytest.approx(0.16, rel=0.05)
        assert mean(lambda e: e.sigma3_sq) == pytest.approx(0.09, rel=0.05)
        assert mean(lambda e: e.rho) == pytest.approx(0.5, rel=0.05)

    def test_single_path_ratio_statistics(self):
        # sigma1^2 and rho are ratio statistics and are tight per path
        spec = make_spec(1.0, 1.0, 0.2, 0.1, 0.5, 0.6, 0.4, 0.3, 0.5,
                         init=InitialLaw("point", y0=20.0, x0=0.0))
        path = simulate_path(spec, 50.0, 1e-3, rng=RngStream(526))
        est = estimate_diffusion(path)
        assert est.sigma1_sq == pytest.approx(0.36, rel=0.05)
        assert est.rho == pytest.approx(0.5, rel=0.05)

    def test_sigma1_ignores_x_column(self):
        spec = make_spec(1.0, 1.0, 0.2, 0.1, 0.5, 0.6, 0.4, 0.3, 0.5,
                         init=InitialLaw("point", y0=1.0, x0=0.0))
        path = simulate_path(spec, 5.0, 0.01, rng=RngStream(524))
        other = PathGrid(path.t0, path.dt, path.y, np.sin(path.x))
        assert (estimate_diffusion(path).sigma1_sq
                == estimate_diffusion(other).sigma1_sq)

    def test_error_decays_when_grid_refines(self, stepped_paths):
        """Halving dt should shrink the error roughly like sqrt(dt)."""
        spec = make_spec(1.0, 1.0, 0.2, 0.1, 0.5, 0.6, 0.4, 0.3, 0.5,
                         init=InitialLaw("point", y0=1.0, x0=0.0))
        errs = []
        for k, dt in enumerate((2e-3, 1e-3)):
            y, _ = stepped_paths(spec, 2.0, dt, "exact_y_euler_x",
                                 RngStream(525, k), 100)
            qv_y = (np.diff(y, axis=1) ** 2).sum(axis=1)
            int_y = y[:, :-1].sum(axis=1) * dt
            errs.append(np.abs(qv_y / int_y - 0.36).mean())
        assert 0.5 < errs[1] / errs[0] < 0.9

    def test_report_layout(self):
        text = diffusion_from_qv(make_qv()).to_text()
        assert "rho_clamped = no" in text
        assert "sigma1_sq = " in text
        assert text.endswith("\n")

    def test_estimate_type(self):
        assert isinstance(diffusion_from_qv(make_qv()), DiffusionEstimate)
