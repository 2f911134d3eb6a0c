"""Realized-variation statistics for the four diffusion constants."""

import math

import numpy as np
import pytest

from affine2f.diffusion_stats import DiffusionEstimate, estimate_diffusion
from affine2f.errors import SingularSystem
from affine2f.model import InitialLaw, make_spec
from affine2f.rng import RngStream
from affine2f.simulate import PathGrid, simulate_path


def affine_path(y, dt, s2, s3):
    """A path on y whose X increments alternate in sign with
    (dX)^2 = (s2*y + s3)*dt exactly at each left point."""
    y = np.asarray(y, dtype=float)
    n = y.size - 1
    sign = np.where(np.arange(n) % 2, -1.0, 1.0)
    dx = sign * np.sqrt((s2 * y[:-1] + s3) * dt)
    return PathGrid(0.0, dt, y, np.concatenate([[0.0], np.cumsum(dx)]))


def random_path(seed, n=400, dt=0.01):
    gen = np.random.default_rng(seed)
    y = 0.5 + gen.random(n + 1)
    x = np.concatenate([[0.0], np.cumsum(gen.normal(0.0, 0.3, n))])
    return PathGrid(0.0, dt, y, x)


# y = [1, 2, 1, 3, 2], x = [0, 1, -1, 0, 2] on dt = 0.5: left points
# [1, 2, 1, 3], dY = [1, -1, 2, -1], dX = [1, -2, 1, 2]
HAND = PathGrid(0.0, 0.5, np.array([1.0, 2.0, 1.0, 3.0, 2.0]),
                np.array([0.0, 1.0, -1.0, 0.0, 2.0]))


class TestRealizedQV:
    def test_shrinks_on_smooth_path(self):
        spec = make_spec(1.0, 0.5, 0.2, 0.1, 0.3, 0.0, 0.0, 0.0, 0.0,
                         init=InitialLaw("point", y0=0.7, x0=-0.4))
        path = simulate_path(spec, 1.0, 1e-4, scheme="full_euler",
                             rng=RngStream(520))
        est = estimate_diffusion(path)
        assert est.sigma1_sq < 1e-4
        assert abs(est.sigma2_sq_raw) < 1e-4
        assert abs(est.sigma3_sq_raw) < 1e-4

    def test_additive_noise_variation(self):
        # X is a centered random walk with variance 4 dt per step; Y moves
        # deterministically from 0 towards 1
        spec = make_spec(1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0,
                         init=InitialLaw("point", y0=0.0, x0=0.0))
        path = simulate_path(spec, 1.0, 1e-4, scheme="full_euler",
                             rng=RngStream(521))
        est = estimate_diffusion(path)
        # the fit reproduces the realized variation of X over the horizon
        int_y = path.y[:-1].sum() * path.dt
        fitted = est.sigma2_sq_raw * int_y + est.sigma3_sq_raw * 1.0
        assert fitted == pytest.approx(4.0, rel=0.05)
        assert est.sigma3_sq == pytest.approx(4.0, rel=0.1)
        assert est.sigma1_sq < 10 * path.dt

    def test_cross_variation_centered_when_uncoupled(self, stepped_paths):
        spec = make_spec(1.0, 1.0, 0.2, 0.1, 0.5, 0.5, 0.5, 0.1, 0.0,
                         init=InitialLaw("point", y0=1.0, x0=0.0))
        y, x = stepped_paths(spec, 1.0, 0.01, "exact_y_euler_x",
                             RngStream(522), 300)
        qcov = (np.diff(y, axis=1) * np.diff(x, axis=1)).sum(axis=1)
        se = qcov.std(ddof=1) / math.sqrt(qcov.size)
        assert abs(qcov.mean()) < 4.0 * se + 1e-6

    def test_left_point_bookkeeping(self):
        # sum dY^2 = 7 over int Y = 0.5 * 7; the normal equations
        # [[15, 7], [7, 4]] theta = [22, 10] / 0.5 have det 11
        est = estimate_diffusion(HAND)
        assert est.sigma1_sq == 2.0
        assert est.sigma2_sq_raw == pytest.approx(36.0 / 11.0, rel=1e-14)
        assert est.sigma3_sq_raw == pytest.approx(-8.0 / 11.0, rel=1e-14)
        assert est.sigma3_sq == 0.0
        assert est.det_ratio == pytest.approx(11.0 / 60.0, rel=1e-14)
        # sum dY dX = 3
        assert est.rho == pytest.approx(
            3.0 / (math.sqrt(2.0 * 36.0 / 11.0) * 3.5), rel=1e-14)

    def test_two_point_path_is_singular(self):
        # one increment: Y has a single left point
        with pytest.raises(SingularSystem, match="Y is constant"):
            estimate_diffusion(PathGrid(0.0, 1.0, np.array([1.0, 2.0]),
                                        np.array([0.0, 1.0])))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_estimate_invariants(self, seed):
        for path in (HAND, random_path(seed)):
            est = estimate_diffusion(path)
            assert est.sigma1_sq >= 0.0
            assert est.sigma2_sq == max(est.sigma2_sq_raw, 0.0)
            assert est.sigma3_sq == max(est.sigma3_sq_raw, 0.0)
            assert math.isnan(est.rho) or abs(est.rho) <= 1.0
            assert 0.0 < est.det_ratio <= 1.0


class TestDiffusionEstimate:
    def test_sigma1_is_definitional_ratio(self):
        # sum dY^2 = 4 * 0.25 over int Y = 0.8 * 5
        y = np.array([1.0, 1.5, 1.0, 1.5, 1.0])
        path = PathGrid(0.0, 0.8, y, np.array([0.0, 1.0, -1.0, 0.0, 2.0]))
        assert estimate_diffusion(path).sigma1_sq == 0.25

    def test_regression_recovers_affine_variation(self):
        y = 1.0 + 0.5 * np.sin(np.linspace(0.0, 7.0, 301))
        est = estimate_diffusion(affine_path(y, 0.01, 0.5, 0.3))
        assert est.sigma2_sq == pytest.approx(0.5, rel=1e-12)
        assert est.sigma3_sq == pytest.approx(0.3, rel=1e-12)
        assert est.sigma2_sq == est.sigma2_sq_raw
        assert not est.rho_clamped

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_normal_equation_residual_vanishes(self, seed):
        # the residual of (dX)^2/dt on (y, 1) is orthogonal to both
        path = random_path(seed)
        est = estimate_diffusion(path)
        y, v = path.y[:-1], np.diff(path.x) ** 2 / path.dt
        r = v - (est.sigma2_sq_raw * y + est.sigma3_sq_raw)
        assert abs(r @ y) <= 1e-12 * (v @ y)
        assert abs(r.sum()) <= 1e-12 * v.sum()

    def test_det_ratio_is_spread_of_y(self):
        path = random_path(3)
        y = path.y[:-1]
        assert estimate_diffusion(path).det_ratio == pytest.approx(
            y.var() / np.mean(y * y), rel=1e-12)

    def test_rho_clamps_with_flag(self):
        # Y alternates between 1 and 2 and dX = dY (1 + 0.1 y): most of
        # (dX)^2 is fitted by sigma3^2, so the cross term exceeds
        # sqrt(sigma1^2 sigma2^2) int Y
        y = np.where(np.arange(201) % 2, 2.0, 1.0)
        dx = np.diff(y) * (1.0 + 0.1 * y[:-1])
        for sign in (1.0, -1.0):
            x = np.concatenate([[0.0], np.cumsum(sign * dx)])
            est = estimate_diffusion(PathGrid(0.0, 0.01, y, x))
            assert est.rho == sign and est.rho_clamped

    def test_constant_y_raises(self):
        rw = np.concatenate([[0.0], np.cumsum(np.full(60, 0.1))])
        path = PathGrid(0.0, 0.05, np.full(61, 1.5), rw)
        with pytest.raises(SingularSystem, match="Y is constant on the grid"):
            estimate_diffusion(path)

    def test_varying_y_with_equal_half_averages(self):
        # Y varies, but its second half repeats its first; the X increments
        # alternate in sign with (dX)^2 = (0.16*y + 0.09)*dt at each left point
        half = np.linspace(0.5, 2.0, 1000)
        y = np.concatenate([half, half, half[:1]])
        est = estimate_diffusion(affine_path(y, 0.01, 0.16, 0.09))
        assert est.sigma2_sq == pytest.approx(0.16, rel=1e-9)
        assert est.sigma3_sq == pytest.approx(0.09, rel=1e-9)

    def test_vanishing_y_integral_raises(self):
        path = PathGrid(0.0, 0.1, np.zeros(20), np.linspace(0.0, 1.0, 20))
        with pytest.raises(ValueError):
            estimate_diffusion(path)

    @pytest.mark.parametrize("init", [
        InitialLaw("point", y0=20.0, x0=0.0), InitialLaw("stationary"),
    ], ids=["y0=20", "stationary"])
    def test_recovers_simulated_coefficients(self, stepped_paths, init):
        # The regression of (dX)^2 on (Y dt, dt) needs only that Y varies
        # on the grid, so a transient start (y0 far above a/b) and a path
        # near equilibrium both identify (sigma2^2, sigma3^2). Per-path
        # noise still sits at a few percent, so the 5% check is on the
        # 20-path average.
        spec = make_spec(1.0, 1.0, 0.2, 0.1, 0.5, 0.6, 0.4, 0.3, 0.5,
                         init=init)
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
        text = estimate_diffusion(HAND).to_text()
        keys = [line.split(" = ")[0] for line in text.splitlines()]
        assert keys == ["sigma1_sq", "sigma2_sq", "sigma3_sq", "rho",
                        "rho_clamped", "det_ratio"]
        assert "rho_clamped = no" in text
        assert "sigma3_sq = 0 (raw " in text
        assert text.endswith("\n")

    def test_estimate_type(self):
        assert isinstance(estimate_diffusion(HAND), DiffusionEstimate)
