"""Drift estimation: normal equations, back-transform, continuous variant."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from affine2f import simulate
from affine2f.errors import OutOfDomain, SingularGram
from affine2f.estimators import (
    COND_LIMIT,
    TransformedEstimate,
    clse_approx,
    clse_continuous,
    clse_discrete_transformed,
    functionals_from_arrays,
    functionals_from_path,
    gn_forward,
    gn_inverse,
    gram_blocks,
    h_vector,
    solve_continuous,
    solve_gated,
    target_blocks,
)
from affine2f.model import (
    InitialLaw,
    conditional_mean_x,
    conditional_mean_y,
    make_spec,
)
from affine2f.rng import RngStream
from affine2f.simulate import PathGrid, simulate_path

THETA = (1.0, 0.5, 0.2, 0.1, 0.3)


def noiseless_spec():
    return make_spec(*THETA, 0.0, 0.0, 0.0, 0.0,
                     init=InitialLaw("point", y0=0.7, x0=-0.4))


@pytest.fixture(scope="module")
def ode_path():
    # zero noise, so the Euler recursion IS the fitted linear model
    return simulate_path(noiseless_spec(), T=5.0, dt=1e-4,
                         scheme="full_euler", rng=RngStream(4101))


@pytest.fixture(scope="module")
def noisy_path(ref_spec):
    return simulate_path(ref_spec, T=5.0, dt=0.01, rng=RngStream(4102))


class TestDiscreteTransformed:
    def test_doubling_toy_series_is_exact(self):
        # dY = (1, 2, 4) against Y = (1, 2, 4): slope -1, intercept 0
        path = PathGrid(0.0, 1.0, np.array([1.0, 2.0, 4.0, 8.0]),
                        np.array([5.0, 7.0, 9.0, 20.0]))
        te = clse_discrete_transformed(path)
        # zero residual with integer data admits no rounding at all
        assert te.c == 0.0
        assert te.d == -1.0
        # three X increments pin down three coefficients
        assert te.cond2 < 1e4
        assert np.isfinite([te.delta, te.epsilon, te.zeta]).all()
        assert te.n == 1.0

    def test_x_block_failure_blocks_back_transform(self):
        # two X increments cannot pin down three coefficients, so the
        # fit refuses the path before any back-transform
        path = PathGrid(0.0, 1.0, np.array([1.0, 2.0, 4.0]),
                        np.array([5.0, 7.0, 9.0]))
        with pytest.raises(SingularGram, match="X") as info:
            clse_discrete_transformed(path)
        assert info.value.cond > 1e16

    def test_constant_y_raises(self):
        path = PathGrid(0.0, 0.5, np.full(20, 2.0), np.linspace(0.0, 3.0, 20))
        with pytest.raises(SingularGram) as info:
            clse_discrete_transformed(path)
        assert info.value.cond is not None

    def test_too_short_and_bad_stride(self, noisy_path):
        two = PathGrid(0.0, 1.0, np.array([1.0, 2.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            clse_discrete_transformed(two)
        with pytest.raises(ValueError):
            clse_discrete_transformed(noisy_path, stride=0)
        with pytest.raises(ValueError):
            # thinning down to fewer than 3 points
            clse_discrete_transformed(noisy_path, stride=len(noisy_path))

    @pytest.mark.parametrize("stride", [1, 3])
    def test_matches_tall_least_squares(self, noisy_path, stride):
        """Normal equations agree with QR on the raw design matrix."""
        te = clse_discrete_transformed(noisy_path, stride=stride)
        y = noisy_path.y[::stride]
        x = noisy_path.x[::stride]
        ones = np.ones(y.size - 1)
        ref1, *_ = np.linalg.lstsq(np.column_stack([ones, -y[:-1]]),
                                   np.diff(y), rcond=None)
        ref2, *_ = np.linalg.lstsq(np.column_stack([ones, -y[:-1], -x[:-1]]),
                                   np.diff(x), rcond=None)
        np.testing.assert_allclose([te.c, te.d], ref1, rtol=1e-9)
        np.testing.assert_allclose([te.delta, te.epsilon, te.zeta], ref2,
                                   rtol=1e-9)

    @pytest.mark.parametrize("log_cond", [0, 3, 6, 9, 11])
    def test_three_by_three_solve_matches_gelsy(self, log_cond):
        # scipy's rank-revealing gelsy least squares is the outside oracle.
        # Any two backward-stable solvers part by up to about cond * eps,
        # so the bound is 1e-10 until 10 * cond * eps passes it
        rng = np.random.default_rng(log_cond)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            G = (q * np.logspace(0, -log_cond, 3)) @ q.T
            G = (G + G.T) / 2.0
            rhs = G @ rng.standard_normal(3)
            got, cond = solve_gated(G, rhs)
            want = scipy.linalg.lstsq(G, rhs, lapack_driver="gelsy")[0]
            tol = max(1e-10, 10.0 * cond * np.finfo(float).eps)
            assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)

    def test_path_gram_solve_matches_gelsy(self, noisy_path):
        te = clse_discrete_transformed(noisy_path)
        rhs = np.random.default_rng(5).standard_normal(3)
        got, _ = solve_gated(te.gram2, rhs)
        want = scipy.linalg.lstsq(te.gram2, rhs, lapack_driver="gelsy")[0]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("stride", [1, 3])
    def test_is_the_unit_step_integral_solve(self, noisy_path, monkeypatch,
                                             stride):
        # short segments, so the segment-wise sums differ from plain ones
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 7)
        te = clse_discrete_transformed(noisy_path, stride=stride)
        fn = functionals_from_arrays(noisy_path.y[::stride],
                                     noisy_path.x[::stride], 1.0)
        assert (len(noisy_path) - 1) // stride > 10 * simulate.BLOCK_STEPS
        theta, cond1, cond2 = solve_continuous(fn)
        got = np.array([te.c, te.d, te.delta, te.epsilon, te.zeta])
        np.testing.assert_array_equal(got, theta)
        assert (te.cond1, te.cond2) == (cond1, cond2)
        g1, g2 = gram_blocks(fn)
        np.testing.assert_array_equal(te.gram1, g1)
        np.testing.assert_array_equal(te.gram2, g2)

    def test_stride_equals_thinned_path(self, noisy_path):
        te_a = clse_discrete_transformed(noisy_path, stride=4)
        kept = (len(noisy_path) - 1) // 4 * 4 + 1
        thin = PathGrid(noisy_path.t0, 4 * noisy_path.dt,
                        noisy_path.y[:kept:4], noisy_path.x[:kept:4])
        te_b = clse_discrete_transformed(thin)
        assert (te_a.c, te_a.d, te_a.delta, te_a.epsilon, te_a.zeta) == (
            te_b.c, te_b.d, te_b.delta, te_b.epsilon, te_b.zeta)
        assert te_a.n == te_b.n

    def test_gram_blocks_positive_definite(self, noisy_path):
        te = clse_discrete_transformed(noisy_path)
        assert np.linalg.eigvalsh(te.gram1).min() > 0.0
        assert np.linalg.eigvalsh(te.gram2).min() > 0.0

    def test_perfect_fit_on_euler_recursion(self, ode_path):
        """Without noise every increment is exactly linear in the state."""
        est = clse_approx(clse_discrete_transformed(ode_path))
        assert est.source == "approximate"
        np.testing.assert_allclose(est.theta_hat, THETA, rtol=1e-9)

    def test_exact_back_transform_bias_is_small(self, ode_path):
        est = gn_inverse(clse_discrete_transformed(ode_path))
        assert est.source == "discrete"
        # the recursion is the Euler map, not the exact transition, so the
        # inverse transform leaves an O(dt) remainder
        np.testing.assert_allclose(est.theta_hat, THETA, rtol=1e-3)

    def test_approx_gap_shrinks_like_one_over_n(self, ref_spec):
        path = simulate_path(ref_spec, T=20.0, dt=1e-3, rng=RngStream(4103))
        gaps = []
        for stride in (2, 1):
            te = clse_discrete_transformed(path, stride=stride)
            gaps.append(np.linalg.norm(clse_approx(te).theta_hat
                                       - gn_inverse(te).theta_hat))
        ratio = gaps[1] / gaps[0]
        assert 0.3 < ratio < 0.7


class TestSolveGated:
    @pytest.mark.parametrize("k", [2, 3])
    def test_stacked_rows_equal_lone_solves(self, k):
        rng = np.random.default_rng(17 + k)
        G = [np.ones((k, k))]  # singular
        rhs = [np.ones(k)]
        if k == 2:
            # criterion 04's toy Y block: a zero-residual integer fit
            G.append(np.array([[2.0, -3.0], [-3.0, 5.0]]))
            rhs.append(np.array([3.0, -5.0]))
        for _ in range(6):
            G.append(rng.standard_normal((k, k)))
            rhs.append(rng.standard_normal(k))
        G, rhs = np.array(G), np.array(rhs)
        x, cond = solve_gated(G, rhs)
        assert x.shape == rhs.shape and cond.shape == (len(G),)
        assert cond[0] > COND_LIMIT and np.isnan(x[0]).all()
        assert np.isfinite(x[1:]).all()
        if k == 2:
            assert x[1].tolist() == [0.0, -1.0]
        for i in range(len(G)):
            alone, cond_alone = solve_gated(G[i], rhs[i])
            np.testing.assert_array_equal(x[i], alone)
            assert cond[i] == cond_alone
        # the random systems against a plain LU solve
        np.testing.assert_allclose(
            x[-6:], np.linalg.solve(G[-6:], rhs[-6:, :, None])[..., 0], rtol=1e-10)

    @pytest.mark.parametrize("k", [2, 3])
    def test_power_of_two_scaling_keeps_cond_and_bits(self, k):
        # S G S, S a diagonal of powers of two, equilibrates to the same
        # D G D bit for bit, so the gate reads the same cond. The solve
        # of S G S y = S f is y = x / S exactly: the adjugate scales
        # exactly, and so does LU while it pivots on the same rows (here
        # G is diagonally dominant and S falls along the diagonal)
        rng = np.random.default_rng(29 + k)
        base = np.diag([4.0, 3.0, 2.0]) + 0.1 * rng.uniform(-1.0, 1.0, (3, 3))
        G, f = (base + base.T)[:k, :k], rng.standard_normal(k)
        x, cond = solve_gated(G, f)
        assert np.isfinite(x).all() and cond < 10.0
        for scale in ([2.0**40, 1.0, 2.0**-40], [2.0**40] * 3, [2.0**-40] * 3,
                      [2.0**7, 2.0**-3, 2.0**-60]):
            S = np.array(scale[:k])
            xs, cond_s = solve_gated(S[:, None] * G * S[None, :], S * f)
            assert cond_s == cond
            np.testing.assert_array_equal(xs * S, x)

    @pytest.mark.parametrize("T, block", [(20.0, 1), (30.0, 0)])
    def test_explosive_path_solves_both_blocks(self, T, block):
        # the supercritical criterion-08 spec: its path integrals grow
        # like e^(2|gamma|T), so the raw condition of one block is past
        # COND_LIMIT (X at T = 20, Y at T = 30) while the system is far
        # from singular
        spec = make_spec(1.0, -0.5, 0.2, 0.0, -1.0, 0.5, 0.3, 0.4, 0.3,
                         init=InitialLaw("point", y0=1.0, x0=0.5))
        path = simulate_path(spec, T, 0.01, rng=RngStream(7, 0))
        est = clse_continuous(path)
        assert np.isfinite(est.theta_hat).all()
        assert max(est.conds) < 1e3
        fn = functionals_from_path(path)
        grams, targets = gram_blocks(fn), target_blocks(fn)
        assert np.linalg.cond(grams[block]) > COND_LIMIT
        # against a 50-digit solve of the same Gram. The error is measured
        # in the equilibrated unknowns D^-1 theta, whose conditioning the
        # gate bounds: a one-ulp change of G already moves the small
        # alpha and beta by about 1e-5 relative at T = 30
        with mpmath.workdps(50):
            for G, f, got in zip(grams, targets,
                                 (est.theta_hat[:2], est.theta_hat[2:])):
                want = np.array([float(v) for v in mpmath.lu_solve(
                    mpmath.matrix(G.tolist()), mpmath.matrix(f.tolist()))])
                w = np.sqrt(np.diagonal(G))
                assert (np.linalg.norm(w * (got - want))
                        <= 1e-10 * np.linalg.norm(w * want))


class TestBackTransform:
    def test_forward_map_reproduces_conditional_means(self, ref_spec):
        n = 12.0
        c, d, delta, eps, zeta = gn_forward(ref_spec, n)
        for y_s, x_s in [(0.3, -1.0), (2.0, 0.5), (0.0, 0.0)]:
            assert c + (1.0 - d) * y_s == pytest.approx(
                conditional_mean_y(ref_spec, y_s, 1.0 / n), rel=1e-14)
            assert delta - eps * y_s + (1.0 - zeta) * x_s == pytest.approx(
                conditional_mean_x(ref_spec, y_s, x_s, 1.0 / n), rel=1e-14)

    @given(
        a=st.floats(0.0, 5.0),
        alpha=st.floats(-5.0, 5.0),
        beta=st.floats(-3.0, 3.0),
        ub=st.floats(-9.9, 9.9),
        ug=st.floats(-9.9, 9.9),
        n=st.sampled_from([1.0, 4.0, 250.0]),
    )
    @settings(max_examples=200)
    def test_round_trip(self, a, alpha, beta, ub, ug, n):
        # ub, ug are the per-step decay exponents b/n, gamma/n
        spec = make_spec(a, ub * n, alpha, beta, ug * n, 1.0, 1.0, 1.0, 0.0)
        c, d, delta, eps, zeta = gn_forward(spec, n)
        te = TransformedEstimate(c, d, delta, eps, zeta,
                                 np.eye(2), np.eye(3), n, 1.0, 1.0)
        back = gn_inverse(te)
        assert back.n == n
        # the alpha component re-derives a cancelled sum, which costs up to
        # ulp(a*beta*i2)/psi(gamma) in absolute terms at the box corners
        np.testing.assert_allclose(
            back.theta_hat,
            [spec.a, spec.b, spec.alpha, spec.beta, spec.gamma],
            rtol=1e-12, atol=2e-11)

    def test_round_trip_at_zero_rates(self):
        spec = make_spec(1.3, 0.0, -0.7, 2.0, 0.0, 1.0, 1.0, 1.0, 0.0)
        te = TransformedEstimate(*gn_forward(spec, 10.0),
                                 np.eye(2), np.eye(3), 10.0, 1.0, 1.0)
        np.testing.assert_allclose(
            gn_inverse(te).theta_hat, [1.3, 0.0, -0.7, 2.0, 0.0],
            rtol=1e-13, atol=1e-15)

    def test_out_of_domain(self):
        te = TransformedEstimate(0.5, 1.5, 0.1, 0.1, 0.2,
                                 np.eye(2), np.eye(3), 1.0, 1.0, 1.0)
        with pytest.raises(OutOfDomain):
            gn_inverse(te)
        te = TransformedEstimate(0.5, 0.2, 0.1, 0.1, 1.0,
                                 np.eye(2), np.eye(3), 1.0, 1.0, 1.0)
        with pytest.raises(OutOfDomain):
            gn_inverse(te)


class TestContinuous:
    def test_ito_sum_identity(self, noisy_path):
        """sum y dy telescopes against the squared endpoints."""
        fn = functionals_from_path(noisy_path)
        y, x = noisy_path.y, noisy_path.x
        assert fn.sums[1, 0, "y"] == pytest.approx(
            (y[-1] ** 2 - y[0] ** 2) / 2.0 - 0.5 * np.sum(np.diff(y) ** 2),
            rel=1e-12)
        assert fn.sums[0, 1, "x"] == pytest.approx(
            (x[-1] ** 2 - x[0] ** 2) / 2.0 - 0.5 * np.sum(np.diff(x) ** 2),
            rel=1e-12)

    def test_recovers_noiseless_dynamics(self, ode_path):
        est = clse_continuous(ode_path)
        assert est.source == "continuous"
        assert est.n is None
        np.testing.assert_allclose(est.theta_hat, THETA, rtol=1e-3)
        g1, g2 = est.gram_cont
        assert np.linalg.eigvalsh(g1).min() > 0.0
        assert np.linalg.eigvalsh(g2).min() > 0.0

    def test_estimation_error_is_gram_inverse_times_h(self, ref_spec,
                                                      noisy_path):
        est = clse_continuous(noisy_path)
        h = h_vector(noisy_path, ref_spec)
        g1, g2 = est.gram_cont
        err = np.concatenate([np.linalg.solve(g1, h[:2]),
                              np.linalg.solve(g2, h[2:])])
        theta = np.array([ref_spec.a, ref_spec.b, ref_spec.alpha,
                          ref_spec.beta, ref_spec.gamma])
        np.testing.assert_allclose(est.theta_hat - theta, err,
                                   rtol=1e-10, atol=1e-12)

    def test_y_block_ignores_x(self, noisy_path):
        warped = PathGrid(noisy_path.t0, noisy_path.dt, noisy_path.y,
                          2.0 * noisy_path.x + 1.0)
        a = clse_continuous(noisy_path)
        b = clse_continuous(warped)
        assert a.theta_hat[0] == b.theta_hat[0]
        assert a.theta_hat[1] == b.theta_hat[1]
        ta = clse_discrete_transformed(noisy_path)
        tb = clse_discrete_transformed(warped)
        assert (ta.c, ta.d) == (tb.c, tb.d)

    def test_singular_path_raises(self):
        path = PathGrid(0.0, 0.1, np.full(50, 1.5), np.arange(50.0))
        with pytest.raises(SingularGram):
            clse_continuous(path)

    def test_batched_solver_matches_scalar(self, ref_spec):
        paths = [simulate_path(ref_spec, 3.0, 0.01, rng=RngStream(4104, s))
                 for s in range(3)]
        y = np.stack([p.y for p in paths])
        x = np.stack([p.x for p in paths])
        theta, c1, c2 = solve_continuous(functionals_from_arrays(y, x, 0.01))
        assert theta.shape == (3, 5) and c1.shape == (3,)
        for i, p in enumerate(paths):
            np.testing.assert_allclose(theta[i], clse_continuous(p).theta_hat,
                                       rtol=1e-13)

    def test_stacked_reduction_matches_each_path_bitwise(self, ref_spec,
                                                         monkeypatch,
                                                         same_functionals):
        # two 200-step segments, long enough for numpy's pairwise sum to
        # recurse, and a 100-step tail
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 200)
        paths = [simulate_path(ref_spec, 5.0, 0.01, rng=RngStream(4107, s))
                 for s in range(3)]
        stacked = functionals_from_arrays(np.stack([p.y for p in paths]),
                                          np.stack([p.x for p in paths]), 0.01)
        for i, p in enumerate(paths):
            same_functionals(stacked, functionals_from_path(p), row=i)

    @pytest.mark.parametrize("rows", [None, 1, 2, 3, 256])
    def test_sums_run_left_to_right_at_every_width(self, rows):
        # 300 steps: one segment, long enough for a pairwise sum to recurse
        rng = np.random.default_rng(4108)
        shape = (300,) if rows is None else (rows, 300)
        y = rng.standard_normal(shape).cumsum(axis=-1)
        x = rng.standard_normal(shape).cumsum(axis=-1)
        fn = functionals_from_arrays(y, x, 0.01)

        def left_to_right(terms):
            total = terms[..., 0]
            for k in range(1, terms.shape[-1]):
                total = total + terms[..., k]
            return total

        yl, xl = y[..., :-1], x[..., :-1]
        dy, dx = np.diff(y, axis=-1), np.diff(x, axis=-1)
        want = {
            (1, 0, "t"): left_to_right(yl) * 0.01,
            (2, 0, "t"): left_to_right(yl * yl) * 0.01,
            (0, 1, "t"): left_to_right(xl) * 0.01,
            (1, 1, "t"): left_to_right(xl * yl) * 0.01,
            (0, 2, "t"): left_to_right(xl * xl) * 0.01,
            (1, 0, "y"): left_to_right(yl * dy),
            (1, 0, "x"): left_to_right(yl * dx),
            (0, 1, "x"): left_to_right(xl * dx),
            (0, 1, "y"): left_to_right(xl * dy),
        }
        # a key of the table without an oracle here fails
        assert fn.sums.keys() == want.keys()
        for key, value in want.items():
            assert np.array_equal(fn.sums[key], value), key

    @pytest.mark.parametrize("rows", [1, 2, 256])
    def test_unstored_entries_are_horizon_and_increments(self, rows):
        rng = np.random.default_rng(4109)
        y = rng.standard_normal((rows, 300)).cumsum(axis=-1)
        x = rng.standard_normal((rows, 300)).cumsum(axis=-1)
        fn = functionals_from_arrays(y, x, 0.01)
        want = {"t": np.full(rows, 299 * 0.01), "y": y[:, -1] - y[:, 0],
                "x": x[:, -1] - x[:, 0]}
        for d, value in want.items():
            got = fn.sum(0, 0, d)
            assert (0, 0, d) not in fn.sums
            assert got.shape == value.shape and got.dtype == value.dtype
            assert got.tobytes() == value.tobytes(), d  # sign bits too

    def test_batched_solver_skips_degenerate_rows(self, ref_spec):
        good = simulate_path(ref_spec, 3.0, 0.01, rng=RngStream(4105))
        y = np.stack([good.y, np.full_like(good.y, 2.0)])
        x = np.stack([good.x, good.x])
        theta, c1, _ = solve_continuous(functionals_from_arrays(y, x, 0.01))
        assert np.isfinite(theta[0]).all()
        assert np.isnan(theta[1]).all()
        assert not c1[1] <= 1e12


class TestHVector:
    def test_vanishes_without_noise(self, ode_path):
        spec = noiseless_spec()
        h = h_vector(ode_path, spec)
        assert np.abs(h).max() < 1e-6

    def test_mean_zero_over_replications(self, ref_spec, stepped_paths):
        T, dt, reps = 1.0, 0.01, 3000
        y, x = stepped_paths(ref_spec, T, dt, "exact_y_euler_x",
                             RngStream(4106), reps)
        fn = functionals_from_arrays(y, x, dt)
        g1, g2 = gram_blocks(fn)
        f1, f2 = target_blocks(fn)
        th1 = np.array([ref_spec.a, ref_spec.b])
        th2 = np.array([ref_spec.alpha, ref_spec.beta, ref_spec.gamma])
        h = np.concatenate([f1 - np.einsum("rij,j->ri", g1, th1),
                            f2 - np.einsum("rij,j->ri", g2, th2)], axis=1)
        mean = h.mean(axis=0)
        half_width = 4.0 * h.std(axis=0, ddof=1) / math.sqrt(reps)
        assert (np.abs(mean) < half_width + 1e-4).all()
