import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from affine2f import simulate
from affine2f.model import InitialLaw, ModelSpec, make_spec
from affine2f.moments import (
    laplace_y,
    stationary_moments,
    stationary_y_gamma_params,
)
from affine2f.rng import RngStream
from affine2f.simulate import (
    PathGrid,
    sample_cir_transition,
    simulate_ensemble,
    simulate_path,
    stationary_init,
)


def within_mc_error(sample, target, factor=4.0):
    se = sample.std(ddof=1) / math.sqrt(sample.size)
    return abs(sample.mean() - target) <= factor * se


def assert_ensemble_replays(path, stepped_paths, spec, T, dt, scheme, rng):
    """A one-path ensemble on rng is path at every grid point, end included."""
    y, x = stepped_paths(spec, T, dt, scheme, rng, 1)
    assert_array_equal(y[0], path.y)
    assert_array_equal(x[0], path.x)
    ens = simulate_ensemble(spec, T, dt, scheme, rng, 1)
    assert (ens.y_end[0], ens.x_end[0]) == (path.y[-1], path.x[-1])


class TestPathGrid:
    def test_basic_properties(self):
        p = PathGrid(0.0, 0.5, np.array([1.0, 2.0, 0.0]), np.array([0.0, -1.0, 3.0]))
        assert len(p) == 3
        assert p.horizon == 1.0
        assert_array_equal(p.t, [0.0, 0.5, 1.0])

    def test_rejects_negative_y(self):
        with pytest.raises(ValueError, match="negative Y"):
            PathGrid(0.0, 0.5, np.array([1.0, -2.0]), np.array([0.0, 1.0]))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="size >= 2"):
            PathGrid(0.0, 0.5, np.array([1.0]), np.array([0.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            PathGrid(0.0, 0.5, np.zeros(3), np.zeros(4))


class TestCirTransition:
    def test_absorbing_state(self):
        gen = RngStream(0).generator(0)
        assert all(
            sample_cir_transition(0.0, 0.7, 1.0, 0.0, 0.5, gen) == 0.0 for _ in range(50)
        )

    def test_rejects_zero_sigma1(self):
        with pytest.raises(ValueError, match="sigma1"):
            sample_cir_transition(1.0, 1.0, 0.0, 1.0, 0.5, RngStream(0).generator(0))

    def test_rejects_bad_dt_and_state(self):
        gen = RngStream(0).generator(0)
        with pytest.raises(ValueError, match="dt"):
            sample_cir_transition(1.0, 1.0, 1.0, 1.0, 0.0, gen)
        with pytest.raises(ValueError, match="y_s"):
            sample_cir_transition(1.0, 1.0, 1.0, -0.1, 0.5, gen)

    @pytest.mark.parametrize("a, b, sigma1, y0", [
        (1.0, 1.0, 0.5, 1.0),  # Feller: df = 16
        (0.1, 1.0, 1.0, 0.0),  # non-Feller from 0: df = 0.4
        (0.0, 0.7, 1.0, 0.5),  # a = 0: absorbed at 0 within a few steps
    ])
    def test_draw_identities_of_both_stepping_loops(self, a, b, sigma1, y0):
        # simulate_path draws a block of normals in one call and walks
        # exact Y; _step's shared-stream form draws one step at a time
        def gen():
            return RngStream(31, 2).generator(0)

        g = gen()
        block = np.concatenate([g.standard_normal(7), g.standard_normal(5)])
        g = gen()
        assert_array_equal(block, [g.standard_normal() for _ in range(12)])

        m = 200
        kernel = simulate._CirKernel(a, b, sigma1, 0.1)
        walked = kernel.walk(y0, m, gen())
        for y, g in ((y0, gen()), (np.array([y0]), gen())):
            drawn = []
            for _ in range(m):
                y = kernel.draw(y, g)
                drawn.append(float(np.ravel(y)[0]))
            assert_array_equal(walked, drawn)
        if a == 0.0:
            assert walked[-1] == 0.0
        assert walked[0] == sample_cir_transition(a, b, sigma1, y0, 0.1, gen())

    def test_mean_matches_conditional_mean(self):
        # one-step ensemble: T = dt, so y_end is one exact transition
        spec = make_spec(1, 1, 0, 0, 1, 1.0, 0, 0, 0, InitialLaw("point", 1.0, 0.0))
        res = simulate_ensemble(spec, 1.0, 1.0, rng=RngStream(101), n_paths=100_000)
        assert within_mc_error(res.y_end, 1.0)

    def test_laplace_transform(self):
        spec = make_spec(1, 0.5, 0, 0, 1, 0.8, 0, 0, 0, InitialLaw("point", 2.0, 0.0))
        res = simulate_ensemble(spec, 0.7, 0.7, rng=RngStream(202), n_paths=100_000)
        target = laplace_y(spec, 0.7, 1.0, 2.0)
        assert within_mc_error(np.exp(-res.y_end), target)


class TestSimulatePath:
    def test_zero_noise_is_exact_ode(self):
        spec = make_spec(0, 0, 1.0, 0, 0, 0, 0, 0, 0, InitialLaw("point", 0.5, -2.0))
        for scheme in ("exact_y_euler_x", "full_euler"):
            p = simulate_path(spec, 3.0, 0.25, scheme, RngStream(7))
            assert_array_equal(p.y, np.full(13, 0.5))
            assert_allclose(p.x[-1], 1.0, atol=1e-12)

    def test_grid_size_and_bounds(self, ref_spec):
        p = simulate_path(ref_spec, 1.0, 0.1, rng=RngStream(1))
        assert len(p) == 11
        with pytest.raises(ValueError, match="shorter"):
            simulate_path(ref_spec, 0.05, 0.1, rng=RngStream(1))
        with pytest.raises(ValueError, match="dt"):
            simulate_path(ref_spec, 1.0, -0.1, rng=RngStream(1))
        with pytest.raises(ValueError, match="scheme"):
            simulate_path(ref_spec, 1.0, 0.1, "milstein", RngStream(1))

    def test_deterministic_replay(self, ref_spec):
        a = simulate_path(ref_spec, 2.0, 0.01, rng=RngStream(42, 3))
        b = simulate_path(ref_spec, 2.0, 0.01, rng=RngStream(42, 3))
        c = simulate_path(ref_spec, 2.0, 0.01, rng=RngStream(42, 4))
        assert_array_equal(a.y, b.y)
        assert_array_equal(a.x, b.x)
        assert not np.array_equal(a.x, c.x)
        assert a.seed_record and "42" in a.seed_record

    def test_full_truncation_keeps_y_nonnegative(self):
        # tiny level, heavy noise: the internal state dips negative often
        spec = make_spec(0.05, 0.2, 0, 0.5, 0.3, 1.2, 0.4, 0.2, 0.2,
                         InitialLaw("point", 0.01, 0.0))
        p = simulate_path(spec, 5.0, 0.01, "full_euler", RngStream(9))
        assert np.all(p.y >= 0.0)

    def test_euler_mean_converges_to_oracle(self):
        from affine2f.model import conditional_mean_y

        spec = make_spec(1, 1, 0, 0, 1, 1.0, 0, 0, 0, InitialLaw("point", 1.0, 0.0))
        res = simulate_ensemble(
            spec, 1.0, 1e-3, "full_euler", RngStream(303), n_paths=10_000
        )
        assert within_mc_error(res.y_end, conditional_mean_y(spec, 1.0, 1.0))

    def test_sigma1_zero_still_correlates_x(self):
        # Y is deterministic but W must keep driving X through rho
        spec = make_spec(1.0, 0.5, 0, 0, 0.3, 0.0, 0.7, 0, 1.0,
                         InitialLaw("point", 1.0, 0.0))
        p = simulate_path(spec, 1.0, 0.01, rng=RngStream(11))
        q = simulate_path(spec, 1.0, 0.01, rng=RngStream(12))
        assert_allclose(p.y, q.y)  # same ODE
        assert not np.array_equal(p.x, q.x)  # different W draws


class TestEnsembleConsistency:
    @pytest.mark.parametrize("scheme", ["exact_y_euler_x", "full_euler"])
    def test_single_path_bit_identity(self, ref_spec, scheme, stepped_paths):
        stream = RngStream(54321, 17)
        path = simulate_path(ref_spec, 2.0, 0.01, scheme, stream)
        assert_ensemble_replays(path, stepped_paths, ref_spec, 2.0, 0.01,
                                scheme, stream)

    def test_single_path_bit_identity_sigma1_zero(self, stepped_paths):
        spec = make_spec(1.0, 0.5, 0.2, 0.1, 0.3, 0.0, 0.7, 0.2, 0.4,
                         InitialLaw("point", 1.0, 0.0))
        path = simulate_path(spec, 1.0, 0.05, rng=RngStream(88))
        assert_ensemble_replays(path, stepped_paths, spec, 1.0, 0.05,
                                "exact_y_euler_x", RngStream(88))

    @pytest.mark.parametrize("kind", ["stationary-y", "stationary"])
    def test_single_path_bit_identity_stationary_init(self, ref_spec, kind,
                                                      stepped_paths):
        spec = ModelSpec(ref_spec.drift, ref_spec.diffusion,
                         InitialLaw(kind, x0=0.3, burn_in=2.0))
        path = simulate_path(spec, 1.0, 0.05, rng=RngStream(99))
        assert_ensemble_replays(path, stepped_paths, spec, 1.0, 0.05,
                                "exact_y_euler_x", RngStream(99))

    def test_paths_differ_across_ensemble(self, ref_spec):
        ens = simulate_ensemble(ref_spec, 1.0, 0.1, rng=RngStream(5), n_paths=8)
        assert len(np.unique(ens.y_end)) == 8


class TestNoiseBlocks:
    """Runs that cross many time blocks still replay the scalar engine."""

    @pytest.mark.parametrize("case", ["exact", "euler", "sigma1_zero", "stationary"])
    def test_single_path_bit_identity_across_blocks(self, ref_spec, case, monkeypatch,
                                                    stepped_paths):
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 3)
        scheme = "full_euler" if case == "euler" else "exact_y_euler_x"
        spec = ref_spec
        if case == "sigma1_zero":
            spec = make_spec(1.0, 0.5, 0.2, 0.1, 0.3, 0.0, 0.7, 0.2, 0.4,
                             InitialLaw("point", 1.0, 0.0))
        elif case == "stationary":
            # the burn-in leg crosses blocks too
            spec = ModelSpec(ref_spec.drift, ref_spec.diffusion,
                             InitialLaw("stationary", burn_in=0.5))
        path = simulate_path(spec, 1.0, 0.01, scheme, RngStream(31, 2))
        assert_ensemble_replays(path, stepped_paths, spec, 1.0, 0.01, scheme,
                                RngStream(31, 2))

    @pytest.mark.parametrize("scheme", ["exact_y_euler_x", "full_euler"])
    def test_block_size_never_changes_ensembles(self, ref_spec, scheme, monkeypatch,
                                                stepped_paths):
        whole = stepped_paths(ref_spec, 1.0, 0.01, scheme, RngStream(32), 5)
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 7)
        split = stepped_paths(ref_spec, 1.0, 0.01, scheme, RngStream(32), 5)
        assert_array_equal(split[0], whole[0])
        assert_array_equal(split[1], whole[1])


class TestAbsentNoiseSources:
    """The block-wide X term leaves out exactly the sources simulate_path skips."""

    # (sigma2, sigma3, rho): no L, no B, sigma2 = 0 (so no B), neither B nor L
    CASES = {
        "no_l": (0.4, 0.0, -0.35),
        "no_b": (0.4, 0.25, -1.0),
        "sigma2_zero": (0.0, 0.25, -0.35),
        "no_b_no_l": (0.4, 0.0, 1.0),
    }

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 3)
        monkeypatch.setattr(simulate, "WIDE_ROWS", 2)

    def spec(self, case):
        sigma2, sigma3, rho = self.CASES[case]
        return make_spec(1.2, 1.0, 0.5, -0.3, 0.8, 0.6, sigma2, sigma3, rho,
                         InitialLaw("point", 0.7, -0.4))

    @pytest.mark.parametrize("scheme", ["exact_y_euler_x", "full_euler"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_ensemble_row_replays_scalar(self, case, scheme, stepped_paths):
        spec = self.spec(case)
        path = simulate_path(spec, 0.5, 0.01, scheme, RngStream(61, 3))
        assert_ensemble_replays(path, stepped_paths, spec, 0.5, 0.01, scheme,
                                RngStream(61, 3))

    @pytest.mark.parametrize("scheme", ["exact_y_euler_x", "full_euler"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_per_stream_rows_replay_scalar(self, case, scheme):
        spec = self.spec(case)
        streams = [RngStream(62, k) for k in range(5)]
        y = np.empty((5, 51))
        x = np.empty((5, 51))
        lo = {}
        for rows, yb, xb in simulate.euler_paths_per_stream(spec, 0.5, 0.01,
                                                            scheme, streams):
            c = lo.get(rows.start, 0)
            y[rows, c : c + yb.shape[1]] = yb
            x[rows, c : c + xb.shape[1]] = xb
            lo[rows.start] = c + yb.shape[1] - 1
        assert sorted(lo) == [0, 2, 4]  # three batches of WIDE_ROWS rows
        for r, s in enumerate(streams):
            path = simulate_path(spec, 0.5, 0.01, scheme, s)
            assert_array_equal(y[r], path.y)
            assert_array_equal(x[r], path.x)

    @pytest.mark.parametrize("scheme", ["exact_y_euler_x", "full_euler"])
    def test_per_stream_blocks_are_uncopied_views(self, scheme):
        # the reduction sums time-major blocks, so none is transposed
        # into a copy on the way
        streams = [RngStream(63, k) for k in range(5)]
        for _, yb, xb in simulate.euler_paths_per_stream(
                self.spec("no_l"), 0.5, 0.01, scheme, streams):
            for block in (yb, xb):
                assert block.base is not None and block.T.flags.c_contiguous


class TestPerStreamStarts:
    """Per-stream batches draw their starts as one batch, through the stepper."""

    SPEC_ARGS = (1.2, 1.0, 0.5, -0.3, 0.8, 0.6, 0.4, 0.25, -0.35)

    def starts(self, spec, streams):
        return {rows.start: (y[:, 0].copy(), x[:, 0].copy())
                for rows, y, x in simulate.euler_paths_per_stream(
                    spec, 0.05, 0.01, "full_euler", streams)}

    def test_stationary_batch_never_calls_the_scalar_engine(self, monkeypatch):
        spec = make_spec(*self.SPEC_ARGS, InitialLaw("stationary", burn_in=0.5))

        def scalar(*args, **kwargs):
            raise AssertionError("a start went through simulate_path")

        monkeypatch.setattr(simulate, "simulate_path", scalar)
        starts = self.starts(spec, [RngStream(64, k) for k in range(4)])
        assert len(starts[0][0]) == 4

    def test_rows_equal_the_scalar_reference_burn_in(self, monkeypatch):
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 7)  # the leg crosses blocks
        monkeypatch.setattr(simulate, "WIDE_ROWS", 3)
        spec = make_spec(*self.SPEC_ARGS, InitialLaw("stationary", burn_in=0.5))
        streams = [RngStream(65, k) for k in range(5)]
        starts = self.starts(spec, streams)
        assert sorted(starts) == [0, 3]
        y0 = np.concatenate([starts[0][0], starts[3][0]])
        x0 = np.concatenate([starts[0][1], starts[3][1]])
        shape, rate = stationary_y_gamma_params(spec)
        x_eq = stationary_moments(spec, 0, 1).get(0, 1)
        for r, s in enumerate(streams):
            y_r = s.generator(3).gamma(shape, 1.0 / rate)
            point = make_spec(*self.SPEC_ARGS, InitialLaw("point", y_r, x_eq))
            leg = simulate_path(point, 0.5, 0.01, "exact_y_euler_x", s.spawn(0))
            assert len(leg) > 7
            assert (y0[r], x0[r]) == (leg.y[-1], leg.x[-1])

    def test_path_starts_at_stationary_init_of_its_own_stream(self):
        # substream 3 and spawn(0) of the path's stream itself, as
        # stationary_init draws them
        spec = make_spec(*self.SPEC_ARGS, InitialLaw("stationary", burn_in=0.5))
        s = RngStream(66, 4)
        path = simulate_path(spec, 0.05, 0.01, rng=s)
        assert (path.y[0], path.x[0]) == stationary_init(spec, 0.5, 0.01, s)


class TestSharedStreamStarts:
    """Rows that share one stream draw their starts as one batch on it."""

    @pytest.mark.parametrize("kind", ["stationary-y", "stationary"])
    def test_rows_equal_an_explicit_construction(self, monkeypatch, kind):
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 7)  # the leg crosses blocks
        spec = make_spec(*TestPerStreamStarts.SPEC_ARGS,
                         InitialLaw(kind, x0=0.3, burn_in=0.5))
        rng = RngStream(67)
        y0, x0 = simulate._start(spec, 0.01, rng, 5)
        shape, rate = stationary_y_gamma_params(spec)
        want_y = rng.generator(3).gamma(shape, 1.0 / rate, 5)
        want_x = np.full(5, 0.3)
        if kind == "stationary":
            x_eq = stationary_moments(spec, 0, 1).get(0, 1)
            leg = list(simulate._step(spec, 0.5, 0.01, "exact_y_euler_x",
                                      rng.spawn(0), want_y, np.full(5, x_eq)))
            assert len(leg) > 1
            want_y, want_x = leg[-1][0][-1], leg[-1][1][-1]
        assert_array_equal(y0, want_y)
        assert_array_equal(x0, want_x)


class TestCriticalLimitProcess:
    def test_zero_level_is_deterministic(self, aux_path):
        p = aux_path(0.0, 0.7, 1.0, 0.5, 0.2, 0.01, RngStream(3))
        assert_array_equal(p.y, np.zeros(101))
        assert_allclose(p.x, 0.7 * p.t, atol=1e-12)

    def test_unit_horizon(self, aux_path):
        p = aux_path(1.0, 0.0, 1.0, 1.0, 0.0, 0.02, RngStream(4))
        assert_allclose(p.horizon, 1.0)

    def test_mean_level(self, aux_path):
        # E(Y_1) = a and E(X_1) = alpha for the auxiliary pair
        ys = np.empty(2000)
        xs = np.empty(2000)
        for r in range(2000):
            p = aux_path(0.8, -0.3, 0.9, 0.6, 0.4, 0.01, RngStream(777, r))
            ys[r], xs[r] = p.y[-1], p.x[-1]
        assert within_mc_error(ys, 0.8)
        assert within_mc_error(xs, -0.3)


class TestStationaryInit:
    def test_rejects_bad_specs(self, ref_spec):
        crit = make_spec(1, 0, 0.5, 0, 1, 0.6, 0.4, 0.25, 0.0)
        with pytest.raises(ValueError, match="subcritical"):
            stationary_init(crit, 1.0, 0.01, RngStream(0))
        nless = make_spec(1, 1, 0.5, 0, 1, 0.0, 0.4, 0.25, 0.0)
        with pytest.raises(ValueError, match="sigma1"):
            stationary_init(nless, 1.0, 0.01, RngStream(0))
        with pytest.raises(ValueError, match="burn_in"):
            stationary_init(ref_spec, -2.0, 0.01, RngStream(0))

    def test_y_marginal_moments(self):
        spec = make_spec(2, 4, 0, 0, 1, 1.0, 0.3, 0.1, 0.0)
        draws = np.array([
            stationary_init(spec, 2.0, 0.05, RngStream(31, r))[0] for r in range(400)
        ])
        assert within_mc_error(draws, 0.5)  # E(Y) = a/b
        # Var(Y) = a*sigma1^2/(2 b^2) = 1/16
        assert abs(draws.var(ddof=1) - 1.0 / 16.0) < 0.02

    def test_x_mean(self):
        spec = make_spec(1, 1, 1, 0, 1, 1.0, 0.5, 0.5, 0.0)
        draws = np.array([
            stationary_init(spec, None, 0.05, RngStream(32, r))[1] for r in range(400)
        ])
        assert within_mc_error(draws, 1.0)  # E(X) = (b*alpha - a*beta)/(b*gamma)

    def test_deterministic(self, ref_spec):
        assert stationary_init(ref_spec, 3.0, 0.05, RngStream(77, 5)) == stationary_init(
            ref_spec, 3.0, 0.05, RngStream(77, 5)
        )
