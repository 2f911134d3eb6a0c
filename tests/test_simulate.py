import math
import os
import threading
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from affine2f import simulate
from affine2f.errors import HypothesisError
from affine2f.kernels import psi
from affine2f.limit_laws import critical_limit_batch
from affine2f.model import InitialLaw, make_spec
from affine2f.moments import stationary_moments, stationary_y_gamma_params
from affine2f.rng import RngStream
from affine2f.simulate import (
    PathGrid,
    sample_cir_transition,
    simulate_ensemble,
    simulate_path,
)


def within_mc_error(sample, target, factor=4.0):
    se = sample.std(ddof=1) / math.sqrt(sample.size)
    return abs(sample.mean() - target) <= factor * se


def stationary_init(spec, burn_in, dt, rng):
    """The one-row start of spec with a "stationary" law, as floats."""
    init = InitialLaw("stationary", burn_in=burn_in)
    (y0,), (x0,) = simulate._start(replace(spec, init=init), dt, [rng])
    return float(y0), float(x0)


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

    @pytest.mark.parametrize("name,value", [("y", math.nan), ("y", -math.inf),
                                            ("x", math.inf), ("x", math.nan)])
    def test_rejects_non_finite_value(self, name, value):
        # named with its first bad index, before any estimator sees it
        arrays = {"y": np.array([1.0, 2.0, 0.5, 1.0]),
                  "x": np.array([0.0, -1.0, 3.0, 0.0])}
        arrays[name][2:] = value
        with pytest.raises(ValueError, match=rf"^{name}\[2\] = {value} is not finite$"):
            PathGrid(0.0, 0.5, arrays["y"], arrays["x"])

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
        # (gamma = 0.5 keeps gamma*dt below 1; X is 0 and draws nothing)
        spec = make_spec(1, 1, 0, 0, 0.5, 1.0, 0, 0, 0, InitialLaw("point", 1.0, 0.0))
        res = simulate_ensemble(spec, 1.0, 1.0, rng=RngStream(101), n_paths=100_000)
        assert within_mc_error(res.y_end, 1.0)

    def test_laplace_transform(self, laplace_y):
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

    @pytest.mark.parametrize("T, dt, name", [
        (math.inf, 0.1, "T"),
        (math.nan, 0.1, "T"),
        (1.0, math.nan, "dt"),
        (1.0, math.inf, "dt"),
    ])
    @pytest.mark.parametrize("entry", ["path", "ensemble", "per_stream"])
    def test_non_finite_horizon_or_step_is_refused(self, ref_spec, T, dt, name,
                                                   entry):
        run = {
            "path": lambda: simulate_path(ref_spec, T, dt, rng=RngStream(1)),
            "ensemble": lambda: simulate_ensemble(ref_spec, T, dt,
                                                  rng=RngStream(1), n_paths=3),
            "per_stream": lambda: next(simulate.euler_paths_per_stream(
                ref_spec, T, dt, "full_euler", [RngStream(1)])),
        }[entry]
        with pytest.raises(ValueError, match=f"{name} must be (positive and )?finite"):
            run()

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

    def test_euler_mean_converges_to_oracle(self, conditional_mean_y):
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
        fields = dict(burn_in=2.0) if kind == "stationary" else dict(x0=0.3)
        spec = replace(ref_spec, init=InitialLaw(kind, **fields))
        path = simulate_path(spec, 1.0, 0.05, rng=RngStream(99))
        assert_ensemble_replays(path, stepped_paths, spec, 1.0, 0.05,
                                "exact_y_euler_x", RngStream(99))

    def test_paths_differ_across_ensemble(self, ref_spec):
        ens = simulate_ensemble(ref_spec, 1.0, 0.1, rng=RngStream(5), n_paths=8)
        assert len(np.unique(ens.y_end)) == 8

    @pytest.mark.parametrize("n_paths", [2.5, 3.0, "3", 0, np.int64(0)])
    def test_n_paths_must_be_a_positive_integer(self, ref_spec, n_paths):
        with pytest.raises(ValueError, match="n_paths must be an integer"):
            simulate_ensemble(ref_spec, 1.0, 0.1, rng=RngStream(5), n_paths=n_paths)

    def test_numpy_integer_n_paths(self, ref_spec):
        ens = simulate_ensemble(ref_spec, 1.0, 0.1, rng=RngStream(5),
                                n_paths=np.int64(8))
        want = simulate_ensemble(ref_spec, 1.0, 0.1, rng=RngStream(5), n_paths=8)
        assert_array_equal(ens.y_end, want.y_end)
        assert_array_equal(ens.x_end, want.x_end)


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
            spec = replace(ref_spec, init=InitialLaw("stationary", burn_in=0.5))
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


def per_stream_paths(spec, T, dt, scheme, streams):
    """Whole (rows, n_grid) Y and X paths stacked from euler_paths_per_stream."""
    n = simulate._n_grid(T, dt)
    y = np.empty((len(streams), n))
    x = np.empty((len(streams), n))
    lo = {}
    for rows, yb, xb in simulate.euler_paths_per_stream(spec, T, dt, scheme,
                                                        streams):
        c = lo.get(rows.start, 0)
        y[rows, c : c + yb.shape[1]] = yb
        x[rows, c : c + xb.shape[1]] = xb
        lo[rows.start] = c + yb.shape[1] - 1
    return y, x


def assert_no_child_left():
    # waitpid would reap a dead child or return (0, 0) for a live one
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestNoiseFeed:
    """The noise drawn ahead by a forked child moves no bit, and the child
    lives no longer than its _step run."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # 50 steps in blocks of 7 end in a ragged block of one step, and
        # per-stream batches take 3 rows
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 7)
        monkeypatch.setattr(simulate, "WIDE_ROWS", 3)

    @staticmethod
    def streams(seed, n=5):
        return [RngStream(seed, k) for k in range(n)]

    @staticmethod
    def both_ways(noise_feed, run, forks_per_run):
        """run() with the feed, then without: both results, each once."""
        forks = noise_feed(True)
        fed = run()
        assert len(forks) == forks_per_run
        noise_feed(False)
        drawn_here = run()
        assert len(forks) == forks_per_run
        assert_no_child_left()
        return fed, drawn_here

    @pytest.mark.parametrize("scheme", ["exact_y_euler_x", "full_euler"])
    def test_per_stream_rows(self, ref_spec, scheme, noise_feed):
        # two batches, of 3 and 2 rows, each a run of its own
        fed, drawn_here = self.both_ways(noise_feed, lambda: per_stream_paths(
            ref_spec, 0.5, 0.01, scheme, self.streams(71)), 2)
        assert_array_equal(fed[0], drawn_here[0])
        assert_array_equal(fed[1], drawn_here[1])

    @pytest.mark.parametrize("scheme", ["exact_y_euler_x", "full_euler"])
    def test_shared_stream_ensemble(self, ref_spec, scheme, noise_feed,
                                    stepped_paths):
        def run():
            ens = simulate_ensemble(ref_spec, 0.5, 0.01, scheme, RngStream(72), 5)
            y, x = stepped_paths(ref_spec, 0.5, 0.01, scheme, RngStream(72), 5)
            return ens.y_end, ens.x_end, y, x

        fed, drawn_here = self.both_ways(noise_feed, run, 2)
        for a, b in zip(fed, drawn_here):
            assert_array_equal(a, b)

    def test_critical_batch(self, noise_feed):
        # exact Y on one shared stream: the caller draws Y, the child B
        fed, drawn_here = self.both_ways(noise_feed, lambda: critical_limit_batch(
            20, 1.0, 0.3, 0.75, 0.5, -0.2, 0.01, RngStream(73)), 1)
        assert_array_equal(fed[0], drawn_here[0])
        assert fed[1] == drawn_here[1]

    def test_stationary_start(self, ref_spec, noise_feed):
        # per batch, the burn-in leg and the run each fork their own child
        spec = replace(ref_spec, init=InitialLaw("stationary", burn_in=0.5))
        fed, drawn_here = self.both_ways(noise_feed, lambda: per_stream_paths(
            spec, 0.5, 0.01, "full_euler", self.streams(74)), 4)
        assert_array_equal(fed[0], drawn_here[0])
        assert_array_equal(fed[1], drawn_here[1])

    def test_ragged_last_block(self, ref_spec, noise_feed):
        assert (simulate._n_grid(0.5, 0.01) - 1) % simulate.BLOCK_STEPS == 1
        fed, drawn_here = self.both_ways(noise_feed, lambda: simulate_path(
            ref_spec, 0.5, 0.01, "full_euler", RngStream(75, 2)), 1)
        assert_array_equal(fed.y, drawn_here.y)
        assert_array_equal(fed.x, drawn_here.x)

    def steps(self, spec, seed):
        streams = self.streams(seed, 3)
        return simulate._step(spec, 0.5, 0.01, "full_euler", streams,
                              *simulate._start(spec, 0.01, streams))

    def test_child_is_reaped_when_the_run_ends(self, ref_spec, noise_feed):
        forks = noise_feed(True)
        assert len(list(self.steps(ref_spec, 76))) == 8
        assert len(forks) == 1
        assert_no_child_left()

    def test_child_is_reaped_when_a_run_is_closed_half_consumed(self, ref_spec,
                                                                 noise_feed):
        forks = noise_feed(True)
        steps = self.steps(ref_spec, 77)
        next(steps)
        assert os.waitpid(forks[0], os.WNOHANG) == (0, 0)  # still running
        steps.close()
        assert_no_child_left()

    def test_child_is_reaped_when_the_consumer_raises(self, ref_spec, noise_feed):
        forks = noise_feed(True)

        def consume():
            for _ in self.steps(ref_spec, 78):
                raise KeyError("the consumer fails")

        with pytest.raises(KeyError, match="the consumer fails"):
            consume()
        assert len(forks) == 1
        assert_no_child_left()

    def test_a_child_that_fails_makes_the_run_raise(self, ref_spec, noise_feed,
                                                   monkeypatch):
        caller = os.getpid()
        fill = simulate._noise

        def fails_in_the_child(source, out, scale):
            if os.getpid() != caller:
                raise FloatingPointError("the fill fails")
            fill(source, out, scale)

        monkeypatch.setattr(simulate, "_noise", fails_in_the_child)
        forks = noise_feed(True)
        with pytest.raises(RuntimeError, match="noise feed"):
            list(self.steps(ref_spec, 79))
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="lists open descriptors in /proc")
    def test_a_failed_fork_fills_in_process(self, ref_spec, noise_feed,
                                            monkeypatch):
        noise_feed(False)
        drawn_here = list(self.steps(ref_spec, 82))

        def no_fork():
            raise BlockingIOError("no process to spare")

        noise_feed(True)
        monkeypatch.setattr(os, "fork", no_fork)
        fds = os.listdir("/proc/self/fd")
        fed = list(self.steps(ref_spec, 82))
        assert os.listdir("/proc/self/fd") == fds  # the pipes are closed
        for (y, x), (y_here, x_here) in zip(fed, drawn_here, strict=True):
            assert_array_equal(y, y_here)
            assert_array_equal(x, x_here)

    def test_one_cpu_draws_in_process(self, ref_spec, noise_feed, monkeypatch):
        forks = noise_feed(True)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        fed = per_stream_paths(ref_spec, 0.5, 0.01, "full_euler", self.streams(80))
        assert forks == []
        noise_feed(False)
        drawn_here = per_stream_paths(ref_spec, 0.5, 0.01, "full_euler",
                                      self.streams(80))
        assert_array_equal(fed[0], drawn_here[0])
        assert_array_equal(fed[1], drawn_here[1])

    def test_a_second_thread_keeps_the_fill_in_process(self, ref_spec,
                                                       noise_feed):
        forks = noise_feed(True)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            list(self.steps(ref_spec, 81))
        finally:
            release.set()
            other.join(timeout=10.0)
        assert not other.is_alive()
        assert forks == []
        list(self.steps(ref_spec, 81))
        assert len(forks) == 1
        assert_no_child_left()


class TestXScan:
    """X is one scan per block, within rounding of the per-step recursion."""

    @staticmethod
    def recursion(x0, e, c):
        x = [x0]
        for ej in e:
            x.append(x[-1] + (ej - c * x[-1]))
        return np.array(x)

    @staticmethod
    def scan(x0, e, c):
        x = np.empty((e.shape[0] + 1,) + e.shape[1:])
        x[0] = x0
        simulate._scan_x(simulate._x_growth(c), 0, x, x[0], e.copy())
        return x

    @pytest.mark.parametrize("c", [7e-3, -1e-2, 0.9])
    def test_scan_matches_recursion(self, c):
        # 5000 steps: at c = 0.9 a run is 260 steps, so many runs restart
        gen = np.random.default_rng(5)
        e = gen.standard_normal((5000, 4)) * 0.03
        x0 = gen.standard_normal(4)
        want = self.recursion(x0, e, c)
        got = self.scan(x0, e, c)
        assert np.all(np.isfinite(got))
        # relative to the largest |X| so far: X crosses zero, where the
        # pointwise relative error of any two roundings is unbounded
        scale = np.maximum.accumulate(np.abs(want), axis=0)
        assert np.max(np.abs(got - want) / scale) <= 1e-13
        if c == 0.9:
            assert simulate._x_growth(c).size == 261

    def test_gamma_zero_scan_is_the_recursion(self):
        gen = np.random.default_rng(6)
        e = gen.standard_normal((3000, 3))
        x0 = gen.standard_normal(3)
        assert_array_equal(self.scan(x0, e, 0.0), self.recursion(x0, e, 0.0))

    @pytest.mark.parametrize("block_steps", [7, None])
    @pytest.mark.parametrize("scheme", ["exact_y_euler_x", "full_euler"])
    def test_runs_that_end_inside_blocks(self, ref_spec, scheme, block_steps,
                                         monkeypatch):
        streams = [RngStream(68, k) for k in range(3)]
        whole = per_stream_paths(ref_spec, 1.0, 0.01, scheme, streams)
        one_block = simulate.BLOCK_STEPS  # the 100 steps fit in one
        monkeypatch.setattr(simulate, "SCAN_STEPS", 5)
        if block_steps is not None:
            monkeypatch.setattr(simulate, "BLOCK_STEPS", block_steps)
        y, x = per_stream_paths(ref_spec, 1.0, 0.01, scheme, streams)
        paths = [simulate_path(ref_spec, 1.0, 0.01, scheme, s) for s in streams]
        monkeypatch.setattr(simulate, "BLOCK_STEPS", one_block)
        y_one, x_one = per_stream_paths(ref_spec, 1.0, 0.01, scheme, streams)
        assert_array_equal(y, y_one)
        assert_array_equal(x, x_one)
        for r, path in enumerate(paths):
            assert_array_equal(y[r], path.y)
            assert_array_equal(x[r], path.x)
        assert_array_equal(y, whole[0])  # runs never touch Y
        assert_allclose(x, whole[1], rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("gamma", [1.0, 1.2])
    @pytest.mark.parametrize("entry", ["path", "ensemble", "per_stream"])
    def test_gamma_dt_of_one_or_more_is_refused(self, ref_spec, gamma, entry):
        # 1 - gamma*dt <= 0: X would flip sign at every step
        spec = replace(ref_spec, gamma=gamma)
        run = {
            "path": lambda: simulate_path(spec, 2.0, 1.0, rng=RngStream(1)),
            "ensemble": lambda: simulate_ensemble(spec, 2.0, 1.0,
                                                  rng=RngStream(1), n_paths=3),
            "per_stream": lambda: next(simulate.euler_paths_per_stream(
                spec, 2.0, 1.0, "full_euler", [RngStream(1)])),
        }[entry]
        with pytest.raises(HypothesisError, match=r"gamma\*dt = "):
            run()


def float_path(spec, T, dt, scheme, rng):
    """One path stepped a step at a time on Python floats: the oracle.

    Independent of the stepper's blocks and ufunc calls. Y is
    full-truncation Euler, the sigma1 = 0 ODE step, or exact Y through
    _CirKernel.walk with dW rebuilt from each Y increment (denominator
    floored at Y_FLOOR); X is the recursion x + (e - gamma*dt*x). The
    normals come from the stepper's substreams, all of a path at once,
    which is the same sequence as its block-by-block draws. A point start
    only.
    """
    a, b, alpha, beta, gamma = spec.a, spec.b, spec.alpha, spec.beta, spec.gamma
    sigma1, sigma2, sigma3, rho = spec.sigma1, spec.sigma2, spec.sigma3, spec.rho
    ortho = math.sqrt(max(1.0 - rho**2, 0.0))
    m = simulate._n_grid(T, dt) - 1

    def normals(k):
        z = rng.generator(k).standard_normal(m).tolist()
        return [zj * math.sqrt(dt) for zj in z]

    y = [spec.init.y0]
    if scheme == "exact_y_euler_x" and sigma1 > 0.0:
        y += simulate._CirKernel(a, b, sigma1, dt).walk(y[0], m, rng.generator(0))
        dw = [(yn - yj - (a - b * yj) * dt)
              / (sigma1 * math.sqrt(max(yj, simulate.Y_FLOOR)))
              for yj, yn in zip(y, y[1:])]
    elif scheme == "exact_y_euler_x":
        dw = normals(0)
        for _ in range(m):
            y.append(math.exp(-b * dt) * y[-1] + a * psi(b, dt))
    else:
        dw = normals(0)
        yi = y[0]  # the real-valued internal state
        for dwj in dw:
            yj = y[-1]
            yi = yi + (a * dt - b * dt * yj) + math.sqrt(yj) * (sigma1 * dwj)
            y.append(max(yi, 0.0))
    # X's increment but -gamma*dt*x; an absent source adds no term
    e = [rho * dwj for dwj in dw]
    if spec.sigma2 > 0.0 and abs(rho) < 1.0:
        e = [ej + ortho * dbj for ej, dbj in zip(e, normals(1))]
    e = [(alpha - beta * yj) * dt + sigma2 * math.sqrt(yj) * ej
         for yj, ej in zip(y, e)]
    if sigma3 > 0.0:
        e = [ej + sigma3 * dlj for ej, dlj in zip(e, normals(2))]
    x = [spec.init.x0]
    for ej in e:
        x.append(x[-1] + (ej - gamma * dt * x[-1]))
    return np.array(y), np.array(x)


class TestFloatOracle:
    """A one-row run matches the per-step float oracle (float_path)."""

    SPECS = {
        "subcritical": (1.2, 1.0, 0.5, -0.3, 0.8, 0.6, 0.4, 0.25, -0.35, 0.7, -0.4),
        "critical": (1.0, 0.0, 0.5, 0.0, 0.0, 0.5, 0.3, 0.4, 0.3, 1.0, 0.2),
        "supercritical": (1.0, -0.5, 0.2, 0.0, -1.0, 0.5, 0.3, 0.4, 0.3, 1.0, 0.5),
        "no_b_no_l": (1.2, 1.0, 0.5, -0.3, 0.8, 0.6, 0.4, 0.0, 1.0, 0.7, -0.4),
        "sigma1_zero": (1.0, 0.5, 0.2, 0.1, 0.3, 0.0, 0.7, 0.2, 0.4, 1.0, 0.0),
    }

    @pytest.mark.parametrize("scheme", simulate.SCHEMES)
    @pytest.mark.parametrize("case", sorted(SPECS))
    def test_one_row_run_matches_the_oracle(self, case, scheme):
        *constants, y0, x0 = self.SPECS[case]
        spec = make_spec(*constants, InitialLaw("point", y0, x0))
        T, dt = 2.5, 1e-3  # three blocks, and three runs of the X scan
        assert simulate._n_grid(T, dt) - 1 > 2 * simulate.BLOCK_STEPS
        path = simulate_path(spec, T, dt, scheme, RngStream(71, 4))
        y, x = float_path(spec, T, dt, scheme, RngStream(71, 4))
        assert_array_equal(path.y, y)
        # the TestXScan bound, relative to the largest |X| so far
        scale = np.maximum.accumulate(np.abs(x))
        assert np.all(np.abs(path.x - x) <= 1e-13 * scale)
        if spec.gamma == 0.0:
            assert_array_equal(path.x, x)  # the scan adds as the recursion


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
        fields = dict(burn_in=0.5) if kind == "stationary" else dict(x0=0.3)
        spec = make_spec(*TestPerStreamStarts.SPEC_ARGS, InitialLaw(kind, **fields))
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
