"""Replication experiments: plans, limit-law reports, quantile sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from affine2f import experiments, simulate
from affine2f.errors import ExcessiveExclusions, HypothesisError
from affine2f.estimators import (
    functionals_from_path,
    functionals_per_stream,
    solve_continuous,
)
from affine2f.experiments import (
    ExperimentPlan,
    _ks_normal,
    _ks_two_sample,
    consistency_sweep,
    run_experiment,
    scale_vector,
)
from affine2f.limit_laws import (
    critical_limit_batch,
    limit_draws,
    supercritical_limit_sample,
)
from affine2f.model import InitialLaw, Regime, make_spec
from affine2f.rng import RngStream


def _point(y0, x0):
    return InitialLaw(kind="point", y0=y0, x0=x0)


@pytest.fixture(scope="module")
def sub_spec():
    return make_spec(a=1.0, b=1.0, alpha=0.5, beta=0.3, gamma=0.6,
                     sigma1=0.5, sigma2=0.3, sigma3=0.4, rho=0.3,
                     init=_point(1.0, 0.2))


@pytest.fixture(scope="module")
def sup_spec():
    return make_spec(a=1.2, b=-0.5, alpha=0.4, beta=0.0, gamma=-1.0,
                     sigma1=0.5, sigma2=0.3, sigma3=0.4, rho=0.2,
                     init=_point(1.0, 0.5))


@pytest.fixture(scope="module")
def crit_spec():
    return make_spec(a=1.0, b=0.0, alpha=0.5, beta=0.0, gamma=0.0,
                     sigma1=0.5, sigma2=0.3, sigma3=0.4, rho=0.3,
                     init=_point(1.0, 0.2))


@pytest.fixture(scope="module")
def sub_plan(sub_spec):
    return ExperimentPlan(spec=sub_spec, T=10.0, dt=2e-3, replications=12,
                          base_seed=77, scheme="full_euler")


@pytest.fixture(scope="module")
def sub_report(sub_plan):
    return run_experiment(sub_plan)


@pytest.fixture(scope="module")
def sup_report(sup_spec):
    plan = ExperimentPlan(spec=sup_spec, T=8.0, dt=0.01, replications=10,
                          base_seed=555)
    return run_experiment(plan, n_reference=15)


class TestPlan:
    def test_regime_attribution(self, sub_spec, crit_spec, sup_spec):
        mk = lambda s: ExperimentPlan(spec=s, T=4.0, dt=0.01,
                                      replications=2, base_seed=1)
        assert mk(sub_spec).regime is Regime.SUBCRITICAL
        assert mk(crit_spec).regime is Regime.CRITICAL
        assert mk(sup_spec).regime is Regime.SUPERCRITICAL

    def test_subcritical_scale_is_root_t(self, sub_spec):
        plan = ExperimentPlan(spec=sub_spec, T=16.0, dt=0.01,
                              replications=2, base_seed=1)
        np.testing.assert_array_equal(plan.scales(), np.full(5, 4.0))

    def test_critical_scale_pattern(self, crit_spec):
        plan = ExperimentPlan(spec=crit_spec, T=20.0, dt=0.01,
                              replications=2, base_seed=1)
        np.testing.assert_array_equal(plan.scales(),
                                      [1.0, 20.0, 1.0, 20.0, 20.0])

    def test_supercritical_scale_pattern(self):
        # b = -0.5, gamma = -1: intercepts carry T e^{bT/2}, rates e^{-bT/2},
        # and the X reversion rate e^{(b - 2 gamma) T / 2}
        T = 10.0
        got = scale_vector(Regime.SUPERCRITICAL, T, -0.5, -1.0)
        grow = math.exp(0.25 * T)
        want = [T / grow, grow, T / grow, grow, math.exp(0.75 * T)]
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_rejects_bad_grid(self, sub_spec):
        with pytest.raises(ValueError, match="positive"):
            ExperimentPlan(spec=sub_spec, T=0.0, dt=0.01,
                           replications=2, base_seed=1)
        with pytest.raises(ValueError, match="exceed"):
            ExperimentPlan(spec=sub_spec, T=1.0, dt=2.0,
                           replications=2, base_seed=1)

    def test_rejects_bad_replications(self, sub_spec):
        # the summary statistics need two replications
        for replications in (0, 1):
            with pytest.raises(ValueError, match="replications must be at least 2"):
                ExperimentPlan(spec=sub_spec, T=1.0, dt=0.01,
                               replications=replications, base_seed=1)

    def test_rejects_unknown_scheme(self, sub_spec):
        with pytest.raises(ValueError, match="scheme"):
            ExperimentPlan(spec=sub_spec, T=1.0, dt=0.01,
                           replications=2, base_seed=1, scheme="heun")

    def test_rejects_model_unfit_for_its_regime(self):
        # boundary drift with a leftover beta has no matching limit theory
        bad = make_spec(a=1.0, b=0.0, alpha=0.5, beta=0.2, gamma=0.0,
                        sigma1=0.5, sigma2=0.3, sigma3=0.4, rho=0.3,
                        init=_point(1.0, 0.2))
        with pytest.raises(HypothesisError, match="beta = 0 required"):
            ExperimentPlan(spec=bad, T=4.0, dt=0.01,
                           replications=2, base_seed=1)


class TestRunExperiment:
    def test_coarse_critical_reference_dt_refused_before_replicating(
            self, crit_spec, monkeypatch):
        def no_replication(*args, **kwargs):
            raise AssertionError("replicated before refusing dt")

        monkeypatch.setattr(experiments, "functionals_per_stream", no_replication)
        plan = ExperimentPlan(spec=crit_spec, T=4.0, dt=0.01,
                              replications=2, base_seed=1)
        with pytest.raises(HypothesisError, match="dt=0.5"):
            run_experiment(plan, n_reference=5, reference_dt=0.5)

    def test_no_streams_refused(self, sub_spec):
        with pytest.raises(ValueError, match="at least one stream"):
            functionals_per_stream(sub_spec, 0.5, 0.01, "full_euler", [])

    @pytest.mark.parametrize("scheme", simulate.SCHEMES)
    @pytest.mark.parametrize("case", ["point", "stationary-y", "stationary",
                                      "sigma1_zero", "no-l", "no-b"])
    def test_rows_replay_the_scalar_engine(self, sub_spec, scheme, case,
                                           monkeypatch, same_functionals):
        # 50 steps in 7-step blocks end on a 1-step block; 9 rows taken 4
        # at a time end on a 1-row batch
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 7)
        monkeypatch.setattr(simulate, "WIDE_ROWS", 4)
        spec = sub_spec
        if case == "sigma1_zero":
            spec = make_spec(1.0, 0.5, 0.2, 0.1, 0.3, 0.0, 0.7, 0.2, 0.4,
                             init=_point(1.0, 0.0))
        elif case == "no-l":  # sigma3 = 0: no L draws, no L term in X
            spec = make_spec(1.0, 1.0, 0.5, 0.3, 0.6, 0.5, 0.3, 0.0, 0.3,
                             init=_point(1.0, 0.2))
        elif case == "no-b":  # rho = 1: no B draws
            spec = make_spec(1.0, 1.0, 0.5, 0.3, 0.6, 0.5, 0.3, 0.4, 1.0,
                             init=_point(1.0, 0.2))
        elif case != "point":
            # the stationary start's burn-in leg crosses blocks too
            fields = dict(burn_in=0.3) if case == "stationary" else dict(x0=0.2)
            spec = replace(sub_spec, init=InitialLaw(case, **fields))
        got = functionals_per_stream(spec, 0.5, 0.01, scheme,
                                     [RngStream(91, r) for r in range(9)])
        for r in range(9):
            want = functionals_from_path(simulate.simulate_path(
                spec, 0.5, 0.01, scheme, RngStream(91, r)))
            same_functionals(got, want, row=r)

    @pytest.mark.parametrize("scheme", simulate.SCHEMES)
    def test_batch_width_never_changes_rows(self, sub_spec, scheme,
                                            monkeypatch, same_functionals):
        # short blocks, so that a width-dependent block length would show
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 7)

        def rows_at(width):
            monkeypatch.setattr(simulate, "WIDE_ROWS", width)
            return functionals_per_stream(sub_spec, 0.5, 0.01, scheme,
                                          [RngStream(93, r) for r in range(9)])

        # width 1 reduces lone columns, which numpy would sum pairwise
        single, narrow, wide = rows_at(1), rows_at(2), rows_at(256)
        same_functionals(single, wide)
        same_functionals(narrow, wide)

    def test_reused_streams_restart_their_paths(self, sub_spec,
                                                same_functionals):
        # a stationary-y start also draws from substream 3, so every
        # substream a row touches must restart on the second pass
        spec = replace(sub_spec, init=InitialLaw("stationary-y", x0=0.2))
        streams = [RngStream(95, r) for r in range(3)]
        first = functionals_per_stream(spec, 0.5, 0.01, "full_euler", streams)
        again = functionals_per_stream(spec, 0.5, 0.01, "full_euler", streams)
        same_functionals(first, again)

    def test_batched_engine_never_holds_whole_paths(self, sub_spec):
        # recorded (R, n) Y and X paths would take R * n * 16 bytes
        import tracemalloc

        def peak_of(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        R, T, dt = 32, 40.0, 1e-3
        plan = ExperimentPlan(spec=sub_spec, T=T, dt=dt, replications=R,
                              base_seed=5, scheme="full_euler")
        path_bytes = R * round(T / dt) * 16
        peak = peak_of(lambda: run_experiment(plan))
        assert peak < path_bytes / 4, (peak, path_bytes)
        # the critical reference draws: 300 rows, wider than a per-stream
        # batch, of 10^4 steps on [0, 1]
        R, dt = 300, 1e-4
        path_bytes = R * round(1.0 / dt) * 16
        peak = peak_of(lambda: critical_limit_batch(
            R, 1.0, 0.3, 0.75, 0.5, -0.2, dt, RngStream(5)))
        assert peak < path_bytes / 2, (peak, path_bytes)

    def test_batch_working_set_is_about_thirteen_block_arrays(
            self, sub_spec, noise_feed):
        # with the noise filled in-process, a batch of WIDE_ROWS full_euler
        # rows holds about 13 block arrays of 1 MiB at its peak: a longer
        # block or another block-sized temporary passes 16 MiB
        import tracemalloc

        noise_feed(False)
        streams = [RngStream(5, r) for r in range(simulate.WIDE_ROWS)]
        tracemalloc.start()
        try:
            functionals_per_stream(sub_spec, 2.0, 1e-3, "full_euler", streams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    def test_noise_feed_maps_at_most_two_blocks_of_noise(self, sub_spec,
                                                        noise_feed, monkeypatch):
        # tracemalloc cannot see the feed's shared slots, so their size is
        # checked where they are mapped: 2 slots of 3 sources of one
        # block, 6 MiB, at any width
        sizes = []
        mapping = simulate.mmap.mmap

        def recorded(fileno, length, *args, **kwargs):
            sizes.append(length)
            return mapping(fileno, length, *args, **kwargs)

        monkeypatch.setattr(simulate.mmap, "mmap", recorded)
        forks = noise_feed(True)
        bound = 2 * 3 * simulate.BLOCK_STEPS * simulate.WIDE_ROWS * 8
        assert bound == 6 * 2**20
        # per-stream batches of WIDE_ROWS rows and one of 44 rows
        plan = ExperimentPlan(spec=sub_spec, T=1.2, dt=1e-3, replications=300,
                              base_seed=5, scheme="full_euler")
        run_experiment(plan)
        # shared-stream runs wider than WIDE_ROWS: three sources, and the
        # critical batch's one
        simulate.simulate_ensemble(sub_spec, 1.2, 1e-3, "full_euler", RngStream(5),
                                   1000)
        critical_limit_batch(300, 1.0, 0.3, 0.75, 0.5, -0.2, 1e-3, RngStream(5))
        assert len(sizes) == len(forks) == 4
        assert max(sizes) <= bound, (sizes, bound)
        # the wide ensemble fills a slot to within one row of its bound
        assert sizes[2] > bound - 2 * 3 * 8 * 1000

    def test_supercritical_reference_draws_follow_streams(self, sup_spec,
                                                          sup_report):
        # draw j lives on stream replications + j
        plan = sup_report.plan
        for j in (0, 14):
            _, draw = supercritical_limit_sample(
                sup_spec, None, plan.dt,
                RngStream(plan.base_seed, plan.replications + j))
            np.testing.assert_array_equal(sup_report.reference_draws[j], draw)

    def test_subcritical_report_fields(self, sub_report):
        rep = sub_report
        assert rep.theory == "normal"
        assert rep.ks_tolerance == 0.05
        assert rep.frobenius_tolerance == 0.10
        assert rep.frobenius_gap >= 0.0
        assert rep.theory_cov.shape == (5, 5)
        np.testing.assert_array_equal(rep.theory_cov, rep.theory_cov.T)
        assert rep.reference_draws is None
        assert rep.reference_redraws is None
        assert "reference_redraws" not in rep.to_text()
        assert rep.vx_sign_counts is None
        assert np.all(rep.component_sd > 0.0)

    def test_exclusion_accounting(self, sub_report, sup_report):
        for rep in (sub_report, sup_report):
            n = rep.plan.replications
            both = np.concatenate([rep.replication_ids, rep.excluded_ids])
            np.testing.assert_array_equal(np.sort(both), np.arange(n))
            assert rep.included + rep.excluded == n
            assert rep.scaled_errors.shape == (rep.included, 5)

    def test_report_is_deterministic(self, sub_plan, sub_report):
        again = run_experiment(sub_plan)
        np.testing.assert_array_equal(again.scaled_errors,
                                      sub_report.scaled_errors)
        assert again.to_text() == sub_report.to_text()

    def test_rows_follow_replication_seeds(self, sub_spec):
        """Adding replications must not disturb the earlier rows."""
        mk = lambda r: ExperimentPlan(spec=sub_spec, T=6.0, dt=0.005,
                                      replications=r, base_seed=77)
        small = run_experiment(mk(8))
        large = run_experiment(mk(10))
        np.testing.assert_array_equal(large.scaled_errors[:8],
                                      small.scaled_errors)

    def test_y_block_blind_to_x_drift(self, sub_spec):
        """(a, b) errors only see the Y series and its own substream."""
        other = make_spec(a=1.0, b=1.0, alpha=0.7, beta=-0.2, gamma=0.9,
                          sigma1=0.5, sigma2=0.3, sigma3=0.4, rho=0.3,
                          init=_point(1.0, 0.2))
        mk = lambda s: ExperimentPlan(spec=s, T=6.0, dt=0.005,
                                      replications=8, base_seed=77,
                                      scheme="full_euler")
        rep_a = run_experiment(mk(sub_spec))
        rep_b = run_experiment(mk(other))
        assert rep_a.excluded == rep_b.excluded == 0
        np.testing.assert_array_equal(rep_a.scaled_errors[:, :2],
                                      rep_b.scaled_errors[:, :2])
        assert not np.array_equal(rep_a.scaled_errors[:, 2:],
                                  rep_b.scaled_errors[:, 2:])

    def test_supercritical_report_fields(self, sup_report):
        rep = sup_report
        assert rep.theory == "sample-based"
        assert rep.ks_tolerance == 0.1
        assert rep.frobenius_gap is None and rep.theory_cov is None
        assert rep.reference_draws.shape == (15, 5)
        assert np.isfinite(rep.reference_draws).all()
        assert rep.vx_sign_counts == (10, 0)
        assert sum(rep.vx_sign_counts) <= rep.included
        assert "vx_signs = 10 positive, 0 negative" in rep.to_text()

    def test_report_states_largest_gate_conditions(self, sup_report):
        # the largest equilibrated (Y, X) condition of the included rows,
        # from the same solves that produced the estimates
        plan = sup_report.plan
        fn = functionals_per_stream(
            plan.spec, plan.T, plan.dt, plan.scheme,
            [RngStream(plan.base_seed, r) for r in range(plan.replications)])
        _, cond1, cond2 = solve_continuous(fn)
        ids = sup_report.replication_ids
        assert sup_report.max_cond == (cond1[ids].max(), cond2[ids].max())
        assert max(sup_report.max_cond) < 1e3
        assert ("\nmax_cond_y_x = %.17g %.17g\n" % sup_report.max_cond
                in sup_report.to_text())

    def test_critical_report_fields(self, crit_spec):
        plan = ExperimentPlan(spec=crit_spec, T=20.0, dt=0.01,
                              replications=12, base_seed=888)
        rep = run_experiment(plan, n_reference=40, reference_dt=0.01)
        assert rep.theory == "sample-based"
        assert rep.ks_tolerance == 0.1
        assert rep.reference_draws.shape == (40, 5)
        _, redraws = limit_draws(crit_spec, 40, 0.01, 888, 12)
        assert rep.reference_redraws == redraws
        assert f"reference_redraws = {redraws}\n" in rep.to_text()
        assert rep.vx_sign_counts is None
        assert rep.frobenius_gap is None

    def test_exclusion_cap_trips(self, sup_spec):
        # T = 2 dt: the 3x3 X Gram sums only 2 left points, so it is
        # singular by construction on every path and the run must refuse
        plan = ExperimentPlan(spec=sup_spec, T=0.02, dt=0.01,
                              replications=5, base_seed=11)
        with pytest.raises(ExcessiveExclusions, match="5 of 5"):
            run_experiment(plan)

    def test_engine_name_checked(self, sub_plan, sub_report):
        # the keyword selects nothing; only the two old names pass
        batched = run_experiment(sub_plan, engine="batched")
        assert batched.to_text() == sub_report.to_text()
        with pytest.raises(ValueError, match="engine"):
            run_experiment(sub_plan, engine="vectorised")

    def test_reference_count_checked(self, crit_spec, sup_spec, monkeypatch):
        # refused before the replications run, not after
        def no_replication(*args, **kwargs):
            raise AssertionError("replicated before refusing n_reference")

        monkeypatch.setattr(experiments, "functionals_per_stream", no_replication)
        for spec in (crit_spec, sup_spec):
            plan = ExperimentPlan(spec=spec, T=2.0, dt=0.01,
                                  replications=3, base_seed=1)
            for n_reference in (0, -1):
                with pytest.raises(ValueError, match="n_reference"):
                    run_experiment(plan, n_reference=n_reference)


class TestKsStatistics:
    # scipy.stats is the outside oracle; the library never imports scipy

    @pytest.mark.parametrize("n1, n2, ties", [
        (1000, 1000, False),
        (300, 450, False),   # gcd 150
        (120, 84, True),     # gcd 12, rounded to share values
        (97, 60, True),      # coprime
        (1, 7, False),
    ])
    def test_two_sample_equals_scipy_bitwise(self, n1, n2, ties):
        rng = np.random.default_rng(n1 * 1000 + n2)
        a = rng.standard_normal(n1)
        b = 1.2 * rng.standard_normal(n2) + 0.1
        if ties:
            a, b = np.round(a, 1), np.round(b, 1)
        assert _ks_two_sample(a, b) == stats.ks_2samp(a, b).statistic

    @pytest.mark.parametrize("n, sd", [(2000, 1.0), (25, 0.3), (400, 7.5)])
    def test_one_sample_matches_scipy(self, n, sd):
        x = 1.1 * sd * np.random.default_rng(n).standard_normal(n)
        want = stats.kstest(x, "norm", args=(0.0, sd)).statistic
        assert _ks_normal(x, sd) == pytest.approx(want, rel=1e-14, abs=0.0)


class TestConsistencySweep:
    def test_subcritical_quantiles_shrink(self, sub_spec):
        sw = consistency_sweep(sub_spec, [5.0, 15.0], 0.01, 10,
                               RngStream(321, 0))
        np.testing.assert_array_equal(sw.trend, np.ones(5))
        assert np.all(sw.rows[1].q90_abs_error < sw.rows[0].q90_abs_error)
        for row in sw.rows:
            assert row.included == 10 and row.excluded == 0

    def test_supercritical_sweep_estimates_all_five(self, sup_spec):
        """Every component is solved through the one gate. The errors of
        b, beta and gamma shrink; those of a and alpha are informational,
        since their scaling T e^(bT/2) goes to 0."""
        sw = consistency_sweep(sup_spec, [6.0, 12.0, 18.0], 0.01, 8,
                               RngStream(123, 0))
        for row in sw.rows:
            assert row.included == 8 and row.excluded == 0
            assert np.isfinite(row.median_abs_error).all()
            assert np.isfinite(row.q90_abs_error).all()
        np.testing.assert_array_equal(sw.trend[[1, 3, 4]], 1.0)
        assert np.isfinite(sw.trend).all()
        # the equilibrated conditions stay small while the raw ones grow
        # like e^(2|gamma|T)
        assert max(sw.max_cond) < 1e3
        text = sw.to_text()
        assert "q90_decreasing_fraction" in text
        assert text.splitlines()[-1] == "max_cond_y_x = %.17g %.17g" % sw.max_cond

    def test_rejects_critical_model(self, crit_spec):
        with pytest.raises(ValueError, match="noncritical"):
            consistency_sweep(crit_spec, [5.0, 10.0], 0.01, 4,
                              RngStream(1, 0))

    def test_needs_two_horizons_and_replications(self, sub_spec):
        with pytest.raises(ValueError, match="horizons"):
            consistency_sweep(sub_spec, [5.0], 0.01, 4, RngStream(1, 0))
        with pytest.raises(ValueError, match="replications"):
            consistency_sweep(sub_spec, [5.0, 10.0], 0.01, 1, RngStream(1, 0))


class TestFiniteHorizonBias:
    def test_scaled_mean_decays_like_inverse_root_t(self, sub_spec):
        """The normalization fixes the spread of the errors but a mean
        offset of order 1/sqrt(T) survives; quadrupling the horizon
        should roughly halve it (measured 0.83 to 0.43 on the rate
        components at this seed)."""
        reports = {}
        for T in (25.0, 100.0):
            plan = ExperimentPlan(spec=sub_spec, T=T, dt=0.01,
                                  replications=400, base_seed=99,
                                  scheme="full_euler")
            reports[T] = run_experiment(plan)
            assert reports[T].excluded == 0
        short, long = reports[25.0], reports[100.0]
        t_stat = short.component_mean * math.sqrt(short.included)
        t_stat = t_stat / short.component_sd
        for j in (0, 1, 4):
            assert t_stat[j] > 3.0
            assert (abs(long.component_mean[j])
                    < 0.7 * abs(short.component_mean[j]))
