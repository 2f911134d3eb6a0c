"""End-to-end acceptance runs for the whole toolkit.

Each test exercises one advertised guarantee at its stated tolerance and
prints a single PASS/FAIL line (visible with -s; the -v test status line
carries the same verdict). Frozen seeds make every run reproducible; the
tolerances and margins behind each frozen configuration are recorded in
the measurement notes outside the package.
"""
import shutil
import time

import numpy as np
import pytest
from scipy import stats

from affine2f.cli import main
from affine2f.diffusion_stats import estimate_diffusion
from affine2f.estimators import (
    TransformedEstimate,
    clse_continuous,
    clse_discrete_transformed,
    functionals_from_path,
    gn_forward,
    gn_inverse,
    gram_blocks,
    h_vector,
    target_blocks,
)
from affine2f.experiments import (
    TWO_SAMPLE_KS_TOL,
    ExperimentPlan,
    _ks_two_sample,
    run_experiment,
)
from affine2f.limit_laws import critical_limit_batch, v_det_closed_form, v_matrix
from affine2f.model import InitialLaw, make_spec
from affine2f.moments import transient_moments
from affine2f.rng import RngStream
from affine2f.simulate import (
    PathGrid,
    sample_cir_transition,
    simulate_ensemble,
    simulate_path,
)

# one reference model reused by the algebra and convergence criteria
REF = make_spec(1.0, 1.0, 0.5, 0.3, 0.6, 0.5, 0.3, 0.4, 0.3,
                init=InitialLaw("point", y0=1.0, x0=0.2))


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_simulated_moments_match_recursion():
    # mixed drift signs and negative correlation; endpoint moments of
    # 1e5 paths against the closed recursion, each within 4 standard errors
    spec = make_spec(1.1, 0.8, -0.4, -0.3, -0.2, 0.6, 0.35, 0.25, -0.45,
                     init=InitialLaw("point", y0=0.9, x0=-0.3))
    start = time.time()
    res = simulate_ensemble(spec, 1.0, 1e-3, "exact_y_euler_x",
                            RngStream(2031, 0), n_paths=100_000)
    table = transient_moments(spec, 1.0, 2, 2)
    y, x = res.y_end, res.x_end
    samples = {(1, 0): y, (0, 1): x, (2, 0): y * y, (1, 1): y * x, (0, 2): x * x}
    zs = []
    for kl, vals in samples.items():
        se = np.std(vals, ddof=1) / np.sqrt(vals.size)
        zs.append(float((np.mean(vals) - table.get(*kl)) / se))
    elapsed = time.time() - start
    worst = max(abs(z) for z in zs)
    _verdict(1, "moment recursion", worst < 4.0 and elapsed < 180.0,
             f"max |z| = {worst:.2f} of 4.0, {elapsed:.0f}s of 180s")


def test_criterion_02_exact_cir_transition_law():
    # 1e5 one-shot draws of Y_t against the noncentral chi-square law
    a, b, s1, y0, t = 0.9, 0.6, 0.7, 1.3, 0.7
    start = time.time()
    gen = RngStream(411, 0).generator(0)
    draws = np.array([sample_cir_transition(a, b, s1, y0, t, gen)
                      for _ in range(100_000)])
    scale = s1 * s1 * (1.0 - np.exp(-b * t)) / (4.0 * b)
    df = 4.0 * a / s1**2
    nc = np.exp(-b * t) * y0 / scale
    ks = stats.kstest(draws, lambda v: stats.ncx2.cdf(v, df, nc, scale=scale)).statistic
    elapsed = time.time() - start
    _verdict(2, "exact transition law", ks < 0.01 and elapsed < 60.0,
             f"KS = {ks:.4f} of 0.01, {elapsed:.0f}s of 60s")


def test_criterion_03_stationary_occupation_gamma_law():
    # long-run occupation of Y against Gamma(2a/s1^2, rate 2b/s1^2)
    a, b, s1 = 1.2, 3.0, 0.8
    spec = make_spec(a, b, 0.0, 0.0, 1.0, s1, 0.0, 0.0, 0.0,
                     init=InitialLaw("stationary-y"))
    start = time.time()
    path = simulate_path(spec, 2000.0, 0.01, "exact_y_euler_x", RngStream(52, 0))
    shape, rate = 2.0 * a / s1**2, 2.0 * b / s1**2
    ks = stats.kstest(path.y, lambda v: stats.gamma.cdf(v, shape, scale=1.0 / rate)).statistic
    elapsed = time.time() - start
    _verdict(3, "stationary gamma law", ks < 0.02 and elapsed < 120.0,
             f"KS = {ks:.4f} of 0.02, {elapsed:.0f}s of 120s")


def test_criterion_04_estimator_algebra_identities():
    # (i) normal equations against a dense design-matrix least squares
    path = simulate_path(REF, 10.0, 0.01, "exact_y_euler_x", RngStream(4, 0))
    te = clse_discrete_transformed(path)
    yl, xl = path.y[:-1], path.x[:-1]
    dy, dx = np.diff(path.y), np.diff(path.x)
    ones = np.ones_like(yl)
    cd = np.linalg.lstsq(np.column_stack([ones, -yl]), dy, rcond=None)[0]
    dez = np.linalg.lstsq(np.column_stack([ones, -yl, -xl]), dx, rcond=None)[0]
    brute = np.concatenate([cd, dez])
    mine = np.array([te.c, te.d, te.delta, te.epsilon, te.zeta])
    gap_ls = float(np.max(np.abs(mine - brute) / np.maximum(np.abs(brute), 1e-12)))

    # (ii) the frequency-n coefficient map inverts to 1e-12
    gen = np.random.default_rng(44)
    gap_rt = 0.0
    for _ in range(50):
        spec = make_spec(a=gen.uniform(0.1, 3.0), b=gen.uniform(-1.5, 2.5),
                         alpha=gen.uniform(-1.0, 1.0), beta=gen.uniform(-1.0, 1.0),
                         gamma=gen.uniform(-1.5, 2.5),
                         sigma1=1.0, sigma2=1.0, sigma3=1.0, rho=0.0)
        n = float(gen.integers(10, 250))
        c, d, delta, epsilon, zeta = gn_forward(spec, n)
        te_rt = TransformedEstimate(c=c, d=d, delta=delta, epsilon=epsilon,
                                    zeta=zeta, gram1=np.eye(2), gram2=np.eye(3),
                                    n=n, cond1=1.0, cond2=1.0)
        back = gn_inverse(te_rt).theta_hat
        truth = np.array([spec.a, spec.b, spec.alpha, spec.beta, spec.gamma])
        gap_rt = max(gap_rt, float(np.max(np.abs(back - truth) / np.maximum(np.abs(truth), 1.0))))

    # (iii) doubling series with integer X: zero residual in Y, no rounding
    toy = PathGrid(0.0, 1.0, np.array([1.0, 2.0, 4.0, 8.0]),
                   np.array([5.0, 7.0, 9.0, 20.0]))
    toy_te = clse_discrete_transformed(toy)
    exact = toy_te.c == 0.0 and toy_te.d == -1.0

    # (iv) estimation error equals the Gram-solved noise functional
    path4 = simulate_path(REF, 20.0, 0.005, "exact_y_euler_x", RngStream(8, 0))
    theta = clse_continuous(path4).theta_hat
    truth = np.array([1.0, 1.0, 0.5, 0.3, 0.6])
    fn = functionals_from_path(path4)
    g1, g2 = gram_blocks(fn)
    h = h_vector(path4, REF)
    rhs = np.concatenate([np.linalg.solve(g1, h[:2]), np.linalg.solve(g2, h[2:])])
    gap_h = float(np.max(np.abs((theta - truth) - rhs) / np.maximum(np.abs(rhs), 1e-12)))

    ok = gap_ls < 1e-9 and gap_rt < 1e-12 and exact and gap_h < 1e-10
    _verdict(4, "estimator algebra", ok,
             f"LS gap {gap_ls:.1e} of 1e-9, round-trip {gap_rt:.1e} of 1e-12, "
             f"toy exact {exact}, error identity {gap_h:.1e} of 1e-10")


def test_criterion_05_discrete_to_continuous_convergence():
    # halving the sampling stride four times shrinks the distance to the
    # continuous-record estimate each time, ending below 1% relative
    start = time.time()
    path = simulate_path(REF, 50.0, 1e-3, "exact_y_euler_x", RngStream(43, 0))
    ref = clse_continuous(path).theta_hat
    gaps = [float(np.linalg.norm(gn_inverse(clse_discrete_transformed(path, s)).theta_hat - ref))
            for s in (16, 8, 4, 2, 1)]
    decreasing = all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    final_rel = gaps[-1] / float(np.linalg.norm(ref))
    elapsed = time.time() - start
    _verdict(5, "stride convergence", decreasing and final_rel < 0.01 and elapsed < 60.0,
             f"gaps {' > '.join(f'{g:.1e}' for g in gaps)}, final rel {final_rel:.2%} of 1%, "
             f"{elapsed:.0f}s of 60s")


@pytest.mark.slow
def test_criterion_06_subcritical_normal_limit():
    # sqrt(T)-scaled errors at T=200: covariance within 10% Frobenius of
    # the sandwich matrix, each component KS-close to its normal marginal
    spec = make_spec(12.0, 8.0, 0.5, 0.2, 7.0, 1.5, 0.6, 0.6, 0.2,
                     init=InitialLaw("point", y0=1.5, x0=1.6 / 56))
    plan = ExperimentPlan(spec=spec, T=200.0, dt=1e-3, replications=2000,
                          base_seed=2026, scheme="full_euler")
    start = time.time()
    report = run_experiment(plan)
    elapsed = time.time() - start
    worst = float(report.ks_distance.max())
    ok = (bool(report.ks_pass.all()) and worst < 0.05
          and report.frobenius_gap < 0.10 and elapsed < 1800.0)
    _verdict(6, "subcritical normality", ok,
             f"max KS {worst:.4f} of 0.05, Frobenius gap {report.frobenius_gap:.4f} "
             f"of 0.10, excluded {report.excluded_ids.size}, {elapsed:.0f}s of 1800s")


@pytest.mark.slow
def test_criterion_07_critical_limit_two_sample():
    # critical scaled errors at T=400 against fresh draws of the limit
    # functional, two-sample KS per component
    spec = make_spec(1.0, 0.0, 0.5, 0.0, 0.0, 0.5, 0.3, 0.4, 0.3,
                     init=InitialLaw("point", y0=1.0, x0=0.2))
    plan = ExperimentPlan(spec=spec, T=400.0, dt=0.01, replications=1000,
                          base_seed=2027, scheme="full_euler")
    start = time.time()
    report = run_experiment(plan, n_reference=1000, reference_dt=1e-3)
    elapsed = time.time() - start
    worst = float(report.ks_distance.max())
    ok = bool(report.ks_pass.all()) and worst < 0.1 and elapsed < 1200.0

    # negative controls: the same scaled errors, scored against the limit
    # law of a wrong theory drawn on the study's own reference stream,
    # must fail the scorecard
    theory = dict(a=spec.a, alpha=spec.alpha, sigma1=spec.sigma1,
                  sigma2=spec.sigma2, rho=spec.rho)
    controls = {"alpha = 0": dict(theory, alpha=0.0),
                "sigma1 x 1.25": dict(theory, sigma1=1.25 * spec.sigma1)}
    control_ks = {}
    for name, wrong in controls.items():
        ref, _ = critical_limit_batch(1000, **wrong, dt=1e-3,
                                      rng=RngStream(2027, 1000))
        control_ks[name] = max(_ks_two_sample(report.scaled_errors[:, j], ref[:, j])
                               for j in range(5))
    ok = ok and min(control_ks.values()) > TWO_SAMPLE_KS_TOL
    _verdict(7, "critical limit", ok,
             f"max two-sample KS {worst:.4f} of 0.1, excluded "
             f"{report.excluded_ids.size}, {elapsed:.0f}s of 1200s; controls "
             + ", ".join(f"{k} {v:.4f}" for k, v in control_ks.items())
             + f" above {TWO_SAMPLE_KS_TOL}")


def test_criterion_08_supercritical_consistency_and_v_identity(stepped_paths):
    spec = make_spec(1.0, -0.5, 0.2, 0.0, -1.0, 0.5, 0.3, 0.4, 0.3,
                     init=InitialLaw("point", y0=1.0, x0=0.5))
    start = time.time()

    # (i) b is still estimable from the exploding factor alone at T=30
    errs = []
    for j in range(200):
        fn = functionals_from_path(
            simulate_path(spec, 30.0, 0.01, "exact_y_euler_x", RngStream(2028, j)))
        g1, _ = gram_blocks(fn)
        f1, _ = target_blocks(fn)
        errs.append(abs(np.linalg.solve(g1, f1)[1] - spec.b))
    med = float(np.median(errs))

    # (ii) the scaling matrix determinant identity on random tuples
    gen = np.random.default_rng(19)
    gap_det = 0.0
    for _ in range(100):
        g = gen.uniform(-3.0, -0.2)
        b = gen.uniform(g + 1e-3, -0.05)
        vy, vx = gen.uniform(0.1, 5.0, size=2)
        det = float(np.linalg.det(v_matrix(b, g, vy, vx)))
        closed = v_det_closed_form(b, g, vy, vx)
        gap_det = max(gap_det, abs(det - closed) / abs(closed))

    # (iii) exp(bT) Y_T has a stabilizing mean on shared noise
    y, _ = stepped_paths(spec, 30.0, 0.01, "exact_y_euler_x",
                         RngStream(2029, 0), 2000)
    means = [float(np.mean(np.exp(spec.b * T) * y[:, int(round(T / 0.01))]))
             for T in (10, 20, 30)]
    drift_rel = (max(means) - min(means)) / means[-1]
    elapsed = time.time() - start

    ok = med < 0.05 and gap_det < 1e-10 and drift_rel < 0.10 and elapsed < 600.0
    _verdict(8, "supercritical", ok,
             f"median |b err| {med:.4f} of 0.05, det identity {gap_det:.1e} of 1e-10, "
             f"mean drift {drift_rel:.2%} of 10%, {elapsed:.0f}s of 600s")


def test_criterion_09_diffusion_statistics_recovery():
    # quadratic-variation statistics averaged over 20 paths, 5% relative
    spec = make_spec(1.0, 1.0, 0.5, 0.3, 0.6, 0.6, 0.4, 0.3, 0.5,
                     init=InitialLaw("point", y0=20.0, x0=0.0))
    truth = np.array([0.36, 0.16, 0.09, 0.5])
    start = time.time()
    ests = []
    for j in range(20):
        de = estimate_diffusion(
            simulate_path(spec, 50.0, 1e-3, "exact_y_euler_x", RngStream(2030, j)))
        ests.append([de.sigma1_sq, de.sigma2_sq, de.sigma3_sq, de.rho])
    rel = np.abs(np.mean(ests, axis=0) - truth) / np.abs(truth)
    elapsed = time.time() - start
    worst = float(rel.max())
    _verdict(9, "diffusion statistics", worst < 0.05 and elapsed < 120.0,
             f"max rel error {worst:.2%} of 5%, {elapsed:.0f}s of 120s")


def test_criterion_10_byte_identical_reruns(tmp_path):
    # repeat three commands with one config and seed; every output byte matches
    out = tmp_path / "runs"
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[model]\n"
        "a = 1.0\nb = 1.0\nalpha = 0.5\nbeta = 0.3\ngamma = 0.6\n"
        "sigma1 = 0.5\nsigma2 = 0.3\nsigma3 = 0.4\nrho = 0.3\n"
        "init_kind = point\ninit_y0 = 1.0\ninit_x0 = 0.2\n"
        "[experiment]\n"
        "T = 4.0\ndt = 0.01\nreplications = 20\nbase_seed = 9\n"
        "[output]\n"
        f"directory = {out}\nformats = text,csv\n",
        encoding="utf-8",
    )

    def run_all():
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert main(["mc-verify", "--config", str(cfg), "--reference-draws", "50"]) == 0
        assert main(["limit-sample", "--config", str(cfg), "--draws", "40"]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run_all()
    shutil.rmtree(out)
    second = run_all()
    same = set(first) == set(second) and all(first[k] == second[k] for k in first)
    _verdict(10, "determinism", same and len(first) > 0,
             f"{len(first)} files byte-compared across independent reruns")
