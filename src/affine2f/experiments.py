"""Replicated simulate-estimate runs and their distributional scorecards.

A plan fixes the model, horizon, grid, and replication budget; running it
produces scaled estimation errors, one row per replication seed, plus the
comparison against the matching limit distribution: a normal law with the
sandwich covariance in the subcritical regime, Monte Carlo reference draws
in the critical and supercritical ones.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .errors import ExcessiveExclusions, HypothesisError
from .estimators import functionals_per_stream, solve_continuous
from .limit_laws import limit_draws, require_critical_dt, subcritical_limit
from .model import ModelSpec, Regime, classify_regime, require
from .rng import RngStream
# the one-row run each row of functionals_per_stream equals; unused
# here, but bench/tests checks that the tracer rewraps this binding
from .simulate import simulate_path  # noqa: F401

# fraction of replications allowed to fail with a singular Gram matrix
EXCLUSION_CAP = 0.01

# KS thresholds: asymptotic 5% critical values at the reference sizes
# (R = 2000 one-sample, R = 1000 paired two-sample), doubled to leave
# room for time-discretization bias in the simulated errors.
ONE_SAMPLE_KS_TOL = 0.05
TWO_SAMPLE_KS_TOL = 0.1
FROBENIUS_TOL = 0.10


def scale_vector(regime: Regime, T: float, b: float, gamma: float) -> np.ndarray:
    """Per-component normalization applied to theta_hat - theta."""
    if regime is Regime.SUBCRITICAL:
        return np.full(5, math.sqrt(T))
    if regime is Regime.CRITICAL:
        return np.array([1.0, T, 1.0, T, T])
    grow = math.exp(-b * T / 2.0)
    return np.array([
        T / grow, grow, T / grow, grow, math.exp((b - 2.0 * gamma) * T / 2.0),
    ])


@dataclass(frozen=True, kw_only=True)
class ExperimentPlan(ExperimentConfig):
    """An ExperimentConfig with its model, built by keyword. Checks that
    replications >= 2 first, then the config's own checks, then that spec
    meets the hypotheses of its regime's limit theorem (model.require)."""

    spec: ModelSpec
    regime: Regime = field(init=False)

    def __post_init__(self):
        if self.replications < 2:
            raise ValueError("replications must be at least 2: the summary "
                             "statistics need two of them")
        super().__post_init__()
        regime = classify_regime(self.spec)
        require(self.spec, regime)
        object.__setattr__(self, "regime", regime)

    def scales(self) -> np.ndarray:
        return scale_vector(self.regime, self.T, self.spec.b, self.spec.gamma)


@dataclass(frozen=True)
class LimitLawReport:
    plan: ExperimentPlan
    theory: str
    scaled_errors: np.ndarray
    replication_ids: np.ndarray
    excluded_ids: np.ndarray
    component_mean: np.ndarray
    component_sd: np.ndarray
    cov_hat: np.ndarray
    ks_distance: np.ndarray
    ks_pass: np.ndarray
    ks_tolerance: float
    max_cond: tuple[float, float]  # largest (Y, X) cond of the included rows
    theory_cov: np.ndarray | None = None
    frobenius_gap: float | None = None
    frobenius_tolerance: float | None = None
    reference_draws: np.ndarray | None = None
    reference_redraws: int | None = None
    vx_sign_counts: tuple | None = None

    @property
    def included(self) -> int:
        return int(self.replication_ids.size)

    @property
    def excluded(self) -> int:
        return int(self.excluded_ids.size)

    def to_text(self) -> str:
        def row(vals):
            return " ".join("%.17g" % v for v in np.asarray(vals, dtype=float))

        lines = [
            f"regime = {self.plan.regime.name.lower()}",
            f"theory = {self.theory}",
            f"replications = {self.plan.replications}",
            f"included = {self.included}",
            f"excluded = {self.excluded}",
            "max_cond_y_x = " + row(self.max_cond),
            "component_mean = " + row(self.component_mean),
            "component_sd = " + row(self.component_sd),
            "ks_distance = " + row(self.ks_distance),
            "ks_pass = " + " ".join("yes" if p else "no" for p in self.ks_pass),
            "ks_tolerance = %.17g" % self.ks_tolerance,
        ]
        if self.frobenius_gap is not None:
            lines.append("frobenius_gap = %.17g" % self.frobenius_gap)
            lines.append("frobenius_pass = "
                         + ("yes" if self.frobenius_gap <= self.frobenius_tolerance
                            else "no"))
        if self.reference_redraws is not None:
            lines.append(f"reference_redraws = {self.reference_redraws}")
        if self.vx_sign_counts is not None:
            lines.append("vx_signs = %d positive, %d negative"
                         % self.vx_sign_counts)
        lines.append("cov_hat =")
        lines.extend("  " + row(r) for r in self.cov_hat)
        if self.theory_cov is not None:
            lines.append("theory_cov =")
            lines.extend("  " + row(r) for r in self.theory_cov)
        return "\n".join(lines)


def _theta_true(spec: ModelSpec) -> np.ndarray:
    return np.array([spec.a, spec.b, spec.alpha, spec.beta, spec.gamma])


def _gated_rows(fn, replications):
    """Per-path estimates, the rows that pass the gate, and their largest
    (Y, X) conditions.

    A row is excluded when either Gram block fails the condition gate of
    solve_gated; more than EXCLUSION_CAP of them raise.
    """
    thetas, cond1, cond2 = solve_continuous(fn)
    good = np.isfinite(thetas).all(axis=1)
    excluded = int(replications - good.sum())
    if excluded > EXCLUSION_CAP * replications:
        raise ExcessiveExclusions(
            f"{excluded} of {replications} replications were singular "
            f"(cap {EXCLUSION_CAP:.0%})"
        )
    return thetas, good, (float(cond1[good].max()), float(cond2[good].max()))


def _ks_normal(x: np.ndarray, sd: float) -> float:
    """One-sample Kolmogorov-Smirnov distance of x from N(0, sd^2)."""
    z = np.sort(x) / sd
    # Phi(z) = erfc(-z / sqrt 2) / 2 keeps full relative accuracy in the
    # lower tail, where 1 - erfc(z / sqrt 2) / 2 would cancel
    cdf = 0.5 * np.array([math.erfc(-v * math.sqrt(0.5)) for v in z.tolist()])
    n = z.size
    d_plus = (np.arange(1, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(n) / n).max()
    return float(max(d_plus, d_minus))


def _ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|.

    Both ECDFs step in multiples of 1/lcm(n1, n2), so the largest gap is
    found in integers and divided once: the value is the exact fraction
    rounded to double.
    """
    a, b = np.sort(a), np.sort(b)
    n1, n2 = a.size, b.size
    g = math.gcd(n1, n2)
    both = np.concatenate([a, b])
    c1 = np.searchsorted(a, both, side="right")
    c2 = np.searchsorted(b, both, side="right")
    h = int(np.abs(c1 * (n2 // g) - c2 * (n1 // g)).max())
    return h / (n1 // g * n2)


def run_experiment(
    plan: ExperimentPlan,
    engine: str = "per-path",
    n_reference: int = 1000,
    reference_dt: float | None = None,
) -> LimitLawReport:
    """Run the replications and score the scaled errors against theory.

    Replication r runs on its own RngStream(base_seed, r), and the study
    holds O(WIDE_ROWS * BLOCK_STEPS) path values; see functionals_per_stream.
    engine selects nothing: every plan runs the one replication path. It
    accepts only the names of the two engines that path replaced,
    "per-path" and "batched", so that callers written for them still run.
    """
    if engine not in ("per-path", "batched"):
        raise ValueError(f"engine must be 'per-path' or 'batched', got {engine!r}")
    spec = plan.spec
    ref_dt = plan.dt if reference_dt is None else reference_dt
    # refuse a reference that cannot be drawn before the replications run
    if plan.regime is Regime.CRITICAL:
        require_critical_dt(ref_dt)
    if plan.regime is not Regime.SUBCRITICAL and n_reference < 1:
        raise ValueError("sample-based comparison needs n_reference >= 1")
    streams = [RngStream(plan.base_seed, r) for r in range(plan.replications)]
    fn = functionals_per_stream(spec, plan.T, plan.dt, plan.scheme, streams)
    thetas, good, max_cond = _gated_rows(fn, plan.replications)
    if good.sum() < 2:
        raise ValueError("summary statistics need at least 2 included replications")
    ids = np.flatnonzero(good)
    errors = (thetas[good] - _theta_true(spec)) * plan.scales()

    mean = errors.mean(axis=0)
    sd = errors.std(axis=0, ddof=1)
    cov_hat = np.cov(errors, rowvar=False, ddof=1)

    theory_cov = frob = frob_tol = None
    reference = redraws = None
    vx_counts = None
    ks = np.empty(5)
    if plan.regime is Regime.SUBCRITICAL:
        theory = "normal"
        theory_cov = subcritical_limit(spec).asym_cov
        marginal_sd = np.sqrt(theory_cov.diagonal())
        for j in range(5):
            ks[j] = _ks_normal(errors[:, j], marginal_sd[j])
        tol = ONE_SAMPLE_KS_TOL
        frob = float(np.linalg.norm(cov_hat - theory_cov)
                     / np.linalg.norm(theory_cov))
        frob_tol = FROBENIUS_TOL
    else:
        theory = "sample-based"
        tol = TWO_SAMPLE_KS_TOL
        reference, redraws = limit_draws(spec, n_reference, ref_dt,
                                         plan.base_seed, plan.replications)
        if plan.regime is Regime.SUPERCRITICAL:
            x_end = np.asarray(fn.x_end, dtype=float)[good]
            vx_counts = (int((x_end > 0.0).sum()), int((x_end < 0.0).sum()))
        for j in range(5):
            ks[j] = _ks_two_sample(errors[:, j], reference[:, j])

    return LimitLawReport(
        plan=plan,
        theory=theory,
        scaled_errors=errors,
        replication_ids=ids,
        excluded_ids=np.flatnonzero(~good),
        component_mean=mean,
        component_sd=sd,
        cov_hat=cov_hat,
        ks_distance=ks,
        ks_pass=ks <= tol,
        ks_tolerance=tol,
        max_cond=max_cond,
        theory_cov=theory_cov,
        frobenius_gap=frob,
        frobenius_tolerance=frob_tol,
        reference_draws=reference,
        reference_redraws=redraws,
        vx_sign_counts=vx_counts,
    )


@dataclass(frozen=True)
class SweepRow:
    T: float
    median_abs_error: np.ndarray
    q90_abs_error: np.ndarray
    included: int
    excluded: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    trend: np.ndarray  # fraction of T-steps where the q90 error shrank
    max_cond: tuple[float, float]  # largest (Y, X) cond of the included rows

    def to_text(self) -> str:
        lines = ["T included excluded median_abs... q90_abs..."]
        for r in self.rows:
            vals = " ".join("%.17g" % v for v in
                            np.concatenate([r.median_abs_error, r.q90_abs_error]))
            lines.append("%.17g %d %d %s" % (r.T, r.included, r.excluded, vals))
        lines.append("q90_decreasing_fraction = "
                     + " ".join("%.17g" % t for t in self.trend))
        lines.append("max_cond_y_x = %.17g %.17g" % self.max_cond)
        return "\n".join(lines)


def consistency_sweep(
    spec: ModelSpec,
    T_list,
    dt: float,
    replications: int,
    rng: RngStream,
    scheme: str = "exact_y_euler_x",
) -> SweepResult:
    """Absolute-error quantiles of the drift estimator across horizons.

    Every regime but the critical one solves all five components through
    the one gate. Subcritical models back the full five-component claim.
    In supercritical ones the errors of b, beta and gamma shrink; those
    of a and alpha stay informational, since their scaling T e^(bT/2)
    goes to 0, so their errors need not shrink.
    """
    regime = classify_regime(spec)
    if regime is Regime.CRITICAL:
        raise HypothesisError("quantile shrinkage needs a strictly noncritical regime")
    require(spec, regime)
    if len(T_list) < 2:
        raise ValueError("need at least two horizons to exhibit a trend")
    if replications < 2:
        raise ValueError("need at least two replications per horizon")
    theta = _theta_true(spec)
    rows, conds = [], []
    for i, T in enumerate(T_list):
        branch = rng.spawn(i)
        streams = [branch.spawn(r) for r in range(replications)]
        fn = functionals_per_stream(spec, T, dt, scheme, streams)
        thetas, good, max_cond = _gated_rows(fn, replications)
        conds.append(max_cond)
        abs_err = np.abs(thetas[good] - theta)
        rows.append(SweepRow(
            T=float(T),
            median_abs_error=np.median(abs_err, axis=0),
            q90_abs_error=np.quantile(abs_err, 0.9, axis=0),
            included=int(good.sum()),
            excluded=int(replications - good.sum()),
        ))
    q90 = np.stack([r.q90_abs_error for r in rows])
    trend = (q90[1:] < q90[:-1]).mean(axis=0).astype(float)
    return SweepResult(rows=tuple(rows), trend=trend,
                       max_cond=tuple(float(c) for c in np.max(conds, axis=0)))
