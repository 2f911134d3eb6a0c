"""Theoretical limit objects for the three drift regimes.

Subcritical: the estimator error scaled by sqrt(T) is asymptotically
normal with sandwich covariance [E G]^-1 E(Gtilde) [E G]^-1, every entry
a stationary moment. Critical: the scaled error converges to an explicit
functional of a degenerate auxiliary pair on [0, 1], which we sample.
Supercritical: the error under exponential scaling is mixed normal,
V^-1 eta xi with (V, eta) built from the almost-sure limits
V_Y = lim e^{bt} Y_t and V_X = lim e^{gamma t} X_t.

The limit objects are the layouts estimators.gram_layout (G) and
qv_layout (the quadratic variation of f - G theta) of three tables of
integrals of y^k x^l: stationary moments give E G and E Gtilde, scaled
limits give V and eta eta^T, and a path's sums the critical draws.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, NonPositiveVY, SingularGram
from .estimators import (
    functionals_from_blocks,
    functionals_per_stream,
    gram_blocks,
    gram_layout,
    qv_layout,
    solve_blocks,
)
from .model import ModelSpec, Regime, classify_regime, make_spec, require
from .moments import stationary_moments
from .rng import RngStream
from . import simulate
from .simulate import (
    _n_grid,
    _start,
    _step,
    euler_paths_per_stream,
    simulate_path,
)


# redraws allowed per critical draw whose Gram blocks are singular
MAX_REDRAWS = 50

# supercritical probe horizon in units of 1/|b|: the remaining drift of
# e^{bT} Y_T and e^{gamma T} X_T is exponentially small there
PROBE_SPAN = 30.0


def _block_diag(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The 5x5 matrix with the 2x2 Y block y and the 3x3 X block x."""
    out = np.zeros((5, 5))
    out[:2, :2], out[2:, 2:] = y, x
    return out


def _matrix_text(label: str, m: np.ndarray) -> str:
    rows = [" ".join(f"{v:.17g}" for v in row) for row in np.atleast_2d(m)]
    return "\n".join([label] + rows)


# ---------------------------------------------------------------- subcritical


@dataclass(eq=False)
class SubcriticalLimit:
    """E(G), E(Gtilde) and the sandwich covariance of sqrt(T)(theta_hat - theta)."""

    g_inf: np.ndarray
    g_tilde_inf: np.ndarray
    asym_cov: np.ndarray

    def to_text(self) -> str:
        return "\n".join([
            _matrix_text("g_inf", self.g_inf),
            _matrix_text("g_tilde_inf", self.g_tilde_inf),
            _matrix_text("asym_cov", self.asym_cov),
        ]) + "\n"


def subcritical_limit(spec: ModelSpec) -> SubcriticalLimit:
    """Assemble the asymptotic covariance from stationary moments.

    E(G) and E(Gtilde) are gram_layout and qv_layout of the stationary
    moment table E(Y^k X^l). The Y block of every object involves only
    (a, b, sigma1); the blockwise inverse below preserves that
    separation bit for bit.
    """
    require(spec, Regime.SUBCRITICAL)
    m = stationary_moments(spec, 3, 2).get
    g2 = gram_layout(m)
    gt = qv_layout(m, spec.sigma1, spec.sigma2, spec.sigma3, spec.rho)
    g_inv = _block_diag(np.linalg.inv(g2[:2, :2]), np.linalg.inv(g2))
    cov = g_inv @ gt @ g_inv
    cov = 0.5 * (cov + cov.T)  # exact symmetry; matmul roundoff is one-sided
    return SubcriticalLimit(g_inf=_block_diag(g2[:2, :2], g2), g_tilde_inf=gt,
                            asym_cov=cov)


# ------------------------------------------------------------------- critical


def _require_draws(n_draws) -> None:
    if not isinstance(n_draws, numbers.Integral):
        raise ValueError(f"n_draws must be an integer, got {n_draws!r}")
    if n_draws < 1:
        raise ValueError(f"n_draws must be at least 1, got {n_draws}")


def require_critical_dt(dt: float) -> None:
    """Refuse a step that leaves fewer than 3 left grid points on [0, 1].

    The 3x3 X Gram of a critical draw is a sum over the left grid
    points, so with fewer than 3 it is singular on every draw and no
    redraw can help.
    """
    if dt > 0.0 and math.floor(1.0 / dt + 1e-9) < 3:
        raise HypothesisError(
            f"critical limit dt={dt!r} leaves fewer than 3 grid steps on "
            "[0, 1], so the X Gram is singular on every draw; dt must not "
            "exceed 1/3")


def critical_limit_blocks(fn, a, alpha, sigma1, sigma2, rho):
    """Gram blocks and target functionals of the critical limit vector.

    fn holds the path functionals of the auxiliary pair on [0, 1]
    (scalars for one draw, arrays for a stack of draws); the targets read
    its end points and its table of sums, int Y dt, int X dt and the Ito
    sum of X dY. The additive
    X noise of the original model does not survive the time rescaling,
    so no sigma3 appears here: the targets are the Ito expansions of
    the auxiliary pair's own martingale integrals, whose X quadratic
    variation is sigma2^2 times the occupied Y mass.
    """
    g1, g2 = gram_blocks(fn)
    y1 = np.asarray(fn.y_end, dtype=float)
    x1 = np.asarray(fn.x_end, dtype=float)
    int_y = fn.sum(1, 0)
    t1 = np.stack([y1 - a, -0.5 * y1**2 + (a + 0.5 * sigma1**2) * int_y],
                  axis=-1)
    t2 = np.stack([
        x1 - alpha,
        -y1 * x1 + (alpha + rho * sigma1 * sigma2) * int_y + fn.sum(0, 1, "y"),
        -0.5 * x1**2 + alpha * fn.sum(0, 1) + 0.5 * sigma2**2 * int_y,
    ], axis=-1)
    return g1, t1, g2, t2


def _auxiliary(a, alpha, sigma1, sigma2, rho) -> ModelSpec:
    """The auxiliary pair as a model: b = beta = gamma = 0, no sigma3, from (0, 0)."""
    return make_spec(a, 0.0, alpha, 0.0, 0.0, sigma1, sigma2, 0.0, rho)


def _critical_draws(aux: ModelSpec, dt: float, streams) -> np.ndarray:
    """One critical draw per stream, shape (len(streams), 5).

    Every attempt is a full_euler row of functionals_per_stream, so row
    r equals the solve of simulate_path(aux, 1.0, dt, "full_euler", s)
    bit for bit, where s is streams[r] on attempt 0 and
    streams[r].spawn(k) on attempt k. A draw whose Gram blocks fail the
    equilibrated gate of solve_gated is truly singular, not merely badly
    scaled: a finite-dt artifact, such as Y absorbed at 0 on the whole
    grid, since the limit law is supported on invertible Grams. It is
    attempted again, up to MAX_REDRAWS times; then SingularGram names
    the first stream that used them up.
    """
    out = np.empty((len(streams), 5))
    todo = np.arange(len(streams))
    for attempt in range(MAX_REDRAWS + 1):
        fn = functionals_per_stream(aux, 1.0, dt, "full_euler", [
            streams[i] if attempt == 0 else streams[i].spawn(attempt)
            for i in todo])
        vec, c1, c2 = solve_blocks(*critical_limit_blocks(
            fn, aux.a, aux.alpha, aux.sigma1, aux.sigma2, aux.rho))
        ok = np.isfinite(vec).all(axis=1)
        out[todo[ok]] = vec[ok]
        todo, c1, c2 = todo[~ok], c1[~ok], c2[~ok]
        if not todo.size:
            return out
    raise SingularGram(
        f"{streams[todo[0]]!r}: no invertible critical draw after "
        f"{MAX_REDRAWS} redraws: last conditions {c1[0]:.3e}, {c2[0]:.3e}",
        cond=float(max(c1[0], c2[0])),
    )


def critical_limit_sample(
    a: float,
    alpha: float,
    sigma1: float,
    sigma2: float,
    rho: float,
    dt: float,
    rng: RngStream,
) -> np.ndarray:
    """One draw of the critical limit of (a_hat-a, T b_hat, alpha_hat-alpha,
    T beta_hat, T gamma_hat).

    Simulates the auxiliary pair from (0, 0) with full-truncation Euler,
    assembles the two blocks and solves: the one-row case of
    _critical_draws, whose redraw k runs on rng.spawn(k). full_euler is
    a choice here, not a necessity: exact Y from Y0 = 0, which every
    first draw of critical_limit_batch runs, stays finite, since the W
    increment it rebuilds is divided by sqrt(Y_FLOOR), not sqrt(0), and
    enters X times sqrt(Y0) = 0. So a redrawn row of a batch comes from
    another scheme than its first draws; one scheme for both (ROADMAP
    items 5 and 13) moves golden draws, so it waits for a change to the
    benchmark. A dt above 1/3 raises HypothesisError (see
    require_critical_dt).
    """
    require_critical_dt(dt)
    return _critical_draws(_auxiliary(a, alpha, sigma1, sigma2, rho), dt,
                           [rng])[0]


def critical_limit_batch(
    n_draws: int,
    a: float,
    alpha: float,
    sigma1: float,
    sigma2: float,
    rho: float,
    dt: float,
    rng: RngStream,
) -> tuple[np.ndarray, int]:
    """n_draws critical limit samples, simulated as one vectorized ensemble.

    Returns (draws, n_redrawn) where draws has shape (n_draws, 5). First
    draws are exact-Y rows of one _step run on the shared stream rng,
    folded block by block as they are stepped. Row i whose Gram blocks
    fail the condition gate, which happens only when they are truly
    singular (see _critical_draws), is redrawn as critical_limit_sample on
    rng.spawn(n_draws + i): all such rows go through the per-stream
    reducer together, as full_euler rows, and are counted. A dt above
    1/3 raises HypothesisError (see require_critical_dt).
    """
    _require_draws(n_draws)
    require_critical_dt(dt)
    aux = _auxiliary(a, alpha, sigma1, sigma2, rho)
    blocks = _step(aux, 1.0, dt, "exact_y_euler_x", rng,
                   *_start(aux, dt, rng, n_draws))
    fn = functionals_from_blocks(((y.T, x.T) for y, x in blocks), dt)
    out, _, _ = solve_blocks(
        *critical_limit_blocks(fn, a, alpha, sigma1, sigma2, rho))
    redo = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if redo.size:
        out[redo] = _critical_draws(
            aux, dt, [rng.spawn(n_draws + int(i)) for i in redo])
    return out, int(redo.size)


# --------------------------------------------------------------- supercritical


@dataclass(eq=False)
class SupercriticalLimit:
    """One realization of the random scaling objects of the mixed-normal law."""

    v_y_sample: float
    v_x_sample: float
    v_matrix: np.ndarray
    eta_sq: np.ndarray

    def to_text(self) -> str:
        return "\n".join([
            f"v_y_sample {self.v_y_sample:.17g}",
            f"v_x_sample {self.v_x_sample:.17g}",
            _matrix_text("v_matrix", self.v_matrix),
            _matrix_text("eta_sq", self.eta_sq),
        ]) + "\n"


def _scaled_limits(b: float, gamma: float, v_y: float, v_x: float):
    """The table m(k, l) = lim e^((kb + l gamma)T) int_0^T Y^k X^l dt.

    With Y_t ~ e^(-bt) V_Y and X_t ~ e^(-gamma t) V_X the integral grows
    like its last stretch, so the limit is -V_Y^k V_X^l / (kb + l gamma).
    m(0, 0) = 1 is the limit of T / T, the first column's own scaling.
    """
    def m(k: int, l: int) -> float:
        return -v_y**k * v_x**l / (k * b + l * gamma) if k or l else 1.0
    return m


def v_matrix(b: float, gamma: float, v_y: float, v_x: float) -> np.ndarray:
    """The scaling matrix V of the supercritical limit.

    V is the limit of L G_T R, blockwise, with L = diag(1, e^(bT),
    e^(gamma T)) and R = diag(1/T, e^(bT), e^(gamma T)): gram_layout of
    the scaled limits, whose first column below the corner scales to 0
    like 1/T.
    """
    x = gram_layout(_scaled_limits(b, gamma, v_y, v_x))
    x[1:, 0] = 0.0
    return _block_diag(x[:2, :2], x)


def eta_sq_matrix(
    b: float,
    gamma: float,
    v_y: float,
    v_x: float,
    sigma1: float,
    sigma2: float,
    rho: float,
) -> np.ndarray:
    """The displayed eta eta^T matrix: qv_layout of the scaled limits.

    It is the limit of S Q_T S for the quadratic variation Q_T of
    f - G theta, with S = diag(e^(bT/2), e^(3bT/2), e^(bT/2), e^(3bT/2),
    e^((b/2 + gamma)T)). Every cross block carries rho*sigma1*sigma2. No
    sigma3 term appears: sigma3^2 T vanishes under the scaling.
    """
    return qv_layout(_scaled_limits(b, gamma, v_y, v_x), sigma1, sigma2, 0.0,
                     rho)


def eta_factor(eta_sq: np.ndarray) -> np.ndarray:
    """Symmetric square root; eigenvalues negative from roundoff are clipped."""
    w, u = np.linalg.eigh(eta_sq)
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T
    return 0.5 * (root + root.T)  # matmul roundoff is one-sided


def _supercritical_draw(
    spec: ModelSpec,
    T: float,
    y_T: float,
    x_T: float,
    rng: RngStream,
) -> tuple[SupercriticalLimit, np.ndarray]:
    """V^-1 eta xi from a probe's end point (y_T, x_T) at horizon T.

    xi is standard normal from substream 4 of rng, which the probe never
    touches, realizing the independence in the limit law.
    """
    b, gamma = spec.b, spec.gamma
    v_y = math.exp(b * T) * float(y_T)
    v_x = math.exp(gamma * T) * float(x_T)
    if not v_y > 0.0:
        raise NonPositiveVY(
            f"{rng!r}: probe gave e^(bT) Y_T = {v_y!r}; the Y factor died out "
            "(longer T_probe cannot fix an absorbed path)"
        )
    V = v_matrix(b, gamma, v_y, v_x)
    eta2 = eta_sq_matrix(b, gamma, v_y, v_x, spec.sigma1, spec.sigma2,
                         spec.rho)
    xi = rng.generator(4).standard_normal(5)
    draw = np.linalg.solve(V, eta_factor(eta2) @ xi)
    limit = SupercriticalLimit(v_y_sample=v_y, v_x_sample=v_x, v_matrix=V,
                               eta_sq=eta2)
    return limit, draw


def supercritical_limit_sample(
    spec: ModelSpec,
    T_probe: float | None,
    dt: float,
    rng: RngStream,
) -> tuple[SupercriticalLimit, np.ndarray]:
    """Probe V_Y, V_X on one path, then draw V^-1 eta xi.

    The probe is one exact-Y simulate_path run on rng, which extracts
    e^{bT} Y_T and e^{gamma T} X_T at a single horizon (default
    PROBE_SPAN/|b|).
    This is limit_draws on one stream: a probe row does not depend on the
    batch width, so batched draw j equals this function's draw on
    RngStream(base_seed, first_stream + j) bit for bit.
    """
    require(spec, Regime.SUPERCRITICAL)
    if T_probe is None:
        T_probe = PROBE_SPAN / abs(spec.b)
    path = simulate_path(spec, T_probe, dt, rng=rng)
    return _supercritical_draw(spec, path.horizon, path.y[-1], path.x[-1], rng)


# ------------------------------------------------------------------ dispatch


def limit_draws(
    spec: ModelSpec,
    n_draws: int,
    dt: float,
    base_seed: int,
    first_stream: int,
) -> tuple[np.ndarray, int]:
    """n_draws rows from the limit law of spec's regime, and the redraw count.

    Streams: subcritical draws come from substream 4 of
    RngStream(base_seed, first_stream), the critical batch from that
    stream, and supercritical draw j from RngStream(base_seed,
    first_stream + j). Only the critical law redraws. A spec outside its
    regime's hypotheses raises HypothesisError.

    The supercritical probes are exact-Y rows of
    simulate.euler_paths_per_stream that keep only their end points; the
    streams are built, stepped and drawn WIDE_ROWS at a time, after the
    draws array is allocated, so an oversized n_draws fails up front. Draw
    j is bit-identical to supercritical_limit_sample(spec, None, dt,
    RngStream(base_seed, first_stream + j)), and the first absorbed probe
    raises the same NonPositiveVY.
    """
    _require_draws(n_draws)
    regime = classify_regime(spec)
    require(spec, regime)
    if regime is Regime.SUBCRITICAL:
        root = np.linalg.cholesky(subcritical_limit(spec).asym_cov)
        z = RngStream(base_seed, first_stream).generator(4).standard_normal(
            (n_draws, 5))
        return z @ root.T, 0
    if regime is Regime.CRITICAL:
        return critical_limit_batch(
            n_draws, spec.a, spec.alpha, spec.sigma1, spec.sigma2, spec.rho,
            dt, RngStream(base_seed, first_stream))
    draws = np.empty((n_draws, 5))
    T_probe = PROBE_SPAN / abs(spec.b)
    T = (_n_grid(T_probe, dt) - 1) * dt
    width = simulate.WIDE_ROWS  # one batch of euler_paths_per_stream
    for lo in range(0, n_draws, width):
        streams = [RngStream(base_seed, first_stream + j)
                   for j in range(lo, min(lo + width, n_draws))]
        for _, y, x in euler_paths_per_stream(spec, T_probe, dt,
                                              "exact_y_euler_x", streams):
            pass
        for j, rng in enumerate(streams):
            _, draws[lo + j] = _supercritical_draw(spec, T, y[j, -1],
                                                   x[j, -1], rng)
        del streams, y, x  # free this batch before the next is built
    return draws, 0
