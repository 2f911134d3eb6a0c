"""Theoretical limit objects for the three drift regimes.

Subcritical: the estimator error scaled by sqrt(T) is asymptotically
normal with sandwich covariance [E G]^-1 E(Gtilde) [E G]^-1, every entry
a stationary moment. Critical: the scaled error converges to an explicit
functional of a degenerate auxiliary pair on [0, 1], which we sample.
Supercritical: the error under exponential scaling is mixed normal,
V^-1 eta xi with (V, eta) built from the almost-sure limits
V_Y = lim e^{bt} Y_t and V_X = lim e^{gamma t} X_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, NonPositiveVY, SingularGram
from .estimators import (
    functionals_from_blocks,
    functionals_per_stream,
    gram_blocks,
    solve_blocks,
)
from .model import ModelSpec, Regime, classify_regime, make_spec, require
from .moments import stationary_moments
from .rng import RngStream
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

    The Y block of every object involves only (a, b, sigma1); the
    blockwise inverse below preserves that separation bit for bit.
    """
    require(spec, Regime.SUBCRITICAL)
    mom = stationary_moments(spec, 3, 2)
    m10, m20, m30 = mom.get(1, 0), mom.get(2, 0), mom.get(3, 0)
    m01, m11, m02 = mom.get(0, 1), mom.get(1, 1), mom.get(0, 2)
    m21, m12 = mom.get(2, 1), mom.get(1, 2)

    g1 = np.array([[1.0, -m10], [-m10, m20]])
    g2 = np.array([[1.0, -m10, -m01], [-m10, m20, m11], [-m01, m11, m02]])
    g_inf = np.zeros((5, 5))
    g_inf[:2, :2] = g1
    g_inf[2:, 2:] = g2

    s1, s2, s3 = spec.sigma1**2, spec.sigma2**2, spec.sigma3**2
    c = spec.rho * spec.sigma1 * spec.sigma2
    gt = np.array([
        [s1 * m10, -s1 * m20, c * m10, -c * m20, -c * m11],
        [-s1 * m20, s1 * m30, -c * m20, c * m30, c * m21],
        [c * m10, -c * m20, s2 * m10 + s3,
         -(s2 * m20 + s3 * m10), -(s2 * m11 + s3 * m01)],
        [-c * m20, c * m30, -(s2 * m20 + s3 * m10),
         s2 * m30 + s3 * m20, s2 * m21 + s3 * m11],
        [-c * m11, c * m21, -(s2 * m11 + s3 * m01),
         s2 * m21 + s3 * m11, s2 * m12 + s3 * m02],
    ])

    g_inv = np.zeros((5, 5))
    g_inv[:2, :2] = np.linalg.inv(g1)
    g_inv[2:, 2:] = np.linalg.inv(g2)
    cov = g_inv @ gt @ g_inv
    cov = 0.5 * (cov + cov.T)  # exact symmetry; matmul roundoff is one-sided
    return SubcriticalLimit(g_inf=g_inf, g_tilde_inf=gt, asym_cov=cov)


# ------------------------------------------------------------------- critical


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
    (scalars for one draw, arrays for a stack of draws). The additive
    X noise of the original model does not survive the time rescaling,
    so no sigma3 appears here: the targets are the Ito expansions of
    the auxiliary pair's own martingale integrals, whose X quadratic
    variation is sigma2^2 times the occupied Y mass.
    """
    g1, g2 = gram_blocks(fn)
    y1 = np.asarray(fn.y_end, dtype=float)
    x1 = np.asarray(fn.x_end, dtype=float)
    t1 = np.stack([
        y1 - a,
        -0.5 * y1**2 + (a + 0.5 * sigma1**2) * np.asarray(fn.int_y),
    ], axis=-1)
    t2 = np.stack([
        x1 - alpha,
        -y1 * x1 + (alpha + rho * sigma1 * sigma2) * np.asarray(fn.int_y)
        + np.asarray(fn.s_x_dy),
        -0.5 * x1**2 + alpha * np.asarray(fn.int_x)
        + 0.5 * sigma2**2 * np.asarray(fn.int_y),
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

    Simulates the auxiliary pair from (0, 0) with full-truncation Euler
    (the exact-Y scheme reconstructs W increments by dividing by
    sqrt(Y), which degenerates at Y0 = 0), assembles the two blocks and
    solves: the one-row case of _critical_draws, whose redraw k runs on
    rng.spawn(k). A dt above 1/3 raises HypothesisError (see
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
    if n_draws < 1:
        raise ValueError(f"n_draws must be at least 1, got {n_draws}")
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


def v_matrix(b: float, gamma: float, v_y: float, v_x: float) -> np.ndarray:
    """The scaling matrix V of the supercritical limit."""
    vy2 = v_y * v_y
    return np.array([
        [1.0, v_y / b, 0.0, 0.0, 0.0],
        [0.0, -vy2 / (2.0 * b), 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, v_y / b, v_x / gamma],
        [0.0, 0.0, 0.0, -vy2 / (2.0 * b), -v_y * v_x / (b + gamma)],
        [0.0, 0.0, 0.0, -v_y * v_x / (b + gamma), -v_x**2 / (2.0 * gamma)],
    ])


def v_det_closed_form(b: float, gamma: float, v_y: float, v_x: float) -> float:
    return (-((b - gamma) ** 2) * v_y**4 * v_x**2
            / (8.0 * (b + gamma) ** 2 * b**2 * gamma))


def eta_sq_matrix(
    b: float,
    gamma: float,
    v_y: float,
    v_x: float,
    sigma1: float,
    sigma2: float,
    rho: float,
) -> np.ndarray:
    """The displayed eta eta^T matrix; every cross block carries rho*sigma1*sigma2."""
    s1, s2 = sigma1**2, sigma2**2
    c = rho * sigma1 * sigma2
    w1 = -v_y / b
    w2 = v_y**2 / (2.0 * b)
    w3 = -v_y**3 / (3.0 * b)
    u1 = v_y * v_x / (b + gamma)
    u2 = -(v_y**2) * v_x / (2.0 * b + gamma)
    u3 = -v_y * v_x**2 / (b + 2.0 * gamma)
    return np.array([
        [s1 * w1, s1 * w2, c * w1, c * w2, c * u1],
        [s1 * w2, s1 * w3, c * w2, c * w3, c * u2],
        [c * w1, c * w2, s2 * w1, s2 * w2, s2 * u1],
        [c * w2, c * w3, s2 * w2, s2 * w3, s2 * u2],
        [c * u1, c * u2, s2 * u1, s2 * u2, s2 * u3],
    ])


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
    This is the scalar reference of limit_draws, whose batched draw j
    equals this function's draw on RngStream(base_seed, first_stream + j)
    bit for bit.
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
    simulate.euler_paths_per_stream that keep only their end points, so
    draw j is bit-identical to supercritical_limit_sample(spec, None, dt,
    RngStream(base_seed, first_stream + j)), and the first absorbed probe
    raises the same NonPositiveVY.
    """
    if n_draws < 1:
        raise ValueError(f"n_draws must be at least 1, got {n_draws}")
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
    T_probe = PROBE_SPAN / abs(spec.b)
    streams = [RngStream(base_seed, first_stream + j) for j in range(n_draws)]
    y_end, x_end = np.empty(n_draws), np.empty(n_draws)
    for rows, y, x in euler_paths_per_stream(spec, T_probe, dt,
                                             "exact_y_euler_x", streams):
        y_end[rows], x_end[rows] = y[:, -1], x[:, -1]
    T = (_n_grid(T_probe, dt) - 1) * dt
    draws = np.empty((n_draws, 5))
    for j, rng in enumerate(streams):
        _, draws[j] = _supercritical_draw(spec, T, y_end[j], x_end[j], rng)
    return draws, 0
