"""Conditional least squares estimation of the five drift constants.

Three flavors:

  discrete      normal equations on the sampled increments, solved for the
                transformed quantities (c, d, delta, epsilon, zeta), then
                mapped back through the exact inverse of the one-step
                conditional-mean map g_n.
  approximate   n times the transformed estimate, the first-order Taylor
                shortcut; differs from the exact back-transform by O(1/n).
  continuous    the integral normal equations G_T theta = f_T with time
                integrals as left-point Riemann sums and stochastic
                integrals as left-point Ito sums.

The two estimation blocks never mix: (a, b) come from the Y series alone,
(alpha, beta, gamma) from the X series given Y.

One reduction, one gate, one refusal: every single-path estimate is one
_fit (the discrete normal equations are the continuous ones of the
thinned series at unit step), which refuses a singular Y or X block in
every flavor. It solves with solve_continuous, which builds the blocks
with gram_blocks and target_blocks and solves them through solve_gated,
as do the replication studies and the critical limit draws, in every
regime; it returns a singular block as NaN, never raising.
functionals_from_arrays is the one place that decides how a path is
summed: left to right in time, in segments of simulate.BLOCK_STEPS
steps. functionals_from_blocks is the one place that folds the stepper's
time blocks into those sums: every Monte Carlo batch (replications,
supercritical probes, critical limit draws) is reduced as it is stepped
and never holds a whole path.

One matrix layout and one table of path sums: gram_layout writes the
Gram of the basis (1, -y, -x) and qv_layout the quadratic variation of
f - G theta, each from a table m(k, l) of integrals of y^k x^l. A path
keys its left-point sums by (k, l, d), y^k x^l against dt, dY or dX
(PathFunctionals.sum): gram_blocks hands its dt column to gram_layout as
it is, target_blocks reads f_T as the basis against dY and dX, and the
critical limit vector reads the same table. The limit laws fill the
layouts from stationary moments and scaled limits instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import groupby

import numpy as np

from .errors import OutOfDomain, SingularGram
from .kernels import i1, i2, psi
from .model import ModelSpec
from . import simulate
from .simulate import PathGrid

COND_LIMIT = 1e12


# The left-point sums a path carries, keyed (k, l, d): y^k x^l summed
# against dt, dY or dX for d = "t", "y", "x". The (0, 0) entries are not
# stored; PathFunctionals.sum reads them off the horizon and end points.
_KEYS = ((1, 0, "t"), (2, 0, "t"), (0, 1, "t"), (1, 1, "t"), (0, 2, "t"),
         (1, 0, "y"), (1, 0, "x"), (0, 1, "x"), (0, 1, "y"))


@dataclass(eq=False)
class PathFunctionals:
    """Everything the continuous estimator needs from a path.

    Scalar-valued for a single path; array-valued (one entry per path)
    when reduced from a stack of paths. sums maps each key of _KEYS to
    its left-point sum.
    """

    horizon: float
    y0: np.ndarray | float
    x0: np.ndarray | float
    y_end: np.ndarray | float
    x_end: np.ndarray | float
    sums: dict[tuple[int, int, str], np.ndarray | float]

    def sum(self, k: int, l: int, d: str = "t"):
        """The left-point sum of y^k x^l against dt, dY or dX (d = "t",
        "y", "x"); with d left at "t", the table m(k, l) of gram_layout.

        The (0, 0) entries are the horizon, broadcast to the shape of the
        stored sums, Y_T - Y_0 and X_T - X_0.
        """
        if k or l:
            return self.sums[k, l, d]
        if d == "t":
            return np.broadcast_to(np.asarray(self.horizon, dtype=float),
                                   np.shape(self.sums[1, 0, "t"]))
        end, start = (self.y_end, self.y0) if d == "y" else (self.x_end, self.x0)
        return np.asarray(end - start, dtype=float)

    def then(self, tail: PathFunctionals) -> PathFunctionals:
        """The functionals of this path continued by tail's grid.

        tail starts where this path ends; its sums add to these in order.
        """
        return PathFunctionals(
            self.horizon + tail.horizon, self.y0, self.x0, tail.y_end, tail.x_end,
            {key: self.sums[key] + tail.sums[key] for key in _KEYS})


def _sum_in_time(a: np.ndarray):
    """The sum over axis 0 (time), taken left to right at every width.

    numpy adds the rows of a C-contiguous block one after another when
    each row holds 2 or more values, but reduces a lone column pairwise;
    cumsum runs left to right at any width.
    """
    if a.size >= 2 * len(a):
        return np.add.reduce(a, axis=0)
    return np.cumsum(a, axis=0)[-1]


def _segment(y: np.ndarray, x: np.ndarray, dt: float) -> PathFunctionals:
    # time on axis 0, C-contiguous (see _time_major)
    yl, xl = y[:-1], x[:-1]
    against = {"y": np.diff(y, axis=0), "x": np.diff(x, axis=0)}

    def left_sum(k, l, d):
        # one temporary at a time: the monomial, then its product with dY
        # or dX; a first power is the left-point view itself
        mono = reduce(np.multiply, (xl,) * l + (yl,) * k)
        if d == "t":
            return _sum_in_time(mono) * dt
        return _sum_in_time(mono * against[d])

    return PathFunctionals(
        (len(y) - 1) * dt,
        # copies, not views: a view would pin the whole path buffer for
        # as long as a batch collector keeps the summary alive
        y[0, ...].copy(), x[0, ...].copy(), y[-1, ...].copy(), x[-1, ...].copy(),
        {key: left_sum(*key) for key in _KEYS},
    )


def _time_major(a) -> np.ndarray:
    """a with time moved from the last axis to the first, C-contiguous.

    A per-stream block of the stepper is a transposed view of a
    time-major block, so it comes back as that block, uncopied; a stack
    of whole paths, or a strided series, is copied once.
    """
    t = np.moveaxis(a, -1, 0)
    return t if t.flags.c_contiguous else t.copy(order="C")


def functionals_from_arrays(y: np.ndarray, x: np.ndarray, dt: float) -> PathFunctionals:
    """Left-point sums over the grid; last axis is time.

    Every sum runs over segments of simulate.BLOCK_STEPS steps: left to
    right in time within a segment, in order across segments
    (PathFunctionals.then). A replication study reduces its streamed
    time blocks the same way, so a path reduced whole or block by block,
    alone or stacked with others, gives the same bits.
    """
    y, x = _time_major(y), _time_major(x)
    block = simulate.BLOCK_STEPS
    fn = _segment(y[: block + 1], x[: block + 1], dt)
    for lo in range(block, len(y) - 1, block):
        fn = fn.then(_segment(y[lo : lo + block + 1], x[lo : lo + block + 1], dt))
    return fn


def functionals_from_path(path: PathGrid) -> PathFunctionals:
    return functionals_from_arrays(path.y, path.x, path.dt)


def functionals_from_blocks(blocks, dt: float) -> PathFunctionals:
    """The functionals of one batch of paths handed on in time blocks.

    blocks yields consecutive (y, x) blocks of the same rows, time on the
    last axis, each starting where the one before ended. Each is reduced
    as it arrives and continues the sums before it, so a batch holds one
    block at a time, never a whole path.
    """
    return reduce(PathFunctionals.then,
                  (functionals_from_arrays(y, x, dt) for y, x in blocks))


def functionals_per_stream(spec, T: float, dt: float, scheme: str,
                           streams) -> PathFunctionals:
    """Stacked path functionals, one row per stream.

    Row r is the path on streams[r], stepped WIDE_ROWS streams at a time
    (simulate.euler_paths_per_stream) and folded by
    functionals_from_blocks. A row does not depend on the batch width,
    so it equals functionals_from_path of the one-row run on its stream,
    simulate_path(spec, T, dt, scheme, streams[r]), bit for bit.
    """
    if not streams:
        raise ValueError("functionals_per_stream needs at least one stream")
    blocks = simulate.euler_paths_per_stream(spec, T, dt, scheme, streams)
    parts = [functionals_from_blocks(((y, x) for _, y, x in batch), dt)
             for _, batch in groupby(blocks, key=lambda item: item[0].start)]

    def rows(values):
        return np.concatenate([np.atleast_1d(v) for v in values])

    # every batch rides the same grid, so horizon stays scalar
    return PathFunctionals(
        parts[0].horizon,
        *(rows(getattr(p, end) for p in parts)
          for end in ("y0", "x0", "y_end", "x_end")),
        {key: rows(p.sums[key] for p in parts) for key in _KEYS})


def gram_layout(m) -> np.ndarray:
    """The 3x3 Gram of the basis (1, -y, -x) from a table m(k, l).

    m(k, l) is the integral of y^k x^l: a path's left-point sums, a
    stationary moment, or a supercritical scaled limit. Entries may be
    arrays of one shape, stacked over leading axes. The Y block of every
    Gram is the leading 2x2 corner.
    """
    return np.stack([
        np.stack([m(0, 0), -m(1, 0), -m(0, 1)], axis=-1),
        np.stack([-m(1, 0), m(2, 0), m(1, 1)], axis=-1),
        np.stack([-m(0, 1), m(1, 1), m(0, 2)], axis=-1),
    ], axis=-2)


def qv_layout(m, sigma1, sigma2, sigma3, rho) -> np.ndarray:
    """The 5x5 quadratic variation of f - G theta from a table m(k, l).

    Each block is a weight times the Gram layout: sigma1^2 y on the Y
    block, rho sigma1 sigma2 y across the blocks and sigma2^2 y + sigma3^2
    on the X block. The Gram weighted by y is gram_layout of m shifted by
    one power of y; the sigma3^2 term is added only when sigma3 > 0.
    """
    g = gram_layout(lambda k, l: m(k + 1, l))
    x = sigma2**2 * g
    if sigma3 > 0.0:
        x = x + sigma3**2 * gram_layout(m)
    cross = rho * sigma1 * sigma2 * g[..., :2, :]
    return np.block([[sigma1**2 * g[..., :2, :2], cross],
                     [np.swapaxes(cross, -1, -2), x]])


def gram_blocks(fn: PathFunctionals) -> tuple[np.ndarray, np.ndarray]:
    """The 2x2 Y block and the 3x3 X block of G_T: gram_layout of fn's
    sums against dt.

    Stacked over leading axes when fn holds arrays.
    """
    g2 = gram_layout(fn.sum)
    return g2[..., :2, :2].copy(), g2


def target_blocks(fn: PathFunctionals) -> tuple[np.ndarray, np.ndarray]:
    """The f_T entries matching gram_blocks: the basis (1, -y, -x) summed
    against dY (its first two entries) and against dX."""
    f1, f2 = (np.stack([fn.sum(0, 0, d), -fn.sum(1, 0, d), -fn.sum(0, 1, d)],
                       axis=-1) for d in "yx")
    return f1[..., :2].copy(), f2


@dataclass(eq=False)
class TransformedEstimate:
    """Gated solution of the discrete normal equations, before back-transform."""

    c: float
    d: float
    delta: float
    epsilon: float
    zeta: float
    gram1: np.ndarray
    gram2: np.ndarray
    n: float  # sampling frequency: steps per unit time
    cond1: float
    cond2: float


@dataclass(eq=False)
class DriftEstimate:
    """A five-vector estimate (a, b, alpha, beta, gamma) and its pedigree."""

    theta_hat: np.ndarray
    source: str  # "discrete" | "approximate" | "continuous"
    n: float | None = None
    gram_cont: tuple[np.ndarray, np.ndarray] | None = None
    conds: tuple[float, float] | None = None


def _fit(y: np.ndarray, x: np.ndarray, dt: float):
    """Check, reduce, solve and refuse one series: (theta, grams, conds).

    A block that solve_gated returned as NaN raises SingularGram, which
    names it and its equilibrated condition.
    """
    if len(y) < 3:
        raise ValueError(f"need at least 3 grid points, got {len(y)}")
    fn = functionals_from_arrays(y, x, dt)
    theta, cond1, cond2 = solve_continuous(fn)
    conds = (float(cond1), float(cond2))
    for block, part, cond in zip("YX", (theta[:2], theta[2:]), conds):
        if np.isnan(part).any():
            raise SingularGram(f"{block}-block Gram has condition {cond:.3e}", cond=cond)
    return theta, gram_blocks(fn), conds


def clse_discrete_transformed(path: PathGrid, stride: int = 1) -> TransformedEstimate:
    """Least squares on the subsampled increment regressions.

    Minimizes sum (dY_i - (c - d Y_{i-1}))^2 and
    sum (dX_i - (delta - epsilon Y_{i-1} - zeta X_{i-1}))^2 over the
    series thinned to every stride-th point (trailing partial interval
    dropped). These normal equations are the integral ones of the thinned
    series at unit step, so this is _fit of that series: a singular Y or
    X block raises SingularGram.
    """
    if stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride}")
    theta, (gram1, gram2), (cond1, cond2) = _fit(path.y[::stride],
                                                 path.x[::stride], 1.0)
    c, d, delta, epsilon, zeta = (float(v) for v in theta)
    return TransformedEstimate(
        c=c, d=d, delta=delta, epsilon=epsilon, zeta=zeta,
        gram1=gram1, gram2=gram2, n=1.0 / (stride * path.dt),
        cond1=cond1, cond2=cond2,
    )


def gn_forward(spec: ModelSpec, n: float) -> tuple[float, float, float, float, float]:
    """The one-step conditional-mean map at sampling frequency n.

    Sends spec's drift theta to the regression constants (c, d, delta,
    epsilon, zeta) that make the one-step conditional means exact:
    E(Y_h|y) = c + (1-d) y and E(X_h|y,x) = delta - epsilon y + (1-zeta) x
    with h = 1/n.
    """
    h = 1.0 / n
    c = spec.a * psi(spec.b, h)
    d = -math.expm1(-spec.b * h)
    delta = spec.alpha * psi(spec.gamma, h) - spec.a * spec.beta * i2(
        spec.b, spec.gamma, h
    )
    epsilon = spec.beta * i1(spec.b, spec.gamma, h)
    zeta = -math.expm1(-spec.gamma * h)
    return c, d, delta, epsilon, zeta


def gn_inverse(te: TransformedEstimate) -> DriftEstimate:
    """Exact back-transform of the transformed estimate.

    Inverts gn_forward:
        b = -n log(1-d),  a = c / psi(b, 1/n)
        gamma = -n log(1-zeta),  beta = epsilon / i1(b, gamma, 1/n)
        alpha = (delta + a beta i2(b, gamma, 1/n)) / psi(gamma, 1/n)
    te's blocks passed the gate; only the domain d, zeta < 1 is checked.
    """
    if te.d >= 1.0 or te.zeta >= 1.0:
        raise OutOfDomain(
            f"back-transform undefined: d={te.d!r}, zeta={te.zeta!r} "
            "(both must be < 1)"
        )
    n, h = te.n, 1.0 / te.n
    b = -n * math.log1p(-te.d)
    a = te.c / psi(b, h)
    gamma = -n * math.log1p(-te.zeta)
    beta = te.epsilon / i1(b, gamma, h)
    alpha = (te.delta + a * beta * i2(b, gamma, h)) / psi(gamma, h)
    return DriftEstimate(
        theta_hat=np.array([a, b, alpha, beta, gamma]),
        source="discrete",
        n=n,
        conds=(te.cond1, te.cond2),
    )


def clse_approx(te: TransformedEstimate) -> DriftEstimate:
    """First-order back-transform: n times the transformed estimate."""
    vec = np.array([te.c, te.d, te.delta, te.epsilon, te.zeta])
    return DriftEstimate(
        theta_hat=te.n * vec, source="approximate", n=te.n,
        conds=(te.cond1, te.cond2),
    )


def solve_gated(G: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve G x = rhs for one system or a stack, gated on conditioning.

    G has shape (..., k, k) and rhs (..., k) with k = 2 or 3. Returns
    (x, cond); systems whose condition exceeds COND_LIMIT come back NaN
    rather than raising, so batch callers can count exclusions. This is
    the one gate and solve of every drift estimator, in every regime.

    cond is the condition number of D G D, with D = diag(G)^(-1/2)
    rounded to powers of two (van der Sluis equilibration): the integrals
    of an explosive path grow like e^(2|gamma|T), which inflates the raw
    condition of G without bringing it closer to singular. Powers of two
    scale exactly, so G and S G S, for S a diagonal of powers of two, get
    the same cond. A diagonal entry that is zero, negative or not finite
    keeps its scale at 1, so such a system still fails the gate: a
    system is rejected only when it is close to singular, as the Gram of
    a path whose Y was absorbed at 0 is.

    The solve itself runs on G. 2x2 systems use the adjugate form, so
    zero-residual fits with representable coefficients come back exact
    rather than within an LU rounding cloud. 3x3 systems use LU: the gate
    has already measured how marginal a system is through the SVD inside
    np.linalg.cond, and below COND_LIMIT a backward-stable LU is as
    accurate as a rank-revealing least squares. Each row is solved on its
    own, so a system gives the same bits alone or in any stack.
    """
    d = np.diagonal(G, axis1=-2, axis2=-1)
    usable = np.isfinite(d) & (d > 0.0)
    e = np.round(-0.5 * np.log2(np.where(usable, d, 1.0))).astype(int)
    s = np.ldexp(1.0, e)
    cond = np.asarray(np.linalg.cond(G * s[..., :, None] * s[..., None, :]),
                      dtype=float)
    ok = cond <= COND_LIMIT
    x = np.full(rhs.shape, np.nan)
    if ok.any():
        g, f = G[ok], rhs[ok]
        if G.shape[-1] == 2:
            det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
            x[ok] = np.stack([
                (g[..., 1, 1] * f[..., 0] - g[..., 0, 1] * f[..., 1]) / det,
                (g[..., 0, 0] * f[..., 1] - g[..., 1, 0] * f[..., 0]) / det,
            ], axis=-1)
        else:
            # trailing singleton keeps the stacked solve unambiguous
            x[ok] = np.linalg.solve(g, f[..., None])[..., 0]
    return x, cond


def solve_blocks(g1, f1, g2, f2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both blocks through solve_gated, stacked on the last axis.

    Returns (theta, cond1, cond2); theta has shape (..., 5), NaN in each
    block whose condition gate fails.
    """
    ab, cond1 = solve_gated(g1, f1)
    abg, cond2 = solve_gated(g2, f2)
    return np.concatenate([ab, abg], axis=-1), cond1, cond2


def solve_continuous(
    fn: PathFunctionals,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the integral normal equations for one path or a stack.

    Returns (theta, cond1, cond2) as solve_blocks does.
    """
    g1, g2 = gram_blocks(fn)
    f1, f2 = target_blocks(fn)
    return solve_blocks(g1, f1, g2, f2)


def clse_continuous(path: PathGrid) -> DriftEstimate:
    """Continuous-record CLSE: _fit of the path at its own step."""
    theta, grams, conds = _fit(path.y, path.x, path.dt)
    return DriftEstimate(theta_hat=theta, source="continuous",
                         gram_cont=grams, conds=conds)


def h_vector(path: PathGrid, spec: ModelSpec) -> np.ndarray:
    """The martingale part f_T - G_T theta of the estimation error.

    Algebraically f - G theta collapses to the pure noise integrals.
    Useful as a diagnostic on simulated paths, where theta is spec's drift:
    theta_hat - theta = G_T^{-1} h_T exactly.
    """
    fn = functionals_from_path(path)
    g1, g2 = gram_blocks(fn)
    f1, f2 = target_blocks(fn)
    th1 = np.array([spec.a, spec.b])
    th2 = np.array([spec.alpha, spec.beta, spec.gamma])
    return np.concatenate([f1 - g1 @ th1, f2 - g2 @ th2])
