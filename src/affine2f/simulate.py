"""Trajectory generation on uniform grids.

Two schemes:

  exact_y_euler_x   Y moves by exact conditional draws (noncentral
                    chi-square via a Poisson mixture of gammas); the W
                    increment driving X is reconstructed from the Y
                    increment, which preserves the Y-X correlation to
                    O(sqrt(dt)).
  full_euler        full-truncation Euler for Y (positive part in drift
                    and diffusion, real-valued internal state) and plain
                    Euler for X; all of its noise is drawn in bulk.

Both consume substreams 0 (Y drivers), 1 (B), 2 (L) and 3 (initial draws)
of one RngStream, so a path is addressed entirely by (seed, stream_id).

simulate_path is the scalar reference and _step the one vector stepper,
which runs ensembles, critical limit draws, the per-stream batches of
replication studies and supercritical probes, and stationary burn-in
legs. Both walk the grid in time blocks of BLOCK_STEPS steps, in one
order: Y over the block (exact Y with sigma1 > 0 through one row kernel,
_CirKernel.walk), the block's Y-only terms of the X update, then X. They
compute the same expressions in the same order, simulate_path on Python
floats and _step in ufunc calls, so every vector row is bit-identical to
simulate_path on its stream. _start draws every path's start. No vector
run keeps a whole path: simulate_ensemble, the burn-in legs and the
supercritical probes keep the end points only, and the other runs are
folded into path sums block by block as they are stepped, uncopied
(estimators.functionals_from_blocks).

At a few hundred rows a ufunc call costs more in dispatch than in
arithmetic, so _step's per-step loops make one call per elementwise
operation that depends on the state, and no other. Every product of
constants, and every term that depends only on Y and the noise, is
formed once per block, as in simulate_path:

  Y (full truncation)  yi + (a*dt - (b*dt)*y) + sqrt(y)*(sigma1*dw),
                       seven ufunc calls per step (_step_y_euler)
  X                    x + (e - (gamma*dt)*x) with
                       e = ((alpha - beta*y)*dt
                            + sigma2*sqrt(y)*(rho*dw + ortho*db))
                           + sigma3*dl,
                       no per-step call: given Y, X is a linear
                       recurrence, filled as one scan per block (_scan_x)
                       with one divide, one cumsum and one multiply
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError
from .kernels import psi
from .model import ModelSpec
from .moments import stationary_moments, stationary_y_gamma_params
from .rng import RngStream

Y_FLOOR = 1e-12
SCHEMES = ("exact_y_euler_x", "full_euler")
DEFAULT_BURN_IN_RATE = 20.0
# steps per time block of the vector stepper; the path reduction
# (estimators.functionals_from_arrays) sums a whole path in segments of
# the same length, left to right within each and in order across them,
# so it gets the same bits as a study that reduces the blocks one by one
BLOCK_STEPS = 1024
# no block array of the stepper holds more than BLOCK_STEPS * WIDE_ROWS
# values (2 MiB): per-stream batches take WIDE_ROWS rows at a time, and
# wider shared-stream ensembles take shorter blocks (a full block of 1e5
# paths would take 800 MB); their draws never depend on the block length.
# Wider rows spread each ufunc call's dispatch cost over more path-steps,
# with little left to gain past 256
WIDE_ROWS = 256
# steps per run of the X scan (_scan_x); runs start at the global step
# multiples of its length, so where a block ends never changes a bit
SCAN_STEPS = 1024


@dataclass(eq=False)
class PathGrid:
    """A uniformly sampled trajectory (t_i, Y_i, X_i), immutable by convention."""

    t0: float
    dt: float
    y: np.ndarray
    x: np.ndarray
    seed_record: str = ""

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        if self.y.shape != self.x.shape or self.y.ndim != 1 or self.y.size < 2:
            raise ValueError("y and x must be equal-length 1-d arrays of size >= 2")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        for name, v in (("y", self.y), ("x", self.x)):
            bad = np.flatnonzero(~np.isfinite(v))
            if bad.size:
                raise ValueError(f"{name}[{bad[0]}] = {v[bad[0]]} is not finite")
        if np.any(self.y < 0.0):
            raise ValueError("negative Y value in path")

    @property
    def t(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.y.size)

    @property
    def horizon(self) -> float:
        return (self.y.size - 1) * self.dt

    def __len__(self) -> int:
        return self.y.size


@dataclass(eq=False)
class EnsembleResult:
    """Cross-path end points (Y_T, X_T), indexed by path."""

    y_end: np.ndarray
    x_end: np.ndarray


def _n_grid(T: float, dt: float) -> int:
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if T < dt:
        raise ValueError(f"horizon T={T} shorter than one step dt={dt}")
    return int(math.floor(T / dt + 1e-9)) + 1


class _CirKernel:
    """Per-step constants of the exact Y transition at fixed dt.

    A Poisson mixture of gammas: valid for any df > 0, no rejection, and
    gamma(shape=0) == 0 keeps the a=0, y=0 absorbing state exact. walk is
    the row kernel (simulate_path, sample_cir_transition, per-row _step);
    draw is the same step on the rows of _step's shared stream.
    """

    def __init__(self, a: float, b: float, sigma1: float, dt: float):
        self.scale = sigma1**2 * psi(b, dt) / 4.0
        self.half_df = 2.0 * a / sigma1**2
        self.decay = math.exp(-b * dt)

    def draw(self, y: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        nc_half = self.decay * y / (2.0 * self.scale)
        n_mix = gen.poisson(nc_half)
        return 2.0 * self.scale * gen.standard_gamma(self.half_df + n_mix)

    def walk(self, y: float, m: int, gen: np.random.Generator) -> list[float]:
        """m successive scalar draws from y: draw's operations, looped."""
        two_scale, decay, half_df = 2.0 * self.scale, self.decay, self.half_df
        poisson, gamma = gen.poisson, gen.standard_gamma
        out = []
        for _ in range(m):
            y = two_scale * gamma(half_df + poisson(decay * y / two_scale))
            out.append(y)
        return out


def sample_cir_transition(
    a: float, b: float, sigma1: float, y_s: float, dt: float, rng: np.random.Generator
) -> float:
    """One exact draw of Y_{s+dt} given Y_s = y_s: a one-step _CirKernel.walk.

    The transition law is scale * chi-square(4a/sigma1^2 degrees of
    freedom, noncentrality exp(-b*dt)*y_s/scale) with
    scale = sigma1^2*psi(b,dt)/4.
    """
    if not sigma1 > 0.0:
        raise ValueError("sigma1 must be positive; use the ODE step when sigma1 = 0")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not y_s >= 0.0:
        raise ValueError(f"y_s must be nonnegative, got {y_s}")
    return _CirKernel(a, b, sigma1, dt).walk(y_s, 1, rng)[0]


def _wants_b(spec: ModelSpec) -> bool:
    # B enters through sigma2*sqrt(1-rho^2); skip draws when the
    # coefficient vanishes so degenerate models consume fewer streams
    return spec.sigma2 > 0.0 and abs(spec.rho) < 1.0


def _wants_l(spec: ModelSpec) -> bool:
    return spec.sigma3 > 0.0


def simulate_path(
    spec: ModelSpec,
    T: float,
    dt: float,
    scheme: str = "exact_y_euler_x",
    rng: RngStream | None = None,
) -> PathGrid:
    """Simulate one trajectory on the grid 0, dt, ..., floor(T/dt)*dt.

    Steps as _step does, on Python floats: Y over a block of BLOCK_STEPS
    steps, then X, with each block's W, B and L normals from one
    standard_normal(m) call per substream (the sequence of m scalar calls).
    X is the block's _scan_x on a 1-d block, as _step's is on rows.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if rng is None:
        raise ValueError("an RngStream is required")
    n = _n_grid(T, dt)
    growth = _x_growth(spec.gamma * dt)
    (y0,), (x0,) = _start(spec, dt, [rng])

    a, b, alpha, beta = spec.a, spec.b, spec.alpha, spec.beta
    sigma1, sigma2, sigma3, rho = spec.sigma1, spec.sigma2, spec.sigma3, spec.rho
    ortho = math.sqrt(max(1.0 - rho**2, 0.0))
    a_dt, b_dt = a * dt, b * dt
    gen_y = rng.generator(0)
    gen_b = rng.generator(1) if _wants_b(spec) else None
    gen_l = rng.generator(2) if _wants_l(spec) else None

    def normals(gen, m):
        return (gen.standard_normal(m) * math.sqrt(dt)).tolist()

    exact = scheme == "exact_y_euler_x"
    kernel = _CirKernel(a, b, sigma1, dt) if exact and sigma1 > 0.0 else None
    decay, level = math.exp(-b * dt), a * psi(b, dt)
    y, x = np.full(n, y0), np.full(n, x0)
    yi = float(y0)  # may go negative under full_euler
    t = x[0]  # the X scan's state
    for lo in range(0, n - 1, BLOCK_STEPS):
        m = min(BLOCK_STEPS, n - 1 - lo)
        ys = [float(y[lo])]
        if kernel is not None:
            ys += kernel.walk(ys[0], m, gen_y)
            # the W increments that produced Y, denominator floored near 0
            dw = [(yn - yj - (a - b * yj) * dt) / (sigma1 * math.sqrt(max(yj, Y_FLOOR)))
                  for yj, yn in zip(ys, ys[1:])]
        else:
            dw = normals(gen_y, m)
            if exact:
                for _ in range(m):
                    ys.append(decay * ys[-1] + level)
            else:
                for dwj in dw:
                    yj = ys[-1]
                    yi = yi + (a_dt - b_dt * yj) + math.sqrt(yj) * (sigma1 * dwj)
                    ys.append(max(yi, 0.0))
        # e: X's increment but -(gamma*dt)*x; absent sources add no term
        e = [rho * dwj for dwj in dw]
        if gen_b is not None:
            e = [ej + ortho * dbj for ej, dbj in zip(e, normals(gen_b, m))]
        e = [(alpha - beta * yj) * dt + sigma2 * math.sqrt(yj) * ej
             for yj, ej in zip(ys, e)]
        if gen_l is not None:
            e = [ej + sigma3 * dlj for ej, dlj in zip(e, normals(gen_l, m))]
        y[lo + 1 : lo + m + 1] = ys[1:]
        t = _scan_x(growth, lo, x[lo : lo + m + 1], t, np.array(e))
    return PathGrid(0.0, dt, y, x, seed_record=repr(rng))


def _noise(source, m: int, rows: int, scale: float) -> np.ndarray | None:
    """An (m, rows) time-major block of scale * N(0, 1) draws.

    A shared Generator fills it in one call, which continues the same
    sequence as m successive (rows,)-shaped calls; a list holds one
    Generator per row, each filling one contiguous row of a (rows, m)
    draw that is transposed and scaled in one pass.
    """
    if source is None:
        return None
    if isinstance(source, np.random.Generator):
        z = source.standard_normal((m, rows))
        z *= scale
        return z
    z = np.empty((rows, m))
    for g, row in zip(source, z):
        g.standard_normal(out=row)
    return np.multiply(z.T, scale, order="C")


def _row_consts(rows: int, *values: float) -> list[np.ndarray]:
    """One (rows,) vector per constant, the operands of the step loops."""
    return [np.full(rows, v) for v in values]


def _step_y_euler(spec: ModelSpec, dt: float, y: np.ndarray, yi: np.ndarray,
                  dw: np.ndarray) -> None:
    """Full-truncation Euler for Y over one block, in place.

    yi is the real-valued internal state, y[j + 1] its positive part.
    Each step reproduces simulate_path's

        yi + (a*dt - (b*dt)*y) + sqrt(y)*(sigma1*dw)

    with a*dt, b*dt and sigma1*dw formed once per block (dw is left
    untouched for _step_x), so a step makes seven ufunc calls: mul, sub,
    sqrt, mul, add, add, maximum.
    """
    a_dt, b_dt, zero = _row_consts(yi.size, spec.a * dt, spec.b * dt, 0.0)
    s1dw = np.multiply(dw, spec.sigma1)
    drift = np.empty_like(yi)
    shock = np.empty_like(yi)
    mul, sub, add, sqrt, maximum = (np.multiply, np.subtract, np.add, np.sqrt,
                                    np.maximum)
    ys = list(y)
    for yj, y_next, sj in zip(ys, ys[1:], list(s1dw)):
        mul(yj, b_dt, drift)
        sub(a_dt, drift, drift)
        sqrt(yj, shock)
        mul(shock, sj, shock)
        add(yi, drift, yi)
        add(yi, shock, yi)
        maximum(yi, zero, out=y_next)  # numpy deprecates a positional out here


def _x_growth(gamma_dt: float) -> np.ndarray:
    """_scan_x's table P[i] = exp(i*L), i = 0..S, with L = log1p(-gamma*dt).

    P[i] is X's growth (1 - gamma*dt)^i over i Euler steps, rounded once
    per entry: a cumprod of fl(1 - gamma*dt) compounds its rounding and
    drifts 6e-12 over a 60 000-step supercritical probe. A run of the
    scan is S = min(SCAN_STEPS, floor(600/|L|)) >= 1 steps, so P stays
    within e^(+-600), normal doubles. gamma*dt >= 1 is refused: there
    1 - gamma*dt <= 0, so X flips sign at every step (or, at 1, keeps no
    memory), which does not discretise the model.
    """
    if not gamma_dt < 1.0:
        raise HypothesisError(
            f"Euler X needs gamma*dt < 1, got gamma*dt = {gamma_dt!r}: "
            "1 - gamma*dt <= 0 flips the sign of X at every step; take a "
            "smaller dt")
    log_phi = math.log1p(-gamma_dt)
    span = 600.0 / abs(log_phi) if log_phi else math.inf
    steps = max(1, int(min(SCAN_STEPS, span)))
    return np.exp(np.arange(steps + 1) * log_phi)


def _scan_x(growth: np.ndarray, lo: int, x: np.ndarray, t, e: np.ndarray):
    """Euler for X over one block, x[j+1] = x[j] + (e[j] - (gamma*dt)*x[j]).

    x holds the block's m + 1 time-major rows (1-d for simulate_path,
    (m + 1, rows) for _step) with x[0] set, e the m increments but the
    -(gamma*dt)*x term (overwritten), lo the global step of x[0], growth
    _x_growth's table P and t the scan state the previous block returned.
    Given Y, X is a linear recurrence, so it is a prefix scan. Runs of
    S = growth.size - 1 steps start at the global step multiples of S;
    a run from step j0 scans

        t[j0] = x[j0],  t[j+1] = t[j] + e[j]/P[j+1-j0],
        x[j+1] = P[j+1-j0]*t[j+1],

    which is the recursion multiplied out: one divide, and one cumsum
    along time and one multiply per run within the block. The scan adds
    in the recursion's own order, so for gamma = 0 (P all ones) its bits
    are the recursion's; otherwise it stays within about 1e-14 of it,
    relative to the largest |X| so far. Returns t at x[m], for the next
    block.
    """
    steps = growth.size - 1
    m = e.shape[0]
    shape = (m,) + (1,) * (x.ndim - 1)  # one P entry per step, over the rows
    p = growth[np.arange(lo, lo + m) % steps + 1].reshape(shape)
    np.divide(e, p, out=e)
    # the offsets where a run starts, and where the block ends
    bounds = [0, *range(steps - lo % steps, m, steps), m]
    if lo % steps == 0:
        t = x[0]
    for s0, s1 in zip(bounds, bounds[1:]):
        if s0:
            t = x[s0]  # a run starts from x where the last one ended
        e[s0] += t
        run = x[s0 + 1 : s1 + 1]
        np.cumsum(e[s0:s1], axis=0, out=run)
        t = run[-1].copy()
        run *= p[s0:s1]
    return t


def _step_x(spec: ModelSpec, dt: float, ortho: float, growth: np.ndarray,
            lo: int, y: np.ndarray, x: np.ndarray, t, dw: np.ndarray, db,
            dl):
    """Euler for X over one block, in place, given the whole Y block.

    Each step reproduces simulate_path's x + (e - (gamma*dt)*x), where

        e = ((alpha - beta*y)*dt + sigma2*sqrt(y)*(rho*dw + ortho*db))
            + sigma3*dl

    depends on Y and the noise alone, so it is formed for the whole block
    (dw, db and dl are overwritten), without the B or L term when that
    source is not drawn. X is then one _scan_x over the block, with no
    per-step call, and its t is returned for the next block.
    """
    yl = y[:-1]
    e = spec.beta * yl
    np.subtract(spec.alpha, e, out=e)  # alpha - beta*y
    e *= dt
    shock = np.sqrt(yl)
    shock *= spec.sigma2
    dw *= spec.rho
    if db is not None:
        db *= ortho
        dw += db
    shock *= dw  # sigma2*sqrt(y) * (rho*dw + ortho*db)
    e += shock
    if dl is not None:
        dl *= spec.sigma3
        e += dl
    return _scan_x(growth, lo, x, t, e)


def _step(
    spec: ModelSpec,
    T: float,
    dt: float,
    scheme: str,
    rng: RngStream | list[RngStream],
    y0: np.ndarray,
    x0: np.ndarray,
):
    """Vectorized stepping of y0.size paths: the one vector stepping loop.

    rng is one RngStream whose substreams all rows share, with
    (rows,)-shaped draws per step, or a list of RngStreams, one per row.
    Either way each substream is consumed in simulate_path's order, so a
    size-1 ensemble, or row r of a per-row batch, is bit-identical to the
    scalar engine on the same stream.

    Yields time-major (y, x) blocks of shape (m + 1, rows): row 0 is the
    previous block's last row (the start on the first block), then m
    steps. m is BLOCK_STEPS, the last block holding the remainder, for
    up to WIDE_ROWS rows; wider runs take proportionally shorter blocks,
    so that no block outgrows BLOCK_STEPS * WIDE_ROWS values. Rows that
    own streams walk exact Y with _CirKernel.walk, as simulate_path does;
    rows on one shared stream draw it a step at a time.

    The per-step loops (here and in _step_y_euler) dispatch only what
    depends on the state: a full_euler step makes 7 calls for Y, an
    exact-Y step with sigma1 = 0 makes 2 for Y, and X makes none (it is
    one _scan_x per block). Constant operands are row vectors built once
    per block (a Python float is converted on every call), every call
    writes through out= (augmented assignment goes through the operator
    protocol first), passed positionally except to maximum, for which
    numpy deprecates that, the ufuncs are local names, and the rows are
    listed as views once per block rather than indexed at every step.
    """
    n = _n_grid(T, dt)
    growth = _x_growth(spec.gamma * dt)
    rows = y0.size
    sqrt_dt = math.sqrt(dt)
    ortho = math.sqrt(max(1.0 - spec.rho**2, 0.0))
    shared = isinstance(rng, RngStream)

    def substream(k):
        if shared:
            return rng.generator(k)
        return [s.generator(k) for s in rng]

    gen_y = substream(0)
    gen_b = substream(1) if _wants_b(spec) else None
    gen_l = substream(2) if _wants_l(spec) else None

    exact = scheme == "exact_y_euler_x"
    kernel = None
    if exact and spec.sigma1 > 0.0:
        kernel = _CirKernel(spec.a, spec.b, spec.sigma1, dt)
    decay, level = math.exp(-spec.b * dt), spec.a * psi(spec.b, dt)

    per_block = max(1, min(BLOCK_STEPS, BLOCK_STEPS * WIDE_ROWS // rows))
    y_last = y0.astype(float)
    x_last = x0.astype(float)
    t_last = x_last  # the X scan's state
    yi = y_last.copy()  # internal full_euler state
    for lo in range(0, n - 1, per_block):
        m = min(per_block, n - 1 - lo)
        dw = _noise(None if kernel is not None else gen_y, m, rows, sqrt_dt)
        db = _noise(gen_b, m, rows, sqrt_dt)
        dl = _noise(gen_l, m, rows, sqrt_dt)
        y = np.empty((m + 1, rows))
        x = np.empty((m + 1, rows))
        y[0], x[0] = y_last, x_last
        if kernel is not None:
            if shared:
                for j in range(m):
                    y[j + 1] = kernel.draw(y[j], gen_y)
            else:
                for r, g in enumerate(gen_y):
                    y[1:, r] = kernel.walk(float(y[0, r]), m, g)
            # invert the Y update for the W increments that produced it,
            # with the denominator floored to avoid blow-up near 0
            yl = y[:-1]
            dw = (y[1:] - yl - (spec.a - spec.b * yl) * dt) / (
                spec.sigma1 * np.sqrt(np.maximum(yl, Y_FLOOR))
            )
        elif exact:
            decay_r, level_r = _row_consts(rows, decay, level)
            ys = list(y)
            for yj, y_next in zip(ys, ys[1:]):
                np.multiply(yj, decay_r, out=y_next)
                np.add(y_next, level_r, out=y_next)
        else:
            _step_y_euler(spec, dt, y, yi, dw)
        t_last = _step_x(spec, dt, ortho, growth, lo, y, x, t_last, dw, db, dl)
        y_last, x_last = y[-1], x[-1]
        yield y, x


def simulate_ensemble(
    spec: ModelSpec,
    T: float,
    dt: float,
    scheme: str = "exact_y_euler_x",
    rng: RngStream | None = None,
    n_paths: int = 1,
) -> EnsembleResult:
    """Simulate n_paths trajectories at once from a single stream.

    Keeps only the end points (Y_T, X_T). All paths share the stream's
    substreams with (n_paths,)-shaped draws per step.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if rng is None:
        raise ValueError("an RngStream is required")
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    y0, x0 = _start(spec, dt, rng, n_paths)
    for y, x in _step(spec, T, dt, scheme, rng, y0, x0):
        pass
    return EnsembleResult(y_end=y[-1].copy(), x_end=x[-1].copy())


def euler_paths_per_stream(
    spec: ModelSpec,
    T: float,
    dt: float,
    scheme: str,
    streams,
):
    """Yield (row_slice, y, x) time blocks of paths, one stream each.

    Steps either scheme. Rows come WIDE_ROWS at a time; each batch's grid
    arrives in consecutive blocks of BLOCK_STEPS steps (fewer in the
    last), y and x of shape (rows, m + 1) with time on the last axis,
    and column 0 repeating the previous block's last column. y and x are
    transposed views of the stepper's time-major blocks, not copies. So a
    consumer holds O(WIDE_ROWS * BLOCK_STEPS) values, never a whole path.

    Unlike simulate_ensemble, every path here owns its RngStream, and its
    start comes from that stream as in simulate_path, so row r is
    bit-identical to simulate_path(spec, T, dt, scheme, streams[r]).
    A stream is an address: passing it again restarts the same path.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    for lo in range(0, len(streams), WIDE_ROWS):
        sub = streams[lo : lo + WIDE_ROWS]
        rows = slice(lo, lo + len(sub))
        y0, x0 = _start(spec, dt, sub)
        for y, x in _step(spec, T, dt, scheme, sub, y0, x0):
            yield rows, y.T, x.T


def _start(spec: ModelSpec, dt: float, rng, rows: int = 1):
    """Every path's start: (y0, x0) row vectors drawn as spec.init says.

    rng is what _step takes: one stream that rows paths share, or a list
    of per-row streams, each giving its row simulate_path's start on it.
    The stationary kinds draw Y0 from the stationary gamma law on
    substream 3. "stationary" then starts X at E(X_inf) and burns every
    row in for burn_in time units (DEFAULT_BURN_IN_RATE / min(b, gamma)
    when unset) with one exact-Y _step run on the children spawn(0).
    """
    init = spec.init
    shared = isinstance(rng, RngStream)
    # every stream draws size values: all rows from a shared one, else one
    streams, size = ([rng], rows) if shared else (rng, 1)
    rows = size * len(streams)
    if init.kind == "point":
        return np.full(rows, init.y0), np.full(rows, init.x0)
    shape, rate = stationary_y_gamma_params(spec)
    y0 = np.concatenate([s.generator(3).gamma(shape, 1.0 / rate, size)
                         for s in streams])
    if init.kind == "stationary-y":
        return y0, np.full(rows, init.x0)
    burn_in = init.burn_in
    if burn_in is None:
        burn_in = DEFAULT_BURN_IN_RATE / min(spec.b, spec.gamma)
    x_eq = stationary_moments(spec, 0, 1).get(0, 1)
    leg = rng.spawn(0) if shared else [s.spawn(0) for s in rng]
    for y, x in _step(spec, max(burn_in, dt), dt, "exact_y_euler_x",
                      leg, y0, np.full(rows, x_eq)):
        pass
    return y[-1].copy(), x[-1].copy()
