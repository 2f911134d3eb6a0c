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

_step is the one stepping loop: single paths (simulate_path is a one-row
run), ensembles, critical limit draws, the per-stream batches of
replication studies and supercritical probes, and stationary burn-in
legs all run through it. It walks the grid in time blocks of
BLOCK_STEPS steps, in one order: Y over the block (exact Y with
sigma1 > 0 through one row kernel, _CirKernel.walk, on rows that own
streams), the block's Y-only terms of the X update, then X. No operation
mixes rows, so row r of a per-stream batch is bit-identical to the
one-row run on its stream, whatever the width; the tests check that run
against a plain-Python per-step oracle. _start draws every path's start.
No vector run keeps a whole path: simulate_ensemble, the burn-in legs
and the supercritical probes keep the end points only, and the other
runs are folded into path sums block by block as they are stepped,
uncopied (estimators.functionals_from_blocks).

Nothing _step computes feeds the noise, and each generator follows its
stream's address, so the normals may be drawn anywhere without moving a
bit. A run of at least _FEED_NORMALS normals, in a process with one
thread and 2 CPUs in its affinity mask, forks one child that fills each
block's normals while _step walks the block before (_noise_blocks),
and lives exactly as long as that _step run; elsewhere _step fills.

At a few hundred rows a ufunc call costs more in dispatch than in
arithmetic, so _step's per-step loops make one call per elementwise
operation that depends on the state, and no other. Every product of
constants, and every term that depends only on Y and the noise, is
formed once per block:

  Y (full truncation)  yi + (a*dt - (b*dt)*y) + sqrt(y)*(sigma1*dw),
                       seven ufunc calls per step (_step_y_euler)
  X                    x + (e - (gamma*dt)*x) with
                       e = ((alpha - beta*y)*dt
                            + sigma2*sqrt(y)*(rho*dw + ortho*db))
                           + sigma3*dl,
                       no per-step call: given Y, X is a linear
                       recurrence, filled by a prefix scan (_scan_x)
                       whose runs restart at each block, with one
                       divide, one cumsum and one multiply per run

On one row the seven calls are nearly all of a full_euler step's cost.
"""

from __future__ import annotations

import math
import mmap
import numbers
import os
import signal
import sys
import threading
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
BLOCK_STEPS = 512
# no block array of the stepper holds more than BLOCK_STEPS * WIDE_ROWS
# values (1 MiB): per-stream batches take WIDE_ROWS rows at a time, and
# wider shared-stream ensembles take shorter blocks (a full block of 1e5
# paths would take 400 MB); their draws never depend on the block length.
# Wider rows spread each ufunc call's dispatch cost over more path-steps,
# with little left to gain past 256
WIDE_ROWS = 256
# a run of at least this many normals draws them in a forked child
# (_noise_blocks): fork plus reap takes about 3.3 ms, the fill of 2^17
# Philox normals, and only the blocks after the first are overlapped
_FEED_NORMALS = 1 << 20


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
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0}")
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
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(T):
        raise ValueError(f"T must be finite, got {T}")
    if T < dt:
        raise ValueError(f"horizon T={T} shorter than one step dt={dt}")
    return int(math.floor(T / dt + 1e-9)) + 1


class _CirKernel:
    """Per-step constants of the exact Y transition at fixed dt.

    A Poisson mixture of gammas: valid for any df > 0, no rejection, and
    gamma(shape=0) == 0 keeps the a=0, y=0 absorbing state exact. walk is
    the row kernel (sample_cir_transition, and _step on rows that own
    their streams, single paths included); draw is the same step on the
    rows of _step's shared stream.
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


def simulate_path(
    spec: ModelSpec,
    T: float,
    dt: float,
    scheme: str = "exact_y_euler_x",
    rng: RngStream | None = None,
) -> PathGrid:
    """Simulate one trajectory on the grid 0, dt, ..., floor(T/dt)*dt.

    A one-row _step run on [rng], its start drawn by _start, with column
    0 of each block copied out: the row on rng of any per-stream batch is
    this path.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if rng is None:
        raise ValueError("an RngStream is required")
    n = _n_grid(T, dt)
    y, x = np.empty(n), np.empty(n)
    lo = 0
    for yb, xb in _step(spec, T, dt, scheme, [rng], *_start(spec, dt, [rng])):
        y[lo : lo + len(yb)], x[lo : lo + len(xb)] = yb[:, 0], xb[:, 0]
        lo += len(yb) - 1
    return PathGrid(0.0, dt, y, x, seed_record=repr(rng))


def _noise(source, out: np.ndarray, scale: float) -> None:
    """Fill out, an (m, rows) time-major block, with scale * N(0, 1) draws.

    A shared Generator fills it in one call, which continues the same
    sequence as m successive (rows,)-shaped calls; a list holds one
    Generator per row, each filling one contiguous row of a (rows, m)
    draw that is transposed and scaled into out in one pass. It is the
    one fill, in _noise_blocks' forked child or not: the same bits.
    """
    if isinstance(source, np.random.Generator):
        source.standard_normal(out=out)
        out *= scale
        return
    z = np.empty(out.shape[::-1])
    for g, row in zip(source, z):
        g.standard_normal(out=row)
    np.multiply(z.T, scale, out=out)


def _noise_blocks(sources, sizes: list[int], rows: int, scale: float):
    """Yield each block's noise: per source, _noise's (sizes[k], rows)
    block, or None where the source is not drawn.

    Block k lives in slot k % 2, which the caller may overwrite until it
    asks for block k + 1. A run of at least _FEED_NORMALS normals, in a
    process with no other thread and 2 CPUs in its affinity mask, forks
    a child that fills block k + 1 while the caller steps block k, into
    a shared mapping; both sides block on pipes, for a "ready" token per
    block and a "free" one per slot. The child leaves by os._exit (no
    exit hook or buffered output runs twice), and the finally below
    kills and reaps it however the run ends; if it dies, the "ready"
    pipe closes and the caller raises. Otherwise the caller fills.
    """
    drawn = [i for i, s in enumerate(sources) if s is not None]
    span = len(drawn) * max(sizes, default=0) * rows  # values per slot
    fork = (len(drawn) * sum(sizes) * rows >= max(_FEED_NORMALS, 1)
            and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)
    slots = (np.frombuffer(mmap.mmap(-1, 16 * span), dtype=float) if fork
             else np.empty(2 * span)).reshape(2, span)

    def block(k, fill):
        size = sizes[k] * rows
        out = [None] * len(sources)
        for j, i in enumerate(drawn):
            out[i] = slots[k % 2, j * size : (j + 1) * size].reshape(-1, rows)
            if fill:
                _noise(sources[i], out[i], scale)
        return out

    pid = None
    if fork:
        ready_r, ready_w = os.pipe()
        free_r, free_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: fill here
            for fd in (ready_r, ready_w, free_r, free_w):
                os.close(fd)
    if pid is None:
        yield from (block(k, True) for k in range(len(sizes)))
        return
    if pid == 0:
        try:
            # hold no other pipe open, lest its reader wait on this child
            lo, hi = sorted((free_r, ready_w))
            os.closerange(3, lo)
            os.closerange(lo + 1, hi)
            os.closerange(hi + 1, os.sysconf("SC_OPEN_MAX"))
            for k in range(len(sizes)):
                if k >= 2 and not os.read(free_r, 1):
                    break  # the caller is gone
                block(k, True)
                os.write(ready_w, b"r")
            os._exit(0)
        except Exception:
            sys.excepthook(*sys.exc_info())  # the caller sees the pipe close
        finally:
            os._exit(1)
    try:
        os.close(ready_w)
        os.close(free_r)
        for k in range(len(sizes)):
            if 0 < k < len(sizes) - 1:
                os.write(free_w, b"f")  # block k - 1's slot, for block k + 1
            if not os.read(ready_r, 1):
                raise RuntimeError(f"the noise feed's child process exited "
                                   f"before block {k} of {len(sizes)}")
            yield block(k, False)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(ready_r)
        os.close(free_w)


def _row_consts(rows: int, *values: float) -> list[np.ndarray]:
    """One (rows,) vector per constant, the operands of the step loops."""
    return [np.full(rows, v) for v in values]


def _step_y_euler(spec: ModelSpec, dt: float, y: np.ndarray, yi: np.ndarray,
                  dw: np.ndarray) -> None:
    """Full-truncation Euler for Y over one block, in place.

    yi is the real-valued internal state, y[j + 1] its positive part.
    Each step computes, in this order,

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
    scan is S = min(BLOCK_STEPS, floor(600/|L|)) >= 1 steps, so P stays
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
    steps = max(1, int(min(BLOCK_STEPS, span)))
    return np.exp(np.arange(steps + 1) * log_phi)


def _scan_x(growth: np.ndarray, x: np.ndarray, e: np.ndarray) -> None:
    """Euler for X over one block, x[j+1] = x[j] + (e[j] - (gamma*dt)*x[j]).

    x holds the block's m + 1 time-major rows, shape (m + 1, rows), with
    x[0] set, e the m increments but the -(gamma*dt)*x term
    (overwritten) and growth _x_growth's table P.
    Given Y, X is a linear recurrence, so it is a prefix scan. Runs of
    S = growth.size - 1 steps start at the block's first step and then
    every S steps, each from x where the last one ended; a run from
    step j0 scans

        t[j0] = x[j0],  t[j+1] = t[j] + e[j]/P[j+1-j0],
        x[j+1] = P[j+1-j0]*t[j+1],

    which is the recursion multiplied out: one divide, one cumsum along
    time and one multiply per run. The scan adds in the recursion's own
    order, so for gamma = 0 (P all ones) its bits are the recursion's;
    otherwise it stays within about 1e-14 of it, relative to the largest
    |X| so far.
    """
    steps = growth.size - 1
    for j0 in range(0, e.shape[0], steps):
        run, out = e[j0 : j0 + steps], x[j0 + 1 : j0 + steps + 1]
        p = growth[1 : len(run) + 1, None]
        np.divide(run, p, out=run)
        run[0] += x[j0]
        np.cumsum(run, axis=0, out=out)
        out *= p


def _step_x(spec: ModelSpec, dt: float, ortho: float, growth: np.ndarray,
            y: np.ndarray, x: np.ndarray, dw: np.ndarray, db, dl) -> None:
    """Euler for X over one block, in place, given the whole Y block.

    Each step is x + (e - (gamma*dt)*x), where

        e = ((alpha - beta*y)*dt + sigma2*sqrt(y)*(rho*dw + ortho*db))
            + sigma3*dl

    depends on Y and the noise alone, so it is formed for the whole block
    (dw, db and dl are overwritten), without the B or L term when that
    source is not drawn. X is then one _scan_x over the block, with no
    per-step call.
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
    _scan_x(growth, x, e)


def _step(
    spec: ModelSpec,
    T: float,
    dt: float,
    scheme: str,
    rng: RngStream | list[RngStream],
    y0: np.ndarray,
    x0: np.ndarray,
):
    """Vectorized stepping of y0.size paths: the one stepping loop.

    rng is one RngStream whose substreams all rows share, with
    (rows,)-shaped draws per step, or a list of RngStreams, one per row.
    No operation mixes rows and each substream is consumed in one order,
    so row r of a per-row batch is bit-identical to the one-row run on
    its stream (simulate_path), whatever the width; a size-1 ensemble on
    a shared stream is that run too.

    Yields time-major (y, x) blocks of shape (m + 1, rows): row 0 is the
    previous block's last row (the start on the first block), then m
    steps. m is BLOCK_STEPS, the last block holding the remainder, for
    up to WIDE_ROWS rows; wider runs take proportionally shorter blocks,
    so that no block outgrows BLOCK_STEPS * WIDE_ROWS values. Rows that
    own streams walk exact Y with _CirKernel.walk, a block per row; rows
    on one shared stream draw it a step at a time. _noise_blocks gives
    each block's noise, drawn ahead by a forked child on a large run;
    the child is reaped when this generator ends, is closed or collected.

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
    # B enters through sigma2*sqrt(1-rho^2); a source whose coefficient
    # vanishes is not drawn, so degenerate models consume fewer streams
    gen_b = substream(1) if spec.sigma2 > 0.0 and abs(spec.rho) < 1.0 else None
    gen_l = substream(2) if spec.sigma3 > 0.0 else None

    exact = scheme == "exact_y_euler_x"
    kernel = None
    if exact and spec.sigma1 > 0.0:
        kernel = _CirKernel(spec.a, spec.b, spec.sigma1, dt)
    decay, level = math.exp(-spec.b * dt), spec.a * psi(spec.b, dt)

    per_block = max(1, min(BLOCK_STEPS, BLOCK_STEPS * WIDE_ROWS // rows))
    sizes = [min(per_block, n - 1 - lo) for lo in range(0, n - 1, per_block)]
    sources = (None if kernel is not None else gen_y, gen_b, gen_l)
    feed = _noise_blocks(sources, sizes, rows, sqrt_dt)
    y_last = y0.astype(float)
    x_last = x0.astype(float)
    yi = y_last.copy()  # internal full_euler state
    try:
        for m, (dw, db, dl) in zip(sizes, feed):
            y = np.empty((m + 1, rows))
            x = np.empty((m + 1, rows))
            y[0], x[0] = y_last, x_last
            if kernel is not None:
                if shared:
                    for j in range(m):
                        y[j + 1] = kernel.draw(y[j], gen_y)
                else:
                    for r, g in enumerate(gen_y):
                        try:
                            y[1:, r] = kernel.walk(float(y[0, r]), m, g)
                        except ValueError as exc:
                            # the Poisson mean decay*y/(2*scale) passed
                            # numpy's limit: Y grows like e^(|b| t) when b < 0
                            raise ValueError(
                                f"{rng[r]!r}: exact Y left numpy's Poisson "
                                f"range in the block that starts at Y = "
                                f"{y[0, r]:.6g}: the mixture mean "
                                f"decay*Y/(2*scale) must stay below numpy's "
                                f"limit of about 9.2e18, that is Y below "
                                f"{9.2e18 * 2.0 * kernel.scale / kernel.decay:.3g}"
                                f" ({exc})") from exc
                # invert the Y update for the W increments that produced
                # it, with the denominator floored to avoid blow-up near 0
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
            _step_x(spec, dt, ortho, growth, y, x, dw, db, dl)
            y_last, x_last = y[-1], x[-1]
            yield y, x
    finally:
        feed.close()


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
    if not isinstance(n_paths, numbers.Integral) or n_paths < 1:
        raise ValueError(f"n_paths must be an integer of at least 1, got {n_paths!r}")
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
    start comes from that stream, so row r is the one-row run on it:
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
    of per-row streams, each drawing its own row's start.
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
