"""Exact mixed moments E(Y^k X^l), transient and stationary.

These are the analytic oracles every Monte Carlo test is judged against.
The mixed moments close under the generator: d/dt E(Y^k X^l) is a fixed
linear combination of moments of order at most (k+1, l), written once in
_generator_rows. The transient lattice solves that constant-coefficient
linear ODE system, and the stationary lattice solves the balance
equations of the same generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError
from .kernels import psi
from .model import ModelSpec, Regime, classify_regime


@dataclass(frozen=True)
class MomentTable:
    """Moments on the lattice {0..k_max} x {0..l_max}.

    mode is "stationary" or "transient"; t is the evaluation time for
    transient tables and None otherwise. Negative indices read as 0.
    """

    mode: str
    values: dict[tuple[int, int], float]
    k_max: int
    l_max: int
    t: float | None = None

    def get(self, k: int, l: int) -> float:
        if k < 0 or l < 0:
            return 0.0
        return self.values[(k, l)]

    def to_text(self) -> str:
        head = self.mode if self.t is None else f"{self.mode} t={self.t!r}"
        lines = [f"# {head}"]
        for (k, l) in sorted(self.values):
            lines.append(f"{k},{l},{self.values[(k, l)]:.17g}")
        return "\n".join(lines) + "\n"


def _lattice_rows(k_max: int, l_max: int) -> int:
    """The size of _extended_lattice(k_max, l_max), counted before it is built."""
    return (k_max + 1) * (l_max + 1) + l_max * (l_max + 1) // 2


def _extended_lattice(k_max: int, l_max: int) -> list[tuple[int, int]]:
    # the (k, l) equation pulls in (k+1, l-1) and (k+1, l-2), so lower
    # l-levels need extra k headroom for the system to close
    return [
        (k, l)
        for l in range(l_max + 1)
        for k in range(k_max + (l_max - l) + 1)
    ]


def _generator_rows(
    spec: ModelSpec, lattice: list[tuple[int, int]]
) -> list[tuple[float, list[tuple[int, float]]]]:
    """The generator on the lattice, row by row, as (rate, [(column, weight)]).

    The generator maps y^k x^l to -rate * y^k x^l, with rate = k*b + l*gamma,
    plus the weighted monomials of the row's terms, in this order. Zero
    weights are left out, and every monomial of negative order has one, so
    each column is on the lattice.
    """
    index = {kl: i for i, kl in enumerate(lattice)}
    rows = []
    for k, l in lattice:
        terms = (
            ((k - 1, l), k * spec.a + k * (k - 1) * spec.sigma1**2 / 2.0),
            ((k, l - 1), l * (spec.alpha + k * spec.rho * spec.sigma1 * spec.sigma2)),
            ((k + 1, l - 1), -l * spec.beta),
            ((k + 1, l - 2), l * (l - 1) * spec.sigma2**2 / 2.0),
            ((k, l - 2), l * (l - 1) * spec.sigma3**2 / 2.0),
        )
        rows.append((k * spec.b + l * spec.gamma,
                     [(index[kl], w) for kl, w in terms if w != 0.0]))
    return rows


def _generator_matrix(spec: ModelSpec, lattice: list[tuple[int, int]]) -> np.ndarray:
    A = np.zeros((len(lattice), len(lattice)))
    for i, (rate, terms) in enumerate(_generator_rows(spec, lattice)):
        A[i, i] = -rate
        for j, w in terms:
            A[i, j] = w
    return A


def _stationary_lattice(spec: ModelSpec, lattice: list[tuple[int, int]]) -> list[float]:
    """Stationary moments on the lattice: 0 = A m with m[(0, 0)] = 1.

    Each row reads rate * m[i] = sum of weight * m[column] over earlier
    columns, so forward substitution solves it. Only nonzero weights are
    summed, so an overflowed entry cannot turn a neighbour into NaN
    through inf * 0.
    """
    if classify_regime(spec) is not Regime.SUBCRITICAL:
        raise HypothesisError("stationary moments require a subcritical spec "
                              "(b > 0 and gamma > 0)")
    m: list[float] = []
    for rate, terms in _generator_rows(spec, lattice):
        acc = 0.0
        for j, w in terms:
            acc += w * m[j]
        # rate is 0 only on the (0, 0) row, whose equation is the mass
        m.append(acc / rate if rate else 1.0)
    return m


def _require_finite(what: str, lattice, m) -> None:
    for (k, l), v in zip(lattice, m):
        if not math.isfinite(v):
            raise ValueError(f"the {what} table overflows double precision: "
                             f"its moment at (k, l) = ({k}, {l}) is {float(v)}")


def _table(mode: str, lattice: list[tuple[int, int]], m, k_max: int, l_max: int,
           t: float | None = None) -> MomentTable:
    """The k_max x l_max window of lattice values m, all of them finite."""
    values = {
        kl: float(v) for kl, v in zip(lattice, m) if kl[0] <= k_max and kl[1] <= l_max
    }
    _require_finite(mode, values, values.values())
    return MomentTable(mode, values, k_max, l_max, t=t)


def _gamma_raw_moment(shape: float, rate: float, k: int) -> float:
    out = 1.0
    for j in range(k):
        out *= (shape + j) / rate
    return out


def _initial_moments(spec: ModelSpec, lattice: list[tuple[int, int]]) -> np.ndarray:
    init = spec.init
    # numpy scalars overflow to inf, which the table refuses, where a
    # float power would raise
    if init.kind == "point":
        y0, x0 = np.float64(init.y0), np.float64(init.x0)
        return np.array([y0**k * x0**l for k, l in lattice])
    if init.kind == "stationary-y":
        x0 = np.float64(init.x0)
        shape, rate = stationary_y_gamma_params(spec)
        return np.array(
            [_gamma_raw_moment(shape, rate, k) * x0**l for k, l in lattice]
        )
    # burned-in stationary start: the exact stationary lattice
    return np.array(_stationary_lattice(spec, lattice))


# [13/13] Pade numerator coefficients b_0..b_13 and the largest 1-norm at
# which that approximant meets double precision (Higham 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152

# _expm_lower holds about a dozen dense N x N float64 arrays at once (A t,
# its scaled copy, three powers, U, V, P, Q, E and the temporaries of
# their sums), so a transient lattice of more rows than this is refused
# before anything is allocated: its working set would pass 2 GiB
_MAX_TRANSIENT_ROWS = math.isqrt(2**31 // (12 * 8))


# the stationary lattice, its index and its generator rows take about
# 0.85 KB per lattice row in Python objects (peak RSS grew 112 MB for the
# 135 751 rows of (k_max, l_max) = (300, 300)), so at 1 KB a row a
# stationary lattice of more rows than this is refused before it is
# built: its working set would pass the same 2 GiB
_MAX_STATIONARY_ROWS = 2**31 // 1024


def _expm_lower(M: np.ndarray) -> np.ndarray:
    """exp(M) for a lower-triangular M, by scaling and squaring.

    The [13/13] Pade approximant of M / 2^s, with s the least power that
    brings the 1-norm under _THETA13, squared s times (Higham, SIAM J.
    Matrix Anal. Appl. 26 (2005)). Two steps keep the triangle: the Pade
    denominator is solved by forward substitution, so no pivot mixes
    rows, and the diagonal is reset to its exact exponential around every
    squaring (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31 (2009),
    Code Fragment 2.1). Moment rows span hundreds of orders of magnitude
    at long horizons, and without either step the small rows inherit the
    rounding of the large ones.
    """
    norm = float(np.linalg.norm(M, 1))
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0.0 else 0
    X = M / 2.0**s
    b = _PADE13
    ident = np.eye(M.shape[0])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X2 @ X4
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * ident)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * ident)
    P, Q = V + U, V - U
    E = np.empty_like(P)
    for i in range(Q.shape[0]):
        E[i] = (P[i] - Q[i, :i] @ E[:i]) / Q[i, i]
    diag = np.diag(M)
    for j in range(s, 0, -1):
        np.fill_diagonal(E, np.exp(diag / 2.0**j))
        E = E @ E
    np.fill_diagonal(E, np.exp(diag))
    return E


def transient_moments(spec: ModelSpec, t: float, k_max: int, l_max: int) -> MomentTable:
    """E(Y_t^k X_t^l) for all k <= k_max, l <= l_max.

    The closed linear system m' = A m on the extended lattice is solved
    by the matrix exponential, m(t) = exp(A t) m(0), computed to machine
    precision by _expm_lower; no quadrature error enters.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    if k_max < 0 or l_max < 0:
        raise ValueError("moment orders must be nonnegative")
    rows = _lattice_rows(k_max, l_max)
    if rows > _MAX_TRANSIENT_ROWS:
        raise ValueError(f"(k_max, l_max) = ({k_max}, {l_max}) needs a transient "
                         f"lattice of {rows} rows, more than the "
                         f"{_MAX_TRANSIENT_ROWS} whose dense matrix exponential "
                         "fits in memory")
    lattice = _extended_lattice(k_max, l_max)
    A = _generator_matrix(spec, lattice)
    with np.errstate(over="ignore", invalid="ignore"):
        m0 = _initial_moments(spec, lattice)
        # one non-finite initial moment spreads NaN through the product
        _require_finite("initial", lattice, m0)
        At = A * t
        norm = float(np.linalg.norm(At, 1))
        if not math.isfinite(norm):
            raise ValueError(f"t={t} is too large: the 1-norm of the generator "
                             "matrix times t overflows")
        # lower triangular: each (k, l) equation pulls in lower l-levels
        # and lower k on its own level, and the lattice runs l-major
        E = _expm_lower(At)
        # an overflow inside the squarings leaves inf * 0 = NaN entries, and
        # they would make small moments, even E(1), read NaN; a moment that
        # only overflows itself shows as inf in the product, which _table
        # refuses by its (k, l)
        nan = int(np.isnan(E).sum())
        if nan:
            raise ValueError("the transient table overflows double precision: "
                             f"the matrix exponential exp(A t) at t={t!r} has "
                             f"{nan} NaN entries of {E.size}")
        mt = E @ m0
    return _table("transient", lattice, mt, k_max, l_max, t=t)


def stationary_moments(spec: ModelSpec, n_max: int, p_max: int) -> MomentTable:
    """E(Y_inf^n X_inf^p) on the lattice, subcritical models only.

    The balance equations of the same generator as the transient system,
    0 = A m with E(1) = 1, solved by forward substitution.
    """
    if n_max < 0 or p_max < 0:
        raise ValueError("moment orders must be nonnegative")
    rows = _lattice_rows(n_max, p_max)
    if rows > _MAX_STATIONARY_ROWS:
        raise ValueError(f"(k_max, l_max) = ({n_max}, {p_max}) needs a "
                         f"stationary lattice of {rows} rows, more than the "
                         f"{_MAX_STATIONARY_ROWS} whose generator rows fit "
                         "in memory")
    lattice = _extended_lattice(n_max, p_max)
    return _table("stationary", lattice, _stationary_lattice(spec, lattice),
                  n_max, p_max)


def stationary_y_gamma_params(spec: ModelSpec) -> tuple[float, float]:
    """(shape, rate) of the stationary gamma law of Y."""
    if classify_regime(spec) is not Regime.SUBCRITICAL:
        raise HypothesisError("the stationary Y law requires a subcritical spec "
                              "(b > 0 and gamma > 0)")
    if not spec.sigma1 > 0.0:
        raise HypothesisError("the stationary Y law is degenerate when sigma1 = 0")
    return 2.0 * spec.a / spec.sigma1**2, 2.0 * spec.b / spec.sigma1**2


def fractional_moment_y(spec: ModelSpec, kappa: float) -> float:
    """E(Y_inf^kappa) for real kappa > -shape, via the gamma law."""
    shape, rate = stationary_y_gamma_params(spec)
    if kappa <= -shape:
        raise ValueError(f"moment of order {kappa} diverges (shape {shape})")
    return math.exp(math.lgamma(shape + kappa) - math.lgamma(shape)) / rate**kappa


def laplace_y(spec: ModelSpec, t: float, lam: float, y0: float) -> float:
    """E(exp(-lam * Y_t) | Y_0 = y0), the closed-form transform."""
    if not spec.sigma1 > 0.0:
        raise ValueError("laplace_y requires sigma1 > 0")
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    base = 1.0 + spec.sigma1**2 * lam * psi(spec.b, t) / 2.0
    expo = lam * math.exp(-spec.b * t) * y0 / base
    return base ** (-2.0 * spec.a / spec.sigma1**2) * math.exp(-expo)


@dataclass(frozen=True)
class MeanGrowth:
    """Leading-order first-moment behavior: E ~ coef * shape(t).

    kind is one of "constant", "linear", "quadratic", "exponential",
    "t-exponential"; rate is the decay parameter c of exp(-c*t) for the
    exponential kinds (negative c means growth) and 0 otherwise.
    """

    y_kind: str
    y_rate: float
    y_coef: float
    x_kind: str
    x_rate: float
    x_coef: float


def mean_growth_check(spec: ModelSpec) -> MeanGrowth:
    """Classify how E(Y_t) and E(X_t) behave as t grows.

    Mirrors the exhaustive case table for the first moments; degenerate
    parameter choices can make a leading coefficient 0, in which case the
    class label is still the table's, not the next-order term's.
    """
    a, b, al, be, g = (
        spec.a, spec.b, spec.alpha, spec.beta, spec.gamma,
    )
    _, ey0, ex0 = _initial_moments(spec, _extended_lattice(0, 1)).tolist()

    if b > 0.0:
        y = ("constant", 0.0, a / b)
    elif b == 0.0:
        y = ("linear", 0.0, a)
    else:
        y = ("exponential", b, ey0 - a / b)

    if b > 0.0:
        if g > 0.0:
            x = ("constant", 0.0, al / g - a * be / (b * g))
        elif g == 0.0:
            x = ("linear", 0.0, al - a * be / b)
        else:
            x = (
                "exponential",
                g,
                be / (g - b) * ey0 + ex0 - al / g + a * be / (b * g)
                - a * be / ((g - b) * b),
            )
    elif b == 0.0:
        if g > 0.0:
            x = ("linear", 0.0, -a * be / g)
        elif g == 0.0:
            x = ("quadratic", 0.0, -a * be / 2.0)
        else:
            x = ("exponential", g, be / g * ey0 + ex0 - al / g - a * be / g**2)
    else:
        if g > 0.0 or (g < 0.0 and g > b):
            x = ("exponential", b, -be / (g - b) * ey0 + a * be / ((g - b) * b))
        elif g == 0.0:
            x = ("exponential", b, be / b * ey0 + ex0 - be * a / b**2)
        elif g == b:
            x = ("t-exponential", b, -be * ey0 + a * be / b)
        else:  # g < b < 0: X's own rate dominates
            x = (
                "exponential",
                g,
                be / (g - b) * ey0 + ex0 - al / g + a * be / (b * g)
                - a * be / (b * (g - b)),
            )
    return MeanGrowth(*y, *x)
