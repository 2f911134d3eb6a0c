"""Exact mixed moments E(Y^k X^l), transient and stationary.

These are the analytic oracles every Monte Carlo test is judged against.
The mixed moments close under the generator: d/dt E(Y^k X^l) is a fixed
linear combination of moments of order at most (k+1, l), so the transient
lattice solves a constant-coefficient linear ODE system and the stationary
lattice solves the corresponding balance recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError
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


def _extended_lattice(k_max: int, l_max: int) -> list[tuple[int, int]]:
    # the (k, l) equation pulls in (k+1, l-1) and (k+1, l-2), so lower
    # l-levels need extra k headroom for the system to close
    return [
        (k, l)
        for l in range(l_max + 1)
        for k in range(k_max + (l_max - l) + 1)
    ]


def _generator_matrix(spec: ModelSpec, lattice: list[tuple[int, int]]) -> np.ndarray:
    d, q = spec.drift, spec.diffusion
    index = {kl: i for i, kl in enumerate(lattice)}
    A = np.zeros((len(lattice), len(lattice)))
    for (k, l), row in index.items():

        def put(kk, ll, w):
            if w != 0.0 and kk >= 0 and ll >= 0:
                A[row, index[(kk, ll)]] += w

        A[row, row] = -(k * d.b + l * d.gamma)
        put(k - 1, l, k * d.a + k * (k - 1) * q.sigma1**2 / 2.0)
        put(k, l - 1, l * (d.alpha + k * q.rho * q.sigma1 * q.sigma2))
        put(k + 1, l - 1, -l * d.beta)
        put(k + 1, l - 2, l * (l - 1) * q.sigma2**2 / 2.0)
        put(k, l - 2, l * (l - 1) * q.sigma3**2 / 2.0)
    return A


def _gamma_raw_moment(shape: float, rate: float, k: int) -> float:
    out = 1.0
    for j in range(k):
        out *= (shape + j) / rate
    return out


def _initial_moments(spec: ModelSpec, lattice: list[tuple[int, int]]) -> np.ndarray:
    init = spec.init
    if init.kind == "point":
        return np.array([init.y0**k * init.x0**l for k, l in lattice])
    if init.kind == "stationary-y":
        shape, rate = stationary_y_gamma_params(spec)
        return np.array(
            [_gamma_raw_moment(shape, rate, k) * init.x0**l for k, l in lattice]
        )
    # burned-in stationary start: use the exact stationary lattice
    k_hi = max(k for k, _ in lattice)
    l_hi = max(l for _, l in lattice)
    stat = stationary_moments(spec, k_hi, l_hi)
    return np.array([stat.get(k, l) for k, l in lattice])


# [13/13] Pade numerator coefficients b_0..b_13 and the largest 1-norm at
# which that approximant meets double precision (Higham 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


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
    lattice = _extended_lattice(k_max, l_max)
    A = _generator_matrix(spec, lattice)
    m0 = _initial_moments(spec, lattice)
    with np.errstate(over="ignore"):
        At = A * t
        norm = float(np.linalg.norm(At, 1))
    if not math.isfinite(norm):
        raise ValueError(f"t={t} is too large: the 1-norm of the generator "
                         "matrix times t overflows")
    # lower triangular: each (k, l) equation pulls in lower l-levels and
    # lower k on its own level, and the lattice runs l-major
    mt = _expm_lower(At) @ m0
    values = {
        kl: float(v) for kl, v in zip(lattice, mt) if kl[0] <= k_max and kl[1] <= l_max
    }
    return MomentTable("transient", values, k_max, l_max, t=t)


def stationary_moments(spec: ModelSpec, n_max: int, p_max: int) -> MomentTable:
    """E(Y_inf^n X_inf^p) on the lattice, subcritical models only.

    Balance recursion: (n*b + p*gamma) * m[n,p] equals the same five
    lower-order terms that drive the transient system.
    """
    if classify_regime(spec.drift) is not Regime.SUBCRITICAL:
        raise HypothesisError("stationary moments require a subcritical spec "
                              "(b > 0 and gamma > 0)")
    if n_max < 0 or p_max < 0:
        raise ValueError("moment orders must be nonnegative")
    d, q = spec.drift, spec.diffusion
    m: dict[tuple[int, int], float] = {}

    def get(n, p):
        return m[(n, p)] if n >= 0 and p >= 0 else 0.0

    for p in range(p_max + 1):
        for n in range(n_max + (p_max - p) + 1):
            if n == 0 and p == 0:
                m[(0, 0)] = 1.0
                continue
            num = (
                (n * d.a + n * (n - 1) * q.sigma1**2 / 2.0) * get(n - 1, p)
                + p * (d.alpha + n * q.rho * q.sigma1 * q.sigma2) * get(n, p - 1)
                - p * d.beta * get(n + 1, p - 1)
                + p * (p - 1) * q.sigma2**2 / 2.0 * get(n + 1, p - 2)
                + p * (p - 1) * q.sigma3**2 / 2.0 * get(n, p - 2)
            )
            m[(n, p)] = num / (n * d.b + p * d.gamma)
    values = {
        (n, p): v for (n, p), v in m.items() if n <= n_max and p <= p_max
    }
    return MomentTable("stationary", values, n_max, p_max)


def stationary_y_gamma_params(spec: ModelSpec) -> tuple[float, float]:
    """(shape, rate) of the stationary gamma law of Y."""
    if classify_regime(spec.drift) is not Regime.SUBCRITICAL:
        raise HypothesisError("the stationary Y law requires a subcritical spec")
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
    from .kernels import psi

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


def _initial_means(spec: ModelSpec) -> tuple[float, float]:
    init = spec.init
    if init.kind == "point":
        return init.y0, init.x0
    if init.kind == "stationary-y":
        return spec.a / spec.b, init.x0
    stat = stationary_moments(spec, 1, 1)
    return stat.get(1, 0), stat.get(0, 1)


def mean_growth_check(spec: ModelSpec) -> MeanGrowth:
    """Classify how E(Y_t) and E(X_t) behave as t grows.

    Mirrors the exhaustive case table for the first moments; degenerate
    parameter choices can make a leading coefficient 0, in which case the
    class label is still the table's, not the next-order term's.
    """
    a, b, al, be, g = (
        spec.a, spec.b, spec.alpha, spec.beta, spec.gamma,
    )
    ey0, ex0 = _initial_means(spec)

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
