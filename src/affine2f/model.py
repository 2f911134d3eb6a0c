"""The model record, limit-theorem hypotheses, and exact conditional means.

The model is the two-factor affine diffusion

    dY_t = (a - b*Y_t) dt + sigma1*sqrt(Y_t) dW_t
    dX_t = (alpha - beta*Y_t - gamma*X_t) dt
           + sigma2*sqrt(Y_t) dWtilde_t + sigma3 dL_t

with dWtilde = rho dW + sqrt(1-rho^2) dB and (W, B, L) independent
standard Wiener processes.

One record, ModelSpec, holds the nine constants (the drift
theta = (a, b, alpha, beta, gamma) and the diffusion sigma1, sigma2,
sigma3, rho) and the initial law, and refuses at construction what no
model allows; make_spec is the same constructor.

classify_regime reads the regime off min(b, gamma), and require(spec,
regime) checks the hypotheses of that regime's limit theorem for the
drift estimator: asymptotic normality (subcritical: b, gamma > 0, a > 0,
sigma1 > 0 and a non-degenerate second block), the functional limit
(critical: b = beta = gamma = 0 and a non-degenerate second block) and
mixed normality (supercritical: gamma < b < 0, alpha*beta <= 0,
sigma1 > 0, and sigma3 > 0 or a > sigma1^2/2 with noise in X beyond
W's). Simulation needs only what construction checks, and estimation
refuses a singular Gram block at its condition gate instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import HypothesisError
from .kernels import i1, i2, psi

# the nine constants in the paper's order: the drift, then the diffusion
CONSTANTS = ("a", "b", "alpha", "beta", "gamma",
             "sigma1", "sigma2", "sigma3", "rho")


def _require_finite(params, names) -> None:
    # a nan or inf constant would only surface later, as a numpy error
    # deep in a stepper or as a table of NaN
    for name in names:
        v = getattr(params, name)
        if v is not None and not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


class Regime(Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


# the fields each kind of start reads, with the value of an unset one
INIT_FIELDS = {
    "point": {"y0": 0.0, "x0": 0.0},
    "stationary-y": {"x0": 0.0},
    "stationary": {"burn_in": None},
}


@dataclass(frozen=True)
class InitialLaw:
    """Initial condition: point mass, gamma-law Y with point X, or burned-in.

    kind "point":        start exactly at (y0, x0), y0 >= 0.
    kind "stationary-y": Y0 drawn from the stationary gamma law, X0 = x0.
    kind "stationary":   stationary-y start evolved for burn_in time units
                         so X also forgets its (arbitrary) starting point.
    Each kind takes only the fields it reads (INIT_FIELDS) and refuses the
    others; an unset y0 or x0 that it takes is 0.
    """

    kind: str = "point"
    y0: float | None = None
    x0: float | None = None
    burn_in: float | None = None

    def __post_init__(self):
        takes = INIT_FIELDS.get(self.kind)
        if takes is None:
            raise ValueError(f"init kind must be one of {tuple(INIT_FIELDS)}, got {self.kind!r}")
        _require_finite(self, ("y0", "x0", "burn_in"))
        if self.burn_in is not None and not self.burn_in > 0.0:
            raise ValueError(f"burn_in must be positive when given, got {self.burn_in}")
        for name in ("y0", "x0", "burn_in"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, takes.get(name))
            elif name not in takes:
                kinds = " or ".join(k for k, f in INIT_FIELDS.items() if name in f)
                raise ValueError(f"{name} applies only to a {kinds} start, "
                                 f"got kind {self.kind!r}")
        if self.kind == "point" and not self.y0 >= 0.0:
            raise ValueError(f"point-mass initialization needs y0 >= 0, got {self.y0}")


@dataclass(frozen=True)
class ModelSpec:
    """The nine model constants plus the initial law. Immutable.

    Construction checks, in this order: a..gamma finite, a >= 0,
    sigma1..rho finite, each sigma >= 0, |rho| <= 1.
    """

    a: float
    b: float
    alpha: float
    beta: float
    gamma: float
    sigma1: float
    sigma2: float
    sigma3: float
    rho: float
    init: InitialLaw = field(default_factory=InitialLaw)

    def __post_init__(self):
        _require_finite(self, CONSTANTS[:5])
        if not self.a >= 0.0:
            raise ValueError(f"a must be nonnegative, got {self.a}")
        _require_finite(self, CONSTANTS[5:])
        for name in ("sigma1", "sigma2", "sigma3"):
            v = getattr(self, name)
            if not v >= 0.0:
                raise ValueError(f"{name} must be nonnegative, got {v}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")

    @property
    def second_block_ok(self) -> bool:
        """True when (1-rho^2)*sigma2^2 + sigma3^2 > 0.

        The second estimator block is invertible almost surely exactly when
        X carries noise that is not a deterministic function of W.
        """
        return (1.0 - self.rho**2) * self.sigma2**2 + self.sigma3**2 > 0.0


make_spec = ModelSpec


def classify_regime(spec: ModelSpec) -> Regime:
    """Regime of the model by the sign of min(b, gamma), compared exactly.

    Regimes are model assumptions, not estimates, so no tolerance is applied.
    """
    m = min(spec.b, spec.gamma)
    if m > 0.0:
        return Regime.SUBCRITICAL
    if m == 0.0:
        return Regime.CRITICAL
    return Regime.SUPERCRITICAL


def require(spec: ModelSpec, regime: Regime) -> None:
    """Raise HypothesisError listing each hypothesis of regime's limit theorem
    that spec fails, in the order below, joined by "; ".

    subcritical    sigma1 > 0, (1-rho^2)*sigma2^2 + sigma3^2 > 0,
                   b > 0 and gamma > 0, a > 0
    critical       b = 0, beta = 0, gamma = 0,
                   (1-rho^2)*sigma2^2 + sigma3^2 > 0
    supercritical  gamma < b < 0, alpha*beta <= 0, sigma1 > 0,
                   sigma3 > 0 or (a - sigma1^2/2)*(1-rho^2)*sigma2^2 > 0

    regime need not be spec's own: a spec of another regime fails that
    regime's sign conditions. Construction already guarantees finite
    constants, a >= 0, sigma_i >= 0 and |rho| <= 1, so those are never
    listed.
    """
    sigma1 = (spec.sigma1 > 0.0, "sigma1 > 0 required")
    second_block = (spec.second_block_ok,
                    "(1-rho^2)*sigma2^2 + sigma3^2 > 0 violated")
    if regime is Regime.SUBCRITICAL:
        checks = [
            sigma1,
            second_block,
            (spec.b > 0.0 and spec.gamma > 0.0,
             "subcritical regime (b > 0 and gamma > 0) required"),
            (spec.a > 0.0, "a > 0 required"),
        ]
    elif regime is Regime.CRITICAL:
        checks = [
            (spec.b == 0.0, "b = 0 required"),
            (spec.beta == 0.0, "beta = 0 required"),
            (spec.gamma == 0.0, "gamma = 0 required"),
            second_block,
        ]
    elif regime is Regime.SUPERCRITICAL:
        checks = [
            (spec.b < 0.0 and spec.gamma < spec.b, "gamma < b < 0 required"),
            (spec.alpha * spec.beta <= 0.0, "alpha*beta <= 0 required"),
            sigma1,
            (spec.sigma3 > 0.0
             or (spec.a - spec.sigma1**2 / 2.0) * (1.0 - spec.rho**2)
             * spec.sigma2**2 > 0.0,
             "sigma3 > 0 or (a - sigma1^2/2)*(1-rho^2)*sigma2^2 > 0 required"),
        ]
    else:
        raise TypeError(f"regime must be a Regime, got {regime!r}")
    violations = [text for holds, text in checks if not holds]
    if violations:
        raise HypothesisError("; ".join(violations))


def conditional_mean_y(spec: ModelSpec, y_s: float, dt: float) -> float:
    """E(Y_{s+dt} | Y_s = y_s) = exp(-b*dt)*y_s + a*psi(b, dt)."""
    b = spec.b
    return math.exp(-b * dt) * y_s + spec.a * psi(b, dt)


def conditional_mean_x(spec: ModelSpec, y_s: float, x_s: float, dt: float) -> float:
    """E(X_{s+dt} | Y_s = y_s, X_s = x_s).

    Four terms: the decayed state, the alpha level, the coupling response to
    y_s, and the coupling response to the running mean level of Y:

        exp(-gamma*dt)*x_s + alpha*psi(gamma, dt)
        - beta*y_s*i1(b, gamma, dt) - a*beta*i2(b, gamma, dt)
    """
    return (
        math.exp(-spec.gamma * dt) * x_s
        + spec.alpha * psi(spec.gamma, dt)
        - spec.beta * y_s * i1(spec.b, spec.gamma, dt)
        - spec.a * spec.beta * i2(spec.b, spec.gamma, dt)
    )
