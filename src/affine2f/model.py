"""Model parameters, admissibility checks, and exact conditional means.

The model is the two-factor affine diffusion

    dY_t = (a - b*Y_t) dt + sigma1*sqrt(Y_t) dW_t
    dX_t = (alpha - beta*Y_t - gamma*X_t) dt
           + sigma2*sqrt(Y_t) dWtilde_t + sigma3 dL_t

with dWtilde = rho dW + sqrt(1-rho^2) dB and (W, B, L) independent
standard Wiener processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import HypothesisError
from .kernels import i1, i2, psi


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


@dataclass(frozen=True)
class DriftParams:
    """The five drift constants theta = (a, b, alpha, beta, gamma)."""

    a: float
    b: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        _require_finite(self, ("a", "b", "alpha", "beta", "gamma"))
        if not self.a >= 0.0:
            raise ValueError(f"a must be nonnegative, got {self.a}")


@dataclass(frozen=True)
class DiffusionParams:
    sigma1: float
    sigma2: float
    sigma3: float
    rho: float

    def __post_init__(self):
        _require_finite(self, ("sigma1", "sigma2", "sigma3", "rho"))
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


INIT_KINDS = ("point", "stationary-y", "stationary")


@dataclass(frozen=True)
class InitialLaw:
    """Initial condition: point mass, gamma-law Y with point X, or burned-in.

    kind "point":        start exactly at (y0, x0), y0 >= 0.
    kind "stationary-y": Y0 drawn from the stationary gamma law, X0 = x0.
    kind "stationary":   stationary-y start evolved for burn_in time units
                         so X also forgets its (arbitrary) starting point.
    """

    kind: str = "point"
    y0: float = 0.0
    x0: float = 0.0
    burn_in: float | None = None

    def __post_init__(self):
        if self.kind not in INIT_KINDS:
            raise ValueError(f"init kind must be one of {INIT_KINDS}, got {self.kind!r}")
        _require_finite(self, ("y0", "x0", "burn_in"))
        if self.kind == "point" and not self.y0 >= 0.0:
            raise ValueError(f"point-mass initialization needs y0 >= 0, got {self.y0}")
        if self.burn_in is not None and not self.burn_in > 0.0:
            raise ValueError(f"burn_in must be positive when given, got {self.burn_in}")


@dataclass(frozen=True)
class ModelSpec:
    """The nine model constants plus the initial law. Immutable."""

    drift: DriftParams
    diffusion: DiffusionParams
    init: InitialLaw = field(default_factory=InitialLaw)

    # flat accessors: formulas downstream read much closer to their source
    @property
    def a(self) -> float:
        return self.drift.a

    @property
    def b(self) -> float:
        return self.drift.b

    @property
    def alpha(self) -> float:
        return self.drift.alpha

    @property
    def beta(self) -> float:
        return self.drift.beta

    @property
    def gamma(self) -> float:
        return self.drift.gamma

    @property
    def sigma1(self) -> float:
        return self.diffusion.sigma1

    @property
    def sigma2(self) -> float:
        return self.diffusion.sigma2

    @property
    def sigma3(self) -> float:
        return self.diffusion.sigma3

    @property
    def rho(self) -> float:
        return self.diffusion.rho


def make_spec(
    a: float,
    b: float,
    alpha: float,
    beta: float,
    gamma: float,
    sigma1: float,
    sigma2: float,
    sigma3: float,
    rho: float,
    init: InitialLaw | None = None,
) -> ModelSpec:
    """Flat constructor, mostly for tests and scripts."""
    return ModelSpec(
        drift=DriftParams(a, b, alpha, beta, gamma),
        diffusion=DiffusionParams(sigma1, sigma2, sigma3, rho),
        init=init if init is not None else InitialLaw(),
    )


def classify_regime(drift: DriftParams) -> Regime:
    """Regime of the model by the sign of min(b, gamma), compared exactly.

    Regimes are model assumptions, not estimates, so no tolerance is applied.
    """
    m = min(drift.b, drift.gamma)
    if m > 0.0:
        return Regime.SUBCRITICAL
    if m == 0.0:
        return Regime.CRITICAL
    return Regime.SUPERCRITICAL


PURPOSES = (
    "simulation",
    "discrete-clse",
    "continuous-clse",
    "subcritical-limit",
    "critical-limit",
    "supercritical-limit",
    "diffusion-stats",
)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]
    warnings: tuple[str, ...] = ()


def validate_spec(spec: ModelSpec, purpose: str) -> ValidationReport:
    """Check the standing hypotheses required by `purpose`. Report only.

    Construction already guarantees finite constants, a >= 0, sigma_i >= 0
    and |rho| <= 1, so those never appear as violations here.
    """
    if purpose not in PURPOSES:
        raise ValueError(f"unknown purpose {purpose!r}; expected one of {PURPOSES}")

    d, q = spec.drift, spec.diffusion
    violations: list[str] = []
    warnings: list[str] = []

    def need_noise():
        if not q.sigma1 > 0.0:
            violations.append("sigma1 > 0 required")
        if not q.second_block_ok:
            violations.append("(1-rho^2)*sigma2^2 + sigma3^2 > 0 violated")

    if purpose in ("discrete-clse", "continuous-clse"):
        need_noise()
    elif purpose == "subcritical-limit":
        need_noise()
        if not (d.b > 0.0 and d.gamma > 0.0):
            violations.append("subcritical regime (b > 0 and gamma > 0) required")
        if not d.a > 0.0:
            violations.append("a > 0 required")
    elif purpose == "critical-limit":
        if d.b != 0.0:
            violations.append("b = 0 required")
        if d.beta != 0.0:
            violations.append("beta = 0 required")
        if d.gamma != 0.0:
            violations.append("gamma = 0 required")
        if not q.second_block_ok:
            violations.append("(1-rho^2)*sigma2^2 + sigma3^2 > 0 violated")
    elif purpose == "supercritical-limit":
        if not (d.b < 0.0 and d.gamma < d.b):
            violations.append("gamma < b < 0 required")
        if not d.alpha * d.beta <= 0.0:
            violations.append("alpha*beta <= 0 required")
        if not q.sigma1 > 0.0:
            violations.append("sigma1 > 0 required")
        if not (
            q.sigma3 > 0.0
            or (d.a - q.sigma1**2 / 2.0) * (1.0 - q.rho**2) * q.sigma2**2 > 0.0
        ):
            violations.append(
                "sigma3 > 0 or (a - sigma1^2/2)*(1-rho^2)*sigma2^2 > 0 required"
            )
    elif purpose == "diffusion-stats":
        if not q.sigma1 > 0.0:
            violations.append("sigma1 > 0 required")
        if not d.a > q.sigma1**2:
            warnings.append(
                "a > sigma1^2 not satisfied; ratio statistics may converge slowly"
            )

    return ValidationReport(not violations, tuple(violations), tuple(warnings))


def require(spec: ModelSpec, purpose: str) -> None:
    """Raise HypothesisError listing each hypothesis of `purpose` that spec fails."""
    report = validate_spec(spec, purpose)
    if not report.ok:
        raise HypothesisError("; ".join(report.violations))


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
    d = spec.drift
    return (
        math.exp(-d.gamma * dt) * x_s
        + d.alpha * psi(d.gamma, dt)
        - d.beta * y_s * i1(d.b, d.gamma, dt)
        - d.a * d.beta * i2(d.b, d.gamma, dt)
    )
