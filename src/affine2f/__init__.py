"""Two-factor affine diffusion toolkit.

Simulation, moment oracles, conditional least squares drift estimation,
diffusion-coefficient statistics and limit-law verification for the model

    dY_t = (a - b*Y_t) dt + sigma1*sqrt(Y_t) dW_t
    dX_t = (alpha - beta*Y_t - gamma*X_t) dt
           + sigma2*sqrt(Y_t)*(rho dW_t + sqrt(1-rho^2) dB_t) + sigma3 dL_t

driven by independent standard Wiener processes W, B, L.
"""

from .config import RunConfig, load_config, parse_config, serialize_config
from .diffusion_stats import (
    DiffusionEstimate,
    QuadraticVariations,
    diffusion_from_qv,
    estimate_diffusion,
    realized_qv,
)
from .errors import (
    Affine2FError,
    ConfigError,
    ExcessiveExclusions,
    HypothesisError,
    NonPositiveVY,
    OutOfDomain,
    SingularGram,
    SingularSystem,
)
from .estimators import (
    DriftEstimate,
    PathFunctionals,
    TransformedEstimate,
    clse_approx,
    clse_continuous,
    clse_discrete_transformed,
    functionals_from_path,
    gn_forward,
    gn_inverse,
    h_vector,
)
from .experiments import (
    ExperimentPlan,
    LimitLawReport,
    SweepResult,
    consistency_sweep,
    run_experiment,
)
from .limit_laws import (
    SubcriticalLimit,
    SupercriticalLimit,
    critical_limit_batch,
    critical_limit_sample,
    subcritical_limit,
    supercritical_limit_sample,
    v_matrix,
)
from .model import (
    InitialLaw,
    ModelSpec,
    Regime,
    classify_regime,
    make_spec,
)
from .moments import (
    MomentTable,
    stationary_moments,
    stationary_y_gamma_params,
    transient_moments,
)
from .rng import RngStream
from .simulate import (
    SCHEMES,
    EnsembleResult,
    PathGrid,
    sample_cir_transition,
    simulate_ensemble,
    simulate_path,
)

__version__ = "0.1.0"

__all__ = [
    "Affine2FError",
    "ConfigError",
    "DiffusionEstimate",
    "DriftEstimate",
    "EnsembleResult",
    "ExcessiveExclusions",
    "ExperimentPlan",
    "HypothesisError",
    "InitialLaw",
    "LimitLawReport",
    "ModelSpec",
    "MomentTable",
    "NonPositiveVY",
    "OutOfDomain",
    "PathFunctionals",
    "PathGrid",
    "QuadraticVariations",
    "Regime",
    "RngStream",
    "RunConfig",
    "SCHEMES",
    "SingularGram",
    "SingularSystem",
    "SubcriticalLimit",
    "SupercriticalLimit",
    "SweepResult",
    "TransformedEstimate",
    "classify_regime",
    "clse_approx",
    "clse_continuous",
    "clse_discrete_transformed",
    "consistency_sweep",
    "critical_limit_batch",
    "critical_limit_sample",
    "diffusion_from_qv",
    "estimate_diffusion",
    "functionals_from_path",
    "gn_forward",
    "gn_inverse",
    "h_vector",
    "load_config",
    "make_spec",
    "parse_config",
    "realized_qv",
    "run_experiment",
    "sample_cir_transition",
    "serialize_config",
    "simulate_ensemble",
    "simulate_path",
    "stationary_moments",
    "stationary_y_gamma_params",
    "subcritical_limit",
    "supercritical_limit_sample",
    "transient_moments",
    "v_matrix",
]
