"""Risk/prevalence ratio estimation for binary outcomes.

Core pieces: the semiparametric log-linear ("robust Poisson") estimator
with sandwich variance, constrained log-binomial maximum likelihood,
coefficient and standardized risk-ratio inference, and a deterministic
Monte Carlo study runner.
"""

# Set before the submodules load: simlab and cli import it from here.
__version__ = "0.1.0"

from .data import Dataset
from .design import (
    Categorical,
    DesignMatrix,
    Intercept,
    Interaction,
    Main,
    Spline,
    build_design_matrix,
    default_knots,
    parse_spec,
    rcs_basis,
    realize,
)
from .eecore import (
    FitResult,
    ee_jacobian,
    ee_score,
    fit_robust_poisson,
    sandwich_covariance,
)
from .inference import (
    FIT_METHODS,
    RREstimate,
    bootstrap_rr,
    coefficient_rr,
    marginal_rr,
)
from .logbin import (
    fit_logbin_barrier,
    fit_logbin_ml,
    logbin_gradient,
    logbin_hessian,
    logbin_loglik,
)
from .rng import stream
from .simlab import (
    SCENARIOS,
    StudyConfig,
    consistency_demo,
    expit,
    generate,
    monte_carlo_truth,
    parse_config,
    run_study,
)

__all__ = [
    "Categorical",
    "Dataset",
    "DesignMatrix",
    "FIT_METHODS",
    "FitResult",
    "Intercept",
    "Interaction",
    "Main",
    "RREstimate",
    "SCENARIOS",
    "Spline",
    "StudyConfig",
    "bootstrap_rr",
    "build_design_matrix",
    "coefficient_rr",
    "consistency_demo",
    "default_knots",
    "ee_jacobian",
    "ee_score",
    "expit",
    "fit_logbin_barrier",
    "fit_logbin_ml",
    "fit_robust_poisson",
    "generate",
    "logbin_gradient",
    "logbin_hessian",
    "logbin_loglik",
    "marginal_rr",
    "monte_carlo_truth",
    "parse_config",
    "parse_spec",
    "rcs_basis",
    "realize",
    "run_study",
    "sandwich_covariance",
    "stream",
]
