"""Maximum-likelihood estimation for multivariate wrapped normal
distributions on the torus.

The density of a wrapped normal is an infinite sum of shifted normal
densities; all routines here work with a truncated, recentered window of
that sum.  Three fitting strategies are provided (soft-assignment EM,
classification EM, and direct numerical maximization) behind one entry
point, :func:`fit`, plus joint torus/linear models, a sampler, a
fixed-condition-number correlation generator, and a Monte Carlo
experiment harness.
"""

from .cem import CemFitResult, cem_m_step, classify, fit_cem
from .circular import (
    angle_separation,
    center_to,
    circular_correlation,
    circular_mean,
    initial_params,
    mean_resultant_length,
    wrap_angle,
)
from .direct import fit_direct, objective
from .em import (
    ConditionalMoments,
    FitResult,
    conditional_moments,
    e_step,
    fit_em,
    m_step,
)
from .errors import (
    ConvergenceError,
    DegenerateStatisticError,
    DimensionGuardError,
    FitFailure,
    LatticeTooLargeError,
    NumericalFailureError,
    SingularCovarianceError,
)
from .fitting import METHODS, fit
from .mixed import (
    MixedFitResult,
    MixedParams,
    MixedSample,
    fit_mixed_cem,
    fit_mixed_em,
    mixed_log_likelihood,
)
from .model import (
    LatticeConfig,
    WnParams,
    from_log_cholesky,
    lattice_rows,
    log_likelihood,
    mvn_logpdf,
    to_log_cholesky,
    wrapped_log_density,
)
from .simulate import (
    CorrelationSpec,
    ExperimentConfig,
    MetricsReport,
    evaluate_fit,
    random_correlation,
    run_experiment,
    sample_wn,
    scale_to_covariance,
    scatter_divergence,
    summarize_report,
    wilks_lambda,
    write_report_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CemFitResult",
    "ConditionalMoments",
    "ConvergenceError",
    "CorrelationSpec",
    "DegenerateStatisticError",
    "DimensionGuardError",
    "ExperimentConfig",
    "FitResult",
    "FitFailure",
    "LatticeConfig",
    "LatticeTooLargeError",
    "METHODS",
    "MetricsReport",
    "MixedFitResult",
    "MixedParams",
    "MixedSample",
    "NumericalFailureError",
    "SingularCovarianceError",
    "WnParams",
    "angle_separation",
    "cem_m_step",
    "center_to",
    "circular_correlation",
    "circular_mean",
    "classify",
    "conditional_moments",
    "e_step",
    "evaluate_fit",
    "fit",
    "fit_cem",
    "fit_direct",
    "fit_em",
    "fit_mixed_cem",
    "fit_mixed_em",
    "from_log_cholesky",
    "initial_params",
    "lattice_rows",
    "log_likelihood",
    "m_step",
    "mean_resultant_length",
    "mixed_log_likelihood",
    "mvn_logpdf",
    "objective",
    "random_correlation",
    "run_experiment",
    "sample_wn",
    "scale_to_covariance",
    "scatter_divergence",
    "summarize_report",
    "to_log_cholesky",
    "wilks_lambda",
    "wrap_angle",
    "wrapped_log_density",
    "write_report_csv",
]
