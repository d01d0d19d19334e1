"""Rough mean-reverting Gaussian volatility: exact laws, a kernel-integrated
Euler scheme, log-price moments (word expansion; scheme quadratic form), and
weak/strong error analysis."""

from .analysis import (
    ErrorCurve,
    MCComparison,
    MCResult,
    RateFit,
    fit_loglog,
    fit_rate,
    kernel_freeze_gap,
    mc_weak_error,
    strong_error_exact,
    theoretical_rate,
    weak_error_curve,
    zeta_alternating,
)
from .errors import ConvergenceError, ValidationError
from .exact_law import (
    GaussianLaw,
    ModelParams,
    cov_exact,
    driver_law,
    grid_law_exact,
    malliavin_exact,
    mean_exact,
    sample,
    stationary_variance,
)
from .kernels import TimeGrid, beta_convolution, c_matrix, c_weight, cross_kernel_integral
from .moments import (
    cubic_exact,
    cubic_scheme,
    enumerate_words,
    gaussian_moment,
    moment_via_words,
    second_moment_L,
)
from .scheme import (
    FunctionSpec,
    SchemeLaw,
    build_scheme_law,
    cell_integrated_malliavin,
    malliavin_scheme,
    sample_scheme_paths,
)
from .specfun import gamma, hyp2f1, mittag_leffler

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "ErrorCurve",
    "FunctionSpec",
    "GaussianLaw",
    "MCComparison",
    "MCResult",
    "ModelParams",
    "RateFit",
    "SchemeLaw",
    "TimeGrid",
    "ValidationError",
    "beta_convolution",
    "build_scheme_law",
    "c_matrix",
    "c_weight",
    "cell_integrated_malliavin",
    "cov_exact",
    "cross_kernel_integral",
    "cubic_exact",
    "cubic_scheme",
    "driver_law",
    "enumerate_words",
    "fit_loglog",
    "fit_rate",
    "gamma",
    "gaussian_moment",
    "grid_law_exact",
    "hyp2f1",
    "kernel_freeze_gap",
    "malliavin_exact",
    "malliavin_scheme",
    "mc_weak_error",
    "mean_exact",
    "mittag_leffler",
    "moment_via_words",
    "sample",
    "sample_scheme_paths",
    "second_moment_L",
    "stationary_variance",
    "strong_error_exact",
    "theoretical_rate",
    "weak_error_curve",
    "zeta_alternating",
]
