"""Log-mean and log-mean-linear regression for multivariate binary responses.

The package models the joint distribution of binary responses given binary
covariates through regressions on two link scales — the log of the mean
parameters (lm) and their log-linear expansion (lml) — and provides
constrained maximum-likelihood fitting, relative-risk summaries, implied
conditional-independence reporting, and stepwise model selection.
"""

from .inference import (
    ConvergenceError,
    CountTable,
    DataError,
    FitOptions,
    FitResult,
    ModelSpec,
    fit,
    induced_mu_stats,
    loglik,
    simulate,
    wald_tests,
)
from .lattice import (
    SubsetLattice,
    mobius_transform,
    zeta_transform,
)
from .params import (
    BoundaryError,
    ParamMatrix,
    ValidationError,
    beta_from_pi,
    beta_gamma_from_beta_mu,
    beta_mu_from_beta_gamma,
    coeffs_from_link,
    gamma_from_mu,
    link_from_coeffs,
    mu_from_gamma,
    mu_from_pi,
    pi_from_beta,
    pi_from_mu,
    validate,
)
from .risk import (
    RiskEntry,
    RiskReport,
    implied_covariate_independencies,
    implied_response_independencies,
    reference_coeffs,
    risk_report,
    risk_table,
)
from .selection import (
    AverageEffect,
    SelectionStep,
    SelectionTrace,
    average_effects,
    backward_staged_selection,
    forward_margin_selection,
    pattern_weights,
)

__version__ = "0.1.0"

__all__ = [
    "AverageEffect",
    "BoundaryError",
    "ConvergenceError",
    "CountTable",
    "DataError",
    "FitOptions",
    "FitResult",
    "ModelSpec",
    "ParamMatrix",
    "RiskEntry",
    "RiskReport",
    "SelectionStep",
    "SelectionTrace",
    "SubsetLattice",
    "ValidationError",
    "average_effects",
    "backward_staged_selection",
    "beta_from_pi",
    "beta_gamma_from_beta_mu",
    "beta_mu_from_beta_gamma",
    "coeffs_from_link",
    "fit",
    "forward_margin_selection",
    "gamma_from_mu",
    "implied_covariate_independencies",
    "implied_response_independencies",
    "induced_mu_stats",
    "link_from_coeffs",
    "loglik",
    "mobius_transform",
    "mu_from_gamma",
    "mu_from_pi",
    "pattern_weights",
    "pi_from_beta",
    "pi_from_mu",
    "reference_coeffs",
    "risk_report",
    "risk_table",
    "simulate",
    "validate",
    "wald_tests",
    "zeta_transform",
    "__version__",
]
