"""Covariate-balanced treatment allocation by rerandomization.

Rejection-samples equal-split allocations until a balance criterion
accepts one: the classical Mahalanobis criterion, its ridge-regularized
variant, or the criterion restricted to the top principal components of
the covariate matrix. Includes calibrated thresholds, variance-reduction
diagnostics, and a reproducible factorial simulation harness.
"""

from .balance import (
    BalanceCriterion,
    CovReductionReport,
    calibrate,
    default_lambda,
    predict_reduction,
)
from .core import (
    Allocation,
    CovariateMatrix,
    GroupMeans,
    Outcome,
    RngStream,
    group_means,
    read_covariate_csv,
    sigma_factor,
    standardize,
    write_allocation_csv,
)
from .engine import (
    DEFAULT_MAX_DRAWS,
    RerandomizationResult,
    accepted_sample,
    complete_randomization,
    rerandomize,
)
from .simharness import (
    AnovaRow,
    CellRecord,
    FactorGrid,
    SimReport,
    anova,
    beta_vector,
    gen_covariates,
    run_study,
)
from .spectral import ComponentSelection, SpectralBasis, decompose, select_k

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AnovaRow",
    "BalanceCriterion",
    "CellRecord",
    "ComponentSelection",
    "CovReductionReport",
    "CovariateMatrix",
    "DEFAULT_MAX_DRAWS",
    "FactorGrid",
    "GroupMeans",
    "Outcome",
    "RerandomizationResult",
    "RngStream",
    "SimReport",
    "SpectralBasis",
    "accepted_sample",
    "anova",
    "beta_vector",
    "calibrate",
    "complete_randomization",
    "decompose",
    "default_lambda",
    "gen_covariates",
    "group_means",
    "predict_reduction",
    "read_covariate_csv",
    "rerandomize",
    "run_study",
    "select_k",
    "sigma_factor",
    "standardize",
    "write_allocation_csv",
]
