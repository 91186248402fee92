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
    mahalanobis,
    mahalanobis_pca,
    mahalanobis_ridge,
    predict_reduction,
)
from .core import (
    Allocation,
    CovariateMatrix,
    GroupMeans,
    Outcome,
    RngStream,
    group_means,
    make_allocation,
    read_covariate_csv,
    sate_estimator,
    sigma_factor,
    standardize,
    write_allocation_csv,
)
from .dist import chi2_cdf, chi2_quantile, shrinkage_coeff
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
    OutcomeModel,
    SimReport,
    anova,
    beta_vector,
    gen_covariates,
    gen_outcome,
    nested_submatrix,
    run_study,
)
from .spectral import ComponentSelection, SpectralBasis, decompose, project, select_k

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
    "OutcomeModel",
    "RerandomizationResult",
    "RngStream",
    "SimReport",
    "SpectralBasis",
    "accepted_sample",
    "anova",
    "beta_vector",
    "calibrate",
    "chi2_cdf",
    "chi2_quantile",
    "complete_randomization",
    "decompose",
    "default_lambda",
    "gen_covariates",
    "gen_outcome",
    "group_means",
    "mahalanobis",
    "mahalanobis_pca",
    "mahalanobis_ridge",
    "make_allocation",
    "nested_submatrix",
    "predict_reduction",
    "project",
    "read_covariate_csv",
    "rerandomize",
    "run_study",
    "sate_estimator",
    "select_k",
    "shrinkage_coeff",
    "sigma_factor",
    "standardize",
    "write_allocation_csv",
]
