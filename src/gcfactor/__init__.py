"""Low-rank Gaussian-copula factorization of mixed data with missing entries.

Three related factorizations share one pipeline: plain PCA on standardized
values, COCA on empirical normal scores, and XPCA, which treats each
observation as an interval of latent Gaussian values and maximizes the exact
censored likelihood. Fitted models impute missing entries and expose full
per-entry predictive distributions.
"""

from .data import (
    FoldAssignment,
    ObservedMatrix,
    load_csv,
    mask_random,
    split_folds,
    standardized_mse,
    write_csv,
)
from .fit import FitOptions, fit_xpca
from .gaussian import (
    FactorModel,
    coca_impute,
    fit_coca,
    fit_gaussian,
    fit_pca,
    fit_ranks,
    pca_impute,
)
from .impute import (
    EntryDistribution,
    entry_distribution,
    impute,
    impute_mean,
    impute_mean_interp,
    impute_median,
)
from .marginals import Edf, EdfVariant, edf_inverse, fit_edf, global_epsilon
from .model_io import load_model, save_model
from .simulate import (
    MarginalSpec,
    generate,
    named_spec,
    run_scenario,
    tie_method_experiment,
    underlying_means,
)

__version__ = "0.1.0"

__all__ = [
    "Edf",
    "EdfVariant",
    "EntryDistribution",
    "FactorModel",
    "FitOptions",
    "FoldAssignment",
    "MarginalSpec",
    "ObservedMatrix",
    "coca_impute",
    "edf_inverse",
    "entry_distribution",
    "fit_coca",
    "fit_edf",
    "fit_gaussian",
    "fit_pca",
    "fit_ranks",
    "fit_xpca",
    "generate",
    "global_epsilon",
    "impute",
    "impute_mean",
    "impute_mean_interp",
    "impute_median",
    "load_csv",
    "load_model",
    "mask_random",
    "named_spec",
    "pca_impute",
    "run_scenario",
    "save_model",
    "split_folds",
    "standardized_mse",
    "tie_method_experiment",
    "underlying_means",
    "write_csv",
]
