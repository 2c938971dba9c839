"""Monte Carlo modified profile likelihood for fixed-effects clustered data.

The profile likelihood of a clustered model with one incidental intercept
per cluster carries a score bias that grows with the number of clusters;
adding a per-cluster correction built from the observed information and
an expectation of score products removes most of it. When that
expectation has no convenient closed form it is approximated by averaging
score products over datasets simulated at the full maximum likelihood
fit, which is the engine implemented here for three model families:
binary regression with possibly missing responses, stratified Weibull
regression under unspecified right censoring, and the nonstationary
normal AR(1) panel model.
"""

from .core import (
    ClusteredDataset,
    ClusteredModel,
    FitResult,
    MonteCarloConfig,
    NoInformativeClustersError,
    WaldInterval,
    drop_noninformative,
    fit,
    make_dataset,
    modified_profile_loglik,
    profile_loglik,
    substream,
    wald_interval,
)
from .optim import (
    OptimResult,
    maximize_multivariate,
    maximize_scalar_bounded,
    numerical_gradient,
    numerical_hessian,
)

__all__ = [
    "ClusteredDataset",
    "ClusteredModel",
    "FitResult",
    "MonteCarloConfig",
    "NoInformativeClustersError",
    "OptimResult",
    "WaldInterval",
    "drop_noninformative",
    "fit",
    "make_dataset",
    "maximize_multivariate",
    "maximize_scalar_bounded",
    "modified_profile_loglik",
    "numerical_gradient",
    "numerical_hessian",
    "profile_loglik",
    "substream",
    "wald_interval",
]

__version__ = "0.1.0"
