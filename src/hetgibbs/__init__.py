"""Heteroskedastic Gaussian/Laplace regression by fully conjugate Gibbs sampling.

Mean and variance both get mixed-model linear predictors; the negative log
link keeps variances positive without parameter constraints, and multivariate
log-gamma priors on the variance-side coefficients make every full
conditional available in closed form.  Includes an echo-state-network
volatility model for time series and a Laplace data model for heavy tails.
"""

from .design import (
    BasisConfig,
    ColumnScale,
    Dataset,
    Hyperparams,
    ModelSpec,
    bisquare_basis,
    build_design,
    multiresolution_grid,
)
from .esn import (
    EsvmSpec,
    Reservoir,
    build_reservoir,
    esvm_inputs,
    esvm_to_spec,
    reservoir_states,
)
from .gibbs import (
    GibbsConfig,
    GibbsError,
    PosteriorChain,
    concatenate_chains,
    run_gibbs,
)
from .metrics import (
    CvScheme,
    PointwiseLogLik,
    dic,
    effective_sample_size,
    kfold_cv,
    loglik_pointwise,
    msev,
    summarize,
    waic,
)

__version__ = "0.1.0"
