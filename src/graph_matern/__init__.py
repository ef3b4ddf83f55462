"""Matern-family Gaussian processes on weighted undirected graphs."""

from .graphs import (
    LaplacianOperator,
    WeightedGraph,
    build_laplacian,
    connected_components,
    parse_edge_list,
    read_edge_list,
    read_node_id_map,
)
from .spectral import (
    CACHE_ENV_VAR,
    EigensolverError,
    SpectralBasis,
    apply_spectral_function,
    cached_eigendecomposition,
    eigendecompose_full,
    eigendecompose_truncated,
    heat_propagate,
    laplacian_hash,
    load_basis,
    save_basis,
)
from .kernels import (
    FAMILIES,
    KernelSpec,
    kernel_matrix,
    matern_precision_sparse,
    separable_product_kernel,
    spectral_weights,
    trainable_params,
)
from .regression import (
    GPRegressionModel,
    PosteriorSummary,
    fit,
    gmrf_posterior,
    load_model,
    log_marginal_likelihood,
    pathwise_sample,
    posterior,
    read_targets_csv,
    save_model,
    woodbury_posterior,
)
from .classification import (
    VariationalClassifier,
    elbo,
    fit_classifier,
    kl_gaussian,
    load_classifier,
    predict_classes,
    read_labels_csv,
    robustmax,
    save_classifier,
)
from .optim import (
    AdamConfig,
    AdamState,
    Standardizer,
    adam_step,
    metrics,
    random_split,
    standardize,
)

__version__ = "0.1.0"
