"""Automated spectral clustering: eigen-gap guided model and hyperparameter search."""

from .affinity import (
    AffinityGraph,
    CandidateConfig,
    KernelSpec,
    build_coefficients,
    kernel_matrix,
    klsr_coefficients,
    lsr_coefficients,
    postprocess_affinity,
)
from .kmeans import Partition
from .linalg import partial_sym_eigs, randomized_svd, solve_spd
from .metrics import clustering_accuracy, mncut, nmi, partition_distance
from .netembed import MLPParams, NetConfig, landmark_cluster, net_forward, net_train
from .search import (
    CandidateScore,
    ModelSpec,
    SearchResult,
    SearchSpace,
    bo_search,
    default_search_space,
    evaluate_candidate,
    expected_improvement,
    grid_search,
)
from .spectra import (
    LaplacianSpectrum,
    laplacian_spectrum,
    plain_eigen_gap,
    relative_eigen_gap,
    spectral_embedding,
)
from .synthetic import generate_synthetic, random_poly_curves, random_subspaces

__version__ = "0.1.0"

__all__ = [
    "AffinityGraph",
    "CandidateConfig",
    "CandidateScore",
    "KernelSpec",
    "LaplacianSpectrum",
    "MLPParams",
    "ModelSpec",
    "NetConfig",
    "Partition",
    "SearchResult",
    "SearchSpace",
    "bo_search",
    "build_coefficients",
    "clustering_accuracy",
    "default_search_space",
    "evaluate_candidate",
    "expected_improvement",
    "generate_synthetic",
    "grid_search",
    "kernel_matrix",
    "klsr_coefficients",
    "landmark_cluster",
    "laplacian_spectrum",
    "lsr_coefficients",
    "mncut",
    "net_forward",
    "net_train",
    "nmi",
    "partial_sym_eigs",
    "partition_distance",
    "plain_eigen_gap",
    "postprocess_affinity",
    "randomized_svd",
    "random_poly_curves",
    "random_subspaces",
    "relative_eigen_gap",
    "solve_spd",
    "spectral_embedding",
]
