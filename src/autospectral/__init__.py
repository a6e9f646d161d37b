"""Automated spectral clustering: eigen-gap guided model and hyperparameter search."""

# Importing these names also loads the kmeans, netembed, search and spectra
# submodules, which callers may look up in sys.modules after
# ``import autospectral``.
from .affinity import CandidateConfig, KernelSpec, build_coefficients, postprocess_affinity
from .kmeans import Partition
from .metrics import clustering_accuracy
from .netembed import NetConfig, landmark_cluster
from .search import (
    ModelSpec,
    SearchSpace,
    bo_search,
    default_search_space,
    evaluate_candidate,
    grid_search,
)
from .spectra import laplacian_spectrum
from .synthetic import random_subspaces

__version__ = "0.1.0"

__all__ = [
    "CandidateConfig",
    "KernelSpec",
    "ModelSpec",
    "NetConfig",
    "Partition",
    "SearchSpace",
    "bo_search",
    "build_coefficients",
    "clustering_accuracy",
    "default_search_space",
    "evaluate_candidate",
    "grid_search",
    "landmark_cluster",
    "laplacian_spectrum",
    "postprocess_affinity",
    "random_subspaces",
]
