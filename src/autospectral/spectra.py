"""Normalized-Laplacian spectrum extraction and eigen-gap scoring.

The Laplacian L = I - D^{-1/2} A D^{-1/2} is never formed: the k+1 smallest
eigenvalues of L are 1 minus the k+1 largest eigenvalues of the normalized
affinity, which the partial eigensolver extracts directly from that
operator. The operator is always a scaled CSR copy of the graph's;
``linalg.partial_sym_eigs`` alone picks LAPACK or ARPACK for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateCandidateError
from .linalg import partial_sym_eigs


@dataclass(frozen=True)
class LaplacianSpectrum:
    """The k+1 smallest normalized-Laplacian eigenvalues and k eigenvectors.

    ``sigmas`` is ascending with values in [0, 2]; ``vectors`` is n x k with
    orthonormal columns (eigenvectors for the k smallest eigenvalues), or
    None once a search has released them: a search keeps them only for its
    winner.
    """

    k: int
    sigmas: np.ndarray
    vectors: np.ndarray | None = field(repr=False)


def laplacian_spectrum(graph, k, seed=0):
    """Bottom k+1 eigenvalues and k eigenvectors of the normalized Laplacian.

    Works on the similarity operator D^{-1/2} A D^{-1/2}, whose largest
    eigenvalues map to the Laplacian's smallest as sigma = 1 - rho with the
    same eigenvectors, each entry rounded as (d_i a_ij) d_j, as two diagonal
    products round it. Eigenvalues are clamped to [0, 2] against rounding.

    For every n the operator is a CSR matrix that shares the graph's index
    arrays and holds scaled data; ``linalg.partial_sym_eigs`` picks the
    solver by its order. The graph is released before the solve: a caller
    that passes it unnamed, as the search does, frees its data here.
    """
    n = graph.n
    if k < 1 or k + 1 > n:
        raise ValueError(f"need 1 <= k and k + 1 <= n (k={k}, n={n})")
    if np.any(graph.degrees <= 0):
        raise ValueError("graph has a zero-degree vertex")
    dinv_sqrt = 1.0 / np.sqrt(graph.degrees)
    a = graph.a
    data = np.repeat(dinv_sqrt, np.diff(a.indptr)) * a.data
    data *= dinv_sqrt[a.indices]
    M = sp.csr_matrix((data, a.indices, a.indptr), shape=a.shape)
    del graph, a
    rho, vecs = partial_sym_eigs(M, count=k + 1, seed=seed)
    sigmas = np.clip(1.0 - rho, 0.0, 2.0)
    # a copy, not a view that would keep all k+1 vectors alive
    return LaplacianSpectrum(k=k, sigmas=sigmas, vectors=vecs[:, :k].copy())


def check_eps(eps):
    """Require a finite eps > 0: a NaN makes every score NaN, an inf every score 0."""
    if not 0.0 < eps < np.inf:
        raise ValueError("eps must be finite and positive")


def relative_eigen_gap(spectrum, eps=1e-6):
    """(sigma_{k+1} - mean of the k smallest) / (that mean + eps).

    Scale-free candidate quality score; can be negative when the (k+1)-th
    eigenvalue dips below the mean of the first k.
    """
    check_eps(eps)
    k = spectrum.k
    mean_low = float(np.mean(spectrum.sigmas[:k]))
    return (float(spectrum.sigmas[k]) - mean_low) / (mean_low + eps)


def plain_eigen_gap(spectrum):
    """sigma_{k+1} - sigma_k, for the ablation/diagnostics scoring mode."""
    return float(spectrum.sigmas[spectrum.k] - spectrum.sigmas[spectrum.k - 1])


def spectral_embedding(spectrum):
    """k x n embedding: transposed eigenvectors with unit-norm columns.

    Raises
    ------
    ValueError
        If the spectrum holds no eigenvectors: a search releases them for
        every candidate but its winner, and ``search.evaluate_candidate``
        derives them again from the candidate's config.
    DegenerateCandidateError
        If some point has an all-zero eigenvector coordinate row.
    """
    if spectrum.vectors is None:
        raise ValueError(
            "spectrum holds no eigenvectors: a search keeps them only for its winner; "
            "evaluate_candidate derives a candidate's again"
        )
    Z = spectrum.vectors.T.copy()
    norms = np.linalg.norm(Z, axis=0)
    if np.any(norms == 0.0):
        raise DegenerateCandidateError("a point has zero spectral coordinates")
    return Z / norms
