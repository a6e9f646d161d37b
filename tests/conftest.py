"""Shared oracles and graph builders for the test suite."""

import os
import tracemalloc

# BLAS reads these when numpy loads, and pytest loads this file before it
# imports any test module: every test runs BLAS on one thread, as the bench
# does, so two threads on a core that another process keeps busy cannot
# push a timing gate over its limit.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy.linalg
import scipy.sparse as sp

from autospectral.affinity import AffinityGraph
from autospectral.errors import DegenerateCandidateError
from autospectral.linalg import partial_sym_eigs
from autospectral.spectra import LaplacianSpectrum


def traced_peak(run, unit=1.0):
    """Peak bytes that tracemalloc traces during one call of ``run``, in
    units of ``unit`` bytes. An untraced call goes first, so one-time
    allocations (lazy imports, caches) stay out of the figure."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / unit
    finally:
        tracemalloc.stop()


def graph_from_dense(A):
    """AffinityGraph from a dense symmetric nonnegative zero-diagonal matrix."""
    A = np.asarray(A, dtype=np.float64)
    return AffinityGraph(sp.csr_matrix(A), A.sum(axis=1))


def sorted_postprocess(C, tau):
    """Reference post-process by a stable descending argsort of each column:
    keep the first tau rows of each column's order, normalize the columns
    (whose sums must be finite), symmetrize, and store the affinity as CSR."""
    W = np.abs(C)
    np.fill_diagonal(W, 0.0)
    with np.errstate(over="ignore"):
        if np.any(W.sum(axis=0) == 0.0):
            raise DegenerateCandidateError("a column has no off-diagonal mass")
    n = W.shape[0]
    if tau < n - 1:
        order = np.argsort(-W, axis=0, kind="stable")
        keep = np.zeros_like(W, dtype=bool)
        np.put_along_axis(keep, order[:tau, :], True, axis=0)
        W = np.where(keep, W, 0.0)
    with np.errstate(over="ignore"):
        sums = W.sum(axis=0, keepdims=True)
    if not np.all(np.isfinite(sums)):
        raise DegenerateCandidateError("the kept weights of a column overflow float64 when summed")
    W = W / sums
    A = (W + W.T) / 2.0
    degrees = A.sum(axis=1)
    if np.any(degrees <= 0.0):
        raise DegenerateCandidateError("graph has an isolated vertex")
    return AffinityGraph(sp.csr_matrix(A), degrees)


def ties_at_threshold(C, tau):
    """Whether some column of |C| holds more entries equal to its tau-th
    largest (nonzero) value than the tau slots leave for them."""
    W = np.abs(C)
    np.fill_diagonal(W, 0.0)
    t = -np.sort(-W, axis=0)[tau - 1]
    return bool(np.any((t > 0) & ((W >= t).sum(axis=0) > tau)))


def sparse_laplacian_spectrum(graph, k, seed=0):
    """Reference spectrum of an ``AffinityGraph``: the operator D^-1/2 A D^-1/2
    built by two sparse diagonal products."""
    scaling = sp.diags(1.0 / np.sqrt(graph.degrees))
    rho, vecs = partial_sym_eigs((scaling @ graph.a @ scaling).tocsr(), count=k + 1, seed=seed)
    return LaplacianSpectrum(k=k, sigmas=np.clip(1.0 - rho, 0.0, 2.0), vectors=vecs[:, :k])


def save_csv(path, X, labels=None):
    """Write points (columns of X) as CSV rows using shortest round-trip decimals."""
    X = np.asarray(X)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(X.shape[1]):
            fields = [repr(float(v)) for v in X[:, i]]
            if labels is not None:
                fields.append(str(int(labels[i])))
            fh.write(",".join(fields) + "\n")


def solve_pd(A, B):
    """Oracle: LAPACK's positive definite solve of A Y = B."""
    return scipy.linalg.solve(A, B, assume_a="pos")


def dense_laplacian_eigs(A):
    """Oracle: full eigendecomposition of L = I - D^{-1/2} A D^{-1/2}."""
    d = A.sum(axis=1)
    dis = 1.0 / np.sqrt(d)
    L = np.eye(A.shape[0]) - A * np.outer(dis, dis)
    vals, vecs = np.linalg.eigh((L + L.T) / 2.0)
    return vals, vecs


def random_affinity(rng, n, density=0.6):
    """Random symmetric nonnegative zero-diagonal matrix with positive degrees."""
    while True:
        B = rng.random((n, n)) * (rng.random((n, n)) < density)
        A = np.triu(B, 1)
        A = A + A.T
        if np.all(A.sum(axis=1) > 0):
            return A


def block_affinity(rng, sizes, density=0.9):
    """Block-diagonal affinity with one connected block per size."""
    n = sum(sizes)
    A = np.zeros((n, n))
    at = 0
    for s in sizes:
        while True:
            blk = random_affinity(rng, s, density) if s > 1 else np.zeros((1, 1))
            if s == 1:
                raise ValueError("blocks must have >= 2 vertices")
            from scipy.sparse.csgraph import connected_components

            ncomp, _ = connected_components(sp.csr_matrix(blk), directed=False)
            if ncomp == 1:
                break
        A[at : at + s, at : at + s] = blk
        at += s
    return A
