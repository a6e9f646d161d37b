"""Shared oracles and graph builders for the test suite."""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from autospectral.affinity import AffinityGraph


def graph_from_dense(A):
    """AffinityGraph from a dense symmetric nonnegative zero-diagonal matrix."""
    A = np.asarray(A, dtype=np.float64)
    return AffinityGraph(a=sp.csr_matrix(A), degrees=A.sum(axis=1))


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
