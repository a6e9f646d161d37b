"""Synthetic test-bed generators: union-of-subspaces and polynomial curves."""

from __future__ import annotations

import numpy as np

from .linalg import unit_columns


def random_subspaces(k, ambient_dim, intrinsic_dim, per_cluster, noise_std=0.0, seed=0):
    """Points drawn from k random independent subspaces.

    Each subspace gets an orthonormal basis from the QR of its own Gaussian
    block; points are Gaussian coordinates in that basis plus optional
    ambient Gaussian noise, in l2-normalized columns.

    Returns
    -------
    X : (ambient_dim, k * per_cluster) ndarray
    labels : (k * per_cluster,) int ndarray with values 1..k
    """
    if intrinsic_dim * k > ambient_dim:
        raise ValueError("k * intrinsic_dim exceeds the ambient dimension")
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(k):
        basis, _ = np.linalg.qr(rng.standard_normal((ambient_dim, intrinsic_dim)))
        coords = rng.standard_normal((intrinsic_dim, per_cluster))
        cols.append(basis @ coords)
    X = np.hstack(cols)
    if noise_std > 0:
        X = X + noise_std * rng.standard_normal(X.shape)
    labels = np.repeat(np.arange(1, k + 1), per_cluster)
    return unit_columns(X), labels


def random_poly_curves(k, ambient_dim, degree, per_cluster, noise_std=0.0, seed=0, normalize=True):
    """Points on k random polynomial curves of the given degree in R^ambient_dim.

    Curve j is t -> sum_i a_ji t^i with Gaussian coefficient vectors, sampled
    at uniform t in [-1, 1]. Normalization is optional: rescaling to the unit
    sphere destroys the polynomial parameterization, which matters for
    kernel-rank experiments.
    """
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(k):
        coeffs = rng.standard_normal((ambient_dim, degree + 1))
        t = rng.uniform(-1.0, 1.0, size=per_cluster)
        powers = t[None, :] ** np.arange(degree + 1)[:, None]
        cols.append(coeffs @ powers)
    X = np.hstack(cols)
    if noise_std > 0:
        X = X + noise_std * rng.standard_normal(X.shape)
    if normalize:
        X = unit_columns(X)
    labels = np.repeat(np.arange(1, k + 1), per_cluster)
    return X, labels

