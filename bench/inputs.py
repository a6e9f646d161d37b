"""Seeded inputs for the benchmark workloads, made by the benchmark's own code.

Every workload clusters points drawn from k linear subspaces that share a
common component, so every pair of subspaces is equally similar, plus
isotropic noise of about the signal's size. Clusters overlap and accuracy
stays below 1. Fixing the angles between the subspaces keeps the difficulty,
and so the work and the accuracy, nearly the same from seed to seed: random
subspaces at the same noise gave accuracies from 0.91 to 0.98 on a grid
search at n=600.
The truth labels come from this generator, never from the program under
test. The program receives only what ``autospectral.dataio.load_csv`` reads
back from the CSV written here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIMILARITY = 0.3  # cosine of every principal angle between two subspaces
ACCURACY_FLOOR = 0.75  # far above chance: 0.36-0.39 for k=3, 0.12 for k=10


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "bo" or "landmark"
    n: int  # points
    m: int  # ambient dimension
    d: int  # subspace dimension
    k: int  # clusters
    noise: float  # noise norm relative to the unit-norm signal
    landmarks: int = 0
    budget: int = 0  # BO evaluations per model


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bo-n150", "bo", n=150, m=30, d=4, k=3, noise=0.7, budget=30),
        Workload("landmark-n6000-k10", "landmark", n=6000, m=60, d=5, k=10, noise=1.0, landmarks=300),
    )
}


def noisy_subspaces(w, seed):
    """(X, labels): m x n unit columns in shuffled order, labels in 1..k.

    Subspace j is spanned by sqrt(s) U0 + sqrt(1 - s) Uj, where U0, U1..Uk
    are mutually orthogonal random d-dimensional frames and s is
    ``SIMILARITY``; every principal angle between two subspaces is then
    arccos(s). Each cluster is n/k unit-norm points with Gaussian coordinates
    in its subspace; noise of norm about ``w.noise`` is added to each point,
    which is then normalised again. The stream depends on the seed and the
    workload name.
    """
    rng = np.random.default_rng([seed, *w.name.encode()])
    frames, _ = np.linalg.qr(rng.standard_normal((w.m, (w.k + 1) * w.d)))
    shared = np.sqrt(SIMILARITY) * frames[:, : w.d]
    per = w.n // w.k
    blocks = []
    for j in range(1, w.k + 1):
        basis = shared + np.sqrt(1.0 - SIMILARITY) * frames[:, j * w.d : (j + 1) * w.d]
        blocks.append(basis @ rng.standard_normal((w.d, per)))
    X = np.hstack(blocks)
    X /= np.linalg.norm(X, axis=0)
    X += (w.noise / np.sqrt(w.m)) * rng.standard_normal(X.shape)
    X /= np.linalg.norm(X, axis=0)
    labels = np.repeat(np.arange(1, w.k + 1), per)
    order = rng.permutation(X.shape[1])
    return X[:, order], labels[order]


def write_csv(path, X):
    """Rows are points; 17 significant digits round-trip float64 exactly."""
    np.savetxt(path, X.T, delimiter=",", fmt="%.17g")
