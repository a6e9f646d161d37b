"""k-means with k-means++ seeding, restarts, and empty-cluster repair.

Points are the *columns* of the input matrix, matching the rest of the
package. Deterministic given the seed: restart streams come from spawned
seed sequences, assignment ties take the lowest center index, and empty
clusters are reseeded to the current farthest point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class Partition:
    """Cluster labels 1..k plus the inertia of the producing k-means run."""

    labels: np.ndarray = field(repr=False)
    k: int
    inertia: float = 0.0

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        if labels.size and (labels.min() < 1 or labels.max() > self.k):
            raise ValueError("labels must lie in 1..k")
        if self.inertia < 0:
            raise ValueError("inertia must be nonnegative")

    @property
    def n(self):
        return self.labels.size

    @classmethod
    def from_labels(cls, raw):
        """Relabel arbitrary values contiguously to 1..k (sorted value order)."""
        raw = np.asarray(raw)
        values, inverse = np.unique(raw, return_inverse=True)
        return cls(labels=inverse + 1, k=len(values))


# Distance entries per assignment block: 32768 float64 (256 KiB) keep a
# block's rows x k tile in cache.
_TILE = 32768

# Rows per distance product in _assign; see its docstring for why 960.
_BLOCK = 960


def _sq_norms(A):
    return np.einsum("ij,ij->i", A, A)


def _sq_dists(d, g2):
    """Squared distances max(|p|^2 + |c|^2 - 2 p.c, 0), in place in d.

    ``d`` holds |p|^2 + |c|^2 and ``g2`` holds 2 p.c, computed as
    P @ (2 C).T: doubling a factor is exact, so this is 2 (P @ C.T) bit for bit.
    """
    d -= g2
    return np.maximum(d, 0.0, out=d)


def _assign(P, pn, centers):
    """Nearest center of every row of P and its squared distance; ties take
    the lowest center.

    Every p.c comes from a product over a block of ``_BLOCK`` rows, written
    into one reused buffer, so no array spans all n rows times k; inside a
    block the distances run in tiles whose rows x k stay in cache. The
    block's |p|^2 + |c|^2 is the product [|p|^2, 1] @ [1; |c|^2]: the same
    single rounding as the sum, at a quarter of the cost of numpy's
    broadcast add.

    On one OpenBLAS thread (Haswell kernel, 12-row groups) the blocks round
    every p.c as the one-pass product ``P @ (2 C).T`` does, so labels and
    distances stay bit-identical, when every block starts at a multiple of
    48 rows and holds at least 480 rows and more than 1200 / k rows. Smaller
    products (for m >= 60) and single rows take another BLAS path. Hence
    ``_BLOCK`` is 960, since k = 2 needs 601 rows, and the last block takes
    the remainder too, up to 2 ``_BLOCK`` - 1 rows. This was checked for k
    in {1, 2, 3, 4, 10, 12, 300, 500, 1000} and m in {1, 10, 17, 60, 784}.
    Blocks of 512 or 1024 rows differed where a block's last 4 rows meet
    the column tail when k % 8 == 4. Threaded BLAS already rounds the
    one-pass product differently from one thread.
    """
    n, k = P.shape[0], centers.shape[0]
    pn1 = np.column_stack((pn, np.ones(n)))
    cn1 = np.vstack((np.ones(k), _sq_norms(centers)))
    c2t = (2.0 * centers).T
    # blocks start at multiples of _BLOCK; the last also takes the remainder
    bounds = [0, *range(_BLOCK, n - _BLOCK + 1, _BLOCK), n]
    g2 = np.empty((n - bounds[-2], k))
    rows = max(1, _TILE // k)
    tile = np.empty((min(rows, n), k))
    labels = np.empty(n, dtype=np.intp)
    mind2 = np.empty(n)
    for b, e in zip(bounds, bounds[1:]):
        g2b = np.matmul(P[b:e], c2t, out=g2[: e - b])
        for s in range(b, e, rows):
            t = min(s + rows, e)
            d2 = np.matmul(pn1[s:t], cn1, out=tile[: t - s])
            _sq_dists(d2, g2b[s - b : t - b])
            np.argmin(d2, axis=1, out=labels[s:t])
            mind2[s:t] = d2[np.arange(t - s), labels[s:t]]
    return labels, mind2


def _kmeanspp(P, pn, k, rng):
    n = P.shape[0]
    centers = np.empty((k, P.shape[1]))

    def sq_dists_to(j):
        c = centers[j : j + 1]
        return _sq_dists(pn + _sq_norms(c), (P @ (2.0 * c).T)[:, 0])

    first = int(rng.integers(0, n))
    centers[0] = P[first]
    closest = sq_dists_to(0)
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = int(rng.choice(n, p=closest / total))
        else:
            # all remaining points coincide with a chosen center
            taken = {tuple(c) for c in centers[:j]}
            idx = next((i for i in range(n) if tuple(P[i]) not in taken), j % n)
        centers[j] = P[idx]
        np.minimum(closest, sq_dists_to(j), out=closest)
    return centers


def _repair_empty(P, centers, labels, mind2, k):
    counts = np.bincount(labels, minlength=k)
    for e in np.flatnonzero(counts == 0):
        far = int(np.argmax(mind2))
        counts[labels[far]] -= 1
        centers[e] = P[far]
        labels[far] = e
        counts[e] = 1
        mind2[far] = 0.0


def _means(P, labels, centers):
    """Mean of each cluster's rows; an empty cluster keeps its center.

    One one-hot sparse product sums every cluster, adding its members in
    index order as ``P[labels == j].mean(axis=0)`` does. The members are
    ordered by a stable sort of the labels cast to the smallest integer type
    that holds k - 1, which numpy radix-sorts (8- and 16-bit) to the same
    permutation.
    """
    k, n = centers.shape[0], labels.size
    counts = np.bincount(labels, minlength=k)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    order = np.argsort(labels.astype(np.min_scalar_type(k - 1)), kind="stable")
    onehot = sp.csr_matrix((np.ones(n), order, indptr), shape=(k, n))
    sums = onehot @ P
    means = centers.copy()
    full = counts > 0
    means[full] = sums[full] / counts[full, None]
    return means


def lloyd_iterations(P, k, rng, max_iters=300, tol=1e-6):
    """Single k-means run; returns (labels0, centers, inertia, history).

    ``history`` collects the inertia after every assignment step and is
    non-increasing by construction of the update/repair steps.
    """
    pn = _sq_norms(P)
    centers = _kmeanspp(P, pn, k, rng)
    history = []
    for _ in range(max_iters):
        labels, mind2 = _assign(P, pn, centers)
        _repair_empty(P, centers, labels, mind2, k)
        history.append(float(mind2.sum()))
        new_centers = _means(P, labels, centers)
        shift = np.max(np.linalg.norm(new_centers - centers, axis=1))
        centers = new_centers
        if shift < tol:
            break
    labels, mind2 = _assign(P, pn, centers)
    _repair_empty(P, centers, labels, mind2, k)
    history.append(float(mind2.sum()))
    return labels, centers, float(mind2.sum()), history


def _best_run(X, k, restarts, seed, max_iters):
    """(labels0, centers, inertia) of the lowest-inertia of ``restarts``
    runs on the columns of X; ties keep the earliest restart."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[1]
    if k < 1 or k > n:
        raise ValueError(f"k must be in [1, {n}]")
    P = X.T.copy()
    best = None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        labels, centers, inertia, _ = lloyd_iterations(P, k, rng, max_iters)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    return best


def kmeans(Z, k, seed=0):
    """Best of 10 k-means runs on the columns of Z, each of at most 300
    Lloyd steps.

    Returns the lowest-inertia Partition; ties keep the earliest restart.
    """
    labels, _, inertia = _best_run(Z, k, 10, seed, 300)
    return Partition(labels=labels + 1, k=k, inertia=inertia)


def kmeans_centers(X, k, seed=0, max_iters=300):
    """Centers (m x k) of one k-means run; used for landmark selection.

    Landmarks only summarise X for the search, so one run suffices: the
    lowest-inertia of ten restarts costs ten times as much and leaves the
    landmark path's final accuracy unchanged. The run is restart 0 of
    ``kmeans`` with the same seed.
    """
    return _best_run(X, k, 1, seed, max_iters)[1].T.copy()
