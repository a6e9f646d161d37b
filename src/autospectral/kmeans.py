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


# Distance entries per assignment tile: 8192 float64 (64 KiB) keep a
# tile's rows x k in cache, and at the landmark shape keep the Lloyd steps'
# buffers below the k-means++ seeding sample.
_TILE = 8192

# Rows per distance product in _assign, and the distance products its
# buffer holds (512 KiB) before blocks shrink; see its docstring.
_BLOCK = 960
_BUFFER = 65536


def _sq_norms(A):
    return np.einsum("ij,ij->i", A, A)


def _sq_dists(d, g2):
    """Squared distances max(|p|^2 + |c|^2 - 2 p.c, 0), in place in d.

    ``d`` holds |p|^2 + |c|^2 and ``g2`` holds 2 p.c, computed as
    P @ C.T and then doubled in place: doubling is exact, so this is
    P @ (2 C).T bit for bit.
    """
    d -= g2
    return np.maximum(d, 0.0, out=d)


def _blocks(n, k):
    """(start, end) rows of _assign's blocks of P; see its docstring."""
    fit = _BUFFER // k
    block = max(480, 48 * (1200 // (48 * k) + 1), min(_BLOCK, fit // 48 * 48))
    starts = range(0, max(n - block, 0) + 1, block)
    last = starts[-1]
    if n - last > fit:
        last = max(n - block, 0) // 48 * 48
    return [(s, s + block) for s in starts if s < last] + [(last, n)]


def _assign(P, pn, centers):
    """Nearest center of every row of P and its squared distance; ties take
    the lowest center.

    Every p.c comes from a product over a block of rows, written into one
    reused buffer, so no array spans all n rows times k; inside a block the
    distances run in tiles whose rows x k stay in cache. A tile's
    |p|^2 + |c|^2 is the product [|p|^2, 1] @ [1; |c|^2], whose left factor
    is filled per tile: the same single rounding as the sum, at a quarter
    of the cost of numpy's broadcast add. The product with C' is doubled
    in place, so no scaled copy of the centers is made.

    On one OpenBLAS thread (Haswell kernel, 12-row groups) the blocks round
    every p.c as the one-pass product ``P @ (2 C).T`` does, so labels and
    distances stay bit-identical, when every block starts at a multiple of
    48 rows and holds at least 480 rows and more than 1200 / k rows.
    Smaller products (for m >= 60) and single rows take another BLAS path.
    A block holds ``_BLOCK`` = 960 rows, or, where a buffer of ``_BUFFER``
    products holds fewer, the largest multiple of 48 it holds, but never
    fewer rows than the bound above. Blocks start at multiples of the block
    size, and the last one runs to n. It takes the remainder too where the
    buffer holds that; otherwise it starts at the largest multiple of 48 at
    or below n minus a block and recomputes, bit for bit, the rows it
    shares with the block before. So k = 10 keeps 960-row blocks with the
    remainder in the last one (at most 1919 rows), and k = 300 runs 480-row
    blocks whose last one holds at most 527 rows. This was checked for k in
    {1, 2, 3, 4, 10, 12, 300, 500, 1000}, m in {1, 10, 17, 60, 784} and n
    from k to 7777. Blocks of 512 or 1024 rows differed where a block's
    last 4 rows meet the column tail when k % 8 == 4. Threaded BLAS already
    rounds the one-pass product differently from one thread.
    """
    n, k = P.shape[0], centers.shape[0]
    cn1 = np.vstack((np.ones(k), _sq_norms(centers)))
    blocks = _blocks(n, k)
    g2 = np.empty((n - blocks[-1][0], k))
    rows = min(max(1, _TILE // k), n)
    pn1 = np.ones((rows, 2))
    tile = np.empty((rows, k))
    labels = np.empty(n, dtype=np.intp)
    mind2 = np.empty(n)
    for b, e in blocks:
        g2b = np.matmul(P[b:e], centers.T, out=g2[: e - b])
        g2b *= 2.0
        for s in range(b, e, rows):
            t = min(s + rows, e)
            pn1[: t - s, 0] = pn[s:t]
            d2 = np.matmul(pn1[: t - s], cn1, out=tile[: t - s])
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


def lloyd_iterations(P, k, rng, max_iters, seed_rows=None):
    """Single k-means run; returns (labels0, centers, inertia, history).

    k-means++ seeds from ``seed_rows`` rows of P drawn from ``rng`` without
    replacement, or from every row when ``seed_rows`` is None or at least
    the row count; at most ``max_iters`` Lloyd steps then run on all rows,
    stopping once no center moves by 1e-6 in a step. ``history``
    collects the inertia after every assignment step, one per step plus the
    final one, and is non-increasing by construction of the update/repair
    steps.
    """
    pn = _sq_norms(P)
    n = P.shape[0]
    if seed_rows is None or seed_rows >= n:
        centers = _kmeanspp(P, pn, k, rng)
    else:
        rows = rng.choice(n, seed_rows, replace=False)
        centers = _kmeanspp(P[rows], pn[rows], k, rng)
    history = []
    for _ in range(max_iters):
        labels, mind2 = _assign(P, pn, centers)
        _repair_empty(P, centers, labels, mind2, k)
        history.append(float(mind2.sum()))
        new_centers = _means(P, labels, centers)
        shift = np.max(np.linalg.norm(new_centers - centers, axis=1))
        centers = new_centers
        if shift < 1e-6:
            break
    labels, mind2 = _assign(P, pn, centers)
    _repair_empty(P, centers, labels, mind2, k)
    history.append(float(mind2.sum()))
    return labels, centers, float(mind2.sum()), history


def _best_run(X, k, restarts, seed, max_iters, seed_rows=None):
    """(labels0, centers, inertia) of the lowest-inertia of ``restarts``
    runs on the columns of X; ties keep the earliest restart.

    The runs read the columns of X as the rows of ``X.T``, which is
    C-ordered, and so a view, when X is F-ordered, as ``load_csv``,
    ``load_idx`` and ``unit_columns`` return it; a C-ordered X is copied
    once.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[1]
    if k < 1 or k > n:
        raise ValueError(f"k must be in [1, {n}]")
    P = np.ascontiguousarray(X.T)
    best = None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        labels, centers, inertia, _ = lloyd_iterations(P, k, rng, max_iters, seed_rows=seed_rows)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    return best


def kmeans(Z, k, seed=0):
    """Best of 10 k-means runs on the columns of Z, each of at most 300
    Lloyd steps that stop once no center moves by 1e-6 in a step.

    Returns the lowest-inertia Partition; ties keep the earliest restart.
    """
    labels, _, inertia = _best_run(Z, k, 10, seed, 300)
    return Partition(labels=labels + 1, k=k, inertia=inertia)


# landmark k-means++ seeds from this many rows per center
_SEED_ROWS_PER_CENTER = 10


def kmeans_centers(X, k, seed=0):
    """Centers (m x k) of one short k-means run; used for landmark selection.

    k-means++ seeds from min(n, 10 k) columns of X, drawn without
    replacement from the first spawned stream of ``seed``; at most 5 Lloyd
    steps on all n columns follow, stopping as ``kmeans``' steps do.
    Landmarks only summarise X for the search: at n=70 000, m=784 with
    1000 landmarks, seeding from all points and running Lloyd to convergence took 81-93 s
    against 16-21 s (2-core host, one BLAS thread), and the landmark path's
    mean accuracy over five inputs moved by 0.0001. For the same reason one
    run suffices where ``kmeans`` takes the best of ten.
    """
    return _best_run(X, k, 1, seed, 5, _SEED_ROWS_PER_CENTER * k)[1].T.copy()
