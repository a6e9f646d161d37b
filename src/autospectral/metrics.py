"""Clustering evaluation: accuracy, NMI, multiway normalized cut, and a
volume-weighted distance between partitions of the same graph."""

from __future__ import annotations

import numpy as np


def confusion_counts(pred, truth):
    """k_pred x k_true contingency counts."""
    if pred.n != truth.n:
        raise ValueError("partitions disagree on n")
    M = np.zeros((pred.k, truth.k), dtype=np.int64)
    np.add.at(M, (pred.labels - 1, truth.labels - 1), 1)
    return M


def clustering_accuracy(pred, truth):
    """Best matched fraction over label bijections (optimal assignment).

    Rectangular confusion matrices (k_pred != k_true) are handled directly
    by the assignment solver.
    """
    # imported here, not at the top: scipy.optimize takes about 0.2 s to
    # load, and a run without truth labels never scores accuracy
    from scipy.optimize import linear_sum_assignment

    M = confusion_counts(pred, truth)
    rows, cols = linear_sum_assignment(M, maximize=True)
    return float(M[rows, cols].sum()) / pred.n


def nmi(pred, truth):
    """Mutual information normalized by sqrt of the two entropies.

    Natural-log entropies; 0/0 (both partitions trivial) is defined as 1,
    while a single trivial side gives 0.
    """
    M = confusion_counts(pred, truth).astype(np.float64)
    n = pred.n
    P = M / n
    pi = P.sum(axis=1)
    qj = P.sum(axis=0)
    hp = -np.sum(pi[pi > 0] * np.log(pi[pi > 0]))
    ht = -np.sum(qj[qj > 0] * np.log(qj[qj > 0]))
    if hp == 0.0 and ht == 0.0:
        return 1.0
    if hp == 0.0 or ht == 0.0:
        return 0.0
    nz = P > 0
    mi = np.sum(P[nz] * np.log(P[nz] / (np.outer(pi, qj)[nz])))
    return float(min(max(mi, 0.0) / np.sqrt(hp * ht), 1.0))


def _block_masks(partition):
    counts = np.bincount(partition.labels, minlength=partition.k + 1)[1:]
    if np.any(counts == 0):
        raise ValueError("partition has an empty block")
    return [partition.labels == j for j in range(1, partition.k + 1)]


def mncut(partition, graph):
    """Sum over blocks of (weight leaving the block) / (block volume)."""
    if partition.n != graph.n:
        raise ValueError("partition and graph disagree on n")
    if np.any(graph.degrees <= 0):
        raise ValueError("graph has a zero-degree vertex")
    total = 0.0
    for mask in _block_masks(partition):
        vol = float(graph.degrees[mask].sum())
        total += (vol - float(graph.a[mask][:, mask].sum())) / vol
    return total


def partition_distance(c1, c2, graph):
    """1 - (1/k) sum_ij Vol(C_i n C'_j)^2 / (Vol(C_i) Vol(C'_j)), in [0, 1]."""
    if c1.k != c2.k:
        raise ValueError("partitions must have the same number of blocks")
    if c1.n != c2.n or c1.n != graph.n:
        raise ValueError("partitions and graph disagree on n")
    masks1 = _block_masks(c1)
    masks2 = _block_masks(c2)
    d = graph.degrees
    acc = 0.0
    for m1 in masks1:
        v1 = float(d[m1].sum())
        for m2 in masks2:
            v2 = float(d[m2].sum())
            inter = float(d[m1 & m2].sum())
            acc += inter * inter / (v1 * v2)
    return 1.0 - acc / c1.k
