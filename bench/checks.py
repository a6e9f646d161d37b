"""The benchmark's correctness checks, computed apart from the program.

Each check returns a list of problems; an empty list means it passed. The
dense oracle rebuilds the winning affinity from its configuration by the
method's definitions and takes a full ``numpy.linalg.eigvalsh`` of the
normalized Laplacian, so it shares no code with the program's coefficient
solvers, truncation or partial eigensolver.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

SIGMA_ATOL = 1e-8  # absolute, on Laplacian eigenvalues in [0, 2]
REG_RTOL = 1e-6  # relative to max(|reg|, 1)


def check_partition(labels, n, k):
    labels = np.asarray(labels)
    if labels.shape != (n,):
        return [f"partition has shape {labels.shape}, want ({n},)"]
    if labels.min() < 1 or labels.max() > k:
        return [f"labels outside 1..{k}"]
    sizes = np.bincount(labels, minlength=k + 1)[1:]
    if np.any(sizes == 0):
        return [f"empty clusters: {np.flatnonzero(sizes == 0) + 1}"]
    return []


def accuracy(labels, truth):
    """Best-matching fraction over label bijections, from a contingency table."""
    labels = np.asarray(labels)
    truth = np.asarray(truth)
    _, p = np.unique(labels, return_inverse=True)
    _, t = np.unique(truth, return_inverse=True)
    table = np.zeros((p.max() + 1, t.max() + 1), dtype=np.int64)
    np.add.at(table, (p, t), 1)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return table[rows, cols].sum() / labels.size


def check_accuracy(labels, truth, floor):
    acc = accuracy(labels, truth)
    return [] if acc >= floor else [f"accuracy {acc:.4f} below floor {floor}"]


def dense_coefficients(X, model, lam, xi):
    """C for lsr, klsr (gaussian kernel) or kernel_direct, by dense solves."""
    n = X.shape[1]
    if model == "lsr":
        G = X.T @ X
        return scipy.linalg.solve(G + lam * np.eye(n), G, assume_a="pos")
    D = cdist(X.T, X.T)
    sigma = xi * D.mean()  # mean over all n^2 ordered pairs
    K = np.exp(-(D**2) / (2.0 * sigma**2))
    if model == "kernel_direct":
        return K
    return scipy.linalg.solve(K + lam * np.eye(n), K, assume_a="pos")


def dense_affinity(C, tau):
    """abs, zero diagonal, top-tau per column, column l1, symmetrise."""
    W = np.abs(C)
    np.fill_diagonal(W, 0.0)
    n = W.shape[0]
    if tau < n - 1:
        kth = -np.partition(-W, tau - 1, axis=0)[tau - 1]
        W = np.where(W >= kth, W, 0.0)
    W = W / W.sum(axis=0)
    return (W + W.T) / 2.0


def laplacian_sigmas(A, count):
    """The ``count`` smallest eigenvalues of I - D^-1/2 A D^-1/2."""
    s = 1.0 / np.sqrt(A.sum(axis=1))
    L = np.eye(A.shape[0]) - A * np.outer(s, s)
    return np.clip(np.linalg.eigvalsh(L)[:count], 0.0, 2.0)


def relative_gap(sigmas, k, eps=1e-6):
    low = sigmas[:k].mean()
    return (sigmas[k] - low) / (low + eps)


def oracle_spectrum(X, config, k):
    """(sigmas, reg) of a candidate configuration, by the dense oracle."""
    xi = config.kernel.xi if config.kernel is not None else None
    A = dense_affinity(dense_coefficients(X, config.model, config.lam, xi), config.tau)
    sigmas = laplacian_sigmas(A, k + 1)
    return sigmas, relative_gap(sigmas, k)


def check_winner_spectrum(X, winner, k):
    """The winner's reported k+1 sigmas and reg against the dense oracle."""
    config = winner.config
    if config.approx_rank is not None or (config.kernel and config.kernel.kind != "gaussian"):
        return [f"oracle covers exact lsr/klsr/kernel_direct with a gaussian kernel, got {config}"]
    sigmas, reg = oracle_spectrum(X, config, k)
    problems = []
    err = np.max(np.abs(np.asarray(winner.spectrum.sigmas) - sigmas))
    if not err <= SIGMA_ATOL:
        problems.append(f"winner sigmas differ from the dense oracle by {err:.3g}")
    if not abs(winner.reg - reg) <= REG_RTOL * max(abs(reg), 1.0):
        problems.append(f"winner_reg {winner.reg!r} differs from the dense oracle's {reg!r}")
    return problems


def check_winner_is_best(scores, winner, first_of_ties):
    """The winner holds the maximum reg; with ``first_of_ties`` it is also
    the first candidate holding it (grid order)."""
    regs = np.array([s.reg for s in scores])
    best = int(np.argmax(regs))
    if winner.reg != regs[best]:
        return [f"winner reg {winner.reg!r} is not the maximum {regs[best]!r}"]
    if first_of_ties and winner is not scores[best]:
        return [f"winner {winner.config} is not the first argmax {scores[best].config}"]
    return []
