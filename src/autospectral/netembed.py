"""Scalable path: regress the landmark spectral embedding with a small net.

A two-layer network (ReLU by default) is fit to map landmark features to
their spectral-embedding coordinates, then applied to the full dataset so
k-means runs in the learned k-dimensional space. Training is plain mini-batch
Adam written out explicitly; gradients are closed-form backprop and are
checked against finite differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import TrainingDivergedError
from .kmeans import kmeans, kmeans_centers
from .linalg import check_finite, unit_columns
from .search import bo_search, grid_search

ACTIVATIONS = ("relu", "tanh")

# Adam's moment decay rates and denominator constant (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class MLPParams(NamedTuple):
    """One array per block of the two-layer embedding network: its weights
    and biases, their gradients, or Adam's moments of them."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass(frozen=True)
class NetConfig:
    """Training hyperparameters for the embedding network."""

    hidden: int = 200
    ridge: float = 1e-5
    epochs: int = 200
    batch_size: int = 128
    lr: float = 1e-3
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("hidden, epochs, batch_size must be >= 1")
        if self.ridge < 0 or self.lr <= 0:
            raise ValueError("ridge must be >= 0 and lr > 0")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")


def _act(A, kind):
    if kind == "relu":
        return np.maximum(A, 0.0)
    return np.tanh(A)


def _act_grad(A, kind):
    if kind == "relu":
        return (A > 0.0).astype(np.float64)  # subgradient 0 at the kink
    t = np.tanh(A)
    return 1.0 - t * t


def _embed(params, X, activation):
    A = params.w1 @ X + params.b1[:, None]
    return params.w2 @ _act(A, activation) + params.b2[:, None]


def _loss(params, R, ridge):
    s = R.shape[1]
    return float(np.sum(R * R)) / (2.0 * s) + 0.5 * ridge * (
        float(np.sum(params.w1**2)) + float(np.sum(params.w2**2))
    )


# about this many entries in each hidden x block array of net_forward
_FORWARD_ENTRIES = 2**16


def net_forward(params, X, activation="relu"):
    """W2 act(W1 X + b1 1') + b2 1': the learned embedding of the columns of X.

    Embeds column blocks of about ``_FORWARD_ENTRIES / hidden`` columns, so
    the hidden layer never spans all of X. Blocks start at multiples of 128
    columns, which keeps each column where a one-pass product's tiling puts
    it: on OpenBLAS the result equals ``_embed`` bit for bit, where blocks
    of 1310 columns differed in the last bits.
    """
    X = np.asarray(X)
    cols = max(1, _FORWARD_ENTRIES // (128 * params.w1.shape[0])) * 128
    Z = np.empty((params.w2.shape[0], X.shape[1]))
    for lo in range(0, X.shape[1], cols):
        Z[:, lo : lo + cols] = _embed(params, X[:, lo : lo + cols], activation)
    return Z


def net_loss_and_grad(params, X, Z, ridge, activation="relu"):
    """Ridge-regularized least-squares loss and its exact gradient.

    loss = ||Z - net(X)||_F^2 / (2 s) + ridge/2 (||W1||_F^2 + ||W2||_F^2)
    with s the number of columns.
    """
    s = X.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        A = params.w1 @ X + params.b1[:, None]
        H = _act(A, activation)
        R = params.w2 @ H + params.b2[:, None] - Z
        loss = _loss(params, R, ridge)
        dw2 = (R @ H.T) / s + ridge * params.w2
        db2 = R.sum(axis=1) / s
        dA = (params.w2.T @ R) * _act_grad(A, activation)
        dw1 = (dA @ X.T) / s + ridge * params.w1
        db1 = dA.sum(axis=1) / s
    return loss, MLPParams(w1=dw1, b1=db1, w2=dw2, b2=db2)


def net_train(X, Z, config):
    """Mini-batch Adam on the embedding-regression loss.

    He-scaled Gaussian init for the weights, zero biases; batches reshuffled
    every epoch; deterministic given ``config.seed``. Returns the trained
    parameters and the full-batch loss trace (initial loss plus one value per
    epoch).

    Raises
    ------
    TrainingDivergedError
        On non-finite parameters or full-batch loss, checked at the end of
        every epoch, carrying the epoch index.
    """
    X = check_finite(X, "X")
    Z = check_finite(Z, "Z")
    m, s = X.shape
    kdim = Z.shape[0]
    if Z.shape[1] != s:
        raise ValueError("X and Z must have the same number of columns")
    if config.batch_size > s:
        raise ValueError("batch_size exceeds the number of training columns")
    rng = np.random.default_rng(config.seed)
    d = config.hidden
    # updated in place; checked once per epoch
    weights = MLPParams(
        w1=rng.standard_normal((d, m)) * np.sqrt(2.0 / m),
        b1=np.zeros(d),
        w2=rng.standard_normal((kdim, d)) * np.sqrt(2.0 / d),
        b2=np.zeros(kdim),
    )
    mom = MLPParams(*(np.zeros_like(w) for w in weights))
    vel = MLPParams(*(np.zeros_like(w) for w in weights))
    t = 0

    def full_loss(p):
        # forward only, and not through net_forward, which tracers wrap
        with np.errstate(over="ignore", invalid="ignore"):
            return _loss(p, _embed(p, X, config.activation) - Z, config.ridge)

    losses = [full_loss(weights)]
    if not np.isfinite(losses[0]):
        raise TrainingDivergedError("non-finite loss before training", epoch=0)
    for epoch in range(config.epochs):
        order = rng.permutation(s)
        for start in range(0, s, config.batch_size):
            idx = order[start : start + config.batch_size]
            _, grads = net_loss_and_grad(
                weights, X[:, idx], Z[:, idx], config.ridge, config.activation
            )
            t += 1
            with np.errstate(over="ignore", invalid="ignore"):
                for w, mo, ve, g in zip(weights, mom, vel, grads):
                    mo *= ADAM_BETA1
                    mo += (1.0 - ADAM_BETA1) * g
                    ve *= ADAM_BETA2
                    ve += ((1.0 - ADAM_BETA2) * g) * g
                    mhat = mo / (1.0 - ADAM_BETA1**t)
                    vhat = ve / (1.0 - ADAM_BETA2**t)
                    w -= config.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        if not all(np.isfinite(w).all() for w in weights):
            raise TrainingDivergedError(f"non-finite parameters at epoch {epoch}", epoch=epoch)
        loss = full_loss(weights)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}", epoch=epoch)
        losses.append(loss)
    return weights, np.asarray(losses)


def landmark_cluster(
    X,
    k,
    space,
    n_landmarks,
    net_config,
    seed=0,
    mode="grid",
    budget_per_model=30,
    eps=1e-6,
    score="reg",
    threads=1,
):
    """Landmark search + learned embedding for datasets too large to search directly.

    The centers of one k-means run stand in as landmarks (re-normalized to
    unit columns, which the search pipeline expects): they summarise X for
    the search, so restarts that only lower the inertia are not worth their
    cost. The candidate search runs on the landmarks; the network learns
    landmark -> embedding, in batches of at most ``n_landmarks`` columns, and
    is applied to all of X; k-means on the result gives the final partition.

    Returns
    -------
    (Partition, SearchResult)
    """
    X = check_finite(X, "X")
    n = X.shape[1]
    if not (k + 1 <= n_landmarks < n):
        raise ValueError(f"need k + 1 <= n_landmarks < n (got {n_landmarks}, n={n})")
    if mode not in ("grid", "bo"):
        raise ValueError("mode must be 'grid' or 'bo'")
    landmarks = unit_columns(kmeans_centers(X, n_landmarks, seed=seed))
    if mode == "grid":
        result = grid_search(X=landmarks, k=k, space=space, eps=eps, seed=seed, score=score, threads=threads)
    else:
        result = bo_search(
            X=landmarks, k=k, space=space, budget_per_model=budget_per_model,
            seed=seed, eps=eps, score=score, threads=threads,
        )
    net_config = replace(net_config, batch_size=min(net_config.batch_size, n_landmarks))
    params, _ = net_train(landmarks, result.embedding, net_config)
    Z = net_forward(params, X, net_config.activation)
    partition = kmeans(Z, k, seed=seed)
    return partition, result
