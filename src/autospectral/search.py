"""Candidate search over affinity models and hyperparameters.

One search scores candidates through one pipeline (coefficients ->
truncated affinity -> Laplacian spectrum -> relative eigen-gap) and clusters
the best. Two drivers differ only in how they pick each model's candidates:
an exhaustive grid that reuses each coefficient matrix across the whole
truncation grid, and a Bayesian optimization loop (Matern-5/2 ARD Gaussian
process, expected-improvement acquisition) over bounded continuous/integer
ranges. Both run the models one after another, or with ``threads > 1``
concurrently, each model on its own n x n arrays.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lapack

from .affinity import (
    KERNEL_MODELS,
    LAMBDA_MODELS,
    MODEL_KERNEL_DIRECT,
    MODEL_KLSR,
    MODEL_LSR,
    MODELS,
    CandidateConfig,
    KernelSpec,
    build_coefficients,
    default_approx_rank,
    postprocess_affinity,
    rank_columns,
)
from .errors import DegenerateError, NumericalError, SearchFailedError
from .kmeans import Partition, kmeans
from .linalg import check_finite
from .spectra import check_eps, laplacian_spectrum, plain_eigen_gap, relative_eigen_gap, spectral_embedding

SCORE_KINDS = ("reg", "eg")


@dataclass(frozen=True)
class ModelSpec:
    """One affinity model family in the search space."""

    name: str
    kernel: KernelSpec | None = None

    def __post_init__(self):
        if self.name not in MODELS:
            raise ValueError(f"unknown model {self.name!r}")
        if self.name in KERNEL_MODELS and self.kernel is None:
            raise ValueError(f"model {self.name!r} requires a kernel")

    @property
    def uses_lambda(self):
        return self.name in LAMBDA_MODELS


@dataclass(frozen=True)
class SearchSpace:
    """Model list plus the hyperparameter grids of grid mode; BO searches
    the ranges of ``BO_BOUNDS``."""

    models: tuple[ModelSpec, ...]
    lambdas: tuple[float, ...] = (0.01, 0.1, 1.0)
    taus: tuple[int, ...] = tuple(range(5, 16))

    def __post_init__(self):
        if not self.models:
            raise ValueError("search space needs at least one model")
        if not self.lambdas or not self.taus:
            raise ValueError("grids must be nonempty")
        if any(not 0 < l < math.inf for l in self.lambdas) or any(t < 1 for t in self.taus):
            raise ValueError("invalid grid values: lambdas must be finite and positive, taus >= 1")


def default_search_space():
    """Default grid: ridge self-expression, its gaussian-kernel variant, and
    direct gaussian similarity; lambda in {0.01, 0.1, 1}, tau in 5..15."""
    return SearchSpace(
        models=(
            ModelSpec(MODEL_LSR),
            ModelSpec(MODEL_KLSR, KernelSpec("gaussian", xi=1.0)),
            ModelSpec(MODEL_KERNEL_DIRECT, KernelSpec("gaussian", xi=1.0)),
        )
    )


@dataclass(frozen=True)
class CandidateScore:
    """A scored candidate; reg is -inf (and spectrum None) when degenerate,
    and ``degenerate_reason`` then holds the DegenerateError message.

    ``evaluate_candidate`` returns the spectrum with its eigenvectors. In a
    search's scores only the winner keeps them; every other valid candidate
    keeps its sigmas and holds ``vectors=None``.
    """

    config: CandidateConfig
    reg: float
    spectrum: object = field(default=None, repr=False)
    degenerate_reason: str | None = None


def _degenerate(config, exc):
    return CandidateScore(config=config, reg=float("-inf"), degenerate_reason=str(exc))


@dataclass(frozen=True)
class SearchResult:
    """Every candidate's score, in model order and each model's evaluation
    order, and the clustered winner: its spectral embedding and partition.
    Of all the scores, only ``winner`` holds eigenvectors."""

    scores: list[CandidateScore]
    winner: CandidateScore
    embedding: np.ndarray = field(repr=False)
    partition: Partition


def _objective(score, kind):
    if score.spectrum is None:
        return float("-inf")
    if kind == "reg":
        return score.reg
    return plain_eigen_gap(score.spectrum)


# Largest point count a search runs on. Each candidate holds one n x n
# array at a time: kernel_matrix builds K in one array, klsr solves in place
# in it (its low-rank path frees K before the filter forms C), truncation
# reads C a block of 32 columns at a time and marks their kept entries.
# Under tracemalloc at n = 2000, evaluate_candidate and a one-model
# grid_search peaked at 1.04 n^2 * 8 bytes for lsr, exact klsr and
# kernel_direct, one n x n array and blocks of at most 32 n entries, and
# at 1.43 n^2 for low-rank klsr (approx_rank 200), set by randomized_eigh's
# n x 210 blocks beside K. At 10 000 points one array is 0.8 GB; the
# ceiling stays where five arrays (4.0 GB, half of an 8 GB host) put it
# until a memory test at a higher ceiling backs a change. Larger inputs go
# through the landmark path. With threads > 1, each model that runs
# concurrently holds its own such arrays.
SEARCH_MAX_N = 10_000


def check_point_count(n):
    """Reject a search on more than ``SEARCH_MAX_N`` points."""
    if n > SEARCH_MAX_N:
        raise ValueError(
            f"a search holds dense n x n arrays and takes at most {SEARCH_MAX_N} points "
            f"(got n={n}); search fewer points with --landmarks"
        )


def _checked_points(X, k):
    """X as finite float64, once its point count n is checked: k + 1 <= n
    <= SEARCH_MAX_N."""
    X = check_finite(X, "X")
    n = X.shape[1]
    if k + 1 > n:
        raise ValueError(f"need k + 1 <= n (k={k}, n={n})")
    check_point_count(n)
    return X


def _score(graph, config, k, seed, eps):
    """Score one candidate from its affinity graph ``graph()``; degeneracies
    map to reg = -inf, not exceptions."""
    try:
        spectrum = laplacian_spectrum(graph(), k, seed=seed)
    except DegenerateError as exc:
        return _degenerate(config, exc)
    return CandidateScore(config=config, reg=relative_eigen_gap(spectrum, eps), spectrum=spectrum)


def evaluate_candidate(X, k, config, seed=0, eps=1e-6):
    """Score one candidate; degeneracies map to reg = -inf, not exceptions."""
    X = _checked_points(X, k)

    def graph():
        # C is passed unnamed: as a callee owns its arguments from Python
        # 3.11, postprocess_affinity frees it before the graph is built
        return postprocess_affinity(build_coefficients(X, config, seed=seed), config.tau)

    return _score(graph, config, k, seed, eps)


def _score_taus(X, k, configs, seed, eps):
    """Yield the scores of the candidates ``configs``, which differ only in
    tau, from one coefficient matrix, whose columns are ranked once at the
    deepest tau. The matrix is passed unnamed to the ranking, which frees
    it before any tau is scored."""
    try:
        columns = rank_columns(build_coefficients(X, configs[0], seed=seed), max(c.tau for c in configs))
    except DegenerateError as exc:
        for config in configs:
            yield _degenerate(config, exc)
        return
    for config in configs:
        yield _score(lambda: postprocess_affinity(columns, config.tau), config, k, seed, eps)


def _released(score):
    """``score`` without its eigenvectors; its sigmas stay."""
    if score.spectrum is None or score.spectrum.vectors is None:
        return score
    return replace(score, spectrum=replace(score.spectrum, vectors=None))


class _Keeper:
    """One model's scores in evaluation order, with eigenvectors only on the
    model's best embeddable candidate so far (``best``, an index into
    ``scores``), whose objective and spectral embedding it holds.

    Embeddable means ``spectral_embedding`` does not raise. A candidate
    displaces the kept one only with a strictly higher objective, so ties
    keep the earliest; every other candidate is released as it arrives. A
    score that arrives released repeats an earlier candidate, and can top
    the kept objective only if that candidate was not embeddable.
    """

    def __init__(self, kind):
        self.kind = kind
        self.scores = []
        self.best = None
        self.objective = float("-inf")
        self.embedding = None

    def add(self, score):
        objective = _objective(score, self.kind)
        if objective > self.objective and score.spectrum.vectors is not None:
            try:
                Z = spectral_embedding(score.spectrum)
            except DegenerateError:
                pass
            else:
                if self.best is not None:
                    self.scores[self.best] = _released(self.scores[self.best])
                self.best, self.objective, self.embedding = len(self.scores), objective, Z
                self.scores.append(score)
                return
        self.scores.append(_released(score))


def check_search_options(score, eps, budget_per_model=None):
    """Reject a ``score`` kind or an ``eps`` that a search cannot use, or a
    BO ``budget_per_model`` that does not cover the initial design."""
    if score not in SCORE_KINDS:
        raise ValueError(f"score must be one of {SCORE_KINDS}")
    check_eps(eps)
    if budget_per_model is not None and budget_per_model < BO_INIT_DESIGN:
        raise ValueError(
            f"budget_per_model must cover the initial design of {BO_INIT_DESIGN} points "
            f"(got {budget_per_model})"
        )


def _search(X, k, models, seed, score, eps, threads, score_model, budget_per_model=None):
    """The frame both drivers share: check the options (BO's budget too) and
    the input, score each model's candidates with ``score_model(X, model,
    child, approx_rank, keep)`` on the model's own child of ``seed``,
    passing each CandidateScore to ``keep``, and cluster the winner.

    Each model gets its own ``_Keeper``, so ``threads > 1`` runs the models
    concurrently without sharing state or changing any result. The scores
    keep model order.
    """
    check_search_options(score, eps, budget_per_model)
    X = _checked_points(X, k)
    approx = default_approx_rank(X.shape[1], k)
    pairs = list(zip(models, np.random.SeedSequence(seed).spawn(len(models))))

    def run(pair):
        keeper = _Keeper(score)
        score_model(X, *pair, approx, keeper.add)
        return keeper

    if threads > 1 and len(pairs) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(pairs))) as pool:
            keepers = list(pool.map(run, pairs))
    else:
        keepers = [run(p) for p in pairs]
    return _finish(k, keepers, seed)


def _finish(k, keepers, seed):
    """Cluster the best of the models' kept candidates: the highest
    objective, and on ties the first model's, which has the lowest index.
    The other models' kept candidates release their eigenvectors."""
    scores = [s for keeper in keepers for s in keeper.scores]
    kept = [keeper for keeper in keepers if keeper.best is not None]
    if not kept:
        raise SearchFailedError(
            "every candidate was degenerate", candidates=[s.config for s in scores]
        )
    best = max(kept, key=lambda keeper: keeper.objective)
    winner = best.scores[best.best]
    partition = kmeans(best.embedding, k, seed=seed)
    return SearchResult(
        scores=[s if s is winner else _released(s) for s in scores],
        winner=winner,
        embedding=best.embedding,
        partition=partition,
    )


def grid_search(X, k, space, eps=1e-6, seed=0, score="reg", threads=1):
    """Evaluate the full (model, lambda, tau) grid and cluster the winner.

    The coefficient matrix is built once per (model, lambda), and its
    columns are ranked once (``rank_columns``): every tau takes its graph
    from that ranking. Models that take no ridge weight (the direct kernel
    similarity) are evaluated once per tau. Ties on the objective go to the
    first candidate in model -> lambda -> tau order.
    """

    def model_scores(X, model, child, approx, keep):
        for lam in space.lambdas if model.uses_lambda else (1.0,):
            configs = [
                CandidateConfig(model=model.name, tau=tau, lam=lam, kernel=model.kernel, approx_rank=approx)
                for tau in space.taus
            ]
            for cs in _score_taus(X, k, configs, seed, eps):
                keep(cs)

    return _search(X, k, space.models, seed, score, eps, threads, model_scores)


# ---------------------------------------------------------------------------
# Gaussian-process surrogate


def _matern52(r2, amplitude):
    """Overwrite the squared distances ``r2`` with the Matern-5/2 kernel
    amplitude (1 + sqrt(5 r2) + 5/3 r2) exp(-sqrt(5 r2)), rounded as that
    expression is, and return it."""
    root = np.multiply(r2, 5.0)
    np.sqrt(root, out=root)
    E = np.negative(root)
    np.exp(E, out=E)
    root += 1.0
    r2 *= 5.0 / 3.0
    r2 += root
    r2 *= amplitude
    r2 *= E
    return r2


# query columns per block of _matern_cross's difference tensor
_CROSS_BLOCK = 64


def _matern_cross(A, B, amplitude, lengthscales):
    """The Matern-5/2 kernel between the rows of A and those of B. The
    scaled differences, a len(A) x len(B) x d tensor, are formed for
    ``_CROSS_BLOCK`` rows of B at a time, and each block's squared
    distances are summed by its own einsum, which rounds each entry as one
    einsum over the whole tensor would."""
    ls = np.asarray(lengthscales, dtype=np.float64)
    r2 = np.empty((len(A), len(B)))
    for lo in range(0, len(B), _CROSS_BLOCK):
        diff = A[:, None, :] - B[None, lo : lo + _CROSS_BLOCK, :]
        diff /= ls
        np.einsum("ijk,ijk->ij", diff, diff, out=r2[:, lo : lo + _CROSS_BLOCK])
    return _matern52(r2, amplitude)


class _Posterior:
    """Factored Matern-5/2 ARD GP posterior for batched queries. The Gram
    matrix of the observations (rows of S) takes a diagonal jitter of 1e-8,
    ten times more after each failed factorization: NumericalError once 1e-2
    fails too. ``chol`` is the lower factor as ``cho_factor`` returns it;
    the LAPACK calls are the ones ``cho_factor`` and ``cho_solve`` make."""

    def __init__(self, S, y, amplitude, lengthscales, prior_mean):
        self.S, self.amplitude, self.lengthscales, self.prior_mean = S, amplitude, lengthscales, prior_mean
        G = _matern_cross(S, S, amplitude, lengthscales)
        jitter = 1e-8
        while True:
            K = np.array(G, order="F")
            K.flat[:: K.shape[0] + 1] += jitter
            c, info = lapack.dpotrf(K, lower=1, clean=0, overwrite_a=1)
            if info == 0:
                break
            if jitter >= 1e-2:
                raise NumericalError(
                    f"GP Gram factorization failed: {info}-th leading minor is not positive definite"
                )
            jitter *= 10.0
        self.chol = (c, True)
        self.alpha = self._solve(y - prior_mean)

    def _solve(self, b):
        return lapack.dpotrs(self.chol[0], b, lower=1)[0]

    def predict(self, Q, blocks=1):
        """Posterior mean and variance at the rows of Q.

        With ``blocks`` > 1, Q stacks that many equal-size blocks, and each
        block's mean comes from a product over its own kernel columns: one
        product over all of them rounds differently from a block alone. The
        kernel, the solve and the variance are the same for any stacking, so
        every block gets what predicting it alone would give, bit for bit.
        """
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        kstar = _matern_cross(self.S, Q, self.amplitude, self.lengthscales)
        size = len(Q) // blocks
        mu = self.prior_mean + np.concatenate(
            [kstar[:, lo : lo + size].T @ self.alpha for lo in range(0, len(Q), size)]
        )
        w = self._solve(kstar)
        var = np.maximum(self.amplitude - np.einsum("ij,ij->j", kstar, w), 0.0)
        return mu, var


def expected_improvement(mu, sigma, g_min):
    """EI for minimization, E[max(g_min - Y, 0)] with Y ~ N(mu, sigma^2).

    Elementwise over the 1-d arrays ``mu`` and ``sigma``; where sigma is 0
    the improvement is deterministic.
    """
    # imported here, not at the top: only BO computes EI, and scipy.stats,
    # which BO loads for its Sobol points, loads scipy.special anyway
    from scipy.special import ndtr

    def positive(gain, sigma):
        z = gain / sigma
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return np.maximum(gain * ndtr(z) + sigma * phi, 0.0)

    gain = g_min - mu
    pos = sigma > 0
    if pos.all():
        return positive(gain, sigma)
    out = np.maximum(gain, 0.0)
    out[pos] = positive(gain[pos], sigma[pos])
    return out


@functools.cache
def _sobol_unit_starts(d, n):
    """Fixed scrambled low-discrepancy start points in the unit box, cached."""
    # imported here, not at the top: scipy.stats is about half of the
    # package's import time, and only BO draws Sobol points
    from scipy.stats import qmc

    return qmc.Sobol(d, scramble=True, seed=0).random(n)


def _bordered_cholesky(M, r):
    """r'K^-1 r and log det K for a stack of Gram matrices K, from one
    Cholesky factorization each and no solve.

    ``M`` is a (B, t+1, t+1) stack whose [:t, :t] blocks hold the matrices
    K, each a positive semidefinite matrix plus 1e-8 on its diagonal, in
    their lower triangles: the factorization reads nothing else, so the
    strict upper triangle of ``M`` may hold anything. The call writes the
    border's last row in place, making each matrix [[K, r], [r', c]], and
    factors the stack. The jitter puts every eigenvalue of K at or above
    1e-8, so r'K^-1 r <= ||r||^2 / 1e-8 < c = 2 ||r||^2 / 1e-8 + 1: the
    Schur complement c - r'K^-1 r is positive, and a bordered matrix
    factors exactly when its K does. The factor's last row is z = L^-1 r,
    so r'K^-1 r = ||z||^2, and its first t diagonal entries give log det K.

    Returns
    -------
    (ok, quad, logdet) : the indices of the matrices that factor, and
    r'K^-1 r and log det K for each of them.
    """
    B, n1, _ = M.shape
    t = n1 - 1
    M[:, t, :t] = r
    M[:, t, t] = 2.0 * float(r @ r) / 1e-8 + 1.0
    try:
        L = np.linalg.cholesky(M)
        ok = np.arange(B)
    except np.linalg.LinAlgError:
        mats, ok = [], []
        for i in range(B):
            try:
                mats.append(np.linalg.cholesky(M[i]))
                ok.append(i)
            except np.linalg.LinAlgError:
                pass
        if not ok:
            return np.arange(0), np.empty(0), np.empty(0)
        L = np.stack(mats)
        ok = np.asarray(ok)
    z = L[:, t, :t]
    quad = np.einsum("bi,bi->b", z, z)
    # summed along rows of a C-ordered array, the same for any B: a fancy-indexed
    # diagonal comes out F-ordered, and its row sums then depend on the batch
    logdet = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)[:, :t]).sum(axis=1)
    return ok, quad, logdet


# float64 entries in one stacked bordered-Gram array of the GP fit. A scored
# batch holds at most two arrays of this size at once, the stack and its
# Cholesky factor; the packed lower triangles the stack is built from, about
# half this size each, are freed before it is factored. So the budget bounds
# the fit's memory: 2 * 128 KiB. From 21 observations on, a refinement batch
# of 4 starts' 9 candidates exceeds it and runs as two batches of 2 starts,
# each with its own fixed cost (0.2-0.5 ms more per fit); 2**15 took
# them in one batch and twice the memory
_LML_BUDGET = 2**14

# fixed start points every fit scores
_FIXED_STARTS = 16

# starts with the highest initial likelihood that run the coordinate search
_REFINED_STARTS = 4


def fit_gp_hyperparams(S, y, init=None):
    """Maximize the log marginal likelihood over (amplitude, length scales).

    Multi-start coordinate search. The starts are 16 fixed scrambled
    low-discrepancy points over log-scaled bounds [1e-3, 1e3] relative to
    the data scales, plus ``init=(amplitude, lengthscales)``, if given,
    clipped to those bounds as a 17th start: a warm start from an earlier
    optimum. Every start's initial likelihood is scored, and the
    ``_REFINED_STARTS`` highest (the first in start order on ties) run the
    search: in each of two sweeps, each length scale moves on a
    multiplicative grid while the amplitude step uses its exact
    per-configuration optimum, clipped to the same bounds. The likelihood
    is Rasmussen & Williams' Cholesky form (Alg. 2.1): one Cholesky factor
    of the Gram matrix K bordered by the centred targets r gives both
    log det K and r'K^-1 r, with no separate solve. The starts advance in
    lockstep: the initial values of all starts, and for each (sweep,
    dimension) the candidate grids of all active starts, are factored
    together, in chunks of whole starts whose stacked bordered matrices
    hold at most ``_LML_BUDGET`` entries. Only the lower triangles, which
    the Cholesky factorization reads, are filled: squared distances and
    the Matern transform run on the t(t+1)/2 entries of each packed lower
    triangle, and the packed arrays are freed before the stack is factored.
    A start that moved in no dimension during a sweep would repeat that
    sweep exactly, so it drops out of later sweeps. Every refined start ends
    where its own coordinate search would, bit for bit; the best scored
    start wins, the first on ties, so the fit never ends below the initial
    value of any start. Deterministic given the observations and ``init``.

    Returns
    -------
    (amplitude, lengthscales)
    """
    S = np.atleast_2d(np.asarray(S, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    t, d = S.shape
    if t < 2:
        raise ValueError("need at least two observations")
    ptp = np.ptp(S, axis=0)
    ls_default = np.where(ptp > 0, np.maximum(ptp / 2.0, 1e-12), 1.0)
    if np.ptp(y) == 0.0:
        return 1.0, ls_default

    mean = float(np.mean(y))
    r = y - mean
    amp_scale = max(float(np.var(y)), 1e-12)
    ls_scale = np.where(ptp > 0, ptp, 1.0)
    amp_lo, amp_hi = amp_scale * 1e-3, amp_scale * 1e3
    ls_lo, ls_hi = ls_scale * 1e-3, ls_scale * 1e3

    # per-dimension squared distances over the lower triangle, packed row by
    # row and shared by every likelihood evaluation; ``flat`` places packed
    # entries in a flattened (t+1, t+1) bordered matrix
    il, jl = np.tril_indices(t)
    D2p = np.stack([(S[il, j] - S[jl, j]) ** 2 for j in range(d)])
    const = -0.5 * t * math.log(2.0 * math.pi)
    n1 = t + 1
    flat = il * n1 + jl

    def gram_stack(P):
        """A (B, t+1, t+1) stack whose [:t, :t] blocks take, in their lower
        triangles, the Matern-5/2 Gram matrices of the packed (B, t(t+1)/2)
        r^2 in ``P`` plus 1e-8 on the diagonal; overwrites ``P``. Nothing
        else of the stack is set."""
        B = len(P)
        # unit amplitude; the transform's temporaries are freed before the
        # stack is allocated
        _matern52(P, 1.0)
        M = np.empty((B, n1, n1))
        M.reshape(B, n1 * n1)[:, flat] = P
        M.reshape(B, n1 * n1)[:, : t * (n1 + 1) : n1 + 1] += 1e-8
        return M

    def candidate_r2(idx, j, cand):
        """Packed r^2 of every start in ``idx`` with its length scale j set
        to each of its candidates, one row per (start, candidate)."""
        inv = 1.0 / ls[idx] ** 2
        other = np.einsum("sd,dp->sp", inv, D2p)
        other -= inv[:, j, None] * D2p[j]
        r2 = np.divide(D2p[j], cand[:, :, None] ** 2)
        r2 += other[:, None]
        return r2.reshape(-1, len(flat))

    def lml_batch(M, amps):
        """Log marginal likelihood of each matrix of a ``gram_stack``;
        overwrites the stack, and writes the optimal amplitude into
        ``amps`` wherever the Gram matrix factors."""
        ok, quad0, logdet0 = _bordered_cholesky(M, r)
        out = np.full(len(M), -np.inf)
        a = np.clip(quad0 / t, amp_lo, amp_hi)
        amps[ok] = a
        out[ok] = -0.5 * quad0 / a - 0.5 * (logdet0 + t * np.log(a)) + const
        return out

    log_lo = np.log(np.concatenate([[amp_lo], ls_lo]))
    log_hi = np.log(np.concatenate([[amp_hi], ls_hi]))
    starts = np.exp(log_lo + _sobol_unit_starts(d + 1, _FIXED_STARTS) * (log_hi - log_lo))
    if init is not None:
        warm = np.concatenate([[np.clip(init[0], amp_lo, amp_hi)], np.clip(init[1], ls_lo, ls_hi)])
        starts = np.vstack([starts, warm])
    n_starts = len(starts)
    amp = starts[:, 0].copy()
    ls = starts[:, 1:].copy()
    val = np.empty(n_starts)
    per = max(1, _LML_BUDGET // (n1 * n1))
    # packed arrays and stacks are passed, never named, so each is freed as
    # soon as the call that takes it returns: the packed r^2 before its stack
    # is factored, and a factored stack before the next batch is built
    for lo in range(0, n_starts, per):
        part = slice(lo, lo + per)
        val[part] = lml_batch(gram_stack(np.einsum("sd,dp->sp", 1.0 / ls[part] ** 2, D2p)), amp[part])

    factors = np.exp(np.linspace(-math.log(8.0), math.log(8.0), 9))
    per = max(1, _LML_BUDGET // (len(factors) * n1 * n1))
    active = np.argsort(-val, kind="stable")[:_REFINED_STARTS]
    for _ in range(2):
        moved = np.zeros(n_starts, dtype=bool)
        for j in range(d):
            for lo in range(0, len(active), per):
                idx = active[lo : lo + per]
                cand = np.clip(ls[idx, j][:, None] * factors, ls_lo[j], ls_hi[j])
                amps = np.repeat(amp[idx], len(factors))
                vals = lml_batch(gram_stack(candidate_r2(idx, j, cand)), amps).reshape(len(idx), -1)
                # each start's own first argmax, taken only if it improves
                best = (np.arange(len(idx)), np.argmax(vals, axis=1))
                up = vals[best] > val[idx]
                won = idx[up]
                val[won] = vals[best][up]
                ls[won, j] = cand[best][up]
                amp[won] = amps.reshape(len(idx), -1)[best][up]
                moved[won] = True
        active = np.flatnonzero(moved)
        if not len(active):
            break

    best = int(np.argmax(val))
    if not np.isfinite(val[best]):
        return 1.0, ls_default
    return float(amp[best]), ls[best]


# ---------------------------------------------------------------------------
# Bayesian-optimization driver


# the range BO searches for each hyperparameter it tunes
BO_BOUNDS = {"lam": (1e-3, 1.0), "xi": (0.5, 5.0), "tau": (5, 50)}


def bo_dimensions(model):
    """(name, low, high, is_integer) per tunable hyperparameter of a model:
    lambda if the model takes it, the bandwidth xi of a gaussian kernel, and
    tau. A polynomial kernel keeps its offset and degree, as in grid search."""
    names = ["lam"] if model.uses_lambda else []
    if model.kernel is not None and model.kernel.kind == "gaussian":
        names.append("xi")
    names.append("tau")
    return [(name, *BO_BOUNDS[name], name == "tau") for name in names]


def _config_from_values(model, dims, values, n, approx):
    named = {}
    for (name, lo, hi, is_int), v in zip(dims, values):
        v = min(max(v, lo), hi)
        named[name] = int(round(v)) if is_int else float(v)
    kernel = replace(model.kernel, xi=named["xi"]) if "xi" in named else model.kernel
    tau = min(named["tau"], n - 1)
    return CandidateConfig(
        model=model.name, tau=tau, lam=named.get("lam", 1.0), kernel=kernel, approx_rank=approx
    )


def _maximize_ei(post, g_min, sobol):
    """The EI maximizer over the unit box: the best of 256 low-discrepancy
    points, refined by coordinate search from the 4 best.

    Each chain tries all 2d coordinate moves of its current step, takes the
    first best if it improves EI and otherwise quarters the step, until the
    step falls below 1e-3 or 24 rounds pass. The chains advance in lockstep:
    a round scores the moves of every live chain in one posterior query,
    with each chain's mean from its own block. The first chain with the
    highest EI wins.
    """
    cand = sobol.random(256)
    mu, var = post.predict(cand)
    ei = expected_improvement(mu, np.sqrt(var), g_min)
    order = np.argsort(-ei)[:4]
    d = cand.shape[1]

    u = cand[order]
    e = ei[order]
    step = np.full(len(order), 0.1)
    # row 2j of a chain's block moves coordinate j down a step, row 2j+1 up
    moves = np.arange(2 * d)
    coords = moves // 2
    signs = np.where(moves % 2, 1.0, -1.0)
    for _ in range(24):
        live = np.flatnonzero(step >= 1e-3)
        if not len(live):
            break
        u_live = u[live]
        trials = np.repeat(u_live, 2 * d, axis=0).reshape(len(live), 2 * d, d)
        shift = signs[None, :] * step[live, None]
        trials[:, moves, coords] = np.clip(u_live[:, coords] + shift, 0.0, 1.0)
        m, v = post.predict(trials.reshape(-1, d), blocks=len(live))
        e_trials = expected_improvement(m, np.sqrt(v), g_min).reshape(len(live), 2 * d)
        i_best = np.argmax(e_trials, axis=1)
        e_best = e_trials[np.arange(len(live)), i_best]
        up = e_best > e[live] + 1e-18
        u[live[up]] = trials[up, i_best[up]]
        e[live[up]] = e_best[up]
        step[live[~up]] /= 4.0

    return u[int(np.argmax(e))].copy()


# low-discrepancy points each model evaluates before its first GP fit
BO_INIT_DESIGN = 8


def _bo_one_model(X, k, model, budget_per_model, child, seed, eps, score, approx, keep):
    """Sequential BO loop for one model; passes each CandidateScore to
    ``keep`` as it is evaluated.

    Each step refits the GP hyperparameters to all evaluations so far.
    Every fit after the model's first also scores the previous fit's optimum
    as a warm start, beside the fixed starts that every fit scores.

    A proposal that rounds to a config the model has already scored is not
    evaluated again: evaluation is deterministic given the config, so the
    earlier score, released of its eigenvectors, is passed on and its
    objective goes to the GP.
    """
    n = X.shape[1]
    dims = bo_dimensions(model)
    lo = np.array([d[1] for d in dims], dtype=np.float64)
    hi = np.array([d[2] for d in dims], dtype=np.float64)
    from scipy.stats import qmc

    sobol = qmc.Sobol(len(dims), scramble=True, seed=np.random.default_rng(child))

    U = []
    g_gp = []
    scored = {}

    def evaluate(u):
        values = lo + np.asarray(u) * (hi - lo)
        config = _config_from_values(model, dims, values, n, approx)
        cs = scored.get(config)
        if cs is None:
            cs = evaluate_candidate(X, k, config, seed=seed, eps=eps)
            scored[config] = _released(cs)
        g = -_objective(cs, score)
        keep(cs)
        if not np.isfinite(g):
            # degenerate: a penalized finite value keeps the GP usable
            finite = [v for v in g_gp if np.isfinite(v)]
            g = (max(finite) + 1.0) if finite else 0.0
        U.append(np.asarray(u, dtype=np.float64))
        g_gp.append(float(g))

    for u in sobol.random(BO_INIT_DESIGN):
        evaluate(u)
    fitted = None
    while len(U) < budget_per_model:
        S = np.vstack(U)
        yv = np.asarray(g_gp)
        fitted = fit_gp_hyperparams(S, yv, init=fitted)
        amplitude, lengthscales = fitted
        post = _Posterior(S, yv, amplitude, lengthscales, float(np.mean(yv)))
        u_next = _maximize_ei(post, float(np.min(yv)), sobol)
        evaluate(u_next)


def bo_search(X, k, space, budget_per_model=30, seed=0, eps=1e-6, score="reg", threads=1):
    """Per-model Bayesian optimization of -reg, then the across-model best.

    Each model runs independently: a scrambled low-discrepancy initial design
    of ``BO_INIT_DESIGN`` points, then fit-GP / maximize-EI / evaluate cycles
    up to ``budget_per_model`` evaluations over the ranges of ``BO_BOUNDS``.
    Integer hyperparameters relax to continuous values and round at
    evaluation time. Deterministic given seed.
    """

    def model_scores(X, model, child, approx, keep):
        _bo_one_model(X, k, model, budget_per_model, child, seed, eps, score, approx, keep)

    return _search(X, k, space.models, seed, score, eps, threads, model_scores, budget_per_model)
