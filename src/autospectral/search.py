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
import scipy.linalg

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
    column_thresholds,
    default_approx_rank,
    postprocess_affinity,
)
from .errors import DegenerateError, NumericalError, SearchFailedError
from .kmeans import Partition, kmeans
from .linalg import check_finite
from .spectra import laplacian_spectrum, plain_eigen_gap, relative_eigen_gap, spectral_embedding

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
        if any(l <= 0 for l in self.lambdas) or any(t < 1 for t in self.taus):
            raise ValueError("invalid grid values")


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
    and ``degenerate_reason`` then holds the DegenerateError message."""

    config: CandidateConfig
    reg: float
    spectrum: object = field(default=None, repr=False)
    degenerate_reason: str | None = None


def _degenerate(config, exc):
    return CandidateScore(config=config, reg=float("-inf"), degenerate_reason=str(exc))


@dataclass(frozen=True)
class SearchResult:
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


# Largest point count a search runs on. A candidate holds up to five dense
# n x n float64 arrays at once: under tracemalloc at n = 2000,
# evaluate_candidate peaked at 3.1 n^2 * 8 bytes (lsr, kernel_direct) and
# 5.0 (klsr, whose eigendecomposition holds the most, and so sets the
# ceiling), and a one-model lsr grid_search at 3.0. At 10 000 points five
# arrays are about 4.0 GB, half of an 8 GB host; larger inputs go through
# the landmark path. With threads > 1, each model that runs concurrently
# holds its own such arrays.
SEARCH_MAX_N = 10_000


def _checked_points(X, k):
    """X as finite float64, once its point count n is checked: k + 1 <= n
    <= SEARCH_MAX_N."""
    X = check_finite(X, "X")
    n = X.shape[1]
    if k + 1 > n:
        raise ValueError(f"need k + 1 <= n (k={k}, n={n})")
    if n > SEARCH_MAX_N:
        raise ValueError(
            f"a search holds dense n x n arrays and takes at most {SEARCH_MAX_N} points "
            f"(got n={n}); search fewer points with --landmarks"
        )
    return X


def _score(C, config, k, seed, eps):
    """Score one candidate from its coefficient matrix, or from that
    matrix's ``column_thresholds`` for a list of levels holding
    ``config.tau``; degeneracies map to reg = -inf, not exceptions."""
    try:
        spectrum = laplacian_spectrum(postprocess_affinity(C, config.tau), k, seed=seed)
    except DegenerateError as exc:
        return _degenerate(config, exc)
    return CandidateScore(config=config, reg=relative_eigen_gap(spectrum, eps), spectrum=spectrum)


def evaluate_candidate(X, k, config, seed=0, eps=1e-6):
    """Score one candidate; degeneracies map to reg = -inf, not exceptions."""
    X = _checked_points(X, k)
    try:
        C = build_coefficients(X, config, seed=seed)
    except DegenerateError as exc:
        return _degenerate(config, exc)
    return _score(C, config, k, seed, eps)


def _score_taus(X, k, configs, seed, eps):
    """Score the candidates ``configs``, which differ only in tau, from one
    coefficient matrix and one partition of its columns for every tau. The
    matrix is freed before any tau is scored."""
    try:
        columns = column_thresholds(build_coefficients(X, configs[0], seed=seed), [c.tau for c in configs])
    except DegenerateError as exc:
        return [_degenerate(config, exc) for config in configs]
    return [_score(columns, config, k, seed, eps) for config in configs]


def _search(X, k, models, seed, score, threads, score_model):
    """The frame both drivers share: check the input, score each model's
    candidates with ``score_model(X, model, child, approx_rank)``, which gets
    the model's own child of ``seed``, and cluster the winner.

    The models are self-contained, so ``threads > 1`` runs them concurrently
    without changing any result. The scores keep model order.
    """
    if score not in SCORE_KINDS:
        raise ValueError(f"score must be one of {SCORE_KINDS}")
    X = _checked_points(X, k)
    approx = default_approx_rank(X.shape[1], k)
    pairs = list(zip(models, np.random.SeedSequence(seed).spawn(len(models))))

    def run(pair):
        return score_model(X, *pair, approx)

    if threads > 1 and len(pairs) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(pairs))) as pool:
            per_model = list(pool.map(run, pairs))
    else:
        per_model = [run(p) for p in pairs]
    return _finish(X, k, [s for scores in per_model for s in scores], seed, score)


def _finish(X, k, scores, seed, kind):
    order = sorted(range(len(scores)), key=lambda i: (-_objective(scores[i], kind), i))
    for i in order:
        winner = scores[i]
        if winner.spectrum is None:
            break
        try:
            Z = spectral_embedding(winner.spectrum)
        except DegenerateError:
            continue
        partition = kmeans(Z, k, seed=seed)
        return SearchResult(scores=scores, winner=winner, embedding=Z, partition=partition)
    raise SearchFailedError(
        "every candidate was degenerate", candidates=[s.config for s in scores]
    )


def grid_search(X, k, space, eps=1e-6, seed=0, score="reg", threads=1):
    """Evaluate the full (model, lambda, tau) grid and cluster the winner.

    The coefficient matrix is built once per (model, lambda), and one
    partition of its columns (``column_thresholds``) gives every tau its
    per-column threshold. Models that take no ridge weight (the direct kernel
    similarity) are evaluated once per tau. Ties on the objective go to the
    first candidate in model -> lambda -> tau order.
    """

    def model_scores(X, model, child, approx):
        scores = []
        for lam in space.lambdas if model.uses_lambda else (1.0,):
            configs = [
                CandidateConfig(model=model.name, tau=tau, lam=lam, kernel=model.kernel, approx_rank=approx)
                for tau in space.taus
            ]
            scores.extend(_score_taus(X, k, configs, seed, eps))
        return scores

    return _search(X, k, space.models, seed, score, threads, model_scores)


# ---------------------------------------------------------------------------
# Gaussian-process surrogate


def _matern_cross(A, B, amplitude, lengthscales):
    ls = np.asarray(lengthscales, dtype=np.float64)
    diff = (A[:, None, :] - B[None, :, :]) / ls
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    sq5r = np.sqrt(5.0 * r2)
    return amplitude * (1.0 + sq5r + (5.0 / 3.0) * r2) * np.exp(-sq5r)


class _Posterior:
    """Factored Matern-5/2 ARD GP posterior for batched queries. The Gram
    matrix of the observations (rows of S) takes a diagonal jitter of 1e-8,
    ten times more after each failed factorization: NumericalError once 1e-2
    fails too."""

    def __init__(self, S, y, amplitude, lengthscales, prior_mean):
        self.S, self.amplitude, self.lengthscales, self.prior_mean = S, amplitude, lengthscales, prior_mean
        jitter = 1e-8
        while True:
            K = _matern_cross(S, S, amplitude, lengthscales)
            K.flat[:: K.shape[0] + 1] += jitter
            try:
                self.chol = scipy.linalg.cho_factor(K, lower=True, check_finite=False)
                break
            except np.linalg.LinAlgError as exc:
                if jitter >= 1e-2:
                    raise NumericalError(f"GP Gram factorization failed: {exc}") from exc
                jitter *= 10.0
        self.alpha = scipy.linalg.cho_solve(self.chol, y - prior_mean, check_finite=False)

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
        w = scipy.linalg.cho_solve(self.chol, kstar, check_finite=False)
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

    out = np.maximum(g_min - mu, 0.0)
    pos = sigma > 0
    z = (g_min - mu[pos]) / sigma[pos]
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    out[pos] = np.maximum((g_min - mu[pos]) * ndtr(z) + sigma[pos] * phi, 0.0)
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
    K, each a positive semidefinite matrix plus 1e-8 on its diagonal. The
    call borders them in place as [[K, r], [r', c]] and factors the stack.
    The jitter puts every eigenvalue of K at or above 1e-8, so
    r'K^-1 r <= ||r||^2 / 1e-8 < c = 2 ||r||^2 / 1e-8 + 1: the Schur
    complement c - r'K^-1 r is positive, and a bordered matrix factors
    exactly when its K does. The factor's last row is z = L^-1 r, so
    r'K^-1 r = ||z||^2, and its first t diagonal entries give log det K.

    Returns
    -------
    (ok, quad, logdet) : the indices of the matrices that factor, and
    r'K^-1 r and log det K for each of them.
    """
    B, n1, _ = M.shape
    t = n1 - 1
    M[:, t, :t] = r
    M[:, :t, t] = r
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


# float64 entries in one stacked bordered-Gram array of the GP fit; a scored
# batch holds a few arrays of this size, so the budget bounds the fit's memory
_LML_BUDGET = 2**15

# the fit scores starts from this fixed set; ``n_starts`` takes its first points
_MAX_STARTS = 16


def fit_gp_hyperparams(S, y, n_starts=_MAX_STARTS, init=None):
    """Maximize the log marginal likelihood over (amplitude, length scales).

    Multi-start coordinate search: the starts are the first ``n_starts`` of
    16 fixed scrambled low-discrepancy points over log-scaled bounds
    [1e-3, 1e3] relative to the data scales. ``init=(amplitude,
    lengthscales)``, clipped to those bounds, replaces the last start: a
    warm start from an earlier optimum. In each of two sweeps, each length
    scale moves on a multiplicative grid while the amplitude step uses its
    exact per-configuration optimum, clipped to the same bounds. The likelihood
    is Rasmussen & Williams' Cholesky form (Alg. 2.1): one Cholesky factor
    of the Gram matrix K bordered by the centred targets r gives both
    log det K and r'K^-1 r, with no separate solve. The starts advance in
    lockstep: the initial values of all starts, and for each (sweep,
    dimension) the candidate grids of all active starts, are factored
    together, in chunks of whole starts whose stacked bordered matrices
    hold at most ``_LML_BUDGET`` entries. A start that moved in no dimension
    during a sweep would repeat that sweep exactly, so it drops out of later
    sweeps. Every start ends where its own coordinate search would, bit for
    bit; the best start wins, the first on ties. Deterministic given the
    observations and ``init``.

    Returns
    -------
    (amplitude, lengthscales)
    """
    S = np.atleast_2d(np.asarray(S, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    t, d = S.shape
    if t < 2:
        raise ValueError("need at least two observations")
    if not 1 <= n_starts <= _MAX_STARTS:
        raise ValueError(f"n_starts must be in 1..{_MAX_STARTS}")
    ls_default = np.array([max(np.ptp(S[:, j]) / 2.0, 1e-12) for j in range(d)])
    ls_default[np.ptp(S, axis=0) == 0] = 1.0
    if np.ptp(y) == 0.0:
        return 1.0, ls_default

    mean = float(np.mean(y))
    r = y - mean
    amp_scale = max(float(np.var(y)), 1e-12)
    ls_scale = np.where(np.ptp(S, axis=0) > 0, np.ptp(S, axis=0), 1.0)
    amp_lo, amp_hi = amp_scale * 1e-3, amp_scale * 1e3
    ls_lo, ls_hi = ls_scale * 1e-3, ls_scale * 1e3

    # per-dimension squared distances, shared by every likelihood evaluation
    D2 = np.stack([(S[:, j, None] - S[None, :, j]) ** 2 for j in range(d)])
    const = -0.5 * t * math.log(2.0 * math.pi)
    n1 = t + 1

    def bordered(*shape):
        """A stack of (t+1, t+1) matrices and its [:t, :t] blocks, which
        take r^2."""
        M = np.empty(shape + (n1, n1))
        return M, M[..., :t, :t]

    def lml_batch(M, amps):
        """Log marginal likelihood of each matrix of a (B, t+1, t+1) stack
        whose [:t, :t] blocks hold r^2; overwrites the stack, and writes the
        optimal amplitude into ``amps`` wherever the Gram matrix factors."""
        B = len(M)
        K = M[:, :t, :t]
        # Matern-5/2, (1 + sqrt(5 r2) + 5/3 r2) exp(-sqrt(5 r2)), in place
        Q = np.multiply(K, 5.0)
        np.sqrt(Q, out=Q)
        E = np.negative(Q)
        np.exp(E, out=E)
        Q += 1.0
        K *= 5.0 / 3.0
        K += Q
        K *= E
        del Q, E
        M.reshape(B, n1 * n1)[:, : t * (n1 + 1) : n1 + 1] += 1e-8
        ok, quad0, logdet0 = _bordered_cholesky(M, r)
        out = np.full(B, -np.inf)
        a = np.clip(quad0 / t, amp_lo, amp_hi)
        amps[ok] = a
        out[ok] = -0.5 * quad0 / a - 0.5 * (logdet0 + t * np.log(a)) + const
        return out

    log_lo = np.log(np.concatenate([[amp_lo], ls_lo]))
    log_hi = np.log(np.concatenate([[amp_hi], ls_hi]))
    unit = _sobol_unit_starts(d + 1, _MAX_STARTS)[:n_starts]
    starts = np.exp(log_lo + unit * (log_hi - log_lo))
    if init is not None:
        starts[-1, 0] = np.clip(init[0], amp_lo, amp_hi)
        starts[-1, 1:] = np.clip(init[1], ls_lo, ls_hi)
    amp = starts[:, 0].copy()
    ls = starts[:, 1:].copy()
    val = np.empty(n_starts)
    per = max(1, _LML_BUDGET // (n1 * n1))
    for lo in range(0, n_starts, per):
        part = slice(lo, lo + per)
        M, r2 = bordered(len(amp[part]))
        np.einsum("sd,dij->sij", 1.0 / ls[part] ** 2, D2, out=r2)
        val[part] = lml_batch(M, amp[part])

    factors = np.exp(np.linspace(-math.log(8.0), math.log(8.0), 9))
    per = max(1, _LML_BUDGET // (len(factors) * n1 * n1))
    active = np.arange(n_starts)
    for _ in range(2):
        moved = np.zeros(n_starts, dtype=bool)
        for j in range(d):
            for lo in range(0, len(active), per):
                idx = active[lo : lo + per]
                inv = 1.0 / ls[idx] ** 2
                other = np.einsum("sd,dij->sij", inv, D2)
                other -= inv[:, j, None, None] * D2[j]
                cand = np.clip(ls[idx, j][:, None] * factors, ls_lo[j], ls_hi[j])
                M, r2 = bordered(len(idx), len(factors))
                np.divide(D2[j], cand[:, :, None, None] ** 2, out=r2)
                r2 += other[:, None]
                amps = np.repeat(amp[idx], len(factors))
                vals = lml_batch(M.reshape(-1, n1, n1), amps).reshape(len(idx), -1)
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
    moves = np.arange(2 * d)
    for _ in range(24):
        live = np.flatnonzero(step >= 1e-3)
        if not len(live):
            break
        # row 2j of a chain's block moves coordinate j down a step, row 2j+1 up
        trials = np.repeat(u[live], 2 * d, axis=0).reshape(len(live), 2 * d, d)
        shift = np.where(moves % 2, 1.0, -1.0)[None, :] * step[live, None]
        trials[:, moves, moves // 2] = np.clip(u[live][:, moves // 2] + shift, 0.0, 1.0)
        m, v = post.predict(trials.reshape(-1, d), blocks=len(live))
        e_trials = expected_improvement(m, np.sqrt(v), g_min).reshape(len(live), 2 * d)
        i_best = np.argmax(e_trials, axis=1)
        e_best = e_trials[np.arange(len(live)), i_best]
        up = e_best > e[live] + 1e-18
        u[live[up]] = trials[up, i_best[up]]
        e[live[up]] = e_best[up]
        step[live[~up]] /= 4.0

    best_u, best_e = cand[order[0]], float(ei[order[0]])
    for c in range(len(order)):
        if e[c] > best_e:
            best_u, best_e = u[c], float(e[c])
    return best_u.copy()


# starts of every GP fit after a model's first: the previous optimum plus
# the first three fixed starts
_WARM_STARTS = 4

# low-discrepancy points each model evaluates before its first GP fit
BO_INIT_DESIGN = 8


def _bo_one_model(X, k, model, budget_per_model, child, seed, eps, score, approx):
    """Sequential BO loop for one model; returns its CandidateScores in
    evaluation order.

    Each step refits the GP hyperparameters to all evaluations so far. The
    model's first fit scores all 16 fixed starts; every later fit scores
    ``_WARM_STARTS``: the first three fixed starts plus the previous fit's
    optimum as a warm start.
    """
    n = X.shape[1]
    dims = bo_dimensions(model)
    lo = np.array([d[1] for d in dims], dtype=np.float64)
    hi = np.array([d[2] for d in dims], dtype=np.float64)
    from scipy.stats import qmc

    sobol = qmc.Sobol(len(dims), scramble=True, seed=np.random.default_rng(child))

    scores = []
    U = []
    g_gp = []

    def evaluate(u):
        values = lo + np.asarray(u) * (hi - lo)
        config = _config_from_values(model, dims, values, n, approx)
        cs = evaluate_candidate(X, k, config, seed=seed, eps=eps)
        scores.append(cs)
        g = -_objective(cs, score)
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
        if fitted is None:
            fitted = fit_gp_hyperparams(S, yv)
        else:
            fitted = fit_gp_hyperparams(S, yv, n_starts=_WARM_STARTS, init=fitted)
        amplitude, lengthscales = fitted
        post = _Posterior(S, yv, amplitude, lengthscales, float(np.mean(yv)))
        u_next = _maximize_ei(post, float(np.min(yv)), sobol)
        evaluate(u_next)
    return scores


def bo_search(X, k, space, budget_per_model=30, seed=0, eps=1e-6, score="reg", threads=1):
    """Per-model Bayesian optimization of -reg, then the across-model best.

    Each model runs independently: a scrambled low-discrepancy initial design
    of ``BO_INIT_DESIGN`` points, then fit-GP / maximize-EI / evaluate cycles
    up to ``budget_per_model`` evaluations over the ranges of ``BO_BOUNDS``.
    Integer hyperparameters relax to continuous values and round at
    evaluation time. Deterministic given seed.
    """
    if budget_per_model < BO_INIT_DESIGN:
        raise ValueError(
            f"budget_per_model must cover the initial design of {BO_INIT_DESIGN} points "
            f"(got {budget_per_model})"
        )

    def model_scores(X, model, child, approx):
        return _bo_one_model(X, k, model, budget_per_model, child, seed, eps, score, approx)

    return _search(X, k, space.models, seed, score, threads, model_scores)
