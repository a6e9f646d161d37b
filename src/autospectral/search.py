"""Candidate search over affinity models and hyperparameters.

Two drivers share the same scoring pipeline (coefficients -> truncated
affinity -> Laplacian spectrum -> relative eigen-gap): an exhaustive grid
that reuses each coefficient matrix across the whole truncation grid, and a
per-model Bayesian optimization loop (Matern-5/2 ARD Gaussian process,
expected-improvement acquisition) over bounded continuous/integer ranges.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
from scipy.special import ndtr

from .affinity import (
    MODEL_KERNEL_DIRECT,
    MODEL_KLSR,
    MODEL_LSR,
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
from .spectra import laplacian_spectrum, plain_eigen_gap, relative_eigen_gap, spectral_embedding

SCORE_KINDS = ("reg", "eg")


@dataclass(frozen=True)
class ModelSpec:
    """One affinity model family in the search space."""

    name: str
    kernel: KernelSpec | None = None

    def __post_init__(self):
        if self.name not in (MODEL_LSR, MODEL_KLSR, MODEL_KERNEL_DIRECT):
            raise ValueError(f"unknown model {self.name!r}")
        if self.name != MODEL_LSR and self.kernel is None:
            raise ValueError(f"model {self.name!r} requires a kernel")

    @property
    def uses_lambda(self):
        return self.name in (MODEL_LSR, MODEL_KLSR)


@dataclass(frozen=True)
class SearchSpace:
    """Model list plus hyperparameter grids (grid mode) and bounds (BO mode)."""

    models: tuple[ModelSpec, ...]
    lambdas: tuple[float, ...] = (0.01, 0.1, 1.0)
    taus: tuple[int, ...] = tuple(range(5, 16))
    lambda_bounds: tuple[float, float] = (1e-3, 1.0)
    tau_bounds: tuple[int, int] = (5, 50)
    offset_bounds: tuple[float, float] = (0.0, 1e3)
    degree_bounds: tuple[int, int] = (1, 5)
    xi_bounds: tuple[float, float] = (0.5, 5.0)

    def __post_init__(self):
        if not self.models:
            raise ValueError("search space needs at least one model")
        if not self.lambdas or not self.taus:
            raise ValueError("grids must be nonempty")
        if any(l <= 0 for l in self.lambdas) or any(t < 1 for t in self.taus):
            raise ValueError("invalid grid values")
        for lo, hi in (
            self.lambda_bounds,
            self.tau_bounds,
            self.offset_bounds,
            self.degree_bounds,
            self.xi_bounds,
        ):
            if lo > hi:
                raise ValueError("bounds must satisfy min <= max")


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


# Largest point count a search runs on. A candidate holds about five dense
# n x n float64 arrays at once: under tracemalloc at n = 2000,
# evaluate_candidate peaked at 4.2-5.0 n^2 * 8 bytes and a one-model
# grid_search at 5.2. At 10 000 points that is about 4.2 GB, half of an
# 8 GB host; larger inputs go through the landmark path.
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


def evaluate_candidate(X, k, config, seed=0, eps=1e-6):
    """Score one candidate; degeneracies map to reg = -inf, not exceptions."""
    X = _checked_points(X, k)
    try:
        C = build_coefficients(X, config, seed=seed)
        graph = postprocess_affinity(C, config.tau)
        spectrum = laplacian_spectrum(graph, k, seed=seed)
    except DegenerateError as exc:
        return _degenerate(config, exc)
    return CandidateScore(config=config, reg=relative_eigen_gap(spectrum, eps), spectrum=spectrum)


def _score_taus(C, taus, make_config, k, seed, eps, threads):
    """Post-process one coefficient matrix across the tau grid, sorting its
    columns once for every tau."""
    try:
        ranked = rank_columns(C)
    except DegenerateError as exc:
        return [_degenerate(make_config(tau), exc) for tau in taus]

    def one(tau):
        config = make_config(tau)
        try:
            graph = postprocess_affinity(ranked, tau)
            spectrum = laplacian_spectrum(graph, k, seed=seed)
        except DegenerateError as exc:
            return _degenerate(config, exc)
        return CandidateScore(config=config, reg=relative_eigen_gap(spectrum, eps), spectrum=spectrum)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, taus))
    return [one(tau) for tau in taus]


def _finish(X, k, scores, seed, kind, kmeans_restarts):
    order = sorted(range(len(scores)), key=lambda i: (-_objective(scores[i], kind), i))
    for i in order:
        winner = scores[i]
        if winner.spectrum is None:
            break
        try:
            Z = spectral_embedding(winner.spectrum)
        except DegenerateError:
            continue
        partition = kmeans(Z, k, restarts=kmeans_restarts, seed=seed)
        return SearchResult(scores=scores, winner=winner, embedding=Z, partition=partition)
    raise SearchFailedError(
        "every candidate was degenerate", candidates=[s.config for s in scores]
    )


def grid_search(X, k, space, eps=1e-6, seed=0, score="reg", threads=1, kmeans_restarts=10):
    """Evaluate the full (model, lambda, tau) grid and cluster the winner.

    The coefficient matrix is built once per (model, lambda), and its
    columns are sorted once (``rank_columns``): each tau keeps the first tau
    rows of that order. Models that take no ridge weight (the direct kernel
    similarity) are evaluated once per tau. Ties on the objective go to the
    first candidate in model -> lambda -> tau order.
    """
    if score not in SCORE_KINDS:
        raise ValueError(f"score must be one of {SCORE_KINDS}")
    X = _checked_points(X, k)
    n = X.shape[1]
    approx = default_approx_rank(n, k)
    scores = []
    for model in space.models:
        lambdas = space.lambdas if model.uses_lambda else (1.0,)
        for lam in lambdas:
            def make_config(tau, lam=lam, model=model):
                return CandidateConfig(
                    model=model.name, tau=tau, lam=lam, kernel=model.kernel, approx_rank=approx
                )

            try:
                C = build_coefficients(X, make_config(space.taus[0]), seed=seed)
            except DegenerateError as exc:
                scores.extend(_degenerate(make_config(tau), exc) for tau in space.taus)
                continue
            scores.extend(_score_taus(C, space.taus, make_config, k, seed, eps, threads))
    return _finish(X, k, scores, seed, score, kmeans_restarts)


# ---------------------------------------------------------------------------
# Gaussian-process surrogate


@dataclass(frozen=True)
class GPState:
    """Observations plus Matern-5/2 ARD kernel hyperparameters."""

    S: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    amplitude: float = 1.0
    lengthscales: np.ndarray = field(default=None, repr=False)
    jitter: float = 1e-8
    prior_mean: float = 0.0

    def __post_init__(self):
        S = np.atleast_2d(np.asarray(self.S, dtype=np.float64))
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.float64))
        ls = self.lengthscales
        ls = np.ones(S.shape[1]) if ls is None else np.asarray(ls, dtype=np.float64)
        object.__setattr__(self, "lengthscales", ls)
        if self.amplitude <= 0 or np.any(ls <= 0) or self.jitter <= 0:
            raise ValueError("amplitude, lengthscales, jitter must be positive")
        if len(self.y) != S.shape[0] or len(ls) != S.shape[1]:
            raise ValueError("inconsistent observation shapes")


def _matern_cross(A, B, amplitude, lengthscales):
    ls = np.asarray(lengthscales, dtype=np.float64)
    diff = (A[:, None, :] - B[None, :, :]) / ls
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    sq5r = np.sqrt(5.0 * r2)
    return amplitude * (1.0 + sq5r + (5.0 / 3.0) * r2) * np.exp(-sq5r)


class _Posterior:
    """Factored GP posterior supporting batched queries."""

    def __init__(self, state):
        self.state = state
        K = _matern_cross(state.S, state.S, state.amplitude, state.lengthscales)
        K.flat[:: K.shape[0] + 1] += state.jitter
        try:
            self.chol = scipy.linalg.cho_factor(K, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"GP Gram factorization failed: {exc}") from exc
        self.alpha = scipy.linalg.cho_solve(self.chol, state.y - state.prior_mean, check_finite=False)

    def predict(self, Q):
        st = self.state
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        kstar = _matern_cross(st.S, Q, st.amplitude, st.lengthscales)
        mu = st.prior_mean + kstar.T @ self.alpha
        w = scipy.linalg.cho_solve(self.chol, kstar, check_finite=False)
        var = np.maximum(st.amplitude - np.einsum("ij,ij->j", kstar, w), 0.0)
        return mu, var


def expected_improvement(mu, sigma, g_min):
    """EI for minimization, E[max(g_min - Y, 0)] with Y ~ N(mu, sigma^2).

    Elementwise over the 1-d arrays ``mu`` and ``sigma``; where sigma is 0
    the improvement is deterministic.
    """
    out = np.maximum(g_min - mu, 0.0)
    pos = sigma > 0
    z = (g_min - mu[pos]) / sigma[pos]
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    out[pos] = np.maximum((g_min - mu[pos]) * ndtr(z) + sigma[pos] * phi, 0.0)
    return out


_SOBOL_START_CACHE = {}


def _sobol_unit_starts(d, n):
    """Fixed scrambled low-discrepancy start points in the unit box, cached."""
    key = (d, n)
    if key not in _SOBOL_START_CACHE:
        # imported here, not at the top: scipy.stats is about half of the
        # package's import time, and only BO draws Sobol points
        from scipy.stats import qmc

        _SOBOL_START_CACHE[key] = qmc.Sobol(d, scramble=True, seed=0).random(n)
    return _SOBOL_START_CACHE[key]


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


def fit_gp_hyperparams(S, y, n_starts=_MAX_STARTS, sweeps=2, init=None):
    """Maximize the log marginal likelihood over (amplitude, length scales).

    Multi-start coordinate search: the starts are the first ``n_starts`` of
    16 fixed scrambled low-discrepancy points over log-scaled bounds
    [1e-3, 1e3] relative to the data scales. ``init=(amplitude,
    lengthscales)``, clipped to those bounds, replaces the last start: a
    warm start from an earlier optimum. Each length scale then moves on a
    multiplicative grid while the amplitude step uses its exact
    per-configuration optimum, clipped to the same bounds. The likelihood
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
    for _ in range(sweeps):
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

    best_amp, best_ls, best_val = None, None, -np.inf
    for s in range(n_starts):
        if val[s] > best_val:
            best_val, best_amp, best_ls = val[s], float(amp[s]), ls[s].copy()
    if best_amp is None or not np.isfinite(best_val):
        return 1.0, ls_default
    return best_amp, best_ls


# ---------------------------------------------------------------------------
# Bayesian-optimization driver


def bo_dimensions(model, space):
    """(name, low, high, is_integer) per tunable hyperparameter of a model."""
    dims = []
    if model.uses_lambda:
        dims.append(("lam", *space.lambda_bounds, False))
    if model.kernel is not None:
        if model.kernel.kind == "gaussian":
            dims.append(("xi", *space.xi_bounds, False))
        elif model.kernel.kind == "polynomial":
            dims.append(("offset", *space.offset_bounds, False))
            dims.append(("degree", *space.degree_bounds, True))
    dims.append(("tau", *space.tau_bounds, True))
    return dims


def _config_from_values(model, dims, values, n, approx):
    named = {}
    for (name, lo, hi, is_int), v in zip(dims, values):
        v = min(max(v, lo), hi)
        named[name] = int(round(v)) if is_int else float(v)
    kernel = model.kernel
    if kernel is not None:
        if kernel.kind == "gaussian":
            kernel = replace(kernel, xi=named["xi"])
        elif kernel.kind == "polynomial":
            kernel = replace(kernel, offset=named["offset"], degree=named["degree"])
    tau = min(named["tau"], n - 1)
    return CandidateConfig(
        model=model.name, tau=tau, lam=named.get("lam", 1.0), kernel=kernel, approx_rank=approx
    )


def _posterior_with_jitter(S, y, amplitude, lengthscales, prior_mean):
    jitter = 1e-8
    while True:
        try:
            state = GPState(
                S=S, y=y, amplitude=amplitude, lengthscales=lengthscales,
                jitter=jitter, prior_mean=prior_mean,
            )
            return _Posterior(state)
        except NumericalError:
            if jitter >= 1e-2:
                raise
            jitter *= 10.0


def _maximize_ei(post, g_min, sobol, n_samples=256, n_refine=4):
    cand = sobol.random(n_samples)
    mu, var = post.predict(cand)
    ei = expected_improvement(mu, np.sqrt(var), g_min)
    order = np.argsort(-ei)[:n_refine]
    d = cand.shape[1]

    best_u, best_e = cand[order[0]].copy(), float(ei[order[0]])
    for i in order:
        u = cand[i].copy()
        e = float(ei[i])
        step = 0.1
        for _ in range(24):
            if step < 1e-3:
                break
            # all 2d coordinate moves as one batched posterior query
            trials = np.repeat(u[None, :], 2 * d, axis=0)
            for j in range(d):
                trials[2 * j, j] = min(max(u[j] - step, 0.0), 1.0)
                trials[2 * j + 1, j] = min(max(u[j] + step, 0.0), 1.0)
            m, v = post.predict(trials)
            e_trials = expected_improvement(m, np.sqrt(v), g_min)
            i_best = int(np.argmax(e_trials))
            if e_trials[i_best] > e + 1e-18:
                u = trials[i_best]
                e = float(e_trials[i_best])
            else:
                step /= 4.0
        if e > best_e:
            best_u, best_e = u.copy(), e
    return best_u


# starts of every GP fit after a model's first: the previous optimum plus
# the first three fixed starts
_WARM_STARTS = 4


def _bo_one_model(X, k, model, space, budget_per_model, init_design, child, seed, eps, score, approx):
    """Sequential BO loop for one model; returns its CandidateScores in
    evaluation order.

    Each step refits the GP hyperparameters to all evaluations so far. The
    model's first fit scores all 16 fixed starts; every later fit scores
    ``_WARM_STARTS``: the first three fixed starts plus the previous fit's
    optimum as a warm start.
    """
    n = X.shape[1]
    dims = bo_dimensions(model, space)
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

    for u in sobol.random(init_design):
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
        post = _posterior_with_jitter(S, yv, amplitude, lengthscales, float(np.mean(yv)))
        u_next = _maximize_ei(post, float(np.min(yv)), sobol)
        evaluate(u_next)
    return scores


def bo_search(
    X,
    k,
    space,
    budget_per_model=30,
    seed=0,
    eps=1e-6,
    score="reg",
    init_design=8,
    kmeans_restarts=10,
    threads=1,
):
    """Per-model Bayesian optimization of -reg, then the across-model best.

    Each model runs independently: a scrambled low-discrepancy initial design
    of ``init_design`` points, then fit-GP / maximize-EI / evaluate cycles up
    to ``budget_per_model`` evaluations. Integer hyperparameters relax to
    continuous values and round at evaluation time. The per-model loops are
    self-contained, so ``threads > 1`` runs them concurrently without
    changing any result. Deterministic given seed.
    """
    if score not in SCORE_KINDS:
        raise ValueError(f"score must be one of {SCORE_KINDS}")
    if budget_per_model < init_design:
        raise ValueError("budget_per_model must cover the initial design")
    X = _checked_points(X, k)
    n = X.shape[1]
    approx = default_approx_rank(n, k)

    children = np.random.SeedSequence(seed).spawn(len(space.models))

    def run_model(pair):
        model, child = pair
        return _bo_one_model(
            X, k, model, space, budget_per_model, init_design, child, seed, eps, score, approx
        )

    pairs = list(zip(space.models, children))
    if threads > 1 and len(pairs) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(pairs))) as pool:
            per_model = list(pool.map(run_model, pairs))
    else:
        per_model = [run_model(p) for p in pairs]
    all_scores = [s for scores in per_model for s in scores]
    return _finish(X, k, all_scores, seed, score, kmeans_restarts)
