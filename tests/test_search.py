import functools
import math
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import spearmanr

import autospectral
from autospectral import linalg, search
from autospectral.affinity import (
    CandidateConfig,
    KernelSpec,
    build_coefficients,
    postprocess_affinity,
    rank_columns,
)
from autospectral.errors import DegenerateCandidateError, NumericalError, SearchFailedError
from autospectral.kmeans import Partition, kmeans
from autospectral.metrics import clustering_accuracy
from autospectral.search import (
    ModelSpec,
    SearchSpace,
    bo_dimensions,
    bo_search,
    default_search_space,
    evaluate_candidate,
    expected_improvement,
    _matern_cross,
    _maximize_ei,
    _Posterior,
    _bordered_cholesky,
    _sobol_unit_starts,
    fit_gp_hyperparams,
    grid_search,
)
from autospectral.spectra import LaplacianSpectrum, laplacian_spectrum, relative_eigen_gap, spectral_embedding
from autospectral.synthetic import random_subspaces
from conftest import sorted_postprocess, sparse_laplacian_spectrum, ties_at_threshold, traced_peak


class TestMatern:
    def test_same_point_gives_amplitude(self):
        S = np.array([[0.3, -1.2], [2.0, 0.5]])
        K = _matern_cross(S, S, 2.5, np.array([1.0, 2.0]))
        np.testing.assert_allclose(np.diag(K), 2.5, rtol=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((10, 3)), rng.standard_normal((10, 3))
        ls = rng.random(3) + 0.5
        np.testing.assert_allclose(_matern_cross(A, B, 1.3, ls), _matern_cross(B, A, 1.3, ls).T, rtol=1e-6)

    # query counts below, at and above a block of the difference tensor, and
    # the 256 Sobol points EI scores
    @pytest.mark.parametrize("q", [5, search._CROSS_BLOCK, search._CROSS_BLOCK + 1, 3 * search._CROSS_BLOCK + 7, 256])
    def test_bit_identical_to_the_expression(self, q):
        rng = np.random.default_rng(1)
        A, B = rng.random((7, 3)), rng.random((q, 3))
        ls, amp = rng.random(3) + 0.2, 1.7
        diff = (A[:, None, :] - B[None, :, :]) / ls
        r2 = np.einsum("ijk,ijk->ij", diff, diff)
        sq5r = np.sqrt(5.0 * r2)
        want = amp * (1.0 + sq5r + (5.0 / 3.0) * r2) * np.exp(-sq5r)
        assert np.array_equal(_matern_cross(A, B, amp, ls), want)

    def test_unit_distance_value(self):
        # scalar formula oracle at r^2 = 1
        v = _matern_cross(np.array([[1.0]]), np.array([[0.0]]), 1.0, np.array([1.0]))[0, 0]
        expected = (1 + math.sqrt(5) + 5 / 3) * math.exp(-math.sqrt(5))
        assert v == pytest.approx(expected, abs=1e-12)
        assert v == pytest.approx(0.52399, abs=1e-5)


class TestGpPosterior:
    def test_interpolates_observations(self):
        rng = np.random.default_rng(1)
        S = rng.random((6, 2))
        y = rng.standard_normal(6)
        post = _Posterior(S, y, amplitude=1.0, lengthscales=np.array([0.5, 0.5]), prior_mean=0.0)
        mu, var = post.predict(S)
        np.testing.assert_allclose(mu, y, rtol=0, atol=1e-4)
        assert np.all(var <= 1e-4)

    def test_reverts_to_prior_far_away(self):
        S = np.zeros((3, 2))
        S[1] = [0.1, 0.0]
        S[2] = [0.0, 0.1]
        y = np.array([1.0, 2.0, 3.0])
        post = _Posterior(S, y, amplitude=1.7, lengthscales=np.array([0.1, 0.1]), prior_mean=float(y.mean()))
        mu, var = post.predict(np.array([[50.0, 50.0]]))
        assert mu[0] == pytest.approx(y.mean(), abs=1e-3)
        assert var[0] == pytest.approx(1.7, abs=1e-3)

    def test_matches_direct_inversion_oracle(self):
        S = np.array([[0.0], [0.5], [1.3]])
        y = np.array([0.2, -0.4, 0.9])
        amp, ls, jitter = 1.2, np.array([0.7]), 1e-8
        mean = float(y.mean())
        Q = np.array([[0.8], [-0.3], [2.0]])
        K = _matern_cross(S, S, amp, ls) + jitter * np.eye(3)
        kstar = _matern_cross(S, Q, amp, ls)
        Kinv = np.linalg.inv(K)
        mu_o = mean + kstar.T @ Kinv @ (y - mean)
        var_o = amp - np.einsum("iq,ij,jq->q", kstar, Kinv, kstar)
        mu, var = _Posterior(S, y, amp, ls, mean).predict(Q)
        np.testing.assert_allclose(mu, mu_o, rtol=0, atol=1e-10)
        np.testing.assert_allclose(var, var_o, rtol=0, atol=1e-10)

    def test_jitter_grows_tenfold_until_the_gram_factors(self, monkeypatch):
        # eigenvalue -5e-6: jitters 1e-8, 1e-7 and 1e-6 fail, 1e-5 factors
        V, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))
        G = (V * [1.0, 0.5, 0.2, -5e-6]) @ V.T
        monkeypatch.setattr(search, "_matern_cross", lambda *args: G.copy())
        S, y = np.zeros((4, 1)), np.zeros(4)
        post = _Posterior(S, y, 1.0, np.ones(1), 0.0)
        jitter = 1e-8 * 10.0 * 10.0 * 10.0
        want = scipy.linalg.cho_factor(G + jitter * np.eye(4), lower=True)[0]
        assert np.array_equal(np.tril(post.chol[0]), np.tril(want))
        # eigenvalue -0.1 fails at every jitter up to 1e-2
        monkeypatch.setattr(search, "_matern_cross", lambda *args: (V * [1.0, 0.5, 0.2, -0.1]) @ V.T)
        with pytest.raises(NumericalError, match="GP Gram factorization failed"):
            _Posterior(S, y, 1.0, np.ones(1), 0.0)


def reference_posterior(S, y, amplitude, lengthscales, prior_mean):
    """What ``reference_predict`` reads of a posterior, from the earlier
    jitter loop: it rebuilds the Gram matrix on every try and factors and
    solves through ``cho_factor`` and ``cho_solve``."""
    jitter = 1e-8
    while True:
        K = search._matern_cross(S, S, amplitude, lengthscales)
        K.flat[:: K.shape[0] + 1] += jitter
        try:
            chol = scipy.linalg.cho_factor(K, lower=True, check_finite=False)
            break
        except np.linalg.LinAlgError:
            if jitter >= 1e-2:
                raise
            jitter *= 10.0
    alpha = scipy.linalg.cho_solve(chol, y - prior_mean, check_finite=False)
    return SimpleNamespace(
        S=S, amplitude=amplitude, lengthscales=lengthscales, prior_mean=prior_mean, chol=chol, alpha=alpha
    )


class TestPosteriorRetries:
    def test_gram_built_once_and_bit_identical_to_the_earlier_loop(self, monkeypatch):
        # the Gram's smallest eigenvalue moved to -5e-6: jitters 1e-8, 1e-7
        # and 1e-6 fail, 1e-5 factors
        rng = np.random.default_rng(5)
        S, y, Q = rng.random((10, 2)), rng.standard_normal(10), rng.random((12, 2))
        amp, ls, mean = 1.3, np.array([0.3, 0.5]), float(np.mean(y))
        real, grams = search._matern_cross, []

        def shifted_gram(A, B, amplitude, lengthscales):
            K = real(A, B, amplitude, lengthscales)
            if A is B:
                grams.append(A)
                w, V = np.linalg.eigh(K)
                K -= (w[0] + 5e-6) * np.outer(V[:, 0], V[:, 0])
            return K

        monkeypatch.setattr(search, "_matern_cross", shifted_gram)
        post = _Posterior(S, y, amp, ls, mean)
        assert len(grams) == 1
        ref = reference_posterior(S, y, amp, ls, mean)
        assert len(grams) == 5
        assert np.array_equal(np.tril(post.chol[0]), np.tril(ref.chol[0]))
        mu, var = post.predict(Q)
        mu_ref, var_ref = reference_predict(ref, Q)
        assert np.array_equal(mu, mu_ref) and np.array_equal(var, var_ref)


def ei(mu, sigma, g_min):
    """expected_improvement at a single point."""
    return float(expected_improvement(np.array([mu]), np.array([sigma]), g_min)[0])


class TestExpectedImprovement:
    def test_zero_sigma_at_incumbent(self):
        assert ei(1.0, 0.0, 1.0) == 0.0

    def test_at_incumbent_unit_sigma(self):
        assert ei(0.0, 1.0, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            mu = float(rng.normal())
            sigma = float(rng.random() + 0.1)
            g_min = float(rng.normal())
            samples = rng.normal(mu, sigma, size=1_000_000)
            vals = np.maximum(g_min - samples, 0.0)
            mc = vals.mean()
            se = vals.std() / math.sqrt(len(vals))
            assert abs(ei(mu, sigma, g_min) - mc) <= 3 * se + 1e-12

    def test_nonnegative_and_monotone_in_sigma(self):
        # 50 points in one call, every third with sigma 0 on the smaller side
        rng = np.random.default_rng(3)
        mu = rng.normal(size=50)
        g_min = 0.5
        s1, s2 = np.sort(rng.random((2, 50)) * 2, axis=0)
        s1[::3] = 0.0
        e1 = expected_improvement(mu, s1, g_min)
        e2 = expected_improvement(mu, s2, g_min)
        assert np.all(e1 >= 0) and np.all(e2 >= 0)
        assert np.all(e2 >= e1 - 1e-12)
        np.testing.assert_array_equal(e1, [ei(m, s, g_min) for m, s in zip(mu, s1)])


def reference_fit(S, y, init=None):
    """The coordinate search one start at a time: each start scores its own
    initial value in a batch of its own; then each of the
    ``search._REFINED_STARTS`` starts with the highest initial values (the
    first on ties) scores its own 9 candidates per (sweep, dimension), in
    separate batches, and runs both sweeps. Each likelihood factors the Gram
    matrix K bordered by the centred targets r, [[K, r], [r', c]], whose
    factor's last row is L^-1 r. ``init``, clipped to the bounds, is a 17th
    start after the 16 fixed ones. The best scored start wins, the first on
    ties."""
    S = np.atleast_2d(np.asarray(S, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    t, d = S.shape
    ls_default = np.array([max(np.ptp(S[:, j]) / 2.0, 1e-12) for j in range(d)])
    ls_default[np.ptp(S, axis=0) == 0] = 1.0
    if np.ptp(y) == 0.0:
        return 1.0, ls_default
    r = y - float(np.mean(y))
    amp_scale = max(float(np.var(y)), 1e-12)
    ls_scale = np.where(np.ptp(S, axis=0) > 0, np.ptp(S, axis=0), 1.0)
    amp_lo, amp_hi = amp_scale * 1e-3, amp_scale * 1e3
    ls_lo, ls_hi = ls_scale * 1e-3, ls_scale * 1e3
    D2 = np.stack([(S[:, j, None] - S[None, :, j]) ** 2 for j in range(d)])
    const = -0.5 * t * math.log(2.0 * math.pi)

    def lml_batch(r2_batch, amps):
        sq5r = np.sqrt(5.0 * r2_batch)
        K0 = (1.0 + sq5r + (5.0 / 3.0) * r2_batch) * np.exp(-sq5r)
        K0[:, np.arange(t), np.arange(t)] += 1e-8
        B = len(r2_batch)
        M = np.empty((B, t + 1, t + 1))
        M[:, :t, :t] = K0
        M[:, t, :t] = r
        M[:, :t, t] = r
        M[:, t, t] = 2.0 * float(r @ r) / 1e-8 + 1.0
        out = np.full(B, -np.inf)
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
                return out
            L = np.stack(mats)
            ok = np.asarray(ok)
        z = L[:, t, :t]
        quad0 = np.einsum("bi,bi->b", z, z)
        # summed along rows of a C-ordered array, the same for any B: a fancy-indexed
        # diagonal comes out F-ordered, and its row sums then depend on the batch
        logdet0 = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)[:, :t]).sum(axis=1)
        a = np.clip(quad0 / t, amp_lo, amp_hi)
        amps[ok] = a
        out[ok] = -0.5 * quad0 / a - 0.5 * (logdet0 + t * np.log(a)) + const
        return out

    def r2_of(inv_sq):
        return np.einsum("d,dij->ij", inv_sq, D2)

    log_lo = np.log(np.concatenate([[amp_lo], ls_lo]))
    log_hi = np.log(np.concatenate([[amp_hi], ls_hi]))
    starts = list(np.exp(log_lo + _sobol_unit_starts(d + 1, 16) * (log_hi - log_lo)))
    if init is not None:
        starts.append(np.concatenate([np.clip([init[0]], amp_lo, amp_hi), np.clip(init[1], ls_lo, ls_hi)]))
    scored = []
    for start in starts:
        amps = np.array([float(start[0])])
        val = float(lml_batch(r2_of(1.0 / start[1:] ** 2)[None], amps)[0])
        scored.append((val, float(amps[0]), start[1:].copy()))
    # sorted() is stable: among equal initial values the earlier start goes first
    refined = sorted(range(len(scored)), key=lambda i: -scored[i][0])[: search._REFINED_STARTS]
    factors = np.exp(np.linspace(-math.log(8.0), math.log(8.0), 9))
    best_amp, best_ls, best_val = None, None, -np.inf
    for i_start, (val, amp, ls) in enumerate(scored):
        for _ in range(2 if i_start in refined else 0):
            for j in range(d):
                cand = np.clip(ls[j] * factors, ls_lo[j], ls_hi[j])
                inv = 1.0 / ls**2
                other = r2_of(inv) - inv[j] * D2[j]
                r2s = other[None] + D2[j][None] / cand[:, None, None] ** 2
                amps = np.full(len(cand), amp)
                vals = lml_batch(r2s, amps)
                i = int(np.argmax(vals))
                if vals[i] > val:
                    val = float(vals[i])
                    ls[j] = cand[i]
                    amp = float(amps[i])
        if val > best_val:
            best_val, best_amp, best_ls = val, amp, ls.copy()
    if best_amp is None or not np.isfinite(best_val):
        return 1.0, ls_default
    return best_amp, best_ls


def reference_predict(post, Q):
    """Posterior mean and variance at the rows of Q from one kernel product."""
    kstar = _matern_cross(post.S, Q, post.amplitude, post.lengthscales)
    mu = post.prior_mean + kstar.T @ post.alpha
    w = scipy.linalg.cho_solve(post.chol, kstar, check_finite=False)
    return mu, np.maximum(post.amplitude - np.einsum("ij,ij->j", kstar, w), 0.0)


def reference_maximize_ei(post, g_min, sobol, n_samples=256, n_refine=4, rounds=None):
    """The EI refinement one chain at a time, each round one posterior
    query of the chain's 2d moves. ``rounds``, if given, collects the
    number of rounds each chain ran."""
    cand = sobol.random(n_samples)
    mu, var = reference_predict(post, cand)
    ei = expected_improvement(mu, np.sqrt(var), g_min)
    order = np.argsort(-ei)[:n_refine]
    d = cand.shape[1]
    best_u, best_e = cand[order[0]].copy(), float(ei[order[0]])
    for i in order:
        u = cand[i].copy()
        e = float(ei[i])
        step = 0.1
        ran = 0
        for _ in range(24):
            if step < 1e-3:
                break
            ran += 1
            trials = np.repeat(u[None, :], 2 * d, axis=0)
            for j in range(d):
                trials[2 * j, j] = min(max(u[j] - step, 0.0), 1.0)
                trials[2 * j + 1, j] = min(max(u[j] + step, 0.0), 1.0)
            m, v = reference_predict(post, trials)
            e_trials = expected_improvement(m, np.sqrt(v), g_min)
            i_best = int(np.argmax(e_trials))
            if e_trials[i_best] > e + 1e-18:
                u = trials[i_best]
                e = float(e_trials[i_best])
            else:
                step /= 4.0
        if rounds is not None:
            rounds.append(ran)
        if e > best_e:
            best_u, best_e = u.copy(), e
    return best_u


def random_observations(t, d, seed):
    # a smooth response plus noise, as BO sees it in the unit box
    rng = np.random.default_rng(seed)
    S = rng.random((t, d))
    y = np.sin(3.0 * S[:, 0]) + S[:, -1] ** 2 + 0.1 * rng.standard_normal(t)
    return S, y


@functools.cache
def bo_fits(budget=12):
    """(S, y, keyword arguments) of every fit in a short default-space
    bo_search: d=2 and d=3, t from the initial design of 8 up to budget - 1.
    Each model's first fit runs cold (init None), each later fit warm from
    the previous optimum."""
    seen = []
    fit = search.fit_gp_hyperparams

    def record(S, y, **kwargs):
        seen.append((np.array(S), np.array(y), kwargs))
        return fit(S, y, **kwargs)

    X, _ = subspace_data(seed=5, noise=0.05)
    orig, search.fit_gp_hyperparams = search.fit_gp_hyperparams, record
    try:
        bo_search(X, 3, default_search_space(), budget_per_model=budget, seed=1)
    finally:
        search.fit_gp_hyperparams = orig
    return tuple(seen)


def bo_observations():
    return [(S, y) for S, y, _ in bo_fits()]


OBSERVATIONS = [random_observations(t, d, seed=t + d) for d in (2, 3) for t in (8, 15, 16, 29)]


def warm_init(S, y):
    # the optimum one observation earlier, as BO passes it
    return reference_fit(S[:-1], y[:-1])


def assert_fits_match_reference(sets, **kwargs):
    for S, y in sets:
        amp, ls = fit_gp_hyperparams(S, y, **kwargs)
        ref_amp, ref_ls = reference_fit(S, y, **kwargs)
        assert amp == ref_amp
        assert np.array_equal(ls, ref_ls)


def gram(S, ls):
    K = _matern_cross(S, S, 1.0, ls)
    K[np.diag_indices(len(S))] += 1e-8
    return K


def fixed_start_lengthscales(S):
    # the length scales of the 16 fixed starts, as the fit maps them
    scale = np.where(np.ptp(S, axis=0) > 0, np.ptp(S, axis=0), 1.0)
    return scale * 10.0 ** (-3.0 + 6.0 * _sobol_unit_starts(S.shape[1] + 1, 16)[:, 1:])


def bordered_stack(S, y, lengthscales):
    t = len(y)
    Ks = [gram(S, ls) for ls in lengthscales]
    M = np.empty((len(Ks), t + 1, t + 1))
    M[:, :t, :t] = Ks
    return Ks, M, y - y.mean()


def oracle_lml(S, y, amp, ls):
    """The log marginal likelihood of N(0, amp (K + 1e-8 I)) at y - mean(y)."""
    t = len(y)
    r = y - y.mean()
    K = amp * gram(S, ls)
    try:
        c = scipy.linalg.cho_factor(K, lower=True)
    except np.linalg.LinAlgError:
        return -np.inf
    return -0.5 * r @ scipy.linalg.cho_solve(c, r) - 0.5 * np.linalg.slogdet(K)[1] - 0.5 * t * math.log(2 * math.pi)


def best_start_lml(S, y, init):
    """The highest initial value among the starts a fit scores: the 16 fixed
    ones and the clipped ``init``. As in the fit, a start's value is at the
    amplitude that maximizes it, r'K^-1 r / t clipped to the bounds, so its
    own amplitude plays no part."""
    t = len(y)
    r = y - y.mean()
    var, ptp = max(float(np.var(y)), 1e-12), np.ptp(S, axis=0)
    lengthscales = list(fixed_start_lengthscales(S))
    if init is not None:
        lengthscales.append(np.clip(init[1], ptp * 1e-3, ptp * 1e3))
    best = -np.inf
    for ls in lengthscales:
        try:
            c = scipy.linalg.cho_factor(gram(S, ls), lower=True)
        except np.linalg.LinAlgError:
            continue
        amp = np.clip(r @ scipy.linalg.cho_solve(c, r) / t, var * 1e-3, var * 1e3)
        best = max(best, oracle_lml(S, y, amp, ls))
    return best


class TestBorderedCholesky:
    def test_matches_cho_solve_and_slogdet(self):
        # the fit's optimum and the 16 fixed starts; two backward-stable
        # methods agree to about cond(K) * eps, which is below 1e-10 for
        # cond(K) <= 1e6 (the optimum's K here has cond <= 3e5), and the
        # long length scales of some starts make K far worse conditioned
        checked = 0
        for S, y in OBSERVATIONS + bo_observations():
            lss = list(fixed_start_lengthscales(S)) + [fit_gp_hyperparams(S, y)[1]]
            Ks, M, r = bordered_stack(S, y, lss)
            ok, quad, logdet = _bordered_cholesky(M, r)
            assert np.array_equal(ok, np.arange(len(Ks)))
            for K, q, ld in zip(Ks, quad, logdet):
                q_ref = r @ scipy.linalg.cho_solve(scipy.linalg.cho_factor(K, lower=True), r)
                sign, ld_ref = np.linalg.slogdet(K)
                assert sign == 1.0
                rel = max(1e-10, np.linalg.cond(K) * np.finfo(float).eps)
                checked += rel == 1e-10
                assert q == pytest.approx(q_ref, rel=rel)
                assert ld == pytest.approx(ld_ref, rel=rel, abs=1e-10)
        assert checked >= 250

    def test_bit_identical_in_any_batch(self):
        # the lockstep fit factors a start's matrices in larger stacks than
        # a start alone would, so no result may depend on the stack
        for S, y in OBSERVATIONS:
            _, M, r = bordered_stack(S, y, fixed_start_lengthscales(S))
            singles = [_bordered_cholesky(M[i : i + 1].copy(), r) for i in range(len(M))]
            _, quad, logdet = _bordered_cholesky(M, r)
            assert np.array_equal(quad, [q[0] for _, q, _ in singles])
            assert np.array_equal(logdet, [ld[0] for _, _, ld in singles])

    def test_border_keeps_every_gram_that_factors(self):
        # duplicated points make K singular but for the jitter, and targets
        # of opposite sign on the copies put r in its null space, so
        # r'K^-1 r = ||r||^2 / 1e-8: the border's bound holds with no slack
        S0, y0 = OBSERVATIONS[2]
        S = np.vstack([S0, S0])
        y = np.concatenate([y0, -y0])
        lss = list(fixed_start_lengthscales(S))
        Ks, M, r = bordered_stack(S, y, lss)
        ok, quad, _ = _bordered_cholesky(M, r)
        factors = []
        for i, K in enumerate(Ks):
            try:
                np.linalg.cholesky(K)
                factors.append(i)
            except np.linalg.LinAlgError:
                pass
        assert factors
        assert list(ok) == factors
        np.testing.assert_allclose(quad, (r @ r) / 1e-8, rtol=1e-6)

    def test_strict_upper_triangle_is_never_read(self):
        # the fit fills only the lower triangles of its stacks: NaN anywhere
        # above the diagonal, the border column included, changes no result,
        # on the stacked path and on the per-matrix fallback, which runs when
        # one Gram matrix (index 3, with a negative diagonal entry) does not
        # factor
        for S, y in OBSERVATIONS:
            t = len(y)
            upper = np.triu_indices(t + 1, 1)
            _, M, r = bordered_stack(S, y, fixed_start_lengthscales(S))
            for bad in (None, 3):
                clean = M.copy()
                if bad is not None:
                    clean[bad, 0, 0] = -1.0
                dirty = clean.copy()
                dirty[:, upper[0], upper[1]] = np.nan
                ok, quad, logdet = _bordered_cholesky(clean, r)
                ok_nan, quad_nan, logdet_nan = _bordered_cholesky(dirty, r)
                expected = [i for i in range(len(M)) if i != bad]
                assert list(ok) == list(ok_nan) == expected
                assert np.array_equal(quad_nan, quad)
                assert np.array_equal(logdet_nan, logdet)


class TestFitGpHyperparams:
    def test_constant_targets_return_defaults(self):
        S = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
        amp, ls = fit_gp_hyperparams(S, np.ones(3))
        assert amp == 1.0
        np.testing.assert_allclose(ls, [1.5, 1.0])

    def test_no_start_factors_returns_defaults(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        S = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
        y = np.array([0.0, 1.0, 3.0])
        for kwargs in ({}, {"init": (2.0, np.array([0.5, 0.5]))}):
            amp, ls = fit_gp_hyperparams(S, y, **kwargs)
            assert amp == 1.0
            np.testing.assert_array_equal(ls, [1.5, 1.0])

    def test_two_observations_smoke(self):
        amp, ls = fit_gp_hyperparams(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        assert np.isfinite(amp) and amp > 0
        assert np.all(ls > 0)

    def test_recovers_known_scales_within_factor_three(self):
        # sample from a GP with unit amplitude and unit length scales
        rng = np.random.default_rng(4)
        S = rng.random((60, 2)) * 4.0
        K = _matern_cross(S, S, 1.0, np.array([1.0, 1.0])) + 1e-10 * np.eye(60)
        y = np.linalg.cholesky(K) @ rng.standard_normal(60)
        amp, ls = fit_gp_hyperparams(S, y)
        assert np.all(ls >= 1.0 / 3.0) and np.all(ls <= 3.0)
        assert 1.0 / 3.0 <= amp <= 3.0

    def test_bit_identical_to_one_start_at_a_time(self):
        sets = OBSERVATIONS + bo_observations()
        assert {S.shape[1] for S, _ in sets} == {2, 3}
        assert {S.shape[0] for S, _ in sets} >= {8, 11, 15, 16, 29}
        assert_fits_match_reference(sets)

    def test_init_none_is_the_sixteen_start_fit(self):
        for S, y in OBSERVATIONS:
            amp, ls = fit_gp_hyperparams(S, y)
            amp_none, ls_none = fit_gp_hyperparams(S, y, init=None)
            assert amp_none == amp
            assert np.array_equal(ls_none, ls)

    def test_warm_fits_bit_identical_to_one_start_at_a_time(self):
        fits = bo_fits()
        warm = [(S, y, kw) for S, y, kw in fits if kw["init"] is not None]
        # every model's first fit is cold, every later one warm
        assert len(fits) - len(warm) == len(default_search_space().models)
        assert all(kw.keys() == {"init"} for *_, kw in fits)
        for S, y, kw in warm:
            assert_fits_match_reference([(S, y)], **kw)
        for S, y in OBSERVATIONS:
            assert_fits_match_reference([(S, y)], init=warm_init(S, y))

    def test_warm_start_never_below_its_init(self):
        # every scored start competes for the win, and a coordinate move is
        # taken only if it improves, so a fit, cold or warm, ends at or above
        # the initial value of every start it scores: the 16 fixed starts and
        # the clipped init. On these inputs a fit that refined the init and
        # only the first three fixed starts ended up to 5.3 nats lower.
        cases = [(S, y, kw["init"]) for S, y, kw in bo_fits()]
        for S, y in OBSERVATIONS:
            d = S.shape[1]
            var, ptp = float(np.var(y)), np.ptp(S, axis=0)
            inits = [
                None,
                warm_init(S, y),
                (var * 10.0, ptp * 0.05),
                (var * 1e-6, np.full(d, 1e6)),  # clipped on every coordinate
                (var * 1e5, ptp * np.linspace(1e-5, 1.0, d)),
            ]
            cases += [(S, y, init) for init in inits]
        for S, y, init in cases:
            amp, ls = fit_gp_hyperparams(S, y, init=init)
            floor = best_start_lml(S, y, init)
            got = oracle_lml(S, y, amp, ls)
            assert np.isfinite(got)
            assert got >= floor - 1e-9 * max(1.0, abs(floor))

    # 16 fixed Sobol points, a power of 2, raise no Sobol balance warning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("starts_per_call", [1, 3])
    def test_bit_identical_in_small_chunks(self, monkeypatch, starts_per_call):
        # 1: every start scored alone; 3: 16 and 17 starts end on a partial
        # chunk. With 17 refined starts, every start runs its own search.
        for refined in (search._REFINED_STARTS, 17):
            monkeypatch.setattr(search, "_REFINED_STARTS", refined)
            for S, y in OBSERVATIONS:
                t = S.shape[0]
                monkeypatch.setattr(search, "_LML_BUDGET", starts_per_call * 9 * (t + 1) ** 2)
                assert_fits_match_reference([(S, y)])
                assert_fits_match_reference([(S, y)], init=warm_init(S, y))
        # initial values in chunks of 5 (5, 5, 5, 1), candidates one start a call
        S, y = OBSERVATIONS[-1]
        monkeypatch.setattr(search, "_LML_BUDGET", 5 * (S.shape[0] + 1) ** 2)
        assert_fits_match_reference([(S, y)])

    def test_bit_identical_on_the_per_matrix_fallback(self, monkeypatch):
        real = np.linalg.cholesky

        def no_batches(a):
            if np.ndim(a) > 2:
                raise np.linalg.LinAlgError("batched factorization refused")
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", no_batches)
        for refined in (search._REFINED_STARTS, 17):
            monkeypatch.setattr(search, "_REFINED_STARTS", refined)
            for S, y in OBSERVATIONS[1::2]:
                assert_fits_match_reference([(S, y)])
                assert_fits_match_reference([(S, y)], init=warm_init(S, y))

    def test_memory_ceiling(self):
        # 16 starts stacked at once would peak at about 3 MB here; the entry
        # budget keeps the fit's working set to a few 2**14-entry arrays, and
        # the packed lower triangles are freed before each stack is factored
        # (0.30 MB measured; 0.57 MB with 2**15 entries, 0.92 MB when every
        # array held full matrices)
        S, y = random_observations(29, 3, seed=0)
        assert traced_peak(lambda: fit_gp_hyperparams(S, y)) < 0.4e6

    @pytest.mark.parametrize("threads", [1, 3])
    def test_bo_trajectory_unchanged(self, monkeypatch, threads):
        # against the reference pipeline throughout: one-start-at-a-time GP
        # fits, one EI chain at a time, sorted truncation, sparse operator
        X, _ = subspace_data(seed=8, noise=0.05)
        space = default_search_space()
        fast = bo_search(X, 3, space, budget_per_model=12, seed=2, threads=threads)
        monkeypatch.setattr(search, "fit_gp_hyperparams", reference_fit)
        monkeypatch.setattr(search, "_maximize_ei", reference_maximize_ei)
        monkeypatch.setattr(search, "postprocess_affinity", sorted_postprocess)
        monkeypatch.setattr(search, "laplacian_spectrum", sparse_laplacian_spectrum)
        ref = bo_search(X, 3, space, budget_per_model=12, seed=2, threads=threads)
        assert [s.config for s in fast.scores] == [s.config for s in ref.scores]
        assert [s.reg for s in fast.scores] == [s.reg for s in ref.scores]
        assert fast.winner.config == ref.winner.config
        assert np.array_equal(fast.partition.labels, ref.partition.labels)


def fitted_posteriors():
    """The GP posterior of every fit in a short BO run, with the incumbent
    and the dimension: d = 2 (lsr, kernel_direct) and d = 3 (klsr)."""
    out = []
    for S, y, kwargs in bo_fits():
        amp, ls = fit_gp_hyperparams(S, y, **kwargs)
        post = _Posterior(S, y, amp, ls, float(np.mean(y)))
        out.append((post, float(np.min(y)), S.shape[1]))
    return out


class TestMaximizeEi:
    def test_bit_identical_to_one_chain_at_a_time(self):
        from scipy.stats import qmc

        rounds_seen = set()
        dims = set()
        for i, (post, g_min, d) in enumerate(fitted_posteriors()):
            rounds = []
            want = reference_maximize_ei(post, g_min, qmc.Sobol(d, seed=i), rounds=rounds)
            got = _maximize_ei(post, g_min, qmc.Sobol(d, seed=i))
            assert np.array_equal(got, want)
            dims.add(d)
            if len(set(rounds)) > 1:
                rounds_seen.add(d)
        # chains of 4 and of 6 trials, in runs whose chains stop in different rounds
        assert dims == {2, 3}
        assert rounds_seen == {2, 3}

    def test_posterior_mean_and_variance_batch_invariant(self):
        rng = np.random.default_rng(0)
        for post, _, d in fitted_posteriors():
            for blocks in (1, 2, 3, 4):
                Q = rng.random((blocks, 2 * d, d))
                mu, var = post.predict(Q.reshape(-1, d), blocks=blocks)
                alone = [reference_predict(post, q) for q in Q]
                assert np.array_equal(mu, np.concatenate([m for m, _ in alone]))
                assert np.array_equal(var, np.concatenate([v for _, v in alone]))


def ideal_two_cluster_data():
    # two orthonormal directions, points duplicated within each cluster
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    X = np.stack([e1, e1, e1, e2, e2, e2], axis=1)
    labels = np.array([1, 1, 1, 2, 2, 2])
    return X, labels


class TestEvaluateCandidate:
    def test_ideal_disconnected_graph(self):
        X, _ = ideal_two_cluster_data()
        cfg = CandidateConfig(model="kernel_direct", tau=1, kernel=KernelSpec("gaussian", xi=1.0))
        cs = evaluate_candidate(X, 2, cfg, seed=0)
        assert cs.reg > 0
        assert cs.spectrum.sigmas[0] <= 1e-10 and cs.spectrum.sigmas[1] <= 1e-10

    def test_tiny_coefficients_still_finite(self):
        # two distinct unit-norm points; a huge ridge weight shrinks the
        # off-diagonal entries to ~1e-12 but they stay nonzero
        X = np.array([[1.0, 0.8], [0.0, 0.6]])
        cfg = CandidateConfig(model="lsr", tau=1, lam=1e12)
        cs = evaluate_candidate(X, 1, cfg, seed=0)
        assert np.isfinite(cs.reg)

    def test_k_plus_one_exceeds_n(self):
        X = np.eye(3)
        cfg = CandidateConfig(model="lsr", tau=1, lam=0.1)
        with pytest.raises(ValueError):
            evaluate_candidate(X, 3, cfg)

    def test_degenerate_maps_to_minus_inf(self):
        # identical points: gaussian bandwidth collapses -> degenerate data
        X = np.ones((3, 4)) / math.sqrt(3.0)
        cfg = CandidateConfig(model="kernel_direct", tau=1, kernel=KernelSpec("gaussian"))
        cs = evaluate_candidate(X, 2, cfg, seed=0)
        assert cs.reg == float("-inf") and cs.spectrum is None
        assert cs.degenerate_reason == "gaussian bandwidth is zero: all points identical"


def sorted_score(X, k, config, seed=0):
    """The candidate's spectrum and score through the reference pipeline:
    stable-sort truncation, CSR affinity, sparse-scaled operator."""
    C = build_coefficients(X, config, seed=seed)
    spectrum = sparse_laplacian_spectrum(sorted_postprocess(C, config.tau), k, seed=seed)
    return spectrum, relative_eigen_gap(spectrum)


def assert_scores_match_sorted(X, k, scores):
    for got in scores:
        spectrum, reg = sorted_score(X, k, got.config)
        assert got.reg == reg
        assert np.array_equal(got.spectrum.sigmas, spectrum.sigmas)
        assert np.array_equal(got.spectrum.vectors, spectrum.vectors)


def tied_subspace_data():
    # duplicated points tie entries of |C| at the truncation thresholds
    X, _ = subspace_data(seed=6, noise=0.05)
    X = X[:, ::2]
    return np.hstack([X, X[:, ::4]])


# dense cuts that send every operator to LAPACK, or to ARPACK
EIGS_PATHS = {"lapack": None, "arpack": 20}
SCORED_MODELS = (
    ModelSpec("lsr"),
    ModelSpec("klsr", KernelSpec("gaussian")),
    ModelSpec("kernel_direct", KernelSpec("gaussian")),
)


class TestScoringMatchesSortedPipeline:
    @pytest.mark.parametrize("path", sorted(EIGS_PATHS))
    def test_evaluate_candidate(self, monkeypatch, path):
        if EIGS_PATHS[path] is not None:
            monkeypatch.setattr(linalg, "DENSE_EIGS_MAX_N", EIGS_PATHS[path])
        X = tied_subspace_data()
        n = X.shape[1]
        assert n > 20
        for model in SCORED_MODELS:
            for tau in (1, 2, 9, n - 2, n - 1, n):
                config = CandidateConfig(model.name, tau=tau, lam=0.1, kernel=model.kernel)
                assert_scores_match_sorted(X, 3, [evaluate_candidate(X, 3, config)])

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("path", sorted(EIGS_PATHS))
    def test_grid_search(self, monkeypatch, path, threads):
        if EIGS_PATHS[path] is not None:
            monkeypatch.setattr(linalg, "DENSE_EIGS_MAX_N", EIGS_PATHS[path])
        X = tied_subspace_data()
        C = build_coefficients(X, CandidateConfig("lsr", tau=1, lam=0.01))
        assert all(ties_at_threshold(C, tau) for tau in (1, 4, 9, 15))
        space = SearchSpace(models=SCORED_MODELS, lambdas=(0.01, 1.0), taus=(1, 4, 9, 15))
        res = grid_search(X, 3, space, seed=0, threads=threads)
        assert len(res.scores) == 20
        # only the winner keeps its vectors: every candidate's are derived
        # again alone, with the grid's sigmas and reg bit for bit
        derived = [evaluate_candidate(X, 3, s.config) for s in res.scores]
        for got, want in zip(res.scores, derived):
            assert got.reg == want.reg
            assert np.array_equal(got.spectrum.sigmas, want.spectrum.sigmas)
        assert_scores_match_sorted(X, 3, derived)
        assert_scores_match_sorted(X, 3, [res.winner])


# each model's candidate ceiling in n x n float64 arrays at n = 2000: the
# peaks the SEARCH_MAX_N comment states, 1.03 for every exact model and 1.43
# for klsr's low-rank path (approx_rank 200), plus a margin of 0.07
CANDIDATE_CEILING = {"lsr": 1.1, "klsr": 1.1, "kernel_direct": 1.1, "klsr low-rank": 1.5}
# bytes of one n x n float64 array at n = 2000
ARRAY_2000 = 8.0 * 2000**2


class TestMemoryCeiling:
    """Peaks at n = 2000, above the dense cut, in units of one n x n float64
    array, and at the n = 150, tau = 50 of a BO benchmark candidate."""

    @pytest.fixture(scope="class")
    def points(self):
        X, _ = random_subspaces(
            k=4, ambient_dim=30, intrinsic_dim=3, per_cluster=500, noise_std=0.05, seed=0
        )
        assert X.shape[1] == 2000 > linalg.DENSE_EIGS_MAX_N
        return X

    @pytest.mark.parametrize("model", SCORED_MODELS, ids=lambda m: m.name)
    def test_evaluate_candidate(self, points, model):
        config = CandidateConfig(model.name, tau=10, lam=0.1, kernel=model.kernel)
        peak = traced_peak(lambda: evaluate_candidate(points, 4, config), unit=ARRAY_2000)
        assert peak < CANDIDATE_CEILING[model.name]

    def test_low_rank_klsr_candidate(self, points):
        # the path klsr takes above 5000 points: K is freed before the
        # ridge filter forms C from the Ritz pairs
        config = CandidateConfig("klsr", tau=10, lam=0.1, kernel=KernelSpec("gaussian"), approx_rank=200)
        peak = traced_peak(lambda: evaluate_candidate(points, 4, config), unit=ARRAY_2000)
        assert peak < CANDIDATE_CEILING["klsr low-rank"]

    @pytest.mark.parametrize("model", SCORED_MODELS, ids=lambda m: m.name)
    def test_bo_shaped_candidate(self, model):
        # at n = 150 the sparse graph of tau = 50 and numpy's 64 KiB ufunc
        # buffers weigh about as much as C: 2.24 arrays measured, where the
        # copies of C and of its sum's arrays made 4.08
        X, _ = random_subspaces(k=3, ambient_dim=30, intrinsic_dim=4, per_cluster=50, noise_std=0.3, seed=0)
        config = CandidateConfig(model.name, tau=50, lam=0.1, kernel=model.kernel)
        assert traced_peak(lambda: evaluate_candidate(X, 3, config), unit=8.0 * 150**2) < 3.0

    def test_post_process_and_sparse_operator(self, points):
        # truncation holds W besides C, and partitions and marks W a block
        # of rows at a time; the operator above the cut is sparse and adds
        # no n x n array
        C = build_coefficients(points, CandidateConfig("lsr", tau=10, lam=0.1))
        assert traced_peak(lambda: postprocess_affinity(C, 10), unit=ARRAY_2000) < 1.1
        graphs = iter([postprocess_affinity(C, 10) for _ in range(2)])
        assert traced_peak(lambda: laplacian_spectrum(next(graphs), 4), unit=ARRAY_2000) < 0.5

    def test_post_process_from_a_ranking(self, points):
        # each level's graph comes from the ranking's kept entries alone:
        # the degrees densify at most 64 rows at a time
        ranking = rank_columns(build_coefficients(points, CandidateConfig("lsr", tau=15, lam=0.1)), 15)
        for tau in range(5, 16):
            assert traced_peak(lambda: postprocess_affinity(ranking, tau), unit=ARRAY_2000) < 0.25

    @pytest.mark.parametrize("model", SCORED_MODELS, ids=lambda m: m.name)
    def test_one_model_grid_search(self, points, model):
        space = SearchSpace(models=(model,), lambdas=(0.1,), taus=(5, 10))
        run = lambda: grid_search(points, 4, space, threads=1)  # noqa: E731
        assert traced_peak(run, unit=ARRAY_2000) < CANDIDATE_CEILING[model.name]


class TestPointCeiling:
    """Every search entry point refuses more than SEARCH_MAX_N points."""

    @pytest.mark.parametrize("entry", ["evaluate_candidate", "grid_search", "bo_search"])
    def test_above_the_ceiling_names_landmarks(self, monkeypatch, entry):
        X, _ = subspace_data()
        monkeypatch.setattr(search, "SEARCH_MAX_N", X.shape[1] - 1)
        calls = {
            "evaluate_candidate": lambda: evaluate_candidate(X, 3, CandidateConfig(model="lsr", tau=8)),
            "grid_search": lambda: grid_search(X, 3, default_search_space()),
            "bo_search": lambda: bo_search(X, 3, default_search_space(), budget_per_model=8),
        }
        with pytest.raises(ValueError, match=f"at most {X.shape[1] - 1} points.*--landmarks"):
            calls[entry]()

    def test_at_the_ceiling_runs(self, monkeypatch):
        X, _ = subspace_data()
        monkeypatch.setattr(search, "SEARCH_MAX_N", X.shape[1])
        cs = evaluate_candidate(X, 3, CandidateConfig(model="lsr", tau=8))
        assert np.isfinite(cs.reg)


def data_with_zero_point():
    # a zero point has no self-expression: every lsr candidate is degenerate,
    # while the gaussian similarity still links it to the others
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    return np.stack([e1, e1, e1, e2, e2, 0.0 * e2], axis=1)


def subspace_data(seed=0, noise=0.01):
    return random_subspaces(
        k=3, ambient_dim=30, intrinsic_dim=3, per_cluster=50, noise_std=noise, seed=seed
    )


@pytest.mark.parametrize("driver", ["grid", "bo"])
@pytest.mark.parametrize(
    "options, message",
    [
        ({"eps": math.nan}, "eps must be"),
        ({"eps": math.inf}, "eps must be"),
        ({"eps": 0.0}, "eps must be"),
        ({"score": "bogus"}, "score must be"),
    ],
    ids=["eps-nan", "eps-inf", "eps-zero", "score-bogus"],
)
def test_bad_options_rejected_before_any_coefficients(monkeypatch, driver, options, message):
    X, _ = subspace_data()
    calls = []
    monkeypatch.setattr(search, "build_coefficients", lambda *a, **kw: calls.append(a))
    run = grid_search if driver == "grid" else functools.partial(bo_search, budget_per_model=8)
    with pytest.raises(ValueError, match=message):
        run(X, 3, default_search_space(), **options)
    assert calls == []


class TestGridSearch:
    def test_single_candidate_space(self):
        X, _ = subspace_data()
        space = SearchSpace(models=(ModelSpec("lsr"),), lambdas=(0.1,), taus=(8,))
        res = grid_search(X, 3, space, seed=0)
        assert len(res.scores) == 1
        assert res.winner is res.scores[0]

    def test_matches_naive_reevaluation(self):
        X, _ = subspace_data(seed=1)
        space = SearchSpace(
            models=(ModelSpec("lsr"), ModelSpec("kernel_direct", KernelSpec("gaussian"))),
            lambdas=(0.01, 1.0),
            taus=(5, 9, 13),
        )
        res = grid_search(X, 3, space, seed=0)
        # naive oracle: rebuild C for every candidate
        naive = [evaluate_candidate(X, 3, s.config, seed=0) for s in res.scores]
        for got, want in zip(res.scores, naive):
            assert got.config == want.config
            assert got.reg == pytest.approx(want.reg, rel=1e-9)
        best = max(range(len(naive)), key=lambda i: (naive[i].reg, -i))
        assert res.winner.config == naive[best].config

    @pytest.mark.parametrize("threads", [1, 3])
    def test_reg_bit_identical_to_evaluate_candidate(self, threads):
        # duplicated points give exact ties in |C|, so the one shared column
        # sort must break them as the per-candidate sort does
        X, _ = random_subspaces(
            k=3, ambient_dim=30, intrinsic_dim=3, per_cluster=20, noise_std=0.01, seed=8
        )
        X = np.hstack([X, X[:, ::3]])
        W = np.abs(build_coefficients(X, CandidateConfig("lsr", tau=1, lam=0.01)))
        np.fill_diagonal(W, 0.0)
        top = -np.sort(-W, axis=0)[:15]
        assert np.any(top[1:] == top[:-1])
        space = SearchSpace(
            models=default_search_space().models, lambdas=(0.01, 1.0), taus=(1, 4, 9, 15)
        )
        res = grid_search(X, 3, space, seed=0, threads=threads)
        assert len(res.scores) == 20
        for got in res.scores:
            want = evaluate_candidate(X, 3, got.config, seed=0)
            assert got.reg == want.reg
            assert got.degenerate_reason == want.degenerate_reason
            if want.spectrum is not None:
                assert np.array_equal(got.spectrum.sigmas, want.spectrum.sigmas)

    def test_winner_invariant_under_evaluation_order(self):
        X, _ = subspace_data(seed=2)
        space = default_search_space()
        space = SearchSpace(models=space.models, lambdas=(0.1, 1.0), taus=(6, 10, 14))
        res = grid_search(X, 3, space, seed=0)
        configs = [s.config for s in res.scores]
        rng = np.random.default_rng(5)
        shuffled = list(rng.permutation(len(configs)))
        by_config = {}
        for i in shuffled:
            by_config[i] = evaluate_candidate(X, 3, configs[i], seed=0)
        # reduce in canonical order regardless of evaluation order
        regs = np.array([by_config[i].reg for i in range(len(configs))])
        assert configs[int(np.argmax(regs))] == res.winner.config

    def test_perfect_subspaces_full_accuracy_and_exhaustive_argmax(self):
        X, labels = subspace_data(seed=3, noise=0.0)
        res = grid_search(X, 3, default_search_space(), seed=0)
        truth = Partition(labels=labels, k=3)
        assert clustering_accuracy(res.partition, truth) == 1.0
        regs = [s.reg for s in res.scores]
        assert res.winner.reg == max(regs)

    def test_reg_accuracy_rank_correlation(self):
        X, labels = subspace_data(seed=4)
        res = grid_search(X, 3, default_search_space(), seed=0)
        truth = Partition(labels=labels, k=3)
        regs, accs = [], []
        for s in res.scores:
            if s.spectrum is None:
                continue
            # the search keeps only the winner's vectors; derive each again
            derived = evaluate_candidate(X, 3, s.config, seed=0)
            assert derived.reg == s.reg
            assert np.array_equal(derived.spectrum.sigmas, s.spectrum.sigmas)
            Z = spectral_embedding(derived.spectrum)
            accs.append(clustering_accuracy(kmeans(Z, 3, seed=0), truth))
            regs.append(s.reg)
        rho = spearmanr(regs, accs).statistic
        assert rho >= 0.5

    def test_all_degenerate_raises(self):
        X = np.ones((3, 5)) / math.sqrt(3.0)
        space = SearchSpace(
            models=(ModelSpec("kernel_direct", KernelSpec("gaussian")),), taus=(2,)
        )
        with pytest.raises(SearchFailedError):
            grid_search(X, 2, space, seed=0)

    def test_eg_score_mode(self):
        X, _ = subspace_data(seed=5)
        space = SearchSpace(models=(ModelSpec("lsr"),), lambdas=(0.1,), taus=(6, 10))
        res = grid_search(X, 3, space, seed=0, score="eg")
        from autospectral.spectra import plain_eigen_gap

        gaps = [plain_eigen_gap(s.spectrum) for s in res.scores]
        assert plain_eigen_gap(res.winner.spectrum) == max(gaps)

    def test_threads_match_serial(self):
        X, _ = subspace_data(seed=6)
        space = SearchSpace(models=(ModelSpec("lsr"),), lambdas=(0.1,), taus=(5, 8, 11))
        serial = grid_search(X, 3, space, seed=0, threads=1)
        threaded = grid_search(X, 3, space, seed=0, threads=4)
        assert [s.reg for s in serial.scores] == [s.reg for s in threaded.scores]
        assert np.array_equal(serial.partition.labels, threaded.partition.labels)

    def test_threads_match_serial_on_arpack_path(self, monkeypatch):
        # a cut below n sends every Laplacian through the per-component
        # ARPACK path, so eigsh calls run concurrently in the threaded search
        monkeypatch.setattr(linalg, "DENSE_EIGS_MAX_N", 20)
        X, _ = subspace_data(seed=6, noise=0.05)
        space = SearchSpace(
            models=(ModelSpec("lsr"), ModelSpec("kernel_direct", KernelSpec("gaussian"))),
            lambdas=(0.1,),
            taus=(5, 8, 11, 14),
        )
        serial = grid_search(X, 3, space, seed=0, threads=1)
        threaded = grid_search(X, 3, space, seed=0, threads=3)
        assert [s.reg for s in serial.scores] == [s.reg for s in threaded.scores]
        for a, b in zip(serial.scores, threaded.scores):
            assert np.array_equal(a.spectrum.sigmas, b.spectrum.sigmas)
        assert np.array_equal(serial.partition.labels, threaded.partition.labels)

    def test_degenerate_reason_recorded(self):
        space = SearchSpace(
            models=(ModelSpec("lsr"), ModelSpec("kernel_direct", KernelSpec("gaussian"))),
            lambdas=(0.1,),
            taus=(1, 2),
        )
        res = grid_search(data_with_zero_point(), 2, space, seed=0)
        reasons = [(s.config.model, s.degenerate_reason) for s in res.scores]
        assert reasons == [
            ("lsr", "a column has no off-diagonal mass"),
            ("lsr", "a column has no off-diagonal mass"),
            ("kernel_direct", None),
            ("kernel_direct", None),
        ]


class TestWinner:
    """The winner is the first embeddable candidate in (objective desc,
    index) order, and it alone keeps its eigenvectors."""

    SPACE = SearchSpace(models=SCORED_MODELS, lambdas=(0.1, 1.0), taus=(5, 9, 13))

    def run(self, driver, X, threads):
        if driver == "grid":
            return grid_search(X, 3, self.SPACE, seed=0, threads=threads)
        return bo_search(X, 3, self.SPACE, budget_per_model=9, seed=0, threads=threads)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("driver", ["grid", "bo"])
    def test_degenerate_top_embedding_falls_back(self, monkeypatch, driver, threads):
        X, _ = subspace_data(seed=11, noise=0.05)
        clean = self.run(driver, X, threads)
        order = sorted(range(len(clean.scores)), key=lambda i: (-clean.scores[i].reg, i))
        top, runner_up = (clean.scores[i] for i in order[:2])
        assert clean.winner is top and np.isfinite(runner_up.reg)
        # the patched embedding knows the top candidate by its sigmas alone
        valid = [s for s in clean.scores if s.spectrum is not None]
        assert sum(np.array_equal(s.spectrum.sigmas, top.spectrum.sigmas) for s in valid) == 1
        real = search.spectral_embedding

        def embed(spectrum):
            if np.array_equal(spectrum.sigmas, top.spectrum.sigmas):
                raise DegenerateCandidateError("a point has zero spectral coordinates")
            return real(spectrum)

        monkeypatch.setattr(search, "spectral_embedding", embed)
        res = self.run(driver, X, threads)
        assert res.winner.config == runner_up.config
        assert [s.config for s in res.scores] == [s.config for s in clean.scores]
        assert [s.reg for s in res.scores] == [s.reg for s in clean.scores]
        for got, want in zip(res.scores, clean.scores):
            assert (got.spectrum is None) == (want.spectrum is None)
            if want.spectrum is not None:
                assert np.array_equal(got.spectrum.sigmas, want.spectrum.sigmas)
        Z = real(evaluate_candidate(X, 3, runner_up.config, seed=0).spectrum)
        assert np.array_equal(res.embedding, Z)
        assert np.array_equal(res.partition.labels, kmeans(Z, 3, seed=0).labels)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("driver", ["grid", "bo"])
    def test_only_the_winner_keeps_vectors(self, driver, threads):
        X, _ = subspace_data(seed=11, noise=0.05)
        res = self.run(driver, X, threads)
        kept = [s for s in res.scores if s.spectrum is not None and s.spectrum.vectors is not None]
        assert kept == [res.winner] and kept[0] is res.winner
        assert np.array_equal(res.embedding, spectral_embedding(res.winner.spectrum))
        want = evaluate_candidate(X, 3, res.winner.config, seed=0).spectrum
        assert np.array_equal(res.winner.spectrum.vectors, want.vectors)
        released = next(s for s in res.scores if s is not res.winner and s.spectrum is not None)
        with pytest.raises(ValueError, match="no eigenvectors"):
            spectral_embedding(released.spectrum)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_ties_go_to_the_first_candidate(self, threads):
        # two copies of one model, each with two taus that keep every entry:
        # four candidates with one graph, so four equal objectives
        X, _ = subspace_data(seed=12)
        n = X.shape[1]
        space = SearchSpace(models=(ModelSpec("lsr"), ModelSpec("lsr")), lambdas=(0.1,), taus=(n - 1, n))
        res = grid_search(X, 3, space, seed=0, threads=threads)
        assert len({s.reg for s in res.scores}) == 1
        assert res.winner is res.scores[0]
        assert all(s.spectrum.vectors is None for s in res.scores[1:])


class Unshared(CandidateConfig):
    """A config equal only to itself, which no score of BO's can stand in for."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__


class TestRepeatedConfigs:
    @staticmethod
    def corner_run(monkeypatch, threads):
        # after the initial design every proposal is the top corner of the box
        X, _ = subspace_data(seed=8, noise=0.05)
        real, calls = search.evaluate_candidate, []

        def counted(X, k, config, **kwargs):
            calls.append(config)
            return real(X, k, config, **kwargs)

        monkeypatch.setattr(search, "evaluate_candidate", counted)
        monkeypatch.setattr(search, "_maximize_ei", lambda post, g_min, sobol: np.ones(post.S.shape[1]))
        res = bo_search(X, 3, default_search_space(), budget_per_model=12, seed=2, threads=threads)
        return res, calls

    @pytest.mark.parametrize("threads", [1, 3])
    def test_scored_once_with_the_scores_of_evaluating_again(self, monkeypatch, threads):
        res, calls = self.corner_run(monkeypatch, threads)
        assert len(res.scores) == 36
        # 8 design points and the corner per model
        assert len(calls) == len(set(calls)) == 27
        monkeypatch.setattr(search, "CandidateConfig", Unshared)
        ref, ref_calls = self.corner_run(monkeypatch, threads)
        assert len(ref_calls) == 36
        assert [astuple(s.config) for s in res.scores] == [astuple(s.config) for s in ref.scores]
        assert [s.reg for s in res.scores] == [s.reg for s in ref.scores]
        for got, want in zip(res.scores, ref.scores):
            assert (got.spectrum is None) == (want.spectrum is None)
            if got.spectrum is not None:
                assert np.array_equal(got.spectrum.sigmas, want.spectrum.sigmas)
        assert astuple(res.winner.config) == astuple(ref.winner.config)
        assert np.array_equal(res.partition.labels, ref.partition.labels)

    def test_repeat_of_an_unembeddable_candidate_is_not_kept(self):
        # the best objective so far, but a point with zero spectral
        # coordinates: neither it nor its released repeat is kept
        vectors = np.eye(4)[:, :2]
        spectrum = LaplacianSpectrum(k=2, sigmas=np.array([0.0, 0.1, 0.9]), vectors=vectors)
        score = search.CandidateScore(CandidateConfig("lsr", tau=2), reg=5.0, spectrum=spectrum)
        keeper = search._Keeper("reg")
        keeper.add(score)
        keeper.add(search._released(score))
        assert keeper.best is None and len(keeper.scores) == 2
        assert all(s.spectrum.vectors is None for s in keeper.scores)


class TestBoSearch:
    def test_budget_equal_to_initial_design(self):
        X, _ = subspace_data(seed=7)
        space = SearchSpace(models=(ModelSpec("lsr"),))
        res = bo_search(X, 3, space, budget_per_model=8, seed=0)
        assert len(res.scores) == 8
        assert res.winner.reg == max(s.reg for s in res.scores)

    def test_threads_match_serial(self):
        X, _ = subspace_data(seed=8, noise=0.05)
        space = SearchSpace(
            models=(ModelSpec("lsr"), ModelSpec("kernel_direct", KernelSpec("gaussian")))
        )
        serial = bo_search(X, 3, space, budget_per_model=10, seed=2, threads=1)
        threaded = bo_search(X, 3, space, budget_per_model=10, seed=2, threads=3)
        assert [s.config for s in serial.scores] == [s.config for s in threaded.scores]
        assert [s.reg for s in serial.scores] == [s.reg for s in threaded.scores]
        assert serial.winner.config == threaded.winner.config
        assert np.array_equal(serial.partition.labels, threaded.partition.labels)

    def test_deterministic_evaluation_sequence(self):
        X, _ = subspace_data(seed=8)
        space = SearchSpace(models=(ModelSpec("lsr"),))
        r1 = bo_search(X, 3, space, budget_per_model=12, seed=3)
        r2 = bo_search(X, 3, space, budget_per_model=12, seed=3)
        assert [s.config for s in r1.scores] == [s.config for s in r2.scores]
        assert [s.reg for s in r1.scores] == [s.reg for s in r2.scores]

    def test_beats_coarse_grid_single_seed(self):
        X, _ = subspace_data(seed=9)
        space = SearchSpace(models=(ModelSpec("lsr"),))
        grid = grid_search(X, 3, space, seed=0)
        bo = bo_search(X, 3, space, budget_per_model=30, seed=0)
        assert bo.winner.reg >= grid.winner.reg

    def test_budget_validation(self):
        X, _ = subspace_data(seed=10)
        with pytest.raises(ValueError):
            bo_search(X, 3, SearchSpace(models=(ModelSpec("lsr"),)), budget_per_model=4)

    def test_dimensions_per_model(self):
        assert [d[0] for d in bo_dimensions(ModelSpec("lsr"))] == ["lam", "tau"]
        gaussian = ModelSpec("klsr", KernelSpec("gaussian"))
        assert [d[0] for d in bo_dimensions(gaussian)] == ["lam", "xi", "tau"]
        direct = ModelSpec("kernel_direct", KernelSpec("gaussian"))
        assert [d[0] for d in bo_dimensions(direct)] == ["xi", "tau"]
        poly = KernelSpec("polynomial", offset=1.0, degree=2)
        assert [d[0] for d in bo_dimensions(ModelSpec("klsr", poly))] == ["lam", "tau"]
        assert [d[0] for d in bo_dimensions(ModelSpec("kernel_direct", poly))] == ["tau"]

    def test_polynomial_kernel_keeps_its_offset_and_degree(self):
        X, _ = subspace_data(seed=10)
        poly = KernelSpec("polynomial", offset=1.0, degree=2)
        space = SearchSpace(models=(ModelSpec("klsr", poly), ModelSpec("kernel_direct", poly)))
        res = bo_search(X, 3, space, budget_per_model=12, seed=0)
        assert len(res.scores) == 24
        assert all(s.config.kernel == poly for s in res.scores)
        assert len({s.config.lam for s in res.scores[:12]}) > 1
        assert {s.config.lam for s in res.scores[12:]} == {1.0}


def test_import_leaves_unused_scipy_modules_unloaded():
    # each is imported by the one function that needs it: BO's Sobol points
    # (scipy.stats) and EI (scipy.special), accuracy against truth labels
    # (scipy.optimize), and the ARPACK path above DENSE_EIGS_MAX_N rows
    # (scipy.sparse.csgraph, scipy.sparse.linalg)
    unused = ["scipy.stats", "scipy.optimize", "scipy.special", "scipy.sparse.csgraph", "scipy.sparse.linalg"]
    env = {**os.environ, "PYTHONPATH": str(Path(autospectral.__file__).parents[1])}
    code = (
        "import sys, autospectral, autospectral.dataio, autospectral.cli; "
        f"print([m for m in {unused!r} if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
