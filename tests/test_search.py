import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

import autospectral
from autospectral import linalg
from autospectral.affinity import CandidateConfig, KernelSpec, build_coefficients
from autospectral.errors import SearchFailedError
from autospectral.kmeans import Partition
from autospectral.metrics import clustering_accuracy
from autospectral.search import (
    GPState,
    ModelSpec,
    SearchSpace,
    bo_dimensions,
    bo_search,
    default_search_space,
    evaluate_candidate,
    expected_improvement,
    _matern_cross,
    _Posterior,
    fit_gp_hyperparams,
    grid_search,
)
from autospectral.synthetic import random_subspaces


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
        state = GPState(S=S, y=y, amplitude=1.0, lengthscales=np.array([0.5, 0.5]))
        mu, var = _Posterior(state).predict(S)
        np.testing.assert_allclose(mu, y, rtol=0, atol=1e-4)
        assert np.all(var <= 1e-4)

    def test_reverts_to_prior_far_away(self):
        S = np.zeros((3, 2))
        S[1] = [0.1, 0.0]
        S[2] = [0.0, 0.1]
        y = np.array([1.0, 2.0, 3.0])
        state = GPState(
            S=S, y=y, amplitude=1.7, lengthscales=np.array([0.1, 0.1]), prior_mean=float(y.mean())
        )
        mu, var = _Posterior(state).predict(np.array([[50.0, 50.0]]))
        assert mu[0] == pytest.approx(y.mean(), abs=1e-3)
        assert var[0] == pytest.approx(1.7, abs=1e-3)

    def test_matches_direct_inversion_oracle(self):
        S = np.array([[0.0], [0.5], [1.3]])
        y = np.array([0.2, -0.4, 0.9])
        amp, ls, jitter = 1.2, np.array([0.7]), 1e-8
        mean = float(y.mean())
        state = GPState(S=S, y=y, amplitude=amp, lengthscales=ls, jitter=jitter, prior_mean=mean)
        Q = np.array([[0.8], [-0.3], [2.0]])
        K = _matern_cross(S, S, amp, ls) + jitter * np.eye(3)
        kstar = _matern_cross(S, Q, amp, ls)
        Kinv = np.linalg.inv(K)
        mu_o = mean + kstar.T @ Kinv @ (y - mean)
        var_o = amp - np.einsum("iq,ij,jq->q", kstar, Kinv, kstar)
        mu, var = _Posterior(state).predict(Q)
        np.testing.assert_allclose(mu, mu_o, rtol=0, atol=1e-10)
        np.testing.assert_allclose(var, var_o, rtol=0, atol=1e-10)


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


class TestFitGpHyperparams:
    def test_constant_targets_return_defaults(self):
        S = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
        amp, ls = fit_gp_hyperparams(S, np.ones(3))
        assert amp == 1.0
        np.testing.assert_allclose(ls, [1.5, 1.0])

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
        from autospectral.kmeans import kmeans
        from autospectral.spectra import spectral_embedding

        for s in res.scores:
            if s.spectrum is None:
                continue
            Z = spectral_embedding(s.spectrum)
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
        space = default_search_space()
        lsr_dims = [d[0] for d in bo_dimensions(ModelSpec("lsr"), space)]
        assert lsr_dims == ["lam", "tau"]
        poly = ModelSpec("klsr", KernelSpec("polynomial", offset=1.0, degree=2))
        assert [d[0] for d in bo_dimensions(poly, space)] == ["lam", "offset", "degree", "tau"]
        direct = ModelSpec("kernel_direct", KernelSpec("gaussian"))
        assert [d[0] for d in bo_dimensions(direct, space)] == ["xi", "tau"]


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is about half of the package's import time, and only BO's
    # Sobol points need it
    env = {**os.environ, "PYTHONPATH": str(Path(autospectral.__file__).parents[1])}
    code = "import sys, autospectral; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
