import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from conftest import block_affinity, dense_laplacian_eigs, graph_from_dense, random_affinity, traced_peak
from autospectral import linalg
from autospectral.affinity import CandidateConfig, build_coefficients, postprocess_affinity
from autospectral.errors import DegenerateCandidateError
from autospectral.kmeans import Partition
from autospectral.metrics import mncut
from autospectral.spectra import (
    LaplacianSpectrum,
    laplacian_spectrum,
    plain_eigen_gap,
    relative_eigen_gap,
    spectral_embedding,
)
from autospectral.synthetic import random_subspaces


class TestLaplacianSpectrum:
    def test_caller_graph_left_untouched(self):
        # the operator holds new scaled data beside the graph's index arrays;
        # the caller's CSR and degrees stay as they were
        A = random_affinity(np.random.default_rng(5), 40)
        g = graph_from_dense(A)
        before = (g.a.data.copy(), g.a.indices.copy(), g.a.indptr.copy(), g.degrees.copy())
        first = laplacian_spectrum(g, k=3, seed=0)
        after = (g.a.data, g.a.indices, g.a.indptr, g.degrees)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))
        again = laplacian_spectrum(g, k=3, seed=0)
        assert np.array_equal(first.sigmas, again.sigmas) and np.array_equal(first.vectors, again.vectors)

    def test_handed_graph_at_the_dense_cut(self):
        # at the largest n that LAPACK solves, the scaled CSR operator lives
        # beside the array densified from it: 1.21 n x n float64 arrays
        # measured at tau = 15, where the graph is handed over unnamed
        n = linalg.DENSE_EIGS_MAX_N
        X, _ = random_subspaces(k=3, ambient_dim=30, intrinsic_dim=4, per_cluster=n // 3, noise_std=0.3, seed=0)
        C = build_coefficients(X, CandidateConfig("lsr", tau=15, lam=0.1))
        graphs = iter([postprocess_affinity(C, 15) for _ in range(3)])
        assert traced_peak(lambda: laplacian_spectrum(next(graphs), 3), unit=8.0 * n * n) < 1.3
        kept = postprocess_affinity(C, 15)
        handed = laplacian_spectrum(next(graphs), 3)
        assert np.array_equal(handed.sigmas, laplacian_spectrum(kept, 3).sigmas)

    def test_single_edge(self):
        g = graph_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        s = laplacian_spectrum(g, k=1, seed=0)
        np.testing.assert_allclose(s.sigmas, [0.0, 2.0], atol=1e-10)

    def test_two_cliques_zero_multiplicity(self):
        clique = np.ones((3, 3)) - np.eye(3)
        A = np.zeros((6, 6))
        A[:3, :3] = clique
        A[3:, 3:] = clique
        s = laplacian_spectrum(graph_from_dense(A), k=2, seed=0)
        assert s.sigmas[0] <= 1e-10 and s.sigmas[1] <= 1e-10
        assert s.sigmas[2] > 0.05

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        A = random_affinity(rng, 15, density=0.4)
        s = laplacian_spectrum(graph_from_dense(A), k=3, seed=1)
        oracle, _ = dense_laplacian_eigs(A)
        np.testing.assert_allclose(s.sigmas, oracle[:4], atol=1e-8)

    def test_component_count_matches_zero_multiplicity(self):
        rng = np.random.default_rng(4)
        for c in range(1, 5):
            A = block_affinity(rng, [4] * c)
            s = laplacian_spectrum(graph_from_dense(A), k=c, seed=0)
            assert np.sum(s.sigmas < 1e-8) == c
            assert s.sigmas[c] > 1e-4  # next eigenvalue strictly away from zero

    def test_transition_matrix_correspondence(self):
        # eigenvalues of I - D^{-1/2} A D^{-1/2} equal 1 - eigenvalues of D^{-1} A
        rng = np.random.default_rng(5)
        A = random_affinity(rng, 12)
        d = A.sum(axis=1)
        P = A / d[:, None]
        sym_vals, _ = dense_laplacian_eigs(A)
        p_vals = np.sort(np.linalg.eigvals(P).real)[::-1]
        np.testing.assert_allclose(np.sort(sym_vals), np.sort(1.0 - p_vals), atol=1e-8)

    def test_preconditions(self):
        g = graph_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            laplacian_spectrum(g, k=2)  # k + 1 > n
        bad = graph_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        object.__setattr__(bad, "degrees", np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            laplacian_spectrum(bad, k=1)


class TestGapScores:
    def test_relative_gap_huge_when_mean_zero(self):
        s = LaplacianSpectrum(k=2, sigmas=np.array([0.0, 0.0, 2.0]), vectors=np.zeros((3, 2)))
        assert relative_eigen_gap(s, eps=1e-6) == pytest.approx(2e6)

    def test_relative_gap_formula(self):
        s = LaplacianSpectrum(k=2, sigmas=np.array([0.1, 0.1, 0.3]), vectors=np.zeros((3, 2)))
        assert relative_eigen_gap(s, eps=1e-6) == pytest.approx(0.2 / 0.100001)

    def test_relative_gap_equal_sigmas_zero(self):
        s = LaplacianSpectrum(k=2, sigmas=np.array([0.4, 0.4, 0.4]), vectors=np.zeros((3, 2)))
        assert relative_eigen_gap(s) == pytest.approx(0.0)

    def test_plain_gap(self):
        s = LaplacianSpectrum(k=2, sigmas=np.array([0.0, 0.0, 2.0]), vectors=np.zeros((3, 2)))
        assert plain_eigen_gap(s) == pytest.approx(2.0)
        s = LaplacianSpectrum(k=2, sigmas=np.array([0.1, 0.2, 0.3]), vectors=np.zeros((3, 2)))
        assert plain_eigen_gap(s) == pytest.approx(0.1)

    def test_eps_validation(self):
        s = LaplacianSpectrum(k=1, sigmas=np.array([0.0, 1.0]), vectors=np.zeros((2, 1)))
        for eps in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="eps must be finite and positive"):
                relative_eigen_gap(s, eps=eps)


class TestSpectralEmbedding:
    def test_connected_graph_k1_all_ones(self):
        rng = np.random.default_rng(6)
        A = random_affinity(rng, 9)
        s = laplacian_spectrum(graph_from_dense(A), k=1, seed=0)
        Z = spectral_embedding(s)
        np.testing.assert_allclose(Z, np.ones((1, 9)), atol=1e-8)

    def test_two_components_collapse_to_two_points(self):
        rng = np.random.default_rng(7)
        A = block_affinity(rng, [5, 6])
        s = laplacian_spectrum(graph_from_dense(A), k=2, seed=0)
        Z = spectral_embedding(s)
        first = Z[:, :5]
        second = Z[:, 5:]
        assert np.max(np.abs(first - first[:, :1])) <= 1e-8
        assert np.max(np.abs(second - second[:, :1])) <= 1e-8
        assert np.linalg.norm(first[:, 0] - second[:, 0]) > 0.1

    def test_unit_columns_from_random_orthonormal(self):
        rng = np.random.default_rng(8)
        Q, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        s = LaplacianSpectrum(k=3, sigmas=np.zeros(4), vectors=Q)
        Z = spectral_embedding(s)
        np.testing.assert_allclose(np.linalg.norm(Z, axis=0), np.ones(10), atol=1e-12)

    def test_zero_column_degenerate(self):
        vecs = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        s = LaplacianSpectrum(k=2, sigmas=np.zeros(3), vectors=vecs)
        with pytest.raises(DegenerateCandidateError):
            spectral_embedding(s)

    def test_released_vectors_raise_a_clear_error(self):
        s = LaplacianSpectrum(k=2, sigmas=np.zeros(3), vectors=None)
        with pytest.raises(ValueError, match="no eigenvectors.*evaluate_candidate"):
            spectral_embedding(s)


class TestCutClaims:
    def test_lower_bound_by_smallest_eigenvalue_sum(self):
        # MNCut of any k-partition is at least the sum of the k smallest
        # Laplacian eigenvalues (dense-oracle spectrum); 50 partitions per graph
        rng = np.random.default_rng(9)
        for _ in range(6):
            n = int(rng.integers(6, 20))
            A = random_affinity(rng, n)
            g = graph_from_dense(A)
            vals, _ = dense_laplacian_eigs(A)
            for _ in range(50):
                k = int(rng.integers(2, 5))
                labels = rng.permutation(
                    np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, size=n - k)])
                )
                p = Partition(labels=labels, k=k)
                assert mncut(p, g) >= vals[:k].sum() - 1e-8

    def test_within_block_cut_bounded_by_next_eigenvalue(self):
        # on a graph with k zero-cut blocks, any bipartition of a block has
        # 2-way normalized cut at least sigma_{k+1} of the whole graph
        rng = np.random.default_rng(10)
        for _ in range(20):
            k = int(rng.integers(2, 4))
            sizes = [int(rng.integers(4, 7)) for _ in range(k)]
            A = block_affinity(rng, sizes)
            g = graph_from_dense(A)
            vals, _ = dense_laplacian_eigs(A)
            sigma_next = vals[k]
            at = 0
            for s in sizes:
                block = np.arange(at, at + s)
                at += s
                for _ in range(5):
                    side = rng.integers(0, 2, size=s)
                    if side.min() == side.max():
                        side[0] = 1 - side[0]
                    sub_labels = side + 1
                    subA = A[np.ix_(block, block)]
                    sub = graph_from_dense(subA)
                    p = Partition(labels=sub_labels, k=2)
                    assert mncut(p, sub) >= sigma_next - 1e-8


class TestSubspaceComponents:
    def test_components_recover_clusters_when_gap_is_clean(self):
        # noiseless independent subspaces: a candidate with positive score and
        # numerically-zero bottom eigenvalues has its graph components equal
        # to the ground-truth clusters
        X, labels = random_subspaces(k=3, ambient_dim=30, intrinsic_dim=3, per_cluster=20, seed=0)
        found = False
        for tau in range(5, 16):
            cfg = CandidateConfig(model="lsr", tau=tau, lam=0.1)
            try:
                graph = postprocess_affinity(build_coefficients(X, cfg), tau)
                s = laplacian_spectrum(graph, k=3, seed=0)
            except DegenerateCandidateError:
                continue
            if relative_eigen_gap(s) > 0 and np.mean(s.sigmas[:3]) <= 1e-10:
                found = True
                ncomp, comp = connected_components(graph.a, directed=False)
                assert ncomp == 3
                # components coincide with the true clusters (up to relabeling)
                for c in range(3):
                    assert len(np.unique(labels[comp == c])) == 1
        assert found
