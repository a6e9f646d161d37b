import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from conftest import block_affinity, dense_laplacian_eigs, graph_from_dense, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from autospectral import linalg
from autospectral.errors import EigsolverError
from autospectral.linalg import check_finite, partial_sym_eigs, randomized_eigh
from autospectral.spectra import laplacian_spectrum


def dense_sym_eigs(M, count):
    """Oracle: full dense symmetric eigendecomposition, top `count` pairs."""
    M = np.asarray(M.todense()) if sp.issparse(M) else np.asarray(M)
    vals, vecs = np.linalg.eigh((M + M.T) / 2.0)
    order = np.argsort(vals)[::-1][:count]
    return vals[order], vecs[:, order]


class TestCheckFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        M = np.arange(12.0).reshape(3, 4)
        M[2, 1] = bad
        with pytest.raises(ValueError, match="M contains non-finite entries"):
            check_finite(M, "M")

    def test_nan_beside_an_infinity(self):
        with pytest.raises(ValueError):
            check_finite([[np.inf, np.nan, -np.inf]])

    def test_empty_passes(self):
        assert check_finite(np.empty((0, 5))).shape == (0, 5)

    def test_finite_passes_as_float64(self):
        M = check_finite([[1, -2], [3, 4]])
        assert M.dtype == np.float64
        assert np.array_equal(M, [[1.0, -2.0], [3.0, 4.0]])


class TestRandomizedEigh:
    @staticmethod
    def symmetric(seed, values):
        Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(values), len(values))))
        M = (Q * np.asarray(values, dtype=np.float64)) @ Q.T
        return (M + M.T) / 2.0

    def test_identity_eigenvalues(self):
        w, V = randomized_eigh(np.eye(5), rank=5, seed=0)
        np.testing.assert_allclose(w, np.ones(5), atol=1e-12)
        np.testing.assert_allclose(V.T @ V, np.eye(5), atol=1e-12)

    def test_exact_recovery_at_exact_rank(self):
        B = np.random.default_rng(3).standard_normal((12, 3))
        M = B @ B.T  # PSD of exact rank 3
        w, V = randomized_eigh(M, rank=3, seed=1)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(M)[::-1][:3], rtol=1e-10)
        assert np.linalg.norm(M - (V * w) @ V.T) <= 1e-8

    def test_near_optimal_against_eigh_oracle(self):
        # oracle: the best rank-10 error keeps the 10 largest |eigenvalues|
        M = self.symmetric(7, np.random.default_rng(8).standard_normal(50))
        values = np.linalg.eigvalsh(M)
        optimal = np.sqrt(np.sum(np.sort(values**2)[::-1][10:]))
        w, V = randomized_eigh(M, rank=10, seed=2)
        assert np.linalg.norm(M - (V * w) @ V.T) <= 1.2 * optimal

    def test_orthonormal_ritz_vectors_by_magnitude(self):
        M = self.symmetric(11, np.linspace(-3.0, 2.0, 30))
        w, V = randomized_eigh(M, rank=6, seed=0)
        np.testing.assert_allclose(V.T @ V, np.eye(6), atol=1e-10)
        assert np.all(np.diff(np.abs(w)) <= 1e-12)
        # the Ritz values are the Rayleigh quotients of their vectors
        np.testing.assert_allclose(np.einsum("ij,ij->j", V, M @ V), w, atol=1e-10)

    def test_large_negative_eigenvalue_kept(self):
        # an algebraic top 3 would drop -5; ranked by magnitude it comes first
        w, _ = randomized_eigh(self.symmetric(5, [3.0, 2.0, -5.0] + [1e-12] * 7), rank=3, seed=0)
        np.testing.assert_allclose(w, [-5.0, 3.0, 2.0], atol=1e-10)

    def test_deterministic_given_seed(self):
        M = self.symmetric(5, np.random.default_rng(6).standard_normal(18))
        a = randomized_eigh(M, rank=4, seed=42)
        b = randomized_eigh(M, rank=4, seed=42)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_argument_checks(self):
        with pytest.raises(ValueError, match="rank must be in"):
            randomized_eigh(np.eye(5), rank=0)
        with pytest.raises(ValueError, match="rank must be in"):
            randomized_eigh(np.eye(5), rank=6)
        with pytest.raises(ValueError, match="must be square"):
            randomized_eigh(np.ones((4, 5)), rank=2)
        with pytest.raises(ValueError, match="non-finite"):
            randomized_eigh(np.diag([1.0, np.nan, 2.0]), rank=2)


class TestPartialSymEigs:
    def test_two_cycle(self):
        vals, _ = partial_sym_eigs(np.array([[0.0, 1.0], [1.0, 0.0]]), count=2, seed=0)
        np.testing.assert_allclose(vals, [1.0, -1.0], atol=1e-10)

    def test_diagonal(self):
        vals, vecs = partial_sym_eigs(np.diag([3.0, 2.0, 1.0]), count=2, seed=0)
        np.testing.assert_allclose(vals, [3.0, 2.0], atol=1e-10)
        np.testing.assert_allclose(np.abs(vecs), np.eye(3)[:, :2], atol=1e-8)
        # sign convention: largest-magnitude entry positive
        assert vecs[0, 0] > 0 and vecs[1, 1] > 0

    def test_matches_dense_oracle_sparse_40(self):
        rng = np.random.default_rng(4)
        A = sp.random(40, 40, density=0.2, random_state=np.random.RandomState(4))
        M = (A + A.T).tocsr()
        vals, vecs = partial_sym_eigs(M, count=5, seed=9)
        oracle_vals, _ = dense_sym_eigs(M, 5)
        np.testing.assert_allclose(vals, oracle_vals, atol=1e-8)
        # residual contract against the dense 2-norm
        Md = np.asarray(M.todense())
        norm2 = np.max(np.abs(np.linalg.eigvalsh(Md)))
        res = np.linalg.norm(Md @ vecs - vecs * vals, axis=0)
        assert np.all(res <= 1e-8 * norm2)

    def test_repeated_eigenvalues_from_disconnected_blocks(self):
        # three disjoint 4-cliques: normalized adjacency has eigenvalue 1 with
        # multiplicity 3; a single-vector Krylov method would miss the copies
        blocks = [np.ones((4, 4)) - np.eye(4)] * 3
        A = scipy_block_diag(blocks)
        d = A.sum(axis=1)
        M = A / np.sqrt(np.outer(d, d))
        vals, vecs = partial_sym_eigs(M, count=4, seed=1)
        np.testing.assert_allclose(vals[:3], np.ones(3), atol=1e-9)
        assert vals[3] < 0.99
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(4), atol=1e-8)

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(12)
        B = rng.standard_normal((30, 30))
        M = B + B.T
        _, vecs = partial_sym_eigs(M, count=7, seed=3)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(7), atol=1e-8)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        B = rng.standard_normal((20, 20))
        M = B + B.T
        a = partial_sym_eigs(M, count=3, seed=17)
        b = partial_sym_eigs(M, count=3, seed=17)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_count_validation(self):
        with pytest.raises(ValueError):
            partial_sym_eigs(np.eye(3), count=4)

    def test_sparse_operator_at_the_cut_densified_once(self):
        # LAPACK works in place in the Fortran-ordered densified operator,
        # so its peak is one n x n array (a C-ordered one would add
        # LAPACK's transposed copy: 2.15); results match the dense input's
        # bit for bit, and a dense input is left untouched
        n = linalg.DENSE_EIGS_MAX_N
        A = sp.random(n, n, density=0.05, random_state=np.random.RandomState(6))
        M = (A + A.T).tocsr()
        dense = M.toarray()
        before = dense.copy()
        assert traced_peak(lambda: partial_sym_eigs(M, count=5), unit=8.0 * n * n) < 1.5
        vals, vecs = partial_sym_eigs(M, count=5)
        dense_vals, dense_vecs = partial_sym_eigs(dense, count=5)
        assert np.array_equal(vals, dense_vals) and np.array_equal(vecs, dense_vecs)
        assert np.array_equal(dense, before)

    @given(n=st.integers(3, 12), count=st.integers(1, 3), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle_property(self, n, count, seed):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n, n))
        M = B + B.T
        count = min(count, n)
        vals, vecs = partial_sym_eigs(M, count=count, seed=seed)
        oracle_vals, _ = dense_sym_eigs(M, count)
        np.testing.assert_allclose(vals, oracle_vals, atol=1e-8)
        res = np.linalg.norm(M @ vecs - vecs * vals, axis=0)
        assert np.all(res <= 1e-7 * max(np.abs(oracle_vals[0]), 1.0))


def normalized_adjacency(A):
    d = A.sum(axis=1)
    return sp.csr_matrix(A / np.sqrt(np.outer(d, d)))


# DENSE_EIGS_MAX_N values per branch: everything by LAPACK, or every
# component larger than three rows by ARPACK
BRANCH_CUTS = {"dense": 10**9, "arpack": 3}


class TestEigsolverBranches:
    @given(
        k=st.integers(1, 4),
        data=st.data(),
        seed=st.integers(0, 1000),
        branch=st.sampled_from(sorted(BRANCH_CUTS)),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_graphs_match_dense_oracle(self, k, data, seed, branch):
        ncomp = data.draw(st.integers(1, k + 1), label="components")
        sizes = data.draw(st.lists(st.integers(2, 12), min_size=ncomp, max_size=ncomp), label="sizes")
        if sum(sizes) < k + 1:
            sizes[0] += k + 1 - sum(sizes)
        A = block_affinity(np.random.default_rng(seed), sizes)
        oracle, _ = dense_laplacian_eigs(A)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "DENSE_EIGS_MAX_N", BRANCH_CUTS[branch])
            spectrum = laplacian_spectrum(graph_from_dense(A), k, seed=seed)
        np.testing.assert_allclose(spectrum.sigmas, oracle[: k + 1], atol=1e-8)
        # one zero eigenvalue per component among the k+1 smallest
        assert np.sum(spectrum.sigmas < 1e-8) == min(ncomp, k + 1)
        V = spectrum.vectors
        np.testing.assert_allclose(V.T @ V, np.eye(k), atol=1e-8)
        M = normalized_adjacency(A)
        res = np.linalg.norm(M @ V - V * (1.0 - spectrum.sigmas[:k]), axis=0)
        assert np.all(res <= 1e-8)

    @pytest.mark.parametrize("cut", [None, 4], ids=["components-lapack", "components-arpack"])
    def test_many_components_above_cut_keep_multiplicity(self, monkeypatch, cut):
        # nine components of mixed sizes, n=314 above the default cut: plain
        # eigsh on the whole operator (scipy 1.17) found only 3 to 5 of the
        # 9 copies of eigenvalue 1 from four seeded start vectors; solved per
        # component, all 9 are there
        if cut is not None:
            monkeypatch.setattr(linalg, "DENSE_EIGS_MAX_N", cut)
        sizes = [68, 51, 41, 23, 26, 5, 7, 3, 90]
        M = normalized_adjacency(block_affinity(np.random.default_rng(0), sizes, density=0.3))
        assert M.shape[0] > linalg.DENSE_EIGS_MAX_N
        vals, vecs = partial_sym_eigs(M, count=11, seed=0)
        oracle, _ = dense_sym_eigs(M, 11)
        np.testing.assert_allclose(vals, oracle, atol=1e-10)
        np.testing.assert_allclose(vals[:9], np.ones(9), atol=1e-12)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(11), atol=1e-10)
        assert np.all(np.linalg.norm(M @ vecs - vecs * vals, axis=0) <= 1e-10)

    def test_arpack_deterministic_given_seed(self, monkeypatch):
        monkeypatch.setattr(linalg, "DENSE_EIGS_MAX_N", 3)
        M = normalized_adjacency(block_affinity(np.random.default_rng(2), [9, 14, 7]))
        a = partial_sym_eigs(M, count=5, seed=4)
        b = partial_sym_eigs(M, count=5, seed=4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_arpack_no_convergence_raises_eigsolver_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(linalg, "DENSE_EIGS_MAX_N", 3)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        M = normalized_adjacency(block_affinity(np.random.default_rng(0), [10]))
        with pytest.raises(EigsolverError, match="ARPACK did not converge"):
            partial_sym_eigs(M, count=2)


def scipy_block_diag(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    at = 0
    for b in blocks:
        out[at : at + b.shape[0], at : at + b.shape[0]] = b
        at += b.shape[0]
    return out
