import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import solve_pd, sorted_postprocess, ties_at_threshold, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from autospectral import affinity
from autospectral.affinity import (
    CandidateConfig,
    KernelSpec,
    build_coefficients,
    kernel_matrix,
    klsr_coefficients,
    lsr_coefficients,
    postprocess_affinity,
    rank_columns,
)
from autospectral.errors import DegenerateCandidateError, DegenerateDataError, NumericalError
from autospectral.synthetic import random_poly_curves, random_subspaces


def lsr_oracle(X, lam):
    """Column-by-column normal-equations solve of (X'X + lam I) c = X'X."""
    n = X.shape[1]
    G = X.T @ X
    cols = [solve_pd(G + lam * np.eye(n), G[:, j]) for j in range(n)]
    return np.stack(cols, axis=1)


class TestLsr:
    def test_identity_data(self):
        np.testing.assert_allclose(lsr_coefficients(np.eye(2), 1.0), 0.5 * np.eye(2), atol=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5, 8))
        C = lsr_coefficients(X, 0.1)
        np.testing.assert_allclose(C, lsr_oracle(X, 0.1), atol=1e-8)

    def test_primal_dual_agreement_tall(self):
        # tall 8x5 data against the m x m dual form
        rng = np.random.default_rng(1)
        X = rng.standard_normal((8, 5))
        C = lsr_coefficients(X, 0.5)
        dual = X.T @ solve_pd(0.5 * np.eye(8) + X @ X.T, X)
        assert np.max(np.abs(C - dual)) <= 1e-8

    @given(
        m=st.integers(2, 12),
        n=st.integers(2, 12),
        seed=st.integers(0, 500),
        duplicate=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_push_through_identity_all_shapes(self, m, n, seed, duplicate):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, n))
        if duplicate:
            X[:, -1] = X[:, 0]  # rank-deficient: X'X is singular
        lam = 0.3
        primal = solve_pd(X.T @ X + lam * np.eye(n), X.T @ X)
        dual = X.T @ solve_pd(lam * np.eye(m) + X @ X.T, X)
        assert np.max(np.abs(primal - dual)) <= 1e-8
        np.testing.assert_allclose(lsr_coefficients(X, lam), primal, atol=1e-8)

    def test_lam_validation(self):
        with pytest.raises(ValueError):
            lsr_coefficients(np.eye(3), 0.0)

    def test_svd_failure_raises_numerical_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(NumericalError, match="SVD did not converge"):
            lsr_coefficients(np.eye(3), 0.1)


def one_line_kernel_matrix(X, spec):
    """The kernel as one expression per kind, which holds up to three n x n
    arrays below numpy's temporary-elision size: the oracle for the
    in-place build."""
    n = X.shape[1]
    if spec.kind == "polynomial":
        return (X.T @ X + spec.offset) ** spec.degree
    sq = np.einsum("ij,ij->j", X, X)
    K = sq[:, None] + sq[None, :] - 2.0 * (X.T @ X)
    np.maximum(K, 0.0, out=K)
    K.flat[:: n + 1] = 0.0
    sigma = spec.xi * (np.sqrt(K).sum() / (n * n))
    np.negative(K, out=K)
    K /= 2.0 * sigma**2
    np.exp(K, out=K)
    return K


class TestKernelMatrix:
    def test_gaussian_identical_points_entry(self):
        X = np.array([[1.0, 1.0], [0.0, 0.0], [0.5, -0.5]]).T  # 2 x 3? keep simple below
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]).T
        K = kernel_matrix(X, KernelSpec("gaussian", xi=1.0))
        assert K[0, 1] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-15)

    def test_gaussian_analytic_value(self):
        # two points at distance 1: the mean over ordered pairs is
        # (0 + 1 + 1 + 0) / 4 = 1/2 = sigma, so the entry is exp(-1 / (2 sigma^2))
        K = kernel_matrix(np.array([[0.0, 1.0]]), KernelSpec("gaussian", xi=1.0))
        assert K[0, 1] == pytest.approx(math.exp(-2.0), rel=1e-15)

    @pytest.mark.parametrize("n", [300, 1500])
    def test_gaussian_matches_cdist_oracle(self, n):
        # the expanded squared distances carry no diagonal rounding into the
        # bandwidth's mean, so K agrees with the oracle to 3.7e-16 relative
        X = np.random.default_rng(n).standard_normal((20, n))
        D = cdist(X.T, X.T)
        sigma = 1.7 * D.mean()
        expected = np.exp(-(D**2) / (2.0 * sigma**2))
        K = kernel_matrix(X, KernelSpec("gaussian", xi=1.7))
        np.testing.assert_allclose(K, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [2, 9, 130, 150, 300, 1500])
    def test_gaussian_matches_whole_array_expression(self, n):
        # the bandwidth's sum of n^2 distances splits as numpy's pairwise
        # sum does: n = 2 sums 4 entries in one run, n = 9 in one 8-way
        # block, and from n = 130 on the split tree has one level or more
        # above kernel_matrix's blocks
        X = np.random.default_rng(n).standard_normal((5, n))
        for xi in (0.5, 1.0, 5.0):
            spec = KernelSpec("gaussian", xi=xi)
            assert np.array_equal(kernel_matrix(X, spec), one_line_kernel_matrix(X, spec))

    def test_blocked_sqrt_sum_follows_numpy_order(self):
        # a 128-entry buffer, the smallest allowed, splits every size above
        # it down numpy's pairwise tree
        a = np.random.default_rng(5).random(3000) * 1e3
        for size in list(range(1, 300)) + [1000, 1031, 2999, 3000]:
            want = np.sqrt(a[:size]).sum()
            assert affinity._sqrt_sum(a[:size], np.empty(128)) == want
            assert affinity._sqrt_sum(a[:size], np.empty(8192)) == want

    def test_gaussian_holds_one_array(self):
        # the squared distances, the bandwidth's square roots and the
        # kernel share K; the rest are blocks of 8192 entries (2.0 n^2
        # while the square roots took an n x n array of their own)
        X = np.random.default_rng(4).standard_normal((20, 2000))
        assert traced_peak(lambda: kernel_matrix(X, KernelSpec("gaussian")), unit=8.0 * 2000**2) < 1.2

    def test_polynomial_linear_case(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 6))
        K = kernel_matrix(X, KernelSpec("polynomial", offset=0.0, degree=1))
        np.testing.assert_allclose(K, X.T @ X, atol=1e-12)

    def test_degenerate_data(self):
        X = np.ones((3, 4))
        with pytest.raises(DegenerateDataError):
            kernel_matrix(X, KernelSpec("gaussian"))

    @pytest.mark.parametrize("kind", ["gaussian", "polynomial"])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_exactly_symmetric(self, kind, layout):
        # at n = 300, X'X of the strided view X[:, ::2] is not symmetric to
        # the last bit unless the view is copied contiguous first
        X = np.random.default_rng(9).standard_normal((30, 600))
        X = {"C": X[:, :300].copy(), "F": np.asfortranarray(X[:, :300]), "strided": X[:, ::2]}[layout]
        spec = KernelSpec(kind, offset=1.0, degree=3) if kind == "polynomial" else KernelSpec(kind)
        K = kernel_matrix(X, spec)
        assert np.array_equal(K, K.T)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", xi=0.0)
        with pytest.raises(ValueError):
            KernelSpec("polynomial", degree=0)
        with pytest.raises(ValueError):
            KernelSpec("sigmoid")
        # klsr with a linear kernel is lsr, so there is no linear kind
        with pytest.raises(ValueError):
            KernelSpec("linear")


class TestKlsr:
    def test_identity_kernel(self):
        np.testing.assert_allclose(klsr_coefficients(np.eye(3), 1.0), 0.5 * np.eye(3), atol=1e-10)

    def test_linear_kernel_equals_lsr(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 5))
        X /= np.linalg.norm(X, axis=0)
        C_lsr = lsr_coefficients(X, 0.2)
        C_klsr = klsr_coefficients(X.T @ X, 0.2)
        assert np.max(np.abs(C_lsr - C_klsr)) <= 1e-8

    def test_low_rank_path_matches_exact_on_exact_rank(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((8, 3))
        K = B @ B.T  # PSD of exact rank 3
        exact = klsr_coefficients(K, 0.5)
        approx = klsr_coefficients(K, 0.5, approx_rank=3, seed=0)
        assert np.max(np.abs(exact - approx)) <= 1e-6

    def test_indefinite_raises(self):
        K = np.diag([1.0, -0.5])
        with pytest.raises(NumericalError):
            klsr_coefficients(K, 1.0)

    def test_indefinite_raises_low_rank_path(self):
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        K = (Q * np.array([3.0, 2.0, -1.0] + [1e-12] * 7)) @ Q.T
        K = (K + K.T) / 2
        with pytest.raises(NumericalError):
            klsr_coefficients(K, 1.0, approx_rank=3, seed=0)

    @staticmethod
    def with_one_eigenvalue(last):
        # a positive diagonal, eigenvalues 1 down to 0.2 plus ``last``, and
        # entries within [-1, 1], so the tolerance is 1e-8 of scale 1
        Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((5, 5)))
        K = (Q * np.array([1.0, 0.6, 0.3, 0.2, last])) @ Q.T
        K = (K + K.T) / 2
        assert np.min(np.diag(K)) > 0.1 and np.max(np.abs(K)) <= 1.0
        return K

    def test_eigenvalue_past_the_tolerance_raises(self):
        with pytest.raises(NumericalError, match="indefinite beyond tolerance"):
            klsr_coefficients(self.with_one_eigenvalue(-2e-8), 0.1)

    def test_eigenvalue_within_the_tolerance_is_accepted(self):
        K = self.with_one_eigenvalue(-0.5e-8)
        C = klsr_coefficients(K, 0.1)
        assert np.max(np.abs(C - np.linalg.solve(K + 0.1 * np.eye(5), K))) <= 1e-8

    @pytest.mark.parametrize(
        "routine, failing_call, match",
        [
            ("dpotrf", 0, "indefinite beyond tolerance"),
            ("dpotrf", 1, "kernel factorization failed"),
            ("dpotri", 0, "kernel factorization failed"),
        ],
    )
    def test_factorization_failure_raises_numerical_error(self, monkeypatch, routine, failing_call, match):
        # the tolerance check's Cholesky factorization, then the one of
        # K + lam I and its inverse: LAPACK reporting failure in any of them
        real = getattr(affinity.lapack, routine)
        calls = []

        def failing(a, **kwargs):
            out, info = real(a, **kwargs)
            calls.append(routine)
            return out, 2 if len(calls) == failing_call + 1 else info

        monkeypatch.setattr(affinity.lapack, routine, failing)
        with pytest.raises(NumericalError, match=match):
            klsr_coefficients(np.eye(3), 1.0)

    @pytest.mark.parametrize("n", [150, 300])
    @pytest.mark.parametrize("spec", [KernelSpec("gaussian"), KernelSpec("polynomial", offset=0.5, degree=2)])
    def test_matches_solve_oracle(self, n, spec):
        rng = np.random.default_rng(n)
        X = rng.standard_normal((10, n))
        X /= np.linalg.norm(X, axis=0)
        K = kernel_matrix(X, spec)
        for lam in (1e-3, 0.1, 1.0):
            C = klsr_coefficients(K, lam)
            assert C.flags.c_contiguous and np.array_equal(C, C.T)
            assert np.array_equal(klsr_coefficients(np.asfortranarray(K), lam), C)
            assert np.max(np.abs(C - np.linalg.solve(K + lam * np.eye(n), K))) <= 1e-8


class TestBuildCoefficients:
    def test_lsr_dispatch(self):
        cfg = CandidateConfig(model="lsr", tau=1, lam=1.0)
        np.testing.assert_allclose(build_coefficients(np.eye(2), cfg), 0.5 * np.eye(2), atol=1e-12)

    def test_kernel_direct_identical_points(self):
        X = np.array([[1.0, 1.0], [0.0, 0.0]])
        # bandwidth zero -> degenerate data for duplicated-only points
        with pytest.raises(DegenerateDataError):
            build_coefficients(X, CandidateConfig(model="kernel_direct", tau=1, kernel=KernelSpec("gaussian")))
        # with one distinct pair duplicated the kernel entry of the pair is 1
        X = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        K = build_coefficients(X, CandidateConfig(model="kernel_direct", tau=1, kernel=KernelSpec("gaussian")))
        assert K[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_klsr_polynomial_matches_solve_oracle(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4, 6))
        X /= np.linalg.norm(X, axis=0)
        spec = KernelSpec("polynomial", offset=0.5, degree=2)
        cfg = CandidateConfig(model="klsr", tau=2, lam=0.3, kernel=spec)
        C = build_coefficients(X, cfg)
        K = kernel_matrix(X, spec)
        oracle = solve_pd(K + 0.3 * np.eye(6), K)
        assert np.max(np.abs(C - oracle)) <= 1e-8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CandidateConfig(model="klsr", tau=2, lam=0.1)  # kernel missing
        with pytest.raises(ValueError):
            CandidateConfig(model="lsr", tau=0, lam=0.1)
        with pytest.raises(ValueError):
            CandidateConfig(model="lsr", tau=2, lam=-1.0)


class TestPostprocess:
    def test_worked_two_by_two(self):
        C = np.array([[0.5, 0.2], [0.3, 0.7]])
        g = postprocess_affinity(C, tau=1)
        np.testing.assert_allclose(g.a.toarray(), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(g.degrees, [1.0, 1.0], atol=1e-15)

    def test_column_normalization_with_negatives(self):
        rng = np.random.default_rng(7)
        C = rng.standard_normal((5, 5))
        n = C.shape[0]
        W = np.abs(C.copy())
        np.fill_diagonal(W, 0.0)
        g = postprocess_affinity(C, tau=n - 1)
        A = g.a.toarray()
        assert np.all(A >= 0)
        np.testing.assert_allclose(A, A.T)
        # pre-symmetrization columns sum to 1: recover via A = (W+W')/2
        Wn = W / W.sum(axis=0, keepdims=True)
        np.testing.assert_allclose(A, (Wn + Wn.T) / 2, atol=1e-12)

    def test_truncation_counts(self):
        rng = np.random.default_rng(8)
        C = rng.standard_normal((6, 6))
        g = postprocess_affinity(C, tau=2)
        A = g.a.toarray()
        # brute-force oracle: recompute kept entries per column
        W = np.abs(C.copy())
        np.fill_diagonal(W, 0.0)
        for j in range(6):
            keep = np.argsort(-W[:, j], kind="stable")[:2]
            col = np.zeros(6)
            col[keep] = W[keep, j]
            col /= col.sum()
            W[:, j] = col
        np.testing.assert_allclose(A, (W + W.T) / 2, atol=1e-12)
        # each pre-symmetrization column carries exactly tau nonzeros, so the
        # symmetrized graph has at most 2 * tau * n nonzeros in total
        assert np.all((np.abs(C) * (1 - np.eye(6)) != 0).sum(axis=0) >= 2)
        assert np.all([np.count_nonzero(W[:, j]) == 2 for j in range(6)])
        assert np.count_nonzero(A) <= 4 * 6

    def test_tie_break_lowest_row_index(self):
        C = np.zeros((4, 4))
        C[1, 0] = 0.5
        C[2, 0] = 0.5  # tie: row 1 wins
        C[3, 0] = 0.1
        C[0, 1] = C[0, 2] = C[0, 3] = 1.0
        C[1, 2] = C[1, 3] = 0.5
        g = postprocess_affinity(C, tau=1)
        W = np.zeros((4, 4))
        W[1, 0] = 1.0
        W[0, 1] = W[0, 2] = W[0, 3] = 1.0
        np.testing.assert_allclose(g.a.toarray(), (W + W.T) / 2, atol=1e-15)

    def test_input_not_mutated(self):
        rng = np.random.default_rng(9)
        C = rng.standard_normal((5, 5))
        before = C.copy()
        postprocess_affinity(C, tau=2)
        assert np.array_equal(C, before)

    def test_zero_column_degenerate(self):
        C = np.eye(3)  # only diagonal mass -> all columns die
        with pytest.raises(DegenerateCandidateError):
            postprocess_affinity(C, tau=1)

    @given(n=st.integers(3, 8), tau=st.integers(1, 7), seed=st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_invariants_random(self, n, tau, seed):
        rng = np.random.default_rng(seed)
        C = rng.standard_normal((n, n)) + 0.1
        g = postprocess_affinity(C, tau=tau)
        A = g.a.toarray()
        assert np.all(np.diag(A) == 0.0)
        assert np.all(A >= 0.0)
        assert np.array_equal(A, A.T)
        np.testing.assert_allclose(g.degrees, A.sum(axis=1), atol=1e-15)
        assert np.all(g.degrees > 0)
        # column sums of the pre-symmetrization matrix are 1 each, so total mass is n/...
        assert A.sum() == pytest.approx(n * 1.0, abs=1e-9)


def assert_matches_sorted(C, tau, ranking=None):
    """postprocess_affinity of C, or of its ``ranking``, gives the
    stable-sort reference's degrees and CSR affinity bit for bit, or raises
    its degenerate reason."""
    source = C if ranking is None else ranking
    try:
        want = sorted_postprocess(C, tau)
    except DegenerateCandidateError as exc:
        with pytest.raises(DegenerateCandidateError) as got:
            postprocess_affinity(source, tau)
        assert str(got.value) == str(exc)
        return
    got = postprocess_affinity(source, tau)
    assert np.array_equal(got.degrees, want.degrees)
    assert np.array_equal(got.a.indptr, want.a.indptr)
    assert np.array_equal(got.a.indices, want.a.indices)
    assert np.array_equal(got.a.data, want.a.data)


class TestTruncationMatchesStableSort:
    def test_ties_from_duplicated_points(self):
        # duplicated points give equal rows of C, so every column ties
        rng = np.random.default_rng(11)
        X = rng.standard_normal((5, 10))
        X = np.hstack([X, X[:, :6]])
        n = X.shape[1]
        C = build_coefficients(X, CandidateConfig("lsr", tau=1, lam=0.1))
        C[10:] = C[:6]
        assert ties_at_threshold(C, 3)
        for tau in range(1, n + 2):
            assert_matches_sorted(C, tau)

    @given(n=st.integers(3, 9), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_small_integer_entries(self, n, seed):
        # entries in -3..3 tie often and leave some columns with fewer
        # nonzeros than tau; columns without off-diagonal mass are degenerate
        C = np.random.default_rng(seed).integers(-3, 4, (n, n)).astype(np.float64)
        for tau in range(1, n + 2):
            assert_matches_sorted(C, tau)

    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_integer_entries_across_row_blocks(self, seed):
        # truncation marks the columns of W a block at a time: ties, columns
        # with fewer nonzeros than tau and, in a later block, a column
        # without off-diagonal mass come out as in a single block
        rng = np.random.default_rng(seed)
        C = rng.integers(-3, 4, (100, 100)) * (rng.random((100, 100)) < 0.1)
        C = C.astype(np.float64)
        for tau in (1, 3, 8, 20):
            assert_matches_sorted(C, tau)
        C[:, 70] = 0.0
        C[70, 70] = 1.0
        assert_matches_sorted(C, 3)

    def test_boundary_levels(self):
        rng = np.random.default_rng(12)
        for n in (3, 4, 7, 20):
            C = rng.standard_normal((n, n))
            for tau in (1, 2, n - 2, n - 1, n):
                assert_matches_sorted(C, tau)

    def test_column_with_fewer_nonzeros_than_tau(self):
        C = np.random.default_rng(13).random((8, 8))
        C[:, 2] = 0.0
        C[[4, 6], 2] = 0.5
        assert np.count_nonzero(C[:, 2]) < 5
        for tau in (2, 3, 5, 6):
            assert_matches_sorted(C, tau)

    def test_degenerate_reasons(self):
        # a column without off-diagonal mass fails before truncation; column
        # sums that overflow to inf are named as such, on both sides of the
        # n - 1 cut, without numpy's overflow warning
        overflow = "the kept weights of a column overflow float64 when summed"
        for C, reason, taus in (
            (np.eye(4), "a column has no off-diagonal mass", (1, 2, 4)),
            (np.full((4, 4), 1e308), overflow, (2, 3, 4)),
        ):
            for tau in taus:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(DegenerateCandidateError, match=reason):
                        postprocess_affinity(C, tau)
                assert_matches_sorted(C, tau)

    def test_sum_overflow_only_where_kept_weights_overflow(self):
        # whole columns overflow, but one kept entry per column does not
        C = np.full((4, 4), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph = postprocess_affinity(C, 1)
        assert np.all(np.isfinite(graph.a.data)) and np.all(graph.degrees > 0)
        assert_matches_sorted(C, 1)

    def test_shared_thresholds_match_one_level(self):
        # one ranking at a grid's deepest level gives every level the
        # reference's graph, also where a level, the deepest included, cuts
        # through ties; depths of n - 1 and beyond rank whole columns
        rng = np.random.default_rng(14)
        ints = rng.integers(-2, 3, (12, 12)).astype(np.float64)
        X = rng.standard_normal((5, 10))
        dup = build_coefficients(np.hstack([X, X[:, :6]]), CandidateConfig("lsr", tau=1, lam=0.1))
        dup[10:] = dup[:6]
        for C, taus in (
            (ints, (1, 3, 5, 8)),
            (ints, (1, 3, 5, 10, 11, 12, 13)),
            (dup, (1, 2, 3, 5, 9)),
        ):
            assert max(taus) >= len(C) or ties_at_threshold(C, max(taus))
            ranking = rank_columns(C, max(taus))
            for tau in taus:
                assert_matches_sorted(C, tau, ranking)

    def test_shallow_ranking_refuses_a_deeper_level(self):
        ranking = rank_columns(np.random.default_rng(15).standard_normal((12, 12)), 3)
        with pytest.raises(ValueError, match=r"depth 3 cannot truncate to tau = 5"):
            postprocess_affinity(ranking, 5)


class TestKernelRankBound:
    def test_polynomial_curve_rank_bound(self):
        # noiseless degree-2 curves, polynomial kernel q=2, intrinsic dim 1:
        # numerical rank of K is at most k * C(1 + p*q, p*q)
        k, p, q = 2, 2, 2
        X, _ = random_poly_curves(k=k, ambient_dim=10, degree=p, per_cluster=40, seed=0, normalize=False)
        K = kernel_matrix(X, KernelSpec("polynomial", offset=1.0, degree=q))
        s = np.linalg.svd(K, compute_uv=False)
        numerical_rank = int(np.sum(s > 1e-8 * s[0]))
        assert numerical_rank <= k * math.comb(1 + p * q, p * q)


class TestLocalityBound:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_single_column_regression_coefficient_gap(self, seed):
        # one-column kernel ridge, min_c ||phi(y) - Phi c||^2 + lam ||c||^2:
        # its optimality condition lam c = Phi' r, with residual
        # r = phi(y) - Phi c, gives |c_i - c_j| <= ||phi_i - phi_j|| ||r|| / lam
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((3, 8))
        y = rng.standard_normal(3)
        sigma = 1.3
        sq = ((X[:, :, None] - X[:, None, :]) ** 2).sum(axis=0)
        K = np.exp(-sq / (2 * sigma**2))
        ky = np.exp(-((X - y[:, None]) ** 2).sum(axis=0) / (2 * sigma**2))
        lam = 0.4
        c = np.linalg.solve(K + lam * np.eye(8), ky)
        r_norm = math.sqrt(max(1.0 - 2.0 * c @ ky + c @ K @ c, 0.0))
        for i in range(8):
            for j in range(8):
                dist = math.sqrt(max(2.0 - 2.0 * math.exp(-sq[i, j] / (2 * sigma**2)), 0.0))
                assert abs(c[i] - c[j]) <= dist * r_norm / lam + 1e-12


def summed_column_graph(ranking, tau):
    """(W + W')/2 of a ranking's level tau as scipy's sum and division give
    it: the oracle for ``_column_graph``'s trimmed, halved copies."""
    n, kept = ranking.n, slice(None) if tau == ranking.depth else ranking.rank < tau
    cols = ranking.cols[kept]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
    wt = sp.csr_matrix((ranking.values[kept], ranking.rows[kept], indptr), shape=(n, n))
    wt.data = wt.data / (wt @ np.ones(n))[cols]
    return (wt + wt.T) / 2.0


MODEL_CONFIGS = (
    CandidateConfig("lsr", tau=1, lam=0.1),
    CandidateConfig("klsr", tau=1, lam=0.1, kernel=KernelSpec("gaussian")),
    CandidateConfig("kernel_direct", tau=1, kernel=KernelSpec("gaussian")),
)


def model_coefficients(n, configs=MODEL_CONFIGS):
    """Each config's C on n points of three noisy subspaces."""
    X, _ = random_subspaces(k=3, ambient_dim=30, intrinsic_dim=4, per_cluster=n // 3, noise_std=0.3, seed=0)
    return [build_coefficients(X, config) for config in configs]


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None or isinstance(w, int):
            assert g == w
        else:
            assert g.dtype == w.dtype and np.array_equal(g, w)


class TestOwningPaths:
    """A matrix that the search hands over is overwritten in place; every
    result equals the copying path's bit for bit, and a caller's array is
    never written."""

    @staticmethod
    def matrices():
        rng = np.random.default_rng(21)
        X = rng.standard_normal((5, 10))
        dup = build_coefficients(np.hstack([X, X[:, :6]]), CandidateConfig("lsr", tau=1, lam=0.1))
        dup[10:] = dup[:6]
        out = [rng.integers(-2, 3, (12, 12)).astype(np.float64), dup]
        out += [rng.standard_normal((n, n)) for n in (2, 63, 64, 65, 129, 200)]
        return out + model_coefficients(150)

    def test_abs_transpose_in_place(self):
        for C in self.matrices():
            B = C.copy()
            affinity._abs_transpose(B)
            assert np.array_equal(B, np.abs(C.T))

    def test_handed_ranking_matches_a_callers(self):
        for C in self.matrices():
            before = C.copy()
            for depth in (1, 5, len(C) - 1, len(C) + 3):
                want = rank_columns(C, depth)
                assert np.array_equal(C, before)
                handed = C.copy()
                got = rank_columns(handed.view(affinity._Handed), depth)
                assert_same_arrays(got, want)
                assert want.cols.dtype == want.rows.dtype == np.int32
                # truncation worked in the handed matrix: it holds W'
                W = np.abs(C.T)
                np.fill_diagonal(W, 0.0)
                assert np.array_equal(handed, W)

    def test_handed_graph_matches_a_callers(self):
        for C in self.matrices():
            before = C.copy()
            for tau in (1, 5, len(C) - 1):
                try:
                    want = postprocess_affinity(C, tau)
                except DegenerateCandidateError as exc:
                    with pytest.raises(DegenerateCandidateError, match=str(exc)):
                        postprocess_affinity(C.copy().view(affinity._Handed), tau)
                    continue
                got = postprocess_affinity(C.copy().view(affinity._Handed), tau)
                assert np.array_equal(C, before)
                assert_same_arrays(
                    (got.a.data, got.a.indices, got.a.indptr, got.degrees),
                    (want.a.data, want.a.indices, want.a.indptr, want.degrees),
                )

    @pytest.mark.parametrize("approx_rank", [None, 20])
    def test_klsr_in_place_matches_a_copy(self, approx_rank):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((8, 150))
        for spec in (KernelSpec("gaussian", xi=0.5), KernelSpec("polynomial", offset=1.0, degree=2)):
            K = kernel_matrix(X, spec)
            before = K.copy()
            for lam in (0.01, 1.0):
                want = klsr_coefficients(K, lam, approx_rank=approx_rank, seed=3)
                assert np.array_equal(K, before)
                Ks = K.copy()
                got = klsr_coefficients(Ks.view(affinity._Handed), lam, approx_rank=approx_rank, seed=3)
                assert np.array_equal(got, want)
                if approx_rank is None:
                    # solved in the handed matrix
                    assert np.shares_memory(got, Ks)
            config = CandidateConfig("klsr", tau=1, lam=0.1, kernel=spec, approx_rank=approx_rank)
            want = klsr_coefficients(K, 0.1, approx_rank=approx_rank, seed=0)
            assert np.array_equal(build_coefficients(X, config), want)

    @pytest.mark.parametrize("n", [150, 400])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_kernel_matrix_matches_one_line_expression(self, n, layout):
        # n = 150 is below numpy's temporary-elision size, n = 400 above it
        X = np.random.default_rng(n).standard_normal((20, n))
        X = np.asfortranarray(X) if layout == "F" else X
        specs = [KernelSpec("gaussian", xi=1.0), KernelSpec("gaussian", xi=0.5)]
        specs += [KernelSpec("polynomial", offset=o, degree=q) for o in (0.0, 1.0) for q in (1, 2, 3)]
        for spec in specs:
            assert np.array_equal(kernel_matrix(X, spec), one_line_kernel_matrix(X, spec))

    @pytest.mark.parametrize("n", [150, 2000])
    @pytest.mark.parametrize("config", MODEL_CONFIGS, ids=lambda c: c.model)
    def test_column_graph_matches_summed_halves(self, n, config):
        # a ranking at depth 50 serves level 50 whole and level 5 by mask
        ranking = rank_columns(model_coefficients(n, (config,))[0], 50)
        for tau in (5, 50):
            got, want = affinity._column_graph(ranking, tau), summed_column_graph(ranking, tau)
            assert_same_arrays((got.data, got.indices, got.indptr), (want.data, want.indices, want.indptr))
            # trimmed copies: no view keeps the sum's larger arrays alive
            for a in (got.data, got.indices):
                assert (a if a.base is None else a.base).size == got.nnz
