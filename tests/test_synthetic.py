import numpy as np
import pytest

from autospectral.synthetic import random_poly_curves, random_subspaces


def principal_angles(B1, B2):
    """Oracle: angles between subspaces from the SVD of B1' B2."""
    s = np.linalg.svd(B1.T @ B2, compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))


class TestSubspaces:
    def test_inter_subspace_angles_positive(self):
        X, labels = random_subspaces(k=3, ambient_dim=30, intrinsic_dim=3, per_cluster=50, seed=0)
        bases = []
        for j in (1, 2, 3):
            block = X[:, labels == j]
            U, s, _ = np.linalg.svd(block, full_matrices=False)
            bases.append(U[:, :3])
        for i in range(3):
            for j in range(i + 1, 3):
                assert principal_angles(bases[i], bases[j]).min() > 1e-3

    def test_noiseless_points_lie_in_three_dim_span(self):
        X, labels = random_subspaces(k=3, ambient_dim=30, intrinsic_dim=3, per_cluster=50, seed=1)
        for j in (1, 2, 3):
            s = np.linalg.svd(X[:, labels == j], compute_uv=False)
            assert s[3] <= 1e-10

    def test_unit_columns(self):
        X, _ = random_subspaces(k=2, ambient_dim=10, intrinsic_dim=2, per_cluster=20, seed=2)
        np.testing.assert_allclose(np.linalg.norm(X, axis=0), 1.0, atol=1e-12)

    def test_deterministic(self):
        a = random_subspaces(k=2, ambient_dim=8, intrinsic_dim=2, per_cluster=5, seed=5)
        b = random_subspaces(k=2, ambient_dim=8, intrinsic_dim=2, per_cluster=5, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            random_subspaces(k=4, ambient_dim=10, intrinsic_dim=3, per_cluster=5)


class TestPolyCurves:
    def test_shapes_and_labels(self):
        X, labels = random_poly_curves(k=2, ambient_dim=10, degree=2, per_cluster=40, seed=0)
        assert X.shape == (10, 80)
        assert list(np.unique(labels)) == [1, 2]

    def test_unnormalized_points_follow_curve(self):
        # with normalize=False each cluster block has rank <= degree + 1
        X, labels = random_poly_curves(
            k=2, ambient_dim=10, degree=2, per_cluster=40, seed=1, normalize=False
        )
        for j in (1, 2):
            s = np.linalg.svd(X[:, labels == j], compute_uv=False)
            assert s[3] <= 1e-10 * s[0]

    def test_deterministic(self):
        a = random_poly_curves(k=2, ambient_dim=6, degree=3, per_cluster=7, seed=9)
        b = random_poly_curves(k=2, ambient_dim=6, degree=3, per_cluster=7, seed=9)
        assert np.array_equal(a[0], b[0])

