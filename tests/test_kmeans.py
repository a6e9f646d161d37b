import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import autospectral
import autospectral.kmeans as kmeans_module
from autospectral.kmeans import Partition, kmeans, kmeans_centers, lloyd_iterations
from autospectral.metrics import clustering_accuracy
from conftest import traced_peak


def two_blobs(rng, per=30, sep=10.0, dim=3, spread=0.5):
    a = rng.standard_normal((dim, per)) * spread
    b = rng.standard_normal((dim, per)) * spread
    b[0] += sep
    X = np.hstack([a, b])
    labels = np.repeat([1, 2], per)
    return X, labels


def test_separated_blobs_exact():
    rng = np.random.default_rng(0)
    X, labels = two_blobs(rng)
    p = kmeans(X, 2, seed=1)
    truth = Partition(labels=labels, k=2)
    assert clustering_accuracy(p, truth) == 1.0


def test_k_equals_n_zero_inertia():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((2, 7))
    p = kmeans(X, 7, seed=0)
    assert p.inertia == pytest.approx(0.0, abs=1e-12)
    assert len(np.unique(p.labels)) == 7


def test_deterministic_given_seed():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((4, 40))
    p1 = kmeans(X, 3, seed=5)
    p2 = kmeans(X, 3, seed=5)
    assert np.array_equal(p1.labels, p2.labels)
    assert p1.inertia == p2.inertia


def test_inertia_history_non_increasing():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((3, 60))
    for s in range(5):
        _, _, _, history = lloyd_iterations(X.T.copy(), 4, np.random.default_rng(s))
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


def test_restarts_never_worse_than_single_runs():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((2, 50))
    best = kmeans(X, 5, seed=9).inertia
    P = X.T.copy()
    singles = []
    for child in np.random.SeedSequence(9).spawn(10):
        _, _, inertia, _ = lloyd_iterations(P, 5, np.random.default_rng(child))
        singles.append(inertia)
    assert best <= min(singles) + 1e-12
    assert best == pytest.approx(min(singles), abs=1e-12)


def test_label_permutation_leaves_inertia_unchanged():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, 30))
    p = kmeans(X, 3, seed=2)
    # recompute inertia under a relabeling: centers permute with labels
    perm = np.array([3, 1, 2])
    relabeled = perm[p.labels - 1]
    inertia = 0.0
    for j in range(1, 4):
        pts = X[:, relabeled == j]
        inertia += ((pts - pts.mean(axis=1, keepdims=True)) ** 2).sum()
    reference = 0.0
    for j in range(1, 4):
        pts = X[:, p.labels == j]
        reference += ((pts - pts.mean(axis=1, keepdims=True)) ** 2).sum()
    assert inertia == pytest.approx(reference, abs=1e-12)


def test_every_cluster_nonempty():
    rng = np.random.default_rng(6)
    # many duplicated points force empty-cluster repairs
    X = np.repeat(rng.standard_normal((2, 4)), 10, axis=1)
    p = kmeans(X, 4, seed=0)
    assert len(np.unique(p.labels)) == 4


def test_k_validation():
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 3)), 4)
    with pytest.raises(ValueError):
        kmeans_centers(np.zeros((2, 3)), 4)


def test_submodule_import_binds_module():
    assert isinstance(kmeans_module, types.ModuleType)
    assert kmeans_module.kmeans is kmeans


class TestCenters:
    def test_centers_equal_points_when_k_is_n(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((3, 6))
        centers = kmeans_centers(X, 6, seed=0)
        # centers are the points themselves, in some order
        d = ((X[:, :, None] - centers[:, None, :]) ** 2).sum(axis=0)
        assert d.min(axis=0).max() <= 1e-20

    def test_two_blob_centers_near_means(self):
        rng = np.random.default_rng(8)
        X, labels = two_blobs(rng, per=100, spread=0.4)
        centers = kmeans_centers(X, 2, seed=3)
        for j in (1, 2):
            mean = X[:, labels == j].mean(axis=1)
            dist = np.linalg.norm(centers - mean[:, None], axis=0).min()
            assert dist <= 3 * 0.4

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((2, 20))
        assert np.array_equal(kmeans_centers(X, 4, seed=11), kmeans_centers(X, 4, seed=11))

    def test_memory_ceiling(self):
        # the landmark workload's shape, C-ordered, so its rows are copied
        # once (2.88 MB); one distance product over all 6000 rows would hold
        # 6000 x 300 entries (14.4 MB), and 480-row blocks hold 1.15 MB
        X = np.random.default_rng(11).standard_normal((60, 6000))
        assert traced_peak(lambda: kmeans_centers(X, 300, seed=1)) < 5.5e6

    def test_landmark_shape_bound_by_the_seeding_sample(self):
        # F-ordered, as the loaders return X: the k-means++ sample of 3000
        # rows (1.44 MB) sets the peak, and the Lloyd steps' block buffer
        # (1.15 MB) with its tiles stays below it; 2.08 MB measured while
        # _assign kept doubled centers, an n x 2 norm array and 256 KiB tiles
        X = np.asfortranarray(np.random.default_rng(13).standard_normal((60, 6000)))
        assert traced_peak(lambda: kmeans_centers(X, 300, seed=1)) < 1.85e6

    def test_reads_f_ordered_x_in_place(self):
        # X dominates this shape: a copy of it alone would be X.nbytes
        X = np.random.default_rng(12).standard_normal((6000, 200)).T
        before = X.copy()
        assert traced_peak(lambda: kmeans_centers(X, 50, seed=1)) < X.nbytes / 2
        assert np.array_equal(X, before)

    @pytest.mark.parametrize("n, k", [(400, 6), (40, 5), (60, 6)], ids=["subsample", "all-rows", "10k-equals-n"])
    def test_matches_reference_rule(self, n, k):
        data = np.random.default_rng([n, k])
        X = data.standard_normal((3, n)) + 2.0 * data.integers(0, 4, size=(1, n))
        for seed in (0, 11):
            np.testing.assert_allclose(
                kmeans_centers(X, k, seed=seed), _ref_centers(X, k, seed, 5)[1].T, rtol=0, atol=1e-12
            )
            for max_iters in (1, 2, 5, 300):
                rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
                labels, centers, inertia, history = lloyd_iterations(
                    X.T.copy(), k, rng, max_iters, seed_rows=10 * k
                )
                ref_labels, ref_centers, ref_inertia, ref_history = _ref_centers(X, k, seed, max_iters)
                assert np.array_equal(labels, ref_labels)
                np.testing.assert_allclose(centers, ref_centers, rtol=0, atol=1e-12)
                # one inertia per Lloyd step plus the final one
                assert history == ref_history
                assert history[-1] == inertia == ref_inertia

    def test_lloyd_steps_capped(self):
        # Lloyd needs more than 5 steps here, so the default cap binds
        X = np.random.default_rng(13).standard_normal((2, 600))
        assert len(_ref_centers(X, 20, 0, 300)[3]) > 7
        _, ref_centers, _, ref_history = _ref_centers(X, 20, 0, 5)
        assert len(ref_history) == 6
        np.testing.assert_allclose(kmeans_centers(X, 20, seed=0), ref_centers.T, rtol=0, atol=1e-12)


def test_partition_from_labels_contiguous():
    p = Partition.from_labels([10, 10, 3, 7])
    assert p.k == 3
    assert np.array_equal(p.labels, [3, 3, 1, 2])


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(labels=np.array([0, 1]), k=2)
    with pytest.raises(ValueError):
        Partition(labels=np.array([1, 3]), k=2)


# Reference Lloyd loop: full distance matrices, one mean per center.
def _ref_sq_dists(P, centers):
    g = P @ centers.T
    pn = np.einsum("ij,ij->i", P, P)
    cn = np.einsum("ij,ij->i", centers, centers)
    return np.maximum(pn[:, None] + cn[None, :] - 2.0 * g, 0.0)


def _ref_kmeanspp(P, k, rng):
    n = P.shape[0]
    centers = np.empty((k, P.shape[1]))
    centers[0] = P[int(rng.integers(0, n))]
    closest = _ref_sq_dists(P, centers[:1])[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = int(rng.choice(n, p=closest / total))
        else:
            taken = {tuple(c) for c in centers[:j]}
            idx = next((i for i in range(n) if tuple(P[i]) not in taken), j % n)
        centers[j] = P[idx]
        closest = np.minimum(closest, _ref_sq_dists(P, centers[j : j + 1])[:, 0])
    return centers


def _ref_assign(P, centers, k):
    d2 = _ref_sq_dists(P, centers)
    labels = np.argmin(d2, axis=1)
    mind2 = d2[np.arange(P.shape[0]), labels]
    counts = np.bincount(labels, minlength=k)
    for e in np.flatnonzero(counts == 0):
        far = int(np.argmax(mind2))
        counts[labels[far]] -= 1
        centers[e] = P[far]
        labels[far] = e
        counts[e] = 1
        mind2[far] = 0.0
    return labels, mind2


def _ref_lloyd(P, k, rng, max_iters=300, tol=1e-6, seed_points=None):
    centers = _ref_kmeanspp(P if seed_points is None else seed_points, k, rng)
    history = []
    for _ in range(max_iters):
        labels, mind2 = _ref_assign(P, centers, k)
        history.append(float(mind2.sum()))
        new_centers = centers.copy()
        for j in range(k):
            members = labels == j
            if np.any(members):
                new_centers[j] = P[members].mean(axis=0)
        shift = np.max(np.linalg.norm(new_centers - centers, axis=1))
        centers = new_centers
        if shift < tol:
            break
    labels, mind2 = _ref_assign(P, centers, k)
    history.append(float(mind2.sum()))
    return labels, centers, float(mind2.sum()), history


def _ref_centers(X, k, seed, max_iters):
    """Landmark k-means written out: k-means++ on min(n, 10 k) columns of X
    drawn without replacement from the first spawned stream of ``seed``,
    then at most ``max_iters`` Lloyd steps on all columns."""
    P = X.T.copy()
    n = P.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    seed_points = P if 10 * k >= n else P[rng.choice(n, 10 * k, replace=False)]
    return _ref_lloyd(P, k, rng, max_iters, seed_points=seed_points)


def _duplicates(rng, m):
    # 6 distinct points, 12 copies each: k = 8 forces coinciding seeds,
    # tied distances and empty-cluster repairs
    return np.repeat(rng.standard_normal((6, m)), 12, axis=0), 8


def _case(name, m, rng):
    if name == "duplicates":
        return _duplicates(rng, m)
    n, k = {"k1": (53, 1), "kn": (23, 23), "blobs": (157, 6)}[name]
    return rng.standard_normal((n, m)) + 3.0 * rng.integers(0, 3, size=(n, 1)), k


CASES = ("k1", "kn", "blobs", "duplicates")


@pytest.mark.parametrize("tile", [None, 40])
@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("m", [1, 2, 3, 17])
def test_lloyd_matches_reference_loop(name, m, tile, monkeypatch):
    # tile=40 cuts the assignment into blocks of 40 // k rows; every case
    # but k = n ends in a partial block
    if tile is not None:
        monkeypatch.setattr(kmeans_module, "_TILE", tile)
    rng = np.random.default_rng([m, len(name)])
    P, k = _case(name, m, rng)
    for s in range(3):
        labels, centers, inertia, history = lloyd_iterations(P, k, np.random.default_rng(s))
        ref_labels, ref_centers, ref_inertia, ref_history = _ref_lloyd(P, k, np.random.default_rng(s))
        assert np.array_equal(labels, ref_labels)
        if m == 1:
            # numpy's mean sums a single coordinate pairwise, not in index order
            np.testing.assert_allclose(history, ref_history, rtol=0, atol=1e-12)
        else:
            assert history == ref_history
            assert inertia == ref_inertia
        np.testing.assert_allclose(centers, ref_centers, rtol=0, atol=1e-12)


def test_duplicates_case_repairs_empty_clusters():
    # the reference loop really hits the repair branch on the duplicates case
    P, k = _duplicates(np.random.default_rng(0), 2)
    centers = _ref_kmeanspp(P, k, np.random.default_rng(0))
    counts = np.bincount(np.argmin(_ref_sq_dists(P, centers), axis=1), minlength=k)
    assert np.any(counts == 0)


# _assign's blocked distance product against one product over all rows.
# Bit identity is a property of one BLAS thread (threaded BLAS splits the
# one-pass product by its size), so the comparison runs in a child pinned to
# one thread.
_ONE_PASS_CHECK = """
import json, sys
import numpy as np
from autospectral.kmeans import _assign, _sq_norms
out = []
for n, k, m in json.loads(sys.argv[1]):
    rng = np.random.default_rng([n, k, m])
    P = rng.standard_normal((n, m))
    C = rng.standard_normal((k, m))
    pn = _sq_norms(P)
    d2 = np.column_stack((pn, np.ones(n))) @ np.vstack((np.ones(k), _sq_norms(C)))
    d2 -= P @ (2.0 * C).T
    np.maximum(d2, 0.0, out=d2)
    ref = np.argmin(d2, axis=1)
    labels, mind2 = _assign(P, pn, C)
    out.append([bool(np.array_equal(labels, ref)), bool(np.array_equal(mind2, d2[np.arange(n), ref]))])
print(json.dumps(out))
"""

_B = kmeans_module._BLOCK
# (n, k, m) -> (blocks, whether the last overlaps the one before). k = 4 and
# 300 hit the k % 8 == 4 column tail. A last block of 1 row, or of r rows
# with r * k <= 1200, would take another BLAS path on its own, so at small k
# it takes the remainder of 960-row blocks; at k = 300 and 1000, 480-row
# blocks end in one that starts on a multiple of 48 and overlaps the block
# before. k = 1 needs 1248-row blocks, k = 2 keeps 960 above its 624.
ONE_PASS_SHAPES = {
    **{(2 * _B + 120, k, m): (2, False) for k in (4, 10) for m in (10, 60)},
    **{(2 * _B + 120, k, m): (5, True) for k in (300, 1000) for m in (10, 60)},
    (2 * _B + 1, 10, 60): (2, False),
    (2 * _B + 600, 2, 60): (2, False),
    (3 * _B, 4, 60): (3, False),
    (6000, 10, 60): (6, False),  # the landmark path's final k-means
    (6000, 300, 60): (13, True),  # its landmark k-means
    (528, 300, 60): (2, True),
    (479, 300, 60): (1, False),  # below one block
    (481, 300, 60): (1, False),  # a row above one block: still one
    (_B + 1, 10, 60): (1, False),
    (2 * 1248 + 120, 1, 60): (2, False),
    (3 * _B + 47, 2, 10): (3, False),
}


@pytest.fixture(scope="module")
def one_pass_results():
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(autospectral.__file__).parents[1]),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    args = [sys.executable, "-c", _ONE_PASS_CHECK, json.dumps(list(ONE_PASS_SHAPES))]
    out = subprocess.run(args, env=env, capture_output=True, text=True, check=True)
    return dict(zip(ONE_PASS_SHAPES, json.loads(out.stdout)))


@pytest.mark.parametrize("shape", ONE_PASS_SHAPES, ids=lambda s: "n%d-k%d-m%d" % s)
def test_blocked_assign_bit_identical_to_one_pass(shape, one_pass_results):
    starts, ends = zip(*kmeans_module._blocks(*shape[:2]))
    assert (len(starts), starts[-1] < max(ends[:-1], default=0)) == ONE_PASS_SHAPES[shape]
    labels_equal, mind2_equal = one_pass_results[shape]
    assert labels_equal
    assert mind2_equal


def test_block_bounds():
    # k = 10 keeps 960-row blocks and puts the remainder in the last; k = 300
    # runs 480-row blocks, the last starting at the largest multiple of 48
    # at or below n - 480; k = 1 needs blocks of more than 1200 rows
    blocks = kmeans_module._blocks
    assert blocks(6000, 10) == [(s, s + 960) for s in range(0, 4800, 960)] + [(4800, 6000)]
    assert blocks(6000, 300) == [(s, s + 480) for s in range(0, 5281, 480)] + [(5520, 6000)]
    assert blocks(2616, 1) == [(0, 1248), (1248, 2616)]


def test_assign_buffer_ceiling():
    # the landmark k-means shape: one 480-row buffer of 300 products
    # (1.15 MB), 64 KiB tiles and a few n-long arrays (1.32 MB measured;
    # 1.76 MB with a doubled copy of the centers, an n x 2 norm array and
    # 256 KiB tiles); a last block that took the 1200-row remainder would
    # need a 2.88 MB buffer
    rng = np.random.default_rng(14)
    P, C = rng.standard_normal((6000, 60)), rng.standard_normal((300, 60))
    pn = kmeans_module._sq_norms(P)
    assert traced_peak(lambda: kmeans_module._assign(P, pn, C)) < 1.4e6
