import math

import numpy as np
import pytest

from autospectral import netembed
from autospectral.errors import TrainingDivergedError
from autospectral.kmeans import Partition, kmeans
from autospectral.metrics import clustering_accuracy
from autospectral.netembed import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    MLPParams,
    NetConfig,
    _embed,
    landmark_cluster,
    net_forward,
    net_loss_and_grad,
    net_train,
)
from autospectral.search import SEARCH_MAX_N, ModelSpec, SearchSpace, default_search_space
from autospectral.synthetic import random_subspaces
from conftest import traced_peak


def random_params(rng, m, d, k):
    return MLPParams(
        w1=rng.standard_normal((d, m)),
        b1=rng.standard_normal(d),
        w2=rng.standard_normal((k, d)),
        b2=rng.standard_normal(k),
    )


def numerical_grad(params, X, Z, ridge, name, h=1e-6):
    """Central finite differences on one parameter block."""
    base = np.asarray(getattr(params, name), dtype=np.float64)
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        for sign in (1.0, -1.0):
            bumped = base.copy()
            bumped[idx] += sign * h
            p = MLPParams(**{**{n: getattr(params, n) for n in ("w1", "b1", "w2", "b2")}, name: bumped})
            loss, _ = net_loss_and_grad(p, X, Z, ridge)
            grad[idx] += sign * loss / (2.0 * h)
        it.iternext()
    return grad


class TestLossAndGrad:
    def test_all_zero(self):
        params = MLPParams(w1=np.zeros((3, 4)), b1=np.zeros(3), w2=np.zeros((2, 3)), b2=np.zeros(2))
        X = np.random.default_rng(0).standard_normal((4, 6))
        loss, grads = net_loss_and_grad(params, X, np.zeros((2, 6)), ridge=0.5)
        assert loss == 0.0
        for name in ("w1", "b1", "w2", "b2"):
            assert np.all(getattr(grads, name) == 0.0)

    def test_finite_difference_all_blocks(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            m, s, d, k = 4, 6, 3, 2
            params = random_params(rng, m, d, k)
            X = rng.standard_normal((m, s))
            Z = rng.standard_normal((k, s))
            ridge = float(rng.random() * 0.5)
            _, grads = net_loss_and_grad(params, X, Z, ridge)
            for name in ("w1", "b1", "w2", "b2"):
                num = numerical_grad(params, X, Z, ridge, name)
                got = np.asarray(getattr(grads, name))
                denom = max(np.max(np.abs(num)), 1e-8)
                assert np.max(np.abs(got - num)) / denom < 1e-5

    def test_huge_ridge_dominates(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, 4, 3, 2)
        X = rng.standard_normal((4, 6))
        Z = rng.standard_normal((2, 6))
        _, grads = net_loss_and_grad(params, X, Z, ridge=1e12)
        np.testing.assert_allclose(grads.w1, 1e12 * params.w1, rtol=1e-6)
        np.testing.assert_allclose(grads.w2, 1e12 * params.w2, rtol=1e-6)

    def test_relu_subgradient_zero_at_kink(self):
        # a pre-activation exactly at 0 contributes no gradient through relu
        params = MLPParams(w1=np.zeros((2, 2)), b1=np.zeros(2), w2=np.ones((1, 2)), b2=np.zeros(1))
        X = np.ones((2, 3))
        Z = np.ones((1, 3))
        _, grads = net_loss_and_grad(params, X, Z, ridge=0.0)
        assert np.all(grads.w1 == 0.0) and np.all(grads.b1 == 0.0)


class TestForward:
    def test_zero_params_give_bias(self):
        params = MLPParams(w1=np.zeros((3, 2)), b1=np.zeros(3), w2=np.zeros((2, 3)), b2=np.array([1.5, -0.5]))
        X = np.random.default_rng(3).standard_normal((2, 5))
        Z = net_forward(params, X)
        np.testing.assert_allclose(Z, np.tile([[1.5], [-0.5]], 5))

    def test_identity_on_nonnegative_input(self):
        params = MLPParams(w1=np.eye(3), b1=np.zeros(3), w2=np.eye(3), b2=np.zeros(3))
        X = np.abs(np.random.default_rng(4).standard_normal((3, 7)))
        np.testing.assert_allclose(net_forward(params, X), X)

    def test_scalar_recomputation_oracle(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, 3, 4, 2)
        X = rng.standard_normal((3, 5))
        Z = net_forward(params, X)
        for col in range(5):
            for row in range(2):
                acc = params.b2[row]
                for h in range(4):
                    pre = params.b1[h]
                    for i in range(3):
                        pre += params.w1[h, i] * X[i, col]
                    acc += params.w2[row, h] * max(pre, 0.0)
                assert Z[row, col] == pytest.approx(acc, rel=1e-12)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_blocks_bit_identical_to_one_pass(self, activation):
        # hidden 200 embeds 256 columns a block: 11 full blocks and a partial 184
        rng = np.random.default_rng(6)
        params = random_params(rng, 60, 200, 10)
        X = rng.standard_normal((60, 3000))
        assert np.array_equal(net_forward(params, X, activation), _embed(params, X, activation))

    def test_memory_ceiling(self):
        # the landmark workload's shape; one pass held two 200 x 6000 arrays
        # and peaked at 19.7 MB, 1280-column blocks at 4.7 MB, and 256-column
        # blocks with a second hidden x block array at 1.37 MB
        rng = np.random.default_rng(7)
        params = random_params(rng, 60, 200, 10)
        X = rng.standard_normal((60, 6000))
        assert traced_peak(lambda: net_forward(params, X)) < 2e6


class TestNetConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("lr", math.nan), ("ridge", math.nan), ("lr", math.inf), ("ridge", math.inf), ("lr", 0.0), ("ridge", -1e-5)],
    )
    def test_rate_and_ridge_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            NetConfig(**{field: value})


class TestTrain:
    def test_deterministic(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4, 30))
        Z = rng.standard_normal((2, 30))
        cfg = NetConfig(hidden=8, epochs=5, batch_size=10, seed=7)
        p1, l1 = net_train(X, Z, cfg)
        p2, l2 = net_train(X, Z, cfg)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(p1, name), getattr(p2, name))
        assert np.array_equal(l1, l2)

    def test_linear_target_loss_collapses(self):
        rng = np.random.default_rng(7)
        m, s, k = 5, 60, 3
        X = np.abs(rng.standard_normal((m, s)))  # nonnegative keeps relu active
        Q = rng.standard_normal((k, m))
        Z = Q @ X
        cfg = NetConfig(hidden=16, ridge=0.0, epochs=400, batch_size=20, lr=3e-3, seed=0)
        _, losses = net_train(X, Z, cfg)
        assert losses[-1] <= 0.01 * losses[0]

    def test_memory_ceiling(self):
        # the landmark workload's shape: 300 landmarks in 60 dimensions and
        # a 10-dimensional embedding. The epoch's full-batch loss holds one
        # 200 x 300 hidden array (0.48 MB) and each batch one 200 x 128;
        # 1.59 MB measured when the pre-activation, the activation and the
        # backward pass's products each took their own array
        rng = np.random.default_rng(8)
        X, Z = rng.standard_normal((60, 300)), rng.standard_normal((10, 300))
        assert traced_peak(lambda: net_train(X, Z, NetConfig())) < 1.3e6

    def test_huge_ridge_shrinks_weights(self):
        # Adam's step floor is ~lr per entry, so reaching the tiny optimum of
        # a gamma=1e6 objective needs a small rate and enough steps
        rng = np.random.default_rng(8)
        X = rng.standard_normal((3, 40))
        Z = rng.standard_normal((2, 40))
        cfg = NetConfig(hidden=6, ridge=1e6, epochs=1200, batch_size=2, lr=1e-4, seed=1)
        params, _ = net_train(X, Z, cfg)
        total = np.linalg.norm(params.w1) + np.linalg.norm(params.w2)
        cfg0 = NetConfig(hidden=6, ridge=0.0, epochs=60, batch_size=2, lr=1e-4, seed=1)
        params0, _ = net_train(X, Z, cfg0)
        total0 = np.linalg.norm(params0.w1) + np.linalg.norm(params0.w2)
        assert total <= 1e-3
        assert total < total0

    def test_divergence_raises_with_epoch(self):
        # residuals around 1e160 overflow when squared
        rng = np.random.default_rng(9)
        X = rng.standard_normal((3, 20)) * 1e160
        Z = rng.standard_normal((2, 20)) * 1e160
        cfg = NetConfig(hidden=4, epochs=3, batch_size=20, lr=1e3, seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            net_train(X, Z, cfg)
        assert err.value.epoch >= 0

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            net_train(np.zeros((2, 5)), np.zeros((1, 5)), NetConfig(batch_size=6))

    def test_tanh_activation_hook(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((3, 30))
        Z = rng.standard_normal((2, 30))
        cfg = NetConfig(hidden=6, epochs=10, batch_size=10, activation="tanh", seed=2)
        params, losses = net_train(X, Z, cfg)
        assert np.isfinite(losses).all()
        out = net_forward(params, X, "tanh")
        assert out.shape == (2, 30)


def reference_train(X, Z, config):
    """The straightforward Adam loop: full gradient for every epoch loss,
    fresh moment arrays, and parameters checked finite on every step."""
    rng = np.random.default_rng(config.seed)
    (m, s), kdim, d = X.shape, Z.shape[0], config.hidden
    params = MLPParams(
        w1=rng.standard_normal((d, m)) * np.sqrt(2.0 / m),
        b1=np.zeros(d),
        w2=rng.standard_normal((kdim, d)) * np.sqrt(2.0 / d),
        b2=np.zeros(kdim),
    )
    names = ("w1", "b1", "w2", "b2")
    mom = {n: np.zeros_like(getattr(params, n)) for n in names}
    vel = {n: np.zeros_like(getattr(params, n)) for n in names}
    t = 0
    losses = [net_loss_and_grad(params, X, Z, config.ridge, config.activation)[0]]
    for epoch in range(config.epochs):
        order = rng.permutation(s)
        for start in range(0, s, config.batch_size):
            idx = order[start : start + config.batch_size]
            _, grads = net_loss_and_grad(params, X[:, idx], Z[:, idx], config.ridge, config.activation)
            t += 1
            updated = {}
            with np.errstate(over="ignore", invalid="ignore"):
                for n in names:
                    g = getattr(grads, n)
                    mom[n] = ADAM_BETA1 * mom[n] + (1.0 - ADAM_BETA1) * g
                    vel[n] = ADAM_BETA2 * vel[n] + (1.0 - ADAM_BETA2) * g * g
                    mhat = mom[n] / (1.0 - ADAM_BETA1**t)
                    vhat = vel[n] / (1.0 - ADAM_BETA2**t)
                    updated[n] = getattr(params, n) - config.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            if not all(np.isfinite(w).all() for w in updated.values()):
                raise TrainingDivergedError(f"non-finite parameters at epoch {epoch}", epoch=epoch)
            params = MLPParams(**updated)
        loss = net_loss_and_grad(params, X, Z, config.ridge, config.activation)[0]
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}", epoch=epoch)
        losses.append(loss)
    return params, np.asarray(losses)


class TestTrainMatchesReference:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_bit_identical(self, activation):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((7, 45))
        Z = rng.standard_normal((3, 45))
        # 45 columns in batches of 10 end every epoch on a partial batch
        cfg = NetConfig(hidden=9, ridge=1e-3, epochs=12, batch_size=10, lr=1e-2, activation=activation, seed=4)
        params, losses = net_train(X, Z, cfg)
        ref_params, ref_losses = reference_train(X, Z, cfg)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(params, name), getattr(ref_params, name))
        assert np.array_equal(losses, ref_losses)

    @pytest.mark.parametrize("batch_size", [5, 20])
    def test_divergence_at_the_same_epoch(self, batch_size):
        # a step of ~1e100 overflows the next forward pass: with four steps
        # an epoch the parameters turn non-finite mid-epoch, with one step
        # the epoch's loss does
        rng = np.random.default_rng(9)
        X = rng.standard_normal((3, 20))
        Z = rng.standard_normal((2, 20))
        cfg = NetConfig(hidden=4, epochs=3, batch_size=batch_size, lr=1e100, seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            net_train(X, Z, cfg)
        with pytest.raises(TrainingDivergedError) as ref:
            reference_train(X, Z, cfg)
        assert (err.value.epoch, str(err.value)) == (ref.value.epoch, str(ref.value))
        what = "parameters" if batch_size == 5 else "loss"
        assert str(err.value) == f"non-finite {what} at epoch 0"


class TestConstructedSolution:
    def test_block_indicator_network_separates_subspaces(self):
        # orthogonal subspace bases stacked as the first layer, block-indicator
        # second layer: embedding columns are supported on the true cluster
        rng = np.random.default_rng(11)
        k, r, m, per = 3, 3, 20, 25
        basis, _ = np.linalg.qr(rng.standard_normal((m, k * r)))
        bases = [basis[:, j * r : (j + 1) * r] for j in range(k)]
        mu = 0.1
        cols, labels = [], []
        for j in range(k):
            v = np.abs(rng.standard_normal((r, per)))
            v /= np.linalg.norm(v, axis=0)
            cols.append(bases[j] @ v)
            labels.extend([j + 1] * per)
        X = np.hstack(cols)
        w1 = np.vstack([b.T for b in bases])
        w2 = np.zeros((k, k * r))
        for j in range(k):
            w2[j, j * r : (j + 1) * r] = 1.0
        params = MLPParams(w1=w1, b1=-mu * np.ones(k * r), w2=w2, b2=np.zeros(k))
        Z = net_forward(params, X)
        truth = Partition(labels=np.asarray(labels), k=k)
        for i, lab in enumerate(labels):
            on = Z[lab - 1, i]
            off = np.delete(Z[:, i], lab - 1)
            assert on > 0
            assert np.all(np.abs(off) <= 1e-12)
        pred = kmeans(Z, k, seed=0)
        assert clustering_accuracy(pred, truth) == 1.0


class TestLandmarkPipeline:
    def test_rejects_bad_landmark_count(self):
        X, _ = random_subspaces(k=2, ambient_dim=10, intrinsic_dim=2, per_cluster=20, seed=0)
        cfg = NetConfig(hidden=10, epochs=2, batch_size=5)
        with pytest.raises(ValueError):
            landmark_cluster(X, 2, default_search_space(), n_landmarks=40, net_config=cfg)

    def test_batch_larger_than_landmarks_is_clamped(self):
        X, _ = random_subspaces(k=3, ambient_dim=30, intrinsic_dim=3, per_cluster=50, noise_std=0.01, seed=0)
        space = SearchSpace(models=(ModelSpec("lsr"),), lambdas=(0.1,), taus=(5, 8))
        runs = [
            landmark_cluster(X, 3, space, 60, NetConfig(hidden=20, epochs=3, batch_size=batch, seed=0))
            for batch in (128, 60)
        ]
        assert np.array_equal(runs[0][0].labels, runs[1][0].labels)

    def test_unknown_mode_rejected_before_landmark_kmeans(self, monkeypatch):
        X, _ = random_subspaces(k=2, ambient_dim=10, intrinsic_dim=2, per_cluster=20, seed=0)
        calls = []
        monkeypatch.setattr(netembed, "kmeans_centers", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match="mode must be"):
            landmark_cluster(X, 2, default_search_space(), 10, NetConfig(), mode="random")
        assert calls == []

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"score": "bogus"}, "score must be"),
            ({"eps": 0.0}, "eps must be"),
            ({"mode": "bo", "budget_per_model": 3}, "budget_per_model must cover"),
        ],
        ids=["score", "eps", "bo-budget"],
    )
    def test_search_options_rejected_before_landmark_kmeans(self, monkeypatch, options, message):
        X, _ = random_subspaces(k=2, ambient_dim=10, intrinsic_dim=2, per_cluster=20, seed=0)
        calls = []
        monkeypatch.setattr(netembed, "kmeans_centers", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match=message):
            landmark_cluster(X, 2, default_search_space(), 10, NetConfig(), **options)
        assert calls == []

    def test_landmarks_above_search_ceiling_rejected_before_landmark_kmeans(self, monkeypatch):
        X = np.random.default_rng(0).standard_normal((3, SEARCH_MAX_N + 50))
        calls = []
        monkeypatch.setattr(netembed, "kmeans_centers", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match=f"at most {SEARCH_MAX_N} points"):
            landmark_cluster(X, 2, default_search_space(), SEARCH_MAX_N + 1, NetConfig())
        assert calls == []

    def test_small_end_to_end(self):
        X, labels = random_subspaces(
            k=3, ambient_dim=30, intrinsic_dim=3, per_cluster=150, noise_std=0.01, seed=0
        )
        space = SearchSpace(models=(ModelSpec("lsr"),), lambdas=(0.1,), taus=(5, 8, 11))
        cfg = NetConfig(hidden=40, epochs=150, batch_size=16, seed=0)
        partition, result = landmark_cluster(X, 3, space, n_landmarks=60, net_config=cfg, seed=0)
        truth = Partition(labels=labels, k=3)
        assert clustering_accuracy(partition, truth) >= 0.95
        assert result.embedding.shape == (3, 60)
