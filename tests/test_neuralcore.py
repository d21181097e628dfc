import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distatlas.neuralcore import (
    Adadelta,
    DenseNet,
    LayerSpec,
    RMSprop,
    ShapeMismatchError,
    TrainConfig,
    TrainingDivergedError,
    _activation_backward,
    _sigmoid,
    audit_gradients,
    binary_cross_entropy,
    binary_cross_entropy_grad,
    categorical_cross_entropy,
    categorical_cross_entropy_grad,
    grad_check,
    load_checkpoint,
    make_optimizer,
    one_hot,
    restore_net,
    save_checkpoint,
    split_indices,
    layer_specs_to_json,
    train_epochs,
)


def small_net(seed=0):
    return DenseNet([LayerSpec(5, 8, "relu"), LayerSpec(8, 6, "relu"),
                     LayerSpec(6, 4, "softmax")], seed=seed)


class TestLayerSpec:
    def test_rejects_bad_activation(self):
        with pytest.raises(ValueError):
            LayerSpec(3, 3, "tanh")

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            LayerSpec(0, 3)

    def test_softmax_only_final(self):
        with pytest.raises(ValueError):
            DenseNet([LayerSpec(3, 3, "softmax"), LayerSpec(3, 2, "identity")])

    def test_chain_must_connect(self):
        with pytest.raises(ValueError):
            DenseNet([LayerSpec(3, 4), LayerSpec(5, 2)])


class TestForward:
    def test_zero_weights_identity_gives_zeros(self):
        net = DenseNet([LayerSpec(4, 3, "identity")], seed=0)
        net.weights[0][:] = 0.0
        out = net(np.ones((2, 4)))
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_softmax_of_equal_logits_is_uniform(self):
        net = DenseNet([LayerSpec(4, 13, "softmax")], seed=0)
        net.weights[0][:] = 0.0
        out = net(np.random.default_rng(0).random((3, 4)))
        np.testing.assert_allclose(out, np.full((3, 13), 1.0 / 13.0), atol=1e-15)

    def test_single_layer_hand_example(self):
        # x = [3], W = [[2]], b = [1] -> preactivation 7 -> relu 7
        net = DenseNet([LayerSpec(1, 1, "relu")], seed=0)
        net.weights[0][:] = 2.0
        net.biases[0][:] = 1.0
        assert net(np.array([[3.0]]))[0, 0] == 7.0

    def test_cache_has_all_layers(self):
        net = small_net()
        cache = net.forward(np.random.default_rng(0).random((4, 5)))
        assert len(cache.acts) == 3
        assert cache.output.shape == (4, 4)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            small_net()(np.ones((2, 7)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_softmax_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        net = DenseNet([LayerSpec(6, 9, "softmax")], seed=seed)
        out = net(rng.normal(scale=3.0, size=(5, 6)))
        np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_sigmoid_extreme_inputs_stable(self):
        net = DenseNet([LayerSpec(1, 1, "sigmoid")], seed=0)
        net.weights[0][:] = 1.0
        out = net(np.array([[-1e4], [1e4]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert out[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_sigmoid_matches_the_masked_branches_bit_for_bit(self):
        z = np.concatenate([[0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e4, -1e4, 5e-324],
                            np.random.default_rng(2).normal(scale=20.0, size=997)])
        pos = z >= 0
        expected = np.empty_like(z)
        expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        expected[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
        np.testing.assert_array_equal(_sigmoid(z).view(np.int64), expected.view(np.int64))

    def test_relu_backward_masks_like_the_preactivation(self):
        z = np.array([[-1.0, -0.0, 0.0, 2.0, np.nan, -np.inf, np.inf]])
        grad_a = np.full_like(z, 3.0)
        expected = grad_a * (z > 0)
        a = np.maximum(z, 0.0)
        np.testing.assert_array_equal(_activation_backward("relu", a, grad_a), expected)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        net = small_net()
        x = np.random.default_rng(1).random((3, 5))
        cache = net.forward(x)
        grads, grad_in = net.backward(cache, np.zeros((3, 4)))
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))
        np.testing.assert_array_equal(grad_in, np.zeros((3, 5)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        net = small_net(seed=3)
        x = rng.random((6, 5))
        targets = one_hot(rng.integers(0, 4, 6), 4)
        assert grad_check(net, x, targets, loss="cce", h=1e-5, seed=0) < 1e-4

    def test_bce_path_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        net = DenseNet([LayerSpec(5, 8, "relu"), LayerSpec(8, 5, "sigmoid")], seed=5)
        x = rng.random((4, 5))
        assert grad_check(net, x, rng.random((4, 5)), loss="bce", h=1e-5, seed=0) < 1e-4

    def test_duplicated_example_matches_single(self):
        # batch-mean convention: duplicating an example leaves grads unchanged
        net = small_net(seed=7)
        x = np.random.default_rng(8).random((1, 5))
        t = one_hot(np.array([2]), 4)
        cache1 = net.forward(x)
        g1, _ = net.backward(cache1, categorical_cross_entropy_grad(cache1.output, t))
        x2 = np.vstack([x, x])
        t2 = np.vstack([t, t])
        cache2 = net.forward(x2)
        g2, _ = net.backward(cache2, categorical_cross_entropy_grad(cache2.output, t2))
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestLosses:
    def test_cce_perfect_prediction_near_zero(self):
        probs = one_hot(np.arange(13), 13)
        assert 0.0 < categorical_cross_entropy(probs, probs) <= 13e-7

    def test_cce_uniform_probs(self):
        probs = np.full((4, 13), 1.0 / 13.0)
        targets = one_hot(np.array([0, 5, 7, 12]), 13)
        assert categorical_cross_entropy(probs, targets) == pytest.approx(np.log(13.0), rel=1e-9)

    def test_bce_pointfive_is_650_ln2(self):
        pred = np.full((3, 650), 0.5)
        target = (np.random.default_rng(0).random((3, 650)) > 0.5).astype(float)
        assert binary_cross_entropy(pred, target) == pytest.approx(650 * np.log(2.0), rel=1e-12)

    def test_grad_shapes(self):
        rng = np.random.default_rng(1)
        p = rng.random((4, 6))
        t = rng.random((4, 6))
        assert binary_cross_entropy_grad(p, t).shape == (4, 6)
        assert categorical_cross_entropy_grad(p, t).shape == (4, 6)


class TestOptimizers:
    def test_zero_gradient_keeps_params(self):
        for cls in (RMSprop, Adadelta):
            p = [np.array([1.0, -2.0])]
            opt = cls(p, TrainConfig(epochs=1))
            opt.step(p, [np.zeros(2)])
            np.testing.assert_array_equal(p[0], [1.0, -2.0])

    def test_rmsprop_first_step_value(self):
        # fresh accumulator, g = 1: a = 0.1, step = -lr / (sqrt(0.1) + eps)
        p = [np.array([0.0])]
        config = TrainConfig(epochs=1, learning_rate=1e-3, rho=0.9, epsilon=1e-8)
        RMSprop(p, config).step(p, [np.array([1.0])])
        expected = -1e-3 / (np.sqrt(0.1) + 1e-8)
        assert p[0][0] == pytest.approx(expected, rel=1e-12)
        assert p[0][0] == pytest.approx(-0.0031623, abs=1e-7)

    def test_adadelta_first_step_value(self):
        # a = (1-rho) g^2; update = g sqrt(eps) / sqrt(a + eps)
        p = [np.array([0.0])]
        config = TrainConfig(epochs=1, learning_rate=1.0, rho=0.95, epsilon=1e-6,
                             optimizer="adadelta")
        Adadelta(p, config).step(p, [np.array([2.0])])
        a = 0.05 * 4.0
        expected = -2.0 * np.sqrt(1e-6) / np.sqrt(a + 1e-6)
        assert p[0][0] == pytest.approx(expected, rel=1e-12)

    def test_nonfinite_gradient_aborts(self):
        p = [np.array([0.0])]
        opt = make_optimizer(p, TrainConfig(epochs=1))
        with pytest.raises(TrainingDivergedError):
            opt.step(p, [np.array([np.nan])])

    def test_descent_on_full_batch(self):
        # five full-batch steps with a small rate never increase the loss
        rng = np.random.default_rng(3)
        net = small_net(seed=4)
        x = rng.random((32, 5))
        t = one_hot(rng.integers(0, 4, 32), 4)
        config = TrainConfig(epochs=1, learning_rate=1e-4)
        opt = make_optimizer(net.params, config)
        losses = []
        for _ in range(6):
            cache = net.forward(x)
            losses.append(categorical_cross_entropy(cache.output, t))
            grads, _ = net.backward(cache, categorical_cross_entropy_grad(cache.output, t))
            opt.step(net.params, grads)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_train_epochs_nan_loss_diverges_before_the_step(self):
        params = [np.array([1.0, -2.0])]

        def batch_step(rows):
            return [np.ones(2)], (float("nan"),)

        with pytest.raises(TrainingDivergedError):
            list(train_epochs(params, TrainConfig(epochs=2), 5, 0, batch_step))
        np.testing.assert_array_equal(params[0], [1.0, -2.0])

    def test_train_epochs_walks_each_row_once_per_epoch(self):
        seen = []

        def batch_step(rows):
            seen.append(rows)
            return [np.zeros(1)], (float(rows.shape[0]), 1.0)

        config = TrainConfig(epochs=3, batch_size=4)
        epochs = list(train_epochs([np.zeros(1)], config, 10, 7, batch_step))
        assert epochs == [(e, [10.0 / 3.0, 1.0]) for e in (1, 2, 3)]
        assert [r.shape[0] for r in seen] == [4, 4, 2] * 3
        rng = np.random.default_rng(7)
        for e in range(3):
            np.testing.assert_array_equal(np.concatenate(seen[3 * e:3 * e + 3]),
                                          rng.permutation(10))

    def test_training_is_bitwise_deterministic(self):
        def run():
            rng = np.random.default_rng(9)
            net = small_net(seed=10)
            x = rng.random((16, 5))
            t = one_hot(rng.integers(0, 4, 16), 4)
            opt = make_optimizer(net.params, TrainConfig(epochs=1))
            for _ in range(10):
                cache = net.forward(x)
                grads, _ = net.backward(cache, categorical_cross_entropy_grad(cache.output, t))
                opt.step(net.params, grads)
            return [p.copy() for p in net.params]

        for a, b in zip(run(), run()):
            np.testing.assert_array_equal(a, b)


class TestGradCheck:
    def test_linear_net_squared_loss_is_exact(self):
        # a quadratic loss of a linear net: central differences are exact but for rounding
        rng = np.random.default_rng(5)
        net = DenseNet([LayerSpec(4, 3, "identity")], seed=6)
        x = rng.random((8, 4))
        t = rng.random((8, 3))

        def loss():
            d = net(x) - t
            return float(0.5 * (d * d).sum() / x.shape[0])

        cache = net.forward(x)
        analytic, _ = net.backward(cache, (cache.output - t) / x.shape[0])
        assert audit_gradients(net.params, loss, analytic, h=1e-5, seed=1) < 1e-8

    def test_wrong_gradient_is_caught(self):
        rng = np.random.default_rng(5)
        net = DenseNet([LayerSpec(4, 3, "identity")], seed=6)
        x = rng.random((8, 4))

        def loss():
            return float((net(x) ** 2).sum())

        cache = net.forward(x)
        analytic, _ = net.backward(cache, cache.output)  # half the true gradient
        assert audit_gradients(net.params, loss, analytic, seed=1) > 0.3

    def test_coarse_step_is_worse(self):
        rng = np.random.default_rng(6)
        net = DenseNet([LayerSpec(4, 4, "sigmoid"), LayerSpec(4, 3, "softmax")], seed=7)
        x = rng.random((8, 4))
        t = one_hot(rng.integers(0, 3, 8), 3)
        fine = grad_check(net, x, t, loss="cce", h=1e-5, seed=2)
        coarse = grad_check(net, x, t, loss="cce", h=1e-1, seed=2)
        assert coarse > fine


class TestSplit:
    def test_disjoint_and_exhaustive(self):
        train, test = split_indices(100, seed=4)
        assert len(set(train) & set(test)) == 0
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(100))
        assert train.shape[0] == 67

    def test_deterministic(self):
        a = split_indices(500, seed=9)
        b = split_indices(500, seed=9)
        np.testing.assert_array_equal(a[0], b[0])

    def test_different_seeds_differ(self):
        a, _ = split_indices(500, seed=1)
        b, _ = split_indices(500, seed=2)
        assert not np.array_equal(a, b)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = small_net(seed=11)
        header = {"kind": "classifier", "layers": layer_specs_to_json(net.layers),
                  "note": "round trip"}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, header, net.params)
        loaded_header, arrays = load_checkpoint(path)
        assert loaded_header["kind"] == "classifier"
        assert loaded_header["note"] == "round trip"
        for original, restored in zip(net.params, arrays):
            assert original.dtype == restored.dtype == np.float64
            np.testing.assert_array_equal(original, restored)

    def test_restore_net_runs_identically(self, tmp_path):
        net = small_net(seed=12)
        x = np.random.default_rng(13).random((4, 5))
        expected = net(x)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"layers": layer_specs_to_json(net.layers)}, net.params)
        header, arrays = load_checkpoint(path)
        clone, _ = restore_net(header, "layers", arrays)
        np.testing.assert_array_equal(clone(x), expected)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"garbage bytes that are not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0}, {"learning_rate": 0.0}, {"rho": 1.0}, {"rho": 0.0},
        {"optimizer": "sgd"}, {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
        {"epsilon": 0.0}, {"epsilon": -1.0}, {"epsilon": float("nan")},
        {"epsilon": float("inf")},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, **kwargs)
