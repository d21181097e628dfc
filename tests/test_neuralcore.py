import json
import os
import struct
import tracemalloc
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import train_config
from distatlas import neuralcore
from distatlas.classifier import default_latent_train_config
from distatlas.neuralcore import (
    ACTIVATIONS,
    LOSS_EPS,
    Adadelta,
    LayerSpec,
    RMSprop,
    STEP_CHUNK,
    ShapeMismatchError,
    TrainingDivergedError,
    _activation_backward,
    _sigmoid,
    audit_gradients,
    binary_cross_entropy,
    binary_cross_entropy_grad,
    build_nets,
    categorical_cross_entropy,
    categorical_cross_entropy_grad,
    grad_check,
    load_model,
    make_optimizer,
    one_hot,
    save_model,
    split_indices,
    layer_specs_to_json,
    train_epochs,
)


# the per-array optimizer loops that the one-vector steps replaced, kept as their reference
def _reference_rmsprop(c, params, grads, accs):
    for p, g, a in zip(params, grads, accs):
        a *= c.rho
        a += (1.0 - c.rho) * g * g
        p -= c.learning_rate * g / (np.sqrt(a) + c.epsilon)


def _reference_adadelta(c, params, grads, accs, delta_accs):
    for p, g, a, d in zip(params, grads, accs, delta_accs):
        a *= c.rho
        a += (1.0 - c.rho) * g * g
        update = g * np.sqrt(d + c.epsilon) / np.sqrt(a + c.epsilon)
        p -= c.learning_rate * update
        d *= c.rho
        d += (1.0 - c.rho) * update * update


# the beta-VAE's parameter shapes at the 26x25 grid and a 2-D latent: 733,326 entries
VAE_SHAPES = [(650, 512), (512,), (512, 64), (64,), (64, 2), (2,), (64, 2), (2,),
              (2, 64), (64,), (64, 512), (512,), (512, 650), (650,)]


def _accumulators(opt):
    return [opt.acc] if isinstance(opt, RMSprop) else [opt.acc, opt.delta_acc]


def make_net(layers, seed=0):
    (net,), _, _ = build_nets([layers], [seed])
    return net


def small_net(seed=0):
    return make_net([LayerSpec(5, 8, "relu"), LayerSpec(8, 6, "relu"),
                     LayerSpec(6, 4, "softmax")], seed=seed)


class TestLayerSpec:
    def test_rejects_bad_activation(self):
        with pytest.raises(ValueError):
            LayerSpec(3, 3, "tanh")

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            LayerSpec(0, 3, "relu")

    def test_softmax_only_final(self):
        with pytest.raises(ValueError):
            make_net([LayerSpec(3, 3, "softmax"), LayerSpec(3, 2, "identity")])

    def test_chain_must_connect(self):
        with pytest.raises(ValueError):
            make_net([LayerSpec(3, 4, "relu"), LayerSpec(5, 2, "relu")])


class TestForward:
    def test_zero_weights_identity_gives_zeros(self):
        net = make_net([LayerSpec(4, 3, "identity")], seed=0)
        net.params[0][:] = 0.0
        out = net(np.ones((2, 4)))
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_softmax_of_equal_logits_is_uniform(self):
        net = make_net([LayerSpec(4, 13, "softmax")], seed=0)
        net.params[0][:] = 0.0
        out = net(np.random.default_rng(0).random((3, 4)))
        np.testing.assert_allclose(out, np.full((3, 13), 1.0 / 13.0), atol=1e-15)

    def test_single_layer_hand_example(self):
        # x = [3], W = [[2]], b = [1] -> preactivation 7 -> relu 7
        net = make_net([LayerSpec(1, 1, "relu")], seed=0)
        net.params[0][:] = 2.0
        net.params[1][:] = 1.0
        assert net(np.array([[3.0]]))[0, 0] == 7.0

    def test_cache_has_all_layers(self):
        net = small_net()
        x = np.random.default_rng(0).random((4, 5))
        acts = net.forward(x)
        assert len(acts) == 4
        np.testing.assert_array_equal(acts[0], x)
        assert acts[-1].shape == (4, 4)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            small_net()(np.ones((2, 7)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_softmax_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        net = make_net([LayerSpec(6, 9, "softmax")], seed=seed)
        out = net(rng.normal(scale=3.0, size=(5, 6)))
        np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_sigmoid_extreme_inputs_stable(self):
        net = make_net([LayerSpec(1, 1, "sigmoid")], seed=0)
        net.params[0][:] = 1.0
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

    def test_chunked_sigmoid_matches_the_whole_array_expression_bit_for_bit(self):
        # the special values straddle each STEP_CHUNK edge, and the array ends in a short piece
        special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 800.0, -800.0]
        z = np.random.default_rng(3).normal(scale=30.0, size=(2 * STEP_CHUNK + 37) // 3 * 3)
        for start in (0, STEP_CHUNK - 4, 2 * STEP_CHUNK - 4, z.size - 8):
            z[start:start + 8] = special
        # the one-buffer form over the whole array: exp(min(z, -z)), then the selected division
        e = np.exp(np.minimum(z, -z))
        expected = np.where(z >= 0, 1.0, e) / (1.0 + e)
        got = z.reshape(-1, 3)
        with np.errstate(all="ignore"):
            assert _sigmoid(got) is got
        np.testing.assert_array_equal(got.ravel().view(np.int64), expected.view(np.int64))

    def test_sigmoid_allocates_one_piece_not_the_array(self):
        z = np.random.default_rng(4).normal(size=(2500, 650))
        tracemalloc.start()
        try:
            _sigmoid(z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 9 * STEP_CHUNK

    @pytest.mark.parametrize("width", [5, 1])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_cache_free_forward_matches_the_cached_output_bit_for_bit(self, activation, width):
        # NaN rows, and one-row batches through a one-unit layer (the z.size == 1 rule)
        rng = np.random.default_rng(6)
        x = rng.normal(scale=4.0, size=(9, 3))
        x[[2, 5]] = np.nan
        x[7, 1] = np.inf
        hidden = "identity" if activation == "softmax" else activation
        net = make_net([LayerSpec(3, 4, hidden), LayerSpec(4, width, activation)], seed=9)
        net.params[-1][:] = np.resize([np.nan, 1.0, -np.nan], width)
        for rows in [slice(None)] + [slice(i, i + 1) for i in range(x.shape[0])]:
            with np.errstate(all="ignore"):
                cached, free = net.forward(x[rows])[-1], net.forward(x[rows], cache=False)
                called = net(x[rows])
            assert isinstance(free, np.ndarray)
            for got in (free, called):
                np.testing.assert_array_equal(got.view(np.int64), cached.view(np.int64))

    def test_cache_free_forward_holds_one_layer_at_a_time(self):
        # a 1,024-row batch through three hidden layers of 8 MiB each: a cache would hold all
        net = make_net([LayerSpec(2, 1024, "relu"), LayerSpec(1024, 1024, "relu"),
                        LayerSpec(1024, 1024, "sigmoid"), LayerSpec(1024, 13, "softmax")], seed=1)
        x = np.random.default_rng(2).normal(size=(1024, 2))
        layer_bytes = 1024 * 1024 * 8
        tracemalloc.start()
        try:
            net(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * layer_bytes

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("width", [5, 1])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_forward_matches_the_reference_bit_for_bit(self, activation, width, dtype):
        # act(a @ w + b) per layer, each activation in its whole-expression form
        def reference_act(name, z):
            if name == "relu":
                return np.maximum(z, 0.0)
            if name == "sigmoid":
                pos = z >= 0
                out = np.empty_like(z)
                out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
                out[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
                return out
            if name == "softmax":
                e = np.exp(z - z.max(axis=1, keepdims=True))
                return e / e.sum(axis=1, keepdims=True)
            return z

        special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1e4, -1e4, 5e-324, -1e-40, 1.0]
        rng = np.random.default_rng(4)
        x = np.concatenate([np.resize(special, (11, 3)), np.resize(special[::-1], (11, 3)),
                            rng.normal(scale=5.0, size=(8, 3))]).astype(dtype)
        hidden = "identity" if activation == "softmax" else activation
        net = make_net([LayerSpec(3, 4, hidden), LayerSpec(4, width, activation)], seed=9)
        # biases hit by the special values too: a NaN bias meets a NaN sum in a one-unit layer
        for b in net.params[1::2]:
            b[:] = np.resize(special, b.shape)
        x_before = x.tobytes()
        for rows in [slice(None)] + [slice(i, i + 1) for i in range(x.shape[0])]:
            a = x[rows].astype(np.float64)
            with np.errstate(all="ignore"):
                acts = net.forward(x[rows])[1:]
                for got, spec, w, b in zip(acts, net.layers, net.params[0::2], net.params[1::2]):
                    a = reference_act(spec.activation, a @ w + b)
                    np.testing.assert_array_equal(got.view(np.int64), a.view(np.int64))
        assert x.tobytes() == x_before

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
        acts = net.forward(x)
        net.grad[:] = np.nan
        grad_in = net.backward(acts, np.zeros((3, 4)))
        np.testing.assert_array_equal(net.grad, np.zeros_like(net.grad))
        np.testing.assert_array_equal(grad_in, np.zeros((3, 5)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        net = small_net(seed=3)
        x = rng.random((6, 5))
        targets = one_hot(rng.integers(0, 4, 6), 4)
        assert grad_check(net, x, targets, seed=0) < 1e-4

    def test_bce_path_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        net = make_net([LayerSpec(5, 8, "relu"), LayerSpec(8, 5, "sigmoid")], seed=5)
        x = rng.random((4, 5))
        targets = rng.random((4, 5))
        acts = net.forward(x)
        net.backward(acts, binary_cross_entropy_grad(acts[-1], targets), input_grad=False)
        assert audit_gradients(net.flat, lambda: binary_cross_entropy(net(x), targets), net.grad,
                               seed=0) < 1e-4

    def test_duplicated_example_matches_single(self):
        # batch-mean convention: duplicating an example leaves grads unchanged
        net = small_net(seed=7)
        x = np.random.default_rng(8).random((1, 5))
        t = one_hot(np.array([2]), 4)
        acts1 = net.forward(x)
        net.backward(acts1, categorical_cross_entropy_grad(acts1[-1], t))
        # the next backward overwrites net.grad in place
        g1 = net.grad.copy()
        x2 = np.vstack([x, x])
        t2 = np.vstack([t, t])
        acts2 = net.forward(x2)
        net.backward(acts2, categorical_cross_entropy_grad(acts2[-1], t2))
        np.testing.assert_allclose(g1, net.grad, atol=1e-12)


    @pytest.mark.parametrize("layers", [
        [LayerSpec(650, 512, "relu"), LayerSpec(512, 64, "relu")],
        [LayerSpec(650, 128, "relu"), LayerSpec(128, 64, "relu"), LayerSpec(64, 13, "softmax")],
    ], ids=["vae_trunk", "grid_classifier"])
    def test_without_input_grad_the_parameter_gradients_are_the_same(self, layers):
        rng = np.random.default_rng(9)
        net = make_net(layers, seed=10)
        acts = net.forward(rng.random((16, 650)))
        upstream = rng.standard_normal((16, net.out_dim))
        assert net.backward(acts, upstream).shape == (16, 650)
        full = net.grad.copy()
        net.grad[:] = np.nan
        assert net.backward(acts, upstream, input_grad=False) is None
        np.testing.assert_array_equal(net.grad.view(np.int64), full.view(np.int64))

    def test_leaves_the_callers_grad_output_unchanged(self):
        # every layer is a ReLU, so an in-place mask of grad_output would show
        rng = np.random.default_rng(11)
        net = make_net([LayerSpec(5, 8, "relu"), LayerSpec(8, 6, "relu")], seed=12)
        acts = net.forward(rng.standard_normal((7, 5)))
        upstream = rng.standard_normal((7, 6))
        kept = upstream.copy()
        net.backward(acts, upstream)
        np.testing.assert_array_equal(upstream.view(np.int64), kept.view(np.int64))


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

    @staticmethod
    def _bce_cases():
        """(pred, target) pairs: whole batches, then single units, where no sum absorbs a last bit.

        Row 0 holds preds exactly 0 and 1, below, at and above both edges of
        the clamp band, and NaNs of either sign, against soft targets; rows
        1-3 repeat them against targets of exactly 0, exactly 1 and NaN. The
        batch has 63 rows, so the batch mean's division is not exact as a
        multiplication.
        """
        rng = np.random.default_rng(8)
        pred = _sigmoid(rng.normal(scale=8.0, size=(63, 50)))
        target = rng.random((63, 50))
        target[4:8] = np.round(target[4:8])
        pred[:4, :10] = [0.0, 1.0, 1e-9, LOSS_EPS / 2, LOSS_EPS, 1.0 - LOSS_EPS,
                         1.0 - LOSS_EPS / 2, 1.0 - 1e-9, np.nan, -np.nan]
        target[1:4, :10] = [[0.0], [1.0], [np.nan]]
        yield pred[4:], target[4:]
        yield pred, target
        for i in range(8):
            for j in range(50):
                yield pred[i:i + 1, j:j + 1], target[i:i + 1, j:j + 1]

    def test_bce_matches_the_reference_expression_bit_for_bit(self):
        for pred, target in self._bce_cases():
            kept = pred.copy()
            p = np.clip(pred, LOSS_EPS, 1.0 - LOSS_EPS)
            expected = -(target * np.log(p) + (1.0 - target) * np.log1p(-p)).sum() / pred.shape[0]
            got = binary_cross_entropy(pred, target)
            assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)
            np.testing.assert_array_equal(pred.view(np.int64), kept.view(np.int64))

    def test_bce_grad_matches_the_reference_expression_bit_for_bit(self):
        for pred, target in self._bce_cases():
            kept = pred.copy()
            p = np.clip(pred, LOSS_EPS, 1.0 - LOSS_EPS)
            expected = (-target / p + (1.0 - target) / (1.0 - p)) / pred.shape[0]
            expected[(pred < LOSS_EPS) | (pred > 1.0 - LOSS_EPS)] = 0.0
            got = binary_cross_entropy_grad(pred, target)
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
            np.testing.assert_array_equal(pred.view(np.int64), kept.view(np.int64))

    @staticmethod
    def _whole_array_bce(pred, target):
        """The BCE value as one whole-array pass computed it, the reference of its piecewise walk.

        A float32 target is upcast first, as the walk upcasts each piece.
        """
        target = np.asarray(target, dtype=np.float64)
        p = np.clip(pred, LOSS_EPS, 1.0 - LOSS_EPS)
        log_p = np.log(p)
        np.multiply(target, log_p, out=log_p)
        np.multiply(1.0 - target, np.log1p(np.negative(p, out=p), out=p), out=p)
        return float(-np.add(log_p, p, out=p).sum() / pred.shape[0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(5, 13), (4, STEP_CHUNK // 4), (3, STEP_CHUNK // 3 + 5),
                                       (1024, 650)], ids=["below", "at", "above", "slice"])
    def test_bce_walk_matches_the_whole_array_pass_bit_for_bit(self, shape, dtype):
        # the clamp's edges at the start and straddling each STEP_CHUNK edge; targets of
        # exactly 0 and 1, and 1e-9, whose 1 - x rounds to 1 in float32 but not in float64
        rng = np.random.default_rng(shape[0])
        pred = _sigmoid(rng.normal(scale=8.0, size=shape))
        target = rng.random(shape)
        edges = [0.0, 1.0, LOSS_EPS, 1.0 - LOSS_EPS, LOSS_EPS / 2, 1.0 - LOSS_EPS / 2]
        for start in range(0, pred.size - len(edges) + 1, STEP_CHUNK):
            at = slice(max(start - 3, 0), max(start - 3, 0) + len(edges))
            pred.reshape(-1)[at] = edges
            target.reshape(-1)[at] = [1e-9, 0.0, 1.0, 1e-9, 1.0, 0.0]
        target = target.astype(dtype)
        assert np.float32(1.0) - np.float32(1e-9) == 1.0
        kept = pred.copy()
        got = binary_cross_entropy(pred, target)
        expected = self._whole_array_bce(pred.copy(), target)
        assert np.isfinite(got)
        assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)
        np.testing.assert_array_equal(pred.view(np.int64), kept.view(np.int64))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("size", [1, 7, 9, STEP_CHUNK + 1, 2 * STEP_CHUNK + 7])
    def test_bce_keeps_the_sign_of_a_nan_pred(self, size, dtype):
        # a NaN of either sign, alone, among other preds, and in the last entries of a long
        # pred, which numpy's loops treat otherwise than a short array's
        pred = np.full((1, size), 0.25)
        target = np.full((1, size), 0.5, dtype=dtype)
        for nan in (np.nan, -np.nan):
            pred[0, -1] = nan
            with np.errstate(invalid="ignore"):
                got = binary_cross_entropy(pred, target)
            expected = self._whole_array_bce(pred.copy(), target)
            assert np.isnan(got)
            assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)

    def test_bce_allocates_one_buffer_of_terms(self):
        # a 1,024-row slice of the 26x25 grid against float32 targets: the terms and a
        # two-piece scratch, where the whole-array pass held three slice-sized temporaries
        rng = np.random.default_rng(12)
        pred = rng.random((1024, 650))
        target = rng.random((1024, 650), dtype=np.float32)
        tracemalloc.start()
        try:
            binary_cross_entropy(pred, target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pred.nbytes + 3 * 8 * STEP_CHUNK


class TestOptimizers:
    def test_zero_gradient_keeps_params(self):
        for cls in (RMSprop, Adadelta):
            p = np.array([1.0, -2.0])
            opt = cls(p, train_config(epochs=1))
            opt.step(p, np.zeros(2))
            np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_rmsprop_first_step_value(self):
        # fresh accumulator, g = 1: a = 0.1, step = -lr / (sqrt(0.1) + eps)
        p = np.array([0.0])
        config = train_config(epochs=1, learning_rate=1e-3, rho=0.9, epsilon=1e-8)
        RMSprop(p, config).step(p, np.array([1.0]))
        expected = -1e-3 / (np.sqrt(0.1) + 1e-8)
        assert p[0] == pytest.approx(expected, rel=1e-12)
        assert p[0] == pytest.approx(-0.0031623, abs=1e-7)

    def test_adadelta_first_step_value(self):
        # a = (1-rho) g^2; update = g sqrt(eps) / sqrt(a + eps)
        p = np.array([0.0])
        config = train_config(epochs=1, learning_rate=1.0, rho=0.95, epsilon=1e-6,
                             optimizer="adadelta")
        Adadelta(p, config).step(p, np.array([2.0]))
        a = 0.05 * 4.0
        expected = -2.0 * np.sqrt(1e-6) / np.sqrt(a + 1e-6)
        assert p[0] == pytest.approx(expected, rel=1e-12)

    def test_flat_step_matches_the_per_array_reference(self):
        # five steps, one flat vector vs one loop per array, over three lengths: below one
        # STEP_CHUNK, exactly two, and the beta-VAE's parameter shapes (22 chunks and a tail)
        for shapes in [[(5, 8), (8,), (8, 6), (6,), (6, 4), (4,)],
                       [(STEP_CHUNK, 2)],
                       VAE_SHAPES]:
            sizes = [int(np.prod(shape)) for shape in shapes]
            rng = np.random.default_rng(12)
            start = rng.standard_normal(sum(sizes))
            grads = [rng.standard_normal(sum(sizes)) for _ in range(5)]
            cuts = np.cumsum(sizes)[:-1]

            def arrays(vector):
                return [part.reshape(shape)
                        for part, shape in zip(np.array_split(vector, cuts), shapes)]

            # the two trainers' settings: RMSprop defaults and the latent classifier's Adadelta
            for config, reference in [
                    (train_config(epochs=1), _reference_rmsprop),
                    (default_latent_train_config(epochs=1, seed=0), _reference_adadelta)]:
                flat = start.copy()
                opt = make_optimizer(flat, config)
                params = arrays(start.copy())
                accs = [[np.zeros_like(p) for p in params] for _ in _accumulators(opt)]
                for g in grads:
                    opt.step(flat, g)
                    reference(config, params, arrays(g), *accs)
                for got, want in [(flat, params), *zip(_accumulators(opt), accs)]:
                    np.testing.assert_array_equal(
                        got.view(np.int64),
                        np.concatenate([w.ravel() for w in want]).view(np.int64))

    @pytest.mark.parametrize("optimizer", ["rmsprop", "adadelta"])
    def test_step_allocates_less_than_one_vector(self, optimizer):
        n = sum(int(np.prod(shape)) for shape in VAE_SHAPES)
        rng = np.random.default_rng(5)
        flat, grad = rng.standard_normal(n), rng.standard_normal(n)
        opt = make_optimizer(flat, train_config(epochs=1, optimizer=optimizer))
        tracemalloc.start()
        try:
            opt.step(flat, grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < flat.nbytes
    def test_descent_on_full_batch(self):
        # five full-batch steps with a small rate never increase the loss
        rng = np.random.default_rng(3)
        net = small_net(seed=4)
        x = rng.random((32, 5))
        t = one_hot(rng.integers(0, 4, 32), 4)
        config = train_config(epochs=1, learning_rate=1e-4)
        opt = make_optimizer(net.flat, config)
        losses = []
        for _ in range(6):
            acts = net.forward(x)
            losses.append(categorical_cross_entropy(acts[-1], t))
            net.backward(acts, categorical_cross_entropy_grad(acts[-1], t))
            opt.step(net.flat, net.grad)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_nonfinite_gradient_aborts(self):
        # a finite loss with a non-finite gradient stops training before the step
        flat = np.array([1.0, -2.0])
        with pytest.raises(TrainingDivergedError, match="gradient"):
            list(train_epochs(flat, train_config(epochs=2), 5, 0,
                              lambda rows: (np.array([1.0, np.nan]), (1.0,))))
        np.testing.assert_array_equal(flat, [1.0, -2.0])

    def test_train_epochs_nan_loss_diverges_before_the_step(self):
        flat = np.array([1.0, -2.0])
        with pytest.raises(TrainingDivergedError, match="loss"):
            list(train_epochs(flat, train_config(epochs=2), 5, 0,
                              lambda rows: (np.ones(2), (float("nan"),))))
        np.testing.assert_array_equal(flat, [1.0, -2.0])

    def test_train_epochs_walks_each_row_once_per_epoch(self):
        seen = []

        def batch_step(rows):
            seen.append(rows)
            return np.zeros(1), (float(rows.shape[0]), 1.0)

        config = train_config(epochs=3, batch_size=4)
        epochs = list(train_epochs(np.zeros(1), config, 10, 7, batch_step))
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
            opt = make_optimizer(net.flat, train_config(epochs=1))
            for _ in range(10):
                acts = net.forward(x)
                net.backward(acts, categorical_cross_entropy_grad(acts[-1], t))
                opt.step(net.flat, net.grad)
            return net.flat.copy()

        np.testing.assert_array_equal(run(), run())


class TestGradCheck:
    def test_linear_net_squared_loss_is_exact(self):
        # a quadratic loss of a linear net: central differences are exact but for rounding
        rng = np.random.default_rng(5)
        net = make_net([LayerSpec(4, 3, "identity")], seed=6)
        x = rng.random((8, 4))
        t = rng.random((8, 3))

        def loss():
            d = net(x) - t
            return float(0.5 * (d * d).sum() / x.shape[0])

        acts = net.forward(x)
        net.backward(acts, (acts[-1] - t) / x.shape[0])
        assert audit_gradients(net.flat, loss, net.grad, seed=1) < 1e-8

    def test_wrong_gradient_is_caught(self):
        rng = np.random.default_rng(5)
        net = make_net([LayerSpec(4, 3, "identity")], seed=6)
        x = rng.random((8, 4))

        def loss():
            return float((net(x) ** 2).sum())

        acts = net.forward(x)
        net.backward(acts, acts[-1])  # half the true gradient
        assert audit_gradients(net.flat, loss, net.grad, seed=1) > 0.3


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


def write_checkpoint(path, header, body_bytes):
    """A checkpoint of the given header and a body of body_bytes zero bytes."""
    encoded = json.dumps(header).encode("utf-8")
    path.write_bytes(struct.pack("<4sII", b"NNCP", 1, len(encoded)) + encoded + bytes(body_bytes))
    return path


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = small_net(seed=11)
        config = train_config(epochs=3, rng_seed=4)
        path = tmp_path / "model.ckpt"
        save_model(path, {"kind": "toy", "note": "round trip"}, {"layers": net.layers}, net.flat,
                   config)
        header, nets, block = load_model(path, {"toy": lambda h: {"layers": net.layers}})
        assert header["kind"] == "toy"
        assert header["note"] == "round trip"
        assert header["train_config"] == asdict(config)
        assert header["layers"] == [{"in": 5, "out": 8, "activation": "relu"},
                                    {"in": 8, "out": 6, "activation": "relu"},
                                    {"in": 6, "out": 4, "activation": "softmax"}]
        assert header["param_shapes"] == [list(p.shape) for p in net.params]
        assert nets == {"layers": net.layers}
        assert block.dtype == np.float64
        np.testing.assert_array_equal(block.view(np.int64), net.flat.view(np.int64))
        # a checkpoint is outside input: a null train_config loads
        write_checkpoint(path, {**header, "train_config": None}, net.flat.nbytes)
        assert load_model(path, {"toy": lambda h: {"layers": net.layers}})[0]["train_config"] is None

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"garbage bytes that are not a checkpoint")
        with pytest.raises(ValueError):
            load_model(path, {"toy": lambda h: {}})

    def test_header_must_fit_in_the_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(struct.pack("<4sII", b"NNCP", 1, 2 ** 32 - 1) + b"{}")
        with pytest.raises(ValueError, match="truncated checkpoint header"):
            load_model(path, {"toy": lambda h: {}})

    @pytest.mark.parametrize("shapes, body_bytes", [
        ([[2, 3], [3]], 72 + 1), ([[2, 3], [3]], 72 + 8), ([[2, 3], [3]], 72 - 8),
        ([[10 ** 15], [3]], 72), ([[-2, 3], [4, 3]], 48)])
    def test_block_must_be_exactly_the_rest_of_the_file(self, tmp_path, shapes, body_bytes):
        layers = [LayerSpec(2, 3, "identity")]
        path = write_checkpoint(tmp_path / "model.ckpt", {
            "kind": "toy", "layers": [{"in": 2, "out": 3, "activation": "identity"}],
            "param_shapes": shapes}, body_bytes)
        with pytest.raises(ValueError, match="param_shapes do not match"):
            load_model(path, {"toy": lambda h: {"layers": layers}})

    def test_a_block_that_ends_early_is_named(self, tmp_path, monkeypatch):
        # a file cut after its size was checked: the block's read comes up short
        net = small_net()
        path = tmp_path / "model.ckpt"
        save_model(path, {"kind": "toy"}, {"layers": net.layers}, net.flat, train_config(epochs=1))
        path.write_bytes(path.read_bytes()[:-8])
        real_fstat = os.fstat
        monkeypatch.setattr(neuralcore.os, "fstat", lambda fd: SimpleNamespace(
            st_size=real_fstat(fd).st_size + 8))
        with pytest.raises(ValueError, match="parameter block ends early"):
            load_model(path, {"toy": lambda h: {"layers": net.layers}})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, -1])
    def test_a_non_finite_parameter_is_named(self, tmp_path, index, value):
        net = small_net()
        flat = net.flat.copy()
        flat[index] = value
        path = tmp_path / "model.ckpt"
        save_model(path, {"kind": "toy"}, {"layers": net.layers}, flat, train_config(epochs=1))
        with pytest.raises(ValueError, match="non-finite"):
            load_model(path, {"toy": lambda h: {"layers": net.layers}})

    def test_architecture_must_match_the_nets(self, tmp_path):
        net = small_net()
        kinds = {"toy": lambda h: {"layers": net.layers}}
        path = tmp_path / "model.ckpt"
        save_model(path, {"kind": "toy"}, {"layers": net.layers}, net.flat, train_config(epochs=1))
        header, _, _ = load_model(path, kinds)
        shapes = header["param_shapes"]
        wider = [{**header["layers"][0], "out": 9}, *header["layers"][1:]]
        for bad in [{"layers": wider}, {"layers": None},
                    {"param_shapes": shapes[:-1]}, {"param_shapes": [*shapes, shapes[-1]]},
                    {"param_shapes": [*shapes[:-1], [*shapes[-1], 1]]}, {"param_shapes": None}]:
            edited = {**header, **bad}
            # the body fits param_shapes, so the length rule passes whenever it can
            count = sum(int(np.prod(shape)) for shape in edited["param_shapes"] or [])
            write_checkpoint(path, edited, 8 * count)
            with pytest.raises(ValueError, match="architecture" if edited["param_shapes"]
                               else "param_shapes"):
                load_model(path, kinds)

    @pytest.mark.parametrize("kind", ["other", None, ["toy"]])
    def test_kind_must_be_accepted(self, tmp_path, kind):
        net = small_net()
        path = tmp_path / "model.ckpt"
        save_model(path, {"kind": kind}, {"layers": net.layers}, net.flat, train_config(epochs=1))
        with pytest.raises(ValueError, match="kind"):
            load_model(path, {"toy": lambda h: {"layers": net.layers}})


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0}, {"learning_rate": 0.0}, {"rho": 1.0}, {"rho": 0.0},
        {"optimizer": "sgd"}, {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
        {"epsilon": 0.0}, {"epsilon": -1.0}, {"epsilon": float("nan")},
        {"epsilon": float("inf")},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            train_config(epochs=1, **kwargs)
