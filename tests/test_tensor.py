"""Tensor core: op values, gradient checks, optimizer behavior."""

import math
import os
import select
import signal
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cosep import tensor as tc, trainer
from cosep.avnets import AudioNetCfg, ImageNetCfg, ModelBundle
from cosep.tensor import Tensor

from oracles import check_gradients, direct_conv2d, inflate_kernel, rel_err, synthesizer_chain


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad, dtype=np.float64)


@st.composite
def conv_cases(draw):
    """Random conv geometry; half the draws have F < C (the narrow-side
    lowering when stride is 1 and k > 1), the other half F >= C."""
    k = draw(st.sampled_from([1, 3, 5]))
    stride = draw(st.sampled_from([1, 2]))
    dilation = draw(st.sampled_from([1, 2]))
    padding = draw(st.integers(0, dilation * (k - 1) + 1))
    if draw(st.booleans()):
        c = draw(st.integers(2, 5))
        f = draw(st.integers(1, c - 1))
    else:
        c = draw(st.integers(1, 4))
        f = draw(st.integers(c, 5))
    low = max(1, dilation * (k - 1) + 1 - 2 * padding)
    h = draw(st.integers(low, low + 5))
    w = draw(st.integers(low, low + 5))
    n = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return dict(shape=(n, c, h, w), f=f, k=k, stride=stride, padding=padding,
                dilation=dilation, seed=seed)


class TestConv2d:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(conv_cases())
    # narrow side with F > 1 (the decoder shapes), dilated and 5x5; then im2col
    @example(dict(shape=(2, 6, 5, 5), f=2, k=3, stride=1, padding=1, dilation=1, seed=0))
    @example(dict(shape=(1, 5, 6, 4), f=3, k=3, stride=1, padding=2, dilation=2, seed=1))
    @example(dict(shape=(2, 4, 7, 6), f=3, k=5, stride=1, padding=0, dilation=1, seed=2))
    @example(dict(shape=(1, 3, 6, 6), f=4, k=3, stride=2, padding=1, dilation=1, seed=3))
    # the 1x1 heads' lowering: the unpadded input as the GEMM operand
    @example(dict(shape=(2, 5, 4, 6), f=3, k=1, stride=1, padding=0, dilation=1, seed=4))
    def test_matches_direct_loop_oracle(self, case):
        rng = np.random.default_rng(case["seed"])
        n, c, h, w_ = case["shape"]
        f, k = case["f"], case["k"]
        geom = dict(stride=case["stride"], padding=case["padding"], dilation=case["dilation"])
        x = t64(rng.standard_normal((n, c, h, w_)))
        w = t64(rng.standard_normal((f, c, k, k)))
        b = t64(rng.standard_normal(f))
        y = tc.conv2d(x, w, b, **geom).data
        expected = direct_conv2d(x.data, w.data, b.data, **geom)
        assert y.shape == expected.shape
        np.testing.assert_allclose(y, expected, rtol=1e-12, atol=1e-12)

        def loss():
            y = tc.conv2d(x, w, b, **geom)
            return tc.tsum(tc.mul(y, y))

        check_gradients(loss, [x, w, b], rng, probes=150)

    @pytest.mark.parametrize("padding", [0, 1])
    def test_pointwise_lowering_is_bit_identical_to_im2col(self, rng, padding):
        x = rng.standard_normal((2, 6, 5, 7)).astype(np.float32)
        w = rng.standard_normal((4, 6, 1, 1)).astype(np.float32)
        g = rng.standard_normal((2, 4, 5 + 2 * padding, 7 + 2 * padding)).astype(np.float32)
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        out_h, out_w = xp.shape[2:]
        taps = tc._taps(1, 1, 1, 1, out_h, out_w)
        runs = []
        for lower in (tc._conv_pointwise, tc._conv_im2col):
            y, fill, grads = lower(xp, w, taps, out_h, out_w)
            fill(0, len(xp))
            runs.append((y, *grads(g, True, True)))
        for a, b in zip(*runs):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_box_sum_of_ones(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        b = Tensor(np.zeros(1))
        y = tc.conv2d(x, w, b, stride=1, padding=1).data[0, 0]
        assert y[1, 1] == 9.0
        assert y[0, 0] == 4.0
        assert y[0, 2] == 4.0 and y[2, 0] == 4.0 and y[2, 2] == 4.0

    def test_dilation_preserves_shape(self):
        x = Tensor(np.arange(25, dtype=np.float32).reshape(1, 1, 5, 5))
        w = Tensor(np.ones((1, 1, 3, 3)))
        y = tc.conv2d(x, w, Tensor(np.zeros(1)), stride=1, padding=2, dilation=2)
        assert y.shape == (1, 1, 5, 5)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((3, 1, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            tc.conv2d(x, w, Tensor(np.zeros(3)))

    def test_nonpositive_output_raises(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        w = Tensor(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ValueError, match="output size"):
            tc.conv2d(x, w, Tensor(np.zeros(1)))

    def test_gradients_match_finite_differences(self, rng):
        x = t64(rng.standard_normal((2, 3, 8, 8)))
        w = t64(0.5 * rng.standard_normal((4, 3, 3, 3)))
        b = t64(rng.standard_normal(4))

        def loss():
            y = tc.conv2d(x, w, b, stride=2, padding=1)
            return tc.tsum(tc.mul(y, y))

        check_gradients(loss, [x, w, b], rng, probes=120)

    def test_dilated_gradients(self, rng):
        x = t64(rng.standard_normal((1, 2, 7, 7)))
        w = t64(rng.standard_normal((2, 2, 3, 3)))
        b = t64(np.zeros(2))

        def loss():
            return tc.tsum(tc.sigmoid(tc.conv2d(x, w, b, padding=2, dilation=2)))

        check_gradients(loss, [x, w], rng, probes=100)

    def test_dilation_equals_zero_inflated_kernel(self, rng):
        x = rng.standard_normal((2, 2, 9, 9)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        zero = Tensor(np.zeros(3, dtype=np.float32))
        for d in (2, 3):
            a = tc.conv2d(Tensor(x), Tensor(w), zero, padding=d, dilation=d).data
            b = tc.conv2d(Tensor(x), Tensor(inflate_kernel(w, d)), zero, padding=d).data
            np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-6)


class TestUpsampleBilinear:
    def test_constant_stays_constant(self):
        x = Tensor(np.full((1, 2, 3, 3), 7.25))
        y = tc.upsample_bilinear(x, 8, 11).data
        np.testing.assert_allclose(y, 7.25, rtol=1e-6)

    def test_two_by_two_to_three_center(self):
        x = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2))
        y = tc.upsample_bilinear(x, 3, 3).data[0, 0]
        assert abs(y[1, 1] - 1.5) < 1e-6
        np.testing.assert_allclose(y[0], [0.0, 0.5, 1.0], atol=1e-6)
        np.testing.assert_allclose(y[:, 0], [0.0, 1.0, 2.0], atol=1e-6)

    def test_downsampling_rejected(self):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        with pytest.raises(ValueError, match="smaller"):
            tc.upsample_bilinear(x, 2, 8)

    def test_gradients(self, rng):
        x = t64(rng.standard_normal((2, 2, 4, 5)))

        def loss():
            y = tc.upsample_bilinear(x, 9, 7)
            return tc.tsum(tc.mul(y, y))

        check_gradients(loss, [x], rng, probes=100)


class TestSpatialMaxPool:
    def test_single_peak(self):
        x = np.zeros((1, 1, 4, 4), dtype=np.float32)
        x[0, 0, 2, 1] = 5.0
        assert tc.spatial_max_pool(Tensor(x)).data[0, 0] == 5.0

    def test_tie_gradient_goes_to_first_position(self):
        x = Tensor(np.ones((1, 2, 3, 3)), requires_grad=True)
        y = tc.spatial_max_pool(x)
        tc.backward(tc.tsum(y))
        expected = np.zeros((1, 2, 3, 3), dtype=np.float32)
        expected[:, :, 0, 0] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_gradients_away_from_ties(self, rng):
        # distinct values guarantee the max is isolated from probe perturbations
        vals = rng.permutation(6 * 25).astype(np.float64).reshape(2, 3, 5, 5)
        x = t64(vals * 0.1)

        def loss():
            y = tc.spatial_max_pool(x)
            return tc.tsum(tc.mul(y, y))

        check_gradients(loss, [x], rng, probes=100)


class TestActivations:
    def test_softmax_uniform_logits(self):
        y = tc.softmax_T(Tensor(np.zeros((4, 32))), T=0.37).data
        np.testing.assert_allclose(y, 1 / 32, atol=1e-7)

    def test_softmax_scalar_values(self):
        y = tc.softmax_T(Tensor(np.array([[1.0, 0.0]])), T=1.0).data[0]
        assert abs(y[0] - 0.7311) < 1e-4
        assert abs(y[1] - 0.2689) < 1e-4

    def test_softmax_low_temperature_is_one_hot(self):
        y = tc.softmax_T(Tensor(np.array([[1.0, 0.0]])), T=0.1).data[0]
        assert y[0] >= 0.9999

    def test_softmax_sums_to_one(self, rng):
        x = Tensor(rng.standard_normal((8, 16)).astype(np.float32) * 10)
        for T in (0.01, 0.125, 1.0, 10.0):
            s = tc.softmax_T(x, T).data.sum(axis=-1)
            np.testing.assert_allclose(s, 1.0, atol=1e-6)

    def test_softmax_shift_invariance(self, rng):
        x = rng.standard_normal((5, 12)).astype(np.float32)
        a = tc.softmax_T(Tensor(x), 0.5).data
        b = tc.softmax_T(Tensor(x + 13.75), 0.5).data
        assert np.max(np.abs(a - b)) <= 1e-6

    def test_softmax_temperature_equals_scaled_logits(self, rng):
        x = rng.standard_normal((6, 10)).astype(np.float32)
        for T in (0.01, 0.125, 1.0, 10.0):
            a = tc.softmax_T(Tensor(x), T).data
            b = tc.softmax_T(Tensor(x / T), 1.0).data
            assert np.max(np.abs(a - b)) <= 1e-6

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            tc.softmax_T(Tensor(np.zeros((1, 4))), T=0.0)
        with pytest.raises(ValueError, match="positive"):
            tc.softmax_T(Tensor(np.zeros((1, 4))), T=-1.0)

    def test_softmax_gradients(self, rng):
        x = t64(rng.standard_normal((3, 7)))
        target = Tensor(rng.random((3, 7)), dtype=np.float64)

        def loss():
            return tc.tsum(tc.mul(tc.softmax_T(x, 0.5), target))

        check_gradients(loss, [x], rng, probes=100)

    def test_sigmoid_gradients(self, rng):
        x = t64(rng.standard_normal((4, 9)))

        def loss():
            return tc.tsum(tc.mul(tc.sigmoid(x), tc.sigmoid(x)))

        check_gradients(loss, [x], rng, probes=72)

    def test_sigmoid_is_the_float32_expression_bit_for_bit(self, rng):
        """``sigmoid`` is ``1 / (1 + exp(-x))`` evaluated in float32, at
        signed zeros, subnormals, both sides of the float32 exp overflow
        (88.7) and NaN too, and it warns about none of them."""
        tiny = np.finfo(np.float32).smallest_subnormal
        edges = np.array([0.0, tiny, 1e-40, 88.8, 104.0, 1e4, np.inf], dtype=np.float32)
        x = np.concatenate([edges, -edges, np.float32([np.nan]), (rng.standard_normal(4096) * 30).astype(np.float32)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = tc.sigmoid(Tensor(x)).data
        with np.errstate(over="ignore"):
            ref = np.float32(1) / (np.float32(1) + np.exp(-x))
        assert y.dtype == np.float32 and y.tobytes() == ref.tobytes()
        assert y[0] == 0.5 and y[len(edges)] == 0.5  # +0 and -0
        assert y[len(edges) - 1] == 1 and y[2 * len(edges) - 1] == 0  # +inf and -inf
        assert np.isnan(y[2 * len(edges)])

    def test_relu_gradients_away_from_kink(self, rng):
        base = rng.uniform(0.2, 1.0, size=(5, 6)) * rng.choice([-1.0, 1.0], size=(5, 6))
        x = t64(base)

        def loss():
            return tc.tsum(tc.mul(tc.relu(x), Tensor(np.arange(30, dtype=np.float64).reshape(5, 6), dtype=np.float64)))

        check_gradients(loss, [x], rng, probes=30)


class TestBceLoss:
    def test_half_prediction_is_ln2(self):
        pred = Tensor(np.full((3, 8), 0.5))
        target = Tensor((np.arange(24).reshape(3, 8) % 2).astype(np.float32))
        loss = tc.bce_loss(pred, target).item()
        assert abs(loss - math.log(2)) < 1e-6

    def test_perfect_prediction_is_tiny(self):
        target = Tensor((np.arange(16).reshape(4, 4) % 2).astype(np.float32))
        loss = tc.bce_loss(Tensor(target.data.copy()), target).item()
        assert loss <= 1e-6

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            tc.bce_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))

    def test_gradients(self, rng):
        logits = t64(rng.standard_normal((3, 5)))
        target = Tensor((rng.random((3, 5)) > 0.5).astype(np.float64), dtype=np.float64)

        def loss():
            return tc.bce_loss(tc.sigmoid(logits), target)

        check_gradients(loss, [logits], rng, probes=15, h=1e-4)


class TestBackwardAndOptimizers:
    def test_quadratic_gradient(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = tc.tsum(tc.mul(w, w))
        tc.backward(loss)
        np.testing.assert_allclose(w.grad, [2.0, 4.0], rtol=1e-6)

    def test_backward_rejects_non_scalar(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            tc.backward(tc.mul(w, w))

    def test_step_before_backward_warns_and_noops(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = tc.Adam([w], lr=0.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            opt.step()
        assert any("backward" in str(c.message) for c in caught)
        assert w.data[0] == 1.0

    def test_zero_grad_resets_exactly(self):
        w = Tensor(np.array([3.0, -1.0]), requires_grad=True)
        tc.backward(tc.tsum(tc.mul(w, w)))
        assert np.any(w.grad != 0)
        w.zero_grad()
        assert np.all(w.grad == 0)

    def test_grad_accumulates_across_backwards(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        tc.backward(tc.tsum(w))
        tc.backward(tc.tsum(w))
        assert w.grad[0] == 2.0

    def test_two_layer_net_gradients(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 6, 6)), dtype=np.float64)
        w1 = t64(0.5 * rng.standard_normal((3, 2, 3, 3)))
        b1 = t64(rng.standard_normal(3) * 0.1)
        w2 = t64(0.5 * rng.standard_normal((4, 3, 3, 3)))
        b2 = t64(rng.standard_normal(4) * 0.1)
        target = Tensor((rng.random((2, 4)) > 0.5).astype(np.float64), dtype=np.float64)

        def loss():
            h = tc.relu(tc.conv2d(x, w1, b1, stride=1, padding=1))
            h = tc.conv2d(h, w2, b2, stride=2, padding=1)
            v = tc.sigmoid(tc.spatial_max_pool(h))
            return tc.bce_loss(v, target)

        worst = check_gradients(loss, [w1, b1, w2, b2], rng, probes=120, h=1e-4)
        assert worst < 1e-3

    def test_no_two_grads_share_memory(self, rng):
        """An op hands over the gradient buffers it allocates and copies
        the views it passes on (reshape, concat, tsum, add)."""
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32), requires_grad=True)
        bias = Tensor(rng.standard_normal(16).astype(np.float32), requires_grad=True)
        h = tc.relu(tc.reshape(x, (2, 3, 4, 4)))
        s = tc.tsum(tc.concat([h, h], axis=1), axis=1, keepdims=True)
        y = tc.add(tc.reshape(s, (2, 16)), bias)
        loss = tc.tsum(tc.mul(y, y))
        tc.backward(loss)
        graph, stack = [], [loss]
        while stack:
            t = stack.pop()
            if all(t is not u for u in graph):
                graph.append(t)
                stack.extend(t._prev)
        grads = [t.grad for t in graph if t.requires_grad]
        assert len(grads) == 10 and all(g is not None for g in grads)
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_adam_decreases_quadratic(self):
        w = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = tc.Adam([w], lr=0.05)
        first = None
        for _ in range(200):
            opt.zero_grad()
            loss = tc.tsum(tc.mul(w, w))
            if first is None:
                first = loss.item()
            tc.backward(loss)
            opt.step()
        assert tc.tsum(tc.mul(w, w)).item() < 1e-3 * first

    def test_forward_is_deterministic(self, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        zero = Tensor(np.zeros(4, dtype=np.float32))
        a = tc.conv2d(Tensor(x), Tensor(w), zero, padding=1).data
        b = tc.conv2d(Tensor(x), Tensor(w), zero, padding=1).data
        assert np.array_equal(a, b)


class TestStructuralOps:
    def test_concat_and_slicing_gradients(self, rng):
        a = t64(rng.standard_normal((2, 3, 4, 4)))
        b = t64(rng.standard_normal((2, 2, 4, 4)))

        def loss():
            y = tc.concat([a, b], axis=1)
            return tc.tsum(tc.mul(y, y))

        check_gradients(loss, [a, b], rng, probes=80)

    def test_broadcast_mul_gradients(self, rng):
        v = t64(rng.standard_normal((2, 3)))
        feats = t64(rng.standard_normal((2, 3, 4, 4)))

        def loss():
            vv = tc.reshape(v, (2, 3, 1, 1))
            return tc.tsum(tc.sigmoid(tc.tsum(tc.mul(vv, feats), axis=1)))

        check_gradients(loss, [v, feats], rng, probes=100)

    def test_no_grad_suppresses_graph(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with tc.no_grad():
            y = tc.mul(w, w)
        assert not y.requires_grad and y._backward is None

    def test_nested_no_grad_restores_the_outer_state(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with tc.no_grad():
            with tc.no_grad():
                assert not tc.mul(w, w).requires_grad
            assert not tc.mul(w, w).requires_grad
        assert tc.mul(w, w).requires_grad

    def test_exception_in_no_grad_restores_recording(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError, match="inside"):
            with tc.no_grad():
                raise RuntimeError("inside")
        assert tc.mul(w, w).requires_grad


class TestWeightedChannelSum:
    @staticmethod
    def run(fused, reps, seed=0, n=3, k=5, g=7, t=9):
        """Value and gradients of the fused node or the chain, float32.
        ``v`` and ``feats`` enter through reshape nodes, as interior
        tensors do in the model, so their first gradients are recorded."""
        rng = np.random.default_rng(seed)
        leaves = [Tensor(a.astype(np.float32), requires_grad=True) for a in (
            rng.random((reps * n, k)), rng.standard_normal((n, k, g, t)),
            rng.standard_normal(k), rng.standard_normal(1))]
        v0, f0, w, b = leaves
        v, feats = tc.reshape(v0, v0.shape), tc.reshape(f0, f0.shape)
        op = tc.weighted_channel_sum if fused else synthesizer_chain
        y = op(v, feats, w, b)
        weight = Tensor(rng.standard_normal(y.shape).astype(np.float32))
        tc.backward(tc.tsum(tc.mul(tc.sigmoid(y), weight)))
        return y.data, v.grad, feats.grad, w.grad, b.grad

    @pytest.mark.parametrize("reps", [2, 1])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical_to_chain(self, reps, seed):
        fused, chain = self.run(True, reps, seed), self.run(False, reps, seed)
        assert fused[0].shape == (reps * 3, 1, 7, 9)
        for a, b in zip(fused, chain):
            assert a.dtype == np.float32 and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        # the feats gradient keeps the chain's channels-innermost layout
        assert fused[2].strides == chain[2].strides

    def test_bit_identical_to_chain_at_model_size(self):
        fused, chain = self.run(True, 2, n=8, k=16, g=64, t=64), self.run(False, 2, n=8, k=16, g=64, t=64)
        for a, b in zip(fused, chain):
            assert a.tobytes() == b.tobytes()

    def test_gradients(self, rng):
        v = t64(rng.random((4, 3)))
        feats = t64(rng.standard_normal((2, 3, 4, 5)))
        w = t64(rng.standard_normal(3))
        b = t64(rng.standard_normal(1))
        weight = Tensor(rng.standard_normal((4, 1, 4, 5)), dtype=np.float64)

        def loss():
            return tc.tsum(tc.mul(tc.sigmoid(tc.weighted_channel_sum(v, feats, w, b)), weight))

        check_gradients(loss, [v, feats, w, b], rng, probes=120)

    @pytest.mark.parametrize("v_shape,f_shape,w_shape", [
        ((3, 4), (2, 4, 5, 5), (4,)),    # 2 does not divide 3
        ((2, 4), (2, 3, 5, 5), (4,)),    # channel counts differ
        ((2, 4), (2, 4, 5, 5), (3,)),    # weights for 3 channels
    ])
    def test_bad_shapes_rejected(self, v_shape, f_shape, w_shape):
        with pytest.raises(ValueError, match="weighted_channel_sum"):
            tc.weighted_channel_sum(Tensor(np.zeros(v_shape)), Tensor(np.zeros(f_shape)),
                                    Tensor(np.zeros(w_shape)), Tensor(np.zeros(1)))


def set_workers(monkeypatch, cpus: int):
    """W = ``cpus`` for every ``conv2d`` with that many samples: pin the
    affinity and one BLAS thread."""
    monkeypatch.setattr(tc.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)


def range_threads(monkeypatch) -> list:
    """Records the thread that runs each sample range of ``conv2d``."""
    names, real = [], tc._over_samples

    def recording(fn, n):
        def named(lo, hi):
            names.append(threading.current_thread().name)
            fn(lo, hi)
        real(named, n)

    monkeypatch.setattr(tc, "_over_samples", recording)
    return names


# name -> (C, F, k, stride, dilation, padding), each naming its lowering
LOWERINGS = {
    "im2col": (3, 4, 3, 1, 1, 1),
    "im2col-stride2": (3, 4, 3, 2, 1, 1),
    "im2col-stride2-narrowing": (5, 2, 3, 2, 1, 1),
    "im2col-dilation2": (3, 4, 3, 1, 2, 2),
    "narrow": (5, 2, 3, 1, 1, 1),
    "narrow-dilation2": (5, 2, 3, 1, 2, 2),
    "pointwise": (4, 6, 1, 1, 1, 0),
    "pointwise-narrowing-padded": (4, 2, 1, 1, 1, 1),
}


def conv_bytes(n, case, seed=0):
    """The output and the input, kernel and bias gradients of one float32
    ``conv2d`` on ``n`` samples, as bytes."""
    c, f, k, stride, dilation, padding = LOWERINGS[case]
    rng = np.random.default_rng(seed)
    x, w, b = (Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
               for shape in ((n, c, 9, 8), (f, c, k, k), (f,)))
    y = tc.conv2d(x, w, b, stride=stride, padding=padding, dilation=dilation)
    g = Tensor(rng.standard_normal(y.shape).astype(np.float32))
    tc.backward(tc.tsum(tc.mul(y, g)))
    return [t.tobytes() for t in (y.data, x.grad, w.grad, b.grad)]


class TestSampleRanges:
    """``conv2d`` splits its samples over W threads; every bit is the same
    at W = 1 and W = 2."""

    @pytest.mark.parametrize("case", list(LOWERINGS))
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_conv_bytes_equal_at_one_and_two_workers(self, monkeypatch, n, case):
        set_workers(monkeypatch, 1)
        alone = conv_bytes(n, case)
        set_workers(monkeypatch, 2)
        threads = range_threads(monkeypatch)
        assert conv_bytes(n, case) == alone
        # forward and backward: two ranges each once there are two samples
        assert len(set(threads)) == min(n, 2) and len(threads) == 2 * min(n, 2)

    def test_training_step_equal_at_one_and_two_workers(self, monkeypatch):
        rng = np.random.default_rng(6)
        batch = (rng.random((3, 1, 64, 64)).astype(np.float32),
                 rng.random((6, 3, 64, 64)).astype(np.float32),
                 (rng.random((6, 1, 64, 64)) > 0.5).astype(np.float32))
        runs = []
        for cpus in (1, 2):
            set_workers(monkeypatch, cpus)
            bundle = ModelBundle(ImageNetCfg(), AudioNetCfg(), seed=5)
            opt = tc.Adam(bundle.param_list(), lr=1e-3)
            losses = [trainer._step_batch(batch, bundle, opt, symmetric=True) for _ in range(2)]
            runs.append((losses, {name: p.data.tobytes() for name, p in bundle.params().items()}))
        assert runs[0] == runs[1]

    def test_helper_keeps_the_callers_errstate(self, monkeypatch):
        """Sample 1 runs on the helper, whose overflow the caller's
        ``np.errstate(over="ignore")`` silences as well."""
        set_workers(monkeypatch, 2)
        x = Tensor(np.full((2, 3, 5, 5), 1e30, dtype=np.float32))
        w = Tensor(np.full((4, 3, 3, 3), 1e30, dtype=np.float32))
        b = Tensor(np.zeros(4, dtype=np.float32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                y = tc.conv2d(x, w, b, padding=1)
        assert np.isposinf(y.data).all()

    @pytest.mark.parametrize("failing", [0, 1])
    def test_failure_is_raised_once_every_range_has_finished(self, monkeypatch, failing):
        """Range ``failing`` (0 on the caller, 1 on the helper) raises at
        once while the other takes a while: the caller raises that
        exception, and only after the other range has finished."""
        set_workers(monkeypatch, 2)
        finished = []

        def work(lo, hi):
            if lo == failing:
                raise KeyError(f"range {lo}")
            time.sleep(0.3)
            finished.append(lo)

        with pytest.raises(KeyError, match=f"range {failing}"):
            tc._over_samples(work, 2)
        assert finished == [1 - failing]

    def test_forked_child_runs_every_range_itself(self, monkeypatch):
        """A child forked while a helper thread exists has no helper; its
        conv with two samples finishes and gives the parent's bytes."""
        set_workers(monkeypatch, 2)
        expected = conv_bytes(2, "narrow")
        assert any(t.name.startswith("cosep-samples") for t in threading.enumerate())
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(b"".join(conv_bytes(2, "narrow")))
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        got, ended, deadline = b"", False, time.monotonic() + 60
        try:
            while not ended and select.select([read_fd], [], [], max(0.0, deadline - time.monotonic()))[0]:
                chunk = os.read(read_fd, 1 << 16)
                got += chunk
                ended = not chunk
        finally:
            os.close(read_fd)
            if not ended:
                os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
        assert ended, "the forked child did not finish its conv within 60 s"
        assert os.waitstatus_to_exitcode(status) == 0 and got == b"".join(expected)
