"""Tensor core: op values, gradient checks, optimizer behavior."""

import math
import os
import select
import signal
import threading
import time
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cosep import tensor as tc, trainer
from cosep.avnets import AudioNetCfg, ImageNetCfg, ModelBundle
from cosep.tensor import Tensor

from oracles import (add, backward_checking_grad_owners, check_gradients, concat, direct_conv2d,
                     inflate_kernel, mul, rel_err, relu, reshape, synthesizer_chain, tsum)


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
    # the 1x1 heads: im2col's one offset, the unpadded input read in place
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
            return tsum(mul(y, y))

        check_gradients(loss, [x, w, b], rng, probes=150)

    @pytest.mark.parametrize("padding", [0, 1])
    def test_1x1_is_the_gemms_on_the_input_as_it_stands(self, rng, padding):
        """A 1x1 conv at stride 1 gives the bytes of its GEMMs spelled out
        on the (padded) input, reshaped to [N, C, H*W]: the output, and the
        input, kernel and bias gradients."""
        x, w, b = (Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
                   for shape in ((2, 6, 5, 7), (4, 6, 1, 1), (4,)))
        y = tc.conv2d(x, w, b, padding=padding)
        g = rng.standard_normal(y.shape).astype(np.float32)
        tc.backward(tsum(mul(y, Tensor(g))))
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        x_mat, w_mat, g_mat = xp.reshape(2, 6, -1), w.data.reshape(4, 6), g.reshape(2, 4, -1)
        gx = np.matmul(w_mat.T, g_mat).reshape(xp.shape)
        expected = [(np.matmul(w_mat, x_mat) + b.data[:, None]).reshape(y.shape),
                    gx[:, :, padding:padding + 5, padding:padding + 7],
                    np.matmul(g_mat, x_mat.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape),
                    g_mat.sum(axis=(0, 2))]
        for got, want in zip((y.data, x.grad, w.grad, b.grad), expected):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_1x1_gathers_no_buffer(self, monkeypatch):
        """The 1x1 forward reads its input in place: its peak allocation
        stays below the input's size, which a gathered copy would reach."""
        set_workers(monkeypatch, 1)
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 48, 32, 32)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 48, 1, 1)).astype(np.float32))
        b = Tensor(np.zeros(4, dtype=np.float32))
        tracemalloc.start()
        try:
            tc.conv2d(x, w, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.data.nbytes, f"peak {peak} B against a {x.data.nbytes} B input"

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
            return tsum(mul(y, y))

        check_gradients(loss, [x, w, b], rng, probes=120)

    def test_dilated_gradients(self, rng):
        x = t64(rng.standard_normal((1, 2, 7, 7)))
        w = t64(rng.standard_normal((2, 2, 3, 3)))
        b = t64(np.zeros(2))

        def loss():
            return tsum(tc.sigmoid(tc.conv2d(x, w, b, padding=2, dilation=2)))

        check_gradients(loss, [x, w], rng, probes=100)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.sampled_from([1, 3]), dilation=st.integers(1, 3), stride=st.integers(1, 2),
           padding=st.integers(0, 3), narrowing=st.booleans(), data=st.data())
    def test_dilation_equals_zero_inflated_kernel(self, k, dilation, stride, padding, narrowing, data):
        """A dilated kernel and its zero-inflated dense twin give the same
        output and input gradient, and the twin's kernel gradient at the
        kernel's taps is the dilated one's.  F < C and F >= C reach both
        lowerings, and k = 1 at stride 1 the im2col read in place."""
        c = data.draw(st.integers(2, 5) if narrowing else st.integers(1, 4))
        f = data.draw(st.integers(1, c - 1) if narrowing else st.integers(c, 5))
        low = max(1, dilation * (k - 1) + 1 - 2 * padding)
        h, w_ = data.draw(st.integers(low, low + 5)), data.draw(st.integers(low, low + 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        x = rng.standard_normal((2, c, h, w_))
        w = rng.standard_normal((f, c, k, k))
        bias = rng.standard_normal(f)
        runs = []
        for kernel, d in ((w, dilation), (inflate_kernel(w, dilation), 1)):
            xt, wt = t64(x), t64(kernel)
            y = tc.conv2d(xt, wt, t64(bias), stride=stride, padding=padding, dilation=d)
            weight = Tensor(np.cos(np.arange(y.size)).reshape(y.shape), dtype=np.float64)
            tc.backward(tsum(mul(y, weight)))
            runs.append((y.data, xt.grad, wt.grad))
        (ya, gxa, gwa), (yb, gxb, gwb) = runs
        for a, b in ((ya, yb), (gxa, gxb), (gwa, gwb[:, :, ::dilation, ::dilation])):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


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
            return tsum(mul(y, y))

        check_gradients(loss, [x], rng, probes=100)


class TestSpatialMaxPool:
    def test_single_peak(self):
        x = np.zeros((1, 1, 4, 4), dtype=np.float32)
        x[0, 0, 2, 1] = 5.0
        assert tc.spatial_max_pool(Tensor(x)).data[0, 0] == 5.0

    def test_tie_gradient_goes_to_first_position(self):
        x = Tensor(np.ones((1, 2, 3, 3)), requires_grad=True)
        y = tc.spatial_max_pool(x)
        tc.backward(tsum(y))
        expected = np.zeros((1, 2, 3, 3), dtype=np.float32)
        expected[:, :, 0, 0] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_gradients_away_from_ties(self, rng):
        # distinct values guarantee the max is isolated from probe perturbations
        vals = rng.permutation(6 * 25).astype(np.float64).reshape(2, 3, 5, 5)
        x = t64(vals * 0.1)

        def loss():
            y = tc.spatial_max_pool(x)
            return tsum(mul(y, y))

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
            return tsum(mul(tc.softmax_T(x, 0.5), target))

        check_gradients(loss, [x], rng, probes=100)

    def test_sigmoid_gradients(self, rng):
        x = t64(rng.standard_normal((4, 9)))

        def loss():
            return tsum(mul(tc.sigmoid(x), tc.sigmoid(x)))

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
            return tsum(mul(relu(x), Tensor(np.arange(30, dtype=np.float64).reshape(5, 6), dtype=np.float64)))

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

    def test_target_requiring_grad_raises(self):
        with pytest.raises(ValueError, match="target"):
            tc.bce_loss(Tensor(np.full((2, 2), 0.5)), Tensor(np.zeros((2, 2)), requires_grad=True))

    def test_gradients(self, rng):
        logits = t64(rng.standard_normal((3, 5)))
        target = Tensor((rng.random((3, 5)) > 0.5).astype(np.float64), dtype=np.float64)

        def loss():
            return tc.bce_loss(tc.sigmoid(logits), target)

        check_gradients(loss, [logits], rng, probes=15, h=1e-4)


class TestBackwardAndOptimizers:
    def test_quadratic_gradient(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = tsum(mul(w, w))
        tc.backward(loss)
        np.testing.assert_allclose(w.grad, [2.0, 4.0], rtol=1e-6)

    def test_backward_rejects_non_scalar(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            tc.backward(mul(w, w))

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
        tc.backward(tsum(mul(w, w)))
        assert np.any(w.grad != 0)
        w.zero_grad()
        assert np.all(w.grad == 0)

    def test_grad_accumulates_across_backwards(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        tc.backward(tsum(w))
        tc.backward(tsum(w))
        assert w.grad[0] == 2.0

    def test_two_layer_net_gradients(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 6, 6)), dtype=np.float64)
        w1 = t64(0.5 * rng.standard_normal((3, 2, 3, 3)))
        b1 = t64(rng.standard_normal(3) * 0.1)
        w2 = t64(0.5 * rng.standard_normal((4, 3, 3, 3)))
        b2 = t64(rng.standard_normal(4) * 0.1)
        target = Tensor((rng.random((2, 4)) > 0.5).astype(np.float64), dtype=np.float64)

        def loss():
            h = relu(tc.conv2d(x, w1, b1, stride=1, padding=1))
            h = tc.conv2d(h, w2, b2, stride=2, padding=1)
            v = tc.sigmoid(tc.spatial_max_pool(h))
            return tc.bce_loss(v, target)

        worst = check_gradients(loss, [w1, b1, w2, b2], rng, probes=120, h=1e-4)
        assert worst < 1e-3

    def test_first_gradient_must_match_data(self):
        """``_acc`` keeps a first gradient as it is, so one of another
        shape or dtype, even a broadcastable one, raises and sets no grad;
        a matching one becomes the grad, and later ones are added."""
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        for bad in (np.ones((3, 2), np.float32), np.ones((1, 3), np.float32), np.ones((2, 3))):
            with pytest.raises(ValueError, match="first gradient"):
                x._acc(bad)
            assert x.grad is None
        g = np.full((2, 3), 2, dtype=np.float32)
        x._acc(g)
        x._acc(np.ones((2, 3), dtype=np.float32))
        assert x.grad is g and np.all(g == 3)

    def test_no_two_grads_share_memory(self, rng):
        """An op hands over the gradient buffers it allocates, ``conv2d``
        copies its crops of the padded two-part input gradient, and the
        reference chain copies the views it passes on (reshape, concat,
        tsum, add): at every node's backward call, every live grad owns
        its buffer and no two share memory."""
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((1, 4, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(1).astype(np.float32), requires_grad=True)
        bias = Tensor(rng.standard_normal(16).astype(np.float32), requires_grad=True)
        h = relu(reshape(x, (2, 3, 4, 4)))
        s = tsum(concat([h, h], axis=1), axis=1, keepdims=True)
        c = tc.conv2d([h, s], w, b, padding=1)
        y = add(reshape(c, (2, 16)), bias)
        loss = tsum(mul(y, y))
        assert backward_checking_grad_owners(loss) == 13

    def test_adam_decreases_quadratic(self):
        w = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = tc.Adam([w], lr=0.05)
        first = None
        for _ in range(200):
            opt.zero_grad()
            loss = tsum(mul(w, w))
            if first is None:
                first = loss.item()
            tc.backward(loss)
            opt.step()
        assert tsum(mul(w, w)).item() < 1e-3 * first

    def test_forward_is_deterministic(self, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        zero = Tensor(np.zeros(4, dtype=np.float32))
        a = tc.conv2d(Tensor(x), Tensor(w), zero, padding=1).data
        b = tc.conv2d(Tensor(x), Tensor(w), zero, padding=1).data
        assert np.array_equal(a, b)


class TestGraphRelease:
    """``backward`` releases the graph as it walks it, and a released
    graph cannot be walked again."""

    @staticmethod
    def chain(x, w):
        """``sum(relu(x * w)^2)``: mul, relu, mul, tsum."""
        first = mul(x, w)
        h = relu(first)
        return first, h, tsum(mul(h, h))

    def test_interior_activations_die_before_the_first_op_backward(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        first, h, loss = self.chain(x, w)
        square = loss._prev[0]
        interior = [weakref.ref(t.data) for t in (h, square)]
        alive, run_first = [], first._backward

        def recording(g):
            alive.append([r() is not None for r in interior])
            run_first(g)

        first._backward = recording
        del first, h, square
        tc.backward(loss)
        assert alive == [[False, False]]
        assert loss._prev == () and loss._backward is None and loss.grad is None
        relu = np.maximum(x.data * w.data, 0)
        np.testing.assert_array_equal(x.grad, 2 * relu * (relu > 0) * w.data)
        np.testing.assert_array_equal(w.grad, 2 * relu * (relu > 0) * x.data)

    def test_second_walk_of_a_released_graph_raises(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        opt = tc.Adam([w], lr=0.1)
        _, h, loss = self.chain(x, w)
        tc.backward(loss)
        opt.step()
        grads, weights, walks = x.grad.copy(), w.data.copy(), tc._backward_counter
        for released in (loss, tsum(mul(h, h))):
            with pytest.raises(RuntimeError, match="released by an earlier backward"):
                tc.backward(released)
        assert tc._backward_counter == walks and np.array_equal(x.grad, grads)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            opt.step()   # no new walk: the stale grads are not applied again
        assert any("backward" in str(c.message) for c in caught)
        assert np.array_equal(w.data, weights)

    def test_fresh_forward_backs_a_new_walk(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        loss = self.chain(x, w)[2]
        tc.backward(loss)
        once = x.grad.copy()
        with pytest.raises(RuntimeError, match="released"):
            tc.backward(loss)
        x.zero_grad()
        tc.backward(self.chain(x, w)[2])
        assert np.array_equal(x.grad, once)


class TestStructuralOps:
    def test_concat_and_slicing_gradients(self, rng):
        a = t64(rng.standard_normal((2, 3, 4, 4)))
        b = t64(rng.standard_normal((2, 2, 4, 4)))

        def loss():
            y = concat([a, b], axis=1)
            return tsum(mul(y, y))

        check_gradients(loss, [a, b], rng, probes=80)

    def test_broadcast_mul_gradients(self, rng):
        v = t64(rng.standard_normal((2, 3)))
        feats = t64(rng.standard_normal((2, 3, 4, 4)))

        def loss():
            vv = reshape(v, (2, 3, 1, 1))
            return tsum(tc.sigmoid(tsum(mul(vv, feats), axis=1)))

        check_gradients(loss, [v, feats], rng, probes=100)

    def test_no_grad_suppresses_graph(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with tc.no_grad():
            y = mul(w, w)
        assert not y.requires_grad and y._backward is None

    def test_nested_no_grad_restores_the_outer_state(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with tc.no_grad():
            with tc.no_grad():
                assert not mul(w, w).requires_grad
            assert not mul(w, w).requires_grad
        assert mul(w, w).requires_grad

    def test_exception_in_no_grad_restores_recording(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError, match="inside"):
            with tc.no_grad():
                raise RuntimeError("inside")
        assert mul(w, w).requires_grad


class TestWeightedChannelSum:
    @staticmethod
    def run(fused, reps, seed=0, n=3, k=5, g=7, t=9):
        """Value and gradients of the fused node or the chain, float32.
        ``v`` and ``feats`` enter through reshape nodes, as interior
        tensors do in the model, so their first gradients are recorded:
        the walk releases interior grads, so the grad buffer each one
        holds after its last ``_acc`` is kept as it was handed over."""
        rng = np.random.default_rng(seed)
        leaves = [Tensor(a.astype(np.float32), requires_grad=True) for a in (
            rng.random((reps * n, k)), rng.standard_normal((n, k, g, t)),
            rng.standard_normal(k), rng.standard_normal(1))]
        v0, f0, w, b = leaves
        v, feats = reshape(v0, v0.shape), reshape(f0, f0.shape)
        op = tc.weighted_channel_sum if fused else synthesizer_chain
        y = op(v, feats, w, b)
        weight = Tensor(rng.standard_normal(y.shape).astype(np.float32))
        handed, real_acc = {}, Tensor._acc

        def recording_acc(self, grad):
            real_acc(self, grad)
            if self is v:
                handed["v"] = self.grad
            elif self is feats:
                handed["feats"] = self.grad

        with mock.patch.object(Tensor, "_acc", recording_acc):
            tc.backward(tsum(mul(tc.sigmoid(y), weight)))
        return y.data, handed["v"], handed["feats"], w.grad, b.grad

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
            return tsum(mul(tc.sigmoid(tc.weighted_channel_sum(v, feats, w, b)), weight))

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
    "im2col-unpadded": (3, 4, 3, 1, 1, 0),
    "narrow": (5, 2, 3, 1, 1, 1),
    "narrow-unpadded": (5, 2, 3, 1, 1, 0),
    "narrow-dilation2": (5, 2, 3, 1, 2, 2),
    "im2col-1x1": (4, 6, 1, 1, 1, 0),
    "im2col-1x1-narrowing-padded": (4, 2, 1, 1, 1, 1),
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
    tc.backward(tsum(mul(y, g)))
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
            losses = [trainer._step_batch(batch, bundle, opt) for _ in range(2)]
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


class TestFusedConvBlock:
    """``conv2d(parts, w, b, relu=True)`` is one node for the chain
    ``relu(conv2d(concat(parts), w, b))``, bit for bit."""

    @staticmethod
    def run(fused, case, n_parts):
        """The float32 output, each part's gradient, and the kernel and
        bias gradients, of the fused node or the chain on 3 samples, with
        the input channels of ``case`` split into ``n_parts`` parts.  The parts enter
        through reshape nodes, as the model's activations do, so the
        gradient buffer each holds after its last ``_acc`` is recorded
        before the walk releases it."""
        c, f, k, stride, dilation, padding = LOWERINGS[case]
        rng = np.random.default_rng(0)
        leaves = [Tensor(rng.standard_normal((3, len(chans), 9, 8)).astype(np.float32), requires_grad=True)
                  for chans in np.array_split(np.arange(c), n_parts)]
        w = Tensor(rng.standard_normal((f, c, k, k)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(f).astype(np.float32), requires_grad=True)
        parts = [reshape(leaf, leaf.shape) for leaf in leaves]
        geom = dict(stride=stride, padding=padding, dilation=dilation)
        if fused:
            y = tc.conv2d(parts if len(parts) > 1 else parts[0], w, b, relu=True, **geom)
        else:
            y = relu(tc.conv2d(concat(parts, axis=1) if len(parts) > 1 else parts[0], w, b, **geom))
        weight = Tensor(rng.standard_normal(y.shape).astype(np.float32))
        handed, real_acc = {}, Tensor._acc

        def recording_acc(self, grad):
            real_acc(self, grad)
            for i, part in enumerate(parts):
                if self is part:
                    handed[i] = self.grad

        with mock.patch.object(Tensor, "_acc", recording_acc):
            tc.backward(tsum(mul(y, weight)))
        return [y.data, *(handed[i] for i in range(len(parts))), w.grad, b.grad]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_parts", [1, 2, 3])
    @pytest.mark.parametrize("case", list(LOWERINGS))
    def test_bit_identical_to_chain(self, monkeypatch, case, n_parts, workers):
        set_workers(monkeypatch, workers)
        fused, chain = self.run(True, case, n_parts), self.run(False, case, n_parts)
        assert len(fused) == n_parts + 3
        assert 0 < (fused[0] == 0).mean() < 1   # the ReLU cuts some outputs, not all
        for a, b in zip(fused, chain):
            assert a.dtype == np.float32 and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_a_part_given_twice_gets_both_crops(self, rng):
        """``[h, h]`` as parts: ``h`` receives the sum of its two channel
        crops, as through ``concat([h, h])``, and no two live grads share
        memory at any node of the walk."""
        x = Tensor(rng.standard_normal((2, 2, 5, 5)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
        grads = []
        for fused in (True, False):
            for t in (x, w, b):
                t.zero_grad()
            h = reshape(x, x.shape)
            y = (tc.conv2d([h, h], w, b, padding=1, relu=True) if fused
                 else relu(tc.conv2d(concat([h, h]), w, b, padding=1)))
            backward_checking_grad_owners(tsum(mul(y, y)))
            grads.append([t.grad.tobytes() for t in (x, w, b)])
        assert grads[0] == grads[1]

    def test_gradients_match_finite_differences(self, rng):
        """A float64 fused block, parts of 2 and 3 channels, stride 2: no
        pre-activation lies within reach of the probes' steps of the kink."""
        parts = [t64(rng.standard_normal((2, c, 7, 7))) for c in (2, 3)]
        w = t64(0.5 * rng.standard_normal((4, 5, 3, 3)))
        b = t64(rng.standard_normal(4))
        weight = Tensor(rng.standard_normal((2, 4, 4, 4)), dtype=np.float64)
        geom = dict(stride=2, padding=1)
        with tc.no_grad():
            pre = tc.conv2d(parts, w, b, **geom).data
        assert np.abs(pre).min() > 1e-3 and (pre < 0).any() and (pre > 0).any()

        def loss():
            return tsum(mul(tc.conv2d(parts, w, b, relu=True, **geom), weight))

        check_gradients(loss, [*parts, w, b], rng, probes=150, h=1e-6)

    @pytest.mark.parametrize("shapes", [[(2, 2, 5, 5), (1, 3, 5, 5)], [(2, 2, 5, 5), (2, 3, 5, 4)], []])
    def test_mismatched_parts_rejected(self, shapes):
        parts = [Tensor(np.zeros(s, dtype=np.float32)) for s in shapes]
        with pytest.raises(ValueError, match="equal N, H and W"):
            tc.conv2d(parts, Tensor(np.zeros((1, 5, 3, 3))), Tensor(np.zeros(1)))
