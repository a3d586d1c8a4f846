import numpy as np
import pytest

from wavecnn import layers as L
from wavecnn.complexity import dwt2d_madds, layer_madds
from wavecnn.errors import InvalidConfig, OddSpatial, ShapeMismatch
from wavecnn.filterbank import get_wavelet, wavelet_names
from wavecnn.transform import Decomposition2D, dwt2d, dwt2d_vjp


def _init(layer, seed=0, dtype=np.float64):
    layer.init_params(np.random.default_rng(seed), np.dtype(dtype))
    return layer


class TestConv2d:
    def test_matches_naive_convolution(self):
        conv = _init(L.Conv2d(3, 2, 4, stride=1))
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 2, 5, 6))
        out = conv.forward(x)
        p = 1
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        naive = np.empty_like(out)
        for n in range(2):
            for co in range(4):
                for i in range(5):
                    for j in range(6):
                        patch = xp[n, :, i:i + 3, j:j + 3]
                        naive[n, co, i, j] = (patch * conv.weight[co]).sum() + conv.bias[co]
        assert np.allclose(out, naive, atol=1e-12)

    def test_stride_two_halves_odd_and_even(self):
        conv = _init(L.Conv2d(3, 1, 1, stride=2))
        assert conv.forward(np.zeros((1, 1, 8, 8))).shape == (1, 1, 4, 4)
        assert conv.forward(np.zeros((1, 1, 7, 7))).shape == (1, 1, 4, 4)
        assert conv.output_shape((1, 7, 7)) == (1, 4, 4)

    def test_rejects_wrong_channels(self):
        conv = _init(L.Conv2d(3, 2, 1))
        with pytest.raises(ShapeMismatch):
            conv.forward(np.zeros((1, 3, 4, 4)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            L.Conv2d(4, 1, 1)

    def test_madds_formula(self):
        conv = L.Conv2d(3, 2, 5, stride=1)
        assert layer_madds(conv, (2, 8, 8)) == 9 * 2 * 5 * 8 * 8
        conv2 = L.Conv2d(3, 2, 5, stride=2)
        assert layer_madds(conv2, (2, 8, 8)) == 9 * 2 * 5 * 4 * 4


class TestBatchNorm:
    def test_training_normalizes_batch(self):
        bn = _init(L.BatchNorm2d(3))
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 3, 6, 6)) * 4.0 + 2.0
        y = bn.forward(x, training=True)
        mean = y.mean(axis=(0, 2, 3))
        var = y.var(axis=(0, 2, 3))
        assert np.max(np.abs(mean)) < 1e-10
        assert np.max(np.abs(var - 1.0)) < 1e-6

    def test_running_stats_blend_and_drive_eval(self):
        bn = _init(L.BatchNorm2d(1))
        x = np.full((4, 1, 2, 2), 3.0)
        bn.forward(x, training=True)
        # one step from zero-init mean: (1 - 0.1) * 0 + 0.1 * 3
        assert np.allclose(bn.running_mean, 0.3)
        y = bn.forward(np.zeros((1, 1, 2, 2)), training=False)
        expected = (0.0 - 0.3) / np.sqrt(bn.running_var[0] + 1e-5)
        assert np.allclose(y, expected)

    def test_eval_does_not_touch_running_stats(self):
        bn = _init(L.BatchNorm2d(2))
        before = bn.running_mean.copy()
        bn.forward(np.ones((2, 2, 4, 4)), training=False)
        assert np.array_equal(bn.running_mean, before)


class TestPooling:
    def test_maxpool_values_and_ties(self):
        x = np.array([[[[1.0, 2.0, 5.0, 5.0],
                        [3.0, 4.0, 5.0, 5.0]]]])
        pool = L.MaxPool2()
        out = pool.forward(x, training=True)
        assert np.array_equal(out, [[[[4.0, 5.0]]]])
        g = pool.backward(np.ones_like(out))
        # ties route the gradient to the first occurrence in row-major order
        assert np.array_equal(g[0, 0], [[0, 0, 1, 0], [0, 1, 0, 0]])

    def test_avgpool_window_means(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = L.AvgPool2().forward(x)
        assert np.array_equal(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_odd_input_rejected(self):
        for pool in (L.MaxPool2(), L.AvgPool2()):
            with pytest.raises(OddSpatial):
                pool.forward(np.zeros((1, 1, 5, 4)))


class TestWaveletDown:
    def test_ll_reduces_shape(self):
        down = L.WaveletDown("ll", "haar")
        out = down.forward(np.ones((2, 3, 8, 8)))
        assert out.shape == (2, 3, 4, 4)
        assert np.allclose(out, 2.0)  # ll of a constant 1 under haar is 2

    def test_avg_is_mean_of_subbands(self):
        x = np.zeros((1, 1, 2, 2))
        x[0, 0] = [[1.0, 2.0], [3.0, 4.0]]
        out = L.WaveletDown("avg", "haar").forward(x)
        assert np.allclose(out, (5.0 - 2.0 - 1.0 + 0.0) / 4.0)

    def test_cat_stacks_channels_in_subband_order(self):
        x = np.zeros((1, 1, 2, 2))
        x[0, 0] = [[1.0, 2.0], [3.0, 4.0]]
        out = L.WaveletDown("cat", "haar").forward(x)
        assert out.shape == (1, 4, 1, 1)
        assert np.allclose(out[0, :, 0, 0], [5.0, -2.0, -1.0, 0.0])

    def test_cat_groups_by_subband_not_by_channel(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 4, 4))
        out = L.WaveletDown("cat", "haar").forward(x)
        solo0 = L.WaveletDown("cat", "haar").forward(x[:, :1])
        # first block of channels is ll for every input channel
        assert np.allclose(out[0, 0], solo0[0, 0])
        assert np.allclose(out[0, 2], solo0[0, 1])

    def test_odd_spatial_rejected(self):
        with pytest.raises(OddSpatial):
            L.WaveletDown("ll", "haar").forward(np.zeros((1, 1, 7, 8)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            L.WaveletDown("bandpass", "haar")

    def test_output_shape_and_madds_delegation(self):
        down = L.WaveletDown("cat", "db2")
        assert down.output_shape((3, 8, 10)) == (12, 4, 5)
        assert layer_madds(down, (3, 8, 10)) == dwt2d_madds(8, 10, 3)


class TestPadToEven:
    def test_pads_bottom_right_only_when_odd(self):
        pad = L.PadToEven()
        x = np.ones((1, 1, 7, 8))
        y = pad.forward(x, training=True)
        assert y.shape == (1, 1, 8, 8)
        assert np.all(y[..., 7, :] == 0.0)
        g = pad.backward(np.ones_like(y))
        assert g.shape == x.shape
        assert np.all(g == 1.0)

    def test_identity_on_even(self):
        pad = L.PadToEven()
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        assert np.array_equal(pad.forward(x, training=True), x)
        assert pad.output_shape((1, 4, 4)) == (1, 4, 4)
        assert pad.output_shape((1, 5, 5)) == (1, 6, 6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hw", [(7, 8), (8, 7), (7, 9)])
    def test_same_bytes_as_np_pad(self, hw, dtype):
        x = _tie_heavy((2, 3) + hw, dtype, 6)
        x[0, 0, 0, :2] = [np.nan, -np.inf]
        ref = np.pad(x, ((0, 0), (0, 0), (0, hw[0] % 2), (0, hw[1] % 2)))
        for inp in (x, _channel_major(x)):
            y = L.PadToEven().forward(inp)
            assert y.dtype == ref.dtype and y.shape == ref.shape
            assert y.tobytes() == ref.tobytes()


class TestLoss:
    def test_uniform_logits_give_log_k(self):
        loss = L.SoftmaxCrossEntropy()
        value = loss.forward(np.zeros((4, 10)), np.arange(4) % 10)
        assert value == pytest.approx(np.log(10.0), abs=1e-12)

    def test_gradient_sums_to_zero_over_classes(self):
        loss = L.SoftmaxCrossEntropy()
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((6, 5))
        loss.forward(logits, rng.integers(0, 5, 6))
        g = loss.backward()
        assert np.max(np.abs(g.sum(axis=1))) < 1e-12

    def test_extreme_logits_stay_finite(self):
        loss = L.SoftmaxCrossEntropy()
        logits = np.array([[1e4, -1e4], [-1e4, 1e4]])
        value = loss.forward(logits, np.array([0, 1]))
        assert np.isfinite(value) and value < 1e-6

    @pytest.mark.parametrize("labels", [np.zeros(2, dtype=int), np.zeros((3, 1), dtype=int)])
    def test_labels_not_one_per_row_rejected(self, labels):
        with pytest.raises(ShapeMismatch, match="loss expects"):
            L.SoftmaxCrossEntropy().forward(np.zeros((3, 5)), labels)

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_labels_outside_the_classes_rejected(self, bad):
        # -1 would read the last class, 5 would index past the logits
        with pytest.raises(InvalidConfig, match="labels must lie in 0..4"):
            L.SoftmaxCrossEntropy().forward(np.zeros((3, 5)), np.array([0, bad, 4]))


_SHAPE_CASES = {  # a layer, an NCHW (or NF) input it accepts, inputs it rejects
    "conv": (lambda: L.Conv2d(3, 2, 4, stride=2), (2, 2, 7, 6),
             [(2, 3, 7, 6), (2, 2, 7), (2, 2, 1, 7, 6)]),
    "batchnorm": (lambda: L.BatchNorm2d(3), (2, 3, 5, 4), [(2, 4, 5, 4), (2, 3, 20)]),
    "relu": (L.ReLU, (2, 3, 5, 4), []),
    "max_pool": (L.MaxPool2, (2, 3, 6, 4), [(2, 3, 5, 4), (2, 3, 6, 5), (2, 12)]),
    "avg_pool": (L.AvgPool2, (2, 3, 6, 4), [(2, 3, 5, 4), (2, 24)]),
    "dwt_ll": (lambda: L.WaveletDown("ll", "db2"), (2, 3, 6, 4), [(2, 3, 7, 4), (2, 3, 6)]),
    "dwt_avg": (lambda: L.WaveletDown("avg", "db2"), (2, 3, 6, 4), [(2, 3, 6, 3)]),
    "dwt_cat": (lambda: L.WaveletDown("cat", "haar"), (2, 3, 6, 4),
                [(2, 3, 6, 3), (2, 3, 6)]),
    "pad": (L.PadToEven, (2, 3, 5, 4), [(2, 3, 5), (2, 3, 5, 4, 1)]),
    "flatten": (L.Flatten, (2, 3, 5, 4), []),
    "dense": (lambda: L.Dense(6, 3), (2, 6), [(2, 5), (2, 2, 3)]),
}


class TestOutputShapeIsTheContract:
    """``output_shape`` is the one statement of what a layer accepts."""

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("kind", _SHAPE_CASES)
    def test_forward_gives_the_output_shape(self, kind, training):
        make, good, _ = _SHAPE_CASES[kind]
        layer = _init(make())
        out = layer.forward(np.ones(good), training)
        assert out.shape == (good[0],) + layer.output_shape(good[1:])

    @pytest.mark.parametrize("kind,bad", [(kind, bad) for kind, (_, _, rejects)
                                          in _SHAPE_CASES.items() for bad in rejects])
    def test_forward_raises_the_output_shape_error(self, kind, bad):
        layer = _init(_SHAPE_CASES[kind][0]())
        with pytest.raises((ShapeMismatch, OddSpatial)) as want:
            layer.output_shape(bad[1:])
        with pytest.raises(want.type) as got:
            layer.forward(np.ones(bad))
        assert str(got.value) == str(want.value)
        with pytest.raises(want.type):
            layer_madds(layer, bad[1:])


# --- the formulations the layers replaced, kept as references ---


def _ref_window4(x):
    n, c, h, w = x.shape
    v = x.reshape(n, c, h // 2, 2, w // 2, 2)
    return np.moveaxis(v, 3, 4).reshape(n, c, h // 2, w // 2, 4)


def _ref_unwindow4(gwin):
    n, c, h2, w2, _ = gwin.shape
    v = gwin.reshape(n, c, h2, w2, 2, 2)
    return np.moveaxis(v, 4, 3).reshape(n, c, 2 * h2, 2 * w2)


def ref_relu(x, g):
    mask = x > 0
    return np.where(mask, x, 0), np.where(mask, g, 0)


def ref_max_pool(x, g):
    win = _ref_window4(x)
    arg = win.argmax(axis=-1)
    y = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    gwin = np.zeros(win.shape, dtype=g.dtype)
    np.put_along_axis(gwin, arg[..., None], g[..., None], axis=-1)
    return y, _ref_unwindow4(gwin)


def ref_avg_pool(x, g):
    gwin = np.broadcast_to((g / 4.0)[..., None], g.shape + (4,))
    return _ref_window4(x).mean(axis=-1), _ref_unwindow4(gwin)


def ref_subband_mean(x, g, spec):
    """``WaveletDown("avg")`` as the mean of the four subbands, and its vjp."""
    q = g / 4.0
    return (sum(dwt2d(x, spec).subbands()) / 4.0,
            dwt2d_vjp(Decomposition2D(q, q, q, q, x.shape[2:]), spec))


def ref_batchnorm(x, g, gamma, beta, mean, var, training, eps=1e-5):
    """Returns (y, grad_x, grad_gamma, grad_beta, batch_mean, batch_var)."""
    if training:
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[:, None, None]) * inv_std[:, None, None]
    y = gamma[:, None, None] * xhat + beta[:, None, None]
    ggamma = (g * xhat).sum(axis=(0, 2, 3))
    gbeta = g.sum(axis=(0, 2, 3))
    gxhat = g * gamma[:, None, None]
    if training:
        m = g.shape[0] * g.shape[2] * g.shape[3]
        sum_g = gxhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        gx = (inv_std[:, None, None] / m) * (m * gxhat - sum_g - xhat * sum_gx)
    else:
        gx = gxhat * inv_std[:, None, None]
    return y, gx, ggamma, gbeta, mean, var


def ref_conv(x, g, weight, bias, stride):
    """Returns (y, grad_x, grad_weight, grad_bias) of the per-tap moveaxis im2col."""
    n, c_in, h, w = x.shape
    k, s, p = weight.shape[-1], stride, weight.shape[-1] // 2
    ho, wo = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    cols = np.empty((c_in, k, k, n, ho, wo), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            cols[:, ki, kj] = np.moveaxis(xp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s], 0, 1)
    out = np.tensordot(weight, cols, axes=([1, 2, 3], [0, 1, 2]))
    out += bias[:, None, None, None]
    gm = np.moveaxis(g, 1, 0)
    gbias = gm.sum(axis=(1, 2, 3))
    gweight = np.tensordot(gm, cols, axes=([1, 2, 3], [3, 4, 5]))
    gcols = np.tensordot(weight, gm, axes=([0], [0]))
    gxp = np.zeros((n, c_in, h + 2 * p, w + 2 * p), dtype=g.dtype)
    for ki in range(k):
        for kj in range(k):
            gxp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s] += np.moveaxis(gcols[:, ki, kj], 1, 0)
    return np.moveaxis(out, 0, 1), gxp[:, :, p:p + h, p:p + w], gweight, gbias


def _channel_major(a):
    """``a`` as a view of a ``(C, N, H, W)`` buffer, the layout a conv returns."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


# (kernel, c_in, c_out, stride, hw): odd sizes and kernels, then every conv of
# mini_config: the three stages, the dwt_cat stages 2 and 3 with fourfold
# input channels, and the strided_conv down-samplers at 28, 14 and 8 px
CONV_CASES = [(3, 3, 4, 1, (7, 9)), (3, 3, 4, 2, (7, 9)), (5, 3, 4, 1, (6, 5)),
              (5, 3, 4, 2, (8, 11)), (1, 3, 4, 2, (5, 5)),
              (3, 1, 16, 1, (28, 28)), (3, 16, 32, 1, (14, 14)), (3, 32, 64, 1, (7, 7)),
              (3, 64, 32, 1, (14, 14)), (3, 128, 64, 1, (7, 7)),
              (3, 16, 16, 2, (28, 28)), (3, 32, 32, 2, (14, 14)), (3, 64, 64, 2, (8, 8))]


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    word = f"u{a.dtype.itemsize}"
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(word), b.view(word))


def _tie_heavy(shape, dtype, seed):
    """Small integers with random signs of zero: many ties, ±0 in every window mix."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=shape).astype(dtype)
    zero = x == 0
    x[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
    return x


def _close(got, ref, dtype):
    tol = 1e-12 if dtype == np.float64 else 1e-5
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.max(np.abs(got - ref)) <= tol * max(1.0, float(np.max(np.abs(ref))))


DTYPES = [np.float32, np.float64]


class TestMatchesReplacedFormulation:
    """The rewritten layers against the formulations they replaced."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("data", ["normal", "ties"])
    @pytest.mark.parametrize("kind", ["relu", "max_pool", "avg_pool"])
    def test_elementwise_and_pooling_bit_identical(self, kind, data, dtype):
        shape = (3, 2, 6, 10)
        if data == "ties":
            x, g = _tie_heavy(shape, dtype, 0), _tie_heavy(shape, dtype, 1)
        else:
            rng = np.random.default_rng(2)
            x, g = rng.standard_normal((2,) + shape).astype(dtype)
        if kind == "relu":
            layer, ref = L.ReLU(), ref_relu
        else:
            g = g[:, :, ::2, ::2].copy()
            layer, ref = (L.MaxPool2(), ref_max_pool) if kind == "max_pool" \
                else (L.AvgPool2(), ref_avg_pool)
        y_ref, gx_ref = ref(x, g)
        y, gx = layer.forward(x, training=True), layer.backward(g)
        if kind == "avg_pool":
            # a matrix product: it rounds in another order and keeps no sign of zero
            _close(y, y_ref, dtype)
            _close(gx, gx_ref, dtype)
        else:
            assert _same_bits(y, y_ref)
            assert _same_bits(gx, gx_ref)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_max_pool_all_equal_windows_route_to_first(self, dtype):
        x = np.zeros((1, 2, 2, 4), dtype=dtype)
        x[0, 0] = [[-0.0, 0.0, 1.5, 1.5], [0.0, -0.0, 1.5, 1.5]]
        x[0, 1] = [[0.0, -0.0, -1.0, -1.0], [-0.0, -0.0, -1.0, -1.0]]
        g = np.array([[[[-2.0, -0.0]], [[3.0, 4.0]]]], dtype=dtype)
        pool = L.MaxPool2()
        y_ref, gx_ref = ref_max_pool(x, g)
        y = pool.forward(x, training=True)
        assert _same_bits(y, y_ref)
        assert np.signbit(y[0, 0, 0, 0]) and not np.signbit(y[0, 1, 0, 0])
        gx = pool.backward(g)
        assert _same_bits(gx, gx_ref)
        assert np.count_nonzero(gx) == 3 and gx[0, 0, 0, 0] == -2.0
        assert np.signbit(gx[0, 0, 0, 2]) and not np.signbit(gx[0, 0, 0, 3])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", [(4, 3, 5, 7), (2, 5, 6, 6)])
    def test_batchnorm_matches(self, shape, training, dtype):
        rng = np.random.default_rng(3)
        bn = L.BatchNorm2d(shape[1])
        bn.init_params(rng, np.dtype(dtype))
        bn.gamma[...] = rng.uniform(0.5, 2.0, shape[1])
        bn.beta[...] = rng.standard_normal(shape[1])
        bn.running_mean[...] = rng.standard_normal(shape[1])
        bn.running_var[...] = rng.uniform(0.5, 2.0, shape[1])
        x = (rng.standard_normal(shape) * 3.0 + 1.0).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        mean0, var0 = bn.running_mean.copy(), bn.running_var.copy()
        y_ref, gx_ref, gg_ref, gb_ref, mean, var = ref_batchnorm(
            x, g, bn.gamma, bn.beta, mean0, var0, training)
        _close(bn.forward(x, training=training), y_ref, dtype)
        if not training:
            with pytest.raises(InvalidConfig):
                bn.backward(g)
            assert np.array_equal(bn.running_mean, mean0)
            assert np.array_equal(bn.running_var, var0)
            return
        _close(bn.backward(g), gx_ref, dtype)
        _close(bn.grad_gamma, gg_ref, dtype)
        _close(bn.grad_beta, gb_ref, dtype)
        _close(bn.running_mean, (0.9 * mean0 + 0.1 * mean).astype(dtype), dtype)
        _close(bn.running_var, (0.9 * var0 + 0.1 * var).astype(dtype), dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("batch", [1, 3, 64])
    @pytest.mark.parametrize("kernel,c_in,c_out,stride,hw", CONV_CASES)
    def test_conv_matches(self, kernel, c_in, c_out, stride, hw, batch, training, dtype):
        rng = np.random.default_rng(4)
        conv = _init(L.Conv2d(kernel, c_in, c_out, stride=stride), seed=5, dtype=dtype)
        x = rng.standard_normal((batch, c_in) + hw).astype(dtype)
        y = conv.forward(_channel_major(x), training=training)
        # both input layouts give the same bits; a training output is a view of
        # a channel-major (C_out, N, Ho, Wo) buffer, as before the batch-last
        # im2col, and an inference output one of the batch-last (C_out, Ho, Wo,
        # N) buffer the GEMM writes
        assert _same_bits(conv.forward(x, training=training), y)
        assert y.transpose((1, 0, 2, 3) if training else (1, 2, 3, 0)).flags.c_contiguous
        g = rng.standard_normal(y.shape).astype(dtype)
        y_ref, gx_ref, gw_ref, gb_ref = ref_conv(x, g, conv.weight, conv.bias, stride)
        _close(y, y_ref, dtype)
        if not training:
            with pytest.raises(InvalidConfig):
                conv.backward(g)
            return
        gx = conv.backward(_channel_major(g))
        gw, gb = conv.grad_weight, conv.grad_bias
        _close(gx, gx_ref, dtype)
        _close(gw, gw_ref, dtype)
        _close(gb, gb_ref, dtype)
        assert gx.transpose(1, 0, 2, 3).flags.c_contiguous
        # an NCHW-contiguous gradient gives the same bits
        assert _same_bits(conv.backward(g), gx)
        assert _same_bits(conv.grad_weight, gw) and _same_bits(conv.grad_bias, gb)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("batch", [0, 1, 3, 64])
    @pytest.mark.parametrize("kernel,c_in,c_out,stride,hw", CONV_CASES)
    def test_conv_row_chunks_match_the_one_chunk_run(self, kernel, c_in, c_out, stride, hw, batch,
                                                    dtype, monkeypatch):
        """With a scratch budget of two output rows' columns, every case runs
        several row chunks (one row each at batch 0), and an odd row count
        ends on a one-row chunk.  At batch 64 each chunk holds a multiple of
        64 columns, so BLAS computes every output column with the kernel it
        uses in the one-chunk run: the output and the input gradient keep
        every bit.  At batches 1 and 3 a chunk ends inside a BLAS block, and
        OpenBLAS rounds such tail columns by another kernel, so they match to
        rounding.  The weight gradient sums the chunks' products, so it
        matches to rounding at every batch."""
        rng = np.random.default_rng(6)
        conv = _init(L.Conv2d(kernel, c_in, c_out, stride=stride), seed=7, dtype=dtype)
        x = rng.standard_normal((batch, c_in) + hw).astype(dtype)
        _, ho, wo = conv.output_shape(x.shape[1:])
        g = rng.standard_normal((batch, c_out, ho, wo)).astype(dtype)
        row = c_in * kernel * kernel * wo * batch * np.dtype(dtype).itemsize

        def run(scratch):
            monkeypatch.setattr(L, "_SCRATCH", scratch)
            y = conv.forward(x, training=True)
            return y, conv.backward(g), conv.grad_weight, conv.grad_bias
        y1, gx1, gw1, gb1 = run(ho * max(row, 1))
        assert len(conv._chunks(ho, wo, batch, np.dtype(dtype).itemsize)) == 1
        y, gx, gw, gb = run(2 * row)
        chunks = conv._chunks(ho, wo, batch, np.dtype(dtype).itemsize)
        assert len(chunks) == (ho if batch == 0 else -(-ho // 2)) and len(chunks) > 1
        assert _same_bits(gb, gb1)
        if batch % 64 == 0:
            assert _same_bits(y, y1) and _same_bits(gx, gx1)
        else:
            _close(y, y1, dtype)
            _close(gx, gx1, dtype)
        _close(gw, gw1, dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("wavelet", wavelet_names())
    def test_ll_backward_matches_full_vjp(self, wavelet, dtype):
        """The replaced backward ran the full vjp with three zero bands.  Odd
        maps go through PadToEven; sides over 32 px take the tiled path."""
        spec = get_wavelet(wavelet)
        rng = np.random.default_rng(8)
        for hw in [(2, 3), (7, 9), (14, 14), (28, 27), (35, 34), (40, 65)]:
            x = rng.standard_normal((3, 2) + hw).astype(dtype)
            pad, down = L.PadToEven(), L.WaveletDown("ll", wavelet)
            y = down.forward(pad.forward(_channel_major(x), training=True), training=True)
            g = _channel_major(rng.standard_normal(y.shape).astype(dtype))
            even = (hw[0] + hw[0] % 2, hw[1] + hw[1] % 2)
            zero = np.zeros_like(g)
            ref = dwt2d_vjp(Decomposition2D(g, zero, zero, zero, even), spec)[:, :, :hw[0], :hw[1]]
            _close(pad.backward(down.backward(g)), ref, dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("wavelet", wavelet_names())
    def test_avg_matches_subband_mean(self, wavelet, dtype):
        """Sides over 32 px take the tiled path."""
        spec = get_wavelet(wavelet)
        rng = np.random.default_rng(9)
        for hw in [(2, 2), (6, 10), (28, 28), (14, 14), (8, 8), (34, 70)]:
            x = rng.standard_normal((3, 2) + hw).astype(dtype)
            g = rng.standard_normal((3, 2, hw[0] // 2, hw[1] // 2)).astype(dtype)
            down = L.WaveletDown("avg", wavelet)
            y_ref, gx_ref = ref_subband_mean(x, g, spec)
            _close(down.forward(x, training=True), y_ref, dtype)
            _close(down.backward(g), gx_ref, dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_avg_pool_matches_window_mean_on_tiled_sides(self, dtype):
        rng = np.random.default_rng(10)
        for hw in [(34, 8), (8, 70), (66, 34)]:
            x, g = rng.standard_normal((2, 2, 2) + hw).astype(dtype)
            g = g[:, :, ::2, ::2].copy()
            pool = L.AvgPool2()
            y_ref, gx_ref = ref_avg_pool(x, g)
            _close(pool.forward(x, training=True), y_ref, dtype)
            _close(pool.backward(g), gx_ref, dtype)

    def test_relu_propagates_nan(self):
        # NaN must reach the loss, so that train stops with DivergedLoss
        relu = L.ReLU()
        y = relu.forward(np.array([[[[np.nan, -1.0, 2.0]]]]), training=True)
        assert np.isnan(y[0, 0, 0, 0]) and y[0, 0, 0, 1] == 0.0
        assert np.array_equal(relu.backward(np.ones_like(y)), [[[[0.0, 0.0, 1.0]]]])
