"""Inference forwards: same bits as before, no backward state kept."""

import copy
import tracemalloc

import numpy as np
import pytest

from wavecnn import layers as L
from wavecnn import network as nw
from wavecnn.datasets import synthetic_classification
from wavecnn.errors import InvalidConfig
from wavecnn.filterbank import get_wavelet, wavelet_names
from wavecnn.robustness import ShiftTrialConfig, error_matrix, shift_consistency
from wavecnn.transform import dwt2d, lowpass2d

DTYPES = [np.float32, np.float64]
MODES = [("max_pool", ""), ("avg_pool", ""), ("strided_conv", ""),
         ("dwt_ll", "haar"), ("dwt_avg", "db4"), ("dwt_cat", "ch3.3")]


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    word = f"u{a.dtype.itemsize}"
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(word), b.view(word))


def _holds_array(value):
    if isinstance(value, (tuple, list)):
        return any(_holds_array(v) for v in value)
    return isinstance(value, np.ndarray)


def _kept_arrays(layer):
    """Names of the attributes of ``layer`` that hold an ndarray, alone or in
    a tuple or list, other than its declared params and buffers and their
    ``grad_*``: whatever a forward kept, under any name."""
    declared = {*layer.param_shapes(), *layer.buffer_shapes()}
    declared |= {"grad_" + name for name in layer.param_shapes()}
    return sorted(name for name, value in vars(layer).items()
                  if name not in declared and _holds_array(value))


def _data(shape, dtype, kind, seed=0):
    """Normal samples, or small integers with random signs of zero (ties, ±0)."""
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.standard_normal(shape).astype(dtype)
    x = rng.integers(-2, 3, size=shape).astype(dtype)
    zero = x == 0
    x[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
    return x


def _layer(kind, dtype):
    rng = np.random.default_rng(7)
    layer = {
        "conv": lambda: L.Conv2d(3, 3, 4),
        "strided_conv": lambda: L.Conv2d(3, 3, 4, stride=2),
        "batchnorm": lambda: L.BatchNorm2d(3),
        "relu": L.ReLU,
        "max_pool": L.MaxPool2,
        "avg_pool": L.AvgPool2,
        "dwt_avg": lambda: L.WaveletDown("avg", "db2"),
        "dwt_cat": lambda: L.WaveletDown("cat", "ch2.2"),
        "pad": L.PadToEven,
        "flatten": L.Flatten,
        "dense": lambda: L.Dense(3 * 6 * 10, 5),
    }[kind]()
    layer.init_params(rng, np.dtype(dtype))
    if kind == "batchnorm":
        layer.gamma[...] = rng.uniform(0.5, 2.0, 3)
        layer.beta[...] = rng.standard_normal(3)
        layer.running_mean[...] = rng.standard_normal(3)
        layer.running_var[...] = rng.uniform(0.5, 2.0, 3)
    return layer


def ref_batchnorm_infer(bn, x):
    """The inference formula that kept ``xhat``, step by step."""
    xhat = x - bn.running_mean[:, None, None]
    inv_std = 1.0 / np.sqrt(bn.running_var + bn.EPS)
    xhat *= inv_std[:, None, None]
    out = xhat * bn.gamma[:, None, None]
    out += bn.beta[:, None, None]
    return out


LAYER_KINDS = ["conv", "strided_conv", "batchnorm", "relu", "max_pool", "avg_pool",
               "dwt_avg", "dwt_cat", "pad", "flatten", "dense"]


class TestInferenceForward:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("data", ["normal", "ties"])
    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_bit_identical_to_stateful_forward(self, kind, data, dtype):
        """Apart from BatchNorm, an inference forward used to run the training
        forward's code; BatchNorm is checked against its old inference steps."""
        x = _data((4, 3, 7, 9) if kind == "pad" else (4, 3, 6, 10), dtype, data)
        if kind == "dense":
            x = x.reshape(4, -1)
        layer = _layer(kind, dtype)
        if kind == "batchnorm":
            ref = ref_batchnorm_infer(layer, x)
        else:
            ref = copy.deepcopy(layer).forward(x, training=True)
        assert _same_bits(layer.forward(x, training=False), ref)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("wavelet", wavelet_names())
    @pytest.mark.parametrize("hw", [(2, 2), (2, 12), (7, 9), (28, 28), (14, 14), (8, 8),
                                    (33, 70)])
    def test_ll_only_matches_full_analysis(self, wavelet, hw, dtype):
        """Odd maps go through PadToEven; 70 samples take the tiled path.
        The bits match on every map of mini_config (28, 14 and 8 px).  A
        height of 2 makes the ll row pass a one-row product, which BLAS runs
        with another kernel than the two-row product of the full analysis,
        so there the two agree to rounding only."""
        spec = get_wavelet(wavelet)
        x = _data((2, 3) + hw, dtype, "normal", seed=hw[0])
        pad, down = L.PadToEven(), L.WaveletDown("ll", wavelet)
        even = pad.forward(x)
        ref = dwt2d(even, spec).ll
        pairs = [(down.forward(even, training=training), ref) for training in (False, True)]
        pairs.append((lowpass2d(x, spec.analysis_low), dwt2d(x, spec).ll))
        for out, ref in pairs:
            if 1 in ref.shape[2:]:
                tol = 1e-5 if dtype == np.float32 else 1e-12
                assert out.shape == ref.shape and out.dtype == ref.dtype
                assert np.max(np.abs(out - ref)) <= tol * max(1.0, float(np.max(np.abs(ref))))
            else:
                assert _same_bits(out, ref)


class TestNoBackwardState:
    @pytest.mark.parametrize("kind", LAYER_KINDS + ["dwt_ll"])
    def test_backward_after_inference_raises(self, kind):
        layer = L.WaveletDown("ll", "haar") if kind == "dwt_ll" else _layer(kind, np.float64)
        x = _data((4, 3, 6, 10), np.float64, "normal")
        if kind == "dense":
            x = x.reshape(4, -1)
        g = np.ones_like(layer.forward(x, training=True))
        layer.backward(g)
        layer.forward(x, training=False)  # clears the training state
        with pytest.raises(InvalidConfig):
            layer.backward(g)
        assert _kept_arrays(layer) == []

    def test_no_layer_overrides_the_state_rule(self):
        """Every layer keeps its backward state through ``Layer.forward`` and
        ``Layer.backward``, and implements ``_forward``/``_backward``."""
        kinds, seen = [L.Layer], []
        while kinds:
            cls = kinds.pop()
            seen.append(cls)
            kinds.extend(cls.__subclasses__())
        assert {L.Conv2d, L.Dense, L.PadToEven, L.AvgPool2, L.WaveletDown} <= set(seen)
        for cls in seen[1:]:
            assert "forward" not in vars(cls) and "backward" not in vars(cls), cls

    def test_model_backward_after_inference_raises(self):
        model = nw.build_model(nw.mini_config("max_pool"), dtype=np.float64)
        x = np.zeros((2, 1, 28, 28))
        model.forward(x, training=True)
        model.forward(x, training=False)
        with pytest.raises(InvalidConfig):
            model.backward(np.ones((2, 10)))

    @pytest.mark.parametrize("mode,wavelet", MODES)
    def test_evaluation_leaves_no_state(self, mode, wavelet):
        ds = synthetic_classification(6, classes=10, seed=1)
        model = nw.build_model(nw.mini_config(mode, wavelet))

        def held():
            return [(i, name) for i, layer in enumerate(model.layers)
                    for name in _kept_arrays(layer)]
        for run in (lambda: nw.evaluate(model, ds),
                    lambda: error_matrix(model, ds, kinds=("gaussian",)),
                    lambda: shift_consistency(model, ds, ShiftTrialConfig(max_shift=2, pairs=1))):
            model.forward(ds.images, training=True)
            assert held()
            run()
            assert held() == []


class TestConvBuffers:
    """An inference conv frees its padded input and its im2col matrix as
    soon as it has read them; a training conv keeps the matrix for backward."""

    def test_inference_forward_peak(self):
        model = nw.build_model(nw.mini_config("max_pool"))
        x = _data((32, 1, 28, 28), np.float32, "normal")
        model.forward(x, training=False)  # warm the transform caches
        tracemalloc.start()
        try:
            model.forward(x, training=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.0 * 2**20  # 5.89 MiB while both buffers lived to the end

    @pytest.mark.parametrize("stride", [1, 2])
    def test_training_forward_keeps_im2col_and_backward_matches(self, stride):
        conv = L.Conv2d(3, 3, 4, stride=stride)
        conv.init_params(np.random.default_rng(1), np.dtype(np.float64))
        x = _data((2, 3, 6, 10), np.float64, "normal")
        out = conv.forward(x, training=True)
        ho, wo = out.shape[2:]
        cols, x_shape = conv._state
        assert cols.shape == (3 * 3 * 3, ho * wo * 2) and x_shape == x.shape
        assert nw.gradcheck(conv, x, rng=np.random.default_rng(2)) < 1e-6


class TestPredictBlocks:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("mode,wavelet", MODES)
    def test_default_block_matches_one_block(self, mode, wavelet, dtype):
        ds = synthetic_classification(70, classes=10, seed=2)
        model = nw.build_model(nw.mini_config(mode, wavelet, seed=3), dtype=dtype)
        small = model.predict_logits(ds.images)
        whole = model.predict_logits(ds.images, batch=256)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        assert small.shape == whole.shape == (70, 10) and small.dtype == whole.dtype
        assert np.max(np.abs(small - whole)) <= tol * max(1.0, float(np.max(np.abs(whole))))
        assert np.array_equal(small.argmax(axis=1), whole.argmax(axis=1))
