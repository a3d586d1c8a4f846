"""Inference forwards: same bits as before, no backward state kept, and the
batch-last layout of a conv's output kept through the model, in inference
and in training."""

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
from wavecnn.transform import Decomposition2D, dwt2d, dwt2d_vjp, idwt2d, lowpass2d, lowpass2d_vjp

from reference import gradcheck, layer_logits

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

    @pytest.mark.parametrize("mode,wavelet", MODES)
    def test_model_backward_frees_the_state_it_reads(self, mode, wavelet):
        ds = synthetic_classification(6, classes=10, seed=1)
        model = nw.build_model(nw.mini_config(mode, wavelet))
        model.loss.forward(model.forward(ds.images, training=True), ds.labels)
        model.backward(model.loss.backward())
        assert [(i, name) for i, layer in enumerate(model.layers)
                for name in _kept_arrays(layer)] == []
        with pytest.raises(InvalidConfig):
            model.backward(model.loss.backward())


class TestConvBuffers:
    """A conv builds its im2col columns one chunk of output rows at a time
    and never the whole matrix; a training conv keeps the padded input for
    backward, which rebuilds the chunks from it."""

    # bounds: the peaks while each inference conv copied its output into a
    # channel-major buffer; with the batch-last output and the BatchNorm fold
    # they read 3.64 MiB for the pooling and low-pass modes, 5.64 for
    # strided_conv and 6.43 for dwt_cat
    @pytest.mark.parametrize("mode,wavelet,bound", [
        ("max_pool", "", 4.39), ("avg_pool", "", 4.39), ("strided_conv", "", 6.03),
        ("dwt_ll", "haar", 4.39), ("dwt_avg", "db4", 4.39), ("dwt_cat", "ch3.3", 6.49)])
    def test_inference_forward_peak(self, mode, wavelet, bound):
        """One 32-image inference forward (5.89 MiB for max_pool while a
        conv held its padded input and its whole im2col matrix to the end)."""
        model = nw.build_model(nw.mini_config(mode, wavelet))
        x = _data((32, 1, 28, 28), np.float32, "normal")
        model.forward(x, training=False)  # warm the transform caches
        tracemalloc.start()
        try:
            model.forward(x, training=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20

    def test_training_step_peak(self):
        """One 64-image ``dwt_cat`` step: forward, loss and ``Model.backward``."""
        model = nw.build_model(nw.mini_config("dwt_cat", "ch3.3"))
        x = _data((64, 1, 28, 28), np.float32, "normal")
        labels = np.arange(64) % 10

        def step():
            model.loss.forward(model.forward(x, training=True), labels)
            model.backward(model.loss.backward())
        step()  # warm the transform caches
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 46.3 MiB; 89.0 MiB while every layer held its state through backward
        # and each conv kept its im2col matrix
        assert peak < 50.0 * 2**20

    def test_training_step_peak_with_bounded_conv_scratch(self):
        """The same step, now that no conv pass builds its whole im2col
        matrix: 20.9 MiB, against 46.3 MiB with whole matrices."""
        model = nw.build_model(nw.mini_config("dwt_cat", "ch3.3"))
        x = _data((64, 1, 28, 28), np.float32, "normal")
        labels = np.arange(64) % 10

        def step():
            model.loss.forward(model.forward(x, training=True), labels)
            model.backward(model.loss.backward())
        step()  # warm the transform caches
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25.0 * 2**20

    @pytest.mark.parametrize("batch", [64, 256])
    def test_conv_step_scratch_is_bounded_by_the_chunk_rule(self, batch):
        """A ``dwt_cat`` stage-2 conv (64 -> 32 at 14 px).  Its training
        forward allocates, besides the padded input and the output, at most
        twice the largest row chunk; its backward, besides those, the
        batch-last gradient, the padded input gradient and the input
        gradient, also at most twice that chunk.  The largest chunk is
        ``_SCRATCH`` bytes of columns or one output row's columns, whichever
        is larger: one row is 1.97 MiB at batch 64 and 7.9 MiB at batch 256,
        where the whole matrix is 27.6 and 110 MiB."""
        conv = L.Conv2d(3, 64, 32)
        conv.init_params(np.random.default_rng(3), np.dtype(np.float32))
        x = _data((batch, 64, 14, 14), np.float32, "normal")
        g = _data((batch, 32, 14, 14), np.float32, "normal", seed=1)
        conv.forward(x, training=True)
        conv.backward(g)
        tracemalloc.start()
        try:
            y = conv.forward(x, training=True)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            gx = conv.backward(g)
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        padded = conv._state.nbytes
        bound = 2 * max(L._SCRATCH, 64 * 9 * 14 * batch * 4)
        assert forward_peak - (padded + y.nbytes) <= bound
        assert backward_peak - (2 * padded + y.nbytes + g.nbytes + gx.nbytes) <= bound

    @pytest.mark.parametrize("stride", [1, 2])
    def test_training_forward_keeps_padded_input_and_backward_matches(self, stride):
        conv = L.Conv2d(3, 3, 4, stride=stride)
        conv.init_params(np.random.default_rng(1), np.dtype(np.float64))
        x = _data((2, 3, 6, 10), np.float64, "normal")
        conv.forward(x, training=True)
        xp = conv._state
        assert xp.shape == (3, 6 + 2, 10 + 2, 2)
        assert gradcheck(conv, x, rng=np.random.default_rng(2)) < 1e-6


class TestPredictBlocks:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("mode,wavelet", MODES)
    def test_default_block_matches_one_block(self, mode, wavelet, dtype):
        ds = synthetic_classification(70, classes=10, seed=2)
        model = nw.build_model(nw.mini_config(mode, wavelet, seed=3), dtype=dtype)
        small = model.predict_logits(ds.images)
        whole = model._logits(ds.images, 256, nw._usable_cpus())
        tol = 1e-5 if dtype == np.float32 else 1e-12
        assert small.shape == whole.shape == (70, 10) and small.dtype == whole.dtype
        assert np.max(np.abs(small - whole)) <= tol * max(1.0, float(np.max(np.abs(whole))))
        assert np.array_equal(small.argmax(axis=1), whole.argmax(axis=1))


def _batch_last(x):
    """``x`` as an NCHW view of a batch-last ``(C, H, W, N)`` copy, the
    layout of an inference conv's output."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def _with_batchnorm_stats(model, seed=9):
    """``model`` with every BatchNorm's parameters and running statistics
    drawn away from their initial ones and zeros."""
    rng = np.random.default_rng(seed)
    for layer in model.layers:
        if isinstance(layer, L.BatchNorm2d):
            c = layer.channels
            layer.gamma[...] = rng.uniform(0.5, 2.0, c)
            layer.beta[...] = rng.standard_normal(c)
            layer.running_mean[...] = 0.1 * rng.standard_normal(c)
            layer.running_var[...] = rng.uniform(0.5, 2.0, c)
    return model


def _assert_close(out, ref):
    tol = 1e-5 if out.dtype == np.float32 else 1e-12
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert np.max(np.abs(out - ref)) <= tol * max(1.0, float(np.max(np.abs(ref))))


class TestBatchLastLayout:
    """Each layer after an inference conv runs in the conv's batch-last
    memory and returns its output in that memory."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("hw", [28, 14, 8, 70])
    @pytest.mark.parametrize("kind,wavelet", [("avg_pool", ""), ("ll", "haar"), ("ll", "db4"),
                                              ("avg", "db4"), ("cat", "haar"), ("cat", "ch3.3")])
    def test_down_on_a_batch_last_view(self, kind, wavelet, hw, dtype):
        """Low-pass and cat run the height and the width pass along axis -2
        of the batch-last memory.  At 14 and 8 px the bits are those of a
        C-contiguous input.  At 70 px a side takes the tiled path, and at
        28 px in float64 OpenBLAS multiplies one plane's 28 columns with
        another kernel than a whole batch's, so there the two agree to
        rounding."""
        layer = L.AvgPool2() if kind == "avg_pool" else L.WaveletDown(kind, wavelet)
        x = _data((5, 3, hw, hw), dtype, "normal", seed=hw)
        ref = layer.forward(x, training=False)
        out = layer.forward(_batch_last(x), training=False)
        assert out.transpose(1, 2, 3, 0).flags.c_contiguous
        if hw == 70 or (hw == 28 and dtype == np.float64):
            _assert_close(out, ref)
        else:
            assert _same_bits(out, ref)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("hw", [28, 14, 8, 70])
    @pytest.mark.parametrize("wavelet", ["haar", "db4", "ch3.3"])
    def test_synthesis_on_batch_last_views(self, wavelet, hw, dtype):
        """The backwards of the low-pass and cat layers and ``idwt2d`` run the
        width and the height pass along axis -2 of the batch-last memory,
        with the bits of C-contiguous subbands where the analysis above has
        them, and to rounding where it does not."""
        spec = get_wavelet(wavelet)
        d = dwt2d(_data((5, 3, hw, hw), dtype, "normal", seed=hw), spec)
        views = Decomposition2D(*map(_batch_last, d.subbands()), d.original_shape)
        pairs = [(f(views, spec), f(d, spec)) for f in (dwt2d_vjp, idwt2d)]
        pairs += [(lowpass2d_vjp(views.ll, taps, (hw, hw)), lowpass2d_vjp(d.ll, taps, (hw, hw)))
                  for taps in ((0.5, 0.5), spec.analysis_low)]
        for out, ref in pairs:
            assert out.transpose(1, 2, 3, 0).flags.c_contiguous
            if hw == 70 or (hw == 28 and dtype == np.float64):
                _assert_close(out, ref)
            else:
                assert _same_bits(out, ref)

    @pytest.mark.parametrize("kind", ["batchnorm", "relu", "max_pool", "pad"])
    def test_elementwise_layers_keep_the_order(self, kind):
        layer = _layer(kind, np.float32)
        x = _data((4, 3, 7, 9) if kind == "pad" else (4, 3, 6, 10), np.float32, "ties")
        out = layer.forward(_batch_last(x), training=False)
        assert out.transpose(1, 2, 3, 0).flags.c_contiguous
        assert _same_bits(out, layer.forward(x, training=False))

    def test_flatten_gives_c_order(self):
        x = _data((4, 3, 6, 10), np.float64, "normal")
        out = L.Flatten().forward(_batch_last(x), training=False)
        assert out.flags.c_contiguous and _same_bits(out, x.reshape(4, -1))


def _memory_order(a):
    """The axes of ``a`` longer than one, from its outermost in memory to its
    innermost."""
    return sorted((ax for ax in range(a.ndim) if a.shape[ax] > 1), key=lambda ax: -a.strides[ax])


class TestTrainingLayout:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("mode,wavelet", MODES)
    def test_each_backward_keeps_its_forward_input_order(self, mode, wavelet, dtype):
        """In one training step every backward that ``Model.backward`` runs
        returns its gradient in the memory order of its forward's input,
        which is batch-last from the first conv's output to ``Flatten``."""
        ds = synthetic_classification(16, classes=10, seed=5)
        model = nw.build_model(nw.mini_config(mode, wavelet, seed=3), dtype=dtype)
        inputs, grads = {}, {}
        for layer in model.layers:
            def forward(x, training=False, layer=layer, run=layer.forward):
                inputs[layer] = x
                return run(x, training)

            def backward(g, layer=layer, run=layer.backward):
                grads[layer] = run(g)
                return grads[layer]
            layer.forward, layer.backward = forward, backward
        model.loss.forward(model.forward(ds.images, training=True), ds.labels)
        model.backward(model.loss.backward())
        assert list(grads) == model.layers[:0:-1]
        for layer, g in grads.items():
            x = inputs[layer]
            assert g.shape == x.shape and g.dtype == x.dtype
            assert _memory_order(g) == _memory_order(x), layer.who
            assert _memory_order(x) == ([1, 2, 3, 0] if x.ndim == 4 else [0, 1])


class TestModelPass:
    """``Model.forward(training=False)`` against the layer-by-layer
    reference, which copies every output into the channel-major layout."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("mode,wavelet", MODES)
    def test_matches_the_channel_major_reference(self, mode, wavelet, dtype):
        """The pass folds each BatchNorm into its conv, which rounds
        differently from the two layers run one by one: the logits agree to
        rounding and give the same labels."""
        ds = synthetic_classification(70, classes=10, seed=4)
        model = _with_batchnorm_stats(nw.build_model(nw.mini_config(mode, wavelet, seed=3),
                                                     dtype=dtype))
        out = model.predict_logits(ds.images)
        ref = layer_logits(model, ds.images)
        _assert_close(out, ref)
        assert np.array_equal(out.argmax(axis=1), ref.argmax(axis=1))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_logits_follow_changed_batchnorm(self, dtype):
        """No pass keeps anything of the parameters for the next."""
        ds = synthetic_classification(40, classes=10, seed=6)
        model = _with_batchnorm_stats(nw.build_model(nw.mini_config("dwt_ll", "haar", seed=2),
                                                     dtype=dtype))
        first = model.predict_logits(ds.images)
        for layer in model.layers:
            if isinstance(layer, L.BatchNorm2d):
                layer.gamma *= np.linspace(0.5, 1.5, layer.channels, dtype=dtype)
                layer.running_var *= 2.0
        second = model.predict_logits(ds.images)
        assert np.max(np.abs(second - first)) > 1e-3
        _assert_close(second, layer_logits(model, ds.images))
