"""Finite-difference validation of every backward pass.

The exhaustive sweep (all three wavelet down-sampling kinds under all ten
wavelets) lives in the acceptance suite; this file covers each layer type and
a representative wavelet per family, which is what day-to-day development
needs to stay fast.
"""

import numpy as np
import pytest

from wavecnn import layers as L
from wavecnn.filterbank import get_wavelet
from wavecnn.network import build_model, mini_config
from wavecnn.transform import (Decomposition2D, dwt1d, dwt1d_vjp, dwt2d,
                               dwt2d_vjp, idwt2d, idwt2d_vjp)

from reference import gradcheck

TOL = 1e-6


def fd_grad(f, x, eps=1e-6):
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        fp = f()
        flat[i] = keep - eps
        fm = f()
        flat[i] = keep
        out[i] = (fp - fm) / (2 * eps)
    return g


def max_rel(a, b):
    num = np.abs(a - b)
    den = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float((num / den).max())


class TestTransformVjps:
    @pytest.mark.parametrize("name", ["haar", "db5", "ch5.5"])
    def test_dwt1d_vjp_against_fd(self, name):
        spec = get_wavelet(name)
        rng = np.random.default_rng(0)
        n = 32
        x = rng.standard_normal(n)
        wl, wh = rng.standard_normal((2, n // 2))

        def loss():
            lo, hi = dwt1d(x, spec)
            return float(lo @ wl + hi @ wh)

        analytic = dwt1d_vjp(wl, wh, spec, n)
        assert max_rel(analytic, fd_grad(loss, x)) < TOL

    @pytest.mark.parametrize("name", ["haar", "db3", "ch2.2"])
    def test_dwt2d_vjp_against_fd(self, name):
        spec = get_wavelet(name)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 12))
        d0 = dwt2d(x, spec)
        ws = [rng.standard_normal(b.shape) for b in d0.subbands()]

        def loss():
            d = dwt2d(x, spec)
            return sum(float((w * b).sum()) for w, b in zip(ws, d.subbands()))

        analytic = dwt2d_vjp(Decomposition2D(*ws, d0.original_shape), spec)
        assert max_rel(analytic, fd_grad(loss, x)) < TOL

    @pytest.mark.parametrize("name", ["haar", "db2", "ch3.3"])
    def test_idwt2d_vjp_against_fd(self, name):
        spec = get_wavelet(name)
        rng = np.random.default_rng(2)
        d = dwt2d(rng.standard_normal((12, 10)), spec)
        w = rng.standard_normal((12, 10))

        def loss():
            return float((w * idwt2d(d, spec)).sum())

        g = idwt2d_vjp(w, spec)
        for band, gb in zip(d.subbands(), g.subbands()):
            assert max_rel(gb, fd_grad(loss, band)) < TOL


def _checked(layer, shape, seed=0):
    layer.init_params(np.random.default_rng(3), np.float64)
    x = np.random.default_rng(seed).standard_normal(shape)
    return gradcheck(layer, x, rng=np.random.default_rng(seed + 1))


class TestLayerGradients:
    def test_conv_stride1(self):
        assert _checked(L.Conv2d(3, 2, 3, 1), (2, 2, 6, 6)) < TOL

    def test_conv_stride2(self):
        assert _checked(L.Conv2d(5, 1, 2, 2), (2, 1, 9, 9)) < TOL

    def test_batchnorm_training_mode(self):
        assert _checked(L.BatchNorm2d(3), (4, 3, 5, 5)) < TOL

    def test_relu(self):
        assert _checked(L.ReLU(), (2, 3, 4, 4)) < TOL

    def test_maxpool(self):
        assert _checked(L.MaxPool2(), (2, 2, 6, 6)) < TOL

    def test_avgpool(self):
        assert _checked(L.AvgPool2(), (2, 2, 6, 6)) < TOL

    def test_pad_to_even(self):
        assert _checked(L.PadToEven(), (2, 2, 5, 5)) < TOL

    def test_flatten_dense(self):
        assert _checked(L.Dense(12, 5), (3, 12)) < TOL
        assert _checked(L.Flatten(), (2, 3, 4, 4)) < TOL

    @pytest.mark.parametrize("kind", ["ll", "avg", "cat"])
    @pytest.mark.parametrize("wavelet", ["haar", "db4", "ch4.4"])
    def test_wavelet_down(self, kind, wavelet):
        assert _checked(L.WaveletDown(kind, wavelet), (2, 2, 24, 24)) < TOL

    @pytest.mark.parametrize("layer", [L.AvgPool2(), L.WaveletDown("ll", "db3"),
                                       L.WaveletDown("avg", "ch3.3")],
                             ids=["avg_pool", "ll", "avg"])
    def test_low_pass_down_on_tiled_sides(self, layer):
        """Sides over 32 px run the tiled one-filter core."""
        assert _checked(layer, (1, 2, 34, 40)) < TOL

    def test_loss_gradient(self):
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, 5)
        loss = L.SoftmaxCrossEntropy()

        def value():
            return loss.forward(logits, labels)

        value()
        analytic = loss.backward()
        assert max_rel(analytic, fd_grad(value, logits)) < TOL


class TestEndToEnd:
    @pytest.mark.parametrize("mode", ["max_pool", "strided_conv", "dwt_cat"])
    def test_full_mini_model(self, mode):
        wavelet = "haar" if mode.startswith("dwt") else ""
        model = build_model(mini_config(mode, wavelet, image_hw=(12, 12)),
                            dtype=np.float64)
        x = np.random.default_rng(4).standard_normal((2, 1, 12, 12))
        assert gradcheck(model, x, rng=np.random.default_rng(5),
                         max_coords=25) < TOL
