import numpy as np
import pytest

from wavecnn.denoise import DenoiseConfig, denoise_image, soft_shrink
from wavecnn.errors import InvalidConfig, NegativeLambda, ShapeMismatch
from wavecnn.filterbank import get_wavelet, wavelet_names
from wavecnn.transform import _TILE as TILE
from wavecnn.transform import Decomposition2D, dwt2d, idwt2d


class TestSoftShrink:
    def test_matches_piecewise_definition_on_grid(self):
        x = np.linspace(-2.0, 2.0, 1000)
        t = 0.3
        expected = np.where(x > t, x - t, np.where(x < -t, x + t, 0.0))
        assert np.array_equal(soft_shrink(x, t), expected)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.bool_])
    def test_integers_shrink_in_double(self, dtype):
        got = soft_shrink(np.array([0, 1, 1], dtype=dtype), 0.25)
        assert got.dtype == np.float64 and got.tolist() == [0.0, 0.75, 0.75]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_piecewise_form(self, dtype):
        rng = np.random.default_rng(5)
        for t in (0.0, 0.1, 0.3, 1.7):
            t = float(dtype(t))  # a threshold exactly representable in dtype
            x = rng.standard_normal(4000).astype(dtype)
            inside, outside = np.nextafter(dtype(t), dtype(0)), np.nextafter(dtype(t), dtype(9))
            x[:6] = [t, -t, 0.0, -0.0, inside, -outside]
            old = np.where(x > t, x - t, np.where(x < -t, x + t, 0.0)).astype(dtype)
            got = soft_shrink(x, t)
            assert got.dtype == dtype
            assert got.tobytes() == old.tobytes()

    def test_scalar_input_returns_float(self):
        assert soft_shrink(0.5, 0.1) == pytest.approx(0.4)
        assert isinstance(soft_shrink(0.5, 0.1), float)
        assert soft_shrink(-0.05, 0.1) == 0.0

    def test_odd_and_contractive(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(200)
        y = soft_shrink(x, 0.2)
        assert np.array_equal(soft_shrink(-x, 0.2), -y)
        assert np.all(np.abs(y) <= np.abs(x))

    def test_zero_threshold_is_identity(self):
        x = np.array([-1.0, 0.0, 2.5])
        assert np.array_equal(soft_shrink(x, 0.0), x)

    def test_negative_threshold_rejected(self):
        with pytest.raises(NegativeLambda):
            soft_shrink(np.zeros(3), -0.1)
        with pytest.raises(NegativeLambda):
            DenoiseConfig(threshold=-1e-9)

    def test_nan_threshold_rejected(self):
        with pytest.raises(NegativeLambda, match="nan"):
            soft_shrink(np.zeros(3), float("nan"))
        with pytest.raises(NegativeLambda, match="nan"):
            soft_shrink(0.5, np.float32("nan"))
        with pytest.raises(NegativeLambda, match="nan"):
            DenoiseConfig(threshold=float("nan"))


def _smooth_image(h=64, w=64):
    ii, jj = np.mgrid[0:h, 0:w] / max(h, w)
    return 0.5 + 0.3 * np.cos(2 * np.pi * ii) * np.sin(2 * np.pi * jj)


class TestDenoiseImage:
    def test_zero_threshold_reconstructs_haar_exactly(self):
        img = _smooth_image()
        out = denoise_image(img, DenoiseConfig("haar", 0.0))
        assert np.max(np.abs(out - img)) < 1e-12

    def test_reduces_mse_on_noisy_smooth_image(self):
        img = _smooth_image()
        wins = 0
        for trial in range(10):
            rng = np.random.default_rng(trial)
            noisy = img + rng.normal(0.0, 0.1, img.shape)
            out = denoise_image(noisy, DenoiseConfig("haar", 0.1))
            if np.mean((out - img) ** 2) < np.mean((noisy - img) ** 2):
                wins += 1
        assert wins >= 9

    def test_only_detail_bands_are_shrunk(self):
        # a constant image lives entirely in ll, so any threshold is a no-op
        img = np.full((16, 16), 0.75)
        out = denoise_image(img, DenoiseConfig("haar", 10.0))
        assert np.max(np.abs(out - img)) < 1e-12

    def test_integer_input_round_trips_dtype(self):
        rng = np.random.default_rng(1)
        img = (rng.random((32, 32)) * 255).astype(np.uint8)
        out = denoise_image(img, DenoiseConfig("haar", 0.05))
        assert out.dtype == np.uint8
        assert out.shape == img.shape

    def test_threshold_type_does_not_change_the_result(self):
        img = np.random.default_rng(3).random((40, 36)).astype(np.float32)
        want = denoise_image(img, DenoiseConfig("db2", 0.1))
        for t in (np.float64(0.1), np.float32(0.1)):
            got = denoise_image(img, DenoiseConfig("db2", t))
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    def test_channels_processed_independently(self):
        rng = np.random.default_rng(2)
        chw = rng.random((3, 16, 16))
        cfg = DenoiseConfig("db2", 0.08)
        out = denoise_image(chw, cfg)
        for c in range(3):
            assert np.array_equal(out[c], denoise_image(chw[c], cfg))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, bad):
        img = np.full((16, 16), 0.5)
        img[3, 4] = bad
        with pytest.raises(InvalidConfig):
            denoise_image(img)
        with pytest.raises(InvalidConfig):
            denoise_image(np.stack([np.zeros((16, 16)), img]))

    def test_rejects_bad_rank(self):
        with pytest.raises(ShapeMismatch):
            denoise_image(np.zeros(16))


def _band_composition(img, cfg):
    """``idwt2d`` of the ``dwt2d`` bands with lh, hl and hh soft-shrunk, per
    channel: the definition the split-free denoise must match bit for bit."""
    spec, t = get_wavelet(cfg.wavelet), cfg.threshold

    def plane(p):
        d = dwt2d(p, spec)
        shrunk = Decomposition2D(d.ll, soft_shrink(d.lh, t), soft_shrink(d.hl, t),
                                 soft_shrink(d.hh, t), d.original_shape)
        return idwt2d(shrunk, spec)
    return plane(img) if img.ndim == 2 else np.stack([plane(c) for c in img])


# even and odd sides below, across and well past the dense/tiled boundary
BIT_SHAPES = [(16, 20), (33, 45), (128, 131), (2 * TILE + 1, 2 * TILE)]


@pytest.mark.parametrize("name", wavelet_names())
class TestBitsMatchTheBandComposition:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_float_planes_and_channels(self, name, dtype):
        rng = np.random.default_rng(21)
        for t in (0.1, 0.35):
            cfg = DenoiseConfig(name, t)
            for shape in BIT_SHAPES:
                for img in (rng.random(shape), rng.random((3,) + shape)):
                    img = img.astype(dtype)
                    got, ref = denoise_image(img, cfg), _band_composition(img, cfg)
                    assert got.dtype == ref.dtype == dtype
                    assert got.shape == ref.shape
                    assert got.tobytes() == ref.tobytes()

    def test_uint8_is_the_composition_on_the_unit_scale(self, name):
        rng = np.random.default_rng(22)
        cfg = DenoiseConfig(name, 0.1)
        for shape in BIT_SHAPES:
            for img in (rng.integers(0, 256, shape), rng.integers(0, 256, (2,) + shape)):
                img = img.astype(np.uint8)
                ref = np.clip(np.rint(_band_composition(img / 255, cfg) * 255.0), 0, 255)
                got = denoise_image(img, cfg)
                assert got.dtype == np.uint8
                assert got.tobytes() == ref.astype(np.uint8).tobytes()
