import dataclasses
import json

import numpy as np
import pytest

from wavecnn import network as nw
from wavecnn.datasets import Dataset, synthetic_classification
from wavecnn.errors import DivergedLoss, InvalidConfig
from wavecnn.layers import Conv2d, Dense, Flatten, WaveletDown


class TestModelConfig:
    def test_json_round_trip(self):
        cfg = nw.mini_config("dwt_cat", "db2", seed=7)
        blob = json.dumps(cfg.to_dict())
        back = nw.ModelConfig.from_dict(json.loads(blob))
        assert back == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidConfig):
            nw.ModelConfig.from_dict({"layers": [], "optimizer": "adam"})
        with pytest.raises(InvalidConfig):
            nw.ModelConfig.from_dict(
                {"layers": [{"kind": "relu", "slope": 0.1}]})

    def test_missing_layers_rejected(self):
        with pytest.raises(InvalidConfig):
            nw.ModelConfig.from_dict({"seed": 1})


class TestBuildModel:
    def test_same_seed_same_params(self):
        cfg = nw.mini_config("max_pool", seed=5)
        a, b = nw.build_model(cfg), nw.build_model(cfg)
        assert a.checksum() == b.checksum()
        c = nw.build_model(dataclasses.replace(cfg, seed=6))
        assert c.checksum() != a.checksum()

    @pytest.mark.parametrize("mode", nw.DOWNSAMPLE_MODES)
    def test_mini_forward_shape_all_modes(self, mode):
        wavelet = "haar" if mode.startswith("dwt") else ""
        model = nw.build_model(nw.mini_config(mode, wavelet))
        out = model.forward(np.zeros((3, 1, 28, 28), dtype=np.float32))
        assert out.shape == (3, 10)

    def test_parameter_count_invariant_across_pooling_swaps(self):
        counts = {
            mode: nw.build_model(
                nw.mini_config(mode, "haar" if mode.startswith("dwt") else "")
            ).parameter_count()
            for mode in ("max_pool", "avg_pool", "dwt_ll", "dwt_avg")
        }
        assert len(set(counts.values())) == 1

    def test_odd_stage_gets_pad_layer(self):
        model = nw.build_model(nw.mini_config("dwt_ll", "haar"))
        kinds = [type(l).__name__ for l in model.layers]
        assert kinds.count("PadToEven") == 1
        # the pad precedes the third downsample, where 7x7 appears
        i = kinds.index("PadToEven")
        assert isinstance(model.layers[i + 1], WaveletDown)

    def test_wavelet_names_validated_at_build(self):
        with pytest.raises(Exception):
            nw.build_model(nw.mini_config("dwt_ll", "nosuch"))

    def test_channel_mismatch_detected(self):
        cfg = nw.ModelConfig(layers=(nw.conv(3, 1, 4), nw.batchnorm(8)))
        with pytest.raises(InvalidConfig):
            nw.build_model(cfg)

    def test_wavelet_mode_requires_wavelet(self):
        with pytest.raises(InvalidConfig):
            nw.mini_config("dwt_ll")
        with pytest.raises(InvalidConfig):
            nw.build_model(nw.ModelConfig(layers=(nw.downsample("dwt_ll"),)))


class TestWaveletRewrite:
    def test_stride2_conv_becomes_conv_plus_ll(self):
        cfg = nw.ModelConfig(
            layers=(nw.conv(3, 1, 4, stride=2), nw.flatten(), nw.dense(64, 2)),
            wavelet_rewrite="haar")
        model = nw.build_model(cfg)
        kinds = [type(l) for l in model.layers]
        assert kinds == [Conv2d, WaveletDown, Flatten, Dense]
        assert model.layers[0].stride == 1
        assert model.layers[1].kind == "ll"
        out = model.forward(np.zeros((1, 1, 8, 8), dtype=np.float32))
        assert out.shape == (1, 2)

    def test_rewrite_preserves_parameter_count(self):
        base = nw.mini_config("strided_conv", seed=3)
        rewritten = dataclasses.replace(base, wavelet_rewrite="db2")
        m1, m2 = nw.build_model(base), nw.build_model(rewritten)
        assert m1.parameter_count() == m2.parameter_count()

    def test_strided_conv_downsample_rewrites_too(self):
        cfg = nw.ModelConfig(
            layers=(nw.downsample("strided_conv", c_in=2, c_out=2),),
            wavelet_rewrite="haar")
        model = nw.build_model(cfg)
        assert [type(l) for l in model.layers] == [Conv2d, WaveletDown]
        assert model.layers[0].stride == 1


def _separable_2class(n=64, seed=0):
    """8x8 images: class 0 bright left half, class 1 bright right half."""
    rng = np.random.default_rng(seed)
    images = rng.normal(0.45, 0.02, size=(n, 1, 8, 8))
    labels = np.arange(n, dtype=np.int64) % 2
    for i in range(n):
        half = slice(0, 4) if labels[i] == 0 else slice(4, 8)
        images[i, 0, :, half] += 0.35
    return Dataset(np.clip(images, 0, 1), labels)


def _tiny_model(seed=0):
    cfg = nw.ModelConfig(
        layers=(nw.flatten(), nw.dense(64, 2)), seed=seed)
    return nw.build_model(cfg)


class TestTraining:
    def test_separable_task_reaches_99_percent(self):
        ds = _separable_2class()
        model = _tiny_model(seed=1)
        report = nw.train(model, ds, nw.TrainConfig(epochs=20, batch=16, lr=0.5))
        train_err = nw.evaluate(model, ds)
        assert 1.0 - train_err >= 0.99
        assert len(report.train_loss) == 20
        assert report.train_loss[-1] < report.train_loss[0]

    def test_validation_defaults_to_training_split(self):
        ds = _separable_2class(32)
        report = nw.train(_tiny_model(), ds, nw.TrainConfig(epochs=1, batch=8))
        assert len(report.val_accuracy) == 1

    def test_deterministic_given_seed(self):
        ds = _separable_2class(32, seed=3)
        reports = []
        for _ in range(2):
            model = _tiny_model(seed=4)
            reports.append(nw.train(model, ds, nw.TrainConfig(epochs=3, batch=8)))
        assert reports[0].to_csv() == reports[1].to_csv()
        assert reports[0].params_checksum == reports[1].params_checksum

    def test_lr_schedule_steps_at_half_and_three_quarters(self):
        assert nw._epoch_lr(1.0, 0, 8) == 1.0
        assert nw._epoch_lr(1.0, 3, 8) == 1.0
        assert nw._epoch_lr(1.0, 4, 8) == pytest.approx(0.1)
        assert nw._epoch_lr(1.0, 6, 8) == pytest.approx(0.01)
        assert nw._epoch_lr(1.0, 9, 10) == pytest.approx(0.01)

    def test_diverged_loss_carries_partial_report(self):
        ds = _separable_2class(32)
        model = _tiny_model(seed=2)
        # a step this size overflows float32 logits to inf within an epoch
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergedLoss) as err:
            nw.train(model, ds, nw.TrainConfig(epochs=5, batch=8, lr=1e38))
        assert err.value.report is not None
        assert isinstance(err.value.report.train_loss, tuple)

    def test_empty_dataset_rejected(self):
        empty = Dataset(np.zeros((0, 1, 8, 8)), np.zeros(0, dtype=np.int64))
        with pytest.raises(InvalidConfig):
            nw.train(_tiny_model(), empty)

    def test_report_csv_layout(self):
        ds = _separable_2class(16)
        report = nw.train(_tiny_model(), ds, nw.TrainConfig(epochs=2, batch=8))
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_accuracy"
        assert len(lines) == 4
        assert lines[-1].startswith("checksum,")
        assert report.params_checksum in lines[-1]


class TestPredictEvaluate:
    def test_constant_class0_model(self):
        model = _tiny_model()
        model.layers[1].weight[...] = 0.0
        model.layers[1].bias[...] = np.array([5.0, 0.0], dtype=np.float64)
        images = np.zeros((10, 1, 8, 8))
        all0 = Dataset(images, np.zeros(10, dtype=np.int64))
        all1 = Dataset(images, np.ones(10, dtype=np.int64))
        assert nw.evaluate(model, all0) == 0.0
        assert nw.evaluate(model, all1) == 1.0
        assert np.array_equal(model.predict(images), np.zeros(10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_images_rejected(self, bad):
        model = _tiny_model()
        images = np.zeros((4, 1, 8, 8))
        images[2, 0, 3, 5] = bad
        with pytest.raises(InvalidConfig):
            nw.evaluate(model, Dataset(images, np.zeros(4, dtype=np.int64)))

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    def test_images_beyond_float32_range_rejected(self):
        model = _tiny_model()
        assert model.dtype == np.float32
        images = np.zeros((2, 1, 8, 8))
        images[0, 0, 0, 0] = 1e300  # finite in float64, inf at the model's precision
        with pytest.raises(InvalidConfig):
            nw.evaluate(model, Dataset(images, np.zeros(2, dtype=np.int64)))

    def test_argmax_tie_resolves_to_lowest_class(self):
        model = _tiny_model()
        model.layers[1].weight[...] = 0.0
        model.layers[1].bias[...] = 0.0
        assert np.array_equal(model.predict(np.zeros((3, 1, 8, 8))), np.zeros(3))


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        ds = _separable_2class(32)
        model = nw.build_model(nw.mini_config("dwt_avg", "db2", image_hw=(8, 8),
                                              classes=2, seed=9))
        nw.train(model, ds, nw.TrainConfig(epochs=1, batch=8))
        path = tmp_path / "model.wcn"
        nw.save_model(model, path)
        back = nw.load_model(path)
        assert back.checksum() == model.checksum()
        assert back.config == model.config
        assert back.dtype == model.dtype
        x = ds.images[:4]
        assert np.array_equal(back.predict(x), model.predict(x))
        for (na, a), (nb, b) in zip(model.named_buffers(), back.named_buffers()):
            assert na == nb and np.array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.wcn"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(InvalidConfig):
            nw.load_model(path)

    def test_float64_checkpoint(self, tmp_path):
        model = nw.build_model(nw.mini_config("max_pool"), dtype=np.float64)
        path = tmp_path / "m.wcn"
        nw.save_model(model, path)
        back = nw.load_model(path)
        assert back.dtype == np.float64
        assert back.checksum() == model.checksum()


class TestGradcheck:
    def test_full_mini_model_under_1e6(self):
        model = nw.build_model(nw.mini_config("dwt_avg", "db2", image_hw=(12, 12)),
                               dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((2, 1, 12, 12))
        assert nw.gradcheck(model, x, rng=np.random.default_rng(1),
                            max_coords=30) < 1e-6

    def test_detects_a_wrong_gradient(self):
        layer = Dense(6, 3)
        layer.init_params(np.random.default_rng(0), np.float64)
        original = Dense.backward

        def broken(self, grad):
            out = original(self, grad)
            self.grad_weight = self.grad_weight * 1.01
            return out

        Dense.backward = broken
        try:
            x = np.random.default_rng(2).standard_normal((4, 6))
            assert nw.gradcheck(layer, x, rng=np.random.default_rng(3)) > 1e-4
        finally:
            Dense.backward = original


def test_synthetic_dataset_trains_above_chance_quickly():
    ds = synthetic_classification(200, classes=4, seed=0, amplitude=0.3)
    model = nw.build_model(nw.mini_config("avg_pool", classes=4, seed=0))
    report = nw.train(model, ds, nw.TrainConfig(epochs=3, batch=32))
    assert report.val_accuracy[-1] > 0.5
