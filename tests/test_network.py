import copy
import dataclasses
import hashlib
import inspect
import json
import functools
import math
import os
import select
import signal
import struct
import sys
import tempfile
import threading
import time
import tracemalloc
from types import SimpleNamespace
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavecnn import fileio, network as nw, robustness
from wavecnn.cli import main
from wavecnn.datasets import Dataset, save_dataset, synthetic_classification
from wavecnn.errors import DivergedLoss, FormatError, InvalidConfig, ShapeMismatch
from wavecnn.layers import Conv2d, Dense, Flatten, PadToEven, WaveletDown
from wavecnn.robustness import ShiftTrialConfig, error_matrix, shift_consistency

from reference import eval_loss_acc, gradcheck, grads, parameter_count


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

    @pytest.mark.parametrize("mode,wavelet", [("max_pool", ""), ("avg_pool", ""),
                                              ("strided_conv", ""), ("dwt_ll", "haar"),
                                              ("dwt_avg", "db4"), ("dwt_cat", "ch3.3")])
    def test_every_mini_config_round_trips(self, mode, wavelet):
        cfg = dataclasses.replace(nw.mini_config(mode, wavelet, image_hw=(27, 27), seed=3),
                                  wavelet_rewrite="db2")
        assert nw.ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @pytest.mark.parametrize("layer,top", [
        ({"kernel": "3"}, {}), ({"kernel": True}, {}), ({"kernel": 3.0}, {}),
        ({"c_out": None}, {}), ({"kind": 1}, {}),
        ({"kind": "down", "mode": "dwt_ll", "wavelet": "haar", "pad_odd": 1}, {}),
        ({"kind": "down", "mode": 5}, {}),
        ({}, {"seed": [1]}), ({}, {"seed": True}), ({}, {"seed": "1"}),
        ({}, {"wavelet_rewrite": 1})])
    def test_field_types_are_checked(self, layer, top):
        entry = dict({"kind": "conv", "kernel": 3, "c_in": 1, "c_out": 2}, **layer)
        with pytest.raises(InvalidConfig):
            nw.ModelConfig.from_dict(dict({"layers": [entry]}, **top))

    def test_loss_key_of_older_configs(self):
        d = nw.mini_config("dwt_ll", "haar", seed=2).to_dict()
        assert "loss" not in d
        assert nw.ModelConfig.from_dict(dict(d, loss="softmax_ce")) == \
            nw.ModelConfig.from_dict(d)
        with pytest.raises(InvalidConfig):
            nw.ModelConfig.from_dict(dict(d, loss="mse"))

    def test_missing_layers_rejected(self):
        with pytest.raises(InvalidConfig):
            nw.ModelConfig.from_dict({"seed": 1})

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidConfig, match="seed must be >= 0"):
            nw.ModelConfig.from_dict(dict(nw.mini_config("max_pool").to_dict(), seed=-1))

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(InvalidConfig, match="model seed must be an integer"):
            nw.ModelConfig(layers=nw.mini_config("max_pool").layers, seed=seed)

    def test_every_layer_kind_round_trips(self):
        specs = (nw.conv(5, 2, 3, stride=2), nw.batchnorm(3), nw.relu(),
                 nw.downsample("dwt_cat", "db2", pad_odd=True, c_in=3, c_out=4),
                 nw.flatten(), nw.dense(7, 2))
        assert [s.kind for s in specs] == list(nw._KINDS)
        cfg = nw.ModelConfig(layers=specs, seed=9, wavelet_rewrite="haar")
        assert nw.ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @pytest.mark.parametrize("entry", [
        {"kind": "relu", "kernel": 5}, {"kind": "down", "mode": "max_pool", "stride": 2},
        {"kind": "flatten", "n_out": 3}, {"kind": "batchnorm", "channels": 2, "c_in": 2},
        {"kind": "pool"}, {"kernel": 3}, {"kind": ["relu"]}, "relu", None])
    def test_fields_outside_the_kind_are_rejected(self, entry):
        with pytest.raises(InvalidConfig, match="layer 0"):
            nw.ModelConfig.from_dict({"layers": [entry]})

    @pytest.mark.parametrize("spec,message", [
        (nw.conv(3, 1, 2, stride=3), "stride must be 1 or 2, got 3"),
        (nw.downsample("strided_conv"), "strided_conv downsample needs c_in"),
        (nw.downsample("bogus"), "unknown downsample mode 'bogus'"),
        (nw.LayerSpec("bogus"), "unknown layer kind 'bogus'")])
    def test_layers_that_cannot_be_built_are_rejected(self, spec, message):
        """These specs pass ``from_dict``'s type checks or skip them."""
        with pytest.raises(InvalidConfig, match=f"^layer 0: {message}$"):
            nw.Model(nw.ModelConfig(layers=(spec,)))

    @pytest.mark.parametrize("d", [[], "layers", None, {"layers": "conv"},
                                   {"layers": [], "loss": 1}])
    def test_top_level_must_be_a_typed_object(self, d):
        with pytest.raises(InvalidConfig):
            nw.ModelConfig.from_dict(d)


class TestTrainConfig:
    @pytest.mark.parametrize("fields", [
        {"epochs": "1"}, {"epochs": 1.0}, {"epochs": True}, {"batch": True},
        {"batch": None}, {"batch": "8"}, {"lr": "0.1"}, {"lr": True}, {"lr": None},
        {"momentum": [0.9]}, {"weight_decay": False}, {"optimizer": "adam"}])
    def test_field_types_are_checked(self, fields):
        with pytest.raises(InvalidConfig):
            nw.TrainConfig.from_dict(fields)

    @pytest.mark.parametrize("d", [[], "lr", 3, None])
    def test_must_be_an_object(self, d):
        with pytest.raises(InvalidConfig):
            nw.TrainConfig.from_dict(d)

    def test_an_int_is_a_float(self):
        assert nw.TrainConfig.from_dict({"lr": 1, "momentum": 0}) == \
            nw.TrainConfig(lr=1.0, momentum=0.0)

    @pytest.mark.parametrize("fields", [
        {"epochs": 0}, {"epochs": -2}, {"lr": float("nan")}, {"lr": float("inf")},
        {"momentum": float("inf")}, {"weight_decay": float("nan")},
        {"momentum": float("-inf")}])
    def test_no_epochs_or_non_finite_hyperparameters_rejected(self, fields):
        with pytest.raises(InvalidConfig, match=next(iter(fields))):
            nw.TrainConfig(**fields)
        with pytest.raises(InvalidConfig, match=next(iter(fields))):
            nw.TrainConfig.from_dict(fields)

    @pytest.mark.parametrize("batch", [0, -3])
    def test_batch_below_one_rejected(self, batch):
        with pytest.raises(InvalidConfig, match="batch"):
            nw.TrainConfig(batch=batch)
        with pytest.raises(InvalidConfig, match="batch"):
            nw.TrainConfig.from_dict({"batch": batch})

    @pytest.mark.parametrize("name", ["batch", "epochs"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True, "8"])
    def test_a_batch_or_epoch_count_that_is_no_integer_is_refused(self, name, value):
        """As the JSON path refuses it; ``batch=2.5`` used to reach ``train``
        as a bare TypeError and ``epochs=True`` to run one epoch."""
        with pytest.raises(InvalidConfig,
                           match=rf"^training {name} must be an integer, got {value!r}$"):
            nw.TrainConfig(**{name: value})

    @pytest.mark.parametrize("name,value", [
        ("lr", "0.1"), ("lr", True), ("lr", None), ("momentum", None), ("momentum", [0.9]),
        ("weight_decay", False), ("weight_decay", "0")])
    def test_a_setting_that_is_no_real_number_is_refused(self, name, value):
        """As the JSON path refuses it; ``lr="0.1"`` and ``momentum=None``
        used to raise a bare TypeError from ``math.isfinite``, and
        ``lr=True`` trained at a rate of 1."""
        with pytest.raises(InvalidConfig) as info:
            nw.TrainConfig(**{name: value})
        assert str(info.value) == f"training {name} must be a real number, got {value!r}"

    def test_numpy_reals_pass(self):
        cfg = nw.TrainConfig(lr=np.float32(0.5), momentum=np.float64(0.0),
                             weight_decay=np.int64(0))
        assert cfg.lr == 0.5 and cfg.momentum == 0.0 and cfg.weight_decay == 0


_MINI_CASES = (("max_pool", ""), ("avg_pool", ""), ("strided_conv", ""),
               ("dwt_ll", "haar"), ("dwt_avg", "db2"), ("dwt_cat", "ch3.3"))

# tracemalloc peak allowed where a config declares a 10 -> 6,000,000 dense
# layer (240 MB of float32 weights) that nothing may allocate
_BOUND = 16 * 2**20


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
            mode: parameter_count(nw.build_model(
                nw.mini_config(mode, "haar" if mode.startswith("dwt") else "")
            ))
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
        with pytest.raises(InvalidConfig, match="^layer 3: unknown wavelet 'nosuch'"):
            nw.build_model(nw.mini_config("dwt_ll", "nosuch"))
        with pytest.raises(InvalidConfig, match="^layer 0: unknown wavelet 'nosuch'"):
            nw.Model(nw.ModelConfig(layers=(nw.downsample("dwt_cat", "nosuch"),)))

    def test_channel_mismatch_detected(self):
        cfg = nw.ModelConfig(layers=(nw.conv(3, 1, 4), nw.batchnorm(8)))
        with pytest.raises(InvalidConfig):
            nw.build_model(cfg)

    def test_wavelet_mode_requires_wavelet(self):
        with pytest.raises(InvalidConfig):
            nw.mini_config("dwt_ll")
        with pytest.raises(InvalidConfig):
            nw.build_model(nw.ModelConfig(layers=(nw.downsample("dwt_ll"),)))

    @pytest.mark.parametrize("cfg", [
        *(nw.mini_config(mode, wavelet) for mode, wavelet in _MINI_CASES),
        *(nw.mini_config(mode, wavelet, image_hw=(27, 27)) for mode, wavelet in _MINI_CASES),
        nw.ModelConfig(layers=(nw.flatten(), nw.dense(64, 2))),
        nw.ModelConfig(layers=(nw.batchnorm(3), nw.relu(), nw.conv(3, 3, 2))),
        nw.ModelConfig(layers=(nw.conv(3, 1, 2), nw.downsample("max_pool", pad_odd=True),
                               nw.downsample("dwt_cat", "haar", pad_odd=True),
                               nw.conv(1, 8, 2))),
        dataclasses.replace(nw.mini_config("strided_conv"), wavelet_rewrite="haar")],
        ids=lambda cfg: "-".join(s.mode or s.kind for s in cfg.layers[:4]))
    def test_accepts_every_chaining_config(self, cfg):
        assert nw.build_model(cfg).layers

    @pytest.mark.parametrize("layers,at", [
        ((nw.conv(3, 1, 4), nw.downsample("dwt_cat", "haar"), nw.conv(3, 4, 8)), 2),
        ((nw.conv(3, 1, 4), nw.dense(16, 2)), 1),
        ((nw.dense(4, 2),), 0),
        ((nw.flatten(), nw.conv(3, 1, 4)), 1),
        ((nw.flatten(), nw.dense(4, 3), nw.dense(5, 2)), 2)])
    def test_rejects_layers_that_do_not_chain(self, layers, at):
        """Inputs are always NCHW images, so a dense layer must follow a flatten."""
        with pytest.raises(InvalidConfig, match=f"^layer {at}: "):
            nw.build_model(nw.ModelConfig(layers=layers))

    @pytest.mark.parametrize("layers,at", [
        ((nw.conv(3, 0, 4),), 0), ((nw.conv(3, 1, 0),), 0), ((nw.batchnorm(-2),), 0),
        ((nw.flatten(), nw.dense(10, -3)), 1), ((nw.flatten(), nw.dense(0, 3)), 1)])
    def test_rejects_sizes_below_one(self, layers, at):
        with pytest.raises(InvalidConfig, match=f"^layer {at}: .* must be >= 1"):
            nw.Model(nw.ModelConfig(layers=layers))

    def test_declared_state_is_bounded(self):
        # (255 + 1) * n_out weights and biases: exactly MAX_STATE_VALUES
        big = (nw.flatten(), nw.dense(255, nw.MAX_STATE_VALUES // 256))
        assert parameter_count(nw.Model(nw.ModelConfig(layers=big))) == nw.MAX_STATE_VALUES
        with pytest.raises(InvalidConfig, match="^layer 2: .* state values"):
            nw.Model(nw.ModelConfig(layers=(nw.conv(1, 1, 1), *big)))
        with pytest.raises(InvalidConfig, match="^layer 0: .* state values"):
            nw.build_model(nw.ModelConfig(layers=(nw.conv(3, 1, 10 ** 18),)))

    def test_parameter_count_allocates_nothing(self):
        cfg = nw.ModelConfig(layers=(nw.flatten(), nw.dense(10, 6_000_000)))
        tracemalloc.start()
        try:
            assert parameter_count(nw.Model(cfg)) == 66_000_000
            assert tracemalloc.get_traced_memory()[1] < _BOUND
        finally:
            tracemalloc.stop()
        small = nw.mini_config("dwt_cat", "haar")
        assert parameter_count(nw.Model(small)) == \
            sum(arr.size for _, arr in nw.build_model(small).named_params())


# Model.checksum() of build_model(mini_config(mode, wavelet)) as recorded before
# the layers declared their state shapes; the draw order and the entry order
# are pinned by these.  The four modes without conv down-sampling share weights.
_SAME_WEIGHTS = {"float32": "465cb4f4aeca4b788af6e0092203f75aaf68dd1d2fd417ef6e04db56c398c4a1",
                 "float64": "c229ebb58af931570bc0cb27cba449f7ea392be189162bd550cbaf6ef6dd1675"}
_GOLDEN_CHECKSUMS = {
    **{(mode, dt): digest for mode in ("max_pool", "avg_pool", "dwt_ll", "dwt_avg")
       for dt, digest in _SAME_WEIGHTS.items()},
    ("strided_conv", "float32"): "d22c94cd7611bdd4822c8376e549eb004a291d528f884e058d9e73f1cebcbc84",
    ("strided_conv", "float64"): "7d887e1ebd5edd5d5315d88dc45452d45abf9ec3625f84f1820532d9a09c868b",
    ("dwt_cat", "float32"): "e87efb754be9907c81706e786276f122a2d80b9f37fcdbe018b852dee28ed9b3",
    ("dwt_cat", "float64"): "9022f05dd58b084ce975b09b566f9d5e3f0c170048a510490e45ec872e8a57ca",
    ("rewrite", "float32"): "3c70357787a5377f20d93d8fa156c1f7a268f2684e017d4422e2143c90a86d18",
}


def _golden_config(mode):
    if mode == "rewrite":
        return dataclasses.replace(nw.mini_config("strided_conv"), wavelet_rewrite="haar")
    return nw.mini_config(mode, dict(_MINI_CASES)[mode])


class TestGoldenState:
    @pytest.mark.parametrize("mode,dtype", list(_GOLDEN_CHECKSUMS))
    def test_initial_weights_are_pinned(self, mode, dtype):
        model = nw.build_model(_golden_config(mode), dtype=np.dtype(dtype))
        assert model.checksum() == _GOLDEN_CHECKSUMS[mode, dtype]

    @pytest.mark.parametrize("mode,dtype", list(_GOLDEN_CHECKSUMS))
    def test_save_load_save_is_byte_identical(self, tmp_path, mode, dtype):
        first, second = tmp_path / "a.wcn", tmp_path / "b.wcn"
        nw.save_model(nw.build_model(_golden_config(mode), dtype=np.dtype(dtype)), first)
        back = nw.load_model(first)
        assert back.checksum() == _GOLDEN_CHECKSUMS[mode, dtype]
        nw.save_model(back, second)
        assert first.read_bytes() == second.read_bytes()


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
        assert parameter_count(m1) == parameter_count(m2)

    @pytest.mark.parametrize("pad_odd", [False, True])
    @pytest.mark.parametrize("rewrite", ["", "haar"])
    def test_strided_conv_downsample_rewrites_too(self, pad_odd, rewrite):
        """The pad goes right before the stride-2 step: the strided conv,
        or the wavelet downsample that a rewrite puts after the conv."""
        cfg = nw.ModelConfig(
            layers=(nw.downsample("strided_conv", pad_odd=pad_odd, c_in=2, c_out=2),),
            wavelet_rewrite=rewrite)
        model = nw.build_model(cfg)
        pad = [PadToEven] if pad_odd else []
        want = [Conv2d, *pad, WaveletDown] if rewrite else [*pad, Conv2d]
        assert [type(l) for l in model.layers] == want
        assert [l.stride for l in model.layers if isinstance(l, Conv2d)] == [1 if rewrite else 2]


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

    def test_non_finite_validation_loss_raises_with_the_partial_report(self):
        """At this step size every step loss stays finite, but the eval-mode
        logits of the validation pass overflow."""
        ds = synthetic_classification(64, classes=10, seed=0)
        model = nw.build_model(nw.mini_config("max_pool", seed=0))
        with np.errstate(all="ignore"), pytest.raises(DivergedLoss, match="validation") as err:
            nw.train(model, ds, nw.TrainConfig(epochs=2, batch=32, lr=1e6))
        report = err.value.report
        assert len(report.train_loss) == len(report.val_loss) == len(report.val_accuracy) == 1
        assert np.isfinite(report.train_loss[0]) and not np.isfinite(report.val_loss[0])

    @pytest.mark.parametrize("batch", [16, 8])
    def test_steps_with_weight_decay_match_the_hand_update(self, batch):
        """One step (batch 16) or two (batch 8).  The velocity starts at zero
        and carries over: v1 = -lr (g1 + wd p0), p1 = p0 + v1, then
        v2 = m v1 - lr (g2 + wd p1), p2 = p1 + v2, with g2 taken at p1."""
        ds = _separable_2class(16)
        hyper = nw.TrainConfig(lr=0.3, momentum=0.9, weight_decay=0.05, batch=batch, epochs=1)
        model, ref = _tiny_model(seed=5), _tiny_model(seed=5)
        # the batches of the epoch, in the order train draws them
        order = np.random.default_rng([ref.config.seed, 0x5eed]).permutation(16)
        images = np.asarray(ds.images, dtype=ref.dtype)
        dense = ref.layers[1]
        v = {name: np.zeros_like(p) for name, p in dense.params().items()}
        without_decay = {}
        for start in range(0, 16, batch):
            idx = order[start:start + batch]
            ref.loss.forward(ref.forward(images[idx], training=True), ds.labels[idx])
            ref.backward(ref.loss.backward())
            for name, p in dense.params().items():
                g = grads(dense)[name]
                without_decay[name] = p + hyper.momentum * v[name] - hyper.lr * g
                v[name] = hyper.momentum * v[name] - hyper.lr * (g + hyper.weight_decay * p)
                p += v[name]
        nw.train(model, ds, hyper)
        for name, p in dense.params().items():
            got = model.layers[1].params()[name]
            np.testing.assert_allclose(got, p, rtol=1e-6, atol=1e-7)
            assert not np.allclose(got, without_decay[name], rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("split", ["training", "validation"])
    @pytest.mark.parametrize("label", [-1, 2, 12])
    def test_a_label_that_is_no_class_of_the_model_is_refused_before_any_step(
            self, split, label, monkeypatch):
        """The 2-class head has no class ``label``: a validation split used to
        find it after an epoch of steps, a training split in its first
        training forward."""
        ds = _separable_2class(16)
        labels = ds.labels.copy()
        labels[5] = label
        model = _tiny_model()
        forward = model.forward

        def no_training_forward(x, training=False):
            assert not training, "a training forward ran"
            return forward(x, training)
        monkeypatch.setattr(model, "forward", no_training_forward)
        odd = Dataset(ds.images, labels)
        train_ds, val = (odd, ds) if split == "training" else (ds, odd)
        lo, hi = min(label, 0), max(label, 1)
        with pytest.raises(InvalidConfig, match=rf"^labels must lie in 0..1 for 2 classes, "
                           rf"got {lo}..{hi} in the {split} split$"):
            nw.train(model, train_ds, nw.TrainConfig(epochs=1, batch=8), val=val)

    def test_an_overflowing_momentum_diverges_without_a_warning(self):
        """``pyproject.toml`` makes a RuntimeWarning an error, so a NumPy
        overflow warning escaping the loop fails this test."""
        ds = _separable_2class(16)
        with pytest.raises(DivergedLoss, match="loss became non-finite in epoch 1"):
            nw.train(_tiny_model(), ds, nw.TrainConfig(momentum=1e308, epochs=1, batch=8))

    @pytest.mark.parametrize("layers", [[], [nw.conv(3, 1, 4)], [nw.conv(3, 1, 4), nw.relu()]])
    def test_an_output_that_is_not_flat_is_refused_before_any_step(self, layers):
        ds = _separable_2class(16)
        model = nw.build_model(nw.ModelConfig(layers=tuple(layers)))
        before = model.checksum()
        with pytest.raises(InvalidConfig, match=r"^training split does not fit the model: the "
                           r"model's layers give each image the output shape \(.+\), "
                           r"not one label per image$"):
            nw.train(model, ds, nw.TrainConfig(epochs=1, batch=8))
        assert model.checksum() == before

    def test_a_flat_output_without_a_dense_layer_trains(self):
        """Flatten alone gives each image a (features,) vector: 64 logits."""
        ds = _separable_2class(16)
        model = nw.build_model(nw.ModelConfig(layers=(nw.flatten(),)))
        assert model.out_shape == (None,)
        assert len(nw.train(model, ds, nw.TrainConfig(epochs=1, batch=8)).train_loss) == 1

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

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
    @pytest.mark.parametrize("caller,run", [
        ("evaluate", nw.evaluate),
        ("shift consistency",
         lambda model, ds: shift_consistency(model, ds, ShiftTrialConfig(max_shift=2, pairs=2)))])
    def test_a_split_without_one_finite_pixel_is_refused(self, caller, run, bad):
        """At the model's precision (1e300 is infinite in float32), as
        :class:`TestAdmission` refuses one such pixel; ``shift_consistency``
        used to report NaN images 100 % consistent."""
        images = np.full((8, 1, 8, 8), bad)
        with pytest.raises(InvalidConfig) as info:
            run(_tiny_model(), Dataset(images, np.zeros(8, dtype=np.int64)))
        assert str(info.value) == f"{caller} needs finite image values"

    def test_empty_dataset(self):
        model = _tiny_model()
        images = np.zeros((0, 1, 8, 8))
        logits = model.predict_logits(images)
        assert logits.shape == (0, 2) and logits.dtype == model.dtype
        assert model.predict(images).shape == (0,)
        with pytest.raises(InvalidConfig):
            nw.evaluate(model, Dataset(images, np.zeros(0, dtype=np.int64)))

    @pytest.mark.parametrize("mode,wavelet", [("max_pool", ""), ("dwt_cat", "db2")])
    def test_empty_batch_through_mini_model(self, mode, wavelet):
        model = nw.build_model(nw.mini_config(mode, wavelet))
        assert model.predict_logits(np.zeros((0, 1, 28, 28))).shape == (0, 10)

    def test_logits_come_in_blocks_of_32(self, monkeypatch):
        """``predict_logits`` takes the images alone; no setting governs
        its blocks."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        model = _tiny_model()
        sizes = []
        forward = model.forward

        def recording(x, training=False):
            sizes.append(len(x))
            return forward(x, training)
        model.forward = recording
        assert nw.PREDICT_BLOCK == 32
        assert list(inspect.signature(model.predict_logits).parameters) == ["images"]
        assert model.predict_logits(np.zeros((70, 1, 8, 8))).shape == (70, 2)
        assert sizes == [32, 32, 6]

    def test_argmax_tie_resolves_to_lowest_class(self):
        model = _tiny_model()
        model.layers[1].weight[...] = 0.0
        model.layers[1].bias[...] = 0.0
        assert np.array_equal(model.predict(np.zeros((3, 1, 8, 8))), np.zeros(3))


def _bad_pixel(value):
    def make(ds):
        images = ds.images.copy()
        images[3, 0, 2, 5] = value
        return _tiny_model(), SimpleNamespace(images=images, labels=ds.labels)
    return make


def _bad_labels(change):
    def make(ds):
        return _tiny_model(), SimpleNamespace(images=ds.images, labels=change(ds.labels))
    return make


# A zero-image predict: the admission rule's probe, as an 8x8-taking model runs it.
_PROBE = [("predict", 0), ("forward", 0, False)]
_FIT = "does not fit the model: "

# Each malformed split: how to make the model and the split from 16 good
# 8x8 images, the end of the message after the caller, the calls the
# split's own admission makes before it refuses, and whether the fault is
# the model's (train then finds it on the training split, the first it admits).
_MALFORMED = {
    "no image": (lambda ds: (_tiny_model(), SimpleNamespace(
        images=np.zeros((0, 1, 8, 8)), labels=np.zeros(0, dtype=np.int64))),
        "needs at least one image", [], False),
    "NaN pixel": (_bad_pixel(np.nan), "needs finite image values", [], False),
    "inf pixel": (_bad_pixel(np.inf), "needs finite image values", [], False),
    "-inf pixel": (_bad_pixel(-np.inf), "needs finite image values", [], False),
    "1e300 pixel": (_bad_pixel(1e300), "needs finite image values", [], False),  # inf in f32
    "short labels": (_bad_labels(lambda y: y[:10]), "needs one integer label per image, "
                     "got int64 labels of shape (10,) for 16 images", [], False),
    "float labels": (_bad_labels(lambda y: y.astype(np.float64)), "needs one integer label "
                     "per image, got float64 labels of shape (16,) for 16 images", [], False),
    "bool labels": (_bad_labels(lambda y: y.astype(bool)), "needs one integer label per "
                    "image, got bool labels of shape (16,) for 16 images", [], False),
    "2-D labels": (_bad_labels(lambda y: y[:, None]), "needs one integer label per image, "
                   "got int64 labels of shape (16, 1) for 16 images", [], False),
    "images that do not fit": (lambda ds: (_tiny_model(), SimpleNamespace(
        images=ds.images[:, :, :6, :6], labels=ds.labels)),
        _FIT + "dense declared n_in=64 but input shape is (36,)", _PROBE, False),
    "no label per image": (lambda ds: (nw.build_model(nw.ModelConfig(layers=())), ds),
                           _FIT + "the model's layers give each image the output shape "
                           "(None, None, None), not one label per image",
                           [("predict", 0)], True),
}

# Each scorer: the caller its message names, how it reads the malformed
# split beside the good one, and the calls made before that split is admitted.
_SCORERS = {
    "train training split": (
        "training split",
        lambda model, odd, ds: nw.train(model, odd, nw.TrainConfig(epochs=1, batch=8), val=ds),
        []),
    "train validation split": (
        "validation split",
        lambda model, odd, ds: nw.train(model, ds, nw.TrainConfig(epochs=1, batch=8), val=odd),
        _PROBE),
    "evaluate": ("evaluate", lambda model, odd, ds: nw.evaluate(model, odd), []),
    "shift_consistency": (
        "shift consistency",
        lambda model, odd, ds: shift_consistency(model, odd, ShiftTrialConfig(max_shift=2,
                                                                              pairs=2)),
        []),
    "error_matrix": ("error matrix", lambda model, odd, ds: error_matrix(model, odd), []),
}


class TestAdmission:
    """The admission table: every scorer refuses every malformed split with
    the one rule's InvalidConfig, naming itself, before any work.  A cell
    records every predict and forward: only zero-image probes may run, and
    no training step, corruption or shift."""

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    @pytest.mark.parametrize("column", list(_MALFORMED))
    @pytest.mark.parametrize("row", list(_SCORERS))
    def test_refused_before_any_work(self, row, column, monkeypatch):
        ds = _separable_2class(16)
        make, need, probe, of_model = _MALFORMED[column]
        caller, score, admitted_first = _SCORERS[row]
        if of_model and row.startswith("train"):
            caller, admitted_first = "training split", []
        model, odd = make(ds)
        assert model.dtype == np.float32
        before = model.checksum()
        seen = []
        predict, forward = model.predict, model.forward

        def recording_predict(images):
            seen.append(("predict", len(images)))
            return predict(images)

        def recording_forward(x, training=False):
            seen.append(("forward", len(x), training))
            return forward(x, training)

        def forbidden(what):
            def run(*_, **__):
                raise AssertionError(f"{what} ran")
            return run
        monkeypatch.setattr(model, "predict", recording_predict)
        monkeypatch.setattr(model, "forward", recording_forward)
        monkeypatch.setattr(model, "backward", forbidden("a training step"))
        monkeypatch.setattr(robustness, "_corrupted", forbidden("a corruption"))
        monkeypatch.setattr(robustness, "shift_image", forbidden("a shift"))
        with pytest.raises(InvalidConfig) as info:
            score(model, odd, ds)
        assert str(info.value) == f"{caller} {need}"
        assert seen == admitted_first + probe
        assert model.checksum() == before


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


def _small_checkpoint(path):
    """A conv-BN-ReLU-pool-dense model with non-trivial BatchNorm buffers,
    saved to ``path``; returns its arrays by name."""
    cfg = nw.ModelConfig(layers=(nw.conv(3, 1, 2), nw.batchnorm(2), nw.relu(),
                                 nw.downsample("avg_pool"), nw.flatten(), nw.dense(8, 3)),
                         seed=4)
    model = nw.build_model(cfg)
    bn = model.layers[1]
    bn.running_mean[...] = [0.25, -0.5]
    bn.running_var[...] = [1.5, 0.75]
    nw.save_model(model, path)
    return _state(model)


def _state(model):
    return {name: arr.copy() for name, arr in
            list(model.named_params()) + list(model.named_buffers())}


def _resealed(body) -> bytes:
    """A checkpoint body closed by a fresh sha256, so that a defect in it
    passes the digest check and only the parser can catch it."""
    return bytes(body) + hashlib.sha256(body).digest()


def _with_defect(data, defect):
    """Checkpoint ``data`` with one ``defect``, behind a fresh digest."""
    body = bytearray(data[:-32])
    (cfg_len,) = struct.unpack_from("<I", body, 5)
    first = 9 + cfg_len + 4  # the first state entry, after the entry count
    (name_len,) = struct.unpack_from("<H", body, first)
    ndim = body[first + 2 + name_len]
    dims = first + 3 + name_len
    if defect == "dtype tag":
        body[4] = 7
    elif defect == "config not an object":
        body[5:9 + cfg_len] = struct.pack("<I", 3) + b"[1]"
    elif defect in ("entry shape", "entry size"):
        at = dims if defect == "entry shape" else dims + 8 * ndim
        struct.pack_into("<Q", body, at, struct.unpack_from("<Q", body, at)[0] + 1)
    else:
        body += b"\0"
    return _resealed(body)


def _with_value(data, entry, value):
    """Checkpoint ``data`` with the last element of state ``entry`` set to
    ``value``, behind a fresh digest."""
    body = bytearray(data[:-32])
    at = body.index(entry.encode()) + len(entry)  # the entry's rank byte
    ndim = body[at]
    (nbytes,) = struct.unpack_from("<Q", body, at + 1 + 8 * ndim)
    end = at + 9 + 8 * ndim + nbytes
    item = fileio.TAG_TO_DTYPE[body[4]]
    body[end - item.itemsize:end] = np.array(value, item).tobytes()
    return _resealed(body)


def _eval_fails(tmp_path, capsys, model, error: str):
    """``wavecnn eval`` on checkpoint ``model`` exits 2 and names ``error``."""
    imgs, labs = tmp_path / "i.idx", tmp_path / "l.idx"
    save_dataset(Dataset(np.zeros((2, 1, 4, 4)), np.zeros(2, dtype=np.int64)), imgs, labs)
    assert main(["eval", "--model", str(model), "--images", str(imgs),
                 "--labels", str(labs)]) == 2
    assert f"wavecnn eval: error: {error}:" in capsys.readouterr().err


def _loads_same_or_fails_loudly(path, want):
    try:
        got = _state(nw.load_model(path))
    except (FormatError, InvalidConfig):
        return
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[k], want[k]) for k in want)


class TestCorruptCheckpoint:
    def test_written_as_wcn2_with_a_digest(self, tmp_path):
        path = tmp_path / "m.wcn"
        _small_checkpoint(path)
        data = path.read_bytes()
        assert data[:4] == b"WCN2"
        assert hashlib.sha256(data[:-32]).digest() == data[-32:]

    @pytest.mark.parametrize("flipped", [False, True])
    def test_wcn1_is_refused(self, tmp_path, capsys, flipped):
        """The older layout carries no digest, so a flipped bit in it would
        load silently."""
        path = tmp_path / "m.wcn"
        _small_checkpoint(path)
        body = bytearray(b"WCN1" + path.read_bytes()[4:-32])
        if flipped:
            body[-1] ^= 0x01  # in the payload of running_var, the last entry
        path.write_bytes(body)
        with pytest.raises(InvalidConfig, match="not a model checkpoint"):
            nw.load_model(path)
        _eval_fails(tmp_path, capsys, path, "InvalidConfig")

    @pytest.mark.parametrize("resealed", [False, True])
    def test_entry_count_patched_to_zero(self, tmp_path, resealed):
        path = tmp_path / "m.wcn"
        _small_checkpoint(path)
        data = bytearray(path.read_bytes())
        (cfg_len,) = struct.unpack_from("<I", data, 5)
        struct.pack_into("<I", data, 9 + cfg_len, 0)
        path.write_bytes(_resealed(data[:-32]) if resealed else data)
        with pytest.raises(FormatError):
            nw.load_model(path)

    @pytest.mark.parametrize("resealed", [False, True])
    def test_last_100_bytes_cut(self, tmp_path, resealed):
        path = tmp_path / "m.wcn"
        _small_checkpoint(path)
        data = path.read_bytes()
        path.write_bytes(_resealed(data[:-132]) if resealed else data[:-100])
        with pytest.raises(FormatError):
            nw.load_model(path)

    def test_flipped_byte_in_last_batchnorm_buffer(self, tmp_path):
        path = tmp_path / "m.wcn"
        _small_checkpoint(path)
        data = bytearray(path.read_bytes())
        # running_var is the last entry; its last payload byte sits before the digest
        data[-33] ^= 0x01
        path.write_bytes(data)
        with pytest.raises(FormatError):
            nw.load_model(path)

    @pytest.mark.parametrize("change", ["duplicate", "extra"])
    def test_entry_set_must_match_exactly(self, tmp_path, change):
        """Behind a fresh digest, so only the parser can catch it."""
        path = tmp_path / "m.wcn"
        _small_checkpoint(path)
        body = bytearray(path.read_bytes()[:-32])
        (cfg_len,) = struct.unpack_from("<I", body, 5)
        at = 9 + cfg_len
        (count,) = struct.unpack_from("<I", body, at)
        (name_len,) = struct.unpack_from("<H", body, at + 4)
        ndim = body[at + 6 + name_len]
        end = at + 6 + name_len + 1 + 8 * ndim
        (nbytes,) = struct.unpack_from("<Q", body, end)
        first = bytes(body[at + 4:end + 8 + nbytes])
        if change == "extra":
            first = first.replace(b"0.weight", b"9.weight")
        struct.pack_into("<I", body, at, count + 1)
        path.write_bytes(_resealed(bytes(body) + first))
        with pytest.raises(FormatError):
            nw.load_model(path)

    def test_bad_json_config(self, tmp_path):
        path = tmp_path / "m.wcn"
        _small_checkpoint(path)
        body = bytearray(path.read_bytes()[:-32])
        body[9] = ord("[")
        path.write_bytes(_resealed(body))
        with pytest.raises(FormatError):
            nw.load_model(path)

    @pytest.mark.parametrize("defect", ["dtype tag", "config not an object", "entry shape",
                                        "entry size", "trailing bytes"])
    def test_parser_rejects_behind_a_fresh_digest(self, tmp_path, capsys, defect):
        path = tmp_path / "m.wcn"
        _small_checkpoint(path)
        path.write_bytes(_with_defect(path.read_bytes(), defect))
        with pytest.raises(FormatError):
            nw.load_model(path)
        _eval_fails(tmp_path, capsys, path, "FormatError")

    def test_every_truncation_fails_loudly(self, tmp_path):
        path = tmp_path / "m.wcn"
        _small_checkpoint(path)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises((FormatError, InvalidConfig)):
                nw.load_model(path)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(where=st.floats(0.0, 1.0, exclude_max=True), mask=st.integers(1, 255))
    def test_any_single_byte_flip_loads_same_or_fails(self, where, mask):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.wcn"
            want = _small_checkpoint(path)
            data = bytearray(path.read_bytes())
            data[int(where * len(data))] ^= mask
            path.write_bytes(data)
            _loads_same_or_fails_loudly(path, want)


def _huge_dense_checkpoint(path, headers: bool):
    """A WCN2 file with a valid digest whose config declares a 10 -> 6,000,000
    dense layer; it holds no state entries, or full-size entry headers whose
    payload is cut short."""
    cfg = nw.ModelConfig(layers=(nw.flatten(), nw.dense(10, 6_000_000)))
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    body = b"WCN2" + struct.pack("<BI", 0, len(blob)) + blob
    if headers:
        body += struct.pack("<I", 2)
        for name, shape in (("1.weight", (10, 6_000_000)), ("1.bias", (6_000_000,))):
            body += struct.pack("<H", len(name)) + name.encode()
            body += struct.pack(f"<B{len(shape)}QQ", len(shape), *shape, 4 * math.prod(shape))
        body += bytes(64)
    else:
        body += struct.pack("<I", 0)
    path.write_bytes(body + hashlib.sha256(body).digest())


class TestLoadAllocatesNothingUnchecked:
    @pytest.mark.parametrize("headers", [False, True])
    def test_huge_declared_layer_fails_small(self, tmp_path, headers):
        path = tmp_path / "huge.wcn"
        _huge_dense_checkpoint(path, headers)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):
                nw.load_model(path)
            assert tracemalloc.get_traced_memory()[1] < _BOUND
        finally:
            tracemalloc.stop()

    def test_flops_on_the_huge_layer_list_allocates_no_weights(self, tmp_path, capsys):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(
            nw.ModelConfig(layers=(nw.flatten(), nw.dense(10, 6_000_000))).to_dict()))
        tracemalloc.start()
        try:
            assert main(["flops", "--config", str(cfg), "--input", "1x1x10x1"]) == 0
            assert tracemalloc.get_traced_memory()[1] < _BOUND
        finally:
            tracemalloc.stop()
        assert json.loads(capsys.readouterr().out)["total"] == 60_000_000


class TestNonFiniteState:
    @pytest.mark.parametrize("patched", [False, True])
    @pytest.mark.parametrize("layer,name,bad", [
        (0, "weight", np.nan), (0, "bias", -np.inf), (1, "gamma", np.inf),
        (1, "running_var", np.inf), (1, "running_mean", np.nan), (5, "weight", np.nan)])
    def test_rejected_saved_or_patched(self, tmp_path, patched, layer, name, bad):
        """Written by ``save_model``, or patched into a clean file behind a
        fresh digest."""
        path = tmp_path / "m.wcn"
        _small_checkpoint(path)
        if patched:
            path.write_bytes(_with_value(path.read_bytes(), f"{layer}.{name}", bad))
        else:
            model = nw.load_model(path)
            getattr(model.layers[layer], name).reshape(-1)[-1] = bad
            nw.save_model(model, path)
        with pytest.raises(FormatError, match=f"{layer}.{name} holds NaN or infinite"):
            nw.load_model(path)


class TestModelBackward:
    @pytest.mark.parametrize("mode,wavelet", [("max_pool", ""), ("strided_conv", ""),
                                              ("dwt_ll", "haar"), ("dwt_cat", "ch3.3")])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_skips_the_first_input_gradient_with_the_same_param_grads(
            self, mode, wavelet, dtype):
        model = nw.build_model(nw.mini_config(mode, wavelet), dtype=dtype)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 1, 28, 28)).astype(dtype)
        model.loss.forward(model.forward(x, training=True), rng.integers(0, 10, 5))
        g = model.loss.backward()
        full = copy.deepcopy(model)
        grad = g
        for layer in reversed(full.layers):
            grad = layer.backward(grad)
        assert grad.shape == x.shape

        def input_gradient(grad):
            raise AssertionError("the first layer's input gradient was computed")

        model.layers[0].backward = input_gradient
        assert model.backward(g) is None
        for mine, theirs in zip(model.layers, full.layers):
            for name, arr in grads(mine).items():
                ref = grads(theirs)[name]
                assert arr.dtype == ref.dtype and arr.tobytes() == ref.tobytes()


class TestGradcheck:
    def test_full_mini_model_under_1e6(self):
        model = nw.build_model(nw.mini_config("dwt_avg", "db2", image_hw=(12, 12)),
                               dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((2, 1, 12, 12))
        assert gradcheck(model, x, rng=np.random.default_rng(1),
                         max_coords=30) < 1e-6

    def test_detects_a_wrong_gradient(self):
        layer = Dense(6, 3)
        layer.init_params(np.random.default_rng(0), np.float64)
        original = Dense._backward

        def broken(self, grad, x):
            out = original(self, grad, x)
            self.grad_weight = self.grad_weight * 1.01
            return out

        Dense._backward = broken
        try:
            x = np.random.default_rng(2).standard_normal((4, 6))
            assert gradcheck(layer, x, rng=np.random.default_rng(3)) > 1e-4
        finally:
            Dense._backward = original


def test_synthetic_dataset_trains_above_chance_quickly():
    ds = synthetic_classification(200, classes=4, seed=0, amplitude=0.3)
    model = nw.build_model(nw.mini_config("avg_pool", classes=4, seed=0))
    report = nw.train(model, ds, nw.TrainConfig(epochs=3, batch=32))
    assert report.val_accuracy[-1] > 0.5


# --- validation: the inference block loop on the calling thread ---


class TestValidationLoop:
    def test_validation_starts_no_thread(self, monkeypatch):
        """Even where four CPUs are usable: a pool thread's malloc arena
        cannot reuse what the training step freed.  The same patch sees
        the block loop open its pool on the usable CPUs."""
        pools = []

        def recording(threads):
            pools.append(threads)
            return ThreadPoolExecutor(threads)
        monkeypatch.setattr(nw, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(nw, "ThreadPoolExecutor", recording)
        ds = _separable_2class(40)
        model = _tiny_model()
        nw.train(model, ds, nw.TrainConfig(epochs=2, batch=8))
        assert pools == []
        model._logits(ds.images, 8, nw._usable_cpus())
        assert pools == [4]

    @pytest.mark.parametrize("batch", [16, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_val_loss_and_accuracy_keep_the_per_block_bits(self, batch, dtype):
        """Neither batch divides the 40 validation images, so the last
        block is short; the loss is still summed block by block."""
        train_ds = synthetic_classification(48, classes=10, seed=7)
        val = synthetic_classification(40, classes=10, seed=8)
        model = nw.build_model(nw.mini_config("dwt_ll", "haar", seed=3), dtype=dtype)
        report = nw.train(model, train_ds, nw.TrainConfig(epochs=1, batch=batch), val=val)
        images = val.images.astype(dtype)
        want = eval_loss_acc(model, images, val.labels, batch)
        assert (report.val_loss[0], report.val_accuracy[0]) == want
        assert nw._eval_loss_acc(model, images, val.labels, batch) == want
        assert 0.0 < want[1] < 1.0


# --- inference blocks on every usable CPU ---

MODES = [("max_pool", ""), ("avg_pool", ""), ("strided_conv", ""),
         ("dwt_ll", "haar"), ("dwt_avg", "db4"), ("dwt_cat", "ch3.3")]
_IMAGES = synthetic_classification(23, classes=10, seed=4).images


def _use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"{n}cpu")
def usable_cpus(request, monkeypatch):
    _use_cpus(monkeypatch, request.param)
    return request.param


@functools.lru_cache(maxsize=None)
def _parallel_model(mode, wavelet, dtype):
    return nw.build_model(nw.mini_config(mode, wavelet, seed=5), dtype=dtype)


@functools.lru_cache(maxsize=None)
def _serial_logits(mode, wavelet, dtype, batch):
    """The plain loop: one inference forward per block, in order."""
    model = _parallel_model(mode, wavelet, dtype)
    images = _IMAGES.astype(dtype)
    return np.concatenate([model.forward(images[i:i + batch], training=False)
                           for i in range(0, len(images), batch)])


class TestParallelPredict:
    @pytest.mark.parametrize("batch", [1, 7, 32, len(_IMAGES)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("mode,wavelet", MODES)
    def test_bytes_match_the_serial_block_loop(self, usable_cpus, mode, wavelet, dtype, batch):
        model = _parallel_model(mode, wavelet, dtype)
        got = model._logits(_IMAGES.astype(dtype), batch, nw._usable_cpus())
        want = _serial_logits(mode, wavelet, dtype, batch)
        assert got.dtype == want.dtype and got.shape == want.shape == (len(_IMAGES), 10)
        assert got.tobytes() == want.tobytes()

    def test_wrong_channel_count_raises_the_serial_error(self, usable_cpus):
        model = _parallel_model("max_pool", "", np.float32)
        images = np.zeros((100, 3, 28, 28), dtype=np.float32)
        model.predict_logits(_IMAGES)
        threads = set(threading.enumerate())
        with pytest.raises(ShapeMismatch) as serial:
            model.forward(images[:32], training=False)
        with pytest.raises(ShapeMismatch) as parallel:
            model.predict_logits(images)
        assert str(parallel.value) == str(serial.value)
        assert set(threading.enumerate()) <= threads

    def test_first_failing_block_raises_after_every_helper_is_done(self, usable_cpus):
        """Blocks 2 and later fail: on any CPU count block 2's error is the
        one raised, as in the serial loop."""
        model = _tiny_model()
        images = np.zeros((10, 1, 8, 8))
        images[:, 0, 0, 0] = np.arange(10) // 2  # the block index, at batch 2
        running = []
        forward = model.forward

        def failing(x, training=False):
            running.append(None)
            try:
                time.sleep(0.02)
                if x[0, 0, 0, 0] >= 2:
                    raise ValueError(f"block {int(x[0, 0, 0, 0])}")
                return forward(x, training)
            finally:
                running.pop()
        model.forward = failing
        with pytest.raises(ValueError, match="^block 2$"):
            model._logits(images, 2, nw._usable_cpus())
        assert running == []

    def test_concurrent_callers_under_fast_thread_switching(self, monkeypatch):
        """Four callers share one model, on more threads than cores, and
        leave no thread behind."""
        _use_cpus(monkeypatch, 3)
        threads = set(threading.enumerate())
        model = _parallel_model("dwt_avg", "db4", np.float32)
        want = _serial_logits("dwt_avg", "db4", np.float32, 1).tobytes()
        results = []

        def call():
            for _ in range(3):
                results.append(model._logits(_IMAGES.astype(np.float32), 1, nw._usable_cpus())
                               .tobytes() == want)
        callers = [threading.Thread(target=call) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert results == [True] * 12
        assert set(threading.enumerate()) <= threads

    @pytest.mark.parametrize("cpus,count", [(1, 100), (3, 32), (3, 0)])
    def test_one_cpu_or_one_block_starts_no_thread(self, monkeypatch, cpus, count):
        """Zero images also start none, and give a ``(0, classes)`` array."""
        _use_cpus(monkeypatch, cpus)

        def no_start(thread):
            raise AssertionError("predict_logits started a thread")
        monkeypatch.setattr(threading.Thread, "start", no_start)
        model = _parallel_model("max_pool", "", np.float32)
        logits = model.predict_logits(np.zeros((count, 1, 28, 28), dtype=np.float32))
        assert logits.shape == (count, 10) and logits.dtype == np.float32

    def test_forked_child_gets_the_same_logits(self, monkeypatch):
        _use_cpus(monkeypatch, 2)
        model = _parallel_model("dwt_ll", "haar", np.float32)
        want = model._logits(_IMAGES, 7, nw._usable_cpus())  # threads ran before the fork
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: answer with its logits
            try:
                os.close(read)
                os.write(write, model._logits(_IMAGES, 7, nw._usable_cpus()).tobytes())
            finally:
                os._exit(0)
        os.close(write)
        got, deadline = b"", time.monotonic() + 60
        try:
            while True:
                ready, _, _ = select.select([read], [], [], max(0.0, deadline - time.monotonic()))
                assert ready, "the forked child did not answer within 60 s"
                part = os.read(read, 1 << 16)
                if not part:
                    break
                got += part
        finally:
            os.close(read)
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert got == want.tobytes()
