import hashlib
import json
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wavecnn.cli import _RUN_KEYS, _build_parser, main
from wavecnn.datasets import Dataset, save_dataset, synthetic_classification
from wavecnn.denoise import DenoiseConfig, denoise_image
from wavecnn.network import (_KINDS, _TRAIN_KEYS, ModelConfig, build_model, load_model,
                              mini_config, save_model)
from wavecnn.fileio import read_pgm, read_tensor, write_pgm, write_tensor


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def pgm(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "img.pgm"
    write_pgm(path, rng.integers(0, 256, (24, 28), dtype=np.uint8))
    return path


@pytest.fixture()
def idx_pair(tmp_path):
    ds = synthetic_classification(200, classes=10, seed=11,
                                  noise=0.1, amplitude=0.3)
    imgs, labs = tmp_path / "tr.images.idx", tmp_path / "tr.labels.idx"
    save_dataset(ds, imgs, labs)
    return str(imgs), str(labs)


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "filters" in out and "flops" in out

    @pytest.mark.parametrize("sub", ["filters", "transform", "idwt", "denoise",
                                     "train", "eval", "robustness", "shift",
                                     "flops"])
    def test_subcommand_help_exits_zero(self, capsys, sub):
        code, out, _ = run_cli(capsys, sub, "--help")
        assert code == 0
        assert f"usage: wavecnn {sub}" in out

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "transform", "--wavelet", "haar")
        assert code == 1
        assert "error" in err

    def test_unknown_wavelet_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "filters", "--wavelet", "coif1")
        assert code == 1
        assert "coif1" in err

    def test_missing_file_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "transform", "--wavelet", "haar",
                               "--in", str(tmp_path / "none.pgm"),
                               "--out-prefix", str(tmp_path / "x"))
        assert code == 2
        assert "error" in err

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    @pytest.mark.parametrize("argv,message", [
        (["shift", "--model", "m.wcn", "--images", "i.idx", "--labels", "l.idx",
          "--seed", "abc"], "expected a non-negative int, got 'abc'"),
        (["filters"], "one of --wavelet or --list is required")])
    def test_usage_errors_exit_1(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"usage: wavecnn {argv[0]} ") and message in err

    def test_transform_of_a_3d_tensor_exits_2(self, capsys, tmp_path):
        path = tmp_path / "stack.wtn"
        write_tensor(path, np.zeros((2, 4, 4)))
        code, out, err = run_cli(capsys, "transform", "--wavelet", "haar", "--in", str(path),
                                 "--out-prefix", str(tmp_path / "x"))
        assert code == 2 and out == ""
        assert "wavecnn transform: error: FormatError:" in err
        assert "expected a 2-D tensor, got rank 3" in err

    def test_a_closed_stdout_exits_0(self, capsys, monkeypatch):
        """A reader that stops early, as ``wavecnn filters --list | head -1`` does."""
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["filters", "--list"]) == 0
        assert capsys.readouterr().err == ""

    def test_runtime_error_names_the_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.wtn"
        bad.write_bytes(b"not a tensor")
        code, _, err = run_cli(capsys, "denoise", "--in", str(bad),
                               "--out", str(tmp_path / "o.wtn"))
        assert code == 2
        assert "FormatError" in err


class TestFilters:
    def test_haar_has_two_rows(self, capsys):
        code, out, _ = run_cli(capsys, "filters", "--wavelet", "haar")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("analysis_low,")
        assert len(lines[0].split(",")) == 3

    def test_biorthogonal_lists_synthesis_pair(self, capsys):
        code, out, _ = run_cli(capsys, "filters", "--wavelet", "ch3.3")
        assert code == 0
        roles = [l.split(",")[0] for l in out.strip().splitlines()]
        assert roles == ["analysis_low", "analysis_high",
                         "synthesis_low", "synthesis_high"]

    def test_list_names(self, capsys):
        code, out, _ = run_cli(capsys, "filters", "--list")
        assert code == 0
        assert set(out.split()) >= {"haar", "db6", "ch5.5"}


class TestTransformRoundTrip:
    def test_pgm_reproduced_exactly(self, capsys, tmp_path, pgm):
        prefix = str(tmp_path / "sub")
        out = tmp_path / "back.pgm"
        assert run_cli(capsys, "transform", "--wavelet", "haar",
                       "--in", str(pgm), "--out-prefix", prefix)[0] == 0
        assert run_cli(capsys, "idwt", "--wavelet", "haar",
                       "--in-prefix", prefix, "--shape", "24x28",
                       "--out", str(out))[0] == 0
        assert np.array_equal(read_pgm(out), read_pgm(pgm))

    def test_subband_files_are_float_tensors(self, capsys, tmp_path, pgm):
        prefix = str(tmp_path / "sub")
        run_cli(capsys, "transform", "--wavelet", "db2",
                "--in", str(pgm), "--out-prefix", prefix)
        ll = read_tensor(prefix + "_ll.wtn")
        assert ll.shape == (12, 14)
        assert ll.dtype == np.float64

    def test_precision_flag_controls_dtype(self, capsys, tmp_path, pgm):
        prefix = str(tmp_path / "sub32")
        run_cli(capsys, "transform", "--wavelet", "haar", "--precision", "f32",
                "--in", str(pgm), "--out-prefix", prefix)
        assert read_tensor(prefix + "_ll.wtn").dtype == np.float32

    def test_tensor_input_round_trip_lossless(self, capsys, tmp_path):
        x = np.random.default_rng(3).standard_normal((16, 16))
        src = tmp_path / "x.wtn"
        write_tensor(src, x)
        prefix = str(tmp_path / "t")
        run_cli(capsys, "transform", "--wavelet", "haar",
                "--in", str(src), "--out-prefix", prefix)
        out = tmp_path / "y.wtn"
        run_cli(capsys, "idwt", "--wavelet", "haar", "--in-prefix", prefix,
                "--shape", "16x16", "--out", str(out))
        assert np.max(np.abs(read_tensor(out) - x)) < 1e-12

    def test_idwt_rejects_bands_that_are_not_2d(self, capsys, tmp_path):
        prefix, out = tmp_path / "s", tmp_path / "o.wtn"
        for name in ("ll", "lh", "hl", "hh"):
            write_tensor(f"{prefix}_{name}.wtn", np.zeros((2, 4, 4)))
        code, _, err = run_cli(capsys, "idwt", "--wavelet", "haar", "--in-prefix", str(prefix),
                               "--shape", "8x8", "--out", str(out))
        assert code == 2 and "FormatError" in err
        assert not out.exists()


class TestNonFinitePixels:
    @pytest.fixture()
    def nan_tensor(self, tmp_path):
        x = np.full((8, 8), 0.5)
        x[2, 3] = np.nan
        path = tmp_path / "nan.wtn"
        write_tensor(path, x)
        return path

    def test_transform_rejects(self, capsys, tmp_path, nan_tensor):
        code, _, err = run_cli(capsys, "transform", "--wavelet", "haar",
                               "--in", str(nan_tensor),
                               "--out-prefix", str(tmp_path / "b"))
        assert code == 2
        assert "FormatError" in err
        assert not (tmp_path / "b_ll.wtn").exists()

    def test_idwt_rejects(self, capsys, tmp_path):
        prefix = tmp_path / "b"
        for i, name in enumerate(("ll", "lh", "hl", "hh")):
            band = np.zeros((4, 4))
            band[1, 1] = np.inf if name == "hh" else float(i)
            write_tensor(f"{prefix}_{name}.wtn", band)
        code, _, err = run_cli(capsys, "idwt", "--wavelet", "haar",
                               "--in-prefix", str(prefix), "--shape", "8x8",
                               "--out", str(tmp_path / "o.wtn"))
        assert code == 2
        assert "FormatError" in err

    def test_denoise_rejects(self, capsys, tmp_path, nan_tensor):
        code, _, err = run_cli(capsys, "denoise", "--in", str(nan_tensor),
                               "--out", str(tmp_path / "o.wtn"))
        assert code == 2
        assert "FormatError" in err
        assert not (tmp_path / "o.wtn").exists()


class TestDenoiseCommand:
    def test_pgm_to_pgm(self, capsys, tmp_path, pgm):
        out = tmp_path / "den.pgm"
        code, _, _ = run_cli(capsys, "denoise", "--in", str(pgm),
                             "--out", str(out), "--wavelet", "haar",
                             "--lambda", "0.05")
        assert code == 0
        assert read_pgm(out).shape == read_pgm(pgm).shape

    def test_pgm_to_tensor_is_on_the_unit_scale(self, capsys, tmp_path, pgm):
        out = tmp_path / "den.wtn"
        code, _, _ = run_cli(capsys, "denoise", "--in", str(pgm), "--out", str(out),
                             "--lambda", "0.05")
        assert code == 0
        cfg = DenoiseConfig(wavelet="haar", threshold=0.05)
        assert np.array_equal(read_tensor(out), denoise_image(read_pgm(pgm), cfg) / 255.0)

    def test_tensor_to_pgm_is_on_the_pixel_scale(self, capsys, tmp_path, pgm):
        src, out = tmp_path / "img.wtn", tmp_path / "den.pgm"
        plane = read_pgm(pgm) / 255.0
        write_tensor(src, plane)
        code, _, _ = run_cli(capsys, "denoise", "--in", str(src), "--out", str(out),
                             "--lambda", "0.05")
        assert code == 0
        den = denoise_image(plane, DenoiseConfig(wavelet="haar", threshold=0.05))
        assert np.array_equal(read_pgm(out), np.clip(np.rint(den * 255.0), 0, 255))

    def test_negative_lambda_is_runtime_error(self, capsys, tmp_path, pgm):
        code, _, err = run_cli(capsys, "denoise", "--in", str(pgm),
                               "--out", str(tmp_path / "o.pgm"),
                               "--lambda", "-1")
        assert code == 2
        assert "NegativeLambda" in err

    def test_nan_lambda_is_runtime_error(self, capsys, tmp_path, pgm):
        out = tmp_path / "o.pgm"
        code, stdout, err = run_cli(capsys, "denoise", "--in", str(pgm),
                                    "--out", str(out), "--lambda", "nan")
        assert code == 2 and stdout == "" and not out.exists()
        assert "wavecnn denoise: error: NegativeLambda:" in err


class TestTrainEval:
    def test_train_writes_report_and_checkpoint(self, capsys, tmp_path, idx_pair):
        imgs, labs = idx_pair
        model = tmp_path / "m.wcn"
        report = tmp_path / "report.csv"
        code, _, _ = run_cli(capsys, "train", "--images", imgs, "--labels", labs,
                             "--mode", "dwt_ll", "--wavelet", "haar",
                             "--epochs", "1", "--batch", "50",
                             "--out", str(model), "--report", str(report))
        assert code == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_accuracy"
        assert lines[-1].startswith("checksum,")
        code, out, _ = run_cli(capsys, "eval", "--model", str(model),
                               "--images", imgs, "--labels", labs)
        assert code == 0
        assert out.startswith("metric,value\ntop1_error,")

    def test_config_file_and_flags_agree(self, capsys, tmp_path, idx_pair):
        imgs, labs = idx_pair
        cfg = {"mode": "avg_pool", "seed": 4,
               "train": {"epochs": 1, "batch": 50, "lr": 0.05}}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        r1, r2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "train", "--config", str(cfg_path),
                       "--images", imgs, "--labels", labs,
                       "--report", str(r1))[0] == 0
        assert run_cli(capsys, "train", "--images", imgs, "--labels", labs,
                       "--mode", "avg_pool", "--seed", "4", "--epochs", "1",
                       "--batch", "50", "--lr", "0.05",
                       "--report", str(r2))[0] == 0
        assert r1.read_text() == r2.read_text()

    def test_validation_files_go_together(self, capsys, tmp_path, idx_pair):
        imgs, labs = idx_pair
        val = synthetic_classification(40, classes=10, seed=12, noise=0.1, amplitude=0.3)
        val_imgs, val_labs = str(tmp_path / "va.images.idx"), str(tmp_path / "va.labels.idx")
        save_dataset(val, val_imgs, val_labs)
        argv = ["train", "--images", imgs, "--labels", labs, "--epochs", "1", "--batch", "50"]
        code, own, _ = run_cli(capsys, *argv)
        assert code == 0
        code, held_out, _ = run_cli(capsys, *argv, "--val-images", val_imgs,
                                    "--val-labels", val_labs)
        assert code == 0
        own, held_out = own.splitlines()[1].split(","), held_out.splitlines()[1].split(",")
        assert own[1] == held_out[1] and own[2] != held_out[2]
        for flag, path in (("--val-images", val_imgs), ("--val-labels", val_labs)):
            code, out, err = run_cli(capsys, *argv, flag, path)
            assert code == 1 and out == ""
            assert "--val-images and --val-labels go together" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_diverged_training_exits_2(self, capsys, tmp_path, idx_pair):
        imgs, labs = idx_pair
        model, report = tmp_path / "m.wcn", tmp_path / "report.csv"
        code, out, err = run_cli(capsys, "train", "--images", imgs, "--labels", labs,
                                 "--epochs", "1", "--batch", "50", "--lr", "1e30",
                                 "--out", str(model), "--report", str(report))
        assert code == 2 and out == ""
        assert "wavecnn train: error: DivergedLoss: loss became non-finite in epoch 1" in err
        assert not model.exists() and not report.exists()

    def test_an_overflowing_momentum_prints_only_its_error(self, capsys, idx_pair):
        code, out, err = run_cli(capsys, "train", "--images", idx_pair[0], "--labels",
                                 idx_pair[1], "--epochs", "1", "--momentum", "1e308")
        assert code == 2 and out == ""
        assert err == "wavecnn train: error: DivergedLoss: loss became non-finite in epoch 1\n"

    def test_unknown_config_key_is_runtime_error(self, capsys, tmp_path, idx_pair):
        imgs, labs = idx_pair
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"optimiser": "sgd"}))
        code, _, err = run_cli(capsys, "train", "--config", str(cfg_path),
                               "--images", imgs, "--labels", labs)
        assert code == 2
        assert "InvalidConfig" in err


class TestRobustnessAndShift:
    @pytest.fixture()
    def trained(self, capsys, tmp_path, idx_pair):
        imgs, labs = idx_pair
        model = tmp_path / "m.wcn"
        run_cli(capsys, "train", "--images", imgs, "--labels", labs,
                "--mode", "max_pool", "--epochs", "1", "--batch", "50",
                "--out", str(model), "--report", str(tmp_path / "r.csv"))
        return str(model), imgs, labs

    def test_matrix_then_normalized_report(self, capsys, tmp_path, trained):
        model, imgs, labs = trained
        base = str(tmp_path / "base")
        code, out, _ = run_cli(capsys, "robustness", "--model", model,
                               "--images", imgs, "--labels", labs,
                               "--out-prefix", base)
        assert code == 0
        matrix_csv = (tmp_path / "base.csv").read_text()
        assert matrix_csv.splitlines()[1].startswith("corruption,severity_1")
        code, out, _ = run_cli(capsys, "robustness", "--model", model,
                               "--images", imgs, "--labels", labs)
        assert code == 0 and out == matrix_csv
        rep = str(tmp_path / "rep")
        code, _, _ = run_cli(capsys, "robustness", "--model", model,
                             "--images", imgs, "--labels", labs,
                             "--reference", base + ".csv", "--out-prefix", rep)
        assert code == 0
        data = json.loads((tmp_path / "rep.json").read_text())
        assert data["mce"]["noise"] == pytest.approx(100.0)
        assert set(data["ce"]) == {"gaussian", "shot", "impulse"}

    def test_shift_prints_percentage(self, capsys, trained):
        model, imgs, labs = trained
        code, out, _ = run_cli(capsys, "shift", "--model", model,
                               "--images", imgs, "--labels", labs,
                               "--pairs", "4", "--range", "4", "--seed", "2")
        assert code == 0
        name, value = out.strip().split(",")
        assert name == "shift_consistency"
        assert 0.0 <= float(value) <= 100.0


@pytest.mark.parametrize("padding", ["edge", "constant"])
def test_shift_wider_than_the_images_exits_2(capsys, tmp_path, idx_pair, padding):
    model = tmp_path / "m.wcn"
    save_model(build_model(mini_config("max_pool")), model)
    code, out, err = run_cli(capsys, "shift", "--model", str(model), "--images", idx_pair[0],
                             "--labels", idx_pair[1], "--range", "100", "--padding", padding)
    assert code == 2 and out == ""
    assert "wavecnn shift: error: ShiftOutOfRange: shift range 100 exceeds the limit 27" in err


def test_shift_pairs_beyond_the_cap_exit_2(capsys, tmp_path, idx_pair):
    """Once a traceback: drawing 10**12 pairs asked NumPy for 29 TiB."""
    model = tmp_path / "m.wcn"
    save_model(build_model(mini_config("max_pool")), model)
    code, out, err = run_cli(capsys, "shift", "--model", str(model), "--images", idx_pair[0],
                             "--labels", idx_pair[1], "--pairs", "1000000000000")
    assert code == 2 and out == ""
    assert ("wavecnn shift: error: InvalidConfig: 1000000000000 shift pairs are more "
            "than the 1048576 a shift test may draw") in err


class TestEmptyDataset:
    @pytest.mark.parametrize("command", ["eval", "robustness", "shift"])
    def test_empty_idx_pair_is_runtime_error(self, capsys, tmp_path, command):
        imgs, labs = tmp_path / "e.images.idx", tmp_path / "e.labels.idx"
        save_dataset(Dataset(np.zeros((0, 1, 28, 28)), np.zeros(0, dtype=np.int64)),
                     imgs, labs)
        model = tmp_path / "m.wcn"
        save_model(build_model(mini_config("max_pool")), model)
        code, out, err = run_cli(capsys, command, "--model", str(model),
                                 "--images", str(imgs), "--labels", str(labs))
        assert code == 2 and out == ""
        assert f"wavecnn {command}: error: InvalidConfig:" in err
        assert "at least one image" in err


@pytest.mark.parametrize("command", ["eval", "robustness", "shift"])
def test_a_model_without_one_label_per_image_exits_2(capsys, tmp_path, idx_pair, command):
    """Only ``train`` refuses such a model when it is built; ``shift`` once
    scored its per-pixel argmaps and printed 78400.0."""
    model = tmp_path / "m.wcn"
    save_model(build_model(ModelConfig(layers=())), model)
    code, out, err = run_cli(capsys, command, "--model", str(model), "--images", idx_pair[0],
                             "--labels", idx_pair[1])
    assert code == 2 and out == ""
    assert f"wavecnn {command}: error: ShapeMismatch:" in err
    assert "not one label per image" in err


class TestOversizedHeaders:
    """A size declared in a header beyond the file's end is a FormatError (exit 2)."""

    def _fails(self, capsys, command, *argv):
        code, out, err = run_cli(capsys, command, *argv)
        assert code == 2 and out == ""
        assert f"wavecnn {command}: error: FormatError:" in err

    def test_train_images_idx(self, capsys, tmp_path, idx_pair):
        imgs = tmp_path / "big.idx"
        imgs.write_bytes(b"\x00\x00\x08\x03" + bytes.fromhex("ff000002 00000003 00000004")
                         + bytes(24))
        self._fails(capsys, "train", "--images", str(imgs), "--labels", idx_pair[1],
                    "--out", str(tmp_path / "m.wcn"))

    def test_transform_in_wtn(self, capsys, tmp_path):
        src = tmp_path / "big.wtn"
        src.write_bytes(b"WTN1\x01\x02" + (1 << 40).to_bytes(8, "little")
                        + (1 << 20).to_bytes(8, "little") + bytes(64))
        self._fails(capsys, "transform", "--wavelet", "haar", "--in", str(src),
                    "--out-prefix", str(tmp_path / "b"))

    def test_denoise_in_pgm(self, capsys, tmp_path):
        src = tmp_path / "big.pgm"
        src.write_bytes(b"P5\n99999999 99999999\n255\n" + bytes(64))
        self._fails(capsys, "denoise", "--in", str(src), "--out", str(tmp_path / "o.pgm"))


def test_eval_on_a_corrupt_checkpoint_exits_2(capsys, tmp_path, idx_pair):
    model = tmp_path / "m.wcn"
    save_model(build_model(mini_config("max_pool")), model)
    data = bytearray(model.read_bytes())
    data[len(data) // 2] ^= 0x40
    model.write_bytes(data)
    code, out, err = run_cli(capsys, "eval", "--model", str(model),
                             "--images", idx_pair[0], "--labels", idx_pair[1])
    assert code == 2 and out == ""
    assert "wavecnn eval: error: FormatError:" in err


GOLDEN = Path(__file__).parent / "golden" / "flops"
FLOPS_MODES = [("max_pool", ""), ("avg_pool", ""), ("strided_conv", ""),
               ("dwt_ll", "haar"), ("dwt_avg", "db4"), ("dwt_cat", "ch3.3")]


class TestFlops:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("mode,wavelet", FLOPS_MODES)
    def test_report_bytes_are_pinned(self, capsys, tmp_path, mode, wavelet, fmt):
        """Golden reports of ``flops --input 1x1x28x28`` for each mode."""
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"mode": mode, "wavelet": wavelet} if wavelet
                                  else {"mode": mode}))
        code, out, _ = run_cli(capsys, "flops", "--config", str(cfg),
                               "--input", "1x1x28x28", "--format", fmt)
        assert code == 0
        assert out == (GOLDEN / f"{mode}.{fmt}").read_text()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name,cfg,argv", [
        ("strided_conv_rewrite_haar", {"mode": "strided_conv"},
         ["--rewrite", "haar", "--input", "1x1x28x28"]),
        ("dwt_cat_1x3x32x32", {"mode": "dwt_cat", "wavelet": "ch3.3"}, ["--input", "1x3x32x32"]),
        ("dwt_cat_1x1x27x27", {"mode": "dwt_cat", "wavelet": "ch3.3"}, ["--input", "1x1x27x27"])])
    def test_rewrite_and_input_shape_bytes_are_pinned(self, capsys, tmp_path, name, cfg, argv,
                                                      fmt):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "flops", "--config", str(path), *argv, "--format", fmt)
        assert code == 0
        assert out == (GOLDEN / f"{name}.{fmt}").read_text()

    @pytest.mark.parametrize("shape", ["1x3x28x28", "1x1x64x64", "1x1x27x27", "2x20x22"])
    def test_mini_arch_is_built_for_the_input(self, capsys, tmp_path, shape):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"mode": "dwt_ll", "wavelet": "haar"}))
        code, out, _ = run_cli(capsys, "flops", "--config", str(cfg), "--input", shape,
                               "--format", "csv")
        assert code == 0
        assert out.splitlines()[1].split(",")[2] == "x".join(shape.split("x")[-3:])

    @pytest.mark.parametrize("shape", ["28x28", "1x1x1x28x28", "1x0x28x28"])
    def test_malformed_input_is_usage_error(self, capsys, tmp_path, shape):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"mode": "max_pool"}))
        code, out, err = run_cli(capsys, "flops", "--config", str(cfg), "--input", shape)
        assert code == 1 and out == ""
        assert "argument --input" in err

    def test_json_report_has_ratio(self, capsys, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"mode": "dwt_ll", "wavelet": "haar"}))
        code, out, _ = run_cli(capsys, "flops", "--config", str(cfg),
                               "--input", "1x1x28x28")
        assert code == 0
        data = json.loads(out)
        assert data["ratio_percent"] > 0
        assert data["total"] == data["wavelet_subtotal"] + data["other_subtotal"]

    def test_csv_format(self, capsys, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"mode": "max_pool"}))
        code, out, _ = run_cli(capsys, "flops", "--config", str(cfg),
                               "--input", "1x1x28x28", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("index,kind")

    def test_explicit_layer_list(self, capsys, tmp_path):
        layers = [{"kind": "conv", "kernel": 3, "c_in": 1, "c_out": 2, "stride": 1},
                  {"kind": "down", "mode": "dwt_ll", "wavelet": "db2",
                   "pad_odd": False, "c_in": 0, "c_out": 0}]
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"layers": layers}))
        code, out, _ = run_cli(capsys, "flops", "--config", str(cfg),
                               "--input", "1x1x8x8")
        assert code == 0
        assert json.loads(out)["wavelet_subtotal"] > 0

    def test_mistyped_layer_field_is_runtime_error(self, capsys, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"layers": [
            {"kind": "conv", "kernel": "3", "c_in": 1, "c_out": 2}]}))
        code, out, err = run_cli(capsys, "flops", "--config", str(cfg),
                                 "--input", "1x1x8x8")
        assert code == 2 and out == ""
        assert "InvalidConfig" in err and "kernel" in err

    @pytest.mark.parametrize("loss", [None, "softmax_ce"])
    @pytest.mark.parametrize("mode,wavelet", FLOPS_MODES)
    def test_saved_model_config_is_a_run_config(self, capsys, tmp_path, mode, wavelet, loss):
        saved = mini_config(mode, wavelet).to_dict()
        if loss:
            saved["loss"] = loss
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(saved))
        code, out, _ = run_cli(capsys, "flops", "--config", str(cfg),
                               "--input", "1x1x28x28", "--format", "csv")
        assert code == 0
        assert out == (GOLDEN / f"{mode}.csv").read_text()

    def test_rewrite_flag_wins_over_a_saved_model_config(self, capsys, tmp_path):
        saved, named = tmp_path / "saved.json", tmp_path / "named.json"
        saved.write_text(json.dumps(mini_config("strided_conv").to_dict()))
        named.write_text(json.dumps({"mode": "strided_conv"}))
        outs = []
        for cfg in (saved, named):
            code, out, _ = run_cli(capsys, "flops", "--config", str(cfg), "--rewrite", "haar",
                                   "--input", "1x1x28x28", "--format", "csv")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0] != (GOLDEN / "strided_conv.csv").read_text()


# Malformed run configs.  Fields inside "train" are read by ``train`` alone:
# ``flops`` checks no more of that section than that it is an object.
BOTH, TRAIN_ONLY = ("train", "flops"), ("train",)
BAD_RUN_CONFIGS = [
    ({"mode": "max_pool", "seed": "3"}, BOTH),
    ({"mode": "max_pool", "train": 3}, BOTH),
    ({"mode": "max_pool", "train": "ab"}, BOTH),
    ({"mode": "max_pool", "train": {"epochs": "1"}}, TRAIN_ONLY),
    ({"mode": "max_pool", "train": {"lr": "0.1"}}, TRAIN_ONLY),
    ({"mode": "max_pool", "train": {"batch": True}}, TRAIN_ONLY),
    ({"layers": [{"kind": "relu", "kernel": 5}]}, BOTH),
    ({"layers": [{"kind": "down", "mode": "max_pool", "stride": 2}]}, BOTH),
    ({"mode": "max_pool", "train": {"batch": 0}}, TRAIN_ONLY),
    ({"mode": "max_pool", "train": {"optimiser": "sgd"}}, TRAIN_ONLY),
    ([{"mode": "max_pool"}], BOTH),
    ({"mode": 3}, BOTH),
    ({"mode": "max_pool", "wavelet_rewrite": None}, BOTH),
    ({"mode": "max_pool", "loss": "mse"}, BOTH),
    ({"arch": "resnet"}, BOTH),
    ({"layers": {"kind": "relu"}}, BOTH),
    ({"layers": [{"kind": "pool"}]}, BOTH),
    ({"layers": [{"kind": "conv", "kernel": 3, "c_in": 1, "c_out": 2}], "seed": 1.5}, BOTH),
    ({"mode": "max_pool", "seed": -1}, BOTH),
    # ``flops`` counts a model of any output shape; training needs flat logits
    ({"layers": []}, TRAIN_ONLY),
    ({"layers": [{"kind": "conv", "kernel": 3, "c_in": 1, "c_out": 4}]}, TRAIN_ONLY),
]


@pytest.mark.parametrize("cfg,command", [(cfg, command) for cfg, commands in BAD_RUN_CONFIGS
                                         for command in commands])
def test_malformed_run_config_exits_2(capsys, tmp_path, idx_pair, cfg, command):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    data = (["--images", idx_pair[0], "--labels", idx_pair[1]] if command == "train"
            else ["--input", "1x1x28x28"])
    code, out, err = run_cli(capsys, command, "--config", str(path), *data)
    assert code == 2 and out == ""
    assert f"wavecnn {command}: error: InvalidConfig:" in err


# Layer lists whose declared state passes network.MAX_STATE_VALUES, and the
# index of the layer that takes it there.
OVERSIZED_LAYERS = [
    ([{"kind": "conv", "kernel": 3, "c_in": 1, "c_out": 10 ** 18}], 0),
    ([{"kind": "batchnorm", "channels": 10 ** 9}], 0),
    ([{"kind": "conv", "kernel": 3, "c_in": 1, "c_out": 4}, {"kind": "flatten"},
      {"kind": "dense", "n_in": 3136, "n_out": 10 ** 6}], 2),
    ([{"kind": "down", "mode": "strided_conv", "c_in": 1, "c_out": 2 ** 28}], 0),
]


@pytest.mark.parametrize("command", ["train", "flops"])
@pytest.mark.parametrize("layers,at", OVERSIZED_LAYERS)
def test_oversized_layers_exit_2_before_allocating(capsys, tmp_path, idx_pair, layers, at,
                                                   command):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"layers": layers}))
    data = (["--images", idx_pair[0], "--labels", idx_pair[1]] if command == "train"
            else ["--input", "1x1x28x28"])
    code, out, err = run_cli(capsys, command, "--config", str(path), *data)
    assert code == 2 and out == ""
    assert f"wavecnn {command}: error: InvalidConfig: layer {at}: " in err
    assert "state values" in err


@pytest.mark.parametrize("command", ["train", "flops"])
@pytest.mark.parametrize("text", [
    '{"mode": "max_pool", "mode": "avg_pool"}',
    '{"mode": "max_pool", "train": {"epochs": 1, "epochs": 2}}'])
def test_repeated_key_in_run_config_exits_2(capsys, tmp_path, idx_pair, text, command):
    path = tmp_path / "run.json"
    path.write_text(text)
    data = (["--images", idx_pair[0], "--labels", idx_pair[1]] if command == "train"
            else ["--input", "1x1x28x28"])
    code, out, err = run_cli(capsys, command, "--config", str(path), *data)
    assert code == 2 and out == ""
    assert f"wavecnn {command}: error: InvalidConfig: {path}: repeated key" in err


@pytest.mark.parametrize("text", [
    '{"errors": {"gaussian": [0.1, 0.1, 0.1, 0.1, 0.1],'
    ' "gaussian": [0.9, 0.9, 0.9, 0.9, 0.9]}}',
    '{"model": "a", "model": "b", "errors": {"gaussian": [0.1, 0.1, 0.1, 0.1, 0.1]}}'])
def test_repeated_key_in_reference_matrix_exits_2(capsys, tmp_path, idx_pair, text):
    model, ref = tmp_path / "m.wcn", tmp_path / "ref.json"
    save_model(build_model(mini_config("max_pool")), model)
    ref.write_text(text)
    code, out, err = run_cli(capsys, "robustness", "--model", str(model),
                             "--images", idx_pair[0], "--labels", idx_pair[1],
                             "--reference", str(ref))
    assert code == 2 and out == ""
    assert "wavecnn robustness: error: InvalidConfig:" in err and "repeated key" in err


def test_batch_flag_below_one_exits_2(capsys, idx_pair):
    code, out, err = run_cli(capsys, "train", "--images", idx_pair[0],
                             "--labels", idx_pair[1], "--batch", "0")
    assert code == 2 and out == ""
    assert "InvalidConfig" in err and "batch" in err


@pytest.mark.parametrize("name,text", [
    ("ref.json", "[]"), ("ref.json", '{"model": "x"}'),
    ("ref.json", '{"errors": {"gaussian": 3}}'),
    ("ref.json", '{"errors": {"gaussian": [0.1, 0.2, "x", 0.3, 0.4]}}'),
    ("ref.csv", "gaussian,0.1,0.2,x,0.3,0.4\n"), ("ref.csv", ""),
    ("ref.json", '{"errors": {}}'),
    ("ref.csv", "gaussian,0.1,0.2,0.3,0.4,0.5\ngaussian,0.1,0.2,0.3,0.4,0.5\n")])
def test_malformed_reference_matrix_exits_2(capsys, tmp_path, idx_pair, name, text):
    model, ref = tmp_path / "m.wcn", tmp_path / name
    save_model(build_model(mini_config("max_pool")), model)
    ref.write_text(text)
    code, out, err = run_cli(capsys, "robustness", "--model", str(model),
                             "--images", idx_pair[0], "--labels", idx_pair[1],
                             "--reference", str(ref))
    assert code == 2 and out == ""
    assert "wavecnn robustness: error: InvalidConfig:" in err


def test_undecodable_csv_reference_exits_2(capsys, tmp_path, idx_pair):
    model, ref = tmp_path / "m.wcn", tmp_path / "ref.csv"
    save_model(build_model(mini_config("max_pool")), model)
    ref.write_bytes(b"gaussian,0.1,0.2,0.3,0.4,0.5\n\xff\n")
    code, out, err = run_cli(capsys, "robustness", "--model", str(model),
                             "--images", idx_pair[0], "--labels", idx_pair[1],
                             "--reference", str(ref))
    assert code == 2 and out == ""
    assert f"wavecnn robustness: error: InvalidConfig: {ref}: not a UTF-8 CSV file" in err


_REQUIRED_FLAGS = {
    "filters": [],
    "transform": ["--wavelet", "haar", "--in", "i.pgm", "--out-prefix", "b"],
    "idwt": ["--wavelet", "haar", "--in-prefix", "b", "--shape", "4x4", "--out", "o.wtn"],
    "denoise": ["--in", "i.pgm", "--out", "o.pgm"],
    "train": ["--images", "i.idx", "--labels", "l.idx"],
    "eval": ["--model", "m.wcn", "--images", "i.idx", "--labels", "l.idx"],
    "robustness": ["--model", "m.wcn", "--images", "i.idx", "--labels", "l.idx"],
    "shift": ["--model", "m.wcn", "--images", "i.idx", "--labels", "l.idx"],
    "flops": ["--config", "c.json", "--input", "1x28x28"],
}
# flag -> (text given, value parsed, {subcommand that reads it: its default})
_READ_FLAGS = {
    "--seed": ("0", 0, {"train": None, "robustness": 0, "shift": 0}),
    "--precision": ("f64", "f64",
                    {"transform": "f64", "idwt": "f64", "denoise": "f64", "train": "f32"}),
    "--threads": ("1", 1, {}),
}


@pytest.mark.parametrize("flag", sorted(_READ_FLAGS))
@pytest.mark.parametrize("sub", sorted(_REQUIRED_FLAGS))
def test_a_flag_is_offered_exactly_where_it_is_read(capsys, sub, flag):
    """A subcommand takes a flag, with its default, only if it reads it;
    elsewhere the flag is a usage error that shows that subcommand's usage."""
    text, value, readers = _READ_FLAGS[flag]
    argv = [sub, *_REQUIRED_FLAGS[sub]]
    parse = _build_parser().parse_args
    if sub in readers:
        assert getattr(parse(argv), flag[2:]) == readers[sub]
        assert getattr(parse([*argv, flag, text]), flag[2:]) == value
    else:
        with pytest.raises(SystemExit) as exc:
            parse([*argv, flag, text])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: wavecnn {sub} ")
        assert f"wavecnn {sub}: error: unrecognized arguments: {flag} {text}" in err


@pytest.mark.parametrize("sub,argv", [
    ("train", ["--images", "i.idx", "--labels", "l.idx"]),
    ("shift", ["--model", "m.wcn", "--images", "i.idx", "--labels", "l.idx"]),
    ("robustness", ["--model", "m.wcn", "--images", "i.idx", "--labels", "l.idx"])])
def test_negative_seed_is_a_usage_error(capsys, sub, argv):
    code, out, err = run_cli(capsys, sub, *argv, "--seed", "-1")
    assert code == 1 and out == ""
    assert "--seed" in err and "expected a non-negative int, got '-1'" in err


def test_train_on_an_empty_idx_pair_exits_2(capsys, tmp_path):
    imgs, labs = tmp_path / "e.images.idx", tmp_path / "e.labels.idx"
    save_dataset(Dataset(np.zeros((0, 1, 28, 28)), np.zeros(0, dtype=np.int64)), imgs, labs)
    code, out, err = run_cli(capsys, "train", "--images", str(imgs), "--labels", str(labs))
    assert code == 2 and out == ""
    assert "wavecnn train: error: InvalidConfig: training split needs at least one image" in err


def test_train_on_an_empty_validation_pair_exits_2(capsys, tmp_path, idx_pair):
    imgs, labs = tmp_path / "e.images.idx", tmp_path / "e.labels.idx"
    save_dataset(Dataset(np.zeros((0, 1, 28, 28)), np.zeros(0, dtype=np.int64)), imgs, labs)
    code, out, err = run_cli(capsys, "train", "--images", idx_pair[0], "--labels", idx_pair[1],
                             "--val-images", str(imgs), "--val-labels", str(labs))
    assert code == 2 and out == ""
    assert "wavecnn train: error: InvalidConfig: validation split needs at least one image" in err


def _labelled_pair(tmp_path, name, classes):
    imgs, labs = tmp_path / f"{name}.images.idx", tmp_path / f"{name}.labels.idx"
    save_dataset(synthetic_classification(20, classes=classes, seed=3), imgs, labs)
    return ["--images", str(imgs), "--labels", str(labs)]


def test_train_sizes_the_classes_from_train_and_val_labels(capsys, tmp_path):
    model = tmp_path / "m.wcn"
    val = _labelled_pair(tmp_path, "va", 5)[1::2]
    code, _, err = run_cli(capsys, "train", *_labelled_pair(tmp_path, "tr", 3),
                           "--val-images", val[0], "--val-labels", val[1],
                           "--epochs", "1", "--out", str(model))
    assert code == 0, err
    assert load_model(model).config.layers[-1].n_out == 5


def test_train_on_labels_beyond_the_model_classes_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"layers": [{"kind": "flatten"},
                                          {"kind": "dense", "n_in": 784, "n_out": 2}]}))
    code, out, err = run_cli(capsys, "train", "--config", str(cfg),
                             *_labelled_pair(tmp_path, "tr", 3), "--epochs", "1")
    assert code == 2 and out == ""
    assert "InvalidConfig: labels must lie in 0..1" in err


def test_train_accepts_a_saved_model_config(capsys, tmp_path, idx_pair):
    """``train --config`` on a saved model config, with and without the
    legacy loss key, trains the model that ``--mode`` names."""
    imgs, labs = idx_pair
    reports = []
    for i, extra in enumerate(({}, {"loss": "softmax_ce"}, None)):
        argv = ["--mode", "avg_pool", "--seed", "4"]
        if extra is not None:
            cfg = tmp_path / f"model{i}.json"
            cfg.write_text(json.dumps(dict(mini_config("avg_pool", seed=4).to_dict(), **extra)))
            argv = ["--config", str(cfg)]
        report = tmp_path / f"r{i}.csv"
        code, _, _ = run_cli(capsys, "train", *argv, "--images", imgs, "--labels", labs,
                             "--epochs", "1", "--batch", "50", "--report", str(report))
        assert code == 0
        reports.append(report.read_text())
    assert reports[0] == reports[1] == reports[2]


def test_readme_run_config_table_matches_the_loader():
    """The README's table of run-config keys and types is the loader's."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `([\w.]+)` \| (\w+) \|", readme, flags=re.MULTILINE)
    want = {key: t.__name__ for key, t in _RUN_KEYS.items()}
    want.update((f"train.{key}", t.__name__) for key, t in _TRAIN_KEYS.items())
    assert dict(rows) == want


def test_readme_layer_table_matches_the_kinds():
    """The README's table of layer kinds and their fields is the loader's."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| ((?:`\w+`(?:, )?)+|—) \|", readme, flags=re.MULTILINE)
    assert {kind: tuple(re.findall(r"`(\w+)`", fields)) for kind, fields in rows} == \
        {kind: keys for kind, (keys, _) in _KINDS.items()}


def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "wavecnn.cli", "filters",
                           "--wavelet", "haar"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.count("\n") == 2


@pytest.mark.parametrize("command", ["eval", "robustness", "shift"])
def test_non_finite_checkpoint_exits_2(capsys, tmp_path, idx_pair, command):
    model = build_model(mini_config("max_pool"))
    model.layers[0].weight[0, 0, 0, 0] = np.nan
    path = tmp_path / "m.wcn"
    save_model(model, path)
    code, out, err = run_cli(capsys, command, "--model", str(path),
                             "--images", idx_pair[0], "--labels", idx_pair[1])
    assert code == 2 and out == ""
    assert f"wavecnn {command}: error: FormatError:" in err and "0.weight" in err


@pytest.mark.parametrize("flags", [["--epochs", "0"], ["--epochs", "-2"], ["--lr", "nan"],
                                   ["--momentum", "inf"], ["--weight-decay", "nan"]])
def test_untrainable_hyperparameters_exit_2(capsys, tmp_path, idx_pair, flags):
    out_path = tmp_path / "m.wcn"
    code, out, err = run_cli(capsys, "train", "--images", idx_pair[0], "--labels", idx_pair[1],
                             "--out", str(out_path), *flags)
    assert code == 2 and out == ""
    assert "wavecnn train: error: InvalidConfig: training" in err
    assert not out_path.exists()


_DEEP_JSON = b"[" * 200_000 + b"]" * 200_000  # past the decoder's recursion limit


@pytest.mark.parametrize("data", [b'{"mode": "max_pool"', b'{"mode": "max_\xffpool"}', b"",
                                  pytest.param(_DEEP_JSON, id="deep")])
@pytest.mark.parametrize("command", ["train", "flops", "robustness"])
def test_undecodable_json_exits_2(capsys, tmp_path, idx_pair, data, command):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    data_flags = ["--images", idx_pair[0], "--labels", idx_pair[1]]
    if command == "flops":
        argv = ["--config", str(path), "--input", "1x1x28x28"]
    elif command == "train":
        argv = ["--config", str(path), *data_flags]
    else:
        model = tmp_path / "m.wcn"
        save_model(build_model(mini_config("max_pool")), model)
        argv = ["--model", str(model), "--reference", str(path), *data_flags]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 2 and out == ""
    assert f"wavecnn {command}: error: InvalidConfig: {path}: not a UTF-8 JSON document" in err


@pytest.mark.parametrize("command", ["eval", "robustness", "shift"])
def test_checkpoint_with_a_deeply_nested_config_exits_2(capsys, tmp_path, idx_pair, command):
    """A digest-valid checkpoint whose config nests past the decoder's
    recursion limit is a FormatError, not a RecursionError traceback."""
    body = b"WCN2" + struct.pack("<BI", 0, len(_DEEP_JSON)) + _DEEP_JSON + struct.pack("<I", 0)
    path = tmp_path / "deep.wcn"
    path.write_bytes(body + hashlib.sha256(body).digest())
    code, out, err = run_cli(capsys, command, "--model", str(path),
                             "--images", idx_pair[0], "--labels", idx_pair[1])
    assert code == 2 and out == ""
    assert f"wavecnn {command}: error: FormatError: {path}: model config is not JSON" in err
