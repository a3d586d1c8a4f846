"""Hash every output of the ``wavecnn`` command, so that two source trees can
be compared byte for byte with one ``diff``:

    PYTHONPATH=<other tree>/src python tools/identity.py > before.txt
    PYTHONPATH=src python tools/identity.py > after.txt
    diff before.txt after.txt

It imports ``wavecnn`` from ``PYTHONPATH`` and prints the path of the file it
imported on stderr, so a run cannot hash the wrong tree unnoticed.  It calls
``wavecnn.cli.main`` in-process, in a temporary directory and with relative
paths, on inputs it writes itself without ``wavecnn``, and prints one
``sha256  name`` line per output: the stdout and stderr of every run (its
exit code is part of the name) and every file a run writes.  It covers
``--help`` of every subcommand, ``filters`` for every bank, ``transform``,
``idwt`` and ``denoise`` between PGM and tensor files, a small ``train`` in
every mode and with a validation split that no ``--batch`` divides,
``eval``, ``robustness``, ``shift`` (also on a draw that repeats most of
its pairs, and under each padding), ``flops``, the ``--out`` file of each
subcommand that has one, and the messages for a set of malformed inputs,
among them checkpoints altered behind a fresh digest, one of a model
that gives no label per image, and images too large for a model.  A run
that exits with a code other than the one expected of it is reported on
stderr and makes the tool exit 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

import wavecnn
from wavecnn import cli

MODES = ("max_pool", "avg_pool", "strided_conv", "dwt_ll", "dwt_avg", "dwt_cat")
BANKS = ("haar", "db4", "ch3.3")
_failures = []


def _mode(mode: str) -> tuple:
    """The flags that pick a down-sampling mode; a wavelet mode uses db4."""
    return ("--mode", mode, "--wavelet", "db4") if mode.startswith("dwt") else ("--mode", mode)


def _line(data: bytes, name: str) -> None:
    print(f"{hashlib.sha256(data).hexdigest()}  {name}")


def run(name: str, *argv, expect: int = 0, files=()) -> str:
    """Run ``wavecnn ARGV``; hash its stdout, its stderr and each of
    ``files``, and return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # --help and usage errors
            code = exc.code
    if code != expect:
        _failures.append(f"{name}: exit {code}, expected {expect}: {err.getvalue().strip()}")
    _line(out.getvalue().encode(), f"{name} stdout (exit {code})")
    _line(err.getvalue().encode(), f"{name} stderr")
    for path in files if code == 0 else ():
        _line(Path(path).read_bytes(), f"{name} {path}")
    return out.getvalue()


def write_inputs() -> None:
    """A 24x28 PGM image and the same pixels as a unit-scale f64 tensor, a
    40-image 16x16 IDX data set with four classes, a 23-image validation
    set like it, and the run configs, written without ``wavecnn``."""
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, (24, 28), np.uint8)
    Path("img.pgm").write_bytes(b"P5\n28 24\n255\n" + pixels.tobytes())
    Path("unit.wtn").write_bytes(b"WTN1" + struct.pack("<BB2Q", 1, 2, 24, 28)
                                 + (pixels / 255.0).astype("<f8").tobytes())
    images = rng.integers(0, 256, (40, 16, 16), np.uint8)
    labels = (np.arange(40) % 4).astype(np.uint8)
    Path("tr.images.idx").write_bytes(struct.pack(">I3I", 0x803, 40, 16, 16) + images.tobytes())
    Path("tr.labels.idx").write_bytes(struct.pack(">II", 0x801, 40) + labels.tobytes())
    images = rng.integers(0, 256, (23, 16, 16), np.uint8)
    Path("va.images.idx").write_bytes(struct.pack(">I3I", 0x803, 23, 16, 16) + images.tobytes())
    Path("va.labels.idx").write_bytes(struct.pack(">II", 0x801, 23) + labels[:23].tobytes())
    hyper = {"epochs": 2, "batch": 16, "lr": 0.01}
    Path("run.json").write_text(json.dumps({"arch": "mini", "train": hyper}))
    Path("resnet.json").write_text(json.dumps({"arch": "resnet"}))
    two_class = [{"kind": "flatten"}, {"kind": "dense", "n_in": 256, "n_out": 2}]
    Path("two_class.json").write_text(json.dumps({"layers": two_class}))
    Path("repeated.json").write_text('{"seed": 1, "seed": 2}')
    Path("latin1.csv").write_bytes(b"corruption,severity,error\ngau\xdf,1,0.5\n")


def transforms() -> None:
    for bank in BANKS:
        for prec in ("f32", "f64"):
            tag = f"{bank}.{prec}"
            bands = [f"{tag}_{b}.wtn" for b in ("ll", "lh", "hl", "hh")]
            run(f"transform {tag}", "transform", "--wavelet", bank, "--in", "img.pgm",
                "--out-prefix", tag, "--precision", prec, files=bands)
            run(f"idwt {tag}", "idwt", "--wavelet", bank, "--in-prefix", tag, "--shape", "24x28",
                "--out", f"{tag}.idwt.wtn", "--precision", prec, files=[f"{tag}.idwt.wtn"])
            run(f"denoise {tag}", "denoise", "--wavelet", bank, "--in", f"{tag}.idwt.wtn",
                "--out", f"{tag}.dn.wtn", "--lambda", "0.05", "--precision", prec,
                files=[f"{tag}.dn.wtn"])
        run(f"denoise {bank} pgm", "denoise", "--wavelet", bank, "--in", "img.pgm",
            "--out", f"{bank}.dn.pgm", files=[f"{bank}.dn.pgm"])
        run(f"denoise {bank} pgm to tensor", "denoise", "--wavelet", bank, "--in", "img.pgm",
            "--out", f"{bank}.pgm.dn.wtn", files=[f"{bank}.pgm.dn.wtn"])
        run(f"idwt {bank} to pgm", "idwt", "--wavelet", bank, "--in-prefix", f"{bank}.f64",
            "--shape", "24x28", "--out", f"{bank}.idwt.pgm", files=[f"{bank}.idwt.pgm"])
        run(f"denoise {bank} tensor to pgm", "denoise", "--wavelet", bank, "--in", "unit.wtn",
            "--out", f"{bank}.unit.dn.pgm", files=[f"{bank}.unit.dn.pgm"])
        run(f"denoise {bank} tensor to tensor", "denoise", "--wavelet", bank, "--in", "unit.wtn",
            "--out", f"{bank}.unit.dn.wtn", files=[f"{bank}.unit.dn.wtn"])
    bands = [f"unit_{b}.wtn" for b in ("ll", "lh", "hl", "hh")]
    run("transform unit.wtn", "transform", "--wavelet", "db4", "--in", "unit.wtn",
        "--out-prefix", "unit", files=bands)


def models() -> None:
    data = ("--images", "tr.images.idx", "--labels", "tr.labels.idx")
    for mode in MODES:
        run(f"train {mode}", "train", "--config", "run.json", *data, *_mode(mode),
            "--weight-decay", "1e-4", "--out", f"{mode}.wcn", "--report", f"{mode}.csv",
            files=[f"{mode}.wcn", f"{mode}.csv"])
    run("train dwt_cat f64", "train", "--config", "run.json", *data, *_mode("dwt_cat"),
        "--precision", "f64", "--seed", "3", "--out", "f64.wcn", files=["f64.wcn"])
    for prec in ("f32", "f64"):  # 23 validation images in blocks of 7
        run(f"train validation split {prec}", "train", "--config", "run.json", *data,
            "--val-images", "va.images.idx", "--val-labels", "va.labels.idx",
            *_mode("dwt_avg"), "--batch", "7", "--precision", prec, "--out", f"val.{prec}.wcn",
            "--report", f"val.{prec}.csv", files=[f"val.{prec}.wcn", f"val.{prec}.csv"])
    for model in ("max_pool.wcn", "dwt_cat.wcn", "f64.wcn"):
        given = ("--model", model, *data)
        run(f"eval {model}", "eval", *given)
        run(f"shift {model}", "shift", *given, "--range", "3", "--pairs", "6", "--seed", "1")
    given = ("--model", "dwt_ll.wcn", *data)
    run("eval --out", "eval", *given, "--out", "eval.csv", files=["eval.csv"])
    run("shift --out", "shift", *given, "--range", "2", "--pairs", "4", "--out", "shift.csv",
        files=["shift.csv"])
    run("shift repeated pairs", "shift", *given, "--range", "1", "--pairs", "300")
    for padding in ("edge", "constant"):  # on a model whose score each padding moves
        run(f"shift --padding {padding}", "shift", "--model", "max_pool.wcn", *data,
            "--range", "7", "--pairs", "6", "--padding", padding)
    run("robustness", "robustness", *given, "--seed", "2")
    run("robustness prefix", "robustness", *given, "--out-prefix", "ref",
        files=["ref.csv", "ref.json"])
    for ref in ("ref.csv", "ref.json"):
        run(f"robustness reference {ref}", "robustness", *given, "--reference", ref)
        run(f"robustness reference {ref} prefix", "robustness", *given, "--reference", ref,
            "--out-prefix", "ce", files=["ce.csv", "ce.json"])
    for mode in MODES:
        for fmt in ("json", "csv"):
            run(f"flops {mode} {fmt}", "flops", "--config", "run.json", "--input", "2x1x28x28",
                *_mode(mode), "--format", fmt)
    run("flops rewrite", "flops", "--config", "run.json", "--input", "3x32x32",
        *_mode("strided_conv"), "--rewrite", "haar", "--format", "csv")
    run("flops --out", "flops", "--config", "run.json", "--input", "1x28x28", *_mode("dwt_ll"),
        "--out", "flops.json", files=["flops.json"])


def altered_checkpoints() -> tuple:
    """A cut copy of ``max_pool.wcn`` and copies altered behind a fresh
    digest; returns their names, then that of a file that is no checkpoint."""
    blob = Path("max_pool.wcn").read_bytes()
    Path("truncated.wcn").write_bytes(blob[:len(blob) // 2])
    body = blob[:-32]
    # the entry count follows the config; each entry is a u16 name length,
    # the name, a u8 rank, u64 dims, a u64 byte count and the payload
    (cfg_len,) = struct.unpack_from("<I", body, 5)
    count_at = 9 + cfg_len
    (count,) = struct.unpack_from("<I", body, count_at)
    first = count_at + 4
    rank_at = first + 2 + struct.unpack_from("<H", body, first)[0]
    dims_at, size_at = rank_at + 1, rank_at + 1 + 8 * body[rank_at]
    (dim0,) = struct.unpack_from("<Q", body, dims_at)
    (nbytes,) = struct.unpack_from("<Q", body, size_at)
    entry = body[first:size_at + 8 + nbytes]
    altered = {
        "empty.wcn": body[:count_at] + struct.pack("<I", 0) + body[first:],
        "repeated.wcn": body[:count_at] + struct.pack("<I", count + 1) + entry + body[first:],
        "shape.wcn": body[:dims_at] + struct.pack("<Q", dim0 + 1) + body[dims_at + 8:],
        "tag.wcn": body[:4] + b"\x07" + body[5:],
        "trailing.wcn": body + b"\0",
    }
    for name, data in altered.items():
        Path(name).write_bytes(data + hashlib.sha256(data).digest())
    return ("truncated.wcn", *altered, "img.pgm")


def malformed() -> None:
    data = ("--images", "tr.images.idx", "--labels", "tr.labels.idx")
    for model in altered_checkpoints():
        run(f"eval {model}", "eval", "--model", model, *data, expect=2)
    images = Path("tr.images.idx").read_bytes()
    Path("cut.images.idx").write_bytes(images[:len(images) - 1])
    run("eval cut.images.idx", "eval", "--model", "max_pool.wcn", "--images", "cut.images.idx",
        "--labels", "tr.labels.idx", expect=2)
    for name in ("run.json", "absent.pgm"):
        run(f"transform {name}", "transform", "--wavelet", "haar", "--in", name,
            "--out-prefix", "bad", expect=2)
    for band in ("ll", "lh", "hl", "hh"):
        raw = Path(f"haar.f64_{band}.wtn").read_bytes()
        Path(f"cut_{band}.wtn").write_bytes(raw[:-8] if band == "hh" else raw)
    run("idwt truncated band", "idwt", "--wavelet", "haar", "--in-prefix", "cut",
        "--shape", "24x28", "--out", "cut.wtn", expect=2)
    run("idwt into a missing directory", "idwt", "--wavelet", "haar", "--in-prefix",
        "haar.f64", "--shape", "24x28", "--out", "absent/x.wtn", expect=2)
    run("filters into a missing directory", "filters", "--list", "--out", "absent/x.txt",
        expect=2)
    for cfg in ("resnet.json", "repeated.json", "two_class.json"):  # the last: labels 0..3
        run(f"train {cfg}", "train", "--config", cfg, *data, expect=2)
    run("robustness latin1.csv", "robustness", "--model", "max_pool.wcn", *data,
        "--reference", "latin1.csv", expect=2)
    run("eval no flags", "eval", expect=1)
    # a model with no layers gives each image its own 1x16x16 map, not a label
    cfg = json.dumps({"layers": [], "seed": 0, "wavelet_rewrite": ""}).encode()
    body = (Path("max_pool.wcn").read_bytes()[:5] + struct.pack("<I", len(cfg)) + cfg
            + struct.pack("<I", 0))
    Path("nolayers.wcn").write_bytes(body + hashlib.sha256(body).digest())
    for command in ("eval", "robustness", "shift"):
        run(f"{command} nolayers.wcn", command, "--model", "nolayers.wcn", *data, expect=2)
    # 24x24 images, which the 16x16 model's dense layer does not take
    Path("big.images.idx").write_bytes(struct.pack(">I3I", 0x803, 40, 24, 24) + bytes(40 * 576))
    for command in ("eval", "robustness", "shift"):
        run(f"{command} 24x24 images", command, "--model", "max_pool.wcn", "--images",
            "big.images.idx", "--labels", "tr.labels.idx", expect=2)


def main() -> int:
    print(f"wavecnn imported from {wavecnn.__file__}", file=sys.stderr)
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_inputs()
            run("help", "--help")
            for sub in ("filters", "transform", "idwt", "denoise", "train", "eval",
                        "robustness", "shift", "flops"):
                run(f"{sub} --help", sub, "--help")
            for bank in run("filters --list", "filters", "--list").split():
                run(f"filters {bank}", "filters", "--wavelet", bank)
            run("filters --out", "filters", "--wavelet", "db4", "--out", "db4.csv",
                files=["db4.csv"])
            run("filters --list --out", "filters", "--list", "--out", "names.txt",
                files=["names.txt"])
            transforms()
            models()
            malformed()
        finally:
            os.chdir(home)
    for failure in _failures:
        print(failure, file=sys.stderr)
    return 1 if _failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
