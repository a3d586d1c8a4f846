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
``idwt`` and ``denoise``, a small ``train`` in every mode, ``eval``,
``robustness``, ``shift``, ``flops``, and the messages for a set of
malformed inputs.  A run that exits with a code other than the one expected
of it is reported on stderr and makes the tool exit 1.
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
    """A 24x28 PGM image, a 40-image 16x16 IDX data set with four classes,
    and the run configs, written without ``wavecnn``."""
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, (24, 28), np.uint8)
    Path("img.pgm").write_bytes(b"P5\n28 24\n255\n" + pixels.tobytes())
    images = rng.integers(0, 256, (40, 16, 16), np.uint8)
    labels = (np.arange(40) % 4).astype(np.uint8)
    Path("tr.images.idx").write_bytes(struct.pack(">I3I", 0x803, 40, 16, 16) + images.tobytes())
    Path("tr.labels.idx").write_bytes(struct.pack(">II", 0x801, 40) + labels.tobytes())
    hyper = {"epochs": 2, "batch": 16, "lr": 0.01}
    Path("run.json").write_text(json.dumps({"arch": "mini", "train": hyper}))
    Path("resnet.json").write_text(json.dumps({"arch": "resnet"}))
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


def models() -> None:
    data = ("--images", "tr.images.idx", "--labels", "tr.labels.idx")
    for mode in MODES:
        run(f"train {mode}", "train", "--config", "run.json", *data, *_mode(mode),
            "--weight-decay", "1e-4", "--out", f"{mode}.wcn", "--report", f"{mode}.csv",
            files=[f"{mode}.wcn", f"{mode}.csv"])
    run("train dwt_cat f64", "train", "--config", "run.json", *data, *_mode("dwt_cat"),
        "--precision", "f64", "--seed", "3", "--out", "f64.wcn", files=["f64.wcn"])
    for model in ("max_pool.wcn", "dwt_cat.wcn", "f64.wcn"):
        given = ("--model", model, *data)
        run(f"eval {model}", "eval", *given)
        run(f"shift {model}", "shift", *given, "--range", "3", "--pairs", "6", "--seed", "1")
    given = ("--model", "dwt_ll.wcn", *data)
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


def malformed() -> None:
    data = ("--images", "tr.images.idx", "--labels", "tr.labels.idx")
    blob = Path("max_pool.wcn").read_bytes()
    Path("truncated.wcn").write_bytes(blob[:len(blob) // 2])
    # no state entries behind a fresh digest; the entry count follows the config
    (cfg_len,) = struct.unpack_from("<I", blob, 5)
    body = bytearray(blob[:-32])
    struct.pack_into("<I", body, 9 + cfg_len, 0)
    Path("empty.wcn").write_bytes(bytes(body) + hashlib.sha256(body).digest())
    for model in ("truncated.wcn", "empty.wcn"):
        run(f"eval {model}", "eval", "--model", model, *data, expect=2)
    for cfg in ("resnet.json", "repeated.json"):
        run(f"train {cfg}", "train", "--config", cfg, *data, expect=2)
    run("robustness latin1.csv", "robustness", "--model", "max_pool.wcn", *data,
        "--reference", "latin1.csv", expect=2)
    run("eval no flags", "eval", expect=1)


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
