"""The ``wavecnn`` command: one entry point over every module.

Exit codes: 0 success, 1 usage error (bad flags/arguments), 2 runtime error
(bad files, incompatible shapes, diverged training).  Results go to stdout or
to files; diagnostics go to stderr.

Subcommands: filters, transform, idwt, denoise, train, eval, robustness,
shift, flops.  Each subcommand offers only the flags it reads: ``--seed`` on
train (default: the run config's, else 0) and on robustness and shift
(default 0); ``--precision`` on transform, idwt and denoise (default f64)
and on train (default f32).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import complexity, datasets, denoise, fileio, network, robustness
from .errors import FormatError, InvalidConfig, WaveError
from .filterbank import get_wavelet, wavelet_names
from .transform import Decomposition2D, dwt2d, idwt2d

SUBBANDS = ("ll", "lh", "hl", "hh")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract reserves 2 for
    runtime failures, so remap usage problems to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def parse_args(self, args=None, namespace=None):
        # as argparse's, but an unknown flag is reported with the usage of
        # the subcommand it was given to, which lists the flags it takes
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            getattr(args, "parser", self).error("unrecognized arguments: " + " ".join(extras))
        return args


def _dims(ranks, form: str):
    """An argparse type: positive ints joined by ``x``, as many as one of
    ``ranks``, else a usage error that shows ``form``."""
    def parse(text: str) -> tuple:
        try:
            dims = tuple(int(p) for p in text.lower().split("x"))
            if len(dims) not in ranks or any(d < 1 for d in dims):
                raise ValueError
            return dims
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {form} with positive ints, got {text!r}")
    return parse


def _seed(text: str) -> int:
    """An argparse type: an int of at least 0 (np.random.default_rng refuses
    a negative seed), else a usage error."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative int, got {text!r}")


def _sniff(path) -> str:
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head[:2] == b"P5":
        return "pgm"
    if head == fileio.TENSOR_MAGIC:
        return "tensor"
    raise FormatError(f"{path}: neither a PGM image nor a raw tensor file")


def _read_finite_tensor(path, dtype) -> np.ndarray:
    """Raw tensor file -> ``dtype`` array; NaN or infinite entries are a FormatError."""
    arr = fileio.read_tensor(path).astype(dtype)
    if not np.isfinite(arr).all():
        raise FormatError(
            f"{path}: tensor holds NaN or infinite values as {np.dtype(dtype).name}")
    return arr


def _read_plane(path, dtype) -> np.ndarray:
    """Image file -> 2-D float array; PGM pixels keep their 0..255 scale."""
    if _sniff(path) == "pgm":
        return fileio.read_pgm(path).astype(dtype)
    arr = _read_finite_tensor(path, dtype)
    if arr.ndim != 2:
        raise FormatError(f"{path}: expected a 2-D tensor, got rank {arr.ndim}")
    return arr


def _write_plane(path, arr) -> None:
    """2-D array -> PGM (quantized) if the path ends in .pgm, else raw tensor."""
    if str(path).lower().endswith(".pgm"):
        fileio.write_pgm(path, arr)
    else:
        fileio.write_tensor(path, arr)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _np_precision(name: str):
    return np.float32 if name == "f32" else np.float64


# --- subcommand bodies ---


def _cmd_filters(args) -> int:
    if args.list:
        _emit("\n".join(wavelet_names()) + "\n", args.out)
        return 0
    if not args.wavelet:
        args.parser.error("one of --wavelet or --list is required")
    spec = get_wavelet(args.wavelet)
    rows = [("analysis_low", spec.analysis_low), ("analysis_high", spec.analysis_high)]
    if spec.synthesis_low != spec.analysis_low or spec.synthesis_high != spec.analysis_high:
        rows += [("synthesis_low", spec.synthesis_low),
                 ("synthesis_high", spec.synthesis_high)]
    text = "".join(role + "," + ",".join(repr(float(c)) for c in coeffs) + "\n"
                   for role, coeffs in rows)
    _emit(text, args.out)
    return 0


def _cmd_transform(args) -> int:
    spec = get_wavelet(args.wavelet)
    plane = _read_plane(args.input, _np_precision(args.precision))
    d = dwt2d(plane, spec)
    for name, band in zip(SUBBANDS, d.subbands()):
        path = f"{args.out_prefix}_{name}.wtn"
        fileio.write_tensor(path, band)
        print(path)
    return 0


def _cmd_idwt(args) -> int:
    spec = get_wavelet(args.wavelet)
    dt = _np_precision(args.precision)
    bands = [_read_finite_tensor(f"{args.in_prefix}_{name}.wtn", dt)
             for name in SUBBANDS]
    if any(b.ndim != 2 for b in bands):  # idwt2d would take a stack of planes
        raise FormatError(f"{args.in_prefix}: expected 2-D bands, got {[b.shape for b in bands]}")
    d = Decomposition2D(*bands, original_shape=args.shape)
    _write_plane(args.out, idwt2d(d, spec))
    print(args.out)
    return 0


def _cmd_denoise(args) -> int:
    cfg = denoise.DenoiseConfig(wavelet=args.wavelet, threshold=args.lam)
    if _sniff(args.input) == "pgm":
        out = denoise.denoise_image(fileio.read_pgm(args.input), cfg)
        if not str(args.out).lower().endswith(".pgm"):
            out = out.astype(np.float64) / 255.0
    else:
        dt = _np_precision(args.precision)
        out = denoise.denoise_image(_read_finite_tensor(args.input, dt), cfg)
        if str(args.out).lower().endswith(".pgm"):
            out = np.asarray(out) * 255.0
    _write_plane(args.out, out)
    print(args.out)
    return 0


_RUN_KEYS = {**network._MODEL_KEYS, "arch": str, "mode": str, "wavelet": str, "train": dict}


def _load_json(path):
    """The JSON document in ``path``; a key repeated within one object, bytes
    that are not UTF-8 and malformed JSON raise InvalidConfig, where
    ``json.load`` would keep the last value of a repeated key silently."""
    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise InvalidConfig(f"{path}: repeated key {key!r}")
            obj[key] = value
        return obj
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InvalidConfig(f"{path}: not a UTF-8 JSON document: {exc}") from exc


def _load_run_config(path) -> dict:
    if not path:
        return {}
    return network._check_fields(_load_json(path), _RUN_KEYS, f"{path}: run config")


def _pick(flag_value, cfg: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    return cfg.get(key, default)


def _model_config_from(cfg: dict, args, in_shape, classes: int = 10) -> network.ModelConfig:
    """The model a run config describes for (C, H, W) inputs; flags win over
    the file.  An explicit ``"layers"`` list is taken as it is."""
    model = {key: cfg[key] for key in ("layers", "loss") if key in cfg}
    model["seed"] = _pick(args.seed, cfg, "seed", 0)
    model["wavelet_rewrite"] = _pick(args.rewrite, cfg, "wavelet_rewrite", "")
    if "layers" not in cfg:
        arch = cfg.get("arch", "mini")
        if arch != "mini":
            raise InvalidConfig(f"unknown architecture {arch!r}")
        mode = _pick(args.mode, cfg, "mode", "max_pool")
        wavelet = _pick(args.wavelet, cfg, "wavelet", "")
        c, h, w = in_shape
        mini = network.mini_config(mode=mode, wavelet=wavelet, in_channels=c,
                                   image_hw=(h, w), classes=classes)
        model["layers"] = [spec.to_dict() for spec in mini.layers]
    return network.ModelConfig.from_dict(model)


def _train_config_from(cfg: dict, args) -> network.TrainConfig:
    base = dict(cfg.get("train", {}))
    for key in network._TRAIN_KEYS:
        if getattr(args, key) is not None:
            base[key] = getattr(args, key)
    return network.TrainConfig.from_dict(base)


def _cmd_train(args) -> int:
    cfg = _load_run_config(args.config)
    ds = datasets.load_dataset(args.images, args.labels)
    val = None
    if args.val_images or args.val_labels:
        if not (args.val_images and args.val_labels):
            args.parser.error("--val-images and --val-labels go together")
        val = datasets.load_dataset(args.val_images, args.val_labels)
    top = max(int(d.labels.max(initial=0)) for d in (ds, val) if d is not None)
    model_cfg = _model_config_from(cfg, args, ds.images.shape[1:], classes=max(top + 1, 2))
    hyper = _train_config_from(cfg, args)
    model = network.build_model(model_cfg, dtype=_np_precision(args.precision))
    report = network.train(model, ds, hyper, val=val)
    if args.out:
        network.save_model(model, args.out)
        print(args.out, file=sys.stderr)
    _emit(report.to_csv(), args.report)
    return 0


def _cmd_eval(args) -> int:
    model = network.load_model(args.model)
    ds = datasets.load_dataset(args.images, args.labels)
    err = network.evaluate(model, ds)
    _emit(f"metric,value\ntop1_error,{err!r}\naccuracy,{1.0 - err!r}\n", args.out)
    return 0


def _cmd_robustness(args) -> int:
    ref = None
    if args.reference:  # read first, so a malformed file fails before the long measurement
        if str(args.reference).lower().endswith(".json"):
            ref = robustness.ErrorMatrix.from_json_dict(_load_json(args.reference))
        else:
            try:
                with open(args.reference, encoding="utf-8") as fh:
                    text = fh.read()
            except UnicodeDecodeError as exc:
                raise InvalidConfig(f"{args.reference}: not a UTF-8 CSV file: {exc}") from exc
            ref = robustness.ErrorMatrix.from_csv(text)
    model = network.load_model(args.model)
    ds = datasets.load_dataset(args.images, args.labels)
    matrix = robustness.error_matrix(model, ds, seed=args.seed)
    if ref is not None:
        report = robustness.robustness_report(matrix, ref)
        csv_text, json_text = report.to_csv(), report.to_json()
    else:
        csv_text = matrix.to_csv()
        json_text = json.dumps(matrix.to_json_dict(), indent=2, sort_keys=True) + "\n"
    if args.out_prefix:
        for suffix, text in ((".csv", csv_text), (".json", json_text)):
            with open(args.out_prefix + suffix, "w") as fh:
                fh.write(text)
            print(args.out_prefix + suffix)
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_shift(args) -> int:
    model = network.load_model(args.model)
    ds = datasets.load_dataset(args.images, args.labels)
    cfg = robustness.ShiftTrialConfig(
        max_shift=args.range, pairs=args.pairs, padding=args.padding,
        seed=args.seed)
    value = robustness.shift_consistency(model, ds, cfg)
    _emit(f"shift_consistency,{value!r}\n", args.out)
    return 0


def _cmd_flops(args) -> int:
    # counted from the layers' shapes: no weights are allocated
    model = network.Model(_model_config_from(_load_run_config(args.config), args,
                                             args.input[-3:]))
    report = complexity.model_madds(model, args.input)
    if args.format == "csv":
        _emit(report.to_csv(), args.out)
    else:
        _emit(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",
              args.out)
    return 0


# --- parser assembly ---


def _build_parser() -> _Parser:
    top = _Parser(prog="wavecnn",
                  description="Wavelet transforms, wavelet-downsampled CNNs, "
                              "denoising, robustness metrics, and madds reports.")
    sub = top.add_subparsers(dest="command", metavar="SUBCOMMAND")
    names = wavelet_names()

    p = sub.add_parser("filters", help="print filter coefficients")
    p.add_argument("--wavelet", choices=names)
    p.add_argument("--list", action="store_true", help="list registry names")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_filters, parser=p)

    p = sub.add_parser("transform", help="2D wavelet analysis of an image into four subband files")
    p.add_argument("--wavelet", choices=names, required=True)
    p.add_argument("--in", dest="input", required=True, metavar="FILE",
                   help="input image (PGM or raw tensor)")
    p.add_argument("--out-prefix", required=True,
                   help="writes PREFIX_ll/_lh/_hl/_hh.wtn float tensors")
    p.add_argument("--precision", choices=("f32", "f64"), default="f64",
                   help="float width (default f64)")
    p.set_defaults(func=_cmd_transform, parser=p)

    p = sub.add_parser("idwt", help="2D wavelet synthesis from four subband files")
    p.add_argument("--wavelet", choices=names, required=True)
    p.add_argument("--in-prefix", dest="in_prefix", required=True)
    p.add_argument("--shape", type=_dims((2,), "HxW"), required=True, metavar="HxW",
                   help="spatial shape of the reconstruction")
    p.add_argument("--out", required=True, help="output image (.pgm quantizes)")
    p.add_argument("--precision", choices=("f32", "f64"), default="f64",
                   help="float width (default f64)")
    p.set_defaults(func=_cmd_idwt, parser=p)

    p = sub.add_parser("denoise", help="soft-shrinkage wavelet denoising of one image")
    p.add_argument("--in", dest="input", required=True, metavar="FILE",
                   help="input image: PGM (denoised in f64 whatever --precision says) "
                        "or raw tensor")
    p.add_argument("--out", required=True)
    p.add_argument("--wavelet", choices=names, default="haar")
    p.add_argument("--lambda", dest="lam", type=float, default=0.1,
                   help="shrinkage threshold on the [0,1] pixel scale")
    p.add_argument("--precision", choices=("f32", "f64"), default="f64",
                   help="float width (default f64)")
    p.set_defaults(func=_cmd_denoise, parser=p)

    p = sub.add_parser("train", help="train a model on an IDX dataset")
    p.add_argument("--config", help="JSON run config (architecture + hyperparameters)")
    p.add_argument("--images", required=True, help="IDX image file")
    p.add_argument("--labels", required=True, help="IDX label file")
    p.add_argument("--val-images")
    p.add_argument("--val-labels")
    p.add_argument("--mode", choices=network.DOWNSAMPLE_MODES,
                   help="downsample mode for the reference architecture")
    p.add_argument("--wavelet", choices=names, help="wavelet for dwt_* modes")
    p.add_argument("--rewrite", choices=names, metavar="WAVELET",
                   help="rewrite stride-2 convs to stride-1 + ll downsample")
    p.add_argument("--seed", type=_seed,
                   help="model init seed, at least 0 (default: the run config's, else 0)")
    p.add_argument("--precision", choices=("f32", "f64"), default="f32",
                   help="float width (default f32)")
    for key, kind in network._TRAIN_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind)
    p.add_argument("--out", help="checkpoint path to write")
    p.add_argument("--report", help="write the training report CSV here (default stdout)")
    p.set_defaults(func=_cmd_train, parser=p)

    p = sub.add_parser("eval", help="top-1 error of a checkpoint on an IDX dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval, parser=p)

    p = sub.add_parser("robustness", help="noise-corruption error matrix and CE/mCE report")
    p.add_argument("--model", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--reference", help="reference error matrix (.csv or .json); "
                                       "omit to emit this model's matrix only")
    p.add_argument("--out-prefix", help="write PREFIX.csv and PREFIX.json")
    p.add_argument("--seed", type=_seed, default=0, help="corruption seed, at least 0")
    p.set_defaults(func=_cmd_robustness, parser=p)

    p = sub.add_parser("shift", help="prediction consistency under random translations")
    p.add_argument("--model", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--range", type=int, default=8, help="max shift in pixels")
    p.add_argument("--pairs", type=int, default=64, help="random shift pairs")
    p.add_argument("--padding", choices=("reflect", "edge", "constant"),
                   default="reflect")
    p.add_argument("--seed", type=_seed, default=0, help="shift-pair seed, at least 0")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_shift, parser=p)

    p = sub.add_parser("flops", help="multiply-add report for a model config")
    p.add_argument("--config", required=True, help="model or run config JSON")
    p.add_argument("--input", type=_dims((3, 4), "CxHxW or NxCxHxW"), required=True,
                   metavar="NxCxHxW",
                   help="input shape; a mini-arch run config is built for it")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--mode", choices=network.DOWNSAMPLE_MODES)
    p.add_argument("--wavelet", choices=names)
    p.add_argument("--rewrite", choices=names, metavar="WAVELET")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_flops, parser=p, seed=None)  # the madds carry no seed

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.error("a subcommand is required")
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (WaveError, OSError) as exc:
        print(f"wavecnn {args.command}: error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
