"""The benchmark's three workloads: ``train``, ``eval`` and ``image``.

Each workload generates its inputs from the workload seed, sets up (data,
build, warm-up), and offers a list of named units.  A unit makes public
wavecnn calls, times only those calls, checks their outputs, and returns
``(seconds, pixels)``; ``run.py`` cycles through the units in a closed
loop.  ``layer_metrics`` turns the spans of a traced run into the
per-layer metrics named in ``BENCHMARK.json``.

Why these three: ``train`` is the paper's central comparison (one model per
down-sampling mode) and dominated by conv/BN/ReLU/pool passes; ``eval`` runs
the same layers forward-only at batch 256 plus the per-image corruption loop;
``image`` is all transform work on planes whose operators fit in L2 (128²)
or far exceed it (1024²), with no conv or BN work at all.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time

import numpy as np

import wavecnn as w
from wavecnn import complexity, layers as L, network as nw, robustness, transform

from spans import NullTracer

PIXELS_28 = 28 * 28

# the criterion-7 data recipe of tests/test_acceptance.py
N_TRAIN, N_VAL, NOISE, AMPLITUDE = 1200, 400, 0.10, 0.12
BATCH = 64
MODES = (("max_pool", ""), ("avg_pool", ""), ("strided_conv", ""),
         ("dwt_ll", "haar"), ("dwt_avg", "db4"), ("dwt_cat", "ch3.3"))
STAGE_KINDS = ("conv", "batchnorm", "relu", "down")


def clear_caches() -> None:
    """Empty every functools cache in wavecnn, so each set-up builds afresh."""
    for name, mod in list(sys.modules.items()):
        if name == "wavecnn" or name.startswith("wavecnn."):
            for value in vars(mod).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def transform_cache_counts() -> tuple:
    """(hits, misses) summed over the operator caches of wavecnn.transform."""
    hits = misses = 0
    for value in vars(transform).values():
        if hasattr(value, "cache_info"):
            info = value.cache_info()
            hits += info.hits
            misses += info.misses
    return hits, misses


def layer_kind(layer):
    """Stage role of a layer; None for pad/flatten/dense glue (caller self time)."""
    if isinstance(layer, L.Conv2d):
        return "down" if layer.stride == 2 else "conv"
    if isinstance(layer, L.BatchNorm2d):
        return "batchnorm"
    if isinstance(layer, L.ReLU):
        return "relu"
    if isinstance(layer, (L.MaxPool2, L.AvgPool2, L.WaveletDown)):
        return "down"
    return None


@contextlib.contextmanager
def traced_layers(tracer, model, tag: str, phases):
    """Record ``layers.<kind>.<phase>.<tag>`` spans for the stage layers.

    ``phases`` picks which of ``fwd`` (training forward), ``bwd`` and
    ``infer`` (inference forward) get spans; the others call straight
    through and so count toward the enclosing span's self time.
    """
    def fwd_name(kind):
        def name(x, training=False):
            phase = "fwd" if training else "infer"
            return f"layers.{kind}.{phase}.{tag}" if phase in phases else None
        return name

    def batch(x, *_):
        return x.shape[0]

    with contextlib.ExitStack() as stack:
        for layer in model.layers:
            kind = layer_kind(layer)
            if kind is None:
                continue
            stack.enter_context(tracer.patch(layer, "forward", fwd_name(kind), batch))
            if "bwd" in phases:
                stack.enter_context(
                    tracer.patch(layer, "backward", f"layers.{kind}.bwd.{tag}", batch))
        yield


class Tally:
    """Operations attempted (calls and output checks) and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def calls(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


class Workload:
    """Base: a seed, a scratch directory inside the checkout, and units."""

    def __init__(self, seed: int, tmpdir):
        self.seed = seed
        self.tmpdir = tmpdir

    def _dataset(self, n: int, data_seed: int, stem: str):
        """Synthetic gratings, round-tripped through IDX as the CLI would read them."""
        ds = w.synthetic_classification(n, classes=10, seed=data_seed,
                                        noise=NOISE, amplitude=AMPLITUDE)
        images, labels = self.tmpdir / f"{stem}.images.idx", self.tmpdir / f"{stem}.labels.idx"
        w.save_dataset(ds, images, labels)
        return w.load_dataset(images, labels)


class Train(Workload):
    """One SGD epoch per down-sampling mode on the criterion-7 recipe."""

    def setup(self, phase):
        with phase("data"):
            self.train_ds = self._dataset(N_TRAIN, 2 * self.seed, "train")
            self.val_ds = self._dataset(N_VAL, 2 * self.seed + 1, "val")
        with phase("build"):
            self.madds = {}
            for mode, wavelet in MODES:
                model = nw.build_model(nw.mini_config(mode, wavelet, seed=self.seed))
                self.madds[mode] = w.model_madds(model, (1, 28, 28)).total
        with phase("warmup"):
            small = self.train_ds.take(slice(0, BATCH))
            for mode, wavelet in MODES:
                model = nw.build_model(nw.mini_config(mode, wavelet, seed=self.seed))
                nw.train(model, small, nw.TrainConfig(epochs=1), val=small)
        self.checksums = {}

    def units(self):
        return [(f"train.{mode}", self._unit(mode, wavelet)) for mode, wavelet in MODES]

    def _unit(self, mode, wavelet):
        def run(tracer, tally):
            model = nw.build_model(nw.mini_config(mode, wavelet, seed=self.seed))
            losses = []
            loss_forward = model.loss.forward

            def recording(logits, labels):
                value = loss_forward(logits, labels)
                losses.append(value)
                return value
            model.loss.forward = recording
            with traced_layers(tracer, model, mode, ("fwd", "bwd")):
                with tracer.span(f"network.train.{mode}", N_TRAIN):
                    t0 = time.perf_counter()
                    report = nw.train(model, self.train_ds, nw.TrainConfig(epochs=1),
                                      val=self.val_ds)
                    seconds = time.perf_counter() - t0
            tally.calls()
            first = self.checksums.setdefault(mode, report.params_checksum)
            tally.check(report.params_checksum == first,
                        f"{mode}: params checksum differs between repeats")
            # The epoch mean includes the warm-up transient of the first
            # steps (max_pool at lr 0.1 peaks near 14-18), so the bound is
            # applied to the second half of the epoch's step losses.
            late = statistics.fmean(losses[len(losses) // 2:])
            tally.check(late < math.log(10),
                        f"{mode}: second-half train loss {late:.3f} >= ln 10")
            return seconds, N_TRAIN * PIXELS_28
        return run

    def layer_metrics(self, tracer):
        totals = tracer.totals()
        selfs = tracer.self_seconds()
        out = {}
        for mode, _ in MODES:
            name = f"network.train.{mode}"
            if name not in totals:
                continue
            per_step = BATCH / totals[name][1]  # images trained -> 64-image steps
            for kind in STAGE_KINDS:
                for phase in ("fwd", "bwd"):
                    sec = totals.get(f"layers.{kind}.{phase}.{mode}", [0.0])[0]
                    out[f"layers.{kind}.{phase}_ms.{mode}"] = (_ms(sec * per_step), "ms")
            out[f"network.self_ms.{mode}"] = (_ms(selfs[name] * per_step), "ms")
            out[f"complexity.madds_per_img.{mode}"] = (self.madds[mode], "count")
        return out


EVAL_MODELS = (("max_pool", ""), ("dwt_ll", "haar"))


class Eval(Workload):
    """Robustness study: error matrices, CE report and shift consistency."""

    def setup(self, phase):
        with phase("data"):
            self.val_ds = self._dataset(N_VAL, 2 * self.seed + 1, "val")
        with phase("build"):
            # fixed model seeds: inference cost does not depend on the weights
            self.models = {mode: nw.build_model(nw.mini_config(mode, wavelet, seed=0))
                           for mode, wavelet in EVAL_MODELS}
        with phase("warmup"):
            head = self.val_ds.take(slice(0, 8))
            for model in self.models.values():
                model.predict(self.val_ds.images[:256])
            for kind in robustness.NOISE_CORRUPTIONS:
                w.corrupt_dataset(head, kind, 3, seed=self.seed)
        self.first = {}
        self.latest = {}

    def units(self):
        units = [(f"eval.error_matrix.{mode}", self._matrix_unit(mode))
                 for mode, _ in EVAL_MODELS]
        units += [(f"eval.shift.{mode}", self._shift_unit(mode)) for mode, _ in EVAL_MODELS]
        return units

    @contextlib.contextmanager
    def _traced(self, tracer, mode):
        def count(dataset, *_, **__):
            return len(dataset)

        def corrupt_name(dataset, kind, *_, **__):
            return f"robustness.corrupt_dataset.{kind}"

        def images(x, *_, **__):
            return len(x)
        model = self.models[mode]
        with contextlib.ExitStack() as stack:
            stack.enter_context(tracer.patch(robustness, "corrupt_dataset", corrupt_name, count))
            stack.enter_context(tracer.patch(robustness, "shift_image",
                                             "robustness.shift_image", images))
            stack.enter_context(tracer.patch(model, "predict", f"network.predict.{mode}", images))
            stack.enter_context(traced_layers(tracer, model, mode, ("infer",)))
            yield

    def _repeatable(self, tally, key, value, what):
        first = self.first.setdefault(key, value)
        tally.check(value == first, f"{what} differs between repeats")

    def _matrix_unit(self, mode):
        def run(tracer, tally):
            model = self.models[mode]
            with self._traced(tracer, mode):
                t0 = time.perf_counter()
                clean = w.evaluate(model, self.val_ds)
                matrix = w.error_matrix(model, self.val_ds, seed=self.seed, model_id=mode)
                seconds = time.perf_counter() - t0
            tally.calls(2)
            tally.check(0.0 <= clean <= 1.0, f"{mode}: clean error {clean} outside [0, 1]")
            grid = matrix.errors
            tally.check(bool(((grid >= 0) & (grid <= 1)).all()),
                        f"{mode}: error matrix entry outside [0, 1]")
            self._repeatable(tally, mode, grid.tobytes(), f"{mode}: error matrix")
            self.latest[mode] = matrix
            reference = self.latest.get("max_pool")
            if mode != "max_pool" and reference is not None:
                t0 = time.perf_counter()
                report = w.robustness_report(matrix, reference)
                own = w.robustness_report(matrix, matrix)
                seconds += time.perf_counter() - t0
                tally.calls(2)
                tally.check(len(report.ces) == len(robustness.NOISE_CORRUPTIONS)
                            and "noise" in report.mces, "CE report misses a corruption")
                tally.check(all(v == 100.0 for v in own.ces.values())
                            and own.mces.get("noise") == 100.0,
                            f"CE of {mode} against itself is not 100: {own.ces}")
            n = len(self.val_ds) * (1 + 5 * len(robustness.NOISE_CORRUPTIONS))
            return seconds, n * PIXELS_28
        return run

    def _shift_unit(self, mode):
        cfg = w.ShiftTrialConfig(max_shift=2, pairs=2, seed=self.seed)

        def run(tracer, tally):
            with self._traced(tracer, mode):
                t0 = time.perf_counter()
                agree = w.shift_consistency(self.models[mode], self.val_ds, cfg)
                seconds = time.perf_counter() - t0
            tally.calls()
            tally.check(0.0 <= agree <= 100.0, f"{mode}: shift consistency {agree}")
            self._repeatable(tally, f"shift.{mode}", agree, f"{mode}: shift consistency")
            return seconds, 2 * cfg.pairs * len(self.val_ds) * PIXELS_28
        return run

    def layer_metrics(self, tracer):
        totals = tracer.totals()
        out = {}
        for mode, _ in EVAL_MODELS:
            predict = totals.get(f"network.predict.{mode}")
            if predict is None:
                continue
            sec, images, _ = predict
            out[f"network.predict_ms_per_img.{mode}"] = (_ms(sec / images), "ms")
            for kind in STAGE_KINDS:
                layer_sec = totals.get(f"layers.{kind}.infer.{mode}", [0.0])[0]
                out[f"layers.{kind}.infer_ms.{mode}"] = (_ms(layer_sec * 256 / images), "ms")
        for kind in robustness.NOISE_CORRUPTIONS:
            sec, images, _ = totals.get(f"robustness.corrupt_dataset.{kind}", (0.0, 1, 0))
            out[f"robustness.corrupt_ms_per_img.{kind}"] = (_ms(sec / images), "ms")
        sec, images, _ = totals.get("robustness.shift_image", (0.0, 1, 0))
        out["robustness.shift_ms_per_img"] = (_ms(sec / images), "ms")
        return out


SIZES = (128, 512, 1024)
WAVELETS = ("haar", "db4", "ch3.3")
PIXELS_PER_SIZE = 1024 * 1024  # equal pixel count at every size
IMAGE_NOISE = 0.1


def _interior(a, margin):
    return a[margin:-margin, margin:-margin]


class Image(Workload):
    """Large grayscale planes through dwt2d, idwt2d and denoise_image."""

    def setup(self, phase):
        with phase("data"):
            rng = np.random.default_rng([self.seed, 7])
            self.clean, self.noisy = {}, {}
            for side in SIZES:
                count = PIXELS_PER_SIZE // (side * side)
                ii, jj = np.mgrid[0:side, 0:side] / side
                f = rng.uniform(1.0, 3.0, size=(count, 2, 1, 1))
                ph = rng.uniform(0.0, 2 * np.pi, size=(count, 2, 1, 1))
                clean = (0.5 + 0.25 * np.cos(2 * np.pi * f[:, 0] * ii + ph[:, 0])
                         + 0.2 * np.sin(2 * np.pi * f[:, 1] * jj + ph[:, 1]))
                self.clean[side] = clean
                self.noisy[side] = clean + rng.normal(0.0, IMAGE_NOISE, clean.shape)
        with phase("build"):
            # the first 1D call per (wavelet, length) builds and caches its operators
            for name in WAVELETS:
                for side in SIZES:
                    w.dwt1d(np.zeros(side), w.get_wavelet(name))
        with phase("warmup"):
            plane = self.noisy[SIZES[0]][0]
            for name in WAVELETS:
                spec = w.get_wavelet(name)
                w.idwt2d(w.dwt2d(plane, spec), spec)
                w.denoise_image(plane, w.DenoiseConfig(name, IMAGE_NOISE))
            self._file_round_trip(NullTracer(), Tally(), plane)
        self.last_plane = None

    def units(self):
        units = [(f"image.{name}.{side}", self._unit(name, side))
                 for name in WAVELETS for side in SIZES]
        return units + [("image.fileio", self._fileio_unit)]

    def _unit(self, name, side):
        spec = w.get_wavelet(name)
        cfg = w.DenoiseConfig(name, IMAGE_NOISE)
        # README boundary rule: exact within two filter lengths of each edge
        margin = 2 * len(spec.analysis_low)
        exact_everywhere = name == "haar"

        def run(tracer, tally):
            seconds = 0.0
            clean_planes, noisy_planes = self.clean[side], self.noisy[side]
            for clean, noisy in zip(clean_planes, noisy_planes):
                t0 = time.perf_counter()
                with tracer.span(f"transform.dwt2d.{name}.{side}"):
                    bands = w.dwt2d(noisy, spec)
                t1 = time.perf_counter()
                with tracer.span(f"transform.idwt2d.{name}.{side}"):
                    back = w.idwt2d(bands, spec)
                t2 = time.perf_counter()
                with tracer.span(f"denoise.denoise.{name}.{side}"):
                    out = w.denoise_image(noisy, cfg)
                t3 = time.perf_counter()
                seconds += t3 - t0
                tally.calls(3)
                err = np.abs(back - noisy)
                if not exact_everywhere:
                    err = _interior(err, margin)
                tally.check(err.max() < 1e-10, f"{name} {side}: round trip error {err.max():.3g}")
                before = np.mean(_interior(noisy - clean, margin) ** 2)
                after = np.mean(_interior(out - clean, margin) ** 2)
                tally.check(after < before, f"{name} {side}: denoise MSE {after:.4g} >= {before:.4g}")
            if side == SIZES[-1]:
                self.last_plane = out
            return seconds, 3 * side * side * len(noisy_planes)
        return run

    def _file_round_trip(self, tracer, tally, plane):
        pixels = np.clip(np.rint(plane * 255.0), 0, 255).astype(np.uint8)
        pgm, wtn = self.tmpdir / "plane.pgm", self.tmpdir / "plane.wtn"
        t0 = time.perf_counter()
        with tracer.span("fileio.write_pgm"):
            w.write_pgm(pgm, pixels)
        with tracer.span("fileio.read_pgm"):
            pixels_back = w.read_pgm(pgm)
        with tracer.span("fileio.write_tensor"):
            w.write_tensor(wtn, plane)
        with tracer.span("fileio.read_tensor"):
            plane_back = w.read_tensor(wtn)
        seconds = time.perf_counter() - t0
        tally.calls(4)
        tally.check(pixels_back.dtype == pixels.dtype
                    and pixels_back.tobytes() == pixels.tobytes(), "PGM round trip differs")
        tally.check(plane_back.dtype == plane.dtype
                    and plane_back.tobytes() == plane.tobytes(), "WTN round trip differs")
        return seconds

    def _fileio_unit(self, tracer, tally):
        return self._file_round_trip(tracer, tally, self.last_plane), 0

    def layer_metrics(self, tracer):
        totals = tracer.totals()
        out = {}

        def per_call_ms(span_name):
            sec, _, calls = totals.get(span_name, (0.0, 0, 1))
            return _ms(sec / calls), "ms"
        for name in WAVELETS:
            for side in SIZES:
                for op in ("dwt2d", "idwt2d"):
                    out[f"transform.{op}_ms.{name}.{side}"] = \
                        per_call_ms(f"transform.{op}.{name}.{side}")
                out[f"denoise.denoise_ms.{name}.{side}"] = \
                    per_call_ms(f"denoise.denoise.{name}.{side}")
        for side in SIZES:
            out[f"transform.dwt2d_madds.{side}"] = (complexity.dwt2d_madds(side, side, 1), "count")
            # computed, not measured: four (side/2 x side) float64 operators
            out[f"transform.operator_bytes.{side}"] = (4 * (side // 2) * side * 8, "bytes")
        hits, misses = transform_cache_counts()
        out["transform.cache_hit_ratio"] = (hits / max(1, hits + misses), "ratio")
        for op in ("read_pgm", "write_pgm", "read_tensor", "write_tensor"):
            out[f"fileio.{op}_ms"] = per_call_ms(f"fileio.{op}")
        return out


WORKLOADS = {"train": Train, "eval": Eval, "image": Image}
