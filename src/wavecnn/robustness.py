"""Noise corruptions and robustness metrics for classifiers.

Three pixel-noise corruptions (gaussian, shot, impulse) are generated here at
five severities, whose parameters are fixed in ``DEFAULT_SEVERITY``.
Corruption Error normalizes a model's error rates by a reference model's, and
category means aggregate CEs (blur/weather/digital categories accept
externally computed CE rows, since only noise generators live in-package).
Shift consistency measures how often predictions survive small translations.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .errors import (BadSeverity, InvalidConfig, MissingCorruption, ShapeMismatch,
                     ShiftOutOfRange, ZeroReference, _check_hints, _check_seed)
from .network import _checked_split

GAUSSIAN = "gaussian"
SHOT = "shot"
IMPULSE = "impulse"
NOISE_CORRUPTIONS = (GAUSSIAN, SHOT, IMPULSE)

# severity index 1..5 -> parameter
DEFAULT_SEVERITY = {
    GAUSSIAN: (0.08, 0.12, 0.18, 0.26, 0.38),  # additive sigma
    SHOT: (60.0, 25.0, 12.0, 5.0, 3.0),        # photon count scale
    IMPULSE: (0.03, 0.06, 0.09, 0.17, 0.27),   # replaced fraction
}

CATEGORY_MEMBERS = {
    "noise": NOISE_CORRUPTIONS,
    "blur": ("defocus", "glass", "motion", "zoom"),
    "weather": ("snow", "frost", "fog", "brightness"),
    "digital": ("contrast", "elastic", "pixelate", "jpeg"),
}


def _severity_param(kind: str, severity: int) -> float:
    if kind not in DEFAULT_SEVERITY:
        raise InvalidConfig(f"unknown corruption kind {kind!r}")
    if (isinstance(severity, bool) or not isinstance(severity, (int, np.integer))
            or not 1 <= severity <= 5):
        raise BadSeverity(f"severity must be an integer in 1..5, got {severity!r}")
    return float(DEFAULT_SEVERITY[kind][severity - 1])


def _corrupted(x: np.ndarray, kind: str, severities, seeds):
    """Yield the float64 stack ``x`` corrupted at each of ``severities`` in
    turn, image ``i`` drawn from ``np.random.default_rng(seeds[i])``.

    Every yield is the same buffer, which the next severity overwrites.
    Gaussian and impulse draw once per image and hold their draws for all
    severities (the impulse salt as booleans); shot draws once per image
    and severity, from a fresh stream each time (see
    :func:`corrupt_dataset`).
    """
    params = [_severity_param(kind, s) for s in severities]
    # written so that NaN, which fails every comparison, fails the check too
    if x.size and not (x.min() >= -1e-9 and x.max() <= 1 + 1e-9):
        raise InvalidConfig("corrupt expects finite images on the [0, 1] scale")
    out = np.empty(x.shape)
    if kind == GAUSSIAN:
        z = np.empty(x.shape)
        for i, seed in enumerate(seeds):
            np.random.default_rng(seed).standard_normal(out=z[i, ...])
    elif kind == IMPULSE:
        u = np.empty(x.shape)
        salt = np.empty(x.shape, dtype=bool)
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            rng.random(out=u[i, ...])
            np.less(rng.random(x.shape[1:]), 0.5, out=salt[i, ...])
    for param in params:
        if kind == GAUSSIAN:
            np.multiply(z, param, out=out)
            out += 0.0  # turns -0.0 noise into 0.0, as normal() does
            out += x
        elif kind == SHOT:
            for i, seed in enumerate(seeds):
                # a pixel in the tolerated [-1e-9, 0) gets rate 0, not an error
                lam = np.maximum(x[i, ...] * param, 0.0)
                out[i, ...] = np.random.default_rng(seed).poisson(lam)
            out /= param
        else:  # impulse
            np.copyto(out, x)
            np.copyto(out, salt, where=u < param)
        yield np.clip(out, 0.0, 1.0, out=out)


def corrupt(image: np.ndarray, kind: str, severity: int, rng_seed=0) -> np.ndarray:
    """Apply one noise corruption to a unit-scale image; output stays in [0,1].

    ``rng_seed`` is any ``np.random.default_rng`` seed, so callers can derive
    independent per-image streams.
    """
    x = np.asarray(image, dtype=np.float64)[None]
    return next(_corrupted(x, kind, (severity,), [rng_seed]))[0]


def _dataset_seeds(seed: int, n: int) -> list:
    """The per-image stream seeds of a data set: ``[seed, i]`` for image i;
    InvalidConfig on a negative ``seed``."""
    _check_seed(seed, "corruption seed")
    return [[seed, i] for i in range(n)]


def corrupt_dataset(dataset, kind: str, severity: int, seed: int = 0):
    """Corrupt every image with an independent (seed, index) stream, so an
    image's output does not depend on the others in the dataset.

    The images are range-checked once, as a stack, and image ``i`` comes out
    as :func:`corrupt` gives it with ``rng_seed=[seed, i]``.
    :func:`error_matrix` makes these same bytes for all five severities of a
    kind from one set of draws: what does not depend on the severity (the
    gaussian standard normals, the impulse uniforms) is drawn once per image
    and kind and held as one float64 copy of the images, and since
    ``Generator.normal(0, s)`` is ``0.0 + s * z`` on the same stream, no
    byte differs from a fresh draw per severity.
    """
    x = np.asarray(dataset.images, dtype=np.float64)
    images = next(_corrupted(x, kind, (severity,), _dataset_seeds(seed, len(x))))
    return Dataset(images, dataset.labels)


# --- error matrices ---

_HEADER = "corruption,severity_1,severity_2,severity_3,severity_4,severity_5"


def _row(name: str, rates) -> str:
    """One CSV row of a matrix: the corruption, then its five rates."""
    return name + "," + ",".join(repr(float(v)) for v in rates)


def _check_names(corruptions: tuple) -> None:
    """InvalidConfig unless the corruption names are some and distinct."""
    if not corruptions:
        raise InvalidConfig("an error matrix needs at least one corruption")
    if len(set(corruptions)) != len(corruptions):
        raise InvalidConfig(f"repeated corruption names in {corruptions}")


@dataclass(frozen=True)
class ErrorMatrix:
    """Top-1 error rate per (corruption, severity 1..5) for one model."""

    model_id: str
    corruptions: tuple
    errors: np.ndarray  # shape (len(corruptions), 5), entries in [0, 1]

    def __post_init__(self):
        _check_names(self.corruptions)
        e = np.asarray(self.errors, dtype=np.float64)
        if e.shape != (len(self.corruptions), 5):
            raise ShapeMismatch(
                f"need a {len(self.corruptions)}x5 grid, got shape {e.shape}")
        # written so that NaN, which fails every comparison, fails the check too
        if not (e.min() >= 0 and e.max() <= 1):
            raise InvalidConfig("error rates must lie in [0, 1]")
        object.__setattr__(self, "errors", e)

    def row(self, corruption: str) -> np.ndarray:
        try:
            return self.errors[self.corruptions.index(corruption)]
        except ValueError:
            raise MissingCorruption([corruption]) from None

    def to_csv(self) -> str:
        lines = [f"# model: {self.model_id}", _HEADER]
        lines += [_row(name, row) for name, row in zip(self.corruptions, self.errors)]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str) -> "ErrorMatrix":
        model_id = ""
        names, rows = [], []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "model:" in line:
                    model_id = line.split("model:", 1)[1].strip()
                continue
            cells = next(csv.reader([line]))
            if cells[0] == "corruption":
                continue
            if len(cells) != 6:
                raise InvalidConfig(f"bad error-matrix row: {line!r}")
            names.append(cells[0])
            rows.append(_rates(cells[0], cells[1:]))
        return ErrorMatrix(model_id, tuple(names), np.asarray(rows).reshape(-1, 5))

    def to_json_dict(self) -> dict:
        return {
            "model": self.model_id,
            "errors": {name: [float(v) for v in row]
                       for name, row in zip(self.corruptions, self.errors)},
        }

    @staticmethod
    def from_json_dict(d: dict) -> "ErrorMatrix":
        if not isinstance(d, dict) or not isinstance(d.get("errors"), dict):
            raise InvalidConfig("error-matrix JSON needs an 'errors' object")
        names = tuple(d["errors"])
        grid = np.asarray([_rates(k, d["errors"][k]) for k in names], dtype=np.float64)
        return ErrorMatrix(str(d.get("model", "")), names, grid.reshape(-1, 5))


def _rates(name: str, values) -> list:
    """The five error rates of one matrix row as floats, else InvalidConfig."""
    try:
        if len(values) == 5 and not any(type(v) is bool for v in values):
            return [float(v) for v in values]
    except (TypeError, ValueError):
        pass
    raise InvalidConfig(f"error-matrix row {name!r} needs five numbers, got {values!r}")


def error_matrix(model, dataset, kinds=NOISE_CORRUPTIONS, seed: int = 0,
                 model_id: str = "") -> ErrorMatrix:
    """Measure a model's corrupted top-1 error over all kinds and severities.

    Each severity scores the stack :func:`corrupt_dataset` returns, byte
    for byte, but the draws of an image that do not depend on the severity
    are made once per kind (see :func:`_corrupted`): one float64 copy of
    the draws is held per kind, beside the one corrupted stack that each
    severity overwrites.  Only shot, whose Poisson rate is the severity's,
    draws afresh for each severity.  The images are corrupted on the
    calling thread; the forwards use every usable CPU
    (``Model.predict_logits``).  Raises InvalidConfig, before any
    corruption, on an empty, repeated or unknown kind, and on a dataset
    that the admission rule (``network._checked_split``, named ``error
    matrix``) refuses; it is admitted once, and each severity is scored
    against its labels.
    """
    kinds = tuple(kinds)
    _check_names(kinds)
    for kind in kinds:
        _severity_param(kind, 1)
    x = np.asarray(dataset.images, dtype=np.float64)
    seeds = _dataset_seeds(seed, len(x))
    _, labels = _checked_split(model, dataset, "error matrix")
    grid = np.empty((len(kinds), 5))
    for i, kind in enumerate(kinds):
        # cast each stack once, on this thread: with the cast left to the
        # pool's blocks, dwt_ll's matrix took 0.67-0.90 s, not 0.46-0.55 s
        # (400 images, one BLAS thread, 2-vCPU Xeon)
        grid[i] = [(model.predict(images.astype(model.dtype)) != labels).mean()
                   for images in _corrupted(x, kind, range(1, 6), seeds)]
    ident = model_id or getattr(model, "checksum", lambda: "model")()[:12]
    return ErrorMatrix(ident, kinds, grid)


# --- corruption-error metrics ---


def corruption_error(errors_f, errors_ref) -> float:
    """100 x (summed model error over severities) / (summed reference error)."""
    f = np.asarray(errors_f, dtype=np.float64).reshape(-1)
    r = np.asarray(errors_ref, dtype=np.float64).reshape(-1)
    if f.shape != (5,) or r.shape != (5,):
        raise ShapeMismatch("corruption_error expects 5 severity values per model")
    denom = float(r.sum())
    if denom <= 0.0:
        raise ZeroReference("reference error rates sum to zero")
    return 100.0 * float(f.sum()) / denom


def mean_ce(ces: dict, category: str) -> float:
    """Arithmetic mean of one category's CE values (3 noise members, else 4)."""
    if category not in CATEGORY_MEMBERS:
        raise InvalidConfig(f"unknown corruption category {category!r}")
    members = CATEGORY_MEMBERS[category]
    missing = [m for m in members if m not in ces]
    if missing:
        raise MissingCorruption(missing)
    return float(sum(float(ces[m]) for m in members) / len(members))


@dataclass(frozen=True)
class RobustnessReport:
    """CE per corruption plus whichever category means are fully covered."""

    measured: ErrorMatrix
    reference: ErrorMatrix
    ces: dict
    mces: dict

    def to_csv(self) -> str:
        m = self.measured
        lines = [f"# model: {m.model_id}", f"# reference: {self.reference.model_id}",
                 _HEADER + ",ce"]
        for name, row in zip(m.corruptions, m.errors):
            ce = repr(float(self.ces[name])) if name in self.ces else ""
            lines.append(_row(name, row) + "," + ce)
        lines += [f"mce_{c},,,,,,{float(v)!r}" for c, v in sorted(self.mces.items())]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "model": self.measured.model_id,
            "reference_model": self.reference.model_id,
            "errors": self.measured.to_json_dict()["errors"],
            "reference_errors": self.reference.to_json_dict()["errors"],
            "ce": {k: float(v) for k, v in self.ces.items()},
            "mce": {k: float(v) for k, v in self.mces.items()},
        }


def robustness_report(measured: ErrorMatrix,
                      reference: ErrorMatrix) -> RobustnessReport:
    """Normalize a measured matrix by a reference one.

    A CE appears only for corruptions present in both matrices; a category
    mean appears only when every member corruption has a CE.
    """
    ces = {}
    for name in measured.corruptions:
        if name in reference.corruptions:
            ces[name] = corruption_error(measured.row(name), reference.row(name))
    mces = {}
    for category, members in CATEGORY_MEMBERS.items():
        if all(m in ces for m in members):
            mces[category] = mean_ce(ces, category)
    return RobustnessReport(measured, reference, ces, mces)


# --- shift consistency ---

# No shift test may draw more pairs than this.  The draw is one (pairs, 4)
# int64 array: 2.0 MiB at 2**16 pairs and 32.0 MiB in 0.05 s at 2**20
# (tracemalloc, 2-vCPU Xeon); 10**12 pairs would ask for a 29 TiB array.
MAX_SHIFT_PAIRS = 2 ** 20

# The rules for the pixels a shift vacates, as ``np.pad`` modes.
SHIFT_PADDINGS = ("reflect", "edge", "constant")


@dataclass(frozen=True)
class ShiftTrialConfig:
    """How translation pairs are sampled for consistency measurement."""

    max_shift: int = 8
    pairs: int = 64
    padding: str = "reflect"
    seed: int = 0

    def __post_init__(self):
        _check_hints(self, "shift")
        if self.max_shift < 1:
            raise InvalidConfig("shift range must be >= 1 pixel")
        if self.pairs < 1:
            raise InvalidConfig("need at least one shift pair")
        if self.pairs > MAX_SHIFT_PAIRS:
            raise InvalidConfig(f"{self.pairs} shift pairs are more than the "
                                f"{MAX_SHIFT_PAIRS} a shift test may draw")
        _check_seed(self.seed, "shift seed")
        _check_shift(self.padding)


def _check_shift(padding: str, shift: int = 0, shape=None, label: str = "shift") -> None:
    """InvalidConfig unless ``padding`` is one of ``SHIFT_PADDINGS``; given
    the ``shape`` of the images, ShiftOutOfRange on a ``shift`` past
    ``min(h, w) - 1``, the message naming it as ``label``."""
    if padding not in SHIFT_PADDINGS:
        raise InvalidConfig(f"unknown padding rule {padding!r}")
    if shape is not None and shift > min(shape[-2:]) - 1:
        raise ShiftOutOfRange(f"{label} {shift} exceeds the limit {min(shape[-2:]) - 1} "
                              f"for {shape[-2]}x{shape[-1]} images")


def shift_image(images: np.ndarray, dy: int, dx: int,
                padding: str = "reflect") -> np.ndarray:
    """Translate content of NCHW (or CHW/HW) images by whole pixels.

    Positive shifts move content down/right; vacated pixels follow the
    padding rule, one of ``SHIFT_PADDINGS``; any other raises
    InvalidConfig.  A shift past ``min(h, w) - 1`` raises ShiftOutOfRange
    under every rule: reflect padding reaches no further, and under edge or
    constant padding it would leave no pixel of the image.
    """
    x = np.asarray(images)
    p = max(abs(dy), abs(dx))
    _check_shift(padding, p, x.shape)
    h, w = x.shape[-2], x.shape[-1]
    pad = [(0, 0)] * (x.ndim - 2) + [(p, p), (p, p)]
    padded = np.pad(x, pad, mode=padding)
    return padded[..., p - dy:p - dy + h, p - dx:p - dx + w]


def shift_consistency(model, dataset, cfg: ShiftTrialConfig = ShiftTrialConfig()) -> float:
    """Percentage of (image, shift-pair) trials with matching predictions.

    The images are cast to the model's precision (``model.dtype``) before
    they are shifted; a shift only copies pixels, so the predictions are
    those of casting after the shift.  The dataset passes the admission
    rule (``network._checked_split``) before any shift, and only its
    images are used: InvalidConfig is raised on a dataset without images,
    with an image that holds NaN or an infinity at that precision (no
    padding rule makes one, so the images are checked once, unshifted),
    without one integer label per image, whose images the model's layers
    do not take, or for a model that gives no label per image.
    ShiftOutOfRange is raised on a ``cfg.max_shift`` that
    :func:`shift_image` would refuse.
    """
    images, _ = _checked_split(model, dataset, "shift consistency")
    _check_shift(cfg.padding, cfg.max_shift, images.shape, "shift range")
    return _agreement(model, images, _draw_trials(cfg), cfg.padding)


def _draw_trials(cfg: ShiftTrialConfig) -> np.ndarray:
    """``cfg.pairs`` random shift pairs within ``cfg.max_shift``, one
    ``(h0, w0, h1, w1)`` row each."""
    rng = np.random.default_rng(cfg.seed)
    return rng.integers(-cfg.max_shift, cfg.max_shift + 1, size=(cfg.pairs, 4))


def _agreement(model, images: np.ndarray, trials: np.ndarray, padding: str) -> float:
    """Percentage of (image, trial) predictions that agree under the two
    shifts of each ``(h0, w0, h1, w1)`` row of ``trials``.  Each distinct
    shift is predicted once, and each distinct pair of shifts is compared
    once, counted as often as it was drawn."""
    shifts, index = np.unique(trials.reshape(-1, 2), axis=0, return_inverse=True)
    preds = [model.predict(shift_image(images, int(dy), int(dx), padding))
             for dy, dx in shifts]
    pairs, counts = np.unique(index.reshape(-1, 2), axis=0, return_counts=True)
    agree = sum(int(n) * int((preds[a] == preds[b]).sum()) for (a, b), n in zip(pairs, counts))
    return 100.0 * agree / (len(trials) * len(images))
