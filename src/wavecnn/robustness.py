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

from .errors import (BadSeverity, InvalidConfig, MissingCorruption,
                     ShapeMismatch, ShiftOutOfRange, ZeroReference)
from .network import _checked_images, evaluate

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
    if not isinstance(severity, (int, np.integer)) or not 1 <= severity <= 5:
        raise BadSeverity(f"severity must be an integer in 1..5, got {severity!r}")
    return float(DEFAULT_SEVERITY[kind][severity - 1])


def corrupt(image: np.ndarray, kind: str, severity: int, rng_seed=0) -> np.ndarray:
    """Apply one noise corruption to a unit-scale image; output stays in [0,1].

    ``rng_seed`` is any ``np.random.default_rng`` seed, so callers can derive
    independent per-image streams.
    """
    param = _severity_param(kind, severity)
    x = np.asarray(image, dtype=np.float64)
    # written so that NaN, which fails every comparison, fails the check too
    if x.size and not (x.min() >= -1e-9 and x.max() <= 1 + 1e-9):
        raise InvalidConfig("corrupt expects finite images on the [0, 1] scale")
    rng = np.random.default_rng(rng_seed)
    if kind == GAUSSIAN:
        out = x + rng.normal(0.0, param, size=x.shape)
    elif kind == SHOT:
        out = rng.poisson(x * param).astype(np.float64) / param
    else:  # impulse
        replaced = rng.random(x.shape) < param
        salt = rng.random(x.shape) < 0.5
        out = np.where(replaced, np.where(salt, 1.0, 0.0), x)
    return np.clip(out, 0.0, 1.0)


def corrupt_dataset(dataset, kind: str, severity: int, seed: int = 0):
    """Corrupt every image, one after another, with an independent
    (seed, index) stream, so an image's output does not depend on the
    others in the dataset.
    """
    from .datasets import Dataset

    _severity_param(kind, severity)  # validate before any work
    n = len(dataset)
    planes = [corrupt(dataset.images[i], kind, severity, rng_seed=[seed, i]) for i in range(n)]
    images = np.stack(planes) if n else dataset.images.astype(np.float64)
    return Dataset(images, dataset.labels)


# --- error matrices ---

_HEADER = "corruption,severity_1,severity_2,severity_3,severity_4,severity_5"


def _row(name: str, rates) -> str:
    """One CSV row of a matrix: the corruption, then its five rates."""
    return name + "," + ",".join(repr(float(v)) for v in rates)


@dataclass(frozen=True)
class ErrorMatrix:
    """Top-1 error rate per (corruption, severity 1..5) for one model."""

    model_id: str
    corruptions: tuple
    errors: np.ndarray  # shape (len(corruptions), 5), entries in [0, 1]

    def __post_init__(self):
        if not self.corruptions:
            raise InvalidConfig("an error matrix needs at least one corruption")
        if len(set(self.corruptions)) != len(self.corruptions):
            raise InvalidConfig(f"repeated corruption names in {self.corruptions}")
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

    The images are corrupted on the calling thread (:func:`corrupt_dataset`);
    the forwards use every usable CPU (``Model.predict_logits``).  Raises
    InvalidConfig (from ``evaluate``) on a dataset without images.
    """
    grid = np.empty((len(kinds), 5))
    for i, kind in enumerate(kinds):
        for severity in range(1, 6):
            corrupted = corrupt_dataset(dataset, kind, severity, seed=seed)
            grid[i, severity - 1] = evaluate(model, corrupted)
    ident = model_id or getattr(model, "checksum", lambda: "model")()[:12]
    return ErrorMatrix(ident, tuple(kinds), grid)


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


@dataclass(frozen=True)
class ShiftTrialConfig:
    """How translation pairs are sampled for consistency measurement."""

    max_shift: int = 8
    pairs: int = 64
    padding: str = "reflect"
    seed: int = 0

    def __post_init__(self):
        if self.max_shift < 1:
            raise InvalidConfig("shift range must be >= 1 pixel")
        if self.pairs < 1:
            raise InvalidConfig("need at least one shift pair")
        if self.pairs > MAX_SHIFT_PAIRS:
            raise InvalidConfig(f"{self.pairs} shift pairs are more than the "
                                f"{MAX_SHIFT_PAIRS} a shift test may draw")
        if self.padding not in ("reflect", "edge", "constant"):
            raise InvalidConfig(f"unknown padding rule {self.padding!r}")


def shift_image(images: np.ndarray, dy: int, dx: int,
                padding: str = "reflect") -> np.ndarray:
    """Translate content of NCHW (or CHW/HW) images by whole pixels.

    Positive shifts move content down/right; vacated pixels follow the
    padding rule.  A shift past ``min(h, w) - 1`` raises ShiftOutOfRange
    under every rule: reflect padding reaches no further, and under edge or
    constant padding it would leave no pixel of the image.
    """
    x = np.asarray(images)
    h, w = x.shape[-2], x.shape[-1]
    p = max(abs(dy), abs(dx))
    if p == 0:
        return x.copy()
    if p > min(h, w) - 1:
        raise ShiftOutOfRange(f"shift {p} exceeds the limit {min(h, w) - 1} "
                              f"for {h}x{w} images")
    pad = [(0, 0)] * (x.ndim - 2) + [(p, p), (p, p)]
    padded = np.pad(x, pad, mode=padding)
    return padded[..., p - dy:p - dy + h, p - dx:p - dx + w]


def shift_consistency(model, dataset, cfg: ShiftTrialConfig = ShiftTrialConfig()) -> float:
    """Percentage of (image, shift-pair) trials with matching predictions.

    The images are cast to the model's precision (``model.dtype``) before
    they are shifted; a shift only copies pixels, so the predictions are
    those of casting after the shift.  Raises InvalidConfig on a dataset
    without images or, as :func:`evaluate` does, with an image that holds
    NaN or an infinity at that precision (no padding rule makes one, so the
    images are checked once, unshifted), and ShiftOutOfRange on a
    ``cfg.max_shift`` that :func:`shift_image` would refuse.
    """
    images = _checked_images(model, dataset, "shift consistency")
    h, w = images.shape[-2], images.shape[-1]
    if cfg.max_shift > min(h, w) - 1:
        raise ShiftOutOfRange(f"shift range {cfg.max_shift} exceeds the limit "
                              f"{min(h, w) - 1} for {h}x{w} images")
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
