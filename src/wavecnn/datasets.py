"""Dataset containers, IDX data sets, and a synthetic task.

``read_idx``/``write_idx`` and the IDX layout live in :mod:`wavecnn.fileio`
and are importable from here too.

Images travel through the toolkit as float NCHW arrays on the unit scale
[0, 1]; labels are an integer vector.  The synthetic generator draws each
image from an independently seeded stream so datasets are reproducible and
order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidConfig, ShapeMismatch, _check_seed
from .fileio import read_idx, write_idx


@dataclass(frozen=True)
class Dataset:
    images: np.ndarray  # (N, C, H, W) float
    labels: np.ndarray  # (N,) int

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ShapeMismatch(f"images must be NCHW, got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ShapeMismatch(
                f"{self.images.shape[0]} images but label shape {self.labels.shape}")

    def __len__(self) -> int:
        return self.images.shape[0]

    def take(self, index) -> "Dataset":
        return Dataset(self.images[index], self.labels[index])


def load_dataset(images_path, labels_path) -> Dataset:
    """Pair of IDX files (images rank 3, labels rank 1) -> unit-scale Dataset."""
    images = read_idx(images_path)
    labels = read_idx(labels_path)
    if images.ndim != 3:
        raise FormatError(f"{images_path}: expected [count, rows, cols] images")
    if labels.ndim != 1:
        raise FormatError(f"{labels_path}: expected a rank-1 label vector")
    if images.shape[0] != labels.shape[0]:
        raise ShapeMismatch(
            f"{images.shape[0]} images but {labels.shape[0]} labels")
    x = images.astype(np.float64)[:, None]
    x /= 255.0  # in place: one float64 copy of the images, not two
    return Dataset(x, labels.astype(np.int64))


def save_dataset(dataset: Dataset, images_path, labels_path) -> None:
    """Quantize a single-channel Dataset back to u8 IDX files.

    Raises InvalidConfig, before either file is written, on a pixel that is
    NaN or an infinity: no u8 value stands for it.
    """
    if dataset.images.shape[1] != 1:
        raise ShapeMismatch("IDX export handles single-channel images only")
    if not np.isfinite(dataset.images).all():
        raise InvalidConfig("IDX export needs finite pixel values")
    scaled = dataset.images[:, 0] * 255.0  # the one scaled buffer, rounded and clipped in place
    np.rint(scaled, out=scaled)
    np.clip(scaled, 0, 255, out=scaled)
    write_idx(images_path, scaled.astype(np.uint8))
    write_idx(labels_path, dataset.labels)


# Each class is a low-frequency plane wave; the pair (fy, fx) is cycles per
# image side, so the texture survives repeated low-pass downsampling.
_CLASS_WAVES = ((0, 1), (1, 0), (1, 1), (1, -1), (0, 2),
                (2, 0), (2, 1), (1, 2), (2, -1), (2, 2),
                (0, 3), (3, 0), (3, 1), (1, 3), (2, -2), (3, -1))


def synthetic_classification(n: int, classes: int = 10, image_hw=(28, 28),
                             seed: int = 0, noise: float = 0.05,
                             amplitude: float = 0.38) -> Dataset:
    """Balanced oriented-grating classification set with per-image jitter.

    Image ``i`` gets label ``i % classes`` and its own random stream, so any
    prefix or reordering of the set is reproducible.  Jitter covers phase,
    amplitude, and additive Gaussian pixel noise; pixels stay in [0, 1].
    Lowering ``amplitude`` toward the noise floor makes the task harder
    without changing its structure.
    """
    _check_seed(seed, "data seed")
    if n < 1:
        raise InvalidConfig("need at least one sample")
    if not 2 <= classes <= len(_CLASS_WAVES):
        raise InvalidConfig(f"classes must be in 2..{len(_CLASS_WAVES)}")
    h, w = image_hw
    ii, jj = np.mgrid[0:h, 0:w].astype(np.float64)
    images = np.empty((n, 1, h, w))
    labels = np.arange(n, dtype=np.int64) % classes
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        fy, fx = _CLASS_WAVES[labels[i]]
        phase = rng.uniform(-0.7, 0.7)
        amp = amplitude * rng.uniform(0.85, 1.15)
        img = 0.5 + amp * np.cos(2 * np.pi * (fy * ii / h + fx * jj / w) + phase)
        img += rng.normal(0.0, noise, size=(h, w))
        images[i, 0] = np.clip(img, 0.0, 1.0)
    return Dataset(images, labels)
