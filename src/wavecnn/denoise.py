"""Soft-threshold wavelet denoising.

One analysis level per channel; the three high-frequency subbands are shrunk
toward zero by a fixed threshold while the low-frequency subband passes
through untouched, then the image is reconstructed.  Thresholds are meant for
unit-scale images: integer inputs are divided by 255 on entry and restored on
exit.

The bands are never split out: each channel's coefficients stay in the one
interleaved array of :func:`~wavecnn.transform.dwt2d_interleaved`, the
detail positions are shrunk in place, and the array goes straight back to
synthesis.  The result is bit for bit ``idwt2d`` of the ``dwt2d`` bands with
:func:`soft_shrink` applied to lh, hl and hh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NegativeLambda, ShapeMismatch, _check_real
from .filterbank import get_wavelet
from .transform import detail_views, dwt2d_interleaved, idwt2d_interleaved


@dataclass(frozen=True)
class DenoiseConfig:
    """Wavelet name plus shrinkage threshold (on the [0,1] pixel scale)."""

    wavelet: str = "haar"
    threshold: float = 0.1

    def __post_init__(self):
        _check_threshold(self.threshold)


def _check_threshold(threshold) -> None:
    """InvalidConfig unless ``threshold`` is a real number, NegativeLambda
    unless it is >= 0."""
    _check_real(threshold, "threshold")
    if not threshold >= 0:  # NaN fails this test too
        raise NegativeLambda(f"threshold must be >= 0, got {threshold}")


def soft_shrink(x, threshold):
    """Move ``x`` toward zero by ``threshold``, zeroing the band within it.

    Piecewise: ``x - t`` for ``x > t``; ``x + t`` for ``x < -t``; else 0.
    Evaluated as ``x - clip(x, -t, t)``, which equals the piecewise form bit
    for bit on finite input and propagates NaN.  Accepts scalars or arrays;
    never increases magnitude and is odd in ``x``.
    """
    _check_threshold(threshold)
    arr = np.asarray(x)
    if arr.dtype.kind in "biu":  # as before: integer input shrinks in double
        arr = arr.astype(np.float64)
    clipped = np.clip(arr, -threshold, threshold)
    if arr.ndim == 0:
        return float(arr - clipped)
    # subtract in place: a second large temporary costs more than the math
    return np.subtract(arr, clipped, out=clipped)


def _denoise_plane(plane: np.ndarray, cfg: DenoiseConfig) -> np.ndarray:
    spec = get_wavelet(cfg.wavelet)
    z = dwt2d_interleaved(plane, spec)
    t = float(cfg.threshold)  # a NumPy scalar would set the dtype of the clip
    for detail in detail_views(z):
        np.subtract(detail, np.clip(detail, -t, t), out=detail)  # soft_shrink, in place
    return idwt2d_interleaved(z, spec, plane.shape)


def denoise_image(img, cfg: DenoiseConfig = DenoiseConfig()):
    """Denoise a grayscale matrix or a CHW multi-channel image.

    Channels are processed independently.  Float inputs are assumed to be on
    the [0,1] scale already; integer inputs are divided by 255, denoised, and
    returned as the same integer type (rounded and clipped).

    Raises:
        InvalidConfig: if any pixel is NaN or infinite.
    """
    arr = np.asarray(img)
    if arr.ndim not in (2, 3):
        raise ShapeMismatch(f"expected HW or CHW image, got shape {arr.shape}")

    integer_input = np.issubdtype(arr.dtype, np.integer)
    work = arr.astype(np.float64) / 255.0 if integer_input else arr
    if not integer_input and not np.isfinite(work).all():
        raise InvalidConfig("denoise_image needs finite pixel values")

    if work.ndim == 2:
        out = _denoise_plane(work, cfg)
    else:
        # one channel at a time: the transforms take a CHW stack too, but a
        # stack runs other BLAS kernels and can differ in the last bit
        out = np.stack([_denoise_plane(ch, cfg) for ch in work])

    if integer_input:
        info = np.iinfo(arr.dtype)
        return np.clip(np.rint(out * 255.0), info.min, info.max).astype(arr.dtype)
    return out
