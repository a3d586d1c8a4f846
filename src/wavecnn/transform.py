"""Wavelet transforms as truncated-matrix products, with exact backward passes.

For a signal of length N the analysis operators L and H are the rectangular
``floor(N/2) x N`` matrices whose row k carries the filter starting at column
2k; entries falling outside the signal are simply dropped (zero-extension
boundary semantics).  Reconstruction uses the transposed synthesis operators.
With truncation the round trip is exact only away from the boundaries, except
for Haar on even lengths where it is globally exact.

2D transforms apply the 1D operators to rows and columns:
``ll = L @ X @ L.T`` and so on, channel by channel for batched tensors.
Every forward has a matching vector-Jacobian product built from the same
matrices, so the layers in :mod:`wavecnn.layers` backpropagate exactly.

Evaluation is tiled-banded.  An operator row holds only ``taps`` nonzeros, so
the dense product of a 2D plane costs the cube of its side while the useful
work grows with the square.  Every public function goes through one
separable core that applies the stacked ``[L; H]`` (low and high rows
interleaved), or its transpose, along one axis in tiles of ``_TILE``
coefficient pairs.  Each tile multiplies one small cached block of that
operator against a strided window view of the input.  The interior tiles of
an axis run as one batched BLAS ``matmul`` on the input in place; the tiles
at its two ends read a zero-padded copy of the few samples they need.  A
side of at most ``2 * _TILE`` samples fits in one tile and takes the plain
dense product with a slice of the same block, with no padding at all.
:func:`build_operator` materializes the dense matrices; it is the reference
definition the core is tested against.

Every array a transform returns is C-contiguous and shares no memory with
its inputs, so callers may reshape it and write into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeMismatch, TooShort
from .filterbank import WaveletSpec

# Coefficient pairs per tile, chosen by measurement (see CHANGES.md).  Smaller
# tiles multiply fewer zeros, larger ones give BLAS bigger blocks; 8 and 16
# tie on 128-1024 px planes, and 16 keeps every feature map of the reference
# network (28 px and below) on the dense one-tile path.
_TILE = 16


@dataclass(frozen=True)
class AnalysisOperator:
    """Truncated analysis/synthesis matrices for one (wavelet, length) pair."""

    wavelet: WaveletSpec
    signal_length: int
    L: np.ndarray
    H: np.ndarray
    L_syn: np.ndarray
    H_syn: np.ndarray


def _place(coeffs, rows: int, cols: int) -> np.ndarray:
    """``rows x cols`` matrix whose row k holds ``coeffs`` from column 2k on."""
    mat = np.zeros((rows, cols))
    for k in range(rows):
        for j, c in enumerate(coeffs):
            col = 2 * k + j
            if col < cols:
                mat[k, col] = c
    return mat


def build_operator(spec: WaveletSpec, n: int) -> AnalysisOperator:
    """Materialize the four dense operator matrices for signal length ``n``.

    The transforms never build these; they are the reference definition of
    the truncated operators, against which the tiled core is checked.

    Raises:
        TooShort: if ``n < 2``.
    """
    if n < 2:
        raise TooShort(f"operator length must be >= 2, got {n}")
    rows = n // 2
    return AnalysisOperator(
        wavelet=spec,
        signal_length=n,
        L=_place(spec.analysis_low, rows, n),
        H=_place(spec.analysis_high, rows, n),
        L_syn=_place(spec.synthesis_low, rows, n),
        H_syn=_place(spec.synthesis_high, rows, n),
    )


class _Bank(NamedTuple):
    """Tile blocks of one filter pair, low and high rows interleaved.

    ``fwd`` is ``(2*tile, 2*tile + taps - 2)``: rows 2k and 2k+1 hold the low
    and high filters from column 2k.  Applied to a window of samples it gives
    ``tile`` interleaved coefficient pairs, and its top-left
    ``2*(n//2) x n`` corner is the whole stacked operator of a side
    ``n <= 2*tile``.  ``adj`` is ``(2*tile, 2*(tile + q))`` with
    ``q = (taps - 1) // 2``: one tile of the transposed operator, mapping the
    ``tile + q`` interleaved pairs that start ``q`` pairs before the tile to
    its ``2*tile`` samples.
    """

    fwd: np.ndarray
    adj: np.ndarray


@lru_cache(maxsize=None)
def _tiles(spec: WaveletSpec, tile: int, dtype_char: str):
    """``(analysis, synthesis)`` banks of tile blocks, read-only."""
    taps = len(spec.analysis_low)
    q = (taps - 1) // 2

    def bank(*pair):
        fwd = np.empty((2 * tile, 2 * tile + taps - 2))
        adj = np.empty((2 * tile, 2 * (tile + q)))
        for b, f in enumerate(pair):
            fwd[b::2] = _place(f, tile, 2 * tile + taps - 2)
            # adj[r, 2c + b] = f[r + 2q - 2c]: pair c is (tile start - q + c)
            adj[:, b::2] = _place(f, tile + q, 2 * (tile + q))[:, 2 * q:].T
        mats = [m.astype(dtype_char) for m in (fwd, adj)]
        for m in mats:
            m.setflags(write=False)
        return _Bank(*mats)

    return (bank(spec.analysis_low, spec.analysis_high),
            bank(spec.synthesis_low, spec.synthesis_high))


def _bank(spec: WaveletSpec, dt: np.dtype, synthesis: bool) -> _Bank:
    return _tiles(spec, _TILE, dt.char)[synthesis]


# --- the separable core: one axis (-1 or -2) at a time ---


def _span(axis: int, start: int, stop: int) -> tuple:
    """Index selecting ``start:stop`` along ``axis`` (-1 or -2)."""
    return (Ellipsis, slice(start, stop)) + (slice(None),) * (-1 - axis)


def _along(mat: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """Apply ``mat`` to axis -2 of ``x`` from the left or to axis -1 from the right."""
    if axis == -2:
        return np.matmul(mat, x)
    # one GEMM over all leading axes rather than one per row
    y = np.matmul(x.reshape(-1, x.shape[-1]), mat.T)
    return y.reshape(x.shape[:-1] + (mat.shape[0],))


def _windows(x: np.ndarray, axis: int, step: int, width: int, count: int):
    """Read-only view of ``count`` windows of ``width`` samples, ``step`` apart,
    from the start of ``x`` along ``axis``; the window axis goes just before it."""
    ax = x.ndim + axis
    st = x.strides
    return as_strided(x, x.shape[:ax] + (count, width) + x.shape[ax + 1:],
                      st[:ax] + (step * st[ax], st[ax]) + st[ax + 1:], writeable=False)


def _banded(mat: np.ndarray, x: np.ndarray, axis: int, front: int, length: int):
    """Apply along ``axis`` the banded operator that ``mat`` tiles.

    With ``mat`` of shape ``(s, w)``, output ``i*s + r`` (for ``i*s + r <
    length``) is ``sum_c mat[r, c] * x[i*s - front + c]``, reading ``x`` as
    zero outside its bounds.  The tiles whose window lies inside ``x`` run as
    one batched ``matmul`` on strided windows of ``x`` itself; the tiles at
    either end read a zero-padded copy of just the samples they need.
    """
    step, width = mat.shape
    count = -(-length // step)
    n = x.shape[axis]
    ax = x.ndim + axis
    out = np.empty(x.shape[:ax] + (count * step,) + x.shape[ax + 1:], x.dtype)
    first = -(-front // step)
    stop = max(first, min(count, (n + front - width) // step + 1))
    for begin, end in ((first, stop), (0, first), (stop, count)):
        if begin == end:
            continue
        start, size = begin * step - front, (end - begin - 1) * step + width
        if 0 <= start and start + size <= n:
            src = x[_span(axis, start, start + size)]
        else:
            src = np.zeros(x.shape[:ax] + (size,) + x.shape[ax + 1:], x.dtype)
            lo, hi = max(start, 0), min(start + size, n)
            src[_span(axis, lo - start, hi - start)] = x[_span(axis, lo, hi)]
        win = _windows(src, axis, step, width, end - begin)
        dest = out[_span(axis, begin * step, end * step)]
        dest = dest.reshape(dest.shape[:ax] + (end - begin, step) + dest.shape[ax + 1:])
        if axis == -2:
            np.matmul(mat, win, out=dest)
        else:
            np.matmul(win, mat.T, out=dest)
    return out[_span(axis, 0, length)]


def _analyze(x: np.ndarray, bank: _Bank, axis: int) -> np.ndarray:
    """``[L; H] @ x`` along ``axis``: n samples become ``(n//2, 2)`` pairs."""
    n = x.shape[axis]
    if n < 2:
        raise TooShort(f"transform length must be >= 2, got shape {x.shape}")
    h = n // 2
    if n <= 2 * _TILE:
        y = _along(bank.fwd[:2 * h, :n], x, axis)
    else:
        y = _banded(bank.fwd, x, axis, 0, 2 * h)
    ax = y.ndim + axis
    return y.reshape(y.shape[:ax] + (h, 2) + y.shape[ax + 1:])


def _synthesize(pairs: np.ndarray, bank: _Bank, axis: int, n: int) -> np.ndarray:
    """Transpose of :func:`_analyze`: ``(n//2, 2)`` pairs become n samples."""
    if n < 2:
        raise TooShort(f"transform length must be >= 2, got {n}")
    ax = pairs.ndim - 1 + axis
    c = pairs.reshape(pairs.shape[:ax] + (2 * pairs.shape[ax],) + pairs.shape[ax + 2:])
    if n <= 2 * _TILE:
        return _along(bank.fwd[:c.shape[axis], :n].T, c, axis)
    return _banded(bank.adj, c, axis, bank.adj.shape[1] - bank.adj.shape[0], n)


# (row band, column band) of ll, lh, hl, hh
_QUADRANTS = ((0, 0), (1, 0), (0, 1), (1, 1))


def _analysis2d(x: np.ndarray, bank: _Bank):
    """``(ll, lh, hl, hh)`` over the last two axes, rows first."""
    z = _analyze(_analyze(x, bank, -2), bank, -1)  # [..., h, 2, w, 2]
    return tuple(np.ascontiguousarray(z[..., r, :, c]) for r, c in _QUADRANTS)


def _synthesis2d(ll, lh, hl, hh, bank: _Bank, shape_hw) -> np.ndarray:
    """Transpose of :func:`_analysis2d`, onto spatial shape ``shape_hw``."""
    m, n = shape_hw
    z = np.empty(ll.shape[:-2] + (m // 2, 2, n // 2, 2), ll.dtype)
    for (r, c), band in zip(_QUADRANTS, (ll, lh, hl, hh)):
        z[..., r, :, c] = band
    y = _synthesize(z, bank, -1, n)  # [..., h, 2, n]
    return np.ascontiguousarray(_synthesize(y, bank, -2, m))


def _work_dtype(x: np.ndarray) -> np.dtype:
    # transforms run in the tensor's element type; anything non-float32
    # (ints, float64) computes in double
    return np.dtype(np.float32) if x.dtype == np.float32 else np.dtype(np.float64)


def _input(x, ndim: int, what: str) -> np.ndarray:
    """``x`` as an array of rank ``ndim``, in its work dtype."""
    X = np.asarray(x)
    if X.ndim != ndim:
        raise ShapeMismatch(f"expected {what}, got shape {X.shape}")
    return X.astype(_work_dtype(X), copy=False)


def _bands(bands, shape, ndim: int, what: str):
    """Subbands of rank ``ndim`` checked against the ``shape`` they came from,
    in one work dtype: float32 only if every band is float32, else float64
    (so no band is rounded to a coarser type); returns ``(bands, dtype)``."""
    want = tuple(d // 2 for d in shape)
    bands = [np.asarray(b) for b in bands]
    for b in bands:
        if b.ndim != ndim or b.shape[ndim - len(want):] != want or b.shape != bands[0].shape:
            raise ShapeMismatch(f"{what} shapes {[b.shape for b in bands]} do not match "
                                f"original shape {tuple(shape)} (need equal, ending {want})")
    dt = np.result_type(*(_work_dtype(b) for b in bands))
    return [b.astype(dt, copy=False) for b in bands], dt


# --- 1D ---


def dwt1d(signal, spec: WaveletSpec):
    """One analysis step: returns ``(L @ s, H @ s)``, each of length N//2."""
    s = _input(signal, 1, "a 1-D signal")
    pairs = _analyze(s, _bank(spec, s.dtype, synthesis=False), -1)
    return np.ascontiguousarray(pairs[:, 0]), np.ascontiguousarray(pairs[:, 1])


def idwt1d(low, high, spec: WaveletSpec, n: int) -> np.ndarray:
    """Synthesis step: ``L_syn.T @ low + H_syn.T @ high`` of length ``n``.

    ``n`` must be passed explicitly because ``N//2`` does not determine
    whether the original length was even or odd.
    """
    bands, dt = _bands((low, high), (n,), 1, "subband")
    return _synthesize(np.stack(bands, axis=-1), _bank(spec, dt, synthesis=True), -1, n)


def dwt1d_vjp(upstream_low, upstream_high, spec: WaveletSpec, n: int) -> np.ndarray:
    """Backward of :func:`dwt1d`: ``L.T @ g_low + H.T @ g_high``.

    Uses the analysis matrices (transposed), not the synthesis duals.
    """
    bands, dt = _bands((upstream_low, upstream_high), (n,), 1, "upstream")
    return _synthesize(np.stack(bands, axis=-1), _bank(spec, dt, synthesis=False), -1, n)


# --- 2D ---


@dataclass(frozen=True)
class Decomposition2D:
    """The four subbands of one 2D analysis step plus the original shape."""

    ll: np.ndarray
    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray
    original_shape: tuple

    def subbands(self):
        return self.ll, self.lh, self.hl, self.hh


def dwt2d(x, spec: WaveletSpec) -> Decomposition2D:
    """Single-level 2D analysis of a matrix.

    Row operators act from the left, column operators from the right:
    ``ll = L @ X @ L.T``, ``lh = H @ X @ L.T``, ``hl = L @ X @ H.T``,
    ``hh = H @ X @ H.T`` (lh carries the row high-pass).
    """
    X = _input(x, 2, "a matrix")
    return Decomposition2D(*_analysis2d(X, _bank(spec, X.dtype, synthesis=False)),
                           original_shape=X.shape)


def idwt2d(d: Decomposition2D, spec: WaveletSpec) -> np.ndarray:
    """Reconstruct a matrix of ``d.original_shape`` from its four subbands."""
    bands, dt = _bands(d.subbands(), d.original_shape, 2, "subband")
    return _synthesis2d(*bands, _bank(spec, dt, synthesis=True), d.original_shape)


def dwt2d_vjp(grads: Decomposition2D, spec: WaveletSpec) -> np.ndarray:
    """Backward of :func:`dwt2d`: routes subband gradients to the input.

    ``grads`` holds the upstream gradients of the four subbands together with
    the input shape; the result is
    ``L.T @ g_ll @ L + H.T @ g_lh @ L + L.T @ g_hl @ H + H.T @ g_hh @ H``
    built from the analysis matrices.
    """
    bands, dt = _bands(grads.subbands(), grads.original_shape, 2, "gradient")
    return _synthesis2d(*bands, _bank(spec, dt, synthesis=False), grads.original_shape)


def idwt2d_vjp(upstream, spec: WaveletSpec) -> Decomposition2D:
    """Backward of :func:`idwt2d`: the exact transpose of the synthesis map.

    ``upstream`` is the gradient at the reconstructed matrix; the returned
    decomposition holds the gradients of the four subbands,
    ``(Ls @ G @ Ls.T, Hs @ G @ Ls.T, Ls @ G @ Hs.T, Hs @ G @ Hs.T)``.
    """
    G = _input(upstream, 2, "a matrix")
    return Decomposition2D(*_analysis2d(G, _bank(spec, G.dtype, synthesis=True)),
                           original_shape=G.shape)


# --- batched NCHW ---


def dwt2d_batch(x, spec: WaveletSpec):
    """Channel-by-channel 2D analysis of an NCHW tensor.

    Returns the four subband tensors ``(ll, lh, hl, hh)``, each of shape
    ``[N, C, H//2, W//2]``.
    """
    X = _input(x, 4, "an NCHW tensor")
    return _analysis2d(X, _bank(spec, X.dtype, synthesis=False))


def idwt2d_batch(ll, lh, hl, hh, spec: WaveletSpec, shape_hw: tuple) -> np.ndarray:
    """Reconstruct an NCHW tensor of spatial shape ``shape_hw`` from subbands."""
    bands, dt = _bands((ll, lh, hl, hh), shape_hw, 4, "subband")
    return _synthesis2d(*bands, _bank(spec, dt, synthesis=True), shape_hw)


def dwt2d_batch_vjp(gll, glh, ghl, ghh, spec: WaveletSpec, shape_hw: tuple) -> np.ndarray:
    """Backward of :func:`dwt2d_batch` for NCHW subband gradients."""
    bands, dt = _bands((gll, glh, ghl, ghh), shape_hw, 4, "gradient")
    return _synthesis2d(*bands, _bank(spec, dt, synthesis=False), shape_hw)
