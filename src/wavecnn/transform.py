"""Wavelet transforms as truncated-matrix products, with exact backward passes.

For a signal of length N the analysis operators L and H are the rectangular
``floor(N/2) x N`` matrices whose row k carries the filter starting at column
2k; entries falling outside the signal are simply dropped (zero-extension
boundary semantics).  Reconstruction uses the transposed synthesis operators.
With truncation the round trip is exact only away from the boundaries, except
for Haar on even lengths where it is globally exact.

2D transforms apply the 1D operators to rows and columns:
``ll = L @ X @ L.T`` and so on.  Every transform works on the last axis (1D)
or the last two (2D) and treats any leading axes as a stack: a signal or a
stack of signals, a matrix or an NCHW tensor, plane by plane.
:func:`lowpass2d` applies one such operator, built from any 1-D filter,
along both sides; the ll band, 2x2 average pooling and the mean of
the four subbands are that product with three different filters.
Every forward has a matching vector-Jacobian product built from the same
matrices, so the layers in :mod:`wavecnn.layers` backpropagate exactly.

Evaluation is tiled-banded.  An operator row holds only ``taps`` nonzeros, so
the dense product of a 2D plane costs the cube of its side while the useful
work grows with the square.  Every public function goes through one
separable core that applies a bank of one filter, or of two with their rows
interleaved (the stacked ``[L; H]``), or its transpose, along one axis in
tiles of ``_TILE`` coefficients per filter.  Each tile multiplies one small
cached block of that operator against a window view of the input, built
straight on the input's buffer.  The interior tiles of an axis run as one
batched ``matmul`` on the input in place (on a C-contiguous copy of a
strided input); the tiles at its two ends read a zero-padded copy of the
few samples they need.  Along the columns (axis -2) every tile is a BLAS
GEMM.  Along the rows (axis -1) the windows of adjacent tiles overlap once
the filter has more than two taps (db4, ch3.3), and NumPy multiplies such
views in its own loop rather than in BLAS; a run of one tile there is a
single 2-D GEMM.  A side of at most ``2 * _TILE`` samples fits in one tile
and takes the plain dense product with a slice of the same block, with no
padding at all.

A 2D analysis leaves each plane's four subbands interleaved in one array:
coefficient ``(i, j)`` of ll, lh, hl and hh sits at ``(2i, 2j)``,
``(2i+1, 2j)``, ``(2i, 2j+1)`` and ``(2i+1, 2j+1)``.  :func:`dwt2d` splits
that array into bands and :func:`idwt2d` merges bands back into one before
synthesis; :func:`dwt2d_interleaved` and :func:`idwt2d_interleaved` hand
the array itself over, which is how :mod:`wavecnn.denoise` shrinks the
detail coefficients in place.

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

from .errors import ShapeMismatch, TooShort
from .filterbank import WaveletSpec

# Coefficients per filter and tile, chosen by measurement (see CHANGES.md).
# Smaller tiles multiply fewer zeros, larger ones give BLAS bigger blocks; 8
# and 16 tie on 128-1024 px planes, and 16 keeps every feature map of the
# reference network (28 px and below) on the dense one-tile path.
_TILE = 16


@dataclass(frozen=True)
class AnalysisOperator:
    """Truncated analysis/synthesis matrices for one (wavelet, length) pair."""

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
        L=_place(spec.analysis_low, rows, n),
        H=_place(spec.analysis_high, rows, n),
        L_syn=_place(spec.synthesis_low, rows, n),
        H_syn=_place(spec.synthesis_high, rows, n),
    )


class _Bank(NamedTuple):
    """Tile blocks of one filter, or of two with their rows interleaved.

    With ``b`` filters of ``taps`` coefficients, ``fwd`` is ``(b*tile,
    2*tile + taps - 2)``: row ``b*k + j`` holds filter j from column 2k.
    Applied to a window of samples it gives ``tile`` coefficients of each
    filter, interleaved, and its top-left ``b*(n//2) x n`` corner is the
    whole operator of a side ``n <= 2*tile``.  ``adj`` is ``(2*tile,
    b*(tile + q))`` with ``q = (taps - 1) // 2``: one tile of the transposed
    operator, mapping the ``tile + q`` coefficients of each filter that start
    ``q`` before the tile to its ``2*tile`` samples.
    """

    fwd: np.ndarray
    adj: np.ndarray
    filters: int


@lru_cache(maxsize=None)
def _tiles(filters: tuple, dtype_char: str) -> _Bank:
    """Read-only bank of ``_TILE`` blocks for a tuple of one or two filters."""
    b, taps, tile = len(filters), len(filters[0]), _TILE
    q = (taps - 1) // 2
    fwd = np.empty((b * tile, 2 * tile + taps - 2))
    adj = np.empty((2 * tile, b * (tile + q)))
    for j, f in enumerate(filters):
        fwd[j::b] = _place(f, tile, 2 * tile + taps - 2)
        # adj[r, b*c + j] = f[r + 2q - 2c]: coefficient c is (tile start - q + c)
        adj[:, j::b] = _place(f, tile + q, 2 * (tile + q))[:, 2 * q:].T
    mats = [m.astype(dtype_char) for m in (fwd, adj)]
    for m in mats:
        m.setflags(write=False)
    return _Bank(*mats, b)


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


def _windows(x: np.ndarray, axis: int, start: int, step: int, width: int, count: int):
    """View of ``count`` windows of ``width`` samples, ``step`` apart, from
    sample ``start`` of the C-contiguous ``x`` along ``axis``; the window axis
    goes just before it.  The windows may overlap, so the view is only ever
    read.  It is built straight on ``x``'s buffer, a few times cheaper than
    ``as_strided``."""
    ax = x.ndim + axis
    st = x.strides
    return np.ndarray(x.shape[:ax] + (count, width) + x.shape[ax + 1:], x.dtype, x,
                      start * st[ax], st[:ax] + (step * st[ax], st[ax]) + st[ax + 1:])


def _banded(mat: np.ndarray, x: np.ndarray, axis: int, front: int, length: int,
            advance: int):
    """Apply along ``axis`` the banded operator that ``mat`` tiles.

    With ``mat`` of shape ``(s, w)``, output ``i*s + r`` (for ``i*s + r <
    length``) is ``sum_c mat[r, c] * x[i*advance - front + c]``, reading
    ``x`` as zero outside its bounds.  The tiles whose window lies inside
    ``x`` run as one batched ``matmul`` on windows of a C-contiguous ``x``;
    the tiles at either end read a zero-padded copy of just the samples they
    need, and the last one writes through a scratch tile if it runs past
    ``length``.  Along the last axis the leading axes fold into rows, so a
    segment of one tile is a single 2-D GEMM.  The result is C-contiguous.
    """
    step, width = mat.shape
    count = -(-length // step)
    n = x.shape[axis]
    result = np.empty(x.shape[:x.ndim + axis] + (length,) + x.shape[x.ndim + axis + 1:],
                      x.dtype)
    if not result.size:  # no buffer to build windows on
        return result
    x, out = np.ascontiguousarray(x), result  # the windows address x's buffer
    if axis == -1:  # the leading axes fold into rows
        x, out = x.reshape(-1, n), out.reshape(-1, length)
    ax = x.ndim + axis
    first = -(-front // advance)
    stop = max(first, min(count, (n + front - width) // advance + 1))
    for begin, end in ((first, stop), (0, first), (stop, count)):
        if begin == end:
            continue
        start, size = begin * advance - front, (end - begin - 1) * advance + width
        src, offset = x, start
        if start < 0 or start + size > n:
            src, offset = np.zeros(x.shape[:ax] + (size,) + x.shape[ax + 1:], x.dtype), 0
            lo, hi = max(start, 0), min(start + size, n)
            src[_span(axis, lo - start, hi - start)] = x[_span(axis, lo, hi)]
        win = _windows(src, axis, offset, advance, width, end - begin)
        out_lo, out_hi = begin * step, min(end * step, length)
        dest = out[_span(axis, out_lo, out_hi)]
        if out_hi - out_lo < (end - begin) * step:  # the last tile runs past ``length``
            dest = np.empty(x.shape[:ax] + ((end - begin) * step,) + x.shape[ax + 1:], x.dtype)
        if axis == -2:
            np.matmul(mat, win, out=dest.reshape(dest.shape[:ax] + (end - begin, step)
                                                 + dest.shape[ax + 1:]))
        elif end - begin == 1:  # one GEMM, not a matrix-vector product per row
            np.matmul(win[:, 0], mat.T, out=dest)
        else:
            np.matmul(win, mat.T, out=dest.reshape(-1, end - begin, step))
        if dest.shape[axis] > out_hi - out_lo:
            out[_span(axis, out_lo, out_hi)] = dest[_span(axis, 0, out_hi - out_lo)]
    return result


def _analyze(x: np.ndarray, bank: _Bank, axis: int) -> np.ndarray:
    """The bank's operator along ``axis``: n samples become ``n//2``
    coefficients of each filter, interleaved.  Any leading axes are a stack."""
    if x.ndim < -axis:
        raise ShapeMismatch(f"expected at least {-axis} axes, got shape {x.shape}")
    n = x.shape[axis]
    if n < 2:
        raise TooShort(f"transform length must be >= 2, got shape {x.shape}")
    rows = bank.filters * (n // 2)
    if n <= 2 * _TILE:
        return _along(bank.fwd[:rows, :n], x, axis)
    return _banded(bank.fwd, x, axis, 0, rows, 2 * _TILE)


def _synthesize(coeffs: np.ndarray, bank: _Bank, axis: int, n: int) -> np.ndarray:
    """Transpose of :func:`_analyze`: interleaved coefficients become n samples."""
    if n < 2:
        raise TooShort(f"transform length must be >= 2, got {n}")
    if n <= 2 * _TILE:
        return _along(bank.fwd[:coeffs.shape[axis], :n].T, coeffs, axis)
    advance = bank.filters * _TILE  # coefficients per tile
    return _banded(bank.adj, coeffs, axis, bank.adj.shape[1] - advance, n, advance)


# (row band, column band) of ll, lh, hl, hh: band (r, c) sits at rows r::2
# and columns c::2 of the interleaved coefficients
_QUADRANTS = ((0, 0), (1, 0), (0, 1), (1, 1))


def _analysis2d(x, filters: tuple) -> np.ndarray:
    """The operator of the bank ``filters`` over the last two axes, rows
    first: each plane becomes one array of interleaved coefficients."""
    X = _input(x)
    bank = _tiles(filters, X.dtype.char)
    return _analyze(_analyze(X, bank, -2), bank, -1)


def _synthesis2d(z: np.ndarray, filters: tuple, shape_hw) -> np.ndarray:
    """Transpose of :func:`_analysis2d`, onto spatial shape ``shape_hw``."""
    m, n = shape_hw
    bank = _tiles(filters, z.dtype.char)
    return _synthesize(_synthesize(z, bank, -1, n), bank, -2, m)


def _split(z: np.ndarray):
    """``(ll, lh, hl, hh)`` of interleaved coefficients, each C-contiguous."""
    return tuple(np.ascontiguousarray(z[..., r::2, c::2]) for r, c in _QUADRANTS)


def _merge(bands) -> np.ndarray:
    """The interleaved coefficients of four equal subbands."""
    ll = bands[0]
    z = np.empty(ll.shape[:-2] + (2 * ll.shape[-2], 2 * ll.shape[-1]), ll.dtype)
    for (r, c), band in zip(_QUADRANTS, bands):
        z[..., r::2, c::2] = band
    return z


def _work_dtype(x: np.ndarray) -> np.dtype:
    # transforms run in the tensor's element type; anything non-float32
    # (ints, float64) computes in double
    return np.dtype(np.float32) if x.dtype == np.float32 else np.dtype(np.float64)


def _input(x) -> np.ndarray:
    """``x`` as an array in its work dtype; :func:`_analyze` checks that it
    has the axes it transforms."""
    X = np.asarray(x)
    return X.astype(_work_dtype(X), copy=False)


def _bands(bands, shape) -> list:
    """Equal subbands whose last ``len(shape)`` axes are half of ``shape``,
    the spatial shape they came from, in one work dtype: float32 only if
    every band is float32, else float64 (so no band is rounded to a coarser
    type)."""
    want = tuple(d // 2 for d in shape)
    bands = [np.asarray(b) for b in bands]
    for b in bands:
        if b.shape[-len(want):] != want or b.shape != bands[0].shape:
            raise ShapeMismatch(f"subband shapes {[b.shape for b in bands]} do not match "
                                f"original shape {tuple(shape)} (need equal, ending {want})")
    dt = np.result_type(*(_work_dtype(b) for b in bands))
    return [b.astype(dt, copy=False) for b in bands]


# --- 1D ---


def dwt1d(signal, spec: WaveletSpec):
    """One analysis step along the last axis: returns ``(L @ s, H @ s)``, each
    of length N//2, for a signal or a stack of them."""
    s = _input(signal)
    coeffs = _analyze(s, _tiles((spec.analysis_low, spec.analysis_high), s.dtype.char), -1)
    return np.ascontiguousarray(coeffs[..., 0::2]), np.ascontiguousarray(coeffs[..., 1::2])


def _synthesis1d(low, high, filters: tuple, n: int) -> np.ndarray:
    """Interleave two coefficient bands, then apply the transpose of the
    bank ``filters``: the body of :func:`idwt1d` and :func:`dwt1d_vjp`."""
    bands = _bands((low, high), (n,))
    coeffs = np.stack(bands, axis=-1).reshape(bands[0].shape[:-1] + (2 * (n // 2),))
    return _synthesize(coeffs, _tiles(filters, coeffs.dtype.char), -1, n)


def idwt1d(low, high, spec: WaveletSpec, n: int) -> np.ndarray:
    """Synthesis step: ``L_syn.T @ low + H_syn.T @ high`` of length ``n``.

    ``n`` must be passed explicitly because ``N//2`` does not determine
    whether the original length was even or odd.
    """
    return _synthesis1d(low, high, (spec.synthesis_low, spec.synthesis_high), n)


def dwt1d_vjp(upstream_low, upstream_high, spec: WaveletSpec, n: int) -> np.ndarray:
    """Backward of :func:`dwt1d`: ``L.T @ g_low + H.T @ g_high``.

    Uses the analysis matrices (transposed), not the synthesis duals.
    """
    return _synthesis1d(upstream_low, upstream_high, (spec.analysis_low, spec.analysis_high), n)


# --- 2D ---


@dataclass(frozen=True)
class Decomposition2D:
    """The four subbands of one 2D analysis step plus the spatial ``(H, W)``
    they came from; the bands of a stack share its leading axes."""

    ll: np.ndarray
    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray
    original_shape: tuple

    def __post_init__(self):
        if len(self.original_shape) != 2:
            raise ShapeMismatch(f"original_shape must be (H, W), got {self.original_shape}")

    def subbands(self):
        return self.ll, self.lh, self.hl, self.hh


def _decompose(x, filters: tuple) -> Decomposition2D:
    """Analyse, then split: the body of :func:`dwt2d` and :func:`idwt2d_vjp`."""
    return Decomposition2D(*_split(_analysis2d(x, filters)), original_shape=np.shape(x)[-2:])


def _compose(d: Decomposition2D, filters: tuple) -> np.ndarray:
    """Merge, then synthesise: the body of :func:`idwt2d` and :func:`dwt2d_vjp`."""
    return _synthesis2d(_merge(_bands(d.subbands(), d.original_shape)), filters,
                        d.original_shape)


def dwt2d(x, spec: WaveletSpec) -> Decomposition2D:
    """Single-level 2D analysis of a matrix or of a stack of them (NCHW).

    Row operators act from the left, column operators from the right:
    ``ll = L @ X @ L.T``, ``lh = H @ X @ L.T``, ``hl = L @ X @ H.T``,
    ``hh = H @ X @ H.T`` (lh carries the row high-pass).
    """
    return _decompose(x, (spec.analysis_low, spec.analysis_high))


def idwt2d(d: Decomposition2D, spec: WaveletSpec) -> np.ndarray:
    """Reconstruct planes of ``d.original_shape`` from their four subbands."""
    return _compose(d, (spec.synthesis_low, spec.synthesis_high))


def dwt2d_interleaved(x, spec: WaveletSpec) -> np.ndarray:
    """:func:`dwt2d` with its subbands left interleaved in one array.

    For an ``m x n`` matrix the result is ``2*(m//2) x 2*(n//2)``, with ll
    at ``[0::2, 0::2]``, lh at ``[1::2, 0::2]``, hl at ``[0::2, 1::2]`` and
    hh at ``[1::2, 1::2]``.  It is the array :func:`dwt2d` splits, so a
    caller can change the coefficients in place and hand the array to
    :func:`idwt2d_interleaved` without splitting and merging the bands.
    """
    return _analysis2d(x, (spec.analysis_low, spec.analysis_high))


def idwt2d_interleaved(z, spec: WaveletSpec, shape_hw: tuple) -> np.ndarray:
    """Reconstruct ``shape_hw`` planes from the interleaved subbands of
    :func:`dwt2d_interleaved`."""
    Z = _input(z)
    if Z.shape[-2:] != tuple(d - d % 2 for d in shape_hw):
        raise ShapeMismatch(f"interleaved subbands of shape {Z.shape} do not match "
                            f"original shape {tuple(shape_hw)}")
    return _synthesis2d(Z, (spec.synthesis_low, spec.synthesis_high), shape_hw)


def detail_views(z: np.ndarray):
    """Writable views of every lh, hl and hh coefficient of the interleaved
    array ``z`` and of no ll one: its odd rows (lh and hh) and the odd
    columns of its even rows (hl)."""
    return z[..., 1::2, :], z[..., ::2, 1::2]


def dwt2d_vjp(grads: Decomposition2D, spec: WaveletSpec) -> np.ndarray:
    """Backward of :func:`dwt2d`: routes subband gradients to the input.

    ``grads`` holds the upstream gradients of the four subbands together with
    the input's spatial shape; the result is
    ``L.T @ g_ll @ L + H.T @ g_lh @ L + L.T @ g_hl @ H + H.T @ g_hh @ H``
    built from the analysis matrices.
    """
    return _compose(grads, (spec.analysis_low, spec.analysis_high))


def idwt2d_vjp(upstream, spec: WaveletSpec) -> Decomposition2D:
    """Backward of :func:`idwt2d`: the exact transpose of the synthesis map.

    ``upstream`` is the gradient at the reconstructed planes; the returned
    decomposition holds the gradients of the four subbands,
    ``(Ls @ G @ Ls.T, Hs @ G @ Ls.T, Ls @ G @ Hs.T, Hs @ G @ Hs.T)``.
    """
    return _decompose(upstream, (spec.synthesis_low, spec.synthesis_high))


def lowpass2d(x, taps) -> np.ndarray:
    """``F @ X @ F.T`` per plane, height pass first.

    ``F`` is the ``floor(n/2) x n`` operator of the 1-D filter ``taps``,
    truncated like ``L``: row k holds the filter from column 2k.  With
    ``spec.analysis_low`` this is the ll band of :func:`dwt2d`; with
    ``(1/2, 1/2)`` it is 2x2 average pooling, and with ``(L + H) / 2`` the
    mean of the four subbands, since ``ll + lh + hl + hh = (L+H) X (L+H).T``.
    """
    return _analysis2d(x, (tuple(taps),))


def lowpass2d_vjp(g, taps, shape_hw: tuple) -> np.ndarray:
    """Backward of :func:`lowpass2d`: ``F.T @ G @ F`` per plane, width pass
    first, onto spatial shape ``shape_hw``."""
    (G,) = _bands((g,), shape_hw)
    return _synthesis2d(G, (tuple(taps),), shape_hw)
