"""From-scratch network layers over NCHW numpy tensors.

Every layer offers ``forward(x, training)`` and ``backward(grad)``, where
backward is the exact adjoint of the forward linearization; the gradient
suite checks each one against central finite differences.  Both live on
``Layer`` and hold the one state rule.  ``forward`` checks ``x`` with
``output_shape`` and calls ``_forward(x, training)``, which returns ``(out,
state)``: what backward will need.  A training forward (``training=True``)
keeps that state in the one slot ``_state``, so a layer instance is used by
one training loop at a time; an inference forward keeps ``None`` there.
``backward`` passes the kept state to ``_backward(grad, state)`` and raises
``InvalidConfig`` when there is none, as after an inference forward.  A new
layer implements ``output_shape``, ``_forward`` and ``_backward``, and names
itself for error messages in ``who``.  The states:

- ``Conv2d``: its zero-padded batch-last input ``(C_in, H+2p, W+2p, N)``
  and the input shape.  No pass builds the whole im2col matrix
  ``(C_in*k*k, Ho*Wo*N)``, k*k times the input: forward, the weight
  gradient and the input gradient each walk the output rows in chunks of
  at most ``_SCRATCH`` bytes of columns (at least one row), and use each
  chunk while it is still in cache.  The matrix's rows run over (input
  channel, kernel row, kernel column) and its columns over (output row,
  output column, image): the batch is the fastest axis, so a chunk is one
  copy of a window view on the padded input, in runs of ``Wo*N`` samples
  at stride 1 and of ``N`` at stride 2, and a chunk's gradient columns are
  one contiguous column range.  Forward writes each chunk's product
  straight into a batch-last ``(C_out, Ho, Wo, N)`` buffer and returns
  its NCHW view; backward returns the input gradient as a view of a
  batch-last ``(C_in, H, W, N)`` buffer.
- ``BatchNorm2d``: the normalized input ``xhat`` and ``1/sqrt(var + eps)``
  per channel.
- ``ReLU``: the boolean mask ``x > 0``.
- ``MaxPool2``: three boolean masks per output (a beats b, c beats d, the
  top pair beats the bottom pair of each 2x2 window) and the input shape.
- ``AvgPool2``, ``PadToEven``, ``WaveletDown``: shapes only; ``Flatten``:
  its input's shape and memory order; ``Dense``: its input.

A forward drops the state of an earlier forward before it computes, so an
evaluated model holds no activations; ``Model.backward`` also drops each
layer's state once its backward has read it.  The ``_forward`` of an
inference forward computes its output and nothing else: it builds no mask
and keeps no padded input or ``xhat``.  Its output keeps its bits:
BatchNorm applies the running statistics with the same operations in the
same order, and max pooling runs the same knockout.  An inference
``Conv2d`` holds its padded input, its output and one chunk of columns, and
frees the padded input on return.  This keeps an inference forward's peak
near one block's activations, which matters because
``Model.predict_logits`` runs one block per usable CPU.

Both passes keep the conv's batch-last layout: every activation and every
gradient from the first conv to ``Flatten`` is an NCHW view of a batch-last
buffer.  The rule: every backward returns its gradient in the memory order
of its forward's input, and every forward after a conv follows its input's
order.  BatchNorm, ReLU and max pooling allocate in their input's order,
``PadToEven`` pads into a buffer of that order and crops a view, and the
low-pass layers and ``WaveletDown("cat")`` run both directions along axis
-2 of the batch-last memory, where every tile is a BLAS GEMM
(``transform._batch_last`` states that rule once).  ``Flatten`` copies to
C order for ``Dense`` and copies the gradient back into its input's order.
The one exception is ``Conv2d``, whose backward always returns batch-last:
only the first layer of a model sees C-contiguous images, and training
never computes that layer's input gradient.  Each layer's forward and
backward give the bits they give on C-contiguous arrays, except where
OpenBLAS multiplies one plane's columns with another kernel than a whole
batch's: a float64 low-pass or cat on a 28 px map agrees to rounding.

The model's inference pass (``Model.forward(training=False)``) runs no
BatchNorm on its own: :func:`folded_forward`, here, runs each conv with
the BatchNorm after it folded into its weight and bias, rebuilt from the
live parameters on every call, and the ReLU after them in place.  Its
output rounds differently from the layers' own forwards, which keep their
bits as above.

``AvgPool2``, ``WaveletDown("ll")`` and ``WaveletDown("avg")`` share one
``_forward`` and ``_backward``, a separable low-pass filter and stride-2
sampling per side (``_LowPassDown``); the window mean and the subband mean
are matched to rounding, not bit for bit.

No layer reads NaN specially.  ``ReLU`` returns ``max(x, 0)``, which passes
NaN on instead of mapping it to 0, so a NaN that enters training reaches the
loss and ``train`` stops with ``DivergedLoss``.  On finite input ``ReLU``
and ``MaxPool2`` equal ``np.where(x > 0, x, 0)`` and the first row-major
argmax of each window bit for bit, signs of zero included; the tests keep
those formulations as references.

Each layer states what it accepts once, in ``output_shape``: shapes are
per-image, (C, H, W) tuples before flatten and (F,) after.  ``forward``
checks every input by calling it on ``x.shape[1:]``, and
:mod:`wavecnn.complexity`, which holds every multiply-add count, traces a
model through it.  A dim may be ``None``, unknown: checks run only on known
dims and an output dim that depends on an unknown one is unknown.  So
``Conv2d`` and ``BatchNorm2d`` pin the channel count, ``WaveletDown("cat")``
gives ``4*C`` or ``None``, ``Flatten`` gives ``(None,)`` unless every dim is
known, and ``Dense`` takes ``(None,)``.  :mod:`wavecnn.network` checks that a
config's layers chain by tracing ``(None, None, None)`` through them, since
images of any size may come in.

Each layer with state declares it once, as names and shapes:
``param_shapes`` for the learnable arrays (the gradient of ``weight`` is
``grad_weight``) and ``buffer_shapes`` for what else a checkpoint keeps
(BatchNorm's running statistics).  ``params``, ``buffers`` and ``init_params``
read the declaration, and so do the model's state-value limit and the
checkpoint loader, which therefore need no allocated arrays.  A layer holds
its arrays as attributes of those names once ``init_params`` or the loader
has set them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidConfig, OddSpatial, ShapeMismatch
from .filterbank import get_wavelet
from .transform import (_QUADRANTS, Decomposition2D, dwt2d_interleaved, dwt2d_vjp,
                        lowpass2d, lowpass2d_vjp)


class Layer:
    """Base layer: no parameters; holds the backward-state rule."""

    _state = None  # what the last training forward kept for backward

    def param_shapes(self) -> dict:
        """Name -> shape of each learnable array; the gradient of ``name``
        is kept as ``grad_<name>``."""
        return {}

    def buffer_shapes(self) -> dict:
        """Name -> shape of each non-learnable array a checkpoint keeps."""
        return {}

    def _initial(self, name: str, shape: tuple, rng: np.random.Generator) -> np.ndarray:
        """The initial value of state array ``name``."""
        raise NotImplementedError

    def init_params(self, rng: np.random.Generator, dtype) -> None:
        """Set every declared array to its initial value, drawing from ``rng``
        in declaration order."""
        for name, shape in {**self.param_shapes(), **self.buffer_shapes()}.items():
            setattr(self, name, self._initial(name, shape, rng).astype(dtype))

    def params(self) -> dict:
        return {name: getattr(self, name) for name in self.param_shapes()}

    def buffers(self) -> dict:
        return {name: getattr(self, name) for name in self.buffer_shapes()}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self.output_shape(x.shape[1:])
        self._state = None  # free the last state before this forward allocates
        out, state = self._forward(x, training)
        self._state = state if training else None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self._backward(grad, self._saved())

    def _saved(self):
        """The state a training forward kept for backward; raises if there is none."""
        if self._state is None:
            raise InvalidConfig(f"{self.who} backward needs a training forward first "
                                "(an inference forward keeps no backward state)")
        return self._state

    def _forward(self, x: np.ndarray, training: bool) -> tuple:
        """``(output, state for backward)``; ``forward`` keeps the state only
        when training, so inference need not build it."""
        raise NotImplementedError

    def _backward(self, grad: np.ndarray, state) -> np.ndarray:
        raise NotImplementedError

    def _param_backward(self, grad: np.ndarray) -> None:
        """Fill the parameter gradients from ``grad``; the input gradient may
        go uncomputed.  For the first layer of a model."""
        self.backward(grad)

    def output_shape(self, in_shape: tuple) -> tuple:
        """The per-image output shape for ``in_shape``; raises
        ``ShapeMismatch``/``OddSpatial`` on an input the layer rejects."""
        return tuple(in_shape)


def _require_chw(in_shape, who: str, channels: int | None = None) -> tuple:
    if len(in_shape) != 3:
        raise ShapeMismatch(f"{who} expects a (C,H,W) input shape, got {in_shape}")
    if None not in (channels, in_shape[0]) and in_shape[0] != channels:
        raise ShapeMismatch(f"{who} declared {channels} input channels "
                            f"but input shape is {in_shape}")
    return tuple(in_shape)


def _known(fn, dims) -> tuple:
    """``fn`` of each dim, keeping unknown (``None``) dims unknown."""
    return tuple(None if d is None else fn(d) for d in dims)


def _uniform(fan_in: int, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


# Bytes of im2col columns that one chunk of output rows may fill; a chunk
# holds at least one row (Conv2d._chunks).  Swept over the eight mini_config
# convs (f32, batch 64, one BLAS thread, a 2-vCPU Xeon with 2 MiB of L2 per
# core, interleaved with whole matrices), forward/backward ms summed:
# 40.2/72.5 at 1 MiB, 39.7/72.7 at 2, 37.8/72.5 at 4 and 36.3/73.2 at 8,
# against 40.2/74.4.  The tracemalloc peak of one 64-image step (max_pool /
# dwt_cat): 12.7/20.9, 14.2/20.9, 16.7/24.9 and 17.5/31.4 MiB, against
# 17.5/46.3.  2 MiB keeps the dwt_cat peak at its floor and a chunk within
# one core's L2; 400-image dwt_cat inference took 113.5 ms at 1 MiB and
# 107.8 ms at 2.
_SCRATCH = 2 * 2**20


class Conv2d(Layer):
    """Same-padded cross-correlation with a square odd kernel, stride 1 or 2."""

    who = "conv"

    def __init__(self, kernel: int, c_in: int, c_out: int, stride: int = 1):
        if kernel % 2 != 1 or kernel < 1:
            raise ShapeMismatch(f"kernel size must be odd and positive, got {kernel}")
        if stride not in (1, 2):
            raise ShapeMismatch(f"stride must be 1 or 2, got {stride}")
        if min(c_in, c_out) < 1:
            raise ShapeMismatch(f"conv channels must be >= 1, got {c_in} -> {c_out}")
        self.kernel = kernel
        self.c_in = c_in
        self.c_out = c_out
        self.stride = stride

    def param_shapes(self):
        k = self.kernel
        return {"weight": (self.c_out, self.c_in, k, k), "bias": (self.c_out,)}

    def _initial(self, name, shape, rng):
        return _uniform(self.c_in * self.kernel * self.kernel, shape, rng)

    def _windows(self, xp, ho, wo):
        """The view ``(C_in, k, k, Ho, Wo, N)`` of the padded batch-last ``xp``
        whose element ``(c, ki, kj, i, j, n)`` is ``xp[c, s*i + ki, s*j + kj,
        n]``, built straight on ``xp``'s buffer as ``transform._windows`` builds
        its views.  The taps overlap, so it is only read, or added to one tap
        at a time."""
        k, s, st = self.kernel, self.stride, xp.strides
        return np.ndarray((self.c_in, k, k, ho, wo, xp.shape[-1]), xp.dtype, xp, 0,
                          st[:3] + (s * st[1], s * st[2], st[3]))

    def _chunks(self, ho, wo, n, itemsize):
        """Output-row ranges ``(r0, r1)``, each as many rows as fit their
        im2col columns in ``_SCRATCH`` bytes, and at least one; an empty
        batch takes every row in one chunk."""
        row = self.c_in * self.kernel * self.kernel * wo * n * itemsize
        step = max(1, _SCRATCH // max(row, 1))
        return [(r, min(r + step, ho)) for r in range(0, ho, step)]

    def _cols(self, xp, ho, wo):
        """Yield ``(r0, r1, cols)`` per chunk of output rows: ``cols`` is the
        im2col matrix ``(C_in*k*k, (r1-r0)*Wo*N)`` of rows ``r0:r1``, one copy
        of a window view into one buffer that every chunk reuses, so it is
        overwritten by the next chunk."""
        win = self._windows(xp, ho, wo)
        chunks = self._chunks(ho, wo, xp.shape[-1], xp.itemsize)
        rows = max((r1 - r0 for r0, r1 in chunks), default=0)
        buf = np.empty(win[:, :, :, :rows].size, xp.dtype)
        for r0, r1 in chunks:
            part = win[:, :, :, r0:r1]
            cols = buf[:part.size].reshape(part.shape)
            np.copyto(cols, part)
            yield r0, r1, cols.reshape(self.c_in * self.kernel ** 2, -1)

    def _padded(self, x):
        """``x`` zero-padded batch-last, ``(C_in, H+2p, W+2p, N)``, so a
        stride-1 tap copies runs of ``Wo*N`` samples."""
        n, _, h, w = x.shape
        p = self.kernel // 2
        xp = np.zeros((self.c_in, h + 2 * p, w + 2 * p, n), dtype=x.dtype)
        xp[:, p:p + h, p:p + w] = x.transpose(1, 2, 3, 0)
        return xp

    def _product(self, x, weight, bias):
        """``(y, xp)``: the output for ``x`` of this conv with ``weight`` and
        ``bias`` in place of its own, an NCHW view of a batch-last ``(C_out,
        Ho, Wo, N)`` buffer, and the padded input it was computed from.  Each
        chunk's product is written straight into its columns of that buffer
        and takes the bias there."""
        _, ho, wo = self.output_shape(x.shape[1:])
        n = x.shape[0]
        m = wo * n  # columns per output row
        xp = self._padded(x)
        y = np.empty((self.c_out, ho * m), dtype=np.result_type(weight, x))
        weight = weight.reshape(self.c_out, -1)
        for r0, r1, cols in self._cols(xp, ho, wo):
            out = y[:, r0 * m:r1 * m]
            np.matmul(weight, cols, out=out)
            out += bias[:, None]
        return y.reshape(self.c_out, ho, wo, n).transpose(3, 0, 1, 2), xp

    def _forward(self, x, training):
        y, xp = self._product(x, self.weight, self.bias)
        return y, (xp, x.shape)

    def _param_backward(self, grad):
        """Fill ``grad_weight``/``grad_bias``; returns the batch-last gradient
        ``(C_out, Ho*Wo*N)`` that the input gradient is built from."""
        xp, _ = self._saved()
        ho, wo = grad.shape[2:]
        m = wo * grad.shape[0]  # columns per output row
        g = grad.transpose(1, 2, 3, 0).reshape(self.c_out, ho * m)  # a view if batch-last
        self.grad_bias = g.sum(axis=1)
        # the columns are rebuilt chunk by chunk, and each chunk's product added
        gw = np.zeros((self.weight[0].size, self.c_out), dtype=np.result_type(xp, g))
        for r0, r1, cols in self._cols(xp, ho, wo):
            gw += cols @ g[:, r0 * m:r1 * m].T
        self.grad_weight = gw.T.reshape(self.weight.shape)
        return g

    def _backward(self, grad, state):
        g = self._param_backward(grad)
        n, _, h, w = state[1]
        ho, wo = grad.shape[2:]
        k, p, m = self.kernel, self.kernel // 2, wo * n
        weight = self.weight.reshape(self.c_out, -1)
        gxp = np.zeros((self.c_in, h + 2 * p, w + 2 * p, n), dtype=g.dtype)
        win = self._windows(gxp, ho, wo)
        # col2im, last chunk first: padded row s*i + ki takes tap row ki from
        # output row i, so its lower tap rows come from later chunks, and each
        # padded sample still sums its taps in (ki, kj) order
        for r0, r1 in reversed(self._chunks(ho, wo, n, g.itemsize)):
            gcols = (weight.T @ g[:, r0 * m:r1 * m]).reshape(self.c_in, k, k, r1 - r0, wo, n)
            for ki in range(k):
                for kj in range(k):
                    win[:, ki, kj, r0:r1] += gcols[:, ki, kj]
            del gcols  # before the next chunk's product is allocated
        return np.ascontiguousarray(gxp[:, p:p + h, p:p + w]).transpose(3, 0, 1, 2)

    def output_shape(self, in_shape):
        _, h, w = _require_chw(in_shape, self.who, self.c_in)
        k, s, p = self.kernel, self.stride, self.kernel // 2
        return (self.c_out, *_known(lambda d: (d + 2 * p - k) // s + 1, (h, w)))


class BatchNorm2d(Layer):
    """Per-channel batch normalization; running stats use momentum 0.1."""

    EPS = 1e-5
    MOMENTUM = 0.1
    who = "batchnorm"

    def __init__(self, channels: int):
        if channels < 1:
            raise ShapeMismatch(f"batchnorm channels must be >= 1, got {channels}")
        self.channels = channels

    def param_shapes(self):
        return {"gamma": (self.channels,), "beta": (self.channels,)}

    def buffer_shapes(self):
        return {"running_mean": (self.channels,), "running_var": (self.channels,)}

    def _initial(self, name, shape, rng):
        return np.ones(shape) if name in ("gamma", "running_var") else np.zeros(shape)

    def _forward(self, x, training):
        if not training:
            # the training formula with the running statistics, in one buffer
            out = x - self.running_mean[:, None, None]
            out *= (1.0 / np.sqrt(self.running_var + self.EPS))[:, None, None]
            out *= self.gamma[:, None, None]
            out += self.beta[:, None, None]
            return out, None
        mean = x.mean(axis=(0, 2, 3))
        xhat = x - mean[:, None, None]
        m = x.shape[0] * x.shape[2] * x.shape[3]
        var = np.einsum("nchw,nchw->c", xhat, xhat) / m
        mo = self.MOMENTUM
        self.running_mean = ((1 - mo) * self.running_mean + mo * mean).astype(x.dtype)
        self.running_var = ((1 - mo) * self.running_var + mo * var).astype(x.dtype)
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        xhat *= inv_std[:, None, None]
        out = xhat * self.gamma[:, None, None]
        out += self.beta[:, None, None]
        return out, (xhat, inv_std)

    def _backward(self, grad, state):
        xhat, inv_std = state
        self.grad_gamma = np.einsum("nchw,nchw->c", grad, xhat)
        self.grad_beta = np.einsum("nchw->c", grad)
        scale = (self.gamma * inv_std)[:, None, None]
        m = grad.shape[0] * grad.shape[2] * grad.shape[3]
        # (grad - xhat * sum(grad * xhat) / m - sum(grad) / m) * gamma * inv_std
        gx = xhat * (-self.grad_gamma / m)[:, None, None]
        gx += grad
        gx -= (self.grad_beta / m)[:, None, None]
        gx *= scale
        return gx

    def output_shape(self, in_shape):
        return (self.channels, *_require_chw(in_shape, self.who, self.channels)[1:])


def folded_forward(x, conv: Conv2d, bn: BatchNorm2d, relu: ReLU | None = None):
    """The inference output of ``conv``, then ``bn``, then ``relu`` if one is
    given, run as one conv: ``bn``'s running statistics fold into the
    conv's weight and bias (Jacob et al., arXiv 1712.05877, section 3.2),
    ``W' = W*s`` and ``b' = (b - mean)*s + beta`` with ``s = gamma /
    sqrt(var + eps)``.  They are rebuilt from the live arrays on every
    call, and the ReLU runs in place on the conv's fresh output.  Each of
    the layers drops its backward state, as ``Layer.forward`` does.  The
    output is that of the layers run one by one up to rounding."""
    bn.output_shape(conv.output_shape(x.shape[1:]))
    for layer in (conv, bn, relu):
        if layer is not None:
            layer._state = None
    scale = bn.gamma * (1.0 / np.sqrt(bn.running_var + bn.EPS))
    y, _ = conv._product(x, conv.weight * scale[:, None, None, None],
                         (conv.bias - bn.running_mean) * scale + bn.beta)
    return y if relu is None else np.maximum(y, 0, out=y)


def _bits(a):
    """``a`` viewed as unsigned words of its item size."""
    return a.view(f"u{a.dtype.itemsize}")


def _word_mask(mask, dtype):
    """Boolean mask -> all-ones / all-zero words of ``dtype``'s item size.

    ``_bits(g) & m`` is then ``np.where(mask, g, 0)`` bit for bit (+0.0 where
    the mask is off, unlike ``g * mask``), and ``_bits(g) ^ (_bits(g) & m)``
    is ``np.where(mask, 0, g)``; both run ~10x faster than ``np.where``.
    """
    word = np.dtype(f"u{np.dtype(dtype).itemsize}")
    return np.multiply(mask, word.type(np.iinfo(word).max))


class ReLU(Layer):
    who = "relu"

    def _forward(self, x, training):
        return np.maximum(x, 0), (x > 0 if training else None)

    def _backward(self, grad, mask):
        return (_bits(grad) & _word_mask(mask, grad.dtype)).view(grad.dtype)


def _quarters(x):
    """The four strided views of each 2x2 window, in row-major window order."""
    return (x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2],
            x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2])


def _halved(in_shape, who: str) -> tuple:
    c, h, w = _require_chw(in_shape, who)
    if any(_known(lambda d: d % 2, (h, w))):
        raise OddSpatial(f"{who} needs even spatial dims, got {(h, w)}")
    return (c, *_known(lambda d: d // 2, (h, w)))


class MaxPool2(Layer):
    """2x2 stride-2 max pooling; ties route to the first (row-major) argmax."""

    who = "max pooling"

    def _forward(self, x, training):
        a, b, c, d = _quarters(x)
        # a knockout in window order: a beats b and c beats d on ties, then
        # the (a, b) winner beats the (c, d) winner.  NumPy's maximum returns
        # its second argument on ties, so this argument order also keeps the
        # first winner's sign of zero (the bit-identity tests pin it).
        top = np.maximum(b, a)
        bottom = np.maximum(d, c)
        if not training:
            return np.maximum(bottom, top, out=top), None
        return np.maximum(bottom, top), ((a >= b, c >= d, top >= bottom), x.shape)

    def _backward(self, grad, state):
        wins, shape = state
        a_wins, c_wins, top_wins = (_word_mask(m, grad.dtype) for m in wins)
        gx = np.empty_like(grad, shape=shape)  # in grad's memory order
        ga, gb, gc, gd = _quarters(_bits(gx))
        top = _bits(grad) & top_wins
        bottom = _bits(grad) ^ top
        np.bitwise_and(top, a_wins, out=ga)
        np.bitwise_xor(top, ga, out=gb)
        np.bitwise_and(bottom, c_wins, out=gc)
        np.bitwise_xor(bottom, gc, out=gd)
        return gx

    def output_shape(self, in_shape):
        return _halved(in_shape, self.who)


class _LowPassDown(Layer):
    """Down-sampling by one separable low-pass filter: ``F @ X @ F.T`` per
    channel, with ``F`` the stride-2 operator of the 1-D filter ``taps``.
    Backward is ``F.T @ G @ F``."""

    who = "low-pass downsample"

    def __init__(self, taps):
        self.taps = tuple(taps)

    def _forward(self, x, training):
        return lowpass2d(x, self.taps), x.shape[2:]

    def _backward(self, grad, hw):
        return lowpass2d_vjp(grad, self.taps, hw)

    def output_shape(self, in_shape):
        return _halved(in_shape, self.who)


class AvgPool2(_LowPassDown):
    """2x2 stride-2 average pooling: the low-pass filter ``[1/2, 1/2]``."""

    who = "average pooling"

    def __init__(self):
        super().__init__((0.5, 0.5))


class WaveletDown(_LowPassDown):
    """Wavelet down-sampling: keep ll, average the subbands, or stack them.

    ``kind`` is one of ``"ll"``, ``"avg"``, ``"cat"``.  ``"ll"`` is the
    low-pass down-sampler with the analysis low-pass ``L``, and ``"avg"``
    the one with ``(L + H) / 2``, because ``ll + lh + hl + hh = (L+H) X
    (L+H).T``; both preserve the channel count.  ``"cat"`` concatenates
    (ll, lh, hl, hh) along channels in that fixed order, quadrupling the
    channel count, and routes the gradient through the 2D analysis vjp.
    """

    who = "wavelet downsample"

    def __init__(self, kind: str, wavelet: str):
        if kind not in ("ll", "avg", "cat"):
            raise ShapeMismatch(f"unknown wavelet downsample kind {kind!r}")
        self.kind = kind
        self.spec = get_wavelet(wavelet)
        low, high = self.spec.analysis_low, self.spec.analysis_high
        # "cat" runs the four-band path and leaves the taps unused
        super().__init__([(a + b) / 2 for a, b in zip(low, high)] if kind == "avg" else low)

    def _forward(self, x, training):
        if self.kind != "cat":
            return super()._forward(x, training)
        z = dwt2d_interleaved(x, self.spec)
        n, c, h, w = z.shape
        out = np.empty_like(z, shape=(n, 4 * c, h // 2, w // 2))  # in z's memory order
        for k, (r, s) in enumerate(_QUADRANTS):  # ll, lh, hl, hh
            out[:, k * c:(k + 1) * c] = z[..., r::2, s::2]
        return out, x.shape[2:]

    def _backward(self, grad, hw):
        if self.kind != "cat":
            return super()._backward(grad, hw)
        bands = np.split(grad, 4, axis=1)  # views of ll, lh, hl, hh
        return dwt2d_vjp(Decomposition2D(*bands, hw), self.spec)

    def output_shape(self, in_shape):
        c, h, w = super().output_shape(in_shape)
        return (4 * c if self.kind == "cat" and c is not None else c, h, w)


class PadToEven(Layer):
    """Zero-pad the bottom/right edge so spatial dims become even.

    Glue inserted ahead of a downsample layer when the model config allows odd
    inputs there; identity on already-even maps.
    """

    who = "pad"

    def _forward(self, x, training):
        _, hp, wp = self.output_shape(x.shape[1:])
        h, w = x.shape[2:]
        if (hp, wp) == (h, w):
            return x, (h, w)
        out = np.zeros_like(x, shape=x.shape[:2] + (hp, wp))  # in x's memory order
        out[:, :, :h, :w] = x
        return out, (h, w)

    def _backward(self, grad, hw):
        return grad[:, :, :hw[0], :hw[1]]

    def output_shape(self, in_shape):
        c, h, w = _require_chw(in_shape, self.who)
        return (c, *_known(lambda d: d + d % 2, (h, w)))


class Flatten(Layer):
    who = "flatten"

    def _forward(self, x, training):
        # C-contiguous in any input order: on a batch-last input a reshape
        # alone gives a transposed view, which Dense's product would run
        # through another BLAS kernel, rounding float64 differently
        flat = np.ascontiguousarray(x).reshape(x.shape[0], int(np.prod(x.shape[1:])))  # N = 0 too
        # backward needs x's axes from its outermost in memory to its innermost
        return flat, (x.shape, np.argsort(x.strides, kind="stable")[::-1])

    def _backward(self, grad, state):
        shape, axes = state
        gx = np.empty([shape[a] for a in axes], grad.dtype).transpose(np.argsort(axes))
        gx[...] = grad.reshape(shape)  # in x's memory order
        return gx

    def output_shape(self, in_shape):
        return (None,) if None in in_shape else (math.prod(in_shape),)


class Dense(Layer):
    who = "dense"

    def __init__(self, n_in: int, n_out: int):
        if min(n_in, n_out) < 1:
            raise ShapeMismatch(f"dense sizes must be >= 1, got {n_in} -> {n_out}")
        self.n_in = n_in
        self.n_out = n_out

    def param_shapes(self):
        return {"weight": (self.n_in, self.n_out), "bias": (self.n_out,)}

    def _initial(self, name, shape, rng):
        return _uniform(self.n_in, shape, rng)

    def _forward(self, x, training):
        return x @ self.weight + self.bias, x

    def _backward(self, grad, x):
        self.grad_weight = x.T @ grad
        self.grad_bias = grad.sum(axis=0)
        return grad @ self.weight.T

    def output_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] not in (None, self.n_in):
            raise ShapeMismatch(
                f"dense declared n_in={self.n_in} but input shape is {in_shape}")
        return (self.n_out,)


class SoftmaxCrossEntropy:
    """Mean softmax cross-entropy over a batch of logits."""

    def __init__(self):
        self._probs = None
        self._labels = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        if logits.ndim != 2 or labels.shape != (logits.shape[0],):
            raise ShapeMismatch(
                f"loss expects (N,K) logits and (N,) labels, got {logits.shape} / {labels.shape}")
        if labels.size and not 0 <= labels.min() <= labels.max() < logits.shape[1]:
            raise InvalidConfig(f"labels must lie in 0..{logits.shape[1] - 1} for "
                                f"{logits.shape[1]} classes, got {labels.min()}..{labels.max()}")
        z = logits - logits.max(axis=1, keepdims=True)
        logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
        logp = z - logsumexp
        self._probs = np.exp(logp)
        self._labels = labels
        return float(-logp[np.arange(len(labels)), labels].mean())

    def backward(self) -> np.ndarray:
        g = self._probs.copy()
        g[np.arange(len(self._labels)), self._labels] -= 1.0
        return g / len(self._labels)
