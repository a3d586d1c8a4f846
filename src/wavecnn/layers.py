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

- ``Conv2d``: the im2col matrix ``(C_in*k*k, Ho*Wo*N)`` and the input shape.
  Its rows run over (input channel, kernel row, kernel column) and its
  columns over (output row, output column, image): the batch is the fastest
  axis, so each tap copies runs of ``Wo*N`` samples at stride 1 and of ``N``
  at stride 2.  The output and the input gradient still leave the layer as
  NCHW views of channel-major ``(C, N, H, W)`` buffers, one copy each.
- ``BatchNorm2d``: the normalized input ``xhat`` and ``1/sqrt(var + eps)``
  per channel.
- ``ReLU``: the boolean mask ``x > 0``.
- ``MaxPool2``: three boolean masks per output (a beats b, c beats d, the
  top pair beats the bottom pair of each 2x2 window) and the input shape.
- ``AvgPool2``, ``PadToEven``, ``Flatten``, ``WaveletDown``: shapes only;
  ``Dense``: its input.

A forward drops the state of an earlier forward before it computes, so an
evaluated model holds no activations.  The ``_forward`` of an inference
forward computes its output and nothing else: it builds no mask and keeps
no im2col matrix or ``xhat``.  Its output keeps its bits: BatchNorm applies
the running statistics with the same operations in the same order, and max
pooling runs the same knockout.  ``Conv2d`` also frees its scratch early in
inference: the padded input once the im2col matrix is built, and that
matrix once the GEMM has read it, before the output copy is allocated.
This keeps an inference forward's peak near one block's activations, which
matters because ``Model.predict_logits`` runs one block per usable CPU.

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
(BatchNorm's running statistics).  ``params``, ``grads``, ``buffers`` and
``init_params`` read the declaration, and so do the model's parameter count
and the checkpoint loader, which therefore need no allocated arrays.  A
layer holds its arrays as attributes of those names once ``init_params`` or
the loader has set them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidConfig, OddSpatial, ShapeMismatch
from .filterbank import get_wavelet
from .transform import Decomposition2D, dwt2d, dwt2d_vjp, lowpass2d, lowpass2d_vjp


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

    def grads(self) -> dict:
        return {name: getattr(self, "grad_" + name, None) for name in self.param_shapes()}

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

    def _forward(self, x, training):
        _, ho, wo = self.output_shape(x.shape[1:])
        n, _, h, w = x.shape
        k, s, p = self.kernel, self.stride, self.kernel // 2
        # pad batch-last, so a stride-1 tap copies runs of wo*n samples
        xp = np.zeros((self.c_in, h + 2 * p, w + 2 * p, n), dtype=x.dtype)
        xp[:, p:p + h, p:p + w] = x.transpose(1, 2, 3, 0)
        cols = np.empty((self.c_in, k, k, ho, wo, n), dtype=x.dtype)
        for ki in range(k):
            for kj in range(k):
                cols[:, ki, kj] = xp[:, ki:ki + s * ho:s, kj:kj + s * wo:s]
        cols = cols.reshape(self.c_in * k * k, ho * wo * n)
        del xp
        state = (cols, x.shape) if training else None
        out = self.weight.reshape(self.c_out, -1) @ cols
        del cols  # an inference forward frees it here; training keeps it in state
        # one copy into channel-major (C_out, N, Ho, Wo), adding the bias on the way
        y = np.empty((self.c_out, n, ho, wo), dtype=out.dtype)
        np.add(out.reshape(self.c_out, ho, wo, n).transpose(0, 3, 1, 2),
               self.bias[:, None, None, None], out=y)
        return y.transpose(1, 0, 2, 3), state

    def _param_backward(self, grad):
        """Fill ``grad_weight``/``grad_bias``; returns the batch-last gradient
        ``(C_out, Ho*Wo*N)`` that the input gradient is built from."""
        cols, _ = self._saved()
        g = np.ascontiguousarray(grad.transpose(1, 2, 3, 0)).reshape(self.c_out, -1)
        self.grad_bias = g.sum(axis=1)
        self.grad_weight = (cols @ g.T).T.reshape(self.weight.shape)
        return g

    def _backward(self, grad, state):
        g = self._param_backward(grad)
        n, _, h, w = state[1]
        ho, wo = grad.shape[2:]
        k, s, p = self.kernel, self.stride, self.kernel // 2
        gcols = (self.weight.reshape(self.c_out, -1).T @ g).reshape(
            self.c_in, k, k, ho, wo, n)
        gxp = np.zeros((self.c_in, h + 2 * p, w + 2 * p, n), dtype=g.dtype)
        for ki in range(k):
            for kj in range(k):
                gxp[:, ki:ki + s * ho:s, kj:kj + s * wo:s] += gcols[:, ki, kj]
        # one copy back to channel-major (C_in, N, H, W)
        gx = np.ascontiguousarray(gxp[:, p:p + h, p:p + w].transpose(0, 3, 1, 2))
        return gx.transpose(1, 0, 2, 3)

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
        return np.concatenate(dwt2d(x, self.spec).subbands(), axis=1), x.shape[2:]

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
        out = np.zeros(x.shape[:2] + (hp, wp), dtype=x.dtype)
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
        return x.reshape(x.shape[0], int(np.prod(x.shape[1:]))), x.shape  # also for N = 0

    def _backward(self, grad, shape):
        return grad.reshape(shape)

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
