"""From-scratch network layers over NCHW numpy tensors.

Every layer implements ``forward(x, training)`` and ``backward(grad)`` where
backward is the exact adjoint of the forward linearization; the gradient
suite checks each one against central finite differences.  Layers cache what
they need for backward on ``self``, so a layer instance is used by one
training loop at a time:

- ``Conv2d``: the im2col matrix ``(C_in*k*k, N*Ho*Wo)`` and the input shape.
- ``BatchNorm2d``: the normalized input ``xhat``, ``1/sqrt(var + eps)`` per
  channel and the training flag.
- ``ReLU``: the boolean mask ``x > 0``.
- ``MaxPool2``: three boolean masks per output (a beats b, c beats d, the
  top pair beats the bottom pair of each 2x2 window) and the input shape.
- ``AvgPool2``, ``PadToEven``, ``Flatten``, ``WaveletDown``: shapes only;
  ``Dense``: its input.

No layer reads NaN specially.  ``ReLU`` returns ``max(x, 0)``, which passes
NaN on instead of mapping it to 0, so a NaN that enters training reaches the
loss and ``train`` stops with ``DivergedLoss``.  On finite input ``ReLU``,
``MaxPool2`` and ``AvgPool2`` equal ``np.where(x > 0, x, 0)``, the first
row-major argmax of each window and the window mean bit for bit, signs of
zero included; the tests keep those formulations as references.

Shape bookkeeping for model validation and multiply-add accounting lives in
``output_shape``/``madds``; spatial shapes are (C, H, W) tuples before
flatten and (F,) after.
"""

from __future__ import annotations

import numpy as np

from .errors import OddSpatial, ShapeMismatch
from .filterbank import get_wavelet
from .transform import dwt2d_batch, dwt2d_batch_vjp
from . import complexity


class Layer:
    """Base layer: stateless by default, no parameters."""

    def init_params(self, rng: np.random.Generator, dtype) -> None:
        pass

    def params(self) -> dict:
        return {}

    def grads(self) -> dict:
        return {}

    def buffers(self) -> dict:
        """Non-learnable state that must survive checkpointing."""
        return {}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def output_shape(self, in_shape: tuple) -> tuple:
        return tuple(in_shape)

    def madds(self, in_shape: tuple) -> int:
        return 0


def _require_chw(in_shape, who: str) -> tuple:
    if len(in_shape) != 3:
        raise ShapeMismatch(f"{who} expects a (C,H,W) input shape, got {in_shape}")
    return tuple(in_shape)


class Conv2d(Layer):
    """Same-padded cross-correlation with a square odd kernel, stride 1 or 2."""

    def __init__(self, kernel: int, c_in: int, c_out: int, stride: int = 1):
        if kernel % 2 != 1 or kernel < 1:
            raise ShapeMismatch(f"kernel size must be odd and positive, got {kernel}")
        if stride not in (1, 2):
            raise ShapeMismatch(f"stride must be 1 or 2, got {stride}")
        self.kernel = kernel
        self.c_in = c_in
        self.c_out = c_out
        self.stride = stride
        self.weight = None
        self.bias = None
        self.grad_weight = None
        self.grad_bias = None
        self._cols = None
        self._x_shape = None

    def init_params(self, rng, dtype):
        k, ci, co = self.kernel, self.c_in, self.c_out
        bound = 1.0 / np.sqrt(ci * k * k)
        self.weight = rng.uniform(-bound, bound, size=(co, ci, k, k)).astype(dtype)
        self.bias = rng.uniform(-bound, bound, size=(co,)).astype(dtype)

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def grads(self):
        return {"weight": self.grad_weight, "bias": self.grad_bias}

    def _out_hw(self, h, w):
        k, s, p = self.kernel, self.stride, self.kernel // 2
        return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1

    def forward(self, x, training=False):
        if x.ndim != 4 or x.shape[1] != self.c_in:
            raise ShapeMismatch(
                f"conv expects NCHW with C={self.c_in}, got shape {x.shape}")
        n, _, h, w = x.shape
        k, s, p = self.kernel, self.stride, self.kernel // 2
        ho, wo = self._out_hw(h, w)
        # pad straight into channel-major order, so every tap is one slice
        xp = np.zeros((self.c_in, n, h + 2 * p, w + 2 * p), dtype=x.dtype)
        xp[:, :, p:p + h, p:p + w] = x.transpose(1, 0, 2, 3)
        cols = np.empty((self.c_in, k, k, n, ho, wo), dtype=x.dtype)
        for ki in range(k):
            for kj in range(k):
                cols[:, ki, kj] = xp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s]
        self._cols = cols.reshape(self.c_in * k * k, n * ho * wo)
        self._x_shape = x.shape
        out = self.weight.reshape(self.c_out, -1) @ self._cols
        out += self.bias[:, None]
        return out.reshape(self.c_out, n, ho, wo).transpose(1, 0, 2, 3)

    def backward(self, grad):
        n, _, h, w = self._x_shape
        k, s, p = self.kernel, self.stride, self.kernel // 2
        ho, wo = self._out_hw(h, w)
        g = grad.transpose(1, 0, 2, 3).reshape(self.c_out, n * ho * wo)
        self.grad_bias = g.sum(axis=1)
        self.grad_weight = (self._cols @ g.T).T.reshape(self.weight.shape)
        gcols = (self.weight.reshape(self.c_out, -1).T @ g).reshape(
            self.c_in, k, k, n, ho, wo)
        gxp = np.zeros((self.c_in, n, h + 2 * p, w + 2 * p), dtype=grad.dtype)
        for ki in range(k):
            for kj in range(k):
                gxp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s] += gcols[:, ki, kj]
        return gxp[:, :, p:p + h, p:p + w].transpose(1, 0, 2, 3)

    def output_shape(self, in_shape):
        c, h, w = _require_chw(in_shape, "conv")
        if c != self.c_in:
            raise ShapeMismatch(f"conv declared c_in={self.c_in} but input has {c}")
        ho, wo = self._out_hw(h, w)
        return (self.c_out, ho, wo)

    def madds(self, in_shape):
        _, ho, wo = self.output_shape(in_shape)
        return self.kernel * self.kernel * self.c_in * self.c_out * ho * wo


class BatchNorm2d(Layer):
    """Per-channel batch normalization; running stats use momentum 0.1."""

    EPS = 1e-5
    MOMENTUM = 0.1

    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = None
        self.beta = None
        self.grad_gamma = None
        self.grad_beta = None
        self.running_mean = None
        self.running_var = None
        self._cache = None

    def init_params(self, rng, dtype):
        c = self.channels
        self.gamma = np.ones(c, dtype=dtype)
        self.beta = np.zeros(c, dtype=dtype)
        self.running_mean = np.zeros(c, dtype=dtype)
        self.running_var = np.ones(c, dtype=dtype)

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def grads(self):
        return {"gamma": self.grad_gamma, "beta": self.grad_beta}

    def buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def forward(self, x, training=False):
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeMismatch(
                f"batchnorm expects NCHW with C={self.channels}, got {x.shape}")
        if training:
            mean = x.mean(axis=(0, 2, 3))
            xhat = x - mean[:, None, None]
            m = x.shape[0] * x.shape[2] * x.shape[3]
            var = np.einsum("nchw,nchw->c", xhat, xhat) / m
            mo = self.MOMENTUM
            self.running_mean = ((1 - mo) * self.running_mean + mo * mean).astype(x.dtype)
            self.running_var = ((1 - mo) * self.running_var + mo * var).astype(x.dtype)
        else:
            xhat = x - self.running_mean[:, None, None]
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        xhat *= inv_std[:, None, None]
        self._cache = (xhat, inv_std, training)
        out = xhat * self.gamma[:, None, None]
        out += self.beta[:, None, None]
        return out

    def backward(self, grad):
        xhat, inv_std, training = self._cache
        self.grad_gamma = np.einsum("nchw,nchw->c", grad, xhat)
        self.grad_beta = np.einsum("nchw->c", grad)
        scale = (self.gamma * inv_std)[:, None, None]
        if not training:
            return grad * scale
        m = grad.shape[0] * grad.shape[2] * grad.shape[3]
        # (grad - xhat * sum(grad * xhat) / m - sum(grad) / m) * gamma * inv_std
        gx = xhat * (-self.grad_gamma / m)[:, None, None]
        gx += grad
        gx -= (self.grad_beta / m)[:, None, None]
        gx *= scale
        return gx


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
    def __init__(self):
        self._mask = None

    def forward(self, x, training=False):
        self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, grad):
        return (_bits(grad) & _word_mask(self._mask, grad.dtype)).view(grad.dtype)


def _check_even(x, who):
    if x.ndim != 4:
        raise ShapeMismatch(f"{who} expects an NCHW tensor, got shape {x.shape}")
    if x.shape[2] % 2 or x.shape[3] % 2:
        raise OddSpatial(f"{who} needs even spatial dims, got {x.shape[2:]}")


def _quarters(x):
    """The four strided views of each 2x2 window, in row-major window order."""
    return (x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2],
            x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2])


class MaxPool2(Layer):
    """2x2 stride-2 max pooling; ties route to the first (row-major) argmax."""

    def __init__(self):
        self._wins = None
        self._shape = None

    def forward(self, x, training=False):
        _check_even(x, "max pooling")
        a, b, c, d = _quarters(x)
        # a knockout in window order: a beats b and c beats d on ties, then
        # the (a, b) winner beats the (c, d) winner.  NumPy's maximum returns
        # its second argument on ties, so this argument order also keeps the
        # first winner's sign of zero (the bit-identity tests pin it).
        top = np.maximum(b, a)
        bottom = np.maximum(d, c)
        self._wins = (a >= b, c >= d, top >= bottom)
        self._shape = x.shape
        return np.maximum(bottom, top)

    def backward(self, grad):
        a_wins, c_wins, top_wins = (_word_mask(m, grad.dtype) for m in self._wins)
        gx = np.empty_like(grad, shape=self._shape)  # in grad's memory order
        ga, gb, gc, gd = _quarters(_bits(gx))
        top = _bits(grad) & top_wins
        bottom = _bits(grad) ^ top
        np.bitwise_and(top, a_wins, out=ga)
        np.bitwise_xor(top, ga, out=gb)
        np.bitwise_and(bottom, c_wins, out=gc)
        np.bitwise_xor(bottom, gc, out=gd)
        return gx

    def output_shape(self, in_shape):
        c, h, w = _require_chw(in_shape, "max pooling")
        if h % 2 or w % 2:
            raise OddSpatial(f"max pooling needs even spatial dims, got {(h, w)}")
        return (c, h // 2, w // 2)


class AvgPool2(Layer):
    """2x2 stride-2 average pooling."""

    def __init__(self):
        self._shape = None

    def forward(self, x, training=False):
        _check_even(x, "average pooling")
        self._shape = x.shape
        a, b, c, d = _quarters(x)
        out = a + b
        out += c
        out += d
        out *= 0.25
        return out

    def backward(self, grad):
        gx = np.empty_like(grad, shape=self._shape)  # in grad's memory order
        q = grad / 4.0
        gx[:, :, 0::2, 0::2] = q
        gx[:, :, 0::2, 1::2] = q
        gx[:, :, 1::2] = gx[:, :, 0::2]  # copy the top row of each window down
        return gx

    output_shape = MaxPool2.output_shape


class WaveletDown(Layer):
    """Wavelet down-sampling: keep ll, average the subbands, or stack them.

    ``kind`` is one of ``"ll"``, ``"avg"``, ``"cat"``.  ``"cat"`` concatenates
    (ll, lh, hl, hh) along channels in that fixed order, quadrupling the
    channel count; the other kinds preserve it.  The backward pass routes the
    upstream gradient through the 2D analysis vjp (zero gradients for the
    dropped subbands in ``"ll"`` mode).
    """

    def __init__(self, kind: str, wavelet: str):
        if kind not in ("ll", "avg", "cat"):
            raise ShapeMismatch(f"unknown wavelet downsample kind {kind!r}")
        self.kind = kind
        self.wavelet = wavelet
        self.spec = get_wavelet(wavelet)
        self._hw = None

    def forward(self, x, training=False):
        _check_even(x, "wavelet downsample")
        self._hw = (x.shape[2], x.shape[3])
        ll, lh, hl, hh = dwt2d_batch(x, self.spec)
        if self.kind == "ll":
            return ll
        if self.kind == "avg":
            return (ll + lh + hl + hh) / 4.0
        return np.concatenate([ll, lh, hl, hh], axis=1)

    def backward(self, grad):
        if self.kind == "ll":
            zero = np.zeros_like(grad)
            return dwt2d_batch_vjp(grad, zero, zero, zero, self.spec, self._hw)
        if self.kind == "avg":
            q = grad / 4.0
            return dwt2d_batch_vjp(q, q, q, q, self.spec, self._hw)
        c = grad.shape[1] // 4
        gll, glh, ghl, ghh = (grad[:, i * c:(i + 1) * c] for i in range(4))
        return dwt2d_batch_vjp(gll, glh, ghl, ghh, self.spec, self._hw)

    def output_shape(self, in_shape):
        c, h, w = _require_chw(in_shape, "wavelet downsample")
        if h % 2 or w % 2:
            raise OddSpatial(f"wavelet downsample needs even spatial dims, got {(h, w)}")
        cout = 4 * c if self.kind == "cat" else c
        return (cout, h // 2, w // 2)

    def madds(self, in_shape):
        c, h, w = _require_chw(in_shape, "wavelet downsample")
        return complexity.dwt2d_madds(h, w, c)


class PadToEven(Layer):
    """Zero-pad the bottom/right edge so spatial dims become even.

    Glue inserted ahead of a downsample layer when the model config allows odd
    inputs there; identity on already-even maps.
    """

    def __init__(self):
        self._crop = None

    def forward(self, x, training=False):
        if x.ndim != 4:
            raise ShapeMismatch(f"pad expects an NCHW tensor, got shape {x.shape}")
        h, w = x.shape[2], x.shape[3]
        if h % 2 == 0 and w % 2 == 0:
            self._crop = None
            return x
        self._crop = (h, w)
        return np.pad(x, ((0, 0), (0, 0), (0, h % 2), (0, w % 2)))

    def backward(self, grad):
        if self._crop is None:
            return grad
        h, w = self._crop
        return grad[:, :, :h, :w]

    def output_shape(self, in_shape):
        c, h, w = _require_chw(in_shape, "pad")
        return (c, h + h % 2, w + w % 2)


class Flatten(Layer):
    def __init__(self):
        self._shape = None

    def forward(self, x, training=False):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)

    def output_shape(self, in_shape):
        return (int(np.prod(in_shape)),)


class Dense(Layer):
    def __init__(self, n_in: int, n_out: int):
        self.n_in = n_in
        self.n_out = n_out
        self.weight = None
        self.bias = None
        self.grad_weight = None
        self.grad_bias = None
        self._x = None

    def init_params(self, rng, dtype):
        bound = 1.0 / np.sqrt(self.n_in)
        self.weight = rng.uniform(-bound, bound, size=(self.n_in, self.n_out)).astype(dtype)
        self.bias = rng.uniform(-bound, bound, size=(self.n_out,)).astype(dtype)

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def grads(self):
        return {"weight": self.grad_weight, "bias": self.grad_bias}

    def forward(self, x, training=False):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeMismatch(
                f"dense expects (N,{self.n_in}) input, got shape {x.shape}")
        self._x = x
        return x @ self.weight + self.bias

    def backward(self, grad):
        self.grad_weight = self._x.T @ grad
        self.grad_bias = grad.sum(axis=0)
        return grad @ self.weight.T

    def output_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.n_in:
            raise ShapeMismatch(
                f"dense declared n_in={self.n_in} but input shape is {in_shape}")
        return (self.n_out,)

    def madds(self, in_shape):
        return self.n_in * self.n_out


class SoftmaxCrossEntropy:
    """Mean softmax cross-entropy over a batch of logits."""

    def __init__(self):
        self._probs = None
        self._labels = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        if logits.ndim != 2 or labels.shape != (logits.shape[0],):
            raise ShapeMismatch(
                f"loss expects (N,K) logits and (N,) labels, got {logits.shape} / {labels.shape}")
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
