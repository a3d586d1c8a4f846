"""Model configuration, building, training, evaluation and checkpoints.

A model is an ordered list of layer specs (conv / batchnorm / relu /
downsample / flatten / dense) with softmax cross-entropy loss.  Building is
deterministic in the config seed; training is plain SGD with momentum and a
step learning-rate schedule, deterministic given (seed, data, single thread).

The down-sampling stage is pluggable: classic pooling, a stride-2 conv, or
the three wavelet modes (keep ll / average subbands / concatenate subbands).
Configs may also carry a wavelet rewrite flag that turns every stride-2 conv
into the same-shaped stride-1 conv followed by an ll-only wavelet downsample,
leaving the parameter count untouched.

Checkpoints use the WCN2 layout of :mod:`wavecnn.fileio`, which owns its
bytes and its digest; this module assembles the model and checks each
entry's name, shape and values against it.
"""

from __future__ import annotations

import hashlib
import math
import os
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import fileio
from .errors import (DivergedLoss, FormatError, InvalidConfig, OddSpatial, ShapeMismatch,
                     UnknownWavelet, _check_int, _check_real, _check_seed)
from .filterbank import get_wavelet
from .layers import (AvgPool2, BatchNorm2d, Conv2d, Dense, Flatten, MaxPool2,
                     PadToEven, ReLU, SoftmaxCrossEntropy, WaveletDown, folded_forward)

_WAVELET_KINDS = {"dwt_ll": "ll", "dwt_avg": "avg", "dwt_cat": "cat"}

DOWNSAMPLE_MODES = ("max_pool", "avg_pool", "strided_conv", *_WAVELET_KINDS)

# No config may declare more state values (parameters plus buffers) than this:
# 2**28 is 1 GiB of float32, before training adds gradients and momentum.
MAX_STATE_VALUES = 2 ** 28


@dataclass(frozen=True)
class LayerSpec:
    """One entry of a model architecture; unused fields stay at defaults."""

    kind: str
    kernel: int = 3
    c_in: int = 0
    c_out: int = 0
    stride: int = 1
    channels: int = 0
    mode: str = ""
    wavelet: str = ""
    pad_odd: bool = False
    n_in: int = 0
    n_out: int = 0

    def to_dict(self) -> dict:
        keys = _KINDS[self.kind][0] if self.kind in _KINDS else ()
        return {"kind": self.kind, **{name: getattr(self, name) for name in keys}}


def conv(kernel: int, c_in: int, c_out: int, stride: int = 1) -> LayerSpec:
    return LayerSpec(kind="conv", kernel=kernel, c_in=c_in, c_out=c_out, stride=stride)


def batchnorm(channels: int) -> LayerSpec:
    return LayerSpec(kind="batchnorm", channels=channels)


def relu() -> LayerSpec:
    return LayerSpec(kind="relu")


def downsample(mode: str, wavelet: str = "", pad_odd: bool = False,
               c_in: int = 0, c_out: int = 0) -> LayerSpec:
    return LayerSpec(kind="down", mode=mode, wavelet=wavelet, pad_odd=pad_odd,
                     c_in=c_in, c_out=c_out)


def flatten() -> LayerSpec:
    return LayerSpec(kind="flatten")


def dense(n_in: int, n_out: int) -> LayerSpec:
    return LayerSpec(kind="dense", n_in=n_in, n_out=n_out)


def _check_fields(d, table: dict, label: str) -> dict:
    """Return ``d`` if it is a dict whose every key is in ``table`` and holds
    a value of the listed type; raise InvalidConfig otherwise.

    ``int``, ``bool`` and ``str`` match exactly, so ``True`` is no int; a
    ``float`` also takes an int, but not a bool.
    """
    if not isinstance(d, dict):
        raise InvalidConfig(f"{label}: expected a JSON object, got {d!r}")
    for key, value in d.items():
        if key not in table:
            raise InvalidConfig(f"{label}: unknown key {key!r}, expected one of {list(table)}")
        want = table[key]
        if type(value) is not want and not (want is float and type(value) is int):
            raise InvalidConfig(f"{label}: {key} must be {want.__name__}, got {value!r}")
    return d


# ``loss`` is only in older configs and checkpoints, and must name softmax_ce.
_MODEL_KEYS = {"layers": list, "seed": int, "wavelet_rewrite": str, "loss": str}


def _layer_spec(i: int, entry) -> LayerSpec:
    kind = entry.get("kind") if isinstance(entry, dict) else None
    if type(kind) is not str or kind not in _KINDS:
        raise InvalidConfig(f"layer {i}: expected an object whose 'kind' is one of "
                            f"{list(_KINDS)}, got {entry!r}")
    types = typing.get_type_hints(LayerSpec)
    table = {name: types[name] for name in ("kind", *_KINDS[kind][0])}
    return LayerSpec(**_check_fields(entry, table, f"layer {i} ({kind})"))


@dataclass(frozen=True)
class ModelConfig:
    """Layer specs, init seed and wavelet rewrite; the loss is always
    softmax cross-entropy."""

    layers: tuple
    seed: int = 0
    wavelet_rewrite: str = ""

    def __post_init__(self):
        _check_seed(self.seed, "model seed")

    def to_dict(self) -> dict:
        return {
            "layers": [s.to_dict() for s in self.layers],
            "seed": self.seed,
            "wavelet_rewrite": self.wavelet_rewrite,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        """Inverse of :meth:`to_dict`; also takes the ``"loss"`` key of
        older configs and checkpoints."""
        _check_fields(d, _MODEL_KEYS, "model config")
        if d.get("loss", "softmax_ce") != "softmax_ce":
            raise InvalidConfig(f"unsupported loss {d['loss']!r}")
        if "layers" not in d:
            raise InvalidConfig("model config needs a 'layers' list")
        return ModelConfig(layers=tuple(_layer_spec(i, e) for i, e in enumerate(d["layers"])),
                           seed=d.get("seed", 0), wavelet_rewrite=d.get("wavelet_rewrite", ""))


def _conv_layers(spec: LayerSpec, rewrite: str) -> list:
    """With a ``rewrite`` wavelet, a stride-2 conv becomes the same-shaped
    stride-1 conv followed by an ll-only wavelet downsample."""
    if rewrite and spec.stride == 2:
        return [Conv2d(spec.kernel, spec.c_in, spec.c_out), WaveletDown("ll", rewrite)]
    return [Conv2d(spec.kernel, spec.c_in, spec.c_out, spec.stride)]


def _down_layers(spec: LayerSpec, rewrite: str) -> list:
    """The mode's down-sampler, with the pad glue right before its stride-2 step."""
    head = [PadToEven()] if spec.pad_odd else []
    if spec.mode == "strided_conv":
        if spec.c_in < 1:
            raise InvalidConfig("strided_conv downsample needs c_in")
        *body, last = _conv_layers(conv(3, spec.c_in, spec.c_out or spec.c_in, stride=2), rewrite)
        return body + head + [last]
    if spec.mode in ("max_pool", "avg_pool"):
        return head + [MaxPool2() if spec.mode == "max_pool" else AvgPool2()]
    if spec.mode not in _WAVELET_KINDS:
        raise InvalidConfig(f"unknown downsample mode {spec.mode!r}")
    if not spec.wavelet:
        raise InvalidConfig(f"downsample mode {spec.mode!r} needs a wavelet")
    return head + [WaveletDown(_WAVELET_KINDS[spec.mode], spec.wavelet)]


# Each config kind: the keys its entry holds besides "kind" (the other
# LayerSpec fields keep their defaults), and its builder (spec, rewrite) ->
# runtime layers.
_KINDS = {
    "conv": (("kernel", "c_in", "c_out", "stride"), _conv_layers),
    "batchnorm": (("channels",), lambda spec, rewrite: [BatchNorm2d(spec.channels)]),
    "relu": ((), lambda spec, rewrite: [ReLU()]),
    "down": (("mode", "wavelet", "pad_odd", "c_in", "c_out"), _down_layers),
    "flatten": ((), lambda spec, rewrite: [Flatten()]),
    "dense": (("n_in", "n_out"), lambda spec, rewrite: [Dense(spec.n_in, spec.n_out)]),
}


def _chain(specs, shape: tuple, rewrite: str = "") -> tuple:
    """Build the runtime layers of ``specs`` and trace the per-image
    ``shape`` through each layer's ``output_shape``; returns the layers and
    the output shape.  A spec that does not fit, or that takes the declared
    state past ``MAX_STATE_VALUES``, raises InvalidConfig naming its index."""
    layers = []
    values = 0
    for i, spec in enumerate(specs):
        try:
            if spec.kind not in _KINDS:
                raise InvalidConfig(f"unknown layer kind {spec.kind!r}")
            produced = _KINDS[spec.kind][1](spec, rewrite)
            for layer in produced:
                shape = layer.output_shape(shape)
                values += sum(math.prod(s) for s in
                              {**layer.param_shapes(), **layer.buffer_shapes()}.values())
            if values > MAX_STATE_VALUES:
                raise InvalidConfig(f"the layers up to here declare {values} state values, "
                                    f"more than the {MAX_STATE_VALUES} a model may hold")
        except (InvalidConfig, ShapeMismatch, OddSpatial, UnknownWavelet) as exc:
            raise InvalidConfig(f"layer {i}: {exc}") from exc
        layers.extend(produced)
    return layers, shape


# Images per inference forward, sized to the cache: at 32 images the largest
# ``mini_config`` activation (16 x 28 x 28 per image, 1.5 MiB in float32) fits
# in a 2 MiB L2, so each layer reads its input from L2.  Measured on a 2-vCPU
# Xeon with one BLAS thread (400 images, float32, ms per image for max_pool /
# dwt_ll): 0.161 / 0.180 at 16, 0.155 / 0.172 at 32, 0.159 / 0.181 at 64 and
# 0.174 / 0.217 at 256.
PREDICT_BLOCK = 32


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _folded_run(layers, i: int) -> int:
    """How many layers from ``layers[i]`` an inference pass runs as one
    folded conv: 3 for conv, batchnorm and ReLU, 2 for conv and batchnorm,
    0 where no conv and batchnorm start."""
    run = layers[i:i + 3]
    if len(run) < 2 or not (isinstance(run[0], Conv2d) and isinstance(run[1], BatchNorm2d)):
        return 0
    return 3 if len(run) == 3 and isinstance(run[2], ReLU) else 2


class Model:
    """A network built from its config.

    The constructor checks that the config's layers chain and declare at
    most ``MAX_STATE_VALUES`` state values, and builds them with their state
    declared but not allocated: :func:`build_model` draws the initial
    values and :func:`load_model` reads them from a file.  An
    unfilled model can still be counted
    (:func:`wavecnn.complexity.model_madds`).
    """

    def __init__(self, config: ModelConfig, dtype=np.float32):
        if config.wavelet_rewrite:
            get_wavelet(config.wavelet_rewrite)  # validate the name early
        # inputs are images of any size and channel count, so the per-image
        # output shape holds None where it depends on the input
        self.layers, self.out_shape = _chain(config.layers, (None, None, None),
                                             config.wavelet_rewrite)
        self.config = config
        self.dtype = np.dtype(dtype)
        self.loss = SoftmaxCrossEntropy()

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """The output of every layer in turn, for ``x`` cast to the model's
        dtype.

        A training forward runs each layer's ``forward``.  An inference
        forward (``training=False``, which ``predict_logits`` and ``train``'s
        validation run) runs each ``Conv2d`` followed by a ``BatchNorm2d``,
        and a ``ReLU`` right after them, as one conv with the BatchNorm
        folded into its weight and bias (:func:`wavecnn.layers.folded_forward`,
        rebuilt from the live parameters on every pass), and every other
        layer through its ``forward``.  Its logits match those of the layers
        run one by one to rounding, as the fold multiplies in another order.
        Both passes, and :meth:`backward` after a training forward, keep the
        conv's batch-last layout up to ``Flatten`` (:mod:`wavecnn.layers`).
        """
        out = np.asarray(x, dtype=self.dtype)
        i = 0
        while i < len(self.layers):
            run = 0 if training else _folded_run(self.layers, i)
            if run:
                out = folded_forward(out, *self.layers[i:i + run])
            else:
                out = self.layers[i].forward(out, training)
            i += run or 1
        return out

    def backward(self, grad: np.ndarray) -> None:
        """Fill every layer's parameter gradients from the loss gradient ``grad``.

        One loop runs the layers last to first, each through its
        ``backward`` but the first, whose ``_param_backward`` does not
        compute its input gradient: training discards it, and a caller that
        needs it runs each layer's ``backward``.  Each layer's training
        state is freed as soon as its backward has read it, so the pass
        holds only the state still ahead of it and leaves the model holding
        none; a second call needs a new training forward.
        """
        for i, layer in reversed(list(enumerate(self.layers))):
            grad = layer.backward(grad) if i else layer._param_backward(grad)
            layer._state = None

    def named_params(self):
        for i, layer in enumerate(self.layers):
            for name, arr in layer.params().items():
                yield f"{i}.{name}", arr

    def named_buffers(self):
        for i, layer in enumerate(self.layers):
            for name, arr in layer.buffers().items():
                yield f"{i}.{name}", arr

    def checksum(self) -> str:
        digest = hashlib.sha256()
        for name, arr in self.named_params():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()

    def _logits(self, images: np.ndarray, batch: int, cpus: int) -> np.ndarray:
        """The one inference block loop: one ``training=False`` forward per
        block of ``batch`` images, on up to ``cpus`` threads, the logits
        joined in block order (see :meth:`predict_logits`).  Zero images
        are one empty block, which gives ``(0, classes)`` logits."""
        starts = range(0, len(images) or 1, batch)
        threads = min(cpus, len(starts))

        def block(i):
            return self.forward(images[i:i + batch], training=False)
        if threads <= 1:
            chunks = [block(i) for i in starts]
        else:
            with ThreadPoolExecutor(threads) as pool:
                chunks = list(pool.map(block, starts))
        return np.concatenate(chunks, axis=0)

    def predict_logits(self, images: np.ndarray) -> np.ndarray:
        """Logits of ``images``, one inference forward per block of
        ``PREDICT_BLOCK`` images.  Zero images give a ``(0, classes)`` array.

        The blocks run on every usable CPU: a pool of ``k`` threads, ``k``
        the smaller of the usable CPU count (read on each call) and the
        block count, lives for this call and forwards one block per task;
        the logits are joined in block order.  Each block is forwarded
        exactly as it would be alone, so the bits do not depend on the CPU
        count, and on one CPU, one block or zero images no thread is
        started.  This is safe because an inference forward writes no layer
        state but ``None`` and NumPy and BLAS release the GIL.  Each extra
        CPU holds about one more block's activations.  A forward that raises
        in any block raises the error of the first failing block, after
        every thread of the call has finished; no thread outlives the call,
        so a forked child needs nothing special.
        ``train``'s per-epoch validation runs the same block loop on the
        calling thread: a pool thread allocates from its own malloc arena,
        which cannot reuse what the training step freed.  Validating
        through the pool took the bench ``train`` peak RSS from 81.1 to
        109.1-111.9 MiB (2 runs each, 2-vCPU Xeon) for no resolved
        speed-up.
        """
        return self._logits(images, PREDICT_BLOCK, _usable_cpus())

    def predict(self, images: np.ndarray) -> np.ndarray:
        """One label per image, the class of its largest logit (ties resolve
        to the lowest class).  A model whose output per image is not one
        flat logit vector has no such label: it raises ShapeMismatch before
        any forward."""
        if len(self.out_shape) != 1:
            raise ShapeMismatch(f"the model's layers give each image the output shape "
                                f"{self.out_shape}, not one label per image")
        return self.predict_logits(images).argmax(axis=1)


def build_model(cfg: ModelConfig, dtype=np.float32) -> Model:
    """Instantiate and deterministically initialize a model from its config."""
    model = Model(cfg, dtype)
    rng = np.random.default_rng(cfg.seed)
    for layer in model.layers:
        layer.init_params(rng, model.dtype)
    return model


def mini_config(mode: str = "max_pool", wavelet: str = "", in_channels: int = 1,
                image_hw=(28, 28), classes: int = 10, seed: int = 0) -> ModelConfig:
    """Three-stage reference network: (conv3x3-BN-ReLU-downsample) x3 -> dense.

    Channel plan 16/32/64; any downsample mode; odd intermediate maps are
    even-padded before their downsample (28x28 input traces 28 -> 14 -> 8 -> 4).
    The channel-concatenation mode widens each following conv's input fourfold.
    """
    specs = []
    shape = (in_channels, *image_hw)
    for c in (16, 32, 64):
        pad = any(d % 2 for d in shape[1:])  # the conv keeps the spatial size
        stage = [conv(3, shape[0], c), batchnorm(c), relu(),
                 downsample(mode, pad_odd=pad, c_in=c, c_out=c) if mode == "strided_conv"
                 else downsample(mode, wavelet=wavelet, pad_odd=pad)]
        specs += stage
        _, shape = _chain(stage, shape)
    specs += [flatten(), dense(math.prod(shape), classes)]
    return ModelConfig(layers=tuple(specs), seed=seed)


# --- training ---


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch: int = 64
    epochs: int = 10

    def __post_init__(self):
        for name in ("batch", "epochs"):
            _check_int(getattr(self, name), f"training {name}")
            if getattr(self, name) < 1:
                raise InvalidConfig(f"training {name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr", "momentum", "weight_decay"):
            _check_real(getattr(self, name), f"training {name}")
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"training {name} must be finite, "
                                    f"got {getattr(self, name)}")

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        return TrainConfig(**_check_fields(d, _TRAIN_KEYS, "training config"))


_TRAIN_KEYS = typing.get_type_hints(TrainConfig)


@dataclass(frozen=True)
class TrainReport:
    train_loss: tuple
    val_loss: tuple
    val_accuracy: tuple
    params_checksum: str

    def to_csv(self) -> str:
        """Per-epoch CSV plus a checksum row; a fixed-seed run serializes
        bit-identically."""
        lines = ["epoch,train_loss,val_loss,val_accuracy"]
        for i, (tl, vl, va) in enumerate(
                zip(self.train_loss, self.val_loss, self.val_accuracy), start=1):
            lines.append(f"{i},{float(tl)!r},{float(vl)!r},{float(va)!r}")
        lines.append(f"checksum,{self.params_checksum},,")
        return "\n".join(lines) + "\n"


def _epoch_lr(base: float, epoch: int, epochs: int) -> float:
    lr = base
    if epochs >= 2 and epoch >= epochs // 2:
        lr *= 0.1
    if epochs >= 4 and epoch >= (3 * epochs) // 4:
        lr *= 0.1
    return lr


def _eval_loss_acc(model: Model, images, labels, batch: int):
    """Mean loss and accuracy over the validation split: the logits come
    from the serial block loop, and the loss is summed per block of
    ``batch``, so it keeps the bits of scoring each block as it is
    forwarded.  The loss has its own ``SoftmaxCrossEntropy``, apart from
    ``model.loss``, which only training steps call."""
    logits = model._logits(images, batch, cpus=1)
    loss_fn = SoftmaxCrossEntropy()
    total_loss = 0.0
    for i in range(0, len(images), batch):
        yb = labels[i:i + batch]
        total_loss += loss_fn.forward(logits[i:i + batch], yb) * len(yb)
    n = len(images)
    return total_loss / n, int((logits.argmax(axis=1) == labels).sum()) / n


def train(model: Model, dataset, hyper: TrainConfig = TrainConfig(),
          val=None) -> TrainReport:
    """SGD with momentum; deterministic given the model seed and data.

    ``dataset``/``val`` carry ``images`` (NCHW float) and ``labels`` (int
    vector); when ``val`` is omitted the training split doubles as the
    validation split.  Before the first step, each split passes the one
    admission rule, :func:`_checked_split`, named ``training split`` or
    ``validation split``; it also refuses a model that gives no label per
    image.  Then InvalidConfig is raised, naming the split, on a label that
    is not one of the model's classes, which only the loss needs.  A
    non-finite step or validation loss aborts with DivergedLoss carrying
    the partial report; NumPy's overflow and invalid-value warnings on the
    way there are silenced, as that check is the divergence signal.
    """
    val = val if val is not None else dataset
    train_split = _checked_split(model, dataset, "training split")
    val_split = train_split if val is dataset else _checked_split(model, val, "validation split")
    (images, labels), (val_images, val_labels) = train_split, val_split
    classes = model.out_shape[0]
    for split, y in (("training split", labels), ("validation split", val_labels)):
        if classes is not None and not 0 <= y.min() <= y.max() < classes:
            raise InvalidConfig(f"labels must lie in 0..{classes - 1} for {classes} classes, "
                                f"got {y.min()}..{y.max()} in the {split}")

    rng = np.random.default_rng([model.config.seed, 0x5eed])
    # one momentum buffer per parameter, in layer order
    slots = [(layer, name, np.zeros_like(p))
             for layer in model.layers for name, p in layer.params().items()]
    train_losses, val_losses, val_accs = [], [], []

    def partial_report():
        return TrainReport(tuple(train_losses), tuple(val_losses), tuple(val_accs),
                           model.checksum())

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(hyper.epochs):
            lr = _epoch_lr(hyper.lr, epoch, hyper.epochs)
            order = rng.permutation(len(images))
            epoch_loss = 0.0
            for start in range(0, len(order), hyper.batch):
                idx = order[start:start + hyper.batch]
                logits = model.forward(images[idx], training=True)
                loss = model.loss.forward(logits, labels[idx])
                if not np.isfinite(loss):
                    raise DivergedLoss(
                        f"loss became non-finite in epoch {epoch + 1}", partial_report())
                epoch_loss += loss * len(idx)
                model.backward(model.loss.backward())
                for layer, name, v in slots:
                    p, g = getattr(layer, name), getattr(layer, "grad_" + name)
                    if hyper.weight_decay:
                        g = g + hyper.weight_decay * p
                    v *= hyper.momentum
                    v -= lr * g
                    p += v
            train_losses.append(epoch_loss / len(images))
            vl, va = _eval_loss_acc(model, val_images, val_labels, hyper.batch)
            val_losses.append(vl)
            val_accs.append(va)
            if not np.isfinite(vl):
                raise DivergedLoss(
                    f"validation loss became non-finite in epoch {epoch + 1}", partial_report())
    return partial_report()


def _checked_split(model: Model, dataset, caller: str) -> tuple:
    """The one admission rule for a split a model reads, which every scorer
    applies before any work: its images cast to ``model.dtype`` and its
    labels.  InvalidConfig, naming ``caller``, unless there is at least one
    image, every pixel is finite at that precision, there is one integer
    label per image, and the model predicts zero of the images: that probe
    refuses, as ``{caller} does not fit the model``, images the layers
    cannot take and a model that gives no label per image."""
    images = np.asarray(dataset.images, dtype=model.dtype)
    if len(images) == 0:
        raise InvalidConfig(f"{caller} needs at least one image")
    if not np.isfinite(images).all():
        raise InvalidConfig(f"{caller} needs finite image values")
    labels = np.asarray(dataset.labels)
    if labels.shape != images.shape[:1] or labels.dtype.kind not in "iu":
        raise InvalidConfig(f"{caller} needs one integer label per image, got {labels.dtype} "
                            f"labels of shape {labels.shape} for {len(images)} images")
    try:
        model.predict(images[:0])
    except (ShapeMismatch, OddSpatial) as exc:
        raise InvalidConfig(f"{caller} does not fit the model: {exc}") from exc
    return images, labels


def evaluate(model: Model, dataset) -> float:
    """Top-1 error rate on a dataset, in [0, 1].

    Raises InvalidConfig, before any forward on its images, on a dataset
    that :func:`_checked_split` refuses: one without images, which has no
    error rate; one with an image that holds NaN or an infinity at the
    model's precision, since such an image would be classified as garbage
    silently; one without one integer label per image; and one the model
    cannot score, because its layers do not take the images or give no
    label per image.
    """
    images, labels = _checked_split(model, dataset, "evaluate")
    return float((model.predict(images) != labels).mean())


# --- checkpoints ---


def save_model(model: Model, path) -> None:
    """Write a WCN2 checkpoint (:mod:`wavecnn.fileio`): the config and every
    state array, closed by a sha256 of everything before it."""
    fileio._write_checkpoint(path, model.dtype, model.config.to_dict(),
                             [*model.named_params(), *model.named_buffers()])


def load_model(path) -> Model:
    """Rebuild a model from a checkpoint written by :func:`save_model`.

    The digest is checked before anything is parsed.  The model is built
    from the file's config with no random initialization: each state array
    is read straight from the file, after its declared size has been checked
    against the bytes left, so a config that declares huge layers costs
    nothing before the file is found short.  A short file, a digest
    mismatch, a config that is not JSON, a state entry that is missing,
    unknown, repeated or of the wrong size, or one that holds NaN or an
    infinity raises ``FormatError``; a file that is not a checkpoint at all
    raises ``InvalidConfig``.  So does a file of the older ``WCN1`` layout:
    it carries no digest, so a flipped bit in it would load silently.
    """
    def assemble(dtype, cfg, entries) -> Model:
        model = Model(ModelConfig.from_dict(cfg), dtype=dtype)
        state = {f"{i}.{name}": (layer, name, shape) for i, layer in enumerate(model.layers)
                 for name, shape in {**layer.param_shapes(), **layer.buffer_shapes()}.items()}
        for name, shape, nbytes, read in entries:
            if name not in state:  # each entry is popped once read
                raise FormatError(f"{path}: unexpected or repeated state entry {name!r}")
            layer, attr, want = state.pop(name)
            if shape != want or nbytes != math.prod(want) * model.dtype.itemsize:
                raise FormatError(f"{path}: {name} holds shape {shape} in {nbytes} bytes, "
                                  f"expected {want}")
            arr = read()
            if not np.isfinite(arr).all():
                raise FormatError(f"{path}: {name} holds NaN or infinite values")
            setattr(layer, attr, arr)
        if state:
            raise FormatError(f"{path}: missing state entries {sorted(state)}")
        return model
    return fileio._read_checkpoint(path, assemble)
