"""Model configuration, building, training, and gradient checking.

A model is an ordered list of layer specs (conv / batchnorm / relu /
downsample / flatten / dense) with softmax cross-entropy loss.  Building is
deterministic in the config seed; training is plain SGD with momentum and a
step learning-rate schedule, deterministic given (seed, data, single thread).

The down-sampling stage is pluggable: classic pooling, a stride-2 conv, or
the three wavelet modes (keep ll / average subbands / concatenate subbands).
Configs may also carry a wavelet rewrite flag that turns every stride-2 conv
into the same-shaped stride-1 conv followed by an ll-only wavelet downsample,
leaving the parameter count untouched.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedLoss, InvalidConfig, ShapeMismatch
from .filterbank import get_wavelet
from .layers import (AvgPool2, BatchNorm2d, Conv2d, Dense, Flatten, MaxPool2,
                     PadToEven, ReLU, SoftmaxCrossEntropy, WaveletDown)

DOWNSAMPLE_MODES = ("max_pool", "avg_pool", "strided_conv",
                    "dwt_ll", "dwt_avg", "dwt_cat")

_WAVELET_KINDS = {"dwt_ll": "ll", "dwt_avg": "avg", "dwt_cat": "cat"}


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
        d = {"kind": self.kind}
        keep = {
            "conv": ("kernel", "c_in", "c_out", "stride"),
            "batchnorm": ("channels",),
            "relu": (),
            "down": ("mode", "wavelet", "pad_odd", "c_in", "c_out"),
            "flatten": (),
            "dense": ("n_in", "n_out"),
        }.get(self.kind, ())
        for name in keep:
            d[name] = getattr(self, name)
        return d


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


_SPEC_FIELDS = {f.name for f in dataclasses.fields(LayerSpec)}


@dataclass(frozen=True)
class ModelConfig:
    layers: tuple
    seed: int = 0
    loss: str = "softmax_ce"
    wavelet_rewrite: str = ""

    def to_dict(self) -> dict:
        return {
            "layers": [s.to_dict() for s in self.layers],
            "seed": self.seed,
            "loss": self.loss,
            "wavelet_rewrite": self.wavelet_rewrite,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        unknown = set(d) - {"layers", "seed", "loss", "wavelet_rewrite"}
        if unknown:
            raise InvalidConfig(f"unknown model config keys: {sorted(unknown)}")
        if "layers" not in d:
            raise InvalidConfig("model config needs a 'layers' list")
        specs = []
        for i, entry in enumerate(d["layers"]):
            bad = set(entry) - _SPEC_FIELDS
            if bad:
                raise InvalidConfig(f"layer {i}: unknown keys {sorted(bad)}")
            if "kind" not in entry:
                raise InvalidConfig(f"layer {i}: missing 'kind'")
            specs.append(LayerSpec(**entry))
        return ModelConfig(
            layers=tuple(specs),
            seed=int(d.get("seed", 0)),
            loss=str(d.get("loss", "softmax_ce")),
            wavelet_rewrite=str(d.get("wavelet_rewrite", "")),
        )


def _materialize(spec: LayerSpec):
    """LayerSpec -> list of runtime layers (pad glue may expand one entry)."""
    if spec.kind == "conv":
        return [Conv2d(spec.kernel, spec.c_in, spec.c_out, spec.stride)]
    if spec.kind == "batchnorm":
        return [BatchNorm2d(spec.channels)]
    if spec.kind == "relu":
        return [ReLU()]
    if spec.kind == "flatten":
        return [Flatten()]
    if spec.kind == "dense":
        return [Dense(spec.n_in, spec.n_out)]
    if spec.kind == "down":
        head = [PadToEven()] if spec.pad_odd else []
        if spec.mode == "max_pool":
            return head + [MaxPool2()]
        if spec.mode == "avg_pool":
            return head + [AvgPool2()]
        if spec.mode == "strided_conv":
            if spec.c_in < 1:
                raise InvalidConfig("strided_conv downsample needs c_in")
            c_out = spec.c_out or spec.c_in
            return head + [Conv2d(3, spec.c_in, c_out, stride=2)]
        if spec.mode in _WAVELET_KINDS:
            if not spec.wavelet:
                raise InvalidConfig(f"downsample mode {spec.mode!r} needs a wavelet")
            return head + [WaveletDown(_WAVELET_KINDS[spec.mode], spec.wavelet)]
        raise InvalidConfig(f"unknown downsample mode {spec.mode!r}")
    raise InvalidConfig(f"unknown layer kind {spec.kind!r}")


def _rewrite_strided(specs, wavelet: str):
    """Replace stride-2 convs by stride-1 conv + ll downsample, same weights shape."""
    out = []
    for s in specs:
        if s.kind == "conv" and s.stride == 2:
            out.append(dataclasses.replace(s, stride=1))
            out.append(downsample("dwt_ll", wavelet=wavelet))
        elif s.kind == "down" and s.mode == "strided_conv":
            c_out = s.c_out or s.c_in
            out.append(conv(3, s.c_in, c_out, stride=1))
            out.append(downsample("dwt_ll", wavelet=wavelet, pad_odd=s.pad_odd))
        else:
            out.append(s)
    return tuple(out)


class Model:
    """A built network: runtime layers plus the config that produced them."""

    def __init__(self, layers, config: ModelConfig, dtype):
        self.layers = layers
        self.config = config
        self.dtype = np.dtype(dtype)
        self.loss = SoftmaxCrossEntropy()

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.asarray(x, dtype=self.dtype)
        for layer in self.layers:
            out = layer.forward(out, training)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def named_params(self):
        for i, layer in enumerate(self.layers):
            for name, arr in layer.params().items():
                yield f"{i}.{name}", arr

    def named_buffers(self):
        for i, layer in enumerate(self.layers):
            for name, arr in layer.buffers().items():
                yield f"{i}.{name}", arr

    def parameter_count(self) -> int:
        return sum(arr.size for _, arr in self.named_params())

    def checksum(self) -> str:
        digest = hashlib.sha256()
        for name, arr in self.named_params():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()

    def predict_logits(self, images: np.ndarray, batch: int = 256) -> np.ndarray:
        chunks = [self.forward(images[i:i + batch], training=False)
                  for i in range(0, len(images), batch)]
        return np.concatenate(chunks, axis=0)

    def predict(self, images: np.ndarray) -> np.ndarray:
        # argmax takes the first maximum, so ties resolve to the lowest class
        return self.predict_logits(images).argmax(axis=1)


def build_model(cfg: ModelConfig, dtype=np.float32) -> Model:
    """Instantiate and deterministically initialize a model from its config."""
    if cfg.loss != "softmax_ce":
        raise InvalidConfig(f"unsupported loss {cfg.loss!r}")
    specs = tuple(cfg.layers)
    if cfg.wavelet_rewrite:
        get_wavelet(cfg.wavelet_rewrite)  # validate the name early
        specs = _rewrite_strided(specs, cfg.wavelet_rewrite)

    layers = []
    channels = None  # unknown until a channel-pinning layer appears
    for i, spec in enumerate(specs):
        try:
            produced = _materialize(spec)
        except InvalidConfig as exc:
            raise InvalidConfig(f"layer {i}: {exc}") from exc
        for layer in produced:
            if isinstance(layer, Conv2d):
                if channels is not None and channels != layer.c_in:
                    raise InvalidConfig(
                        f"layer {i}: conv expects {layer.c_in} channels but gets {channels}")
                channels = layer.c_out
            elif isinstance(layer, BatchNorm2d):
                if channels is not None and channels != layer.channels:
                    raise InvalidConfig(
                        f"layer {i}: batchnorm over {layer.channels} channels but gets {channels}")
                channels = layer.channels
            elif isinstance(layer, WaveletDown) and layer.kind == "cat":
                if channels is not None:
                    channels *= 4
            elif isinstance(layer, (Flatten, Dense)):
                channels = None
        layers.extend(produced)

    rng = np.random.default_rng(cfg.seed)
    for layer in layers:
        layer.init_params(rng, np.dtype(dtype))
    return Model(layers, cfg, dtype)


def mini_config(mode: str = "max_pool", wavelet: str = "", in_channels: int = 1,
                image_hw=(28, 28), classes: int = 10, seed: int = 0) -> ModelConfig:
    """Three-stage reference network: (conv3x3-BN-ReLU-downsample) x3 -> dense.

    Channel plan 16/32/64; any downsample mode; odd intermediate maps are
    even-padded before their downsample (28x28 input traces 28 -> 14 -> 8 -> 4).
    The channel-concatenation mode widens each following conv's input fourfold.
    """
    if mode not in DOWNSAMPLE_MODES:
        raise InvalidConfig(f"unknown downsample mode {mode!r}")
    if mode in _WAVELET_KINDS and not wavelet:
        raise InvalidConfig(f"mode {mode!r} needs a wavelet name")
    plan = (16, 32, 64)
    h, w = image_hw
    specs = []
    c_prev = in_channels
    for c in plan:
        specs += [conv(3, c_prev, c), batchnorm(c), relu()]
        pad = bool(h % 2 or w % 2)
        if mode == "strided_conv":
            specs.append(downsample(mode, pad_odd=pad, c_in=c, c_out=c))
        else:
            specs.append(downsample(mode, wavelet=wavelet, pad_odd=pad))
        h, w = (h + h % 2) // 2, (w + w % 2) // 2
        c_prev = 4 * c if mode == "dwt_cat" else c
    specs += [flatten(), dense(c_prev * h * w, classes)]
    return ModelConfig(layers=tuple(specs), seed=seed)


# --- training ---


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch: int = 64
    epochs: int = 10

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(TrainConfig)}
        unknown = set(d) - known
        if unknown:
            raise InvalidConfig(f"unknown training config keys: {sorted(unknown)}")
        return TrainConfig(**d)


@dataclass(frozen=True)
class TrainReport:
    train_loss: tuple
    val_loss: tuple
    val_accuracy: tuple
    params_checksum: str
    wall_clock_seconds: float

    def to_csv(self) -> str:
        """Per-epoch CSV plus a checksum row.

        Wall-clock time is deliberately excluded so fixed-seed runs serialize
        bit-identically.
        """
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
    loss_fn = SoftmaxCrossEntropy()
    total_loss = 0.0
    correct = 0
    for i in range(0, len(images), batch):
        xb = images[i:i + batch]
        yb = labels[i:i + batch]
        logits = model.forward(xb, training=False)
        total_loss += loss_fn.forward(logits, yb) * len(yb)
        correct += int((logits.argmax(axis=1) == yb).sum())
    n = len(images)
    return total_loss / n, correct / n


def train(model: Model, dataset, hyper: TrainConfig = TrainConfig(),
          val=None) -> TrainReport:
    """SGD with momentum; deterministic given the model seed and data.

    ``dataset``/``val`` carry ``images`` (NCHW float) and ``labels`` (int
    vector); when ``val`` is omitted the training split doubles as the
    validation split.  A non-finite loss aborts with DivergedLoss carrying
    the partial report.
    """
    t0 = time.perf_counter()
    if len(dataset.images) == 0:
        raise InvalidConfig("empty training dataset")
    val = val if val is not None else dataset
    images = np.asarray(dataset.images, dtype=model.dtype)
    labels = np.asarray(dataset.labels)
    val_images = np.asarray(val.images, dtype=model.dtype)
    val_labels = np.asarray(val.labels)

    rng = np.random.default_rng([model.config.seed, 0x5eed])
    velocity = {}
    train_losses, val_losses, val_accs = [], [], []

    def partial_report():
        return TrainReport(tuple(train_losses), tuple(val_losses), tuple(val_accs),
                           model.checksum(), time.perf_counter() - t0)

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
            for li, layer in enumerate(model.layers):
                grads = layer.grads()
                for name, p in layer.params().items():
                    g = grads[name]
                    if hyper.weight_decay:
                        g = g + hyper.weight_decay * p
                    v = velocity.get((li, name))
                    if v is None:
                        v = np.zeros_like(p)
                        velocity[(li, name)] = v
                    v *= hyper.momentum
                    v -= lr * g
                    p += v
        train_losses.append(epoch_loss / len(images))
        vl, va = _eval_loss_acc(model, val_images, val_labels, hyper.batch)
        val_losses.append(vl)
        val_accs.append(va)
    return partial_report()


def evaluate(model: Model, dataset) -> float:
    """Top-1 error rate on a dataset, in [0, 1].

    Raises InvalidConfig if an image holds NaN or an infinity at the model's
    precision, since such an image would be classified as garbage silently.
    """
    images = np.asarray(dataset.images, dtype=model.dtype)
    if not np.isfinite(images).all():
        raise InvalidConfig("evaluate needs finite image values")
    preds = model.predict(images)
    labels = np.asarray(dataset.labels)
    if preds.shape != labels.shape:
        raise ShapeMismatch(
            f"prediction/label shapes differ: {preds.shape} vs {labels.shape}")
    return float((preds != labels).mean())


# --- gradient checking ---


def gradcheck(target, x: np.ndarray, epsilon: float = 1e-6,
              rng=None, max_coords: int = 150) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``target`` is a layer or model (anything with forward/backward); build it
    in float64 for meaningful results.  The scalar probe is a fixed random
    linear functional of the output; input coordinates and every parameter
    tensor are checked (subsampled beyond ``max_coords`` entries per tensor).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    x = np.asarray(x, dtype=np.float64)
    layers = target.layers if hasattr(target, "layers") else [target]

    def run(inp):
        out = inp
        for layer in layers:
            out = layer.forward(out, training=True)
        return out

    y = run(x)
    w = rng.standard_normal(y.shape)
    analytic_grad = w
    for layer in reversed(layers):
        analytic_grad = layer.backward(analytic_grad)
    param_grads = [{k: np.array(v) for k, v in layer.grads().items()}
                   for layer in layers]

    def loss_at(inp):
        return float((w * run(inp)).sum())

    def coords(size):
        if size <= max_coords:
            return range(size)
        return sorted(rng.choice(size, size=max_coords, replace=False))

    worst = 0.0

    def check(array, grads):
        nonlocal worst
        flat = array.reshape(-1)
        gflat = np.asarray(grads).reshape(-1)
        for i in coords(flat.size):
            keep = flat[i]
            flat[i] = keep + epsilon
            lp = loss_at(x)
            flat[i] = keep - epsilon
            lm = loss_at(x)
            flat[i] = keep
            fd = (lp - lm) / (2 * epsilon)
            a = gflat[i]
            rel = abs(a - fd) / max(1.0, abs(a), abs(fd))
            worst = max(worst, rel)

    check(x, analytic_grad)
    for layer, grads in zip(layers, param_grads):
        for name, p in layer.params().items():
            check(p, grads[name])
    return worst


# --- checkpoints ---

_MAGIC = b"WCN1"
_DTYPE_TAGS = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}


def save_model(model: Model, path) -> None:
    """Write a versioned binary checkpoint (config plus all state arrays)."""
    import json

    tag = 0 if model.dtype == np.float32 else 1
    cfg_blob = json.dumps(model.config.to_dict(), sort_keys=True).encode()
    entries = list(model.named_params()) + list(model.named_buffers())
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<B", tag))
        fh.write(struct.pack("<I", len(cfg_blob)))
        fh.write(cfg_blob)
        fh.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            blob = np.ascontiguousarray(arr).astype("<f4" if tag == 0 else "<f8").tobytes()
            nb = name.encode()
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)


def load_model(path) -> Model:
    """Rebuild a model from a checkpoint written by :func:`save_model`."""
    import json

    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise InvalidConfig(f"{path}: not a model checkpoint")
        tag = struct.unpack("<B", fh.read(1))[0]
        if tag not in _DTYPE_TAGS:
            raise InvalidConfig(f"{path}: unknown element-type tag {tag}")
        (cfg_len,) = struct.unpack("<I", fh.read(4))
        cfg = ModelConfig.from_dict(json.loads(fh.read(cfg_len).decode()))
        model = build_model(cfg, dtype=_DTYPE_TAGS[tag])
        state = dict(model.named_params())
        state.update(model.named_buffers())
        (count,) = struct.unpack("<I", fh.read(4))
        for _ in range(count):
            (name_len,) = struct.unpack("<H", fh.read(2))
            name = fh.read(name_len).decode()
            (ndim,) = struct.unpack("<B", fh.read(1))
            shape = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim)) if ndim else ()
            (nbytes,) = struct.unpack("<Q", fh.read(8))
            data = np.frombuffer(fh.read(nbytes),
                                 dtype="<f4" if tag == 0 else "<f8").reshape(shape)
            if name not in state:
                raise InvalidConfig(f"{path}: unexpected state entry {name!r}")
            if state[name].shape != data.shape:
                raise InvalidConfig(
                    f"{path}: shape mismatch for {name}: "
                    f"{state[name].shape} vs {data.shape}")
            state[name][...] = data
    return model
