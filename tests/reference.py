"""Reference definitions the tests compare the library against.

The library never builds these: it evaluates the truncated operators tile by
tile and computes exact vector-Jacobian products.  The tests check it
against the dense operator matrices (:func:`build_operator`), against
central finite differences (:func:`gradcheck`), count parameters from
the declared shapes (:func:`parameter_count`), and read the gradients a
backward left on a layer (:func:`grads`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wavecnn.errors import TooShort
from wavecnn.filterbank import WaveletSpec
from wavecnn.transform import _place


@dataclass(frozen=True)
class AnalysisOperator:
    """Truncated analysis/synthesis matrices for one (wavelet, length) pair."""

    L: np.ndarray
    H: np.ndarray
    L_syn: np.ndarray
    H_syn: np.ndarray


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


def parameter_count(model) -> int:
    """Counted from the declared shapes, so it allocates nothing."""
    return sum(math.prod(shape) for layer in model.layers
               for shape in layer.param_shapes().values())


def grads(layer) -> dict:
    """Name -> gradient of each learnable array of ``layer`` (``grad_<name>``),
    None where no backward has set it."""
    return {name: getattr(layer, "grad_" + name, None) for name in layer.param_shapes()}


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
    param_grads = [{k: np.array(v) for k, v in grads(layer).items()}
                   for layer in layers]

    def loss_at(inp):
        return float((w * run(inp)).sum())

    def coords(size):
        if size <= max_coords:
            return range(size)
        return sorted(rng.choice(size, size=max_coords, replace=False))

    worst = 0.0

    def check(array, gradient):
        nonlocal worst
        flat = array.reshape(-1)
        gflat = np.asarray(gradient).reshape(-1)
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
    for layer, layer_grads in zip(layers, param_grads):
        for name, p in layer.params().items():
            check(p, layer_grads[name])
    return worst
