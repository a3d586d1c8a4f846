"""Print the tracemalloc peak of training and of inference, per
down-sampling mode, and of one robustness error matrix.

For each of the six ``mini_config`` modes, in float32, three numbers:

- ``step``: one 64-image step (forward, loss and ``Model.backward``) after
  one warm-up step, which fills the transform caches;
- ``epoch``: one ``train`` epoch (batch 64) of a fresh model on 1,200
  synthetic 28x28 gratings, validated on 400 more (noise 0.10, amplitude
  0.12, the criterion-7 recipe);
- ``infer``: one inference forward (``training=False``) of 32 images, the
  block ``Model.predict_logits`` forwards, after one warm-up forward.

Then one ``error_matrix`` row: ``robustness.error_matrix`` of a float32
``max_pool`` model over those 400 validation images, every noise kind at
every severity.

Only memory that Python allocators hand out is traced, NumPy arrays
included; BLAS work buffers and the interpreter are not, so the numbers do
not depend on the C library's malloc settings.  Run from anywhere:

    python tools/step_peak.py

It prints one ``mode step_MiB epoch_MiB infer_MiB`` row per mode, then a
``path MiB`` header and the ``error_matrix`` row.
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from wavecnn import network as nw, robustness
from wavecnn.datasets import synthetic_classification

MODES = (("max_pool", ""), ("avg_pool", ""), ("strided_conv", ""),
         ("dwt_ll", "haar"), ("dwt_avg", "db4"), ("dwt_cat", "ch3.3"))


def traced_peak(fn) -> int:
    """Bytes at the tracemalloc peak of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> int:
    recipe = dict(classes=10, noise=0.10, amplitude=0.12)
    train_ds = synthetic_classification(1200, seed=1, **recipe)
    val_ds = synthetic_classification(400, seed=2, **recipe)
    x = train_ds.images[:64].astype(np.float32)
    labels = train_ds.labels[:64]
    print("mode step_MiB epoch_MiB infer_MiB")
    for mode, wavelet in MODES:
        model = nw.build_model(nw.mini_config(mode, wavelet), dtype=np.float32)

        def step():
            model.loss.forward(model.forward(x, training=True), labels)
            model.backward(model.loss.backward())
        step()
        step_peak = traced_peak(step)
        fresh = nw.build_model(nw.mini_config(mode, wavelet), dtype=np.float32)
        epoch_peak = traced_peak(
            lambda: nw.train(fresh, train_ds, nw.TrainConfig(epochs=1), val=val_ds))
        block = x[:nw.PREDICT_BLOCK]
        model.forward(block, training=False)
        infer_peak = traced_peak(lambda: model.forward(block, training=False))
        print(f"{mode} {step_peak / 2**20:.1f} {epoch_peak / 2**20:.1f} "
              f"{infer_peak / 2**20:.2f}")
    model = nw.build_model(nw.mini_config("max_pool"), dtype=np.float32)
    matrix_peak = traced_peak(lambda: robustness.error_matrix(model, val_ds))
    print("path MiB")
    print(f"error_matrix {matrix_peak / 2**20:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
