"""Multiply-add accounting for the 2D transforms, each layer and whole models.

Every count lives here; the layers only state their shapes
(``Layer.output_shape``).  The transform counts follow the dense
truncated-matrix reading: each subband is a chained product of a ``m/2 x m``
operator, the image, and a ``n x n/2`` transposed operator, evaluated left to
right, counting every scalar multiply and add.  :func:`layer_madds` counts a
wavelet down-sampler at that full 2D-analysis cost, conv and dense layers by
the usual fused kernel-size times output-size convention, and every other
layer at 0.  Reports also expose two alternative readings of the wavelet cost
(ll-subband-only quarter count, and a banded count of the filter taps alone)
so the headline convention is auditable.

These are counting conventions, not a trace of the executed arithmetic.
:mod:`wavecnn.transform` evaluates a side of at most 32 samples (one tile;
every feature map of the reference network) with the dense truncated
operators, and a longer side in tiles of 16 coefficient pairs, where each
tile still multiplies the zeros inside its band.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields

from .errors import InvalidConfig, NonPositive, ShapeMismatch, OddSpatial
from .layers import Conv2d, Dense, WaveletDown


def _check_dims(m: int, n: int, c: int):
    if m < 1 or n < 1 or c < 1:
        raise NonPositive(f"dimensions must be >= 1, got m={m}, n={n}, c={c}")


def dwt2d_madds(m: int, n: int, c: int) -> int:
    """Multiply-adds of a dense 2D analysis over c channels: 4c(m^2 n + m n^2/2 - 3mn/4)."""
    _check_dims(m, n, c)
    return c * (4 * m * m * n + 2 * m * n * n - 3 * m * n)


def idwt2d_madds(m: int, n: int, c: int) -> int:
    """Multiply-adds of a dense 2D synthesis: 4c(m n^2 + m^2 n/2 - 3mn/4) + 3."""
    _check_dims(m, n, c)
    return c * (4 * m * n * n + 2 * m * m * n - 3 * m * n) + 3


def dwt2d_banded_madds(m: int, n: int, c: int, taps: int) -> int:
    """Fused multiply-adds of a banded analysis that touches only the taps.

    Two stride-2 row passes shared by the four subbands, then four column
    passes, each output coefficient costing ``taps`` fused multiply-adds.
    This is the floor the transform's evaluation works toward, not its exact
    cost: :mod:`wavecnn.transform` runs short sides densely and longer ones
    tile by tile, and each tile still multiplies some zeros.  Not a published
    counting convention; reported for contrast only.
    """
    _check_dims(m, n, c)
    row = 2 * (m // 2) * n * taps
    col = 4 * (m // 2) * (n // 2) * taps
    return c * (row + col)


def layer_madds(layer, in_shape) -> int:
    """Multiply-adds of ``layer`` on one input of ``in_shape``, a shape its
    ``output_shape`` accepts (which raises on any other)."""
    out_shape = layer.output_shape(in_shape)
    if isinstance(layer, Conv2d):
        _, ho, wo = out_shape
        return layer.kernel * layer.kernel * layer.c_in * layer.c_out * ho * wo
    if isinstance(layer, Dense):
        return layer.n_in * layer.n_out
    if isinstance(layer, WaveletDown):
        c, h, w = in_shape
        return dwt2d_madds(h, w, c)
    return 0


# Each field is a column of both report formats: a JSON key, and a CSV column
# in field order.  tests/golden/flops pins both.
@dataclass(frozen=True)
class LayerMadds:
    index: int
    kind: str
    in_shape: tuple
    out_shape: tuple
    madds: int
    wavelet: bool
    ll_only: int = 0
    banded: int = 0


# how a CSV cell is written: a shape as CxHxW, a flag as 0/1, anything else by str
_CELL = {tuple: lambda dims: "x".join(str(d) for d in dims), bool: lambda flag: str(int(flag))}

# the report's closing values, in the order both formats give them
_SUBTOTALS = ("wavelet_subtotal", "other_subtotal", "total", "ratio_percent",
              "wavelet_ll_only_subtotal", "wavelet_banded_subtotal")


@dataclass(frozen=True)
class MaddsReport:
    """Per-layer multiply-add table with wavelet/non-wavelet subtotals.

    ``ratio_percent`` is 100 * wavelet / (wavelet + other).  The secondary
    wavelet columns (``wavelet_ll_only_subtotal``, ``wavelet_banded_subtotal``)
    restate the wavelet rows under the quarter-count and banded conventions.
    """

    rows: tuple

    @property
    def wavelet_subtotal(self) -> int:
        return sum(r.madds for r in self.rows if r.wavelet)

    @property
    def other_subtotal(self) -> int:
        return sum(r.madds for r in self.rows if not r.wavelet)

    @property
    def wavelet_ll_only_subtotal(self) -> int:
        return sum(r.ll_only for r in self.rows)

    @property
    def wavelet_banded_subtotal(self) -> int:
        return sum(r.banded for r in self.rows)

    @property
    def total(self) -> int:
        return self.wavelet_subtotal + self.other_subtotal

    @property
    def ratio_percent(self) -> float:
        if self.total == 0:
            return 0.0
        return 100.0 * self.wavelet_subtotal / self.total

    def to_json_dict(self) -> dict:
        return {
            "layers": [asdict(r) for r in self.rows],  # json writes a shape tuple as a list
            **{name: getattr(self, name) for name in _SUBTOTALS},
        }

    def to_csv(self) -> str:
        """One row per layer in ``LayerMadds`` field order, then one per
        subtotal, padded to the field count."""
        names = [f.name for f in fields(LayerMadds)]
        rows = [[_CELL.get(type(v), str)(v) for v in astuple(r)] for r in self.rows]
        rows += [[name, repr(getattr(self, name))] + [""] * (len(names) - 2)
                 for name in _SUBTOTALS]
        return "".join(",".join(cells) + "\n" for cells in [names, *rows])


def model_madds(model, input_shape) -> MaddsReport:
    """Trace a built model at ``input_shape`` ((C,H,W) or (N,C,H,W)) and
    count each layer with :func:`layer_madds`."""
    shape = tuple(int(d) for d in input_shape)
    if len(shape) == 4:
        shape = shape[1:]
    if len(shape) != 3:
        raise InvalidConfig(f"input shape must be (C,H,W) or (N,C,H,W), got {input_shape}")

    rows = []
    for i, layer in enumerate(model.layers):
        try:
            count = layer_madds(layer, shape)
        except (ShapeMismatch, OddSpatial) as exc:
            raise InvalidConfig(f"layer {i} does not fit input {shape}: {exc}") from exc
        out_shape = layer.output_shape(shape)
        is_wavelet = isinstance(layer, WaveletDown)
        ll_only = banded = 0
        if is_wavelet:
            c, h, w = shape
            ll_only = round(count / 4)
            banded = dwt2d_banded_madds(h, w, c, len(layer.spec.analysis_low))
        rows.append(LayerMadds(
            index=i, kind=type(layer).__name__, in_shape=shape, out_shape=out_shape,
            madds=count, wavelet=is_wavelet, ll_only=ll_only, banded=banded))
        shape = out_shape
    return MaddsReport(tuple(rows))
