import gc
import re
import types
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from wavecnn import transform
from wavecnn.errors import ShapeMismatch, TooShort
from wavecnn.filterbank import get_wavelet, wavelet_names
from wavecnn.transform import (Decomposition2D, detail_views, dwt1d,
                               dwt1d_vjp, dwt2d, dwt2d_interleaved, dwt2d_vjp, idwt1d, idwt2d,
                               idwt2d_interleaved, idwt2d_vjp, lowpass2d, lowpass2d_vjp)

from reference import build_operator

ALL = wavelet_names()
HAAR = get_wavelet("haar")


def interior_margin(spec) -> int:
    return 2 * len(spec.analysis_low)


def boundary_band(spec) -> tuple:
    """``(r, odd_end)``: a zero-extended round trip loses the first ``r``
    samples of each axis, and at an odd length also the last one when
    ``odd_end``; derived from the filter supports.

    Sample ``n`` is rebuilt from coefficient rows ``k`` with ``n - 2k`` on a
    synthesis support, and row ``k = -1`` does not exist, so every ``n`` with
    ``n + 2`` at or before the last synthesis tap is lost.  At an odd length
    ``2K + 1`` row ``K`` does not exist either; it would read ``x[2K]``
    through analysis tap 0 and give it back through synthesis tap 0.
    """
    last = max(max(i for i, c in enumerate(f) if c)
               for f in (spec.synthesis_low, spec.synthesis_high))
    pairs = ((spec.analysis_low, spec.synthesis_low),
             (spec.analysis_high, spec.synthesis_high))
    return max(last - 1, 0), any(a[0] != 0 and s[0] != 0 for a, s in pairs)


def _lost(n, spec):
    r, odd_end = boundary_band(spec)
    lost = np.arange(n) < r
    lost[-1] |= odd_end and n % 2 == 1
    return lost


class TestOperator:
    def test_matrix_shapes_and_placement(self):
        op = build_operator(HAAR, 6)
        assert op.L.shape == op.H.shape == (3, 6)
        # row k holds filter coefficient j at column 2k + j
        expected = np.zeros((3, 6))
        for k in range(3):
            expected[k, 2 * k] = HAAR.analysis_low[0]
            expected[k, 2 * k + 1] = HAAR.analysis_low[1]
        assert np.array_equal(op.L, expected)

    def test_odd_length_rows_truncate(self):
        op = build_operator(HAAR, 7)
        assert op.L.shape == (3, 7)

    def test_truncation_drops_overhanging_taps(self):
        spec = get_wavelet("db2")
        op = build_operator(spec, 6)
        # last row starts at column 4; taps 2 and 3 would land at 6, 7
        assert op.L[2, 4] == spec.analysis_low[0]
        assert op.L[2, 5] == spec.analysis_low[1]
        assert np.count_nonzero(op.L[2]) == 2

    def test_haar_rows_orthonormal_and_cross_orthogonal(self):
        op = build_operator(HAAR, 8)
        gram = op.L @ op.L.T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) == 0.0
        assert np.max(np.abs(np.diag(gram) - 1.0)) < 1e-15
        # not exactly zero: BLAS may fuse c*c - c*c into an fma residual
        assert np.max(np.abs(op.L @ op.H.T)) < 1e-15

    def test_too_short_rejected(self):
        with pytest.raises(TooShort):
            build_operator(HAAR, 1)


class TestDwt1d:
    def test_hand_values_haar(self):
        low, high = dwt1d([1.0, 2.0, 3.0, 4.0], HAAR)
        c = 2.0 ** -0.5
        assert np.allclose(low, [3 * c, 7 * c])
        assert np.allclose(high, [-c, -c])

    def test_synthesis_to_length_one_rejected(self):
        """The bands of a length-1 signal are empty, so they pass the band
        check; the length check refuses it."""
        with pytest.raises(TooShort, match="length must be >= 2, got 1"):
            idwt1d(np.zeros(0), np.zeros(0), HAAR, 1)

    def test_round_trip_even_haar(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(32)
        low, high = dwt1d(x, HAAR)
        assert np.max(np.abs(idwt1d(low, high, HAAR, 32) - x)) < 1e-12

    @pytest.mark.parametrize("name", ALL)
    def test_interior_round_trip(self, name):
        spec = get_wavelet(name)
        rng = np.random.default_rng(1)
        n = 64
        x = rng.standard_normal(n)
        back = idwt1d(*dwt1d(x, spec), spec, n)
        m = interior_margin(spec)
        assert np.max(np.abs(back[m:n - m] - x[m:n - m])) < 1e-10

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeMismatch):
            dwt1d(np.zeros(()), HAAR)
        with pytest.raises(TooShort):
            dwt1d(np.zeros(1), HAAR)
        with pytest.raises(ShapeMismatch):
            idwt1d(np.zeros(3), np.zeros(2), HAAR, 6)

    @pytest.mark.parametrize("n", [9, 2 * transform._TILE + 7])
    def test_stack_matches_per_signal(self, n):
        """To rounding: a stack is one GEMM where one signal is a matrix-vector
        product, which BLAS may round differently."""
        spec = get_wavelet("db3")
        rng = np.random.default_rng(24)
        x, gl, gh = rng.standard_normal((2, 3, n)), *rng.standard_normal((2, 2, 3, n // 2))
        low, high = dwt1d(x, spec)
        back, adj = idwt1d(gl, gh, spec, n), dwt1d_vjp(gl, gh, spec, n)
        assert low.shape == high.shape == (2, 3, n // 2) and back.shape == adj.shape == x.shape
        for i in range(2):
            for j in range(3):
                pairs = [(low[i, j], dwt1d(x[i, j], spec)[0]),
                         (high[i, j], dwt1d(x[i, j], spec)[1]),
                         (back[i, j], idwt1d(gl[i, j], gh[i, j], spec, n)),
                         (adj[i, j], dwt1d_vjp(gl[i, j], gh[i, j], spec, n))]
                for got, want in pairs:
                    assert np.max(np.abs(got - want)) < 1e-12

    def test_float32_stays_float32(self):
        low, high = dwt1d(np.zeros(8, dtype=np.float32), HAAR)
        assert low.dtype == np.float32 and high.dtype == np.float32

    def test_integer_input_computes_double(self):
        low, _ = dwt1d(np.arange(8), HAAR)
        assert low.dtype == np.float64


class TestDwt2d:
    def test_hand_values_haar(self):
        d = dwt2d(np.array([[1.0, 2.0], [3.0, 4.0]]), HAAR)
        assert np.allclose(d.ll, [[5.0]])
        assert np.allclose(d.lh, [[-2.0]])  # row high-pass picks top-bottom
        assert np.allclose(d.hl, [[-1.0]])
        assert np.allclose(d.hh, [[0.0]])
        assert d.original_shape == (2, 2)

    def test_subband_shapes_odd(self):
        d = dwt2d(np.zeros((7, 9)), HAAR)
        assert d.ll.shape == (3, 4)
        assert d.original_shape == (7, 9)

    def test_energy_split_orthogonal_even(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((16, 16))
        d = dwt2d(x, HAAR)
        energy = sum(float((b * b).sum()) for b in d.subbands())
        assert abs(energy - float((x * x).sum())) < 1e-10

    @pytest.mark.parametrize("name", ALL)
    def test_interior_round_trip_rectangular(self, name):
        spec = get_wavelet(name)
        rng = np.random.default_rng(3)
        h, w = 64, 80
        x = rng.standard_normal((h, w))
        back = idwt2d(dwt2d(x, spec), spec)
        m = interior_margin(spec)
        assert back.shape == (h, w)
        assert m < h // 2  # interior must be non-empty for the longest filter
        assert np.max(np.abs(back[m:h - m, m:w - m] - x[m:h - m, m:w - m])) < 1e-10

    def test_ll_only_reconstruction_is_linear(self):
        # blurred reconstruction from ll alone must respect superposition
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((2, 12, 12))

        def blur(z):
            d = dwt2d(z, HAAR)
            zeros = np.zeros_like(d.ll)
            return idwt2d(Decomposition2D(d.ll, zeros, zeros, zeros,
                                          d.original_shape), HAAR)

        lhs = blur(2.5 * x - 1.5 * y)
        rhs = 2.5 * blur(x) - 1.5 * blur(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_mixed_precision_subbands_compute_in_double(self):
        # a float32 ll must not round float64 detail bands down to float32
        rng = np.random.default_rng(5)
        ll = rng.standard_normal((4, 4)).astype(np.float32)
        lh, hl, hh = rng.standard_normal((3, 4, 4))
        mixed = idwt2d(Decomposition2D(ll, lh, hl, hh, (8, 8)), HAAR)
        double = idwt2d(Decomposition2D(ll.astype(np.float64), lh, hl, hh, (8, 8)), HAAR)
        assert mixed.dtype == np.float64
        assert np.array_equal(mixed, double)
        single = idwt2d(Decomposition2D(*(b.astype(np.float32) for b in (ll, lh, hl, hh)),
                                        (8, 8)), HAAR)
        assert single.dtype == np.float32

    def test_idwt2d_rejects_inconsistent_subbands(self):
        d = dwt2d(np.zeros((8, 8)), HAAR)
        bad = Decomposition2D(d.ll, d.lh, d.hl, np.zeros((3, 3)), (8, 8))
        with pytest.raises(ShapeMismatch):
            idwt2d(bad, HAAR)
        for shape in ((4,), (2, 8, 8)):  # not a spatial (H, W)
            with pytest.raises(ShapeMismatch):
                Decomposition2D(*d.subbands(), shape)


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-10)])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", ALL)
def test_round_trip_loses_exactly_the_boundary_band(name, dim, dtype, tol):
    """Exact samples stay within rounding; in each lost one the worst error
    over the stack is about 1e-3 or more."""
    spec = get_wavelet(name)
    for shape in [(5, 40, 48), (5, 41, 47)]:
        x = np.random.default_rng(0).standard_normal(shape).astype(dtype)
        if dim == 1:
            back = idwt1d(*dwt1d(x, spec), spec, shape[-1])
            want = _lost(shape[-1], spec)
        else:
            back = idwt2d(dwt2d(x, spec), spec)
            want = _lost(shape[1], spec)[:, None] | _lost(shape[2], spec)
        assert back.dtype == dtype
        err = np.abs(back - x).max(axis=0)
        got = err > tol if dim == 2 else err.max(axis=0) > tol
        assert np.array_equal(got, want)


def test_readme_boundary_table_matches_the_banks():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    rows = re.findall(r"^ *\| ([a-z]+[\d.]*) \| (\d+) \| (\d+) \| (yes|no) \|$", readme,
                      flags=re.MULTILINE)
    want = {name: (len(get_wavelet(name).analysis_low), *boundary_band(get_wavelet(name)))
            for name in ALL}
    assert {name: (int(taps), int(r), odd == "yes") for name, taps, r, odd in rows} == want


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


class TestVjps:
    @pytest.mark.parametrize("name", ["haar", "db3", "ch3.3"])
    def test_dwt1d_vjp_is_the_adjoint(self, name):
        spec = get_wavelet(name)
        rng = np.random.default_rng(5)
        n = 20
        x = rng.standard_normal(n)
        wl, wh = rng.standard_normal((2, n // 2))
        low, high = dwt1d(x, spec)
        lhs = float(low @ wl + high @ wh)
        rhs = float(x @ dwt1d_vjp(wl, wh, spec, n))
        assert _rel(lhs, rhs) < 1e-12

    @pytest.mark.parametrize("name", ["haar", "db2", "ch4.4"])
    def test_dwt2d_vjp_is_the_adjoint(self, name):
        spec = get_wavelet(name)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10, 14))
        d = dwt2d(x, spec)
        ws = [rng.standard_normal(b.shape) for b in d.subbands()]
        lhs = sum(float((w * b).sum()) for w, b in zip(ws, d.subbands()))
        grad = dwt2d_vjp(Decomposition2D(*ws, d.original_shape), spec)
        assert _rel(lhs, float((grad * x).sum())) < 1e-12

    @pytest.mark.parametrize("name", ["haar", "db4", "ch2.2"])
    def test_idwt2d_vjp_is_the_adjoint(self, name):
        spec = get_wavelet(name)
        rng = np.random.default_rng(7)
        d = dwt2d(rng.standard_normal((12, 12)), spec)
        w = rng.standard_normal((12, 12))
        y = idwt2d(d, spec)
        g = idwt2d_vjp(w, spec)
        lhs = float((w * y).sum())
        rhs = sum(float((gb * b).sum()) for gb, b in zip(g.subbands(), d.subbands()))
        assert _rel(lhs, rhs) < 1e-12

    def test_vjp_differs_from_synthesis_for_biorthogonal(self):
        # the adjoint of analysis uses the analysis matrices, not the duals
        spec = get_wavelet("ch2.2")
        rng = np.random.default_rng(8)
        wl, wh = rng.standard_normal((2, 8))
        n = 16
        adj = dwt1d_vjp(wl, wh, spec, n)
        synth = idwt1d(wl, wh, spec, n)
        assert np.max(np.abs(adj - synth)) > 1e-3


class TestBatch:
    def test_batch_matches_per_plane(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 12, 16))
        d = dwt2d(x, HAAR)
        ll, lh, hl, hh = d.subbands()
        assert ll.shape == (2, 3, 6, 8) and d.original_shape == (12, 16)
        for i in range(2):
            for c in range(3):
                d = dwt2d(x[i, c], HAAR)
                assert np.allclose(ll[i, c], d.ll, atol=1e-14)
                assert np.allclose(hh[i, c], d.hh, atol=1e-14)

    def test_batch_round_trip(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 2, 16, 16))
        bands = dwt2d(x, HAAR).subbands()
        back = idwt2d(Decomposition2D(*bands, (16, 16)), HAAR)
        assert np.max(np.abs(back - x)) < 1e-12

    def test_batch_vjp_is_the_adjoint(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 2, 8, 8))
        bands = dwt2d(x, HAAR).subbands()
        ws = [rng.standard_normal(b.shape) for b in bands]
        lhs = sum(float((w * b).sum()) for w, b in zip(ws, bands))
        grad = dwt2d_vjp(Decomposition2D(*ws, (8, 8)), HAAR)
        assert _rel(lhs, float((grad * x).sum())) < 1e-12

    @pytest.mark.parametrize("hw", [(8, 12), (40, 70)])
    def test_empty_batch_gives_empty_results(self, hw):
        spec, (h, w) = get_wavelet("db4"), hw
        # empty slices keep their parents' strides
        x, g = np.zeros((1, 2, h, w))[:0], np.zeros((1, 2, h // 2, w // 2))[:0]
        d = Decomposition2D(g, g, g, g, hw)
        assert [b.shape for b in dwt2d(x, spec).subbands()] == [g.shape] * 4
        assert lowpass2d(x, spec.analysis_low).shape == g.shape
        for out in (idwt2d(d, spec), dwt2d_vjp(d, spec),
                    lowpass2d_vjp(g, spec.analysis_low, hw)):
            assert out.shape == x.shape

    def test_2d_transforms_reject_a_1d_array(self):
        for transform2d in (dwt2d, idwt2d_vjp, dwt2d_interleaved):
            with pytest.raises(ShapeMismatch):
                transform2d(np.zeros(4), HAAR)
        with pytest.raises(ShapeMismatch):
            lowpass2d(np.zeros(4), HAAR.analysis_low)

    def test_batch_synthesis_rejects_mismatched_batches(self):
        ll = np.zeros((2, 3, 4, 4))
        with pytest.raises(ShapeMismatch):
            idwt2d(Decomposition2D(ll, ll, ll, ll[:1], (8, 8)), HAAR)


TILE = transform._TILE


def _sides(spec):
    """Lengths around every tile boundary of the core, plus two long sides."""
    t = len(spec.analysis_low)
    return sorted({2, 3, 7, 2 * TILE - 1, 2 * TILE, 2 * TILE + 1,
                   2 * TILE + t - 1, 257, 1024})


_dense = lru_cache(maxsize=None)(build_operator)


def _close(got, ref, dtype):
    tol = 1e-12 if dtype == np.float64 else 1e-5
    assert got.dtype == dtype
    assert got.shape == ref.shape
    scale = max(np.max(np.abs(ref)), 1e-300)
    assert np.max(np.abs(got - ref)) <= tol * scale


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", ALL)
class TestTiledCoreMatchesDense:
    """Every tiled code path against the dense truncated operators."""

    def test_1d(self, name, dtype):
        spec = get_wavelet(name)
        rng = np.random.default_rng(12)
        for n in _sides(spec):
            op = _dense(spec, n)
            x = rng.standard_normal(n).astype(dtype)
            gl, gh = rng.standard_normal((2, n // 2)).astype(dtype)
            low, high = dwt1d(x, spec)
            _close(low, op.L @ x.astype(np.float64), dtype)
            _close(high, op.H @ x.astype(np.float64), dtype)
            _close(idwt1d(gl, gh, spec, n),
                   op.L_syn.T @ gl.astype(np.float64) + op.H_syn.T @ gh.astype(np.float64), dtype)
            _close(dwt1d_vjp(gl, gh, spec, n),
                   op.L.T @ gl.astype(np.float64) + op.H.T @ gh.astype(np.float64), dtype)

    def test_2d_non_square(self, name, dtype):
        spec = get_wavelet(name)
        rng = np.random.default_rng(13)
        sides = _sides(spec)
        # each side once along the rows and once along the columns
        for m, n in zip(sides, reversed(sides)):
            om, on = _dense(spec, m), _dense(spec, n)
            x = rng.standard_normal((m, n)).astype(dtype)
            bands = rng.standard_normal((4, m // 2, n // 2)).astype(dtype)
            X, (b0, b1, b2, b3) = x.astype(np.float64), bands.astype(np.float64)
            for got, ref in zip(dwt2d(x, spec).subbands(),
                                (om.L @ X @ on.L.T, om.H @ X @ on.L.T,
                                 om.L @ X @ on.H.T, om.H @ X @ on.H.T)):
                _close(got, ref, dtype)
            for got, ref in zip(idwt2d_vjp(x, spec).subbands(),
                                (om.L_syn @ X @ on.L_syn.T, om.H_syn @ X @ on.L_syn.T,
                                 om.L_syn @ X @ on.H_syn.T, om.H_syn @ X @ on.H_syn.T)):
                _close(got, ref, dtype)
            d = Decomposition2D(*bands, (m, n))
            _close(idwt2d(d, spec),
                   om.L_syn.T @ b0 @ on.L_syn + om.H_syn.T @ b1 @ on.L_syn
                   + om.L_syn.T @ b2 @ on.H_syn + om.H_syn.T @ b3 @ on.H_syn, dtype)
            _close(dwt2d_vjp(d, spec),
                   om.L.T @ b0 @ on.L + om.H.T @ b1 @ on.L
                   + om.L.T @ b2 @ on.H + om.H.T @ b3 @ on.H, dtype)

    def test_batch(self, name, dtype):
        spec = get_wavelet(name)
        rng = np.random.default_rng(14)
        t = len(spec.analysis_low)
        for h, w in ((2 * TILE + t - 1, 2 * TILE + 3), (7, 2 * TILE)):
            x = rng.standard_normal((2, 3, h, w)).astype(dtype)
            bands = dwt2d(x, spec).subbands()
            grads = rng.standard_normal((4, 2, 3, h // 2, w // 2)).astype(dtype)
            back = idwt2d(Decomposition2D(*grads, (h, w)), spec)
            vjp = dwt2d_vjp(Decomposition2D(*grads, (h, w)), spec)
            for i in range(2):
                for c in range(3):
                    plane = dwt2d(x[i, c].astype(np.float64), spec)
                    for got, ref in zip(bands, plane.subbands()):
                        _close(got[i, c], ref, dtype)
                    d = Decomposition2D(*(g[i, c].astype(np.float64) for g in grads), (h, w))
                    _close(back[i, c], idwt2d(d, spec), dtype)
                    _close(vjp[i, c], dwt2d_vjp(d, spec), dtype)


MULTI_TILE = [(2 * TILE + 7, 6 * TILE + 5), (257, 130)]


class TestTiledAdjoints:
    @pytest.mark.parametrize("shape", MULTI_TILE)
    @pytest.mark.parametrize("name", ["haar", "db6", "ch5.5"])
    def test_2d_maps_are_adjoint_pairs(self, name, shape):
        spec = get_wavelet(name)
        rng = np.random.default_rng(15)
        x, g = rng.standard_normal((2,) + shape)
        y = Decomposition2D(*rng.standard_normal((4, shape[0] // 2, shape[1] // 2)), shape)

        def dot(a, b):
            return sum(float((p * q).sum()) for p, q in zip(a.subbands(), b.subbands()))

        assert _rel(dot(dwt2d(x, spec), y), float((x * dwt2d_vjp(y, spec)).sum())) < 1e-12
        assert _rel(float((idwt2d(y, spec) * g).sum()), dot(y, idwt2d_vjp(g, spec))) < 1e-12

    @pytest.mark.parametrize("name", ["db2", "ch3.3"])
    def test_batch_pair_is_adjoint(self, name):
        spec = get_wavelet(name)
        rng = np.random.default_rng(16)
        h, w = MULTI_TILE[0]
        x = rng.standard_normal((2, 2, h, w))
        ys = rng.standard_normal((4, 2, 2, h // 2, w // 2))
        lhs = sum(float((b * y).sum()) for b, y in zip(dwt2d(x, spec).subbands(), ys))
        grad = dwt2d_vjp(Decomposition2D(*ys, (h, w)), spec)
        assert _rel(lhs, float((x * grad).sum())) < 1e-12


def _low_pass_cases(spec):
    """(taps, dense-operator builder) of the ll and subband-mean filters."""
    mean = tuple((a + b) / 2 for a, b in zip(spec.analysis_low, spec.analysis_high))

    def subband_mean(n):
        op = _dense(spec, n)
        return (op.L + op.H) / 2
    return [(spec.analysis_low, lambda n: _dense(spec, n).L), (mean, subband_mean)]


class TestLowPassPair:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", ALL)
    def test_matches_dense_operator(self, name, dtype):
        """Heights 2-39 against widths on both sides of the one-tile limit
        (33 and 70 samples take the tiled path, as do heights from 33)."""
        spec = get_wavelet(name)
        rng = np.random.default_rng(18)
        for taps, dense in _low_pass_cases(spec):
            for h in range(2, 40):
                for w in (2, 9, 28, 2 * TILE + 1, 70):
                    x = rng.standard_normal((2, 3, h, w)).astype(dtype)
                    g = rng.standard_normal((2, 3, h // 2, w // 2)).astype(dtype)
                    fh, fw = dense(h), dense(w)
                    _close(lowpass2d(x, taps), fh @ x.astype(np.float64) @ fw.T, dtype)
                    _close(lowpass2d_vjp(g, taps, (h, w)),
                           fh.T @ g.astype(np.float64) @ fw, dtype)

    @pytest.mark.parametrize("shape", [(8, 12)] + MULTI_TILE)
    @pytest.mark.parametrize("name", ["haar", "db4", "ch3.3"])
    def test_is_an_adjoint_pair(self, name, shape):
        rng = np.random.default_rng(19)
        for taps, _ in _low_pass_cases(get_wavelet(name)):
            x = rng.standard_normal((2, 2) + shape)
            g = rng.standard_normal((2, 2, shape[0] // 2, shape[1] // 2))
            lhs = float((lowpass2d(x, taps) * g).sum())
            assert _rel(lhs, float((x * lowpass2d_vjp(g, taps, shape)).sum())) < 1e-12

    def test_rejects_a_gradient_of_the_wrong_shape(self):
        with pytest.raises(ShapeMismatch):
            lowpass2d_vjp(np.zeros((2, 3, 4, 4)), HAAR.analysis_low, (8, 10))


class TestResultLayout:
    @pytest.mark.parametrize("shape", [(12, 10), (2 * TILE + 5, 4 * TILE + 3)])
    def test_results_are_contiguous_and_own_their_memory(self, shape):
        spec = get_wavelet("db3")
        rng = np.random.default_rng(17)
        # strided inputs: every other column of a wider array
        x = rng.standard_normal((shape[0], 2 * shape[1]))[:, ::2]
        nchw = rng.standard_normal((2, 2) + shape)[:, :, :, ::-1]
        d = dwt2d(x, spec)
        g = d.ll[:, ::-1]
        low, high = dwt1d(x[0], spec)
        results = [low, high, idwt1d(low, high, spec, shape[1]),
                   dwt1d_vjp(low, high, spec, shape[1]), *d.subbands(),
                   idwt2d(d, spec), dwt2d_vjp(d, spec),
                   *idwt2d_vjp(x, spec).subbands(),
                   idwt2d(Decomposition2D(g, g, g, g, shape), spec)]
        nd = dwt2d(nchw, spec)
        z = dwt2d_interleaved(x, spec)
        results += [z, idwt2d_interleaved(z[::-1], spec, shape)]
        results += [*nd.subbands(), idwt2d(nd, spec), dwt2d_vjp(nd, spec),
                    lowpass2d(nchw, spec.analysis_low),
                    lowpass2d_vjp(nd.ll[:, :, ::-1], spec.analysis_low, shape)]
        for r in results:
            assert r.flags.c_contiguous
            assert not np.shares_memory(r, x) and not np.shares_memory(r, nchw)


def _sliced(a):
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), a.dtype)
    wide[..., ::2] = a
    return wide[..., ::2]


def _read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


# the values of ``a`` in other memory layouts
LAYOUTS = {"sliced": _sliced,
           "reversed": lambda a: a[..., ::-1, ::-1].copy()[..., ::-1, ::-1],
           "transposed": lambda a: a.T.copy().T,
           "read_only": _read_only}


@pytest.mark.parametrize("shape", MULTI_TILE)
@pytest.mark.parametrize("name", ["haar", "db4", "ch3.3"])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_multi_tile_values_do_not_depend_on_the_input_layout(layout, name, shape):
    """Every 2D transform gives the same bits on strided, reversed,
    transposed and read-only inputs as on a contiguous copy."""
    spec, taps = get_wavelet(name), get_wavelet(name).analysis_low
    rng = np.random.default_rng(20)
    m, n = shape
    plane = rng.standard_normal(shape)
    z = rng.standard_normal((m - m % 2, n - n % 2))
    bands = rng.standard_normal((4, m // 2, n // 2))
    nchw = rng.standard_normal((2, 3) + shape)
    nbands = rng.standard_normal((4, 2, 3, m // 2, n // 2))

    def run(lay):
        d = Decomposition2D(*map(lay, bands), shape)
        nd = Decomposition2D(*map(lay, nbands), shape)
        return [*dwt2d(lay(plane), spec).subbands(), idwt2d(d, spec), dwt2d_vjp(d, spec),
                *idwt2d_vjp(lay(plane), spec).subbands(),
                dwt2d_interleaved(lay(plane), spec), idwt2d_interleaved(lay(z), spec, shape),
                *dwt2d(lay(nchw), spec).subbands(), idwt2d(nd, spec),
                dwt2d_vjp(nd, spec), lowpass2d(lay(nchw), taps),
                lowpass2d_vjp(nd.ll, taps, shape)]
    for got, want in zip(run(LAYOUTS[layout]), run(np.ascontiguousarray), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestInterleaved:
    """The one coefficient array that dwt2d splits and denoising edits."""

    @pytest.mark.parametrize("shape", [(6, 9), (33, 45), (128, 131)])
    @pytest.mark.parametrize("name", ALL)
    def test_quarters_are_the_subbands_bit_for_bit(self, name, shape):
        spec = get_wavelet(name)
        x = np.random.default_rng(23).standard_normal(shape)
        z, d = dwt2d_interleaved(x, spec), dwt2d(x, spec)
        assert z.shape == (shape[0] - shape[0] % 2, shape[1] - shape[1] % 2)
        for (r, c), band in zip(((0, 0), (1, 0), (0, 1), (1, 1)), d.subbands()):
            assert z[r::2, c::2].tobytes() == band.tobytes()
        assert idwt2d_interleaved(z, spec, shape).tobytes() == idwt2d(d, spec).tobytes()

    def test_detail_views_hold_each_non_ll_position_once(self):
        z = np.zeros((2, 6, 10))
        for view in detail_views(z):
            view += 1
        assert np.all(z[..., ::2, ::2] == 0)
        z[..., ::2, ::2] = 1
        assert np.all(z == 1)

    def test_rejects_coefficients_of_another_shape(self):
        z = np.zeros((8, 10))
        for shape in ((8, 12), (10, 10), (9, 13)):
            with pytest.raises(ShapeMismatch):
                idwt2d_interleaved(z, HAAR, shape)
        assert idwt2d_interleaved(z, HAAR, (9, 11)).shape == (9, 11)


def _arrays_reachable_from_caches():
    """Every ndarray (and base) held by the functools caches of the module."""
    found, seen = [], set()
    todo = [f for f in vars(transform).values() if hasattr(f, "cache_info")]
    todo = [r for f in todo for r in gc.get_referents(f) if isinstance(r, dict)]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.FunctionType, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
            if obj.base is not None:
                todo.append(obj.base)
        else:
            todo.extend(gc.get_referents(obj))
    return found


def test_large_transform_caches_no_dense_operator():
    for f in vars(transform).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    d = dwt2d(np.ones((1024, 1024)), get_wavelet("db4"))
    idwt2d(d, get_wavelet("db4"))
    held = _arrays_reachable_from_caches()
    assert held, "expected the tile blocks to be cached"
    assert max(a.size for a in held) < 512 * 1024
