import numpy as np
import pytest

from wavecnn import network as nw
from wavecnn.complexity import (MaddsReport, dwt2d_banded_madds, dwt2d_madds,
                                idwt2d_madds, model_madds)
from wavecnn.errors import InvalidConfig, NonPositive


def chain_madds(p, q, r):
    """Scalar multiplies plus adds for a dense (p x q) @ (q x r) product."""
    return p * r * (2 * q - 1)


def analysis_oracle(m, n, c):
    """Count the four subbands as independent (row @ X) @ col.T products."""
    per_band = chain_madds(m // 2, m, n) + chain_madds(m // 2, n, n // 2)
    return 4 * c * per_band


class TestFormulas:
    def test_spot_values(self):
        assert dwt2d_madds(2, 2, 1) == 36
        assert idwt2d_madds(2, 2, 1) == 39

    def test_large_reference_value(self):
        assert dwt2d_madds(224, 224, 3) == 201_858_048

    def test_linear_in_channels(self):
        for m, n in ((4, 6), (8, 8)):
            assert dwt2d_madds(m, n, 4) == 2 * dwt2d_madds(m, n, 2)
            assert idwt2d_madds(m, n, 2) - 3 == 2 * (idwt2d_madds(m, n, 1) - 3)

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("c", [1, 2])
    def test_matches_dense_product_counting(self, m, n, c):
        assert dwt2d_madds(m, n, c) == analysis_oracle(m, n, c)
        # synthesis mirrors analysis with the roles of m and n exchanged,
        # plus its constant offset of 3
        assert idwt2d_madds(m, n, c) == analysis_oracle(n, m, c) + 3

    def test_non_positive_rejected(self):
        for bad in ((0, 4, 1), (4, 0, 1), (4, 4, 0), (-2, 4, 1)):
            with pytest.raises(NonPositive):
                dwt2d_madds(*bad)
            with pytest.raises(NonPositive):
                idwt2d_madds(*bad)

    def test_banded_count_is_far_below_dense(self):
        dense = dwt2d_madds(64, 64, 1)
        banded = dwt2d_banded_madds(64, 64, 1, taps=2)
        assert banded < dense / 10
        assert dwt2d_banded_madds(8, 8, 3, 4) == 3 * dwt2d_banded_madds(8, 8, 1, 4)


class TestModelReport:
    def test_subtotals_and_ratio(self):
        model = nw.build_model(nw.mini_config("dwt_ll", "haar"))
        report = model_madds(model, (1, 1, 28, 28))
        assert report.wavelet_subtotal + report.other_subtotal == report.total
        assert report.ratio_percent == pytest.approx(
            100.0 * report.wavelet_subtotal / report.total)
        wavelet_rows = [r for r in report.rows if r.wavelet]
        assert len(wavelet_rows) == 3
        assert sum(r.madds for r in wavelet_rows) == report.wavelet_subtotal

    def test_wavelet_rows_carry_secondary_counts(self):
        model = nw.build_model(nw.mini_config("dwt_ll", "haar"))
        report = model_madds(model, (1, 28, 28))
        for r in report.rows:
            if r.wavelet:
                assert r.ll_only == round(r.madds / 4)
                assert 0 < r.banded < r.madds
            else:
                assert r.ll_only == 0 and r.banded == 0

    def test_no_layer_has_zero_ratio(self):
        """No multiply-add at all: the ratio is 0, not a division by zero."""
        report = MaddsReport(())
        assert report.total == 0 and report.ratio_percent == 0.0
        assert "\nratio_percent,0.0,,,,,,\n" in report.to_csv()

    def test_pooling_model_has_zero_ratio(self):
        model = nw.build_model(nw.mini_config("max_pool"))
        report = model_madds(model, (1, 28, 28))
        assert report.wavelet_subtotal == 0
        assert report.ratio_percent == 0.0

    def test_expected_layer_counts_by_hand(self):
        # conv3x3 (1 -> 16) on 28x28 then dense 1024 -> 10
        model = nw.build_model(nw.mini_config("max_pool"))
        report = model_madds(model, (1, 28, 28))
        assert report.rows[0].madds == 9 * 1 * 16 * 28 * 28
        assert report.rows[-1].madds == 1024 * 10
        assert report.rows[-1].out_shape == (10,)

    def test_wavelet_subtotal_matches_formula_sum(self):
        model = nw.build_model(nw.mini_config("dwt_avg", "db3"))
        report = model_madds(model, (1, 28, 28))
        expected = (dwt2d_madds(28, 28, 16) + dwt2d_madds(14, 14, 32)
                    + dwt2d_madds(8, 8, 64))
        assert report.wavelet_subtotal == expected

    def test_incompatible_input_rejected(self):
        model = nw.build_model(nw.mini_config("max_pool"))
        with pytest.raises(InvalidConfig):
            model_madds(model, (3, 28, 28))
        with pytest.raises(InvalidConfig):
            model_madds(model, (28, 28))

    @pytest.mark.parametrize("layers,shape", [
        ((nw.batchnorm(3), nw.relu()), (2, 8, 8)),
        ((nw.conv(3, 1, 2), nw.downsample("dwt_ll", "haar")), (1, 7, 8))])
    def test_every_layer_checks_its_input(self, layers, shape):
        """A batchnorm over the wrong channel count, an odd map into a wavelet layer."""
        model = nw.build_model(nw.ModelConfig(layers=layers))
        with pytest.raises(InvalidConfig, match="layer "):
            model_madds(model, shape)

    def test_csv_and_json_agree(self):
        model = nw.build_model(nw.mini_config("dwt_cat", "haar"))
        report = model_madds(model, (1, 28, 28))
        d = report.to_json_dict()
        assert d["total"] == report.total
        assert d["ratio_percent"] == report.ratio_percent
        text = report.to_csv()
        assert f"total,{report.total}" in text
        assert text.splitlines()[0].startswith("index,kind")
