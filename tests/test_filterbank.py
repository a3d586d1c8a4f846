import math

import numpy as np
import pytest

from wavecnn.errors import EvenN, TooShort, UnknownWavelet
from wavecnn.filterbank import (Family, derive_highpass, get_wavelet,
                                wavelet_names)

SQRT2 = math.sqrt(2.0)
ALL = wavelet_names()
ORTHOGONAL = tuple(n for n in ALL if get_wavelet(n).family is Family.ORTHOGONAL)
BIORTHOGONAL = tuple(n for n in ALL if get_wavelet(n).family is Family.BIORTHOGONAL)


def test_registry_has_ten_wavelets():
    assert len(ALL) == 10
    assert set(ORTHOGONAL) == {"haar", "db2", "db3", "db4", "db5", "db6"}
    assert set(BIORTHOGONAL) == {"ch2.2", "ch3.3", "ch4.4", "ch5.5"}


def test_unknown_name_raises_and_lists_candidates():
    with pytest.raises(UnknownWavelet) as err:
        get_wavelet("db17")
    assert "db17" in str(err.value)
    assert isinstance(err.value, KeyError)


@pytest.mark.parametrize("name", ALL)
def test_low_pass_sums_are_sqrt2(name):
    spec = get_wavelet(name)
    assert abs(sum(spec.analysis_low) - SQRT2) < 1e-8
    assert abs(sum(spec.synthesis_low) - SQRT2) < 1e-8


@pytest.mark.parametrize("name", ALL)
def test_high_pass_sums_are_zero(name):
    spec = get_wavelet(name)
    assert abs(sum(spec.analysis_high)) < 1e-8
    assert abs(sum(spec.synthesis_high)) < 1e-8


@pytest.mark.parametrize("name", ORTHOGONAL)
def test_orthogonal_norm_and_shift_orthogonality(name):
    low = np.array(get_wavelet(name).analysis_low)
    assert abs(low @ low - 1.0) < 1e-8
    for m in range(1, len(low) // 2 + 1):
        assert abs(low[2 * m:] @ low[:-2 * m or None]) < 1e-8


@pytest.mark.parametrize("name", BIORTHOGONAL)
def test_biorthogonality_even_shift_products(name):
    spec = get_wavelet(name)
    a = np.array(spec.analysis_low)
    s = np.array(spec.synthesis_low)
    span = max(len(a), len(s))
    for m in range(-span, span + 1):
        acc = sum(a[k] * s[k + 2 * m]
                  for k in range(len(a)) if 0 <= k + 2 * m < len(s))
        assert abs(acc - (1.0 if m == 0 else 0.0)) < 1e-8, f"shift {m}"


def test_haar_high_pass_is_exact():
    spec = get_wavelet("haar")
    c = 1.0 / SQRT2
    assert spec.analysis_low == (c, c)
    assert spec.analysis_high == (c, -c)
    assert derive_highpass(spec.analysis_low, 1) == (c, -c)


def test_derive_highpass_alternating_reflection():
    low = (0.1, 0.5, 0.3, -0.2)
    n = len(low) - 1
    high = derive_highpass(low, n)
    assert high == tuple((-1.0) ** k * low[n - k] for k in range(len(low)))


def test_derive_highpass_out_of_range_reads_zero():
    # n_odd beyond the support: the first taps index past the filter end
    high = derive_highpass((1.0, 2.0, 3.0, 4.0), 5)
    assert high == (0.0, 0.0, 4.0, -3.0)
    assert len(derive_highpass((1.0, 2.0), 3)) == 2


def test_derive_highpass_double_application_sign():
    low = (0.2, 0.6, 0.6, 0.2)
    n = len(low) - 1
    twice = derive_highpass(derive_highpass(low, n), n)
    assert np.allclose(twice, np.array(low) * (-1.0) ** n, atol=0)


def test_derive_highpass_rejects_even_or_short():
    with pytest.raises(EvenN):
        derive_highpass((0.5, 0.5), 2)
    with pytest.raises(TooShort):
        derive_highpass((1.0,), 1)


@pytest.mark.parametrize("name", BIORTHOGONAL)
def test_biorthogonal_high_pass_uses_the_dual(name):
    # analysis high-pass comes from the synthesis (dual) low-pass and
    # vice versa; re-deriving from the stored filters must reproduce them
    spec = get_wavelet(name)
    n = len(spec.analysis_low) - 1
    assert spec.analysis_high == derive_highpass(spec.synthesis_low, n)
    assert spec.synthesis_high == derive_highpass(spec.analysis_low, n)


@pytest.mark.parametrize("name", ORTHOGONAL)
def test_orthogonal_bank_is_its_own_dual(name):
    # dual = low: the two pairs coincide and the high-pass is the
    # alternating reflection of the one low-pass
    spec = get_wavelet(name)
    n = len(spec.analysis_low) - 1
    assert spec.synthesis_low == spec.analysis_low
    assert spec.synthesis_high == spec.analysis_high
    assert spec.analysis_high == derive_highpass(spec.analysis_low, n)


@pytest.mark.parametrize("name", BIORTHOGONAL)
def test_cohen_filters_are_symmetric(name):
    spec = get_wavelet(name)
    assert spec.symmetric
    for coeffs in (spec.analysis_low, spec.synthesis_low):
        trimmed = np.trim_zeros(np.array(coeffs))
        assert np.max(np.abs(trimmed - trimmed[::-1])) < 1e-8


@pytest.mark.parametrize("name", ORTHOGONAL)
def test_daubechies_longer_filters_are_asymmetric(name):
    spec = get_wavelet(name)
    assert spec.symmetric == (name == "haar")
    low = np.array(spec.analysis_low)
    assert (np.max(np.abs(low - low[::-1])) < 1e-8) == spec.symmetric


def test_db2_matches_closed_form():
    spec = get_wavelet("db2")
    s3 = math.sqrt(3.0)
    expected = ((1 + s3) / (4 * SQRT2), (3 + s3) / (4 * SQRT2),
                (3 - s3) / (4 * SQRT2), (1 - s3) / (4 * SQRT2))
    assert np.allclose(spec.analysis_low, expected, atol=1e-12)
