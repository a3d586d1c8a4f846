"""Wavelet filter-bank registry.

Ten filter banks are built in: the orthogonal Daubechies family (``haar``,
``db2`` .. ``db6``) and the symmetric biorthogonal Cohen family (``ch2.2``,
``ch3.3``, ``ch4.4``, ``ch5.5``).  Low-pass coefficients are stored zero-based
at double precision; high-pass filters are derived by the alternating-sign
reflection rule ``h[k] = (-1)**k * low[n - k]`` with ``n = len(low) - 1`` so
the derived filter lives on the same support as its source.

Orthogonal banks use one filter pair for analysis and synthesis.  Biorthogonal
banks carry a dual low-pass: the analysis high-pass is derived from the dual,
the synthesis high-pass from the primary, and the two pairs satisfy
``sum_k l[k] * lt[k + 2m] = delta(m)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import EvenN, TooShort, UnknownWavelet

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)


class Family(Enum):
    ORTHOGONAL = "orthogonal"
    BIORTHOGONAL = "biorthogonal"


@dataclass(frozen=True)
class WaveletSpec:
    """Immutable filter bank: analysis/synthesis low- and high-pass filters.

    ``analysis_low``/``analysis_high`` decompose; ``synthesis_low``/
    ``synthesis_high`` reconstruct.  For orthogonal banks the two pairs are
    identical.  Exact zeros at the ends of a filter are kept so indices
    match the published tables.
    """

    name: str
    family: Family
    analysis_low: tuple
    analysis_high: tuple
    synthesis_low: tuple
    synthesis_high: tuple
    symmetric: bool


def derive_highpass(low, n_odd: int) -> tuple:
    """High-pass filter from a low-pass filter: ``h[k] = (-1)**k * low[n-k]``.

    ``n_odd`` must be odd; indices outside the support of ``low`` read as
    zero.  The result has the same length (support) as the input.  Applying
    the rule twice with the same odd ``n = len(low) - 1`` returns the input
    up to the global sign ``(-1)**n``.
    """
    if n_odd % 2 == 0:
        raise EvenN(f"derivation index must be odd, got {n_odd}")
    low = tuple(float(c) for c in low)
    if len(low) < 2:
        raise TooShort(f"filter needs at least 2 taps, got {len(low)}")
    out = []
    for k in range(len(low)):
        j = n_odd - k
        c = low[j] if 0 <= j < len(low) else 0.0
        out.append(c if k % 2 == 0 else -c)
    return tuple(out)


# --- Daubechies low-pass filters (ascending index). haar and db2 are closed
# forms; db3..db6 are the standard published 12-decimal values. ---

_DAUBECHIES = {
    "haar": (1.0 / _SQRT2, 1.0 / _SQRT2),
    "db2": (
        (1.0 + _SQRT3) / (4.0 * _SQRT2),
        (3.0 + _SQRT3) / (4.0 * _SQRT2),
        (3.0 - _SQRT3) / (4.0 * _SQRT2),
        (1.0 - _SQRT3) / (4.0 * _SQRT2),
    ),
    "db3": (
        0.332670552950, 0.806891509311, 0.459877502118,
        -0.135011020010, -0.085441273882, 0.035226291886,
    ),
    "db4": (
        0.230377813309, 0.714846570553, 0.630880767930, -0.027983769417,
        -0.187034811719, 0.030841381836, 0.032883011667, -0.010597401785,
    ),
    "db5": (
        0.160102397974, 0.603829269797, 0.724308528438, 0.138428145901,
        -0.242294887066, -0.032244869585, 0.077571493840, -0.006241490213,
        -0.012580751999, 0.003335725285,
    ),
    "db6": (
        0.111540743350, 0.494623890398, 0.751133908021, 0.315250351709,
        -0.226264693965, -0.129766867567, 0.097501605587, 0.027522865530,
        -0.031582039317, 0.000553842201, 0.004777257511, -0.001077301085,
    ),
}

# --- Cohen (CDF) low-pass pairs, (primary, dual), center-aligned so that
# biorthogonality holds shift-for-shift. ch2.2/ch3.3 are exact spline closed
# forms; ch4.4/ch5.5 come from factoring the maxflat halfband polynomial
# (the usual 9/7-style construction) and round to the familiar 8-decimal
# published values. ---

_CH44_L = (
    0.0,
    -0.06453888262893849, -0.04068941760955851, 0.41809227322221243,
    0.7884856164056648,
    0.41809227322221243, -0.04068941760955851, -0.06453888262893849,
    0.0, 0.0,
)
_CH44_LT = (
    0.03782845550699544, -0.023849465019380026, -0.11062440441842344,
    0.3774028556126535,
    0.8526986790094032,
    0.3774028556126535,
    -0.11062440441842344, -0.023849465019380026, 0.03782845550699544,
    0.0,
)
_CH55_L = (
    0.013456709459419543, -0.002694966880607371, -0.13670658466396488,
    -0.09350469740066457, 0.476803265797819,
    0.8995061097490914,
    0.476803265797819, -0.09350469740066457,
    -0.13670658466396488, -0.002694966880607371, 0.013456709459419543,
    0.0,
)
_CH55_LT = (
    0.0,
    0.039687088347862484, 0.007948108637387674, -0.05446378846835619,
    0.3456052819558859,
    0.7366601814275346,
    0.3456052819558859,
    -0.05446378846835619, 0.007948108637387674, 0.039687088347862484,
    0.0, 0.0,
)

_COHEN = {
    "ch2.2": (
        (0.0, _SQRT2 / 4, _SQRT2 / 2, _SQRT2 / 4, 0.0, 0.0),
        (-_SQRT2 / 8, _SQRT2 / 4, 3 * _SQRT2 / 4, _SQRT2 / 4, -_SQRT2 / 8, 0.0),
    ),
    "ch3.3": (
        (0.0, 0.0, _SQRT2 / 8, 3 * _SQRT2 / 8, 3 * _SQRT2 / 8, _SQRT2 / 8, 0.0, 0.0),
        tuple(k * _SQRT2 / 64 for k in (3, -9, -7, 45, 45, -7, -9, 3)),
    ),
    "ch4.4": (_CH44_L, _CH44_LT),
    "ch5.5": (_CH55_L, _CH55_LT),
}


def _build_spec(name: str) -> WaveletSpec:
    if name in _DAUBECHIES:
        low = _DAUBECHIES[name]
        high = derive_highpass(low, len(low) - 1)
        return WaveletSpec(
            name=name,
            family=Family.ORTHOGONAL,
            analysis_low=low,
            analysis_high=high,
            synthesis_low=low,
            synthesis_high=high,
            symmetric=(name == "haar"),
        )
    low, dual = _COHEN[name]
    return WaveletSpec(
        name=name,
        family=Family.BIORTHOGONAL,
        analysis_low=low,
        analysis_high=derive_highpass(dual, len(low) - 1),
        synthesis_low=dual,
        synthesis_high=derive_highpass(low, len(low) - 1),
        symmetric=True,
    )


_REGISTRY = {name: _build_spec(name) for name in (*_DAUBECHIES, *_COHEN)}


def wavelet_names() -> tuple:
    """All registered wavelet names, orthogonal family first."""
    return tuple(_REGISTRY)


def get_wavelet(name: str) -> WaveletSpec:
    """Look up a registered filter bank by name.

    Raises:
        UnknownWavelet: if ``name`` is not registered.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise UnknownWavelet(f"unknown wavelet {name!r}; known: {known}") from None


@dataclass(frozen=True)
class FilterCheck:
    name: str
    passed: bool
    residual: float


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the filter-bank identity checks, one entry per check."""

    wavelet: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __iter__(self):
        return iter(self.checks)


_TOL = 1e-8


def _shift_products(a, b):
    """max_m | sum_k a[k] b[k+2m] - delta(m) | over all even shifts."""
    worst = 0.0
    span = (max(len(a), len(b)) // 2) + 1
    for m in range(-span, span + 1):
        acc = 0.0
        for k, ak in enumerate(a):
            j = k + 2 * m
            if 0 <= j < len(b):
                acc += ak * b[j]
        target = 1.0 if m == 0 else 0.0
        worst = max(worst, abs(acc - target))
    return worst


def _palindrome_defect(coeffs) -> float:
    trimmed = list(coeffs)
    while trimmed and trimmed[0] == 0.0:
        trimmed.pop(0)
    while trimmed and trimmed[-1] == 0.0:
        trimmed.pop()
    if not trimmed:
        return 0.0
    return max(abs(a - b) for a, b in zip(trimmed, reversed(trimmed)))


def validate_filterbank(spec: WaveletSpec) -> ValidationReport:
    """Check the filter-bank identities; failures are reported, not raised.

    Covers the sum rule on both low-pass filters, the norm rule and shift
    orthogonality (orthogonal family), biorthogonality across all even shifts,
    and agreement of the ``symmetric`` flag with the stored coefficients.
    """
    checks = []

    r = abs(sum(spec.analysis_low) - _SQRT2)
    checks.append(FilterCheck("sum_rule_analysis", r <= _TOL, r))
    r = abs(sum(spec.synthesis_low) - _SQRT2)
    checks.append(FilterCheck("sum_rule_synthesis", r <= _TOL, r))

    if spec.family is Family.ORTHOGONAL:
        r = abs(sum(c * c for c in spec.analysis_low) - 1.0)
        checks.append(FilterCheck("norm_rule", r <= _TOL, r))

    r = _shift_products(spec.analysis_low, spec.synthesis_low)
    checks.append(FilterCheck("biorthogonality_shifts", r <= _TOL, r))

    defect = _palindrome_defect(spec.analysis_low)
    flag_matches = (defect <= _TOL) == spec.symmetric
    checks.append(FilterCheck("symmetry_flag", flag_matches, defect))

    return ValidationReport(wavelet=spec.name, checks=tuple(checks))
