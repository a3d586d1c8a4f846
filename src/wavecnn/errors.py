"""Exception types shared across the toolkit.

Everything derives from :class:`WaveError` so callers (and the CLI) can treat
any toolkit failure uniformly; most types also subclass ``ValueError`` because
they signal bad arguments rather than broken state.  The one integer rule
and the seed rule built on it, shared by every entry point that takes a
seed, a shift range or a pair count, live here too.
"""

import numbers


class WaveError(Exception):
    """Base class for all toolkit errors."""


class UnknownWavelet(WaveError, KeyError):
    """Requested wavelet name is not in the registry."""

    def __str__(self) -> str:  # KeyError quotes its payload; keep the message readable
        return self.args[0] if self.args else ""


class EvenN(WaveError, ValueError):
    """High-pass derivation index N must be odd."""


class TooShort(WaveError, ValueError):
    """Signal or operator length below the minimum of 2."""


class ShapeMismatch(WaveError, ValueError):
    """Array shapes inconsistent with the requested operation."""


class NegativeLambda(WaveError, ValueError):
    """Soft-shrinkage threshold must be non-negative (and not NaN)."""


class OddSpatial(WaveError, ValueError):
    """Downsampling layer received odd spatial dimensions."""


class InvalidConfig(WaveError, ValueError):
    """Model or run configuration is inconsistent."""


def _check_int(value, label: str) -> None:
    """InvalidConfig, naming ``value`` as ``label``, unless it is an integer;
    a bool is none, though Python counts it as one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidConfig(f"{label} must be an integer, got {value!r}")


def _check_seed(seed: int, label: str) -> None:
    """InvalidConfig, naming the seed as ``label``, unless ``seed`` is an
    integer >= 0: ``np.random.default_rng`` refuses a negative one with a
    bare ``ValueError`` and a fractional one with a bare ``TypeError``."""
    _check_int(seed, label)
    if seed < 0:
        raise InvalidConfig(f"{label} must be >= 0, got {seed}")


class DivergedLoss(WaveError, RuntimeError):
    """Training loss became non-finite.

    Carries the partial training report accumulated so far in ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class BadSeverity(WaveError, ValueError):
    """Corruption severity outside 1..5."""


class ZeroReference(WaveError, ValueError):
    """Reference error vector sums to zero; CE undefined."""


class MissingCorruption(WaveError, ValueError):
    """A category mean was requested with member corruptions absent."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__(f"missing corruption entries: {', '.join(self.missing)}")


class ShiftOutOfRange(WaveError, ValueError):
    """Requested shift range cannot be realized for the image size."""


class NonPositive(WaveError, ValueError):
    """Dimension arguments must be >= 1."""


class FormatError(WaveError, ValueError):
    """A file does not conform to its declared binary format."""
