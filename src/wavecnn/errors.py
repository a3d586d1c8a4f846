"""Exception types shared across the toolkit.

Everything derives from :class:`WaveError` so callers (and the CLI) can treat
any toolkit failure uniformly; most types also subclass ``ValueError`` because
they signal bad arguments rather than broken state.  The one integer rule,
the one real number rule and the seed rule built on the first live here
too, as does the one field rule every config dataclass applies to itself:
each field holds a value of its type hint.
"""

import functools
import numbers
import sys
import typing


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


def _check_real(value, label: str) -> None:
    """InvalidConfig, naming ``value`` as ``label``, unless it is a real
    number that a float holds (NaN and the infinities too); a bool is none,
    though Python counts it as one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidConfig(f"{label} must be a real number, got {value!r}")
    if isinstance(value, numbers.Rational) and abs(value) > sys.float_info.max:
        raise InvalidConfig(f"{label} must lie in the float range, got {value!r}")


_hints = functools.cache(typing.get_type_hints)


def _check_hints(obj, prefix: str = "") -> None:
    """InvalidConfig, naming the field as ``prefix`` and its name, unless
    each field of the dataclass ``obj`` holds a value of its type hint: an
    ``int`` field an integer and a ``float`` field a real number that a
    float holds, each then stored as a Python ``int`` or ``float`` (so that
    JSON and NumPy take a NumPy scalar or a fraction as they take those), a
    ``str``, ``bool`` or ``tuple`` field a value of exactly that type, and a
    ``tuple[X, ...]`` field a tuple of ``X`` only.  Range rules are each
    class's own."""
    for name, hint in _hints(type(obj)).items():
        value, label = getattr(obj, name), f"{prefix} {name}".lstrip()
        kind, items = typing.get_origin(hint) or hint, typing.get_args(hint)[:1]
        if kind is int or kind is float:
            (_check_int if kind is int else _check_real)(value, label)
            object.__setattr__(obj, name, kind(value))
        elif type(value) is not kind or items and any(type(v) is not items[0] for v in value):
            want = " of ".join(t.__name__ for t in (kind, *items))
            raise InvalidConfig(f"{label} must be {want}, got {value!r}")


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
