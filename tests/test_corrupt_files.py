"""Truncated and corrupted IDX, PGM and WTN files.

A read either returns a fresh writable array or raises a toolkit error;
nothing else escapes.  These formats carry no checksum, so a changed
payload byte legitimately loads a different value.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavecnn.datasets import read_idx, write_idx
from wavecnn.errors import FormatError, WaveError
from wavecnn.fileio import read_pgm, read_tensor, write_pgm, write_tensor

FORMATS = {
    "idx": (write_idx, read_idx, np.arange(24, dtype=np.uint8).reshape(2, 3, 4)),
    "pgm": (write_pgm, read_pgm, np.arange(12, dtype=np.uint8).reshape(3, 4)),
    "wtn": (write_tensor, read_tensor, np.arange(6, dtype=np.float32).reshape(2, 3)),
}

EDITS = [("set", 0x00), ("set", 0xff), ("set", 0x7f)] + [("flip", 1 << b) for b in range(8)]


def _valid_bytes(fmt) -> bytes:
    write, _, arr = FORMATS[fmt]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        write(path, arr)
        return path.read_bytes()


def _read(fmt, data: bytes):
    """Read ``data`` as ``fmt`` from a file; a WaveError propagates."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        path.write_bytes(data)
        out = FORMATS[fmt][1](path)
    assert isinstance(out, np.ndarray)
    assert out.flags.writeable and out.flags.owndata
    return out


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_valid_file_round_trips_into_a_fresh_array(fmt):
    want = FORMATS[fmt][2]
    got = _read(fmt, _valid_bytes(fmt))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_truncation_raises_format_error(fmt):
    data = _valid_bytes(fmt)
    for cut in range(len(data)):
        with pytest.raises(FormatError):
            _read(fmt, data[:cut])


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(draw=st.data(), edit=st.sampled_from(EDITS))
def test_any_single_byte_overwrite_loads_or_fails_loudly(fmt, draw, edit):
    data = bytearray(_valid_bytes(fmt))
    at = draw.draw(st.integers(0, len(data) - 1), label="offset")
    op, value = edit
    data[at] = value if op == "set" else data[at] ^ value
    try:
        _read(fmt, bytes(data))
    except WaveError:
        pass


def _dims(fmt: str, *dims: int) -> bytes:
    return b"".join(d.to_bytes(4, "big") if fmt == "idx" else d.to_bytes(8, "little")
                    for d in dims)


IDX_HEAD = b"\x00\x00\x08\x03"
WTN_HEAD = b"WTN1\x00"  # float32, then a rank byte

# Headers that escaped as MemoryError, OverflowError, struct.error or a bare
# ValueError before every reader checked declared sizes against the file.
REGRESSIONS = {
    "idx-truncated-dims": ("idx", IDX_HEAD + _dims("idx", 2)),
    "idx-dim-high-byte-set": ("idx", IDX_HEAD + _dims("idx", 0xff000002, 3, 4) + bytes(24)),
    "wtn-huge-payload": ("wtn", WTN_HEAD + b"\x02" + _dims("wtn", 1 << 40, 1 << 20) + bytes(24)),
    "wtn-dim-above-int64": ("wtn", WTN_HEAD + b"\x02" + _dims("wtn", 0xff00000000000002, 3)
                            + bytes(24)),
    "wtn-count-wraps-negative": ("wtn", WTN_HEAD + b"\x02"
                                 + _dims("wtn", (1 << 63) - 125, 2) + bytes(24)),
    "wtn-rank-numpy-cannot-hold": ("wtn", WTN_HEAD + b"\x41" + _dims("wtn", *[1] * 65)
                                   + bytes(4)),
    "wtn-empty-but-too-big": ("wtn", WTN_HEAD + b"\x02" + _dims("wtn", 0, (1 << 64) - 1)),
    "pgm-huge-dims": ("pgm", b"P5\n99999999 99999999\n255\n" + bytes(16)),
}


@pytest.mark.parametrize("case", sorted(REGRESSIONS))
def test_oversized_or_short_header_raises_format_error(case):
    fmt, data = REGRESSIONS[case]
    with pytest.raises(FormatError):
        _read(fmt, data)


class TestPgmHeader:
    def test_comment_inside_a_token_is_skipped(self):
        """netpbm lets a comment split a token: '1#c<nl>2' reads as 12."""
        img = _read("pgm", b"P5\n1#c\n2 1\n255\n" + bytes(range(12)))
        assert img.shape == (1, 12) and img.tobytes() == bytes(range(12))

    def test_digits_without_separators_are_one_token(self):
        with pytest.raises(FormatError):
            _read("pgm", b"P5 123\n" + bytes(16))

    def test_comment_running_to_end_of_file(self):
        with pytest.raises(FormatError):
            _read("pgm", b"P5 2 2 # 255")
