"""Dependency-free binary I/O: :class:`Reader`, the one bounds-checked reader
behind every binary format (IDX, PGM, WTN, WCN), binary PGM images and a raw
tensor format.

The tensor container ("WTN1") is four magic bytes, a u8 element-type tag
(0 = float32, 1 = float64), a u8 rank, little-endian u64 dims, then the
row-major payload.  It exists so CLI stages can hand float arrays to each
other bit-exactly.
"""

from __future__ import annotations

import math
import re
import struct

import numpy as np

from .errors import FormatError


class Reader:
    """Cursor over a file's bytes that checks every declared size against the
    bytes left before allocating.  Slices are zero-copy ``memoryview``s."""

    def __init__(self, data, name) -> None:
        self.buf = memoryview(data)
        self.pos = 0
        self.name = name

    @classmethod
    def from_file(cls, path) -> "Reader":
        with open(path, "rb") as fh:
            return cls(fh.read(), path)

    def take(self, n: int) -> memoryview:
        """The next ``n`` bytes; ``FormatError`` if fewer remain."""
        if self.pos + n > len(self.buf):
            raise FormatError(f"{self.name}: truncated: {n} bytes declared at offset "
                              f"{self.pos} of {len(self.buf)}")
        self.pos += n
        return self.buf[self.pos - n:self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, shape) -> np.ndarray:
        """Read-only view of the next array; its size is a Python int, so it
        cannot wrap."""
        data = self.take(math.prod(shape) * np.dtype(dtype).itemsize)
        try:
            return np.frombuffer(data, dtype=dtype).reshape(shape)
        except ValueError as exc:  # a rank or a zero-size shape NumPy cannot hold
            raise FormatError(f"{self.name}: unsupported array shape: {exc}") from exc


TENSOR_MAGIC = b"WTN1"
# the element-type tags of tensor files and model checkpoints
TAG_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
DTYPE_TO_TAG = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def write_tensor(path, array: np.ndarray) -> None:
    arr = np.asarray(array)
    if arr.dtype not in DTYPE_TO_TAG:
        arr = arr.astype(np.float64)
    tag = DTYPE_TO_TAG[arr.dtype]
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<BB", tag, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(np.ascontiguousarray(arr, dtype=TAG_TO_DTYPE[tag]).tobytes())


def read_tensor(path) -> np.ndarray:
    r = Reader.from_file(path)
    magic, tag, rank = r.unpack("<4sBB")
    if magic != TENSOR_MAGIC or tag not in TAG_TO_DTYPE:
        raise FormatError(f"{path}: not a raw tensor file (magic {magic!r}, type tag {tag})")
    dtype = TAG_TO_DTYPE[tag]
    return r.array(dtype, r.unpack(f"<{rank}Q")).astype(dtype.newbyteorder("="))


# A field is a token ended by one whitespace byte or the end of the file; a
# '#' comment runs through its line end, even inside a token (netpbm allows
# it).  No shorter token can end at whitespace, so the parse is unique.
_PGM_COMMENT = rb"#[^\n]*\n"
_PGM_FIELD = rb"(?:\s|%b)*([^\s#]+(?:%b[^\s#]*)*)(?:\s|\Z)" % (_PGM_COMMENT, _PGM_COMMENT)
_PGM_HEADER = re.compile(rb"P5" + _PGM_FIELD * 3)


def read_pgm(path) -> np.ndarray:
    """Binary PGM (P5, maxval <= 255) -> uint8 array of shape (rows, cols).

    Pixels are returned as stored, unscaled; one above maxval is a
    ``FormatError``.
    """
    r = Reader.from_file(path)
    head = _PGM_HEADER.match(r.buf)
    if head is None:
        raise FormatError(f"{path}: not a binary PGM (P5) file, or its header is cut short")
    try:
        width, height, maxval = (int(re.sub(_PGM_COMMENT, b"", tok)) for tok in head.groups())
    except ValueError as exc:
        raise FormatError(f"{path}: malformed PGM header") from exc
    if width < 1 or height < 1 or not 0 < maxval <= 255:
        raise FormatError(f"{path}: unsupported PGM size {width}x{height} or maxval {maxval}")
    r.pos = head.end()
    pixels = r.array(np.uint8, (height, width))
    if pixels.max() > maxval:
        raise FormatError(f"{path}: a pixel exceeds the header's maxval {maxval}")
    return pixels.copy()


def write_pgm(path, image: np.ndarray) -> None:
    """uint8 (or clippable float) 2-D array -> binary PGM with maxval 255."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise FormatError(f"PGM images are 2-D, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        arr = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(np.ascontiguousarray(arr).tobytes())
