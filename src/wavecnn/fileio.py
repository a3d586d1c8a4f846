"""Every file format of the toolkit, and the one path that writes files.

Integers in headers are unsigned, big-endian in IDX and little-endian in
the toolkit's own formats.  Payloads are row-major.

- **IDX** (``.idx``, u8 only): magic ``00 00 08``, a u8 rank, that many u32
  dims, then the u8 payload.
- **PGM** (``.pgm``, binary P5): ``P5``, then width, height and maxval as
  ASCII fields between whitespace and ``#`` comments, one whitespace byte,
  then the u8 pixels.  Written with maxval 255; any maxval from 1 to 255
  reads, and a pixel above it is refused.
- **WTN1** (``.wtn``, raw tensor): magic ``WTN1``, a u8 element-type tag
  (0 = float32, 1 = float64), a u8 rank, that many u64 dims, then the
  payload.  It exists so CLI stages can hand float arrays to each other
  bit-exactly.
- **WCN2** (``.wcn``, model checkpoint): magic ``WCN2``, a u8 element-type
  tag, a u32 length and that many bytes of the model config as JSON with
  sorted keys, a u32 entry count, then per state entry a u16 length and
  that many bytes of UTF-8 name, a u8 rank, that many u64 dims, a u64 byte
  count and the payload; closed by the sha256 of every byte before it.
  The older ``WCN1`` layout, the same without the digest, is refused.

Every read goes through :class:`Reader`, which checks each size a header
declares against the bytes the file holds before allocating.  Every write
goes through :func:`_write`.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import re
import stat
import struct

import numpy as np

from .errors import FormatError, InvalidConfig


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
        """The next array, stored as ``dtype``, as a native-order copy; its
        size is a Python int, so it cannot wrap."""
        dtype = np.dtype(dtype)
        data = self.take(math.prod(shape) * dtype.itemsize)
        try:
            return np.frombuffer(data, dtype).reshape(shape).astype(dtype.newbyteorder("="))
        except ValueError as exc:  # a rank or a zero-size shape NumPy cannot hold
            raise FormatError(f"{self.name}: unsupported array shape: {exc}") from exc


def _write(path, *parts) -> None:
    """Write ``parts``, byte strings and C-contiguous arrays, to ``path`` in
    order; arrays go straight from their buffers.

    Where ``path`` is a regular file or does not exist, the parts go to a
    sibling temporary file that then replaces it, so ``path`` holds either
    its old bytes or all the new ones.  A replaced file keeps its permission
    bits, and on any failure the temporary file is removed.  A file the
    caller may not write is refused, as an in-place open refuses it.  The
    rename has limits an in-place write does not: the replaced file takes
    the writer's owner and group, a hard link to it keeps the old bytes, and
    in a sticky directory (``/tmp``) another user's file cannot be replaced.
    A symlink, device or FIFO (``/dev/stdout``) is written in place.
    Nothing is synced to disk, so a power loss may still cut a file.
    """
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    whole = mode is None or stat.S_ISREG(mode)
    if whole and mode is not None and not os.access(path, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
    dest = (os.path.join(os.path.dirname(path), f".wavecnn-{os.urandom(6).hex()}.tmp")
            if whole else path)
    try:
        fh = open(dest, "xb" if whole else "wb")  # a new file gets 0o666 less the umask
    except OSError as exc:  # name the destination, not the temporary file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            fh.writelines(parts)
        if whole:
            if mode is not None:
                os.chmod(dest, stat.S_IMODE(mode))
            try:
                os.replace(dest, path)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    except BaseException:
        if whole:
            os.unlink(dest)
        raise


def read_idx(path) -> np.ndarray:
    """Read a u8 IDX file into an array of its stored rank."""
    r = Reader.from_file(path)
    magic, rank = r.unpack(">3sB")
    if magic != b"\x00\x00\x08":
        raise FormatError(f"{path}: not a u8 IDX file (magic {magic.hex()})")
    return r.array(np.uint8, r.unpack(f">{rank}I"))


def write_idx(path, array: np.ndarray) -> None:
    """Rank 1 or 3 array of values in 0..255 -> u8 IDX file."""
    arr = np.asarray(array)
    if arr.ndim not in (1, 3):
        raise FormatError(f"IDX writer handles rank 1 or 3, got {arr.ndim}")
    if not np.all((arr >= 0) & (arr <= 255)):
        raise FormatError("IDX files hold u8 values; got values outside 0..255")
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    _write(path, struct.pack(f">I{arr.ndim}I", 0x800 | arr.ndim, *arr.shape), arr)


TENSOR_MAGIC = b"WTN1"
# the element-type tags of tensor files and model checkpoints; any other
# dtype is written as float64
TAG_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
DTYPE_TO_TAG = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def write_tensor(path, array: np.ndarray) -> None:
    arr = np.asarray(array)
    tag = DTYPE_TO_TAG.get(arr.dtype, 1)
    _write(path, TENSOR_MAGIC, struct.pack(f"<BB{arr.ndim}Q", tag, arr.ndim, *arr.shape),
           np.ascontiguousarray(arr, dtype=TAG_TO_DTYPE[tag]))


def _tensor(r: Reader) -> np.ndarray:
    magic, tag, rank = r.unpack("<4sBB")
    if magic != TENSOR_MAGIC or tag not in TAG_TO_DTYPE:
        raise FormatError(f"{r.name}: not a raw tensor file (magic {magic!r}, type tag {tag})")
    return r.array(TAG_TO_DTYPE[tag], r.unpack(f"<{rank}Q"))


def read_tensor(path) -> np.ndarray:
    return _tensor(Reader.from_file(path))


# A field is a token ended by one whitespace byte or the end of the file; a
# '#' comment runs through its line end, even inside a token (netpbm allows
# it).  No shorter token can end at whitespace, so the parse is unique.
_PGM_COMMENT = rb"#[^\n]*\n"
_PGM_FIELD = rb"(?:\s|%b)*([^\s#]+(?:%b[^\s#]*)*)(?:\s|\Z)" % (_PGM_COMMENT, _PGM_COMMENT)
_PGM_HEADER = re.compile(rb"P5" + _PGM_FIELD * 3)


def _pgm(r: Reader) -> np.ndarray:
    head = _PGM_HEADER.match(r.buf)
    if head is None:
        raise FormatError(f"{r.name}: not a binary PGM (P5) file, or its header is cut short")
    try:
        width, height, maxval = (int(re.sub(_PGM_COMMENT, b"", tok)) for tok in head.groups())
    except ValueError as exc:
        raise FormatError(f"{r.name}: malformed PGM header") from exc
    if width < 1 or height < 1 or not 0 < maxval <= 255:
        raise FormatError(f"{r.name}: unsupported PGM size {width}x{height} or maxval {maxval}")
    r.pos = head.end()
    pixels = r.array(np.uint8, (height, width))
    if pixels.max() > maxval:
        raise FormatError(f"{r.name}: a pixel exceeds the header's maxval {maxval}")
    return pixels


def read_pgm(path) -> np.ndarray:
    """Binary PGM (P5, maxval <= 255) -> uint8 array of shape (rows, cols).

    Pixels are returned as stored, unscaled; one above maxval is a
    ``FormatError``.
    """
    return _pgm(Reader.from_file(path))


def write_pgm(path, image: np.ndarray) -> None:
    """uint8 (or clippable float) 2-D array -> binary PGM with maxval 255.

    Float pixels are rounded and clipped, so -inf writes 0 and inf 255; a
    NaN pixel, which has no value to write, raises FormatError before
    anything is written."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise FormatError(f"PGM images are 2-D, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        if np.isnan(arr).any():
            raise FormatError("PGM pixels must not be NaN")
        arr = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    h, w = arr.shape
    _write(path, f"P5\n{w} {h}\n255\n".encode(), np.ascontiguousarray(arr))


def _read_image(path) -> np.ndarray:
    """A PGM image as uint8 pixels or a WTN tensor in its float type, told
    apart by the magic bytes of the one read of the file."""
    r = Reader.from_file(path)
    for magic, parse in ((b"P5", _pgm), (TENSOR_MAGIC, _tensor)):
        if r.buf[:len(magic)] == magic:
            return parse(r)
    raise FormatError(f"{path}: neither a PGM image nor a raw tensor file")


_WCN_MAGIC = b"WCN2"
_DIGEST = 32  # sha256 over every byte before it


def _write_checkpoint(path, dtype, config: dict, entries) -> None:
    """A WCN2 checkpoint of the JSON object ``config`` and the ``(name,
    array)`` pairs ``entries``, each array stored as ``dtype``."""
    tag = DTYPE_TO_TAG.get(np.dtype(dtype), 1)
    cfg_blob = json.dumps(config, sort_keys=True).encode()
    parts = [_WCN_MAGIC, struct.pack("<BI", tag, len(cfg_blob)), cfg_blob,
             struct.pack("<I", len(entries))]
    for name, arr in entries:
        data = np.ascontiguousarray(arr, dtype=TAG_TO_DTYPE[tag])
        nb = name.encode()
        parts += [struct.pack("<H", len(nb)), nb,
                  struct.pack(f"<B{arr.ndim}QQ", arr.ndim, *arr.shape, data.nbytes), data]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    _write(path, *parts, digest.digest())


def _read_checkpoint(path, assemble):
    """The result of ``assemble(dtype, config, entries)`` on the WCN2
    checkpoint at ``path``.

    The digest is checked before anything is parsed.  ``dtype`` is the
    native element type, ``config`` the JSON object, and ``entries``
    yields ``(name, shape, nbytes, read)`` per state entry, where ``read()``
    returns its array after its size has been checked against the bytes
    left.  ``assemble`` checks the entries against what it builds; trailing
    bytes are refused once it returns.  A file that does not start with
    the magic raises ``InvalidConfig``, every other fault ``FormatError``.
    """
    r = Reader.from_file(path)
    if r.buf[:4] != _WCN_MAGIC:
        raise InvalidConfig(f"{path}: not a model checkpoint")
    r.buf, digest = r.buf[:-_DIGEST], r.buf[-_DIGEST:]
    if hashlib.sha256(r.buf).digest() != digest:
        raise FormatError(f"{path}: checkpoint digest mismatch (truncated or corrupt)")
    _, tag, cfg_len = r.unpack("<4sBI")
    if tag not in TAG_TO_DTYPE:
        raise FormatError(f"{path}: unknown element-type tag {tag}")
    try:
        cfg = json.loads(str(r.take(cfg_len), "utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError: also bad UTF-8
        raise FormatError(f"{path}: model config is not JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise FormatError(f"{path}: model config is not a JSON object")
    item = TAG_TO_DTYPE[tag]

    def entries():
        for _ in range(*r.unpack("<I")):
            name = str(r.take(*r.unpack("<H")), "utf-8", "replace")
            shape = r.unpack(f"<{r.unpack('<B')[0]}Q")
            (nbytes,) = r.unpack("<Q")
            yield name, shape, nbytes, lambda shape=shape: r.array(item, shape)
    result = assemble(item.newbyteorder("="), cfg, entries())
    if r.pos != len(r.buf):
        raise FormatError(f"{path}: {len(r.buf) - r.pos} trailing bytes")
    return result
