"""Image and array file formats used by the CLI, and its CSV table writer.

Two formats are supported for measurements and reconstructions:

* binary PGM (P5), 8-bit or 16-bit, holding values scaled from [0, 1];
* a raw little-endian float64 dump with a 16-byte header
  (4-byte magic ``CCF1``, uint32 dtype code, uint32 H, uint32 W).

Sampling masks are bilevel PGM files (zero = unmeasured).
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .errors import ValidationError

RAW_MAGIC = b"CCF1"
RAW_DTYPE_F64 = 1
_RAW_HEADER = struct.Struct("<4sIII")


def write_csv(fileobj, rows) -> None:
    """Write dict rows as CSV under a header row of the first row's keys."""
    writer = None
    for row in rows:
        if writer is None:
            writer = csv.DictWriter(fileobj, fieldnames=list(row))
            writer.writeheader()
        writer.writerow(row)


def write_pgm(path, image: np.ndarray, maxval: int = 65535) -> None:
    """Write a [0, 1] image as binary PGM; 16-bit values are big-endian."""
    if maxval not in (255, 65535):
        raise ValidationError("PGM maxval must be 255 or 65535")
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValidationError("PGM images must be 2D")
    scaled = np.clip(np.rint(image * maxval), 0, maxval)
    data = scaled.astype(">u2" if maxval == 65535 else np.uint8).tobytes()
    H, W = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{W} {H}\n{maxval}\n".encode("ascii"))
        fh.write(data)


def _pgm_header_byte(fh) -> bytes:
    """The next header byte; a ``#`` comment reads as the newline ending it."""
    byte = fh.read(1)
    if byte == b"#":
        while byte not in (b"", b"\n", b"\r"):
            byte = fh.read(1)
        return b"\n" if byte else byte
    return byte


def _read_pgm_header(fh, path):
    """Width, height and maxval of a binary PGM, leaving ``fh`` at its raster.

    The netpbm grammar: ``P5``, then three decimal tokens, each after
    whitespace of any kind, and exactly one whitespace byte between maxval
    and the raster.  A ``#`` comment in the header runs to the end of its line.
    """
    magic, byte = fh.read(2), _pgm_header_byte(fh)
    if magic != b"P5" or byte and not byte.isspace():
        raise ValidationError(f"{path}: not a binary PGM (P5) file")
    fields = []
    for _ in range(3):
        while byte.isspace():
            byte = _pgm_header_byte(fh)
        token = bytearray()
        while byte and not byte.isspace():
            token += byte
            byte = _pgm_header_byte(fh)
        if not byte:
            raise ValidationError(f"{path}: truncated PGM header")
        try:
            fields.append(int(token))
        except ValueError:
            raise ValidationError(f"{path}: non-integer PGM header field") from None
    return fields


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into a float64 image scaled to [0, 1]."""
    with open(path, "rb") as fh:
        W, H, maxval = _read_pgm_header(fh, path)
        if H < 1 or W < 1:
            raise ValidationError(f"{path}: PGM size {W}x{H} is below 1x1")
        if maxval <= 0 or maxval > 65535:
            raise ValidationError(f"{path}: unsupported PGM maxval {maxval}")
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        raw = fh.read(H * W * dtype.itemsize)
    if len(raw) != H * W * dtype.itemsize:
        raise ValidationError(f"{path}: truncated PGM pixel data")
    pixels = np.frombuffer(raw, dtype=dtype)
    if pixels.max() > maxval:
        raise ValidationError(f"{path}: PGM sample {pixels.max()} above maxval {maxval}")
    return pixels.reshape(H, W).astype(np.float64) / maxval


def write_raw(path, array: np.ndarray) -> None:
    """Write a 2D float64 array in the raw header format."""
    array = np.ascontiguousarray(array, dtype="<f8")
    if array.ndim != 2:
        raise ValidationError("raw arrays must be 2D")
    H, W = array.shape
    with open(path, "wb") as fh:
        fh.write(_RAW_HEADER.pack(RAW_MAGIC, RAW_DTYPE_F64, H, W))
        fh.write(array.tobytes())


def read_raw(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_RAW_HEADER.size)
        if len(header) != _RAW_HEADER.size:
            raise ValidationError(f"{path}: truncated raw header")
        magic, dtype, H, W = _RAW_HEADER.unpack(header)
        if magic != RAW_MAGIC:
            raise ValidationError(f"{path}: bad raw magic {magic!r}")
        if dtype != RAW_DTYPE_F64:
            raise ValidationError(f"{path}: unsupported raw dtype code {dtype}")
        if H < 1 or W < 1:
            raise ValidationError(f"{path}: raw size {H}x{W} is below 1x1")
        data = fh.read(H * W * 8)
    if len(data) != H * W * 8:
        raise ValidationError(f"{path}: truncated raw pixel data")
    return np.frombuffer(data, dtype="<f8").reshape(H, W).copy()


def load_image(path) -> np.ndarray:
    """Load a measurement file, dispatching on the magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head[:2] == b"P5":
        return read_pgm(path)
    if head == RAW_MAGIC:
        return read_raw(path)
    raise ValidationError(f"{path}: unrecognized image format (expect PGM P5 or raw)")


def save_image(path, image: np.ndarray) -> None:
    """Save by extension: .pgm (16-bit) or anything else as raw float64."""
    if Path(path).suffix.lower() == ".pgm":
        write_pgm(path, image)
    else:
        write_raw(path, image)


def read_mask(path) -> np.ndarray:
    """Bilevel PGM mask: nonzero pixels are measured locations."""
    return read_pgm(path) > 0.5


def write_mask(path, mask: np.ndarray) -> None:
    write_pgm(path, np.asarray(mask, dtype=np.float64), maxval=255)
