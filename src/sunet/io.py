"""Binary containers and raster formats.

Checkpoints and activation dumps use the SUNC container of named 4-D
float arrays, little-endian throughout, which round-trips bit exactly.
Images are binary PPM (P6), label rasters binary PGM (P5), both 8-bit.
"""
from __future__ import annotations

import math
import os
import struct

import numpy as np


class DataError(ValueError):
    """Malformed or inconsistent file content."""


_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}

CHECKPOINT_MAGIC = b"SUNC"
FORMAT_VERSION = 1


def write_checkpoint(path, entries: dict[str, np.ndarray], iteration: int = 0,
                     graph_digest: str = "") -> None:
    """Write named arrays plus metadata as a SUNC container.

    Entries are stored sorted by name behind an entry table so the layout
    is a pure function of the content.
    """
    digest_bytes = graph_digest.encode("utf-8")
    names = sorted(entries)
    arrays = []
    for name in names:
        arr = np.ascontiguousarray(entries[name])
        if arr.ndim != 4:
            raise DataError(f"checkpoint entry {name!r} must be 4-D, got shape {arr.shape}")
        if arr.dtype not in _CODE_FOR:
            raise DataError(f"checkpoint entry {name!r} has dtype {arr.dtype}")
        arrays.append(arr)
    table = bytearray()
    offset = 0
    for name, arr in zip(names, arrays):
        nb = name.encode("utf-8")
        nbytes = arr.nbytes
        table += struct.pack("<H", len(nb)) + nb
        table += struct.pack("<B4QQQ", _CODE_FOR[arr.dtype], *arr.shape, offset, nbytes)
        offset += nbytes
    # write a sibling file and rename it over the target, so a crash
    # mid-write leaves the previous checkpoint intact; the file is synced
    # before the rename and the directory after it, so that a power loss
    # cannot leave the target renamed but its bytes unwritten
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<IQ", FORMAT_VERSION, iteration))
            fh.write(struct.pack("<H", len(digest_bytes)))
            fh.write(digest_bytes)
            fh.write(struct.pack("<I", len(names)))
            fh.write(table)
            for arr in arrays:
                fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _unpack(fmt: str, blob: bytes, pos: int, path) -> tuple:
    """struct.unpack_from that names the file when its blob is cut short."""
    try:
        return struct.unpack_from(fmt, blob, pos)
    except struct.error:
        raise DataError(f"{path}: header is truncated") from None


def _text(blob: bytes, pos: int, size: int, path, what: str) -> str:
    """UTF-8 header field that names the file when its bytes are not text."""
    try:
        return blob[pos:pos + size].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {what} is not UTF-8 ({exc.reason} at byte "
                        f"{pos + exc.start})") from None


def read_checkpoint(path):
    """Read a SUNC container; returns (entries, iteration, graph_digest)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic)")
    version, iteration = _unpack("<IQ", blob, 4, path)
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    pos = 16
    (dlen,) = _unpack("<H", blob, pos, path)
    pos += 2
    digest = _text(blob, pos, dlen, path, "graph digest")
    pos += dlen
    (count,) = _unpack("<I", blob, pos, path)
    pos += 4
    rows = []
    for _ in range(count):
        (nlen,) = _unpack("<H", blob, pos, path)
        pos += 2
        name = _text(blob, pos, nlen, path, f"entry {len(rows)} name")
        pos += nlen
        code, s0, s1, s2, s3, offset, nbytes = _unpack("<B4QQQ", blob, pos, path)
        pos += struct.calcsize("<B4QQQ")
        if code not in _DTYPE_CODES:
            raise DataError(f"{path}: entry {name!r} has unknown dtype code {code}")
        rows.append((name, _DTYPE_CODES[code], (s0, s1, s2, s3), offset, nbytes))
    base = pos
    entries = {}
    for name, dtype, shape, offset, nbytes in rows:
        count = math.prod(shape)
        if nbytes != count * dtype.itemsize or base + offset + nbytes > len(blob):
            raise DataError(f"{path}: entry {name!r} is truncated or mis-sized")
        arr = np.frombuffer(blob, dtype=dtype, offset=base + offset, count=count)
        entries[name] = arr.reshape(shape).astype(dtype.newbyteorder("="), copy=True)
    return entries, iteration, digest


# ----------------------------------------------------------- rasters

def write_ppm(path, image: np.ndarray) -> None:
    """Write an (h, w, 3) uint8 array as binary PPM."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise DataError(f"PPM writer needs (h, w, 3) uint8, got {img.shape} {img.dtype}")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def write_pgm(path, raster: np.ndarray) -> None:
    """Write an (h, w) uint8 array as binary PGM."""
    img = np.asarray(raster)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise DataError(f"PGM writer needs (h, w) uint8, got {img.shape} {img.dtype}")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def _read_pnm(path, magic: bytes, channels: int) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != magic:
        raise DataError(f"{path}: expected {magic.decode()} raster")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        token = blob[start:pos]
        if not token.isdigit():
            raise DataError(f"{path}: malformed header token {token!r}")
        fields.append(int(token))
    pos += 1
    width, height, maxval = fields
    if width == 0 or height == 0:
        raise DataError(f"{path}: empty {width}x{height} raster")
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 supported, got {maxval}")
    expect = width * height * channels
    payload = blob[pos:pos + expect]
    if len(payload) != expect:
        raise DataError(f"{path}: payload is {len(payload)} bytes, expected {expect}")
    arr = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        return arr.reshape(height, width).copy()
    return arr.reshape(height, width, channels).copy()


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM into (h, w, 3) uint8."""
    return _read_pnm(path, b"P6", 3)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into (h, w) uint8."""
    return _read_pnm(path, b"P5", 1)
