"""Checkpoint serialization.

Layout: magic "MTSLOF01", u32 entry count, then a manifest of entries
(u16 name length, utf-8 name, u8 dtype code, u8 rank, u32 extents), then
the raw little-endian tensor payloads in manifest order. Dtype codes:
1 = float32, 2 = float64.
"""

from __future__ import annotations

import struct

import numpy as np

from .data import _atomic_write
from .errors import CheckpointMismatchError, DataFormatError

MAGIC = b"MTSLOF01"

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_FOR = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}


def save_checkpoint(path: str, tensors: dict[str, np.ndarray]) -> None:
    manifest = bytearray()
    payload = bytearray()
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        if arr.dtype not in _CODE_FOR:
            arr = arr.astype(np.float64)
        code = _CODE_FOR[arr.dtype]
        encoded = name.encode("utf-8")
        manifest += struct.pack("<H", len(encoded)) + encoded
        manifest += struct.pack("<BB", code, arr.ndim)
        manifest += struct.pack(f"<{arr.ndim}I", *arr.shape)
        payload += arr.astype(_DTYPE_CODES[code]).tobytes()
    _atomic_write(path, MAGIC + struct.pack("<I", len(tensors)) + bytes(manifest) + bytes(payload))


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise DataFormatError(f"bad checkpoint magic {blob[:8]!r}", offset=0)
    if len(blob) < 12:
        raise DataFormatError("checkpoint header truncated", offset=len(blob))
    (count,) = struct.unpack_from("<I", blob, 8)
    off = 12
    entries = []
    for _ in range(count):
        if off + 2 > len(blob):
            raise DataFormatError("manifest truncated", offset=off)
        (name_len,) = struct.unpack_from("<H", blob, off)
        off += 2
        try:
            name = blob[off : off + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"tensor name is not valid UTF-8: {exc.reason}",
                                  offset=off + exc.start) from exc
        off += name_len
        if off + 2 > len(blob):
            raise DataFormatError(f"manifest truncated after name {name!r}", offset=off)
        code, rank = struct.unpack_from("<BB", blob, off)
        off += 2
        if code not in _DTYPE_CODES:
            raise DataFormatError(f"unknown dtype code {code} for {name!r}", offset=off - 2)
        if off + 4 * rank > len(blob):
            raise DataFormatError(f"manifest truncated in the shape of {name!r}", offset=off)
        shape = struct.unpack_from(f"<{rank}I", blob, off)
        off += 4 * rank
        entries.append((name, _DTYPE_CODES[code], shape))

    out: dict[str, np.ndarray] = {}
    for name, dtype, shape in entries:
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if shape else dtype.itemsize
        count_items = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if off + nbytes > len(blob):
            raise DataFormatError(f"payload truncated for {name!r}", offset=off)
        arr = np.frombuffer(blob, dtype=dtype, count=count_items, offset=off).reshape(shape)
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise DataFormatError(f"tensor {name!r} holds a non-finite value at element "
                                  f"{bad[0]} of its payload", offset=off)
        out[name] = arr.astype(dtype.newbyteorder("="))
        off += nbytes
    if off != len(blob):
        raise DataFormatError(f"{len(blob) - off} trailing bytes after payloads", offset=off)
    return out


def apply_state(targets: dict, loaded: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into model tensors/buffers, strict on names and shapes.

    `targets` maps names to Tensor objects or plain numpy buffers.
    """
    for name, target in targets.items():
        if name not in loaded:
            raise CheckpointMismatchError(f"checkpoint is missing tensor {name!r}")
        arr = loaded[name]
        dest = target if isinstance(target, np.ndarray) else target.data
        if tuple(arr.shape) != tuple(dest.shape):
            raise CheckpointMismatchError(
                f"shape mismatch for {name!r}: checkpoint {tuple(arr.shape)}, model {tuple(dest.shape)}"
            )
        dest[...] = arr
