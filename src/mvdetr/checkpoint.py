"""Binary checkpoint container: named float32 tensors.

Layout (all integers little-endian):
    magic "SDTR" (4 bytes)
    u32 version = 1
    u64 entry count
    per entry: u32 name length, UTF-8 name, u8 dtype tag (0 = f32),
               u8 rank, rank x u64 dims, raw little-endian f32 payload
    trailing u64: byte length of everything before the trailer

Non-tensor state (config text, epoch counter) rides along as reserved
"__meta__.*" entries encoded into exact small-integer f32 values, so the
round trip stays bit-identical.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"SDTR"
VERSION = 1
DTYPE_F32 = 0


def save_checkpoint(path: str, entries: dict[str, np.ndarray]) -> None:
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    blob += struct.pack("<Q", len(entries))
    for name, arr in entries.items():
        data = np.asarray(arr, dtype="<f4")  # keeps rank 0; tobytes() is C order
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded))
        blob += encoded
        blob += struct.pack("<BB", DTYPE_F32, data.ndim)
        for dim in data.shape:
            blob += struct.pack("<Q", dim)
        blob += data.tobytes()
    blob += struct.pack("<Q", len(blob))
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(bytes(blob))
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 24 or blob[:4] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (declared_len,) = struct.unpack_from("<Q", blob, len(blob) - 8)
    if declared_len != len(blob) - 8:
        raise ValueError(f"{path}: length check failed "
                         f"({declared_len} declared, {len(blob) - 8} actual)")
    body = memoryview(blob)[:-8]
    (count,) = struct.unpack_from("<Q", body, 8)
    offset = 16
    entries: dict[str, np.ndarray] = {}

    def take(n: int) -> memoryview:  # the next n bytes, never past the trailer
        nonlocal offset
        if n > len(body) - offset:
            raise ValueError(f"{path}: entry {len(entries) + 1} of {count} runs "
                             "past the end of the body")
        offset += n
        return body[offset - n:offset]

    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: entry {len(entries) + 1} of {count} has a name "
                             "that is not UTF-8") from None
        dtype_tag, rank = struct.unpack("<BB", take(2))
        if dtype_tag != DTYPE_F32:
            raise ValueError(f"{path}: unknown dtype tag {dtype_tag} for {name!r}")
        dims = struct.unpack(f"<{rank}Q", take(8 * rank))
        arr = np.frombuffer(take(4 * math.prod(dims)), dtype="<f4").reshape(dims)
        entries[name] = arr.copy()
    if offset != len(body):
        raise ValueError(f"{path}: {len(body) - offset} bytes after the last of "
                         f"{count} entries")
    return entries


# -- meta encoding helpers ----------------------------------------------------------


def text_to_array(text: str) -> np.ndarray:
    """UTF-8 bytes as exact f32 values (each byte < 2^24 so round trips exactly)."""
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.float32)


def array_to_text(arr: np.ndarray) -> str:
    return arr.astype(np.uint8).tobytes().decode("utf-8")


def whole_count(arr: np.ndarray, name: str) -> int:
    """The one whole number >= 0 of a counter entry, else ValueError naming it."""
    values = np.asarray(arr, dtype=np.float64).reshape(-1)
    if values.size != 1 or not (values[0] >= 0 and float(values[0]).is_integer()):
        raise ValueError(f"{name} holds {values.tolist()}, not one whole number >= 0")
    return int(values[0])
