"""Binary file containers.

Two formats, both little-endian with 32-bit float payloads:

Feature file ("SVF1"):
    magic "SVF1" | u32 n_rows | u32 n_cols | n_rows * n_cols float32,
    row-major (time-major for feature maps).

Weight file ("SVW1"):
    magic "SVW1" | u32 tensor_count | per tensor:
    u16 name_len | UTF-8 name | u8 rank | rank * u32 dims | float32 data
    in C order. Round-trips are bit-exact for float32 tensors. Also the
    embedding and embedding-cache format: one (n_crops, 512) tensor per
    utterance, named by its canonical path.

    An entry whose name starts with "#" is a metadata record, not a
    tensor: save_tensors writes records with no data, ahead of the
    tensors, and load_tensors leaves them out of its result. The
    embedding cache keeps what its entries were built with in one.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"SVF1"
WEIGHT_MAGIC = b"SVW1"
RECORD_PREFIX = "#"


class FormatError(ValueError):
    """Raised when a container file is malformed."""


def save_features(path: str | Path, values: np.ndarray) -> None:
    values = np.ascontiguousarray(values, dtype="<f4")
    if values.ndim != 2:
        raise ValueError(f"feature container stores 2-D arrays, got shape {values.shape}")
    with open(path, "wb") as f:
        f.write(FEATURE_MAGIC)
        f.write(struct.pack("<II", values.shape[0], values.shape[1]))
        f.write(values.tobytes())


def load_features(path: str | Path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {FEATURE_MAGIC!r}")
    if len(data) < 12:
        raise FormatError(f"{path}: truncated header")
    n_rows, n_cols = struct.unpack_from("<II", data, 4)
    expected = 12 + 4 * n_rows * n_cols
    if len(data) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, got {len(data)}")
    values = np.frombuffer(data, dtype="<f4", count=n_rows * n_cols, offset=12)
    return values.reshape(n_rows, n_cols).copy()


def save_tensors(
    path: str | Path, tensors: dict[str, np.ndarray], records: tuple[str, ...] = ()
) -> None:
    """Write tensors, preceded by metadata records (names starting with "#")."""
    if any(not r.startswith(RECORD_PREFIX) for r in records):
        raise ValueError(f"metadata record names must start with {RECORD_PREFIX!r}")
    if any(name.startswith(RECORD_PREFIX) for name in tensors):
        raise ValueError(f"tensor names must not start with {RECORD_PREFIX!r}")
    empty = np.zeros(0, dtype="<f4")
    entries = [(r, empty) for r in records] + list(tensors.items())
    with open(path, "wb") as f:
        f.write(WEIGHT_MAGIC)
        f.write(struct.pack("<I", len(entries)))
        for name, tensor in entries:
            arr = np.asarray(tensor, dtype="<f4")
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise ValueError(f"tensor name too long: {name!r}")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))  # numpy allows at most 64 axes
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())  # in C order, whatever arr's strides


def load_tensors(path: str | Path, records: list[str] | None = None) -> dict[str, np.ndarray]:
    """Tensors by name, each read straight from the file into its own
    aligned, C-contiguous array. Metadata records are not returned; their
    names are appended to `records` when it is given."""
    tensors: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(4)
        if magic != WEIGHT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {WEIGHT_MAGIC!r}")
        try:
            (count,) = struct.unpack("<I", f.read(4))
            for _ in range(count):
                (name_len,) = struct.unpack("<H", f.read(2))
                if f.tell() + name_len > size:
                    raise FormatError(f"{path}: truncated tensor name")
                name = f.read(name_len).decode("utf-8")
                (rank,) = struct.unpack("<B", f.read(1))
                dims = struct.unpack(f"<{rank}I", f.read(4 * rank))
                n = math.prod(dims)  # a Python int: a numpy product of the dims can wrap
                if f.tell() + 4 * n > size:
                    raise FormatError(f"{path}: truncated data for tensor {name!r}")
                if name.startswith(RECORD_PREFIX):
                    f.seek(4 * n, os.SEEK_CUR)
                    if records is not None:
                        records.append(name)
                    continue
                if name in tensors:
                    raise FormatError(f"{path}: duplicate tensor name {name!r}")
                arr = np.empty(dims, dtype="<f4")
                if f.readinto(arr) != arr.nbytes:
                    raise FormatError(f"{path}: truncated data for tensor {name!r}")
                tensors[name] = arr
        except (struct.error, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: truncated or corrupt tensor record") from exc
        if f.tell() != size:
            raise FormatError(f"{path}: {size - f.tell()} trailing bytes")
    return tensors
