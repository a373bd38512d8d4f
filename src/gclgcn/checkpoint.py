"""Binary checkpoint format for named parameter matrices, and the atomic
file writes that every output file goes through.

Layout (little-endian): magic "GCLC", u16 format version, then for each
entry: u16 name length, name bytes (utf-8), u8 rank, u32 per dimension,
float64 payload in row-major order. Entry order is preserved.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = ["MAGIC", "VERSION", "atomic_open", "save_checkpoint", "load_checkpoint"]

MAGIC = b"GCLC"
VERSION = 1


@contextmanager
def atomic_open(path: str | Path, mode: str = "w", **kwargs):
    """Open a temporary file beside path for writing (open's mode and
    keyword arguments). When the block exits cleanly the file replaces path
    with os.replace, so path holds the old content or the new, never part of
    either; when it raises, the temporary file is removed and path is left
    as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open(mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path: str | Path, named) -> None:
    """Write an ordered iterable of (name, array) pairs, atomically."""
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        for name, arr in named:
            arr = np.ascontiguousarray(arr, dtype="<f8")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes())


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read back the named arrays, insertion-ordered. A file cut short,
    carrying trailing bytes or holding two entries of one name raises
    ValueError naming the byte offset."""
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    view = memoryview(data)
    pos = 4

    def read(size: int, what: str) -> memoryview:
        nonlocal pos
        if pos + size > len(data):
            raise ValueError(
                f"{path}: truncated {what} at byte {pos}: "
                f"needs {size} bytes, {len(data) - pos} left"
            )
        pos += size
        return view[pos - size : pos]

    (version,) = struct.unpack("<H", read(2, "format version"))
    if version != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    while pos < len(data):
        if len(data) - pos < 3:  # a name length and a rank: the smallest entry header
            raise ValueError(
                f"{path}: {len(data) - pos} trailing byte(s) at byte {pos}, "
                "too few for an entry header"
            )
        start = pos
        (name_len,) = struct.unpack("<H", read(2, "entry header"))
        name = bytes(read(name_len, "entry name")).decode("utf-8")
        if name in out:
            raise ValueError(f"{path}: duplicate entry {name!r} at byte {start}")
        (rank,) = read(1, f"rank of {name!r}")
        shape = struct.unpack(f"<{rank}I", read(4 * rank, f"shape of {name!r}"))
        count = int(np.prod(shape)) if rank else 1
        payload = read(8 * count, f"payload of {name!r}")
        out[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    return out
