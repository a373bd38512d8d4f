"""Binary checkpoint format for named parameter matrices, the atomic file
writes that every output file goes through, the one writer of every text
table, and the one reader of every text input.

Layout (little-endian): magic "GCLC", u16 format version, then for each
entry: u16 name length, name bytes (utf-8), u8 rank, u32 per dimension,
float64 payload in row-major order. Entry order is preserved.
"""

from __future__ import annotations

import csv
import math
import os
import struct
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

__all__ = [
    "MAGIC", "VERSION", "atomic_open", "write_table", "read_lines", "save_checkpoint",
    "load_checkpoint",
]

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
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            # Opening or replacing failed: name the path given, not the
            # temporary file.
            raise type(exc)(f"{path}: {exc.strerror}") from None
        raise


def write_table(path: str | Path | None, rows, delimiter: str = ",") -> None:
    """Write rows, an iterable of cell sequences (a header is just the first
    row), one line each ending in "\\n", to the file path atomically, or to
    stdout when path is None. A str cell is written as it is, an integer in
    decimal, and any other number to 17 significant digits, which round-trips
    a double exactly; a cell holding the delimiter is quoted."""

    def cell(x) -> str:
        if isinstance(x, str):
            return x
        return "%d" % x if isinstance(x, (int, np.integer)) else "%.17g" % x

    with nullcontext(sys.stdout) if path is None else atomic_open(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n", delimiter=delimiter)
        writer.writerows(map(cell, row) for row in rows)


def read_lines(path: str | Path, what: str, parse):
    """Yield (line number, parse(text)) for each line of the text file path
    that holds more than a comment: text from a "#" to the end of the line
    is dropped, the rest is stripped, and blank lines are skipped. A
    ValueError from parse is raised again as "<path>:<line>: could not parse
    <what>", and a line that is not UTF-8 as "<path>:<line>: not UTF-8
    text", whatever the locale. A generator, so a caller's own checks run
    line by line."""
    # Undecodable bytes arrive as lone surrogates, so the error can name its
    # line; a decode error would fire at the 8 KB chunk that holds it.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None
            text = line.partition("#")[0].strip()
            if not text:
                continue
            try:
                value = parse(text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: could not parse {what}") from None
            yield lineno, value


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
            fh.write(memoryview(arr))  # the array's own buffer, not a copy


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read back the named arrays, insertion-ordered. A file cut short (a
    shape too large for the bytes left is one), carrying trailing bytes,
    holding a name that is not UTF-8 or two entries of one name raises
    ValueError naming the file and the byte offset."""
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
        raw = bytes(read(name_len, "entry name"))
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: entry name at byte {start + 2} is not UTF-8") from None
        if name in out:
            raise ValueError(f"{path}: duplicate entry {name!r} at byte {start}")
        (rank,) = read(1, f"rank of {name!r}")
        shape = struct.unpack(f"<{rank}I", read(4 * rank, f"shape of {name!r}"))
        # Python ints: no product of the u32 dims wraps round.
        payload = read(8 * math.prod(shape), f"payload of {name!r}")
        try:
            arr = np.frombuffer(payload, dtype="<f8").reshape(shape)
        except ValueError as exc:  # a rank past numpy's limit
            raise ValueError(f"{path}: entry {name!r} at byte {start}: {exc}") from None
        out[name] = arr.astype(np.float64)
    return out
