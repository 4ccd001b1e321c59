"""Binary grid dumps and CSV emission.

Grid file layout (little endian throughout):

    bytes 0..7    magic "RSGRID01"
    bytes 8..15   u64 rows
    bytes 16..23  u64 cols
    bytes 24..31  reserved (zero)
    bytes 32..    rows*cols f64 values, row-major

1-D arrays are stored as a single row.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "MAGIC",
    "write_grid",
    "read_grid",
    "write_csv",
]

MAGIC = b"RSGRID01"
_HEADER = struct.Struct("<8sQQ8s")


def write_grid(path, values) -> None:
    """Dump a real 1-D or 2-D array in the binary grid format."""
    arr = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if arr.ndim != 2:
        raise ConfigurationError(f"grid dumps are 2-D at most, got shape {arr.shape}")
    rows, cols = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, rows, cols, b"\x00" * 8))
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_grid(path) -> np.ndarray:
    """Read a grid file back as a rows x cols float64 array."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ConfigurationError(f"{path}: truncated grid file")
    magic, rows, cols, _ = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ConfigurationError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    need = _HEADER.size + 8 * rows * cols
    if len(raw) != need:
        raise ConfigurationError(
            f"{path}: payload size {len(raw) - _HEADER.size} != 8*{rows}*{cols}")
    flat = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    return flat.reshape(rows, cols).astype(np.float64)


def write_csv(path, header: list[str], rows) -> None:
    """Deterministic CSV: %.17g floats, no timestamps, LF endings."""
    def fmt(v):
        if isinstance(v, (float, np.floating)):
            return format(float(v), ".17g")
        return str(v)

    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
