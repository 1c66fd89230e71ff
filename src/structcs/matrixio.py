"""Matrix and vector file I/O: CSV and the SCS1 binary format.

CSV is plain row-major with comma separators, one matrix row per line.
The binary format is: 4-byte magic ``SCS1``, two little-endian uint64
(rows, cols), then rows*cols little-endian float64 in row-major order.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"SCS1"

__all__ = [
    "write_matrix_csv",
    "read_matrix_csv",
    "write_matrix_binary",
    "read_matrix_binary",
    "write_matrix",
    "read_matrix",
    "write_vector_csv",
    "read_vector_csv",
]


def write_matrix_csv(path, array) -> None:
    array = np.atleast_2d(np.asarray(array, dtype=float))
    np.savetxt(path, array, delimiter=",", fmt="%.17g")


def read_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)


def write_matrix_binary(path, array) -> None:
    array = np.atleast_2d(np.asarray(array, dtype=float))
    n, N = array.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", n, N))
        fh.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def read_matrix_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        n, N = struct.unpack("<QQ", fh.read(16))
        data = np.frombuffer(fh.read(8 * n * N), dtype="<f8")
        if data.size != n * N:
            raise ValueError(f"{path}: truncated payload")
    return data.reshape(n, N).astype(float)


def write_matrix(path, array) -> None:
    """Dispatch on extension: .bin/.scs1 binary, anything else CSV."""
    if Path(path).suffix in (".bin", ".scs1"):
        write_matrix_binary(path, array)
    else:
        write_matrix_csv(path, array)


def read_matrix(path) -> np.ndarray:
    if Path(path).suffix in (".bin", ".scs1"):
        return read_matrix_binary(path)
    return read_matrix_csv(path)


def write_vector_csv(path, vec) -> None:
    np.savetxt(path, np.asarray(vec, dtype=float).reshape(-1), fmt="%.17g")


def read_vector_csv(path) -> np.ndarray:
    return np.loadtxt(path, dtype=float).reshape(-1)
