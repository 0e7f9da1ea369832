"""Matrix (de)serialization: JSON objects and CSV files.

JSON format: {"rows": n, "cols": m, "data": [[row], ...]}. CSV alternative:
one matrix row per line, comma separated. Ragged rows are rejected in both
formats. An entry (matrix, vector or coded coefficient) must be a Python or
numpy real, not a bool or string, and finite; `finite_entries` is that check.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from pathlib import Path

import numpy as np

from .errors import MatrixFormatError, MissingKeyError
from .linalg import ensure_matrix

__all__ = [
    "matrix_to_obj",
    "matrix_from_obj",
    "read_json",
    "load_matrix",
    "save_matrix",
    "vector_from_obj",
    "finite_entries",
]


def matrix_to_obj(m) -> dict:
    arr = ensure_matrix(m)
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "data": [[float(x) for x in row] for row in arr],
    }


def matrix_from_obj(obj, name: str | None = None) -> np.ndarray:
    """The matrix of a JSON matrix object; a MatrixFormatError message starts
    with name (e.g. a file and its key) when one is given."""
    at = "" if name is None else f"{name}: "
    if not isinstance(obj, dict):
        raise MatrixFormatError(f"{at}expected a matrix object, got {type(obj).__name__}")
    missing = {"rows", "cols", "data"} - obj.keys()
    if missing:
        raise MatrixFormatError(f"{at}matrix object missing keys: {sorted(missing)}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not (type(rows) is int and type(cols) is int and rows > 0 and cols > 0):
        raise MatrixFormatError(f"{at}rows and cols must be positive integers")
    if not (isinstance(data, (list, tuple)) and all(isinstance(r, (list, tuple)) for r in data)):
        raise MatrixFormatError(f"{at}data must be a list of rows, each a list of entries")
    if len(data) != rows:
        raise MatrixFormatError(f"{at}declared {rows} rows, data has {len(data)}")
    for i, row in enumerate(data, start=1):
        if len(row) != cols:
            raise MatrixFormatError(f"{at}row {i} has {len(row)} entries, expected {cols}")
    entries = finite_entries([v for row in data for v in row], lambda k: (
        f"{at}row {(k - 1) // cols + 1}, column {(k - 1) % cols + 1}"))
    return entries.reshape(rows, cols)


def finite_entries(values, where) -> np.ndarray:
    """The list or tuple as a float vector if each entry passes the entry check;
    else MatrixFormatError naming where(k), k the first bad entry's 1-based position.
    """
    for k, value in enumerate(values, start=1):
        if not _is_entry(value):
            raise MatrixFormatError(f"{where(k)}: expected a finite number, got {value!r}")
    return np.array(values, dtype=float)


def _is_entry(value) -> bool:
    try:  # a plain float or int skips the slow ABC test (a bool is neither)
        return ((type(value) in (float, int)
                 or isinstance(value, numbers.Real) and not isinstance(value, bool))
                and math.isfinite(value))
    except OverflowError:  # an int beyond float range
        return False


def _matrix_from_csv(path: Path) -> np.ndarray:
    rows: list[list[float]] = []
    with path.open(newline="") as handle:
        for line_no, record in enumerate(csv.reader(handle), start=1):
            if not record or all(not cell.strip() for cell in record):
                continue
            try:
                rows.append([float(cell) for cell in record])
            except ValueError as exc:
                raise MatrixFormatError(f"{path}:{line_no}: {exc}") from exc
    if not rows:
        raise MatrixFormatError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise MatrixFormatError(f"{path}: ragged rows (widths {sorted(widths)})")
    arr = np.array(rows, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise MatrixFormatError(f"{path}: matrix entries must be finite")
    return arr


def read_json(path):
    """The parsed JSON file; MatrixFormatError naming the file when it is not JSON."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"{path}: invalid JSON: {exc}") from exc


def load_matrix(path, key: str | tuple[str, ...] | None = None, bare: bool = False):
    """Load a matrix from a .json or .csv file.

    For JSON, the file holds the matrix object directly or wraps it under
    `key` (e.g. a dual file {"G": ...}); with bare=True a file without the
    key is read as the matrix object itself. A tuple of keys gives one matrix
    per key, read and checked in that order from one parse of the file (e.g.
    ("F", "K") of a system file). A CSV file is its own matrix for any key.
    Error messages name the file, and the key of a wrapped matrix.
    """
    p = Path(path)
    keys = key if isinstance(key, tuple) else (key,)
    if p.suffix.lower() == ".csv":
        mats = [_matrix_from_csv(p) for _ in keys]
    else:
        obj = read_json(p)
        mats = [_matrix_at(obj, k, p, bare) for k in keys]
    return tuple(mats) if isinstance(key, tuple) else mats[0]


def _matrix_at(obj, key: str | None, path: Path, bare: bool) -> np.ndarray:
    wrapped = isinstance(obj, dict) and key in obj
    if key is None or bare and not wrapped:
        return matrix_from_obj(obj, str(path))
    if not wrapped:
        raise MissingKeyError(f"{path}: missing key {key!r}")
    return matrix_from_obj(obj[key], f"{path}: {key}")


def save_matrix(m, path) -> None:
    """User need: write m as a JSON matrix object, or as CSV when path ends in .csv."""
    p = Path(path)
    if p.suffix.lower() == ".csv":
        arr = ensure_matrix(m)
        with p.open("w", newline="") as handle:
            writer = csv.writer(handle)
            for row in arr:
                writer.writerow([repr(float(x)) for x in row])
        return
    p.write_text(json.dumps(matrix_to_obj(m)))


def vector_from_obj(obj, name: str = "vector") -> np.ndarray:
    """Accept either a JSON array of numbers or a one-column/one-row matrix."""
    if isinstance(obj, (list, tuple)):
        return finite_entries(obj, lambda k: f"{name} entry {k}")
    if not isinstance(obj, dict):
        raise MatrixFormatError(f"{name}: expected array or matrix object")
    arr = matrix_from_obj(obj, name)
    if 1 not in arr.shape:
        raise MatrixFormatError(f"{name}: matrix form must have one row or column")
    return arr.reshape(-1)
