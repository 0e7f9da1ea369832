"""Matrix (de)serialization: JSON objects and CSV files.

JSON format: {"rows": n, "cols": m, "data": [[row], ...]}. CSV alternative:
one matrix row per line, comma separated, each cell a JSON number (JSON
whitespace around it is allowed). Ragged rows are rejected in both
formats, and so is a JSON object that repeats a key. An entry (matrix,
vector or coded coefficient) must be a Python or numpy real, not a bool or
string, and finite; `finite_entries` is that check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from itertools import chain
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
    return {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]), "data": arr.tolist()}


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
    entries = finite_entries(list(chain.from_iterable(data)), lambda k: (
        f"{at}row {(k - 1) // cols + 1}, column {(k - 1) % cols + 1}"))
    return entries.reshape(rows, cols)


def finite_entries(values, where) -> np.ndarray:
    """The list or tuple as a float vector if each entry passes the entry check;
    else MatrixFormatError naming where(k), k the first bad entry's 1-based position.

    Entries that are all plain floats and ints are checked in one numpy pass;
    the per-entry loop runs only for other types, or to name a bad entry (a
    non-finite float, an int beyond float range).
    """
    if set(map(type, values)) <= {float, int}:
        try:
            arr = np.array(values, dtype=float)
        except OverflowError:  # an int beyond float range; the loop names it
            pass
        else:
            if np.isfinite(arr).all():
                return arr
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


def _csv_entry(cell: str):
    """The cell read as JSON, as its twin in a JSON matrix file is (1e999 reads
    as inf, NaN as nan); else the text. finite_entries refuses all but a
    finite number."""
    try:
        return json.loads(cell)
    except (ValueError, RecursionError):  # not JSON, or nested past the stack
        return cell


def _matrix_from_csv(path: Path) -> np.ndarray:
    """The matrix of a CSV file, one row per non-blank line; each cell is a JSON
    number and passes the entry check, and a bad one is named by its 1-based
    line and column."""
    rows: list[np.ndarray] = []
    lines = io.StringIO(_read_text(path), newline="")
    for line_no, record in enumerate(csv.reader(lines), start=1):
        if not record or all(not cell.strip() for cell in record):
            continue
        rows.append(finite_entries([_csv_entry(cell) for cell in record],
                                   lambda k: f"{path}: line {line_no}, column {k}"))
    if not rows:
        raise MatrixFormatError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise MatrixFormatError(f"{path}: ragged rows (widths {sorted(widths)})")
    return np.array(rows, dtype=float)


def _read_text(path: Path) -> str:
    """The file's text read as UTF-8; MatrixFormatError naming the file and the
    1-based offset of the first byte that is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(
            f"{path}: not UTF-8 text (byte {exc.start + 1}: {exc.reason})") from exc


def _unique_keys(pairs: list) -> dict:
    """An object's pairs as a dict; KeyError carrying the first key that repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise KeyError(next(key for i, key in enumerate(keys) if key in keys[:i]))
    return obj


# One decoder for every file: building one per call costs more than the parse.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def read_json(path):
    """The parsed JSON file; MatrixFormatError naming the file when it is not
    UTF-8 text, not JSON, or repeats a key in any object, at any depth.

    path is a str or a Path; a Path is read as given, without building another.
    """
    text = _read_text(path if isinstance(path, Path) else Path(path))
    try:
        if text.startswith("\ufeff"):  # json.loads' refusal, which decode skips
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MatrixFormatError(f"{path}: invalid JSON: {exc}") from exc
    except KeyError as exc:
        raise MatrixFormatError(f"{path}: repeated key {exc.args[0]!r}") from None


def load_matrix(path, key: str | tuple[str, ...] | None = None, bare: bool = False):
    """Load a matrix from a .json or .csv file.

    For JSON, the file holds the matrix object directly or wraps it under
    `key` (e.g. a dual file {"G": ...}); with bare=True a file without the
    key is read as the matrix object itself. A tuple of keys gives one matrix
    per key, read and checked in that order from one parse of the file (e.g.
    ("F", "K") of a system file). A CSV file is its own matrix for any key: it
    is parsed once, and every key gets that one array.
    Error messages name the file, and the key of a wrapped matrix.
    """
    p = Path(path)
    keys = key if isinstance(key, tuple) else (key,)
    if p.suffix.lower() == ".csv":
        mats = [_matrix_from_csv(p)] * len(keys)
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
