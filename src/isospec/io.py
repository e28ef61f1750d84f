"""File formats: matrix JSON/CSV, canonical JSON reports.

Matrix JSON carries explicit "rows"/"cols" keys and a row-major flat list
of [re, im] entry pairs.  Matrix CSV interleaves re,im columns and starts
with the format header line ``# isospec-csv-v1``.  Report JSON is written
by a small canonical serializer (sorted keys, floats at 17 significant
digits) so identical inputs produce byte-identical files.

Every float goes through one formatter, ``_float_text``.  A real float64
array (1-D, or 2-D rows), such as the (rows*cols, 2) entry pairs
``matrix_to_jsonable`` returns, takes the text of its ``tolist()`` but is
formatted straight from its memory, ``PIECE_ROWS`` rows at a time, by a
few array passes and one format call per piece.  The writers stream the
pieces to a sibling partial file and then rename it over the target: the
whole text never exists in memory, and a document refused part way leaves
the target as it was.
"""

from __future__ import annotations

import json
import os
import re
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DimensionError
from .linalg import as_matrix, read_only

CSV_HEADER = "# isospec-csv-v1"
# rows of a float array formatted at a time: bounds the writers' working memory
PIECE_ROWS = 1024
_NONFINITE = re.compile(r"-?inf|nan")


def _float_text(
    values, width: int, cell_sep: str, row_sep: str, *, quote_nonfinite: bool
) -> str:
    """The floats of ``values`` as one text, ``width`` to a row: cells joined
    by ``cell_sep``, rows by ``row_sep``.

    Each float takes its fixed 17-significant-digit form (round-trip
    exact), and negative zero is written as ``0`` for byte determinism.
    Non-finite values become the JSON strings ``"nan"``, ``"inf"``,
    ``"-inf"`` when ``quote_nonfinite`` is set, and raise ValueError
    otherwise.  The whole text comes from one ``%`` format call.
    """
    arr = np.array(values, dtype=float).reshape(-1)
    finite = bool(np.isfinite(arr).all())
    if not finite and not quote_nonfinite:
        raise ValueError("non-finite float has no canonical number form")
    arr[arr == 0.0] = 0.0
    row = cell_sep.join(["%.17g"] * width)
    text = row_sep.join([row] * (arr.size // width)) % tuple(arr.tolist())
    # only non-finite values put letters other than the exponent's e in the text
    return text if finite else _NONFINITE.sub(r'"\g<0>"', text)


def _row_pieces(table: np.ndarray, cell_sep: str, row_sep: str, *, quote_nonfinite: bool):
    """The rows of a 2-D float array as ``_float_text`` would write them in
    one call, made ``PIECE_ROWS`` rows at a time (``row_sep`` comes between
    the pieces as its own piece)."""
    for start in range(0, len(table), PIECE_ROWS):
        if start:
            yield row_sep
        yield _float_text(
            table[start:start + PIECE_ROWS], table.shape[1], cell_sep, row_sep,
            quote_nonfinite=quote_nonfinite,
        )


def _write_pieces(pieces, path) -> None:
    """Write the text pieces to ``path``, each as soon as it is made.

    They go to a sibling partial file, opened as a plain ``open`` opens a
    new file, which replaces ``path`` once the last piece is written; if
    making a piece raises, the partial file is removed and ``path`` keeps
    its old bytes.  A symlink is written through, as ``open`` writes it.
    """
    path = Path(os.path.realpath(path))
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    try:
        with open(partial, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def matrix_to_jsonable(m) -> dict:
    """Matrix -> {"rows", "cols", "entries"}, where ``entries`` is the
    read-only (rows*cols, 2) float64 view of the row-major [re, im] pairs."""
    m = np.ascontiguousarray(as_matrix(m))
    rows, cols = m.shape
    return {"rows": rows, "cols": cols, "entries": read_only(m.view(np.float64).reshape(-1, 2))}


def _dimension(obj, key: str) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DimensionError(f"matrix document {key!r} must be an integer, got {value!r}")
    return int(value)


def jsonable_to_matrix(obj) -> np.ndarray:
    """Inverse of matrix_to_jsonable, with shape validation.

    ``entries`` is the writer's float64 array or, as parsed from a file, a
    list of [re, im] pairs of numbers; a boolean is not a number here.
    """
    try:
        rows, cols = _dimension(obj, "rows"), _dimension(obj, "cols")
        entries = obj["entries"]
        count = len(entries)
    except (KeyError, TypeError) as exc:
        raise DimensionError(f"malformed matrix document: {exc}") from exc
    if rows < 1 or cols < 1:
        raise DimensionError(f"matrix document claims {rows}x{cols}; both must be positive")
    if count != rows * cols:
        raise DimensionError(f"matrix document claims {rows}x{cols} but has {count} entries")
    if isinstance(entries, np.ndarray) and entries.dtype == np.float64 and entries.shape[1:] == (2,):
        return np.array(entries).view(complex).reshape(rows, cols)
    try:
        pairs = set(map(len, entries)) == {2}
    except TypeError:
        pairs = False
    if not pairs:
        raise DimensionError("matrix entries must be [re, im] pairs")
    flat = list(chain.from_iterable(entries))
    if not set(map(type, flat)) <= {float, int}:
        raise DimensionError("matrix entries must be numbers")
    try:
        values = np.fromiter(flat, dtype=float, count=len(flat))
    except OverflowError as exc:
        raise DimensionError(f"matrix entry out of float range: {exc}") from exc
    return values.view(complex).reshape(rows, cols)


def save_matrix_json(m, path) -> None:
    save_report(matrix_to_jsonable(m), path)


def load_matrix_json(path) -> np.ndarray:
    return jsonable_to_matrix(json.loads(Path(path).read_text()))


def save_table_csv(table, path, columns: str | None = None) -> None:
    """Write a 2-D float table as CSV: the format header, an optional
    ``# columns`` comment line, then one comma-separated row per line."""
    table = np.asarray(table, dtype=float)
    head = CSV_HEADER + "\n" + ("" if columns is None else "# " + columns + "\n")
    rows = _row_pieces(table, ",", "\n", quote_nonfinite=False)
    _write_pieces(chain([head], rows, ["\n"]), path)


def save_matrix_csv(m, path) -> None:
    """Write a complex matrix as CSV with interleaved re,im columns."""
    save_table_csv(np.ascontiguousarray(as_matrix(m)).view(np.float64), path)


def load_matrix_csv(path) -> np.ndarray:
    lines = [
        line
        for line in map(str.strip, Path(path).read_text().splitlines())
        if line and not line.startswith("#")
    ]
    if not lines:
        raise DimensionError("matrix CSV contains no data rows")
    cells = [line.split(",") for line in lines]
    widths = set(map(len, cells))
    if any(width % 2 for width in widths):
        raise DimensionError("matrix CSV rows need an even number of columns")
    if len(widths) != 1:
        raise DimensionError("matrix CSV rows have inconsistent widths")
    values = np.array(list(map(float, chain.from_iterable(cells))))
    return values.reshape(len(cells), -1).view(complex)


def _float_array_pieces(arr: np.ndarray, pad: str, inner: str):
    """The canonical text of a non-empty 1-D or 2-D float array, laid out as
    element-by-element serialization of its ``tolist()`` lays it out."""
    if arr.ndim == 1:
        yield "[\n" + inner
        yield from _row_pieces(arr[:, None], "", ",\n" + inner, quote_nonfinite=True)
        yield "\n" + pad + "]"
        return
    deeper = inner + "  "
    between = "\n" + inner + "],\n" + inner + "[\n" + deeper
    yield "[\n" + inner + "[\n" + deeper
    yield from _row_pieces(arr, ",\n" + deeper, between, quote_nonfinite=True)
    yield "\n" + inner + "]\n" + pad + "]"


def _scalar_json(obj) -> str:
    """Canonical text of a value without items: a scalar, [] or {}."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_text([float(obj)], 1, "", "", quote_nonfinite=True)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return "[" + _float_text([z.real, z.imag], 2, ", ", "", quote_nonfinite=False) + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[]"
    if isinstance(obj, dict):
        return "{}"
    raise TypeError(f"cannot serialize {type(obj)} canonically")


def _json_pieces(obj, indent: int):
    """The canonical text of ``obj`` as a sequence of pieces (see canonical_json)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim in (1, 2) and obj.size:
            yield from _float_array_pieces(obj, pad, inner)
        else:
            yield from _json_pieces(obj.tolist(), indent)
    elif isinstance(obj, (list, tuple)) and obj:
        sep = "[\n"
        for item in obj:
            yield sep + inner
            yield from _json_pieces(item, indent + 1)
            sep = ",\n"
        yield "\n" + pad + "]"
    elif isinstance(obj, dict) and obj:
        sep = "{\n"
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key)}")
            yield sep + inner + json.dumps(key) + ": "
            yield from _json_pieces(obj[key], indent + 1)
            sep = ",\n"
        yield "\n" + pad + "}"
    else:
        yield _scalar_json(obj)


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats.

    Complex scalars become [re, im] pairs; numpy scalars and arrays are
    converted; non-finite floats are emitted as the strings "inf", "-inf",
    "nan" (standard JSON has no literal for them).
    """
    return "".join(_json_pieces(obj, indent))


def save_report(obj, path) -> None:
    """Write a canonical JSON report, ``canonical_json(obj)`` and a newline,
    streamed piece by piece: the whole text is never held in memory."""
    _write_pieces(chain(_json_pieces(obj, 0), ["\n"]), path)
