"""File formats: matrix JSON/CSV, canonical JSON reports.

Matrix JSON carries explicit "rows"/"cols" keys and a row-major flat list
of [re, im] entry pairs.  Matrix CSV interleaves re,im columns and starts
with the format header line ``# isospec-csv-v1``.  Report JSON is written
by a small canonical serializer (sorted keys, floats at 17 significant
digits) so identical inputs produce byte-identical files.

Every float goes through one batched formatter, ``_float_text``: a list
of floats, a matrix's entry pairs or a CSV table is turned to text by a
few array passes and one format call, not by one Python call per entry.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DimensionError
from .linalg import as_matrix

CSV_HEADER = "# isospec-csv-v1"
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


def matrix_to_jsonable(m) -> dict:
    """Matrix -> {"rows", "cols", "entries": [[re, im], ...]} (row-major)."""
    m = np.ascontiguousarray(as_matrix(m))
    rows, cols = m.shape
    return {
        "rows": rows,
        "cols": cols,
        "entries": m.view(np.float64).reshape(-1, 2).tolist(),
    }


def jsonable_to_matrix(obj) -> np.ndarray:
    """Inverse of matrix_to_jsonable, with shape validation."""
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise DimensionError(f"malformed matrix document: {exc}") from exc
    if rows < 1 or cols < 1:
        raise DimensionError(f"matrix document claims {rows}x{cols}; both must be positive")
    if len(entries) != rows * cols:
        raise DimensionError(
            f"matrix document claims {rows}x{cols} but has {len(entries)} entries"
        )
    try:
        pairs = set(map(len, entries)) == {2}
    except TypeError:
        pairs = False
    if not pairs:
        raise DimensionError("matrix entries must be [re, im] pairs")
    flat = list(chain.from_iterable(entries))
    if not set(map(type, flat)) <= {float, int, bool}:
        raise DimensionError("matrix entries must be numbers")
    try:
        values = np.fromiter(flat, dtype=float, count=len(flat))
    except OverflowError as exc:
        raise DimensionError(f"matrix entry out of float range: {exc}") from exc
    return values.view(complex).reshape(rows, cols)


def save_matrix_json(m, path) -> None:
    Path(path).write_text(canonical_json(matrix_to_jsonable(m)) + "\n")


def load_matrix_json(path) -> np.ndarray:
    return jsonable_to_matrix(json.loads(Path(path).read_text()))


def save_table_csv(table, path, columns: str | None = None) -> None:
    """Write a 2-D float table as CSV: the format header, an optional
    ``# columns`` comment line, then one comma-separated row per line."""
    table = np.asarray(table, dtype=float)
    head = CSV_HEADER + "\n" + ("" if columns is None else "# " + columns + "\n")
    body = _float_text(table, table.shape[1], ",", "\n", quote_nonfinite=False)
    Path(path).write_text(head + body + "\n")


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


def _float_array_json(items, pad: str, inner: str) -> str | None:
    """Canonical text of a list of floats, or of a list of equal-width rows
    of floats, laid out as element-by-element serialization lays it out;
    None for any other list, which then takes the general path."""
    kinds = set(map(type, items))
    if kinds == {float}:
        body = _float_text(items, len(items), ",\n" + inner, "", quote_nonfinite=True)
        return "[\n" + inner + body + "\n" + pad + "]"
    if not kinds <= {list, tuple}:
        return None
    widths = set(map(len, items))
    if len(widths) != 1:
        return None
    flat = list(chain.from_iterable(items))
    if set(map(type, flat)) != {float}:
        return None
    deeper = inner + "  "
    between = "\n" + inner + "],\n" + inner + "[\n" + deeper
    body = _float_text(flat, len(items[0]), ",\n" + deeper, between, quote_nonfinite=True)
    return "[\n" + inner + "[\n" + deeper + body + "\n" + inner + "]\n" + pad + "]"


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats.

    Complex scalars become [re, im] pairs; numpy scalars and arrays are
    converted; non-finite floats are emitted as the strings "inf", "-inf",
    "nan" (standard JSON has no literal for them).
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
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
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        text = _float_array_json(obj, pad, inner)
        if text is not None:
            return text
        items = [canonical_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # one join over the pieces, so a large value is copied once, not per level
        parts = ["{\n"]
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key)}")
            parts += (inner, json.dumps(key), ": ", canonical_json(obj[key], indent + 1), ",\n")
        parts[-1] = "\n" + pad + "}"
        return "".join(parts)
    raise TypeError(f"cannot serialize {type(obj)} canonically")


def save_report(obj, path) -> None:
    """Write a canonical JSON report."""
    Path(path).write_text(canonical_json(obj) + "\n")
