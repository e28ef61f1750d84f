"""Serialization against reference copies of the element-by-element writers.

``canonical_json`` formats float arrays in batches, and
``matrix_to_jsonable``/``save_matrix_csv`` work on whole arrays.  The functions prefixed ``_reference_`` below are the earlier
implementations, kept verbatim: one recursive call per JSON value and one
Python call per matrix entry.  Every written byte must be the same, and
an input one side refuses must be refused by the other with the same
exception type.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec.io import (
    CSV_HEADER,
    PIECE_ROWS,
    canonical_json,
    matrix_to_jsonable,
    save_matrix_csv,
    save_report,
)
from isospec.linalg import as_matrix

# ---------------------------------------------------------------------------
# reference copies of the per-element implementations


def _reference_fmt_float(x: float) -> str:
    """Fixed 17-significant-digit decimal form (round-trip exact)."""
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float has no canonical JSON number form")
    s = format(x, ".17g")
    # normalize negative zero for byte determinism
    return "0" if s == "-0" else s


def _reference_canonical_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x != x:
            return '"nan"'
        if x == float("inf"):
            return '"inf"'
        if x == float("-inf"):
            return '"-inf"'
        return _reference_fmt_float(x)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return f"[{_reference_fmt_float(z.real)}, {_reference_fmt_float(z.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _reference_canonical_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_reference_canonical_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key)}")
            items.append(
                inner + json.dumps(key) + ": " + _reference_canonical_json(obj[key], indent + 1)
            )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)} canonically")


def _reference_matrix_to_jsonable(m) -> dict:
    m = as_matrix(m)
    rows, cols = m.shape
    flat = m.reshape(-1)
    return {
        "rows": rows,
        "cols": cols,
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def _reference_save_matrix_csv(m, path) -> None:
    m = as_matrix(m)
    lines = [CSV_HEADER]
    for row in m:
        cells = []
        for z in row:
            cells.append(_reference_fmt_float(float(z.real)))
            cells.append(_reference_fmt_float(float(z.imag)))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# comparison helpers


def _outcome(fn, *args):
    """(text, None) on success, (None, exception type) on refusal."""
    try:
        return fn(*args), None
    except Exception as exc:  # the exception type itself is compared
        return None, type(exc)


def _assert_same_json(obj):
    assert _outcome(canonical_json, obj) == _outcome(_reference_canonical_json, obj)


# ---------------------------------------------------------------------------
# drawn documents

SPECIAL_FLOATS = [
    0.0,
    -0.0,
    math.nan,
    math.inf,
    -math.inf,
    5e-324,
    -5e-324,
    1e308,
    -1e308,
    0.1,
    1.0 / 3.0,
]

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL_FLOATS)
# what may slip into a float list: bools, ints, numpy scalars and complex numbers
intruders = (
    st.booleans()
    | st.integers(-(10**20), 10**20)
    | st.sampled_from([10**17, -(2**53) - 1])
    | floats.map(np.float64)
    | st.complex_numbers(allow_nan=False, allow_infinity=False)
)
mostly_floats = st.one_of(floats, floats, floats, intruders)


def _rows(width):
    return st.lists(st.lists(mostly_floats, min_size=width, max_size=width), max_size=6)


float_rows = st.sampled_from([0, 1, 2, 3]).flatmap(_rows)
ragged_rows = st.lists(st.lists(floats, max_size=4), max_size=6)
float_arrays = st.lists(floats, max_size=12).map(np.array)
complex_arrays = st.lists(
    st.complex_numbers(allow_nan=False, allow_infinity=False), max_size=6
).map(np.array)

leaves = (
    st.none()
    | st.text(max_size=8)
    | mostly_floats
    | st.lists(mostly_floats, max_size=10)
    | st.lists(floats, max_size=10).map(tuple)
    | float_rows
    | ragged_rows
    | float_arrays
    | complex_arrays
)
documents = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


@given(documents)
@settings(max_examples=300, deadline=None)
def test_canonical_json_matches_reference(doc):
    _assert_same_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [1.0, True, 2.0],
        [True, False],
        [1, 2.0, 3],
        [np.float64(-0.0), -0.0, 2.5],
        [[1.0, 2.0], [3.0, True]],
        [[1.0, 2.0], [3.0, 4]],
        [[1.0, 10**17], [3.0, 4.0]],
        [0.5, 2**53 + 1],
        [[1.0, 2.0], (3.0, -0.0)],
        [[], []],
        [[1.0], [2.0]],
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        [[1.0], [2.0, 3.0]],
        [[math.nan, math.inf], [-math.inf, -0.0]],
        [[1.0, [2.0]], [3.0, 4.0]],
        [{"a": 1.0}, {"b": 2.0}],
        {"m": {"entries": [[0.5, -0.0]], "rows": 1, "cols": 1}, "v": [5e-324, 1e308]},
        [complex(1.0, -0.0), 2.0],
        complex(math.nan, 0.0),
        [complex(math.inf, 0.0)],
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        np.array([1.0 + 2.0j, -0.0j]),
        np.float64(-0.0),
        {1: 2.0},
    ],
    ids=repr,
)
def test_canonical_json_edge_documents(doc):
    _assert_same_json(doc)


# ---------------------------------------------------------------------------
# float arrays as leaves: formatted straight from the array, a piece at a time


@st.composite
def float_array_leaves(draw):
    """A real float64 array, 1-D or 2-D rows, whose row count sits at and
    around the piece boundary, with signed zeros, subnormals, extreme
    magnitudes and non-finite values planted, sometimes as a strided view."""
    rows = draw(st.sampled_from([0, 1, PIECE_ROWS - 1, PIECE_ROWS, PIECE_ROWS + 1, 3 * PIECE_ROWS]))
    width = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
    planted = rng.random(arr.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    arr[planted] = rng.choice(SPECIAL_FLOATS, size=int(planted.sum()))
    layout = draw(st.sampled_from(["rows", "column", "flat", "strided"]))
    if layout == "column":
        return arr[:, 0]
    if layout == "flat":
        return arr.reshape(-1)
    if layout == "strided":
        return np.vstack([arr, arr])[::2]
    return arr


array_documents = st.one_of(
    float_array_leaves(),
    st.dictionaries(st.sampled_from(["a", "entries", "z"]), float_array_leaves(), max_size=3),
    st.tuples(float_array_leaves(), st.just({"k": [1.0, "s"]}), float_array_leaves()).map(list),
)


@given(array_documents)
@settings(max_examples=60, deadline=None)
def test_float_array_documents_match_reference(doc):
    # the reference serializes an array through its tolist() form
    text = _reference_canonical_json(doc)
    assert canonical_json(doc) == text
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        save_report(doc, path)
        assert path.read_bytes() == (text + "\n").encode()


# ---------------------------------------------------------------------------
# drawn matrices


@st.composite
def matrices(draw):
    """Random complex matrices up to 40x40, with signed zeros, subnormals and
    extreme magnitudes planted, sometimes as a non-contiguous view."""
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    parts = m.view(np.float64)
    planted = rng.random(parts.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    finite_specials = [v for v in SPECIAL_FLOATS if math.isfinite(v)]
    parts[planted] = rng.choice(finite_specials, size=int(planted.sum()))
    layout = draw(st.sampled_from(["c", "transposed", "real"]))
    if layout == "transposed":
        return m.T
    if layout == "real":
        return m.real.copy()
    return m


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_matrix_documents_match_reference(m):
    new, ref = matrix_to_jsonable(m), _reference_matrix_to_jsonable(m)
    assert new["entries"].dtype == np.float64
    # repr tells -0.0 from 0.0 and a float from an int
    assert repr({**new, "entries": new["entries"].tolist()}) == repr(ref)
    assert canonical_json(new) == _reference_canonical_json(ref)


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_matrix_csv_matches_reference(m):
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = Path(tmp) / "new.csv", Path(tmp) / "ref.csv"
        save_matrix_csv(m, new)
        _reference_save_matrix_csv(m, ref)
        assert new.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_matrices_are_refused_like_the_reference(bad, tmp_path):
    m = np.ones((2, 2), dtype=complex)
    m[1, 0] = complex(0.0, bad)
    assert _outcome(matrix_to_jsonable, m)[1] is _outcome(_reference_matrix_to_jsonable, m)[1]
    new = _outcome(save_matrix_csv, m, tmp_path / "new.csv")[1]
    ref = _outcome(_reference_save_matrix_csv, m, tmp_path / "ref.csv")[1]
    assert new is not None and new is ref
