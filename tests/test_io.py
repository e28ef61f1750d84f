"""Serialization: canonical JSON, matrix JSON/CSV round trips."""

import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec.errors import DimensionError
from isospec.intertwining import build_model, make_commuting_pair, verify_relations
from isospec.io import (
    CSV_HEADER,
    PIECE_ROWS,
    canonical_json,
    jsonable_to_matrix,
    load_matrix_csv,
    load_matrix_json,
    matrix_to_jsonable,
    model_document,
    save_matrix_csv,
    save_matrix_json,
    save_report,
    save_table_csv,
)


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_matrix_jsonable_layout():
    m = np.array([[1.0 + 2.0j, 3.0], [0.0, -1.0j]], dtype=complex)
    doc = matrix_to_jsonable(m)
    assert doc["rows"] == 2 and doc["cols"] == 2
    entries = doc["entries"]
    # the entry pairs are a read-only float64 view, written straight from the array
    assert entries.dtype == np.float64 and entries.shape == (4, 2)
    assert not entries.flags.writeable
    assert entries.tolist()[0] == [1.0, 2.0]
    assert entries.tolist()[3] == [0.0, -1.0]
    np.testing.assert_array_equal(jsonable_to_matrix(doc), m)


def test_matrix_json_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = _random_complex(rng, 5, 3)
    path = tmp_path / "m.json"
    save_matrix_json(m, path)
    np.testing.assert_array_equal(load_matrix_json(path), m)


def test_matrix_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    m = _random_complex(rng, 4, 6)
    path = tmp_path / "m.csv"
    save_matrix_csv(m, path)
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    np.testing.assert_array_equal(load_matrix_csv(path), m)


def test_csv_reader_tolerates_missing_header(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("1.0,0.0\n")
    np.testing.assert_array_equal(load_matrix_csv(path), np.array([[1.0 + 0.0j]]))


def test_csv_rejects_odd_column_count(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("1.0,0.0,2.0\n")
    with pytest.raises(Exception):
        load_matrix_csv(path)


def test_canonical_json_sorts_keys():
    a = canonical_json({"b": 1, "a": [1.5, 2.0]})
    b = canonical_json({"a": [1.5, 2.0], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


def test_canonical_json_float_precision():
    x = 0.1 + 0.2
    text = canonical_json({"v": x})
    assert float(json.loads(text)["v"]) == x


def test_save_report_is_deterministic(tmp_path):
    doc = {"z": [1.0, 2.0], "a": {"nested": 3.5}, "s": "text"}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    save_report(doc, p1)
    save_report(dict(reversed(list(doc.items()))), p2)
    assert p1.read_bytes() == p2.read_bytes()


@given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_jsonable_roundtrip_property(seed, rows, cols):
    m = _random_complex(np.random.default_rng(seed), rows, cols)
    recovered = jsonable_to_matrix(json.loads(canonical_json(matrix_to_jsonable(m))))
    np.testing.assert_array_equal(recovered, m)


def test_jsonable_rejects_inconsistent_shape():
    doc = {"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]}
    with pytest.raises(Exception):
        jsonable_to_matrix(doc)


# ---------------------------------------------------------------------------
# the readers' error contract: malformed input is a typed input error

BAD_MATRIX_DOCUMENTS = {
    "triples": {"rows": 1, "cols": 2, "entries": [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]},
    "singletons": {"rows": 1, "cols": 2, "entries": [[1.0], [2.0]]},
    "flat numbers": {"rows": 1, "cols": 2, "entries": [1.0, 2.0]},
    "mixed pairs": {"rows": 1, "cols": 2, "entries": [[1.0, 0.0], [2.0]]},
    "strings": {"rows": 1, "cols": 1, "entries": [["1", "0"]]},
    "nulls": {"rows": 1, "cols": 1, "entries": [[None, 0.0]]},
    "wrong count": {"rows": 2, "cols": 2, "entries": [[1.0, 0.0]] * 3},
    "no rows": {"rows": 0, "cols": 2, "entries": []},
    "missing key": {"rows": 1, "entries": [[1.0, 0.0]]},
    "booleans": {"rows": 1, "cols": 1, "entries": [[True, False]]},
    "boolean array": {"rows": 1, "cols": 1, "entries": np.array([[True, False]])},
    "fractional rows": {"rows": 1.7, "cols": 1, "entries": [[1.0, 0.0]]},
    "integral float cols": {"rows": 1, "cols": 1.0, "entries": [[1.0, 0.0]]},
    "boolean rows": {"rows": True, "cols": 1, "entries": [[1.0, 0.0]]},
    "boolean cols": {"rows": 1, "cols": True, "entries": [[1.0, 0.0]]},
    "string rows": {"rows": "1", "cols": 1, "entries": [[1.0, 0.0]]},
    "entries not a list": {"rows": 1, "cols": 1, "entries": 5},
}

BAD_CSV_FILES = {
    "odd width": (DimensionError, "1.0,0.0,2.0\n"),
    "ragged": (DimensionError, "1.0,0.0,2.0,0.0\n1.0,0.0\n"),
    "odd row among even": (DimensionError, "1.0,0.0\n1.0,0.0,2.0\n"),
    "non-numeric": (ValueError, "1.0,zero\n"),
    "empty cell": (ValueError, "1.0,,2.0,0.0\n"),
    "header only": (DimensionError, CSV_HEADER + "\n"),
}


@pytest.mark.parametrize("name", sorted(BAD_MATRIX_DOCUMENTS))
def test_malformed_matrix_documents_are_dimension_errors(name):
    with pytest.raises(DimensionError):
        jsonable_to_matrix(BAD_MATRIX_DOCUMENTS[name])


@pytest.mark.parametrize("name", sorted(BAD_CSV_FILES))
def test_malformed_matrix_csv_raises_its_input_error(name, tmp_path):
    error, text = BAD_CSV_FILES[name]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(error):
        load_matrix_csv(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_nonfinite_matrix_is_not_written_as_csv(bad, tmp_path):
    m = np.eye(2, dtype=complex)
    m[0, 1] = bad
    with pytest.raises(DimensionError):
        save_matrix_csv(m, tmp_path / "m.csv")
    assert not (tmp_path / "m.csv").exists()


def test_matrix_readers_keep_every_bit(tmp_path):
    # signed zeros are the exception: the canonical text writes -0 as 0
    m = np.array([[complex(0.1, 5e-324), complex(1e308, -1e-308)], [-1.0 / 3.0, 2.0]])
    save_matrix_csv(m, tmp_path / "m.csv")
    from_csv = load_matrix_csv(tmp_path / "m.csv")
    from_json = jsonable_to_matrix(json.loads(canonical_json(matrix_to_jsonable(m))))
    assert from_csv.tobytes() == m.tobytes()
    assert from_json.tobytes() == m.tobytes()


# ---------------------------------------------------------------------------
# the streaming writers: atomic replacement, file mode, working memory


def _several_pieces(width):
    # more than one piece, and far more text than a file buffer holds, so the
    # partial file has received bytes before a later value is refused
    return np.arange(float(3 * PIECE_ROWS * width)).reshape(-1, width)


@pytest.mark.parametrize("existing", [True, False])
def test_a_report_refused_part_way_leaves_the_target_and_no_partial_file(existing, tmp_path):
    target = tmp_path / "report.json"
    if existing:
        target.write_bytes(b'{\n  "old": 1\n}\n')
    before = target.read_bytes() if existing else None
    with pytest.raises(TypeError):
        save_report({"a": _several_pieces(2), "b": object()}, target)
    assert (target.read_bytes() if target.exists() else None) == before
    assert sorted(os.listdir(tmp_path)) == (["report.json"] if existing else [])


def test_a_table_refused_part_way_leaves_the_target_and_no_partial_file(tmp_path):
    target = tmp_path / "table.csv"
    target.write_bytes(b"old\n")
    table = _several_pieces(3)
    table[-1, 0] = np.nan
    with pytest.raises(ValueError):
        save_table_csv(table, target)
    assert target.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["table.csv"]


def test_written_files_get_the_mode_of_a_plain_open(tmp_path):
    with open(tmp_path / "plain", "w"):
        pass
    save_report({"a": [1.0, 2.0]}, tmp_path / "r.json")
    save_matrix_json(np.eye(2), tmp_path / "m.json")
    save_matrix_csv(np.eye(2), tmp_path / "m.csv")
    modes = {path.name: path.stat().st_mode for path in tmp_path.iterdir()}
    assert set(modes.values()) == {modes["plain"]}, modes


def test_a_report_is_written_through_a_symlink(tmp_path):
    (tmp_path / "real.json").write_text("old\n")
    (tmp_path / "link.json").symlink_to("real.json")
    save_report({"a": 1.0}, tmp_path / "link.json")
    assert (tmp_path / "link.json").is_symlink()
    assert (tmp_path / "real.json").read_text() == '{\n  "a": 1\n}\n'


def test_save_report_streams_a_model_in_less_than_its_matrices(tmp_path):
    model = build_model(*make_commuting_pair(300, 150, 3))
    doc = model_document(model, verify_relations(model).residuals)
    matrices = model.theta1.nbytes + model.x.nbytes + model.theta2.nbytes
    assert matrices == 2_520_000
    tracemalloc.start()
    try:
        save_report(doc, tmp_path / "model.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole text (11.8 MB), or one Python list per entry, would not fit
    assert peak < matrices, peak
    assert (tmp_path / "model.json").stat().st_size > 11_000_000
