"""Matrix documents, index sets, and the built-in 12x12 matrix."""

import json
from importlib import resources

import pytest

from seprkit import (
    IndexSet,
    MatrixFormatError,
    Polynomial,
    SymMatrix,
    VariableTable,
    load_matrix,
    matrix_from_document,
    matrix_to_document,
    paper_matrix,
    parse_entry,
)
from seprkit.symmatrix import PAPER_MATRIX_DOCUMENT
from _oracles import principal_subgrid, transposed


def small_doc():
    return {"n": 2, "variables": ["x", "y"], "entries": [["x", "1"], ["0", "-y"]]}


# --------------------------------------------------------------- index sets


def test_index_set_roundtrip_and_validation():
    s = IndexSet.of([10, 1, 7], 12)
    assert s.indices == (1, 7, 10)
    assert str(s) == "{1,7,10}"
    assert s.mask() == (1 << 0) | (1 << 6) | (1 << 9)
    assert IndexSet.from_mask(s.mask()) == s
    with pytest.raises(ValueError, match="duplicate"):
        IndexSet.of([1, 1], 12)
    with pytest.raises(ValueError, match="out of range"):
        IndexSet.of([0], 12)
    with pytest.raises(ValueError, match="out of range"):
        IndexSet.of([13], 12)


# ----------------------------------------------------------------- matrices


def test_matrix_access_and_views():
    m = matrix_from_document(small_doc())
    assert m.n == 2
    assert [[str(entry) for entry in row] for row in m.rows] == [["x", "1"], ["0", "-y"]]
    assert m.rows[1][0].is_zero()
    assert [[str(e) for e in row] for row in principal_subgrid(m.rows, 0b10)] == [["-y"]]
    t = transposed(m)
    assert [[str(entry) for entry in row] for row in t.rows] == [["x", "0"], ["1", "-y"]]
    assert t != m and transposed(t) == m
    assert [(i, j) for i, row in enumerate(m.rows, start=1)
            for j, entry in enumerate(row, start=1) if entry] == [(1, 1), (1, 2), (2, 2)]


def test_matrix_requires_square_grid_and_one_table():
    table = VariableTable(["x"])
    x = Polynomial.variable(table, "x")
    with pytest.raises(MatrixFormatError, match="square"):
        SymMatrix(table, [[x, x]])
    other = Polynomial.variable(VariableTable(), "y")
    with pytest.raises(ValueError):
        SymMatrix(table, [[other]])


# ---------------------------------------------------------------- documents


def test_document_round_trip(tmp_path):
    doc = small_doc()
    m = matrix_from_document(doc)
    assert matrix_to_document(m) == doc
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_document(m)), encoding="utf-8")
    assert load_matrix(path) == m
    # saved file is plain JSON
    reparsed = json.loads(path.read_text(encoding="utf-8"))
    assert reparsed["n"] == 2


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("n"), "missing field 'n'"),
        (lambda d: d.pop("entries"), "missing field 'entries'"),
        (lambda d: d.update(n=0), "positive integer"),
        (lambda d: d.update(n="2"), "positive integer"),
        (lambda d: d.update(n=True), "positive integer"),
        (lambda d: d.update(variables="xy"), "list of names"),
        (lambda d: d.update(variables=["2bad"]), "invalid variable name"),
        (lambda d: d.update(variables=["x", "y", "x"]), "variable 'x' declared twice"),
        (lambda d: d.update(entries=[["x", "1"]]), "list of 2 rows"),
        (lambda d: d["entries"][0].append("0"), "row 1 must hold exactly 2"),
        (lambda d: d["entries"].__setitem__(0, ["x", 5]), r"entry \(1,2\) must be a string"),
    ],
)
def test_malformed_documents(mutate, message):
    doc = small_doc()
    mutate(doc)
    with pytest.raises(MatrixFormatError, match=message):
        matrix_from_document(doc)


def test_entry_syntax_error_reports_row_column_and_offset():
    doc = small_doc()
    doc["entries"][1][0] = "x +"
    with pytest.raises(MatrixFormatError) as info:
        matrix_from_document(doc)
    assert "entry (2,1)" in str(info.value)
    assert "offset 3" in str(info.value)
    doc["entries"][1][0] = "x^" + "1" * 5000
    with pytest.raises(MatrixFormatError) as info:
        matrix_from_document(doc)
    assert "entry (2,1): integer literal of 5000 digits" in str(info.value)
    assert "offset 2" in str(info.value)


def test_zero_entries_equal_the_parser_and_declare_nothing():
    # an entry spelled "0" is one shared zero that skips the parser: it
    # equals the parser's result, declares no variable and renders back as
    # "0"; every other spelling of zero goes through the parser
    doc = {"n": 3, "variables": ["x"], "entries": [["0", "x", "0"], ["0", "0", "0"],
                                                   ["-x", "0", "0"]]}
    m = matrix_from_document(doc)
    assert matrix_to_document(m) == doc
    assert m.table.names == ("x",)
    table = VariableTable(["x"])
    assert m.rows == tuple(tuple(parse_entry(text, table) for text in row)
                           for row in doc["entries"])
    assert m.rows[0][0] is m.rows[1][2] is m.rows[2][2]
    only_zeros = matrix_from_document({"n": 2, "entries": [["0", "0"], ["0", "0"]]})
    assert only_zeros.table.names == ()
    assert all(entry == parse_entry("0", VariableTable()) for row in only_zeros.rows
               for entry in row)
    texts = [" 0", "-0", "00", "0*x"]
    m = matrix_from_document({"n": 2, "entries": [texts[:2], texts[2:]]})
    table = VariableTable()
    assert m.rows == tuple(tuple(parse_entry(text, table) for text in row)
                           for row in (texts[:2], texts[2:]))
    assert m.table.names == table.names == ("x",)
    # a bad entry after a "0" still names its (i,j)
    for bad, message in (("x +", r"entry \(2,2\): .*offset 3"),
                         (0, r"entry \(2,2\) must be a string")):
        with pytest.raises(MatrixFormatError, match=message):
            matrix_from_document({"n": 2, "entries": [["0", "0"], ["0", bad]]})


def test_load_matrix_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(MatrixFormatError, match="invalid JSON"):
        load_matrix(path)


# ---------------------------------------------------------- built-in matrix


def test_builtin_matrix_shape_and_variables(builtin_matrix):
    assert builtin_matrix.n == 12
    expected = tuple(f"a{i}" for i in range(1, 7)) \
        + tuple(f"b{i}" for i in range(1, 12)) \
        + tuple(f"c{i}" for i in range(1, 4))
    assert builtin_matrix.table.names == expected


def test_builtin_matrix_nonzero_pattern(builtin_matrix):
    entries = {(i, j): str(p) for i, row in enumerate(builtin_matrix.rows, start=1)
               for j, p in enumerate(row, start=1) if p}
    assert len(entries) == 20
    negatives = {pos for pos, text in entries.items() if text.startswith("-")}
    assert negatives == {(8, 6), (9, 4)}
    assert entries[(1, 10)] == "a1"
    assert entries[(7, 1)] == "b1"
    assert entries[(9, 4)] == "-b9"
    assert entries[(12, 9)] == "c3"
    # every nonzero entry is a single signed variable
    for text in entries.values():
        assert text.lstrip("-").isidentifier()


def test_bundled_fixture_matches_in_code_document():
    raw = resources.files("seprkit").joinpath("data/paper12.json").read_text(encoding="utf-8")
    assert json.loads(raw) == PAPER_MATRIX_DOCUMENT
    assert matrix_from_document(json.loads(raw)) == paper_matrix()
