"""Symbolic square matrices, 1-based index sets, and matrix file I/O.

The matrix file format is a JSON document::

    {"n": 2, "variables": ["a1", "b1"], "entries": [["0", "a1"], ["-b1", "0"]]}

``variables`` is optional and pins declaration order; otherwise variables are
declared in first-use order while entries are parsed row-major.  Entries use
the grammar of :mod:`seprkit.exprparse`.  All external indices are 1-based.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence

from .exprparse import ParseError, parse_entry
from .polyring import Polynomial, VariableTable, _same_table

__all__ = [
    "IndexSet",
    "SymMatrix",
    "MatrixFormatError",
    "paper_matrix",
    "matrix_from_document",
    "matrix_to_document",
    "load_matrix",
    "PAPER_MATRIX_DOCUMENT",
]


class MatrixFormatError(ValueError):
    """Malformed matrix document."""


class IndexSet(namedtuple("IndexSet", "indices")):
    """The 1-based text form of a subset, ``indices``, strictly increasing;
    the core works on its ``mask()``, in which bit i-1 selects index i."""

    __slots__ = ()

    @staticmethod
    def of(indices: Iterable[int], n: int) -> "IndexSet":
        seq = list(indices)
        if len(set(seq)) != len(seq):
            raise ValueError("duplicate index")
        for i in seq:
            if not 1 <= i <= n:
                raise ValueError(f"index {i} out of range 1..{n}")
        return IndexSet(tuple(sorted(seq)))

    @staticmethod
    def from_mask(mask: int) -> "IndexSet":
        return IndexSet(tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1))

    def mask(self) -> int:
        return sum(1 << (i - 1) for i in self.indices)

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.indices) + "}"


class SymMatrix:
    """Immutable n x n grid of polynomials over one variable table."""

    def __init__(self, table: VariableTable, rows: Sequence[Sequence[Polynomial]]):
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise MatrixFormatError("matrix grid is not square")
            for entry in row:
                if not _same_table(entry.table, table):
                    raise ValueError("entry over a different variable table")
        self.table = table
        self.rows: tuple[tuple[Polynomial, ...], ...] = tuple(tuple(row) for row in rows)
        # The plan of the family sums that the point path replays over
        # integers (``minors._point_plan``), recorded at the first point
        # evaluation, never here.
        self._point_plan = None

    @property
    def n(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self.n == other.n and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __repr__(self) -> str:
        return f"SymMatrix(n={self.n}, vars={len(self.table)})"


def matrix_from_document(document: Mapping) -> SymMatrix:
    """Build a matrix from a parsed matrix-file document; each entry
    ``"0"`` is one shared zero, and any other text is parsed."""
    if not isinstance(document, Mapping):
        raise MatrixFormatError("matrix document must be a JSON object")
    try:
        n = document["n"]
        entries = document["entries"]
    except KeyError as missing:
        raise MatrixFormatError(f"missing field {missing.args[0]!r}") from None
    if type(n) is not int or n < 1:
        raise MatrixFormatError("'n' must be a positive integer")
    table = VariableTable()
    declared = document.get("variables", [])
    if not isinstance(declared, list) or any(not isinstance(v, str) for v in declared):
        raise MatrixFormatError("'variables' must be a list of names")
    for name in declared:
        if name in table:
            raise MatrixFormatError(f"variable {name!r} declared twice")
        try:
            table.add(name)
        except ValueError as exc:
            raise MatrixFormatError(str(exc)) from None
    if not isinstance(entries, list) or len(entries) != n:
        raise MatrixFormatError(f"'entries' must be a list of {n} rows")
    rows, zero = [], Polynomial.zero(table)
    for i, raw_row in enumerate(entries, start=1):
        if not isinstance(raw_row, list) or len(raw_row) != n:
            raise MatrixFormatError(f"row {i} must hold exactly {n} entries")
        row = []
        for j, text in enumerate(raw_row, start=1):
            if not isinstance(text, str):
                raise MatrixFormatError(f"entry ({i},{j}) must be a string expression")
            try:
                row.append(zero if text == "0" else parse_entry(text, table))
            except ParseError as exc:
                raise MatrixFormatError(
                    f"entry ({i},{j}): {exc.args[0]}"
                ) from exc
        rows.append(row)
    return SymMatrix(table, rows)


def matrix_to_document(matrix: SymMatrix) -> dict:
    """Render a matrix back to its document form (canonical entry text)."""
    return {
        "n": matrix.n,
        "variables": list(matrix.table.names),
        "entries": [[str(entry) for entry in row] for row in matrix.rows],
    }


def _read_text(path: "str | os.PathLike[str]") -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _read_json(path: "str | os.PathLike[str]") -> object:
    """The JSON document in file ``path``: text that is not JSON, nests
    too deeply for the decoder or has an integer past Python's digit limit
    is a one-line MatrixFormatError, without that limit's advice."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MatrixFormatError(f"invalid JSON: {str(exc).partition('; use sys.')[0]}") from exc


def load_matrix(path: "str | os.PathLike[str]") -> SymMatrix:
    return matrix_from_document(_read_json(path))


PAPER_MATRIX_DOCUMENT = json.loads(
    _read_text(os.path.join(os.path.dirname(__file__), "data", "paper12.json")))


def paper_matrix() -> SymMatrix:
    """The built-in 12x12 parametric matrix over a1..a6, b1..b11, c1..c3.

    Its 20 nonzero entries are single signed variables; exactly two carry a
    negative sign (-b6 at (8,6) and -b9 at (9,4)).  ``data/paper12.json``
    is its only copy and also holds the sepr-sequence the paper claims.
    """
    return matrix_from_document(PAPER_MATRIX_DOCUMENT)
