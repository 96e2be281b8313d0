"""Exact symbolic determinants and enumeration of all principal minors.

Determinants are computed by recursive Laplace expansion, memoised on the
(row mask, column mask) pair and shared across all 2^n - 1 principal
subsets, so sparse matrices (the built-in one has 20 nonzero entries) reuse
almost every subdeterminant.  Each row keeps a bitmask of its nonzero
columns.  One pass over the active rows ANDs each with the column mask:
an empty row, or a column no active row covers, means the support has no
perfect matching (Hall's theorem), so the minor is identically zero and
costs no arithmetic and no memo entry.  Otherwise the expansion runs along
the active row with the fewest active entries and skips zero
subdeterminants; the memo holds only such expanded results.  The same
engine runs over polynomial entries and over exact rational entries, which
backs the point-evaluation path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .polyring import Polynomial, RationalPoint
from .symmatrix import IndexSet, SymMatrix

__all__ = ["MinorTable", "determinant", "all_principal_minors", "minor_values_at",
           "MAX_ENUM_DIM"]

# 2^n subsets; full enumeration is refused beyond this.
MAX_ENUM_DIM = 24


class _CofactorEngine:
    """Laplace expansion with a memo keyed on (row mask, column mask).

    ``row_entries[i]`` lists the nonzero (column, value) pairs of row i in
    column order and ``row_bits[i]`` is the mask of those columns.  A
    (row mask, column mask) pair with an empty row or an uncovered column is
    structurally singular: ``det`` returns the shared ``zero`` without
    expanding or memoising it, since that test costs about as much as a memo
    lookup.  The memo holds only expanded results.  Expansion order is
    deterministic (fewest active entries, lowest row on ties), so results
    match sequential evaluation bit for bit.
    """

    def __init__(self, row_entries, zero, one):
        self.row_entries = row_entries
        self.row_bits = [sum(1 << c for c, _ in entries) for entries in row_entries]
        self.zero = zero
        self.one = one
        self.memo: dict[tuple[int, int], object] = {}

    def det(self, rmask: int, cmask: int):
        if rmask == 0:
            return self.one
        key = (rmask, cmask)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        row_bits = self.row_bits
        covered = 0
        best_row, best_count = -1, cmask.bit_count() + 1
        remaining = rmask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            row = low.bit_length() - 1
            active = row_bits[row] & cmask
            if not active:
                return self.zero
            covered |= active
            count = active.bit_count()
            if count < best_count:
                best_row, best_count = row, count
        if covered != cmask:
            return self.zero
        row_pos = (rmask & ((1 << best_row) - 1)).bit_count()
        sub_rmask = rmask ^ (1 << best_row)
        result = self.zero
        for col, value in self.row_entries[best_row]:
            bit = 1 << col
            if not cmask & bit:
                continue
            sub = self.det(sub_rmask, cmask ^ bit)
            if not sub:
                continue
            cofactor = value * sub
            if (row_pos + (cmask & (bit - 1)).bit_count()) % 2:
                result = result - cofactor
            else:
                result = result + cofactor
        self.memo[key] = result
        return result


def _symbolic_engine(matrix: SymMatrix) -> _CofactorEngine:
    row_entries = [
        [(j, entry) for j, entry in enumerate(row) if entry] for row in matrix.rows
    ]
    return _CofactorEngine(row_entries, Polynomial.zero(matrix.table), Polynomial.one(matrix.table))


def determinant(matrix: SymMatrix) -> Polynomial:
    """Exact determinant polynomial; a 0x0 matrix yields 1."""
    n = matrix.n
    return _symbolic_engine(matrix).det((1 << n) - 1, (1 << n) - 1)


@dataclass
class MinorTable:
    """All principal minors of one matrix, keyed by n-bit subset mask (bit
    i-1 selects index i); ``entries`` iterates in increasing mask order."""

    n: int
    entries: dict[int, Polynomial]

    def minor(self, selection: "IndexSet | int") -> Polynomial:
        mask = selection if isinstance(selection, int) else selection.mask()
        return self.entries[mask]

    def masks_of_order(self, k: int) -> Iterator[int]:
        """Masks of all size-k subsets in increasing mask order, generated
        directly (Gosper's hack) rather than by scanning all 2^n masks."""
        if not 1 <= k <= self.n:
            return
        mask, limit = (1 << k) - 1, 1 << self.n
        while mask < limit:
            yield mask
            low = mask & -mask
            ripple = mask + low
            mask = ripple | ((ripple ^ mask) >> (low.bit_length() + 1))

    def items_of_order(self, k: int) -> Iterator[tuple[IndexSet, Polynomial]]:
        for mask in self.masks_of_order(k):
            yield IndexSet.from_mask(mask), self.entries[mask]

    def __len__(self) -> int:
        return len(self.entries)


def all_principal_minors(matrix: SymMatrix) -> MinorTable:
    """Determinants of every nonempty principal submatrix (2^n - 1 entries),
    inserted in increasing mask order."""
    n = matrix.n
    if n > MAX_ENUM_DIM:
        raise ValueError(f"refusing to enumerate 2^{n} principal minors (n > {MAX_ENUM_DIM})")
    engine = _symbolic_engine(matrix)
    return MinorTable(n, {mask: engine.det(mask, mask) for mask in range(1, 1 << n)})


def minor_values_at(matrix: SymMatrix, point: RationalPoint) -> dict[int, Fraction]:
    """Exact values of every principal minor at a rational point.

    Substitutes first and expands over Fractions, so no symbolic minor table
    is required.
    """
    n = matrix.n
    if n > MAX_ENUM_DIM:
        raise ValueError(f"refusing to enumerate 2^{n} principal minors (n > {MAX_ENUM_DIM})")
    row_entries = []
    for row in matrix.rows:
        numeric = []
        for j, entry in enumerate(row):
            if entry:
                value = entry.eval_at(point)
                if value:
                    numeric.append((j, value))
        row_entries.append(numeric)
    engine = _CofactorEngine(row_entries, Fraction(0), Fraction(1))
    return {mask: engine.det(mask, mask) for mask in range(1, 1 << n)}
