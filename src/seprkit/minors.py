"""Exact symbolic determinants and enumeration of the principal minors.

det A[S] is a signed sum over the families of pairwise disjoint support
cycles (a nonzero diagonal entry is a 1-cycle) that cover S, so a principal
minor whose S is no union of disjoint cycles is identically zero.  The
enumeration generates only those cycle-cover masks and computes the
determinant of each by recursive Laplace expansion, memoised on the
(row mask, column mask) pair and shared across all of them, so sparse
matrices (the built-in one has 20 nonzero entries) reuse almost every
subdeterminant.  Each row keeps a bitmask of its nonzero columns.  One pass
over the active rows ANDs each with the column mask: an empty row, or a
column no active row covers, means the support has no perfect matching
(Hall's theorem), so the minor is identically zero and costs no arithmetic
and no memo entry.  Otherwise the expansion runs along the active row with
the fewest active entries and skips zero subdeterminants; the memo holds
only such expanded results.  The same engine runs over polynomial entries
and over exact rational entries, which backs the point-evaluation path.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

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


def _cycle_cover_masks(row_bits: Sequence[int], n: int) -> list[int]:
    """Masks of the nonempty unions of pairwise disjoint simple cycles of
    the support digraph (edge i -> j where bit j of ``row_bits[i]`` is
    set), in increasing order; every other principal minor is zero.

    For v = n-1 down to 0, a depth-first search collects the vertex sets of
    the cycles through v whose other vertices all exceed v.  It skips a
    (vertex, visited mask) state it has seen before: the same state can
    only close the same vertex sets, and without the check the search walks
    every simple path.  A family holds at most one cycle whose smallest
    vertex is v, so extending the unions of cycles above v by each disjoint
    such cycle reaches every family exactly once.
    """
    unions = {0}
    for v in range(n - 1, -1, -1):
        start, above = 1 << v, -1 << (v + 1)
        cycles = set()
        seen = set()
        stack = [(v, start)]
        while stack:
            vertex, visited = stack.pop()
            out = row_bits[vertex]
            if out & start:
                cycles.add(visited)
            free = out & above & ~visited
            while free:
                low = free & -free
                free ^= low
                state = (low.bit_length() - 1, visited | low)
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
        unions.update([r | c for r in unions for c in cycles if not r & c])
    unions.discard(0)
    return sorted(unions)


def _symbolic_engine(matrix: SymMatrix) -> _CofactorEngine:
    row_entries = [
        [(j, entry) for j, entry in enumerate(row) if entry] for row in matrix.rows
    ]
    return _CofactorEngine(row_entries, Polynomial.zero(matrix.table), Polynomial.one(matrix.table))


def determinant(matrix: SymMatrix) -> Polynomial:
    """Exact determinant polynomial; a 0x0 matrix yields 1."""
    n = matrix.n
    return _symbolic_engine(matrix).det((1 << n) - 1, (1 << n) - 1)


class MinorTable:
    """Every principal minor of one matrix, keyed by n-bit subset mask (bit
    i-1 selects index i).

    ``entries`` holds only the nonzero minors, in increasing mask order;
    ``minor`` answers every mask in 1..2^n-1, an absent one with the shared
    ``zero``.  The nonzero minors are bucketed by order once, here.
    """

    def __init__(self, n: int, entries: dict[int, Polynomial], zero: Polynomial):
        self.n = n
        self.entries = entries
        self.zero = zero
        self._by_order: list[list[tuple[int, Polynomial]]] = [[] for _ in range(n + 1)]
        for mask, m in entries.items():
            self._by_order[mask.bit_count()].append((mask, m))

    def minor(self, selection: "IndexSet | int") -> Polynomial:
        mask = selection if isinstance(selection, int) else selection.mask()
        if not 0 < mask < 1 << self.n:
            raise KeyError(mask)
        return self.entries.get(mask, self.zero)

    def nonzero_of_order(self, k: int) -> Sequence[tuple[int, Polynomial]]:
        """(mask, minor) pairs of the nonzero k-minors, in increasing mask
        order; empty for k outside 1..n."""
        return self._by_order[k] if 1 <= k <= self.n else ()

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
            yield IndexSet.from_mask(mask), self.minor(mask)

    def __len__(self) -> int:
        return (1 << self.n) - 1


def all_principal_minors(matrix: SymMatrix) -> MinorTable:
    """Every principal minor of ``matrix``: the Laplace engine runs on the
    cycle-cover masks only, and the table stores the nonzero results."""
    n = matrix.n
    if n > MAX_ENUM_DIM:
        raise ValueError(f"refusing to enumerate 2^{n} principal minors (n > {MAX_ENUM_DIM})")
    engine = _symbolic_engine(matrix)
    entries = {}
    for mask in _cycle_cover_masks(engine.row_bits, n):
        m = engine.det(mask, mask)
        if m:
            entries[mask] = m
    return MinorTable(n, entries, engine.zero)


def minor_values_at(matrix: SymMatrix, point: RationalPoint) -> dict[int, Fraction]:
    """Exact values at a rational point of the principal minors on the
    matrix's cycle-cover masks, in increasing mask order; every other
    principal minor is 0 there.  A cover mask whose value is 0 is kept.

    Substitutes first and expands over Fractions, so no symbolic minor table
    is required.
    """
    n = matrix.n
    if n > MAX_ENUM_DIM:
        raise ValueError(f"refusing to enumerate 2^{n} principal minors (n > {MAX_ENUM_DIM})")
    support, row_entries = [], []
    for row in matrix.rows:
        bits, numeric = 0, []
        for j, entry in enumerate(row):
            if entry:
                bits |= 1 << j
                value = entry.eval_at(point)
                if value:
                    numeric.append((j, value))
        support.append(bits)
        row_entries.append(numeric)
    engine = _CofactorEngine(row_entries, Fraction(0), Fraction(1))
    return {mask: engine.det(mask, mask) for mask in _cycle_cover_masks(support, n)}
