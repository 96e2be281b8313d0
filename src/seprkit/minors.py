"""Exact symbolic determinants and enumeration of the principal minors.

det A[S] is a signed sum over the families of pairwise disjoint cycles of
the support digraph (an edge i -> j for each nonzero entry; a nonzero
diagonal entry is a cycle of length 1) whose vertices are exactly S.  Each
family contributes the product of its cycles' weights, and a cycle's weight
is the sign (-1)^(length-1) times the sum of its edge products over the
ways round it.  A minor whose S no family covers is identically zero.
``_family_sums`` evaluates these sums for every cover mask at once and is
the one determinant engine: it runs over polynomial entries for the minor
table and ``principal_minor``, and over plain integers for the point-evaluation
path, whose rows are scaled to clear the denominators of the point.  No
function here reads the monomial layout of ``polyring``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import lcm
from typing import Iterator, Sequence

from .polyring import Polynomial, RationalPoint
from .symmatrix import SymMatrix

__all__ = ["MinorTable", "principal_minor", "all_principal_minors", "minor_values_at",
           "MAX_ENUM_DIM"]

# 2^n subsets; full enumeration is refused beyond this.
MAX_ENUM_DIM = 24


def _family_sums(row_entries, one, total, required=0) -> dict:
    """{mask: det A[mask]} for every mask that contains ``required`` and is
    either 0 (the empty matrix, ``one``) or a union of pairwise disjoint
    support cycles; every other principal minor is zero.

    ``row_entries[i]`` lists the (column, value) pairs of row i's support,
    the edges i -> column of the support digraph.  A value may be zero, as
    an entry that vanishes at a point is: the keys depend on the support
    alone, and a sum that cancels to zero keeps its key.  ``total`` adds a
    nonempty list of values in one step, so a sum is built once per
    round rather than once per term.

    For v = 0 up to n-1, a path-sum DP walks the paths that start at v and
    then visit only vertices above v.  A state is (last vertex, visited
    mask) and carries the sum of its paths' edge products; the states are
    layered by path length, so each sum is complete before it extends.  An
    edge back to v closes the cycles on the visited mask C and adds
    path * a[u][v] to their weight W(C), which takes the permutation sign
    (-1)^(|C|-1).  The step then adds sums[r] * W(C) into sums[r | C] for
    every union r found so far that misses C.  The cycles of a family have
    distinct smallest vertices, so the family is reached once: at the step
    of its cycle C with the largest one, from the union r of the others.
    Different (r, C) pairs reach one union, so the step accumulates.  No
    later cycle covers v, so once v is done a union that misses a vertex
    of ``required`` up to v is dropped: for the one mask of a determinant
    this keeps the unions of a diagonal matrix to one per step, not 2^n.
    Without ``required`` every cover mask is a key, so more than
    ``MAX_ENUM_DIM`` rows are refused.
    """
    if not required and len(row_entries) > MAX_ENUM_DIM:
        raise ValueError(f"refusing to enumerate 2^{len(row_entries)} principal minors "
                         f"(n > {MAX_ENUM_DIM})")
    sums = {0: one}
    for v in range(len(row_entries)):
        start, above = 1 << v, -1 << (v + 1)
        closed, layer = {}, {(v, start): one}
        while layer:
            extended = {}
            for (u, visited), path in layer.items():
                for w, value in row_entries[u]:
                    bit = 1 << w
                    if bit == start:
                        closed.setdefault(visited, []).append(path * value)
                    elif bit & above and not bit & visited:
                        extended.setdefault((w, visited | bit), []).append(path * value)
            layer = {state: total(paths) for state, paths in extended.items()}
        joined = {}
        for cycle, paths in closed.items():
            weight = total(paths)
            if not cycle.bit_count() & 1:
                weight = -weight
            for r, base in sums.items():
                if not r & cycle:
                    joined.setdefault(r | cycle, []).append(base * weight)
        for mask, terms in joined.items():
            if mask in sums:
                terms.append(sums[mask])
            sums[mask] = total(terms)
        if required & start:
            sums = {r: value for r, value in sums.items() if r & start}
    return sums


def _symbolic_sums(matrix: SymMatrix, mask: int, required: int) -> dict:
    """``_family_sums`` over the polynomial entries of A[mask]: rows and
    columns off the mask are dropped, and so are the rows above its top."""
    table, rows = matrix.table, matrix.rows[:mask.bit_length()]
    row_entries = [[(j, entry) for j, entry in enumerate(row) if entry and mask >> j & 1]
                   if mask >> i & 1 else [] for i, row in enumerate(rows)]
    return _family_sums(row_entries, Polynomial.one(table), partial(Polynomial.sum_of, table),
                        required)


def principal_minor(matrix: SymMatrix, mask: int) -> Polynomial:
    """Exact det A[mask], bit i-1 of ``mask`` selecting index i; the empty
    mask yields 1."""
    if not 0 <= mask < 1 << matrix.n:
        raise ValueError(f"subset mask {mask} out of range 0..2^{matrix.n}-1")
    return _symbolic_sums(matrix, mask, mask).get(mask, Polynomial.zero(matrix.table))


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

    def minor(self, mask: int) -> Polynomial:
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

    def items_of_order(self, k: int) -> Iterator[tuple[int, Polynomial]]:
        """(mask, minor) pairs of all k-minors, zeros included, by mask."""
        for mask in self.masks_of_order(k):
            yield mask, self.entries.get(mask, self.zero)


def all_principal_minors(matrix: SymMatrix) -> MinorTable:
    """Every principal minor of ``matrix``: the family sums run over the
    cycle-cover masks only, and the table stores the nonzero results."""
    n = matrix.n
    sums = _symbolic_sums(matrix, (1 << n) - 1, 0)
    return MinorTable(n, {mask: sums[mask] for mask in sorted(sums) if mask and sums[mask]},
                      Polynomial.zero(matrix.table))


def minor_values_at(matrix: SymMatrix, point: RationalPoint) -> dict[int, Fraction]:
    """Exact values at a rational point of the principal minors on the
    matrix's cycle-cover masks, in increasing mask order; every other
    principal minor is 0 there.  A cover mask whose value is 0 is kept.

    Substitutes first, so no symbolic minor table is required, and sums in
    integers: row i is scaled by L_i, the lcm of its entries' denominators,
    so det A[S] = det((LA)[S]) / prod of L_i over i in S, and a Fraction is
    built once per mask.  The support, and so the masks, come from the
    symbolic entries: one that evaluates to 0 at the point stays an edge.
    """
    n = matrix.n
    row_entries, scales = [], []
    for row in matrix.rows:
        values = [(j, entry.eval_at(point)) for j, entry in enumerate(row) if entry]
        scale = lcm(*(value.denominator for _, value in values))
        row_entries.append([(j, value.numerator * (scale // value.denominator))
                            for j, value in values])
        scales.append(scale)
    sums = _family_sums(row_entries, 1, sum)
    # products[m] multiplies the L_i of rows low..low+7 whose bit is set in
    # m, so a mask's denominator takes one lookup per byte of the mask
    chunks = []
    for low in range(0, n, 8):
        products = [1]
        for scale in scales[low:low + 8]:
            products += [product * scale for product in products]
        chunks.append((low, products))
    values = {}
    for mask in sorted(sums):
        if mask:
            scale = 1
            for low, products in chunks:
                scale *= products[mask >> low & 255]
            values[mask] = Fraction(sums[mask], scale)
    return values
