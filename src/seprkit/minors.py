"""Exact symbolic determinants and enumeration of the principal minors.

det A[S] is a signed sum over the families of pairwise disjoint cycles of
the support digraph (an edge i -> j for each nonzero entry; a nonzero
diagonal entry is a cycle of length 1) whose vertices are exactly S.  Each
family contributes the product of its cycles' weights, and a cycle's weight
is the sign (-1)^(length-1) times the sum of its edge products over the
ways round it; the paths carry that sign, as they extend along negated
entries.  A minor whose S no family covers is identically zero.
``_family_sums`` is the one determinant engine.  It computes no value: from
the support alone it records these sums for every cover mask at once as a
plan, a straight-line program of steps slots[t] += slots[a] * slots[b].
One recorded plan is replayed over term dicts, for the minor table and
``principal_minor``, with one ``_accumulate`` call per run of steps into a
slot and one sort per minor, and over integers, for the point path
(``_point_plan``), which records it once per matrix: each point fills the
entry slots with integers, its rows scaled to clear the denominators that
the evaluator returns, and replays the steps.  No function here reads the
monomial layout of ``polyring``; point values come from its one evaluator.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import chain, groupby
from math import comb, lcm
from operator import itemgetter

from .polyring import Polynomial, RationalPoint, _accumulate, _point_lists
from .symmatrix import SymMatrix

__all__ = ["MinorTable", "principal_minor", "all_principal_minors", "minor_values_at",
           "MAX_ENUM_DIM"]

# 2^n subsets; full enumeration is refused beyond this.
MAX_ENUM_DIM = 24

# Slots 0 and 1 of every plan hold the constants 1 and -1.
_ONE, _MINUS_ONE = 0, 1

# _BYTES_OF_POPCOUNT[j] lists the bytes of popcount j in increasing order.
_BYTES_OF_POPCOUNT = [list(group) for _, group in
                      groupby(sorted(range(256), key=int.bit_count), int.bit_count)]


def _family_sums(row_entries, required=0) -> tuple[int, list[int], dict[int, int]]:
    """The plan (size, steps, {mask: slot}) of det A[mask] for every mask
    that contains ``required`` and is either 0 (the empty matrix, slot
    ``_ONE``) or a union of pairwise disjoint support cycles; every other
    principal minor is zero.  No value is computed here.

    ``row_entries[i]`` lists the (column, slot) pairs of row i's support,
    the edges i -> column of the support digraph, whose entries fill slots
    2, 3, ... in order.  A sum writes its terms as steps (target, a, b),
    meaning slots[target] += slots[a] * slots[b], into one flat list of
    ints.  A new sum takes the next free slot, or is the slot of x itself
    if it is the lone term 1 * x.  A union that a later round reaches
    again adds its new terms into the slot it has: only the mask of a loop
    keeps an entry's slot, and no later round reaches it, so no step
    targets an entry or a constant.  The keys depend on the support alone:
    an entry that is zero, as one may be at a point, is still an edge, and
    a sum that cancels to zero keeps its key.

    For v = 0 up to n-1, a path-sum DP walks the paths that start at v and
    then visit only vertices above v.  A path extends along the negation
    -a[u][w] of an entry, one step (neg, slot, ``_MINUS_ONE``) into a fresh
    slot, recorded the first time any path extends along that entry.  A
    state is (last vertex, visited mask) and carries (-1)^L times the sum
    of its paths' edge products, L the path length; the states are layered
    by path length, so each sum is complete before it extends.  An edge
    back to v closes the cycles on the visited mask C and adds
    path * a[u][v] to their weight W(C): its |C| - 1 extending edges give
    W(C) the permutation sign (-1)^(|C|-1).  The step then adds
    sums[r] * W(C) into sums[r | C] for every union r found so far that
    misses C.  The cycles of a family have distinct smallest vertices, so
    the family is reached once: at the step of its cycle C with the largest
    one, from the union r of the others.  Different (r, C) pairs reach one
    union, so the step accumulates.  No later cycle covers v, so once v is
    done a union that misses a vertex of ``required`` up to v is dropped:
    for the one mask of a determinant this keeps the unions of a diagonal
    matrix to one per step, not 2^n.  Without ``required`` every cover
    mask is a key, so more than ``MAX_ENUM_DIM`` rows are refused.
    """
    if not required and len(row_entries) > MAX_ENUM_DIM:
        raise ValueError(f"refusing to enumerate 2^{len(row_entries)} principal minors "
                         f"(n > {MAX_ENUM_DIM})")
    size, steps = 2 + sum(map(len, row_entries)), []

    def total(terms: list[tuple[int, int]], target: int | None = None) -> int:
        nonlocal size
        if target is None:
            if len(terms) == 1 and _ONE in terms[0]:
                a, b = terms[0]
                return b if a == _ONE else a
            target, size = size, size + 1
        for a, b in terms:
            steps.extend((target, a, b))
        return target

    sums, negated = {0: _ONE}, {}
    for v in range(len(row_entries)):
        start, above = 1 << v, -1 << (v + 1)
        closed, layer = {}, {(v, start): _ONE}
        while layer:
            extended = {}
            for (u, visited), path in layer.items():
                for w, slot in row_entries[u]:
                    bit = 1 << w
                    if bit == start:
                        closed.setdefault(visited, []).append((path, slot))
                    elif bit & above and not bit & visited:
                        if slot not in negated:
                            negated[slot] = total([(slot, _MINUS_ONE)])
                        extended.setdefault((w, visited | bit), []).append((path, negated[slot]))
            layer = {state: total(paths) for state, paths in extended.items()}
        joined = {}
        for cycle, paths in closed.items():
            weight = total(paths)
            for r, base in sums.items():
                if not r & cycle:
                    joined.setdefault(r | cycle, []).append((base, weight))
        for mask, terms in joined.items():
            sums[mask] = total(terms, sums.get(mask))
        if required & start:
            sums = {r: slot for r, slot in sums.items() if r & start}
    return size, steps, sums


def _support(rows, mask: int) -> tuple[list, list]:
    """(row_entries, entries) of the rows and columns of ``mask``: the
    (column, slot) pairs that ``_family_sums`` takes, with each nonzero
    entry in the next slot from 2 on, row by row, and the entries in slot
    order."""
    row_entries, entries = [], []
    for i, row in enumerate(rows):
        edges = []
        if mask >> i & 1:
            for j, entry in enumerate(row):
                if entry and mask >> j & 1:
                    edges.append((j, 2 + len(entries)))
                    entries.append(entry)
        row_entries.append(edges)
    return row_entries, entries


def _symbolic_sums(matrix: SymMatrix, mask: int, required: int) -> dict:
    """{mask: polynomial} of the family sums of A[mask], whose rows above
    the mask's top are dropped: the plan of ``_family_sums`` replayed over
    term dicts, one ``_accumulate`` call per run of steps into one slot's
    dict.  Only the keyed sums are sorted, each dict let go once sorted."""
    table = matrix.table
    row_entries, entries = _support(matrix.rows[:mask.bit_length()], mask)
    _, steps, sums = _family_sums(row_entries, required)
    one = Polynomial.one(table)
    values = [one._terms, (-one)._terms, *(entry._terms for entry in entries)]
    steps = iter(steps)
    for target, group in groupby(zip(steps, steps, steps), itemgetter(0)):
        if target == len(values):
            values.append({})
        _accumulate(values[target], [(values[a], values[b]) for _, a, b in group])
    minors = {}
    for key, slot in sums.items():
        minors[key], values[slot] = Polynomial(table, values[slot]), None
    return minors


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
    ``zero``.  The nonzero minors are bucketed by order once, here.  Two
    tables are equal when their n and their stored minors are.
    """

    def __init__(self, n: int, entries: dict[int, Polynomial], zero: Polynomial):
        self.n = n
        self._limit = 1 << n
        self.entries = entries
        self.zero = zero
        self._by_order: list[list[tuple[int, Polynomial]]] = [[] for _ in range(n + 1)]
        for mask, m in entries.items():
            self._by_order[mask.bit_count()].append((mask, m))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MinorTable):
            return self.n == other.n and self.entries == other.entries
        return NotImplemented

    def minor(self, mask: int) -> Polynomial:
        if not 0 < mask < self._limit:
            raise KeyError(mask)
        return self.entries.get(mask, self.zero)

    def nonzero_of_order(self, k: int) -> Sequence[tuple[int, Polynomial]]:
        """(mask, minor) pairs of the nonzero k-minors, in increasing mask
        order; empty for k outside 1..n."""
        return self._by_order[k] if 1 <= k <= self.n else ()

    def masks_of_order(self, k: int) -> Iterator[int]:
        """Masks of all size-k subsets in increasing mask order: each high
        part h above the low byte, in increasing order, joined to the
        increasing bytes of popcount k - popcount(h)."""
        n = self.n
        if not 1 <= k <= n:
            return iter(())
        if n <= 8:
            return iter(_BYTES_OF_POPCOUNT[k][:comb(n, k)])
        return chain.from_iterable(
            map((high << 8).__or__, _BYTES_OF_POPCOUNT[k - high.bit_count()])
            for high in range(1 << (n - 8)) if 0 <= k - high.bit_count() <= 8)

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


def _point_plan(matrix: SymMatrix) -> tuple:
    """The matrix's point plan (rows, size, steps, outputs), the same at
    every point, recorded on the first call and kept on the matrix.
    ``rows[i]`` lists the (slot, compiled evaluator) pairs of row i's
    nonzero entries, ``steps`` the plan of the family sums over ``size``
    slots, three ints a step, and ``outputs`` the (cover mask, slot) pairs
    of the nonempty cover masks in increasing order.

    Each nonzero entry gets a slot, and ``_family_sums`` records the plan
    once.  Each point evaluates the entries to unreduced (N, Q) pairs,
    scales each row by the lcm of its Q and replays the plan over the
    integers, as the symbolic paths replay it over polynomials.  The plan
    is plain data, so the matrix copies and pickles with it.  Threads that
    reach a fresh matrix at once may each store an equal plan.  A matrix
    past ``MAX_ENUM_DIM`` raises ValueError and stores nothing."""
    plan = matrix._point_plan
    if plan is None:
        row_entries, entries = _support(matrix.rows, (1 << matrix.n) - 1)
        size, steps, sums = _family_sums(row_entries)
        rows = [[(slot, entries[slot - 2]._evaluator()[1]) for _, slot in edges]
                for edges in row_entries]
        plan = matrix._point_plan = (
            rows, size, steps, [(mask, sums[mask]) for mask in sorted(sums) if mask])
    return plan


def minor_values_at(matrix: SymMatrix, point: RationalPoint) -> dict[int, Fraction]:
    """Exact values at a rational point of the principal minors on the
    matrix's cycle-cover masks, in increasing mask order; every other
    principal minor is 0 there.  A cover mask whose value is 0 is kept.
    The point must assign every variable of the matrix's table, in order
    (ValueError otherwise).

    Substitutes first, so no symbolic minor table is required, and sums in
    integers.  The point becomes integer numerator and denominator lists
    once, and the matrix's point plan (``_point_plan``, recorded at the
    first call) does the rest: its entries, compiled once by the
    polynomials' one evaluator, are evaluated on those lists, each to an
    unreduced N/Q, and row i is scaled by L_i, the lcm of its entries' Q:
    any common multiple clears the row exactly, so det A[S] = det((LA)[S])
    / prod of L_i over i in S.  The plan's steps then replay the family
    sums of the scaled entries, and a Fraction is built once per mask.  The
    support, and so the masks, come from the symbolic entries: one that
    evaluates to 0 at the point stays an edge.
    """
    n = matrix.n
    us, vs = _point_lists(point, matrix.table, len(matrix.table))
    rows, size, steps, outputs = _point_plan(matrix)
    slots = [0] * size
    slots[_ONE], slots[_MINUS_ONE] = 1, -1
    scales = []
    for row in rows:
        values = [(slot, value_of(us, vs)) for slot, value_of in row]
        scale = lcm(*(den for _, (_, den) in values))
        for slot, (num, den) in values:
            slots[slot] = num * (scale // den)
        scales.append(scale)
    steps = iter(steps)
    for target, a, b in zip(steps, steps, steps):
        slots[target] += slots[a] * slots[b]
    # products[m] multiplies the L_i of rows low..low+7 whose bit is set in
    # m, so a mask's denominator takes one lookup per byte of the mask
    chunks = []
    for low in range(0, n, 8):
        products = [1]
        for scale in scales[low:low + 8]:
            products += [product * scale for product in products]
        chunks.append((low, products))
    values = {}
    for mask, slot in outputs:
        scale = 1
        for low, products in chunks:
            scale *= products[mask >> low & 255]
        values[mask] = Fraction(slots[slot], scale)
    return values
