"""Exact symbolic determinants and enumeration of the principal minors.

det A[S] is a signed sum over the families of pairwise disjoint cycles of
the support digraph (an edge i -> j for each nonzero entry; a nonzero
diagonal entry is a cycle of length 1) whose vertices are exactly S.  Each
family contributes the product of its cycles' weights, and a cycle's weight
is the sign (-1)^(length-1) times the sum of its edge products over the
ways round it.  A minor whose S no family covers is identically zero.
``_family_sums`` evaluates these sums for every cover mask at once and is
the one determinant engine: it runs over polynomial entries for the minor
table and ``principal_minor``.  For the point-evaluation path it runs once
per matrix over a recording ring, whose values are slots of a straight-line
program: the support, and so every state, cycle and union of the sums, is
the same at every point, so the sums are written down once as steps
slots[t] += slots[a] * slots[b] (``_point_plan``).  Each point then fills
the entry slots with integers, its rows scaled to clear the point's
denominators, and replays the steps.  No function here reads the monomial
layout of ``polyring``; point values come from its one evaluator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import Iterator, Sequence

from .polyring import Polynomial, RationalPoint, _point_lists
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
        self._limit = 1 << n
        self.entries = entries
        self.zero = zero
        self._by_order: list[list[tuple[int, Polynomial]]] = [[] for _ in range(n + 1)]
        for mask, m in entries.items():
            self._by_order[mask.bit_count()].append((mask, m))

    def minor(self, mask: int) -> Polynomial:
        if not 0 < mask < self._limit:
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


# Slots 0 and 1 of every point plan hold the constants 1 and -1.
_ONE, _MINUS_ONE = 0, 1


class _Slot:
    """A value of the recording ring: the slot ``index`` of a point plan.
    A product is the pair of its factors' slots; a negation, like a sum,
    is written down by ``recorder`` into a new slot."""

    __slots__ = ("index", "recorder")

    def __init__(self, index: int, recorder: "_Recorder"):
        self.index = index
        self.recorder = recorder

    def __mul__(self, other: "_Slot") -> tuple[int, int]:
        return self.index, other.index

    def __neg__(self) -> "_Slot":
        return self.recorder.total([(self.index, _MINUS_ONE)])

    def __iter__(self) -> Iterator[int]:
        # a slot that is a term of a sum on its own is the product slot * 1
        return iter((self.index, _ONE))


class _Recorder:
    """Writes down the sums of one run of ``_family_sums`` as steps
    (target, a, b), each meaning slots[target] += slots[a] * slots[b], laid
    end to end in one flat list of ints.  A sum gets a new slot, written
    only by its own steps, so a slot is final once its sum is recorded and
    may stand for any later sum equal to it: a sum of the one term 1 * x,
    or of x alone, is the slot of x itself."""

    def __init__(self):
        self.size = 2
        self.steps: list[int] = []

    def slot(self) -> _Slot:
        self.size += 1
        return _Slot(self.size - 1, self)

    def total(self, terms: list) -> _Slot:
        target, steps = self.size, self.steps
        if len(terms) == 1:
            a, b = terms[0]
            if a == _ONE or b == _ONE:
                return _Slot(b if a == _ONE else a, self)
            steps += target, a, b
        else:
            for a, b in terms:
                steps += target, a, b
        self.size = target + 1
        return _Slot(target, self)


def _point_plan(matrix: SymMatrix) -> tuple:
    """The matrix's point plan (rows, size, steps, outputs), the same at
    every point, recorded on the first call and kept on the matrix.
    ``rows[i]`` lists the (slot, compiled evaluator) pairs of row i's
    nonzero entries, ``steps`` the recorded family sums over ``size``
    slots, three ints a step, and ``outputs`` the (cover mask, slot) pairs
    of the nonempty cover masks in increasing order.

    Each nonzero entry gets a slot, and ``_family_sums`` runs once over the
    recording ring, so every sum and negation it makes becomes steps.
    Threads that reach a fresh matrix at once may each record a plan; the
    plans are equal and the last one stored stays, so the race is benign.
    A matrix past ``MAX_ENUM_DIM`` raises ValueError and stores nothing."""
    plan = matrix._point_plan
    if plan is None:
        recorder = _Recorder()
        rows, row_entries = [], []
        for row in matrix.rows:
            edges = [(j, recorder.slot()) for j, entry in enumerate(row) if entry]
            rows.append([(slot.index, row[j]._evaluator()[1]) for j, slot in edges])
            row_entries.append(edges)
        sums = _family_sums(row_entries, _Slot(_ONE, recorder), recorder.total)
        plan = matrix._point_plan = (
            rows, recorder.size, recorder.steps,
            [(mask, sums[mask].index) for mask in sorted(sums) if mask])
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
    polynomials' one evaluator, are evaluated on those lists, and row i is
    scaled by L_i, the lcm of its entries' reduced denominators, so
    det A[S] = det((LA)[S]) / prod of L_i over i in S.  The plan's steps
    then replay the family sums of the scaled entries, and a Fraction is
    built once per mask.  The support, and so the masks, come from the
    symbolic entries: one that evaluates to 0 at the point stays an edge.
    """
    n = matrix.n
    us, vs = _point_lists(point, matrix.table, len(matrix.table))
    rows, size, steps, outputs = _point_plan(matrix)
    slots = [0] * size
    slots[_ONE], slots[_MINUS_ONE] = 1, -1
    scales = []
    for row in rows:
        values = []
        for slot, value_of in row:
            num, den = value_of(us, vs)
            common = gcd(num, den)
            values.append((slot, num // common, den // common))
        scale = lcm(*(den for _, _, den in values))
        for slot, num, den in values:
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
