"""Sign behavior of polynomials over the open positive orthant.

Classification is sound, never speculative: Zero/Pos/Neg verdicts come only
from the exact coefficient test, Mixed only from two exact rational witness
evaluations with strictly opposite signs, and everything else stays
Unresolved.  All sampling is driven by a fixed 64-bit linear congruential
generator so identical (polynomial, budget, seed) inputs reproduce identical
verdicts and witnesses.

Every classification with one seed starts the generator afresh, so sample j
is the same point for every polynomial over a table.  The samples are
therefore drawn once per (table, seed, table length) into a stream kept on
the table (``_stream_of``), the first time any polynomial reaches them, and
every polynomial of the table reads them from there.  A table keeps one
stream, that of the last seed and length it was sampled at, so calls that
alternate seeds over one table draw afresh each time.  A sample that becomes
a witness is one point, kept by the stream and rendered once, for every
verdict it witnesses.  The stream is plain data, ints and those points,
which hold names and Fractions but not the table, so copies and pickles of
the table carry it, those of a verdict carry only its points, and the
stream is freed with its table as soon as nothing holds the table.  It
stores at most ``_STORED_SAMPLES`` samples whatever the budget: a
polynomial that needs more continues the generator from the last stored
state without storing.  Threads may share a stream (``_SampleStream``).
Each polynomial keeps its own early-exit loop over the stream, so verdicts
and witnesses are exactly those of a fresh ``Lcg64(seed)`` per call.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from enum import Enum
from fractions import Fraction
from itertools import count
from math import comb
from operator import attrgetter

from .minors import minor_values_at
from .polyring import CoeffSignSummary, Polynomial, RationalPoint, VariableTable, _Record
from .symmatrix import SymMatrix

__all__ = [
    "Lcg64",
    "SignKind",
    "SignClass",
    "SeprSequence",
    "classify_polynomial",
    "sepr_at_point",
    "sign_of",
    "format_sign_set",
    "DEFAULT_BUDGET",
    "DEFAULT_SEED",
]

DEFAULT_BUDGET = 1000
DEFAULT_SEED = 0

# Fixed order in which sign-set elements are rendered.
_SIGN_ORDER = ("0", "+", "-")


class Lcg64(object):
    """64-bit linear congruential generator with fixed constants.

    state' = state * 6364136223846793005 + 1442695040888963407  (mod 2^64)

    Draws use the top 32 bits of the updated state.  Rational samples are
    u/v with u, v uniform in [1, 100], which keeps every evaluated sign an
    exact rational comparison.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def point(self, table: VariableTable) -> RationalPoint:
        """Strictly positive rational point, one u/v pair per variable in
        declaration order."""
        us, vs, self.state = _draw(self.state, len(table))
        return RationalPoint(table, tuple(map(Fraction, us, vs)))


def _draw(state: int, n: int) -> tuple[list[int], list[int], int]:
    """The next ``n`` sample values u/v of the generator at ``state``, u
    drawn before v, each 1 + (top 32 bits of the new state) % 100, as the
    lists us and vs, and the state after them.  The recurrence is inlined,
    as this is the sampler's inner loop."""
    multiplier, increment, mask = Lcg64.MULTIPLIER, Lcg64.INCREMENT, Lcg64._MASK
    us, vs = [], []
    for _ in range(n):
        state = (state * multiplier + increment) & mask
        us.append(1 + (state >> 32) % 100)
        state = (state * multiplier + increment) & mask
        vs.append(1 + (state >> 32) % 100)
    return us, vs, state


# Samples a stream stores, under 1 KB each at 36 variables; later samples
# are drawn as stored ones are but not kept, so a stream stays this small
# whatever the budget.
_STORED_SAMPLES = 256


class _SampleStream:
    """The samples ``Lcg64(seed)`` draws for a table of ``n`` variables,
    each drawn once and read by every polynomial classified over the table
    with that seed.  Nothing in it refers back to the table.

    Sample j is (us, vs, state): the u and v lists of the point
    ``Lcg64.point`` would draw j-th, and the generator state after it.
    Each reader draws a missing sample j by ``_draw`` from sample j - 1's
    state, an int, so threads share no generator: threads that reach
    sample j together draw equal values, and ``setdefault`` stores one.
    """

    __slots__ = ("key", "_samples", "_points")

    def __init__(self, key: tuple[int, int]) -> None:
        self.key = key  # (seed masked to 64 bits, n)
        self._samples: dict[int, tuple[list[int], list[int], int]] = {}
        # j -> sample j's witness point, once some verdict has taken it
        self._points: dict[int, RationalPoint] = {}

    def samples(self) -> Iterator[tuple[list[int], list[int], int]]:
        """Samples 0, 1, 2, ... without end, drawn as they are reached."""
        state, n = self.key
        samples = self._samples
        for j in count():
            sample = samples.get(j)
            if sample is None:
                sample = _draw(state, n)
                if j < _STORED_SAMPLES:
                    sample = samples.setdefault(j, sample)
            yield sample
            state = sample[2]

    def point(self, table: VariableTable, j: int, us: list[int],
              vs: list[int]) -> RationalPoint:
        """Sample j, read off ``samples()`` as us, vs, as a point of
        ``table``: one point, rendered at most once, for every witness that
        is sample j, kept for j below ``_STORED_SAMPLES``.  Threads that
        build it together keep the one ``setdefault`` stores."""
        point = self._points.get(j)
        if point is None:
            point = RationalPoint(table, tuple(map(Fraction, us, vs)))
            if j < _STORED_SAMPLES:
                point = self._points.setdefault(j, point)
        return point


def _stream_of(table: VariableTable, seed: int) -> _SampleStream:
    """The table's stream for ``seed``.  A table keeps the stream of the
    last seed and length it was sampled at: seeds equal mod 2^64 draw
    alike, and a table that has since grown draws longer points."""
    key = (seed & Lcg64._MASK, len(table))
    stream = table._sample_stream
    if stream is None or stream.key != key:
        stream = table._sample_stream = _SampleStream(key)
    return stream


def sign_of(value: Fraction) -> str:
    # A Fraction's denominator is positive, so its numerator carries the
    # sign; reading it skips Fraction's rich comparison.  Ints work as well.
    numerator = value.numerator
    if numerator > 0:
        return "+"
    if numerator < 0:
        return "-"
    return "0"


def format_sign_set(signs: frozenset) -> str:
    """Render a subset of {0,+,-} with elements in the fixed order 0,+,-."""
    return "{" + ",".join(s for s in _SIGN_ORDER if s in signs) + "}"


class SignKind(Enum):
    """A verdict's kind.  ``value`` and ``name`` are C-level getters, as a
    sparse report reads them once a mask and ``Enum``'s run in Python."""

    value = property(attrgetter("_value_"))
    name = property(attrgetter("_name_"))

    ZERO = "zero"
    POS = "pos"
    NEG = "neg"
    MIXED = "mixed"
    UNRESOLVED = "unresolved"


class SignClass(_Record):
    """Verdict for one polynomial over the open positive orthant.

    Mixed carries two strictly positive witnesses with exactly opposite
    evaluated signs.  Unresolved keeps whichever single-sign witness the
    search found, if any; it is never silently upgraded to Pos or Neg.
    Its fields are slots, not tuple fields, as they read faster and are
    read for every mask of a sparse analysis.
    """

    __slots__ = _fields = ("kind", "pos_witness", "neg_witness")

    def __init__(self, kind: SignKind, pos_witness: RationalPoint | None = None,
                 neg_witness: RationalPoint | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "pos_witness", pos_witness)
        object.__setattr__(self, "neg_witness", neg_witness)

    def label(self) -> str:
        return self.kind.name.capitalize()


# A SignClass is read-only, so the witness-free verdicts can be shared.
_ZERO = SignClass(SignKind.ZERO)
_POS = SignClass(SignKind.POS)
_NEG = SignClass(SignKind.NEG)


def classify_polynomial(p: Polynomial, budget: int = DEFAULT_BUDGET,
                        seed: int = DEFAULT_SEED) -> SignClass:
    """Classify p over the positive orthant.

    Zero/Pos/Neg are decided exactly by the coefficient test.  Otherwise the
    seeded sample stream is scanned for the first positive-value and first
    negative-value points; finding both within ``budget`` samples yields
    Mixed, anything less stays Unresolved.  Zero evaluations consume budget
    but witness nothing.

    Sample j is the (u, v) pairs the j-th ``Lcg64(seed).point`` call would
    draw, read from the table's shared stream (see the module docstring):
    drawn once per (table, seed), at most ``_STORED_SAMPLES`` of them stored.
    p is compiled once by ``Polynomial._evaluator``, the evaluator behind
    ``eval_at``, and each sample's sign is read off N alone, the integer
    numerator of p's value N/Q with Q > 0, so the loop builds no Fraction.
    Only the two witnesses become points, equal to the ones ``Lcg64.point``
    would have drawn, one object per stored sample (``_SampleStream.point``).
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if p.is_zero():
        return _ZERO
    summary = p.coeff_sign_summary()
    if summary is CoeffSignSummary.ALL_POSITIVE:
        return _POS
    if summary is CoeffSignSummary.ALL_NEGATIVE:
        return _NEG
    table = p.table
    stream = _stream_of(table, seed)
    _, value_of = p._evaluator()
    pos = neg = None
    for j, (us, vs, _) in zip(range(budget), stream.samples()):
        numerator = value_of(us, vs)[0]
        if numerator > 0:
            if pos is None:
                pos = stream.point(table, j, us, vs)
        elif numerator < 0:
            if neg is None:
                neg = stream.point(table, j, us, vs)
        if pos is not None and neg is not None:
            return SignClass(SignKind.MIXED, pos_witness=pos, neg_witness=neg)
    return SignClass(SignKind.UNRESOLVED, pos_witness=pos, neg_witness=neg)


class SeprSequence:
    """Per-order sign sets (s_1, ..., s_n) of a matrix at one point."""

    def __init__(self, sets: Sequence[frozenset]):
        self.sets = tuple(frozenset(s) for s in sets)

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self.sets)

    def __getitem__(self, k: int) -> frozenset:
        """1-based: sequence[k] is the sign set of the k x k minors."""
        if not 1 <= k <= len(self.sets):
            raise IndexError(k)
        return self.sets[k - 1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SeprSequence):
            return self.sets == other.sets
        if isinstance(other, (tuple, list)):
            return self.sets == tuple(frozenset(s) for s in other)
        return NotImplemented

    def __str__(self) -> str:
        return " ".join(format_sign_set(s) for s in self.sets)

    def __repr__(self) -> str:
        return f"SeprSequence({self})"


def sepr_at_point(matrix: SymMatrix, point: RationalPoint) -> SeprSequence:
    """Exact sepr-sequence of ``matrix`` at a strictly positive point:
    s_k collects the signs of all C(n,k) principal k x k minors.  Only the
    cycle-cover masks are evaluated; when they are fewer than C(n,k), some
    k-minor is identically zero and s_k holds 0.  ``minor_values_at``
    raises ValueError unless the point assigns every matrix variable."""
    if not point.is_strictly_positive():
        raise ValueError("point must be strictly positive")
    n = matrix.n
    signs: list[set] = [set() for _ in range(n)]
    covers = [0] * n
    for mask, value in minor_values_at(matrix, point).items():
        order = mask.bit_count() - 1
        signs[order].add(sign_of(value))
        covers[order] += 1
    for order, count in enumerate(covers):
        if count < comb(n, order + 1):
            signs[order].add("0")
    return SeprSequence([frozenset(s) for s in signs])
