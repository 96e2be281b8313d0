"""Sparse multivariate polynomial ring over arbitrary-precision integers.

Polynomials are immutable values over a shared, append-only variable table.
Coefficients are Python ints and evaluation at a rational point sums in
integers over a common denominator (``Polynomial._evaluator``), so every
sign decision made downstream is exact; floating point never enters the
picture.

The single term order used everywhere (canonical forms, leading terms,
division) is graded lexicographic: higher total degree wins, ties are broken
lexicographically with variable precedence equal to declaration order in the
``VariableTable``.  A monomial is the plain tuple ``(-degree, i1, ..., id)``
of its variable indices, non-decreasing, each repeated as often as its
exponent; ``(0,)`` is 1.  The tuple is its own sort key: of two monomials
of one degree, the one with the smaller index at the first position where
they differ has more copies of that variable and as many of every earlier
one, so ascending tuple order is descending term order.  Canonical forms
sort the tuples as they are and ``reduce_by`` pops the greatest pending
monomial off a heap of them.  A monomial product is one sort of both
tuples' fields; divisibility, quotient and gcd are one merge walk each
(sub-multiset, multiset difference, multiset intersection), and a power
renders from a run of one index: these are the private ``_mono_*``
functions below.  The compiled evaluator ``Polynomial._evaluator``, the one
code that evaluates a polynomial at a point, picks each term's factors by
the indices as they stand.  Apart from them only ``_accumulate`` (the one
product and sum kernel), ``Polynomial.variable``, ``constant``, ``degree``
and ``_has_cancellable_term`` read the layout, and a few methods compare a
monomial with 1, ``(0,)``.

Two shortcuts skip work whose result is known beforehand, and each gives
the same result as the general code:

* a polynomial whose monomial content is 1 is its own primitive part up to
  sign, and the gcd scan stops once the content reaches 1;
* the pivot search asks ``_has_cancellable_term`` before it divides a
  minor m: when lead(D) cancels no term of m, ``reduce_by`` would return
  (0, m), which concludes nothing, so the trial leaves m out, and a
  candidate that cancels a term of no minor but those it is the primitive
  part of is not tried at all.

Every product is sorted once, in ``Polynomial.__init__``, and ``reduce_by``
has one path, its loop.
"""

from __future__ import annotations

import heapq
import re
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import groupby
from math import prod
from operator import itemgetter

__all__ = [
    "VariableTable",
    "Polynomial",
    "RationalPoint",
    "CoeffSignSummary",
    "reduce_by",
]

# The only strings RationalPoint.from_mapping hands to Fraction.  ``re``
# compiles the pattern on first use, so a run that reads no point from text
# never compiles it.
_RATIONAL_PATTERN = r"\s*[+-]?[0-9]+(?:/[0-9]+)?\s*"


class VariableTable:
    """Ordered registry of distinct variable names.

    The index-to-name mapping is a bijection and the table is append-only,
    so indices held by existing monomials stay valid when later parses
    declare additional variables.
    """

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        for name in names:
            self.add(name)

    def add(self, name: str) -> int:
        """Register ``name``, an ASCII identifier, and return its index
        (no-op if already known)."""
        existing = self._index.get(name)
        if existing is not None:
            return existing
        if not (isinstance(name, str) and name.isascii() and name.isidentifier()):
            raise ValueError(f"invalid variable name {name!r}")
        index = len(self._names)
        self._names.append(name)
        self._index[name] = index
        return index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def name(self, index: int) -> str:
        return self._names[index]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __repr__(self) -> str:
        return f"VariableTable({list(self._names)!r})"


def _same_table(a: VariableTable, b: VariableTable) -> bool:
    return a is b or a.names == b.names


def _check_tables(a: VariableTable, b: VariableTable) -> None:
    if not _same_table(a, b):
        raise ValueError("variable table mismatch")


# -- monomials: the tuple layout and its order are in the module docstring ---


def _mono_mul(a: tuple, b: tuple) -> tuple:
    """The product a*b.  Every degree field is at most 0 and every index at
    least 0, so the two degree fields sort first; their sum leads the
    merged indices."""
    fields = sorted(a + b)
    fields[1] += fields[0]
    del fields[0]
    return tuple(fields)


def _accumulate(merged: dict, pairs: Iterable[tuple[dict, dict]]) -> dict:
    """``merged`` plus a*b for each (a, b) pair of term dicts, added into it
    unsorted, zeros kept: the one product and sum kernel.  Each term of the
    factor with fewer terms multiplies every term of the other."""
    get = merged.get
    for a, b in pairs:
        if len(a) < len(b):
            a, b = b, a
        for mono, coeff in b.items():
            if mono != (0,):
                for m, c in a.items():
                    m = _mono_mul(m, mono)
                    merged[m] = get(m, 0) + c * coeff
            else:
                for m, c in a.items():
                    merged[m] = get(m, 0) + c * coeff
    return merged


def _mono_divides(a: tuple, b: tuple) -> bool:
    """True if a divides b: a's indices are a sub-multiset of b's, which for
    two sorted lists means a subsequence."""
    j, len_b = 1, len(b)
    for k in range(1, len(a)):
        index = a[k]
        while j < len_b and b[j] < index:
            j += 1
        if j == len_b or b[j] != index:
            return False
        j += 1
    return True


def _mono_quotient(a: tuple, b: tuple) -> tuple:
    """The quotient a/b of a by a divisor b: a's indices less b's."""
    out = [a[0] - b[0]]
    j, len_b = 1, len(b)
    for k in range(1, len(a)):
        if j < len_b and b[j] == a[k]:
            j += 1
        else:
            out.append(a[k])
    return tuple(out)


def _mono_gcd(a: tuple, b: tuple) -> tuple:
    """The exponent-wise minimum of a and b: the indices they share."""
    shared = []
    i = j = 1
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        if a[i] < b[j]:
            i += 1
        elif a[i] > b[j]:
            j += 1
        else:
            shared.append(a[i])
            i += 1
            j += 1
    return (-len(shared), *shared)


def _index_getter(indices: Sequence[int]) -> Callable[[Sequence[int]], Sequence[int]]:
    """A function picking ``indices`` out of a sequence, always as a
    sequence: ``itemgetter`` of one index returns the item itself, so fewer
    than two indices are picked by a slice."""
    if len(indices) >= 2:
        return itemgetter(*indices)
    if indices:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(slice(0, 0))


def _value_of(terms: Sequence[tuple[int, Callable]], common_of: Callable,
              us: Sequence[int], vs: Sequence[int]) -> tuple[int, int]:
    common = prod(common_of(vs))
    total = 0
    for coeff, of in terms:
        total += coeff * prod(of(us)) * (common // prod(of(vs)))
    return total, common


def _mono_render(mono: tuple, names: Sequence[str]) -> str:
    """The monomial as ``x*y^3``, ``names`` being the table's name list: each
    run of one index is a power."""
    factors = []
    for index, run in groupby(mono[1:]):
        exp = sum(1 for _ in run)
        factors.append(names[index] if exp == 1 else f"{names[index]}^{exp}")
    return "*".join(factors)


class CoeffSignSummary(Enum):
    """Verdict on the multiset of coefficient signs of a polynomial."""

    ALL_ZERO = "all-zero"
    ALL_POSITIVE = "all-positive"
    ALL_NEGATIVE = "all-negative"
    MIXED_SIGNS = "mixed-signs"


class _Record:
    """Base of a small read-only class with ``__slots__``.  Its ``__init__``
    sets the fields named in ``_fields`` once, with ``object.__setattr__``;
    any later assignment raises AttributeError, so one instance can be
    shared.  ``==`` and ``hash()`` are those of the tuple of the fields in
    order, between instances of one class, ``repr()`` shows
    ``Class(field=value, ...)``, and copy and pickle rebuild an instance
    through ``__init__``."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class RationalPoint(_Record):
    """Exact rational value for every variable of a table, in table order:
    ``names`` holds the table's names as they were when the point was built.

    A point is a plain value, holding names and Fractions but no table, so
    points compare as polynomials compare their tables, by names.
    ``render()`` keeps its text after the first call."""

    _fields = ("names", "values")
    __slots__ = (*_fields, "_text")

    def __init__(self, names: Iterable[str], values: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_text", None)

    @staticmethod
    def all_ones(table: VariableTable) -> "RationalPoint":
        return RationalPoint(table, (Fraction(1),) * len(table))

    @staticmethod
    def from_mapping(table: VariableTable, mapping: Mapping[str, object]) -> "RationalPoint":
        """Build a point from name -> value; every table variable required.

        Values may be ints, Fractions, or strings of an optional sign, digits
        and an optional ``/digits`` such as ``"3/4"``; a float or a bool
        raises ValueError naming the variable, as does any other string:
        ``Fraction`` alone would also take ``"1e3000000"`` and build a
        10-million-bit numerator.
        """
        exact = {}
        for name, value in mapping.items():
            if isinstance(value, bool) or not isinstance(value, (int, Fraction, str)):
                raise ValueError(
                    f"assignment for {name!r} must be an integer or a 'p/q' string")
            try:
                if isinstance(value, str) and not re.fullmatch(_RATIONAL_PATTERN, value):
                    raise ValueError(value)
                exact[name] = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"assignment for {name!r} is not a valid rational:"
                                 f" {value!r}") from None
        unknown = set(exact) - set(table.names)
        if unknown:
            raise ValueError(f"unknown variable {sorted(unknown)[0]!r}")
        for name in table:
            if name not in exact:
                raise ValueError(f"variable {name!r} unassigned")
        return RationalPoint(table, tuple(exact[name] for name in table))

    def is_strictly_positive(self) -> bool:
        return all(v > 0 for v in self.values)

    def items(self) -> Iterator[tuple[str, Fraction]]:
        return zip(self.names, self.values)

    def render(self) -> str:
        # kept after the first call: the values and their names never change
        text = self._text
        if text is None:
            text = " ".join(f"{name}={value}" for name, value in self.items())
            object.__setattr__(self, "_text", text)
        return text

    def __repr__(self) -> str:
        return f"RationalPoint({self.render()})"


def _point_lists(point: RationalPoint, table: VariableTable,
                 length: int) -> tuple[list[int], list[int]]:
    """The numerators and the positive denominators of the point's values of
    variables 0..length-1 of ``table``, the lists the compiled evaluator
    reads.  The point must name those variables at the same indices and give
    each a value; else ValueError names the variable, for a missing value
    the last one, which the caller reads."""
    if length:
        names, given = tuple(table._names[:length]), point.names[:length]
        if given != names:
            for name, other in zip(names, given):
                if name != other:
                    raise ValueError(f"the point has {other!r} where the table has {name!r}")
        if min(len(given), len(point.values)) < length:
            raise ValueError(f"variable {names[-1]!r} unassigned")
    values = point.values[:length]
    return [value.numerator for value in values], [value.denominator for value in values]


class Polynomial:
    """Immutable sparse polynomial; terms are kept in descending term order."""

    __slots__ = ("table", "_terms")

    def __init__(self, table: VariableTable, terms: Mapping[tuple, int] | None = None):
        cleaned = {}
        if terms:
            for mono in sorted(terms):
                coeff = terms[mono]
                if coeff:
                    cleaned[mono] = coeff
        self.table = table
        self._terms = cleaned

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: VariableTable) -> "Polynomial":
        return Polynomial(table)

    @staticmethod
    def one(table: VariableTable) -> "Polynomial":
        return Polynomial.constant(table, 1)

    @staticmethod
    def constant(table: VariableTable, value: int) -> "Polynomial":
        return Polynomial(table, {(0,): value})

    @staticmethod
    def variable(table: VariableTable, name: str) -> "Polynomial":
        """Polynomial for a single variable, declared on first use."""
        return Polynomial(table, {(-1, table.add(name)): 1})

    # -- structure ---------------------------------------------------------

    def terms(self) -> Iterator[tuple[tuple, int]]:
        """Iterate (monomial, coefficient) in descending term order."""
        return iter(self._terms.items())

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return -self.leading_monomial()[0]

    def leading_term(self) -> tuple[tuple, int]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        return next(iter(self._terms.items()))

    def leading_monomial(self) -> tuple:
        return self.leading_term()[0]

    def leading_coefficient(self) -> int:
        return self.leading_term()[1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Polynomial.constant(self.table, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _same_table(self.table, other.table) and self._terms == other._terms

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            return Polynomial.constant(self.table, other)
        _check_tables(self.table, other.table)
        return other

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        terms = _accumulate(dict(self._terms), ((self._coerce(other)._terms, {(0,): 1}),))
        return Polynomial(self.table, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.table, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other: int) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        a, b = self._terms, self._coerce(other)._terms
        return Polynomial(self.table, _accumulate({}, ((a, b),)))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative exponent")
        terms = {(0,): 1}
        for _ in range(exponent):
            terms = _accumulate({}, ((terms, self._terms),))
        return Polynomial(self.table, terms)

    # -- exact analysis ----------------------------------------------------

    def eval_at(self, point: RationalPoint) -> Fraction:
        """Exact rational value at ``point``; a ring homomorphism.  The
        compiled evaluator sums in integers over the variables up to the
        highest one that occurs, read off the point by ``_point_lists``
        (which raises ValueError unless the point's names agree with this
        polynomial's table that far), and one Fraction is built at the end."""
        length, value_of = self._evaluator()
        return Fraction(*value_of(*_point_lists(point, self.table, length)))

    def _evaluator(self) -> tuple[int, Callable[[Sequence[int], Sequence[int]], tuple[int, int]]]:
        """(length, value_of): ``value_of(us, vs)`` is the value as an
        unreduced (N, Q) with Q > 0, where variable i takes us[i]/vs[i] with
        vs[i] > 0, and reads only the variables below ``length``, one past
        the highest that occurs.

        With D_i the top exponent of variable i, every term is an integer
        multiple of 1/Q for Q = prod vs[i]^D_i, so N is a sum of integers
        and carries the sign of the value.  The terms are compiled once into
        (coefficient, getter) pairs, the getter picking the monomial's
        indices as they stand, each as often as its exponent, so a call
        reads every term as ``c * prod(g(us)) * (Q // prod(g(vs)))``
        without walking the monomial tuple; Q is picked the same way, and
        each D_i is the longest run of index i, read in the same walk over
        the terms that builds their getters.  This is the one evaluator:
        ``eval_at`` calls it once; ``minor_values_at`` compiles each matrix
        entry once, into the matrix's point plan, calls it at every point on
        lists built once per point and scales each row by the lcm of the Q
        its entries return; and the orthant sampler compiles once per
        polynomial and reads N's sign at every sample.
        ``value_of`` is a ``partial`` of ``_value_of``, not a closure, so it pickles.
        """
        terms, top = [], {}
        for mono, coeff in self._terms.items():
            indices = mono[1:]
            terms.append((coeff, _index_getter(indices)))
            # a run of one index is its exponent
            previous = run = None
            for index in indices:
                run = run + 1 if index == previous else 1
                previous = index
                if run > top.get(index, 0):
                    top[index] = run
        common_of = _index_getter([index for index, exp in top.items() for _ in range(exp)])
        return max(top, default=-1) + 1, partial(_value_of, terms, common_of)

    def coeff_sign_summary(self) -> CoeffSignSummary:
        """Sound constant-sign certificate: all-positive coefficients force a
        strictly positive value at every strictly positive point (and
        symmetrically for all-negative)."""
        if not self._terms:
            return CoeffSignSummary.ALL_ZERO
        has_pos = any(c > 0 for c in self._terms.values())
        has_neg = any(c < 0 for c in self._terms.values())
        if has_pos and has_neg:
            return CoeffSignSummary.MIXED_SIGNS
        return CoeffSignSummary.ALL_POSITIVE if has_pos else CoeffSignSummary.ALL_NEGATIVE

    def monomial_content(self) -> tuple:
        """Exponent-wise gcd of all monomials; undefined for zero."""
        if not self._terms:
            raise ValueError("zero polynomial has no monomial content")
        monos = iter(self._terms)
        content = next(monos)
        for mono in monos:
            if content == (0,):
                break
            content = _mono_gcd(content, mono)
        return content

    def primitive_part(self) -> "Polynomial":
        """The polynomial divided by its monomial content, sign-normalized so
        the leading coefficient is positive.  Integer content is kept."""
        content = self.monomial_content()
        if content == (0,):
            return self if self.leading_coefficient() > 0 else -self
        divided = Polynomial(self.table, {_mono_quotient(m, content): c for m, c in self._terms.items()})
        if divided.leading_coefficient() < 0:
            return -divided
        return divided

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces, names = [], self.table._names
        for position, (mono, coeff) in enumerate(self._terms.items()):
            magnitude = abs(coeff)
            if mono == (0,):
                core = str(magnitude)
            elif magnitude == 1:
                core = _mono_render(mono, names)
            else:
                core = f"{magnitude}*{_mono_render(mono, names)}"
            if position == 0:
                pieces.append(f"-{core}" if coeff < 0 else core)
            else:
                pieces.append(f" - {core}" if coeff < 0 else f" + {core}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _has_cancellable_term(m: Polynomial, lead_mono: tuple, lead_coeff: int) -> bool:
    """True if lead_coeff*lead_mono divides a term of m in the integers.
    Only the terms above lead_mono's degree are scanned: of its own degree
    it divides only itself, which one lookup finds, and none below it."""
    degree = lead_mono[0]  # negated, as in every monomial
    for mono, coeff in m._terms.items():
        if mono[0] >= degree:
            break
        if _mono_divides(lead_mono, mono) and coeff % lead_coeff == 0:
            return True
    coeff = m._terms.get(lead_mono)
    return coeff is not None and coeff % lead_coeff == 0


def reduce_by(m: Polynomial, divisor: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Single-divisor multivariate division: return (q, r) with m = q*D + r.

    Repeatedly cancels the order-greatest pending monomial that is divisible
    by the leading monomial of ``divisor``.  Coefficients are integers, so a
    term is cancelled only when the leading coefficient also divides its
    coefficient; for divisors with leading coefficient +-1 (every pivot this
    package produces) this is the classic field algorithm and no remainder
    monomial is divisible by the leading monomial of the divisor.

    Pending terms live in a dict; a heap of their monomials yields the
    greatest one in O(log T), since the least tuple is the greatest
    monomial.  A monomial is pushed when it enters the dict, and an entry
    whose monomial has since cancelled away is skipped when popped.  Every
    new monomial is below the one just popped, so a monomial never returns
    to the dict once it has been taken from it.  When no term of m is
    cancellable, nothing enters the dict and the loop moves every term of m
    to the remainder: the result is (0, m).
    """
    _check_tables(m.table, divisor.table)
    if divisor.is_zero():
        raise ValueError("zero divisor")
    lead_mono, lead_coeff = divisor.leading_term()
    tail = list(divisor.terms())[1:]
    quotient: dict[tuple, int] = {}
    remainder: dict[tuple, int] = {}
    work = dict(m._terms)
    heap = list(work)
    heapq.heapify(heap)
    while heap:
        mono = heapq.heappop(heap)
        coeff = work.pop(mono, 0)
        if not coeff:
            continue
        if _mono_divides(lead_mono, mono) and coeff % lead_coeff == 0:
            factor = coeff // lead_coeff
            shift = _mono_quotient(mono, lead_mono)
            quotient[shift] = quotient.get(shift, 0) + factor
            for dm, dc in tail:
                target = _mono_mul(dm, shift)
                if target in work:
                    value = work[target] - factor * dc
                    if value:
                        work[target] = value
                    else:
                        del work[target]
                else:
                    work[target] = -factor * dc
                    heapq.heappush(heap, target)
        else:
            remainder[mono] = coeff
    return Polynomial(m.table, quotient), Polynomial(m.table, remainder)
