"""Sparse multivariate polynomial ring over arbitrary-precision integers.

Polynomials are immutable values over a shared, append-only variable table.
Coefficients are Python ints and evaluation is exact over
``fractions.Fraction``, so every sign decision made downstream is exact;
floating point never enters the picture.

The single term order used everywhere (canonical forms, leading terms,
division) is graded lexicographic: higher total degree wins, ties are broken
lexicographically with variable precedence equal to declaration order in the
``VariableTable``.  Each monomial computes its sort key ``Monomial.key`` once,
at construction; ascending keys are descending term order, so canonical
forms sort by it and ``reduce_by`` pops the greatest pending monomial off a
heap of keys instead of comparing monomials one pair at a time.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "VariableTable",
    "Monomial",
    "Polynomial",
    "RationalPoint",
    "CoeffSignSummary",
    "reduce_by",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# The only strings RationalPoint.from_mapping hands to Fraction.
_RATIONAL_RE = re.compile(r"\s*[+-]?[0-9]+(?:/[0-9]+)?\s*")


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
        """Register ``name`` and return its index (no-op if already known)."""
        existing = self._index.get(name)
        if existing is not None:
            return existing
        if not _IDENT_RE.match(name):
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


@dataclass(frozen=True)
class Monomial:
    """Product of variables raised to positive powers; stored sparsely.

    ``pairs`` is an index-sorted tuple of (variable index, exponent) with no
    zero exponents; the empty tuple is the constant monomial 1.

    ``key`` is ``(-degree, index_1, -exponent_1, index_2, -exponent_2, ...)``
    over ``pairs``.  Graded lex compares total degree first and, within a
    degree, the monomial whose earliest-differing variable has the larger
    exponent is the greater one, so an ascending key is exactly descending
    term order.  The key is flat rather than a tuple of pairs because every
    monomial holds one: nested pair tuples cost several times the memory.
    The hash is also computed once, since monomials are dict keys in every
    polynomial operation.
    """

    pairs: tuple[tuple[int, int], ...] = ()
    key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        degree = 0
        flat: list[int] = []
        for index, exp in self.pairs:
            degree += exp
            flat += (index, -exp)
        object.__setattr__(self, "key", (-degree, *flat))
        object.__setattr__(self, "_hash", hash((self.pairs,)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(exponents: Mapping[int, int]) -> "Monomial":
        items = []
        for index, exp in exponents.items():
            if exp < 0:
                raise ValueError("negative exponent")
            if exp > 0:
                items.append((index, exp))
        return Monomial(tuple(sorted(items)))

    @staticmethod
    def var(index: int, exp: int = 1) -> "Monomial":
        return Monomial.of({index: exp})

    @property
    def degree(self) -> int:
        return -self.key[0]

    def is_constant(self) -> bool:
        return not self.pairs

    def __mul__(self, other: "Monomial") -> "Monomial":
        exps = dict(self.pairs)
        for index, exp in other.pairs:
            exps[index] = exps.get(index, 0) + exp
        return Monomial.of(exps)

    def divides(self, other: "Monomial") -> bool:
        """True if every exponent of self is covered by ``other``."""
        exps = dict(other.pairs)
        return all(exps.get(i, 0) >= e for i, e in self.pairs)

    def __floordiv__(self, other: "Monomial") -> "Monomial":
        exps = dict(self.pairs)
        for index, exp in other.pairs:
            have = exps.get(index, 0)
            if have < exp:
                raise ValueError("monomial not divisible")
            exps[index] = have - exp
        return Monomial.of(exps)

    def gcd(self, other: "Monomial") -> "Monomial":
        exps = dict(other.pairs)
        return Monomial.of({i: min(e, exps[i]) for i, e in self.pairs if i in exps})

    def __lt__(self, other: "Monomial") -> bool:
        return self.key > other.key

    def render(self, table: VariableTable) -> str:
        if not self.pairs:
            return "1"
        factors = []
        for index, exp in self.pairs:
            name = table.name(index)
            factors.append(name if exp == 1 else f"{name}^{exp}")
        return "*".join(factors)

    def __repr__(self) -> str:
        return f"Monomial({self.pairs!r})"


# Monomials are immutable, so every constant polynomial shares this one.
_UNIT = Monomial()


class CoeffSignSummary(Enum):
    """Verdict on the multiset of coefficient signs of a polynomial."""

    ALL_ZERO = "all-zero"
    ALL_POSITIVE = "all-positive"
    ALL_NEGATIVE = "all-negative"
    MIXED_SIGNS = "mixed-signs"


@dataclass(frozen=True)
class RationalPoint:
    """Exact rational value for every variable of a table, in table order."""

    table: VariableTable
    values: tuple[Fraction, ...]

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
                if isinstance(value, str) and not _RATIONAL_RE.fullmatch(value):
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

    def value(self, index: int) -> Fraction:
        if index >= len(self.values):
            raise ValueError(f"variable {self.table.name(index)!r} unassigned")
        return self.values[index]

    def is_strictly_positive(self) -> bool:
        return all(v > 0 for v in self.values)

    def items(self) -> Iterator[tuple[str, Fraction]]:
        for index, value in enumerate(self.values):
            yield self.table.name(index), value

    def render(self) -> str:
        return " ".join(f"{name}={value}" for name, value in self.items())

    def __repr__(self) -> str:
        return f"RationalPoint({self.render()})"


class Polynomial:
    """Immutable sparse polynomial; terms are kept in descending term order."""

    __slots__ = ("table", "_terms")

    def __init__(self, table: VariableTable, terms: Mapping[Monomial, int] | None = None):
        cleaned = {}
        if terms:
            for mono, coeff in sorted(terms.items(), key=lambda kv: kv[0].key):
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
        return Polynomial(table, {_UNIT: value})

    @staticmethod
    def variable(table: VariableTable, name: str) -> "Polynomial":
        """Polynomial for a single variable, declared on first use."""
        return Polynomial(table, {Monomial.var(table.add(name)): 1})

    # -- structure ---------------------------------------------------------

    def terms(self) -> Iterator[tuple[Monomial, int]]:
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
        return self.leading_monomial().degree

    def leading_term(self) -> tuple[Monomial, int]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        return next(iter(self._terms.items()))

    def leading_monomial(self) -> Monomial:
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

    @staticmethod
    def sum_of(table: VariableTable, polys: Sequence["Polynomial"]) -> "Polynomial":
        """The sum of ``polys``, merged and sorted once rather than once per
        addition."""
        if len(polys) == 1:
            _check_tables(table, polys[0].table)
            return polys[0]
        merged: dict[Monomial, int] = {}
        for p in polys:
            _check_tables(table, p.table)
            for mono, coeff in p._terms.items():
                merged[mono] = merged.get(mono, 0) + coeff
        return Polynomial(table, merged)

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        return Polynomial.sum_of(self.table, (self, self._coerce(other)))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.table, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other: int) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        other = self._coerce(other)
        product: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = m1 * m2
                product[mono] = product.get(mono, 0) + c1 * c2
        return Polynomial(self.table, product)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = Polynomial.one(self.table)
        for _ in range(exponent):
            result = result * self
        return result

    # -- exact analysis ----------------------------------------------------

    def eval_at(self, point: RationalPoint) -> Fraction:
        """Exact rational value at ``point``; a ring homomorphism.

        With u_i/v_i the value of variable i and D_i its top exponent in this
        polynomial, every term is an integer multiple of 1/Q for
        Q = prod v_i^D_i, so the sum runs in integers and one Fraction is
        built at the end.
        """
        top: dict[int, int] = {}
        for mono in self._terms:
            for index, exp in mono.pairs:
                if exp > top.get(index, 0):
                    top[index] = exp
        num_pows: dict[int, list[int]] = {}
        den_pows: dict[int, list[int]] = {}
        common = 1
        for index, top_exp in top.items():
            value = point.value(index)
            num_pows[index] = [value.numerator ** e for e in range(top_exp + 1)]
            den_pows[index] = [value.denominator ** e for e in range(top_exp + 1)]
            common *= den_pows[index][-1]
        total = 0
        for mono, coeff in self._terms.items():
            num, den = coeff, 1
            for index, exp in mono.pairs:
                num *= num_pows[index][exp]
                den *= den_pows[index][exp]
            total += num * (common // den)
        return Fraction(total, common)

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

    def monomial_content(self) -> Monomial:
        """Exponent-wise gcd of all monomials; undefined for zero."""
        if not self._terms:
            raise ValueError("zero polynomial has no monomial content")
        monos = iter(self._terms)
        content = next(monos)
        for mono in monos:
            content = content.gcd(mono)
        return content

    def primitive_part(self) -> "Polynomial":
        """The polynomial divided by its monomial content, sign-normalized so
        the leading coefficient is positive.  Integer content is kept."""
        content = self.monomial_content()
        divided = Polynomial(self.table, {m // content: c for m, c in self._terms.items()})
        if divided.leading_coefficient() < 0:
            return -divided
        return divided

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for position, (mono, coeff) in enumerate(self._terms.items()):
            magnitude = abs(coeff)
            if mono.is_constant():
                core = str(magnitude)
            elif magnitude == 1:
                core = mono.render(self.table)
            else:
                core = f"{magnitude}*{mono.render(self.table)}"
            if position == 0:
                pieces.append(f"-{core}" if coeff < 0 else core)
            else:
                pieces.append(f" - {core}" if coeff < 0 else f" + {core}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def reduce_by(m: Polynomial, divisor: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Single-divisor multivariate division: return (q, r) with m = q*D + r.

    Repeatedly cancels the order-greatest pending monomial that is divisible
    by the leading monomial of ``divisor``.  Coefficients are integers, so a
    term is cancelled only when the leading coefficient also divides its
    coefficient; for divisors with leading coefficient +-1 (every pivot this
    package produces) this is the classic field algorithm and no remainder
    monomial is divisible by the leading monomial of the divisor.

    Pending terms live in a dict; a heap of ``(Monomial.key, monomial)``
    yields the greatest one in O(log T).  A monomial is pushed when it enters
    the dict, and an entry whose monomial has since cancelled away is skipped
    when popped.  Every new monomial is below the one just popped, so a
    monomial never returns to the dict once it has been taken from it.
    """
    _check_tables(m.table, divisor.table)
    if divisor.is_zero():
        raise ValueError("zero divisor")
    lead_mono, lead_coeff = divisor.leading_term()
    tail = list(divisor.terms())[1:]
    quotient: dict[Monomial, int] = {}
    remainder: dict[Monomial, int] = {}
    work = dict(m._terms)
    heap = [(mono.key, mono) for mono in work]
    heapq.heapify(heap)
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = work.pop(mono, 0)
        if not coeff:
            continue
        if lead_mono.divides(mono) and coeff % lead_coeff == 0:
            factor = coeff // lead_coeff
            shift = mono // lead_mono
            quotient[shift] = quotient.get(shift, 0) + factor
            for dm, dc in tail:
                target = dm * shift
                if target in work:
                    value = work[target] - factor * dc
                    if value:
                        work[target] = value
                    else:
                        del work[target]
                else:
                    work[target] = -factor * dc
                    heapq.heappush(heap, (target.key, target))
        else:
            remainder[mono] = coeff
    return Polynomial(m.table, quotient), Polynomial(m.table, remainder)
