"""Recursive-descent parser for matrix-entry expressions.

Grammar (whitespace insignificant)::

    expr   := ['-'] term { ('+'|'-') term }
    term   := factor { '*' factor }
    factor := base ['^' INT]
    base   := INT | IDENT | '(' expr ')'

``INT`` is a nonnegative literal of ASCII digits and ``IDENT`` follows the
variable grammar of :class:`~seprkit.polyring.VariableTable`.  Identifiers
are declared on first use by appending them to the caller's table.
Implicit multiplication ("2a1") is rejected; ``^`` takes only a nonnegative
integer literal, with ``^0`` yielding 1.

Limits: an exponent is at most ``MAX_DEGREE``, and before a ``+``, ``-``,
``*`` or ``^`` is applied, bounds on its result (degree, term count, bits of
the sum of the absolute coefficients) are checked against ``MAX_DEGREE``,
``MAX_TERMS`` and ``MAX_COEFF_BITS``.  A bound over its limit raises
:class:`ParseError` at the operator, so hostile input fails at once.  An
integer literal is at most ``MAX_COEFF_BITS`` bits; one with more digits
than ``2**MAX_COEFF_BITS`` has is refused at the literal before it is
converted, whether it is a base or an exponent.  Parentheses nest at most
``MAX_NESTING`` deep, far from Python's recursion limit; a deeper ``(``
raises :class:`ParseError` there.  A sum is built once from one dict, so it
parses in linear time, with each ``+`` or ``-`` checked on the running sum.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

from .polyring import Polynomial, VariableTable

__all__ = ["ParseError", "parse_entry"]

MAX_DEGREE = 32
MAX_TERMS = 4096
MAX_COEFF_BITS = 4096
MAX_NESTING = 100
_MAX_LITERAL_DIGITS = len(str(1 << MAX_COEFF_BITS))


class ParseError(ValueError):
    """Syntax error with the character offset of the offending input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# kind is "int", "ident", one of + - * ^ ( ), or "end".
_Token = namedtuple("_Token", "kind text offset")


_TOKEN_RE = re.compile(r"([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()])")


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    length = len(src)
    while pos < length:
        if src[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(src, pos)
        if match is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if match.group(1) is not None:
            tokens.append(_Token("int", match.group(1), pos))
        elif match.group(2) is not None:
            tokens.append(_Token("ident", match.group(2), pos))
        else:
            tokens.append(_Token(match.group(3), match.group(3), pos))
        pos = match.end()
    tokens.append(_Token("end", "", length))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], table: VariableTable):
        self.tokens = tokens
        self.pos = 0
        self.table = table
        self.depth = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.current
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        if self.current.kind != kind:
            raise ParseError(f"expected {kind!r}, found {self.current.text or 'end of input'!r}",
                             self.current.offset)
        return self.advance()

    def parse_expr(self) -> Polynomial:
        sign = 1
        if self.current.kind == "-":
            self.advance()
            sign = -1
        total: dict = {}
        abs_total = 0  # the sum of the absolute coefficients in ``total``
        term = self.parse_term()
        while True:
            for mono, coeff in term.terms():
                old = total.pop(mono, 0)
                new = old + sign * coeff
                if new:
                    total[mono] = new
                abs_total += abs(new) - abs(old)
            if self.current.kind not in ("+", "-"):
                return Polynomial(self.table, total)
            op = self.advance()
            sign = 1 if op.kind == "+" else -1
            term = self.parse_term()
            # Every summand's degree is already at most MAX_DEGREE.
            _check_bounds(term.degree, len(total) + term.num_terms(),
                          max(abs_total.bit_length(), _sum_bits(term)) + 1, op.offset)

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while self.current.kind == "*":
            offset = self.advance().offset
            factor = self.parse_factor()
            _check_bounds(result.degree + factor.degree,
                          result.num_terms() * factor.num_terms(),
                          _sum_bits(result) + _sum_bits(factor), offset)
            result = result * factor
        return result

    def parse_factor(self) -> Polynomial:
        base = self.parse_base()
        if self.current.kind == "^":
            offset = self.advance().offset
            exponent = _int_literal(self.expect("int"))
            if exponent > MAX_DEGREE:
                raise ParseError(f"exponent {exponent} exceeds {MAX_DEGREE}", offset)
            if exponent:
                _check_bounds(base.degree * exponent,
                              math.comb(base.num_terms() + exponent - 1, exponent),
                              _sum_bits(base) * exponent, offset)
            return base ** exponent
        return base

    def parse_base(self) -> Polynomial:
        token = self.current
        if token.kind == "int":
            self.advance()
            return Polynomial.constant(self.table, _int_literal(token))
        if token.kind == "ident":
            self.advance()
            return Polynomial.variable(self.table, token.text)
        if token.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", token.offset)
            self.advance()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            return inner
        raise ParseError(f"expected a value, found {token.text or 'end of input'!r}", token.offset)


def _int_literal(token: _Token) -> int:
    """Value of an INT token of at most ``MAX_COEFF_BITS`` bits.

    The digits are counted before ``int()`` runs, because ``int()`` refuses
    strings of over 4300 digits, leading zeros included, with a bare
    ``ValueError``.  Only a literal as long as ``2**MAX_COEFF_BITS`` needs
    its bits counted.
    """
    digits = token.text.lstrip("0") or "0"
    if len(digits) < _MAX_LITERAL_DIGITS:
        return int(digits)
    if len(digits) == _MAX_LITERAL_DIGITS and int(digits).bit_length() <= MAX_COEFF_BITS:
        return int(digits)
    raise ParseError(f"integer literal of {len(digits)} digits exceeds {MAX_COEFF_BITS} bits",
                     token.offset)


def _sum_bits(p: Polynomial) -> int:
    return sum(abs(coeff) for _, coeff in p.terms()).bit_length()


def _check_bounds(degree: int, terms: int, bits: int, offset: int) -> None:
    for what, value, limit in (("degree", degree, MAX_DEGREE), ("term count", terms, MAX_TERMS),
                               ("coefficient size", bits, MAX_COEFF_BITS)):
        if value > limit:
            raise ParseError(f"{what} bound {value} exceeds {limit}", offset)


def parse_entry(src: str, table: VariableTable) -> Polynomial:
    """Parse one entry expression into a canonical polynomial over ``table``.

    Any identifier not already in the table is appended to it.  Raises
    :class:`ParseError` (with offset) on malformed input, including empty
    input and trailing garbage.
    """
    tokens = _tokenize(src)
    if tokens[0].kind == "end":
        raise ParseError("empty input", 0)
    parser = _Parser(tokens, table)
    result = parser.parse_expr()
    if parser.current.kind != "end":
        raise ParseError(f"unexpected trailing input {parser.current.text!r}",
                         parser.current.offset)
    return result
