"""Entry-expression parser: grammar coverage, error offsets, round trips."""

import random
from fractions import Fraction

import pytest

from seprkit import ParseError, Polynomial, RationalPoint, VariableTable, parse_entry
from seprkit.exprparse import MAX_DEGREE, MAX_NESTING, MAX_TERMS
from _oracles import random_polynomial


def parse(src, table=None):
    return parse_entry(src, table if table is not None else VariableTable())


def test_atoms():
    table = VariableTable()
    assert parse("0", table).is_zero()
    assert parse("7", table) == 7
    assert parse("a1", table) == Polynomial.variable(table, "a1")
    assert parse("-b6", table) == -Polynomial.variable(table, "b6")
    assert table.names == ("a1", "b6")


def test_operators_and_precedence():
    table = VariableTable(["x", "y"])
    x = Polynomial.variable(table, "x")
    y = Polynomial.variable(table, "y")
    assert parse("x + y*x", table) == x + y * x
    assert parse("x - y - 1", table) == x - y - 1
    assert parse("x^3", table) == x * x * x
    assert parse("x^0", table) == 1
    assert parse("2*x^2 - 3", table) == 2 * x * x - 3
    assert parse("(x + y) * (x - y)", table) == x * x - y * y
    assert parse("-(x + y)", table) == -x - y
    assert parse("  x\t+ 1 ", table) == x + 1
    assert parse("b1*b4 - b2*b3", VariableTable()).num_terms() == 2


def test_leading_minus_binds_the_first_term_only():
    table = VariableTable(["x", "y"])
    x = Polynomial.variable(table, "x")
    y = Polynomial.variable(table, "y")
    assert parse("-x + y", table) == y - x
    assert parse("-x*y + y", table) == y - x * y


@pytest.mark.parametrize(
    "src, offset",
    [
        ("", 0),
        ("   ", 0),
        ("x +", 3),
        ("* x", 0),
        ("x )", 2),
        ("(x", 2),
        ("x ^ y", 4),
        ("x ^", 3),
        ("2 $ 2", 2),
        ("x + + y", 4),
        # INT is ASCII digits only, as in RationalPoint.from_mapping
        ("\u0663*x", 0),
        ("x^\u0662", 2),
        ("\uff11", 0),
        ("x + \u06f4", 4),
    ],
)
def test_error_offsets(src, offset):
    table = VariableTable(["x", "y"])
    with pytest.raises(ParseError) as info:
        parse(src, table)
    assert info.value.offset == offset
    assert f"(at offset {offset})" in str(info.value)


def test_implicit_multiplication_is_rejected():
    with pytest.raises(ParseError):
        parse("2a1")
    with pytest.raises(ParseError):
        parse("a1 b2")


def test_parse_error_is_a_value_error():
    with pytest.raises(ValueError):
        parse("")


def test_new_variables_append_in_first_use_order():
    table = VariableTable(["a1"])
    parse("c3 + b2*a1 - c3", table)
    assert table.names == ("a1", "c3", "b2")


def test_round_trip_through_rendering():
    # str() output is itself valid input and parses back to the same value
    table = VariableTable(["a1", "a2", "b1", "b2", "b3", "b4"])
    rng = random.Random(9)
    for _ in range(60):
        p = random_polynomial(rng, table)
        assert parse(str(p), table) == p


@pytest.mark.parametrize(
    "src, offset",
    [
        ("x^100000000", 1),  # exponent over MAX_DEGREE
        ("(x + y)^300", 7),
        ("0^99999999", 1),
        ("x^20 * y^20", 5),  # degree bound 40
        ("(a+b+c+d+e+f+g+h)^8", 17),  # C(15, 8) = 6435 terms
        ("((2^32)^32)^4", 11),  # 4 * 1025 coefficient bits
        # nesting past MAX_NESTING, at the first "(" too deep
        pytest.param("(" * 250 + "a" + ")" * 250, MAX_NESTING, id="nesting-250"),
    ],
)
def test_oversized_expansions_are_rejected_at_the_operator(src, offset):
    with pytest.raises(ParseError) as info:
        parse(src)
    assert info.value.offset == offset


@pytest.mark.parametrize(
    "src, offset",
    [
        pytest.param("1" * 5000, 0, id="base-5000-digits"),  # int() stops at 4300
        pytest.param("x^" + "1" * 5000, 2, id="exponent-5000-digits"),
        pytest.param("x + " + "1" * 1234, 4, id="base-4097-bits"),
    ],
)
def test_oversized_literals_are_rejected_at_the_literal(src, offset):
    with pytest.raises(ParseError) as info:
        parse(src)
    assert info.value.offset == offset


def test_expansions_at_the_limits_are_admitted():
    assert parse("x^32").degree == MAX_DEGREE
    assert parse("x^16 * y^16").degree == MAX_DEGREE
    assert parse("(x + y)^32").num_terms() == 33
    assert parse("(2^32)^32") == 2 ** 1024
    assert parse("9" * 1233) == 10 ** 1233 - 1
    assert parse("0" * 5000 + "7") == 7
    assert parse("x^" + "0" * 5000 + "3").degree == 3


def test_nesting_at_the_limit_is_admitted():
    assert parse("(" * MAX_NESTING + "a + 1" + ")" * MAX_NESTING).num_terms() == 2


def test_sums_are_bounded_by_the_running_sum():
    # x - x + x - ... has 4201 summands, but the running sum never more than one term
    table = VariableTable()
    p = parse("x" + " - x + x" * 2100, table)
    assert p == Polynomial.variable(table, "x")
    assert p.eval_at(RationalPoint.from_mapping(table, {"x": "3/7"})) == Fraction(3, 7)
    y = Polynomial.variable(table, "y")
    assert parse("2*y" + " - y + 3" * (MAX_TERMS + 1), table) \
        == (1 - MAX_TERMS) * y + 3 * (MAX_TERMS + 1)
    xs = "+".join(f"x{i}" for i in range(MAX_TERMS))
    assert parse(xs).num_terms() == MAX_TERMS
    with pytest.raises(ParseError) as info:
        parse(xs + " - y")
    assert info.value.offset == len(xs) + 1


def test_sums_are_bounded_too():
    xs = "+".join(f"x{i}" for i in range(64))
    ys = "+".join(f"y{i}" for i in range(64))
    assert parse(f"({xs}) * ({ys})").num_terms() == MAX_TERMS
    src = f"({xs}) * ({ys}) + z"
    with pytest.raises(ParseError) as info:
        parse(src)
    assert info.value.offset == src.index("+ z")
