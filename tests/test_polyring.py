"""Ring axioms, term order, exact evaluation, and division."""

import random
from fractions import Fraction

import pytest

from seprkit import (
    CoeffSignSummary,
    Monomial,
    Polynomial,
    RationalPoint,
    VariableTable,
    reduce_by,
)
from _oracles import (
    eval_reference,
    grlex_less,
    random_monomial,
    random_polynomial,
    random_positive_point,
    reduce_by_reference,
)


def fresh_table():
    return VariableTable(["a1", "a2", "b1", "b2", "b3", "b4"])


def var(table, name):
    return Polynomial.variable(table, name)


# ---------------------------------------------------------------- variables


def test_variable_table_assigns_indices_in_declaration_order():
    table = VariableTable()
    assert table.add("x") == 0
    assert table.add("y") == 1
    assert table.add("x") == 0  # re-registration is a no-op
    assert table.names == ("x", "y")
    assert "y" in table and "z" not in table
    assert table.index("y") == 1
    assert list(table) == ["x", "y"]


def test_variable_table_rejects_bad_names():
    table = VariableTable()
    for bad in ("", "1x", "a-b", "a b", "a$"):
        with pytest.raises(ValueError):
            table.add(bad)
    with pytest.raises(ValueError):
        table.index("missing")


# ---------------------------------------------------------------- monomials


def test_monomial_multiplication_and_division():
    m = Monomial.of({0: 2, 1: 1})
    d = Monomial.var(0)
    assert m * d == Monomial.of({0: 3, 1: 1})
    assert d.divides(m)
    assert not m.divides(d)
    assert m // d == Monomial.of({0: 1, 1: 1})
    with pytest.raises(ValueError):
        d // m
    assert m.gcd(Monomial.of({0: 1, 2: 5})) == Monomial.var(0)
    assert Monomial().is_constant()
    assert m.degree == 3


def test_equal_monomials_hash_equal_however_built():
    direct = Monomial.of({0: 2, 3: 1})
    product = Monomial.var(3) * Monomial.var(0, 2)
    quotient = Monomial.of({0: 3, 3: 1, 5: 2}) // Monomial.of({0: 1, 5: 2})
    assert direct == product == quotient
    assert hash(direct) == hash(product) == hash(quotient)
    assert len({direct: 1, product: 2, quotient: 3}) == 1
    assert hash(Monomial.of({})) == hash(Monomial.var(1) // Monomial.var(1))


def test_order_is_graded_then_lexicographic():
    a, b, c = Monomial.var(0), Monomial.var(1), Monomial.var(2)
    # degree dominates
    assert a * a > b
    assert c * c * c > a * b
    # within a degree, precedence follows declaration order
    assert a > b > c
    assert a * a > a * b > a * c > b * b > b * c > c * c
    assert sorted([b, a * a, c, a], reverse=True) == [a * a, a, b, c]
    rng = random.Random(23)
    for _ in range(2000):
        m1, m2 = random_monomial(rng, 4), random_monomial(rng, 4)
        assert (m1 < m2) == grlex_less(m1, m2)
        assert (m1.key < m2.key) == grlex_less(m2, m1)
        assert m1.degree == sum(e for _, e in m1.pairs)


def test_monomial_render():
    table = VariableTable(["x", "y"])
    assert Monomial().render(table) == "1"
    assert Monomial.of({0: 1, 1: 3}).render(table) == "x*y^3"


# ------------------------------------------------------------- ring axioms


def test_ring_axioms_on_random_polynomials():
    table = fresh_table()
    rng = random.Random(101)
    zero = Polynomial.zero(table)
    one = Polynomial.one(table)
    for _ in range(80):
        p = random_polynomial(rng, table)
        q = random_polynomial(rng, table)
        r = random_polynomial(rng, table)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + zero == p
        assert p * one == p
        assert p * zero == zero
        assert p - p == zero
        assert -(-p) == p


def test_int_coercion_and_pow():
    table = fresh_table()
    a = var(table, "a1")
    assert 1 + a == a + 1
    assert 2 * a - a == a
    assert 3 - a == -(a - 3)
    assert (a + 1) ** 2 == a * a + 2 * a + 1
    assert a ** 0 == 1
    with pytest.raises(ValueError):
        a ** -1
    rng = random.Random(31)
    for _ in range(20):
        p = random_polynomial(rng, table)
        x = random_positive_point(rng, table)
        for e in range(10):
            assert (p ** e).eval_at(x) == p.eval_at(x) ** e


def test_evaluation_is_a_ring_homomorphism():
    table = fresh_table()
    rng = random.Random(77)
    for _ in range(50):
        p = random_polynomial(rng, table)
        q = random_polynomial(rng, table)
        x = random_positive_point(rng, table)
        assert p.eval_at(x) + q.eval_at(x) == (p + q).eval_at(x)
        assert p.eval_at(x) * q.eval_at(x) == (p * q).eval_at(x)
        wide = random_positive_point(rng, table, hi=10 ** 6)
        for poly in (p, q, p * q, Polynomial.zero(table), Polynomial.constant(table, -5)):
            for point in (x, wide):
                assert poly.eval_at(point) == eval_reference(poly, point)
    assert Polynomial.constant(table, 7).eval_at(random_positive_point(rng, table)) == 7
    partial = RationalPoint(table, (Fraction(1, 2),))
    with pytest.raises(ValueError, match="unassigned"):
        var(table, "a2").eval_at(partial)


# ----------------------------------------------------------- canonical form


def test_terms_are_stored_in_descending_order_without_zeros():
    table = fresh_table()
    a1, a2 = var(table, "a1"), var(table, "a2")
    p = a2 + a1 * a1 - a2 + 5 + a1  # the a2 terms cancel
    monos = [m for m, _ in p.terms()]
    assert monos == sorted(monos, reverse=True)
    assert p.num_terms() == 3
    assert p.degree == 2
    assert Polynomial.zero(table).degree == -1
    assert not Polynomial.zero(table)
    with pytest.raises(ValueError):
        Polynomial.zero(table).leading_term()


def test_rendering():
    table = VariableTable(["a1", "a4", "b9", "c3"])
    a1 = var(table, "a1")
    a4, b9, c3 = var(table, "a4"), var(table, "b9"), var(table, "c3")
    assert str(Polynomial.zero(table)) == "0"
    assert str(Polynomial.constant(table, -3)) == "-3"
    assert str(-a4 * b9 * c3) == "-a4*b9*c3"
    assert str(2 * a1 * a1 - 3) == "2*a1^2 - 3"
    assert str(a1 + 1) == "a1 + 1"
    assert str(-a1 + a4) == "-a1 + a4"


def test_leading_data_and_sign_summary():
    table = fresh_table()
    a1, a2 = var(table, "a1"), var(table, "a2")
    p = 4 * a1 * a2 - a2
    assert p.leading_monomial() == Monomial.of({0: 1, 1: 1})
    assert p.leading_coefficient() == 4
    assert p.coeff_sign_summary() is CoeffSignSummary.MIXED_SIGNS
    assert (a1 + a2).coeff_sign_summary() is CoeffSignSummary.ALL_POSITIVE
    assert (-a1 - 2 * a2).coeff_sign_summary() is CoeffSignSummary.ALL_NEGATIVE
    assert Polynomial.zero(table).coeff_sign_summary() is CoeffSignSummary.ALL_ZERO


def test_monomial_content_and_primitive_part():
    table = fresh_table()
    a1, a2 = var(table, "a1"), var(table, "a2")
    p = 2 * a1 * a1 * a2 - 4 * a1 * a2 * a2
    assert p.monomial_content() == Monomial.of({0: 1, 1: 1})
    assert p.primitive_part() == 2 * a1 - 4 * a2
    # sign normalization flips a negative leading coefficient
    assert (-p).primitive_part() == 2 * a1 - 4 * a2
    assert (a1 * a2).primitive_part() == 1
    with pytest.raises(ValueError):
        Polynomial.zero(table).monomial_content()


# ------------------------------------------------------------------ points


def test_rational_point_construction_and_errors():
    table = VariableTable(["x", "y"])
    p = RationalPoint.from_mapping(table, {"x": "3/4", "y": 2})
    assert p.value(0) == Fraction(3, 4)
    assert p.value(1) == 2
    assert p.is_strictly_positive()
    assert p.render() == "x=3/4 y=2"
    with pytest.raises(ValueError, match="unassigned"):
        RationalPoint.from_mapping(table, {"x": 1})
    with pytest.raises(ValueError, match="unknown"):
        RationalPoint.from_mapping(table, {"x": 1, "y": 1, "z": 1})
    assert not RationalPoint.from_mapping(table, {"x": 0, "y": 1}).is_strictly_positive()
    assert RationalPoint.all_ones(table).values == (1, 1)


@pytest.mark.parametrize("value, message", [
    (0.1, "must be an integer or a 'p/q' string"),
    (float("inf"), "must be an integer or a 'p/q' string"),
    (True, "must be an integer or a 'p/q' string"),
    (None, "must be an integer or a 'p/q' string"),
    ("1/0", "is not a valid rational: '1/0'"),
    ("y", "is not a valid rational: 'y'"),
    ("1e3000000", "is not a valid rational: '1e3000000'"),
    ("0.5", "is not a valid rational: '0.5'"),
    ("1_000", "is not a valid rational: '1_000'"),
])
def test_rational_point_rejects_inexact_values(value, message):
    table = VariableTable(["x", "y"])
    with pytest.raises(ValueError, match=f"^assignment for 'y' {message}"):
        RationalPoint.from_mapping(table, {"x": 1, "y": value})


def test_rational_point_accepts_ints_fractions_and_strings():
    table = VariableTable(["x", "y", "z"])
    p = RationalPoint.from_mapping(table, {"z": " -6/4 ", "x": Fraction(2, 3), "y": 5})
    assert p.values == (Fraction(2, 3), Fraction(5), Fraction(-3, 2))
    assert all(type(value) is Fraction for value in p.values)


# ---------------------------------------------------------------- division


def test_reduce_by_identity_holds_on_random_inputs():
    # Six sparse variables, then two variables with many terms, where the
    # targets of different steps collide, so a step taken out of order shows.
    rng = random.Random(440)
    shapes = ((fresh_table(), {}, {"max_terms": 3}),
              (VariableTable(["x", "y"]), {"max_terms": 8, "max_degree": 5},
               {"max_terms": 4, "max_degree": 2}))
    for table, m_shape, d_shape in shapes:
        checked = 0
        for _ in range(200):
            m = random_polynomial(rng, table, **m_shape)
            d = random_polynomial(rng, table, **d_shape)
            if d.is_zero():
                continue
            q, r = reduce_by(m, d)
            assert q * d + r == m
            assert (q, r) == reduce_by_reference(m, d)
            # an exact multiple: terms of q*d cancel during expansion and
            # come back as the division walks down
            factor = random_polynomial(rng, table, **m_shape)
            multiple = factor * d
            assert reduce_by(multiple, d) == reduce_by_reference(multiple, d) \
                == (factor, Polynomial.zero(table))
            assert reduce_by(multiple + m, d) == reduce_by_reference(multiple + m, d)
            checked += 1
        assert checked >= 100


def test_reduce_by_remainder_condition_for_unit_leading_coefficient():
    # With leading coefficient +-1 the division never stalls on integer
    # divisibility, so no remainder monomial is divisible by lead(d).
    table = fresh_table()
    rng = random.Random(441)
    for _ in range(120):
        m = random_polynomial(rng, table)
        d = random_polynomial(rng, table, max_terms=3)
        if d.is_zero() or abs(d.leading_coefficient()) != 1:
            continue
        _, r = reduce_by(m, d)
        lead = d.leading_monomial()
        assert all(not lead.divides(mono) for mono, _ in r.terms())


def test_reduce_by_known_values():
    table = VariableTable(["b1", "b2", "b3", "b4", "b5", "b7", "b10"])
    b1, b2, b3 = (var(table, n) for n in ("b1", "b2", "b3"))
    b4, b5, b7, b10 = (var(table, n) for n in ("b4", "b5", "b7", "b10"))
    d = b1 * b4 - b2 * b3
    q, r = reduce_by(b1 * b4 * b10 - b1 * b5 * b7 - b2 * b3 * b10, d)
    assert q == b10
    assert r == -b1 * b5 * b7
    assert reduce_by(d, d) == (Polynomial.one(table), Polynomial.zero(table))
    # integer leading coefficients: only exactly divisible terms cancel
    q, r = reduce_by(3 * b1, 2 * b1)
    assert (q, r) == (Polynomial.zero(table), 3 * b1)
    q, r = reduce_by(4 * b1 * b2 + b3, 2 * b1)
    assert q == 2 * b2 and r == b3
    # b1*b2^2 cancels in the first step and comes back in the second
    m = b1 ** 3 + 2 * b1 ** 2 * b2 + b1 * b2 ** 2
    d = b1 ** 2 + b1 * b2 + b2 ** 2
    assert reduce_by(m, d) == reduce_by_reference(m, d) == (b1 + b2, -b1 * b2 ** 2 - b2 ** 3)
    with pytest.raises(ValueError):
        reduce_by(b1, Polynomial.zero(table))


def test_table_mismatch_is_rejected():
    p = Polynomial.variable(VariableTable(), "x")
    q = Polynomial.variable(VariableTable(), "y")
    with pytest.raises(ValueError, match="table"):
        p + q
