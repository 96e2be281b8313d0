"""Ring axioms, term order, exact evaluation, and division."""

import random
import re
from fractions import Fraction
from math import prod
from unittest import mock

import pytest

from seprkit import (
    CoeffSignSummary,
    Polynomial,
    RationalPoint,
    VariableTable,
    all_principal_minors,
    matrix_from_document,
    reduce_by,
)
from seprkit import polyring
from seprkit.exprparse import MAX_DEGREE
from _oracles import (
    eval_reference,
    exponents,
    gauss_det,
    grlex_less,
    monomial,
    monomial_content_reference,
    monomial_divides,
    monomial_product,
    primitive_part_reference,
    product_reference,
    random_monomial,
    random_polynomial,
    random_positive_point,
    reduce_by_reference,
)


def fresh_table():
    return VariableTable(["a1", "a2", "b1", "b2", "b3", "b4"])


def var(table, name):
    return Polynomial.variable(table, name)


def term(table, mono, coeff=1):
    return Polynomial(table, {mono: coeff})


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
    for bad in ("", "1x", "a-b", "a b", "a$", "x\n", " x", "é", "xé", "ſ", "x²", 7, None):
        with pytest.raises(ValueError, match="invalid variable name"):
            table.add(bad)
    with pytest.raises(ValueError):
        table.index("missing")
    # a name is accepted exactly when it spells [A-Za-z_][A-Za-z0-9_]*
    rng = random.Random(6161)
    alphabet = "aZ_09 -$\n\té²ſ"
    for _ in range(2000):
        name = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
        good = bool(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name))
        try:
            table.add(name)
        except ValueError:
            assert not good, repr(name)
        else:
            assert good, repr(name)


# ---------------------------------------------------------------- monomials
#
# A monomial is the tuple (-degree, i1, -e1, i2, -e2, ...) documented in
# seprkit.polyring.  These tests encode and decode that layout with the
# oracles' own helpers and reach polyring's monomial arithmetic only through
# polynomials: a product through ``*``, a quotient through ``reduce_by`` and a
# gcd through ``monomial_content``.  Only the unit-product check calls
# ``_mono_mul`` itself: a product scales by a constant term without it.


def test_monomial_multiplication_and_division():
    table = VariableTable(["x", "y", "z"])
    m = monomial({0: 2, 1: 1})
    d = monomial({0: 1})
    assert m == (-3, 0, 0, 1) and monomial({}) == (0,)
    assert (term(table, m) * term(table, d)).leading_monomial() == monomial({0: 3, 1: 1})
    assert reduce_by(term(table, m), term(table, d)) \
        == (term(table, monomial({0: 1, 1: 1})), Polynomial.zero(table))
    # m does not divide d, so d is all remainder
    assert reduce_by(term(table, d), term(table, m)) == (Polynomial.zero(table), term(table, d))
    assert (term(table, m) + term(table, monomial({0: 1, 2: 5}))).monomial_content() == d
    assert Polynomial.one(table).leading_monomial() == (0,)
    assert term(table, m).degree == 3


def test_a_product_with_the_unit_monomial_is_the_other_factor():
    # _mono_mul has no case of its own for 1: the general merge gives it
    rng = random.Random(4242)
    for mono in [(0,), monomial({0: 2, 1: 1})] + [random_monomial(rng, 6) for _ in range(50)]:
        for product in (polyring._mono_mul((0,), mono), polyring._mono_mul(mono, (0,))):
            assert type(product) is tuple
            assert product == mono == monomial_product(mono, (0,))


def test_equal_monomials_hash_equal_however_built():
    table = VariableTable([f"x{i}" for i in range(6)])
    direct = monomial({0: 2, 3: 1})
    product = (var(table, "x3") * var(table, "x0") ** 2).leading_monomial()
    quotient = reduce_by(term(table, monomial({0: 3, 3: 1, 5: 2})),
                         term(table, monomial({0: 1, 5: 2})))[0].leading_monomial()
    content = (term(table, monomial({0: 2, 3: 1, 5: 1}))
               + term(table, monomial({0: 3, 3: 2}))).monomial_content()
    assert direct == product == quotient == content
    assert hash(direct) == hash(product) == hash(quotient) == hash(content)
    assert len({direct: 1, product: 2, quotient: 3, content: 4}) == 1
    x1 = var(table, "x1")
    assert reduce_by(x1, x1)[0].leading_monomial() == (0,)


def test_order_is_graded_then_lexicographic():
    a, b, c = monomial({0: 1}), monomial({1: 1}), monomial({2: 1})
    aa, ab, ac = monomial({0: 2}), monomial({0: 1, 1: 1}), monomial({0: 1, 2: 1})
    bb, bc, cc = monomial({1: 2}), monomial({1: 1, 2: 1}), monomial({2: 2})
    # ascending tuples are descending term order
    # degree dominates
    assert aa < b
    assert monomial({2: 3}) < ab
    # within a degree, precedence follows declaration order
    assert a < b < c
    assert aa < ab < ac < bb < bc < cc
    assert sorted([b, aa, c, a]) == [aa, a, b, c]
    table = VariableTable(["x", "y", "z"])
    shuffled = sum((term(table, mono) for mono in (bc, c, aa, cc, b, ab, bb, a, ac)),
                   Polynomial.one(table))
    assert [mono for mono, _ in shuffled.terms()] == [aa, ab, ac, bb, bc, cc, a, b, c, (0,)]
    rng = random.Random(23)
    for _ in range(2000):
        m1, m2 = random_monomial(rng, 4), random_monomial(rng, 4)
        assert (m1 > m2) == grlex_less(m1, m2)


def test_monomial_render():
    table = VariableTable(["x", "y"])
    assert str(Polynomial.one(table)) == "1"
    assert str(term(table, monomial({0: 1, 1: 3}))) == "x*y^3"
    assert str(term(table, monomial({1: 2}), -4)) == "-4*y^2"


# Property tests of the term order and of monomial arithmetic.  hypothesis is
# not a dependency of the package, so they skip where it is not installed.

PROPERTY_TABLE = VariableTable([f"x{i}" for i in range(6)])


def _monomials(st):
    return st.dictionaries(st.integers(0, 5), st.integers(1, 4), max_size=6).map(monomial)


def _for_all(check, *strategies):
    """Run ``check`` on values drawn by hypothesis from ``strategies(st)``."""
    hypothesis = pytest.importorskip("hypothesis")
    settings = hypothesis.settings(deadline=None, database=None)
    st = hypothesis.strategies
    settings(hypothesis.given(*(strategy(st) for strategy in strategies))(check))()


def _for_all_monomials(count, check):
    """Run ``check`` on ``count`` monomials in six variables drawn by
    hypothesis."""
    _for_all(check, *[_monomials] * count)


def _term(mono, coeff=1):
    return term(PROPERTY_TABLE, mono, coeff)


def _polynomial(terms):
    return Polynomial(PROPERTY_TABLE, terms)


def test_term_order_is_total_with_one_least():
    def check(a, b):
        assert (a == b) + grlex_less(a, b) + grlex_less(b, a) == 1
        assert grlex_less(a, b) == (a > b)
        monos = [mono for mono, _ in (_term(a) + _term(b) + 1).terms()]
        assert monos[-1] == (0,)
        assert all(grlex_less(low, high) for high, low in zip(monos, monos[1:]))

    _for_all_monomials(2, check)


def test_term_order_is_multiplicative():
    def check(a, b, c):
        ac = (_term(a) * _term(c)).leading_monomial()
        bc = (_term(b) * _term(c)).leading_monomial()
        assert ac == monomial_product(a, c) and bc == monomial_product(b, c)
        if grlex_less(a, b):
            assert grlex_less(ac, bc) and ac > bc

    _for_all_monomials(3, check)


def test_divisibility_is_exactly_an_exact_quotient():
    def check(a, b, c):
        for m in (a, monomial_product(b, c)):
            q, r = reduce_by(_term(m), _term(b))
            if monomial_divides(b, m):
                assert r.is_zero()
                exponents(q.leading_monomial())
                assert q * _term(b) == _term(m)
            else:
                assert q.is_zero() and r == _term(m)

    _for_all_monomials(3, check)


def test_gcd_is_the_greatest_common_divisor():
    def check(a, b, c):
        # c divides both arguments, so it must divide their gcd
        a, b = monomial_product(a, c), monomial_product(b, c)
        g = (_term(a) + _term(b)).monomial_content()
        exponents(g)
        assert monomial_divides(g, a) and monomial_divides(g, b)
        assert monomial_divides(c, g)

    _for_all_monomials(3, check)


def test_one_term_products_keep_the_order():
    # a one-term factor, constants and +-1 included: the product is the
    # full one, in strict order
    def polynomials(st):
        return st.dictionaries(_monomials(st), st.integers(-9, 9), max_size=8).map(_polynomial)

    def one_terms(st):
        coefficients = st.sampled_from([1, -1]) | st.integers(-9, 9).filter(bool)
        monomials = _monomials(st) | st.just(monomial({}))
        return st.tuples(monomials, coefficients).map(lambda t: _term(*t))

    def check(p, t):
        expected = product_reference(p, t)
        products = [p * t, t * p]
        if t.degree == 0:
            products += [p * t.leading_coefficient(), t.leading_coefficient() * p]
        for product in products:
            assert product == expected
            terms = list(product.terms())
            assert all(coeff for _, coeff in terms)
            assert all(grlex_less(low, high) for (high, _), (low, _) in zip(terms, terms[1:]))

    _for_all(check, polynomials, one_terms)


def test_sum_of_products_matches_the_reference_products():
    # the one product and sum kernel, and a sum of products by * and +,
    # against products term by term: pairs of several terms, of one term,
    # of the constants 1, -1 and 3, and of zero, alone and together, come
    # out merged and, through * and +, in strict order
    table = fresh_table()
    rng = random.Random(5151)
    one = Polynomial.one(table)
    zero = Polynomial.zero(table)
    constants = [one, -one, 3 * one, zero]

    def factor():
        if rng.random() < 0.3:
            return rng.choice(constants)
        return random_polynomial(rng, table, max_terms=rng.choice([1, 1, 5]))

    for trial in range(400):
        pairs = [(factor(), factor()) for _ in range(rng.randint(1, 4))]
        merged = {}
        for a, b in pairs:
            for mono, coeff in product_reference(a, b).terms():
                merged[mono] = merged.get(mono, 0) + coeff
        expected = Polynomial(table, merged)
        kernel = polyring._accumulate({}, [(a._terms, b._terms) for a, b in pairs])
        assert Polynomial(table, kernel) == expected, f"trial {trial}: {pairs}"
        got = sum((a * b for a, b in pairs), zero)
        assert got == expected, f"trial {trial}: {pairs}"
        terms = list(got.terms())
        assert all(coeff for _, coeff in terms)
        assert all(grlex_less(low, high) for (high, _), (low, _) in zip(terms, terms[1:]))
    # a lone product by 1 equals the other factor, as does a sum of one
    p = var(table, "a1") + var(table, "b2") * var(table, "b3") - 7
    assert p * one == p and one * p == p
    assert p + zero == p
    assert sum([], zero) == zero
    with pytest.raises(ValueError, match="variable table mismatch"):
        p * Polynomial.variable(VariableTable(), "z")


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


def test_power_equals_repeated_multiplication():
    # ** keeps every product in an unsorted dict and sorts once, p * p * ...
    # sorts each product: the same terms in the same order, up to the
    # parser's degree bound, for bases of one term, of constants and of
    # terms that cancel in their powers
    table = VariableTable(["x", "y", "z"])
    rng = random.Random(3232)
    for trial in range(24):
        base = random_polynomial(rng, table, max_terms=rng.choice([1, 2, 4]), max_degree=2,
                                 coeff_bound=3)
        top = MAX_DEGREE // max(base.degree, 1)
        checked = {0, 1, 2, rng.randint(3, top), top}
        product = Polynomial.one(table)
        for e in range(top + 1):
            if e in checked:
                assert list((base ** e).terms()) == list(product.terms()), \
                    f"trial {trial}: ({base})^{e}"
            product = product * base


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


def test_the_evaluator_gives_the_exact_value_over_a_positive_denominator():
    # the one evaluator, behind eval_at, minor_values_at and the sampler,
    # gives (N, Q) with Q > 0 and N/Q the value eval_reference computes, for
    # the constant (empty getter), one-variable (slice getter), multilinear
    # and higher-power terms alike, and reads no variable past the last one
    # the polynomial uses
    table = fresh_table()
    rng = random.Random(4242)
    a1, b2, b4 = (var(table, name) for name in ("a1", "b2", "b4"))
    polys = [Polynomial.zero(table), Polynomial.constant(table, -3), a1 - 2, -7 * b2,
             b4 ** 3 - 2, a1 * b2 - b4]
    polys += [random_polynomial(rng, table, max_terms=6) for _ in range(60)]
    polys += [random_polynomial(rng, table, max_degree=1) * random_polynomial(rng, table)
              for _ in range(20)]
    seen = set()
    for p in polys:
        used = [exponents(mono) for mono, _ in p.terms()]
        top = max((index for exps in used for index in exps), default=-1)
        length, value_of = p._evaluator()
        assert length == top + 1, p
        for hi in (1, 100, 10 ** 6):
            us = [rng.randint(1, hi) for _ in table]
            vs = [rng.randint(1, hi) for _ in table]
            numerator, common = value_of(us[:length], vs[:length])
            point = RationalPoint(table, tuple(map(Fraction, us, vs)))
            assert common > 0 and Fraction(numerator, common) == eval_reference(p, point), p
            # Q is prod vs[i]^D_i, D_i the highest exponent of variable i
            # in any term, and not a larger common denominator
            assert common == prod(vs[i] ** max(exps.get(i, 0) for exps in used)
                                  for i in range(length)), p
        # a term picks as many indices as its degree: none is the empty
        # getter, one the slice getter
        seen.update(("empty", "slice", "itemgetter")[min(sum(exps.values()), 2)]
                    for exps in used)
        seen.add("powers" if any(e > 1 for exps in used for e in exps.values())
                 else "multilinear")
        if set().union(*used) != set(range(len(table))):
            seen.add("unused variable")
    assert seen == {"empty", "slice", "itemgetter", "powers", "multilinear", "unused variable"}


def test_eval_at_checks_the_point_table():
    # the point's table must name the polynomial's variables at the same
    # indices, and give every variable the polynomial uses a value
    table = VariableTable(["x", "y"])
    x, y = var(table, "x"), var(table, "y")
    p = x - 2 * y
    swapped = RationalPoint(VariableTable(["y", "x"]), (Fraction(5), Fraction(1)))
    with pytest.raises(ValueError, match="'y' where the table has 'x'"):
        p.eval_at(swapped)
    short = RationalPoint(VariableTable(["x"]), (Fraction(1),))
    with pytest.raises(ValueError, match="variable 'y' unassigned"):
        p.eval_at(short)
    # a value past the end of the point's table is not a value for y
    with pytest.raises(ValueError, match="variable 'y' unassigned"):
        p.eval_at(RationalPoint(VariableTable(["x"]), (Fraction(1), Fraction(5))))
    with pytest.raises(ValueError, match="variable 'y' unassigned"):
        p.eval_at(RationalPoint(table, (Fraction(1),)))
    # an equal table, or one that only adds variables, is checked and read
    longer = RationalPoint(VariableTable(["x", "y", "z"]), (Fraction(1), Fraction(5), Fraction(2)))
    assert p.eval_at(longer) == -9
    assert p.eval_at(RationalPoint(VariableTable(["x", "y"]), (Fraction(1), Fraction(5)))) == -9
    # the point need only cover the variables up to the last one used
    assert (3 * x).eval_at(short) == 3
    assert Polynomial.constant(table, 4).eval_at(RationalPoint(VariableTable(), ())) == 4


# ----------------------------------------------------------- canonical form


def test_terms_are_stored_in_descending_order_without_zeros():
    table = fresh_table()
    a1, a2 = var(table, "a1"), var(table, "a2")
    p = a2 + a1 * a1 - a2 + 5 + a1  # the a2 terms cancel
    monos = [m for m, _ in p.terms()]
    assert all(grlex_less(low, high) for high, low in zip(monos, monos[1:]))
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
    assert p.leading_monomial() == monomial({0: 1, 1: 1})
    assert p.leading_coefficient() == 4
    assert p.coeff_sign_summary() is CoeffSignSummary.MIXED_SIGNS
    assert (a1 + a2).coeff_sign_summary() is CoeffSignSummary.ALL_POSITIVE
    assert (-a1 - 2 * a2).coeff_sign_summary() is CoeffSignSummary.ALL_NEGATIVE
    assert Polynomial.zero(table).coeff_sign_summary() is CoeffSignSummary.ALL_ZERO


def test_monomial_content_and_primitive_part():
    table = fresh_table()
    a1, a2 = var(table, "a1"), var(table, "a2")
    p = 2 * a1 * a1 * a2 - 4 * a1 * a2 * a2
    assert p.monomial_content() == monomial({0: 1, 1: 1})
    assert p.primitive_part() == 2 * a1 - 4 * a2
    # sign normalization flips a negative leading coefficient
    assert (-p).primitive_part() == 2 * a1 - 4 * a2
    assert (a1 * a2).primitive_part() == 1
    with pytest.raises(ValueError):
        Polynomial.zero(table).monomial_content()


def test_monomial_content_and_primitive_part_match_exponent_minima():
    # content 1 returns the polynomial itself (up to sign) and stops the
    # gcd scan early; a monomial factor makes the content other than 1
    table = fresh_table()
    rng = random.Random(302)
    contents = set()
    for _ in range(300):
        p = random_polynomial(rng, table, max_terms=6)
        if p.is_zero():
            continue
        if rng.random() < 0.5:
            p = p * term(table, random_monomial(rng, len(table), 3))
        with mock.patch.object(polyring, "_mono_gcd", wraps=polyring._mono_gcd) as gcd:
            content = p.monomial_content()
        assert content == monomial_content_reference(p)
        # no gcd is taken once the content of the terms so far is 1
        monos = [mono for mono, _ in p.terms()]
        prefixes = [Polynomial(table, dict.fromkeys(monos[:end], 1))
                    for end in range(1, len(monos) + 1)]
        assert gcd.call_count == next(
            (end for end, prefix in enumerate(prefixes)
             if monomial_content_reference(prefix) == (0,)), len(monos) - 1)
        primitive = p.primitive_part()
        assert list(primitive.terms()) == list(primitive_part_reference(p).terms())
        if content == (0,) and p.leading_coefficient() > 0:
            assert primitive is p
        contents.add((content == (0,), p.leading_coefficient() > 0))
    assert contents == {(True, True), (True, False), (False, True), (False, False)}


def test_long_monomials_at_the_degree_bound():
    # powers at the parser's degree bound on the diagonal and products off
    # it: the full 3x3 minor has degree 3 * MAX_DEGREE, so every monomial
    # tuple is long and most hold long runs of one index
    document = {"n": 3, "variables": ["x", "y", "z"], "entries": [
        [f"x^{MAX_DEGREE}", "x*y", "-2*x*z"],
        ["y*z", f"y^{MAX_DEGREE}", "3*x*y"],
        ["x*z", "-y*z", f"z^{MAX_DEGREE} - x*y*z"]]}
    matrix = matrix_from_document(document)
    table = matrix.table
    full = all_principal_minors(matrix).minor(0b111)
    # every monomial decodes, and the top degree is the sum of the powers
    degrees = [sum(exponents(mono).values()) for mono, _ in full.terms()]
    assert full.degree == max(degrees) == 3 * MAX_DEGREE
    assert full.leading_coefficient() == 1
    assert str(term(table, full.leading_monomial())) == \
        f"x^{MAX_DEGREE}*y^{MAX_DEGREE}*z^{MAX_DEGREE}"
    rng = random.Random(96)
    for _ in range(5):
        point = random_positive_point(rng, table)
        value = full.eval_at(point)
        assert value == eval_reference(full, point)
        assert value == gauss_det([[entry.eval_at(point) for entry in row]
                                   for row in matrix.rows])
    entries = [entry for row in matrix.rows for entry in row]
    for entry in entries:
        assert reduce_by(full, entry) == reduce_by_reference(full, entry), entry
    # the minor's content is x*y^2*z; a factor of high degree lengthens it
    factor = monomial({0: 5, 2: MAX_DEGREE})
    shifted = full * term(table, factor)
    for p in (full, shifted, *entries):
        assert p.monomial_content() == monomial_content_reference(p), p
    assert exponents(full.monomial_content()) == {0: 1, 1: 2, 2: 1}
    assert shifted.monomial_content() == monomial_product(full.monomial_content(), factor)


# ------------------------------------------------------------------ points


def test_rational_point_construction_and_errors():
    table = VariableTable(["x", "y"])
    p = RationalPoint.from_mapping(table, {"x": "3/4", "y": 2})
    assert p.values == (Fraction(3, 4), 2)
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
        assert all(not monomial_divides(lead, mono) for mono, _ in r.terms())


def test_cancellable_term_scan_matches_the_definition():
    # lead_coeff*lead_mono divides a term of m in the integers; the merge
    # walk runs only on terms above lead_mono's degree, and a term of its
    # own degree is found by one lookup
    rng = random.Random(442)
    found = set()
    for table in (fresh_table(), VariableTable(["x", "y"])):
        for _ in range(300):
            m = random_polynomial(rng, table, max_terms=6)
            d = random_polynomial(rng, table, max_terms=2, max_degree=2)
            if d.is_zero():
                continue
            lead, coeff = d.leading_term()
            want = any(monomial_divides(lead, mono) and c % coeff == 0 for mono, c in m.terms())
            with mock.patch.object(polyring, "_mono_divides",
                                   side_effect=polyring._mono_divides) as divides:
                assert polyring._has_cancellable_term(m, lead, coeff) == want
            assert all(call.args[1][0] < lead[0] for call in divides.call_args_list)
            found.add((want, lead in dict(m.terms())))
    assert found == {(True, True), (True, False), (False, True), (False, False)}


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
    # a divisor of higher degree divides nothing: the exponent walk rejects it
    for d, m in ((b1 ** 2, b2), (b1 * b2, b1), (b1 ** 2, b1), (b2 ** 3, b1 * b2)):
        assert not polyring._mono_divides(d.leading_monomial(), m.leading_monomial())
        assert reduce_by(m, d) == (Polynomial.zero(table), m)
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
