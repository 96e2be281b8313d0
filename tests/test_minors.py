"""Determinant engine against brute-force oracles, plus the minor table."""

import collections
import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from seprkit import (
    IndexSet,
    MinorTable,
    Polynomial,
    RationalPoint,
    SymMatrix,
    VariableTable,
    all_principal_minors,
    minor_values_at,
    paper_matrix,
    parse_entry,
    principal_minor,
    sepr_at_point,
)
from seprkit.minors import MAX_ENUM_DIM, _MINUS_ONE, _accumulate, _family_sums
from _oracles import (
    constant_matrix,
    cycle_cover_masks_reference,
    eval_reference,
    gauss_det,
    leibniz_det,
    principal_subgrid,
    random_int_grid,
    random_positive_point,
    replay_plan,
    sparse_perm_det,
    transposed,
)


def int_matrix(table, grid):
    return SymMatrix(table, constant_matrix(table, grid))


def full_minor(matrix):
    return principal_minor(matrix, (1 << matrix.n) - 1)


def swap_rows(grid, i, j):
    swapped = [list(row) for row in grid]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    return swapped


def test_determinant_matches_leibniz_on_random_integer_matrices():
    table = VariableTable()
    rng = random.Random(2024)
    for trial in range(220):
        n = rng.randint(1, 5)
        grid = random_int_grid(rng, n)
        got = full_minor(int_matrix(table, grid))
        assert got == leibniz_det(grid), f"trial {trial}: {grid}"


def test_transpose_invariance_and_row_swap_antisymmetry():
    table = VariableTable()
    rng = random.Random(2025)
    for _ in range(220):
        n = rng.randint(2, 5)
        grid = random_int_grid(rng, n)
        m = int_matrix(table, grid)
        assert full_minor(transposed(m)) == full_minor(m)
        i, j = rng.sample(range(n), 2)
        assert full_minor(int_matrix(table, swap_rows(grid, i, j))) == -full_minor(m)


def test_block_upper_triangular_determinant_factors():
    table = VariableTable()
    rng = random.Random(31)
    for _ in range(40):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        a = random_int_grid(rng, p)
        c = random_int_grid(rng, q)
        grid = [[a[i][j] if j < p else rng.randint(-9, 9) for j in range(p + q)]
                if i < p else
                [0 if j < p else c[i - p][j - p] for j in range(p + q)]
                for i in range(p + q)]
        got = full_minor(int_matrix(table, grid))
        assert got == leibniz_det(a) * leibniz_det(c)


def test_symbolic_determinants():
    table = VariableTable(["a", "b", "c", "d"])
    rows = [[parse_entry(t, table) for t in row] for row in (["a", "b"], ["c", "d"])]
    assert str(full_minor(SymMatrix(table, rows))) == "a*d - b*c"
    assert principal_minor(SymMatrix(table, []), 0) == 1  # 0x0 convention
    assert principal_minor(SymMatrix(table, rows), 0) == 1
    assert str(principal_minor(SymMatrix(table, rows), 0b10)) == "d"
    single = SymMatrix(table, [[parse_entry("a - d", table)]])
    assert str(full_minor(single)) == "a - d"


def test_symbolic_determinant_matches_leibniz_on_dense_variable_matrix():
    table = VariableTable()
    rows = [[Polynomial.variable(table, f"x{i}{j}") for j in range(3)] for i in range(3)]
    m = SymMatrix(table, rows)
    assert full_minor(m) == leibniz_det(rows)
    assert len(list(full_minor(m).terms())) == 6


def test_minor_table_covers_every_subset(builtin_minors):
    for k in range(1, 13):
        masks = list(builtin_minors.masks_of_order(k))
        assert len(masks) == math.comb(12, k)
        assert masks == sorted(masks)
        assert list(builtin_minors.items_of_order(k)) == [
            (mask, builtin_minors.minor(mask)) for mask in masks]


def test_minor_table_agrees_with_fresh_determinants(builtin_matrix, builtin_minors):
    rng = random.Random(5)
    for _ in range(25):
        k = rng.randint(1, 12)
        mask = IndexSet.of(rng.sample(range(1, 13), k), 12).mask()
        assert builtin_minors.minor(mask) == principal_minor(builtin_matrix, mask)


def test_minor_table_agrees_with_sparse_permutation_oracle(builtin_matrix, builtin_minors):
    zero = Polynomial.zero(builtin_matrix.table)
    rng = random.Random(6)
    masks = [IndexSet.of(rng.sample(range(1, 13), rng.randint(1, 9)), 12).mask()
             for _ in range(30)]
    for mask in masks:
        sub = principal_subgrid(builtin_matrix.rows, mask)
        rows = [[(j, e) for j, e in enumerate(row) if e] for row in sub]
        assert builtin_minors.minor(mask) == sparse_perm_det(rows, zero)


def test_enumeration_guard():
    table = VariableTable()
    n = MAX_ENUM_DIM + 1
    zero = Polynomial.zero(table)
    big = SymMatrix(table, [[zero] * n for _ in range(n)])
    with pytest.raises(ValueError, match="refusing"):
        all_principal_minors(big)
    with pytest.raises(ValueError, match="refusing"):
        minor_values_at(big, RationalPoint.all_ones(table))
    # one minor enumerates nothing, so its order is not bounded
    assert principal_minor(big, 0) == 1
    assert principal_minor(big, (1 << n) - 1) == zero


def test_minor_values_match_symbolic_evaluation(builtin_matrix, builtin_minors):
    rng = random.Random(88)
    for _ in range(3):
        point = random_positive_point(rng, builtin_matrix.table)
        values = minor_values_at(builtin_matrix, point)
        assert set(builtin_minors.entries) <= set(values)
        assert all(isinstance(value, Fraction) for value in values.values())
        for mask in range(1, 1 << builtin_matrix.n):
            assert values.get(mask, 0) == builtin_minors.minor(mask).eval_at(point)


# ------------------------------------------- sparse supports and zero minors


def sparse_grid(rng, n, entry):
    """About a third of the entries nonzero, drawn by ``entry()``; some
    grids get a forced empty row or column, others a rank-1 block
    u_i*v_j, whose minors of order >= 2 cancel to 0 although their support
    has perfect matchings."""
    grid = [[entry() if rng.random() < 1 / 3 else 0 for _ in range(n)] for _ in range(n)]
    shape = rng.choice(["plain", "empty-row", "empty-column", "rank-1"])
    i = rng.randrange(n)
    if shape == "empty-row":
        grid[i] = [0] * n
    elif shape == "empty-column":
        for row in grid:
            row[i] = 0
    elif shape == "rank-1" and n >= 2:
        block = rng.sample(range(n), rng.randint(2, n))
        u = {b: entry() for b in block}
        v = {b: entry() for b in block}
        for r in block:
            for c in block:
                grid[r][c] = u[r] * v[c]
    return grid


def test_all_principal_minors_match_leibniz_on_sparse_grids():
    # principal_minor answers every mask, 0 included, with the Leibniz
    # determinant, and so does the table on the nonempty ones
    table = VariableTable()
    rng = random.Random(4242)

    def entry():
        return rng.choice([-1, 1]) * rng.randint(1, 9)

    for trial in range(180):
        n = rng.randint(1, 6)
        grid = sparse_grid(rng, n, entry)
        m = int_matrix(table, grid)
        minors = all_principal_minors(m)
        for mask in range(1 << n):
            det = leibniz_det(principal_subgrid(grid, mask))
            assert principal_minor(m, mask) == det, f"trial {trial}, mask {mask:b}: {grid}"
            if mask:
                assert minors.minor(mask) == det, f"trial {trial}, mask {mask:b}: {grid}"
        for mask in (-1, 1 << n):
            with pytest.raises(ValueError, match="out of range"):
                principal_minor(m, mask)


def test_all_principal_minors_match_leibniz_on_multi_term_entries():
    # entries of several terms, constants, a repeated variable and terms
    # that cancel between entries, so the replay multiplies two sums of
    # several terms, multiplies by one term, and applies the factors 1 and
    # -1; the oracle multiplies and adds the entries as polynomials
    table = VariableTable(["x", "y", "z"])
    x, y, z = (Polynomial.variable(table, name) for name in "xyz")
    one = Polynomial.one(table)
    pool = [x, -y, z * z, x * y - 2, x + y + 1, x - y, y - x, 3 * one, -one, one,
            x * x * z - z + 2, 2 * x + 3 * y * z, x * x - 2 * x + 1]
    zero = Polynomial.zero(table)
    rng = random.Random(7171)
    for trial in range(24):
        n = 3 + trial % 5
        density = 0.7 if n <= 5 else 0.35
        grid = [[rng.choice(pool) if rng.random() < density else zero for _ in range(n)]
                for _ in range(n)]
        minors = all_principal_minors(SymMatrix(table, grid))
        for mask in range(1, 1 << n):
            det = leibniz_det(principal_subgrid(grid, mask))
            assert minors.minor(mask) == det, f"trial {trial}, mask {mask:b}"


def test_enumeration_leaves_every_entry_as_it_was():
    # the replay adds into dicts of its own: entries that several cells
    # share, loops and constants keep their terms through the table and
    # through every single minor
    table = VariableTable(["x", "y"])
    x, y = (Polynomial.variable(table, name) for name in "xy")
    one = Polynomial.one(table)
    pool = [x, -y, one, -one, 2 * one, x + y, x * y - 1, Polynomial.zero(table)]
    rng = random.Random(5757)
    for trial in range(20):
        n = rng.randint(1, 6)
        m = SymMatrix(table, [[rng.choice(pool) for _ in range(n)] for _ in range(n)])
        before = [list(p.terms()) for p in pool]
        cells = [[list(entry.terms()) for entry in row] for row in m.rows]
        all_principal_minors(m)
        for mask in range(1 << n):
            principal_minor(m, mask)
        assert [list(p.terms()) for p in pool] == before, f"trial {trial}"
        assert [[list(entry.terms()) for entry in row] for row in m.rows] == cells


def test_a_sum_that_cancels_as_it_accumulates_is_zero():
    # det [[x, x], [x, x]]: the 2-cycle gives -x^2, and the loops, one
    # round later, add x^2 into its slot; the minor is the zero polynomial
    # and the table keeps no key for it
    table = VariableTable()
    x = Polynomial.variable(table, "x")
    m = SymMatrix(table, [[x, x], [x, x]])
    assert principal_minor(m, 0b11) == Polynomial.zero(table)
    assert list(all_principal_minors(m).entries) == [0b01, 0b10]
    # a row that combines the others, at a random place, cancels the full
    # minor, and the minors that contain it may cancel too
    y = Polynomial.variable(table, "y")
    pool = [x, -y, x + y, x * y - 2, 3 * Polynomial.one(table), Polynomial.zero(table)]
    rng = random.Random(5959)
    for trial in range(30):
        n = rng.randint(2, 5)
        grid = [[rng.choice(pool) for _ in range(n)] for _ in range(n - 1)]
        factors = [rng.choice(pool[:5]) for _ in grid]
        grid.insert(rng.randrange(n), [sum((f * row[j] for f, row in zip(factors, grid)),
                                           Polynomial.zero(table))
                                       for j in range(n)])
        m = SymMatrix(table, grid)
        minors = all_principal_minors(m)
        full = (1 << n) - 1
        assert full not in minors.entries and principal_minor(m, full).is_zero()
        assert all(minors.entries.values())
        for mask in range(1, full + 1):
            det = leibniz_det(principal_subgrid(grid, mask))
            assert minors.minor(mask) == det, f"trial {trial}, mask {mask:b}"
            assert (mask in minors.entries) == bool(det)


def test_point_values_match_symbolic_minors_on_sparse_grids():
    rng = random.Random(4343)
    for trial in range(60):
        n = rng.randint(1, 6)
        table = VariableTable()
        names = itertools.count()

        def entry():
            coeff = rng.choice([-1, 1]) * rng.randint(1, 3)
            return coeff * Polynomial.variable(table, f"x{next(names)}")

        grid = sparse_grid(rng, n, entry)
        rows = [[e if e else Polynomial.zero(table) for e in row] for row in grid]
        m = SymMatrix(table, rows)
        minors = all_principal_minors(m)
        point = random_positive_point(rng, table)
        values = minor_values_at(m, point)
        assert set(minors.entries) <= set(values)
        for mask in range(1, 1 << n):
            symbolic = minors.minor(mask)
            assert symbolic == leibniz_det(principal_subgrid(rows, mask))
            assert values.get(mask, 0) == symbolic.eval_at(point), \
                f"trial {trial}, mask {mask:b}"


def test_point_values_keep_the_cover_masks_of_entries_that_vanish():
    # the keys are the cover masks of the symbolic support, so a nonzero
    # symbolic minor keeps its mask even where an entry evaluates to 0
    table = VariableTable(["a", "b"])
    grid = [["a - b", "1"], ["1", "a - b"]]
    m = SymMatrix(table, [[parse_entry(text, table) for text in row] for row in grid])
    point = RationalPoint.from_mapping(table, {"a": "3/2", "b": "3/2"})
    assert minor_values_at(m, point) == {0b01: 0, 0b10: 0, 0b11: -1}
    assert set(all_principal_minors(m).entries) == {0b01, 0b10, 0b11}
    # the two 3-cycles of this support cancel, so the cover mask 0b111 has
    # a zero minor: the table drops it and the point values keep it
    grid = [["0", "a", "a"], ["a", "0", "a"], ["-a", "a", "0"]]
    m = SymMatrix(table, [[parse_entry(text, table) for text in row] for row in grid])
    assert set(all_principal_minors(m).entries) == {0b011, 0b101, 0b110}
    square = Fraction(9, 4)
    assert minor_values_at(m, point) == {0b011: -square, 0b101: square, 0b110: -square,
                                         0b111: 0}


# ------------------------------------------- row scaling at a rational point

# One prime per row and the largest power of it up to 10^6: the rows'
# denominators are pairwise coprime, so each row has its own scale.
ROW_DENOMINATORS = [(p, max(k for k in range(1, 20) if p ** k <= 10 ** 6))
                    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)]
ROW_ENTRIES = ("0", "{a} - {b}", "-3*{a}^2 + 7*{b}", "{a}*{b} - 5*{a}^2*{b}", "-2",
               "{b}^2 - 1000003*{a}", "0")
# Nonzero entries with at most two terms, for orders up to 17.
SPARSE_ROW_ENTRIES = ("-3*{a}^2", "{b}", "{a} - {b}", "-{a}*{b}^2")


def row_scaled_case(choose, n, pool=ROW_ENTRIES):
    """A matrix of order n and a point.  Row i uses only its own variables
    a<i>, b<i>, whose values have powers of the i-th prime up to 10^6 as
    denominators; ``choose(lo, hi)`` draws each integer choice and each
    entry is drawn from ``pool``.  Entries have degree up to 3 and negative
    coefficients, a<i> - b<i> vanishes when both take one value, and a row
    may be empty."""
    table = VariableTable()
    rows, assignment = [], {}
    for i in range(n):
        prime, top = ROW_DENOMINATORS[i]
        a, b = f"a{i}", f"b{i}"
        assignment[a] = Fraction(choose(1, 10 ** 6), prime ** choose(0, top))
        assignment[b] = (assignment[a] if choose(0, 1) else
                         Fraction(choose(1, 10 ** 6), prime ** choose(0, top)))
        empty = choose(0, 4) == 0
        rows.append([parse_entry("0" if empty else pool[choose(0, len(pool) - 1)].format(a=a, b=b),
                                 table) for _ in range(n)])
    for name in list(assignment):
        if name not in table:
            del assignment[name]
    return SymMatrix(table, rows), RationalPoint.from_mapping(table, assignment)


def check_row_scaled_values(m, point):
    """``minor_values_at`` keys exactly the cover masks, in increasing
    order, and every minor is the symbolic minor's value and the Leibniz
    determinant of the entries evaluated termwise."""
    values = minor_values_at(m, point)
    assert list(values) == cycle_cover_masks_reference(m.rows)
    assert all(type(value) is Fraction for value in values.values())
    minors = all_principal_minors(m)
    grid = [[eval_reference(entry, point) for entry in row] for row in m.rows]
    for mask in range(1, 1 << m.n):
        value = values.get(mask, 0)
        assert value == minors.minor(mask).eval_at(point), f"mask {mask:b}"
        assert value == leibniz_det(principal_subgrid(grid, mask)), f"mask {mask:b}"


def test_point_values_scale_rows_with_coprime_denominators():
    rng = random.Random(9191)
    seen = set()
    for trial in range(120):
        m, point = row_scaled_case(rng.randint, rng.randint(1, 5))
        for row in m.rows:
            entries = [entry for entry in row if entry]
            if not entries:
                seen.add("empty row")
            seen.update("vanishing" for entry in entries if not entry.eval_at(point))
            seen.update("degree 3" for entry in entries if entry.degree == 3)
        seen.update("denominator > 10^5" for value in point.values
                    if value.denominator > 10 ** 5)
        check_row_scaled_values(m, point)
    assert seen == {"empty row", "vanishing", "degree 3", "denominator > 10^5"}


def sparse_row_scaled_case(rng, n):
    """``row_scaled_case`` of order n cut to a sparse support: a cycle
    through every row, loops at both ends of each byte of a mask and two
    chords, so its cover masks are few."""
    m, point = row_scaled_case(rng.randint, n, SPARSE_ROW_ENTRIES)
    support = ({(i, (i + 1) % n) for i in range(n)}
               | {(i, i) for i in (0, 7, 8, 15, 16) if i < n}
               | {(i, (i + 2) % n) for i in rng.sample(range(n), 2)})
    zero = Polynomial.zero(m.table)
    return SymMatrix(m.table, [[entry if (i, j) in support else zero
                                for j, entry in enumerate(row)]
                               for i, row in enumerate(m.rows)]), point


def test_point_values_scale_rows_across_mask_bytes():
    # the denominator of a mask multiplies one table entry per byte of the
    # mask, so orders 9 and 17 reach the second and the third byte
    rng = random.Random(9292)
    spans = set()
    for n in (9, 9, 17, 17, 17):
        m, point = sparse_row_scaled_case(rng, n)
        values = minor_values_at(m, point)
        minors = all_principal_minors(m)
        assert list(values) == sorted(values)
        assert set(minors.entries) <= set(values)
        for mask, value in values.items():
            assert value == minors.minor(mask).eval_at(point), f"mask {mask:b}"
            spans.add(sum(1 for low in (0, 8, 16) if mask >> low & 255))
    assert spans == {1, 2, 3}


def test_point_values_scale_rows_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(deadline=None, database=None, max_examples=80)
    @hypothesis.given(st.data())
    def check(data):
        def choose(lo, hi):
            return data.draw(st.integers(lo, hi))

        m, point = row_scaled_case(choose, choose(1, 5))
        check_row_scaled_values(m, point)

    check()


# ------------------------------------------------- the stored point plan


def row_scaled_point(rng, table, vanish):
    """A fresh point for a ``row_scaled_case`` table, with the case's
    denominators; b<i> = a<i> for the rows i where ``vanish(i)``, so an
    entry a<i> - b<i> is 0 there."""
    values = {}
    for i, (prime, top) in enumerate(ROW_DENOMINATORS):
        a = Fraction(rng.randint(1, 10 ** 6), prime ** rng.randint(0, top))
        b = a if vanish(i) else Fraction(rng.randint(1, 10 ** 6), prime ** rng.randint(0, top))
        values.update({f"a{i}": a, f"b{i}": b})
    return RationalPoint.from_mapping(table, {name: values[name] for name in table.names})


def vanishing_entries(m, point):
    return {(i, j) for i, row in enumerate(m.rows) for j, entry in enumerate(row)
            if entry and not entry.eval_at(point)}


def cover_masks(m):
    """The cycle-cover masks of m's support: by trying permutations up to
    order 7, and beyond as the nonzero minors of the matrix that puts a
    variable of its own on every edge, where no two families cancel."""
    if m.n <= 7:
        return cycle_cover_masks_reference(m.rows)
    table = VariableTable()
    generic = SymMatrix(table, [[Polynomial.variable(table, f"e{i}_{j}") if entry
                                 else Polynomial.zero(table) for j, entry in enumerate(row)]
                                for i, row in enumerate(m.rows)])
    return list(all_principal_minors(generic).entries)


def check_point_values(values, m, minors, covers, point):
    """``values`` keys the cover masks in increasing order, and each is the
    symbolic minor's value and the Leibniz sum of the evaluated entries."""
    assert list(values) == covers
    assert all(type(value) is Fraction for value in values.values())
    grid = [[eval_reference(entry, point) for entry in row] for row in m.rows]
    for mask, value in values.items():
        assert value == minors.minor(mask).eval_at(point), f"mask {mask:b}"
        sub = principal_subgrid(grid, mask)
        det = (leibniz_det(sub) if len(sub) <= 6 else
               sparse_perm_det([[(j, x) for j, x in enumerate(row) if symbolic[j]]
                                for row, symbolic in zip(sub, principal_subgrid(m.rows, mask))],
                               0))
        assert value == det, f"mask {mask:b}"


def test_a_stored_plan_matches_the_oracles_at_every_point():
    # one matrix object at six points, interleaved with a second matrix and
    # an equal but distinct copy: the plan is recorded once per object and
    # every later point replays it; a point where some a<i> - b<i> vanishes
    # is followed by one where it does not, and the keys stay the cover
    # masks of the support
    rng = random.Random(7373)
    patterns = [lambda i: True, lambda i: False, lambda i: rng.random() < 0.5,
                lambda i: True, lambda i: rng.random() < 0.5, lambda i: False]
    revived = set()
    for n in (4, 5, 9, 17):
        def case():
            if n <= 5:
                return row_scaled_case(rng.randint, n)[0]
            return sparse_row_scaled_case(rng, n)[0]

        first, second = case(), case()
        copy = SymMatrix(first.table, first.rows)
        assert copy == first and copy is not first
        oracles = {id(m): (all_principal_minors(m), cover_masks(m)) for m in (first, second)}
        oracles[id(copy)] = oracles[id(first)]
        plans, previous = {}, None
        for k, vanish in enumerate(patterns):
            order = [first, second, copy]
            for m in order[k % 3:] + order[:k % 3]:
                point = row_scaled_point(rng, m.table, vanish)
                minors, covers = oracles[id(m)]
                values = minor_values_at(m, point)
                check_point_values(values, m, minors, covers, point)
                plans.setdefault(id(m), m._point_plan)
                assert m._point_plan is plans[id(m)]
                if m is first:
                    vanished = vanishing_entries(m, point)
                    if previous and previous - vanished:
                        revived.add(n)
                    previous = vanished
        assert plans[id(copy)] is not plans[id(first)]
    assert revived == {4, 5, 9, 17}


def test_a_stored_plan_keeps_every_check_of_the_point():
    table = VariableTable()
    n = MAX_ENUM_DIM + 1
    big = SymMatrix(table, [[Polynomial.zero(table)] * n for _ in range(n)])
    for _ in range(2):
        with pytest.raises(ValueError, match="refusing"):
            minor_values_at(big, RationalPoint.all_ones(table))
        assert big._point_plan is None
    rng = random.Random(7474)
    m = paper_matrix()
    minors = all_principal_minors(m)
    covers = cover_masks(m)
    names = list(m.table.names)

    def check(point):
        check_point_values(minor_values_at(m, point), m, minors, covers, point)

    check(random_positive_point(rng, m.table))
    plan = m._point_plan
    assert plan is not None
    values = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in names]
    reordered = VariableTable(names[::-1])
    with pytest.raises(ValueError, match="where the table has"):
        minor_values_at(m, RationalPoint(reordered, tuple(values)))
    short = VariableTable(names[:10])
    with pytest.raises(ValueError, match="unassigned"):
        minor_values_at(m, RationalPoint(short, tuple(values[:10])))
    check(random_positive_point(rng, m.table))
    values[5] = Fraction(0)
    with pytest.raises(ValueError, match="strictly positive"):
        sepr_at_point(m, RationalPoint(m.table, tuple(values)))
    values[5] = Fraction(-1)
    with pytest.raises(ValueError, match="strictly positive"):
        sepr_at_point(m, RationalPoint(m.table, tuple(values)))
    check(random_positive_point(rng, m.table))
    assert m._point_plan is plan


def test_a_dense_plan_matches_gaussian_elimination_at_two_points():
    # every one of the 1,023 nonempty masks of a 10x10 matrix of distinct
    # variables is a cover, so the plan is dense; row i's values have
    # powers of the i-th prime as denominators, so each row has a scale of
    # its own, and rows 8 and 9 put the masks' scales across two bytes
    n = 10
    table = VariableTable()
    names = [[f"x{i}_{j}" for j in range(n)] for i in range(n)]
    m = SymMatrix(table, [[Polynomial.variable(table, name) for name in row] for row in names])
    rng = random.Random(1010)
    plans = set()
    for _ in range(2):
        grid = [[Fraction(rng.randint(1, 10 ** 6), prime ** rng.randint(1, top)) for _ in row]
                for row, (prime, top) in zip(names, ROW_DENOMINATORS)]
        assert len({math.lcm(*(x.denominator for x in row)) for row in grid}) == n
        point = RationalPoint.from_mapping(table, {name: x for row_names, row in zip(names, grid)
                                                   for name, x in zip(row_names, row)})
        values = minor_values_at(m, point)
        assert list(values) == list(range(1, 1 << n))
        for mask, value in values.items():
            assert value == gauss_det(principal_subgrid(grid, mask)), f"mask {mask:b}"
        plans.add(id(m._point_plan))
    assert len(plans) == 1


def test_threads_evaluating_a_fresh_matrix_give_the_serial_values():
    # four threads reach a fresh matrix at once, so each may record a plan
    # and store it over another's; every thread must still read the values
    # that one thread reads from a copy of the matrix
    rng = random.Random(7575)
    model, _ = sparse_row_scaled_case(rng, 17)
    points = [row_scaled_point(rng, model.table, lambda i: rng.random() < 0.5)
              for _ in range(4)]
    serial = SymMatrix(model.table, model.rows)
    expected = [minor_values_at(serial, point) for point in points]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            m = SymMatrix(model.table, model.rows)
            start = threading.Barrier(4)
            results, errors = {}, []

            def run(worker):
                try:
                    start.wait(timeout=30)
                    results[worker] = [minor_values_at(m, points[(worker + k) % 4])
                                       for k in range(4)]
                except Exception as exc:  # reported by the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=run, args=(worker,)) for worker in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert errors == []
            assert sorted(results) == list(range(4))
            for worker, found in results.items():
                assert found == [expected[(worker + k) % 4] for k in range(4)]
            assert m._point_plan is not None
    finally:
        sys.setswitchinterval(previous)


def test_masks_of_order_equals_the_popcount_scan():
    # every order up to n = 10, then sampled orders up to n = 16, and the
    # out-of-range orders -1, 0 and n + 1 everywhere
    rng = random.Random(1616)
    for n in range(1, 17):
        table = MinorTable(n, {}, Polynomial.zero(VariableTable()))
        orders = range(1, n + 1) if n <= 10 else rng.sample(range(1, n + 1), 4)
        by_order = {k: [] for k in range(n + 2)}
        for mask in range(1, 1 << n):
            by_order[mask.bit_count()].append(mask)
        for k in (-1, 0, n + 1, *orders):
            assert list(table.masks_of_order(k)) == by_order.get(k, []), (n, k)


# ------------------------------------------------------- cycle-cover masks


def support_grid(rng, n):
    """A random signed integer grid of one of several support shapes:
    sparse or dense, loops on the diagonal, symmetric pairs (2-cycles), or
    a forced empty row or column."""
    density = rng.choice([0.15, 0.3, 0.5, 1.0])
    grid = [[rng.choice([-1, 1]) * rng.randint(1, 9) if rng.random() < density else 0
             for _ in range(n)] for _ in range(n)]
    shape = rng.choice(["plain", "loops", "no-loops", "two-cycles", "empty-row",
                        "empty-column"])
    i = rng.randrange(n)
    if shape == "loops":
        for j in range(n):
            grid[j][j] = grid[j][j] or rng.randint(1, 9)
    elif shape == "no-loops":
        for j in range(n):
            grid[j][j] = 0
    elif shape == "two-cycles":
        for r in range(n):
            for c in range(r):
                if grid[r][c] or grid[c][r]:
                    grid[r][c] = grid[r][c] or rng.randint(1, 9)
                    grid[c][r] = grid[c][r] or -rng.randint(1, 9)
    elif shape == "empty-row":
        grid[i] = [0] * n
    elif shape == "empty-column":
        for row in grid:
            row[i] = 0
    return grid, shape


def support_entries(grid):
    return [[(j, x) for j, x in enumerate(row) if x] for row in grid]


def plan_of(rows, required=0):
    """(plan, entries): the plan that ``_family_sums`` records for rows of
    (column, value) pairs, whose values fill slots 2, 3, ... in order."""
    row_entries, entries = [], []
    for row in rows:
        row_entries.append([(j, 2 + len(entries) + k) for k, (j, _) in enumerate(row)])
        entries += [x for _, x in row]
    return _family_sums(row_entries, required), entries


def family_sums(rows, required=0):
    """``_family_sums`` of rows of (column, int) pairs, its plan replayed
    over ints: the {mask: value} it keys and the number of new slots it
    takes past the entries'."""
    plan, entries = plan_of(rows, required)
    return replay_plan(plan, entries), plan[0] - 2 - len(entries)


def runs_of(steps):
    """The targets of the maximal runs of consecutive steps with one
    target, in step order."""
    return [target for target, _ in itertools.groupby(steps[0::3])]


def test_cycle_cover_masks_match_the_permutation_oracle():
    # the keys of the family sums are mask 0 and the cycle-cover masks, and
    # every value, as every minor off the keys, is the Leibniz determinant
    rng = random.Random(6161)
    shapes = set()
    for trial in range(150):
        n = rng.randint(1, 7)
        grid, shape = support_grid(rng, n)
        shapes.add(shape)
        sums, _ = family_sums(support_entries(grid))
        assert sorted(sums) == [0] + cycle_cover_masks_reference(grid), f"trial {trial}: {grid}"
        for mask in range(1 << n):
            assert sums.get(mask, 0) == leibniz_det(principal_subgrid(grid, mask)), \
                f"trial {trial}, mask {mask:b}: {grid}"
        # with a required mask, exactly the keys that contain it remain
        required = rng.randrange(1 << n)
        assert family_sums(support_entries(grid), required)[0] == {
            mask: value for mask, value in sums.items() if mask & required == required}
    assert len(shapes) == 6


def test_no_step_targets_an_entry_or_a_constant():
    # a sum that a later round reaches again accumulates in the slot it
    # has, and every target lies past the entries' slots, so the symbolic
    # replay never writes the terms of an entry or of the constants
    rng = random.Random(5353)
    accumulated = 0
    for trial in range(150):
        n = rng.randint(1, 7)
        grid, _ = support_grid(rng, n)
        for required in (0, rng.randrange(1 << n)):
            (size, steps, _), entries = plan_of(support_entries(grid), required)
            assert min(steps[0::3], default=size) >= 2 + len(entries), f"trial {trial}: {grid}"
            runs = runs_of(steps)
            accumulated += len(runs) - len(set(runs))
    assert accumulated


def test_each_sign_is_an_entry_negated_once_into_a_fresh_slot(builtin_matrix):
    # a path extends along an entry's negation, recorded the first time a
    # path takes that entry, and a cycle closes along its plain entry; so
    # the one step by -1 of a slot reads an entry and writes a slot that no
    # other step writes, and no cycle's weight is copied to take its sign
    rng = random.Random(5454)
    cases = []
    for _ in range(100):
        n = rng.randint(1, 7)
        rows = support_entries(support_grid(rng, n)[0])
        cases += [(rows, 0), (rows, rng.randrange(1 << n))]
    cases.append((support_entries([[1] * 6] * 6), 0))
    cases.append(([[(j, x) for j, x in enumerate(row) if x] for row in builtin_matrix.rows], 0))
    negations = 0
    for rows, required in cases:
        (_, steps, _), entries = plan_of(rows, required)
        writes = collections.Counter(steps[0::3])
        negated = [a for target, a, b in zip(steps[0::3], steps[1::3], steps[2::3])
                   if b == _MINUS_ONE and 2 <= a < 2 + len(entries) and writes[target] == 1]
        assert len(negated) == steps[2::3].count(_MINUS_ONE) == len(set(negated)), rows
        negations += len(negated)
    assert negations


def test_cycle_cover_masks_of_known_supports():
    assert family_sums(support_entries([[0] * 3] * 3))[0] == {0: 1}
    diagonal = [[2, 0, 0], [0, 3, 0], [0, 0, 5]]
    assert family_sums(support_entries(diagonal))[0] == {
        0: 1, 0b001: 2, 0b010: 3, 0b011: 6, 0b100: 5, 0b101: 10, 0b110: 15, 0b111: 30}
    # a 2-cycle takes the sign -1
    assert family_sums(support_entries([[0, 2], [3, 0]]))[0] == {0: 1, 0b11: -6}
    # the 3-cycle 0 -> 1 -> 2 -> 0 and a loop at 1
    three_cycle = [[0, 2, 0], [0, 3, 5], [7, 0, 0]]
    assert family_sums(support_entries(three_cycle))[0] == {0: 1, 0b010: 3, 0b111: 70}
    # a zero-valued entry is still an edge, so its masks stay keys
    assert family_sums([[(0, 0)], [(1, 4)]])[0] == {0: 1, 0b01: 0, 0b10: 4, 0b11: 0}
    ones, _ = family_sums(support_entries([[1] * 10] * 10))
    assert sorted(ones) == list(range(1 << 10))
    assert all(ones[mask] == (mask.bit_count() <= 1) for mask in ones)


def test_determinant_of_a_sparse_matrix_is_linear_in_its_order(monkeypatch):
    # a union that misses a done vertex is dropped, so a diagonal matrix
    # records fewer than two sums per vertex and a tridiagonal one a path per
    # pair (i, j); an engine that kept every union would record 2^n of
    # them, which order 12 shows before order 40 would hang.
    # principal_minor drops the rows and columns off its mask, so a proper
    # sub-mask replays exactly the sums of the extracted submatrix's plan
    def check(grid, required, limit, expected):
        sums, recorded = family_sums(support_entries(grid), required)
        assert recorded <= limit, "the union step is building every cover mask"
        assert sums == {required: expected}

    def check_sub_mask(grid, mask, limit, expected):
        sub = principal_subgrid(grid, mask)
        full = (1 << len(sub)) - 1
        check(sub, full, limit, expected)
        # principal_minor makes one _accumulate call per run of the plan's
        # steps with one target
        (_, steps, _), _ = plan_of(support_entries(sub), full)
        table, calls = VariableTable(), []

        def counted(merged, pairs):
            calls.append(len(pairs))
            return _accumulate(merged, pairs)

        m = int_matrix(table, grid)
        with monkeypatch.context() as patch:
            patch.setattr("seprkit.minors._accumulate", counted)
            assert principal_minor(m, mask) == expected
        assert len(calls) == len(runs_of(steps)) <= limit

    def continuant(grid):
        before, det = 1, grid[0][0]
        for k in range(1, len(grid)):
            before, det = det, grid[k][k] * det - grid[k][k - 1] * grid[k - 1][k] * before
        return det

    for n in (12, 40):
        diagonal = [[i + 2 if i == j else 0 for j in range(n)] for i in range(n)]
        full = (1 << n) - 1
        check(diagonal, full, 2 * n, math.prod(range(2, n + 2)))
    mask = full & ~(1 << 3) & ~(1 << 17) & ~(1 << 39)
    check_sub_mask(diagonal, mask, 2 * n, math.prod(i + 2 for i in range(n) if mask >> i & 1))
    for n in (12, 30):
        rng = random.Random(n)
        grid = [[rng.choice([-3, -1, 2, 5]) if abs(i - j) <= 1 else 0 for j in range(n)]
                for i in range(n)]
        full = (1 << n) - 1
        check(grid, full, n * n, continuant(grid))
    mask = full & ~(1 << 0) & ~(1 << 12) & ~(1 << 13) & ~(1 << 29)
    check_sub_mask(grid, mask, n * n, continuant(principal_subgrid(grid, mask)))

    table = VariableTable()
    names = [f"x{i}" for i in range(40)]
    rows = [[Polynomial.variable(table, name) if i == j else Polynomial.zero(table)
             for j in range(40)] for i, name in enumerate(names)]
    assert str(full_minor(SymMatrix(table, rows))) == "*".join(names)


def test_minor_table_stores_only_nonzero_minors(builtin_matrix, builtin_minors):
    n = builtin_matrix.n
    assert list(builtin_minors.entries) == sorted(builtin_minors.entries)
    assert all(not m.is_zero() for m in builtin_minors.entries.values())
    assert {mask.bit_count() for mask in builtin_minors.entries} == {3, 6, 9}
    stored = []
    for k in range(-1, n + 2):
        pairs = list(builtin_minors.nonzero_of_order(k))
        assert pairs == [(mask, m) for mask, m in builtin_minors.entries.items()
                         if mask.bit_count() == k]
        stored += pairs
    assert len(stored) == len(builtin_minors.entries)
    zero = Polynomial.zero(builtin_matrix.table)
    assert builtin_minors.minor(1) == zero and builtin_minors.minor(2 ** n - 1) == zero
    for mask in (0, -1, 2 ** n):
        with pytest.raises(KeyError):
            builtin_minors.minor(mask)
