"""Determinant engine against brute-force oracles, plus the minor table."""

import itertools
import math
import random
from fractions import Fraction
from functools import partial

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
    parse_entry,
    principal_minor,
)
from seprkit.minors import MAX_ENUM_DIM, _family_sums
from _oracles import (
    constant_matrix,
    cycle_cover_masks_reference,
    eval_reference,
    leibniz_det,
    principal_subgrid,
    random_int_grid,
    random_positive_point,
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


def test_point_values_scale_rows_across_mask_bytes():
    # the denominator of a mask multiplies one table entry per byte of the
    # mask, so orders 9 and 17 reach the second and the third byte; the
    # support is a cycle through every row, loops at both ends of each byte
    # and two chords, so its cover masks are few
    rng = random.Random(9292)
    spans = set()
    for n in (9, 9, 17, 17, 17):
        m, point = row_scaled_case(rng.randint, n, SPARSE_ROW_ENTRIES)
        support = ({(i, (i + 1) % n) for i in range(n)}
                   | {(i, i) for i in (0, 7, 8, 15, 16) if i < n}
                   | {(i, (i + 2) % n) for i in rng.sample(range(n), 2)})
        zero = Polynomial.zero(m.table)
        m = SymMatrix(m.table, [[entry if (i, j) in support else zero
                                 for j, entry in enumerate(row)] for i, row in enumerate(m.rows)])
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


def test_masks_of_order_equals_the_popcount_scan():
    for n in range(1, 11):
        table = MinorTable(n, {}, Polynomial.zero(VariableTable()))
        for k in range(-1, n + 2):
            expected = [mask for mask in range(1, 1 << n) if mask.bit_count() == k]
            assert list(table.masks_of_order(k)) == expected, (n, k)


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


def test_cycle_cover_masks_match_the_permutation_oracle():
    # the keys of the family sums are mask 0 and the cycle-cover masks, and
    # every value, as every minor off the keys, is the Leibniz determinant
    rng = random.Random(6161)
    shapes = set()
    for trial in range(150):
        n = rng.randint(1, 7)
        grid, shape = support_grid(rng, n)
        shapes.add(shape)
        sums = _family_sums(support_entries(grid), 1, sum)
        assert sorted(sums) == [0] + cycle_cover_masks_reference(grid), f"trial {trial}: {grid}"
        for mask in range(1 << n):
            assert sums.get(mask, 0) == leibniz_det(principal_subgrid(grid, mask)), \
                f"trial {trial}, mask {mask:b}: {grid}"
        # with a required mask, exactly the keys that contain it remain
        required = rng.randrange(1 << n)
        assert _family_sums(support_entries(grid), 1, sum, required) == {
            mask: value for mask, value in sums.items() if mask & required == required}
    assert len(shapes) == 6


def test_cycle_cover_masks_of_known_supports():
    assert _family_sums(support_entries([[0] * 3] * 3), 1, sum) == {0: 1}
    diagonal = [[2, 0, 0], [0, 3, 0], [0, 0, 5]]
    assert _family_sums(support_entries(diagonal), 1, sum) == {
        0: 1, 0b001: 2, 0b010: 3, 0b011: 6, 0b100: 5, 0b101: 10, 0b110: 15, 0b111: 30}
    # a 2-cycle takes the sign -1
    assert _family_sums(support_entries([[0, 2], [3, 0]]), 1, sum) == {0: 1, 0b11: -6}
    # the 3-cycle 0 -> 1 -> 2 -> 0 and a loop at 1
    three_cycle = [[0, 2, 0], [0, 3, 5], [7, 0, 0]]
    assert _family_sums(support_entries(three_cycle), 1, sum) == {0: 1, 0b010: 3, 0b111: 70}
    # a zero-valued entry is still an edge, so its masks stay keys
    assert _family_sums([[(0, 0)], [(1, 4)]], 1, sum) == {0: 1, 0b01: 0, 0b10: 4, 0b11: 0}
    ones = _family_sums(support_entries([[1] * 10] * 10), 1, sum)
    assert sorted(ones) == list(range(1 << 10))
    assert all(ones[mask] == (mask.bit_count() <= 1) for mask in ones)


def test_determinant_of_a_sparse_matrix_is_linear_in_its_order(monkeypatch):
    # a union that misses a done vertex is dropped, so a diagonal matrix
    # takes two sums per vertex and a tridiagonal one a path per pair
    # (i, j); an engine that kept every union would build 2^n of them.
    # principal_minor drops the rows and columns off its mask, so a proper
    # sub-mask builds exactly the sums of the extracted submatrix
    def counted(limit, add=sum):
        def total(terms):
            total.calls += 1
            assert total.calls <= limit, "the union step is building every cover mask"
            return add(terms)
        total.calls = 0
        return total

    def check_sub_mask(grid, mask, limit, expected):
        sub = principal_subgrid(grid, mask)
        sub_total, sub_full = counted(limit), (1 << len(sub)) - 1
        assert _family_sums(support_entries(sub), 1, sub_total, sub_full) == {
            sub_full: expected}
        # principal_minor sums its polynomials through Polynomial.sum_of
        table = VariableTable()
        total = counted(limit, partial(Polynomial.sum_of, table))
        with monkeypatch.context() as patch:
            patch.setattr(Polynomial, "sum_of", staticmethod(lambda _, polys: total(polys)))
            assert principal_minor(int_matrix(table, grid), mask) == expected
        assert total.calls == sub_total.calls

    def continuant(grid):
        before, det = 1, grid[0][0]
        for k in range(1, len(grid)):
            before, det = det, grid[k][k] * det - grid[k][k - 1] * grid[k - 1][k] * before
        return det

    n = 40
    diagonal = [[i + 2 if i == j else 0 for j in range(n)] for i in range(n)]
    full = (1 << n) - 1
    assert _family_sums(support_entries(diagonal), 1, counted(2 * n), full) == {
        full: math.prod(range(2, n + 2))}
    mask = full & ~(1 << 3) & ~(1 << 17) & ~(1 << 39)
    check_sub_mask(diagonal, mask, 2 * n, math.prod(i + 2 for i in range(n) if mask >> i & 1))
    n = 30
    rng = random.Random(30)
    grid = [[rng.choice([-3, -1, 2, 5]) if abs(i - j) <= 1 else 0 for j in range(n)]
            for i in range(n)]
    full = (1 << n) - 1
    assert _family_sums(support_entries(grid), 1, counted(n * n), full) == {
        full: continuant(grid)}
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
