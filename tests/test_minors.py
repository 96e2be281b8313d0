"""Determinant engine against brute-force oracles, plus the minor table."""

import itertools
import math
import random
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
    determinant,
    minor_values_at,
    parse_entry,
)
from seprkit.minors import MAX_ENUM_DIM, _cycle_cover_masks, _symbolic_engine
from _oracles import (
    constant_matrix,
    cycle_cover_masks_reference,
    leibniz_det,
    principal_subgrid,
    random_int_grid,
    random_positive_point,
    sparse_perm_det,
    transposed,
)


def int_matrix(table, grid):
    return SymMatrix(table, constant_matrix(table, grid))


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
        got = determinant(int_matrix(table, grid))
        assert got == leibniz_det(grid), f"trial {trial}: {grid}"


def test_transpose_invariance_and_row_swap_antisymmetry():
    table = VariableTable()
    rng = random.Random(2025)
    for _ in range(220):
        n = rng.randint(2, 5)
        grid = random_int_grid(rng, n)
        m = int_matrix(table, grid)
        assert determinant(transposed(m)) == determinant(m)
        i, j = rng.sample(range(n), 2)
        assert determinant(int_matrix(table, swap_rows(grid, i, j))) == -determinant(m)


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
        got = determinant(int_matrix(table, grid))
        assert got == leibniz_det(a) * leibniz_det(c)


def test_symbolic_determinants():
    table = VariableTable(["a", "b", "c", "d"])
    rows = [[parse_entry(t, table) for t in row] for row in (["a", "b"], ["c", "d"])]
    assert str(determinant(SymMatrix(table, rows))) == "a*d - b*c"
    assert determinant(SymMatrix(table, [])) == 1  # 0x0 convention
    single = SymMatrix(table, [[parse_entry("a - d", table)]])
    assert str(determinant(single)) == "a - d"


def test_symbolic_determinant_matches_leibniz_on_dense_variable_matrix():
    table = VariableTable()
    rows = [[Polynomial.variable(table, f"x{i}{j}") for j in range(3)] for i in range(3)]
    m = SymMatrix(table, rows)
    assert determinant(m) == leibniz_det(rows)
    assert len(list(determinant(m).terms())) == 6


def test_minor_table_covers_every_subset(builtin_minors):
    assert len(builtin_minors) == 2 ** 12 - 1
    for k in range(1, 13):
        masks = list(builtin_minors.masks_of_order(k))
        assert len(masks) == math.comb(12, k)
        assert masks == sorted(masks)
    subset = IndexSet.of([1, 7, 10], 12)
    assert builtin_minors.minor(subset) == builtin_minors.minor(subset.mask())


def test_minor_table_agrees_with_fresh_determinants(builtin_matrix, builtin_minors):
    rng = random.Random(5)
    for _ in range(25):
        k = rng.randint(1, 12)
        subset = IndexSet.of(rng.sample(range(1, 13), k), 12)
        direct = determinant(builtin_matrix.principal_submatrix(subset))
        assert builtin_minors.minor(subset) == direct


def test_minor_table_agrees_with_sparse_permutation_oracle(builtin_matrix, builtin_minors):
    zero = Polynomial.zero(builtin_matrix.table)
    rng = random.Random(6)
    subsets = [IndexSet.of(rng.sample(range(1, 13), rng.randint(1, 9)), 12)
               for _ in range(30)]
    for subset in subsets:
        sub = builtin_matrix.principal_submatrix(subset)
        rows = [[(j, e) for j, e in enumerate(row) if e] for row in sub.rows]
        assert builtin_minors.minor(subset) == sparse_perm_det(rows, zero)


def test_enumeration_guard():
    table = VariableTable()
    n = MAX_ENUM_DIM + 1
    zero = Polynomial.zero(table)
    big = SymMatrix(table, [[zero] * n for _ in range(n)])
    with pytest.raises(ValueError, match="refusing"):
        all_principal_minors(big)


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


def has_empty_line(grid, rmask, cmask):
    """True if some selected row or column has no nonzero in the selection."""
    rows = [i for i in range(len(grid)) if rmask >> i & 1]
    cols = [j for j in range(len(grid)) if cmask >> j & 1]
    return (any(not any(grid[i][j] for j in cols) for i in rows)
            or any(not any(grid[i][j] for i in rows) for j in cols))


def test_all_principal_minors_match_leibniz_on_sparse_grids():
    table = VariableTable()
    rng = random.Random(4242)

    def entry():
        return rng.choice([-1, 1]) * rng.randint(1, 9)

    for trial in range(180):
        n = rng.randint(1, 6)
        grid = sparse_grid(rng, n, entry)
        m = int_matrix(table, grid)
        minors = all_principal_minors(m)
        assert len(minors) == 2 ** n - 1
        for mask in range(1, 1 << n):
            assert minors.minor(mask) == leibniz_det(principal_subgrid(grid, mask)), \
                f"trial {trial}, mask {mask:b}: {grid}"
        # A pair with an empty row or column is never expanded or memoised.
        engine = _symbolic_engine(m)
        for mask in range(1, 1 << n):
            engine.det(mask, mask)
        for rmask, cmask in engine.memo:
            assert not has_empty_line(grid, rmask, cmask), f"trial {trial}: {grid}"


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


def test_cycle_cover_masks_match_the_permutation_oracle():
    rng = random.Random(6161)
    shapes = set()
    for trial in range(150):
        n = rng.randint(1, 7)
        grid, shape = support_grid(rng, n)
        shapes.add(shape)
        row_bits = [sum(1 << j for j in range(n) if grid[i][j]) for i in range(n)]
        covers = _cycle_cover_masks(row_bits, n)
        assert covers == cycle_cover_masks_reference(grid), f"trial {trial}: {grid}"
        for mask in set(range(1, 1 << n)) - set(covers):
            assert leibniz_det(principal_subgrid(grid, mask)) == 0, f"trial {trial}: {grid}"
    assert len(shapes) == 6


def test_cycle_cover_masks_of_known_supports():
    assert _cycle_cover_masks([0, 0, 0], 3) == []
    assert _cycle_cover_masks([0b001, 0b010, 0b100], 3) == list(range(1, 8))
    # the 3-cycle 0 -> 1 -> 2 -> 0 and a loop at 1
    assert _cycle_cover_masks([0b010, 0b110, 0b001], 3) == [0b010, 0b111]
    assert _cycle_cover_masks([(1 << 10) - 1] * 10, 10) == list(range(1, 1 << 10))


def test_minor_table_stores_only_nonzero_minors(builtin_matrix, builtin_minors):
    n = builtin_matrix.n
    assert list(builtin_minors.entries) == sorted(builtin_minors.entries)
    assert all(not m.is_zero() for m in builtin_minors.entries.values())
    assert {mask.bit_count() for mask in builtin_minors.entries} == {3, 6, 9}
    assert len(builtin_minors) == 2 ** n - 1
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
