"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Every expected value here is either trivially forced, checked against an
independent brute-force oracle, or an exact claim about the built-in
matrix; nothing is tuned to the implementation under test.
"""

import hashlib
import json
import math
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

from seprkit import (
    IndexSet,
    Lcg64,
    Polynomial,
    RationalPoint,
    SignKind,
    SymMatrix,
    VariableTable,
    certify_level,
    classify_polynomial,
    parse_entry,
    principal_minor,
    reduce_by,
    sepr_at_point,
)
from seprkit.certify import METHOD_CONSTANT_SIGN, METHOD_PIVOT
from _oracles import (
    certificate_mismatches,
    constant_matrix,
    leibniz_det,
    monomial_divides,
    principal_subgrid,
    random_int_grid,
    random_polynomial,
    random_positive_point,
    sign_str,
    sparse_perm_det,
    transposed,
)

FULL = frozenset("0+-")
ZERO_ONLY = frozenset("0")


@contextmanager
def verdict(number, summary):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {summary}")
        raise
    print(f"[PASS] criterion {number}: {summary}")


def test_criterion_1_zero_levels(builtin_minors):
    with verdict(1, "orders outside {3,6,9} vanish identically"):
        checked = 0
        for k in (1, 2, 4, 5, 7, 8, 10, 11, 12):
            for _, minor in builtin_minors.items_of_order(k):
                assert minor.is_zero()
                checked += 1
        # exactly the complement of the three surviving orders
        assert checked == 2 ** 12 - 1 - sum(math.comb(12, k) for k in (3, 6, 9))
        assert checked == 2731


def test_criterion_2_full_levels(builtin_matrix, builtin_minors):
    with verdict(2, "orders 3, 6 certify constant-sign; order 9 certifies "
                    "via pivot b1*b4 - b2*b3 with exact identities"):
        for k in (3, 6):
            guaranteed, method, cert = certify_level(builtin_matrix, k, builtin_minors)
            assert guaranteed == FULL
            assert method == METHOD_CONSTANT_SIGN
            assert cert is None
        guaranteed, method, cert = certify_level(builtin_matrix, 9, builtin_minors)
        assert guaranteed == FULL
        assert method == METHOD_PIVOT
        expected_pivot = parse_entry("b1*b4 - b2*b3", builtin_matrix.table)
        assert cert.pivot in (expected_pivot, -expected_pivot)
        assert cert.pivot == cert.pivot.primitive_part()  # normalized form
        for dec in cert.decompositions:
            assert dec.q * cert.pivot + dec.r == dec.minor
        assert cert.verify_identities()


def test_criterion_3_mixed_size9_census(builtin_matrix, builtin_minors):
    with verdict(3, "exactly 4 nonzero size-9 minors ({1,2,j}+{7..12}), "
                    "each Mixed with opposite-sign witnesses"):
        zero = Polynomial.zero(builtin_matrix.table)
        expected = {
            IndexSet.of({1, 2, j} | set(range(7, 13)), 12).mask() for j in (3, 4, 5, 6)
        }
        nonzero = set()
        for mask, minor in builtin_minors.items_of_order(9):
            # independent oracle: signed permutation sum over nonzero entries
            sub = principal_subgrid(builtin_matrix.rows, mask)
            rows = [[(j, e) for j, e in enumerate(row) if e] for row in sub]
            oracle = sparse_perm_det(rows, zero)
            assert minor == oracle, IndexSet.from_mask(mask)
            if not minor.is_zero():
                nonzero.add(mask)
        assert nonzero == expected
        assert len(list(builtin_minors.items_of_order(9))) == 220
        for mask in sorted(nonzero):
            minor = builtin_minors.minor(mask)
            verdict_ = classify_polynomial(minor)
            assert verdict_.kind is SignKind.MIXED, IndexSet.from_mask(mask)
            assert verdict_.pos_witness.is_strictly_positive()
            assert verdict_.neg_witness.is_strictly_positive()
            assert minor.eval_at(verdict_.pos_witness) > 0
            assert minor.eval_at(verdict_.neg_witness) < 0


def test_criterion_4_point_sepr_agreement(builtin_matrix):
    with verdict(4, "sepr-sequence at 100 seeded positive points is {0,+,-} "
                    "at orders 3, 6, 9 and {0} elsewhere"):
        expected = tuple(FULL if k in (3, 6, 9) else ZERO_ONLY for k in range(1, 13))
        rng = Lcg64(20240823)
        for _ in range(100):
            point = rng.point(builtin_matrix.table)
            assert sepr_at_point(builtin_matrix, point) == expected


def test_criterion_5_determinant_oracle():
    with verdict(5, "family-sum determinant engine matches the Leibniz oracle on "
                    "200+ random matrices (n <= 5)"):
        table = VariableTable()
        rng = random.Random(20240601)
        for _ in range(210):
            n = rng.randint(1, 5)
            grid = random_int_grid(rng, n)
            m = SymMatrix(table, constant_matrix(table, grid))
            reference = leibniz_det(grid)
            full = (1 << n) - 1
            assert principal_minor(m, full) == reference
            assert principal_minor(transposed(m), full) == reference
            if n >= 2:
                i, j = rng.sample(range(n), 2)
                swapped = [list(row) for row in grid]
                swapped[i], swapped[j] = swapped[j], swapped[i]
                m_swapped = SymMatrix(table, constant_matrix(table, swapped))
                assert principal_minor(m_swapped, full) == -reference


def test_criterion_6_property_batteries(builtin_matrix, builtin_minors):
    with verdict(6, "ring/evaluation/division properties and certificate "
                    "soundness sampling hold"):
        table = VariableTable(["u", "v", "w"])
        rng = random.Random(616)
        for _ in range(60):
            p = random_polynomial(rng, table)
            q = random_polynomial(rng, table)
            r = random_polynomial(rng, table)
            x = random_positive_point(rng, table)
            assert p + q == q + p and p * q == q * p
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p + (-p) == 0 and p * 1 == p
            assert (p + q).eval_at(x) == p.eval_at(x) + q.eval_at(x)
            assert (p * q).eval_at(x) == p.eval_at(x) * q.eval_at(x)
            if not q.is_zero():
                quo, rem = reduce_by(p, q)
                assert quo * q + rem == p
                if abs(q.leading_coefficient()) == 1:
                    lead = q.leading_monomial()
                    assert all(not monomial_divides(lead, mono) for mono, _ in rem.terms())

        # all-positive coefficients force positive values
        pos = parse_entry("2*u*v + w^2 + 3", table)
        for _ in range(100):
            assert pos.eval_at(random_positive_point(rng, table)) > 0

        # certificate soundness on 300+ points, every sign(D) case covered
        _, _, cert = certify_level(builtin_matrix, 9, builtin_minors)
        mtable = builtin_matrix.table
        points = [random_positive_point(rng, mtable) for _ in range(320)]
        i_b1, i_b2 = mtable.index("b1"), mtable.index("b2")
        i_b3, i_b4 = mtable.index("b3"), mtable.index("b4")
        for _ in range(80):
            free = random_positive_point(rng, mtable)
            values = list(free.values)
            values[i_b4] = values[i_b2] * values[i_b3] / values[i_b1]
            points.append(RationalPoint(mtable, tuple(values)))
        cases = {sign_str(cert.pivot.eval_at(pt)) for pt in points}
        assert cases == {"+", "-", "0"}
        assert certificate_mismatches(cert, points) == []


def test_criterion_7_cli_determinism(tmp_path):
    with verdict(7, "verify-paper --format json --seed 0 is byte-identical "
                    "across runs, matches the recorded report and exits 0"):
        args = [sys.executable, "-m", "seprkit", "verify-paper",
                "--format", "json", "--seed", "0"]
        first = subprocess.run(args, capture_output=True)
        second = subprocess.run(args, capture_output=True)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty
        document = json.loads(first.stdout)
        assert document["overall"] == "PASS"
        reference = Path(__file__).parents[1] / "perfbench" / "reference.json"
        recorded = json.loads(reference.read_text(encoding="utf-8"))["builtin:verify-paper-json"]
        assert hashlib.sha256(first.stdout).hexdigest() == recorded
