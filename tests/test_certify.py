"""Case-split certificates and the end-to-end claim verification."""

import json
import math
import random
import re

import pytest

from seprkit import (
    CoeffSignSummary,
    IndexSet,
    Polynomial,
    RationalPoint,
    SymMatrix,
    VariableTable,
    all_principal_minors,
    analyze,
    certify_level,
    check_case_rule,
    check_expected,
    discover_pivots,
    matrix_from_document,
    parse_entry,
    sepr_at_point,
    verify_paper_claims,
)
from seprkit.certify import (
    FAIL,
    INCONCLUSIVE,
    METHOD_ALL_ZERO,
    METHOD_CONSTANT_SIGN,
    METHOD_PIVOT,
    METHOD_SAMPLING,
    PASS,
    VerificationReport,
)
from seprkit.minors import MAX_ENUM_DIM, MinorTable
from seprkit.symmatrix import PAPER_MATRIX_DOCUMENT
from _oracles import (
    case_rule_reference,
    certificate_mismatches,
    certify_level_reference,
    random_polynomial,
    random_positive_point,
    sign_str,
)

SIZE9_SUBSETS = [IndexSet.of({1, 2, j} | set(range(7, 13)), 12) for j in (3, 4, 5, 6)]


def pivot_poly(table):
    return parse_entry("b1*b4 - b2*b3", table)


def mutated_document():
    doc = json.loads(json.dumps(PAPER_MATRIX_DOCUMENT))
    assert doc["entries"][7][4] == "b5"
    doc["entries"][7][4] = "-b5"  # flip the sign of the (8,5) entry
    return doc


@pytest.fixture(scope="module")
def mutated_report():
    return analyze(matrix_from_document(mutated_document()))


def random_signed_document(rng, n, density):
    """Each nonzero entry a fresh variable, negated with probability 0.4."""
    names = iter(f"x{i}" for i in range(1, n * n + 1))
    entries = [[("-" if rng.random() < 0.4 else "") + next(names)
                if rng.random() < density else "0" for _ in range(n)] for _ in range(n)]
    return {"n": n, "entries": entries}


# pivot-case-split at k = 3, where two all-positive minors join the certificate
PIVOT_WITH_CONSTANT_MINORS = {"n": 5, "entries": [
    ["-x1", "-x2", "0", "0", "x3"],
    ["x4", "x5", "-x6", "-x7", "x8"],
    ["-x9", "x10", "-x11", "x12", "0"],
    ["0", "x13", "x14", "-x15", "-x16"],
    ["x17", "x18", "-x19", "0", "x20"],
]}


# ------------------------------------------------------------- case rules


def test_case_rule_on_the_four_nonzero_size9_minors(builtin_matrix, builtin_minors):
    D = pivot_poly(builtin_matrix.table)
    expected = {
        3: ("+", "-", "0"),
        4: ("-", "+", "0"),
        5: (None, "-", "-"),
        6: ("+", None, "+"),
    }
    for j, subset in zip((3, 4, 5, 6), SIZE9_SUBSETS):
        dec = check_case_rule(builtin_minors.minor(subset.mask()), D, subset)
        assert (dec.when_pos, dec.when_neg, dec.when_zero) == expected[j], j
        assert dec.identity_holds(D)
        assert dec.q * D + dec.r == dec.minor
    # the j=3 quotient is the positive monomial from the claim
    dec3 = check_case_rule(builtin_minors.minor(SIZE9_SUBSETS[0].mask()), D)
    assert str(dec3.q) == "a1*a2*a3*b8*c1*c2*c3"
    assert dec3.r.is_zero()


def test_case_rule_constant_sign_shortcut(builtin_matrix, builtin_minors):
    D = pivot_poly(builtin_matrix.table)
    pos_minor = builtin_minors.minor(IndexSet.of([1, 7, 10], 12).mask())
    dec = check_case_rule(pos_minor, D)
    assert (dec.when_pos, dec.when_neg, dec.when_zero) == ("+", "+", "+")
    neg_minor = builtin_minors.minor(IndexSet.of([4, 9, 12], 12).mask())
    dec = check_case_rule(neg_minor, D)
    assert (dec.when_pos, dec.when_neg, dec.when_zero) == ("-", "-", "-")
    zero_minor = builtin_minors.minor(IndexSet.of([1, 2, 3], 12).mask())
    dec = check_case_rule(zero_minor, D)
    assert (dec.when_pos, dec.when_neg, dec.when_zero) == ("0", "0", "0")


def test_case_rule_rejects_zero_pivot():
    table = VariableTable(["x"])
    x = Polynomial.variable(table, "x")
    with pytest.raises(ValueError, match="zero pivot"):
        check_case_rule(x, Polynomial.zero(table))


def test_case_rule_matches_the_sign_table():
    # m = q*D + r for random q, r and pivot D, over three variables
    rng = random.Random(77)
    table = VariableTable(["x", "y", "z"])
    seen = set()
    for _ in range(600):
        D = random_polynomial(rng, table, max_terms=3, max_degree=2)
        if D.degree < 1:
            continue
        m = random_polynomial(rng, table) * D + random_polynomial(rng, table)
        got, want = check_case_rule(m, D), case_rule_reference(m, D)
        assert (got.q, got.r, got.when_pos, got.when_neg, got.when_zero) == \
            (want.q, want.r, want.when_pos, want.when_neg, want.when_zero)
        if m.coeff_sign_summary() is CoeffSignSummary.MIXED_SIGNS:
            seen.add((got.q.coeff_sign_summary(), got.r.coeff_sign_summary()))
    # every pair of summaries of q and r that a mixed m can have: q = 0
    # leaves r = m mixed, and any other q goes with any r
    assert len(seen) == 13


def test_case_rule_concluded_accessor(builtin_matrix, builtin_minors):
    D = pivot_poly(builtin_matrix.table)
    dec = check_case_rule(builtin_minors.minor(SIZE9_SUBSETS[0].mask()), D)
    assert dec.concluded("D>0") == "+"
    assert dec.concluded("D<0") == "-"
    assert dec.concluded("D=0") == "0"
    with pytest.raises(ValueError):
        dec.concluded("D>=0")


# ------------------------------------------------------------------ pivots


def test_discover_pivots_on_size9_minors(builtin_minors):
    nonzero = [builtin_minors.minor(s.mask()) for s in SIZE9_SUBSETS]
    candidates = discover_pivots(nonzero)
    assert [str(c) for c in candidates] == [
        "b1*b4 - b2*b3",
        "b1*b4*b10 - b1*b5*b7 - b2*b3*b10",
        "b1*b4*b11 + b1*b6*b7 - b2*b3*b11",
    ]
    assert all(c.degree >= 1 for c in candidates)
    assert all(c.leading_coefficient() > 0 for c in candidates)


def test_discover_pivots_skips_constant_sign_polynomials():
    table = VariableTable(["x", "y"])
    x = Polynomial.variable(table, "x")
    y = Polynomial.variable(table, "y")
    assert discover_pivots([x + y, -x - y, Polynomial.zero(table)]) == []
    # shared primitive part appears once; sign normalization folds the pair
    assert discover_pivots([x * (x - y), y * y * (y - x)]) == [x - y]


# ----------------------------------------------------------- level results


def test_certify_level_results_for_builtin_matrix(builtin_matrix, builtin_minors):
    full = frozenset("0+-")
    for k in (1, 2, 4, 5, 7, 8, 10, 11, 12):
        guaranteed, method, cert = certify_level(builtin_matrix, k, builtin_minors)
        assert (guaranteed, method, cert) == (frozenset("0"), METHOD_ALL_ZERO, None)
    for k in (3, 6):
        guaranteed, method, cert = certify_level(builtin_matrix, k, builtin_minors)
        assert guaranteed == full and method == METHOD_CONSTANT_SIGN and cert is None
    guaranteed, method, cert = certify_level(builtin_matrix, 9, builtin_minors)
    assert guaranteed == full
    assert method == METHOD_PIVOT
    assert cert is not None and cert.k == 9
    assert cert.pivot == pivot_poly(builtin_matrix.table)
    assert cert.guaranteed == full
    assert cert.verify_identities()
    assert [dec.subset for dec in cert.decompositions] == SIZE9_SUBSETS
    # each non-0 guaranteed sign is concluded in every case
    assert cert.signs_concluded_everywhere() >= frozenset("+-")


def test_certify_level_checks_the_order_before_enumerating(builtin_matrix, builtin_minors):
    for k in (0, 13):
        with pytest.raises(ValueError, match=f"order {k} out of range 1..12"):
            certify_level(builtin_matrix, k, builtin_minors)
    # the order is checked before the walk over the order's minors: with an
    # empty table that walk would conclude a level for any k, and a matrix
    # this size cannot be enumerated at all
    table = VariableTable()
    n = MAX_ENUM_DIM + 1
    zero = Polynomial.zero(table)
    too_big = SymMatrix(table, [[zero] * n for _ in range(n)])
    for k in (0, n + 1):
        with pytest.raises(ValueError, match=f"order {k} out of range 1..{n}"):
            certify_level(too_big, k, MinorTable(n, {}, zero))


def test_certify_level_matches_the_exhaustive_reference():
    rng = random.Random(515)
    documents = [PAPER_MATRIX_DOCUMENT, mutated_document(), PIVOT_WITH_CONSTANT_MINORS]
    documents += [random_signed_document(rng, n, density)
                  for n in (3, 4, 5) for density in (0.4, 1.0) for _ in range(8)]
    methods = set()
    pivot_beside_constant_minors = False
    for document in documents:
        matrix = matrix_from_document(document)
        minors = all_principal_minors(matrix)
        for k in range(1, matrix.n + 1):
            got = certify_level(matrix, k, minors)
            want = certify_level_reference(matrix, k, minors)
            assert (got.guaranteed, got.method) == (want.guaranteed, want.method), (document, k)
            assert (got.certificate is None) == (want.certificate is None), (document, k)
            if got.certificate is not None:
                assert got.certificate.to_document() == want.certificate.to_document()
                pivot_beside_constant_minors |= any(
                    dec.minor.coeff_sign_summary() is not CoeffSignSummary.MIXED_SIGNS
                    for dec in got.certificate.decompositions)
            methods.add(got.method)
    assert methods == {METHOD_ALL_ZERO, METHOD_CONSTANT_SIGN, METHOD_PIVOT, METHOD_SAMPLING}
    assert pivot_beside_constant_minors


def test_certificate_soundness_on_sampled_and_projected_points(builtin_matrix, builtin_minors):
    _, _, cert = certify_level(builtin_matrix, 9, builtin_minors)
    table = builtin_matrix.table
    rng = random.Random(606)
    points = [random_positive_point(rng, table) for _ in range(320)]

    # force coverage of the D = 0 case: substitute b4 := b2*b3/b1, which
    # zeroes the pivot exactly while keeping every variable positive
    i_b1, i_b2 = table.index("b1"), table.index("b2")
    i_b3, i_b4 = table.index("b3"), table.index("b4")
    for _ in range(120):
        free = random_positive_point(rng, table)
        values = list(free.values)
        values[i_b4] = values[i_b2] * values[i_b3] / values[i_b1]
        points.append(RationalPoint(table, tuple(values)))

    buckets = {"+": 0, "-": 0, "0": 0}
    for point in points:
        buckets[sign_str(cert.pivot.eval_at(point))] += 1
    assert buckets["+"] >= 100 and buckets["-"] >= 100 and buckets["0"] >= 120

    assert certificate_mismatches(cert, points) == []


def test_guaranteed_sets_are_observed_at_every_sampled_point(builtin_matrix, builtin_minors):
    levels = [certify_level(builtin_matrix, k, builtin_minors) for k in range(1, 13)]
    rng = random.Random(99)
    for _ in range(20):
        point = random_positive_point(rng, builtin_matrix.table)
        sequence = sepr_at_point(builtin_matrix, point)
        for k, (guaranteed, _, _) in enumerate(levels, start=1):
            assert guaranteed <= sequence[k], k


# ------------------------------------------------------------ verification


def test_verify_claims_default_run():
    report = verify_paper_claims()
    assert report.overall == PASS
    assert [c.status for c in report.claims] == [PASS, PASS, PASS]
    assert [c.name for c in report.claims] == ["zero-levels", "full-levels", "mixed-size-9"]
    assert len(report.sepr) == 12
    methods = [level.method for level in report.sepr]
    assert methods[2] == METHOD_CONSTANT_SIGN
    assert methods[5] == METHOD_CONSTANT_SIGN
    assert methods[8] == METHOD_PIVOT
    assert all(m == METHOD_ALL_ZERO for i, m in enumerate(methods) if i not in (2, 5, 8))
    nine = report.sepr.level(9)
    assert nine.class_counts == {"zero": 216, "pos": 0, "neg": 0, "mixed": 4, "unresolved": 0}


def test_verify_claims_with_budget_one_is_inconclusive():
    report = verify_paper_claims(budget=1)
    by_name = {c.name: c for c in report.claims}
    assert by_name["zero-levels"].status == PASS
    assert by_name["full-levels"].status == PASS  # exact methods ignore budget
    assert by_name["mixed-size-9"].status == INCONCLUSIVE
    assert report.overall == INCONCLUSIVE
    assert report.sepr.level(9).class_counts["unresolved"] == 4


def test_verify_claims_reports_failures_of_a_mutated_matrix(mutated_report):
    claims = check_expected(mutated_report, PAPER_MATRIX_DOCUMENT["expected"])
    by_name = {c.name: c for c in claims}
    assert by_name["zero-levels"].status == PASS  # the zero pattern is untouched
    assert by_name["full-levels"].status == FAIL
    assert VerificationReport(12, 0, 1000, claims, mutated_report).overall == FAIL
    # the mutation breaks the D=0 half of the case split: nothing concludes
    # a negative sign there, so order 9 degrades to sampling-only
    mutated = matrix_from_document(mutated_document())
    guaranteed, method, cert = certify_level(mutated, 9, mutated_report.minors)
    assert method == METHOD_SAMPLING
    assert cert is None
    assert guaranteed == frozenset("0")


def test_verify_claims_rejects_a_matrix_of_another_size():
    # the paper's data fit n = 12 only; a 2x2 zero matrix once read PASS
    zero = matrix_from_document({"n": 2, "entries": [["0", "0"], ["0", "0"]]})
    with pytest.raises(ValueError, match=r"has 12 orders, but the matrix has n=2"):
        check_expected(analyze(zero), PAPER_MATRIX_DOCUMENT["expected"])


# minors: {1,3} = -a*c, {2,3} = b*d, det = 0
SMALL_DOCUMENT = {
    "n": 3,
    "entries": [["0", "0", "a"], ["0", "0", "-b"], ["c", "d", "0"]],
    "expected": {"sepr": [["0"], ["0", "+", "-"], ["0"]], "mixed_orders": []},
}


def test_check_expected_on_a_small_matrix():
    report = analyze(matrix_from_document(SMALL_DOCUMENT))
    claims = check_expected(report, SMALL_DOCUMENT["expected"])
    assert [(c.name, c.status, c.details) for c in claims] == [
        ("zero-levels", PASS, "every minor of order 1,3 is identically zero"),
        ("full-levels", PASS, "k=2: constant-sign"),
    ]

    changed = {"sepr": [["0"], ["0"], ["0"]], "mixed_orders": [1, 2]}
    claims = check_expected(report, changed)
    assert [(c.name, c.status, c.details) for c in claims] == [
        ("zero-levels", FAIL, "order 2: 2 nonzero minor(s)"),
        ("mixed-size-1", FAIL, "no nonzero size-1 minor"),
        ("mixed-size-2", FAIL, "{1,3}: classified Neg; {2,3}: classified Pos"),
    ]
    changed = {"sepr": [["0", "+", "-"], ["0", "+", "-"], ["0"]], "mixed_orders": []}
    [_, full] = check_expected(report, changed)
    assert full.status == FAIL
    assert full.details == "k=1: method all-zero, guaranteed {0}; k=2: constant-sign"


@pytest.mark.parametrize("expected, message", [
    ({"sepr": [["0"], ["0", "+"], ["0"]], "mixed_orders": []}, "only {0} and {0,+,-}"),
    ({"sepr": [["0"], ["0", "+", "-"], ["0"]], "mixed_orders": [4]}, "[4] out of range 1..3"),
    ([["0"], ["0", "+", "-"], ["0"]], "must be a mapping"),
    ({"mixed_orders": []}, '"sepr" must be a list of lists'),
    ({"sepr": [["0"], ["0", "+", "-"], ["0"]]}, '"mixed_orders" must be a list of integers'),
    ({"sepr": [["0"], ["0", "+", "-"], ["0"]], "mixed_orders": 2}, '"mixed_orders" must be'),
    ({"sepr": [["0"], ["0", "+", "-"], ["0"]], "mixed_orders": ["2"]}, '"mixed_orders" must be'),
    ({"sepr": [["0"], ["0", "+", "-"], ["0"]], "mixed_orders": [True]}, '"mixed_orders" must be'),
    ({"sepr": ["0", "0+-", "0"], "mixed_orders": []}, '"sepr" must be a list of lists'),
])
def test_check_expected_rejects_data_it_cannot_check(expected, message):
    report = analyze(matrix_from_document(SMALL_DOCUMENT))
    with pytest.raises(ValueError, match=re.escape(message)):
        check_expected(report, expected)


def test_mutated_matrix_size9_minors_still_take_both_signs(mutated_report):
    # the flipped entry changes one polynomial but not its mixed behavior
    claims = check_expected(mutated_report, PAPER_MATRIX_DOCUMENT["expected"])
    by_name = {c.name: c for c in claims}
    assert by_name["mixed-size-9"].status == PASS
    changed = mutated_report.minors.minor(SIZE9_SUBSETS[2].mask())
    assert "b1*b5*b7" in str(changed)


def test_report_document_layout():
    report = verify_paper_claims()
    doc = report.to_document()
    assert list(doc) == ["overall", "n", "seed", "budget", "claims", "sepr", "certificates"]
    assert doc["overall"] == "PASS"
    assert doc["n"] == 12 and doc["seed"] == 0 and doc["budget"] == 1000
    assert [row["k"] for row in doc["sepr"]] == list(range(1, 13))
    for row in doc["sepr"]:
        assert list(row["class_counts"]) == ["zero", "pos", "neg", "mixed", "unresolved"]
        assert sum(row["class_counts"].values()) == math.comb(12, row["k"])
    assert doc["sepr"][8]["guaranteed"] == ["0", "+", "-"]
    assert doc["sepr"][0]["guaranteed"] == ["0"]
    [certificate] = doc["certificates"]
    assert certificate["k"] == 9
    assert certificate["pivot"] == "b1*b4 - b2*b3"
    assert len(certificate["decompositions"]) == 4
    first = certificate["decompositions"][0]
    assert first["subset"] == "{1,2,3,7,8,9,10,11,12}"
    assert first["cases"] == {"D>0": "+", "D<0": "-", "D=0": "0"}
    # serialization is deterministic
    assert json.dumps(doc) == json.dumps(verify_paper_claims().to_document())


def test_report_text_rendering():
    report = verify_paper_claims()
    text = report.render_text()
    assert "pivot D = b1*b4 - b2*b3" in text
    assert "[PASS] zero-levels" in text
    assert "overall: PASS" in text
    assert text.count("\n") > 15
