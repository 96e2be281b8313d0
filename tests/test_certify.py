"""Case-split certificates and the end-to-end claim verification."""

import copy
import heapq
import json
import math
import pickle
import random
import re
import types
from fractions import Fraction
from unittest import mock

import pytest

from seprkit import (
    CaseDecomposition,
    Certificate,
    ClaimResult,
    CoeffSignSummary,
    IndexSet,
    LevelCertification,
    LevelSummary,
    Polynomial,
    RationalPoint,
    SignClass,
    SignKind,
    SymMatrix,
    VariableTable,
    all_principal_minors,
    analyze,
    certify_level,
    check_expected,
    classify_polynomial,
    discover_pivots,
    matrix_from_document,
    parse_entry,
    reduce_by,
    sepr_at_point,
    verify_paper_claims,
)
from seprkit.certify import (
    _CONSTANT_SIGN,
    _decompose,
    FAIL,
    INCONCLUSIVE,
    METHOD_ALL_ZERO,
    METHOD_CONSTANT_SIGN,
    METHOD_PIVOT,
    METHOD_SAMPLING,
    PASS,
    SeprReport,
    VerificationReport,
)
from seprkit.minors import MAX_ENUM_DIM, MinorTable
from seprkit.symmatrix import PAPER_MATRIX_DOCUMENT
from _oracles import (
    case_rule_reference,
    certificate_mismatches,
    certify_level_reference,
    monomial_divides,
    pivot_candidates_reference,
    random_entry_document,
    random_polynomial,
    random_positive_point,
    reduce_by_reference,
    sign_str,
)

SIZE9_SUBSETS = [IndexSet.of({1, 2, j} | set(range(7, 13)), 12) for j in (3, 4, 5, 6)]


def decompose(m, D, mask):
    """The decomposition ``certify_level`` makes of minor ``mask``, m, by the
    pivot D, m's own sign read off its coefficients."""
    return _decompose(mask, m, _CONSTANT_SIGN.get(m.coeff_sign_summary()), *reduce_by(m, D))


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

# the same with row 3 doubled: the winning pivot is 2*x11*x15 - 2*x12*x14
PIVOT_WITH_CONSTANT_MINORS_ROW3_DOUBLED = {"n": 5, "entries": [
    row if i != 2 else ["-2*x9", "2*x10", "-2*x11", "2*x12", "0"]
    for i, row in enumerate(PIVOT_WITH_CONSTANT_MINORS["entries"])]}

# the 3-minors on {1,2,3} and {1,2,4} are u and v times x*w - y*z
SHARED_FACTOR = {"n": 4, "entries": [
    ["x", "y", "0", "0"],
    ["z", "w", "0", "0"],
    ["0", "0", "u", "0"],
    ["0", "0", "0", "v"],
]}

# the 2-minors on {1,2} and {1,3} are x^2 - y^2 and x^2 - z^2
SHARED_LEADING_TERM = {"n": 3, "entries": [["x", "y", "z"], ["y", "x", "0"], ["z", "0", "x"]]}


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
        dec = decompose(builtin_minors.minor(subset.mask()), D, subset.mask())
        assert dec.cases == expected[j], j
        assert dec.identity_holds(D)
        assert dec.q * D + dec.r == dec.minor
        assert dec.to_document()["subset"] == str(subset)
    # the j=3 quotient is the positive monomial from the claim
    mask3 = SIZE9_SUBSETS[0].mask()
    dec3 = decompose(builtin_minors.minor(mask3), D, mask3)
    assert str(dec3.q) == "a1*a2*a3*b8*c1*c2*c3"
    assert dec3.r.is_zero()


def test_case_rule_constant_sign_shortcut(builtin_matrix, builtin_minors):
    D = pivot_poly(builtin_matrix.table)
    for indices, sign in (([1, 7, 10], "+"), ([4, 9, 12], "-"), ([1, 2, 3], "0")):
        mask = IndexSet.of(indices, 12).mask()
        dec = decompose(builtin_minors.minor(mask), D, mask)
        assert dec.cases == (sign,) * 3, indices


def test_case_rule_quotient_zero_shortcut():
    # q = 0 leaves r = m: the rule concludes m's own sign in every case
    table = VariableTable(["x", "y", "z"])
    x, y, z = (Polynomial.variable(table, name) for name in "xyz")
    for m, sign in ((x * y - z, None), (y + z, "+"), (-y, "-")):
        dec = decompose(m, x * x - y, 0b101)
        assert (dec.q, dec.r, dec.cases) == (0, m, (sign,) * 3)
        assert dec == case_rule_reference(m, x * x - y, 0b101)


def test_case_rule_rejects_zero_pivot():
    table = VariableTable(["x"])
    x = Polynomial.variable(table, "x")
    with pytest.raises(ValueError, match="zero divisor"):
        decompose(x, Polynomial.zero(table), 1)


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
        got = decompose(m, D, 1)
        assert got == case_rule_reference(m, D, 1)
        if m.coeff_sign_summary() is CoeffSignSummary.MIXED_SIGNS:
            seen.add((got.q.coeff_sign_summary(), got.r.coeff_sign_summary()))
    # every pair of summaries of q and r that a mixed m can have: q = 0
    # leaves r = m mixed, and any other q goes with any r
    assert len(seen) == 13


def test_case_rule_concluded_accessor(builtin_matrix, builtin_minors):
    D = pivot_poly(builtin_matrix.table)
    mask = SIZE9_SUBSETS[0].mask()
    dec = decompose(builtin_minors.minor(mask), D, mask)
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


def test_discover_pivots_orders_a_shared_leading_term_by_the_full_text():
    # candidates that share a leading term, or whose leading term's text
    # is a prefix of another's, still sort by their full text
    table = VariableTable(["x", "y", "z", "w"])
    x, y, z, w = (Polynomial.variable(table, name) for name in "xyzw")
    minors = [x * y - z, z * (x * y - z), -(x * y - z), x * y - w, x * y - 2 * z,
              x * y * z - w, x - y, 2 * x * y - z, y * (x ** 2 - w), x ** 2 * y - z]
    want = ["2*x*y - z", "x - y", "x*y - 2*z", "x*y - w", "x*y - z", "x*y*z - w",
            "x^2 - w", "x^2*y - z"]
    assert [str(p) for p in discover_pivots(minors)] == want == sorted(want)
    # against deduplicated primitive parts sorted by their text, on random
    # polynomials over two variables, where leading terms often coincide
    rng = random.Random(1414)
    small = VariableTable(["x", "y"])
    for _ in range(200):
        polys = [random_polynomial(rng, small, max_terms=3, max_degree=2) for _ in range(6)]
        mixed = [p for p in polys if p.coeff_sign_summary() is CoeffSignSummary.MIXED_SIGNS]
        assert discover_pivots(polys) == [p for p, _ in pivot_candidates_reference(mixed)]


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
    assert [dec.mask for dec in cert.decompositions] == [s.mask() for s in SIZE9_SUBSETS]
    # each non-0 guaranteed sign is concluded in every case
    for signs in zip(*(dec.cases for dec in cert.decompositions)):
        assert set(signs) >= set("+-")


def test_a_won_level_divides_each_minor_by_the_pivot_once(
        monkeypatch, builtin_matrix, builtin_minors):
    # the decompositions that test the winning pivot are its certificate:
    # a trial divides each minor where lead(D) cancels a term, owners of
    # the candidate included, and one where it cancels none gives (0, m)
    # and is divided only once the pivot has won, like a constant-sign minor
    constant = matrix_from_document(PIVOT_WITH_CONSTANT_MINORS)
    constant_minors = all_principal_minors(constant)
    calls = []

    def counting_reduce_by(m, D):
        calls.append((m, D))
        return reduce_by(m, D)

    monkeypatch.setattr("seprkit.certify.reduce_by", counting_reduce_by)
    level = certify_level(builtin_matrix, 9, builtin_minors)
    assert level.method == METHOD_PIVOT
    # lead(D) = b1*b4 cancels a term of each of the four size-9 minors, of
    # which j = 3 and j = 4 own the pivot
    assert calls == [(builtin_minors.minor(s.mask()), level.certificate.pivot)
                     for s in SIZE9_SUBSETS]
    calls.clear()
    level3 = certify_level(constant, 3, constant_minors)
    assert level3.method == METHOD_PIVOT
    assert len(calls) == 10
    monkeypatch.undo()
    owners = 0
    for won in (level, level3):
        pivot = won.certificate.pivot
        for dec in won.certificate.decompositions:
            assert (dec.q, dec.r) == reduce_by(dec.minor, pivot)
            assert dec == case_rule_reference(dec.minor, pivot, dec.mask)
            if dec.minor.primitive_part() == pivot:
                owners += 1
                assert dec.r.is_zero() and dec.q.num_terms() == 1
                assert dec.cases == (("+", "-", "0") if dec.q.leading_coefficient() > 0
                                     else ("-", "+", "0"))
    assert owners == 3


def test_reduce_by_matches_the_reference_on_every_dense_minor_and_candidate():
    # With a distinct variable in every entry, a candidate's leading
    # monomial occurs in no minor on another subset, so most trial divisions
    # cancel nothing and come out of reduce_by's loop as (0, m); the minor's
    # own candidate divides it exactly.
    matrix = matrix_from_document(random_signed_document(random.Random(912), 5, 1.0))
    minors = all_principal_minors(matrix)
    taken = set()
    for k in range(1, 6):
        level = [m for _, m in minors.nonzero_of_order(k)]
        for pivot in discover_pivots(level):
            for m in level:
                q, r = reduce_by(m, pivot)
                assert (q, r) == reduce_by_reference(m, pivot)
                taken.add(q.is_zero())
    assert taken == {True, False}


def test_a_dense_level_builds_a_heap_only_for_divisions_that_divide(monkeypatch):
    # with a distinct variable in every entry, each candidate's only minor
    # that lead(D) can reduce is its owner, so no candidate can win case
    # D = 0: none is tried, and the search divides nothing and builds no heap
    matrix = matrix_from_document(random_signed_document(random.Random(913), 5, 1.0))
    minors = all_principal_minors(matrix)
    heaps, calls = [], []

    def counting_heapify(heap):
        heaps.append(len(heap))
        heapq.heapify(heap)

    def counting_reduce_by(m, D):
        calls.append((m, D))
        return reduce_by(m, D)

    monkeypatch.setattr("seprkit.polyring.heapq", types.SimpleNamespace(
        heapify=counting_heapify, heappop=heapq.heappop, heappush=heapq.heappush))
    monkeypatch.setattr("seprkit.certify.reduce_by", counting_reduce_by)
    assert certify_level(matrix, 3, minors).method == METHOD_SAMPLING
    # all ten 3-minors are mixed, and each is the only owner of its candidate
    assert len(discover_pivots([m for _, m in minors.nonzero_of_order(3)])) == 10
    assert calls == [] and heaps == []


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


def test_certify_level_refuses_the_minors_of_another_matrix_size(builtin_matrix):
    # only n is read off the matrix: the order-2 minor x^2 + y^2 of this
    # 2x2 matrix is positive, which must not become a {0,+} guarantee for
    # the 12x12 matrix's order 2, whose every minor is 0
    small = matrix_from_document({"n": 2, "entries": [["x", "y"], ["-y", "x"]]})
    minors = all_principal_minors(small)
    with pytest.raises(ValueError, match="minors of an n=2 matrix cannot certify one of n=12"):
        certify_level(builtin_matrix, 2, minors)
    assert certify_level(small, 2, minors) == (frozenset("+"), METHOD_CONSTANT_SIGN, None)


def search_cases(minors, k, level):
    """Which of the cases that the search must order or divide correctly
    occur among the candidates up to the winner (all of them on a level
    with no winner) on order k: several owners, leading terms of the same
    text, a lead that divides a term of higher degree, and a leading
    coefficient other than 1."""
    mixed = [m for _, m in minors.nonzero_of_order(k)
             if m.coeff_sign_summary() is CoeffSignSummary.MIXED_SIGNS]
    candidates = pivot_candidates_reference(mixed)
    if level.certificate is not None:
        texts = [str(pivot) for pivot, _ in candidates]
        candidates = candidates[:texts.index(str(level.certificate.pivot)) + 1]
    leads = [str(pivot).split(" ")[0] for pivot, _ in candidates]
    cases = set()
    if any(len(owners) > 1 for _, owners in candidates):
        cases.add("several owners")
    if len(set(leads)) < len(leads):
        cases.add("shared leading text")
    if any(-mono[0] > pivot.degree and monomial_divides(pivot.leading_monomial(), mono)
           for pivot, _ in candidates for m in mixed for mono, _ in m.terms()):
        cases.add("lead divides a higher term")
    if any(pivot.leading_coefficient() != 1 for pivot, _ in candidates):
        cases.add("leading coefficient not 1")
    return cases


def search_documents():
    """The matrices on which the pivot search is checked against the
    exhaustive reference."""
    rng = random.Random(515)
    documents = [PAPER_MATRIX_DOCUMENT, mutated_document(), PIVOT_WITH_CONSTANT_MINORS,
                 PIVOT_WITH_CONSTANT_MINORS_ROW3_DOUBLED, SHARED_FACTOR, SHARED_LEADING_TERM]
    documents += [random_signed_document(rng, n, density)
                  for n in (3, 4, 5) for density in (0.4, 1.0) for _ in range(8)]
    # repeated variables, constant entries and integer coefficients
    documents += [random_entry_document(rng, n, density, names)
                  for n in (3, 4) for density in (0.6, 1.0) for names in ("xy", "xyzw")
                  for _ in range(4)]
    return documents


def test_certify_level_matches_the_exhaustive_reference():
    methods, cases = set(), set()
    pivot_beside_constant_minors = False
    for document in search_documents():
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
            if got.method in (METHOD_PIVOT, METHOD_SAMPLING):
                cases |= search_cases(minors, k, got)
            methods.add(got.method)
    assert methods == {METHOD_ALL_ZERO, METHOD_CONSTANT_SIGN, METHOD_PIVOT, METHOD_SAMPLING}
    assert pivot_beside_constant_minors
    assert cases == {"several owners", "shared leading text", "lead divides a higher term",
                     "leading coefficient not 1"}


def test_the_search_tries_only_candidates_that_can_win_case_d_zero(monkeypatch):
    # In case D = 0 an owner of D has r = 0 and a minor that D does not
    # reduce has r = m, which is mixed, so a candidate that reduces no mixed
    # minor but its owners concludes neither + nor - there.  certify_level
    # divides by the other candidates only, in text order up to the winner.
    divisors = []

    def recording_reduce_by(m, D):
        if not divisors or divisors[-1] != str(D):
            divisors.append(str(D))
        return reduce_by(m, D)

    monkeypatch.setattr("seprkit.certify.reduce_by", recording_reduce_by)
    seen = set()
    for document in search_documents():
        matrix = matrix_from_document(document)
        minors = all_principal_minors(matrix)
        for k in range(1, matrix.n + 1):
            divisors.clear()
            level = certify_level(matrix, k, minors)
            if level.method not in (METHOD_PIVOT, METHOD_SAMPLING):
                continue
            nonzero = minors.nonzero_of_order(k)
            mixed = [m for _, m in nonzero
                     if m.coeff_sign_summary() is CoeffSignSummary.MIXED_SIGNS]
            missing = {"+", "-"} - {_CONSTANT_SIGN.get(m.coeff_sign_summary())
                                    for _, m in nonzero}
            tried = []
            for pivot, owners in pivot_candidates_reference(mixed):
                decs = [case_rule_reference(m, pivot, mask) for mask, m in nonzero]
                others = [m for m in mixed if not any(m is owner for owner in owners)]
                if all(reduce_by_reference(m, pivot)[0].is_zero() for m in others):
                    at_zero = {dec.concluded("D=0") for dec in decs
                               if dec.minor.coeff_sign_summary() is CoeffSignSummary.MIXED_SIGNS}
                    assert not at_zero & {"+", "-"}, (document, k, str(pivot))
                    seen.add("skipped")
                    continue
                tried.append(str(pivot))
                concluded = {"+", "-"}
                for case in ("D>0", "D<0", "D=0"):
                    concluded &= {dec.concluded(case) for dec in decs}
                if missing <= concluded:
                    assert level.certificate.pivot == pivot, (document, k)
                    seen.add("won")
                    break
                seen.add("lost")
            assert divisors == tried, (document, k)
    assert seen == {"skipped", "lost", "won"}


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


def test_analyze_rejects_a_budget_below_one_on_every_matrix():
    # a zero matrix has no minor to classify, so the check cannot be left
    # to the sampler; it comes before enumeration, for the paper's matrix too
    for entries in ([["0", "0"], ["0", "0"]], [["x", "0"], ["0", "-y"]]):
        matrix = matrix_from_document({"n": 2, "entries": entries})
        for budget in (0, -1):
            with pytest.raises(ValueError, match="budget must be at least 1"):
                analyze(matrix, budget=budget)
    with mock.patch("seprkit.certify.all_principal_minors",
                    side_effect=AssertionError("enumerated before the budget check")):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            verify_paper_claims(budget=0)


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
    ({"sepr": [["0"], ["0", "+", "-"], ["0"]], "mixed_orders": [2, 2]},
     '"mixed_orders" must not repeat an order'),
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


def test_mixed_claim_fails_on_witnesses_that_do_not_re_evaluate():
    # the claim re-evaluates each Mixed verdict's witnesses instead of
    # trusting the search: swapped witnesses of one size-9 minor fail it
    report = verify_paper_claims().sepr
    mask = SIZE9_SUBSETS[0].mask()
    verdict = report.classes[mask]
    assert verdict.kind is SignKind.MIXED
    swapped = SignClass(SignKind.MIXED, pos_witness=verdict.neg_witness,
                        neg_witness=verdict.pos_witness)
    report = SeprReport(report.levels, report.minors, {**report.classes, mask: swapped})
    claims = check_expected(report, PAPER_MATRIX_DOCUMENT["expected"])
    by_name = {c.name: c for c in claims}
    assert (by_name["mixed-size-9"].status, by_name["mixed-size-9"].details) == \
        (FAIL, "{1,2,3,7,8,9,10,11,12}: witness re-evaluation failed")
    assert VerificationReport(12, 0, 1000, claims, report).overall == FAIL


def test_points_verdicts_and_subsets_compare_as_values_and_refuse_assignment():
    table = VariableTable(["x", "y"])
    point = RationalPoint(table, (Fraction(1), Fraction(2, 3)))
    same = RationalPoint(table, (Fraction(1), Fraction(2, 3)))
    assert point == same and point is not same and hash(point) == hash(same)
    assert point != RationalPoint(table, (Fraction(1), Fraction(1)))
    text = point.render()
    assert text == "x=1 y=2/3" and point.render() is text
    assert repr(point) == "RationalPoint(x=1 y=2/3)"

    mixed = SignClass(SignKind.MIXED, pos_witness=point, neg_witness=same)
    assert mixed == SignClass(SignKind.MIXED, same, point)
    assert hash(mixed) == hash(SignClass(SignKind.MIXED, same, point))
    assert mixed != SignClass(SignKind.MIXED, pos_witness=point)
    assert repr(SignClass(SignKind.POS)) == \
        "SignClass(kind=<SignKind.POS: 'pos'>, pos_witness=None, neg_witness=None)"
    assert (mixed.label(), SignClass(SignKind.UNRESOLVED).label()) == ("Mixed", "Unresolved")
    # the witness-free verdicts are one object each
    for first, second, kind in (("0", "0*x", SignKind.ZERO), ("x", "2*x*y + y", SignKind.POS),
                                ("-y", "-x - 3", SignKind.NEG)):
        verdict = classify_polynomial(parse_entry(first, table))
        assert verdict.kind is kind
        assert classify_polynomial(parse_entry(second, table)) is verdict

    subset = IndexSet.of([3, 1], 4)
    assert subset == IndexSet((1, 3)) == IndexSet.from_mask(0b101)
    assert hash(subset) == hash(IndexSet.from_mask(0b101))
    assert (str(subset), subset.mask()) == ("{1,3}", 0b101)

    x = parse_entry("x", table)
    decomposition = CaseDecomposition(1, x, Polynomial.zero(table), x, ("+", "+", "+"))
    report = analyze(matrix_from_document({"n": 1, "entries": [["x"]]}))
    for value, name in ((point, "values"), (point, "_text"), (point, "extra"),
                        (mixed, "kind"), (mixed, "extra"), (report, "classes"),
                        (report, "extra"), (subset, "indices"), (decomposition, "q")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert point.render() is text and mixed.kind is SignKind.MIXED
    assert (copy.copy(point), copy.copy(mixed)) == (point, mixed)


def _tuple_records():
    # one instance of each public tuple record, with fields that compare as
    # values, so that a deep copy or an unpickled copy is equal
    table = VariableTable(["x", "y"])
    pivot = parse_entry("x - y", table)
    dec = decompose(pivot, pivot, 0b11)
    signs = frozenset({"+", "-"})
    certificate = Certificate(2, pivot, (dec,), signs)
    claim = ClaimResult("full-levels", PASS, "orders 2")
    return [IndexSet((1, 3)), dec, certificate,
            LevelCertification(signs, METHOD_PIVOT, certificate),
            LevelSummary(2, signs, METHOD_PIVOT, {"mixed": 1}, certificate),
            claim, VerificationReport(2, 0, 1000, (claim,), None)]


@pytest.mark.parametrize("record", _tuple_records(), ids=lambda record: type(record).__name__)
def test_tuple_records_refuse_new_attributes_and_survive_copy_and_pickle(record):
    cls = type(record)
    with pytest.raises(AttributeError):
        record.extra = None  # a subclass without __slots__ = () would take it
    for copied in (copy.copy(record), copy.deepcopy(record),
                   pickle.loads(pickle.dumps(record))):
        assert type(copied) is cls and copied == record
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, record))
    assert repr(record) == f"{cls.__name__}({fields})"


def test_reports_compare_copy_and_pickle_as_values(builtin_matrix):
    # a report's minor table compares by its minors and its witness points
    # by their tables' names, so equal work gives equal reports; a copied
    # table carries its sample stream, so a copied minor classifies alike,
    # its witnesses the copied report's own points on the copied table
    report = analyze(builtin_matrix)
    assert report == analyze(builtin_matrix)
    assert verify_paper_claims() == verify_paper_claims()
    mask = next(mask for mask, verdict in report.classes.items()
                if verdict.kind is SignKind.MIXED)
    for copied in (copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert copied == report
        table = copied.minors.minor(mask).table
        assert table is not builtin_matrix.table
        verdict = classify_polynomial(copied.minors.minor(mask))
        assert verdict == report.classes[mask]
        own = copied.classes[mask]
        assert verdict.pos_witness is own.pos_witness and verdict.neg_witness is own.neg_witness
        assert verdict.pos_witness.table is table
    x, y = (analyze(matrix_from_document({"n": 1, "entries": [[name]]})) for name in "xy")
    assert x.minors != y.minors and x != y

    values = (Fraction(1), Fraction(2, 3))
    point = RationalPoint(VariableTable(["x", "y"]), values)
    same = RationalPoint(VariableTable(["x", "y"]), values)
    assert point == same and hash(point) == hash(same)
    assert point != RationalPoint(VariableTable(["x", "z"]), values)


def test_level_summary_certificate_defaults_to_none():
    counts = {"zero": 1}
    assert LevelSummary(1, frozenset({"0"}), METHOD_ALL_ZERO, counts).certificate is None


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
