"""Seeded sampling, sign classification, and point sepr-sequences."""

import copy
import gc
import pickle
import random
import sys
import threading
import weakref
from fractions import Fraction
from math import comb
from unittest import mock

import pytest

from seprkit import (
    CoeffSignSummary,
    IndexSet,
    Lcg64,
    Polynomial,
    RationalPoint,
    SeprSequence,
    SignKind,
    SymMatrix,
    VariableTable,
    all_principal_minors,
    analyze,
    classify_polynomial,
    format_sign_set,
    matrix_from_document,
    minor_values_at,
    sepr_at_point,
)
from seprkit.orthant import _STORED_SAMPLES, _draw, _sample, _witness, sign_of
from _oracles import (
    LcgReference,
    classify_reference,
    leibniz_det,
    monomial,
    principal_subgrid,
    random_positive_point,
    sign_str,
)

S = frozenset
FULL = S("0+-")
ZERO_ONLY = S("0")


def poly(src, table):
    from seprkit import parse_entry
    return parse_entry(src, table)


def test_sign_of_fractions_and_ints():
    assert [sign_of(Fraction(n, d)) for n, d in [(3, 7), (-3, 7), (3, -7), (0, 5)]] == \
        ["+", "-", "-", "0"]
    assert [sign_of(v) for v in (12, -1, 0)] == ["+", "-", "0"]


# ------------------------------------------------------------------- RNG


def test_lcg_follows_the_published_recurrence():
    # consecutive points go on from the state the last one left
    table = VariableTable(["x", "y", "z"])
    rng, reference = Lcg64(7), LcgReference(7)
    assert [rng.point(table) for _ in range(3)] == [reference.point(table) for _ in range(3)]
    assert rng.state == reference.state


def test_lcg_fraction_and_point():
    table = VariableTable(["x", "y", "z"])
    us, vs, _ = _draw(0, 200)
    assert all(1 <= u <= 100 and 1 <= v <= 100 for u, v in zip(us, vs))
    point = Lcg64(3).point(table)
    assert len(point.values) == 3
    assert point.is_strictly_positive()
    assert Lcg64(3).point(table) == point  # same seed, same point
    assert Lcg64(4).point(table) != point
    assert point.values == tuple(map(Fraction, *_draw(3, 3)[:2]))


@pytest.mark.parametrize("seed", [0, 1, -1, 2 ** 64 - 1])
@pytest.mark.parametrize("count", [0, 1, 36, 200])
def test_lcg_pairs_are_draws_u_before_v(seed, count):
    # _draw inlines the recurrence; it must draw exactly what the reference
    # generator draws, u before v, and return the state it leaves, and
    # Lcg64.point must draw the same values and move to that state
    us, vs, state = _draw(Lcg64(seed).state, count)
    reference = LcgReference(seed)
    assert list(zip(us, vs)) == [(reference.draw(), reference.draw()) for _ in range(count)]
    assert state == reference.state
    rng = Lcg64(seed)
    assert rng.point(VariableTable([f"x{i}" for i in range(count)])).values == \
        tuple(map(Fraction, us, vs))
    assert rng.state == state


def test_negative_and_huge_seeds_are_masked():
    table = VariableTable(["x", "y"])
    assert Lcg64(-1).state == Lcg64(2 ** 64 - 1).state == 2 ** 64 - 1
    assert Lcg64(-1).point(table) == Lcg64(2 ** 64 - 1).point(table)
    # seeds equal mod 2^64 read one memoised sample, so one witness object
    x, y = Polynomial.variable(table, "x"), Polynomial.variable(table, "y")
    low, high = (classify_polynomial(x - y, seed=seed) for seed in (-1, 2 ** 64 - 1))
    assert low.kind is SignKind.MIXED
    assert low.pos_witness is high.pos_witness and low.neg_witness is high.neg_witness


def test_sign_kind_reads_looks_up_and_copies_as_an_enum():
    # value and name are read through plain getters; lookup, order, text,
    # pickle and copies behave as for any Enum
    expected = [("ZERO", "zero"), ("POS", "pos"), ("NEG", "neg"), ("MIXED", "mixed"),
                ("UNRESOLVED", "unresolved")]
    assert [(kind.name, kind.value) for kind in SignKind] == expected
    assert list(SignKind.__members__) == [name for name, _ in expected]
    for name, value in expected:
        kind = SignKind[name]
        assert SignKind(value) is kind and getattr(SignKind, name) is kind
        assert pickle.loads(pickle.dumps(kind)) is kind
        assert copy.deepcopy(kind) is kind and copy.copy(kind) is kind
        assert (repr(kind), str(kind)) == (f"<SignKind.{name}: {value!r}>", f"SignKind.{name}")
    assert classify_polynomial(Polynomial.zero(VariableTable())).kind.value == "zero"
    with pytest.raises(ValueError):
        SignKind("Pos")
    with pytest.raises(KeyError):
        SignKind["value"]


# ------------------------------------------------------------ classification


def test_classify_exact_cases():
    table = VariableTable(["a1", "a4", "b1", "b9", "c1", "c3"])
    # a zero minor, the common case, is decided before any coefficient test
    with mock.patch.object(Polynomial, "coeff_sign_summary", side_effect=AssertionError):
        assert classify_polynomial(Polynomial.zero(table)).kind is SignKind.ZERO
    assert classify_polynomial(poly("a1*b1*c1", table)).kind is SignKind.POS
    assert classify_polynomial(poly("-a4*b9*c3", table)).kind is SignKind.NEG
    # exact verdicts spend no sampling budget
    assert classify_polynomial(poly("a1", table), budget=1).kind is SignKind.POS


def test_classify_mixed_stores_verified_witnesses():
    table = VariableTable(["a1", "a2"])
    p = poly("a1 - a2", table)
    verdict = classify_polynomial(p)
    assert verdict.kind is SignKind.MIXED
    assert verdict.pos_witness.is_strictly_positive()
    assert verdict.neg_witness.is_strictly_positive()
    assert p.eval_at(verdict.pos_witness) > 0
    assert p.eval_at(verdict.neg_witness) < 0
    assert verdict.label() == "Mixed"


def test_classify_is_deterministic():
    table = VariableTable(["a1", "a2"])
    p = poly("a1 - a2", table)
    first = classify_polynomial(p, budget=50, seed=11)
    second = classify_polynomial(p, budget=50, seed=11)
    assert first == second
    assert first.pos_witness == second.pos_witness
    assert classify_polynomial(p, budget=50, seed=12) != first


def test_unresolved_is_a_first_class_verdict():
    table = VariableTable(["a1", "a2"])
    # (a1 - a2)^2 has mixed coefficients but is never negative; sampling
    # must leave it Unresolved rather than upgrade it to Pos
    square = poly("(a1 - a2) * (a1 - a2)", table)
    verdict = classify_polynomial(square, budget=60)
    assert verdict.kind is SignKind.UNRESOLVED
    assert verdict.neg_witness is None
    assert verdict.pos_witness is not None  # found the easy half
    # budget 1 leaves a genuinely mixed polynomial unresolved too
    one_shot = classify_polynomial(poly("a1 - a2", table), budget=1)
    assert one_shot.kind is SignKind.UNRESOLVED


def test_classify_rejects_nonpositive_budget():
    table = VariableTable(["a1"])
    with pytest.raises(ValueError):
        classify_polynomial(poly("a1", table), budget=0)


def sampled_polynomial(rng, table, never_negative):
    """A polynomial with coefficients of both signs over a random subset of
    ``table``'s variables, exponents up to 3; ``never_negative`` squares
    one of exponents up to 1 instead, so sampling finds no negative
    witness."""
    used = rng.sample(range(len(table)), rng.randint(1, len(table)))
    bound = 2 ** 20 if never_negative else 2 ** 40
    while True:
        terms = {}
        for _ in range(rng.randint(2, 6)):
            chosen = rng.sample(used, rng.randint(0, len(used)))
            exps = {index: rng.randint(1, 1 if never_negative else 3) for index in chosen}
            terms[monomial(exps)] = rng.choice([-1, 1]) * rng.randint(1, bound)
        p = Polynomial(table, terms)
        if never_negative:
            p = p * p
        if p.coeff_sign_summary() is CoeffSignSummary.MIXED_SIGNS:
            return p


def test_classify_matches_the_witness_stream_oracle():
    rng = random.Random(5151)
    cases = []  # (polynomial, budget, seed, never negative)
    for trial in range(150):
        table = VariableTable([f"x{i}" for i in range(rng.randint(2, 9))])
        never_negative = trial % 3 == 0
        cases.append((sampled_polynomial(rng, table, never_negative), rng.choice([1, 2, 5, 40]),
                      rng.choice([0, 1, 5, rng.getrandbits(64)]), never_negative))
    # (x0 - 1)^2 and x0 - 1 vanish on a sample with u = v for x0, and a
    # zero sample spends budget but witnesses nothing
    table = VariableTable(["x0", "x1"])
    zero_first = [seed for seed in range(1000)
                  if LcgReference(seed).point(table).values[0] == 1]
    for seed in zero_first[:3]:
        for text, never_negative in (("x0^2 - 2*x0 + 1", True), ("x0 - 1", False)):
            cases += [(poly(text, table), budget, seed, never_negative) for budget in (1, 2, 60)]
    outcomes = set()
    for trial, (p, budget, seed, never_negative) in enumerate(cases):
        verdict = classify_polynomial(p, budget=budget, seed=seed)
        kind, pos, neg = classify_reference(p, budget, seed)
        assert verdict.kind.value == kind, f"trial {trial}: {p}"
        assert (verdict.pos_witness, verdict.neg_witness) == (pos, neg), f"trial {trial}: {p}"
        assert [w and w.render() for w in (verdict.pos_witness, verdict.neg_witness)] == \
            [w and w.render() for w in (pos, neg)]
        if never_negative:
            assert neg is None
        outcomes.add((kind, pos is not None, neg is not None))
    assert outcomes == {("mixed", True, True), ("unresolved", True, False),
                        ("unresolved", False, True), ("unresolved", False, False)}


def test_classify_on_shared_tables_matches_the_witness_stream_oracle():
    # polynomials over a few tables, classified in interleaved order with
    # interleaved seeds, read the memoised samples of each (seed, length);
    # every verdict must still be the oracle's fresh generator per call,
    # also past the memoised samples and after a table gains a variable
    rng = random.Random(2626)
    seeds = [0, -1, 2 ** 64 - 1, rng.getrandbits(64)]
    past_bound = _STORED_SAMPLES + 20
    tables = [VariableTable([f"x{i}" for i in range(n)]) for n in (3, 6, 9)]

    def cases_over(table, count):
        cases = []
        for trial in range(count):
            never_negative = trial % 3 == 0
            budget = past_bound if trial % 6 == 0 else rng.choice([1, 2, 40])
            cases += [(sampled_polynomial(rng, table, never_negative), budget, seed,
                       never_negative) for seed in rng.sample(seeds, 2)]
        return cases

    def check(p, budget, seed, never_negative):
        verdict = classify_polynomial(p, budget=budget, seed=seed)
        kind, pos, neg = classify_reference(p, budget, seed)
        assert verdict.kind.value == kind, p
        assert (verdict.pos_witness, verdict.neg_witness) == (pos, neg), p
        assert [w and w.render() for w in (verdict.pos_witness, verdict.neg_witness)] == \
            [w and w.render() for w in (pos, neg)]
        if never_negative:
            assert neg is None
        return kind

    cases = [case for table in tables for case in cases_over(table, 12)]
    # negative only at one sample ten past the memoised ones: the loop must
    # go on drawing where the memo stopped, each sample from the last
    late = VariableTable(["y0", "y1"])
    y0, y1 = Polynomial.variable(late, "y0"), Polynomial.variable(late, "y1")
    for seed in seeds:
        generator = LcgReference(seed)
        drawn = [generator.point(late).values for _ in range(past_bound)]
        a, b = next(drawn[j] for j in range(_STORED_SAMPLES + 10, past_bound)
                    if drawn[j] not in drawn[:j])
        # 10^5 * (squared distance to (a, b), times denominators) - 1 is
        # at least 10 - 1 at every other sample
        p = 10 ** 5 * ((a.denominator * y0 - a.numerator) ** 2
                       + (b.denominator * y1 - b.numerator) ** 2) - 1
        assert classify_reference(p, past_bound, seed)[0] == "mixed"
        cases.append((p, past_bound, seed, False))
    rng.shuffle(cases)
    kinds = {check(*case) for case in cases}
    # a table that gains a variable draws longer points from then on, for
    # its old polynomials and its new ones alike
    grown = tables[1]
    old = [case for case in cases if case[0].table is grown]
    grown.add("late")
    later = old + cases_over(grown, 6)
    assert any("late" in str(case[0]) for case in later)
    rng.shuffle(later)
    kinds |= {check(*case) for case in later}
    assert kinds == {"mixed", "unresolved"}


def test_size_nine_primitive_pivot_polynomial_takes_both_signs():
    table = VariableTable(["b1", "b2", "b3", "b4"])
    p = poly("b1*b4 - b2*b3", table)
    verdict = classify_polynomial(p)
    assert verdict.kind is SignKind.MIXED
    assert p.eval_at(verdict.pos_witness) > 0 > p.eval_at(verdict.neg_witness)


def dense_document(rng, n):
    """Every entry a distinct, independently signed variable."""
    names = [f"x{i}" for i in range(n * n)]
    entries = [[("-" if rng.random() < 0.5 else "") + names[i * n + j] for j in range(n)]
               for i in range(n)]
    return {"n": n, "variables": names, "entries": entries}


def samples_used(p, budget, seed):
    """How many samples a fresh generator per call draws for p: up to its
    first sample of each sign, or the whole budget."""
    rng = LcgReference(seed)
    signs = set()
    for j in range(budget):
        signs.add(sign_of(p.eval_at(rng.point(p.table))))
        if {"+", "-"} <= signs:
            return j + 1
    return budget


def test_one_analysis_draws_each_sample_once():
    matrix = matrix_from_document(dense_document(random.Random(606), 6))
    _sample.cache_clear()  # no draws memoised by an earlier analysis
    with mock.patch("seprkit.orthant._draw", wraps=_draw) as draw:
        report = analyze(matrix, seed=3)
    sampled = [minor for minor in report.minors.entries.values()
               if minor.coeff_sign_summary() is CoeffSignSummary.MIXED_SIGNS]
    used = [samples_used(minor, 1000, 3) for minor in sampled]
    assert len(sampled) > 30 and sum(used) > 2 * max(used)
    # one draw of all 36 variables per sample, each drawn by the first
    # minor that needs it
    assert draw.call_count == max(used)
    assert {call.args[1] for call in draw.call_args_list} == {36}


def test_witnesses_of_one_sample_are_one_point_rendered_once():
    # a dense 6x6 analysis finds its many witnesses among a few samples;
    # each sample is one point whose text is built on the first render and
    # is that of a fresh point
    matrix = matrix_from_document(dense_document(random.Random(606), 6))
    _witness.cache_clear()  # no points rendered by an earlier test
    report = analyze(matrix, seed=3)
    witnesses = [w for verdict in report.classes.values()
                 for w in (verdict.pos_witness, verdict.neg_witness) if w is not None]
    by_values = {}
    for witness in witnesses:
        assert by_values.setdefault(witness.values, witness) is witness
    assert len(witnesses) > 4 * len(by_values)
    with mock.patch.object(RationalPoint, "items", autospec=True,
                           side_effect=RationalPoint.items) as items:
        texts = [witness.render() for witness in witnesses]
    assert items.call_count == len(by_values)
    assert texts == [RationalPoint(matrix.table, w.values).render() for w in witnesses]
    # the memo keeps its points once no verdict holds them: after the
    # report is dropped, the minor's verdict is again that point, which
    # still holds the text rendered above
    mask, verdict = next((mask, verdict) for mask, verdict in report.classes.items()
                         if verdict.kind is SignKind.MIXED)
    minor, text = report.minors.minor(mask), verdict.pos_witness.render()
    del report, witnesses, by_values, witness, items, verdict  # the mock records its calls
    gc.collect()
    again = classify_polynomial(minor, seed=3)
    assert again.kind is SignKind.MIXED and again.pos_witness.render() is text


def test_a_point_evaluated_matrix_copies_and_pickles_with_its_plan(builtin_matrix):
    # the point plan that sepr_at_point keeps on a matrix is plain data, so
    # the matrix still pickles and deep-copies, and the copy gives the same
    # sepr-sequence at the same point
    rng = random.Random(2626)
    dense = matrix_from_document({"n": 6, "entries": [
        [str(rng.choice([-1, 1]) * rng.randint(1, 9)) for _ in range(6)] for _ in range(6)]})
    for matrix in (builtin_matrix, dense):
        point = random_positive_point(rng, matrix.table)
        text = str(sepr_at_point(matrix, point))
        assert matrix._point_plan is not None
        for copied in (pickle.loads(pickle.dumps(matrix)), copy.deepcopy(matrix)):
            assert copied == matrix and copied._point_plan is not None
            assert str(sepr_at_point(copied, point)) == text


def test_a_verdict_copies_and_pickles_without_its_stream():
    # a witness point holds its variable names, not its table, so a lone
    # verdict's pickle carries no table
    table = VariableTable(["x", "y"])
    x, y = Polynomial.variable(table, "x"), Polynomial.variable(table, "y")
    verdict = classify_polynomial(x - y)
    assert verdict.kind is SignKind.MIXED
    data = pickle.dumps(verdict)
    assert b"VariableTable" not in data
    for copied in (copy.deepcopy(verdict), pickle.loads(data)):
        assert copied == verdict
        assert copied.pos_witness.names == copied.neg_witness.names == ("x", "y")


def test_a_classified_table_is_freed_by_reference_counting_alone():
    # nothing the sampler keeps refers to a table, so the table and its
    # minors are freed together, by reference counting alone
    matrix = matrix_from_document(dense_document(random.Random(7), 5))
    report = analyze(matrix)
    assert any(verdict.kind is SignKind.MIXED for verdict in report.classes.values())
    table = matrix.table
    freed = weakref.ref(table)
    gc.collect()
    gc.disable()
    try:
        del matrix, table, report
        assert freed() is None
    finally:
        gc.enable()


def test_an_analysis_leaves_its_table_pickle_as_it_was():
    # the sampler memoises draws and points by value, in its own module, so
    # a table holds no sampler state and pickles alike after an analysis
    assert set(vars(VariableTable(["x"]))) == {"_names", "_index"}
    matrix = matrix_from_document(dense_document(random.Random(7), 5))
    before = pickle.dumps(matrix.table)
    report = analyze(matrix)
    assert any(verdict.kind is SignKind.MIXED for verdict in report.classes.values())
    assert pickle.dumps(matrix.table) == before


def test_tables_with_equal_names_share_witness_points():
    # a witness point is memoised by the names and the sample, so two
    # separately parsed tables of the same names give one point object
    document = dense_document(random.Random(7), 5)
    first, second = (analyze(matrix_from_document(document)) for _ in range(2))
    assert first.minors.minor(1).table is not second.minors.minor(1).table
    mask, verdict = next((mask, verdict) for mask, verdict in first.classes.items()
                         if verdict.kind is SignKind.MIXED)
    other = second.classes[mask]
    assert other.pos_witness is verdict.pos_witness and other.neg_witness is verdict.neg_witness


def test_a_long_search_memoises_at_most_the_stored_samples():
    # a never-negative polynomial runs its whole budget; the samples past
    # the stored ones are drawn without being memoised
    table = VariableTable(["x", "y"])
    x, y = Polynomial.variable(table, "x"), Polynomial.variable(table, "y")
    _sample.cache_clear()
    verdict = classify_polynomial((x - y) * (x - y), budget=_STORED_SAMPLES + 10)
    assert verdict.kind is SignKind.UNRESOLVED and verdict.neg_witness is None
    assert verdict.pos_witness is not None
    assert _sample.cache_info().currsize <= _STORED_SAMPLES


def test_threads_sharing_a_table_classify_as_one_thread_does():
    # eight threads fill the emptied memos at once, under two seeds; a
    # sample drawn from the wrong generator state or a point memoised under
    # the wrong key would change a witness
    document = dense_document(random.Random(99), 5)
    seeds = (0, 5)

    def work_of(matrix):
        minors = [minor for minor in all_principal_minors(matrix).entries.values()
                  if minor.coeff_sign_summary() is CoeffSignSummary.MIXED_SIGNS]
        # a never-negative polynomial runs its whole budget, past the
        # stored samples
        return minors + [minors[0] * minors[0]]

    def verdicts(polys, seed, order):
        found = {}
        for i in order:
            verdict = classify_polynomial(polys[i], budget=_STORED_SAMPLES + 10, seed=seed)
            found[i] = (verdict.kind, *(w and w.values for w in
                                        (verdict.pos_witness, verdict.neg_witness)))
        return found

    reference = {}
    for seed in seeds:
        polys = work_of(matrix_from_document(document))
        reference[seed] = verdicts(polys, seed, range(len(polys)))
    assert {found[0] for found in reference[0].values()} == {SignKind.MIXED, SignKind.UNRESOLVED}
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(3):
            polys = work_of(matrix_from_document(document))
            _sample.cache_clear()
            _witness.cache_clear()
            start = threading.Barrier(8)
            results, errors = {}, []

            def run(worker):
                try:
                    order = list(range(len(polys)))
                    random.Random(round_ * 8 + worker).shuffle(order)
                    start.wait(timeout=30)
                    seed = seeds[worker % 2]
                    results[worker] = (seed, verdicts(polys, seed, order))
                except Exception as exc:  # reported by the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=run, args=(worker,)) for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert errors == []
            assert sorted(results) == list(range(8))
            for seed, found in results.values():
                assert found == reference[seed]
    finally:
        sys.setswitchinterval(previous)


# ------------------------------------------------------------ sepr at point


def test_sign_set_formatting_is_fixed_order():
    assert format_sign_set(S("-+0")) == "{0,+,-}"
    assert format_sign_set(S("+")) == "{+}"
    assert format_sign_set(frozenset()) == "{}"


def test_sepr_sequence_type():
    seq = SeprSequence([ZERO_ONLY, FULL])
    assert len(seq) == 2
    assert seq[1] == ZERO_ONLY and seq[2] == FULL
    with pytest.raises(IndexError):
        seq[3]
    assert str(seq) == "{0} {0,+,-}"
    assert seq == (ZERO_ONLY, FULL)
    assert list(seq) == [ZERO_ONLY, FULL]


def test_sepr_at_point_small_matrices():
    one_by_one = matrix_from_document({"n": 1, "variables": [], "entries": [["0"]]})
    point = RationalPoint.all_ones(one_by_one.table)
    assert sepr_at_point(one_by_one, point) == (ZERO_ONLY,)

    doc = {"n": 2, "variables": ["a1", "b1"], "entries": [["0", "a1"], ["-b1", "0"]]}
    m = matrix_from_document(doc)
    seq = sepr_at_point(m, RationalPoint.all_ones(m.table))
    assert seq == (ZERO_ONLY, S("+"))


def test_sepr_at_point_matches_leibniz_sign_sets():
    # s_k from the Leibniz sum of every principal k x k submatrix of the
    # evaluated grid; the inputs must include an order with no cycle-cover
    # mask and a cover mask whose value cancels to 0 at the point although
    # every mask of its order is a cover
    rng = random.Random(818)
    cases = [
        ({"n": 3, "entries": [["0", "a", "0"], ["0", "0", "b"], ["c", "0", "0"]]},
         {"a": "1", "b": "2", "c": "3"}),
        ({"n": 2, "entries": [["a", "b"], ["c", "d"]]},
         {"a": "2", "b": "3", "c": "4", "d": "6"}),
    ]
    for _ in range(60):
        n = rng.randint(1, 6)
        names = iter(f"x{i}" for i in range(n * n))
        entries = [[(rng.choice(["", "-", "2*"]) + next(names)) if rng.random() < 0.35
                    else "0" for _ in range(n)] for _ in range(n)]
        cases.append(({"n": n, "entries": entries}, None))
    no_cover_order = cancelled_cover = False
    for document, assignment in cases:
        m = matrix_from_document(document)
        if assignment is None:
            assignment = {name: Fraction(rng.randint(1, 3), rng.randint(1, 2))
                          for name in m.table.names}
        point = RationalPoint.from_mapping(m.table, assignment)
        grid = [[entry.eval_at(point) for entry in row] for row in m.rows]
        expected = [set() for _ in range(m.n)]
        for mask in range(1, 1 << m.n):
            expected[mask.bit_count() - 1].add(
                sign_str(leibniz_det(principal_subgrid(grid, mask))))
        assert sepr_at_point(m, point) == expected, document
        covers = minor_values_at(m, point)
        for k in range(1, m.n + 1):
            order_k = [value for mask, value in covers.items() if mask.bit_count() == k]
            no_cover_order |= not order_k
            cancelled_cover |= len(order_k) == comb(m.n, k) and 0 in order_k
    assert no_cover_order and cancelled_cover


def test_sepr_at_point_requires_positive_full_assignment(builtin_matrix):
    table = builtin_matrix.table
    values = [Fraction(1)] * len(table)
    values[5] = Fraction(0)
    with pytest.raises(ValueError, match="strictly positive"):
        sepr_at_point(builtin_matrix, RationalPoint(table, tuple(values)))
    short = VariableTable(list(table.names)[:10])
    with pytest.raises(ValueError, match="assign"):
        sepr_at_point(builtin_matrix, RationalPoint.all_ones(short))
    # a point whose table has the same names in another order is refused too
    reordered = VariableTable(list(table.names)[::-1])
    with pytest.raises(ValueError, match="where the table has"):
        sepr_at_point(builtin_matrix, RationalPoint.all_ones(reordered))


def test_builtin_matrix_sepr_at_all_ones(builtin_matrix):
    seq = sepr_at_point(builtin_matrix, RationalPoint.all_ones(builtin_matrix.table))
    expected = tuple(FULL if k in (3, 6, 9) else ZERO_ONLY for k in range(1, 13))
    assert seq == expected


def test_exact_classifications_agree_with_point_signs(builtin_matrix, builtin_minors):
    # a Pos/Neg/Zero verdict must match the evaluated sign at any positive point
    rng = random.Random(17)
    from _oracles import random_positive_point, sign_str
    points = [random_positive_point(rng, builtin_matrix.table) for _ in range(5)]
    by_kind = {SignKind.POS: "+", SignKind.NEG: "-", SignKind.ZERO: "0"}
    checked = 0
    for mask, minor in builtin_minors.items_of_order(3):
        verdict = classify_polynomial(minor, budget=1)
        expected = by_kind.get(verdict.kind)
        if expected is None:
            continue
        for point in points:
            assert sign_str(minor.eval_at(point)) == expected, IndexSet.from_mask(mask)
        checked += 1
    assert checked == 220
