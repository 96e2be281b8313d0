"""Independent oracles and shared helpers for the test suite.

The determinant oracles deliberately avoid the package's family-sum engine:
``leibniz_det`` is the textbook signed permutation sum, and
``sparse_perm_det`` is the same sum restricted to nonzero entries so it
stays fast on very sparse matrices.  Any agreement between engine and
oracle is therefore meaningful.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from seprkit import (
    CaseDecomposition,
    Certificate,
    CoeffSignSummary,
    IndexSet,
    LevelCertification,
    Polynomial,
    RationalPoint,
    SymMatrix,
    VariableTable,
    reduce_by,
)
from seprkit.certify import (
    METHOD_ALL_ZERO,
    METHOD_CONSTANT_SIGN,
    METHOD_PIVOT,
    METHOD_SAMPLING,
)


def perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def leibniz_det(rows):
    """Signed permutation sum over a dense square grid (any ring elements).

    Exponential in n; keep n <= 6.
    """
    n = len(rows)
    if n == 0:
        return 1
    total = None
    for perm in itertools.permutations(range(n)):
        term = perm_sign(perm)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = term if total is None else total + term
    return total


def sparse_perm_det(rows, zero):
    """Permutation sum walking only nonzero entries.

    ``rows[i]`` is a list of (column, value) pairs for the nonzero entries
    of row i.  The permutation sign is tracked incrementally: assigning
    column j after the columns in ``used`` adds one inversion per used
    column greater than j.
    """
    n = len(rows)
    result = zero

    def walk(i, used, sign, product):
        nonlocal result
        if i == n:
            result = result + (product if sign > 0 else -product)
            return
        for j, value in rows[i]:
            bit = 1 << j
            if used & bit:
                continue
            flips = (used >> (j + 1)).bit_count()
            walk(i + 1, used | bit, -sign if flips % 2 else sign, product * value)

    walk(0, 0, 1, 1)
    return result


def replay_plan(plan, entries) -> dict:
    """{key: value} of a recorded plan (size, steps, {key: slot}) replayed
    over ints: slots 0 and 1 hold 1 and -1, ``entries`` fill the slots
    from 2 on, and each step (target, a, b) adds slots[a] * slots[b] into
    slots[target]."""
    size, steps, outputs = plan
    slots = [1, -1, *entries] + [0] * (size - 2 - len(entries))
    for k in range(0, len(steps), 3):
        target, a, b = steps[k:k + 3]
        slots[target] += slots[a] * slots[b]
    return {key: slots[slot] for key, slot in outputs.items()}


def gauss_det(rows) -> Fraction:
    """Determinant of a square grid of rationals by Gaussian elimination in
    Fractions, swapping in a nonzero pivot where one is needed; 1 for the
    empty grid."""
    work = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(work)):
        pivot = next((r for r in range(col, len(work)) if work[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        for r in range(col + 1, len(work)):
            factor = work[r][col] / work[col][col]
            if factor:
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return det


def principal_subgrid(grid, mask):
    """The rows and columns of ``grid`` whose bit is set in ``mask`` (bit i
    selects row and column i), picked without the package's code."""
    index = [i for i in range(len(grid)) if mask >> i & 1]
    return [[grid[i][j] for j in index] for i in index]


def cycle_cover_masks_reference(grid) -> list[int]:
    """Masks S (bit i selects row/column i) such that some permutation of
    S lies in the support of ``grid``, found by trying every permutation.
    Exponential in n; keep n <= 7."""
    n = len(grid)
    covers = []
    for mask in range(1, 1 << n):
        index = [i for i in range(n) if mask >> i & 1]
        if any(all(grid[i][j] for i, j in zip(index, perm))
               for perm in itertools.permutations(index)):
            covers.append(mask)
    return covers


def random_int_grid(rng: random.Random, n: int, lo: int = -9, hi: int = 9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def constant_matrix(table: VariableTable, grid):
    """Wrap an integer grid as rows of constant polynomials."""
    return [[Polynomial.constant(table, value) for value in row] for row in grid]


def transposed(matrix: SymMatrix) -> SymMatrix:
    return SymMatrix(matrix.table, [list(col) for col in zip(*matrix.rows)])


def random_entry_document(rng, n, density, names):
    """Each nonzero entry a constant 1-3, or one of a few shared variables
    times 1, 2 or 3, negated with probability 0.4."""
    def entry():
        if rng.random() >= density:
            return "0"
        sign = "-" if rng.random() < 0.4 else ""
        if rng.random() < 0.2:
            return sign + str(rng.randint(1, 3))
        return sign + rng.choice(["", "", "2*", "3*"]) + rng.choice(names)
    return {"n": n, "entries": [[entry() for _ in range(n)] for _ in range(n)]}


def monomial(exponents: dict) -> tuple:
    """Encode {variable index: exponent} in the documented monomial layout
    ``(-degree, i1, ..., id)``: the variable indices in increasing order,
    each repeated as often as its exponent, ``(0,)`` for 1."""
    indices = [index for index in sorted(exponents) for _ in range(exponents[index])]
    return (-len(indices), *indices)


def exponents(mono: tuple) -> dict:
    """Decode a monomial to {variable index: exponent}, asserting that it
    follows the documented layout, degree field included."""
    indices = mono[1:]
    assert list(indices) == sorted(indices), mono
    assert all(isinstance(index, int) and index >= 0 for index in indices), mono
    assert mono[0] == -len(indices), mono
    decoded = {}
    for index in indices:
        decoded[index] = decoded.get(index, 0) + 1
    return decoded


def monomial_product(a: tuple, b: tuple) -> tuple:
    exps = exponents(a)
    for index, exp in exponents(b).items():
        exps[index] = exps.get(index, 0) + exp
    return monomial(exps)


def monomial_divides(a: tuple, b: tuple) -> bool:
    exps = exponents(b)
    return all(exps.get(index, 0) >= exp for index, exp in exponents(a).items())


def product_reference(p: Polynomial, q: Polynomial) -> Polynomial:
    """p*q term by term with ``monomial_product``, sorted by ``Polynomial``."""
    terms = {}
    for m1, c1 in p.terms():
        for m2, c2 in q.terms():
            mono = monomial_product(m1, m2)
            terms[mono] = terms.get(mono, 0) + c1 * c2
    return Polynomial(p.table, terms)


def monomial_content_reference(p: Polynomial) -> tuple:
    """The exponent-wise minimum over p's monomials, a variable missing from
    one of them counting as exponent 0."""
    decoded = [exponents(mono) for mono, _ in p.terms()]
    return monomial({index: min(exps.get(index, 0) for exps in decoded)
                     for index in decoded[0]})


def primitive_part_reference(p: Polynomial) -> Polynomial:
    """p divided termwise by ``monomial_content_reference(p)``, negated if
    its leading coefficient is negative."""
    content = exponents(monomial_content_reference(p))
    terms = {monomial({index: exp - content.get(index, 0)
                       for index, exp in exponents(mono).items()}): coeff
             for mono, coeff in p.terms()}
    sign = -1 if p.leading_coefficient() < 0 else 1
    return Polynomial(p.table, {mono: sign * coeff for mono, coeff in terms.items()})


def random_monomial(rng: random.Random, nvars: int, max_degree: int = 4) -> tuple:
    exps = {}
    for _ in range(rng.randint(0, max_degree)):
        index = rng.randrange(nvars)
        exps[index] = exps.get(index, 0) + 1
    return monomial(exps)


def random_polynomial(rng: random.Random, table: VariableTable,
                      max_terms: int = 4, max_degree: int = 3,
                      coeff_bound: int = 9) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = random_monomial(rng, len(table), max_degree)
        coeff = rng.randint(-coeff_bound, coeff_bound)
        terms[mono] = terms.get(mono, 0) + coeff
    return Polynomial(table, terms)


def grlex_less(a: tuple, b: tuple) -> bool:
    """Graded lex by definition: total degree first; within a degree, the
    monomial whose earliest-differing variable has the larger exponent is
    the greater one."""
    exps_a, exps_b = exponents(a), exponents(b)
    degree_a, degree_b = sum(exps_a.values()), sum(exps_b.values())
    if degree_a != degree_b:
        return degree_a < degree_b
    for index in sorted(set(exps_a) | set(exps_b)):
        if exps_a.get(index, 0) != exps_b.get(index, 0):
            return exps_a.get(index, 0) < exps_b.get(index, 0)
    return False


def reduce_by_reference(m: Polynomial, divisor: Polynomial):
    """Single-divisor division by its textbook loop: find the greatest
    pending monomial by a linear scan under ``grlex_less``, cancel it when
    lead(D) divides it exactly, else move it to the remainder."""
    lead_mono, lead_coeff = divisor.leading_term()
    quotient, remainder = {}, {}
    work = dict(m.terms())
    while work:
        mono = next(iter(work))
        for other in work:
            if grlex_less(mono, other):
                mono = other
        coeff = work.pop(mono)
        if monomial_divides(lead_mono, mono) and coeff % lead_coeff == 0:
            factor = coeff // lead_coeff
            lead_exps = exponents(lead_mono)
            shift = monomial({index: exp - lead_exps.get(index, 0)
                              for index, exp in exponents(mono).items()})
            quotient[shift] = quotient.get(shift, 0) + factor
            for dm, dc in divisor.terms():
                if dm != lead_mono:
                    target = monomial_product(dm, shift)
                    work[target] = work.get(target, 0) - factor * dc
                    if not work[target]:
                        del work[target]
        else:
            remainder[mono] = coeff
    return Polynomial(m.table, quotient), Polynomial(m.table, remainder)


def eval_reference(p: Polynomial, point: RationalPoint) -> Fraction:
    """Termwise evaluation in Fractions."""
    total = Fraction(0)
    for mono, coeff in p.terms():
        value = Fraction(coeff)
        for index, exp in exponents(mono).items():
            value *= point.values[index] ** exp
        total += value
    return total


class LcgReference:
    """The sampler's published generator, written out apart from the
    package: from the seed mod 2^64, each draw steps the state to
    state * 6364136223846793005 + 1442695040888963407 mod 2^64 and returns
    1 + (state >> 32) % 100.  A point draws u, then v, for each variable in
    table order and takes the value u/v."""

    def __init__(self, seed: int):
        self.state = seed % 2 ** 64

    def draw(self) -> int:
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) % 2 ** 64
        return 1 + (self.state >> 32) % 100

    def point(self, table: VariableTable) -> RationalPoint:
        return RationalPoint(table, tuple(Fraction(self.draw(), self.draw())
                                          for _ in range(len(table))))


def classify_reference(p: Polynomial, budget: int, seed: int):
    """The sampling half of ``classify_polynomial`` as a plain loop: draw a
    whole point of Fractions per sample from ``LcgReference(seed)``,
    evaluate it termwise, and keep the first positive and the first
    negative point.  Returns (kind, pos, neg) with kind "mixed" or
    "unresolved"."""
    rng = LcgReference(seed)
    pos = neg = None
    for _ in range(budget):
        point = rng.point(p.table)
        value = eval_reference(p, point)
        if value > 0 and pos is None:
            pos = point
        elif value < 0 and neg is None:
            neg = point
        if pos is not None and neg is not None:
            return "mixed", pos, neg
    return "unresolved", pos, neg


def random_positive_point(rng: random.Random, table: VariableTable,
                          hi: int = 60) -> RationalPoint:
    values = tuple(Fraction(rng.randint(1, hi), rng.randint(1, hi))
                   for _ in range(len(table)))
    return RationalPoint(table, values)


def sign_str(value: Fraction) -> str:
    return "+" if value > 0 else "-" if value < 0 else "0"


def certificate_mismatches(certificate, points) -> list[str]:
    """Check a pivot case-split certificate against concrete positive points.

    Each point falls in exactly one case by the sign of the pivot there;
    every decomposition with a concluded sign in that case must evaluate to
    exactly that sign.  Returns a list of human-readable mismatches (empty
    means sound on this sample).
    """
    case_by_sign = {"+": "D>0", "-": "D<0", "0": "D=0"}
    problems = []
    for point in points:
        case = case_by_sign[sign_str(certificate.pivot.eval_at(point))]
        for dec in certificate.decompositions:
            concluded = dec.concluded(case)
            if concluded is None:
                continue
            actual = sign_str(dec.minor.eval_at(point))
            if actual != concluded:
                problems.append(
                    f"{IndexSet.from_mask(dec.mask)} case {case}: "
                    f"concluded {concluded}, got {actual}")
    return problems


def case_rule_reference(m: Polynomial, D: Polynomial, mask: int) -> CaseDecomposition:
    """The case rules as an explicit table over the coefficient-sign
    summaries of m, q and r, with (q, r) = reduce_by(m, D), for the minor m
    of subset ``mask``."""
    q, r = reduce_by(m, D)
    constant = {CoeffSignSummary.ALL_ZERO: "0", CoeffSignSummary.ALL_POSITIVE: "+",
                CoeffSignSummary.ALL_NEGATIVE: "-"}
    fixed = constant.get(m.coeff_sign_summary())
    if fixed is not None:
        return CaseDecomposition(mask, m, q, r, (fixed, fixed, fixed))
    sq, sr = q.coeff_sign_summary(), r.coeff_sign_summary()
    when_pos = when_neg = None
    if sq is CoeffSignSummary.ALL_POSITIVE:
        if sr in (CoeffSignSummary.ALL_POSITIVE, CoeffSignSummary.ALL_ZERO):
            when_pos = "+"
        if sr in (CoeffSignSummary.ALL_NEGATIVE, CoeffSignSummary.ALL_ZERO):
            when_neg = "-"
    elif sq is CoeffSignSummary.ALL_NEGATIVE:
        if sr in (CoeffSignSummary.ALL_NEGATIVE, CoeffSignSummary.ALL_ZERO):
            when_pos = "-"
        if sr in (CoeffSignSummary.ALL_POSITIVE, CoeffSignSummary.ALL_ZERO):
            when_neg = "+"
    return CaseDecomposition(mask, m, q, r, (when_pos, when_neg, constant.get(sr)))


def pivot_candidates_reference(mixed) -> list[tuple[Polynomial, list[Polynomial]]]:
    """(candidate, its owners) for the mixed minors: each distinct
    ``primitive_part_reference``, sorted by rendered text, with the minors
    whose primitive part it is."""
    owners = {}
    for m in mixed:
        owners.setdefault(str(primitive_part_reference(m)), []).append(m)
    return [(primitive_part_reference(group[0]), group)
            for _, group in sorted(owners.items())]


def certify_level_reference(matrix, k: int, minors) -> LevelCertification:
    """``certify_level`` by exhaustive search: every candidate pivot, from
    ``pivot_candidates_reference``, decomposes every nonzero k-minor under
    ``case_rule_reference``, and a sign counts as proven when some
    decomposition concludes it in each of the three cases."""
    masks = [mask for mask in range(1, 1 << matrix.n) if mask.bit_count() == k]
    summaries = [(mask, minors.minor(mask).coeff_sign_summary()) for mask in masks]
    present = {summary for _, summary in summaries}
    constant = {CoeffSignSummary.ALL_ZERO: "0", CoeffSignSummary.ALL_POSITIVE: "+",
                CoeffSignSummary.ALL_NEGATIVE: "-"}
    guaranteed = {constant[s] for s in present if s in constant}
    if present == {CoeffSignSummary.ALL_ZERO}:
        return LevelCertification(frozenset(guaranteed), METHOD_ALL_ZERO, None)
    mixed = [minors.minor(mask) for mask, s in summaries
             if s is CoeffSignSummary.MIXED_SIGNS]
    missing = {"+", "-"} - guaranteed if mixed else set()
    if not missing:
        return LevelCertification(frozenset(guaranteed), METHOD_CONSTANT_SIGN, None)
    nonzero = [(mask, minors.minor(mask)) for mask, s in summaries
               if s is not CoeffSignSummary.ALL_ZERO]
    for pivot, _ in pivot_candidates_reference(mixed):
        decs = tuple(case_rule_reference(m, pivot, mask) for mask, m in nonzero)
        provable = {"+", "-"}
        for case in ("D>0", "D<0", "D=0"):
            provable &= {dec.concluded(case) for dec in decs}
        if missing <= provable:
            level = frozenset(guaranteed | provable)
            return LevelCertification(level, METHOD_PIVOT, Certificate(k, pivot, decs, level))
    return LevelCertification(frozenset(guaranteed), METHOD_SAMPLING, None)
