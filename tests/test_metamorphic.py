"""Metamorphic tests: transforms of a matrix whose effect on its principal
minors is known in advance.

Each random matrix declares its variables up front, so a transform that
moves entries about leaves the variable table, and with it the term order
and the sampled points, as it was.  Minors are compared through the oracle
decoder ``exponents`` as {(name, exponent) pairs: coefficient}, never
through the monomial layout:

* P*A*P^T, for a permutation P, moves the minor of subset S to subset P(S);
* A^T and S*A*S, for a signature S = diag(+-1), leave every principal minor
  as it is;
* scaling row i by a positive integer c_i scales the minor of S by the
  product of c_i over S, which keeps its sign at every point;
* renaming the variables renames them in every minor, and moves them in the
  term order.

So the verdict kinds agree, except that under renaming Mixed and Unresolved
may swap: a sample's coordinates follow the variable indices.  The
certified sign sets of ``certify_level`` agree under the first three
transforms; scaling changes the pivot candidates' integer content, and
renaming changes the term order the pivot search divides under.
"""

import random
import re
from functools import cache
from math import prod

import pytest

from seprkit import SignKind, all_principal_minors, certify_level, classify_polynomial, \
    matrix_from_document
from seprkit.certify import METHOD_ALL_ZERO, METHOD_CONSTANT_SIGN, METHOD_PIVOT, METHOD_SAMPLING
from _oracles import exponents, random_entry_document

DOCUMENT_COUNT = 50


@cache
def documents() -> tuple:
    rng = random.Random(1414)
    out = []
    for _ in range(DOCUMENT_COUNT):
        names = rng.choice(["xy", "xyz"])
        document = random_entry_document(rng, rng.randint(2, 5), rng.choice((0.6, 1.0)), names)
        document["variables"] = list(names)
        out.append(document)
    return tuple(out)


@cache
def analysis(index: int, transform: str = "identity"):
    """(matrix, minors, verdict kind by mask) of document ``index`` after
    ``transform``, and the map back to the original: (the original mask of
    a mask, the factor of a mask's minor, the renaming or None)."""
    document = documents()[index]
    changed, old_mask_of, factor_of, renaming = TRANSFORMS[transform](
        random.Random(f"{transform}-{index}"), document)
    matrix = matrix_from_document(changed)
    minors = all_principal_minors(matrix)
    kinds = {mask: classify_polynomial(minors.minor(mask)).kind
             for mask in range(1, 1 << matrix.n)}
    return matrix, minors, kinds, (old_mask_of, factor_of, renaming)


def _entries(document: dict, entry_of) -> dict:
    n = document["n"]
    return {**document, "entries": [[entry_of(i, j) for j in range(n)] for i in range(n)]}


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def identity(rng, document):
    return document, (lambda mask: mask), (lambda mask: 1), None


def congruence_by_permutation(rng, document):
    old = document["entries"]
    p = rng.sample(range(document["n"]), document["n"])
    changed = _entries(document, lambda i, j: old[p[i]][p[j]])
    return changed, (lambda mask: sum(1 << p[i] for i in _bits(mask))), (lambda mask: 1), None


def transpose(rng, document):
    old = document["entries"]
    return _entries(document, lambda i, j: old[j][i]), (lambda mask: mask), (lambda mask: 1), None


def signature(rng, document):
    old = document["entries"]
    s = [rng.choice((1, -1)) for _ in range(document["n"])]

    def entry(i, j):
        return old[i][j] if s[i] * s[j] > 0 or old[i][j] == "0" else f"-({old[i][j]})"
    return _entries(document, entry), (lambda mask: mask), (lambda mask: 1), None


def row_scaling(rng, document):
    old = document["entries"]
    c = [rng.randint(1, 4) for _ in range(document["n"])]

    def entry(i, j):
        return "0" if old[i][j] == "0" else f"{c[i]}*({old[i][j]})"
    return (_entries(document, entry), (lambda mask: mask),
            (lambda mask: prod(c[i] for i in _bits(mask))), None)


def renaming(rng, document):
    names = document["variables"]
    shuffled = rng.sample(names, len(names))
    while len(names) > 1 and shuffled == names:
        shuffled = rng.sample(names, len(names))
    renamed = dict(zip(names, shuffled))
    old = document["entries"]

    def entry(i, j):
        return re.sub(r"[A-Za-z_]\w*", lambda match: renamed[match.group()], old[i][j])
    return _entries(document, entry), (lambda mask: mask), (lambda mask: 1), renamed


TRANSFORMS = {"identity": identity, "P*A*P^T": congruence_by_permutation, "A^T": transpose,
              "S*A*S": signature, "row scaling": row_scaling, "renaming": renaming}


def named_terms(p, renamed=None, factor=1) -> dict:
    """p's terms as {sorted (name, exponent) pairs: coefficient}, each name
    mapped through ``renamed`` and each coefficient times ``factor``."""
    names = p.table.names
    renamed = renamed or {}
    out = {}
    for mono, coeff in p.terms():
        key = tuple(sorted((renamed.get(names[index], names[index]), exp)
                           for index, exp in exponents(mono).items()))
        out[key] = factor * coeff
    return out


@pytest.mark.parametrize("transform", [name for name in TRANSFORMS if name != "identity"])
def test_minors_and_verdicts_follow_the_transform(transform):
    moved = 0
    for index in range(DOCUMENT_COUNT):
        _, old_minors, old_kinds, _ = analysis(index)
        matrix, minors, kinds, (old_mask_of, factor_of, renamed) = analysis(index, transform)
        for mask in range(1, 1 << matrix.n):
            old = old_mask_of(mask)
            moved += old != mask
            assert named_terms(minors.minor(mask)) == \
                named_terms(old_minors.minor(old), renamed, factor_of(mask)), (index, mask)
            kind, old_kind = kinds[mask], old_kinds[old]
            if kind is not old_kind:
                # only a renaming moves the samples, and then only a
                # polynomial of mixed coefficient signs can change verdict
                assert transform == "renaming", (index, mask)
                assert {kind, old_kind} == {SignKind.MIXED, SignKind.UNRESOLVED}, (index, mask)
    if transform == "P*A*P^T":
        assert moved


def test_the_corpus_reaches_every_verdict_kind():
    kinds = {kind for index in range(DOCUMENT_COUNT) for kind in analysis(index)[2].values()}
    assert kinds == set(SignKind)


@pytest.mark.parametrize("transform", ["P*A*P^T", "A^T", "S*A*S"])
def test_certified_sign_sets_survive_congruence_and_transpose(transform):
    methods = set()
    for index in range(DOCUMENT_COUNT):
        old_matrix, old_minors, _, _ = analysis(index)
        matrix, minors, _, _ = analysis(index, transform)
        for k in range(1, matrix.n + 1):
            level = certify_level(matrix, k, minors)
            old_level = certify_level(old_matrix, k, old_minors)
            assert level.guaranteed == old_level.guaranteed, (index, k)
            methods.add(old_level.method)
    assert methods == {METHOD_ALL_ZERO, METHOD_CONSTANT_SIGN, METHOD_PIVOT, METHOD_SAMPLING}
