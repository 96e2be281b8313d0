"""Orthant-quantified sign-set certification per minor order.

For each order k, three exact sources feed the guaranteed sign set (signs
present among the k x k principal minor values at *every* strictly positive
point):

* an identically zero minor guarantees 0;
* a minor with all-positive (all-negative) coefficients guarantees + (-);
* a pivot case-split certificate: a pivot polynomial D, found by testing
  the mixed k-minors only (a constant-sign minor concludes only its own
  sign, guaranteed already), and decompositions m = q*D + r for every
  nonzero k-minor m, with sign conclusions per case sign(D) in {+, -, 0}
  drawn from sound coefficient rules.  A sign concluded in all three cases
  holds at every positive point, because each point lands in exactly one
  case.  The winning test's decompositions are kept in the certificate.
  One rule, ``_decompose``, draws every case conclusion from sign(m), q
  and r; a test divides a minor only where (q, r) is not known beforehand
  (see ``certify_level``).

``analyze`` runs the pipeline on any square matrix, assuming no answer;
``check_expected`` checks it against an expected sepr-sequence given as
data, reporting each claim honestly as PASS, FAIL, or INCONCLUSIVE.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from math import comb

from .minors import MinorTable, all_principal_minors
from .orthant import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    SignClass,
    SignKind,
    classify_polynomial,
    format_sign_set,
)
from .polyring import (CoeffSignSummary, Polynomial, _has_cancellable_term, _mono_quotient,
                       _Record, reduce_by)
from .symmatrix import PAPER_MATRIX_DOCUMENT, IndexSet, SymMatrix, paper_matrix

__all__ = [
    "CaseDecomposition",
    "Certificate",
    "LevelCertification",
    "LevelSummary",
    "SeprReport",
    "ClaimResult",
    "VerificationReport",
    "discover_pivots",
    "certify_level",
    "analyze",
    "check_expected",
    "verify_paper_claims",
    "METHOD_ALL_ZERO",
    "METHOD_CONSTANT_SIGN",
    "METHOD_PIVOT",
    "METHOD_SAMPLING",
    "PASS",
    "FAIL",
    "INCONCLUSIVE",
]

METHOD_ALL_ZERO = "all-zero"
METHOD_CONSTANT_SIGN = "constant-sign"
METHOD_PIVOT = "pivot-case-split"
METHOD_SAMPLING = "sampling-only"

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

_CASE_KEYS = ("D>0", "D<0", "D=0")

# Text report (label, width) of each kind's column of a level row's class counts.
_COUNT_COLUMNS = {SignKind.ZERO: ("zero", 5), SignKind.POS: ("pos", 4), SignKind.NEG: ("neg", 4),
                  SignKind.MIXED: ("mixed", 5), SignKind.UNRESOLVED: ("unres", 5)}

_CONSTANT_SIGN = {
    CoeffSignSummary.ALL_ZERO: "0",
    CoeffSignSummary.ALL_POSITIVE: "+",
    CoeffSignSummary.ALL_NEGATIVE: "-",
}
_NEGATED = {"0": "0", "+": "-", "-": "+", None: None}

# The expected sign sets that a level row proves exactly.
_ZERO_ONLY = frozenset({"0"})
_FULL = frozenset({"0", "+", "-"})


class CaseDecomposition(namedtuple("CaseDecomposition", "mask minor q r cases")):
    """One minor's exact division by the pivot, m = q*D + r, plus the sign
    concluded (or None for unknown) per case of _CASE_KEYS; ``mask`` is the
    minor's subset."""

    __slots__ = ()

    def concluded(self, case: str) -> str | None:
        return self.cases[_CASE_KEYS.index(case)]

    def identity_holds(self, pivot: Polynomial) -> bool:
        return self.q * pivot + self.r == self.minor

    def to_document(self) -> dict:
        return {
            "subset": str(IndexSet.from_mask(self.mask)),
            "minor": str(self.minor),
            "q": str(self.q),
            "r": str(self.r),
            "cases": dict(zip(_CASE_KEYS, self.cases)),
        }


def _decompose(mask: int, m: Polynomial, sign: str | None, q: Polynomial,
               r: Polynomial) -> CaseDecomposition:
    """The decomposition m = q*D + r of minor ``mask``, m, by the nonzero
    pivot D, with the sound sign rules applied case by case.  sign(x) is
    the sign that x's coefficients share (all zero, all positive or all
    negative), else None (unknown), and ``sign`` is sign(m):

    * constant-sign m gets sign(m) in all three cases;
    * otherwise, as m = q*D + r: case D>0 concludes the sign of a sum of
      signs sign(q) and sign(r), case D<0 that of -sign(q) and sign(r), and
      case D=0 (where m = r) concludes sign(r).

    A sum's sign is unknown when a summand's is or the two oppose; the rules
    never guess.  With q = 0 (so r = m) every case concludes sign(m); an
    owner m = s*c*D, with q = s*c and r = 0, gets (s, -s, 0).
    """
    if sign is not None:
        return CaseDecomposition(mask, m, q, r, (sign, sign, sign))
    sq = _CONSTANT_SIGN.get(q.coeff_sign_summary())
    sr = _CONSTANT_SIGN.get(r.coeff_sign_summary())
    return CaseDecomposition(mask, m, q, r,
                             (_sum_sign(sq, sr), _sum_sign(_NEGATED[sq], sr), sr))


def _sum_sign(a: str | None, b: str | None) -> str | None:
    """Sign of x + y from sign(x) = a and sign(y) = b (None: unknown)."""
    if a == "0" or a == b:
        return b
    return a if b == "0" else None


def _concluded_everywhere(decompositions: Sequence[CaseDecomposition]) -> frozenset:
    """Signs concluded by at least one decomposition in every case."""
    return frozenset.intersection(*(
        frozenset(dec.concluded(case) for dec in decompositions) - {None}
        for case in _CASE_KEYS))


class Certificate(namedtuple("Certificate", "k pivot decompositions guaranteed")):
    """Proof object for one order k: pivot D plus a decomposition of every
    nonzero k-minor.  Every sign in ``guaranteed`` minus {0} is concluded by
    some decomposition in each of the three sign(D) cases; 0 is justified by
    an identically zero k-minor outside the decomposition list."""

    __slots__ = ()

    def verify_identities(self) -> bool:
        """Re-multiply every decomposition: m == q*D + r, exactly."""
        return all(dec.identity_holds(self.pivot) for dec in self.decompositions)

    def to_document(self) -> dict:
        return {
            "k": self.k,
            "pivot": str(self.pivot),
            "guaranteed": _sign_list(self.guaranteed),
            "decompositions": [dec.to_document() for dec in self.decompositions],
        }


LevelCertification = namedtuple("LevelCertification", "guaranteed method certificate")


def _sign_list(signs: frozenset) -> list[str]:
    return [s for s in ("0", "+", "-") if s in signs]


def discover_pivots(minors: Sequence[Polynomial]) -> list[Polynomial]:
    """Candidate pivots: deduplicated primitive parts of the mixed-coefficient
    polynomials among ``minors`` (never constants, as a mixed polynomial has
    two terms), sorted by rendered text so the search order is canonical."""
    mixed = [m for m in minors if m.coeff_sign_summary() is CoeffSignSummary.MIXED_SIGNS]
    return [pivot for pivot, _ in _candidates(enumerate(mixed))]


def _candidates(mixed: Iterable[tuple[int, Polynomial]]) -> list[tuple[Polynomial, list[int]]]:
    """(candidate, keys of its owners) for the (key, mixed minor) pairs, in
    ``discover_pivots`` order; an owner is a minor whose primitive part is
    the candidate.  Every later piece of ``str(p)`` starts with a space,
    which sorts below any character of a term, so distinct leading-term
    texts sort as the full texts do: a candidate is rendered in full only
    to break a tie."""
    groups: dict[str, list[tuple[Polynomial, list[int]]]] = {}
    for key, m in mixed:
        candidate = m.primitive_part()
        lead_mono, lead_coeff = candidate.leading_term()
        lead = str(Polynomial._of_ordered(m.table, {lead_mono: lead_coeff}))
        group = groups.setdefault(lead, [])
        for known, owners in group:
            if known == candidate:
                owners.append(key)
                break
        else:
            group.append((candidate, [key]))
    ordered = []
    for lead in sorted(groups):
        ordered += sorted(groups[lead], key=lambda entry: str(entry[0])) \
            if len(groups[lead]) > 1 else groups[lead]
    return ordered


def _owner_division(m: Polynomial, pivot: Polynomial) -> tuple[Polynomial, Polynomial]:
    """``reduce_by(m, pivot)`` of an owner m = s*c*D of the pivot, c its
    monomial content and s its leading sign, with no division: (s*c, 0)."""
    s = 1 if m.leading_coefficient() > 0 else -1
    return (Polynomial._of_ordered(m.table, {
        _mono_quotient(m.leading_monomial(), pivot.leading_monomial()): s}),
        Polynomial.zero(m.table))


def certify_level(matrix: SymMatrix, k: int, minors: MinorTable) -> LevelCertification:
    """Prove as much of the order-k sign set as the exact rules allow.

    Returns (guaranteed, method, certificate).  The guarantee reads: for
    every strictly positive assignment, every sign in ``guaranteed`` occurs
    among the k x k principal minor values.  Methods, in order of
    preference: all-zero (every minor vanishes identically), constant-sign
    (coefficient tests alone settle + and -), pivot-case-split (a
    Certificate closes the gap), sampling-only (gap left open; only proven
    signs are reported).

    A trial of candidate D divides a mixed minor m only when the result is
    not known: an owner of D (m = s*c*D) has q = s*c and r = 0, and an m
    where lead(D) divides no term gives (0, m), which concludes nothing, so
    the trial leaves it out and builds it only if D wins.
    """
    if not 1 <= k <= matrix.n:
        raise ValueError(f"order {k} out of range 1..{matrix.n}")

    nonzero = minors.nonzero_of_order(k)
    level = [(mask, m, _CONSTANT_SIGN.get(m.coeff_sign_summary())) for mask, m in nonzero]
    guaranteed = frozenset(sign for _, _, sign in level) - {None}
    if len(nonzero) < comb(matrix.n, k):
        guaranteed |= _ZERO_ONLY
    mixed = {mask: m for mask, m, sign in level if sign is None}
    if not mixed and guaranteed == _ZERO_ONLY:
        return LevelCertification(guaranteed, METHOD_ALL_ZERO, None)
    missing = {"+", "-"} - guaranteed if mixed else set()
    if not missing:
        return LevelCertification(guaranteed, METHOD_CONSTANT_SIGN, None)

    for pivot, owners in _candidates(mixed.items()):
        lead_mono, lead_coeff = pivot.leading_term()
        trial = {mask: _decompose(mask, mixed[mask], None, *_owner_division(mixed[mask], pivot))
                 for mask in owners}
        trial.update((mask, _decompose(mask, m, None, *reduce_by(m, pivot)))
                     for mask, m in mixed.items()
                     if mask not in trial and _has_cancellable_term(m, lead_mono, lead_coeff))
        if missing <= _concluded_everywhere(list(trial.values())):
            guaranteed |= missing
            # the won trial's decompositions join those of the other minors
            decs = tuple(trial.get(mask) or _decompose(mask, m, sign, *reduce_by(m, pivot))
                         for mask, m, sign in level)
            return LevelCertification(guaranteed, METHOD_PIVOT,
                                      Certificate(k, pivot, decs, guaranteed))
    return LevelCertification(guaranteed, METHOD_SAMPLING, None)


class LevelSummary(namedtuple("LevelSummary", "k guaranteed method class_counts certificate",
                              defaults=(None,))):
    """One row of a SeprReport: what is proven at order k, how, and how the
    individual minors classified."""

    __slots__ = ()

    def to_row(self) -> dict:
        return {
            "k": self.k,
            "guaranteed": _sign_list(self.guaranteed),
            "method": self.method,
            "class_counts": {kind.value: self.class_counts.get(kind.value, 0)
                             for kind in SignKind},
        }


class SeprReport(_Record):
    """Per-order certification summary for a whole matrix, k = 1..n, with
    the minor table and the per-minor verdicts behind it.  ``classes``
    holds a verdict, keyed by mask, for each minor stored in
    ``minors.entries``; every absent mask is Zero.  A report iterates
    over its levels, so it is not a tuple."""

    __slots__ = _fields = ("levels", "minors", "classes")

    def __init__(self, levels: tuple[LevelSummary, ...], minors: MinorTable,
                 classes: Mapping[int, SignClass]) -> None:
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "minors", minors)
        object.__setattr__(self, "classes", classes)

    def level(self, k: int) -> LevelSummary:
        if not 1 <= k <= len(self.levels):
            raise ValueError(f"order {k} out of range 1..{len(self.levels)}")
        return self.levels[k - 1]

    def __iter__(self) -> Iterator[LevelSummary]:
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)


class ClaimResult(namedtuple("ClaimResult", "name status details")):
    __slots__ = ()

    def to_document(self) -> dict:
        return {"name": self.name, "status": self.status, "details": self.details}


class VerificationReport(namedtuple("VerificationReport", "n seed budget claims sepr")):
    __slots__ = ()

    @property
    def overall(self) -> str:
        statuses = [claim.status for claim in self.claims]
        if FAIL in statuses:
            return FAIL
        if INCONCLUSIVE in statuses:
            return INCONCLUSIVE
        return PASS

    def to_document(self) -> dict:
        return {
            "overall": self.overall,
            "n": self.n,
            "seed": self.seed,
            "budget": self.budget,
            "claims": [claim.to_document() for claim in self.claims],
            "sepr": [level.to_row() for level in self.sepr],
            "certificates": [level.certificate.to_document() for level in self.sepr
                             if level.certificate is not None],
        }

    def render_text(self) -> str:
        """The text form of ``to_document()``, which is its only input."""
        doc = self.to_document()
        columns = [(kind.value, *_COUNT_COLUMNS[kind]) for kind in SignKind]
        lines = [f"principal minor sign analysis: n={doc['n']} seed={doc['seed']} "
                 f"budget={doc['budget']}",
                 "",
                 f"{'k':>3}  {'guaranteed':<10}  {'method':<16}  "
                 + " ".join(f"{label:>{width}}" for _, label, width in columns)]
        for row in doc["sepr"]:
            guaranteed = format_sign_set(row["guaranteed"])
            counts = " ".join(f"{row['class_counts'][key]:>{width}}" for key, _, width in columns)
            lines.append(f"{row['k']:>3}  {guaranteed:<10}  {row['method']:<16}  {counts}")
        for cert in doc["certificates"]:
            lines += ["", f"certificate for k={cert['k']}: pivot D = {cert['pivot']}"]
            for dec in cert["decompositions"]:
                cases = " ".join(f"{case}:{sign or '?'}" for case, sign in dec["cases"].items())
                lines.append(f"  {dec['subset']}  q = {dec['q']}; r = {dec['r']}  [{cases}]")
        claims = [f"[{c['status']}] {c['name']}: {c['details']}" for c in doc["claims"]]
        return "\n".join([*lines, "", *claims, f"overall: {doc['overall']}"]) + "\n"


def analyze(matrix: SymMatrix, budget: int = DEFAULT_BUDGET,
            seed: int = DEFAULT_SEED) -> SeprReport:
    """The whole pipeline on any square matrix: enumerate the principal
    minors, classify each nonzero one once (``budget`` and ``seed`` drive
    the witness search), certify every order k = 1..n and count the classes
    per order, the C(n,k) minus stored k-minors as Zero.  A budget below 1
    raises ValueError before any work, whatever the matrix."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    minors = all_principal_minors(matrix)
    classes = {mask: classify_polynomial(m, budget=budget, seed=seed)
               for mask, m in minors.entries.items()}
    counts = [{kind.value: 0 for kind in SignKind} for _ in range(matrix.n)]
    for k, order_counts in enumerate(counts, start=1):
        order_counts[SignKind.ZERO.value] = comb(matrix.n, k) - len(minors.nonzero_of_order(k))
    for mask, verdict in classes.items():
        counts[mask.bit_count() - 1][verdict.kind.value] += 1
    levels = []
    for k in range(1, matrix.n + 1):
        guaranteed, method, certificate = certify_level(matrix, k, minors)
        levels.append(LevelSummary(k, guaranteed, method, counts[k - 1], certificate))
    return SeprReport(tuple(levels), minors, classes)


def _expected_orders(expected: Mapping, n: int) -> tuple[list[int], list[int], list[int]]:
    """Orders expected {0}, {0,+,-} and mixed; ValueError unless they fit n."""
    if not isinstance(expected, Mapping):
        raise ValueError('expected data must be a mapping with "sepr" and "mixed_orders"')
    sepr, mixed = expected.get("sepr"), expected.get("mixed_orders")
    if not (isinstance(sepr, list) and all(
            isinstance(signs, list) and all(s in ("0", "+", "-") for s in signs)
            for signs in sepr)):
        raise ValueError('expected "sepr" must be a list of lists of "0", "+" and "-"')
    if not (isinstance(mixed, list) and all(type(k) is int for k in mixed)):
        raise ValueError('expected "mixed_orders" must be a list of integers')
    if len(set(mixed)) != len(mixed):
        raise ValueError('expected "mixed_orders" must not repeat an order')
    sepr = [frozenset(signs) for signs in sepr]
    if len(sepr) != n:
        raise ValueError(f"expected sepr-sequence has {len(sepr)} orders, "
                         f"but the matrix has n={n}")
    zero = [k for k, signs in enumerate(sepr, start=1) if signs == _ZERO_ONLY]
    full = [k for k, signs in enumerate(sepr, start=1) if signs == _FULL]
    if len(zero) + len(full) != n:
        raise ValueError("only {0} and {0,+,-} can be checked as expected sign sets")
    if not all(1 <= k <= n for k in mixed):
        raise ValueError(f"mixed orders {mixed} out of range 1..{n}")
    return zero, full, mixed


def check_expected(report: SeprReport, expected: Mapping) -> tuple[ClaimResult, ...]:
    """Check ``report`` against ``expected`` (format: ``data/paper12.json``).

    Claims: zero-levels, orders expected {0} certify all-zero; full-levels,
    orders expected {0,+,-} certify to it exactly, certificate identities
    re-verified; mixed-size-k per mixed order k, some k-minor is nonzero and
    each nonzero one is Mixed, its witnesses re-evaluated.  A claim over no
    orders is left out; data that do not fit the matrix raise ValueError."""
    zero_orders, full_orders, mixed_orders = _expected_orders(expected, len(report))
    claims = []
    if zero_orders:
        claims.append(_zero_levels([report.level(k) for k in zero_orders]))
    if full_orders:
        claims.append(_full_levels([report.level(k) for k in full_orders]))
    claims.extend(_mixed_level(report, k) for k in mixed_orders)
    return tuple(claims)


def _zero_levels(levels: list[LevelSummary]) -> ClaimResult:
    bad = [f"order {level.k}: {sum(level.class_counts.values()) - level.class_counts['zero']} "
           f"nonzero minor(s)" for level in levels if level.method != METHOD_ALL_ZERO]
    if bad:
        return ClaimResult("zero-levels", FAIL, "; ".join(bad))
    orders = ",".join(str(level.k) for level in levels)
    return ClaimResult("zero-levels", PASS,
                       f"every minor of order {orders} is identically zero")


def _full_levels(levels: list[LevelSummary]) -> ClaimResult:
    parts = []
    ok = True
    for level in levels:
        certificate = level.certificate
        identities = certificate is None or certificate.verify_identities()
        exact = level.method in (METHOD_CONSTANT_SIGN, METHOD_PIVOT)
        if level.guaranteed == _FULL and exact and identities:
            pivot = f", pivot {certificate.pivot}" if certificate is not None else ""
            parts.append(f"k={level.k}: {level.method}{pivot}")
        else:
            ok = False
            recheck = "" if identities else ", identity re-check failed"
            parts.append(f"k={level.k}: method {level.method}, guaranteed "
                         f"{format_sign_set(level.guaranteed)}{recheck}")
    return ClaimResult("full-levels", PASS if ok else FAIL, "; ".join(parts))


def _mixed_level(report: SeprReport, k: int) -> ClaimResult:
    name = f"mixed-size-{k}"
    problems, unresolved = [], []
    nonzero = report.minors.nonzero_of_order(k)
    for mask, m in nonzero:
        verdict = report.classes[mask]
        subset = IndexSet.from_mask(mask)
        if verdict.kind is SignKind.MIXED:
            if not (m.eval_at(verdict.pos_witness) > 0 > m.eval_at(verdict.neg_witness)):
                problems.append(f"{subset}: witness re-evaluation failed")
        elif verdict.kind is SignKind.UNRESOLVED:
            unresolved.append(str(subset))
        else:
            problems.append(f"{subset}: classified {verdict.label()}")
    if not nonzero:
        problems.append(f"no nonzero size-{k} minor")
    if problems:
        return ClaimResult(name, FAIL, "; ".join(problems))
    if unresolved:
        return ClaimResult(name, INCONCLUSIVE,
                           "witness search incomplete for " + ", ".join(unresolved))
    return ClaimResult(
        name, PASS,
        f"{len(nonzero)} nonzero size-{k} minor(s), each with exact witnesses of both signs")


def verify_paper_claims(budget: int = DEFAULT_BUDGET,
                        seed: int = DEFAULT_SEED) -> VerificationReport:
    """``analyze`` the built-in matrix and ``check_expected`` the result
    against the paper's data in ``data/paper12.json``."""
    matrix = paper_matrix()
    report = analyze(matrix, budget, seed)
    claims = check_expected(report, PAPER_MATRIX_DOCUMENT["expected"])
    return VerificationReport(matrix.n, seed, budget, claims, report)
