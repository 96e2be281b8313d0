"""The benchmark's operations, its span recorder and its work counters.

An analysis operation is the sequence of public calls that
``verify_paper_claims`` makes, driven from here so that it does not depend
on how that function is split up:

    matrix_from_document -> all_principal_minors -> classify_polynomial on
    every minor -> certify_level for k = 1..n -> JSON rendering of the level
    rows, certificates and witnesses.

A point operation is one ``sepr_at_point`` call.  Each operation returns the
canonical text whose sha256 is checked against ``reference.json``.

Spans are recorded only here, around calls into seprkit's public functions.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from time import perf_counter

__all__ = ["BUDGET", "SAMPLING_SEED", "Tracer", "analyze",
           "sepr", "report_counts", "trace_minor_values", "self_times"]

# The classify/witness settings of ``seprkit verify-paper``'s defaults.
BUDGET = 1000
SAMPLING_SEED = 0


class Tracer:
    """In-memory spans: [name, start, end, parent index, operation id].

    While ``enabled`` is false, every span is the same reusable no-op
    context, so the traced and the untraced runs share one code path."""

    _off = nullcontext()

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = -1

    def span(self, name: str):
        return _Span(self, name) if self.enabled else self._off


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer._open[-1] if tracer._open else None
        tracer.spans.append([self.name, perf_counter(), None, parent, tracer.op])
        tracer._open.append(self.index)

    def __exit__(self, *exc_info) -> None:
        self.tracer.spans[self.index][2] = perf_counter()
        self.tracer._open.pop()


def analyze(seprkit, document: dict, tracer: Tracer | None = None):
    """One full matrix report; returns (canonical JSON text, parts), where
    parts = (matrix, minors, classes, levels) feed ``report_counts``."""
    tracer = tracer or Tracer(enabled=False)
    with tracer.span("symmatrix.parse"):
        matrix = seprkit.matrix_from_document(document)
    with tracer.span("minors.enumerate"):
        minors = seprkit.all_principal_minors(matrix)
    n = matrix.n
    with tracer.span("orthant.classify"):
        classes = {mask: seprkit.classify_polynomial(minors.minor(mask), budget=BUDGET,
                                                     seed=SAMPLING_SEED)
                   for mask in range(1, 1 << n)}
    levels = []
    for k in range(1, n + 1):
        with tracer.span("certify.level"):
            levels.append(seprkit.certify_level(matrix, k, minors))
    with tracer.span("certify.render"):
        rows = []
        for k, (guaranteed, method, certificate) in enumerate(levels, start=1):
            counts = {kind.value: 0 for kind in seprkit.SignKind}
            for mask in minors.masks_of_order(k):
                counts[classes[mask].kind.value] += 1
            rows.append(seprkit.LevelSummary(k, guaranteed, method, counts, certificate))
        witnesses = []
        for mask, verdict in classes.items():
            if verdict.pos_witness is not None or verdict.neg_witness is not None:
                witnesses.append({
                    "subset": str(seprkit.IndexSet.from_mask(mask)),
                    "class": verdict.kind.value,
                    "pos": verdict.pos_witness.render() if verdict.pos_witness else None,
                    "neg": verdict.neg_witness.render() if verdict.neg_witness else None,
                })
        report = {
            "n": n,
            "seed": SAMPLING_SEED,
            "budget": BUDGET,
            "sepr": [row.to_row() for row in rows],
            "certificates": [row.certificate.to_document() for row in rows
                             if row.certificate is not None],
            "witnesses": witnesses,
        }
        text = json.dumps(report, indent=2) + "\n"
    return text, (matrix, minors, classes, levels)


def sepr(seprkit, matrix, point, tracer: Tracer | None = None) -> str:
    """One point evaluation; the canonical text is the sepr string."""
    tracer = tracer or Tracer(enabled=False)
    with tracer.span("orthant.sepr"):
        sequence = seprkit.sepr_at_point(matrix, point)
    return str(sequence)


def trace_minor_values(seprkit, tracer: Tracer, seen: list):
    """Wrap the ``minor_values_at`` that ``sepr_at_point`` calls in a
    ``minors.values`` span, appending each result to ``seen``.  Returns a
    function that undoes the wrapping, or None if seprkit.orthant no longer
    calls it by that name."""
    orthant = seprkit.orthant
    inner = getattr(orthant, "minor_values_at", None)
    if inner is None:
        return None

    def traced(matrix, point):
        with tracer.span("minors.values"):
            values = inner(matrix, point)
        seen.append(values)
        return values

    orthant.minor_values_at = traced
    return lambda: setattr(orthant, "minor_values_at", inner)


def report_counts(seprkit, parts) -> dict[str, int]:
    """Work counts of one report, derived from its outputs and the public
    ``discover_pivots``: what certify_level must have tried to reach the
    method it reports."""
    matrix, minors, classes, levels = parts
    mixed_summary = seprkit.CoeffSignSummary.MIXED_SIGNS
    masks = range(1, 1 << matrix.n)
    counts = {
        "minors": len(masks),
        "nonzero": sum(1 for mask in masks if not minors.minor(mask).is_zero()),
        "terms": sum(minors.minor(mask).num_terms() for mask in masks),
        "sampled": sum(1 for mask in masks
                       if minors.minor(mask).coeff_sign_summary() is mixed_summary),
        "unresolved": sum(1 for verdict in classes.values()
                          if verdict.kind is seprkit.SignKind.UNRESOLVED),
        "pivots_tried": 0,
        "reductions": 0,
        "levels_searched": 0,
        "levels_by_pivot": 0,
    }
    for k, (_, method, certificate) in enumerate(levels, start=1):
        if method not in (seprkit.certify.METHOD_PIVOT, seprkit.certify.METHOD_SAMPLING):
            continue
        order_k = [m for _, m in minors.items_of_order(k)]
        candidates = [str(p) for p in seprkit.discover_pivots(
            [m for m in order_k if m.coeff_sign_summary() is mixed_summary])]
        if certificate is not None:
            tried = candidates.index(str(certificate.pivot)) + 1
            counts["levels_by_pivot"] += 1
        else:
            tried = len(candidates)
        counts["levels_searched"] += 1
        counts["pivots_tried"] += tried
        counts["reductions"] += tried * sum(1 for m in order_k if not m.is_zero())
    return counts


def self_times(spans: list[list]) -> list[tuple[str, int, float]]:
    """(name, operation id, self seconds) per span: its duration minus the
    part covered by its child spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [(name, op, end - start - child_time[i])
            for i, (name, start, end, parent, op) in enumerate(spans)]
