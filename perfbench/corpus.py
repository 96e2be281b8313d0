"""Seeded corpus for the seprkit benchmark.

Every matrix and every point comes from a fixed pool.  Pool item i of a
family is generated from its own string seed, so it is the same on every
machine (``random.Random`` seeds a string through SHA-512).  The reference
hashes in ``reference.json`` cover every pool item, so a run can check its
outputs whatever its seed.  The run seed chooses which pool items form the
corpus and the order in which a pass visits them: the same seed always gives
the same inputs, and different seeds give different corpora.

The program under test only ever sees the generated matrix documents (and,
for ``sepr-points``, variable assignments); this module imports nothing from
seprkit.
"""

from __future__ import annotations

import random

__all__ = ["WORKLOADS", "POOL", "POINT_POOL", "pool_document",
           "pool_point", "corpus", "cli_matrix_id", "report_key", "sepr_key"]

# Pool size per (family, n).  A run draws a fixed number of matrices from
# each stratum, so every corpus of a workload has the same size mix.
POOL = {
    ("sparse", 14): 4,
    ("sparse", 15): 4,
    ("sparse", 16): 8,
    ("dense", 5): 4,
    ("dense", 6): 8,
}
# Points of the sepr-points matrix with a recorded reference.
POINT_POOL = 48

# Probability that an entry carries a minus sign.
_SPARSE_NEGATIVE = 0.25
_DENSE_NEGATIVE = 0.5

WORKLOADS = {
    # Almost every one of the 2^n minors is zero, so minor enumeration,
    # MinorTable scans and memory dominate while polynomial division barely
    # runs.  Four of the six matrices are n=16, so the median and the tail
    # both fall on the same size class.
    "sparse-enum": {"kind": "report",
                    "draw": (("sparse", 14, 1), ("sparse", 15, 1), ("sparse", 16, 4))},
    # Only 31-63 minors, but up to 720 terms each; pivot search usually
    # fails after trying every candidate, so polynomial arithmetic, sampling
    # and certify_level dominate and enumeration is a few percent.
    "dense-certify": {"kind": "report",
                      "draw": (("dense", 5, 1), ("dense", 6, 4))},
    # The same cofactor engine over Fractions, with no symbolic table and no
    # certification: a change to the shared engine that helps symbolic
    # enumeration but costs the numeric path shows here.  One fixed matrix,
    # so the seed varies only the points and every run has the same memory
    # footprint.
    "sepr-points": {"kind": "sepr", "matrix": "sparse-16-0", "points": 8},
    # Not a benchmark workload: two cheap matrices for the smoke test.
    "smoke": {"kind": "report", "draw": (("dense", 5, 2),)},
}


def _item_id(family: str, n: int, index: int) -> str:
    return f"{family}-{n}-{index}"


def report_key(item_id: str) -> str:
    return f"report:{item_id}"


def sepr_key(item_id: str, point: int) -> str:
    return f"sepr:{item_id}:p{point}"


def _sparse_document(rng: random.Random, n: int) -> dict:
    """Zero diagonal, two off-diagonal nonzeros per row and a third in n//8
    rows; every nonzero is a fresh, independently signed variable."""
    columns = [rng.sample([j for j in range(n) if j != i], 2) for i in range(n)]
    for i in rng.sample(range(n), n // 8):
        columns[i].append(rng.choice([j for j in range(n)
                                      if j != i and j not in columns[i]]))
    names: list[str] = []
    entries = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in sorted(columns[i]):
            names.append(f"x{len(names) + 1}")
            sign = "-" if rng.random() < _SPARSE_NEGATIVE else ""
            entries[i][j] = sign + names[-1]
    return {"n": n, "variables": names, "entries": entries}


def _dense_document(rng: random.Random, n: int) -> dict:
    """Every entry, diagonal included, a distinct independently signed
    variable, so a k x k minor has k! terms and no cancellation."""
    names = [f"x{i + 1}" for i in range(n * n)]
    entries = [[("-" if rng.random() < _DENSE_NEGATIVE else "") + names[i * n + j]
                for j in range(n)] for i in range(n)]
    return {"n": n, "variables": names, "entries": entries}


_GENERATORS = {"sparse": _sparse_document, "dense": _dense_document}


def pool_document(item_id: str) -> dict:
    """The matrix document of one pool item, e.g. ``sparse-16-3``."""
    family, n, index = item_id.split("-")
    if not 0 <= int(index) < POOL[(family, int(n))]:
        raise ValueError(f"no pool item {item_id!r}")
    return _GENERATORS[family](random.Random(f"matrix-{item_id}"), int(n))


def pool_point(item_id: str, point: int, names: list[str]) -> dict[str, str]:
    """Point ``point`` of a matrix's pool: each variable u/v with u, v
    uniform in 1..100, so every value is strictly positive."""
    if not 0 <= point < POINT_POOL:
        raise ValueError(f"no pool point {point}")
    rng = random.Random(f"point-{item_id}-{point}")
    return {name: f"{rng.randint(1, 100)}/{rng.randint(1, 100)}" for name in names}


def corpus(workload: str, seed: int) -> list[dict]:
    """The inputs of one run, in pass order.

    Each input is ``{"key", "group", "document"}`` plus ``"point"`` for
    ``sepr`` workloads.  ``key`` names its reference hash; ``group`` is the
    input whose per-operation median op_s averages over.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"corpus-{workload}-{seed}")
    if spec["kind"] == "sepr":
        item = spec["matrix"]
        document = pool_document(item)
        points = rng.sample(range(POINT_POOL), spec["points"])
        return [{"key": sepr_key(item, p), "group": item,
                 "document": document,
                 "point": pool_point(item, p, document["variables"])}
                for p in points]
    items = [_item_id(family, n, index)
             for family, n, count in spec["draw"]
             for index in rng.sample(range(POOL[(family, n)]), count)]
    rng.shuffle(items)
    return [{"key": report_key(item), "group": item, "document": pool_document(item)}
            for item in items]


def cli_matrix_id(seed: int) -> str:
    """The smallest sparse-enum matrix of this seed's corpus, which the
    traced run hands to ``seprkit classify`` through the CLI."""
    items = [entry["group"] for entry in corpus("sparse-enum", seed)]
    return min(items, key=lambda item: (int(item.split("-")[1]), item))
