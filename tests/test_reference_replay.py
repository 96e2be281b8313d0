"""Recorded outputs of the benchmark pool, replayed through
``perfbench/ops.py``: every sparse report and every recorded point of the
sepr-points matrix must hash to its sha256 in ``perfbench/reference.json``.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import seprkit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import corpus  # noqa: E402
import ops  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
SPARSE_ITEMS = [f"{family}-{n}-{index}" for (family, n), size in corpus.POOL.items()
                if family == "sparse" for index in range(size)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("item", SPARSE_ITEMS)
def test_sparse_report_matches_the_reference(item):
    text, _ = ops.analyze(seprkit, corpus.pool_document(item))
    assert sha256(text) == REFERENCE[corpus.report_key(item)]


def test_sepr_points_match_the_reference():
    item = corpus.WORKLOADS["sepr-points"]["matrix"]
    document = corpus.pool_document(item)
    matrix = seprkit.matrix_from_document(document)
    for index in range(corpus.POINT_POOL):
        point = seprkit.RationalPoint.from_mapping(
            matrix.table, corpus.pool_point(item, index, document["variables"]))
        text = ops.sepr(seprkit, matrix, point)
        assert sha256(text) == REFERENCE[corpus.sepr_key(item, index)], f"point {index}"
