"""Recorded outputs of the benchmark pool, replayed through
``perfbench/ops.py``: every sparse and dense report and every recorded
point of the sepr-points matrix must hash to its sha256 in
``perfbench/reference.json``.
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

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def pool_items(family):
    return [f"{family}-{n}-{index}" for (kind, n), size in corpus.POOL.items()
            if kind == family for index in range(size)]


SPARSE_ITEMS = pool_items("sparse")
DENSE_ITEMS = pool_items("dense")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_sha256(item: str) -> str:
    text, _ = ops.analyze(seprkit, corpus.pool_document(item))
    return sha256(text)


@pytest.mark.parametrize("item", SPARSE_ITEMS)
def test_sparse_report_matches_the_reference(item):
    assert report_sha256(item) == REFERENCE[corpus.report_key(item)]


@pytest.mark.parametrize("item", DENSE_ITEMS)
def test_dense_report_matches_the_reference(item):
    # the pivot search and the witness points of the dense-certify workload
    assert report_sha256(item) == REFERENCE[corpus.report_key(item)]


def test_sepr_points_match_the_reference():
    item = corpus.WORKLOADS["sepr-points"]["matrix"]
    document = corpus.pool_document(item)
    matrix = seprkit.matrix_from_document(document)
    for index in range(corpus.POINT_POOL):
        point = seprkit.RationalPoint.from_mapping(
            matrix.table, corpus.pool_point(item, index, document["variables"]))
        text = ops.sepr(seprkit, matrix, point)
        assert sha256(text) == REFERENCE[corpus.sepr_key(item, index)], f"point {index}"
