"""Fast checks of the benchmark itself: corpus seeding, reference hashes,
and the output schema of both kinds of run on a tiny corpus.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import seprkit  # noqa: E402

import corpus  # noqa: E402
import ops  # noqa: E402
from record import _sha256  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_reference_covers_every_pool_item():
    for (family, n), size in corpus.POOL.items():
        for index in range(size):
            assert corpus.report_key(f"{family}-{n}-{index}") in REFERENCE
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in REFERENCE.values())


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_corpus_is_a_function_of_the_seed(workload):
    first = corpus.corpus(workload, 7)
    assert first == corpus.corpus(workload, 7)
    assert all(entry["key"] in REFERENCE for entry in first)
    assert any(corpus.corpus(workload, seed) != first for seed in range(8, 12))


def test_cheap_outputs_match_the_reference():
    for index in range(corpus.POOL[("dense", 5)]):
        item = f"dense-5-{index}"
        text, _ = ops.analyze(seprkit, corpus.pool_document(item))
        assert _sha256(text) == REFERENCE[corpus.report_key(item)]


def test_traced_operation_matches_untraced():
    document = corpus.pool_document("dense-5-0")
    tracer = ops.Tracer()
    traced, _ = ops.analyze(seprkit, document, tracer)
    assert traced == ops.analyze(seprkit, document)[0]
    names = {span[0] for span in tracer.spans}
    assert names == {"symmatrix.parse", "minors.enumerate", "orthant.classify",
                     "certify.level", "certify.render"}
    assert all(seconds >= 0 for _, _, seconds in ops.self_times(tracer.spans))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric(trace, section):
    proc = _run("--workload", "smoke", "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "smoke", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
