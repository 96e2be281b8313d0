"""Record the reference sha256 of every pool item's output.

    python3 perfbench/record.py

Run this only on the commit whose outputs define correctness (the seed
code); a later change that alters an output must show up as a failed
operation, not as a new reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import seprkit  # noqa: E402

import corpus  # noqa: E402
import ops  # noqa: E402


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> None:
    reference = {}
    proc = subprocess.run([sys.executable, "-m", "seprkit", "verify-paper", "--format", "json"],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, check=True)
    reference["builtin:verify-paper-json"] = hashlib.sha256(proc.stdout).hexdigest()
    sepr_item = corpus.WORKLOADS["sepr-points"]["matrix"]
    for (family, n), size in corpus.POOL.items():
        for index in range(size):
            item = f"{family}-{n}-{index}"
            document = corpus.pool_document(item)
            text, _ = ops.analyze(seprkit, document)
            reference[corpus.report_key(item)] = _sha256(text)
            if item == sepr_item:
                matrix = seprkit.matrix_from_document(document)
                for p in range(corpus.POINT_POOL):
                    point = seprkit.RationalPoint.from_mapping(
                        matrix.table, corpus.pool_point(item, p, document["variables"]))
                    reference[corpus.sepr_key(item, p)] = _sha256(
                        ops.sepr(seprkit, matrix, point))
            print(item, file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
