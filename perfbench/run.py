"""Benchmark for seprkit: time per matrix report and per point evaluation,
set-up time, peak memory and output identity, plus a traced per-layer run.

    python3 perfbench/run.py --workload sparse-enum --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports seprkit from ``src``
and exits with code 2, printing no result, when that is missing.

Workloads (see ``corpus.py`` for why each was chosen) run single-threaded as
a closed loop over whole passes of a seeded corpus.  Before timing, the
built-in matrix's ``seprkit verify-paper --format json`` report must read
PASS and match its recorded sha256.  Every timed operation's output is
checked against the sha256 recorded on the seed code (``reference.json``).

``--trace 0`` prints the end-to-end metrics:

* ``op_s``: seconds per operation, the median of each corpus input's
  operations, averaged over the inputs so that every matrix counts once;
* ``op_s_tail``: the highest percentile with at least 10 samples beyond it
  (which percentile, and of how many samples, is printed above the result);
* ``minors_per_s``: principal minors decided per second, each operation
  counting its 2^n - 1 minors;
* ``setup_s``: median over fresh processes of importing seprkit and parsing
  the corpus;
* ``peak_rss_mb``: peak RSS of the fresh process that ran the timed loop.

All timings are scaled to a reference machine speed, since a shared VM's
speed drifts: a fixed pure-Python probe runs between operations (and after
each set-up), and each time is multiplied by (the probe's reference time /
the median of the probes just before and after it).  The unscaled operation
figures are printed above the result.

Failed operations (raised, or output hash differs) are the result's
``failed`` out of ``attempted``; their ratio is printed as ``fail_ratio``.

``--trace 1`` alternates untraced passes with passes that record spans
around every call into seprkit, writes the spans to ``perfbench/out/``, and
prints the per-layer metrics: per-operation self time of each layer, work
counts derived from the outputs, CLI times and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
CHILD_TIMEOUT = 170


def _child(*argv: str) -> dict:
    """Run a fresh worker process and return the JSON it prints."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker {argv[0]} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if argv[0] == "measure" and not result["samples"]:
        raise SystemExit("no operation succeeded, so there is nothing to time")
    return result


def builtin_check(reference: dict) -> bool:
    """The built-in matrix's JSON report through the CLI: PASS, and byte for
    byte the recorded one."""
    proc = subprocess.run([sys.executable, "-m", "seprkit", "verify-paper", "--format", "json"],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, timeout=CHILD_TIMEOUT)
    digest = hashlib.sha256(proc.stdout).hexdigest()
    ok = proc.returncode == 0 and digest == reference["builtin:verify-paper-json"]
    if not ok:
        print(f"built-in check failed: exit {proc.returncode}, sha256 {digest}",
              file=sys.stderr)
    return ok


def group_medians(samples: list) -> dict[str, float]:
    """Median seconds of each group's (group, seconds) samples."""
    groups: dict[str, list[float]] = {}
    for group, seconds in samples:
        groups.setdefault(group, []).append(seconds)
    return {group: statistics.median(values) for group, values in groups.items()}


def per_op(samples: list) -> float:
    """Mean over groups of each group's median."""
    return statistics.fmean(group_medians(samples).values())


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that has
    at least 10 samples beyond it: the 11th largest sample."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        return ordered[-1], 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def timings(samples: list, minors: dict) -> tuple[float, float, float, float, int]:
    """(op_s, op_s_tail, minors_per_s, tail percentile, sample count) of
    (group, seconds) samples."""
    medians = group_medians(samples)
    tail_s, tail_pct, count = tail([seconds for _, seconds in samples])
    rate = sum(minors[group] for group in medians) / sum(medians.values())
    return statistics.fmean(medians.values()), tail_s, rate, tail_pct, count


def end_to_end(args) -> tuple[dict, int, int]:
    common = ("--workload", args.workload, "--seed", str(args.seed))
    _child("setup", *common)  # warm-up: byte-compiles a fresh checkout
    setup = [_child("setup", *common) for _ in range(SETUP_REPEATS)]
    result = _child("measure", *common, "--seconds", str(args.seconds), "--trace", "0")
    samples = result["samples"]
    op_s, tail_s, rate, tail_pct, count = timings(
        [(group, seconds * scale) for group, seconds, scale, _ in samples], result["minors"])
    raw = timings([(group, seconds) for group, seconds, _, _ in samples], result["minors"])
    print(f"op_s_tail = p{tail_pct:.1f} of {count} operations")
    print(f"unscaled: op_s {raw[0]:.6g} s, op_s_tail {raw[1]:.6g} s, minors_per_s "
          f"{raw[2]:.6g} 1/s; median speed scale "
          f"{statistics.median(scale for _, _, scale, _ in samples):.4g}")
    metrics = {
        "op_s": (op_s, "s"),
        "op_s_tail": (tail_s, "s"),
        "minors_per_s": (rate, "1/s"),
        "setup_s": (statistics.median(r["setup_s"] * r["scale"] for r in setup), "s"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024, "MB"),
    }
    return metrics, result["attempted"], result["failed"]


def per_layer(args) -> tuple[dict, int, int]:
    result = _child("measure", "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", "1")
    samples = result["samples"]
    traced = [(group, seconds * scale) for group, seconds, scale, on in samples if on]
    untraced = [(group, seconds * scale) for group, seconds, scale, on in samples if not on]
    speed = statistics.median(scale for _, _, scale, _ in samples)

    def layer(name):
        return per_op([(group, layers.get(name, 0.0) * scale)
                       for group, layers, scale in result["per_op"]])

    counts = result["counts"].values()

    def total(key):
        return sum(c.get(key, 0) for c in counts)

    searched = total("levels_searched")
    cli = {name: {way: statistics.median(v) * speed for way, v in t.items()}
           for name, t in result["cli"].items()}
    if not result["values_traced"]:
        print("note: seprkit.orthant.minor_values_at not found; minors.values_s is 0")
    traced_op = per_op(traced)
    metrics = {
        "symmatrix.parse_s": (statistics.median(result["parse_calls"]) * speed, "s"),
        "minors.enumerate_s": (layer("minors.enumerate"), "s"),
        "minors.nonzero_ratio": (total("nonzero") / total("minors"), "ratio"),
        "minors.values_s": (layer("minors.values"), "s"),
        "polyring.minor_terms": (total("terms"), "count"),
        "polyring.reductions": (total("reductions"), "count"),
        "orthant.classify_s": (layer("orthant.classify"), "s"),
        "orthant.sampled_minors": (total("sampled"), "count"),
        "orthant.unresolved": (total("unresolved"), "count"),
        "orthant.sepr_s": (layer("orthant.sepr"), "s"),
        "certify.level_s": (layer("certify.level"), "s"),
        "certify.pivots_tried": (total("pivots_tried"), "count"),
        "certify.pivot_hit_ratio": (total("levels_by_pivot") / searched if searched else 0.0,
                                    "ratio"),
        "certify.render_s": (layer("certify.render"), "s"),
        "cli.classify_s": (cli["classify"]["subprocess"], "s"),
        "cli.classify_self_s": (cli["classify"]["subprocess"] - cli["classify"]["in_process"],
                                "s"),
        "cli.verify_paper_s": (cli["verify_paper"]["subprocess"], "s"),
        "cli.verify_paper_self_s": (cli["verify_paper"]["subprocess"]
                                    - cli["verify_paper"]["in_process"], "s"),
        "trace.op_s": (traced_op, "s"),
        "trace.overhead_s": (traced_op - per_op(untraced), "s"),
        "trace.glue_s": (layer("op"), "s"),
    }
    layer_sum = per_op([(group, scale * sum(v for name, v in layers.items() if name != "op"))
                        for group, layers, scale in result["per_op"]])
    print(f"spans written to {result['trace_file']}; counts over {len(counts)} "
          f"distinct inputs; {searched} level(s) ran a pivot search")
    print(f"per operation: layer self times {layer_sum:.4f} s + glue "
          f"{metrics['trace.glue_s'][0]:.4f} s; traced {traced_op:.4f} s; "
          f"untraced {traced_op - metrics['trace.overhead_s'][0]:.4f} s")
    return metrics, result["attempted"], result["failed"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "seprkit" / "__init__.py").is_file():
        print(f"error: no seprkit source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import corpus

    if args.workload not in corpus.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    reference = json.loads((HERE / "reference.json").read_text())
    builtin_ok = builtin_check(reference)
    metrics, attempted, failed = (per_layer if args.trace else end_to_end)(args)
    attempted += 1
    failed += 0 if builtin_ok else 1
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.4g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:>26} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
