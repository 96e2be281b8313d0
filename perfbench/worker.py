"""One benchmark child process; ``run.py`` starts it and reads the JSON it
prints.  Every child is a fresh interpreter, so each import of seprkit and
each peak-RSS reading is its own.

    python3 perfbench/worker.py setup   --workload W --seed N
    python3 perfbench/worker.py measure --workload W --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import corpus  # noqa: E402  (the script's own directory is on sys.path)
import ops  # noqa: E402

# Each group's median needs at least this many samples.
MIN_GROUP_SAMPLES = 3
CLI_REPEATS = 3

# The speed of a shared VM can drift by up to ~1.8x for tens of seconds at a
# time.  A fixed probe runs between timed operations to measure that drift,
# and each operation's time is scaled by PROBE_REFERENCE_S over its
# neighbouring probes' median.  PROBE_REFERENCE_S is the probe's median
# time on the 2-core x86-64 VM, under CPython 3.11, on which the reference
# figures were taken.
PROBE_REFERENCE_S = 0.017
PROBES_PER_OP = 3


def _probe() -> float:
    """Seconds for a fixed pure-Python task with the same mix as seprkit's
    arithmetic: tuple-keyed dict updates, a sort, Fraction sums."""
    start = perf_counter()
    terms: dict[tuple, int] = {}
    for i in range(16000):
        key = (i % 97, i * 7 % 89, i % 13)
        terms[key] = terms.get(key, 0) + i
    total = Fraction(0)
    for key, coeff in sorted(terms.items(), reverse=True)[:200]:
        total += Fraction(coeff, key[0] + 1)
    return perf_counter() - start


def _import_seprkit():
    sys.path.insert(0, str(SRC))
    import seprkit

    if Path(seprkit.__file__).resolve().parent != SRC / "seprkit":
        raise SystemExit(f"seprkit imported from {seprkit.__file__}, not from {SRC}")
    return seprkit


def _prepare(seprkit, inputs: list[dict]) -> list[dict]:
    """Parse every distinct matrix document of the corpus once and build
    the RationalPoints of point workloads.  (Report operations parse their
    document again, as part of the operation.)"""
    prepared = []
    matrices: dict[int, object] = {}
    for entry in inputs:
        entry = dict(entry)
        document = entry["document"]
        matrix = matrices.get(id(document))
        if matrix is None:
            matrix = matrices[id(document)] = seprkit.matrix_from_document(document)
        entry["matrix"] = matrix
        if "point" in entry:
            entry["point"] = seprkit.RationalPoint.from_mapping(matrix.table, entry["point"])
        prepared.append(entry)
    return prepared


def cmd_setup(args) -> dict:
    """Set-up time: import seprkit and parse the corpus, and the speed scale
    of the probes run right after."""
    inputs = corpus.corpus(args.workload, args.seed)
    start = perf_counter()
    _prepare(_import_seprkit(), inputs)
    seconds = perf_counter() - start
    probe = statistics.median(_probe() for _ in range(PROBES_PER_OP))
    return {"setup_s": seconds, "scale": PROBE_REFERENCE_S / probe}


class _Runner:
    """Closed loop over whole passes of the corpus, checking every output."""

    def __init__(self, seprkit, inputs, reference):
        self.seprkit = seprkit
        self.inputs = inputs
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.tracer = ops.Tracer(enabled=False)

    def one(self, entry):
        """Run one operation; returns (seconds or None on failure, parts)."""
        tracer = self.tracer
        self.attempted += 1
        with tracer.span("op"):
            start = perf_counter()
            try:
                if "point" in entry:
                    text = ops.sepr(self.seprkit, entry["matrix"], entry["point"], tracer)
                    parts = None
                else:
                    text, parts = ops.analyze(self.seprkit, entry["document"], tracer)
            except Exception as exc:  # a failed operation is counted, not fatal
                print(f"operation {entry['key']} raised {exc!r}", file=sys.stderr)
                self.failed += 1
                return None, None
            seconds = perf_counter() - start
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != self.reference.get(entry["key"]):
            print(f"operation {entry['key']}: output sha256 {digest} differs "
                  "from the reference", file=sys.stderr)
            self.failed += 1
        return seconds, parts

    def passes(self, seconds, min_samples, after=None, alternate=False):
        """Whole passes until the next one would overrun ``seconds`` and every
        group was attempted ``min_samples`` times; with ``alternate``, tracing is switched on
        for every other pass, so both kinds see the same machine conditions.

        Returns [group, seconds, scale, traced] per successful operation,
        where scale is PROBE_REFERENCE_S over the median of the probes run
        just before and just after it."""
        samples = []
        deadline = perf_counter() + seconds
        per_group = collections.Counter()
        probes = [_probe() for _ in range(PROBES_PER_OP)]
        tracer = self.tracer
        while True:
            if alternate:
                tracer.enabled = not tracer.enabled
            pass_start = perf_counter()
            for entry in self.inputs:
                tracer.op = len(samples)
                elapsed, parts = self.one(entry)
                if after is not None and elapsed is not None:
                    after(entry, parts)
                parts = None  # free this report before the next one runs
                before, probes = probes, [_probe() for _ in range(PROBES_PER_OP)]
                per_group[entry["group"]] += 1
                if elapsed is None:
                    continue
                scale = PROBE_REFERENCE_S / statistics.median(before + probes)
                samples.append([entry["group"], elapsed, scale, tracer.enabled])
            now = perf_counter()
            if (min(per_group.values(), default=0) >= min_samples
                    and now + (now - pass_start) > deadline):
                return samples


def _cli_timings(seprkit, runner, seed) -> dict:
    """Median subprocess time of two CLI commands and of the same commands
    run in-process through ``seprkit.cli.main``."""
    cli = importlib.import_module("seprkit.cli")
    OUT.mkdir(exist_ok=True)
    matrix_path = OUT / "cli-matrix.json"
    matrix_path.write_text(json.dumps(corpus.pool_document(corpus.cli_matrix_id(seed))))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    commands = {"classify": ["classify", "--matrix", str(matrix_path)],
                "verify_paper": ["verify-paper", "--format", "json"]}
    timings = {}
    for name, argv in commands.items():
        sub, inproc = [], []
        for _ in range(CLI_REPEATS):
            runner.attempted += 1
            start = perf_counter()
            proc = subprocess.run([sys.executable, "-m", "seprkit", *argv], cwd=ROOT,
                                  env=env, capture_output=True, text=True, timeout=170)
            sub.append(perf_counter() - start)
            buffer = io.StringIO()
            start = perf_counter()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            inproc.append(perf_counter() - start)
            if (proc.returncode, proc.stdout) != (code, buffer.getvalue()):
                print(f"seprkit {name}: subprocess and in-process outputs differ",
                      file=sys.stderr)
                runner.failed += 1
        timings[name] = {"subprocess": sub, "in_process": inproc}
    return timings


def cmd_measure(args) -> dict:
    seprkit = _import_seprkit()
    reference = json.loads((HERE / "reference.json").read_text())
    inputs = _prepare(seprkit, corpus.corpus(args.workload, args.seed))
    runner = _Runner(seprkit, inputs, reference)
    minors = {e["group"]: (1 << e["document"]["n"]) - 1 for e in inputs}
    runner.one(inputs[0])  # warm-up, not timed
    result = {"minors": minors}
    if not args.trace:
        result["samples"] = runner.passes(args.seconds, MIN_GROUP_SAMPLES)
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        result.update(_measure_traced(seprkit, runner, args))
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    return result


def _measure_traced(seprkit, runner, args) -> dict:
    tracer = runner.tracer
    values_seen: list = []
    restore = ops.trace_minor_values(seprkit, tracer, values_seen)
    counts: dict[str, dict] = {}

    def count(entry, parts):
        group = entry["group"]
        if group not in counts:
            if parts is not None:
                counts[group] = ops.report_counts(seprkit, parts)
            elif values_seen:
                counts[group] = {"minors": len(values_seen[-1]),
                                 "nonzero": sum(1 for v in values_seen[-1].values() if v)}
        values_seen.clear()

    # Two samples per group with tracing off and two with it on.
    samples = runner.passes(args.seconds, 4, after=count, alternate=True)
    if restore is not None:
        restore()
    tracer.enabled, tracer.op = True, -1
    layers: dict[int, collections.Counter] = collections.defaultdict(collections.Counter)
    for name, op, seconds in ops.self_times(tracer.spans):
        layers[op][name] += seconds
    per_op = [[group, layers[op], scale]
              for op, (group, _, scale, traced) in enumerate(samples) if traced]
    # Point workloads parse only before timing, so trace one more parse of
    # every distinct matrix for all workloads alike.
    for document in {id(e["document"]): e["document"] for e in runner.inputs}.values():
        with tracer.span("symmatrix.parse"):
            seprkit.matrix_from_document(document)
    parse_calls = [end - start for name, start, end, _, _ in tracer.spans
                   if name == "symmatrix.parse"]

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
    trace_path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}))
    return {
        "samples": samples,
        "per_op": per_op,
        "parse_calls": parse_calls,
        "counts": counts,
        "values_traced": restore is not None,
        "cli": _cli_timings(seprkit, runner, args.seed),
        "trace_file": str(trace_path.relative_to(ROOT)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("task", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = cmd_setup(args) if args.task == "setup" else cmd_measure(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
