"""Hostile input through the command line.

Each case ends in exit 3 with one ``error:`` line, or in exit 0 with its
normal output: never a traceback, a hang or exhausted memory.  A case runs
``python -m seprkit`` in a child of its own, one at a time.  The child caps
its own address space and CPU time in a ``-c`` prelude before it imports
seprkit, so a case that regresses into runaway work dies in the child and
the test runner is never limited; the parent adds a wall timeout.
"""

import json
import subprocess
import sys

import pytest

resource = pytest.importorskip("resource")

# The caps of each child, and the parent's wall timeout; every case below
# takes well under a second.
ADDRESS_SPACE = 1 << 30
CPU_SECONDS = 20
WALL_SECONDS = 30

CAPS = f"""\
import resource
for limit, cap in ((resource.RLIMIT_AS, {ADDRESS_SPACE}), (resource.RLIMIT_CPU, {CPU_SECONDS})):
    hard = resource.getrlimit(limit)[1]
    resource.setrlimit(limit, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
"""
PRELUDE = CAPS + 'import runpy; runpy.run_module("seprkit", run_name="__main__", alter_sys=True)\n'

HUGE = "1" + "0" * 26


def matrix(entries, **fields):
    return json.dumps({"n": len(entries), "entries": entries, **fields})


def diagonal(n, entry):
    return matrix([[entry if i == j else "0" for j in range(n)] for i in range(n)])


DEEP = "[" * 2000 + "]" * 2000
ONE_X = matrix([["x"]])
DET = ["det", "--matrix", "m.json", "--subset", "1"]
SEPR = ["sepr", "--matrix", "m.json", "--assign", "a.json"]

# (args, files, exit code, the error message's text or the exact output)
CASES = {
    "ragged-row": (DET, {"m.json": matrix([["1", "2"], ["3"]])}, 3,
                   "row 2 must hold exactly 2 entries"),
    "deep-parentheses": (DET, {"m.json": matrix([["(" * 100_000 + "x" + ")" * 100_000]])}, 3,
                         "parentheses nest deeper than 100"),
    "classify-25x25": (["classify", "--matrix", "m.json"], {"m.json": diagonal(25, "x")}, 3,
                       "refusing to enumerate 2^25 principal minors"),
    "all-zero-1000x1000": (DET, {"m.json": matrix([["0"] * 1000 for _ in range(1000)])}, 0,
                           "0\n"),
    "2000-digit-literal": (DET, {"m.json": matrix([["7" * 2000]])}, 3,
                           "integer literal of 2000 digits exceeds"),
    "exponent-33": (DET, {"m.json": matrix([["x^33"]])}, 3, "exponent 33 exceeds 32"),
    "degree-64-product": (DET, {"m.json": matrix([["*".join(f"x{i}" for i in range(64))]])}, 3,
                          "degree bound 33 exceeds 32"),
    "trailing-spaces": (DET, {"m.json": matrix([["x" + " " * 100_000]])}, 0, "x\n"),
    "spaces-then-bad-character": (DET, {"m.json": matrix([[" " * 100_000 + "$"]])}, 3,
                                  "unexpected character '$' (at offset 100000)"),
    "non-string-entry": (DET, {"m.json": '{"n": 1, "entries": [[1]]}'}, 3,
                         "entry (1,1) must be a string expression"),
    "boolean-order": (DET, {"m.json": '{"n": true, "entries": [["x"]]}'}, 3,
                      "'n' must be a positive integer"),
    "duplicate-variable": (DET, {"m.json": matrix([["a"]], variables=["a", "a"])}, 3,
                           "variable 'a' declared twice"),
    "non-ascii-variable": (DET, {"m.json": matrix([["é"]])}, 3, "unexpected character 'é'"),
    "non-utf8-bytes": (DET, {"m.json": b'{"n": 1, "entries": [["\xff\xfe"]]}'}, 3,
                       "'utf-8' codec can't decode byte 0xff"),
    "5000-digit-json-integer": (DET, {"m.json": '{"n": ' + "1" * 5000 + ', "entries": []}'}, 3,
                                "invalid JSON: Exceeds the limit (4300 digits) for integer string"
                                " conversion: value has 5000 digits\n"),
    "deep-json-matrix": (DET, {"m.json": '{"n": 1, "entries": ' + DEEP + "}"}, 3,
                         "invalid JSON: maximum recursion depth exceeded"),
    "assignment-huge-exponent": (SEPR, {"m.json": ONE_X, "a.json": '{"x": "1e3000000"}'}, 3,
                                 "assignment for 'x' is not a valid rational: '1e3000000'"),
    "assignment-boolean": (SEPR, {"m.json": ONE_X, "a.json": '{"x": true}'}, 3,
                           "assignment for 'x' must be an integer or a 'p/q' string"),
    "assignment-list": (SEPR, {"m.json": ONE_X, "a.json": "[1]"}, 3,
                        "assignment document must be a JSON object"),
    "assignment-not-json": (SEPR, {"m.json": ONE_X, "a.json": '{"x": '}, 3,
                            "invalid JSON: Expecting value"),
    "deep-json-assignment": (SEPR, {"m.json": ONE_X, "a.json": '{"x": ' + DEEP + "}"}, 3,
                             "invalid JSON: maximum recursion depth exceeded"),
    "huge-order": (["classify", "--k", HUGE], {}, 3, f"order {HUGE} out of range 1..12"),
    "huge-index": (["det", "--subset", HUGE], {}, 3, f"index {HUGE} out of range 1..12"),
}


def test_the_caps_hold_in_the_child_and_not_in_the_runner():
    limits = (resource.RLIMIT_AS, resource.RLIMIT_CPU)
    before = [resource.getrlimit(limit) for limit in limits]
    show = "print([resource.getrlimit(limit)[0] for limit in " \
           "(resource.RLIMIT_AS, resource.RLIMIT_CPU)])"
    proc = subprocess.run([sys.executable, "-c", CAPS + show], capture_output=True,
                          encoding="utf-8", timeout=WALL_SECONDS)
    caps = [cap if hard == resource.RLIM_INFINITY else min(cap, hard)
            for cap, (_, hard) in zip((ADDRESS_SPACE, CPU_SECONDS), before)]
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{caps}\n", "")
    assert [resource.getrlimit(limit) for limit in limits] == before


@pytest.mark.parametrize("args, files, code, expected", CASES.values(), ids=CASES.keys())
def test_hostile_input_ends_in_one_error_line_or_normal_output(
        tmp_path, args, files, code, expected):
    for name, content in files.items():
        if isinstance(content, str):
            content = content.encode("utf-8")
        (tmp_path / name).write_bytes(content)
    args = [str(tmp_path / arg) if arg in files else arg for arg in args]
    proc = subprocess.run([sys.executable, "-c", PRELUDE, *args],
                          capture_output=True, timeout=WALL_SECONDS)
    out, err = proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")
    assert "Traceback" not in err, err
    assert proc.returncode == code, err
    if code == 0:
        assert (out, err) == (expected, "")
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert expected in err, err
