"""End-to-end CLI behavior through real subprocess invocations."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from seprkit.symmatrix import PAPER_MATRIX_DOCUMENT

EXPECTED_SEQUENCE = "{0} {0} {0,+,-} {0} {0} {0,+,-} {0} {0} {0,+,-} {0} {0} {0}"


def run_cli(*args, timeout=120, env=None):
    """Run ``python -m seprkit`` with ``args``, ``env`` added to this
    process's environment."""
    proc = subprocess.run(
        [sys.executable, "-m", "seprkit", *args],
        capture_output=True, encoding="utf-8", timeout=timeout,
        env=env and {**os.environ, **env},
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "m12.json"
    path.write_text(json.dumps(PAPER_MATRIX_DOCUMENT), encoding="utf-8")
    return str(path)


# --------------------------------------------------------------------- det


@pytest.mark.parametrize(
    "subset, expected",
    [("1,7,10", "a1*b1*c1"), ("1,2,3", "0"), ("4,9,12", "-a4*b9*c3")],
)
def test_det_known_minors(subset, expected):
    code, out, _ = run_cli("det", "--subset", subset)
    assert code == 0
    assert out.strip() == expected


def test_det_with_explicit_matrix_file(matrix_file):
    code, out, _ = run_cli("det", "--matrix", matrix_file, "--subset", "2,8,11")
    assert code == 0
    assert out.strip() == "a2*b4*c2"


@pytest.mark.parametrize("subset", ["1,1", "0", "13", "1,x", ""])
def test_det_rejects_bad_subsets(subset):
    code, _, err = run_cli("det", "--subset", subset)
    assert code == 3
    assert err


def test_det_requires_subset():
    code, _, _ = run_cli("det")
    assert code == 3


# -------------------------------------------------------------------- sepr


def test_sepr_all_ones():
    code, out, _ = run_cli("sepr", "--all-ones")
    assert code == 0
    assert out.strip() == EXPECTED_SEQUENCE


def test_sepr_with_assignment_file(tmp_path, matrix_file):
    names = PAPER_MATRIX_DOCUMENT["variables"]
    assignment = {name: "2/3" for name in names}
    assignment["b1"] = 7          # plain integers are accepted too
    assignment["b4"] = "1/14"
    path = tmp_path / "point.json"
    path.write_text(json.dumps(assignment), encoding="utf-8")
    code, out, _ = run_cli("sepr", "--matrix", matrix_file, "--assign", str(path))
    assert code == 0
    # a generic positive point realizes the same sequence
    assert out.strip() == EXPECTED_SEQUENCE


def test_sepr_one_by_one_zero_matrix(tmp_path):
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"n": 1, "variables": [], "entries": [["0"]]}), encoding="utf-8")
    code, out, _ = run_cli("sepr", "--matrix", str(path), "--all-ones")
    assert code == 0
    assert out.strip() == "{0}"


@pytest.mark.parametrize(
    "patch",
    [
        {"a1": "0"},            # zero violates the orthant
        {"a1": "-2"},           # negative violates the orthant
        {"a1": None},           # missing variable (None marks deletion)
        {"a1": "1/0"},          # not a rational
        {"a1": 0.5},            # floats are rejected
        {"zz": "1"},            # unknown variable
    ],
)
def test_sepr_rejects_bad_assignments(tmp_path, patch):
    assignment = {name: "1" for name in PAPER_MATRIX_DOCUMENT["variables"]}
    for key, value in patch.items():
        if value is None:
            assignment.pop(key)
        else:
            assignment[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(assignment), encoding="utf-8")
    code, _, err = run_cli("sepr", "--assign", str(path))
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize("value, message", [
    (0.5, "error: assignment for 'a1' must be an integer or a 'p/q' string"),
    (True, "error: assignment for 'a1' must be an integer or a 'p/q' string"),
    ("1/0", "error: assignment for 'a1' is not a valid rational: '1/0'"),
])
def test_sepr_assignment_errors_name_the_variable(tmp_path, value, message):
    assignment = {name: "1" for name in PAPER_MATRIX_DOCUMENT["variables"]}
    assignment["a1"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(assignment), encoding="utf-8")
    code, _, err = run_cli("sepr", "--assign", str(path))
    assert (code, err) == (3, message + "\n")


def test_sepr_needs_exactly_one_point_source():
    assert run_cli("sepr")[0] == 3
    assert run_cli("sepr", "--all-ones", "--assign", "x.json")[0] == 3


# ---------------------------------------------------------------- classify


def test_classify_order_nine():
    code, out, _ = run_cli("classify", "--k", "9")
    assert code == 0
    lines = out.splitlines()
    subset_lines = [line for line in lines if not line.startswith(" ")]
    assert len(subset_lines) == 220
    assert sum(1 for line in subset_lines if line.endswith("Zero")) == 216
    mixed = [line for line in subset_lines if line.endswith("Mixed")]
    assert len(mixed) == 4
    # each Mixed row carries one witness line per sign
    assert sum(1 for line in lines if line.startswith("  + at ")) == 4
    assert sum(1 for line in lines if line.startswith("  - at ")) == 4


def test_classify_order_one():
    code, out, _ = run_cli("classify", "--k", "1")
    assert code == 0
    assert out.splitlines() == [f"{{{i}}}  Zero" for i in range(1, 13)]


def test_classify_order_three_contains_all_exact_classes():
    code, out, _ = run_cli("classify", "--k", "3")
    assert code == 0
    lines = out.splitlines()
    assert any(line.endswith("Pos") for line in lines)
    assert any(line.endswith("Neg") for line in lines)
    assert any(line.endswith("Zero") for line in lines)
    assert "{1,7,10}  Pos" in lines
    assert "{4,9,12}  Neg" in lines


def test_classify_bad_order():
    assert run_cli("classify", "--k", "0")[0] == 3
    assert run_cli("classify", "--k", "13")[0] == 3


# ------------------------------------------------------------ verify-paper


def test_verify_text_mode_shows_table_and_verdicts():
    code, out, _ = run_cli("verify-paper")
    assert code == 0
    assert "{0,+,-}" in out
    assert "pivot-case-split" in out
    assert "[PASS] zero-levels" in out
    assert "[PASS] full-levels" in out
    assert "[PASS] mixed-size-9" in out
    assert out.rstrip().endswith("overall: PASS")


def test_verify_json_mode_matches_schema():
    code, out, _ = run_cli("verify-paper", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert set(document) == {"overall", "n", "seed", "budget",
                             "claims", "sepr", "certificates"}
    assert [c["status"] for c in document["claims"]] == ["PASS"] * 3
    assert document["certificates"][0]["pivot"] == "b1*b4 - b2*b3"


def test_verify_budget_one_is_inconclusive():
    code, out, _ = run_cli("verify-paper", "--budget", "1")
    assert code == 2
    assert "INCONCLUSIVE" in out


def test_verify_output_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli("verify-paper", "--format", "json",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["overall"] == "PASS"


def test_verify_is_byte_deterministic():
    # two string hash seeds, so no set or dict order that depends on them
    # reaches the report
    first = run_cli("verify-paper", "--format", "json", "--seed", "0",
                    env={"PYTHONHASHSEED": "0"})
    second = run_cli("verify-paper", "--format", "json", "--seed", "0",
                     env={"PYTHONHASHSEED": "1"})
    assert first == second
    different_seed = run_cli("verify-paper", "--format", "json", "--seed", "1")
    assert different_seed[0] == 0  # still passes, witnesses may differ


# sha256 of the text reports, recorded before the text renderer was made a
# view of the JSON document; the JSON report's hash is in
# perfbench/reference.json (test_acceptance.py)
@pytest.mark.parametrize("args, digest", [
    (["verify-paper"], "207f720e3e4c24d7c0f4ef419e70bcb5343ade178874f446009601d17bd4c8f8"),
    (["verify-paper", "--budget", "1"],
     "55c295cbe0021c605e8b8f39a6c491fce2a6119f2a2dafb502c856fb73c756cd"),
    (["classify", "--k", "9"], "d48a30db08816eaec0078b6d002cbdb42dc45baebc6723c26903ea64ae49298e"),
])
def test_text_reports_match_their_recorded_hashes(args, digest):
    proc = subprocess.run([sys.executable, "-m", "seprkit", *args],
                          capture_output=True, timeout=120)
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_a_reader_that_closes_the_pipe_is_not_bad_input():
    # classify prints far more than a pipe buffer holds, so it is still
    # writing when the reader goes away after one line
    proc = subprocess.Popen([sys.executable, "-m", "seprkit", "classify"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=120)
    assert first == b"{1}  Zero\n"
    assert b"error:" not in err and b"Traceback" not in err, err
    assert code == 141


# ------------------------------------------------------------ flag policing


def test_invalid_flags_exit_three():
    assert run_cli("verify-paper", "--bogus")[0] == 3
    assert run_cli("verify-paper", "--budget", "0")[0] == 3
    for args in (("verify-paper", "--budget", "x"), ("classify", "--budget", "x"),
                 ("classify", "--k", "1.5"), ("classify", "--k", "0")):
        code, _, err = run_cli(*args)
        assert code == 3, args
        assert f"expected a positive integer, got '{args[-1]}'" in err, args
        assert "_positive_int" not in err, args
    assert run_cli("nonsense")[0] == 3
    assert run_cli()[0] == 3
    # int() would take underscores and other scripts' digits; the flags
    # take ASCII digits, as matrix entries and point values do
    for args in (("verify-paper", "--seed", "1_0"), ("verify-paper", "--budget", "١٠٠٠"),
                 ("classify", "--k", "٣"), ("classify", "--seed", "٣"),
                 ("classify", "--budget", "1_000"), ("det", "--subset", "١,٧,١٠"),
                 ("det", "--subset", "1,7,1_0")):
        code, _, err = run_cli(*args)
        assert code == 3, args
        assert "Traceback" not in err, args
    # surrounding whitespace and the seed's sign still parse
    assert run_cli("classify", "--k", " 1 ", "--seed", "-1")[0] == 0
    assert run_cli("det", "--subset", " 1, 7 ,10")[1] == "a1*b1*c1\n"


@pytest.mark.parametrize("entry, message", [
    pytest.param("x^100000000", "entry (1,1): exponent 100000000 exceeds", id="exponent"),
    pytest.param("(" * 250 + "x" + ")" * 250,
                 "entry (1,1): parentheses nest deeper than 100 (at offset 100)", id="nesting"),
])
def test_hostile_exponent_in_matrix_file_exits_three(tmp_path, entry, message):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps({"n": 1, "entries": [[entry]]}), encoding="utf-8")
    code, _, err = run_cli("det", "--matrix", str(path), "--subset", "1", timeout=30)
    assert code == 3
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("document, message", [
    pytest.param({"n": True, "entries": [["x"]]}, "'n' must be a positive integer",
                 id="boolean-order"),
    pytest.param({"n": 1, "variables": ["a", "a"], "entries": [["a"]]},
                 "variable 'a' declared twice", id="variable-declared-twice"),
])
def test_malformed_matrix_document_exits_three(tmp_path, document, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, _, err = run_cli("det", "--matrix", str(path), "--subset", "1")
    assert code == 3
    assert message in err
    assert "Traceback" not in err


def test_missing_matrix_file_exits_three(tmp_path):
    code, _, err = run_cli("det", "--matrix", str(tmp_path / "nope.json"),
                           "--subset", "1")
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize("module", ["seprkit", "seprkit.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # every CLI call pays for the import: dataclasses pulls in inspect,
    # ast, dis and tokenize, and pathlib pulls in urllib.parse and
    # ipaddress.  -S keeps site hooks from loading modules.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (f"import sys, {module}; "
            "print([name in sys.modules for name in ('dataclasses', 'inspect', 'pathlib')])")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          encoding="utf-8", env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[False, False, False]\n", "")


def test_help_lists_defaults():
    # every subcommand's help shows its flags' defaults; a default of None
    # only means the flag was not given, so no help line says so
    matrix = "(default: the built-in 12x12 matrix)"
    for command, defaults in (
            ("verify-paper", ["(default: 1000)", "(default: 0)", "(default: text)"]),
            ("det", [matrix]),
            ("sepr", [matrix]),
            ("classify", [matrix, "(default: all orders)", "(default: 1000)",
                          "(default: 0)"])):
        code, out, _ = run_cli(command, "--help")
        assert code == 0
        flat = " ".join(out.split())  # undo argparse line wrapping
        for default in defaults:
            assert default in flat, command
        assert "(default: None)" not in flat, command
