"""Every fenced ``python`` block of README.md runs without raising, and the
shell examples shown in full print what README.md shows under them."""

import re
from pathlib import Path

import pytest

from seprkit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_in_the_readme_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})


@pytest.mark.parametrize("command", ["det --subset 2,5,8,9,11,12", "sepr --all-ones"])
def test_shell_examples_in_the_readme_print_what_it_shows(command, capsys):
    shown = re.search(rf"^\$ seprkit {re.escape(command)}\n(.*?)^```",
                      README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)
    assert shown is not None, f"README.md shows no output for 'seprkit {command}'"
    assert main(command.split()) == 0
    assert capsys.readouterr().out == shown.group(1)
