"""The examples in README.md run and print what README.md shows."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from lmlreg.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# (info string, body) of every fenced block, in order
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.S | re.M)


def test_python_examples_print_what_is_shown():
    """Each python block, run in one namespace, prints the plain block after it."""
    namespace: dict = {}
    examples = [(body, BLOCKS[i + 1]) for i, (tag, body) in enumerate(BLOCKS) if tag == "python"]
    assert len(examples) == 2
    for code, (tag, shown) in examples:
        assert tag == ""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(code, namespace)
        assert out.getvalue() == shown


@pytest.fixture()
def chest(tmp_path) -> dict[str, str]:
    """README's chest table and zero set as files, keyed by the names README uses."""
    table = next(body for tag, body in BLOCKS
                 if tag == "" and body.startswith("cough,fever,exposed,count\n"))
    zeros = re.search(r"e\.g\. `(\{[^`]*\};\{[^`]*\})`", README).group(1)
    (tmp_path / "chest.csv").write_text(table)
    (tmp_path / "zeros.txt").write_text(zeros + "\n")
    return {name: str(tmp_path / name) for name in ("chest.csv", "zeros.txt")}


def cli_example(command: str, files: dict[str, str]) -> tuple[list[str], list[str]]:
    """The argv of README's ``$ lmlreg <command>`` example and the lines it shows."""
    body = next(body for tag, body in BLOCKS
                if tag == "sh" and body.startswith(f"$ lmlreg {command} "))
    line, *shown = body.replace("\\\n", " ").splitlines()
    argv = [files.get(token, token) for token in shlex.split(line)[2:]]
    return argv, shown


@pytest.mark.parametrize("command", ["risk", "plot-data"])
def test_cli_examples_print_what_is_shown(chest, capsys, command):
    argv, shown = cli_example(command, chest)
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == shown


def test_fit_example_starts_as_shown(chest, capsys):
    """README cuts the wide fit table with ``...``; every line starts as shown."""
    argv, shown = cli_example("fit", chest)
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(shown)
    for line, prefix in zip(lines, shown):
        assert line.startswith(prefix.removesuffix("..."))
