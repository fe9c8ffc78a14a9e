"""The README's library quickstart and command-line examples run against
the current API."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from fockroof.cli import _build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading, language):
    section = README.read_text(encoding="utf-8").split(f"## {heading}", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, flags=re.S).group(1)


def test_library_quickstart_runs():
    block = code_block("Library quickstart", "python")
    namespace = {}
    exec(compile(block, f"{README}:quickstart", "exec"), namespace)
    assert namespace["estimate"].value == pytest.approx(0.2, abs=1e-9)
    assert namespace["estimate"].delta == 0.01


# the thermal example's upper ranks have populations below 4*delta^2
@pytest.mark.filterwarnings("ignore::fockroof.GridResolutionWarning")
def test_command_line_examples_run(tmp_path, capsys):
    commands = [
        shlex.split(line)[1:]
        for line in code_block("Command line", "sh").splitlines()
        if line.startswith("fockroof ")
    ]
    assert len(commands) == 7
    for argv in commands:
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_flags_paragraph_names_every_option():
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    paragraph = re.search(r"^Flags: .*?(?=\n\n)", text, flags=re.S | re.M).group(0)
    named = set(re.findall(r"`(--[A-Za-z][\w-]*)", paragraph))
    (subcommands,) = [
        action
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    accepted = {
        option
        for parser in subcommands.choices.values()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }
    assert named - accepted == set(), "named in the README but accepted nowhere"
    assert accepted - named == set(), "accepted but not named in the README"
