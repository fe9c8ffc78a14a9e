"""The README's library quickstart and command-line examples run against
the current API."""

import re
import shlex
from pathlib import Path

import pytest

from fockroof.cli import main

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
