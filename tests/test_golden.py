"""Byte-for-byte CLI output on a few fast invocations.

Each file under ``tests/golden`` is the output of one invocation below, as
the CLI wrote it; a change that moves any output bit fails here.
"""

from pathlib import Path

import pytest

from fockroof.cli import main

GOLDEN = Path(__file__).with_name("golden")

# file name -> argv; stdout is compared, except for dump-lp, which writes
# the program to --out
CASES = {
    "eval_rank3.json": ["eval", "--p", "0.6,0.2,0.2", "--delta", "0.05"],
    "eval_rank4.json": ["eval", "--p", "0.4,0.3,0.2,0.1", "--delta", "0.05"],
    # isqrt(L) = 333, so the grid's codes are uint16
    "eval_rank3_uint16.json": ["eval", "--p", "0.5,0.3,0.2", "--delta", "0.003"],
    "thermal.json": [
        "thermal", "--nth", "0.5", "--m-range", "1:5", "--delta", "0.1", "--levels", "2",
    ],
    # a rank-6 full lattice and its refinement neighbourhood
    "thermal_rank6.json": [
        "thermal", "--nth", "0.5", "--m-range", "6:6", "--delta", "0.1", "--levels", "2",
    ],
    "sweep3.json": ["sweep3", "--step", "0.1", "--lp-check", "7", "--delta", "0.05"],
    "sweep4.json": [
        "sweep4", "--n", "1", "--step", "0.1", "--lp-check", "5", "--delta", "0.05",
    ],
    "grid_info.json": ["grid-info", "--m", "4", "--delta", "0.05"],
}
DUMP = ("dump_lp_rank3.lp", ["dump-lp", "--p", "0.6,0.2,0.2", "--delta", "0.05"])


# the top populations of the rank-5 and rank-6 thermal windows are below
# 4*delta^2
@pytest.mark.filterwarnings("ignore::fockroof.roof.GridResolutionWarning")
@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_is_byte_identical(name, capsys):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_dump_lp_is_byte_identical(tmp_path):
    name, argv = DUMP
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
