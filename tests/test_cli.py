import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fockroof.cli import main
from fockroof import FockDiagonalState, assemble_lp, build_grid, classify, simplex

from conftest import parse_dump, singular_on_second_refactor

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    return json.loads(out)


def read_csv_text(text):
    return list(csv.reader(io.StringIO(text)))


class TestEval:
    def test_rank2_pin(self, capsys):
        payload = run_json(
            capsys, "eval", "--p", "0.84,0.16", "--delta", "0.01", "--format", "json"
        )
        row = payload["rows"][0]
        assert row["n_lp"] == pytest.approx(0.0256, abs=1e-9)
        assert row["simple_bound"] == pytest.approx(0.0256, abs=1e-12)
        assert row["metrological_power"] == 0.0
        assert row["ansatz_label"] is None
        assert len(row["support"]) == 1
        assert row["support"][0]["x"] == [pytest.approx(0.4)]
        assert len(row["decomposition"]) == 4
        assert payload["meta"]["command"] == "eval"

    def test_rank4_exception_state(self, capsys):
        payload = run_json(
            capsys,
            "eval",
            "--p",
            "0.92,0.06,0.01,0.01",
            "--delta",
            "0.05",
            "--format",
            "json",
        )
        row = payload["rows"][0]
        assert row["ansatz_label"] == "Triplet0"
        assert row["ansatz_value"] == pytest.approx(0.01625, abs=1e-9)
        assert row["metrological_power"] == 0.0
        assert row["n_lp"] <= row["ansatz_value"] + 1e-9

    def test_vacuum(self, capsys):
        payload = run_json(capsys, "eval", "--p", "1")
        row = payload["rows"][0]
        assert row["n_lp"] == 0.0
        assert row["simple_bound"] == 0.0
        assert row["metrological_power"] == 0.0

    def test_untrimmed_input_reports_window(self, capsys):
        payload = run_json(capsys, "eval", "--p", "0,0.84,0.16", "--delta", "0.01")
        row = payload["rows"][0]
        assert row["rank"] == 3
        assert row["window_offset"] == 1
        assert row["window_rank"] == 2
        # the shifted two-level closed form: 1 + 0.16 - 2*0.16*0.84
        assert row["n_lp"] == pytest.approx(0.8912, abs=1e-9)

    @pytest.mark.slow
    def test_reference_instance_end_to_end(self, capsys):
        payload = run_json(
            capsys,
            "eval",
            "--p", "0.92,0.06,0.01,0.01",
            "--delta", "0.00999",
            "--format", "json",
        )
        row = payload["rows"][0]
        assert row["n_lp"] == pytest.approx(0.0153096, abs=5e-6)
        assert row["ansatz_label"] == "Triplet0"
        assert row["ansatz_value"] == pytest.approx(0.01625, abs=1e-6)
        assert row["metrological_power"] == 0.0

    def test_csv_round_trip(self, capsys):
        code, out = run_cli(
            capsys, "eval", "--p", "0.84,0.16", "--delta", "0.01", "--format", "csv"
        )
        assert code == 0
        rows = read_csv_text(out)
        header, data = rows[0], rows[1]
        record = dict(zip(header, data))
        assert float(record["n_lp"]) == pytest.approx(0.0256, abs=1e-9)
        support = json.loads(record["support"])
        assert support[0]["x"] == [pytest.approx(0.4)]
        decomposition = json.loads(record["decomposition"])
        assert len(decomposition) == 4


class TestExitCodes:
    def test_invalid_populations(self, capsys):
        code, _ = run_cli(capsys, "eval", "--p", "0.5,0.4")
        assert code == 2

    def test_invalid_delta(self, capsys):
        code, _ = run_cli(capsys, "eval", "--p", "1", "--delta", "0.7")
        assert code == 2

    def test_unparsable_populations(self, capsys):
        code, _ = run_cli(capsys, "eval", "--p", "a,b")
        assert code == 2

    def test_capacity(self, capsys):
        code, _ = run_cli(capsys, "grid-info", "--m", "4", "--delta", "0.003")
        assert code == 4

    def test_capacity_from_the_volume_bound(self, capsys):
        code = main(["grid-info", "--m", "4", "--delta", "1e-4"])
        assert code == 4
        assert "at least" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            "grid-info --m 2 --delta 1e-300",
            "eval --p 0.5,0.5 --delta 1e-300",
            "grid-info --m 3 --delta 1e-160",
            "grid-info --m 3 --delta 1e-150",
            "eval --p 0.3,0.3,0.4 --delta 1e-9",
            # the neighbourhoods of level 20 have 5,242,881 squares
            "thermal --nth 0.5 --m-range 2:2 --delta 0.1 --levels 20",
            "thermal --nth 0.5 --m-range 2:2 --delta 0.1 --levels 30",
        ],
    )
    def test_capacity_of_the_table_of_squares(self, capsys, argv):
        assert main(argv.split()) == 4
        assert "at least" in capsys.readouterr().err

    def test_sweep_capacity(self, capsys):
        # C(503, 3) rows at step 0.002, counted before any row is built
        code = main(["sweep4", "--step", "0.002"])
        assert code == 4
        assert "21084251 points" in capsys.readouterr().err

    def test_solver_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(simplex, "DEFAULT_MAX_ITER", 1)
        code = main(["eval", "--p", "0.6,0.2,0.2", "--delta", "0.05"])
        assert code == 3
        assert "IterationLimit" in capsys.readouterr().err

    def test_singular_basis_is_a_solver_failure(self, capsys, monkeypatch):
        singular_on_second_refactor(monkeypatch)
        code = main(["eval", "--p", "0.6,0.2,0.2", "--delta", "0.05"])
        assert code == 3
        assert "Numerical" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            "eval --p 1 --delta 0.7",
            "eval --p 1 --delta 0",
            "eval --p 1 --n -1",
            "eval --p 1 --format xml",
            "sweep3 --step 0",
            "sweep3 --step 0.6",
            "sweep3 --n -1",
            "sweep4 --lp-check -1",
            "thermal --nth 0",
            "thermal --nth 1 --levels 0",
            "thermal --nth 1 --m-range a:b",
            "thermal --nth 1 --m-range 0:2",
            "grid-info --m 1 --delta 0.1",
            "grid-info --m 3 --delta 0.9",
            "dump-lp --p 0.84,0.16 --delta 0.7 --out OUT",
            # malformed numbers
            "eval --p 1 --delta abc",
            "eval --p 1 --n 1e3",
            "sweep4 --lp-check 1.5",
            "eval --p ,",
            # a window of one level has no program to dump
            "dump-lp --p 0,1,0 --out OUT",
            # an --out path in a missing directory
            "eval --p 0.5,0.5 --out MISSING",
            "eval --p 0.5,0.5 --format csv --out MISSING",
            "dump-lp --p 0.5,0.5 --delta 0.1 --out MISSING",
        ],
    )
    def test_invalid_argument(self, argv, tmp_path, capsys):
        paths = {"OUT": tmp_path / "program.lp", "MISSING": tmp_path / "missing" / "x"}
        code = main([str(paths.get(tok, tok)) for tok in argv.split()])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_process_exit_codes(self, tmp_path):
        def process(*argv):
            env = {**os.environ, "PYTHONPATH": str(SRC)}
            cmd = [sys.executable, "-m", "fockroof.cli", *argv]
            return subprocess.run(cmd, env=env, capture_output=True, text=True)

        def run(*argv):
            return process(*argv).returncode

        assert run("eval", "--p", "0.84,0.16", "--delta", "0.1") == 0
        missing = tmp_path / "missing" / "x.csv"
        for argv in (("eval", "--p", "0.5,0.5"), ("dump-lp", "--p", "0.5,0.5", "--delta", "0.1")):
            proc = process(*argv, "--out", str(missing))
            assert proc.returncode == 2, argv
            assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert run("eval", "--p", "0.84,0.16", "--delta", "0.7") == 2
        # a missing required option or an unknown one exits through argparse
        # itself
        assert run("eval") == 2
        assert run("sweep4", "--threads", "2") == 2
        # the removed solve knobs are unknown options on every subcommand
        assert run("eval", "--p", "0.84,0.16", "--expansion-P", "6") == 2
        for command in (
            "eval --p 1", "sweep3", "sweep4", "thermal --nth 1", "grid-info --m 2 --delta 0.1"
        ):
            assert run(*command.split(), "--max-iter", "10") == 2, command
        assert run("grid-info", "--m", "4", "--delta", "0.003") == 4


class TestSweep3:
    def test_row_count_and_corners(self, capsys):
        payload = run_json(capsys, "sweep3", "--step", "0.05", "--format", "json")
        rows = payload["rows"]
        assert len(rows) == 231
        by_point = {(r["p2"], r["p1"]): r for r in rows}
        assert by_point[(0.0, 0.0)]["value"] == pytest.approx(0.0)
        assert by_point[(0.0, 1.0)]["value"] == pytest.approx(1.0)
        assert by_point[(1.0, 0.0)]["value"] == pytest.approx(2.0)

    def test_lp_check_stride(self, capsys):
        payload = run_json(
            capsys,
            "sweep3",
            "--step", "0.25",
            "--delta", "0.05",
            "--lp-check", "3",
            "--format", "json",
        )
        rows = payload["rows"]
        checked = [r for r in rows if r["n_lp"] is not None]
        assert len(checked) == len([i for i in range(len(rows)) if i % 3 == 0])
        for r in checked:
            # the lattice estimate sits above the (exact) ansatz by at most
            # the grid resolution slack
            assert r["n_lp"] >= r["value"] - 1e-9
            assert r["n_lp"] <= r["value"] + 10 * 0.05**2 * 3

    def test_phase_regions(self, capsys):
        payload = run_json(capsys, "sweep3", "--step", "0.05", "--format", "json")
        rows = payload["rows"]
        # gap-2 states on the p1 = 0 axis saturate the mean photon number and
        # tie-break to the triplet label
        for r in rows:
            if r["p1"] == 0.0:
                assert r["label"] == "Triplet"
                assert r["value"] == pytest.approx(2.0 * r["p2"], abs=1e-12)
        # just off the axis all three regions appear in the expected order
        off_axis = {r["p2"]: r["label"] for r in rows if r["p1"] == 0.05}
        assert off_axis[0.05] == "UpperPair"
        assert off_axis[0.65] == "Triplet"
        assert off_axis[0.8] == "LowerPair"


class TestSweep4:
    def test_row_count_and_vertices(self, capsys):
        payload = run_json(capsys, "sweep4", "--step", "0.1", "--format", "json")
        rows = payload["rows"]
        assert len(rows) == 286
        by_point = {(r["p3"], r["p2"], r["p1"]): r for r in rows}
        assert by_point[(0.0, 0.0, 0.0)]["value"] == pytest.approx(0.0)
        assert by_point[(0.0, 0.0, 1.0)]["value"] == pytest.approx(1.0)
        assert by_point[(0.0, 1.0, 0.0)]["value"] == pytest.approx(2.0)
        assert by_point[(1.0, 0.0, 0.0)]["value"] == pytest.approx(3.0)

    def test_lp_check_spans_window_ranks(self, capsys):
        # the checked windows span ranks 1-4, so several lattices are shared
        code, out = run_cli(
            capsys, "sweep4", "--step", "0.25", "--lp-check", "2", "--delta", "0.1",
            "--format", "csv",
        )
        assert code == 0
        rows = read_csv_text(out)
        assert sum(1 for r in rows[1:] if r[-1] != "") == 18

    def test_rank3_face_embedding(self, capsys):
        sweep4 = run_json(capsys, "sweep4", "--step", "0.2", "--format", "json")
        sweep3 = run_json(capsys, "sweep3", "--step", "0.2", "--format", "json")
        face = {
            (r["p2"], r["p1"]): r for r in sweep4["rows"] if r["p3"] == 0.0
        }
        for r3 in sweep3["rows"]:
            r4 = face[(r3["p2"], r3["p1"])]
            assert r4["value"] == pytest.approx(r3["value"], abs=1e-10)


def sweep_populations(row, rank):
    """Populations of a sweep row, rebuilt as the sweep builds them: the
    ground level takes the remainder, subtracted top level first."""
    top = [row[f"p{k}"] for k in range(rank - 1, 0, -1)]
    rest = 1.0
    for p in top:
        rest -= p
    return np.asarray([max(rest, 0.0), *reversed(top)])


class TestSweepArrayPass:
    @pytest.mark.parametrize("rank, step", [(3, "0.05"), (4, "0.1")])
    @pytest.mark.parametrize("n", [0, 2])
    def test_rows_equal_one_state_classify(self, capsys, rank, step, n):
        payload = run_json(capsys, f"sweep{rank}", "--n", str(n), "--step", step)
        for row in payload["rows"]:
            result = classify(FockDiagonalState(n, sweep_populations(row, rank)))
            assert row["label"] == result.label.value
            assert row["value"] == result.value

    @pytest.mark.parametrize("rank, step, count", [(3, "0.15", 28), (4, "0.35", 10)])
    def test_step_with_large_fractional_reciprocal(self, capsys, rank, step, count):
        # 1/step has fractional part >= 0.5: rounding it up would put the
        # top corner outside the simplex
        payload = run_json(capsys, f"sweep{rank}", "--step", step)
        rows = payload["rows"]
        assert len(rows) == count
        for row in rows:
            FockDiagonalState(0, sweep_populations(row, rank))

    def test_step_just_above_reciprocal_keeps_top_corner(self, capsys):
        # 1/0.10000000000000002 rounds to 9.999999999999998
        rows = run_json(capsys, "sweep3", "--step", "0.10000000000000002")["rows"]
        assert len(rows) == 66
        assert rows[-1]["p2"] == 10 * 0.10000000000000002

    def test_cli_import_leaves_thread_pool_unloaded(self):
        code = "import sys, fockroof.cli; print('concurrent.futures' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
        assert out.stdout.decode().strip() == "False"


class TestThermal:
    def test_small_ranks(self, capsys):
        payload = run_json(
            capsys,
            "thermal",
            "--nth", "0.5",
            "--m-range", "1:3",
            "--delta", "0.05",
            "--levels", "2",
            "--format", "json",
        )
        rows = payload["rows"]
        assert [r["rank"] for r in rows] == [1, 2, 3]
        assert rows[0]["n_lp"] == 0.0
        assert rows[1]["ratio"] == pytest.approx(0.25, abs=1e-9)
        assert rows[2]["ratio"] < rows[1]["ratio"]

    def test_ratio_rounding_to_one(self, capsys):
        # n_th / (1 + n_th) rounds to 1: the populations are uniform
        payload = run_json(
            capsys, "thermal", "--nth", "1e17", "--m-range", "1:4", "--delta", "0.1"
        )
        rows = payload["rows"]
        assert rows[1]["populations"] == [0.5, 0.5]
        assert rows[1]["n_lp"] == pytest.approx(0.25, abs=1e-3)
        assert rows[1]["n_lp"] >= 0.25
        assert [r["mean_photon"] for r in rows] == [0.0, 0.5, 1.0, 1.5]

    @pytest.mark.filterwarnings("ignore::fockroof.GridResolutionWarning")
    def test_top_populations_underflow(self, capsys):
        payload = run_json(capsys, "thermal", "--nth", "1e-100", "--m-range", "1:6")
        rows = payload["rows"]
        assert [r["rank"] for r in rows] == [1, 2, 3, 4, 5, 6]
        assert rows[5]["populations"][-2:] == [0.0, 0.0]
        # ranks 4-6 solve the same rank-4 window
        assert rows[3]["n_lp"] == rows[4]["n_lp"] == rows[5]["n_lp"] > 0.0

    def test_overflowing_powers(self, capsys):
        # (1 + n_th)^2 overflows: the populations are q^k, uniform at q = 1
        payload = run_json(
            capsys, "thermal", "--nth", "1e300", "--m-range", "1:3", "--delta", "0.1"
        )
        rows = payload["rows"]
        assert [r["populations"] for r in rows[1:]] == [[0.5, 0.5], [1 / 3] * 3]
        assert [r["mean_photon"] for r in rows] == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("nth", ["inf", "-inf", "nan"])
    def test_non_finite_nth(self, capsys, nth):
        code = main(["thermal", f"--nth={nth}", "--m-range", "1:3"])
        assert code == 2
        assert "argument --nth: must be positive and finite" in capsys.readouterr().err

    def test_bad_range(self, capsys):
        code, _ = run_cli(capsys, "thermal", "--nth", "0.5", "--m-range", "3:1")
        assert code == 2
        code, _ = run_cli(capsys, "thermal", "--nth", "-1", "--m-range", "1:2")
        assert code == 2


class TestGridInfo:
    def test_paper_pin(self, capsys):
        payload = run_json(capsys, "grid-info", "--m", "4", "--delta", "0.00999")
        assert payload["rows"][0]["points"] == 537052

    def test_small_grids(self, capsys):
        assert run_json(capsys, "grid-info", "--m", "2", "--delta", "0.5")["rows"][0][
            "points"
        ] == 3
        assert run_json(capsys, "grid-info", "--m", "3", "--delta", "0.5")["rows"][0][
            "points"
        ] == 6

    @pytest.mark.parametrize("m,delta", [(2, 0.002), (3, 0.05), (4, 0.1)])
    def test_byte_estimates_match_the_arrays(self, capsys, m, delta):
        row = run_json(capsys, "grid-info", "--m", str(m), "--delta", str(delta))[
            "rows"
        ][0]
        grid = build_grid(m, delta)
        grid_bytes = sum(
            arr.nbytes for arr in (grid.starts, grid.run_codes, grid.codes, grid.squares)
        )
        assert row["grid_bytes"] == grid_bytes
        lp = assemble_lp(FockDiagonalState(0, np.full(m, 1.0 / m)), grid)
        assert lp.row_matrix is grid
        assert row["lp_bytes"] == grid_bytes + lp.objective.nbytes


class TestDumpLp:
    def test_dump_matches_assembly(self, tmp_path, capsys):
        out = tmp_path / "program.lp"
        code, _ = run_cli(
            capsys, "dump-lp", "--p", "0.84,0.16", "--delta", "0.01", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rows=2 cols=101"
        objective, row_matrix, rhs = parse_dump(out)
        expected = assemble_lp(
            FockDiagonalState(0, np.array([0.84, 0.16])), build_grid(2, 0.01)
        )
        np.testing.assert_array_equal(objective, expected.objective)
        np.testing.assert_array_equal(
            row_matrix, expected.row_matrix.columns(np.arange(expected.n_cols))
        )
        np.testing.assert_array_equal(rhs, expected.rhs)


class TestDeterminism:
    def test_eval_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["eval", "--p", "0.6,0.2,0.2", "--delta", "0.02", "--format", "json"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thermal_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "thermal", "--nth", "0.5", "--m-range", "2:3",
            "--delta", "0.05", "--levels", "2", "--format", "csv",
        ]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
