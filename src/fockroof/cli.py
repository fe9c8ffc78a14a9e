"""Command-line front end: single-state reports, phase-diagram sweeps,
truncated-thermal experiments, grid diagnostics and LP dumps.

Every command emits either CSV (RFC-4180 quoting) or JSON (one object with
``meta`` and ``rows``).  Output is deterministic: fixed field order, floats
as shortest round-trip decimals, rows in lattice order.

Exit codes: 0 success, 2 invalid input (an unwritable ``--out`` path too),
3 solver failure, 4 grid capacity.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import partial

import numpy as np

from .grid import (
    DEFAULT_MAX_POINTS,
    GridCapacityError,
    build_grid,
    checked_count,
    grid_nbytes,
)
from .metrology import quadrature_qfi
from .phases import classify, classify_many
from .roof import (
    LatticeLps,
    SolverFailure,
    assemble_lp,
    estimate_nonclassicality,
    expand_histogram,
    refine,
)
from .states import (
    FockDiagonalState,
    check_populations,
    mean_photon,
    simple_bound,
    truncated_thermal,
)
from .simplex import write_lp

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3
EXIT_CAPACITY = 4


def _number(text: str, kind):
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {kind.__name__} value: {text!r}"
        ) from None


def _spacing(text: str) -> float:
    """A lattice spacing or sweep step, in (0, 0.5]."""
    value = _number(text, float)
    if not 0.0 < value <= 0.5:
        raise argparse.ArgumentTypeError(f"must lie in (0, 0.5], got {value}")
    return value


def _positive(text: str) -> float:
    value = _number(text, float)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _at_least(floor: int):
    """Argument type: an integer no smaller than ``floor``."""

    def parse(text: str) -> int:
        value = _number(text, int)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {value}")
        return value

    return parse


def _rank_range(text: str) -> tuple[int, int]:
    """``LO:HI`` window ranks with 1 <= LO <= HI."""
    try:
        lo, hi = (int(tok) for tok in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}; use LO:HI") from None
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"must satisfy 1 <= LO <= HI, got {text!r}")
    return lo, hi


def _parse_populations(text: str) -> list[float]:
    try:
        pops = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"cannot parse populations {text!r}") from exc
    if not pops:
        raise ValueError("populations must be nonempty")
    return pops


def _json(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip decimal
    if isinstance(value, (list, dict)):
        return _json(value)
    return str(value)


def _emit(meta: dict, rows: list[dict], args) -> None:
    if args.format == "json":
        text = _json({"meta": meta, "rows": rows}) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        if rows:
            header = list(rows[0].keys())
            writer.writerow(header)
            for row in rows:
                writer.writerow([_csv_cell(row[k]) for k in header])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(args) -> int:
    pops = _parse_populations(args.p)
    state = FockDiagonalState(args.n, np.asarray(pops))
    work = state.trimmed()
    if work.rank == 1:
        n_lp = float(work.offset)
        support = [{"x": [], "weight": 1.0}]
        decomposition = [{"probability": 1.0, "amplitudes": [{"re": 1.0, "im": 0.0}]}]
    else:
        estimate = estimate_nonclassicality(work, args.delta)
        n_lp = estimate.value
        support = [
            {"x": [float(v) for v in row[1:]], "weight": float(w)}
            for row, w in zip(estimate.amplitudes, estimate.weights)
        ]
        decomposition = expand_histogram(work, estimate).to_jsonable()
    if work.rank in (3, 4):
        ansatz = classify(work)
        ansatz_label, ansatz_value = ansatz.label.value, float(ansatz.value)
    else:
        ansatz_label, ansatz_value = None, None
    row = {
        "offset": state.offset,
        "rank": state.rank,
        "populations": [float(p) for p in state.populations],
        "window_offset": work.offset,
        "window_rank": work.rank,
        "mean_photon": mean_photon(state),
        "n_lp": n_lp,
        "simple_bound": simple_bound(state),
        "ansatz_label": ansatz_label,
        "ansatz_value": ansatz_value,
        "metrological_power": quadrature_qfi(state).power,
        "support": support,
        "decomposition": decomposition,
    }
    meta = {
        "command": "eval",
        "n": state.offset,
        "populations": [float(p) for p in state.populations],
        "delta": args.delta,
        "expansion_P": max(4, work.rank),
    }
    _emit(meta, [row], args)
    return EXIT_OK


def _simplex_lattice(count: int, dims: int) -> np.ndarray:
    """(N, dims) nonnegative integer points with sum at most count, in
    lexicographic order, built one column at a time."""
    points = np.zeros((1, 0), dtype=np.int64)
    for _ in range(dims):
        reps = count - points.sum(axis=1) + 1
        column = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        points = np.column_stack([np.repeat(points, reps, axis=0), column])
    return points


def _cmd_sweep(args, rank: int) -> int:
    """Phase diagram over the population simplex of a rank-3 or rank-4 window.

    Rows run over p_{n+M-1}, ..., p_{n+1} on the step lattice, top level
    outermost; the ground level takes the remainder, subtracted top level
    first.  The row count C(K + M - 1, M - 1), K = 1/step, is checked
    against the point budget before the lattice is built; the whole lattice
    is then checked and classified in one array pass.  With --lp-check K
    every K-th point also gets the LP estimate of its trimmed window, on
    lattice LPs shared by the windows of one rank and offset.
    """
    n = args.n
    # the epsilon keeps the top corner of steps such as 0.00032, whose
    # reciprocal rounds just below an integer
    count = int(1.0 / args.step + 1e-9)
    n_rows = math.comb(count + rank - 1, rank - 1)
    if n_rows > DEFAULT_MAX_POINTS:
        raise GridCapacityError(n_rows, DEFAULT_MAX_POINTS)
    tops = _simplex_lattice(count, rank - 1) * args.step
    rest = np.ones(len(tops))
    for column in tops.T:
        rest -= column
    pops = np.column_stack([np.maximum(rest, 0.0), tops[:, ::-1]])
    check_populations(pops)
    labels, values = classify_many(n, pops)
    checked = range(0, len(pops), args.lp_check) if args.lp_check else ()
    lattices = LatticeLps(args.delta)
    lps = {}
    for idx in checked:
        w = FockDiagonalState(n, pops[idx]).trimmed()
        lps[idx] = float(w.offset if w.rank == 1 else lattices.estimate(w).value)
    # the lattice LPs are freed before the output rows are built
    del lattices
    rows = []
    for idx, (top, label, value) in enumerate(zip(tops.tolist(), labels, values.tolist())):
        row = {f"p{rank - 1 - d}": p for d, p in enumerate(top)}
        row.update(label=label.value, value=value, n_lp=lps.get(idx))
        rows.append(row)
    meta = {
        "command": f"sweep{rank}",
        "n": n,
        "step": args.step,
        "delta": args.delta,
        "lp_check": args.lp_check,
    }
    _emit(meta, rows, args)
    return EXIT_OK


def _cmd_thermal(args) -> int:
    lo, hi = args.m_range
    rows = []
    for m in range(lo, hi + 1):
        state = truncated_thermal(args.nth, m)
        n_m = mean_photon(state)
        # top populations that underflow to 0 leave the window; a rank-1
        # window's value is its offset
        w = state.trimmed()
        n_lp = float(w.offset if w.rank == 1 else refine(w, args.delta, args.levels)[-1].value)
        # the rank-1 truncation is the vacuum: zero energy, ratio reported as 0
        ratio = n_lp / n_m if n_m > 0 else 0.0
        rows.append(
            {
                "rank": m,
                "populations": [float(p) for p in state.populations],
                "mean_photon": n_m,
                "n_lp": n_lp,
                "ratio": ratio,
            }
        )
    meta = {
        "command": "thermal",
        "nth": args.nth,
        "m_range": [lo, hi],
        "delta": args.delta,
        "levels": args.levels,
    }
    _emit(meta, rows, args)
    return EXIT_OK


def _cmd_grid_info(args) -> int:
    points = checked_count(args.m, args.delta)
    # the grid is the LP's row matrix; the LP adds its objective and no copy
    grid_bytes = grid_nbytes(args.m, args.delta, points)
    lp_bytes = grid_bytes + 8 * points
    rows = [
        {
            "rank": args.m,
            "delta": args.delta,
            "points": points,
            "grid_bytes": grid_bytes,
            "lp_bytes": lp_bytes,
        }
    ]
    meta = {"command": "grid-info", "m": args.m, "delta": args.delta}
    _emit(meta, rows, args)
    return EXIT_OK


def _cmd_dump_lp(args) -> int:
    pops = _parse_populations(args.p)
    state = FockDiagonalState(args.n, np.asarray(pops)).trimmed()
    if state.rank < 2:
        raise ValueError("dump-lp needs a state spanning at least two levels")
    grid = build_grid(state.rank, args.delta)
    write_lp(assemble_lp(state, grid), args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    # exit_on_error=False lets main() report a rejected value with exit code 2
    parser = argparse.ArgumentParser(
        prog="fockroof",
        description="Nonclassicality of Fock-diagonal states by linear programming",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    add_parser = partial(sub.add_parser, exit_on_error=False)

    def add_common(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default="json", choices=("csv", "json"))

    p_eval = add_parser("eval", help="evaluate one state")
    p_eval.add_argument("--p", required=True, help="comma-separated populations")
    p_eval.add_argument("--n", type=_at_least(0), default=0, help="lowest photon number")
    p_eval.add_argument("--delta", type=_spacing, default=0.01)
    add_common(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    for rank, word, step in ((3, "three", 0.05), (4, "four", 0.1)):
        p_sw = add_parser(f"sweep{rank}", help=f"{word}-level phase diagram")
        p_sw.add_argument("--n", type=_at_least(0), default=0)
        p_sw.add_argument("--step", type=_spacing, default=step)
        p_sw.add_argument("--delta", type=_spacing, default=0.01)
        p_sw.add_argument("--lp-check", type=_at_least(0), default=0, metavar="STRIDE")
        add_common(p_sw)
        p_sw.set_defaults(func=partial(_cmd_sweep, rank=rank))

    p_th = add_parser("thermal", help="truncated thermal states")
    p_th.add_argument("--nth", type=_positive, required=True)
    p_th.add_argument("--m-range", type=_rank_range, default="1:6", help="LO:HI window ranks")
    p_th.add_argument("--delta", type=_spacing, default=0.05)
    p_th.add_argument("--levels", type=_at_least(1), default=3, help="refinement levels")
    add_common(p_th)
    p_th.set_defaults(func=_cmd_thermal)

    p_gi = add_parser("grid-info", help="grid size and memory estimate")
    p_gi.add_argument("--m", type=_at_least(2), required=True)
    p_gi.add_argument("--delta", type=_spacing, required=True)
    add_common(p_gi)
    p_gi.set_defaults(func=_cmd_grid_info)

    p_dump = add_parser("dump-lp", help="write the LP in interchange format")
    p_dump.add_argument("--p", required=True)
    p_dump.add_argument("--n", type=_at_least(0), default=0)
    p_dump.add_argument("--delta", type=_spacing, default=0.01)
    p_dump.add_argument("--out", required=True)
    p_dump.set_defaults(func=_cmd_dump_lp)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except GridCapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (argparse.ArgumentError, ValueError, OSError) as exc:
        # an --out path that cannot be written is invalid input too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
