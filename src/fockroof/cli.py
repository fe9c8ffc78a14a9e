"""Command-line front end: single-state reports, phase-diagram sweeps,
truncated-thermal experiments, grid diagnostics and LP dumps.

Every command emits either CSV (RFC-4180 quoting) or JSON (one object with
``meta`` and ``rows``).  Output is deterministic: fixed field order, floats
as shortest round-trip decimals, rows in lattice order regardless of the
worker-thread count.

Exit codes: 0 success, 2 invalid input, 3 solver failure, 4 grid capacity.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import simplex
from .grid import DEFAULT_MAX_POINTS, GridCapacityError, build_grid, checked_count
from .metrology import quadrature_qfi
from .phases import classify
from .roof import (
    LatticeLps,
    SolverFailure,
    assemble_lp,
    estimate_nonclassicality,
    expand_histogram,
    refine,
)
from .states import FockDiagonalState, mean_photon, simple_bound, truncated_thermal
from .simplex import write_lp

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3
EXIT_CAPACITY = 4


@dataclass
class RunConfig:
    """Validated knobs shared by the subcommands."""

    command: str
    delta: float = 0.01
    offset_n: int = 0
    output_path: str | None = None
    format: str = "json"
    expansion_order: int = 4
    max_iter: int = simplex.DEFAULT_MAX_ITER
    sweep_step: float = 0.05
    threads: int = 1
    lp_check: int = 0

    def __post_init__(self):
        if not 0.0 < self.delta <= 0.5:
            raise ValueError(f"delta must lie in (0, 0.5], got {self.delta}")
        if not 0.0 < self.sweep_step <= 0.5:
            raise ValueError(f"step must lie in (0, 0.5], got {self.sweep_step}")
        if self.offset_n < 0:
            raise ValueError(f"n must be nonnegative, got {self.offset_n}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.expansion_order < 3:
            raise ValueError(f"expansion order must be >= 3, got {self.expansion_order}")
        if self.max_iter < 1:
            raise ValueError(f"max-iter must be positive, got {self.max_iter}")
        if self.threads < 1:
            raise ValueError(f"threads must be positive, got {self.threads}")
        if self.lp_check < 0:
            raise ValueError(f"lp-check stride must be nonnegative, got {self.lp_check}")


def _parse_populations(text: str) -> list[float]:
    try:
        pops = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"cannot parse populations {text!r}") from exc
    if not pops:
        raise ValueError("populations must be nonempty")
    return pops


def _jsonable(value):
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip decimal
    if isinstance(value, (list, dict)):
        return json.dumps(_jsonable(value), separators=(",", ":"))
    return str(value)


def _emit(meta: dict, rows: list[dict], config: RunConfig) -> None:
    if config.format == "json":
        payload = {"meta": _jsonable(meta), "rows": [_jsonable(r) for r in rows]}
        text = json.dumps(payload, separators=(",", ":")) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        if rows:
            header = list(rows[0].keys())
            writer.writerow(header)
            for row in rows:
                writer.writerow([_csv_cell(row[k]) for k in header])
        text = buf.getvalue()
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(args) -> int:
    pops = _parse_populations(args.p)
    state = FockDiagonalState(args.n, np.asarray(pops))
    work = state.trimmed()
    expansion = args.expansion_P if args.expansion_P else max(4, work.rank)
    config = RunConfig(
        command="eval",
        delta=args.delta,
        offset_n=args.n,
        output_path=args.out,
        format=args.format,
        expansion_order=expansion,
        max_iter=args.max_iter,
    )
    if config.expansion_order < max(3, work.rank):
        raise ValueError(
            f"expansion order must be >= max(3, M) = {max(3, work.rank)}"
        )
    if work.rank == 1:
        n_lp = float(work.offset)
        support = [{"x": [], "weight": 1.0}]
        decomposition = [{"probability": 1.0, "amplitudes": [{"re": 1.0, "im": 0.0}]}]
    else:
        n_lp, hist = estimate_nonclassicality(
            work, config.delta, max_iter=config.max_iter
        )
        support = [
            {"x": [float(v) for v in hist.grid.free_amplitudes[idx]], "weight": float(w)}
            for idx, w in zip(hist.indices, hist.weights)
        ]
        decomposition = expand_histogram(work, hist, config.expansion_order).to_jsonable()
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
        "delta": config.delta,
        "expansion_P": config.expansion_order,
    }
    _emit(meta, [row], config)
    return EXIT_OK


def _simplex_points(count: int, dims: int) -> list[tuple[int, ...]]:
    """Nonnegative integer tuples of length dims with sum at most count, in
    lexicographic order."""
    if dims == 0:
        return [()]
    return [
        (i, *rest)
        for i in range(count + 1)
        for rest in _simplex_points(count - i, dims - 1)
    ]


def _populations(top: list[float]) -> np.ndarray:
    """Full population vector from the upper populations, top level first;
    the ground level takes the remainder."""
    rest = 1.0
    for p in top:
        rest -= p
    return np.asarray([max(rest, 0.0), *reversed(top)])


def _cmd_sweep(args, rank: int) -> int:
    """Phase diagram over the population simplex of a rank-3 or rank-4 window.

    Rows run over p_{n+M-1}, ..., p_{n+1} on the step lattice, top level
    outermost.  With --lp-check K every K-th point also gets the LP estimate
    of its trimmed window; those windows' lattice LPs are built once, before
    any worker starts, and only their solves are spread over the threads.
    """
    config = RunConfig(
        command=f"sweep{rank}",
        delta=args.delta,
        offset_n=args.n,
        output_path=args.out,
        format=args.format,
        max_iter=args.max_iter,
        sweep_step=args.step,
        threads=args.threads,
        lp_check=args.lp_check,
    )
    n = config.offset_n
    step = config.sweep_step
    tops = [
        [i * step for i in point]
        for point in _simplex_points(int(round(1.0 / step)), rank - 1)
    ]
    states = [FockDiagonalState(n, _populations(top)) for top in tops]
    checked = range(0, len(states), config.lp_check) if config.lp_check else ()
    windows = {idx: states[idx].trimmed() for idx in checked}
    lattices = LatticeLps([w for w in windows.values() if w.rank > 1], config.delta)

    def lp_value(idx: int) -> float:
        window = windows[idx]
        if window.rank == 1:
            return float(window.offset)
        return float(lattices.estimate(window, max_iter=config.max_iter)[0])

    # classify holds the interpreter lock; only the LP solves can overlap
    results = [classify(state) for state in states]
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            lps = dict(zip(windows, pool.map(lp_value, windows)))
    else:
        lps = {idx: lp_value(idx) for idx in windows}
    rows = []
    for idx, (top, result) in enumerate(zip(tops, results)):
        row = {f"p{rank - 1 - d}": p for d, p in enumerate(top)}
        row.update(label=result.label.value, value=float(result.value), n_lp=lps.get(idx))
        rows.append(row)
    meta = {
        "command": f"sweep{rank}",
        "n": n,
        "step": step,
        "delta": config.delta,
        "lp_check": config.lp_check,
    }
    _emit(meta, rows, config)
    return EXIT_OK


def _cmd_thermal(args) -> int:
    config = RunConfig(
        command="thermal",
        delta=args.delta,
        output_path=args.out,
        format=args.format,
        max_iter=args.max_iter,
    )
    if args.nth <= 0:
        raise ValueError(f"nth must be positive, got {args.nth}")
    try:
        lo, hi = (int(tok) for tok in args.m_range.split(":"))
    except ValueError as exc:
        raise ValueError(f"cannot parse m-range {args.m_range!r}; use LO:HI") from exc
    if not 1 <= lo <= hi:
        raise ValueError(f"m-range must satisfy 1 <= LO <= HI, got {args.m_range!r}")
    if args.levels < 1:
        raise ValueError(f"levels must be >= 1, got {args.levels}")
    rows = []
    for m in range(lo, hi + 1):
        state = truncated_thermal(args.nth, m)
        n_m = mean_photon(state)
        if m == 1:
            n_lp = 0.0
        else:
            steps = refine(state, config.delta, args.levels, max_iter=config.max_iter)
            n_lp = float(steps[-1][1])
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
        "delta": config.delta,
        "levels": args.levels,
    }
    _emit(meta, rows, config)
    return EXIT_OK


def _cmd_grid_info(args) -> int:
    config = RunConfig(
        command="grid-info",
        delta=args.delta,
        output_path=args.out,
        format=args.format,
    )
    if args.m < 2:
        raise ValueError(f"m must be >= 2, got {args.m}")
    points = checked_count(args.m, config.delta, DEFAULT_MAX_POINTS)
    free = args.m - 1
    grid_bytes = points * (4 * free + 8 * free + 8)  # int lattice + float coords + x0
    lp_bytes = points * 8 * (args.m + 1)  # row matrix plus objective
    rows = [
        {
            "rank": args.m,
            "delta": config.delta,
            "points": points,
            "grid_bytes": grid_bytes,
            "lp_bytes": lp_bytes,
        }
    ]
    meta = {"command": "grid-info", "m": args.m, "delta": config.delta}
    _emit(meta, rows, config)
    return EXIT_OK


def _cmd_dump_lp(args) -> int:
    config = RunConfig(
        command="dump-lp",
        delta=args.delta,
        offset_n=args.n,
        output_path=args.out,
    )
    pops = _parse_populations(args.p)
    state = FockDiagonalState(config.offset_n, np.asarray(pops)).trimmed()
    if state.rank < 2:
        raise ValueError("dump-lp needs a state spanning at least two levels")
    grid = build_grid(state.rank, config.delta)
    write_lp(assemble_lp(state, grid), config.output_path)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockroof",
        description="Nonclassicality of Fock-diagonal states by linear programming",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt=True):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if fmt:
            p.add_argument("--format", default="json", choices=("csv", "json"))
        p.add_argument("--max-iter", type=int, default=simplex.DEFAULT_MAX_ITER)

    p_eval = sub.add_parser("eval", help="evaluate one state")
    p_eval.add_argument("--p", required=True, help="comma-separated populations")
    p_eval.add_argument("--n", type=int, default=0, help="lowest photon number")
    p_eval.add_argument("--delta", type=float, default=0.01)
    p_eval.add_argument(
        "--expansion-P", type=int, default=0, help="atoms per support point (0: max(4, M))"
    )
    add_common(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_s3 = sub.add_parser("sweep3", help="three-level phase diagram")
    p_s3.add_argument("--n", type=int, default=0)
    p_s3.add_argument("--step", type=float, default=0.05)
    p_s3.add_argument("--delta", type=float, default=0.01)
    p_s3.add_argument("--lp-check", type=int, default=0, metavar="STRIDE")
    p_s3.add_argument("--threads", type=int, default=1)
    add_common(p_s3)
    p_s3.set_defaults(func=lambda args: _cmd_sweep(args, 3))

    p_s4 = sub.add_parser("sweep4", help="four-level phase diagram")
    p_s4.add_argument("--n", type=int, default=0)
    p_s4.add_argument("--step", type=float, default=0.1)
    p_s4.add_argument("--delta", type=float, default=0.01)
    p_s4.add_argument("--lp-check", type=int, default=0, metavar="STRIDE")
    p_s4.add_argument("--threads", type=int, default=1)
    add_common(p_s4)
    p_s4.set_defaults(func=lambda args: _cmd_sweep(args, 4))

    p_th = sub.add_parser("thermal", help="truncated thermal states")
    p_th.add_argument("--nth", type=float, required=True)
    p_th.add_argument("--m-range", default="1:6", help="LO:HI window ranks")
    p_th.add_argument("--delta", type=float, default=0.05)
    p_th.add_argument("--levels", type=int, default=3, help="refinement levels")
    add_common(p_th)
    p_th.set_defaults(func=_cmd_thermal)

    p_gi = sub.add_parser("grid-info", help="grid size and memory estimate")
    p_gi.add_argument("--m", type=int, required=True)
    p_gi.add_argument("--delta", type=float, required=True)
    add_common(p_gi)
    p_gi.set_defaults(func=_cmd_grid_info)

    p_dump = sub.add_parser("dump-lp", help="write the LP in interchange format")
    p_dump.add_argument("--p", required=True)
    p_dump.add_argument("--n", type=int, default=0)
    p_dump.add_argument("--delta", type=float, default=0.01)
    p_dump.add_argument("--out", required=True)
    p_dump.set_defaults(func=_cmd_dump_lp)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GridCapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
