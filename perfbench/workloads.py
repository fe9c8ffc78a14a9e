"""The benchmark's workloads: fixed CLI invocations and the checks on each.

Inputs are fixed by the paper's reference cases, so no random seed is drawn.
One round runs every invocation of a workload once, in order; runs repeat
whole rounds, so every run attempts the same operations in the same mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

# The 0.00999 spacing reproduces the paper's 537,052-column rank-4 lattice.
REFERENCE_DELTA = 0.00999
REFERENCE_COLUMNS = 537_052

# The paper's two rank-4 states that beat the phase-map ansatz, each with the
# optimum of its 537,052-column lattice as pinned by the acceptance suite.
EXCEPTION_STATES = (
    ((0.92, 0.06, 0.01, 0.01), 0.0153096),
    ((0.83, 0.15, 0.01, 0.01), 0.0190649),
)

THERMAL_NTH = 0.5
THERMAL_RANKS = (1, 6)
THERMAL_DELTA = 0.05
THERMAL_LEVELS = 3
THERMAL_MEAN_RANK6 = 0.491758

SWEEP_STEP = 0.05
# 1,771 lattice points; the LP runs on indices 0, 300, ..., 1500 (six states).
# The stride is chosen for run length alone: classification of all points
# takes about 14 s, the six LPs about 1 s.
SWEEP_STRIDE = 300


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check its parsed JSON output must pass."""

    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    setup_ops: tuple[Op, ...] = ()


def _eval_op(pops, ceiling) -> Op:
    argv = ("eval", "--p", ",".join(str(p) for p in pops), "--delta", str(REFERENCE_DELTA))
    return Op(argv, partial(checks.check_eval, 0, list(pops), REFERENCE_DELTA, ceiling))


EVAL_RANK4 = Workload(
    "eval_rank4",
    ops=tuple(_eval_op(pops, ceiling) for pops, ceiling in EXCEPTION_STATES),
    setup_ops=(
        Op(
            ("grid-info", "--m", "4", "--delta", str(REFERENCE_DELTA)),
            partial(checks.check_grid_info, REFERENCE_COLUMNS),
        ),
    ),
)

THERMAL_REFINE = Workload(
    "thermal_refine",
    ops=(
        Op(
            (
                "thermal", "--nth", str(THERMAL_NTH),
                "--m-range", f"{THERMAL_RANKS[0]}:{THERMAL_RANKS[1]}",
                "--delta", str(THERMAL_DELTA), "--levels", str(THERMAL_LEVELS),
            ),
            partial(
                checks.check_thermal, THERMAL_NTH, *THERMAL_RANKS,
                THERMAL_DELTA / 2 ** (THERMAL_LEVELS - 1), THERMAL_MEAN_RANK6,
            ),
        ),
    ),
)

SWEEP4_LPCHECK = Workload(
    "sweep4_lpcheck",
    ops=(
        Op(
            (
                "sweep4", "--n", "0", "--step", str(SWEEP_STEP),
                "--lp-check", str(SWEEP_STRIDE), "--delta", str(REFERENCE_DELTA),
            ),
            partial(checks.check_sweep4, 0, SWEEP_STEP, SWEEP_STRIDE, REFERENCE_DELTA),
        ),
    ),
)

WORKLOADS = {w.name: w for w in (EVAL_RANK4, THERMAL_REFINE, SWEEP4_LPCHECK)}
