"""End-to-end and per-layer benchmark of the ``fockroof`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload eval_rank4 --seed 1 --seconds 40 --trace 0

With ``--trace 0`` one closed-loop caller runs the workload's CLI
invocations as subprocesses, one at a time, for ``--seconds`` seconds of
whole rounds, checks every output and prints the end-to-end metrics.  With
``--trace 1`` it runs each invocation three ways per round: as a subprocess,
in-process through ``fockroof.cli.main``, and in-process with every layer
wrapped, and prints the per-layer metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The inputs are fixed (see ``workloads.py``); ``--seed`` is accepted and
recorded, and changes nothing.
"""

from __future__ import annotations

import os

# One BLAS thread: CPU seconds then count work rather than threads spinning
# while they wait, and wall time does not depend on a second idle core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# No transparent huge pages for numpy arrays: a huge page counts whole in the
# resident set, so peak RSS would depend on where the address layout puts
# each large array (it moved by 12 % with the size of the environment).
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Op, Workload  # noqa: E402

SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "cpu_s.p50": "s",
    "peak_rss_mb": "MiB",
}

# Seconds are per op; counts are per op; *_max are the largest single call.
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "grid.build_grid.s": "s",
    "grid.build_grid.calls": "count",
    "grid.build_grid.columns": "count",
    "grid.neighborhood_grid.s": "s",
    "grid.neighborhood_grid.calls": "count",
    "grid.neighborhood_grid.columns": "count",
    "roof.assemble_lp.s": "s",
    "roof.assemble_lp.calls": "count",
    "simplex.solve.s": "s",
    "simplex.solve.calls": "count",
    "simplex.solve.pivots": "count",
    "simplex.solve.max_s": "s",
    "simplex.solve.pivots_max": "count",
    "simplex.bland_pricings": "count",
    "roof.estimate.self_s": "s",
    "roof.refine.self_s": "s",
    "roof.expand_histogram.s": "s",
    "roof.expand_histogram.atoms": "count",
    "phases.classify.s": "s",
    "phases.classify.calls": "count",
    "metrology.quadrature_qfi.s": "s",
}


def child_env() -> dict:
    """This process's environment with nothing that names the checkout, so
    that two checkouts at different paths give their children the same
    memory layout.  Children run with the checkout root as working directory."""
    env = {k: v for k, v in os.environ.items() if k not in ("PWD", "OLDPWD")}
    env["PYTHONPATH"] = "src"
    return env


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes


def run_child(cmd: list[str]) -> ChildResult:
    """Spawn ``cmd``, read its output to the end and reap it with wait4.

    The wall time runs from spawn to exit with the output fully read; CPU
    time and peak RSS are the child's own, from its resource usage.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT
    )
    err: list[bytes] = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    out = proc.stdout.read()
    drain.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return ChildResult(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        returncode=proc.returncode,
        stdout=out,
        stderr=err[0] if err else b"",
    )


def cli_command(argv) -> list[str]:
    return [sys.executable, "-m", "fockroof.cli", *argv]


def check_output(op: Op, returncode: int, text: str | bytes) -> list[str]:
    """Errors of one invocation: a nonzero exit, unparsable JSON or a failed check."""
    if returncode != 0:
        return [f"{' '.join(op.argv)}: exit code {returncode}"]
    try:
        out = json.loads(text)
    except ValueError as exc:
        return [f"{' '.join(op.argv)}: output is not JSON ({exc})"]
    try:
        return [f"{op.argv[0]}: {e}" for e in op.check(out)]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"{op.argv[0]}: malformed output ({exc!r})"]


@dataclass
class Tally:
    """Operations attempted and failed, with the first few error messages."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    errors: list[str] = field(default_factory=list)

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.correct = False
            self.errors.extend(errors[: max(0, 10 - len(self.errors))])


def measure_setup(workload: Workload, tally: Tally) -> list[float]:
    """Time the workload's set-up: a fresh interpreter importing the package,
    then the workload's own set-up invocations and their checks.

    Repeated SETUP_REPEATS times; failures mark the run incorrect but are not
    counted as operations.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        probe = run_child([sys.executable, "-c", "import fockroof.cli"])
        errors = [] if probe.returncode == 0 else [
            f"import fockroof.cli failed: {probe.stderr.decode(errors='replace')[-500:]}"
        ]
        for op in workload.setup_ops:
            res = run_child(cli_command(op.argv))
            errors += check_output(op, res.returncode, res.stdout)
        times.append(time.perf_counter() - start)
        if errors:
            tally.correct = False
            tally.errors.extend(errors[:5])
    return times


def quantile_summary(values: list[float]) -> dict:
    out = {"n": len(values), "p50": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 40:
        # the highest percentile with at least ten samples beyond it
        pct = int(100 * (len(values) - 10) / len(values))
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def more_rounds(start: float, rounds: int, seconds: float) -> bool:
    """Whether to start another round: the run ends at the round boundary
    nearest to ``seconds``, so it lasts about ``seconds`` whatever the
    round length, and always holds at least one whole round."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds < seconds


def timed_run(workload: Workload, seconds: float, tally: Tally) -> dict:
    walls, cpus, rss = [], [], []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or more_rounds(start, rounds, seconds):
        for op in workload.ops:
            res = run_child(cli_command(op.argv))
            tally.record(check_output(op, res.returncode, res.stdout))
            walls.append(res.wall_s)
            cpus.append(res.cpu_s)
            rss.append(res.rss_mb)
        rounds += 1
    return {"op_s": walls, "cpu_s": cpus, "rss_mb": rss}


def _import_package():
    sys.path.insert(0, str(SRC))
    import fockroof.cli  # noqa: F401  (registers the submodules)

    return {name: sys.modules[name] for name in sys.modules if name.startswith("fockroof")}


def in_process(modules: dict, op: Op, tracer: Tracer | None) -> tuple[float, list[str]]:
    """Run one invocation through ``fockroof.cli.main``; (seconds, errors)."""
    main = modules["fockroof.cli"].main
    buf = io.StringIO()
    with warnings.catch_warnings(record=True), contextlib.redirect_stdout(buf):
        warnings.simplefilter("always")
        try:
            if tracer is None:
                start = time.perf_counter()
                code = main(list(op.argv))
                elapsed = time.perf_counter() - start
            else:
                tracer.install(modules)
                try:
                    start = time.perf_counter()
                    code = tracer.span("cli.main", main, list(op.argv))
                    elapsed = time.perf_counter() - start
                finally:
                    tracer.uninstall()
        except SystemExit as exc:  # argparse rejects the arguments
            return 0.0, [f"{' '.join(op.argv)}: exited with {exc.code}"]
        except Exception as exc:  # an uncaught error fails this op, not the run
            return 0.0, [f"{' '.join(op.argv)}: raised {exc!r}"]
    return elapsed, check_output(op, code, buf.getvalue())


def traced_run(workload: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    modules = _import_package()
    tracer = Tracer()
    sub_walls, plain, traced = [], [], []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or more_rounds(start, rounds, seconds):
        for op in workload.ops:
            res = run_child(cli_command(op.argv))
            tally.record(check_output(op, res.returncode, res.stdout))
            sub_walls.append(res.wall_s)
            # Alternate which in-process variant runs first, so that neither
            # always inherits the caches and heap the other left behind.
            order = ((plain, None), (traced, tracer))
            for times, tr in order if rounds % 2 == 0 else order[::-1]:
                elapsed, errors = in_process(modules, op, tr)
                tally.record(errors)
                times.append(elapsed)
        rounds += 1
    ops = len(traced)

    def per_op(value):
        return value / ops

    metrics = {
        "cli.startup_s": statistics.median(sub_walls) - statistics.median(plain),
        "cli.main.s": per_op(sum(plain)),
        "cli.main.self_s": per_op(tracer.self_seconds["cli.main"]),
        "trace.overhead_s": per_op(sum(traced) - sum(plain)),
        "simplex.solve.max_s": tracer.max_seconds["simplex.solve"],
        "simplex.solve.pivots_max": tracer.max_counters["simplex.solve.pivots_max"],
        "simplex.bland_pricings": per_op(tracer.counters["simplex.bland_pricings"]),
        "roof.estimate.self_s": per_op(tracer.self_seconds["roof.estimate"]),
        "roof.refine.self_s": per_op(tracer.self_seconds["roof.refine"]),
    }
    for name in PER_LAYER:
        if name in metrics:
            continue
        layer, _, kind = name.rpartition(".")
        if kind == "s":
            metrics[name] = per_op(tracer.seconds[layer])
        elif kind == "calls":
            metrics[name] = per_op(tracer.calls[layer])
        else:
            metrics[name] = per_op(tracer.counters[name])
    layer_sum = sum(tracer.self_seconds.values())
    detail = {
        "ops": ops,
        "subprocess_s": sub_walls,
        "in_process_s": plain,
        "traced_s": traced,
        "layer_self_sum_s": per_op(layer_sum),
        "absent_layers": tracer.absent,
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fockroof" / "cli.py").is_file():
        print(f"error: no fockroof package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tally = Tally()
    setup = measure_setup(workload, tally)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "setup_s": setup}

    if args.trace:
        values, detail = traced_run(workload, args.seconds, tally)
        units = PER_LAYER
        record.update(detail)
        if detail["absent_layers"]:
            print("absent layers (reported as 0): " + ", ".join(detail["absent_layers"]))
        print(
            f"per op: subprocess {statistics.median(detail['subprocess_s']):.4f} s, "
            f"in-process {values['cli.main.s']:.4f} s, traced {values['cli.main.s'] + values['trace.overhead_s']:.4f} s "
            f"(tracing overhead {values['trace.overhead_s']:.4f} s); "
            f"layer self times sum to {detail['layer_self_sum_s']:.4f} s"
        )
    else:
        samples = timed_run(workload, args.seconds, tally)
        record.update(samples)
        record["summary"] = {k: quantile_summary(v) for k, v in samples.items()}
        values = {
            "setup_s": statistics.median(setup),
            "op_s.p50": statistics.median(samples["op_s"]),
            "cpu_s.p50": statistics.median(samples["cpu_s"]),
            # each child's own peak; the median keeps one odd allocation out
            "peak_rss_mb": statistics.median(samples["rss_mb"]),
        }
        units = END_TO_END
        print(f"{workload.name}: {tally.attempted} ops, op_s {json.dumps(record['summary']['op_s'])}")

    for err in tally.errors:
        print(f"check failed: {err}", file=sys.stderr)
    record["errors"] = tally.errors
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{workload.name}-trace{args.trace}-seed{args.seed}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
