"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads eval_rank4 thermal_refine --seeds 10 --seconds 40

Runs ``run.py`` once per seed and workload, one run at a time, and prints for
each metric the median, the quartiles and the quartile spread as a share of
the median, with the share of failed operations.  The per-run results are
written to ``perfbench/results/spread-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--label", default="latest")
    args = parser.parse_args(argv)

    runs = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=180)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[workload].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {result['attempted']} ops, {result['failed']} failed, "
                  f"correct={result['correct']} {values}", flush=True)

    print("\nworkload        metric       median      q1          q3          (q3-q1)/median  failed share")
    for workload, results in runs.items():
        failed = sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"{workload:15s} {metric:12s} {med:<11.5g} {q1:<11.5g} {q3:<11.5g} "
                  f"{(q3 - q1) / med:<15.4f} {failed}")
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / f"spread-{args.label}.json").write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
