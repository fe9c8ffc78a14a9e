"""Smoke test of the benchmark: one round of every workload with all checks.

    python3 perfbench/smoke.py

Runs each workload's set-up invocations and one round of its operations as
subprocesses, applies every output check, and prints one PASS/FAIL line per
workload.  Exits 1 if any check fails.  Takes about 20 s, most of it the
sweep4 round.
"""

from __future__ import annotations

import sys

from run import SRC, check_output, cli_command, run_child
from workloads import WORKLOADS


def main() -> int:
    if not (SRC / "fockroof" / "cli.py").is_file():
        print(f"error: no fockroof package under {SRC}", file=sys.stderr)
        return 2
    ok = True
    for workload in WORKLOADS.values():
        errors = []
        wall = 0.0
        for op in workload.setup_ops + workload.ops:
            res = run_child(cli_command(op.argv))
            wall += res.wall_s
            errors += check_output(op, res.returncode, res.stdout)
        print(f"{workload.name:16s} {'FAIL' if errors else 'PASS'} ({wall:.2f} s)")
        for err in errors[:10]:
            print(f"  {err}")
        ok = ok and not errors
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
