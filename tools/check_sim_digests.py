#!/usr/bin/env python3
"""Check that every benchmark workload still simulates the same results.

Usage (from the repository root):

    python3 tools/check_sim_digests.py

For each outcome line in tools/sim_digests.txt, runs

    python3 wirebench/run.py --workload <w> --seed <s> --seconds 2 --trace 0

with the workload and the `seed=` field of that line, and compares the
run's `outcome` line (a digest of every simulated job plus the total cost,
makespan and busy slot-seconds in hexfloat) with the committed line. Prints a unified diff and exits 1 when any line differs or a
run fails; exits 0 when all match. A change that alters simulated results on
purpose updates tools/sim_digests.txt and says so.
"""

import difflib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tools" / "sim_digests.txt"


def run_outcome(workload: str, seed: str) -> str:
    command = [sys.executable, "wirebench/run.py", "--workload", workload,
               "--seed", seed, "--seconds", "2", "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    outcomes = [line for line in proc.stdout.splitlines()
                if line.startswith("outcome ")]
    if proc.returncode != 0 or len(outcomes) != 1:
        return f"run failed: {workload} seed={seed} (exit {proc.returncode})"
    return outcomes[0]


def main() -> int:
    expected = [line for line in DIGESTS.read_text().splitlines()
                if line.strip() and not line.startswith("#")]
    actual = []
    for line in expected:
        fields = line.split()
        workload = fields[1]
        seed = next(f for f in fields if f.startswith("seed=")).split("=")[1]
        actual.append(run_outcome(workload, seed))
        status = "ok" if actual[-1] == line else "CHANGED"
        print(f"{workload} seed={seed}: {status}", flush=True)
    if actual == expected:
        return 0
    sys.stdout.writelines(
        line + "\n" for line in difflib.unified_diff(
            expected, actual, "tools/sim_digests.txt", "this checkout",
            lineterm=""))
    return 1


if __name__ == "__main__":
    sys.exit(main())
