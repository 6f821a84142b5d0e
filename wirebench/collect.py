#!/usr/bin/env python3
"""Run the benchmark over many seeds and summarise it.

Usage (from the repository root):

    python3 wirebench/collect.py [--trace 0|1] [--out FILE]

For every workload in BENCHMARK.json, runs wirebench/run.py on seeds 1..10
twice (sets "a" and "b", as a regression check does) and, with --trace 0,
ten more times on the default seed (set "repeat": the machine's own noise,
with the inputs held fixed). Prints, per set and metric, the median and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. It flags
every end-to-end metric whose spread exceeds a third of its BENCHMARK.json
bound, whose set-b median is worse than set a's by more than the bound, and
every seed whose outcome digest differs between runs. With --trace 1 it
runs set "a" only (per-layer metrics have no bounds). With --out, writes the
medians, quartiles, per-seed outcome digests and a description of the
machine to FILE as JSON: the committed baseline later runs are compared
against. Exits nonzero when a run fails or a digest differs.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = list(range(1, 11))
# run.py's default seed, and a seed kept out of every tuning run: a later
# claim is checked on it too, so it cannot rest on a seed its author tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 4242


def machine(build_dir: Path) -> dict:
    cache = (build_dir / "CMakeCache.txt").read_text()
    compiler = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    version = ""
    if compiler:
        version = subprocess.run([compiler.group(1), "--version"],
                                 capture_output=True, text=True).stdout
    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        found = re.search(r"^model name\s*:\s*(.*)$", cpuinfo.read_text(), re.M)
        cpu = found.group(1) if found else ""
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "os": platform.platform(),
        "compiler": version.splitlines()[0] if version else "",
        "build_type": build_type.group(1) if build_type else "",
        "threads_used": 1,
    }


def spread(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return med, q[0], q[2], (q[2] - q[0]) / med if med else 0.0


def run_once(name, seed, trace, run_seconds):
    """One benchmark run: (result, outcome line), or None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(run_seconds),
         "--trace", trace],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if not result or not result["correct"] or result["failed"]:
        print(f"{name} seed {seed}: FAILED (rc {proc.returncode})\n"
              f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
        return None
    outcome = [l for l in lines if l.startswith("outcome ")]
    return result, outcome[0] if outcome else ""


def summarise(name, label, runs, bounds):
    """Per-metric median, quartiles and spread of one set of runs."""
    values = {}
    for result, _ in runs:
        for metric, v in result["metrics"].items():
            values.setdefault(metric, []).append(v["value"])
    summary = {}
    for metric, vals in values.items():
        med, q1, q3, sp = spread(vals)
        summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                           "values": vals}
        flag = ""
        if metric in bounds and sp > bounds[metric] / 3:
            flag = "  > bound/3"
        print(f"  {name:17s} {label:6s} {metric:36s} median {med:<12.6g} "
              f"spread {sp:.4f}{flag}")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = ({m["name"]: m["bound"] for m in bench["end_to_end"]}
              if args.trace == "0" else {})
    sets = {"a": SEEDS}
    if args.trace == "0":
        sets.update({"b": SEEDS, "repeat": [DEFAULT_SEED] * len(SEEDS)})
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

    report = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
              "seeds": SEEDS, "trace": int(args.trace),
              "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        entry = {}
        outcomes = {}  # seed -> every outcome line seen for it
        for label, seeds in sets.items():
            runs = []
            for seed in seeds:
                start = time.time()
                run = run_once(name, seed, args.trace, bench["run_seconds"])
                if run is None:
                    ok = False
                    continue
                runs.append(run)
                outcomes.setdefault(seed, set()).add(run[1])
                print(f"{name} set {label} seed {seed}: "
                      f"{time.time() - start:.1f} s", flush=True)
            if runs:
                entry[label] = summarise(name, label, runs, bounds)
        if "a" in entry and "b" in entry:
            for m in bench["end_to_end"]:
                a = entry["a"][m["name"]]["median"]
                b = entry["b"][m["name"]]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = "  > bound" if worse > m["bound"] else ""
                print(f"  {name:17s} b vs a {m['name']:36s} "
                      f"worse by {worse:+.4f}{flag}")
        for seed, lines in sorted(outcomes.items()):
            if len(lines) > 1:
                print(f"  {name}: seed {seed} outcome differs between runs:")
                for line in sorted(lines):
                    print(f"    {line}")
                ok = False
        report["workloads"][name] = {
            "sets": entry,
            "outcomes": {seed: sorted(lines)[0]
                         for seed, lines in sorted(outcomes.items())}}

    if args.out:
        report["machine"] = machine(build_root / "wirebench")
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
