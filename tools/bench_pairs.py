#!/usr/bin/env python3
"""Paired wirebench runs of two source trees, alternating which goes first.

Usage (from the repository root):

    python3 tools/bench_pairs.py --base <rev|dir> --change <rev|dir>
        [--workloads ensemble-dense,...] [--seeds 1,4242] [--pairs 10]
        [--seconds 25] [--trace] [--workdir DIR] [--json FILE]

Each side is a git revision (extracted with `git archive`) or an existing
source directory (use `.` for the working tree as it stands). Each side's
wirebench is built by its own wirebench/run.py in its own build directory
under --workdir, so the two builds never share objects. For every workload
and seed the script then runs --pairs pairs; pair i runs the base first when
i is even and the change first when i is odd, so a slow drift of the machine
hits both sides alike.

For every metric the report prints each side's median and quartiles, the
ratio of the medians (change / base), how many pairs the change won (by the
metric's direction in BENCHMARK.json), and a verdict:

    gain        wins >= 90% of pairs and the medians differ by more than the
                base's interquartile range
    regression  the change's median is worse than the base's by more than
                the metric's BENCHMARK.json bound
    unresolved  the base's interquartile range exceeds the bound, so the
                runs cannot show a move of that size either way
    neutral     none of the above

With --trace the runs use --trace 1 and the report covers the per-layer
metrics (bounds do not apply; only gain and neutral are reported).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def extract(spec: str, dest: Path) -> Path:
    """Returns a source tree for `spec`: a directory as is, else a git rev."""
    if Path(spec).is_dir():
        return Path(spec).resolve()
    dest.mkdir(parents=True, exist_ok=True)
    archive = dest / "src.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                    "-o", str(archive), spec], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree")
    archive.unlink()
    return dest / "tree"


def run_once(tree: Path, build: Path, workload: str, seed: int,
             seconds: float, trace: bool) -> dict:
    env = dict(os.environ, CARGO_TARGET_DIR=str(build))
    proc = subprocess.run(
        [sys.executable, str(tree / "wirebench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} failed "
                           f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["failed"] = result.get("failed", 0)
    return values


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base, change, better, bound, pairs):
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(change)
    lower = better == "lower"
    wins = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
    improvement = (bm - cm) if lower else (cm - bm)
    if wins >= 0.9 * pairs and improvement > (b3 - b1):
        return wins, "gain"
    if bound is not None and bm != 0:
        worse = -improvement / abs(bm)
        if worse > bound:
            return wins, "regression"
        if (b3 - b1) / abs(bm) > bound:
            return wins, "unresolved"
    return wins, "neutral"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workloads", default="ensemble-dense")
    parser.add_argument("--seeds", default="1,4242")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workdir")
    parser.add_argument("--json", help="also write the raw runs here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = [(m["name"], m["better"], None if args.trace else m["bound"])
               for m in declared]
    width = max(len(name) for name, _, _ in metrics)
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="bench_pairs_"))
    sides = {}
    for label, rev in (("base", args.base), ("change", args.change)):
        tree = extract(rev, workdir / label)
        sides[label] = (tree, workdir / label / "build")
    print(f"base={args.base} change={args.change} workdir={workdir}",
          flush=True)

    raw = []
    status = 0
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for label in order:
                    tree, build = sides[label]
                    runs[label].append(run_once(tree, build, workload, seed,
                                                args.seconds, args.trace))
                print(f"  {workload} seed {seed}: pair {i + 1}/{args.pairs}",
                      file=sys.stderr, flush=True)
            raw.append({"workload": workload, "seed": seed, **runs})
            print(f"\n{workload}  seed {seed}  ({args.pairs} pairs)")
            print(f"  {'metric':{width}} {'base median [q1, q3]':>34} "
                  f"{'change median [q1, q3]':>34} {'ratio':>6} "
                  f"{'wins':>6}  verdict")
            for name, better, bound in metrics:
                base = [r[name] for r in runs["base"] if name in r]
                change = [r[name] for r in runs["change"] if name in r]
                if len(base) != args.pairs or len(change) != args.pairs:
                    continue
                b1, bm, b3 = quartiles(base)
                c1, cm, c3 = quartiles(change)
                wins, what = verdict(base, change, better, bound, args.pairs)
                ratio = cm / bm if bm else float("nan")
                base_col = f"{bm:.5g} [{b1:.4g}, {b3:.4g}]"
                change_col = f"{cm:.5g} [{c1:.4g}, {c3:.4g}]"
                print(f"  {name:{width}} {base_col:>34} {change_col:>34} "
                      f"{ratio:6.3f} {wins:3d}/{args.pairs}  {what}")
                if what == "regression":
                    status = 1
            failed = {label: sum(r["failed"] for r in runs[label])
                      for label in runs}
            print(f"  failed jobs: base {failed['base']}, "
                  f"change {failed['change']}")
            if failed["change"] > failed["base"]:
                status = 1
    if args.json:
        Path(args.json).write_text(json.dumps(raw, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
