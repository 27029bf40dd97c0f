"""Run workloads over several seeds and summarise every metric.

    python3 perfbench/sweep.py                                  # all workloads, seed 1
    python3 perfbench/sweep.py --seeds 1-10                     # ten seeds each
    python3 perfbench/sweep.py --seeds 3 --workloads tail-study --trace 1

Reads the command, run length, workloads and bounds from BENCHMARK.json
and runs the command once per workload and seed, one run at a time. For
each workload it prints every metric with its unit, median, quartiles
(``statistics.quantiles(n=4)``) and spread, the quartile distance over
the median, next to a third of the metric's bound; plus the operations
attempted and failed. A run that fails or prints no result stops the
sweep with its exit code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=seed_list, default=[1], help="N or FIRST-LAST")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                print(f"{workload} seed {seed}: exit {done.returncode}", file=sys.stderr)
                return done.returncode or 1
            runs.append(json.loads(lines[-1]))
            print(f"{workload} seed {seed}: {lines[-1]}", file=sys.stderr, flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"{attempted} operations attempted, {failed} failed, "
              f"correct={all(r['correct'] for r in runs)}")
        print("| metric | unit | median | q1 | q3 | spread | bound/3 |")
        print("|---|---|---|---|---|---|---|")
        table = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else 0.0
            third = f"{bounds[metric] / 3:.3f}" if metric in bounds else ""
            print(f"| {metric} | {first['unit']} | {median:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {spread:.3f} | {third} |")
            table[metric] = {"unit": first["unit"], "values": values, "median": median,
                             "q1": q1, "q3": q3, "spread": spread}
        summary[workload] = {"attempted": attempted, "failed": failed, "metrics": table}
    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"sweep-trace{args.trace}-seeds{args.seeds[0]}-{args.seeds[-1]}"
    (out / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
