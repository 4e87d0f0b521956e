"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workloads pretrain,finetune,embed \
        --seeds 1-10 --out results/NAME.jsonl [--trace 0]

Each run is one `run.py` call with a different seed, one after another.
For every workload and end-to-end metric the sweep prints the median, the
quartile distance over the median (the spread) and the metric's bound
from BENCHMARK.json; the benchmark is steady when every spread other than
setup_s is well below its bound.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

import run


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread_table(path: str, spec: dict) -> list[tuple]:
    rows = []
    for workload, recs in run.load_runs(path).items():
        for metric in spec["end_to_end"]:
            q1, med, q3 = run.quartiles([r["metrics"][metric["name"]][0] for r in recs])
            rows.append((workload, metric["name"], len(recs), med, (q3 - q1) / med,
                         metric["bound"]))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="pretrain,finetune,embed")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="JSON-lines file the runs are appended to")
    args = ap.parse_args(argv)

    spec = run.load_spec()
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace), "--out", args.out]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            print(f"{workload} seed={seed} exit={proc.returncode} {last[0]}", flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
    if not args.trace:
        print(f"{'workload':9} {'metric':25} {'runs':>4} {'median':>10} {'spread':>7} {'bound':>6}")
        for workload, name, n, med, spread, bound in spread_table(args.out, spec):
            flag = "" if spread < bound / 3 else "  (spread above a third of the bound)"
            print(f"{workload:9} {name:25} {n:4d} {med:10.4g} {spread:7.3f} {bound:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
