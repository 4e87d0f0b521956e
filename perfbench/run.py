"""mtslof benchmark: one workload per call, or a comparison of two result files.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

A run starts fresh worker processes (see worker.py): several that only
set up, to take the median set-up time, then one that sets up, runs the
timed rounds and checks the outputs. It prints every metric with its unit
and, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1). --out appends the full result as a JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pretrain", "finetune", "embed")
# Set-up runs per benchmark run, the measuring worker's included.
SETUPS = 5
# A run must end within this many seconds.
RUN_LIMIT_S = 175.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_worker(args, workdir: str, setup_only: bool, deadline: float) -> tuple[dict, float]:
    """Start one worker; returns its result and its set-up time in seconds."""
    os.makedirs(workdir)
    result_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--result", result_path]
    if setup_only:
        cmd.append("--setup-only")
    if args.spans and not setup_only:
        cmd += ["--spans", os.path.abspath(args.spans)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)
    try:
        output, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{output}")
    with open(result_path) as fh:
        result = json.load(fh)
    return result, result["setup_end_monotonic"] - started


def benchmark(args, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    try:
        setups = []
        for i in range(SETUPS - 1):
            _, setup_s = run_worker(args, os.path.join(workdir, f"setup{i}"), True, deadline)
            setups.append(setup_s)
        result, setup_s = run_worker(args, os.path.join(workdir, "run"), False, deadline)
        setups.append(setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    result["setup_samples_s"] = setups
    result["correct"] = (result["failed"] == 0 and result["extra"]["final_loss_repeats"]
                         and result.get("op_self_check", True))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["layers"] if args.trace else result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise RuntimeError(f"metrics missing from the result: {missing}")
    result["reported"] = {m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]}
                          for m in wanted}
    return result


def print_report(result: dict) -> None:
    env = result["env"]
    threads = " ".join(f"{k}={v}" for k, v in env["thread_env"].items())
    print(f"# workload={result['workload']} seed={result['seed']} "
          f"predicted dominant layer: {result['dominant_layer']}")
    print(f"# python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"{env['blas']} {env['blas_version']} nproc={env['nproc']} {threads}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    extra = result["extra"]
    print(f"error_rate = {extra['error_rate']:.6g} ratio "
          f"({result['failed']} failed of {result['attempted']} attempted ops)")
    if extra["final_loss"] is not None:
        print(f"final_loss = {extra['final_loss']!r} objective units")
    print(f"ops = {extra['ops']} count in {extra['rounds']} round(s); "
          f"{extra['ops_beyond_p90']} beyond p90")
    for name, (value, unit) in sorted(result.get("layers", {}).items()):
        print(f"{name} = {value:.6g} {unit}")
    for error in result["errors"]:
        print(f"error: {error}", file=sys.stderr)


# -- compare ------------------------------------------------------------------


def load_runs(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec.get("trace"):
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(base_path: str, new_path: str, spec: dict) -> list[dict]:
    """Per workload x end-to-end metric: medians, quartiles, ratio, verdict.

    A metric is unresolved when either side's spread (quartile distance
    over median) exceeds its bound, unless every new run beats every base
    run.
    """
    base, new = load_runs(base_path), load_runs(new_path)
    rows = []
    for workload in WORKLOADS:
        if workload not in base or workload not in new:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            higher = metric["better"] == "higher"
            a = [r["metrics"][name][0] for r in base[workload]]
            b = [r["metrics"][name][0] for r in new[workload]]
            qa, qb = quartiles(a), quartiles(b)
            ratio = qb[1] / qa[1]
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            worse = ratio < 1.0 - bound if higher else ratio > 1.0 + bound
            better = ratio > 1.0 + bound if higher else ratio < 1.0 - bound
            all_better = min(b) > max(a) if higher else max(b) < min(a)
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif worse:
                verdict = "worse"
            elif better or all_better:
                verdict = "better"
            else:
                verdict = "within bound"
            rows.append(dict(workload=workload, metric=name, unit=metric["unit"],
                             base=qa, new=qb, ratio=ratio, spread=spread, bound=bound,
                             runs=(len(a), len(b)), verdict=verdict))
    return rows


def print_compare(rows: list[dict]) -> None:
    print(f"{'workload':9} {'metric':25} {'base q1/med/q3':>28} {'new q1/med/q3':>28} "
          f"{'new/base':>8} {'spread':>7} {'bound':>6}  verdict")
    for r in rows:
        fa = "/".join(f"{v:.4g}" for v in r["base"])
        fb = "/".join(f"{v:.4g}" for v in r["new"])
        print(f"{r['workload']:9} {r['metric'] + ' [' + r['unit'] + ']':25} {fa:>28} {fb:>28} "
              f"{r['ratio']:8.3f} {r['spread']:7.3f} {r['bound']:6.2f}  {r['verdict']}"
              f"  (runs {r['runs'][0]}/{r['runs'][1]})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full result as one JSON line")
    ap.add_argument("--spans", help="with --trace 1, write the traced round's spans here")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two --out files instead of running")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mtslof", "cli.py")):
        print(f"error: no mtslof sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        print_compare(compare(*args.compare, spec))
        return 0
    if args.workload is None or args.seed is None or args.seed < 0:
        ap.error("--workload and a nonnegative --seed are required")

    # Terminating the benchmark stops its worker and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        result = benchmark(args, spec)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result["trace"] = args.trace
    result["seconds"] = args.seconds
    print_report(result)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(result) + "\n")
    print(json.dumps({"correct": bool(result["correct"]), "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["reported"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
