"""One workload process: set-up, the timed rounds, checks, and optionally a
traced round. Started by run.py; writes its result as JSON to --result.

    python3 perfbench/worker.py --workload pretrain --seed 1 --seconds 25 \
        --trace 0 --workdir DIR --result FILE [--setup-only] [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracer import OpClock, Patches, Tracer  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MTSLOF_THREADS")


def environment() -> dict:
    """Versions, BLAS build and thread settings, recorded and never set."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def timed_rounds(work, paths, seed, seconds: float):
    """Whole rounds while the next is predicted to fit in `seconds` (at least one)."""
    rounds = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        rounds.append(work.run_round(paths, seed, OpClock()))
        now = time.monotonic()
        if (now - start) + (now - began) > seconds:
            return rounds


def traced_round(work, paths, seed):
    """One round with the tracer installed; returns (tracer, round result)."""
    tracer = Tracer()
    patches = Patches()
    # run_round adds the op hooks on top of the tracer's wrappers.
    tracer.install(patches)
    try:
        return tracer, work.run_round(paths, seed, tracer)
    finally:
        patches.restore()


def end_to_end(measured, rounds) -> tuple[dict, dict]:
    """Metrics of the untraced rounds; failures and losses of every round."""
    op_ms = [ns / 1e6 for r in measured for ns in r.op_ns]
    wall_s = statistics.median(r.wall_ns / 1e9 for r in measured)
    samples = statistics.median(r.samples for r in measured)
    p90 = statistics.quantiles(op_ms, n=10)[8] if len(op_ms) >= 2 else op_ms[0]
    metrics = {
        "wall_s": (wall_s, "s"),
        "throughput_samples_per_s": (samples / wall_s, "1/s"),
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.p90": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    losses = [r.final_loss for r in rounds if r.final_loss is not None]
    extra = {
        "rounds": len(measured),
        "ops": len(op_ms),
        "ops_beyond_p90": sum(1 for v in op_ms if v > p90),
        "samples_per_round": samples,
        "error_rate": failed / attempted if attempted else 1.0,
        "final_loss": losses[-1] if losses else None,
        # At one seed every round must reach exactly the same loss.
        "final_loss_repeats": len(set(losses)) <= 1,
    }
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced run's spans here")
    args = ap.parse_args(argv)

    work = workloads.make(args.workload)
    trace = bool(args.trace) and not args.setup_only
    setup_tracer = Tracer()
    patches = Patches()
    if trace:
        setup_tracer.install(patches)
    try:
        paths = work.setup(args.workdir, args.seed)
    finally:
        patches.restore()
    result = {"workload": args.workload, "seed": args.seed,
              "setup_end_monotonic": time.monotonic()}
    if args.setup_only:
        return _write(args.result, result)

    result["env"] = environment()
    result["dominant_layer"] = work.dominant
    if not trace:
        rounds = measured = timed_rounds(work, paths, args.seed, args.seconds)
    else:
        # A traced round, then an untraced one; the overhead is the traced
        # round's wall time over the untraced round's.
        tracer, traced = traced_round(work, paths, args.seed)
        untraced = [work.run_round(paths, args.seed, OpClock())]
        measured, rounds = untraced, untraced + [traced]
        layers = tracer.layer_metrics(work.recipe.epochs)
        incl, _, _ = setup_tracer.span_times()
        layers["data.generate_synthetic.ms"] = (incl["data.generate_synthetic"] / 1e6, "ms")
        layers["trace.overhead"] = (traced.wall_ns / untraced[0].wall_ns, "ratio")
        result["layers"] = layers
        result["op_self_check"] = all(s <= d for s, d in tracer.op_self_sums().values())
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(tracer.spans_json(), fh)
    metrics, extra = end_to_end(measured, rounds)
    result.update(
        metrics=metrics,
        extra=extra,
        attempted=sum(r.attempted for r in rounds),
        failed=sum(r.failed for r in rounds),
        errors=[e for r in rounds for e in r.errors][:5],
    )
    return _write(args.result, result)


def _write(path: str, result: dict) -> int:
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
