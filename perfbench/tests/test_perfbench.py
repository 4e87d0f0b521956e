"""Tests of the benchmark's own machinery on tiny recipes."""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import OpClock, Patches, Tracer, install_op_hooks  # noqa: E402
from worker import traced_round  # noqa: E402

from mtslof import backbone, cli, objective, ops, tensor, training  # noqa: E402

TINY_ARCH = ("--d-model", "8", "--heads", "2", "--depth", "1", "--decoder-depth", "1",
             "--ffn-multiplier", "2", "--channel-widths", "4,4,4,8")
# Length 64 gives 8 patches, enough for 20 distinct masks at ratio 0.8.
TINY = {
    "pretrain": workloads.Recipe(samples_per_class=10, length=64, epochs=2, arch=TINY_ARCH),
    "embed": workloads.Recipe(samples_per_class=10, length=64, epochs=0, commands=2,
                              arch=TINY_ARCH),
}
PATCHED = (cli, training, objective, ops, tensor, backbone.Backbone, backbone.ConvPatcher,
           backbone.Linear, objective.Decoder, training.AdamW, tensor.Tensor)
COUNTS = ("tensor.graph_nodes", "tensor.accumulate.calls", "objective.decoder.rows",
          "objective.decoder.mask_rows_share", "objective.sample_masks.calls",
          "checkpoint.bytes")


def _snapshot():
    return [dict(vars(owner)) for owner in PATCHED]


def _tiny_traced(name, tmp_path, seed=3):
    work = workloads.make(name, TINY[name])
    tmp_path.mkdir(exist_ok=True)
    paths = work.setup(str(tmp_path), seed)
    tracer, result = traced_round(work, paths, seed)
    assert result.failed == 0, result.errors
    return work, tracer, result


def test_wrappers_restore_every_patched_attribute():
    before = _snapshot()
    patches = Patches()
    tracer = Tracer()
    tracer.install(patches)
    install_op_hooks(patches, tracer, "pretrain")
    install_op_hooks(patches, tracer, "finetune")
    changed = [k for owner, snap in zip(PATCHED, before) for k, v in snap.items()
               if vars(owner).get(k) is not v]
    assert "lof_loss" in changed and "_from_op" in changed and "__call__" in changed
    patches.restore()
    for owner, snap in zip(PATCHED, before):
        now = vars(owner)
        assert now.keys() == snap.keys(), owner
        assert all(now[k] is v for k, v in snap.items()), owner


@pytest.mark.parametrize("name", ["pretrain", "embed"])
def test_count_metrics_repeat_across_traced_runs(name, tmp_path):
    work, first, _ = _tiny_traced(name, tmp_path / "one")
    _, second, _ = _tiny_traced(name, tmp_path / "two")
    a = first.layer_metrics(work.recipe.epochs)
    b = second.layer_metrics(work.recipe.epochs)
    assert [a[k] for k in COUNTS] == [b[k] for k in COUNTS]
    if name == "pretrain":
        assert a["objective.decoder.rows"][0] > 0 and a["tensor.graph_nodes"][0] > 0
    else:
        assert a["tensor.backward.ms"][0] == 0 and a["tensor.graph_nodes"][0] == 0
        assert not any(s[0].startswith("objective.") for s in first.spans)


def test_self_times_are_nonnegative_and_fit_in_their_op(tmp_path):
    _, tracer, result = _tiny_traced("pretrain", tmp_path)
    _, self_t, _ = tracer.span_times()
    assert all(v >= 0 for v in self_t.values())
    sums = tracer.op_self_sums()
    assert len(sums) == len(result.op_ns) > 0
    assert all(0 <= s <= d for s, d in sums.values())
    assert all(m[0] >= 0 for m in tracer.layer_metrics(2).values())


def test_untraced_round_times_every_step(tmp_path):
    work = workloads.make("pretrain", TINY["pretrain"])
    paths = work.setup(str(tmp_path), 5)
    result = work.run_round(paths, 5, OpClock())
    # 30 samples split 18/6/6: two steps of batch 16 per epoch.
    assert len(result.op_ns) == 4 and result.samples == 36
    assert result.failed == 0 and result.final_loss is not None
    assert 0 < sum(result.op_ns) <= result.wall_ns


def test_embed_check_catches_batch_dependence(tmp_path):
    work = workloads.make("embed", TINY["embed"])
    paths = work.setup(str(tmp_path), 4)
    captured = []
    patches = Patches()
    patches.wrap(backbone.Backbone, "represent", workloads._capturing(captured))
    try:
        assert workloads.run_cli(work.argv(paths, 4))[0] == 0
    finally:
        patches.restore()
    with open(paths["embeddings"]) as fh:
        text = fh.read()
    assert work.check(text, captured) is None
    model, x, z = captured[0]
    z = z.copy()
    z[0, 0] = np.nextafter(z[0, 0], np.inf)
    assert "differs" in work.check(text, [(model, x, z)])


def _write_runs(path, workload, values):
    with open(path, "w") as fh:
        for v in values:
            fh.write(json.dumps({"workload": workload, "trace": 0,
                                 "metrics": {"wall_s": [v, "s"]}}) + "\n")


def test_compare_verdicts(tmp_path):
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}
    base = tmp_path / "base.jsonl"
    _write_runs(base, "pretrain", [10.0, 10.1, 9.9, 10.0])
    cases = {"worse": [12.0, 12.1, 11.9, 12.0], "better": [8.0, 8.1, 7.9, 8.0],
             "within bound": [10.2, 10.3, 10.1, 10.2], "unresolved": [6.0, 14.0, 10.0, 12.0]}
    for verdict, values in cases.items():
        new = tmp_path / f"{verdict}.jsonl"
        _write_runs(new, "pretrain", values)
        [row] = run.compare(str(base), str(new), spec)
        assert row["verdict"] == verdict
