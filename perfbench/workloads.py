"""The benchmark's workloads: inputs made from a seed, the CLI commands one
round issues, and the checks on what those commands write.

Every workload drives the program only through ``mtslof.cli.main`` with
files and flags, in a closed loop with one caller: the next command starts
when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import traceback
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

from mtslof import backbone, cli
from mtslof.checkpoint import load_checkpoint
from mtslof.tensor import Tensor, no_grad

from tracer import OpClock, Patches, install_op_hooks

# The acceptance recipe: d=32, depth 2, decoder depth 2, ffn 2.
ARCH = ("--d-model", "32", "--depth", "2", "--decoder-depth", "2",
        "--ffn-multiplier", "2", "--channel-widths", "32,64,128,32")
TRAIN = ("--batch-size", "16", "--lr", "2e-3")
MASKS = ("--num-masks", "20", "--mask-ratio", "0.8")

FINETUNE_MIN_ACCURACY = 0.90


@dataclass(frozen=True)
class Recipe:
    """Sizes of one workload. `commands` is the CLI commands per round."""

    samples_per_class: int
    length: int = 128
    epochs: int = 5
    commands: int = 1
    arch: tuple[str, ...] = ARCH


@dataclass
class RoundResult:
    wall_ns: int = 0
    op_ns: list[int] = field(default_factory=list)
    samples: int = 0
    attempted: int = 0
    failed: int = 0
    final_loss: float | None = None
    errors: list[str] = field(default_factory=list)


def run_cli(argv: list[str]) -> tuple[int | None, str]:
    """Run one CLI command in-process; returns (exit code or None, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, buf.getvalue()


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _history_losses(path: str) -> tuple[list[float], list[float]]:
    header, rows = _read_csv(path)
    loss = header.index("loss")
    train = [float(r[loss]) for r in rows if r[1] == "train"]
    val = [float(r[loss]) for r in rows if r[1] == "val"]
    return train, val


class Workload:
    name = ""
    # Predicted dominant layer, recorded with each result.
    dominant = ""

    def __init__(self, recipe: Recipe):
        self.recipe = recipe

    def setup(self, workdir: str, seed: int) -> dict[str, str]:
        """Write the inputs for `seed` into `workdir` through the CLI."""
        r = self.recipe
        paths = {"data": os.path.join(workdir, "data.bin")}
        rc, out = run_cli(["gen-data", "--out", paths["data"], "--data-seed", str(seed),
                           "--samples-per-class", str(r.samples_per_class),
                           "--length", str(r.length)])
        if rc != 0:
            raise RuntimeError(f"gen-data failed:\n{out}")
        return paths

    def _init_checkpoint(self, paths: dict[str, str], workdir: str, seed: int) -> None:
        """A random-init checkpoint at `seed`: pretraining for zero epochs."""
        paths["init"] = os.path.join(workdir, "init.ckpt")
        rc, out = run_cli(["pretrain", "--data", paths["data"], "--checkpoint", paths["init"],
                           "--out", os.path.join(workdir, "init.csv"), "--epochs", "0",
                           "--seed", str(seed), "--split-seed", str(seed), *self.recipe.arch])
        if rc != 0:
            raise RuntimeError(f"set-up checkpoint failed:\n{out}")

    def run_round(self, paths: dict[str, str], seed: int, clock: OpClock) -> RoundResult:
        raise NotImplementedError

    def _command(self, argv: list[str], clock: OpClock, result: RoundResult):
        """Run one timed command; returns (exit code, output, op durations)."""
        first = len(clock.ops)
        start = perf_counter_ns()
        rc, out = run_cli(argv)
        result.wall_ns += perf_counter_ns() - start
        if clock.open:
            clock.end()
        return rc, out, [e - s for s, e in clock.ops[first:]]


class TrainingWorkload(Workload):
    """One training command per round; an op is one optimizer step."""

    def run_round(self, paths, seed, clock):
        result = RoundResult()
        samples_before = clock.samples
        patches = Patches()
        install_op_hooks(patches, clock, self.name)
        try:
            rc, out, op_ns = self._command(self.argv(paths, seed), clock, result)
        finally:
            patches.restore()
        result.op_ns = op_ns
        result.samples = clock.samples - samples_before
        result.attempted = max(1, len(op_ns))
        problem = f"exit code {rc}:\n{out}" if rc != 0 else self.check(paths, result)
        if problem:
            result.failed = result.attempted
            result.errors.append(problem)
        return result

    def argv(self, paths, seed) -> list[str]:
        raise NotImplementedError

    def check(self, paths, result: RoundResult) -> str | None:
        raise NotImplementedError

    def _check_losses(self, path: str, result: RoundResult, with_val: bool) -> str | None:
        train, val = _history_losses(path)
        epochs = self.recipe.epochs
        if len(train) != epochs or (with_val and len(val) != epochs):
            return f"{path}: {len(train)} train and {len(val)} val epochs, expected {epochs}"
        # An epoch's loss is the mean of its step losses, so it is finite
        # exactly when every step loss is.
        if not all(math.isfinite(v) for v in (train + val if with_val else train)):
            return f"{path}: non-finite loss in train {train} or val {val}"
        result.final_loss = train[-1]
        return None


class Pretrain(TrainingWorkload):
    name = "pretrain"
    dominant = "objective (decoder on b*N*p rows)"

    def setup(self, workdir, seed):
        paths = super().setup(workdir, seed)
        paths["checkpoint"] = os.path.join(workdir, "ssl.ckpt")
        paths["history"] = os.path.join(workdir, "pretrain.csv")
        return paths

    def argv(self, paths, seed):
        return ["pretrain", "--data", paths["data"], "--checkpoint", paths["checkpoint"],
                "--out", paths["history"], "--epochs", str(self.recipe.epochs),
                "--seed", str(seed), "--split-seed", str(seed),
                *self.recipe.arch, *TRAIN, *MASKS]

    def check(self, paths, result):
        for path in (paths["history"], paths["checkpoint"]):
            if not os.path.exists(path):
                return f"{path} was not written"
        problem = self._check_losses(paths["history"], result, with_val=True)
        if problem:
            return problem
        state = load_checkpoint(paths["checkpoint"])
        bad = [k for k, v in state.items() if not np.isfinite(v).all()]
        if bad:
            return f"non-finite checkpoint tensors {bad[:3]}"
        os.unlink(paths["checkpoint"])
        os.unlink(paths["history"])
        return None


class Finetune(TrainingWorkload):
    name = "finetune"
    dominant = "backbone.patcher (conv1d, batchnorm1d, gelu)"

    def setup(self, workdir, seed):
        paths = super().setup(workdir, seed)
        self._init_checkpoint(paths, workdir, seed)
        paths["summary"] = os.path.join(workdir, "finetune.csv")
        paths["history"] = os.path.join(workdir, "finetune.history.csv")
        return paths

    def argv(self, paths, seed):
        return ["finetune", "--data", paths["data"], "--checkpoint", paths["init"],
                "--out", paths["summary"], "--fraction", "1.0",
                "--epochs", str(self.recipe.epochs), "--seed", str(seed),
                "--split-seed", str(seed), *self.recipe.arch, *TRAIN]

    def check(self, paths, result):
        for path in (paths["summary"], paths["history"]):
            if not os.path.exists(path):
                return f"{path} was not written"
        problem = self._check_losses(paths["history"], result, with_val=False)
        if problem:
            return problem
        header, rows = _read_csv(paths["summary"])
        accuracy = float(rows[0][header.index("accuracy")])
        if not accuracy >= FINETUNE_MIN_ACCURACY:
            return f"test accuracy {accuracy} below {FINETUNE_MIN_ACCURACY}"
        os.unlink(paths["summary"])
        os.unlink(paths["history"])
        return None


class Embed(Workload):
    """Repeated export-embeddings commands; an op is one command."""

    name = "embed"
    dominant = "ops.conv1d eval fork and ops.gelu"

    def setup(self, workdir, seed):
        paths = super().setup(workdir, seed)
        self._init_checkpoint(paths, workdir, seed)
        paths["embeddings"] = os.path.join(workdir, "embeddings.csv")
        return paths

    def argv(self, paths, seed):
        return ["export-embeddings", "--data", paths["data"], "--checkpoint", paths["init"],
                "--out", paths["embeddings"], "--seed", str(seed), *self.recipe.arch]

    def run_round(self, paths, seed, clock):
        result = RoundResult()
        argv = self.argv(paths, seed)
        expected = None
        for i in range(self.recipe.commands):
            captured: list = []
            patches = Patches()
            if i == 0:
                patches.wrap(backbone.Backbone, "represent", _capturing(captured))
            clock.begin("cli.export_op")
            try:
                rc, out, op_ns = self._command(argv, clock, result)
            finally:
                patches.restore()
            result.op_ns += op_ns
            result.attempted += 1
            if rc != 0:
                problem = f"exit code {rc}:\n{out}"
            else:
                with open(paths["embeddings"], "rb") as fh:
                    blob = fh.read()
                digest = hashlib.sha256(blob).hexdigest()
                if expected is None:
                    problem = self.check(blob.decode(), captured)
                    expected = digest
                else:
                    problem = None if digest == expected else "output differs from the round's first command"
                os.unlink(paths["embeddings"])
            if problem:
                result.failed += 1
                result.errors.append(problem)
            else:
                result.samples += self.rows
        return result

    @property
    def rows(self) -> int:
        return 3 * self.recipe.samples_per_class

    def check(self, text: str, captured: list) -> str | None:
        lines = text.splitlines()
        n = self.rows
        if len(lines) != n + 1:
            return f"{len(lines) - 1} embedding rows for {n} samples"
        values = np.array([line.split(",")[2:] for line in lines[1:]], dtype=np.float64)
        if [int(line.split(",", 1)[0]) for line in lines[1:]] != list(range(n)):
            return "embedding rows are not indexed 0..n-1"
        if not np.isfinite(values).all():
            return "non-finite embedding values"
        # Batch invariance: the CLI's batched rows equal the sample run
        # alone, at both ends of the CLI's batches of 256 and in the middle.
        starts = np.cumsum([0] + [len(x) for _, x, _ in captured])
        check_rows = sorted({0, 1, n // 2, n - 1} | {r for r in (255, 256) if r < n})
        with no_grad():
            for row in check_rows:
                b = int(np.searchsorted(starts, row, side="right") - 1)
                model, x, z = captured[b]
                alone = model.represent(Tensor(x[row - starts[b]]), training=False).data
                if alone.dtype != z.dtype or not np.array_equal(alone, z[row - starts[b]]):
                    return f"row {row}: batched representation differs from the sample alone"
                text_alone = ",".join(f"{v:.6f}" for v in alone)
                if lines[row + 1].split(",", 2)[2] != text_alone:
                    return f"row {row}: CSV differs from the sample's representation"
        return None


def _capturing(sink: list):
    """Wrap Backbone.represent to keep (model, input, output) of each call."""
    def make(orig):
        def represent(self, x, training=False, rng=None):
            out = orig(self, x, training, rng)
            sink.append((self, x.data.copy(), out.data.copy()))
            return out
        return represent
    return make


RECIPES = {
    # 600 samples split 360/120/120; 23 steps per epoch, 115 per round.
    "pretrain": Recipe(samples_per_class=200),
    "finetune": Recipe(samples_per_class=200),
    # 258 samples: one full batch of 256 and a batch of 2 in the CLI.
    "embed": Recipe(samples_per_class=86, epochs=0, commands=100),
}

WORKLOADS = {cls.name: cls for cls in (Pretrain, Finetune, Embed)}


def make(name: str, recipe: Recipe | None = None) -> Workload:
    return WORKLOADS[name](recipe or RECIPES[name])
