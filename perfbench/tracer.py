"""Op clock and layer tracer, installed by patching mtslof from outside.

The benchmark changes no file of the program: it replaces module
attributes and class methods with timing wrappers for the length of a
run and puts the originals back afterwards. ``OpClock`` records only the
start and end of each op (untraced runs). ``Tracer`` adds spans at the
public boundaries of every module, attributes each backward closure to
the forward span that was open when the closure was recorded, and counts
graph nodes, gradient accumulations and decoder rows.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from mtslof import backbone, cli, objective, ops, tensor, training


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make):
        """Replace ``owner.name`` with ``make(original)``."""
        original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class OpClock:
    """Start and end of each op, in perf_counter nanoseconds."""

    def __init__(self):
        self.ops: list[tuple[int, int]] = []
        self.samples = 0
        self._start: int | None = None

    def begin(self, name: str, samples: int = 0) -> None:
        if self._start is None:
            self.samples += samples
            self._start = perf_counter_ns()

    def end(self) -> None:
        if self._start is not None:
            self.ops.append((self._start, perf_counter_ns()))
            self._start = None

    @property
    def open(self) -> bool:
        return self._start is not None


def install_op_hooks(patches: Patches, clock: OpClock, op: str) -> None:
    """Mark op boundaries for a training workload.

    An op is one optimizer step: it begins at the step's training loss
    call (``lof_loss`` for pretraining, the training-mode
    ``Backbone.represent`` for fine-tuning) and ends when ``AdamW.step``
    returns.
    """
    if op == "pretrain":
        def make_loss(orig):
            def lof_loss(x, *args, **kwargs):
                if kwargs.get("training", True):
                    clock.begin("training.step", x.data.shape[0])
                return orig(x, *args, **kwargs)
            return lof_loss
        patches.wrap(training, "lof_loss", make_loss)
    elif op == "finetune":
        def make_represent(orig):
            def represent(self, x, training=False, rng=None):
                if training:
                    clock.begin("training.step", x.data.shape[0])
                return orig(self, x, training, rng)
            return represent
        patches.wrap(backbone.Backbone, "represent", make_represent)
    else:
        raise ValueError(f"no op hooks for {op!r}")

    def make_step(orig):
        def step(self):
            try:
                return orig(self)
            finally:
                clock.end()
        return step
    patches.wrap(training.AdamW, "step", make_step)


class Tracer(OpClock):
    """Spans at layer boundaries plus per-layer counters.

    A span is [name, start_ns, end_ns, parent index, op id]. Spans stay in
    memory until the run ends.
    """

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._owners: tuple[str, ...] = ()
        self._owner_stack: list[tuple[str, ...]] = []
        self._op_span: int | None = None
        self.op_id: int | None = None
        self._ops_begun = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.bwd_self_ns: dict[str, int] = defaultdict(int)
        self.bwd_incl_ns: dict[str, int] = defaultdict(int)
        self.closure_ns = 0
        self.accumulate_ns = 0
        self.last_patch_count: int | None = None

    # -- spans -----------------------------------------------------------

    def push(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op_id])
        self._owner_stack.append(self._owners)
        if name not in self._owners:
            self._owners = self._owners + (name,)
        return index

    def pop(self, index: int) -> None:
        """Close span `index` and any span still open inside it."""
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = perf_counter_ns()
            self._owners = self._owner_stack.pop()
            if top == self._op_span:
                self.ops.append(tuple(self.spans[top][1:3]))
                self._op_span = self.op_id = None
            if top == index:
                return

    def span(self, name: str, fn, *args, **kwargs):
        index = self.push(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.pop(index)

    def begin(self, name: str, samples: int = 0) -> None:
        if self._op_span is None:
            self.samples += samples
            self.op_id = self._ops_begun
            self._ops_begun += 1
            self._op_span = self.push(name)

    def end(self) -> None:
        if self._op_span is not None:
            self.pop(self._op_span)

    @property
    def open(self) -> bool:
        return self._op_span is not None

    # -- installation ------------------------------------------------------

    def install(self, patches: Patches) -> None:
        """Wrap the public boundaries of every module of the program."""
        tr = self

        def spanned(name):
            def make(orig):
                def wrapper(*args, **kwargs):
                    return tr.span(name, orig, *args, **kwargs)
                return wrapper
            return make

        # cli
        patches.wrap(cli, "main", spanned("cli.command"))
        patches.wrap(cli, "pretrain", spanned("training.loop"))
        patches.wrap(cli, "finetune", spanned("training.loop"))
        patches.wrap(cli, "build_model", spanned("training.build_model"))

        # data
        patches.wrap(cli, "generate_synthetic", spanned("data.generate_synthetic"))
        patches.wrap(cli, "load_dataset", spanned("data.load_dataset"))
        patches.wrap(cli, "normalize", spanned("data.normalize"))
        patches.wrap(training, "normalize", spanned("data.normalize"))
        patches.wrap(training, "batch_iter", self._make_batch_iter)

        # checkpoint
        patches.wrap(cli, "load_checkpoint", self._make_checkpoint_io("checkpoint.load"))
        patches.wrap(cli, "save_checkpoint", self._make_checkpoint_io("checkpoint.save"))
        patches.wrap(training, "save_checkpoint", self._make_checkpoint_io("checkpoint.save"))

        # training
        patches.wrap(training.AdamW, "step", spanned("training.adamw.step"))
        patches.wrap(training.AdamW, "zero_grad", spanned("training.zero_grad"))
        patches.wrap(training, "evaluate", self._make_evaluate)
        patches.wrap(training, "lof_loss", self._make_lof_loss)

        # objective
        patches.wrap(objective, "sample_masks", self._counted("objective.sample_masks"))
        patches.wrap(objective, "_tcr_from_normalized", spanned("objective.tcr"))
        patches.wrap(objective.Decoder, "__call__", self._make_decoder)

        # backbone
        patches.wrap(backbone.ConvPatcher, "__call__", self._make_patcher)
        patches.wrap(backbone.Backbone, "encode", self._make_encode)
        patches.wrap(backbone.Linear, "__call__", self._make_linear)

        # ops
        patches.wrap(ops, "conv1d", self._make_conv1d)
        for name in ("gelu", "attention", "layer_norm", "dropout", "batchnorm1d", "logdet_psd"):
            patches.wrap(ops, name, spanned("ops." + name))

        # tensor: ops imports _from_op and accumulate by name, so both
        # modules' bindings are wrapped.
        patches.wrap(tensor.Tensor, "backward", spanned("tensor.backward"))
        for module in (tensor, ops):
            patches.wrap(module, "_from_op", self._make_from_op)
            patches.wrap(module, "accumulate", self._make_accumulate)

    # -- wrapper factories -------------------------------------------------

    def _counted(self, name):
        def make(orig):
            def wrapper(*args, **kwargs):
                self.counts[name + ".calls"] += 1
                return self.span(name, orig, *args, **kwargs)
            return wrapper
        return make

    def _make_batch_iter(self, orig):
        def batch_iter(*args, **kwargs):
            it = orig(*args, **kwargs)
            while True:
                index = self.push("data.batch_wait")
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.pop(index)
                yield item
        return batch_iter

    def _make_checkpoint_io(self, name):
        def make(orig):
            def wrapper(path, *args, **kwargs):
                out = self.span(name, orig, path, *args, **kwargs)
                self.counts["checkpoint.bytes"] += os.path.getsize(path)
                return out
            return wrapper
        return make

    def _make_evaluate(self, orig):
        def evaluate(backbone_, ds, *args, **kwargs):
            name = "training.val_pass" if ds.name.endswith(":val") else "training.evaluate"
            return self.span(name, orig, backbone_, ds, *args, **kwargs)
        return evaluate

    def _make_lof_loss(self, orig):
        def lof_loss(*args, **kwargs):
            name = "objective.lof_loss" if kwargs.get("training", True) else "training.val_pass"
            return self.span(name, orig, *args, **kwargs)
        return lof_loss

    def _make_decoder(self, orig):
        def decoder(dec, x, *args, **kwargs):
            rows = int(np.prod(x.data.shape[:-1]))
            p, d = x.data.shape[-2:]
            mask_row = dec.mask_token.data + backbone.positional_encoding(p, d, dtype=x.data.dtype)
            self.counts["objective.decoder.rows"] += rows
            self.counts["objective.decoder.mask_rows"] += int((x.data == mask_row).all(axis=-1).sum())
            return self.span("objective.decoder", orig, dec, x, *args, **kwargs)
        return decoder

    def _make_patcher(self, orig):
        def patcher(module, x, *args, **kwargs):
            out = self.span("backbone.patcher", orig, module, x, *args, **kwargs)
            self.last_patch_count = out.data.shape[-2]
            return out
        return patcher

    def _make_encode(self, orig):
        def encode(module, tokens_pe, *args, **kwargs):
            # Told apart by row count: the full view has one row per patch.
            full = tokens_pe.data.shape[-2] == self.last_patch_count
            name = "backbone.encoder_full" if full else "backbone.encoder_visible"
            return self.span(name, orig, module, tokens_pe, *args, **kwargs)
        return encode

    def _make_linear(self, orig):
        def linear(module, x):
            # The condition under which Linear takes its per-slice eval fork.
            eval_fork = x.data.ndim > 2 and not (tensor.grad_enabled() and module.weight.requires_grad)
            name = "backbone.linear.eval" if eval_fork else "backbone.linear.train"
            return self.span(name, orig, module, x)
        return linear

    def _make_conv1d(self, orig):
        def conv1d(x, weight, bias=None, *args, **kwargs):
            tracked = tensor.grad_enabled() and any(
                t is not None and t.requires_grad for t in (x, weight, bias))
            name = "ops.conv1d.train" if tracked else "ops.conv1d.eval"
            return self.span(name, orig, x, weight, bias, *args, **kwargs)
        return conv1d

    def _make_from_op(self, orig):
        tr = self

        def from_op(data, parents, backward):
            tr.counts["tensor.graph_nodes"] += 1
            owners = tr._owners or ("untraced",)

            def timed(g):
                start = perf_counter_ns()
                acc = tr.accumulate_ns
                backward(g)
                spent = perf_counter_ns() - start - (tr.accumulate_ns - acc)
                tr.closure_ns += spent
                tr.bwd_self_ns[owners[-1]] += spent
                for name in owners:
                    tr.bwd_incl_ns[name] += spent

            return orig(data, parents, timed)
        return from_op

    def _make_accumulate(self, orig):
        tr = self

        def accumulate(t, g):
            first = t.grad is None
            start = perf_counter_ns()
            orig(t, g)
            tr.accumulate_ns += perf_counter_ns() - start
            tr.counts["tensor.accumulate.calls"] += 1
            if first and not np.may_share_memory(t.grad, g):
                tr.counts["tensor.accumulate.alloc_bytes"] += t.grad.nbytes
        return accumulate

    # -- results -----------------------------------------------------------

    def span_times(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Inclusive time, self time and call count per span name (ns)."""
        incl: dict[str, int] = defaultdict(int)
        self_t: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            incl[name] += end - start
            self_t[name] += end - start - child_ns[i]
            calls[name] += 1
        return incl, self_t, calls

    def layer_metrics(self, epochs: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per op (the validation pass per epoch)."""
        n_ops = max(1, len(self.ops))
        incl, self_t, calls = self.span_times()
        c = self.counts

        def ms(ns):
            return ns / 1e6 / n_ops

        rows = c["objective.decoder.rows"]
        m = {
            "objective.decoder.fwd_ms": (ms(incl["objective.decoder"]), "ms"),
            "objective.decoder.bwd_ms": (ms(self.bwd_incl_ns["objective.decoder"]), "ms"),
            "objective.decoder.rows": (rows / n_ops, "count"),
            "objective.decoder.mask_rows_share": (c["objective.decoder.mask_rows"] / rows if rows else 0.0, "ratio"),
            "objective.sample_masks.ms": (ms(incl["objective.sample_masks"]), "ms"),
            "objective.sample_masks.calls": (c["objective.sample_masks.calls"] / n_ops, "count"),
            "objective.lof_loss.self_ms": (ms(self_t["objective.lof_loss"]), "ms"),
            "objective.tcr.ms": (ms(incl["objective.tcr"]), "ms"),
        }
        for part in ("encoder_full", "encoder_visible", "patcher"):
            m[f"backbone.{part}.fwd_ms"] = (ms(incl["backbone." + part]), "ms")
            m[f"backbone.{part}.bwd_ms"] = (ms(self.bwd_incl_ns["backbone." + part]), "ms")
        m["backbone.linear.train_fwd_ms"] = (ms(self_t["backbone.linear.train"]), "ms")
        m["backbone.linear.eval_fwd_ms"] = (ms(self_t["backbone.linear.eval"]), "ms")
        m["backbone.linear.bwd_ms"] = (ms(self.bwd_self_ns["backbone.linear.train"]), "ms")
        for fork in ("train", "eval"):
            m[f"ops.conv1d.{fork}.fwd_ms"] = (ms(self_t[f"ops.conv1d.{fork}"]), "ms")
        m["ops.conv1d.train.bwd_ms"] = (ms(self.bwd_self_ns["ops.conv1d.train"]), "ms")
        for op in ("gelu", "attention", "layer_norm", "batchnorm1d", "logdet_psd"):
            m[f"ops.{op}.fwd_ms"] = (ms(self_t["ops." + op]), "ms")
            m[f"ops.{op}.bwd_ms"] = (ms(self.bwd_self_ns["ops." + op]), "ms")
        m["ops.dropout.fwd_ms"] = (ms(self_t["ops.dropout"]), "ms")
        backward = incl["tensor.backward"]
        m["tensor.backward.ms"] = (ms(backward), "ms")
        m["tensor.backward.self_ms"] = (ms(backward - self.closure_ns), "ms")
        m["tensor.graph_nodes"] = (c["tensor.graph_nodes"] / n_ops, "count")
        m["tensor.accumulate.calls"] = (c["tensor.accumulate.calls"] / n_ops, "count")
        m["tensor.accumulate.alloc_mb"] = (c["tensor.accumulate.alloc_bytes"] / 2**20 / n_ops, "MB")
        m["training.step.ms"] = (ms(incl["training.step"]), "ms")
        m["training.adamw.step_ms"] = (ms(incl["training.adamw.step"]), "ms")
        m["training.zero_grad.ms"] = (ms(incl["training.zero_grad"]), "ms")
        m["training.val_pass.ms"] = (incl["training.val_pass"] / 1e6 / epochs if epochs else 0.0, "ms")
        m["training.build_model.ms"] = (ms(incl["training.build_model"]), "ms")
        m["data.batch_wait_ms"] = (ms(incl["data.batch_wait"]), "ms")
        m["data.load_dataset.ms"] = (ms(incl["data.load_dataset"]), "ms")
        m["data.normalize.ms"] = (ms(incl["data.normalize"]), "ms")
        m["checkpoint.load.ms"] = (ms(incl["checkpoint.load"]), "ms")
        m["checkpoint.save.ms"] = (ms(incl["checkpoint.save"]), "ms")
        m["checkpoint.bytes"] = (c["checkpoint.bytes"] / n_ops, "bytes")
        m["cli.command.self_ms"] = (ms(self_t["cli.command"]), "ms")
        return m

    def op_self_sums(self) -> dict[int, tuple[int, int]]:
        """Per op id: (sum of self times of its spans, duration of its op span)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        sums: dict[int, int] = defaultdict(int)
        op_span: dict[int, int] = {}
        for i, (_, start, end, parent, op_id) in enumerate(self.spans):
            if op_id is None:
                continue
            sums[op_id] += end - start - child_ns[i]
            if parent is None or self.spans[parent][4] != op_id:
                op_span[op_id] = end - start
        return {k: (sums[k], op_span[k]) for k in op_span}

    def spans_json(self) -> list[dict]:
        return [dict(name=n, start_ns=s, end_ns=e, parent=p, op=o) for n, s, e, p, o in self.spans]
