"""Optimization and evaluation harness: AdamW, SSL pretraining, linear
probing, fine-tuning, transfer evaluation, and classification metrics."""

from __future__ import annotations

import contextlib
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import ops, parallel
from .backbone import Backbone, EncoderConfig, Linear, PatcherConfig
from .checkpoint import apply_state, load_checkpoint, save_checkpoint
from .data import Dataset, NormStats, SplitSpec, batch_iter, normalize, split
from .errors import ConfigError, MtslofError, NumericError, ShapeError
from .objective import Decoder, MaskConfig, TCRConfig, lof_loss, masked_view_shards
from .tensor import Tensor, no_grad

log = logging.getLogger(__name__)


@dataclass
class OptimConfig:
    learning_rate: float = 5e-4
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 40
    batch_size: int = 128

    def __post_init__(self):
        # Each check is written so that NaN fails it; inf is rejected too.
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("betas must lie in [0, 1)")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be nonnegative and finite, got {self.weight_decay}")
        if not 0.0 < self.eps < math.inf:
            raise ConfigError(f"adam_eps must be positive and finite, got {self.eps}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")


_NO_DECAY_LEAF = {"gamma", "beta", "scale", "shift", "mask_token"}


class AdamW:
    """Decoupled weight decay followed by a bias-corrected Adam update.

    The learning rate is constant; norm scales/shifts and the mask token
    are excluded from decay. Each parameter's `.data` becomes its view of
    one flat store (`parallel.shared_zeros`) that steps update in place; a
    missing gradient counts as zero.
    """

    def __init__(self, params: dict[str, Tensor], cfg: OptimConfig):
        self.params = dict(params)
        self.cfg = cfg
        self.step_count = 0
        dtypes = sorted({p.data.dtype.name for p in self.params.values()})
        if len(dtypes) != 1:
            raise ConfigError(f"AdamW needs parameters of one dtype, got {' and '.join(dtypes)}")
        sizes = [p.data.size for p in self.params.values()]
        self._ends = np.cumsum(sizes, dtype=np.int64)
        self._slices = [slice(end - size, end) for end, size in zip(self._ends, sizes)]
        self._store = parallel.shared_zeros(sum(sizes), dtypes[0])
        self._grad, self._m, self._v, self._scratch = np.zeros((4, sum(sizes)), dtypes[0])
        decay = 1.0 - cfg.learning_rate * cfg.weight_decay
        self._decay = np.repeat([1.0 if name.rsplit(".", 1)[-1] in _NO_DECAY_LEAF else decay
                                 for name in self.params], sizes).astype(dtypes[0])
        for p, sl in zip(self.params.values(), self._slices):
            self._store[sl] = p.data.reshape(-1)
            p.data = self._store[sl].reshape(p.data.shape)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        cfg = self.cfg
        g, m, v, s = self._grad, self._m, self._v, self._scratch
        for p, sl in zip(self.params.values(), self._slices):
            g[sl] = 0.0 if p.grad is None else p.grad.reshape(-1)
        finite = np.isfinite(g)
        if not finite.all():
            name = list(self.params)[np.searchsorted(self._ends, np.argmin(finite), side="right")]
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - cfg.beta1 ** t
        bc2 = 1.0 - cfg.beta2 ** t
        self._store *= self._decay
        m *= cfg.beta1
        m += np.multiply(g, 1.0 - cfg.beta1, out=s)
        v *= cfg.beta2
        np.multiply(g, g, out=s)
        v += np.multiply(s, 1.0 - cfg.beta2, out=s)
        np.sqrt(np.divide(v, bc2, out=s), out=s)
        s += cfg.eps
        np.divide(np.divide(m, bc1, out=g), s, out=g)  # the moments hold g now
        self._store -= np.multiply(g, cfg.learning_rate, out=g)


# -- metrics ----------------------------------------------------------------


@dataclass
class Metrics:
    accuracy: float
    macro_f1: float
    per_class_f1: np.ndarray
    confusion: np.ndarray


def metrics_from_predictions(preds: np.ndarray, labels: np.ndarray, class_count: int) -> Metrics:
    """Confusion-matrix metrics; F1 of a class absent from both predictions
    and labels is defined as 0."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    confusion = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    correct = np.trace(confusion)
    total = confusion.sum()
    accuracy = float(correct / total) if total else 0.0
    f1 = np.zeros(class_count)
    for k in range(class_count):
        tp = confusion[k, k]
        fp = confusion[:, k].sum() - tp
        fn = confusion[k, :].sum() - tp
        denom = 2 * tp + fp + fn
        f1[k] = (2 * tp / denom) if denom else 0.0
    return Metrics(accuracy=accuracy, macro_f1=float(f1.mean()), per_class_f1=f1, confusion=confusion)


# Samples per forward in the graph-free representation pass. A sample's
# row does not depend on it (every GEMM has a fixed shape).
_EVAL_BATCH = 256


def compute_representations(backbone: Backbone, ds: Dataset) -> np.ndarray:
    """Eval-mode pooled representations for every sample, graph-free, in the
    backbone's dtype."""
    with no_grad():
        parts = [backbone.represent(Tensor(ds.samples[start : start + _EVAL_BATCH])).data
                 for start in range(0, ds.n, _EVAL_BATCH)]
    if not parts:
        return np.zeros((0, backbone.encoder_cfg.model_dim), dtype=backbone.head.weight.data.dtype)
    return np.concatenate(parts)


def predict_labels(backbone: Backbone, ds: Dataset) -> np.ndarray:
    """Argmax-logit predictions; numpy's argmax breaks ties toward the
    smallest class index."""
    z = compute_representations(backbone, ds)
    with no_grad():
        return np.argmax(backbone.classify(Tensor(z, dtype=z.dtype)).data, axis=-1)


def evaluate(backbone: Backbone, ds: Dataset) -> Metrics:
    if ds.n == 0:
        raise ConfigError("evaluate needs a nonempty split")
    return metrics_from_predictions(predict_labels(backbone, ds), ds.labels, ds.class_count)


# -- run bookkeeping ---------------------------------------------------------


@dataclass
class TrainRun:
    seed: int
    mode: str
    history: list = field(default_factory=list)
    checkpoint_path: str | None = None
    warnings: list = field(default_factory=list)

    def record(self, epoch: int, split_name: str, loss: float,
               metrics: Metrics | None = None, class_count: int | None = None) -> None:
        if metrics is None:
            c = class_count or 0
            row = dict(epoch=epoch, split=split_name, loss=loss,
                       accuracy=float("nan"), macro_f1=float("nan"),
                       per_class_f1=[float("nan")] * c)
        else:
            row = dict(epoch=epoch, split=split_name, loss=loss,
                       accuracy=metrics.accuracy, macro_f1=metrics.macro_f1,
                       per_class_f1=[float(v) for v in metrics.per_class_f1])
        self.history.append(row)


def history_csv(run: TrainRun, class_count: int) -> str:
    cols = ["epoch", "split", "loss", "accuracy", "macro_f1"]
    cols += [f"per_class_f1_{k}" for k in range(class_count)]
    lines = [",".join(cols)]
    for row in run.history:
        cells = [str(row["epoch"]), row["split"], f"{row['loss']:.6f}",
                 f"{row['accuracy']:.6f}", f"{row['macro_f1']:.6f}"]
        f1s = list(row["per_class_f1"])
        f1s += [float("nan")] * (class_count - len(f1s))
        cells += [f"{v:.6f}" for v in f1s]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def run_summary_text(run: TrainRun, metrics: Metrics | None = None) -> str:
    lines = [f"mode={run.mode}", f"seed={run.seed}",
             f"epochs={max([r['epoch'] for r in run.history], default=0)}"]
    if run.checkpoint_path:
        lines.append(f"checkpoint={run.checkpoint_path}")
    if metrics is not None:
        lines.append(f"accuracy={metrics.accuracy:.6f}")
        lines.append(f"macro_f1={metrics.macro_f1:.6f}")
    for w in run.warnings:
        lines.append(f"warning={w}")
    return "\n".join(lines) + "\n"


# -- model assembly and checkpoint state --------------------------------------


def build_model(patcher_cfg: PatcherConfig, encoder_cfg: EncoderConfig,
                class_count: int, decoder_depth: int = 4,
                seed: int | None = 0) -> tuple[Backbone, Decoder]:
    """A randomly initialized model; `seed` None draws nothing and leaves
    every weight zero, for a checkpoint to fill."""
    backbone = Backbone(patcher_cfg, encoder_cfg, class_count, seed=seed)
    decoder = Decoder(encoder_cfg, depth=decoder_depth,
                      seed=None if seed is None else seed + 1000003)
    return backbone, decoder


def _model_tensors(backbone: Backbone, decoder: Decoder | None,
                   include_head: bool = True) -> dict:
    """The model's parameters (Tensors) and buffers (arrays) by checkpoint
    name, in checkpoint order: backbone parameters, backbone buffers, then
    decoder parameters."""
    out = {"backbone." + n: t for n, t in backbone.named_params().items()
           if include_head or not n.startswith("head.")}
    out.update({"backbone." + n: buf for n, buf in backbone.named_buffers().items()})
    if decoder is not None:
        out.update({"decoder." + n: t for n, t in decoder.named_params().items()})
    return out


def model_state(backbone: Backbone, decoder: Decoder,
                norm_stats: NormStats | None = None,
                input_length: int | None = None) -> dict[str, np.ndarray]:
    out = {name: (t if isinstance(t, np.ndarray) else t.data).copy()
           for name, t in _model_tensors(backbone, decoder).items()}
    if norm_stats is not None:
        out["norm.mean"] = norm_stats.mean.copy()
        out["norm.std"] = norm_stats.std.copy()
    if input_length is not None:
        out["meta.input_length"] = np.array([input_length], dtype=np.float64)
    return out


def load_model_state(backbone: Backbone, decoder: Decoder | None,
                     loaded: dict[str, np.ndarray], include_head: bool = True) -> None:
    apply_state(_model_tensors(backbone, decoder, include_head), loaded)


def model_from_checkpoint(loaded: dict[str, np.ndarray], ds: Dataset,
                          patcher_cfg: PatcherConfig, encoder_cfg: EncoderConfig,
                          decoder_depth: int = 4, include_head: bool = True
                          ) -> tuple[Backbone, Decoder, NormStats | None]:
    """The model a loaded checkpoint holds, for inputs shaped like `ds`, and
    the normalization statistics stored with it.

    A dataset whose channel count or length differs from the checkpoint's
    input is a `ShapeError`. The model is built with no random draws and
    filled by `apply_state`, strict on names and shapes
    (`CheckpointMismatchError`). Without `include_head` the head stays zero.
    """
    stats = None
    if "norm.mean" in loaded and "norm.std" in loaded:
        stats = NormStats(mean=loaded["norm.mean"].astype(np.float64),
                          std=loaded["norm.std"].astype(np.float64))
    if stats is not None and stats.mean.shape[0] != ds.channels:
        raise ShapeError(
            f"checkpoint/config mismatch on channels: checkpoint m={stats.mean.shape[0]}, "
            f"dataset m={ds.channels}")
    if "meta.input_length" in loaded:
        t_src = int(loaded["meta.input_length"][0])
        if t_src != ds.length:
            raise ShapeError(
                f"checkpoint/config mismatch on length: checkpoint t={t_src}, dataset t={ds.length}")
    backbone, decoder = build_model(patcher_cfg, encoder_cfg, ds.class_count, decoder_depth,
                                    seed=None)
    load_model_state(backbone, decoder, loaded, include_head=include_head)
    return backbone, decoder, stats


def prepare_splits(ds: Dataset, spec: SplitSpec, stats: NormStats | None = None
                   ) -> tuple[Dataset, Dataset, Dataset, NormStats]:
    """Split, then z-score all parts with `stats`; without them, with
    statistics computed on the training split."""
    train, val, test = split(ds, spec)
    train, stats = normalize(train, stats)
    val, _ = normalize(val, stats)
    test, _ = normalize(test, stats)
    return train, val, test, stats


# -- training loops ------------------------------------------------------------


def _pretrain_params(backbone: Backbone, decoder: Decoder) -> dict[str, Tensor]:
    """Everything the SSL objective touches; the classifier head stays out."""
    return {name: t for name, t in _model_tensors(backbone, decoder, include_head=False).items()
            if isinstance(t, Tensor)}


@contextlib.contextmanager
def _named(where: str):
    """An `MtslofError` raised inside comes out with its own type, prefixed `where: `."""
    try:
        yield
    except MtslofError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _train_epoch(optim: AdamW, x: np.ndarray, y: np.ndarray, optcfg: OptimConfig,
                 seed: int, epoch: int, loss_of) -> float:
    """One epoch of AdamW steps on `loss_of(xb, yb)` over the batches of
    `batch_iter`; returns the mean step loss.

    An `MtslofError` of any step comes out with its own type, prefixed
    `epoch E step S: `.
    """
    losses = []
    for step, (xb, yb) in enumerate(batch_iter(x, y, optcfg.batch_size, seed, epoch)):
        with _named(f"epoch {epoch} step {step}"):
            loss = loss_of(xb, yb)
            optim.zero_grad()
            loss.backward()
            optim.step()
        losses.append(float(loss.data))
    return float(np.mean(losses))


def pretrain(train_ds: Dataset, val_ds: Dataset | None, backbone: Backbone,
             decoder: Decoder, maskcfg: MaskConfig, tcrcfg: TCRConfig,
             optcfg: OptimConfig, seed: int,
             checkpoint_path: str | None = None,
             norm_stats: NormStats | None = None) -> TrainRun:
    """Shuffled epochs minimizing the occlusion-invariance objective; an
    `MtslofError` of a validation pass is prefixed `epoch E val: `."""
    run = TrainRun(seed=seed, mode="pretrain")
    optim = AdamW(_pretrain_params(backbone, decoder), optcfg)
    c = train_ds.class_count
    # The masked views' second shard runs in a worker forked after AdamW laid
    # out its shared store, so it reads each step's values; none is forked
    # when there is no step to run.
    with (masked_view_shards(backbone, decoder) if optcfg.epochs and train_ds.n
          else contextlib.nullcontext()) as shards:
        for epoch in range(optcfg.epochs):
            rng = np.random.default_rng([seed, epoch])

            def loss_of(xb, _):
                return lof_loss(Tensor(xb), backbone, decoder, maskcfg, tcrcfg,
                                rng=rng, training=True, shards=shards)[0]

            run.record(epoch, "train", _train_epoch(optim, train_ds.samples, train_ds.labels,
                                                    optcfg, seed, epoch, loss_of), class_count=c)
            if val_ds is not None and val_ds.n:
                vrng = np.random.default_rng([seed, epoch, 1])
                vlosses = []
                with _named(f"epoch {epoch} val"), no_grad():
                    for xb, _ in batch_iter(val_ds.samples, val_ds.labels, optcfg.batch_size,
                                           seed, epoch, shuffle=False):
                        vloss, _ = lof_loss(Tensor(xb), backbone, decoder, maskcfg, tcrcfg,
                                            rng=vrng, training=False, shards=shards)
                        vlosses.append(float(vloss.data))
                run.record(epoch, "val", float(np.mean(vlosses)), class_count=c)
            log.info("pretrain seed=%d epoch=%d loss=%.6f", seed, epoch, run.history[-1]["loss"])
    if checkpoint_path:
        save_checkpoint(checkpoint_path,
                        model_state(backbone, decoder, norm_stats, train_ds.length))
        run.checkpoint_path = checkpoint_path
    return run


def _head_eval(head: Linear, x: np.ndarray, y: np.ndarray,
               class_count: int) -> tuple[float, Metrics]:
    """Cross-entropy loss and metrics of the head on features, from one head pass."""
    with no_grad():
        logits = head(Tensor(x))
        loss = float(ops.cross_entropy(logits, y).data)
    preds = np.argmax(logits.data, axis=-1)
    return loss, metrics_from_predictions(preds, y, class_count)


def linear_probe(train_ds: Dataset, val_ds: Dataset | None, test_ds: Dataset,
                 backbone: Backbone, optcfg: OptimConfig, seed: int) -> tuple[TrainRun, Metrics]:
    """Train a fresh linear head on frozen eval-mode representations.

    The backbone (including batchnorm running stats) is never touched;
    the trained head is installed on the backbone afterwards.
    """
    run = TrainRun(seed=seed, mode="probe")
    c = test_ds.class_count
    feats = {"train": (compute_representations(backbone, train_ds), train_ds.labels),
             "test": (compute_representations(backbone, test_ds), test_ds.labels)}
    if val_ds is not None and val_ds.n:
        feats["val"] = (compute_representations(backbone, val_ds), val_ds.labels)
    head = Linear(backbone.encoder_cfg.model_dim, c, np.random.default_rng(seed))
    optim = AdamW(head.named_tensors("head."), optcfg)
    x_train, y_train = feats["train"]
    for epoch in range(optcfg.epochs):
        loss = _train_epoch(optim, x_train, y_train, optcfg, seed, epoch,
                            lambda xb, yb: ops.cross_entropy(head(Tensor(xb)), yb))
        run.record(epoch, "train", loss, _head_eval(head, x_train, y_train, c)[1])
        if "val" in feats:
            run.record(epoch, "val", *_head_eval(head, *feats["val"], c))
    test_loss, metrics = _head_eval(head, *feats["test"], c)
    run.record(optcfg.epochs, "test", test_loss, metrics)
    backbone.head = head
    return run, metrics


def select_fraction(n: int, fraction: float, seed: int) -> np.ndarray:
    """Seeded subset of round(fraction * n) training indices, at least one."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must lie in (0, 1], got {fraction}")
    k = max(1, int(round(fraction * n)))
    return np.sort(np.random.default_rng(seed).choice(n, size=k, replace=False))


def finetune(train_ds: Dataset, val_ds: Dataset | None, test_ds: Dataset,
             backbone: Backbone, fraction: float, optcfg: OptimConfig,
             seed: int) -> tuple[TrainRun, Metrics]:
    """End-to-end cross-entropy training on a labeled fraction of the
    training split, starting from a fresh zero-initialized head; an
    `MtslofError` of a per-epoch validation is prefixed `epoch E val: `."""
    run = TrainRun(seed=seed, mode="finetune")
    c = test_ds.class_count
    idx = select_fraction(train_ds.n, fraction, seed)
    x, y = train_ds.samples[idx], train_ds.labels[idx]
    present = np.unique(y)
    if present.size < c:
        missing = sorted(set(range(c)) - set(present.tolist()))
        run.warnings.append(f"classes {missing} absent from the {fraction} fraction subset")
        log.warning("finetune subset is missing classes %s", missing)

    backbone.head = Linear(backbone.encoder_cfg.model_dim, c, rng=None)  # zero weights
    optim = AdamW(backbone.named_params(), optcfg)
    for epoch in range(optcfg.epochs):
        rng = np.random.default_rng([seed, epoch])

        def loss_of(xb, yb):
            logits = backbone.classify(backbone.represent(Tensor(xb), training=True, rng=rng))
            return ops.cross_entropy(logits, yb)

        run.record(epoch, "train", _train_epoch(optim, x, y, optcfg, seed, epoch, loss_of),
                   class_count=c)
        if val_ds is not None and val_ds.n:
            with _named(f"epoch {epoch} val"):
                run.record(epoch, "val", float("nan"), evaluate(backbone, val_ds))
    metrics = evaluate(backbone, test_ds)
    run.record(optcfg.epochs, "test", float("nan"), metrics)
    return run, metrics


def transfer_eval(source_checkpoint: str, target: Dataset,
                  patcher_cfg: PatcherConfig, encoder_cfg: EncoderConfig,
                  split_spec: SplitSpec, optcfg: OptimConfig, seed: int,
                  decoder_depth: int = 4) -> tuple[TrainRun, Metrics]:
    """Probe a source-domain backbone on a target-domain dataset.

    The target must match the source input shape; normalization statistics
    stored with the checkpoint are applied, never recomputed.
    """
    backbone, _, stats = model_from_checkpoint(load_checkpoint(source_checkpoint), target,
                                               patcher_cfg, encoder_cfg, decoder_depth,
                                               include_head=False)
    train, val, test, _ = prepare_splits(target, split_spec, stats)
    return linear_probe(train, val, test, backbone, optcfg, seed)
