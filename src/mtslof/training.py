"""Optimization and evaluation harness: AdamW, SSL pretraining, linear
probing, fine-tuning, transfer evaluation, and classification metrics."""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass, field

import numpy as np

from . import ops
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
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("betas must lie in [0, 1)")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")


_NO_DECAY_LEAF = {"gamma", "beta", "scale", "shift", "mask_token"}


class AdamW:
    """Decoupled weight decay followed by a bias-corrected Adam update.

    The learning rate is constant; norm scales/shifts and the mask token
    are excluded from decay.
    """

    def __init__(self, params: dict[str, Tensor], cfg: OptimConfig):
        self.params = dict(params)
        self.cfg = cfg
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def _decays(self, name: str) -> bool:
        return name.rsplit(".", 1)[-1] not in _NO_DECAY_LEAF

    def step(self) -> None:
        cfg = self.cfg
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - cfg.beta1 ** t
        bc2 = 1.0 - cfg.beta2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g is not None and not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for parameter {name!r}")
            if cfg.weight_decay and self._decays(name):
                p.data *= 1.0 - cfg.learning_rate * cfg.weight_decay
            if g is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
            p.data -= cfg.learning_rate * update


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
                class_count: int, decoder_depth: int = 4, seed: int = 0,
                with_recon_head: bool = False) -> tuple[Backbone, Decoder]:
    backbone = Backbone(patcher_cfg, encoder_cfg, class_count, seed=seed)
    decoder = Decoder(encoder_cfg, depth=decoder_depth,
                      with_recon_head=with_recon_head, seed=seed + 1000003)
    return backbone, decoder


def model_state(backbone: Backbone, decoder: Decoder,
                norm_stats: NormStats | None = None,
                input_length: int | None = None) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for name, t in backbone.named_params().items():
        out["backbone." + name] = t.data.copy()
    for name, buf in backbone.named_buffers().items():
        out["backbone." + name] = buf.copy()
    for name, t in decoder.named_params().items():
        out["decoder." + name] = t.data.copy()
    if norm_stats is not None:
        out["norm.mean"] = norm_stats.mean.copy()
        out["norm.std"] = norm_stats.std.copy()
    if input_length is not None:
        out["meta.input_length"] = np.array([input_length], dtype=np.float64)
    return out


def load_model_state(backbone: Backbone, decoder: Decoder | None,
                     loaded: dict[str, np.ndarray], include_head: bool = True) -> None:
    targets: dict = {}
    for name, t in backbone.named_params().items():
        if not include_head and name.startswith("head."):
            continue
        targets["backbone." + name] = t
    for name, buf in backbone.named_buffers().items():
        targets["backbone." + name] = buf
    if decoder is not None:
        for name, t in decoder.named_params().items():
            targets["decoder." + name] = t
    apply_state(targets, loaded)


def checkpoint_norm_stats(loaded: dict[str, np.ndarray]) -> NormStats | None:
    if "norm.mean" in loaded and "norm.std" in loaded:
        return NormStats(mean=loaded["norm.mean"].astype(np.float64),
                         std=loaded["norm.std"].astype(np.float64))
    return None


def check_input_shape(loaded: dict[str, np.ndarray], ds: Dataset) -> None:
    """Reject a dataset whose channel count or length differs from the
    input the checkpoint was trained on."""
    stats = checkpoint_norm_stats(loaded)
    if stats is not None and stats.mean.shape[0] != ds.channels:
        raise ShapeError(
            f"checkpoint/config mismatch on channels: checkpoint m={stats.mean.shape[0]}, "
            f"dataset m={ds.channels}")
    if "meta.input_length" in loaded:
        t_src = int(loaded["meta.input_length"][0])
        if t_src != ds.length:
            raise ShapeError(
                f"checkpoint/config mismatch on length: checkpoint t={t_src}, dataset t={ds.length}")


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
    params = {"backbone." + n: p for n, p in backbone.named_params().items()
              if not n.startswith("head.")}
    params.update({"decoder." + n: p for n, p in decoder.named_params().items()
                   if not n.startswith("recon.")})
    return params


def pretrain(train_ds: Dataset, val_ds: Dataset | None, backbone: Backbone,
             decoder: Decoder, maskcfg: MaskConfig, tcrcfg: TCRConfig,
             optcfg: OptimConfig, seed: int,
             checkpoint_path: str | None = None,
             norm_stats: NormStats | None = None) -> TrainRun:
    """Shuffled epochs minimizing the occlusion-invariance objective."""
    run = TrainRun(seed=seed, mode="pretrain")
    optim = AdamW(_pretrain_params(backbone, decoder), optcfg)
    c = train_ds.class_count
    # The masked views' second shard runs in a worker for the whole run;
    # none is forked when there is no step to run.
    with (masked_view_shards(backbone, decoder) if optcfg.epochs and train_ds.n
          else contextlib.nullcontext()) as shards:
        for epoch in range(optcfg.epochs):
            rng = np.random.default_rng([seed, epoch])
            losses = []
            for step, (xb, _) in enumerate(batch_iter(train_ds, optcfg.batch_size, seed, epoch)):
                try:
                    loss, _ = lof_loss(Tensor(xb), backbone, decoder, maskcfg, tcrcfg,
                                       rng=rng, training=True, shards=shards)
                    optim.zero_grad()
                    loss.backward()
                    optim.step()
                except MtslofError as exc:
                    raise type(exc)(f"epoch {epoch} step {step}: {exc}") from exc
                losses.append(float(loss.data))
            run.record(epoch, "train", float(np.mean(losses)), class_count=c)
            if val_ds is not None and val_ds.n:
                vrng = np.random.default_rng([seed, epoch, 1])
                vlosses = []
                with no_grad():
                    for xb, _ in batch_iter(val_ds, optcfg.batch_size, seed, epoch, shuffle=False):
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


def _train_head_on_features(features: dict[str, tuple[np.ndarray, np.ndarray]],
                            head: Linear, optcfg: OptimConfig, seed: int,
                            class_count: int, run: TrainRun) -> None:
    """Cross-entropy training of a linear head on cached representations."""
    optim = AdamW(head.named_tensors("head."), optcfg)
    x_train, y_train = features["train"]
    n = x_train.shape[0]
    for epoch in range(optcfg.epochs):
        order = np.random.default_rng([seed, epoch]).permutation(n)
        losses = []
        for start in range(0, n, optcfg.batch_size):
            idx = order[start : start + optcfg.batch_size]
            logits = head(Tensor(x_train[idx]))
            loss = ops.cross_entropy(logits, y_train[idx])
            optim.zero_grad()
            loss.backward()
            optim.step()
            losses.append(float(loss.data))
        run.record(epoch, "train", float(np.mean(losses)),
                   _head_eval(head, x_train, y_train, class_count)[1])
        if "val" in features and features["val"][0].shape[0]:
            xv, yv = features["val"]
            run.record(epoch, "val", *_head_eval(head, xv, yv, class_count))


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
    _train_head_on_features(feats, head, optcfg, seed, c, run)
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
    training split, starting from a fresh zero-initialized head."""
    run = TrainRun(seed=seed, mode="finetune")
    c = test_ds.class_count
    idx = select_fraction(train_ds.n, fraction, seed)
    subset = train_ds.subset(idx, train_ds.name + f":frac{fraction}")
    present = np.unique(subset.labels)
    if present.size < c:
        missing = sorted(set(range(c)) - set(present.tolist()))
        run.warnings.append(f"classes {missing} absent from the {fraction} fraction subset")
        log.warning("finetune subset is missing classes %s", missing)

    backbone.head = Linear(backbone.encoder_cfg.model_dim, c,
                           np.random.default_rng(seed), zero_init=True)
    optim = AdamW(backbone.named_params(), optcfg)
    for epoch in range(optcfg.epochs):
        rng = np.random.default_rng([seed, epoch])
        losses = []
        for step, (xb, yb) in enumerate(batch_iter(subset, optcfg.batch_size, seed, epoch)):
            logits = backbone.classify(backbone.represent(Tensor(xb), training=True, rng=rng))
            loss = ops.cross_entropy(logits, yb)
            optim.zero_grad()
            loss.backward()
            try:
                optim.step()
            except NumericError as exc:
                raise NumericError(f"epoch {epoch} step {step}: {exc}") from exc
            losses.append(float(loss.data))
        run.record(epoch, "train", float(np.mean(losses)), class_count=c)
        if val_ds is not None and val_ds.n:
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
    loaded = load_checkpoint(source_checkpoint)
    check_input_shape(loaded, target)
    backbone, decoder = build_model(patcher_cfg, encoder_cfg, target.class_count,
                                    decoder_depth, seed)
    load_model_state(backbone, decoder, loaded, include_head=False)
    train, val, test, _ = prepare_splits(target, split_spec, checkpoint_norm_stats(loaded))
    return linear_probe(train, val, test, backbone, optcfg, seed)
