"""Harness tests: AdamW, metrics, pretraining, probing, fine-tuning, transfer."""

import math
import os

import numpy as np
import pytest

from mtslof import backbone, ops, parallel, tensor, training
from mtslof.backbone import EncoderConfig, PatcherConfig
from mtslof.checkpoint import load_checkpoint, save_checkpoint
from mtslof.data import Dataset, SplitSpec, SyntheticConfig, generate_synthetic
from mtslof.errors import CheckpointMismatchError, ConfigError, NumericError, ShapeError
from mtslof.objective import MaskConfig, TCRConfig
from mtslof.tensor import parameter, use_dtype
from mtslof.training import (
    AdamW,
    OptimConfig,
    build_model,
    compute_representations,
    evaluate,
    finetune,
    linear_probe,
    load_model_state,
    metrics_from_predictions,
    model_state,
    prepare_splits,
    pretrain,
    select_fraction,
    transfer_eval,
)

PATCHER = PatcherConfig(first_kernel=8, first_stride=1,
                        channel_widths=(4, 4, 4, 8), input_channels=2)
ENCODER = EncoderConfig(model_dim=8, heads=2, depth=1, ffn_multiplier=2, dropout=0.0)


@pytest.fixture(scope="module")
def tiny_splits():
    ds = generate_synthetic(SyntheticConfig(class_count=3, channels=2, length=32,
                                            samples_per_class=12, noise_std=0.4, seed=5))
    return prepare_splits(ds, SplitSpec(seed=0))


def tiny_model(seed=0):
    return build_model(PATCHER, ENCODER, class_count=3, decoder_depth=1, seed=seed)


# -- AdamW ---------------------------------------------------------------


def test_adamw_zero_grad_zero_decay_is_fixed_point():
    p = parameter(np.array([1.0, -2.0]))
    optim = AdamW({"w": p}, OptimConfig(weight_decay=0.0))
    p.grad = np.zeros(2)
    before = p.data.copy()
    optim.step()
    assert np.array_equal(p.data, before)


def test_adamw_zero_grad_decay_shrinks():
    cfg = OptimConfig(learning_rate=5e-4, weight_decay=0.05)
    p = parameter(np.array([1.0, -2.0]))
    optim = AdamW({"w": p}, cfg)
    p.grad = np.zeros(2)
    before = p.data.copy()
    optim.step()
    assert np.allclose(p.data, before * (1.0 - 5e-4 * 0.05), rtol=1e-12)


def test_adamw_matches_reference_updates():
    from mtslof.tensor import use_dtype

    cfg = OptimConfig(learning_rate=0.1, weight_decay=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    with use_dtype(np.float64):
        p = parameter(np.array([2.0]))
    optim = AdamW({"w": p}, cfg)
    # hand-rolled oracle of the same update equations
    ref = 2.0
    m = v = 0.0
    g = 0.5
    for t in range(1, 4):
        p.grad = np.array([g])
        optim.step()
        ref *= 1.0 - cfg.learning_rate * cfg.weight_decay
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        mh = m / (1 - cfg.beta1**t)
        vh = v / (1 - cfg.beta2**t)
        ref -= cfg.learning_rate * mh / (np.sqrt(vh) + cfg.eps)
        assert float(p.data[0]) == pytest.approx(ref, rel=1e-10)


def test_adamw_rejects_nan_gradient():
    p = parameter(np.array([1.0]))
    optim = AdamW({"w": p}, OptimConfig())
    p.grad = np.array([np.nan])
    with pytest.raises(NumericError, match="w"):
        optim.step()


def test_adamw_excludes_norm_and_mask_token_from_decay():
    cfg = OptimConfig(learning_rate=0.1, weight_decay=0.5)
    scale = parameter(np.array([1.0]))
    token = parameter(np.array([1.0]))
    weight = parameter(np.array([1.0]))
    optim = AdamW({"encoder.norm1.scale": scale, "decoder.mask_token": token,
                   "encoder.wq.weight": weight}, cfg)
    for p in (scale, token, weight):
        p.grad = np.zeros(1)
    optim.step()
    assert float(scale.data[0]) == 1.0
    assert float(token.data[0]) == 1.0
    assert float(weight.data[0]) == pytest.approx(0.95)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_adamw_parameters_stay_views_of_one_shared_store():
    params = {"w": parameter(np.ones((2, 3))), "norm.gamma": parameter(np.arange(4.0))}
    initial = {name: p.data.copy() for name, p in params.items()}
    optim = AdamW(params, OptimConfig(learning_rate=0.1))
    views = {name: p.data for name, p in params.items()}
    for p in params.values():
        assert np.shares_memory(p.data, optim._store)
    worker = parallel.Worker(lambda _: [p.data.copy() for p in params.values()])
    try:
        for _ in range(3):
            for p in params.values():
                p.grad = np.ones_like(p.data)
            optim.step()
        worker.submit(None)
        seen = worker.result()
    finally:
        worker.close()
    for (name, p), got in zip(params.items(), seen):
        assert p.data is views[name] and np.shares_memory(p.data, optim._store)
        assert not np.array_equal(got, initial[name])
        assert got.tobytes() == p.data.tobytes(), name


def test_adamw_non_finite_gradient_changes_nothing():
    first, second = parameter(np.array([1.0, -2.0])), parameter(np.array([3.0]))
    optim = AdamW({"first": first, "second": second}, OptimConfig(learning_rate=0.1))
    first.grad, second.grad = np.ones_like(first.data), np.ones_like(second.data)
    optim.step()
    before = [a.tobytes() for a in (first.data, second.data, optim._m, optim._v)]
    second.grad = np.array([np.inf], dtype=second.data.dtype)
    with pytest.raises(NumericError, match="'second'"):
        optim.step()
    assert [a.tobytes() for a in (first.data, second.data, optim._m, optim._v)] == before
    assert optim.step_count == 1


def test_adamw_missing_gradient_counts_as_zero():
    def stepped(second_grad):
        p = parameter(np.array([1.0, -2.0]))
        optim = AdamW({"w": p}, OptimConfig(learning_rate=0.1))
        p.grad = np.ones_like(p.data)
        optim.step()
        p.grad = second_grad(p)
        optim.step()
        return p.data.tobytes(), optim._m.tobytes(), optim._v.tobytes()

    assert stepped(lambda p: None) == stepped(lambda p: np.zeros_like(p.data))


def test_adamw_rejects_parameters_of_two_dtypes():
    with use_dtype(np.float64):
        wide = parameter(np.ones(2))
    narrow = parameter(np.ones(2))
    with pytest.raises(ConfigError, match="float32 and float64"):
        AdamW({"wide": wide, "narrow": narrow}, OptimConfig())


# -- metrics ----------------------------------------------------------------


def test_metrics_perfect_predictions():
    labels = np.array([0, 1, 2, 1])
    m = metrics_from_predictions(labels, labels, 3)
    assert m.accuracy == 1.0
    assert m.macro_f1 == 1.0


def test_metrics_binary_closed_form():
    # per the positive class: TP=1, FP=1, FN=1, TN=1 -> F1 = 0.5
    labels = np.array([1, 1, 0, 0])
    preds = np.array([1, 0, 1, 0])
    m = metrics_from_predictions(preds, labels, 2)
    assert m.per_class_f1[1] == pytest.approx(0.5)
    assert m.accuracy == pytest.approx(0.5)


def test_metrics_match_loop_oracle(rng):
    labels = rng.integers(0, 3, size=20)
    preds = rng.integers(0, 3, size=20)
    m = metrics_from_predictions(preds, labels, 3)
    for k in range(3):
        tp = int(((preds == k) & (labels == k)).sum())
        fp = int(((preds == k) & (labels != k)).sum())
        fn = int(((preds != k) & (labels == k)).sum())
        expect = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        assert m.per_class_f1[k] == pytest.approx(expect)
    assert m.accuracy == pytest.approx((preds == labels).mean())


def test_metrics_absent_class_f1_is_zero():
    labels = np.array([0, 0, 1])
    preds = np.array([0, 0, 1])
    m = metrics_from_predictions(preds, labels, 3)
    assert m.per_class_f1[2] == 0.0


def test_macro_f1_invariant_under_relabeling(rng):
    labels = rng.integers(0, 3, size=30)
    preds = rng.integers(0, 3, size=30)
    base = metrics_from_predictions(preds, labels, 3).macro_f1
    perm = np.array([2, 0, 1])
    permuted = metrics_from_predictions(perm[preds], perm[labels], 3).macro_f1
    assert base == pytest.approx(permuted)


def test_evaluate_accuracy_equals_per_sample_mean(tiny_splits):
    train, val, test, _ = tiny_splits
    backbone, _ = tiny_model()
    m = evaluate(backbone, test)
    from mtslof.training import predict_labels

    preds = predict_labels(backbone, test)
    assert m.accuracy == pytest.approx(float((preds == test.labels).mean()))


def test_evaluate_ties_break_toward_smallest_class(tiny_splits):
    train, val, test, _ = tiny_splits
    backbone, _ = tiny_model()
    backbone.head.weight.data[...] = 0.0
    backbone.head.bias.data[...] = 0.0
    from mtslof.training import predict_labels

    preds = predict_labels(backbone, test)
    assert np.all(preds == 0)


def test_compute_representations_keep_the_backbone_dtype(tiny_splits):
    train, val, test, _ = tiny_splits
    with use_dtype(np.float64):
        backbone, _ = tiny_model()
        z = compute_representations(backbone, test)
    assert z.dtype == np.float64 and z.shape == (test.n, ENCODER.model_dim)


# -- pretrain ----------------------------------------------------------------


def test_pretrain_zero_epochs_checkpoint_equals_init(tiny_splits, tmp_path):
    train, val, test, stats = tiny_splits
    backbone, decoder = tiny_model(seed=4)
    init_state = model_state(backbone, decoder, stats, train.length)
    path = str(tmp_path / "init.ckpt")
    run = pretrain(train, None, backbone, decoder, MaskConfig(0.8, 2), TCRConfig(),
                   OptimConfig(epochs=0, batch_size=8), seed=4,
                   checkpoint_path=path, norm_stats=stats)
    assert run.history == []
    loaded = load_checkpoint(path)
    for name, arr in init_state.items():
        assert np.array_equal(loaded[name], arr), name


def test_pretrain_same_seed_same_history(tiny_splits):
    from mtslof.training import history_csv

    train, val, test, _ = tiny_splits
    cfg = OptimConfig(epochs=2, batch_size=12)
    csvs = []
    for _ in range(2):
        backbone, decoder = tiny_model(seed=11)
        run = pretrain(train, val, backbone, decoder, MaskConfig(0.8, 2), TCRConfig(),
                       cfg, seed=11)
        csvs.append(history_csv(run, 3))
    assert csvs[0] == csvs[1]


def test_pretrain_history_covers_each_completed_epoch(tiny_splits):
    train, val, test, _ = tiny_splits
    backbone, decoder = tiny_model(seed=21)
    run = pretrain(train, val, backbone, decoder, MaskConfig(0.8, 2), TCRConfig(),
                   OptimConfig(epochs=3, batch_size=12), seed=21)
    assert sorted({r["epoch"] for r in run.history}) == [0, 1, 2]


def test_pretrain_loss_decreases_on_easy_data(tiny_splits):
    train, val, test, _ = tiny_splits
    backbone, decoder = tiny_model(seed=2)
    run = pretrain(train, None, backbone, decoder, MaskConfig(0.8, 4),
                   TCRConfig(lam=10.0),
                   OptimConfig(learning_rate=2e-3, epochs=6, batch_size=8), seed=2)
    losses = [r["loss"] for r in run.history if r["split"] == "train"]
    assert losses[-1] < losses[0]


# -- probe --------------------------------------------------------------------


def test_probe_freezes_backbone_bit_identical(tiny_splits, tmp_path):
    train, val, test, stats = tiny_splits
    backbone, decoder = tiny_model(seed=6)
    before = {name: t.data.copy() for name, t in backbone.named_params().items()
              if not name.startswith("head.")}
    buffers_before = {name: b.copy() for name, b in backbone.named_buffers().items()}
    run, metrics = linear_probe(train, val, test, backbone,
                                OptimConfig(epochs=3, batch_size=16), seed=6)
    for name, t in backbone.named_params().items():
        if name.startswith("head."):
            continue
        assert np.array_equal(before[name], t.data), name
    for name, b in backbone.named_buffers().items():
        assert np.array_equal(buffers_before[name], b), name


def test_probe_constant_labels_hits_majority_ceiling(tiny_splits):
    train, val, test, _ = tiny_splits
    const_train = Dataset(train.samples, np.zeros(train.n, dtype=np.int64), 3,
                          normalized=True)
    const_test = Dataset(test.samples, np.zeros(test.n, dtype=np.int64), 3,
                         normalized=True)
    backbone, _ = tiny_model(seed=6)
    _, metrics = linear_probe(const_train, None, const_test, backbone,
                              OptimConfig(epochs=5, batch_size=16), seed=6)
    assert metrics.accuracy == pytest.approx(1.0)
    assert metrics.macro_f1 == pytest.approx(1.0 / 3.0)


def test_probe_deterministic(tiny_splits):
    train, val, test, _ = tiny_splits
    results = []
    for _ in range(2):
        backbone, _ = tiny_model(seed=9)
        _, metrics = linear_probe(train, val, test, backbone,
                                  OptimConfig(epochs=3, batch_size=16), seed=9)
        results.append((metrics.accuracy, metrics.macro_f1))
    assert results[0] == results[1]


# -- finetune -----------------------------------------------------------------


def test_select_fraction_is_seeded_subset():
    idx1 = select_fraction(100, 0.25, seed=5)
    idx2 = select_fraction(100, 0.25, seed=5)
    idx3 = select_fraction(100, 0.25, seed=6)
    assert np.array_equal(idx1, idx2)
    assert not np.array_equal(idx1, idx3)
    assert len(idx1) == 25
    assert len(np.unique(idx1)) == 25


def test_select_fraction_rounding_and_floor():
    assert len(select_fraction(360, 0.05, seed=0)) == 18
    assert len(select_fraction(10, 0.01, seed=0)) == 1


def test_select_fraction_validation():
    with pytest.raises(ConfigError):
        select_fraction(10, 0.0, seed=0)
    with pytest.raises(ConfigError):
        select_fraction(10, 1.5, seed=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["learning_rate", "weight_decay", "eps"])
def test_optim_config_rejects_a_non_finite_value_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=key):
        OptimConfig(**{key: value})


def test_finetune_full_fraction_runs_and_reports(tiny_splits):
    train, val, test, _ = tiny_splits
    backbone, _ = tiny_model(seed=1)
    run, metrics = finetune(train, None, test, backbone, 1.0,
                            OptimConfig(learning_rate=2e-3, epochs=2, batch_size=8), seed=1)
    assert 0.0 <= metrics.accuracy <= 1.0
    assert run.mode == "finetune"


def test_finetune_tiny_fraction_warns_on_missing_class(tiny_splits):
    train, val, test, _ = tiny_splits
    backbone, _ = tiny_model(seed=1)
    run, _ = finetune(train, None, test, backbone, 0.05,
                      OptimConfig(epochs=1, batch_size=4), seed=1)
    # 5% of ~21 train samples is 1 sample; two classes must be missing
    assert run.warnings and "absent" in run.warnings[0]


def test_finetune_memorizes_tiny_train_split(tiny_splits):
    train, val, test, _ = tiny_splits
    small = train.subset(np.arange(10))
    backbone, _ = tiny_model(seed=3)
    run, _ = finetune(small, None, small, backbone, 1.0,
                      OptimConfig(learning_rate=1e-2, epochs=40, batch_size=10), seed=3)
    metrics = evaluate(backbone, small)
    assert metrics.accuracy == 1.0


@pytest.mark.parametrize("mode", ["finetune", "probe"])
def test_a_step_error_names_its_epoch_and_step(tiny_splits, monkeypatch, mode):
    train, val, test, _ = tiny_splits
    opt = OptimConfig(learning_rate=2e-3, epochs=2, batch_size=8)
    steps = -(-train.n // opt.batch_size)
    real = ops.cross_entropy
    calls = []

    def cross_entropy(logits, labels):
        # Graph-free calls are the probe's evaluations; only steps count.
        if tensor.grad_enabled():
            calls.append(None)
            if len(calls) == steps + 2:
                raise NumericError("non-finite logits")
        return real(logits, labels)

    monkeypatch.setattr(ops, "cross_entropy", cross_entropy)
    backbone, _ = tiny_model()
    with pytest.raises(NumericError, match="^epoch 1 step 1: non-finite logits$"):
        if mode == "finetune":
            finetune(train, val, test, backbone, 1.0, opt, seed=0)
        else:
            linear_probe(train, val, test, backbone, opt, seed=0)


@pytest.mark.parametrize("mode", ["pretrain", "finetune"])
def test_a_validation_error_names_its_epoch(tiny_splits, monkeypatch, mode):
    train, val, test, _ = tiny_splits
    opt = OptimConfig(epochs=2, batch_size=12)
    backbone, decoder = tiny_model()

    real = training.lof_loss

    def failing(*args, **kwargs):
        # Pretraining validates graph-free, its steps do not; finetune's
        # `evaluate` runs only for validation and test.
        if mode == "finetune" or not tensor.grad_enabled():
            raise NumericError("eval failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "lof_loss" if mode == "pretrain" else "evaluate", failing)
    with pytest.raises(NumericError, match="^epoch 0 val: eval failed$"):
        if mode == "pretrain":
            pretrain(train, val, backbone, decoder, MaskConfig(0.8, 2), TCRConfig(), opt, seed=0)
        else:
            finetune(train, val, test, backbone, 1.0, opt, seed=0)


# -- transfer -----------------------------------------------------------------


def test_transfer_roundtrip_and_shape_guard(tiny_splits, tmp_path):
    train, val, test, stats = tiny_splits
    backbone, decoder = tiny_model(seed=8)
    path = str(tmp_path / "src.ckpt")
    pretrain(train, None, backbone, decoder, MaskConfig(0.8, 2), TCRConfig(),
             OptimConfig(epochs=1, batch_size=8), seed=8,
             checkpoint_path=path, norm_stats=stats)

    target = generate_synthetic(SyntheticConfig(class_count=3, channels=2, length=32,
                                                samples_per_class=12, noise_std=0.8,
                                                seed=6, signature_seed=5))
    run, metrics = transfer_eval(path, target, PATCHER, ENCODER, SplitSpec(seed=0),
                                 OptimConfig(epochs=2, batch_size=16), seed=8,
                                 decoder_depth=1)
    assert 0.0 <= metrics.accuracy <= 1.0

    bad_channels = generate_synthetic(SyntheticConfig(class_count=3, channels=3, length=32,
                                                      samples_per_class=12, seed=6))
    with pytest.raises(ShapeError, match="channel"):
        transfer_eval(path, bad_channels,
                      PatcherConfig(first_kernel=8, first_stride=1,
                                    channel_widths=(4, 4, 4, 8), input_channels=3),
                      ENCODER, SplitSpec(seed=0), OptimConfig(epochs=1), seed=8,
                      decoder_depth=1)

    bad_length = generate_synthetic(SyntheticConfig(class_count=3, channels=2, length=64,
                                                    samples_per_class=12, seed=6))
    with pytest.raises(ShapeError, match="length"):
        transfer_eval(path, bad_length, PATCHER, ENCODER, SplitSpec(seed=0),
                      OptimConfig(epochs=1), seed=8, decoder_depth=1)


def test_transfer_same_dataset_reproduces_probe(tiny_splits, tmp_path):
    train, val, test, stats = tiny_splits
    backbone, decoder = tiny_model(seed=13)
    path = str(tmp_path / "same.ckpt")
    pretrain(train, None, backbone, decoder, MaskConfig(0.8, 2), TCRConfig(),
             OptimConfig(epochs=1, batch_size=8), seed=13,
             checkpoint_path=path, norm_stats=stats)
    raw = generate_synthetic(SyntheticConfig(class_count=3, channels=2, length=32,
                                             samples_per_class=12, noise_std=0.4, seed=5))
    opt = OptimConfig(epochs=2, batch_size=16)
    _, via_transfer = transfer_eval(path, raw, PATCHER, ENCODER, SplitSpec(seed=0),
                                    opt, seed=13, decoder_depth=1)
    backbone2, decoder2 = tiny_model(seed=13)
    load_model_state(backbone2, decoder2, load_checkpoint(path), include_head=False)
    _, direct = linear_probe(train, val, test, backbone2, opt, seed=13)
    assert via_transfer.accuracy == pytest.approx(direct.accuracy)
    assert via_transfer.macro_f1 == pytest.approx(direct.macro_f1)


def test_transfer_metrics_equal_a_random_init_then_loaded_model(tiny_splits, tmp_path,
                                                                monkeypatch):
    train, _, _, stats = tiny_splits
    path = str(tmp_path / "src.ckpt")
    pretrain(train, None, *tiny_model(seed=21), MaskConfig(0.8, 2), TCRConfig(),
             OptimConfig(epochs=1, batch_size=8), seed=21, checkpoint_path=path,
             norm_stats=stats)
    target = generate_synthetic(SyntheticConfig(class_count=3, channels=2, length=32,
                                                samples_per_class=12, seed=6))

    def transfer():
        _, m = transfer_eval(path, target, PATCHER, ENCODER, SplitSpec(seed=0),
                             OptimConfig(epochs=2, batch_size=16), seed=21, decoder_depth=1)
        return m.accuracy, m.macro_f1, m.per_class_f1.tolist(), m.confusion.tolist()

    draws = []
    trunc_normal = backbone.trunc_normal

    def record(rng, shape, std=0.02):
        draws.append(tuple(shape))
        return trunc_normal(rng, shape, std)

    monkeypatch.setattr(backbone, "trunc_normal", record)
    direct = transfer()
    assert draws == [(3, 8)]  # the probe's fresh head; the load itself draws nothing

    build_model_ = training.build_model
    monkeypatch.setattr(training, "build_model", lambda *args, seed=0, **kwargs: build_model_(
        *args, seed=12345 if seed is None else seed, **kwargs))
    assert transfer() == direct

    with pytest.raises(CheckpointMismatchError) as exc:
        transfer_eval(path, target, PATCHER, ENCODER, SplitSpec(seed=0), OptimConfig(epochs=1),
                      seed=21, decoder_depth=2)
    assert str(exc.value) == "checkpoint is missing tensor 'decoder.block1.norm1.scale'"
