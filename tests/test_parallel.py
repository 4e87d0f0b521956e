"""The two-process pretraining step: mask shards, the forked worker and the
one-thread BLAS pin."""

import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import mtslof
from mtslof import objective, ops, parallel
from mtslof.backbone import EncoderConfig, PatcherConfig
from mtslof.cli import main
from mtslof.data import SplitSpec, SyntheticConfig, generate_synthetic
from mtslof.errors import GraphConsumedError, NumericError, WorkerError
from mtslof.objective import MaskConfig, TCRConfig, lof_loss, masked_view_shards, sample_masks
from mtslof.tensor import Tensor, _run_backward, no_grad, parameter, use_dtype
from mtslof.training import OptimConfig, _pretrain_params, build_model, pretrain, prepare_splits

def blas_thread_count():
    blas = parallel._openblas_threads()
    return None if blas is None else blas[0]()


needs_worker = pytest.mark.skipif(not parallel.worker_can_run(),
                                  reason="no fork, fewer than 2 CPUs or no settable OpenBLAS")

# The acceptance recipe's architecture.
PATCHER = PatcherConfig(first_kernel=8, first_stride=1,
                        channel_widths=(32, 64, 128, 32), input_channels=2)
ENCODER = EncoderConfig(model_dim=32, heads=4, depth=2, ffn_multiplier=2, dropout=0.1)
MASKS = MaskConfig(ratio=0.8, count=20)


def acceptance_model(seed=3):
    return build_model(PATCHER, ENCODER, class_count=3, decoder_depth=2, seed=seed)


def loss_and_grads(backbone, decoder, x, shards, masks=None, grad=True, count=20):
    """Bytes of the loss, the metrics and every parameter gradient of one lof_loss call."""
    params = _pretrain_params(backbone, decoder)
    for p in params.values():
        p.grad = None
    maskcfg = MaskConfig(ratio=0.8, count=count)
    rng = np.random.default_rng(5)
    if grad:
        loss, metrics = lof_loss(Tensor(x), backbone, decoder, maskcfg, TCRConfig(), rng=rng,
                                 masks=masks, training=True, shards=shards)
        loss.backward()
    else:
        with no_grad():
            loss, metrics = lof_loss(Tensor(x), backbone, decoder, maskcfg, TCRConfig(),
                                     rng=rng, masks=masks, training=False, shards=shards)
    grads = {name: p.grad.tobytes() for name, p in params.items() if p.grad is not None}
    return loss.data.tobytes(), metrics, grads


def tiny_data(n=16):
    return np.random.default_rng(0).normal(size=(n, 2, 128)).astype(np.float32)


def live_children():
    return [p for p in multiprocessing.active_children() if p.is_alive()]


def small_pretrain(epochs=1, seed=2019):
    """A short pretraining run at the acceptance architecture."""
    ds = generate_synthetic(SyntheticConfig(samples_per_class=12, length=128))
    train, val, _, stats = prepare_splits(ds, SplitSpec())
    backbone, decoder = acceptance_model(seed)
    opt = OptimConfig(learning_rate=2e-3, epochs=epochs, batch_size=16)
    return pretrain(train, val, backbone, decoder, MaskConfig(0.8, 4), TCRConfig(), opt, seed)


# -- the engine --------------------------------------------------------------


def test_run_backward_replays_a_graph_from_an_upstream_gradient():
    with use_dtype(np.float64):
        x = parameter(np.array([1.0, -2.0, 3.0]))
        _run_backward((x * x).sum(), np.array(0.5))
        assert np.array_equal(x.grad, 0.5 * 2.0 * x.data)


# -- the shards ----------------------------------------------------------------


@pytest.mark.parametrize("count", [1, 3])
def test_in_process_shards_match_one_shard_of_all_masks(count):
    """Splitting the mask axis moves the loss by float rounding only."""
    with use_dtype(np.float64):
        backbone, decoder = build_model(PATCHER, ENCODER, 3, 2, seed=1)
        x = np.random.default_rng(1).normal(size=(4, 2, 128))
        masks = sample_masks(16, MaskConfig(0.8, count), np.random.default_rng(2), batch=4)
        with no_grad():
            loss, metrics = lof_loss(Tensor(x), backbone, decoder, MaskConfig(0.8, count),
                                     TCRConfig(), masks=masks, training=False)
            # One shard holding every mask, the whole loss.
            shard = objective.MaskedViewShard(backbone, decoder)
            tokens = backbone.tokens_with_pe(Tensor(x))
            zfn = ops.l2_normalize(ops.mean_pool(backbone.encode(tokens)))
            cfg = TCRConfig()
            whole, cos, rates = shard.forward(
                0, [p.data for p in objective._shard_params(backbone, decoder)], tokens.data,
                zfn.data, masks, None, False, False, (cfg.lam, cfg.tcr_weight, count, cfg.epsilon))
    assert float(loss.data) == pytest.approx(float(whole), rel=1e-12)
    assert metrics["tcr_mean"] == pytest.approx(float(rates.mean()), rel=1e-12)
    assert metrics["cos_mean"] == pytest.approx(float(cos.mean()), rel=1e-12)


def test_a_shard_backward_of_a_replaced_forward_is_rejected():
    backbone, decoder = acceptance_model()
    x = tiny_data(2)
    shards = [parallel.Local(objective.MaskedViewShard(backbone, decoder)) for _ in range(2)]
    first, _ = lof_loss(Tensor(x), backbone, decoder, MaskConfig(0.8, 2), TCRConfig(),
                        rng=np.random.default_rng(0), shards=shards)
    lof_loss(Tensor(x), backbone, decoder, MaskConfig(0.8, 2), TCRConfig(),
             rng=np.random.default_rng(0), shards=shards)
    with pytest.raises(GraphConsumedError, match="mask shard"):
        first.backward()


# -- the worker ------------------------------------------------------------------


@needs_worker
def test_worker_and_in_process_paths_are_bit_equal():
    """Float32 at the acceptance recipe: drawn and given masks, training and no_grad."""
    backbone, decoder = acceptance_model()
    x = tiny_data()
    given = sample_masks(16, MASKS, np.random.default_rng(9), batch=16)
    with masked_view_shards(backbone, decoder) as shards:
        assert isinstance(shards[1], parallel.Worker)
        for masks in (None, given):
            for grad in (True, False):
                far = loss_and_grads(backbone, decoder, x, shards, masks, grad)
                near = loss_and_grads(backbone, decoder, x, None, masks, grad)
                assert far == near, (masks is None, grad)
    assert not live_children()


@needs_worker
def test_pretrain_forks_one_worker_and_leaves_no_child(monkeypatch):
    made = []
    real = parallel.Worker

    def counted(handler):
        made.append(real(handler))
        return made[-1]

    monkeypatch.setattr(parallel, "Worker", counted)
    before = blas_thread_count()
    small_pretrain()
    assert len(made) == 1
    assert not live_children()
    assert blas_thread_count() == before


def test_no_worker_without_a_step(monkeypatch, tmp_path):
    def refuse(handler):
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(parallel, "Worker", refuse)
    small_pretrain(epochs=0)
    data, ckpt = str(tmp_path / "d.bin"), str(tmp_path / "c.ckpt")
    assert main(["gen-data", "--out", data, "--samples-per-class", "6", "--length", "32"]) == 0
    assert main(["pretrain", "--data", data, "--checkpoint", ckpt, "--out", str(tmp_path / "h.csv"),
                 "--epochs", "0", "--d-model", "8", "--heads", "2", "--depth", "1",
                 "--decoder-depth", "1", "--channel-widths", "4,4,4,8"]) == 0


def _fail_in_worker(exc_factory):
    """A _shard_loss that runs `exc_factory()` in any process but this one."""
    main_pid = os.getpid()
    real = objective._shard_loss

    def shard_loss(*args, **kwargs):
        if os.getpid() != main_pid:
            exc_factory()
        return real(*args, **kwargs)

    return shard_loss


@needs_worker
def test_an_error_in_shard_one_is_raised_with_its_type_epoch_and_step(monkeypatch):
    def boom():
        raise NumericError("shard one saw a non-finite value")

    monkeypatch.setattr(objective, "_shard_loss", _fail_in_worker(boom))
    with pytest.raises(NumericError, match="epoch 0 step 0: shard one saw a non-finite value"):
        small_pretrain()
    assert not live_children()


@needs_worker
def test_a_dead_worker_raises_naming_its_exit_code(monkeypatch):
    monkeypatch.setattr(objective, "_shard_loss", _fail_in_worker(lambda: os._exit(3)))
    with pytest.raises(WorkerError, match="exited with code 3"):
        small_pretrain()
    assert not live_children()


@needs_worker
def test_a_foreign_error_in_the_worker_is_a_worker_error():
    worker = parallel.Worker(lambda request: {}[request])
    try:
        worker.submit("missing")
        with pytest.raises(WorkerError, match="KeyError"):
            worker.result()
        worker.submit(None)
        with pytest.raises(WorkerError, match="KeyError"):
            worker.result()
    finally:
        worker.close()


@needs_worker
def test_a_worker_whose_pipe_is_closed_exits():
    worker = parallel.Worker(lambda request: request)
    worker.submit(7)
    assert worker.result() == 7
    worker._conn.close()
    worker._process.join(10)
    assert worker._process.exitcode == 0


@pytest.mark.parametrize("blocker", ["one cpu", "no fork", "no openblas"])
def test_no_worker_when_one_cannot_run(monkeypatch, blocker):
    if blocker == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif blocker == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(parallel, "_openblas_threads", lambda: None)
    assert not parallel.worker_can_run()
    with parallel.runner(lambda request: request + 1) as runner:
        assert isinstance(runner, parallel.Local)
        runner.submit(1)
        assert runner.result() == 2


@pytest.mark.skipif(blas_thread_count() is None, reason="no settable OpenBLAS")
def test_the_blas_pin_is_restored():
    before = blas_thread_count()
    with parallel.runner(lambda request: request):
        assert blas_thread_count() == 1
    assert blas_thread_count() == before


# -- one thread policy: bytes do not depend on the thread count -------------------

ARCH = ["--d-model", "32", "--heads", "4", "--depth", "2", "--decoder-depth", "2",
        "--ffn-multiplier", "2", "--channel-widths", "32,64,128,32", "--batch-size", "16",
        "--lr", "2e-3", "--num-masks", "20", "--seed", "2019"]


@pytest.mark.skipif(blas_thread_count() is None, reason="no settable OpenBLAS")
def test_pretrain_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    data = str(tmp_path / "d.bin")
    assert main(["gen-data", "--out", data, "--samples-per-class", "20", "--length", "128"]) == 0
    src = os.path.dirname(os.path.dirname(mtslof.__file__))
    blobs = []
    for threads in ("1", "2"):
        ckpt, hist = str(tmp_path / f"c{threads}.ckpt"), str(tmp_path / f"h{threads}.csv")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "mtslof", "pretrain", "--data", data,
                               "--checkpoint", ckpt, "--out", hist, "--epochs", "2", *ARCH],
                              capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        blobs.append((open(ckpt, "rb").read(), open(hist, "rb").read()))
    assert blobs[0] == blobs[1]
