"""The two-process pretraining step and representation pass: mask shards,
row halves, the forked worker and the one-thread BLAS pin."""

import contextlib
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import mtslof
from mtslof import backbone as backbone_module
from mtslof import objective, ops, parallel
from mtslof.backbone import Backbone, EncoderConfig, PatcherConfig
from mtslof.cli import main
from mtslof.data import Dataset, SplitSpec, SyntheticConfig, generate_synthetic, save_dataset
from mtslof.errors import GraphConsumedError, NumericError, WorkerError
from mtslof.objective import MaskConfig, TCRConfig, lof_loss, masked_view_shards, sample_masks
from mtslof.tensor import Tensor, _run_backward, no_grad, parameter, use_dtype
from mtslof.training import (
    OptimConfig,
    _pretrain_params,
    build_model,
    history_csv,
    model_state,
    pretrain,
    prepare_splits,
)

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


def counted_workers(monkeypatch) -> list:
    """Every `parallel.Worker` forked from now on, in a list."""
    made = []
    real = parallel.Worker

    def counted(handler):
        made.append(real(handler))
        return made[-1]

    monkeypatch.setattr(parallel, "Worker", counted)
    return made


def small_pretrain(epochs=1, seed=2019):
    """A short pretraining run at the acceptance architecture, and its trained model."""
    ds = generate_synthetic(SyntheticConfig(samples_per_class=12, length=128))
    train, val, _, stats = prepare_splits(ds, SplitSpec())
    backbone, decoder = acceptance_model(seed)
    opt = OptimConfig(learning_rate=2e-3, epochs=epochs, batch_size=16)
    run = pretrain(train, val, backbone, decoder, MaskConfig(0.8, 4), TCRConfig(), opt, seed)
    return run, backbone, decoder


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
                0, tokens.data, zfn.data, masks, None, False, False,
                (cfg.lam, cfg.tcr_weight, count, cfg.epsilon))
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
def test_the_worker_reads_each_steps_parameters(monkeypatch):
    """A worker that kept its fork-time parameters would train differently."""
    sides = []
    for can_run in (True, False):
        monkeypatch.setattr(parallel, "worker_can_run", lambda: can_run)
        made = counted_workers(monkeypatch)
        run, backbone, decoder = small_pretrain(epochs=2)
        assert len(made) == int(can_run)
        state = {name: arr.tobytes() for name, arr in model_state(backbone, decoder).items()}
        sides.append((history_csv(run, 3), state))
    assert sides[0] == sides[1]


@needs_worker
def test_a_shard_replies_with_its_own_gradients_only():
    """Gradients a parameter already holds stay out of the shards' replies."""
    x = tiny_data(4)
    grads = []
    for worker in (True, False):
        backbone, decoder = acceptance_model()
        params = _pretrain_params(backbone, decoder)
        for p in params.values():
            p.grad = np.full_like(p.data, 0.25)
        # Held before the fork, so the worker's copy of the model holds them too.
        with masked_view_shards(backbone, decoder) if worker else contextlib.nullcontext() as shards:
            loss, _ = lof_loss(Tensor(x), backbone, decoder, MaskConfig(0.8, 4), TCRConfig(),
                               rng=np.random.default_rng(5), shards=shards)
            loss.backward()
        grads.append({name: p.grad.tobytes() for name, p in params.items()})
    assert grads[0] == grads[1]


@needs_worker
def test_pretrain_forks_one_worker_and_leaves_no_child(monkeypatch):
    made = counted_workers(monkeypatch)
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


def _fail_in_worker(real, exc_factory):
    """`real`, wrapped to run `exc_factory()` first in any process but this one."""
    main_pid = os.getpid()

    def wrapped(*args, **kwargs):
        if os.getpid() != main_pid:
            exc_factory()
        return real(*args, **kwargs)

    return wrapped


@needs_worker
def test_an_error_in_shard_one_is_raised_with_its_type_epoch_and_step(monkeypatch):
    def boom():
        raise NumericError("shard one saw a non-finite value")

    monkeypatch.setattr(objective, "_shard_loss", _fail_in_worker(objective._shard_loss, boom))
    with pytest.raises(NumericError, match="epoch 0 step 0: shard one saw a non-finite value"):
        small_pretrain()
    assert not live_children()


@needs_worker
def test_a_dead_worker_raises_naming_its_exit_code(monkeypatch):
    monkeypatch.setattr(objective, "_shard_loss",
                        _fail_in_worker(objective._shard_loss, lambda: os._exit(3)))
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


# -- the two-process representation pass -------------------------------------------

SPLIT = backbone_module._SPLIT_MIN_BATCH
TINY = ["--d-model", "8", "--heads", "2", "--depth", "1", "--decoder-depth", "1",
        "--ffn-multiplier", "2", "--channel-widths", "4,4,4,8", "--seed", "3"]
SIZES = [1, SPLIT - 1, SPLIT, 257, 258]


@pytest.fixture(scope="module")
def rep_files(tmp_path_factory):
    """Datasets of every size in SIZES and of 660 samples (splits of 396/132/132),
    and a random-init checkpoint of the tiny architecture."""
    root = tmp_path_factory.mktemp("rep")
    ds = generate_synthetic(SyntheticConfig(samples_per_class=220, length=32, seed=5))
    files = {}
    for n in SIZES + [660]:
        files[n] = str(root / f"d{n}.bin")
        save_dataset(Dataset(ds.samples[:n], ds.labels[:n], 3), files[n])
    files["ckpt"] = str(root / "init.ckpt")
    assert main(["pretrain", "--data", files[660], "--checkpoint", files["ckpt"],
                 "--out", str(root / "init.csv"), "--epochs", "0", *TINY]) == 0
    return files


def tiny_backbone():
    return Backbone(PatcherConfig(channel_widths=(4, 4, 4, 8)),
                    EncoderConfig(model_dim=8, heads=2, depth=1, ffn_multiplier=2), 3, seed=4)


@pytest.mark.parametrize("b", SIZES)
def test_split_rows_equal_the_sample_alone_with_or_without_a_worker(monkeypatch, b):
    forks_expected = int(b >= SPLIT and parallel.worker_can_run())
    made = counted_workers(monkeypatch)
    threads = []
    real_pool = Backbone._pool

    def pool(self, *args):
        threads.append(blas_thread_count())
        return real_pool(self, *args)

    monkeypatch.setattr(Backbone, "_pool", pool)
    backbone = tiny_backbone()
    x = np.random.default_rng(b).normal(size=(b, 2, 32)).astype(np.float32)
    before = blas_thread_count()
    with no_grad():
        split = backbone.represent(Tensor(x)).data
        alone = np.stack([backbone.represent(Tensor(row)).data for row in x])
        monkeypatch.setattr(parallel, "worker_can_run", lambda: False)
        local = backbone.represent(Tensor(x)).data
    assert split.dtype == np.float32
    assert split.tobytes() == alone.tobytes() == local.tobytes()
    assert len(made) == forks_expected
    assert not live_children()
    # Single samples and both halves pool under the one-thread pin.
    if before is not None:
        assert set(threads) == {1} and blas_thread_count() == before


def test_a_graph_or_training_pass_never_forks(monkeypatch):
    made = counted_workers(monkeypatch)
    backbone = tiny_backbone()
    x = Tensor(np.random.default_rng(0).normal(size=(SPLIT, 2, 32)).astype(np.float32))
    backbone.represent(x).sum().backward()
    with no_grad():
        backbone.represent(x, training=True, rng=np.random.default_rng(0))
    assert made == []


def _command_outputs(argv, out_dir, capsys) -> dict:
    """Exit code, stdout and the bytes of every file a command wrote to `out_dir`."""
    code = main(argv)
    files = {name: open(os.path.join(out_dir, name), "rb").read()
             for name in sorted(os.listdir(out_dir))}
    return {"code": code, "stdout": capsys.readouterr().out, "files": files}


def _with_and_without_a_worker(argv_for, tmp_path, monkeypatch, capsys):
    """The outputs of one command run with a worker, when one can run, and
    in one process; the workers forked in the first run."""
    made = counted_workers(monkeypatch)
    runs = []
    for side in ("worker", "local"):
        if side == "local":
            forked = len(made)
            monkeypatch.setattr(parallel, "worker_can_run", lambda: False)
        out_dir = tmp_path / side
        out_dir.mkdir()
        runs.append(_command_outputs(argv_for(str(out_dir)), str(out_dir), capsys))
        assert not live_children()
    assert runs[0]["code"] == 0 and runs[0] == runs[1]
    assert len(made) == forked
    return forked


@pytest.mark.parametrize("n", SIZES)
def test_export_embeddings_bytes_equal_with_or_without_a_worker(rep_files, tmp_path,
                                                               monkeypatch, capsys, n):
    can_fork = parallel.worker_can_run()
    forked = _with_and_without_a_worker(
        lambda out: ["export-embeddings", "--data", rep_files[n], "--checkpoint",
                     rep_files["ckpt"], "--out", os.path.join(out, "e.csv"), *TINY],
        tmp_path, monkeypatch, capsys)
    # Chunks of 256 rows; a 257- or 258-row export forks for its first chunk only.
    assert forked == int(can_fork and n >= SPLIT)


@pytest.mark.parametrize("command,forks", [
    (["eval", "--split", "train"], 2),         # 396 training rows: chunks of 256 and 140
    (["probe", "--epochs", "2"], 4),           # train (two chunks), val and test
    (["finetune", "--epochs", "1"], 2),        # val after the epoch, then test
])
def test_eval_probe_finetune_equal_with_or_without_a_worker(rep_files, tmp_path, monkeypatch,
                                                            capsys, command, forks):
    can_fork = parallel.worker_can_run()

    def argv(out):
        extra = [] if command[0] == "eval" else ["--save-checkpoint", os.path.join(out, "s.ckpt")]
        return [*command, "--data", rep_files[660], "--checkpoint", rep_files["ckpt"],
                "--out", os.path.join(out, "o.csv"), *extra, *TINY]

    forked = _with_and_without_a_worker(argv, tmp_path, monkeypatch, capsys)
    assert forked == (forks if can_fork else 0)


FAILURES = {"raise": (NumericError, "the second half saw a non-finite value"),
            "exit": (WorkerError, "the worker process exited with code 3")}


def _fail_second_half(monkeypatch, failure):
    """Make the worker's half raise a NumericError or exit with code 3."""
    def fail():
        if failure == "exit":
            os._exit(3)
        raise NumericError(FAILURES["raise"][1])

    monkeypatch.setattr(Backbone, "_pool", _fail_in_worker(Backbone._pool, fail))


@needs_worker
@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_a_failed_worker_half_is_raised_typed(monkeypatch, failure):
    _fail_second_half(monkeypatch, failure)
    error, message = FAILURES[failure]
    x = Tensor(np.zeros((SPLIT, 2, 32), dtype=np.float32))
    with no_grad(), pytest.raises(error, match=message):
        tiny_backbone().represent(x)
    assert not live_children()


@needs_worker
@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_a_failed_worker_half_fails_the_command_and_writes_nothing(rep_files, tmp_path,
                                                                   monkeypatch, capsys,
                                                                   failure):
    _fail_second_half(monkeypatch, failure)
    out = tmp_path / "e.csv"
    assert main(["export-embeddings", "--data", rep_files[258], "--checkpoint",
                 rep_files["ckpt"], "--out", str(out), *TINY]) == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err == f"error: {FAILURES[failure][1]}"
    assert not out.exists()
    assert not live_children()


@pytest.mark.skipif(blas_thread_count() is None, reason="no settable OpenBLAS")
def test_export_embeddings_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    data, ckpt = str(tmp_path / "d.bin"), str(tmp_path / "c.ckpt")
    assert main(["gen-data", "--out", data, "--samples-per-class", "86", "--length", "128"]) == 0
    assert main(["pretrain", "--data", data, "--checkpoint", ckpt, "--out",
                 str(tmp_path / "h.csv"), "--epochs", "0", *ARCH]) == 0
    src = os.path.dirname(os.path.dirname(mtslof.__file__))
    blobs = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"e{threads}.csv")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "mtslof", "export-embeddings", "--data", data,
                               "--checkpoint", ckpt, "--out", out, *ARCH],
                              capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        blobs.append(open(out, "rb").read())
    assert blobs[0] == blobs[1]
