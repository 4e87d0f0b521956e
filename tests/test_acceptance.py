"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Training-based criteria run a compact desk-scale model (d=32, two encoder
and two decoder blocks) with the documented objective defaults (lambda=100,
mask ratio 0.8, 20 masks, epsilon^2=0.2); the learning rate is raised to
2e-3 and the batch lowered to 16 so the small model trains inside the
stated wall-clock budgets.
"""

import functools
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from conftest import assert_grads_close
from mtslof import ops
from mtslof.backbone import EncoderConfig, PatcherConfig, positional_encoding
from mtslof.checkpoint import load_checkpoint
from mtslof.cli import main as cli_main
from mtslof.data import SplitSpec, SyntheticConfig, generate_synthetic, save_dataset
from mtslof.objective import (
    MaskConfig,
    TCRConfig,
    encode_visible,
    lof_loss,
    sample_masks,
    tcr_loss,
)
from mtslof.tensor import Tensor, no_grad, parameter, use_dtype
from mtslof.training import (
    OptimConfig,
    build_model,
    finetune,
    linear_probe,
    load_model_state,
    prepare_splits,
    pretrain,
    _pretrain_params,
)

# Every criterion trains or sweeps for seconds to minutes; `-m "not slow"`
# leaves them out of a quick run.
pytestmark = pytest.mark.slow

SEEDS = (2019, 2020, 2021, 2022, 2023)

ACC_PATCHER = PatcherConfig(first_kernel=8, first_stride=1,
                            channel_widths=(32, 64, 128, 32), input_channels=2)
ACC_ENCODER = EncoderConfig(model_dim=32, heads=4, depth=2, ffn_multiplier=2, dropout=0.1)
ACC_DECODER_DEPTH = 2
ACC_MASK = MaskConfig(ratio=0.8, count=20)
ACC_TCR = TCRConfig()  # lambda=100, epsilon^2=0.2
ACC_OPT = OptimConfig(learning_rate=2e-3, epochs=15, batch_size=16)
PROBE_OPT = OptimConfig(epochs=60, batch_size=64)


def report(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {number:02d} FAIL  {description}")
                raise
            print(f"\ncriterion {number:02d} PASS  {description}")

        return wrapper

    return decorate


def svd_energy_ratio(matrix: np.ndarray) -> float:
    s = np.linalg.svd(matrix, compute_uv=False)
    return float(s[0] ** 2 / (s ** 2).sum())


def build_acc_model(seed: int):
    return build_model(ACC_PATCHER, ACC_ENCODER, class_count=3,
                       decoder_depth=ACC_DECODER_DEPTH, seed=seed)


# -- shared artifacts -----------------------------------------------------


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    ds = generate_synthetic(SyntheticConfig())           # the default dataset
    data_path = str(root / "default.bin")
    save_dataset(ds, data_path)
    train, val, test, stats = prepare_splits(ds, SplitSpec())
    return dict(root=root, dataset=ds, data_path=data_path,
                train=train, val=val, test=test, stats=stats)


@pytest.fixture(scope="module")
def ssl_runs(artifacts):
    """Full-objective pretraining on the default dataset for all five seeds."""
    runs = {}
    for seed in SEEDS:
        started = time.time()
        backbone, decoder = build_acc_model(seed)
        path = str(artifacts["root"] / f"ssl_{seed}.ckpt")
        pretrain(artifacts["train"], None, backbone, decoder, ACC_MASK, ACC_TCR,
                 ACC_OPT, seed, checkpoint_path=path, norm_stats=artifacts["stats"])
        runs[seed] = dict(backbone=backbone, decoder=decoder, path=path,
                          elapsed=time.time() - started)
    return runs


# A noisier domain where label budget stays the bottleneck, so the
# semi-supervised and ablation trends have headroom to show.
HARD_DATA = SyntheticConfig(noise_std=2.5, phase_jitter=0.5, seed=0)


@pytest.fixture(scope="module")
def hard_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("hard")
    train, val, test, stats = prepare_splits(generate_synthetic(HARD_DATA), SplitSpec())
    return dict(root=root, train=train, val=val, test=test, stats=stats)


@pytest.fixture(scope="module")
def hard_ssl_runs(hard_artifacts):
    """Full-objective pretraining on the hard dataset, three seeds."""
    runs = {}
    for seed in (2019, 2020, 2021):
        backbone, decoder = build_acc_model(seed)
        path = str(hard_artifacts["root"] / f"hard_{seed}.ckpt")
        pretrain(hard_artifacts["train"], None, backbone, decoder, ACC_MASK, ACC_TCR,
                 ACC_OPT, seed, checkpoint_path=path, norm_stats=hard_artifacts["stats"])
        runs[seed] = dict(backbone=backbone, path=path)
    return runs


def export_embeddings_csv(ckpt_path: str, data_path: str, out_path: str) -> np.ndarray:
    code = cli_main([
        "export-embeddings", "--data", data_path, "--checkpoint", ckpt_path,
        "--out", out_path, "--seed", "2019",
        "--d-model", "32", "--heads", "4", "--depth", "2", "--decoder-depth", "2",
        "--ffn-multiplier", "2", "--channel-widths", "32,64,128,32",
    ])
    assert code == 0
    rows = [line.split(",") for line in open(out_path).read().splitlines()[1:]]
    return np.array([[float(v) for v in row[2:]] for row in rows])


# -- criteria ---------------------------------------------------------------


@report(1, "gradient fidelity: unit ops at 1e-4, full objective at 1e-3, in 64-bit")
def test_criterion_1_gradient_fidelity():
    started = time.time()
    rng = np.random.default_rng(99)
    step = 1e-4

    def fd_check(build_loss, tensors, rtol, label):
        loss = build_loss()
        loss.backward()
        grads = {name: t.grad.copy() for name, t in tensors.items()}
        for name, t in tensors.items():
            flat = t.data.reshape(-1)
            fd = np.zeros_like(flat)
            with no_grad():
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    fp = float(build_loss().data)
                    flat[i] = orig - step
                    fm = float(build_loss().data)
                    flat[i] = orig
                    fd[i] = (fp - fm) / (2 * step)
            assert_grads_close(grads[name].reshape(-1), fd, rtol=rtol,
                               atol=1e-7, label=f"{label}:{name}")

    with use_dtype(np.float64):
        # unit operations at 1e-4 relative
        a = parameter(rng.normal(size=(3, 4)))
        b = parameter(rng.normal(size=(4, 2)))
        r = Tensor(rng.normal(size=(3, 2)))
        fd_check(lambda: ((a @ b) * r).sum(), {"a": a, "b": b}, 1e-4, "matmul")

        x = parameter(rng.normal(size=(2, 2, 9)))
        w = parameter(rng.normal(size=(3, 2, 3)))
        bias = parameter(rng.normal(size=3))
        rc = Tensor(rng.normal(size=(2, 3, 5)))
        fd_check(lambda: (ops.conv1d(x, w, bias, stride=2, padding=1) * rc).sum(),
                 {"x": x, "w": w, "bias": bias}, 1e-4, "conv1d")

        xb = parameter(rng.normal(size=(3, 2, 4)))
        gamma = parameter(rng.uniform(0.5, 1.5, 2))
        beta = parameter(rng.normal(size=2))
        rb = Tensor(rng.normal(size=(3, 2, 4)))
        fd_check(lambda: (ops.batchnorm1d(xb, gamma, beta, np.zeros(2), np.ones(2),
                                          0.1, 1e-5, True) * rb).sum(),
                 {"x": xb, "gamma": gamma, "beta": beta}, 1e-4, "batchnorm1d")

        xg = parameter(rng.normal(size=(6,)))
        rg = Tensor(rng.normal(size=(6,)))
        fd_check(lambda: (ops.gelu(xg) * rg).sum(), {"x": xg}, 1e-4, "gelu")

        xs = parameter(rng.normal(size=(3, 5)))
        rs = Tensor(rng.normal(size=(3, 5)))
        fd_check(lambda: (ops.softmax(xs) * rs).sum(), {"x": xs}, 1e-4, "softmax")

        xl = parameter(rng.normal(size=(4, 8)))
        scale = parameter(rng.uniform(0.5, 1.5, 8))
        shift = parameter(rng.normal(size=8))
        rl = Tensor(rng.normal(size=(4, 8)))
        fd_check(lambda: (ops.layer_norm(xl, scale, shift) * rl).sum(),
                 {"x": xl, "scale": scale, "shift": shift}, 1e-4, "layer_norm")

        xn = parameter(rng.normal(size=(3, 6)))
        rn = Tensor(rng.normal(size=(3, 6)))
        fd_check(lambda: (ops.l2_normalize(xn) * rn).sum(), {"x": xn}, 1e-4, "l2_normalize")

        v = parameter(rng.normal(size=(4, 5)))
        from mtslof.tensor import transpose
        fd_check(lambda: ops.logdet_psd(transpose(v) @ v * 0.9
                                        + Tensor(np.eye(5))),
                 {"v": v}, 1e-4, "logdet_psd")

        xm = parameter(rng.normal(size=(4, 3)))
        rm = Tensor(rng.normal(size=(3,)))
        fd_check(lambda: (ops.mean_pool(xm) * rm).sum(), {"x": xm}, 1e-4, "mean_pool")

        # full objective on the pinned 2-sample / p=4 / d=8 / N=2 configuration
        patcher = PatcherConfig(first_kernel=8, first_stride=1,
                                channel_widths=(4, 4, 4, 8), input_channels=2)
        encoder = EncoderConfig(model_dim=8, heads=2, depth=1,
                                ffn_multiplier=2, dropout=0.0)
        backbone, decoder = build_model(patcher, encoder, class_count=3,
                                        decoder_depth=2, seed=1)
        xfull = Tensor(rng.normal(size=(2, 2, 32)))
        masks = [sample_masks(4, MaskConfig(0.8, 2, rng_seed=j)) for j in range(2)]

        def full_loss():
            loss, _ = lof_loss(xfull, backbone, decoder, MaskConfig(0.8, 2),
                               TCRConfig(), masks=masks, training=True)
            return loss

        params = _pretrain_params(backbone, decoder)
        loss = full_loss()
        loss.backward()
        grads = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                 for name, p in params.items()}
        with no_grad():
            for name, p in params.items():
                flat = p.data.reshape(-1)
                fd = np.zeros_like(flat)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    fp = float(full_loss().data)
                    flat[i] = orig - step
                    fm = float(full_loss().data)
                    flat[i] = orig
                    fd[i] = (fp - fm) / (2 * step)
                assert_grads_close(grads[name].reshape(-1), fd, rtol=1e-3, atol=1e-6,
                                   label=f"lof:{name}")
    elapsed = time.time() - started
    assert elapsed < 60.0, f"gradient fidelity took {elapsed:.1f}s, budget is 60s"


@report(2, "TCR closed forms at (b, d, eps^2) = (8, 16, 0.2) within 1e-6")
def test_criterion_2_tcr_closed_forms():
    b, d, eps2 = 8, 16, 0.2
    cfg = TCRConfig(epsilon=math.sqrt(eps2))
    with use_dtype(np.float64):
        u = np.zeros(d)
        u[2] = 1.0
        collapsed = float(tcr_loss(Tensor(np.tile(u, (b, 1))), cfg).data)
        orthonormal = float(tcr_loss(Tensor(np.eye(d)[:b]), cfg).data)
    expect_collapsed = 0.5 * math.log(1.0 + d / eps2)
    expect_orth = (b / 2.0) * math.log(1.0 + d / (b * eps2))
    assert abs(collapsed - expect_collapsed) < 1e-6
    assert abs(orthonormal - expect_orth) < 1e-6
    assert orthonormal > collapsed


@report(3, "masking contract over 1000 sampled MaskSets (p=16, ratio 0.8, N=20)")
def test_criterion_3_masking_contract():
    p, n = 16, 20
    cfg = MaskConfig(ratio=0.8, count=n)
    rng = np.random.default_rng(7)
    hide_counts = np.zeros(p, dtype=np.int64)
    total_masks = 0
    for _ in range(1000):
        ms = sample_masks(p, cfg, rng)
        assert np.all(ms.masks.sum(axis=1) == 13)
        assert len({tuple(row) for row in ms.masks}) == n
        hide_counts += ms.masks.sum(axis=0)
        total_masks += n
    freq = hide_counts / total_masks
    assert np.all(np.abs(freq - 13.0 / 16.0) <= 0.02), freq


@report(4, "positional encoding matches the closed form within 1e-7")
def test_criterion_4_positional_encoding():
    table = positional_encoding(40, 16, dtype=np.float64)
    assert np.allclose(table[0], np.array([0.0, 1.0] * 8), atol=1e-7)
    spots = [(1, 0), (1, 1), (7, 4), (13, 9), (39, 15), (2, 2)]
    for i, j in spots:
        angle = i / 10000.0 ** (2 * (j // 2) / 16.0)
        expect = math.sin(angle) if j % 2 == 0 else math.cos(angle)
        assert abs(table[i, j] - expect) <= 1e-7, (i, j)


@report(5, "anti-collapse: full objective SVD ratio < 0.7, no-TCR ablation > 0.9")
def test_criterion_5_anti_collapse(artifacts, ssl_runs):
    full_elapsed = ssl_runs[2019]["elapsed"]
    assert full_elapsed <= 600.0, f"full-objective run took {full_elapsed:.0f}s"
    emb_full = export_embeddings_csv(ssl_runs[2019]["path"], artifacts["data_path"],
                                     str(artifacts["root"] / "emb_full.csv"))
    ratio_full = svd_energy_ratio(emb_full)

    started = time.time()
    backbone, decoder = build_acc_model(2019)
    ablation_path = str(artifacts["root"] / "ssl_no_tcr.ckpt")
    pretrain(artifacts["train"], None, backbone, decoder, ACC_MASK,
             TCRConfig(tcr_weight=0.0), ACC_OPT, 2019,
             checkpoint_path=ablation_path, norm_stats=artifacts["stats"])
    ablation_elapsed = time.time() - started
    assert ablation_elapsed <= 600.0, f"ablation run took {ablation_elapsed:.0f}s"
    emb_ablate = export_embeddings_csv(ablation_path, artifacts["data_path"],
                                       str(artifacts["root"] / "emb_no_tcr.csv"))
    ratio_ablate = svd_energy_ratio(emb_ablate)

    print(f"\n  svd energy ratio: full objective {ratio_full:.3f}, "
          f"no-TCR ablation {ratio_ablate:.3f}")
    assert ratio_full < 0.70
    assert ratio_ablate > 0.90


@report(6, "probe accuracy >= 0.90 and beats random-init probe by >= 10 points")
def test_criterion_6_probe_quality(artifacts, ssl_runs):
    started = time.time()
    total_pretrain = sum(run["elapsed"] for run in ssl_runs.values())
    ssl_accs, rand_accs = [], []
    for seed in SEEDS:
        _, m_ssl = linear_probe(artifacts["train"], artifacts["val"], artifacts["test"],
                                ssl_runs[seed]["backbone"], PROBE_OPT, seed)
        rand_backbone, _ = build_acc_model(seed)
        _, m_rand = linear_probe(artifacts["train"], artifacts["val"], artifacts["test"],
                                 rand_backbone, PROBE_OPT, seed)
        ssl_accs.append(m_ssl.accuracy)
        rand_accs.append(m_rand.accuracy)
    mean_ssl = float(np.mean(ssl_accs))
    mean_rand = float(np.mean(rand_accs))
    elapsed = total_pretrain + (time.time() - started)
    print(f"\n  ssl probe {mean_ssl:.3f} vs random-init {mean_rand:.3f} "
          f"(elapsed {elapsed:.0f}s)")
    assert mean_ssl >= 0.90
    assert mean_ssl - mean_rand >= 0.10
    assert elapsed <= 1800.0, f"criterion 6 took {elapsed:.0f}s, budget 1800s"


@report(7, "semi-supervised macro-F1 trend: Spearman >= 0.8 over label fractions")
def test_criterion_7_semi_supervised_trend(hard_artifacts, hard_ssl_runs):
    fractions = [0.01, 0.05, 0.1, 0.5, 1.0]
    loaded = load_checkpoint(hard_ssl_runs[2019]["path"])
    ft_opt = OptimConfig(learning_rate=2e-3, epochs=8, batch_size=16)
    means = []
    for frac in fractions:
        f1s = []
        for seed in SEEDS:
            backbone, decoder = build_acc_model(seed)
            load_model_state(backbone, decoder, loaded, include_head=False)
            _, metrics = finetune(hard_artifacts["train"], None, hard_artifacts["test"],
                                  backbone, frac, ft_opt, seed)
            f1s.append(metrics.macro_f1)
        means.append(float(np.mean(f1s)))
    rho = float(spearmanr(fractions, means).statistic)
    print(f"\n  fraction means {['%.3f' % m for m in means]}, spearman {rho:.3f}")
    assert rho >= 0.8


@report(8, "ablation trends: N=20 >= N=1 and ratio 0.8 >= ratio 0.5 (macro-F1)")
def test_criterion_8_ablation_trends(hard_artifacts, hard_ssl_runs):
    # The (N=20, ratio 0.8) grid point reuses the shared full-objective runs;
    # the other two points are trained here with the same recipe.
    train, val, test = hard_artifacts["train"], hard_artifacts["val"], hard_artifacts["test"]
    seeds = (2019, 2020, 2021)
    results = {}
    f1s = []
    for seed in seeds:
        _, metrics = linear_probe(train, val, test, hard_ssl_runs[seed]["backbone"],
                                  PROBE_OPT, seed)
        f1s.append(metrics.macro_f1)
    results[(20, 0.8)] = float(np.mean(f1s))
    for n_masks, ratio in ((1, 0.8), (20, 0.5)):
        f1s = []
        for seed in seeds:
            backbone, decoder = build_acc_model(seed)
            pretrain(train, None, backbone, decoder, MaskConfig(ratio, n_masks),
                     ACC_TCR, ACC_OPT, seed)
            _, metrics = linear_probe(train, val, test, backbone, PROBE_OPT, seed)
            f1s.append(metrics.macro_f1)
        results[(n_masks, ratio)] = float(np.mean(f1s))
    print(f"\n  macro-F1 means: {results}")
    assert results[(20, 0.8)] >= results[(1, 0.8)]
    assert results[(20, 0.8)] >= results[(20, 0.5)]


@report(9, "transfer between synthetic domains beats chance by >= 20 points both ways")
def test_criterion_9_transfer(tmp_path_factory):
    from mtslof.training import transfer_eval

    root = tmp_path_factory.mktemp("transfer")
    domain_a = generate_synthetic(SyntheticConfig(seed=0, signature_seed=42,
                                                  noise_std=0.5, phase_jitter=0.1))
    domain_b = generate_synthetic(SyntheticConfig(seed=1, signature_seed=42,
                                                  noise_std=1.0, phase_jitter=0.4))
    chance = 1.0 / 3.0
    for src, tgt, name in ((domain_a, domain_b, "a_to_b"), (domain_b, domain_a, "b_to_a")):
        train, val, test, stats = prepare_splits(src, SplitSpec())
        backbone, decoder = build_acc_model(2019)
        path = str(root / f"{name}.ckpt")
        pretrain(train, None, backbone, decoder, ACC_MASK, ACC_TCR, ACC_OPT, 2019,
                 checkpoint_path=path, norm_stats=stats)
        _, metrics = transfer_eval(path, tgt, ACC_PATCHER, ACC_ENCODER, SplitSpec(),
                                   PROBE_OPT, 2019, decoder_depth=ACC_DECODER_DEPTH)
        print(f"\n  {name}: accuracy {metrics.accuracy:.3f}")
        assert metrics.accuracy >= chance + 0.20, name


@report(10, "determinism: repeated command produces byte-identical metrics CSVs")
def test_criterion_10_determinism(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    data = str(root / "toy.bin")
    assert cli_main(["gen-data", "--out", data, "--samples-per-class", "12",
                     "--length", "32", "--noise-std", "0.3"]) == 0
    tiny = ["--d-model", "8", "--heads", "2", "--depth", "1", "--decoder-depth", "1",
            "--ffn-multiplier", "2", "--channel-widths", "4,4,4,8",
            "--num-masks", "2", "--batch-size", "8", "--seed", "2019"]
    blobs = []
    for tag in ("one", "two"):
        ckpt = str(root / f"{tag}.ckpt")
        csv = str(root / f"{tag}.csv")
        assert cli_main(["pretrain", "--data", data, "--checkpoint", ckpt,
                         "--out", csv, "--epochs", "2", *tiny]) == 0
        probe_csv = str(root / f"{tag}_probe.csv")
        assert cli_main(["probe", "--data", data, "--checkpoint", ckpt,
                         "--out", probe_csv, "--epochs", "2", *tiny]) == 0
        blobs.append((open(csv).read(), open(probe_csv).read(),
                      open(ckpt, "rb").read()))
    assert blobs[0] == blobs[1]


@report(11, "degenerate path: all-visible mask equals the plain encoder path")
def test_criterion_11_degenerate_path(rng):
    backbone, decoder = build_model(
        PatcherConfig(first_kernel=8, first_stride=1,
                      channel_widths=(4, 4, 4, 8), input_channels=2),
        EncoderConfig(model_dim=8, heads=2, depth=2, ffn_multiplier=2, dropout=0.0),
        class_count=3, decoder_depth=1, seed=5)
    for _ in range(3):
        x = Tensor(rng.normal(size=(2, 32)).astype(np.float32))
        mask = np.zeros(4, dtype=bool)
        with no_grad():
            tokens = backbone.tokens_with_pe(x)
            masked_path = ops.mean_pool(encode_visible(tokens, mask, backbone))
            plain_path = ops.mean_pool(backbone.encode(tokens))
        assert np.allclose(masked_path.data, plain_path.data, atol=1e-6)
