"""End-to-end CLI tests running main() in process."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtslof
from mtslof.checkpoint import load_checkpoint, save_checkpoint
from mtslof.cli import build_parser, main, resolve_config
from mtslof.errors import MtslofError
from mtslof.data import load_dataset

TINY = ["--d-model", "8", "--heads", "2", "--depth", "1", "--decoder-depth", "1",
        "--ffn-multiplier", "2", "--channel-widths", "4,4,4,8", "--num-masks", "2",
        "--batch-size", "16", "--dropout", "0.0"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "toy.bin")
    code = main(["gen-data", "--out", data, "--samples-per-class", "12",
                 "--length", "32", "--noise-std", "0.3"])
    assert code == 0
    ckpt = str(root / "pre.ckpt")
    code = main(["pretrain", "--data", data, "--checkpoint", ckpt,
                 "--out", str(root / "pre.csv"), "--seed", "2019", "--epochs", "1",
                 *TINY])
    assert code == 0
    return {"root": root, "data": data, "ckpt": ckpt}


def test_gen_data_defaults_and_summary(tmp_path, capsys):
    out = str(tmp_path / "full.bin")
    assert main(["gen-data", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "n=600 m=2 t=128 c=3" in printed.splitlines()[-1]
    ds = load_dataset(out)
    assert ds.n == 600 and ds.class_count == 3


def test_gen_data_deterministic(tmp_path):
    a = str(tmp_path / "a.bin")
    b = str(tmp_path / "b.bin")
    main(["gen-data", "--out", a, "--samples-per-class", "5", "--data-seed", "3"])
    main(["gen-data", "--out", b, "--samples-per-class", "5", "--data-seed", "3"])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_gen_data_seed_flag_repeated_gives_identical_files(tmp_path):
    a = str(tmp_path / "sa.bin")
    b = str(tmp_path / "sb.bin")
    main(["gen-data", "--out", a, "--samples-per-class", "5", "--seed", "7"])
    main(["gen-data", "--out", b, "--samples-per-class", "5", "--seed", "7"])
    assert open(a, "rb").read() == open(b, "rb").read()
    c = str(tmp_path / "sc.bin")
    main(["gen-data", "--out", c, "--samples-per-class", "5", "--seed", "8"])
    assert open(a, "rb").read() != open(c, "rb").read()


def test_gen_data_invalid_classes_rejected(tmp_path, capsys):
    code = main(["gen-data", "--out", str(tmp_path / "x.bin"), "--classes", "0"])
    assert code != 0
    assert "error" in capsys.readouterr().err


def test_config_echo_before_run(workdir, capsys):
    main(["gen-data", "--out", str(workdir["root"] / "echo.bin"),
          "--samples-per-class", "5"])
    out = capsys.readouterr().out
    assert "# resolved configuration" in out
    assert out.index("resolved configuration") < out.index("n=")
    assert "samples_per_class=5" in out
    assert "mask_ratio=0.8" in out
    assert "lambda=100.0" in out


def test_config_file_and_flag_precedence(workdir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples_per_class=7\nnoise_std=0.1\n")
    out = str(tmp_path / "cfg.bin")
    assert main(["gen-data", "--config", str(cfg), "--out", out,
                 "--noise-std", "0.9"]) == 0
    printed = capsys.readouterr().out
    assert "samples_per_class=7" in printed
    assert "noise_std=0.9" in printed
    assert load_dataset(out).n == 21


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key=1\n")
    code = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x.bin")])
    assert code != 0
    assert "unknown configuration key" in capsys.readouterr().err


@pytest.mark.parametrize("reader", ["csv", "config"])
def test_pretrain_rejects_a_non_utf8_file_naming_it(tmp_path, capsys, reader):
    data = tmp_path / "series.csv"
    data.write_bytes(b"0.1,0.2,0.3,0.4,0\n" * 8)
    argv = ["pretrain", "--data", str(data), "--checkpoint", str(tmp_path / "x.ckpt"),
            "--out", str(tmp_path / "x.csv"), "--epochs", "1", *TINY]
    if reader == "csv":
        data.write_bytes(b"0.1,0.2,0.3,0.4,0\n0.1,0.2\xff,0.3,0.4,1\n")
        bad, where = data, "line 2: byte 0xff is not UTF-8 (byte offset 25)"
    else:
        bad = tmp_path / "run.cfg"
        bad.write_bytes(b"epochs=1\nlr=\xfe0.1\n")
        argv += ["--config", str(bad)]
        where = ":2: byte 0xfe at offset 12 is not UTF-8"
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err and err[-1].startswith(f"error: {bad}") and where in err[-1], err
    assert sorted(os.listdir(tmp_path)) == sorted(p.name for p in {data, bad})


_VALID_CONFIG = b"# run\nepochs=3\nlr=0.001\nseeds=1,2\n"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(_VALID_CONFIG)), st.integers(0, len(_VALID_CONFIG) - 1),
       st.integers(0, 255))
def test_config_any_prefix_or_byte_substitution_loads_or_raises_typed(tmp_path_factory, cut,
                                                                      at, byte):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    args = build_parser().parse_args(["gen-data", "--out", "x.bin"])
    for blob in (_VALID_CONFIG[:cut], _VALID_CONFIG[:at] + bytes([byte]) + _VALID_CONFIG[at + 1:]):
        path.write_bytes(blob)
        try:
            resolve_config(str(path), args)
        except MtslofError as exc:
            assert str(exc).startswith(str(path)) or "bad value" in str(exc), exc


def test_pretrain_writes_artifacts(workdir):
    assert os.path.exists(workdir["ckpt"])
    csv = str(workdir["root"] / "pre.csv")
    lines = open(csv).read().splitlines()
    assert lines[0] == "epoch,split,loss,accuracy,macro_f1,per_class_f1_0,per_class_f1_1,per_class_f1_2"
    assert len(lines) >= 2
    assert os.path.exists(str(workdir["root"] / "pre.run.txt"))


def test_pretrain_mask_ratio_one_rejected(workdir, capsys, tmp_path):
    code = main(["pretrain", "--data", workdir["data"], "--checkpoint",
                 str(tmp_path / "x.ckpt"), "--out", str(tmp_path / "x.csv"),
                 "--seed", "2019", "--epochs", "1", "--mask-ratio", "1.0", *TINY])
    assert code != 0
    assert "ratio" in capsys.readouterr().err


def test_pretrain_lambda_zero_runs(workdir, tmp_path):
    code = main(["pretrain", "--data", workdir["data"], "--checkpoint",
                 str(tmp_path / "l0.ckpt"), "--out", str(tmp_path / "l0.csv"),
                 "--seed", "2019", "--epochs", "1", "--lambda", "0", *TINY])
    assert code == 0


def test_probe_after_zero_epoch_pretrain_exits_zero(workdir, tmp_path, capsys):
    ckpt = str(tmp_path / "zero.ckpt")
    assert main(["pretrain", "--data", workdir["data"], "--checkpoint", ckpt,
                 "--out", str(tmp_path / "zero.csv"), "--seed", "2019",
                 "--epochs", "0", *TINY]) == 0
    code = main(["probe", "--data", workdir["data"], "--checkpoint", ckpt,
                 "--out", str(tmp_path / "zp.csv"), "--seed", "2019",
                 "--epochs", "2", *TINY])
    assert code == 0
    assert capsys.readouterr().out.strip().splitlines()[-1].startswith("accuracy=")


def test_probe_stdout_contract_and_artifacts(workdir, capsys):
    out = str(workdir["root"] / "probe.csv")
    saved = str(workdir["root"] / "probed.ckpt")
    code = main(["probe", "--data", workdir["data"], "--checkpoint", workdir["ckpt"],
                 "--out", out, "--save-checkpoint", saved, "--seed", "2019",
                 "--epochs", "2", *TINY])
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("accuracy=") and " macro_f1=" in last
    lines = open(out).read().splitlines()
    assert lines[0] == "seed,accuracy,macro_f1"
    assert lines[1].startswith("2019,")
    assert lines[-1].startswith("mean,")
    assert os.path.exists(saved)


def test_probe_multi_seed_rows(workdir, tmp_path):
    out = str(tmp_path / "multi.csv")
    code = main(["probe", "--data", workdir["data"], "--checkpoint", workdir["ckpt"],
                 "--out", out, "--seed", "2019,2020", "--epochs", "1", *TINY])
    assert code == 0
    lines = open(out).read().splitlines()
    assert [ln.split(",")[0] for ln in lines] == ["seed", "2019", "2020", "mean"]


def test_finetune_echoes_fraction_samples(workdir, tmp_path, capsys):
    out = str(tmp_path / "ft.csv")
    code = main(["finetune", "--data", workdir["data"], "--checkpoint", workdir["ckpt"],
                 "--out", out, "--seed", "2019", "--epochs", "1",
                 "--fraction", "0.25", *TINY])
    assert code == 0
    printed = capsys.readouterr().out
    # train split is 22 samples; round(0.25 * 22) = 6
    assert "fraction_samples=6" in printed


def test_finetune_bad_fraction_rejected_before_echo(workdir, tmp_path, capsys):
    code = main(["finetune", "--data", workdir["data"], "--checkpoint", workdir["ckpt"],
                 "--out", str(tmp_path / "ft0.csv"), "--seed", "2019", "--epochs", "1",
                 "--fraction", "0", *TINY])
    assert code != 0
    captured = capsys.readouterr()
    assert "fraction_samples=" not in captured.out
    assert "fraction must lie in (0, 1]" in captured.err


def test_eval_after_finetune_overfits_train_split(workdir, tmp_path, capsys):
    saved = str(tmp_path / "memorized.ckpt")
    code = main(["finetune", "--data", workdir["data"], "--checkpoint", workdir["ckpt"],
                 "--out", str(tmp_path / "ft.csv"), "--save-checkpoint", saved,
                 "--seed", "2019", "--epochs", "40", "--lr", "0.01",
                 "--fraction", "1.0", *TINY])
    assert code == 0
    capsys.readouterr()
    out = str(tmp_path / "eval.csv")
    code = main(["eval", "--data", workdir["data"], "--checkpoint", saved,
                 "--split", "train", "--out", out, "--seed", "2019", *TINY])
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    acc = float(last.split()[0].split("=")[1])
    assert acc == 1.0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("epoch,split,loss,accuracy,macro_f1")
    assert lines[1].split(",")[1] == "train"


def test_eval_smoke_on_pretrained(workdir, tmp_path, capsys):
    code = main(["eval", "--data", workdir["data"], "--checkpoint", workdir["ckpt"],
                 "--split", "test", "--seed", "2019", *TINY])
    assert code == 0
    assert capsys.readouterr().out.strip().splitlines()[-1].startswith("accuracy=")


def test_eval_d_model_mismatch_names_field(workdir, tmp_path, capsys):
    code = main(["eval", "--data", workdir["data"], "--checkpoint", workdir["ckpt"],
                 "--split", "test", "--seed", "2019", "--d-model", "16",
                 "--heads", "2", "--depth", "1", "--decoder-depth", "1",
                 "--ffn-multiplier", "2", "--channel-widths", "4,4,4,16"])
    assert code != 0
    err = capsys.readouterr().err
    assert "mismatch" in err


def test_eval_channel_mismatch_names_field(workdir, tmp_path, capsys):
    other = str(tmp_path / "m3.bin")
    main(["gen-data", "--out", other, "--samples-per-class", "6",
          "--length", "32", "--channels", "3"])
    capsys.readouterr()
    code = main(["eval", "--data", other, "--checkpoint", workdir["ckpt"],
                 "--split", "test", "--seed", "2019", *TINY])
    assert code != 0
    assert "channels" in capsys.readouterr().err


def test_export_embeddings_rows_and_determinism(workdir, tmp_path):
    a = str(tmp_path / "emb_a.csv")
    b = str(tmp_path / "emb_b.csv")
    for out in (a, b):
        code = main(["export-embeddings", "--data", workdir["data"],
                     "--checkpoint", workdir["ckpt"], "--out", out,
                     "--seed", "2019", *TINY])
        assert code == 0
    lines = open(a).read().splitlines()
    assert lines[0].startswith("index,label,e0")
    assert len(lines) == 1 + 36
    assert open(a).read() == open(b).read()


def test_export_embeddings_rejects_non_finite_checkpoint(workdir, tmp_path, capsys):
    state = load_checkpoint(workdir["ckpt"])
    state["backbone.patcher.conv1.weight"].flat[0] = np.nan
    ckpt = str(tmp_path / "nan.ckpt")
    save_checkpoint(ckpt, state)
    out = str(tmp_path / "emb.csv")
    code = main(["export-embeddings", "--data", workdir["data"], "--checkpoint", ckpt,
                 "--out", out, *TINY])
    assert code == 1
    assert "error: tensor 'backbone.patcher.conv1.weight' holds a non-finite value" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_malformed_list_values_rejected_naming_the_key(workdir, tmp_path, capsys):
    cfg = tmp_path / "widths.cfg"
    cfg.write_text("channel_widths=4,x,4,8\n")
    out = str(tmp_path / "x.csv")
    pre = ["pretrain", "--data", workdir["data"], "--checkpoint", str(tmp_path / "x.ckpt"),
           "--out", out, "--epochs", "0"]
    cases = [
        (pre + ["--seed", "a"], "seeds"),
        (pre + ["--channel-widths", "32,x,128,32"], "channel_widths"),
        (pre + ["--config", str(cfg)], "channel_widths"),
        (["ablate", "--data", workdir["data"], "--out", out, "--mask-counts", "1,x"], "mask_counts"),
    ]
    for argv, key in cases:
        assert main(argv) == 1, argv
        assert f"error: bad value for {key}: " in capsys.readouterr().err, argv
        assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["pretrain", "export-embeddings"])
def test_empty_seed_list_rejected(workdir, tmp_path, capsys, command):
    out = str(tmp_path / "x.csv")
    ckpt = str(tmp_path / "x.ckpt") if command == "pretrain" else workdir["ckpt"]
    code = main([command, "--data", workdir["data"], "--checkpoint", ckpt,
                 "--out", out, "--seed", ",", *TINY])
    assert code == 1
    assert "error: bad value for seeds: the seed list is empty" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, key", [
    (["pretrain", "--seed=-1"], "seeds"),
    (["pretrain", "--seed=2019,-1"], "seeds"),
    (["pretrain", "--split-seed=-3"], "split_seed"),
    (["pretrain", "--config", "split_seed=-3"], "split_seed"),
    (["gen-data", "--data-seed=-2"], "data_seed"),
    (["gen-data", "--config", "data_seed=-2"], "data_seed"),
    (["gen-data", "--signature-seed=-2"], "signature_seed"),
], ids=["seed", "seed-list", "split-seed", "split-seed-config", "data-seed", "data-seed-config",
        "signature-seed"])
def test_negative_seeds_rejected_naming_the_key(workdir, tmp_path, capsys, argv, key):
    out = str(tmp_path / "x.out")
    ckpt = str(tmp_path / "x.ckpt")
    if "--config" in argv:
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(argv[-1] + "\n")
        argv = argv[:-1] + [str(cfg)]
    if argv[0] == "pretrain":
        argv = argv + ["--data", workdir["data"], "--checkpoint", ckpt, "--epochs", "1", *TINY]
    code = main(argv + ["--out", out])
    assert code == 1
    assert f"error: bad value for {key}: " in capsys.readouterr().err
    assert not os.path.exists(out) and not os.path.exists(ckpt)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag, key", [
    ("--lr", "lr"), ("--weight-decay", "weight_decay"), ("--epsilon", "epsilon"),
    ("--lambda", "lambda"), ("--tcr-weight", "tcr_weight"), ("--dropout", "dropout"),
    ("--mask-ratio", "mask_ratio"),
])
def test_non_finite_hyperparameters_rejected(workdir, tmp_path, capsys, flag, key, value):
    out = str(tmp_path / "x.csv")
    code = main(["pretrain", "--data", workdir["data"], "--checkpoint", str(tmp_path / "x.ckpt"),
                 "--out", out, "--epochs", "1", *TINY, flag, value])
    assert code == 1
    assert f"error: bad value for {key}: {value} is not finite" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_ablate_grid_rows_and_dedup(workdir, tmp_path):
    out = str(tmp_path / "abl.csv")
    code = main(["ablate", "--data", workdir["data"], "--out", out,
                 "--seed", "2019", "--epochs", "1",
                 "--mask-counts", "1,2,1", "--mask-ratios", "0.8", *TINY])
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "mask_count,mask_ratio,accuracy,macro_f1"
    assert len(lines) == 3  # duplicate (1, 0.8) removed
    assert lines[1].startswith("1,0.8,")
    assert lines[2].startswith("2,0.8,")


def test_ablate_unusable_architecture_fails_once_without_csv(workdir, tmp_path, capsys):
    out = tmp_path / "abl_bad.csv"
    code = main(["ablate", "--data", workdir["data"], "--out", str(out),
                 "--seed", "2019", "--epochs", "1",
                 "--mask-counts", "1,2", "--mask-ratios", "0.5,0.8", *TINY, "--heads", "3"])
    assert code != 0
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("not divisible by heads 3") == 1
    assert "grid point" not in err


@pytest.mark.parametrize("flag, value, key", [
    ("--mask-ratios", "0.8,1.5", "mask_ratios"),
    ("--mask-counts", "1,0", "mask_counts"),
    ("--mask-counts", ",", "mask_counts"),
], ids=["ratio", "count", "empty"])
def test_ablate_unusable_grid_value_rejected_once_without_csv(workdir, tmp_path, capsys,
                                                              flag, value, key):
    out = tmp_path / "abl_grid.csv"
    code = main(["ablate", "--data", workdir["data"], "--out", str(out),
                 "--seed", "2019", "--epochs", "1", *TINY, flag, value])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count(f"error: bad value for {key}: ") == 1
    assert "grid point" not in err


def test_ablate_infeasible_mask_count_fails_only_its_point(workdir, tmp_path, capsys):
    out = str(tmp_path / "abl_point.csv")
    code = main(["ablate", "--data", workdir["data"], "--out", out,
                 "--seed", "2019", "--epochs", "1",
                 "--mask-counts", "1,100000", "--mask-ratios", "0.8", *TINY])
    assert code == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 3
    assert "nan" not in lines[1]
    assert lines[2] == "100000,0.8,nan,nan"
    err = capsys.readouterr().err
    assert err.count("grid point") == 1 and "(100000, 0.8) failed" in err


def test_repeat_run_byte_identical_csvs(workdir, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        ckpt = str(tmp_path / f"{name}.ckpt")
        csv = str(tmp_path / f"{name}.csv")
        code = main(["pretrain", "--data", workdir["data"], "--checkpoint", ckpt,
                     "--out", csv, "--seed", "2021", "--epochs", "1", *TINY])
        assert code == 0
        outs.append((open(csv).read(), open(ckpt, "rb").read()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_missing_dataset_file_nonzero_exit(tmp_path, capsys):
    code = main(["pretrain", "--data", str(tmp_path / "nope.bin"),
                 "--checkpoint", str(tmp_path / "x.ckpt"),
                 "--out", str(tmp_path / "x.csv"), "--seed", "2019", *TINY])
    assert code != 0


# Runs CLI commands in a fresh interpreter where any scipy import fails.
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from mtslof.cli import main
root, tiny = sys.argv[1], ["--seed", "2019", *sys.argv[2:]]
data, ckpt = root + "/d.bin", root + "/c.ckpt"
for argv in (["gen-data", "--out", data, "--samples-per-class", "6", "--length", "32"],
             ["pretrain", "--data", data, "--checkpoint", ckpt, "--out", root + "/h.csv",
              "--epochs", "0", *tiny],
             ["export-embeddings", "--data", data, "--checkpoint", ckpt,
              "--out", root + "/e.csv", *tiny]):
    print("exit", argv[0], main(argv))
"""


def test_cli_runs_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(mtslof.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path), *TINY],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    exits = [line for line in proc.stdout.splitlines() if line.startswith("exit ")]
    assert exits == ["exit gen-data 0", "exit pretrain 0", "exit export-embeddings 0"], proc.stderr
