"""End-to-end CLI tests running main() in process."""

import argparse
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtslof
from mtslof import backbone, cli, training
from mtslof.checkpoint import load_checkpoint, save_checkpoint
from mtslof.cli import SCHEMA, build_parser, main, resolve_config
from mtslof.errors import ConfigError, MtslofError
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


def test_gen_data_seed_flag_is_the_echoed_data_seed(tmp_path, capsys):
    def data_seed(*flags) -> str:
        assert main(["gen-data", "--samples-per-class", "5", *flags]) == 0
        return next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("data_seed="))

    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    assert data_seed("--out", a, "--seed", "7") == "data_seed=7"
    assert data_seed("--out", b, "--data-seed", "7") == "data_seed=7"
    assert open(a, "rb").read() == open(b, "rb").read()
    # --data-seed, then --seed, then the config file, then the default
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("data_seed=5\n")
    c = str(tmp_path / "c.bin")
    assert data_seed("--out", c, "--data-seed", "3", "--seed", "7") == "data_seed=3"
    assert data_seed("--out", c, "--config", str(cfg), "--seed", "7") == "data_seed=7"
    assert data_seed("--out", c, "--config", str(cfg)) == "data_seed=5"
    assert data_seed("--out", c) == "data_seed=0"


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


@pytest.mark.parametrize("line", ["pre_norm=false", "lambda_target=tcr"])
def test_config_file_setting_a_deleted_key_rejected(tmp_path, capsys, line):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "x.bin"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 1
    key = line.split("=")[0]
    assert f"error: {cfg}:1: unknown configuration key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_pretrain_rejects_a_csv_label_too_large_for_int64(tmp_path, capsys):
    data = tmp_path / "big.csv"
    data.write_bytes(b"0.1,0.2,0.3,0.4,0\n0.1,0.2,0.3,0.4,1e30\n")
    out = tmp_path / "x.csv"
    assert main(["pretrain", "--data", str(data), "--checkpoint", str(tmp_path / "x.ckpt"),
                 "--out", str(out), "--epochs", "1", *TINY]) == 1
    err = capsys.readouterr().err.strip()
    assert err == "error: line 2: label '1e30' is not a whole number that fits in int64"
    assert sorted(os.listdir(tmp_path)) == ["big.csv"]


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_export_rows_equal_per_value_formatting(workdir, tmp_path, monkeypatch, dtype):
    ds = load_dataset(workdir["data"])
    edge = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-7, -5e-7, 1.5e-6, 2.5e-6,
            0.1234565, -0.0000004, 999999.9999995, 1e6 + 0.5e-6, 1234567.8912345, -3.4e7,
            1e15, -1e30, float(np.finfo(np.float32).max), 1e-300]
    rng = np.random.default_rng(4)
    values = rng.standard_normal((ds.n, 8)) * 10.0 ** rng.integers(-9, 10, size=(ds.n, 8))
    values.flat[:len(edge)] = edge
    values = values.astype(dtype)
    monkeypatch.setattr(cli, "compute_representations", lambda model, part: values)
    out = tmp_path / "emb.csv"
    assert main(["export-embeddings", "--data", workdir["data"], "--checkpoint",
                 workdir["ckpt"], "--out", str(out), *TINY]) == 0
    expected = ["index,label," + ",".join(f"e{k}" for k in range(8))]
    expected += [f"{i},{ds.labels[i]}," + ",".join(f"{v:.6f}" for v in values[i])
                 for i in range(ds.n)]
    assert out.read_text() == "\n".join(expected) + "\n"


# -- the one load path ---------------------------------------------------------


def _run_loading_commands(workdir, out, capsys) -> tuple[dict, list]:
    """Run every command that loads a checkpoint; return its files and stdout."""
    out.mkdir()
    common = ["--data", workdir["data"], "--checkpoint", workdir["ckpt"], *TINY]
    commands = [
        ["eval", *common, "--split", "train", "--out", str(out / "eval.csv")],
        ["export-embeddings", *common, "--out", str(out / "emb.csv")],
        ["probe", *common, "--seed", "1,2", "--epochs", "2", "--out", str(out / "probe.csv"),
         "--save-checkpoint", str(out / "probe.ckpt")],
        ["finetune", *common, "--seed", "3,4", "--epochs", "1", "--out", str(out / "ft.csv"),
         "--save-checkpoint", str(out / "ft.ckpt")],
    ]
    printed = []
    for argv in commands:
        assert main(argv) == 0, argv
        printed.append(capsys.readouterr().out)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}, printed


def test_loading_commands_write_the_bytes_of_a_random_init_then_loaded_model(
        workdir, tmp_path, monkeypatch, capsys):
    files, printed = _run_loading_commands(workdir, tmp_path / "direct", capsys)
    # eval, export, two summaries, and per seed a history, a run file and a checkpoint
    assert len(files) == 16

    build_model = training.build_model
    seeds = []

    def random_init(*args, seed=0, **kwargs):
        seeds.append(seed)
        return build_model(*args, seed=12345 if seed is None else seed, **kwargs)

    monkeypatch.setattr(training, "build_model", random_init)
    assert _run_loading_commands(workdir, tmp_path / "random", capsys) == (files, printed)
    assert seeds == [None] * 6  # eval, export, and one model per probe and finetune seed


def test_loading_commands_draw_no_random_weights(workdir, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a random weight draw while loading a checkpoint")

    monkeypatch.setattr(backbone, "trunc_normal", refuse)
    common = ["--data", workdir["data"], "--checkpoint", workdir["ckpt"], *TINY]
    for argv in (["eval", *common],
                 ["export-embeddings", *common, "--out", str(tmp_path / "emb.csv")],
                 ["finetune", *common, "--seed", "3,4", "--epochs", "1",
                  "--out", str(tmp_path / "ft.csv")]):
        assert main(argv) == 0, capsys.readouterr().err

    # A probe draws one thing: the fresh head it trains, once per seed.
    draws = []

    def record(rng, shape, std=0.02):
        draws.append(tuple(shape))
        return np.zeros(shape)

    monkeypatch.setattr(backbone, "trunc_normal", record)
    assert main(["probe", *common, "--seed", "1,2", "--epochs", "1",
                 "--out", str(tmp_path / "probe.csv")]) == 0
    assert draws == [(3, 8), (3, 8)]


@pytest.mark.parametrize("flags, message", [
    (["--decoder-depth", "2"], "checkpoint/config mismatch on depth/decoder_depth: "
                               "checkpoint is missing tensor 'decoder.block1.norm1.scale'"),
    (["--channel-widths", "4,4,8,8"], "checkpoint/config mismatch on d_model/channel_widths: "
                                      "shape mismatch for 'backbone.patcher.conv3.weight': "
                                      "checkpoint (4, 4, 8), model (8, 4, 8)"),
], ids=["decoder_depth", "width"])
@pytest.mark.parametrize("command", ["eval", "export-embeddings", "probe", "finetune"])
def test_architecture_mismatch_keeps_its_error_and_message(workdir, tmp_path, capsys, command,
                                                           flags, message):
    argv = [command, "--data", workdir["data"], "--checkpoint", workdir["ckpt"], *TINY, *flags]
    out = tmp_path / "out.csv"
    if command != "eval":
        argv += ["--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.strip() == "error: " + message
    args = build_parser().parse_args(argv)
    with pytest.raises(ConfigError) as exc:
        args.func(resolve_config(None, args), args)
    assert str(exc.value) == message
    assert not out.exists()


# -- the parser, built once per process -------------------------------------------


def test_consecutive_main_calls_leave_no_state_in_the_parser(workdir, tmp_path, capsys):
    def resolved(argv) -> dict:
        assert main(argv) == 0, capsys.readouterr().err
        lines = capsys.readouterr().out.splitlines()
        pairs = (line.split("=", 1) for line in lines if "=" in line)
        return {key: value for key, value in pairs if key in SCHEMA}

    assert build_parser() is build_parser()
    defaults = resolved(["gen-data", "--out", str(tmp_path / "d0.bin")])
    common = ["--data", workdir["data"], "--checkpoint", workdir["ckpt"], *TINY]

    first = resolved(["gen-data", "--out", str(tmp_path / "a.bin"), "--samples-per-class", "4",
                      "--noise-std", "0.9", "--seed", "7"])
    assert (first["samples_per_class"], first["noise_std"], first["seeds"]) == ("4", "0.9", "7")
    split_val = resolved(["eval", *common, "--split", "val", "--seed", "5"])
    assert (split_val["eval_split"], split_val["seeds"]) == ("val", "5")
    assert split_val["samples_per_class"] == defaults["samples_per_class"]
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--out", str(tmp_path / "b.bin"), "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", *common, "--split", "nowhere"])
    assert exc.value.code == 2
    capsys.readouterr()
    again = resolved(["gen-data", "--out", str(tmp_path / "c.bin")])
    assert again == defaults
    split_default = resolved(["eval", *common])
    assert split_default["eval_split"] == "test"
    assert split_default["seeds"] == defaults["seeds"]
    assert open(tmp_path / "c.bin", "rb").read() == open(tmp_path / "d0.bin", "rb").read()


_RUN_FLAGS = ["--seed", "--epochs", "--batch-size", "--lr", "--weight-decay", "--mask-ratio",
              "--num-masks", "--lambda", "--epsilon", "--tcr-weight", "--d-model", "--heads",
              "--depth", "--ffn-multiplier", "--dropout", "--decoder-depth", "--first-kernel",
              "--first-stride", "--channel-widths", "--split-seed", "--fraction"]
_COMMAND_FLAGS = {
    "gen-data": ["--config", "--out", *_RUN_FLAGS, "--classes", "--channels", "--length",
                 "--samples-per-class", "--noise-std", "--phase-jitter", "--data-seed",
                 "--signature-seed"],
    "pretrain": ["--config", "--data", "--checkpoint", "--out", *_RUN_FLAGS],
    "probe": ["--config", "--data", "--checkpoint", "--out", "--save-checkpoint", *_RUN_FLAGS],
    "finetune": ["--config", "--data", "--checkpoint", "--out", "--save-checkpoint", *_RUN_FLAGS],
    "eval": ["--config", "--data", "--checkpoint", *_RUN_FLAGS, "--out", "--split"],
    "export-embeddings": ["--config", "--data", "--checkpoint", "--out", *_RUN_FLAGS],
    "ablate": ["--config", "--data", "--out", *_RUN_FLAGS, "--mask-counts", "--mask-ratios"],
}


_PATH_DESTS = {"config", "data", "checkpoint", "out", "save_checkpoint"}


def test_each_command_takes_its_flags_as_strings():
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(_COMMAND_FLAGS)
    for command, sub in subs.choices.items():
        actions = [a for a in sub._actions if a.option_strings != ["-h", "--help"]]
        assert [s for a in actions for s in a.option_strings] == _COMMAND_FLAGS[command]
        for a in actions:
            assert a.type is None, (command, a.dest)
            assert a.dest in _PATH_DESTS or a.help == SCHEMA[a.dest][2], (command, a.dest)


@pytest.mark.parametrize("flag, value, key", [
    ("--epochs", "x", "epochs"), ("--d-model", "1.5", "d_model"), ("--lr", "abc", "lr"),
])
def test_bad_flag_value_exits_one_naming_the_key(workdir, tmp_path, capsys, flag, value, key):
    code = main(["pretrain", "--data", workdir["data"], "--checkpoint", str(tmp_path / "x.ckpt"),
                 "--out", str(tmp_path / "x.csv"), "--epochs", "1", *TINY, flag, value])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: bad value for {key}: "), captured.err
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


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


@pytest.mark.parametrize("setting, key", [
    (["--weight-decay", "-5", "--lr", "0.1"], "weight_decay"),
    ("adam_eps=0", "adam_eps"),
    ("adam_eps=-1", "adam_eps"),
], ids=["weight-decay", "adam-eps-zero", "adam-eps-negative"])
def test_out_of_range_optimizer_settings_rejected(workdir, tmp_path, capsys, setting, key):
    out = str(tmp_path / "x.csv")
    ckpt = str(tmp_path / "x.ckpt")
    if isinstance(setting, str):
        cfg = tmp_path / "optim.cfg"
        cfg.write_text(setting + "\n")
        setting = ["--config", str(cfg)]
    code = main(["pretrain", "--data", workdir["data"], "--checkpoint", ckpt,
                 "--out", out, "--epochs", "2", *TINY, *setting])
    assert code == 1
    assert f"error: {key} must be " in capsys.readouterr().err
    assert not os.path.exists(out) and not os.path.exists(ckpt)


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
