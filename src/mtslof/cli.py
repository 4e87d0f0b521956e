"""Command-line interface.

Commands: gen-data, pretrain, probe, finetune, eval, export-embeddings,
ablate. Configuration is a flat key=value namespace with documented
defaults; a --config file overrides defaults and command-line flags
override the file. Every command echoes its fully resolved configuration
before acting, and all artifacts are written atomically.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import os
import platform
import sys

import numpy as np

from .backbone import EncoderConfig, PatcherConfig
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    Dataset,
    SplitSpec,
    SyntheticConfig,
    _atomic_write,
    first_non_utf8,
    generate_synthetic,
    load_csv,
    load_dataset,
    normalize,
    save_dataset,
)
from .errors import CheckpointMismatchError, ConfigError, MtslofError
from .objective import MaskConfig, TCRConfig
from .training import (
    OptimConfig,
    TrainRun,
    build_model,
    compute_representations,
    evaluate,
    finetune,
    history_csv,
    linear_probe,
    model_from_checkpoint,
    model_state,
    prepare_splits,
    pretrain,
    run_summary_text,
    select_fraction,
)


def _parse_int_list(s: str) -> list[int]:
    return [int(v) for v in s.split(",") if v.strip() != ""]


def _parse_float_list(s: str) -> list[float]:
    return [float(v) for v in s.split(",") if v.strip() != ""]


def _parse_key(key: str, parser, value: str):
    """parser(value), failing with a ConfigError that names the key."""
    try:
        return parser(value)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, list):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# key -> (default, parser, help)
SCHEMA: dict[str, tuple] = {
    # synthetic data generator
    "classes": (3, int, "number of classes"),
    "channels": (2, int, "channels per sample"),
    "length": (128, int, "time steps per sample"),
    "samples_per_class": (200, int, "samples generated per class"),
    "noise_std": (0.5, float, "gaussian noise level"),
    "phase_jitter": (0.0, float, "per-sample phase jitter range"),
    "data_seed": (0, int, "generator seed"),
    "signature_seed": (-1, int, "class-signature seed; -1 reuses data_seed"),
    # splitting
    "train_frac": (0.6, float, "training fraction"),
    "val_frac": (0.2, float, "validation fraction"),
    "test_frac": (0.2, float, "test fraction"),
    "split_seed": (0, int, "shuffle seed for the split"),
    # patcher / encoder
    "first_kernel": (8, int, "first conv kernel size"),
    "first_stride": (1, int, "first conv stride"),
    "channel_widths": ("auto", str, "four conv widths, or 'auto' for 32,64,128,d_model"),
    "d_model": (64, int, "encoder model dimension"),
    "heads": (4, int, "attention heads"),
    "depth": (4, int, "encoder blocks"),
    "ffn_multiplier": (4, int, "feed-forward width multiplier"),
    "dropout": (0.1, float, "dropout rate"),
    "decoder_depth": (4, int, "decoder blocks"),
    # masking and objective
    "mask_ratio": (0.8, float, "fraction of patches hidden per view"),
    "num_masks": (20, int, "distinct masks per sample"),
    "lambda": (100.0, float, "balance weight between similarity and coding-rate terms"),
    "epsilon": (math.sqrt(0.2), float, "coding-rate distortion (default sqrt(0.2))"),
    "tcr_weight": (1.0, float, "coding-rate term weight; 0 removes it"),
    # optimization
    "lr": (5e-4, float, "learning rate"),
    "weight_decay": (0.05, float, "decoupled weight decay"),
    "beta1": (0.9, float, "Adam beta1"),
    "beta2": (0.999, float, "Adam beta2"),
    "adam_eps": (1e-8, float, "Adam epsilon"),
    "epochs": (40, int, "training epochs"),
    "batch_size": (64, int, "batch size (desk-scale default)"),
    # run control
    "seeds": ([2019, 2020, 2021, 2022, 2023], _parse_int_list, "comma list of seeds"),
    "fraction": (1.0, float, "labeled fraction for fine-tuning"),
    "eval_split": ("test", str, "split evaluated by the eval command"),
    "mask_counts": ([1, 5, 20], _parse_int_list, "ablation grid of mask counts"),
    "mask_ratios": ([0.8], _parse_float_list, "ablation grid of mask ratios"),
}


def resolve_config(config_path: str | None, args: argparse.Namespace) -> dict:
    """defaults <- config file <- flags; unknown keys are rejected.

    A value from a file or a flag is a string, parsed by its key's SCHEMA parser.
    """
    cfg = {key: default for key, (default, _, _) in SCHEMA.items()}
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            try:
                lines = fh.readlines()
            except UnicodeDecodeError:
                line, offset, byte = first_non_utf8(config_path)
                raise ConfigError(f"{config_path}:{line}: byte {byte:#04x} at offset {offset} "
                                  "is not UTF-8") from None
            for lineno, line in enumerate(lines, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{config_path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in SCHEMA:
                    raise ConfigError(f"{config_path}:{lineno}: unknown configuration key {key!r}")
                try:
                    cfg[key] = _parse_key(key, SCHEMA[key][1], value.strip())
                except ConfigError as exc:
                    raise ConfigError(f"{config_path}:{lineno}: {exc}") from exc
    for key, (_, parser, _) in SCHEMA.items():
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = _parse_key(key, parser, value)
        if parser in (float, _parse_float_list):
            values = cfg[key] if isinstance(cfg[key], list) else [cfg[key]]
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(f"bad value for {key}: {_fmt(cfg[key])} is not finite")
    if not cfg["seeds"]:
        raise ConfigError("bad value for seeds: the seed list is empty")
    # gen-data's --seed seeds the generator when --data-seed is not given.
    if args.command == "gen-data" and args.data_seed is None and args.seeds is not None:
        cfg["data_seed"] = cfg["seeds"][0]
    # numpy seeds must be non-negative; a signature_seed of -1 reuses data_seed.
    for key, low in (("seeds", 0), ("data_seed", 0), ("split_seed", 0), ("signature_seed", -1)):
        if min(cfg[key] if isinstance(cfg[key], list) else [cfg[key]]) < low:
            raise ConfigError(f"bad value for {key}: {_fmt(cfg[key])} is below {low}")
    return cfg


def echo_config(cfg: dict) -> None:
    print("# resolved configuration")
    for key in sorted(cfg):
        print(f"{key}={_fmt(cfg[key])}")


def _write_text(path: str, text: str) -> None:
    _atomic_write(path, text.encode("utf-8"))


def _seed_path(path: str, seed: int, multi: bool) -> str:
    if not multi:
        return path
    root, ext = os.path.splitext(path)
    return f"{root}_seed{seed}{ext}"


def _load_any_dataset(path: str) -> Dataset:
    if path.endswith(".csv"):
        return load_csv(path)
    return load_dataset(path)


def _configs_from(cfg: dict, input_channels: int) -> tuple[PatcherConfig, EncoderConfig,
                                                           MaskConfig, TCRConfig, OptimConfig]:
    widths = cfg["channel_widths"]
    if widths == "auto":
        widths = (32, 64, 128, cfg["d_model"])
    else:
        widths = tuple(_parse_key("channel_widths", _parse_int_list, widths))
    patcher = PatcherConfig(first_kernel=cfg["first_kernel"], first_stride=cfg["first_stride"],
                            channel_widths=widths, input_channels=input_channels)
    encoder = EncoderConfig(model_dim=cfg["d_model"], heads=cfg["heads"], depth=cfg["depth"],
                            ffn_multiplier=cfg["ffn_multiplier"], dropout=cfg["dropout"])
    maskcfg = MaskConfig(ratio=cfg["mask_ratio"], count=cfg["num_masks"])
    tcrcfg = TCRConfig(epsilon=cfg["epsilon"], lam=cfg["lambda"], tcr_weight=cfg["tcr_weight"])
    optcfg = OptimConfig(learning_rate=cfg["lr"], weight_decay=cfg["weight_decay"],
                         beta1=cfg["beta1"], beta2=cfg["beta2"], eps=cfg["adam_eps"],
                         epochs=cfg["epochs"], batch_size=cfg["batch_size"])
    return patcher, encoder, maskcfg, tcrcfg, optcfg


def _split_spec(cfg: dict) -> SplitSpec:
    return SplitSpec(train=cfg["train_frac"], val=cfg["val_frac"],
                     test=cfg["test_frac"], seed=cfg["split_seed"])


def _describe_mismatch(exc: CheckpointMismatchError, cfg: dict) -> str:
    """Point the user at the config field most likely behind a mismatch."""
    msg = str(exc)
    field = None
    if "conv1.weight" in msg:
        field = "channels/first_kernel"
    elif "head." in msg:
        field = "classes"
    elif "missing tensor" in msg and ("block" in msg or "decoder" in msg):
        field = "depth/decoder_depth"
    elif any(k in msg for k in ("encoder.", "decoder.", "patcher.")):
        field = "d_model/channel_widths"
    if field:
        return f"checkpoint/config mismatch on {field}: {msg}"
    return f"checkpoint/config mismatch: {msg}"


def _load_model(cfg: dict, loaded: dict, ds: Dataset, patcher: PatcherConfig,
                encoder: EncoderConfig, include_head: bool):
    """`model_from_checkpoint`, with a mismatch that names the config field."""
    try:
        return model_from_checkpoint(loaded, ds, patcher, encoder, cfg["decoder_depth"],
                                     include_head)
    except CheckpointMismatchError as exc:
        raise ConfigError(_describe_mismatch(exc, cfg)) from exc


def _summary_csv(rows: list[tuple[int, float, float]]) -> str:
    lines = ["seed,accuracy,macro_f1"]
    for seed, acc, f1 in rows:
        lines.append(f"{seed},{acc:.6f},{f1:.6f}")
    accs = [r[1] for r in rows]
    f1s = [r[2] for r in rows]
    lines.append(f"mean,{np.mean(accs):.6f},{np.mean(f1s):.6f}")
    return "\n".join(lines) + "\n"


# -- commands ---------------------------------------------------------------


def cmd_gen_data(cfg: dict, args) -> int:
    sig_seed = None if cfg["signature_seed"] < 0 else cfg["signature_seed"]
    syn = SyntheticConfig(class_count=cfg["classes"], channels=cfg["channels"],
                          length=cfg["length"], samples_per_class=cfg["samples_per_class"],
                          noise_std=cfg["noise_std"], seed=cfg["data_seed"],
                          phase_jitter=cfg["phase_jitter"], signature_seed=sig_seed)
    ds = generate_synthetic(syn)
    save_dataset(ds, args.out)
    print(f"n={ds.n} m={ds.channels} t={ds.length} c={ds.class_count}")
    return 0


def cmd_pretrain(cfg: dict, args) -> int:
    ds = _load_any_dataset(args.data)
    patcher, encoder, maskcfg, tcrcfg, optcfg = _configs_from(cfg, ds.channels)
    train, val, _, stats = prepare_splits(ds, _split_spec(cfg))
    seeds = cfg["seeds"]
    multi = len(seeds) > 1
    for seed in seeds:
        backbone, decoder = build_model(patcher, encoder, ds.class_count,
                                        cfg["decoder_depth"], seed)
        ckpt_path = _seed_path(args.checkpoint, seed, multi)
        run = pretrain(train, val, backbone, decoder, maskcfg, tcrcfg, optcfg,
                       seed, ckpt_path, stats)
        out_path = _seed_path(args.out, seed, multi)
        _write_text(out_path, history_csv(run, ds.class_count))
        _write_text(os.path.splitext(out_path)[0] + ".run.txt", run_summary_text(run))
        train_losses = [r["loss"] for r in run.history if r["split"] == "train"]
        final = train_losses[-1] if train_losses else float("nan")
        print(f"seed={seed} final_loss={final:.6f} checkpoint={ckpt_path}")
    return 0


def _probe_like(cfg: dict, args, mode: str) -> int:
    ds = _load_any_dataset(args.data)
    patcher, encoder, maskcfg, tcrcfg, optcfg = _configs_from(cfg, ds.channels)
    loaded = load_checkpoint(args.checkpoint)
    backbone, decoder, stats = _load_model(cfg, loaded, ds, patcher, encoder, include_head=False)
    train, val, test, stats = prepare_splits(ds, _split_spec(cfg), stats)
    seeds = cfg["seeds"]
    multi = len(seeds) > 1
    rows = []
    for i, seed in enumerate(seeds):
        if i:  # each seed starts from the checkpoint, not from the last seed's run
            backbone, decoder, _ = _load_model(cfg, loaded, ds, patcher, encoder,
                                               include_head=False)
        if mode == "probe":
            run, metrics = linear_probe(train, val, test, backbone, optcfg, seed)
        else:
            k = select_fraction(train.n, cfg["fraction"], seed).size
            print(f"seed={seed} fraction={cfg['fraction']} fraction_samples={k}")
            run, metrics = finetune(train, val, test, backbone, cfg["fraction"], optcfg, seed)
        rows.append((seed, metrics.accuracy, metrics.macro_f1))
        hist_path = _seed_path(os.path.splitext(args.out)[0] + ".history.csv", seed, multi)
        _write_text(hist_path, history_csv(run, ds.class_count))
        _write_text(os.path.splitext(hist_path)[0] + ".run.txt", run_summary_text(run, metrics))
        if args.save_checkpoint:
            save_checkpoint(_seed_path(args.save_checkpoint, seed, multi),
                            model_state(backbone, decoder, stats, ds.length))
    _write_text(args.out, _summary_csv(rows))
    acc = float(np.mean([r[1] for r in rows]))
    f1 = float(np.mean([r[2] for r in rows]))
    print(f"accuracy={acc:.6f} macro_f1={f1:.6f}")
    return 0


def cmd_probe(cfg: dict, args) -> int:
    return _probe_like(cfg, args, "probe")


def cmd_finetune(cfg: dict, args) -> int:
    return _probe_like(cfg, args, "finetune")


def cmd_eval(cfg: dict, args) -> int:
    ds = _load_any_dataset(args.data)
    patcher, encoder, _, _, _ = _configs_from(cfg, ds.channels)
    backbone, _, stats = _load_model(cfg, load_checkpoint(args.checkpoint), ds, patcher,
                                     encoder, include_head=True)
    train, val, test, _ = prepare_splits(ds, _split_spec(cfg), stats)
    part = {"train": train, "val": val, "test": test}.get(cfg["eval_split"])
    if part is None:
        raise ConfigError(f"eval_split must be train, val, or test, got {cfg['eval_split']!r}")
    seed = cfg["seeds"][0]
    metrics = evaluate(backbone, part)
    if args.out:
        run = TrainRun(seed=seed, mode="eval")
        run.record(0, cfg["eval_split"], float("nan"), metrics)
        _write_text(args.out, history_csv(run, ds.class_count))
    print(f"accuracy={metrics.accuracy:.6f} macro_f1={metrics.macro_f1:.6f}")
    return 0


def cmd_export_embeddings(cfg: dict, args) -> int:
    ds = _load_any_dataset(args.data)
    patcher, encoder, _, _, _ = _configs_from(cfg, ds.channels)
    backbone, _, stats = _load_model(cfg, load_checkpoint(args.checkpoint), ds, patcher,
                                     encoder, include_head=True)
    ds_n, _ = normalize(ds, stats)
    d = encoder.model_dim
    row_format = "%d,%d," + ",".join(["%.6f"] * d)
    z = compute_representations(backbone, ds_n).tolist()
    lines = ["index,label," + ",".join(f"e{k}" for k in range(d))]
    lines += [row_format % (idx, label, *values)
              for idx, (label, values) in enumerate(zip(ds_n.labels.tolist(), z))]
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"rows={ds_n.n} dim={d}")
    return 0


def cmd_ablate(cfg: dict, args) -> int:
    # An empty grid or a value that no grid point can use fails here, once;
    # a count the data cannot supply (C(p, h) < N) fails only its own point.
    for key, check in (("mask_counts", lambda v: MaskConfig(count=v)),
                       ("mask_ratios", lambda v: MaskConfig(ratio=v))):
        if not cfg[key]:
            raise ConfigError(f"bad value for {key}: the list is empty")
        for value in cfg[key]:
            _parse_key(key, check, value)
    ds = _load_any_dataset(args.data)
    grid: list[tuple[int, float]] = []
    for n in cfg["mask_counts"]:
        for r in cfg["mask_ratios"]:
            if (n, r) not in grid:
                grid.append((n, r))
    seeds = cfg["seeds"]
    patcher, encoder, _, tcrcfg, optcfg = _configs_from(cfg, ds.channels)
    train, val, test, _ = prepare_splits(ds, _split_spec(cfg))

    def run_point(point: tuple[int, float]):
        n_masks, ratio = point
        maskcfg = MaskConfig(ratio=ratio, count=n_masks)
        accs, f1s = [], []
        for seed in seeds:
            backbone, decoder = build_model(patcher, encoder, ds.class_count,
                                            cfg["decoder_depth"], seed)
            pretrain(train, val, backbone, decoder, maskcfg, tcrcfg, optcfg, seed)
            _, metrics = linear_probe(train, val, test, backbone, optcfg, seed)
            accs.append(metrics.accuracy)
            f1s.append(metrics.macro_f1)
        return float(np.mean(accs)), float(np.mean(f1s))

    lines = ["mask_count,mask_ratio,accuracy,macro_f1"]
    for point in grid:
        try:
            acc, f1 = run_point(point)
        except MtslofError as exc:
            print(f"grid point {point} failed: {exc}", file=sys.stderr)
            acc = f1 = float("nan")
        lines.append(f"{point[0]},{point[1]},{acc:.6f},{f1:.6f}")
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"grid_points={len(grid)}")
    return 0


# -- argument parsing ---------------------------------------------------------


# The configuration keys that each command takes as flags, in --help order.
_RUN_KEYS = ("seeds", "epochs", "batch_size", "lr", "weight_decay", "mask_ratio", "num_masks",
             "lambda", "epsilon", "tcr_weight", "d_model", "heads", "depth", "ffn_multiplier",
             "dropout", "decoder_depth", "first_kernel", "first_stride", "channel_widths",
             "split_seed", "fraction")
_DATA_KEYS = ("classes", "channels", "length", "samples_per_class", "noise_std", "phase_jitter",
              "data_seed", "signature_seed")


def _add_keys(sub: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    """One flag per key: --key-with-dashes (--seed for seeds), its value left a string."""
    for key in keys:
        flag = "--seed" if key == "seeds" else "--" + key.replace("_", "-")
        sub.add_argument(flag, dest=key, help=SCHEMA[key][2])


def _add_common(sub: argparse.ArgumentParser, *, data=False, checkpoint=False,
                out=False, save_checkpoint=False) -> None:
    sub.add_argument("--config", help="key=value configuration file")
    if data:
        sub.add_argument("--data", required=True, help="dataset file (binary or .csv)")
    if checkpoint:
        sub.add_argument("--checkpoint", required=True, help="checkpoint path")
    if out:
        sub.add_argument("--out", required=True, help="output artifact path")
    if save_checkpoint:
        sub.add_argument("--save-checkpoint", dest="save_checkpoint",
                         help="write the post-run model state here")
    _add_keys(sub, _RUN_KEYS)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    key_docs = "\n".join(f"  {key}={_fmt(default)}  ({help_text})"
                         for key, (default, _, help_text) in SCHEMA.items())
    parser = argparse.ArgumentParser(
        prog="mtslof",
        description="occlusion-invariant time-series SSL",
        epilog="configuration keys and defaults (config file or flags):\n" + key_docs,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen-data", help="write a synthetic dataset file")
    _add_common(gen, out=True)
    _add_keys(gen, _DATA_KEYS)
    gen.set_defaults(func=cmd_gen_data)

    pre = subs.add_parser("pretrain", help="self-supervised pretraining")
    _add_common(pre, data=True, checkpoint=True, out=True)
    pre.set_defaults(func=cmd_pretrain)

    probe = subs.add_parser("probe", help="linear probe of a frozen checkpoint")
    _add_common(probe, data=True, checkpoint=True, out=True, save_checkpoint=True)
    probe.set_defaults(func=cmd_probe)

    ft = subs.add_parser("finetune", help="supervised fine-tuning from a checkpoint")
    _add_common(ft, data=True, checkpoint=True, out=True, save_checkpoint=True)
    ft.set_defaults(func=cmd_finetune)

    ev = subs.add_parser("eval", help="evaluate a checkpoint on a split")
    _add_common(ev, data=True, checkpoint=True)
    ev.add_argument("--out", help="optional metrics CSV path")
    ev.add_argument("--split", dest="eval_split", choices=("train", "val", "test"),
                    help=SCHEMA["eval_split"][2])
    ev.set_defaults(func=cmd_eval)

    exp = subs.add_parser("export-embeddings", help="CSV of pooled representations")
    _add_common(exp, data=True, checkpoint=True, out=True)
    exp.set_defaults(func=cmd_export_embeddings)

    abl = subs.add_parser("ablate", help="mask-count x mask-ratio sweep")
    _add_common(abl, data=True, out=True)
    _add_keys(abl, ("mask_counts", "mask_ratios"))
    abl.set_defaults(func=cmd_ablate)

    return parser


# glibc mallopt parameters and the values set at CLI entry.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD_BYTES = 256 << 20
_MMAP_THRESHOLD_BYTES = 32 << 20


def set_allocator_policy() -> None:
    """Keep freed heap pages for reuse instead of returning them to the kernel.

    A training step frees its whole graph and the next step allocates the
    same arrays again. With glibc's defaults, blocks over the dynamic mmap
    threshold are unmapped on free and the heap top is trimmed, so every
    step faults its pages in afresh. Fixed thresholds keep those pages in
    the heap. Other C libraries are left as they are.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv: list[str] | None = None) -> int:
    set_allocator_policy()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args.config, args)
        echo_config(cfg)
        return args.func(cfg, args)
    except (MtslofError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
