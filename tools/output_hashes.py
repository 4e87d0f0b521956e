"""Hash every output of a fixed CLI session, to show that two trees write
the same bytes.

    PYTHONPATH=src python tools/output_hashes.py [--no-worker]

The session runs gen-data, pretrain (2 epochs), finetune, probe, eval,
export-embeddings and ablate in this process through `mtslof.cli.main`, at
the acceptance architecture, then a 1-epoch pretrain that takes every
setting but its paths from a `--config` file the tool writes first (the
same architecture and training flags, as `key=value` lines). It runs in a
fresh temporary directory and with
relative paths, so the paths written into `.run.txt` files are the same in
every run. For each command it prints the exit code and the sha256 of its
stdout, then one `sha256  name` line for every file the session wrote.
`--no-worker` makes `parallel.worker_can_run` return False, so every
worker's requests run in this process. The `mtslof` imported is the first
on `sys.path`: point PYTHONPATH at the tree to hash.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ARCH = ["--d-model", "32", "--heads", "4", "--depth", "2", "--decoder-depth", "2",
        "--ffn-multiplier", "2", "--channel-widths", "32,64,128,32", "--batch-size", "16",
        "--lr", "2e-3", "--num-masks", "20"]

SESSION = [
    ["gen-data", "--out", "data.bin"],
    ["pretrain", "--data", "data.bin", "--checkpoint", "pre.ckpt", "--out", "pre.csv",
     "--epochs", "2", "--seed", "2019", *ARCH],
    ["finetune", "--data", "data.bin", "--checkpoint", "pre.ckpt", "--out", "ft.csv",
     "--fraction", "0.5", "--seed", "1,2", "--save-checkpoint", "ft.ckpt", *ARCH],
    ["probe", "--data", "data.bin", "--checkpoint", "pre.ckpt", "--out", "probe.csv",
     "--seed", "1,2", "--save-checkpoint", "probe.ckpt", *ARCH],
    ["eval", "--data", "data.bin", "--checkpoint", "ft_seed1.ckpt", "--out", "eval.csv", *ARCH],
    ["export-embeddings", "--data", "data.bin", "--checkpoint", "pre.ckpt", "--out", "emb.csv",
     *ARCH],
    ["ablate", "--data", "data.bin", "--out", "ablate.csv", "--mask-counts", "1,2",
     "--epochs", "1", "--seed", "2019", *ARCH],
    ["pretrain", "--config", "pre.cfg", "--data", "data.bin", "--checkpoint", "pre_cfg.ckpt",
     "--out", "pre_cfg.csv"],
]

# ARCH as config-file lines, plus the epochs and seed of the config-file pretrain.
CONFIG = "".join(f"{flag[2:].replace('-', '_')}={value}\n"
                 for flag, value in zip(ARCH[::2], ARCH[1::2])) + "epochs=1\nseeds=2019\n"


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--no-worker", action="store_true",
                    help="run every worker's requests in this process")
    args = ap.parse_args(argv)

    import mtslof
    from mtslof import parallel
    from mtslof.cli import main as cli_main

    print(f"mtslof from {os.path.dirname(mtslof.__file__)}", file=sys.stderr)
    if args.no_worker:
        parallel.worker_can_run = lambda: False
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with open("pre.cfg", "w", encoding="utf-8") as fh:
                fh.write(CONFIG)
            for argv_ in SESSION:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli_main(argv_)
                print(f"{argv_[0]}: exit {code} stdout {sha256(out.getvalue().encode())}")
            for name in sorted(os.listdir(work)):
                with open(name, "rb") as fh:
                    print(f"{sha256(fh.read())}  {name}")
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
