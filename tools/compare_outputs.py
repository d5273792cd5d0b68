#!/usr/bin/env python3
"""Check that two source trees write byte-identical CLI outputs.

    python tools/compare_outputs.py A B

Each side is a git ref of this repository (exported with `git archive`) or a
directory that holds `src/`. Both sides run the same CLI matrix (`MATRIX`:
two datasets, three pretraining runs, three finetuning runs, eval with each
score source, export-attn, probe, the first pretraining run resumed from
its checkpoint and optimizer state, a run with the localization loss only,
a run with one batch per epoch, and a 40-image set scored with each score
source in three batches), each in its own directory under
the same relative paths, with `PYTHONPATH=<side>/src` and `SDTR_THREADS=1`; the
two sides run side by side. Then the sha256 of every output file except
`run.txt` (which names the numpy build and the command line) is compared.

Prints `N of N files equal` and exits 0, or names each file that differs
(or exists on one side only) and exits 1. A command that fails stops its
side: the tool prints its stderr and exits 1. Outputs go to a temporary
directory that is removed. Standard library only; the whole matrix takes
about 10 s on two cores.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_PRETRAIN = ("pretrain", "--data", "data/train/manifest.txt",
             "--set", "train.epochs=2", "--set", "train.decay_epoch=1")
_FINETUNE = ("finetune", "--data", "data/train/manifest.txt",
             "--init", "pre/epoch_0002.ckpt", "--set", "finetune.epochs=2")

# run in order on each side; later commands read earlier outputs
MATRIX = (
    ("gen-data", "--count", "16", "--seed", "5", "--out", "data/train"),
    ("gen-data", "--count", "8", "--seed", "6", "--out", "data/val"),
    _PRETRAIN + ("--out", "pre"),
    _PRETRAIN + ("--out", "pre_no_global", "--set", "loss.lambda_g=0"),
    _PRETRAIN + ("--out", "pre_object", "--set", "loss.region_target=object",
                 "--set", "proposals.mode=random"),
    _FINETUNE + ("--out", "ft"),
    _FINETUNE + ("--out", "ft_aux", "--set", "model.aux_loss=true"),
    _FINETUNE + ("--out", "ft_frozen", "--set", "finetune.freeze_transformer=true"),
    ("eval", "--data", "data/val/manifest.txt", "--checkpoint", "ft/finetuned.ckpt",
     "--score", "class", "--out", "eval_class"),
    ("eval", "--data", "data/val/manifest.txt", "--checkpoint", "pre/epoch_0002.ckpt",
     "--score", "match", "--out", "eval_match"),
    ("export-attn", "--checkpoint", "pre/epoch_0002.ckpt",
     "--image", "data/val/img_00000.ppm", "--out", "attn"),
    ("probe", "--data", "data/train/manifest.txt", "--eval-data", "data/val/manifest.txt",
     "--init", "pre/epoch_0002.ckpt", "--epochs", "2", "--seeds", "1", "--out", "probe"),
    # resumes the first run from its epoch-2 checkpoint, optimizer state included
    _PRETRAIN + ("--out", "pre_resumed", "--set", "train.epochs=3",
                 "--resume", "pre/epoch_0002.ckpt"),
    # no region or global term, so the batch producer builds no region targets
    _PRETRAIN + ("--out", "pre_loc_only", "--set", "loss.lambda_r=0",
                 "--set", "loss.lambda_g=0"),
    # one batch per epoch: every batch the producer builds starts an epoch
    _PRETRAIN + ("--out", "pre_one_batch", "--set", "train.batch_size=16"),
    # three eval batches of 16, the last ragged: the producer builds the third
    ("gen-data", "--count", "40", "--seed", "7", "--out", "data/val40"),
    ("eval", "--data", "data/val40/manifest.txt", "--checkpoint", "ft/finetuned.ckpt",
     "--score", "class", "--out", "eval40_class"),
    ("eval", "--data", "data/val40/manifest.txt", "--checkpoint", "pre/epoch_0002.ckpt",
     "--score", "match", "--out", "eval40_match"),
)

SKIPPED = {"run.txt"}


def source_tree(side: str, dest: Path) -> Path:
    """The `src/` directory of a side: the directory itself, or the git ref
    exported into dest."""
    if (Path(side) / "src").is_dir():
        return (Path(side) / "src").resolve()
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", side],
                         capture_output=True)
    if tar.returncode != 0:
        raise SystemExit(f"{side!r} is neither a directory with src/ nor a git ref: "
                         f"{tar.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        # the "data" filter where this Python has extraction filters
        archive.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter")
                                    else {}))
    return dest / "src"


def run_matrix(src: Path, out: Path) -> str | None:
    """Run every MATRIX command in out; None, or the failure report."""
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src), SDTR_THREADS="1")
    for cmd in MATRIX:
        done = subprocess.run([sys.executable, "-m", "mvdetr", *cmd], cwd=out, env=env,
                              capture_output=True, text=True)
        if done.returncode != 0:
            return (f"`mvdetr {' '.join(cmd)}` exited {done.returncode}:\n"
                    f"{done.stderr.rstrip()}")
    return None


def digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name not in SKIPPED}


def compare(a: str, b: str, work: Path) -> int:
    sides, outs = (a, b), (work / "a" / "out", work / "b" / "out")
    srcs = [source_tree(side, out.parent / "tree") for side, out in zip(sides, outs)]
    with ThreadPoolExecutor(len(sides)) as pool:
        failures = list(pool.map(run_matrix, srcs, outs))
    for side, failure in zip(sides, failures):
        if failure:
            print(f"{side}: {failure}", file=sys.stderr)
    if any(failures):
        return 1
    da, db = digests(outs[0]), digests(outs[1])
    names = sorted(set(da) | set(db))
    differ = [n for n in names if da.get(n) != db.get(n)]
    for n in differ:
        where = "differs" if n in da and n in db else f"only in {a if n in da else b}"
        print(f"{n}: {where}")
    print(f"{len(names) - len(differ)} of {len(names)} files equal")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="git ref or directory holding src/")
    parser.add_argument("b", help="git ref or directory holding src/")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        return compare(args.a, args.b, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
