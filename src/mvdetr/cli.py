"""Operator entry point wiring all modules into reproducible runs.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure. The
SDTR_THREADS environment variable caps BLAS worker threads (it must take
effect before numpy loads, which is why the heavy imports happen after the
environment block below).
"""

from __future__ import annotations

import argparse
import os
import sys

if "SDTR_THREADS" in os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["SDTR_THREADS"])


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="mvdetr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the config flags every command that builds a RunConfig takes
    config_flags = _Parser(add_help=False)
    config_flags.add_argument("--config", help="key=value config file")
    config_flags.add_argument("--set", action="append", default=[], dest="overrides",
                              metavar="KEY=VALUE")

    p = sub.add_parser("gen-data", help="generate a synthetic detection dataset")
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=160)

    for name in ("pretrain", "finetune"):
        p = sub.add_parser(name, help=f"run {name}ing", parents=[config_flags])
        p.add_argument("--data", required=True, help="dataset manifest")
        p.add_argument("--out", required=True)
        if name == "pretrain":
            p.add_argument("--resume", help="checkpoint to resume from")
        else:
            p.add_argument("--init", default="scratch",
                           help="'scratch' or a pretraining checkpoint path")
            p.add_argument("--seed", type=int, default=0,
                           help="finetuning seed (class head, data order)")

    p = sub.add_parser("eval", help="COCO-style metrics for a checkpoint",
                       parents=[config_flags])
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out")
    p.add_argument("--score", choices=("class", "match"), default="class")

    p = sub.add_parser("probe", help="frozen-head AR@K comparison", parents=[config_flags])
    p.add_argument("--data", required=True, help="labeled training manifest")
    p.add_argument("--eval-data", required=True, help="labeled eval manifest")
    p.add_argument("--init", required=True, help="pretraining checkpoint")
    p.add_argument("--out")
    p.add_argument("--epochs", type=_positive_int, default=10)
    p.add_argument("--seeds", type=_positive_int, default=3)

    p = sub.add_parser("export-attn", help="write per-query attention PGMs",
                       parents=[config_flags])
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help="PPM image path")
    p.add_argument("--out", required=True)
    return parser


def _load_config(args):
    from .config import ConfigError, parse_config
    text = ""
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            raise ConfigError(f"cannot read {args.config}: {e.strerror}") from None
        except UnicodeDecodeError as e:
            raise ConfigError(f"{args.config} is not UTF-8 text: {e}") from None
    return parse_config(text, args.overrides)


def _numerics_notes() -> list[str]:
    """The numpy build, BLAS thread cap and malloc thresholds a run's timings
    depend on."""
    import numpy as np
    from .tensor import MALLOC_THRESHOLDS
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas_text = "unknown"
    if MALLOC_THRESHOLDS is None:
        malloc_text = "platform allocator left as it is"
    else:
        malloc_text = "mmap threshold {} B, trim threshold {} B".format(*MALLOC_THRESHOLDS)
    return [f"numpy: {np.__version__}", f"blas: {blas_text}",
            f"SDTR_THREADS: {os.environ.get('SDTR_THREADS', 'unset')}",
            f"malloc: {malloc_text}"]


def _write_run_manifest(out_dir: str, cfg, argv: list[str], notes: list[str]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "run.txt"), "w", encoding="utf-8") as f:
        f.write("command: " + " ".join(argv) + "\n")
        for note in notes + _numerics_notes():
            f.write(note + "\n")
        f.write("-- resolved config --\n")
        f.write(cfg.resolved_text())


def _cmd_gen_data(args) -> int:
    from .data import SceneSpec, generate_dataset
    spec = SceneSpec(image_size=args.size, seed=args.seed)
    manifest = generate_dataset(args.count, spec, args.out)
    print(f"wrote {args.count} images; manifest at {manifest}")
    return 0


def _cmd_pretrain(args, argv) -> int:
    from .data import load_dataset
    from .training import run_pretrain
    cfg = _load_config(args)
    images = [pixels for pixels, _, _ in load_dataset(args.data)]
    notes = [f"data: {args.data}", f"resume: {args.resume or 'none'}"]
    ckpt, csv_path = run_pretrain(
        cfg, images, args.out, resume_from=args.resume,
        log=lambda msg: print(msg, flush=True),
        on_start=lambda: _write_run_manifest(args.out, cfg, argv, notes))
    print(f"final checkpoint: {ckpt}")
    print(f"metrics: {csv_path}")
    return 0


def _load_model(path, cfg, class_head: bool):
    """A model and backbone built from cfg, with a checkpoint's arrays loaded,
    plus those arrays. The checkpoint's architecture keys and entries must
    match cfg's model; its class head, if it has one, is loaded only with
    `class_head`. Every fault names the file."""
    from .backbone import FrozenBackbone
    from .checkpoint import load_checkpoint
    from .training import check_architecture, make_model, split_checkpoint
    params, _, meta = split_checkpoint(load_checkpoint(path))
    backbone = FrozenBackbone(cfg.backbone_seed)
    model = make_model(cfg, backbone)
    if class_head and any(n.startswith("class_head") for n in params):
        model.add_class_head(cfg.data_classes, seed=0)
    try:
        check_architecture(meta, cfg)
        model.load_state(params)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return model, backbone, params


def _cmd_finetune(args, argv) -> int:
    from .checkpoint import save_checkpoint
    from .data import load_dataset
    from .training import checkpoint_entries, labeled_item, run_finetune
    cfg = _load_config(args)
    items = [labeled_item(px, boxes, labels)
             for px, boxes, labels in load_dataset(args.data, cfg.data_classes)]
    init_arrays = (None if args.init == "scratch"
                   else _load_model(args.init, cfg, class_head=False)[2])
    notes = [f"data: {args.data}", f"init: {args.init}", f"finetune_seed: {args.seed}"]
    model, losses = run_finetune(
        cfg, items, seed=args.seed, init_arrays=init_arrays,
        log=lambda msg: print(msg, flush=True),
        on_start=lambda: _write_run_manifest(args.out, cfg, argv, notes))
    out_ckpt = os.path.join(args.out, "finetuned.ckpt")
    save_checkpoint(out_ckpt, checkpoint_entries(model, None, cfg, 0))
    with open(os.path.join(args.out, "loss.csv"), "w", encoding="ascii") as f:
        f.write("step,loss\n")
        for i, v in enumerate(losses):
            f.write(f"{i},{v:.9g}\n")
    print(f"finetuned checkpoint: {out_ckpt}")
    return 0


def _cmd_eval(args, argv) -> int:
    from .data import load_dataset
    from .metrics import check_eval_set, evaluate_model
    cfg = _load_config(args)
    model, backbone, _ = _load_model(args.checkpoint, cfg, class_head=True)
    dataset = load_dataset(args.data, cfg.data_classes)
    check_eval_set(dataset)  # reported ahead of a missing class head
    if args.score == "class" and "class_head.weight" not in model.params:
        raise ValueError(f"checkpoint {args.checkpoint} has no class head; "
                         "score it with --score match")
    report = evaluate_model(model, backbone, dataset, cfg.data_classes,
                            score_source=args.score, view_size=cfg.view_size)
    print(report.as_csv(), end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "metrics.csv"), "w", encoding="ascii") as f:
            f.write(report.as_csv())
    return 0


def _cmd_probe(args, argv) -> int:
    from .data import load_dataset
    from .metrics import check_eval_set, evaluate_model
    from .training import labeled_item, run_finetune
    cfg = _load_config(args)
    cfg.finetune_freeze_transformer = True
    cfg.finetune_epochs = args.epochs
    train_items = [labeled_item(px, b, l)
                   for px, b, l in load_dataset(args.data, cfg.data_classes)]
    eval_set = load_dataset(args.eval_data, cfg.data_classes)
    check_eval_set(eval_set)  # before any training, not after the first run
    _, backbone, params = _load_model(args.init, cfg, class_head=False)

    rows = []
    for label, init_arrays in (("pretrained", params), ("random", None)):
        ar1s, ar10s = [], []
        for s in range(args.seeds):
            model, _ = run_finetune(cfg, train_items, seed=s, init_arrays=init_arrays)
            report = evaluate_model(model, backbone, eval_set, cfg.data_classes,
                                    view_size=cfg.view_size)
            ar1s.append(report.ar1)
            ar10s.append(report.ar10)
        rows.append((label, float(sum(ar1s) / len(ar1s)),
                     float(sum(ar10s) / len(ar10s))))
    table = "init,ar1,ar10\n" + "".join(f"{r[0]},{r[1]:.6f},{r[2]:.6f}\n" for r in rows)
    print(table, end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "probe.csv"), "w", encoding="ascii") as f:
            f.write(table)
    return 0


def _cmd_export_attn(args, argv) -> int:
    from .data import read_ppm
    from .metrics import export_attention
    cfg = _load_config(args)
    model, backbone, _ = _load_model(args.checkpoint, cfg, class_head=True)
    pixels = read_ppm(args.image)
    paths = export_attention(model, backbone, pixels, args.out)
    print(f"wrote {len(paths) - 1} attention maps + sidecar to {args.out}")
    return 0


_COMMANDS = {
    "gen-data": lambda a, argv: _cmd_gen_data(a),
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "eval": _cmd_eval,
    "probe": _cmd_probe,
    "export-attn": _cmd_export_attn,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    from .config import ConfigError
    try:
        return _COMMANDS[args.command](args, argv)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
