"""One workload process: set up, make the main call, time each operation.

    python3 perfbench/worker.py <request.json>

The request names the workload, its input files, the output directory,
whether to trace, and the monotonic clock reading taken just before this
process was spawned. The result goes to ``result.json`` in the output
directory. An operation that raises is counted as failed; the process still
writes its result and exits 0.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import resource
import sys
import time

import spans
from workloads import EVAL_BATCH, WORKLOADS


class OpTimer:
    """Two clock reads around each call of the workload's one operation."""

    def __init__(self, size_arg: int, count_results: bool):
        self.size_arg = size_arg
        self.count_results = count_results
        self.results = 0  # items returned by the operations, e.g. detections
        self.first_start: float | None = None  # time.monotonic(), comparable across processes
        self.times: list[float] = []
        self.images = 0
        self.attempted = 0
        self.failed = 0
        self.in_op_failure = False

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self.first_start is None:
                self.first_start = time.monotonic()
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed += 1
                self.in_op_failure = True
                raise
            self.times.append(time.perf_counter() - start)
            self.images += len(args[self.size_arg])
            if self.count_results:
                self.results += len(result)
            return result
        return timed


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _setup(name: str, inputs: dict):
    """Everything before the main call, whose cost is part of setup_s.

    Returns (config, main-call state, number of operations the call makes).
    """
    from mvdetr import checkpoint, data
    from mvdetr.config import parse_config
    from mvdetr.training import labeled_item
    w = WORKLOADS[name]
    cfg = parse_config("", list(w.overrides))
    dataset = data.load_dataset(inputs["manifest"])
    if name == "pretrain":
        expected = len(dataset) // cfg.train_batch_size * cfg.train_epochs
        return cfg, [pixels for pixels, _, _ in dataset], expected
    if name == "finetune":
        expected = len(dataset) // cfg.finetune_batch_size * cfg.finetune_epochs
        return cfg, [labeled_item(px, b, l) for px, b, l in dataset], expected
    from mvdetr.backbone import FrozenBackbone
    from mvdetr.training import check_architecture, make_model, split_checkpoint
    params, _, meta = split_checkpoint(checkpoint.load_checkpoint(inputs["checkpoint"]))
    check_architecture(meta, cfg)
    backbone = FrozenBackbone(cfg.backbone_seed)
    model = make_model(cfg, backbone)
    model.add_class_head(cfg.data_classes, seed=0)
    model.load_state(params)
    return cfg, (model, backbone, dataset), -(-len(dataset) // EVAL_BATCH)


def _main_call(name: str, cfg, state, out_dir: str) -> dict:
    """The workload's public entry point; returns the outputs to check."""
    from mvdetr import metrics, training
    if name == "pretrain":
        ckpt, csv_path = training.run_pretrain(cfg, state, os.path.join(out_dir, "run"))
        with open(csv_path, encoding="ascii") as f:
            text = f.read()
        rows = [line.split(",") for line in text.splitlines()[1:]]
        ckpts = sorted(p for p in os.listdir(os.path.dirname(ckpt)) if p.endswith(".ckpt"))
        return {"metrics_csv": text,
                "losses": [float(r[3]) for r in rows],
                "last_epoch_losses": [float(r[3]) for r in rows if r[1] == rows[-1][1]],
                "checkpoints": {p: _sha256(os.path.join(os.path.dirname(ckpt), p))
                                for p in ckpts}}
    if name == "finetune":
        _, losses = training.run_finetune(cfg, state, seed=0)
        per_epoch = len(state) // cfg.finetune_batch_size
        return {"losses": losses, "loss_list": "\n".join(repr(v) for v in losses),
                "last_epoch_losses": losses[-per_epoch:]}
    model, backbone, dataset = state
    report = metrics.evaluate_model(model, backbone, dataset, cfg.data_classes,
                                    score_source="class", view_size=cfg.view_size,
                                    batch=EVAL_BATCH)
    return {"report": report.as_csv()}


def run(request: dict) -> dict:
    """Run one workload process's worth of work and return its result."""
    name = request["workload"]
    w = WORKLOADS[name]
    patches = spans.Patches()
    tracer = spans.Tracer() if request["trace"] else None
    timer = OpTimer(w.size_arg, count_results=name == "eval")
    try:
        if tracer is not None:
            spans.install(tracer, patches)
        module, attr = w.op.split(".")
        patches.replace("mvdetr." + module, attr, timer.wrap)
        cfg, state, expected_ops = _setup(name, request["inputs"])
        outputs, error = {}, None
        main_start = time.perf_counter()
        try:
            outputs = _main_call(name, cfg, state, request["out_dir"])
        except Exception as e:  # one failed operation ends this process's main call
            error = f"{type(e).__name__}: {e}"
            if not timer.in_op_failure:  # raised while preparing the next operation
                timer.attempted += 1
                timer.failed += 1
        main_s = time.perf_counter() - main_start
    finally:
        patches.restore()
    if name == "eval":
        outputs["detections"] = timer.results
    result = {
        "workload": name,
        "setup_s": (None if timer.first_start is None
                    else timer.first_start - request["spawned_at"]),
        "main_s": main_s,
        "images": timer.images,
        "op_times": timer.times,
        "expected_ops": expected_ops,
        "attempted": timer.attempted,
        "failed": timer.failed,
        "error": error,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = tracer.dump()
        result["counts"] = tracer.counts
    return result


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as f:
        request = json.load(f)
    result = run(request)
    with open(os.path.join(request["out_dir"], "result.json"), "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
