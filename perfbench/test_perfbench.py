"""Self-tests of the tracer, the metric aggregation and each workload.

    PYTHONPATH=src python3 -m pytest -q perfbench

The smoke tests run every workload in-process on a few images and check that
all metrics named in BENCHMARK.json come out, finite.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _tracer(times):
    return spans.Tracer(clock=iter(times).__next__)


def test_self_time_of_nested_spans():
    t = _tracer([0.0, 2.0, 3.0, 4.0, 5.0, 10.0])
    a = t.begin("a")
    b = t.begin("b")
    c = t.begin("c")
    t.end(c)
    t.end(b)
    t.end(a)
    assert spans.self_times(t.spans) == [7.0, 2.0, 1.0]
    assert [s.parent for s in t.spans] == [None, 0, 1]


def test_self_time_of_sibling_spans():
    t = _tracer([0.0, 1.0, 3.0, 4.0, 8.0, 10.0])
    a = t.begin("a")
    for name in ("b", "c"):
        t.end(t.begin(name))
    t.end(a)
    assert spans.self_times(t.spans) == [4.0, 2.0, 4.0]
    assert [s.parent for s in t.spans] == [None, 0, 0]


def test_wrapped_call_that_raises_still_closes_its_span():
    t = _tracer([0.0, 1.0, 2.0, 3.0])

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        t.wrap("boom", boom)()
    t.end(t.begin("next"))
    assert [(s.name, s.parent) for s in t.spans] == [("boom", None), ("next", None)]
    assert t.spans[0].end == 1.0


def test_aggregate_sums_self_time_and_calls_per_name():
    t = _tracer([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    root = t.begin("step")
    for _ in range(2):
        t.end(t.begin("leaf"))
    t.end(t.begin("other"))
    t.end(root)
    assert spans.aggregate(t.spans) == {"step": (5.0, 1), "leaf": (2.0, 2),
                                        "other": (3.0, 1)}


def test_per_layer_normalises_per_operation():
    traced = [{
        "attempted": 4, "images": 8, "main_s": 2.0, "op_times": [0.5] * 4,
        "spans": [dataclasses.asdict(s) for s in (
            spans.Span(0, "model.encode", 0.0, 1.0, None),
            spans.Span(1, "model.mha", 0.2, 0.6, 0),
        )],
        "counts": {"losses.lap_solves": 12.0, "losses.matchings": 8.0,
                   "tensor.tape_nodes": 40.0, "views.pairs": 4.0, "views.padded": 1.0},
    }]
    untraced = [{"attempted": 4, "images": 8, "main_s": 1.0, "op_times": [0.2] * 4}]
    m = run.per_layer(traced, untraced)
    assert m["model.encode.self_ms"] == pytest.approx(150.0)
    assert m["model.mha.self_ms"] == pytest.approx(100.0)
    assert m["model.encode.calls"] == 0.25
    assert m["losses.lap_solves_per_match"] == 1.5
    assert m["tensor.tape_nodes"] == 10.0
    assert m["views.padded_frac"] == 0.25
    assert m["training.input_wait_ms"] == pytest.approx(50.0)
    assert m["trace.overhead_frac"] == pytest.approx(0.5)


def test_patches_are_restored():
    import mvdetr.model
    import mvdetr.training
    before = (mvdetr.training.pretrain_step, mvdetr.model.Detr.__dict__["encode"])
    patches = spans.Patches()
    spans.install(spans.Tracer(), patches)
    assert mvdetr.training.pretrain_step is not before[0]
    patches.restore()
    assert (mvdetr.training.pretrain_step, mvdetr.model.Detr.__dict__["encode"]) == before


SMALL = {"pretrain": {"images": 8}, "finetune": {"images": 8},
         "eval": {"images": 16, "ckpt_images": 8}}
# spans that must (and must not) appear on each workload
PRESENT = {"pretrain": ("views.build_view_pair", "geometry.roi_align", "losses.hungarian",
                        "checkpoint.save_checkpoint", "tensor.backward"),
           "finetune": ("losses.finetune_matching_cost", "optim.AdamW.step", "model.encode"),
           "eval": ("metrics.detect_batch", "metrics.evaluate_detections",
                    "checkpoint.load_checkpoint", "views.crop_resize")}
ABSENT = {"pretrain": ("metrics.detect_batch",),
          "finetune": ("views.build_view_pair", "geometry.roi_align"),
          "eval": ("tensor.backward", "losses.hungarian", "optim.AdamW.step")}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_run_emits_every_metric(name, tmp_path, monkeypatch):
    small = dataclasses.replace(workloads.WORKLOADS[name], **SMALL[name])
    monkeypatch.setitem(workloads.WORKLOADS, name, small)
    inputs = workloads.prepare_inputs(small, 3, str(tmp_path / "cache"), SRC)
    results = []
    for i, trace in enumerate((False, True, False)):
        out = tmp_path / f"p{i}"
        out.mkdir()
        results.append(worker.run({"workload": name, "inputs": inputs, "trace": trace,
                                   "out_dir": str(out), "spawned_at": time.monotonic()}))
    run.check(name, results)  # includes traced vs untraced identity
    untraced = [r for r in results if "spans" not in r]
    traced = [r for r in results if "spans" in r]
    e2e, _ = run.end_to_end(untraced, inputs.get("checkpoint_loss"))
    layer = run.per_layer(traced, untraced)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert {k: run.END_TO_END_UNITS[k] for k in e2e} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert {k: run.LAYER_UNITS[k] for k in layer} == {
        m["name"]: m["unit"] for m in bench["per_layer"]}
    assert all(math.isfinite(v) and v > 0 for v in e2e.values())
    assert all(math.isfinite(v) for v in layer.values())
    for span in PRESENT[name]:
        assert layer[f"{span}.calls"] > 0, span
    for span in ABSENT[name]:
        assert layer[f"{span}.calls"] == 0, span


def test_failed_operation_is_counted_not_fatal(tmp_path, monkeypatch):
    small = dataclasses.replace(workloads.WORKLOADS["finetune"], images=8)
    monkeypatch.setitem(workloads.WORKLOADS, "finetune", small)
    inputs = workloads.prepare_inputs(small, 3, str(tmp_path / "cache"), SRC)
    import mvdetr.losses

    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(mvdetr.losses, "hungarian", broken)
    r = worker.run({"workload": "finetune", "inputs": inputs, "trace": False,
                    "out_dir": str(tmp_path), "spawned_at": time.monotonic()})
    assert (r["attempted"], r["failed"], r["op_times"]) == (1, 1, [])
    assert "injected" in r["error"]
    with pytest.raises(run.BenchError, match="workload finetune: check failed"):
        run.check("finetune", [r])


def test_mismatch_between_repetitions_fails_the_check():
    base = {"failed": 0, "attempted": 2, "expected_ops": 2, "error": None}
    a = dict(base, outputs={"report": "ap\n0.5\n", "detections": 3})
    b = dict(base, outputs={"report": "ap\n0.5\n", "detections": 4})
    with pytest.raises(run.BenchError, match="eval: check failed: detections identical"):
        run.check("eval", [a, b])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
