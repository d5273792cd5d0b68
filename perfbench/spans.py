"""In-memory span tracer and the mvdetr call sites it wraps.

A span records its name, start, end and the span that was open when it
began. Spans stay in memory and are written out when the run ends. The self
time of a span is its duration minus the part of it covered by its child
spans.

The wrappers are installed from outside the program: each name is patched
where its caller looks it up (``mvdetr.training.clip_global_norm``, not
``mvdetr.optim.clip_global_norm``), so nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Collects spans and event counts for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, self.clock(), float("nan"), parent)
        self.spans.append(span)
        self._open.append(span.id)
        return span.id

    def end(self, span_id: int) -> None:
        if not self._open or self._open[-1] != span_id:
            raise RuntimeError(f"span {span_id} closed out of order")
        self._open.pop()
        self.spans[span_id].end = self.clock()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def wrap(self, name: str, fn, counter=None):
        """`fn` inside a span; `counter(tracer, args, result)` may add counts after it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span_id)
            if counter is not None:
                counter(self, args, result)
            return result
        return traced

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span, indexed by span id."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def aggregate(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Total self seconds and call count per span name."""
    totals: dict[str, tuple[float, int]] = {}
    for s, self_s in zip(spans, self_times(spans)):
        t, n = totals.get(s.name, (0.0, 0))
        totals[s.name] = (t + self_s, n + 1)
    return totals


# -- call sites ------------------------------------------------------------------------


def _count_rows(tracer, args, result):
    tracer.count("backbone.extract_batch.rows", args[1].shape[0])


def _count_padded(tracer, args, result):
    tracer.count("views.pairs")
    tracer.count("views.padded", float(result.padded))


def _count_matchings(tracer, args, result):
    tracer.count("losses.matchings")


def _count_bytes(tracer, args, result):
    tracer.count("checkpoint.save_checkpoint.bytes", os.path.getsize(args[0]))


# (module, attribute path, span name, counter). The attribute is where the
# caller looks the name up; methods are patched on their class.
SPAN_POINTS = (
    ("mvdetr.data", "load_dataset", "data.load_dataset", None),
    ("mvdetr.training", "build_view_pair", "views.build_view_pair", _count_padded),
    ("mvdetr.views", "crop_resize", "views.crop_resize", None),
    ("mvdetr.views", "generate_proposals", "views.generate_proposals", None),
    ("mvdetr.views", "augment", "views.augment", None),
    ("mvdetr.backbone", "FrozenBackbone.extract_batch", "backbone.extract_batch",
     _count_rows),
    ("mvdetr.backbone", "FrozenBackbone.crop_features_multi",
     "backbone.crop_features_multi", None),
    ("mvdetr.backbone", "FrozenBackbone.object_level_features",
     "backbone.object_level_features", None),
    ("mvdetr.backbone", "roi_align", "geometry.roi_align", None),
    ("mvdetr.model", "Detr.encode", "model.encode", None),
    ("mvdetr.model", "Detr.decode", "model.decode", None),
    ("mvdetr.model", "Detr.mha", "model.mha", None),
    ("mvdetr.model", "Detr.predict", "model.predict", None),
    ("mvdetr.model", "Detr.project_context", "model.project_context", None),
    ("mvdetr.losses", "matching_cost", "losses.matching_cost", None),
    ("mvdetr.losses", "finetune_matching_cost", "losses.finetune_matching_cost", None),
    ("mvdetr.losses", "hungarian", "losses.hungarian", _count_matchings),
    ("mvdetr.tensor", "Tensor.backward", "tensor.backward", None),
    ("mvdetr.training", "clip_global_norm", "optim.clip_global_norm", None),
    ("mvdetr.optim", "AdamW.step", "optim.AdamW.step", None),
    ("mvdetr.training", "save_checkpoint", "checkpoint.save_checkpoint", _count_bytes),
    ("mvdetr.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", None),
    ("mvdetr.training", "pretrain_step", "training.pretrain_step", None),
    ("mvdetr.training", "finetune_step", "training.finetune_step", None),
    ("mvdetr.metrics", "detect_batch", "metrics.detect_batch", None),
    ("mvdetr.metrics", "evaluate_detections", "metrics.evaluate_detections", None),
)

SPAN_NAMES = tuple(name for _, _, name, _ in SPAN_POINTS)


def _on_tape(out) -> bool:
    return bool(out._parents)


# Counted without a span: these run hundreds of times per step. The optional
# predicate decides from the result whether a call counts.
COUNT_POINTS = (
    ("mvdetr.losses", "_solve_lap", "losses.lap_solves", None),
    ("mvdetr.tensor", "_make", "tensor.tape_nodes", _on_tape),
    ("mvdetr.geometry", "_make", "tensor.tape_nodes", _on_tape),
)


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        obj = getattr(obj, p)
    return obj, attr


class Patches:
    """Attribute replacements that `restore` undoes in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module: str, path: str, make):
        owner, attr = _owner(module, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _counted(tracer: Tracer, name: str, fn, keep):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        if keep is None or keep(out):
            tracer.count(name)
        return out
    return counted


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every call site in SPAN_POINTS and COUNT_POINTS."""
    for module, path, name, counter in SPAN_POINTS:
        patches.replace(module, path,
                        lambda fn, name=name, counter=counter: tracer.wrap(name, fn, counter))
    for module, path, name, keep in COUNT_POINTS:
        patches.replace(module, path,
                        lambda fn, name=name, keep=keep: _counted(tracer, name, fn, keep))
