"""The names the benchmark's tracer wraps still exist where it looks them up.

`perfbench/spans.py` patches functions and methods of `mvdetr` from outside
the package, by module and attribute name. A rename or removal breaks only
traced benchmark runs, so this test installs every patch and takes it out
again.
"""

import importlib.util
import os
import sys

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "spans.py")


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_exists_and_is_restored(monkeypatch):
    spans = _load_spans(monkeypatch)
    points = [(module, path) for module, path, _, _ in spans.SPAN_POINTS + spans.COUNT_POINTS]

    def current():
        out = []
        for module, path in points:
            owner, attr = spans._owner(module, path)
            out.append(owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
        return out

    originals = current()
    patches = spans.Patches()
    try:
        spans.install(spans.Tracer(), patches)
        wrapped = current()
    finally:
        patches.restore()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(r is o for r, o in zip(current(), originals))
