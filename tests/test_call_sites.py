"""The benchmark's view of `mvdetr` still matches the package.

`perfbench/` drives `mvdetr` from outside: `spans.py` patches functions and
methods by module and attribute name, `workloads.py` names config overrides
and the call each operation is timed around, and `worker.py` and
`workloads.py` import names from the package. A renamed or removed name or
key breaks only a benchmark run, so these tests read those files (without
changing them) and check every name and key against the package.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import sys

import pytest

from mvdetr.config import parse_config

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_exists_and_is_restored(monkeypatch):
    spans = _load(monkeypatch, "spans")
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


def test_every_workload_config_parses(monkeypatch):
    for w in _load(monkeypatch, "workloads").WORKLOADS.values():
        parse_config("", list(w.overrides))
        parse_config("", list(w.ckpt_overrides))


def test_each_timed_call_takes_a_batch_list_at_size_arg(monkeypatch):
    for w in _load(monkeypatch, "workloads").WORKLOADS.values():
        module, attr = w.op.split(".")
        fn = getattr(importlib.import_module("mvdetr." + module), attr)
        param = list(inspect.signature(fn).parameters.values())[w.size_arg]
        assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, (w.op, param)
        assert str(param.annotation).startswith("list["), (w.op, param)


def _mvdetr_names(path):
    """(module, name) for every `from mvdetr... import name` in a file, and
    for every attribute it reads off a submodule imported that way."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 0
             and node.module.split(".")[0] == "mvdetr" for alias in node.names]
    submodules = {name for module, name in names if module == "mvdetr"}
    names += [(f"mvdetr.{node.value.id}", node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in submodules]
    return names


@pytest.mark.parametrize("script", ["worker.py", "workloads.py"])
def test_every_imported_name_exists(script):
    names = _mvdetr_names(os.path.join(PERFBENCH, script))
    assert names
    for module, name in names:
        owner = importlib.import_module(module)
        found = hasattr(owner, name) or (  # a submodule not imported yet
            hasattr(owner, "__path__")
            and importlib.util.find_spec(f"{module}.{name}") is not None)
        assert found, f"{script}: from {module} import {name}"
