"""The benchmark's view of `mvdetr` still matches the package.

`perfbench/` drives `mvdetr` from outside: `spans.py` patches functions and
methods by module and attribute name, `workloads.py` names config overrides
and the call each operation is timed around, and `worker.py` and
`workloads.py` import names from the package and call them. A renamed or
removed name, key or parameter breaks only a benchmark run, so these tests
read those files (without changing them) and check every name, key and call
against the package.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import sys

import pytest

from mvdetr.config import parse_config
from mvdetr.model import Detr

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


def _mvdetr_calls(path):
    """(line, callee, positional count, keyword names) of every call in a file
    to a name imported from `mvdetr`, to an attribute of an `mvdetr`
    submodule imported by name, or to a method of the local `model` (a
    `Detr`, whose `self` then counts as one more positional argument)."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "mvdetr":
            for alias in node.names:
                imported[alias.asname or alias.name] = _import_name(node.module, alias.name)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, extra = node.func, 0
        if isinstance(func, ast.Name) and func.id in imported:
            callee = imported[func.id]
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner = func.value.id
            if owner == "model":
                callee, extra = getattr(Detr, func.attr), 1
            elif inspect.ismodule(imported.get(owner)):
                callee = getattr(imported[owner], func.attr)
            else:
                continue
        else:
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args) \
            and all(k.arg for k in node.keywords), f"{path}:{node.lineno}: unpacked arguments"
        calls.append((node.lineno, callee, len(node.args) + extra,
                      [k.arg for k in node.keywords]))
    return calls


def _import_name(module, name):
    """`from module import name`: an attribute, or a submodule not imported yet."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")


@pytest.mark.parametrize("script", ["worker.py", "workloads.py"])
def test_every_call_into_the_package_binds(script):
    calls = _mvdetr_calls(os.path.join(PERFBENCH, script))
    assert calls
    for line, callee, positional, keywords in calls:
        try:
            inspect.signature(callee).bind(*range(positional), **dict.fromkeys(keywords))
        except TypeError as e:
            pytest.fail(f"{script}:{line}: {callee.__qualname__}: {e}")
