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

import numpy as np
import pytest

from mvdetr import geometry as G, tensor as T
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


def _loss_through_every_op():
    """A scalar built from one call of every public op of `tensor`, of
    `Tensor.detach` and of `geometry.roi_align`; every node recorded on the way
    feeds it. Also returns the names of the ops called."""
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.uniform(0.5, 2.0, (4, 4)), requires_grad=True)  # log needs x > 0
    w = T.Tensor(rng.uniform(-1.0, 1.0, (4, 4)), requires_grad=True)
    b = T.Tensor(rng.uniform(0.5, 2.0, 4), requires_grad=True)
    q = T.Tensor(rng.uniform(-1.0, 1.0, (1, 4, 4)), requires_grad=True)
    ops = {
        "add": lambda: T.add(x, b), "sub": lambda: T.sub(x, b),
        "mul": lambda: T.mul(x, b), "div": lambda: T.div(x, b),
        "minimum": lambda: T.minimum(x, w), "maximum": lambda: T.maximum(x, w),
        "relu": lambda: T.relu(w), "sigmoid": lambda: T.sigmoid(w),
        "log": lambda: T.log(x), "absolute": lambda: T.absolute(w),
        "clamp": lambda: T.clamp(x, 0.75, 1.5), "matmul": lambda: T.matmul(x, w),
        "affine": lambda: T.affine(x, w, b), "reshape": lambda: T.reshape(x, (2, 8)),
        "transpose": lambda: T.transpose(w, (1, 0)),
        "take": lambda: T.take(x, [3, 0, 2], 0),
        "tsum": lambda: T.tsum(w, axis=0), "tmean": lambda: T.tmean(w, axis=1),
        "softmax": lambda: T.softmax(w), "attention": lambda: T.attention(q, q, q, 2)[0],
        "layer_norm": lambda: T.layer_norm(w, b, b),
        "batch_norm_1d": lambda: T.batch_norm_1d(w, b, b),
        "l2_normalize": lambda: T.l2_normalize(w), "cosine": lambda: T.cosine(x, w),
        "detach": lambda: T.mul(x.detach(), x),
        "roi_align": lambda: G.roi_align(T.reshape(w, (2, 2, 4)),
                                         np.array([[0.0, 0.0, 1.5, 1.5]]), (2, 2)),
    }
    parts = [T.tmean(make()) for make in ops.values()]
    loss = parts[0]
    for part in parts[1:]:
        loss = T.add(loss, part)
    return loss, set(ops)


def test_tape_node_count_sees_every_node(monkeypatch):
    """perfbench's `tensor.tape_nodes` counts `_make` calls that record a node;
    each op must reach `_make` through the module, where the count is patched."""
    spans = _load(monkeypatch, "spans")
    tracer, patches = spans.Tracer(), spans.Patches()
    try:
        spans.install(tracer, patches)
        loss, called = _loss_through_every_op()
    finally:
        patches.restore()
    public = {name for name, f in vars(T).items() if inspect.isfunction(f)
              and f.__module__ == T.__name__ and not name.startswith("_")}
    assert called == public - {"no_grad"} | {"detach", "roi_align"}
    recorded, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if node._parents and id(node) not in recorded:
            recorded.add(id(node))
            stack.extend(node._parents)
    assert tracer.counts["tensor.tape_nodes"] == len(recorded)


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
