"""Every function perfbench's traced run wraps, and every medplex name its
workloads call, still exists in medplex.

`perfbench/spans.py` lists its spans as (module, attribute, ...) tuples in
`_TARGETS`; `perfbench/workloads.py` imports medplex modules and names. Both
are read with `ast`, not imported, so these tests run without perfbench on
the path, and a rename in medplex fails here instead of silently dropping a
span from the traced run or failing the benchmark's operations.
"""

import ast
import importlib
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_targets() -> list[tuple[str, str]]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_TARGETS"]:
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("no _TARGETS list in %s" % SPANS)


def test_every_traced_target_exists():
    targets = traced_targets()
    assert len(targets) > 20 and ("medplex.train", "fit") in targets
    missing = [(module, attr) for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


WORKLOADS = SPANS.parent / "workloads.py"


def _resolve(module: str, name: str):
    """module.name, a submodule or an attribute; None if it is neither."""
    try:
        return importlib.import_module("%s.%s" % (module, name))
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name, None)


def test_every_medplex_name_the_workloads_use_exists():
    """Each `from medplex... import` name of perfbench/workloads.py exists,
    and so does each attribute it reads off an imported medplex module. A
    call to one with no starred argument must bind to its signature."""
    tree = ast.parse(WORKLOADS.read_text())
    imported, missing, seen = {}, [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "medplex":
            for alias in node.names:
                found = imported[alias.asname or alias.name] = _resolve(node.module, alias.name)
                if found is None:
                    missing.append("%s.%s" % (node.module, alias.name))
    modules = {k: v for k, v in imported.items() if inspect.ismodule(v)}
    assert sorted(modules) == ["D", "E", "G", "cli", "pipeline"]
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            continue
        name = "%s.%s" % (node.value.id, node.attr)
        seen.add(name)
        target = getattr(modules[node.value.id], node.attr, None)
        if target is None:
            missing.append(name)
            continue
        call = calls.get(id(node))
        if call is None or any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            continue
        try:
            inspect.signature(target).bind(*call.args, **{k.arg: k for k in call.keywords})
        except TypeError as exc:
            missing.append("%s at line %d: %s" % (name, call.lineno, exc))
    assert {"pipeline.assign_masks", "pipeline.run_mlp_baseline", "cli.run"} <= seen
    assert missing == []
