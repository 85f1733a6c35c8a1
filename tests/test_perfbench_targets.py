"""Every function perfbench's traced run wraps still exists in medplex.

`perfbench/spans.py` lists its spans as (module, attribute, ...) tuples in
`_TARGETS`. The list is read with `ast`, not imported, so this test runs
without perfbench on the path and a rename in medplex fails here instead of
silently dropping a span from the traced run.
"""

import ast
import importlib
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
