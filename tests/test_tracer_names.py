"""Every function the benchmark's tracer wraps exists where it looks.

`perfbench/tracing.py` fetches each name of `TRACED` from its module and
each of `EVALUATOR_METHODS` from the `Evaluator` class, so a function
that is retired or moved breaks every traced run.  The two tables are
read from the source with `ast`, without importing or compiling it.
"""

import ast
import importlib
from pathlib import Path

from produpd.semantics import Evaluator

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tables() -> dict:
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TRACED", "EVALUATOR_METHODS"):
                out[name] = ast.literal_eval(node.value)
    return out


def test_traced_functions_exist():
    tables = _tables()
    assert set(tables) == {"TRACED", "EVALUATOR_METHODS"}
    missing = [
        f"{layer}.{name}"
        for layer, names in tables["TRACED"].items()
        for name in names
        if not callable(getattr(importlib.import_module(f"produpd.{layer}"), name, None))
    ]
    missing += [
        f"semantics.Evaluator.{name}"
        for name in tables["EVALUATOR_METHODS"]
        if not callable(Evaluator.__dict__.get(name))
    ]
    assert missing == []
