"""The formula and model layers import nothing from `parser`, and every
import in the package sits at module level but one.

`syntax`, `models`, `semantics`, `translator` and `analysis` sit below the
I/O edge: `parser` reads formula text and JSON files on top of them, and
formula text is written in `syntax`.  An import inside a function hides a
cycle from a reader of the module's header, so the one that stays is
named here: `models.product_update` reaches the evaluator, whose module
imports `models`.  The modules are read with `ast`, without importing
them.
"""

import ast
from pathlib import Path

import produpd

SRC = Path(produpd.__file__).resolve().parent
LOWER = ("syntax", "models", "semantics", "translator", "analysis")
# (module, enclosing function, imported module) of each import allowed
# below module level
KNOWN_LOCAL = {("models", "product_update", "semantics")}


def _imported(node) -> list[str]:
    """The package modules that an import statement names."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    else:
        base = ".".join(filter(None, ["produpd" if node.level else "", node.module]))
        dotted = [f"{base}.{a.name}" for a in node.names] if base == "produpd" else [base]
    return [d.split(".")[1] for d in dotted if d.startswith("produpd.")]


def _imports(module: str) -> list[tuple[str | None, str]]:
    """(enclosing function or class, or None at module level; imported
    package module) for each import in the module."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                out.extend((scope, name) for name in _imported(child))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope or child.name
            visit(child, inner)

    path = SRC / f"{module}.py"
    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return out


def _modules() -> list[str]:
    return sorted(p.stem for p in SRC.glob("*.py"))


def test_lower_layers_do_not_import_parser():
    assert set(LOWER) <= set(_modules())
    found = [m for m in LOWER if any(name == "parser" for _, name in _imports(m))]
    assert found == []


def test_only_the_known_local_import():
    local = {
        (m, scope, name) for m in _modules() for scope, name in _imports(m) if scope is not None
    }
    assert local == KNOWN_LOCAL


def test_reader_sees_every_import_form():
    tree = ast.parse(
        "from .parser import a\nfrom . import parser, syntax\nimport produpd.parser\n"
        "from produpd.parser import b\nfrom produpd import parser\nimport json\n"
        "from .syntax import c\n"
    )
    names = [name for node in tree.body for name in _imported(node)]
    assert names == ["parser", "parser", "syntax", "parser", "parser", "parser", "syntax"]
