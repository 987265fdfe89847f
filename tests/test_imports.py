"""Every module-level import in ``src/lingdecide`` is read by its module.

A start of ``decide`` runs every import statement of the modules it loads,
so an unused one costs start-up time, and an unused import of a heavy
module loads that module on every run. ``tests/test_reach.py`` checks that
functions are reached; this checks the imports around them. A name counts
as used when the module reads it anywhere, a function body included;
``from __future__`` imports bind nothing and are skipped. Imports inside
functions load only when called and are not checked.
"""

import ast
from pathlib import Path

import lingdecide

SRC = Path(lingdecide.__file__).parent


def module_imports(body):
    """The import statements of ``body`` outside function and class bodies."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from module_imports(getattr(node, field, []))


def unused_imports(source):
    """Names that module-level imports of ``source`` bind and nothing reads."""
    tree = ast.parse(source)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        name
        for node in module_imports(tree.body)
        if not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
        if name not in read
    ]


def test_the_guard_finds_an_unused_import():
    source = "import os\nimport sys\nfrom x import a as b\ntry:\n    import json\nexcept ImportError:\n    pass\n"
    assert unused_imports(source + "print(sys)\n") == ["os", "b", "json"]


def test_every_module_import_is_used():
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}
