"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import izeta

PACKAGE = Path(izeta.__file__).resolve().parent


def unused_imports(source):
    """Names bound by import statements that the module never reads.

    `from __future__` imports are directives, not names, and are skipped.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_checker_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        (1, "os"),
        (2, "b"),
    ]
    assert unused_imports("from __future__ import annotations\nimport os\nos.sep\n") == []


def test_no_module_imports_a_name_it_does_not_use():
    # __init__.py imports names only to re-export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {
        p.name: unused for p in modules if (unused := unused_imports(p.read_text()))
    }
    assert found == {}
