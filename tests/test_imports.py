"""Every name a package or test module imports is used in that module, the
unchecked constructors of `algebra` stay out of the command line, the
command line imports no private name of the package, the package keeps no
hidden state, every public function and class is documented, and
importing the package and its command line stays off the slow
`dataclasses` -> `inspect` chain."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import izeta

PACKAGE = Path(izeta.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


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
    tests = sorted(TESTS.glob("*.py"))
    assert modules and tests
    found = {
        f"{p.parent.name}/{p.name}": unused
        for p in modules + tests
        if (unused := unused_imports(p.read_text()))
    }
    assert found == {}


# The unchecked constructors of `algebra`; input from the command line must
# always pass the validating ones.
TRUSTED = {"_poly", "_word", "_normal_sum"}


def trusted_uses(source):
    """Lines that import or name one of the TRUSTED constructors."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found |= {(node.lineno, a.name) for a in node.names if a.name in TRUSTED}
        elif isinstance(node, ast.Name) and node.id in TRUSTED:
            found.add((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in TRUSTED:
            found.add((node.lineno, node.attr))
    return sorted(found)


def test_the_checker_sees_a_planted_trusted_call():
    planted = (
        "from .algebra import FormalSum, _word\n"
        "import izeta.algebra as algebra\n"
        "w = _word((0,))\n"
        "p = algebra._poly({0: 0.5})\n"
        "f = getattr(algebra, 'x')._normal_sum\n"
    )
    assert trusted_uses(planted) == [
        (1, "_word"),
        (3, "_word"),
        (4, "_poly"),
        (5, "_normal_sum"),
    ]
    assert trusted_uses("from .algebra import FormalSum, Word\nWord((1,))\n") == []


def test_trusted_constructors_stay_out_of_the_cli_and_the_public_names():
    assert trusted_uses((PACKAGE / "cli.py").read_text()) == []
    assert not TRUSTED & set(izeta.__all__)
    # they exist, so the checks above guard real names
    assert all(callable(getattr(izeta.algebra, name)) for name in TRUSTED)


def private_imports(source):
    """Underscore-prefixed names, or modules, that the source imports from
    the package, relatively or as `izeta`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if node.level or module[0] == "izeta":
                found |= {(node.lineno, n) for n in module}
                found |= {(a.lineno, a.name) for a in node.names}
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "izeta":
                    found |= {(a.lineno, n) for n in parts}
    return sorted((line, n) for line, n in found if n.startswith("_"))


def test_the_checker_sees_a_planted_private_import():
    planted = (
        "from __future__ import annotations\n"
        "from .reduction import (\n    certificate_records,\n    _check_weight,\n)\n"
        "from izeta.algebra import Word, _as_exact as exact\n"
        "import izeta._hidden\n"
        "from ._kernel import run\n"
        "from os import _exit\n"
    )
    assert private_imports(planted) == [
        (4, "_check_weight"),
        (6, "_as_exact"),
        (7, "_hidden"),
        (8, "_kernel"),
    ]
    assert private_imports("from .algebra import Word\nimport izeta.cli\n") == []


def test_the_cli_imports_no_private_name_of_the_package():
    assert private_imports((PACKAGE / "cli.py").read_text()) == []


def private_definitions(source):
    """(name, first line, last line) of each underscore-prefixed function,
    class or assignment at module level; dunder names such as `__all__`
    are protocol, not helpers, and are skipped."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [
            (name, node.lineno, node.end_lineno)
            for name in names
            if name.startswith("_") and not name.endswith("__")
        ]
    return found


def reads(source):
    """(name, line) of each name the source reads, as a variable, an
    attribute or an imported name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.add((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found |= {(a.name, node.lineno) for a in node.names}
    return found


def public_definitions(source):
    """(name, first line, last line) of each module-level function or
    class whose name has no leading underscore."""
    return [
        (node.name, node.lineno, node.end_lineno)
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def unread_names(sources, definitions):
    """`module:name` of each definition, as `definitions` lists those of a
    source, in the {module: source} dict `sources` that no module reads
    outside the definition itself."""
    read = {module: reads(source) for module, source in sources.items()}
    unread = []
    for module, source in sources.items():
        for name, first, last in definitions(source):
            if not any(
                n == name and not (m == module and first <= line <= last)
                for m, lines in read.items()
                for n, line in lines
            ):
                unread.append(f"{module}:{name}")
    return unread


def test_the_checker_sees_a_planted_dead_helper():
    planted = {
        "a": (
            "__all__ = []\n"
            "_LIMIT = 3\n"
            "def _used():\n    return _LIMIT\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "class _Dead:\n    pass\n"
            "_unread: int = 0\n"
        ),
        "b": "from .a import _used\n_used()\n",
    }
    assert unread_names(planted, private_definitions) == ["a:_recursive", "a:_Dead", "a:_unread"]


def test_the_checker_sees_a_planted_dead_public_helper():
    planted = {
        "a.py": (
            "LIMIT = 3\n"
            "def used():\n    return LIMIT\n"
            "def exported():\n    return 1\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "class Dead:\n    pass\n"
            "def _private():\n    pass\n"
        ),
        "b.py": "from .a import used\nused()\n",
        # a re-export counts as a read
        "__init__.py": "from .a import exported\n__all__ = ['exported']\n",
    }
    assert unread_names(planted, public_definitions) == ["a.py:recursive", "a.py:Dead"]


# Modules whose state is invisible at a call site: a context variable or a
# thread-local is read by code that the caller never passed it to.
HIDDEN_STATE_MODULES = {"contextvars", "threading"}


def hidden_state(source):
    """(line, what) of each absolute import of a HIDDEN_STATE_MODULES
    module, and of each `global` or `nonlocal` statement."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            found.add((node.lineno, type(node).__name__.lower()))
        elif isinstance(node, ast.Import):
            found |= {(node.lineno, a.name.split(".")[0]) for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add((node.lineno, node.module.split(".")[0]))
    hidden = HIDDEN_STATE_MODULES | {"global", "nonlocal"}
    return sorted((line, what) for line, what in found if what in hidden)


def test_the_checker_sees_planted_hidden_state():
    planted = (
        "import contextvars\n"
        "from threading import local\n"
        "import os, threading.local as tl\n"
        "_n = 0\n"
        "def bump():\n    global _n\n    _n += 1\n"
        "def outer():\n    x = 0\n    def inner():\n        nonlocal x\n"
    )
    assert hidden_state(planted) == [
        (1, "contextvars"),
        (2, "threading"),
        (3, "threading"),
        (6, "global"),
        (11, "nonlocal"),
    ]
    assert hidden_state("from .threading import x\nimport os\n_memo = {}\n") == []


def test_the_package_keeps_no_hidden_state():
    # the memo caches stay the package's only module-level state
    found = {
        p.name: hits
        for p in sorted(PACKAGE.glob("*.py"))
        if (hits := hidden_state(p.read_text()))
    }
    assert found == {}


def test_every_private_name_of_the_package_is_read():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert sum(len(private_definitions(s)) for s in sources.values()) > 0
    assert unread_names(sources, private_definitions) == []


def test_every_public_function_and_class_of_the_package_is_read():
    # `izeta`'s re-exports count as reads
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert sum(len(public_definitions(s)) for s in sources.values()) > 0
    assert unread_names(sources, public_definitions) == []


def undocumented(source, names):
    """(line, name) of each module-level function or class of `source`
    named in `names` that has no docstring of its own."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in names
        and not (ast.get_docstring(node) or "").strip()
    )


def test_the_checker_sees_an_undocumented_public_name():
    planted = (
        "def shown():\n    return 1\n"
        "def told():\n    \"\"\"Says so.\"\"\"\n"
        "class Bare:\n    def method(self):\n        \"\"\"Not the class's own.\"\"\"\n"
        "def blank():\n    \"\"\"  \"\"\"\n"
        "def hidden():\n    pass\n"
        "class Told:\n    \"\"\"Says so.\"\"\"\n"
    )
    names = {"shown", "told", "Bare", "blank", "Told"}
    assert undocumented(planted, names) == [(1, "shown"), (5, "Bare"), (8, "blank")]


def test_every_public_function_and_class_has_a_docstring():
    public = {
        name
        for name in izeta.__all__
        if inspect.isfunction(obj := getattr(izeta, name)) or inspect.isclass(obj)
    }
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    defined = {
        node.name
        for source in sources
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert public and public <= defined  # no public name escapes the check
    assert [hit for source in sources for hit in undocumented(source, public)] == []


# Standard modules that a fresh process must not pay for at start-up:
# `dataclasses` pulls in `inspect`, and `inspect` pulls in `ast`, `dis`
# and `tokenize`.
SLOW_IMPORTS = {"dataclasses", "inspect"}


def test_importing_the_package_and_its_cli_loads_no_slow_module():
    # the difference of sys.modules does not depend on what `site` loads
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import izeta, izeta.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    added = set(json.loads(out.stdout))
    assert "izeta.cli" in added
    assert added & SLOW_IMPORTS == set()
