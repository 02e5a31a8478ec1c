"""Every module in ``src/`` and ``tests/`` uses each name it imports,
every private module-level name in ``src/`` is used somewhere in ``src/``,
every public function, class and method in ``src/`` but the named
reference oracles is read somewhere in ``src/`` or ``perfbench/``, and
``src/`` imports nothing beyond the standard library, NumPy and PyYAML.

A name counts as used when it appears as an identifier anywhere in the
module, or is listed in the module's ``__all__``; a name that appears
only in a comment or a string is unused.  ``from __future__`` imports
are directives, not names.  A private name (``_x``, not a dunder) that
only tests read is dead code in the package.
"""
import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")])
PACKAGE = sorted(ROOT.glob("src/dpstyler/*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy.linalg\n"
        "from json import dumps as to_json, loads\n"
        "from typing import Any\n"
        "__all__ = ['Any']\n"
        "# loads\n"
        "def f():\n"
        "    import re\n"
        "    return os.sep, numpy.linalg, to_json, 'sys'\n"
    )
    assert unused_imports(source) == ["line 2: sys", "line 4: loads", "line 9: re"]


def test_package_exports_are_sorted_and_each_resolves():
    # The scan above counts every ``__all__`` entry as used, so an entry
    # left behind after its import went would pass it, and then break
    # ``from dpstyler import *``.
    import dpstyler

    tree = ast.parse((ROOT / "src/dpstyler/__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    assert dpstyler.__all__ == sorted(set(dpstyler.__all__))
    assert dpstyler.__all__ == sorted(imported)
    namespace: dict = {}
    exec("from dpstyler import *", namespace)  # raises for a name that does not resolve
    assert all(namespace[name] is getattr(dpstyler, name) for name in dpstyler.__all__)


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each private top-level name no module reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        read.update(node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    return [f"{module}: {name}" for module, name in defined if name not in read]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced_privates(sources) == []


def test_the_private_scan_sees_what_it_should():
    sources = {
        "a.py": "_USED = 1\n_DEAD, __all__ = 2, []\ndef _helper():\n    return 0\n"
                "class _Gone:\n    _attr = 3\n_counter: int = 0\n",
        "b.py": "from a import _helper\nprint(_USED, _helper())\n_counter = 1\n",
    }
    assert unreferenced_privates(sources) == [
        "a.py: _DEAD", "a.py: _Gone", "a.py: _counter", "b.py: _counter",
    ]


# Public names that only tests read: the reference oracles that acceptance
# gates 1 and 2 compare the fused training path against.
REFERENCE_ORACLES = frozenset({
    "arcface_loss", "domain_logits", "domain_uncertainty_loss", "remover_backward",
})
READERS = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("perfbench/**/*.py")])


def unread_public_names(defining: dict[str, str], reading: list[str]) -> list[str]:
    """``module: name`` for each public function, class or method defined in
    ``defining`` whose name no source in ``reading`` loads, as a name or an attribute."""
    defined, read = [], set()
    for module, source in defining.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                defined += [(module, child.name) for child in node.body
                            if isinstance(child, ast.FunctionDef)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{module}: {name}" for module, name in defined
            if not name.startswith("_") and name not in read]


def test_every_public_name_is_read_by_the_package_or_the_bench():
    defining = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    reading = [p.read_text(encoding="utf-8") for p in READERS]
    unread = unread_public_names(defining, reading)
    assert sorted(line.partition(": ")[2] for line in unread) == sorted(REFERENCE_ORACLES)


def test_the_public_scan_sees_what_it_should():
    defining = {
        "a.py": "def used():\n    pass\ndef unused():\n    pass\n"
                "class Box:\n    def read(self):\n        pass\n    def never(self):\n        pass\n"
                "    def _private(self):\n        pass\n    def __len__(self):\n        return 0\n"
                "class Gone:\n    pass\n",
    }
    reading = [
        "from a import unused\nprint(used(), Box().read)\n",
        "never = 1  # a store is not a read\n'Gone'\n",
    ]
    assert unread_public_names(defining, reading) == ["a.py: unused", "a.py: never", "a.py: Gone"]


# The package's runtime dependencies: the standard library, NumPy and PyYAML.
ALLOWED_ROOTS = frozenset(sys.stdlib_module_names) | {"numpy", "yaml"}


def foreign_imports(source: str) -> list[str]:
    """``line N: root`` for each absolute import whose top-level package is not allowed."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not ``from . import``
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {root}" for root in (n.partition(".")[0] for n in names)
                  if root not in ALLOWED_ROOTS]
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_only_the_stdlib_numpy_and_yaml(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_the_dependency_scan_sees_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, scipy.linalg\n"
        "import numpy as np\n"
        "from yaml import safe_load\n"
        "from . import core\n"
        "from .core import l2_normalize\n"
        "from torch.nn import Module\n"
        "def f():\n"
        "    import collections.abc, hypothesis\n"
    )
    assert foreign_imports(source) == ["line 2: scipy", "line 7: torch", "line 9: hypothesis"]
