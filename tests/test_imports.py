"""Every name a module of the package imports is used in that module, and
every private module-level name is read somewhere in the package.

No linter ships with the test dependencies, so this reads the source with
``ast``.  ``__init__.py`` is left out of the import check: its imports are
the package's public names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nnlif"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the import statements of ``source`` that nothing in it
    reads; ``from __future__`` imports and names in ``__all__`` count as used."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = "from typing import NamedTuple, Sequence\nimport numpy as np\n\nx: Sequence = np.zeros(1)\n"
    assert unused_imports(source) == [(1, "NamedTuple")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict) -> list:
    """(module, name) of every module-level ``_name`` (function, class or
    assigned constant) defined in ``sources``, {module: source}, that no
    source reads, as a name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted((module, name) for module, name in defined if name not in read)


def test_the_check_sees_an_unread_private_function():
    source = "def _used():\n    return 1\n\n\ndef _orphan():\n    return _used()\n"
    assert unread_private_names({"m.py": source}) == [("m.py", "_orphan")]


def test_package_reads_every_private_name():
    assert unread_private_names({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []
