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


def _written(target):
    """The roots of an assignment target: each name or attribute it binds,
    unpacked from tuples and with its subscripts and attributes stripped
    down to the name they start from, with whether anything was stripped."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _written(elt)
    elif isinstance(target, ast.Starred):
        yield from _written(target.value)
    else:
        stripped = False
        while isinstance(target, (ast.Subscript, ast.Attribute)):
            target, stripped = target.value, True
        yield target, stripped


def self_writes(source: str) -> list:
    """(line, method) of every assignment to ``self.<name>`` or
    ``self.<name>[...]`` in a method of ``source`` other than ``__init__``
    and ``__post_init__``."""
    writes = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method.name in ("__init__", "__post_init__"):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
                    targets = [node.target]
                else:
                    continue
                if any(isinstance(root, ast.Name) and root.id == "self" and stripped
                       for target in targets for root, stripped in _written(target)):
                    writes.append((node.lineno, method.name))
    return writes


def test_the_check_sees_a_method_that_writes_to_self():
    source = (
        "class A:\n"
        "    def __init__(self):\n"
        "        self.a = {}\n"
        "\n"
        "    def start(self, d):\n"
        "        self.b, c = 2, 3\n"
        "        self.a[0] += 1\n"
        "        d[self.a] = self\n"
        "        return c\n"
    )
    assert self_writes(source) == [(6, "start"), (7, "start")]


@pytest.mark.parametrize("name", ["onepop.py", "twopop.py", "fdm.py"])
def test_solver_methods_write_no_attribute_outside_construction(name):
    # a stepper holds what its run needs from construction: a method that
    # wrote to its object would be state shared by every run that reads it
    assert self_writes((SRC / name).read_text()) == []
