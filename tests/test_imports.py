"""Every name a package module imports at top level is used or exported,
every private name or UPPER_CASE constant a module defines at top level
is read, every public function or class is read or exported, and no
module imports another's private name."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mssvdd"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that the module never
    reads and its __all__ does not list."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read - exported)


def test_checker_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\n"
        "from .errors import ConfigError, SolverError, ToolkitError\n"
        "__all__ = ['SolverError']\n"
        "def f():\n    return np.zeros(1), ConfigError\n"
    )
    assert unused_imports(source) == ["ToolkitError", "os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_names(sources: dict[str, str]) -> list[str]:
    """module:name of each private function, class or variable, each
    UPPER_CASE constant, and each public function or class that no
    __all__ lists, that a module of sources (module name -> source)
    defines at top level and no module reads, as a name or as an attribute."""
    defined = []
    read = set()
    exported = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
                continue
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if "__all__" in names:
                exported.update(ast.literal_eval(node.value))
            defined += [
                (module, name) for name in names
                if name.isupper() or name.startswith("_") and not name.endswith("__")
            ]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    known = read | exported
    return sorted(f"{module}:{name}" for module, name in defined if name not in known)


def test_checker_finds_unread_private_names():
    sources = {
        "a": (
            "from __future__ import annotations\n"
            "__version__ = '1'\n"
            "_LIMIT = 3\n_unused: int = 0\n_Pair = tuple[int, int]\n"
            "TOL = 1e-8\nDEAD_TOL = 1e-10\nSCALE: float = 2.0\nPublic = 1\n"
            "class _Dead:\n    pass\n"
            "def _helper(p: _Pair):\n    return p\n"
            "def _orphan():\n    return _LIMIT\n"
            "def orphan():\n    pass\nclass Orphan:\n    pass\n"
            "def exported():\n    pass\nclass Exported:\n    pass\n"
        ),
        "b": (
            "from . import a\nfrom .a import TOL\n"
            "__all__ = ['exported', 'Exported']\n"
            "def g():\n    return a._helper((1, 2)), a.SCALE, TOL\n"
        ),
    }
    assert unread_names(sources) == [
        "a:DEAD_TOL", "a:Orphan", "a:_Dead", "a:_orphan", "a:_unused", "a:orphan", "b:g",
    ]


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_names(sources) == []


def private_imports(sources: dict[str, str]) -> list[str]:
    """"module: from origin import name" for each single-underscore name
    that a module of sources (module name -> source) imports, anywhere in
    its body, from the package: by a relative import or one from mssvdd.
    Dunders such as __version__ are the package's public names."""
    found = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ImportFrom):
                continue
            origin = "." * node.level + (node.module or "")
            if node.level == 0 and origin.split(".")[0] != "mssvdd":
                continue
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not name.endswith("__"):
                    found.add(f"{module}: from {origin} import {name}")
    return sorted(found)


def test_checker_finds_private_cross_module_imports():
    sources = {
        "a": "__version__ = '1'\n_LIMIT = 3\ndef _helper():\n    return _LIMIT\n",
        "b": (
            "from os import _exit\n"
            "from . import __version__, _private_module\n"
            "from .a import _LIMIT as limit, __version__ as v\n"
            "def f():\n    from mssvdd.a import _helper\n    return _helper, _exit\n"
        ),
    }
    assert private_imports(sources) == [
        "b: from . import _private_module",
        "b: from .a import _LIMIT",
        "b: from mssvdd.a import _helper",
    ]


def test_no_private_cross_module_imports():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert private_imports(sources) == []
