"""Every name a package module imports at top level is used or exported,
and every private name or UPPER_CASE constant a module defines at top
level is read."""

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
    """module:name of each private function, class or variable, and each
    UPPER_CASE constant, a module of sources (module name -> source)
    defines at top level and no module reads, as a name or as an attribute."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [
                (module, name) for name in names
                if name.isupper() or name.startswith("_") and not name.endswith("__")
            ]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted(f"{module}:{name}" for module, name in defined if name not in read)


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
        ),
        "b": (
            "from . import a\nfrom .a import TOL\n"
            "def g():\n    return a._helper((1, 2)), a.SCALE, TOL\n"
        ),
    }
    assert unread_names(sources) == ["a:DEAD_TOL", "a:_Dead", "a:_orphan", "a:_unused"]


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_names(sources) == []
