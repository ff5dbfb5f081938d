"""Every module of the package uses each name it imports, and each private
name it defines.

No linter is a dependency of the project, so this parses each module with
``ast``: a name bound by an import must be read somewhere in the module or
listed in its ``__all__`` (how ``__init__.py`` re-exports). ``__future__``
imports are exempt. A module-level private function, class or constant
(``_name``; dunders are exempt) must be read in its own module, so a helper
left behind by a refactor fails here.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tricho"


def unused_imports(source: str) -> list[str]:
    """Names imported in ``source`` and never read, in import order."""
    tree = ast.parse(source)
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = ("from __future__ import annotations\nimport bisect\nimport numpy as np\n"
              "import os.path\nfrom .reports import CheckReport, ValidationReport\n"
              "__all__ = ['CheckReport']\nx = np.eye(2)\n")
    assert unused_imports(source) == ["bisect", "os", "ValidationReport"]


def unread_private_names(source: str) -> list[str]:
    """Private names defined at the top of ``source`` and never read in it,
    in definition order."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in defined if name.startswith("_")
            and not (name.startswith("__") and name.endswith("__"))
            and name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_private_name_it_defines(path):
    assert unread_private_names(path.read_text()) == []


def test_unread_private_name_is_found():
    source = ("import math\n__all__ = ['area']\n_PI, _E = math.pi, math.e\n"
              "_TAU: float = 2 * _PI\n__version__ = '1'\n"
              "def _square(x):\n    return x * x\n"
              "def _left_over(x):\n    return _square(x)\n"
              "class _Shape:\n    _sides = 0\n"
              "def area(r):\n    _unused = 1\n    return _PI * _square(r)\n")
    assert unread_private_names(source) == ["_E", "_TAU", "_left_over", "_Shape"]
