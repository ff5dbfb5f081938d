"""Every module of the package uses each name it imports.

No linter is a dependency of the project, so this parses each module with
``ast``: a name bound by an import must be read somewhere in the module or
listed in its ``__all__`` (how ``__init__.py`` re-exports). ``__future__``
imports are exempt.
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
