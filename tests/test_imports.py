"""Every module of the package uses each name it imports, and each private
name it defines; the package and the tests import only what CI installs.

No linter is a dependency of the project, so this parses each module with
``ast``: a name bound by an import must be read somewhere in the module or
listed in its ``__all__`` (how ``__init__.py`` re-exports). ``__future__``
imports are exempt. A module-level private function, class or constant
(``_name``; dunders are exempt) must be read in its own module, so a helper
left behind by a refactor fails here.

CI installs numpy, pytest and hypothesis alone. A package module may import
numpy, the standard library and the package itself; a test module may also
import pytest, hypothesis and the modules of ``tests/``. A package that
happens to be installed where the tests run (scipy, say) is caught here
rather than in CI.
"""
import ast
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "tricho"
PACKAGE_MAY_IMPORT = {"numpy", "tricho", *sys.stdlib_module_names}
TESTS_MAY_IMPORT = {*PACKAGE_MAY_IMPORT, "pytest", "hypothesis",
                    *(path.stem for path in TESTS.glob("*.py"))}


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


def foreign_imports(source: str, allowed: set) -> list[str]:
    """The top-level names of the absolute imports in ``source``, at any
    depth, that ``allowed`` does not hold, in the order ``ast.walk`` meets
    them; relative imports stay inside the package."""
    roots = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots += [a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.partition(".")[0])
    return [root for root in roots if root not in allowed]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_numpy_and_the_standard_library(path):
    assert foreign_imports(path.read_text(), PACKAGE_MAY_IMPORT) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_tests_import_only_what_ci_installs(path):
    assert foreign_imports(path.read_text(), TESTS_MAY_IMPORT) == []


def test_foreign_import_is_found():
    source = ("from __future__ import annotations\nimport os.path, scipy.linalg\n"
              "import numpy as np\nfrom . import util\nfrom .errors import StructuralError\n"
              "def f():\n    from yaml import safe_load\n    import pytest\n")
    assert foreign_imports(source, PACKAGE_MAY_IMPORT) == ["scipy", "yaml", "pytest"]
    assert foreign_imports(source, TESTS_MAY_IMPORT) == ["scipy", "yaml"]
