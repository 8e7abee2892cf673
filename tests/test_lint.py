"""Source rules checked on the syntax tree of every package module.

Failures must be typed: a broad ``except Exception`` (or ``BaseException``,
or a bare ``except:``) would turn a bug into a reported numerical failure.
Runtime contracts must not be ``assert`` statements, because ``python -O``
strips them.  No module imports scipy, not even lazily inside a function:
the kernel runs on numpy's LAPACK, and scipy's bundled BLAS would add a
second thread pool and its import time to every run.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sgperturb"
MODULES = sorted(SRC.rglob("*.py"))
BROAD = {"Exception", "BaseException"}


def _caught_names(handler: ast.ExceptHandler):
    kinds = handler.type
    parts = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
    for part in parts:
        if isinstance(part, ast.Name):
            yield part.id
        elif isinstance(part, ast.Attribute):
            yield part.attr


def violations(source: str, name: str = "<source>"):
    found = []
    for node in ast.walk(ast.parse(source, name)):
        where = f"{name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.ExceptHandler):
            if node.type is None:
                found.append(f"{where}: bare except")
            elif BROAD & set(_caught_names(node)):
                found.append(f"{where}: broad except")
        elif isinstance(node, ast.Assert):
            found.append(f"{where}: assert statement")
    return found


def test_modules_found():
    assert {p.name for p in MODULES} >= {"numkit.py", "admissibility.py",
                                         "perturbation.py", "__init__.py"}


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_broad_except_or_assert(path):
    assert violations(path.read_text(), str(path.relative_to(SRC))) == []


@pytest.mark.parametrize("snippet, kind", [
    ("try:\n    f()\nexcept Exception:\n    pass\n", "broad except"),
    ("try:\n    f()\nexcept (ValueError, BaseException) as e:\n    pass\n",
     "broad except"),
    ("try:\n    f()\nexcept builtins.Exception:\n    pass\n", "broad except"),
    ("try:\n    f()\nexcept:\n    pass\n", "bare except"),
    ("def g(x):\n    assert x > 0\n", "assert statement"),
])
def test_rules_catch_each_pattern(snippet, kind):
    found = violations(snippet)
    assert len(found) == 1 and found[0].endswith(kind)


def test_typed_catch_passes():
    snippet = "try:\n    f()\nexcept (ValueError, ArithmeticError):\n    pass\n"
    assert violations(snippet) == []


def scipy_imports(source: str, name: str = "<source>"):
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == "scipy" for m in modules):
            found.append(f"{name}:{node.lineno}: scipy import")
    return found


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_scipy_import(path):
    assert scipy_imports(path.read_text(), str(path.relative_to(SRC))) == []


@pytest.mark.parametrize("snippet", [
    "import scipy\n",
    "import numpy, scipy.linalg as sl\n",
    "from scipy import linalg\n",
    "from scipy.linalg import lu_factor\n",
    "def f():\n    import scipy.linalg\n    return scipy.linalg\n",
])
def test_scipy_rule_catches_each_form(snippet):
    assert len(scipy_imports(snippet)) == 1


def test_scipy_rule_passes_other_imports():
    assert scipy_imports("import numpy as np\nfrom . import scipyish\n"
                         "import scipyish\n") == []
