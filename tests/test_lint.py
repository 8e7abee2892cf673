"""Source rules checked on the syntax tree of every package module.

Failures must be typed: a broad ``except Exception`` (or ``BaseException``,
or a bare ``except:``) would turn a bug into a reported numerical failure.
Runtime contracts must not be ``assert`` statements, because ``python -O``
strips them.  No module imports scipy, not even lazily inside a function:
the kernel runs on numpy's LAPACK, and scipy's bundled BLAS would add a
second thread pool and its import time to every run.  Singular values have
one home, ``numkit.py``: no other module calls ``linalg.svd`` or takes a
``linalg.norm`` of order 2, so every 2-norm runs on the one kernel.
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


def _is_two(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == 2


def singular_value_calls(source: str, name: str = "<source>"):
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        owner = owner.attr if isinstance(owner, ast.Attribute) else getattr(
            owner, "id", None)
        if owner != "linalg":
            continue
        where = f"{name}:{node.lineno}"
        if node.func.attr == "svd":
            found.append(f"{where}: linalg.svd")
        elif node.func.attr == "norm" and (
                (len(node.args) > 1 and _is_two(node.args[1]))
                or any(k.arg == "ord" and _is_two(k.value)
                       for k in node.keywords)):
            found.append(f"{where}: linalg.norm of order 2")
    return found


OUTSIDE_NUMKIT = [p for p in MODULES if p.name != "numkit.py"]


@pytest.mark.parametrize("path", OUTSIDE_NUMKIT,
                         ids=[str(p.relative_to(SRC)) for p in OUTSIDE_NUMKIT])
def test_singular_values_only_in_numkit(path):
    assert singular_value_calls(path.read_text(),
                                str(path.relative_to(SRC))) == []


@pytest.mark.parametrize("snippet", [
    "s = np.linalg.svd(A, compute_uv=False)\n",
    "s = numpy.linalg.svd(A)\n",
    "s = linalg.svd(A)\n",
    "n = np.linalg.norm(A, 2)\n",
    "n = np.linalg.norm(A, 2.0)\n",
    "n = np.linalg.norm(A, ord=2)\n",
])
def test_singular_value_rule_catches_each_form(snippet):
    assert len(singular_value_calls(snippet)) == 1


def test_singular_value_rule_passes_other_norms():
    assert singular_value_calls(
        "a = np.linalg.norm(x)\nb = np.linalg.norm(A, 1)\n"
        "c = np.linalg.norm(A, ord=np.inf)\nd = numkit.induced_norm(A, 2)\n"
        "e = np.linalg.eigvalsh(G)\n") == []
