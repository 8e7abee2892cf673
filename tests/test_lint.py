"""Source rules checked on the syntax tree of every package module.

Failures must be typed: a broad ``except Exception`` (or ``BaseException``,
or a bare ``except:``) would turn a bug into a reported numerical failure.
Runtime contracts must not be ``assert`` statements, because ``python -O``
strips them.  No module imports scipy, not even lazily inside a function:
the kernel runs on numpy's LAPACK, and scipy's bundled BLAS would add a
second thread pool and its import time to every run.  No module names
``numpy.polynomial``, which numpy loads lazily at a cost of milliseconds on
its first use: the quadrature table of the root count is literal
constants.  No module imports ``concurrent``, ``threading`` or
``multiprocessing``: a run executes its suites one after another, which
measured faster than a thread pool in both worlds.  Singular values and
eigenvalues have one home, ``numkit.py``: no other module calls
``linalg.svd``, ``linalg.eigvals`` or ``linalg.eig``, or takes a
``linalg.norm`` of order 2, so every 2-norm and every spectrum runs on the
one kernel.  No module spells ``spectral_radius_distance``: a shifted
generator has one singularity test, the pivot test of ``numkit.solve``.  FFT
calls have one home too, ``toeplitz.py``, where the Toeplitz products live,
and ``perturbation.py`` materializes no Toeplitz operator: it does not name
``materialize``.  F has no dense form at all: every product with F is an FFT
product with its first block column and every norm of F comes off that
column, so no module names ``io_matrix``, ``materialize`` or
``IO_SIZE_CAP`` (the dense builders and their cap are test oracles now).
Every name in a module's ``__all__`` resolves.  The
feedback inverse has one code path, the block recursion of
``toeplitz.py``; its dense form is a test oracle, so no module defines,
imports, exports or names ``feedback_toeplitz_inverse`` or
``feedback_inverse_norm_bound``.  H has one evaluator: only
``transport._transfer_and_slope`` forms the density cell exponentials
``np.exp(np.multiply.outer(...))``.  No module reduces a sliding window
view (``.max``, ``.min``, ``.sum``) inside a loop, so no per-level
O(levels * N) window scan stands where one O(levels) pass over the terms
of each level does.  Each world's facts live on its triple
class: no module tests whether a triple is a
``MatrixTriple`` or a ``TransportTriple`` (the classical suites' input guard
aside), and both classes expose the same public methods, none of which
takes a grid but ``discretize``.  The two world modules, ``semigroup.py``
and ``transport.py``, are siblings: neither imports from the other or
names it, and the world-blind modules (``numkit``, ``toeplitz``,
``admissibility`` and ``perturbation``) reach neither.  What a time grid fixes lives on the two
discretization classes, which expose the same grid maps: only they compute
``expm(<triple>.A, <grid>.h)`` or ``_grid_nodes(<grid>.h, ...)``, and
``phi_coefficients(<triple>.mu, ...)`` runs there or in
``TransportTriple.__post_init__``, which keeps the coefficients.  Every
stack of powers of ``E = e^{hA}`` comes from one doubling walk, so no
method of ``MatrixDiscretization`` but ``solve_feedback`` holds a loop.
Each construction is called one way: no public module-level function only
returns a method call on one of its parameters (``rescale``, which checks
its shift first, is not such a forwarder).  No function takes a
parameter whose name starts with ``_``: an option that callers are told
not to set is still an option.  The benchmark's workloads stay
callable: every ``sg.<name>`` in ``perfbench/workloads.py`` resolves on
the package, and each of its calls binds to the current signature.
"""

import ast
import importlib
import inspect
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


def package_imports(packages, source: str, name: str = "<source>"):
    """Every absolute import, at any depth, of a top-level package in
    ``packages``."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        hits = sorted({m.split(".")[0] for m in modules} & set(packages))
        if hits:
            found.append(f"{name}:{node.lineno}: {hits[0]} import")
    return found


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_scipy_import(path):
    assert package_imports({"scipy"}, path.read_text(),
                           str(path.relative_to(SRC))) == []


@pytest.mark.parametrize("snippet", [
    "import scipy\n",
    "import numpy, scipy.linalg as sl\n",
    "from scipy import linalg\n",
    "from scipy.linalg import lu_factor\n",
    "def f():\n    import scipy.linalg\n    return scipy.linalg\n",
])
def test_scipy_rule_catches_each_form(snippet):
    assert len(package_imports({"scipy"}, snippet)) == 1


def test_scipy_rule_passes_other_imports():
    assert package_imports({"scipy"}, "import numpy as np\n"
                           "from . import scipyish\nimport scipyish\n") == []


CONCURRENCY = {"concurrent", "threading", "multiprocessing"}


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_thread_or_process_pool_import(path):
    assert package_imports(CONCURRENCY, path.read_text(),
                           str(path.relative_to(SRC))) == []


@pytest.mark.parametrize("snippet", [
    "import threading\n",
    "import numpy, multiprocessing.pool as mp\n",
    "from concurrent.futures import ThreadPoolExecutor\n",
    "from multiprocessing import Pool\n",
    "def f():\n    import concurrent.futures\n    return concurrent\n",
])
def test_concurrency_rule_catches_each_form(snippet):
    assert len(package_imports(CONCURRENCY, snippet)) == 1


def test_concurrency_rule_passes_other_imports():
    assert package_imports(
        CONCURRENCY, "import numpy as np\nfrom . import threading\n"
        "import threadingish\nfrom .concurrent import x\n") == []


def polynomial_uses(source: str, name: str = "<source>"):
    """Every import or attribute naming ``numpy.polynomial``: numpy loads
    that subpackage lazily, and its first use costs a cold process several
    milliseconds, so tables such as quadrature rules are literal
    constants."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Import):
            hit = any(alias.name.startswith("numpy.polynomial")
                      for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            hit = (module.startswith("numpy.polynomial")
                   or module == "numpy"
                   and any(a.name == "polynomial" for a in node.names))
        elif isinstance(node, ast.Attribute):
            hit = (node.attr == "polynomial"
                   and isinstance(node.value, ast.Name)
                   and node.value.id in {"np", "numpy"})
        else:
            continue
        if hit:
            found.append(f"{name}:{node.lineno}: numpy.polynomial")
    return found


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_numpy_polynomial(path):
    assert polynomial_uses(path.read_text(), str(path.relative_to(SRC))) == []


@pytest.mark.parametrize("snippet", [
    "x, w = np.polynomial.legendre.leggauss(7)\n",
    "p = numpy.polynomial.Polynomial([1.0, 2.0])\n",
    "import numpy.polynomial\n",
    "import numpy.polynomial.legendre as leg\n",
    "from numpy.polynomial import legendre\n",
    "from numpy.polynomial.legendre import leggauss\n",
    "from numpy import polynomial\n",
    "def f():\n    return np.polynomial\n",
])
def test_polynomial_rule_catches_each_form(snippet):
    assert len(polynomial_uses(snippet)) == 1


def test_polynomial_rule_passes_other_calls():
    assert polynomial_uses(
        "import numpy as np\nfrom numpy import polyfit\n"
        "y = np.polyval(c, x)\nq = np.poly1d(c)\nz = fit.polynomial\n"
        "from .quadrature import polynomial\n") == []


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
        elif node.func.attr in ("eigvals", "eig"):
            found.append(f"{where}: linalg.{node.func.attr}")
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
    "e = np.linalg.eigvals(A)\n",
    "w, v = numpy.linalg.eig(A)\n",
])
def test_singular_value_rule_catches_each_form(snippet):
    assert len(singular_value_calls(snippet)) == 1


def test_singular_value_rule_passes_other_norms():
    assert singular_value_calls(
        "a = np.linalg.norm(x)\nb = np.linalg.norm(A, 1)\n"
        "c = np.linalg.norm(A, ord=np.inf)\nd = numkit.induced_norm(A, 2)\n"
        "e = np.linalg.eigvalsh(G)\nf = numkit.eigenvalues(A)\n") == []


def fft_uses(source: str, name: str = "<source>"):
    found = []
    for node in ast.walk(ast.parse(source, name)):
        where = f"{name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            found.append(f"{where}: fft attribute")
        elif isinstance(node, ast.Import) and any(
                alias.name.startswith("numpy.fft") for alias in node.names):
            found.append(f"{where}: fft import")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                (node.module or "").startswith("numpy.fft")
                or (node.module == "numpy"
                    and any(alias.name == "fft" for alias in node.names))):
            found.append(f"{where}: fft import")
    return found


OUTSIDE_TOEPLITZ = [p for p in MODULES if p.name != "toeplitz.py"]


@pytest.mark.parametrize("path", OUTSIDE_TOEPLITZ,
                         ids=[str(p.relative_to(SRC))
                              for p in OUTSIDE_TOEPLITZ])
def test_fft_only_in_toeplitz(path):
    assert fft_uses(path.read_text(), str(path.relative_to(SRC))) == []


@pytest.mark.parametrize("snippet", [
    "y = np.fft.rfft(x)\n",
    "y = numpy.fft.ifft(x, axis=0)\n",
    "from numpy.fft import rfft\n",
    "import numpy.fft as f\n",
    "from numpy import fft\n",
])
def test_fft_rule_catches_each_form(snippet):
    assert len(fft_uses(snippet)) == 1


def test_fft_rule_passes_the_toeplitz_products():
    assert fft_uses("y = T.forward(x)\nz = T.adjoint(y)\n"
                    "n = numkit.lanczos_norms(f, g, sizes)\n") == []


DENSE_ORACLES = {"materialize"}


def test_perturbation_materializes_no_toeplitz_operator():
    path = SRC / "perturbation.py"
    used = DENSE_ORACLES & set(_names(ast.parse(path.read_text())))
    assert used == set()


DENSE_FEEDBACK_INVERSE = {"feedback_toeplitz_inverse",
                          "feedback_inverse_norm_bound"}


def _spelled(node):
    """The words a node spells: a definition's name, an import's names, a
    string (an ``__all__`` entry), a name or an attribute."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name.split(".")[-1] for alias in node.names]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def dense_feedback_inverse_names(source: str, name: str = "<source>"):
    """Each definition, import, name, attribute or string (an ``__all__``
    entry) that spells a dense feedback-inverse function."""
    return [f"{name}:{getattr(node, 'lineno', 0)}: {word}"
            for node in ast.walk(ast.parse(source, name))
            for word in DENSE_FEEDBACK_INVERSE & set(_spelled(node))]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_dense_feedback_inverse_only_in_tests(path):
    assert dense_feedback_inverse_names(
        path.read_text(), str(path.relative_to(SRC))) == []


@pytest.mark.parametrize("snippet", [
    "def feedback_toeplitz_inverse(F, B, C, T, n):\n    pass\n",
    "from .toeplitz import feedback_inverse_norm_bound\n",
    "__all__ = ['feedback_toeplitz_inverse']\n",
    "x = toeplitz.feedback_inverse_norm_bound(F, B, C, T, 2)\n",
    "run = feedback_toeplitz_inverse\n",
])
def test_dense_feedback_inverse_rule_catches_each_form(snippet):
    assert len(dense_feedback_inverse_names(snippet)) == 1


def test_dense_feedback_inverse_rule_passes_the_chain():
    assert dense_feedback_inverse_names(
        "from .toeplitz import feedback_norm_chain\n"
        "chain = toeplitz.feedback_norm_chain(g, B, C, T, n)\n"
        "f, a = _inverse_products(G, GC, BG, B, closed, n)\n") == []


def spectral_distance_names(source: str, name: str = "<source>"):
    """Each definition, import, name, attribute or string that spells
    ``spectral_radius_distance``, the per-lambda eigensolve that once
    guarded every matrix resolvent."""
    return [f"{name}:{getattr(node, 'lineno', 0)}"
            for node in ast.walk(ast.parse(source, name))
            if "spectral_radius_distance" in _spelled(node)]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_module_spells_spectral_radius_distance(path):
    assert spectral_distance_names(
        path.read_text(), str(path.relative_to(SRC))) == []


@pytest.mark.parametrize("snippet", [
    "def spectral_radius_distance(A, point):\n    pass\n",
    "from .numkit import spectral_radius_distance\n",
    "__all__ = ['spectral_radius_distance']\n",
    "d = numkit.spectral_radius_distance(A, lam)\n",
])
def test_spectral_distance_rule_catches_each_form(snippet):
    assert len(spectral_distance_names(snippet)) == 1


WORLD_CLASSES = {"MatrixTriple", "TransportTriple"}
#: (module, function) allowed to test world membership: the input guard of
#: the matrix-only classical suites
WORLD_GUARDS = {("classical.py", "_require_matrix_world")}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _is_world_test(node) -> bool:
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass")
            and len(node.args) == 2):
        return bool(WORLD_CLASSES & set(_names(node.args[1])))
    if isinstance(node, ast.Compare) and len(node.ops) == 1 \
            and isinstance(node.ops[0], (ast.Is, ast.Eq)):
        sides = (node.left, node.comparators[0])
        typed = any(isinstance(side, ast.Call)
                    and getattr(side.func, "id", None) == "type"
                    for side in sides)
        return typed and bool(WORLD_CLASSES & set(
            name for side in sides for name in _names(side)))
    return False


def world_tests(source: str, name: str = "<source>"):
    module = Path(name).name
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if _is_world_test(child) \
                    and (module, function) not in WORLD_GUARDS:
                found.append(f"{name}:{child.lineno}: world test")
            visit(child, inner)
    visit(ast.parse(source, name), None)
    return found


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_world_test_outside_the_triples(path):
    assert world_tests(path.read_text(), str(path.relative_to(SRC))) == []


@pytest.mark.parametrize("snippet", [
    "if isinstance(triple, MatrixTriple):\n    pass\n",
    "ok = not isinstance(t, semigroup.TransportTriple)\n",
    "ok = isinstance(x, (GridFunction, MatrixTriple))\n",
    "ok = isinstance(t, MatrixTriple | TransportTriple)\n",
    "ok = issubclass(type(t), TransportTriple)\n",
    "ok = type(t) is MatrixTriple\n",
    "def f(t):\n    return [t for t in ts if isinstance(t, MatrixTriple)]\n",
    "def _require_matrix_world(t):\n    return isinstance(t, MatrixTriple)\n",
])
def test_world_rule_catches_each_form(snippet):
    assert len(world_tests(snippet, "perturbation.py")) == 1


def test_world_rule_passes_the_guard_and_other_types():
    guard = ("def _require_matrix_world(triple, suite):\n"
             "    if not isinstance(triple, MatrixTriple):\n"
             "        raise ValueError(suite)\n")
    assert world_tests(guard, "classical.py") == []
    assert world_tests("ok = isinstance(x, GridFunction)\n"
                       "ok = type(x) is dict\nok = triple.world\n") == []


WORLD_MODULES = {"semigroup", "transport"}
#: the layer under and above the worlds, which reaches neither of them
WORLD_BLIND = {"numkit", "toeplitz", "admissibility", "perturbation"}


def cross_world_imports(source: str, name: str):
    """Every place where module ``name`` reaches a world module it must
    not: a world module (``semigroup.py`` or ``transport.py``) the other
    one, a world-blind module either.  Reaching is a relative or absolute
    import of the module or from it, or the attribute
    ``sgperturb.<module>``."""
    stem = Path(name).stem
    banned = WORLD_MODULES - {stem} if stem in WORLD_MODULES \
        else WORLD_MODULES
    found = []
    for node in ast.walk(ast.parse(source, name)):
        targets = []
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".") if node.module else []
            if node.level == 0:
                if parts[:1] != ["sgperturb"]:
                    continue
                parts = parts[1:]
            targets = [(parts or [alias.name])[0] for alias in node.names]
        elif isinstance(node, ast.Import):
            targets = [alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("sgperturb.")]
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "sgperturb":
            targets = [node.attr]
        found.extend(f"{name}:{node.lineno}: reaches {module}"
                     for module in sorted(banned & set(targets)))
    return found


WORLD_PATHS = [SRC / f"{module}.py" for module in sorted(WORLD_MODULES)]
BLIND_PATHS = [SRC / f"{module}.py" for module in sorted(WORLD_BLIND)]


@pytest.mark.parametrize("path", WORLD_PATHS,
                         ids=[p.name for p in WORLD_PATHS])
def test_the_worlds_import_nothing_from_each_other(path):
    assert cross_world_imports(path.read_text(), path.name) == []


@pytest.mark.parametrize("path", BLIND_PATHS,
                         ids=[p.name for p in BLIND_PATHS])
def test_the_world_blind_layer_imports_no_world_module(path):
    assert cross_world_imports(path.read_text(), path.name) == []


@pytest.mark.parametrize("snippet, module", [
    ("from .semigroup import MatrixTriple\n", "transport.py"),
    ("from . import numkit, semigroup\n", "transport.py"),
    ("from sgperturb.semigroup import rescale\n", "transport.py"),
    ("from sgperturb import semigroup as sg\n", "transport.py"),
    ("import numpy, sgperturb.semigroup\n", "transport.py"),
    ("def f():\n    return sgperturb.semigroup.rescale\n", "transport.py"),
    ("from .transport import GridFunction\n", "semigroup.py"),
    ("from .transport.grid import shift_open\n", "semigroup.py"),
    ("def f():\n    from . import transport\n    return transport\n",
     "semigroup.py"),
    ("import sgperturb.transport as tr\n", "semigroup.py"),
])
def test_sibling_rule_catches_each_form(snippet, module):
    assert len(cross_world_imports(snippet, module)) == 1


@pytest.mark.parametrize("snippet, module", [
    ("from .semigroup import rescale\n", "admissibility.py"),
    ("from .transport import GridFunction\n", "perturbation.py"),
    ("from . import numkit, semigroup\n", "toeplitz.py"),
    ("import sgperturb.transport as tr\n", "numkit.py"),
    ("def f():\n    return sgperturb.semigroup.MatrixTriple\n",
     "admissibility.py"),
])
def test_world_blind_rule_catches_each_form(snippet, module):
    assert len(cross_world_imports(snippet, module)) == 1


def test_sibling_rule_passes_other_imports():
    assert cross_world_imports(
        "from . import numkit, toeplitz\n"
        "from .toeplitz import FEEDBACK_MARGIN, FeedbackSingularError\n"
        "from .transport import GridFunction\n"
        "from .semigroupish import x\nimport sgperturb\n"
        "import sgperturb.numkit\nfrom sgperturb import numkit\n"
        "y = triple.semigroup\nz = sgperturb.numkit\n",
        "transport.py") == []


def _public_methods(module: str, cls: str) -> dict:
    """Public method name -> parameter names, read off the class body."""
    tree = ast.parse((SRC / module).read_text())
    body = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == cls).body
    return {node.name: [a.arg for a in node.args.args
                        + node.args.kwonlyargs]
            for node in body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and not any(getattr(d, "id", None) == "property"
                        for d in node.decorator_list)}


#: the grid-free methods of a triple, and its one door to a time grid
TRIPLE_METHODS = {"step", "resolvent", "rescale", "spectral_abscissa",
                  "closed_loop", "transfer", "perturbed_resolvent",
                  "state_norm", "random_domain_state", "compatibility",
                  "resolvent_residual", "discretize"}
#: the maps a discretization owns on its grid
GRID_METHODS = {"control", "observe", "controllability_matrix",
                "observability_matrix", "feedback_column", "solve_feedback",
                "impulse_column", "euclidean_frames", "vop_outputs"}


def test_world_classes_expose_the_same_methods():
    for classes, names in ((("MatrixTriple", "TransportTriple"),
                            TRIPLE_METHODS),
                           (("MatrixDiscretization",
                             "TransportDiscretization"), GRID_METHODS)):
        matrix = _public_methods("semigroup.py", classes[0])
        transport = _public_methods("transport.py", classes[1])
        assert set(matrix) == names
        assert matrix == transport
        # no method takes a grid but the triples' discretize
        assert {name for name, params in matrix.items()
                if "grid" in params} == names & {"discretize"}


def looping_methods(source: str, cls: str) -> list:
    """The methods of class ``cls`` whose body holds a ``for`` or ``while``
    statement (a comprehension is not one)."""
    body = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ClassDef) and node.name == cls).body
    return [node.name for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(inner, (ast.For, ast.AsyncFor, ast.While))
                    for inner in ast.walk(node))]


def test_matrix_discretization_loops_only_in_solve_feedback():
    # every stack of powers of E comes from the doubling walk
    # semigroup._powers; the state loop of solve_feedback is the product
    # recursion, kept as the oracle of the impulse column
    source = (SRC / "semigroup.py").read_text()
    assert looping_methods(source, "MatrixDiscretization") == [
        "solve_feedback"]


@pytest.mark.parametrize("snippet", [
    "class K:\n    def f(self):\n        for k in range(3):\n"
    "            pass\n",
    "class K:\n    def f(self):\n        while self.x:\n"
    "            self.x -= 1\n",
    "class K:\n    def f(self):\n        if self.x:\n"
    "            for k in self.y:\n                pass\n",
])
def test_loop_rule_catches_each_form(snippet):
    assert looping_methods(snippet, "K") == ["f"]


def test_loop_rule_passes_comprehensions_and_other_classes():
    assert looping_methods(
        "class K:\n    def f(self):\n        return [k for k in self.y]\n"
        "class L:\n    def f(self):\n        for k in self.y:\n"
        "            pass\n", "K") == []


def call_sites(source: str, name: str, matches):
    """``(module, function)`` of each call node for which ``matches`` holds,
    with ``None`` for a call at module level."""
    module = Path(name).name
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call) and matches(child):
                found.append((module, function))
            visit(child, inner)
    visit(ast.parse(source, name), None)
    return found


#: the names of the dense F the package no longer has: F is stored by its
#: first block column, and its products and norms all come off that column
DENSE_F = {"io_matrix", "materialize", "IO_SIZE_CAP"}


def dense_f_sites(source: str, name: str = "<source>"):
    """``(module, function, word)`` for each definition, import, name,
    attribute or string (an ``__all__`` entry) that spells a ``DENSE_F``
    name, with ``None`` for one at module level."""
    module = Path(name).name
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            for word in sorted(DENSE_F & set(_spelled(child))):
                found.append((module, function, word))
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            visit(child, inner)
    visit(ast.parse(source, name), None)
    return found


def test_no_module_names_a_dense_f():
    sites = [site for path in MODULES
             for site in dense_f_sites(path.read_text(),
                                       str(path.relative_to(SRC)))]
    assert sites == []


def _callers_of(word):
    """``call_sites`` matcher for each call of ``word``, by name or
    attribute."""
    return lambda call: word in (getattr(call.func, "id", None),
                                 getattr(call.func, "attr", None))


def test_io_matrix_is_the_one_dense_builder_of_f():
    # F is stored by its first block column; the one code that materializes
    # it is the test oracle conftest.io_matrix, no package module calls
    # materialize, and no triple or discretization class builds its own
    oracles = Path(__file__).with_name("conftest.py")
    callers = [call for path in MODULES + [oracles]
               for call in call_sites(path.read_text(), path.name,
                                      _callers_of("materialize"))]
    assert callers == [("conftest.py", "io_matrix")]
    for module, cls in (("semigroup.py", "MatrixTriple"),
                        ("semigroup.py", "MatrixDiscretization"),
                        ("transport.py", "TransportTriple"),
                        ("transport.py", "TransportDiscretization")):
        assert "io_matrix" not in _public_methods(module, cls)


def test_dense_f_serves_only_the_two_norm():
    # the p = 2 norm of the feedback report was the dense F's one use; it
    # now runs Lanczos on F's FFT products, so no package module calls
    # io_matrix, and admissibility takes F's 2-norm in _feedback_report alone
    callers = [call for path in MODULES
               for call in call_sites(path.read_text(), path.name,
                                      _callers_of("io_matrix"))]
    assert callers == []
    source = (SRC / "admissibility.py").read_text()
    assert call_sites(source, "admissibility.py",
                      _callers_of("lanczos_norms")) == [
        ("admissibility.py", "_feedback_report")]


@pytest.mark.parametrize("snippet, caller", [
    ("M = toeplitz.materialize(T)\n", None),
    ("def f(T):\n    return materialize(T)\n", "f"),
    ("class K:\n    def io_matrix(self, g):\n"
     "        return toeplitz.materialize(self.col(g))\n", "io_matrix"),
])
def test_materialize_rule_catches_each_form(snippet, caller):
    assert [site[:2] for site in dense_f_sites(snippet, "x.py")
            if site[2] == "materialize"] == [("x.py", caller)]


def test_materialize_rule_passes_other_names():
    assert dense_f_sites("T = BlockToeplitz(c)\ny = T.forward(x)\n"
                         "materialized = dense = None\n") == []


@pytest.mark.parametrize("snippet, caller", [
    ("F = io_matrix(disc)\n", None),
    ("def f(disc, u):\n    return admissibility.io_matrix(disc) @ u\n", "f"),
    ("class K:\n    def apply(self, u):\n"
     "        return io_matrix(self.disc) @ u\n", "apply"),
])
def test_io_matrix_rule_catches_each_form(snippet, caller):
    assert dense_f_sites(snippet, "x.py") == [("x.py", caller, "io_matrix")]


def test_io_matrix_rule_passes_other_calls():
    assert dense_f_sites(
        "F = BlockToeplitz(disc.feedback_column())\ny = F.forward(u)\n"
        "n = numkit.lanczos_norms(F.forward, F.adjoint, [F.n])\n"
        "io_matrices = io_size = None\n") == []


@pytest.mark.parametrize("snippet", [
    "from .admissibility import IO_SIZE_CAP\n",
    "__all__ = ['io_matrix']\n",
    "def io_matrix(disc):\n    pass\n",
    "cap = admissibility.IO_SIZE_CAP\n",
])
def test_dense_f_rule_catches_imports_exports_and_definitions(snippet):
    assert len(dense_f_sites(snippet)) == 1


DISCRETIZATIONS = {"MatrixDiscretization", "TransportDiscretization"}
#: callee -> attribute names of its leading arguments, for the work that a
#: time grid (or a triple) fixes
GRID_WORK = {"expm": ["A", "h"], "_grid_nodes": ["h"],
             "phi_coefficients": ["mu"]}


def _grid_work(call: ast.Call):
    """The callee of ``expm(<x>.A, <y>.h)``, ``_grid_nodes(<y>.h, ...)`` or
    ``phi_coefficients(<x>.mu, ...)``, else ``None``."""
    name = getattr(call.func, "attr", getattr(call.func, "id", None))
    want = GRID_WORK.get(name)
    attrs = [getattr(arg, "attr", None) for arg in call.args[:2]]
    return name if want is not None and attrs[:len(want)] == want else None


def grid_work_outside_discretizations(source: str, name: str = "<source>"):
    """Each call that re-derives what a time grid fixes outside the two
    discretization classes (the Phi coefficients may also be built in
    ``TransportTriple.__post_init__``)."""
    found = []

    def visit(node, cls, function):
        for child in ast.iter_child_nodes(node):
            kind = _grid_work(child) if isinstance(child, ast.Call) else None
            if kind and cls not in DISCRETIZATIONS and not (
                    kind == "phi_coefficients"
                    and (cls, function) == ("TransportTriple",
                                            "__post_init__")):
                found.append(f"{name}:{child.lineno}: {kind}")
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child.name)
            else:
                visit(child, cls, function)
    visit(ast.parse(source, name), None, None)
    return found


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_grid_work_only_in_the_discretizations(path):
    # e^{hA}, the stride q and the Phi coefficients are built once per
    # (triple, grid), not re-derived by each map
    assert grid_work_outside_discretizations(
        path.read_text(), str(path.relative_to(SRC))) == []


@pytest.mark.parametrize("snippet", [
    "E = numkit.expm(self.A, grid.h)\n",
    "def f(t, g):\n    return expm(t.A, g.h) @ x\n",
    "class MatrixTriple:\n    def __post_init__(self):\n"
    "        E = numkit.expm(self.A, self.grid.h)\n",
    "q = _grid_nodes(grid.h, self.N, least=1)\n",
    "class K:\n    def control(self, g):\n"
    "        return transport._grid_nodes(g.h, N)\n",
    "c = phi_coefficients(self.mu, self.N)\n",
    "class TransportTriple:\n    def resolvent_residual(self, lam):\n"
    "        c = phi_coefficients(self.mu, N)\n",
], ids=["expm-module", "expm-function", "expm-triple", "stride-module",
        "stride-method", "phi-module", "phi-triple-method"])
def test_grid_work_rule_catches_each_form(snippet):
    assert len(grid_work_outside_discretizations(snippet)) == 1


def test_grid_work_rule_passes_other_calls():
    assert grid_work_outside_discretizations(
        "T = numkit.expm(self.A, t)\nT = numkit.expm(self.A, grid.t0)\n"
        "E = numkit.expm(t.closed_loop(), grid.h)\n"
        "j = _grid_nodes(t, self.N)\nc = phi_coefficients(mu, N)\n"
        "class MatrixDiscretization:\n    def __post_init__(self):\n"
        "        E = numkit.expm(self.triple.A, self.grid.h)\n"
        "class TransportDiscretization:\n    def __post_init__(self):\n"
        "        q = _grid_nodes(self.grid.h, self.triple.N, least=1)\n"
        "class TransportTriple:\n    def __post_init__(self):\n"
        "        c = phi_coefficients(self.mu, self.N)\n") == []


def _is_cell_exponential(call: ast.Call) -> bool:
    """``<x>.exp(<y>.multiply.outer(...))``: the exponentials of a grid of
    points against the density cells, the bulk of an evaluation of H."""
    inner = call.args[0] if call.args else None
    return (getattr(call.func, "attr", None) == "exp"
            and isinstance(inner, ast.Call)
            and getattr(inner.func, "attr", None) == "outer"
            and getattr(getattr(inner.func, "value", None), "attr",
                        None) == "multiply")


def cell_exponential_sites(source: str, name: str = "<source>"):
    """Each place that forms the density cell exponentials."""
    return call_sites(source, name, _is_cell_exponential)


def test_transfer_evaluator_is_the_one_h_path():
    # H and H' have one evaluator, transport._transfer_and_slope; the root
    # search and transfer_scalar read it, so no second H path grows beside it
    sites = {site for path in MODULES
             for site in cell_exponential_sites(path.read_text(),
                                                str(path.relative_to(SRC)))}
    assert sites == {("transport.py", "_transfer_and_slope")}


@pytest.mark.parametrize("snippet, site", [
    ("E = np.exp(np.multiply.outer(lam, left))\n", None),
    ("def H(lam, x):\n"
     "    return numpy.exp(numpy.multiply.outer(lam, x)).sum(-1)\n", "H"),
    ("class K:\n    def slope(self, z):\n"
     "        b = np.exp(np.multiply.outer(z[:9], self.left)) * self.w\n",
     "slope"),
])
def test_cell_exponential_rule_catches_each_form(snippet, site):
    assert cell_exponential_sites(snippet, "x.py") == [("x.py", site)]


def test_cell_exponential_rule_passes_other_exponentials():
    assert cell_exponential_sites(
        "a = np.exp(lam * (loc - 1.0))\nb = np.multiply.outer(x, y)\n"
        "c = np.exp(np.add.outer(x, y))\nd = np.exp()\n") == []


WINDOW_REDUCTIONS = {"max", "min", "sum"}


def _is_window(node, spellings, views) -> bool:
    """A ``sliding_window_view`` call, a name bound to a window view, or a
    slice of either."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Call):
        return bool(spellings & {getattr(node.func, "id", None),
                                 getattr(node.func, "attr", None)})
    return isinstance(node, ast.Name) and node.id in views


def window_reductions_in_loops(source: str, name: str = "<source>"):
    """Each ``.max`` / ``.min`` / ``.sum`` (method or numpy function) of a
    sliding window view inside a ``for`` or ``while`` loop.  Names bound to
    a view, or to a slice of a bound name, count as views, module-wide."""
    tree = ast.parse(source, name)
    spellings = {"sliding_window_view"} | {
        alias.asname for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
        if alias.name == "sliding_window_view" and alias.asname}
    views = set()
    while True:
        bound = {target.id for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)
                 and _is_window(node.value, spellings, views)
                 for target in node.targets if isinstance(target, ast.Name)}
        if bound <= views:
            break
        views |= bound
    found = {}
    for loop in ast.walk(tree):
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            inside = loop.body + loop.orelse
        elif isinstance(loop, ast.While):
            inside = [loop.test] + loop.body + loop.orelse
        else:
            continue
        for node in (sub for part in inside for sub in ast.walk(part)):
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "attr", None) in WINDOW_REDUCTIONS \
                    and (_is_window(node.func.value, spellings, views)
                         or (node.args and _is_window(node.args[0],
                                                      spellings, views))):
                found[id(node)] = (f"{name}:{node.lineno}: window "
                                   f"{node.func.attr} in a loop")
    return sorted(found.values())


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_window_reduction_in_a_loop(path):
    assert window_reductions_in_loops(path.read_text(),
                                      str(path.relative_to(SRC))) == []


@pytest.mark.parametrize("snippet", [
    "w = sliding_window_view(a, 3)\nfor j in range(n):\n"
    "    m = w[j:j + 2].max(axis=1)\n",
    "while k < n:\n"
    "    s = np.lib.stride_tricks.sliding_window_view(a, 3).sum(axis=1)\n"
    "    k += 1\n",
    "w = sliding_window_view(a, 4)\nheads = w[:, :2]\nfor j in range(n):\n"
    "    lo = heads[j].min()\n",
    "w = sliding_window_view(a, 4)\nfor j in range(n):\n"
    "    m = np.max(w[j:j + 8], axis=1)\n",
    "w = sliding_window_view(a, 4)\nwhile w[k].sum() > 0:\n    k += 1\n",
    "from numpy.lib.stride_tricks import sliding_window_view as swv\n"
    "for j in range(n):\n    m = swv(a, 4).max()\n",
    "def f(a):\n    w = sliding_window_view(a, 4)\n"
    "    for i in range(2):\n        for j in range(3):\n"
    "            t = w[j].sum()\n",
], ids=["named-slice", "while-call", "derived-name", "numpy-function",
        "while-test", "alias", "nested-loops"])
def test_window_reduction_rule_catches_each_form(snippet):
    assert len(window_reductions_in_loops(snippet)) == 1


def test_window_reduction_rule_catches_the_block_oracle():
    # the per-block window maximum that the per-level check replaced
    source = (SRC.parents[1] / "tests" / "conftest.py").read_text()
    assert len(window_reductions_in_loops(source)) == 1


def test_window_reduction_rule_passes_other_reductions():
    assert window_reductions_in_loops(
        "w = sliding_window_view(a, 4)\nm = w.max(axis=1)\n"
        "for row in w.sum(axis=1):\n    t = np.maximum(1.0, w[row])\n"
        "    u = x[row].max()\n    v = np.sum(y)\n    r = read(w[row])\n"
        "while k < n:\n    k = np.maximum.accumulate(a).max()\n") == []


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


#: every module but the entry point, which runs the CLI on import
IMPORTABLE = [p for p in MODULES if p.name != "__main__.py"]


@pytest.mark.parametrize("path", IMPORTABLE,
                         ids=[str(p.relative_to(SRC)) for p in IMPORTABLE])
def test_every_export_resolves(path):
    # a deleted function leaves no dangling name in any __all__
    module = importlib.import_module(_module_name(path))
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


#: the benchmark's workloads, read only: they call the package as ``sg``
WORKLOADS = SRC.parent.parent / "perfbench" / "workloads.py"


def benchmark_api_faults(source: str, name: str = "<source>"):
    """Each ``sg.<name>`` that does not resolve on :mod:`sgperturb`, and
    each call of one whose arguments do not bind to its current signature.
    A call with a ``*`` or ``**`` splat is checked for resolution only."""
    sg = importlib.import_module("sgperturb")
    found = []
    calls = {}
    tree = ast.parse(source, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            calls[id(node.func)] = node
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "sg"):
            continue
        where = f"{name}:{node.lineno}: sg.{node.attr}"
        if not hasattr(sg, node.attr):
            found.append(f"{where} does not resolve")
            continue
        call = calls.get(id(node))
        if call is None or any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            continue
        try:
            inspect.signature(getattr(sg, node.attr)).bind(
                *call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            found.append(f"{where} does not bind: {exc}")
    return found


def test_benchmark_calls_resolve_and_bind():
    # the benchmark runs the workloads unchanged against every version of
    # the package, so what they call must stay callable as they call it
    source = WORKLOADS.read_text()
    assert "sg.long_horizon_growth_check(" in source
    assert benchmark_api_faults(source, WORKLOADS.name) == []


@pytest.mark.parametrize("snippet, fault", [
    ("x = sg.not_a_name(t, 0.5, x)\n", "does not resolve"),
    ("f = sg.not_a_name\n", "does not resolve"),
    ("r = sg.characteristic_roots(mu, box, tol=1e-10)\n", "does not bind"),
    ("r = sg.long_horizon_growth_check(t, g, mus, 6)\n", "does not bind"),
    ("g = sg.TimeGrid()\n", "does not bind"),
])
def test_benchmark_rule_catches_each_form(snippet, fault):
    found = benchmark_api_faults(snippet)
    assert len(found) == 1 and fault in found[0]


def test_benchmark_rule_passes_other_calls():
    assert benchmark_api_faults(
        "r = sg.characteristic_roots(mu, (-5.0, 3.0, -20.0, 20.0))\n"
        "t = sg.MatrixTriple(**{k: v for k, v in M.items()})\n"
        "g = sg.TimeGrid(0.5, 128)\nc = sg.generation_certificate(\n"
        "    t, g, P, ALPHA, BETA, rng)\nx = other.missing(1, 2, 3)\n"
        "s = sg.GridFunction(v, p=P)\n") == []


def forwarders(source: str, name: str = "<source>"):
    """Each public module-level function whose body, after its docstring,
    is one ``return`` of a method call on one of its own parameters: a
    second name for a method, which callers should call directly."""
    found = []
    for node in ast.parse(source, name).body:
        if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")):
            continue
        body = node.body
        if isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            body = body[1:]
        args = node.args
        params = {a.arg for a in (args.posonlyargs + args.args
                                  + args.kwonlyargs)}
        params |= {a.arg for a in (args.vararg, args.kwarg) if a}
        if len(body) == 1 and isinstance(body[0], ast.Return) \
                and isinstance(body[0].value, ast.Call):
            func = body[0].value.func
            if isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id in params:
                found.append(f"{name}:{node.lineno}: {node.name} forwards "
                             f"to {func.value.id}.{func.attr}")
    return found


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_module_function_forwards_to_a_method(path):
    assert forwarders(path.read_text(), str(path.relative_to(SRC))) == []


@pytest.mark.parametrize("snippet", [
    'def spectral_abscissa(triple):\n    """Doc."""\n'
    "    return triple.spectral_abscissa()\n",
    "def perturbed_resolvent(triple, lam):\n"
    "    return triple.perturbed_resolvent(complex(lam))\n",
    "def step(*, triple, t, x):\n    return triple.step(t, x)\n",
    "def apply(*args):\n    return args.count(1)\n",
    "async def fetch(client):\n    return client.get()\n",
])
def test_forwarder_rule_catches_each_form(snippet):
    assert len(forwarders(snippet)) == 1


def test_forwarder_rule_passes_other_code():
    rescale = (
        "def rescale(triple, mu_shift):\n"
        '    """Triple with state operator A - mu_shift Id."""\n'
        "    if mu_shift < 0:\n        raise ValueError(mu_shift)\n"
        "    if mu_shift == 0:\n        return triple\n"
        "    return triple.rescale(mu_shift)\n")
    assert forwarders(rescale) == []
    assert forwarders(
        "def _private(t):\n    return t.step(0.5)\n"
        "def norm(x):\n    return np.linalg.norm(x)\n"
        "def world(t):\n    return t.world\n"
        "def chained(t):\n    return t.discretize(g).observe(x)\n"
        "def stored(t):\n    s = t.step(1.0)\n    return s\n"
        "class Triple:\n    def step(self, t):\n"
        "        return self.expm(t)\n") == []


def hidden_knobs(source: str, name: str = "<source>"):
    """Each parameter of a function or lambda whose name starts with ``_``:
    a settable option that only the function itself is meant to set."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                    args.vararg, args.kwarg):
            if arg is not None and arg.arg.startswith("_"):
                found.append(f"{name}:{arg.lineno}: "
                             f"{getattr(node, 'name', 'lambda')} takes "
                             f"{arg.arg}")
    return found


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_function_takes_a_hidden_parameter(path):
    assert hidden_knobs(path.read_text(), str(path.relative_to(SRC))) == []


@pytest.mark.parametrize("snippet", [
    "def suite(triple, rng, _nested=True):\n    pass\n",
    "def f(_x, /, y):\n    pass\n",
    "def f(x, *, _fast=False):\n    pass\n",
    "def f(*_args):\n    pass\n",
    "def f(**_kw):\n    pass\n",
    "async def f(_session):\n    pass\n",
    "g = lambda _x: _x\n",
    "class K:\n    def m(self, _cache=None):\n        pass\n",
], ids=["default", "positional-only", "keyword-only", "vararg", "kwarg",
        "async", "lambda", "method"])
def test_hidden_parameter_rule_catches_each_form(snippet):
    assert len(hidden_knobs(snippet)) == 1


def test_hidden_parameter_rule_passes_other_names():
    assert hidden_knobs(
        "def _private(x, nested=True, *args, **kwargs):\n    _y = x\n"
        "    return lambda v, w=_y: v + w\n"
        "class K:\n    def __init__(self, x_):\n        self._x = x_\n"
        "    def _m(self, a, *, b):\n        return self._x\n") == []
