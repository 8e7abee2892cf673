"""Dense complex linear-algebra kernel shared by every other module.

Operators in this package are finite complex matrices (``numpy.ndarray``
with dtype ``complex128``) produced by the validating coercers
:func:`as_matrix` / :func:`as_vector`, or float64 ones where the data is
real.  Three kernels take real input as float64, without a complex copy: the
norms, the singular values and the triangular solve; the first two also
narrow complex data whose imaginary part is zero.  The module provides

* a scaling-and-squaring Pade matrix exponential (:func:`expm`),
* linear solves with explicit singularity reporting (:func:`solve`,
  LAPACK's LU behind a QR-diagonal singularity test, and blocked forward
  substitution :func:`solve_lower_triangular`, as numpy has no triangular
  solve),
* exact induced operator norms for p in {1, 2, inf} (the 2-norm from a
  symmetric eigensolve of the Gram matrix, in real arithmetic when the data
  is real) and certified (lower, upper) brackets for every other exponent
  (:func:`induced_norm`, :func:`norm_bounds`),
* dense eigenvalues (:func:`eigenvalues`),
* seeded random instances (:func:`make_rng`, :func:`random_matrix`).

Everything is a pure function of its inputs; no global state.  Every
kernel runs on numpy's own LAPACK and BLAS, so the process has one BLAS
thread pool: a second library with its own bundled BLAS would keep a second
pool, and a call into one right after a threaded call into the other waits
milliseconds for the other pool's threads.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NumkitError",
    "ShapeError",
    "SingularMatrixError",
    "NumericalRangeError",
    "UnsupportedExponentError",
    "ConvergenceError",
    "as_matrix",
    "as_vector",
    "expm",
    "solve",
    "solve_lower_triangular",
    "vector_norm",
    "induced_norm",
    "norm_bounds",
    "eigenvalues",
    "spectral_radius_distance",
    "make_rng",
    "random_matrix",
    "random_vector",
]


class NumkitError(Exception):
    """Base class for numerical-kernel failures."""


class ShapeError(NumkitError, ValueError):
    """Operand shapes are inconsistent (non-square, mismatched, ...)."""


class SingularMatrixError(NumkitError, ArithmeticError):
    """A pivot collapsed to working precision during a solve."""


class NumericalRangeError(NumkitError, ArithmeticError):
    """Input or intermediate values left the representable/accurate range."""


class UnsupportedExponentError(NumkitError, ValueError):
    """An exact induced norm was requested for p outside {1, 2, inf}."""


class ConvergenceError(NumkitError, RuntimeError):
    """An iterative eigenvalue computation failed to converge."""


# ---------------------------------------------------------------------------
# validated coercion
# ---------------------------------------------------------------------------

def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-d complex128 array.

    Raises
    ------
    ShapeError
        if ``a`` is not two-dimensional.
    NumericalRangeError
        if any entry is NaN or infinite.
    """
    return _finite_matrix(np.asarray(a, dtype=np.complex128))


def _finite_matrix(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():  # complex: both parts finite
        raise NumericalRangeError("matrix entries must be finite")
    return m


def _unwidened(a) -> np.ndarray:
    """:func:`as_matrix` that leaves real input as float64 instead of
    widening it to a complex copy."""
    m = np.asarray(a)
    if np.iscomplexobj(m):
        return as_matrix(m)
    return _finite_matrix(m.astype(np.float64, copy=False))


def _narrowed(a) -> np.ndarray:
    """:func:`_unwidened`, and a complex input whose imaginary part is all
    zero is narrowed to its real part, so LAPACK runs in real arithmetic."""
    m = _unwidened(a)
    if np.iscomplexobj(m) and not m.imag.any():
        return np.ascontiguousarray(m.real)
    return m


def as_vector(a) -> np.ndarray:
    """Coerce ``a`` to a finite 1-d complex128 array."""
    v = np.asarray(a, dtype=np.complex128)
    if v.ndim == 2 and 1 in v.shape:
        v = v.reshape(-1)
    if v.ndim != 1:
        raise ShapeError(f"expected a vector, got shape {v.shape}")
    if v.size and not np.isfinite(v).all():
        raise NumericalRangeError("vector entries must be finite")
    return v


def _require_square(m: np.ndarray, who: str) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"{who} requires a square matrix, got {m.shape}")
    return m


def _require_lower_triangular(L: np.ndarray, who: str) -> None:
    """Raise :class:`ShapeError` on a nonzero entry above the diagonal.

    Reads each band of :data:`_NB` rows on views: the rectangle right of its
    diagonal block, and the strict upper triangle of that block by mask.
    """
    n = L.shape[0]
    above = np.triu(np.ones((_NB, _NB), dtype=bool), 1)
    for r in range(0, n, _NB):
        j = min(r + _NB, n)
        if L[r:j, j:].any() or L[r:j, r:j][above[:j - r, :j - r]].any():
            raise ShapeError(f"{who} needs a lower-triangular matrix")


# ---------------------------------------------------------------------------
# matrix exponential: scaling and squaring with the order-13 Pade approximant
# ---------------------------------------------------------------------------
# Order-13 diagonal Pade numerator coefficients b_0..b_13 (the denominator
# uses alternating signs) and the 1-norm threshold theta_13 up to which the
# approximant meets double-precision accuracy (Higham 2005).  Written out on
# numpy because the whole kernel keeps to numpy's one BLAS thread pool (see
# the module docstring).

_PADE_B = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_PADE_THETA = 5.371920351148152e0
_MAX_SQUARINGS = 60  # 2**60 ~ 1.2e18; beyond this the result is garbage anyway


def _pade_uv(M: np.ndarray):
    """Split the numerator of the order-13 Pade approximant into (U, V)
    with p(M) = V + U and q(M) = V - U (odd/even powers)."""
    b = _PADE_B
    eye = np.eye(M.shape[0], dtype=np.complex128)
    M2 = M @ M
    M4 = M2 @ M2
    M6 = M4 @ M2
    U = M @ (M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2)
             + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * eye)
    V = (M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2)
         + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * eye)
    return U, V


def expm(A, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``e^{tA}`` by scaling and squaring.

    ``tA`` is halved ``s`` times until its 1-norm is at most theta_13, the
    order-13 Pade approximant is evaluated, and the result is squared back.
    Relative error is ~1e-13 for moderate norms and <= 1e-12 up to
    ``||tA|| ~ 50``.

    Raises
    ------
    ShapeError
        for non-square ``A``.
    NumericalRangeError
        if ``||tA||`` would need more than 60 halvings (overflow regime) or
        the input contains non-finite entries.
    """
    A = _require_square(as_matrix(A), "expm")
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    with np.errstate(over="ignore"):  # overflow is caught on the next line
        M = t * A
        nrm = np.linalg.norm(M, 1)
    if not np.isfinite(nrm):
        raise NumericalRangeError("||tA|| overflowed double precision")
    s = 0
    if nrm > _PADE_THETA:
        s = int(np.ceil(np.log2(nrm / _PADE_THETA)))
        if s > _MAX_SQUARINGS:
            raise NumericalRangeError(
                f"||tA|| = {nrm:.3e} needs {s} > {_MAX_SQUARINGS} squarings")
        M = M / (2.0 ** s)
    U, V = _pade_uv(M)
    try:
        E = np.linalg.solve(V - U, V + U)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological
        raise SingularMatrixError(f"Pade denominator singular: {exc}") from exc
    for _ in range(s):
        E = E @ E
    if not np.isfinite(E).all():
        raise NumericalRangeError("matrix exponential overflowed")
    return E


# ---------------------------------------------------------------------------
# solves and norms
# ---------------------------------------------------------------------------

def _stacked_rhs(A: np.ndarray, b):
    """``b`` as a column stack matching ``A``, plus whether it was a vector."""
    b_arr = np.asarray(b, dtype=np.complex128)
    vector_rhs = b_arr.ndim == 1
    B = b_arr.reshape(-1, 1) if vector_rhs else as_matrix(b_arr)
    if B.shape[0] != A.shape[0]:
        raise ShapeError(f"rhs has {B.shape[0]} rows, matrix is {A.shape}")
    return B, vector_rhs


def _require_pivots(pivots: np.ndarray) -> None:
    """Raise unless every pivot exceeds ~n*eps of the largest one."""
    diag = np.abs(pivots)
    dmax = diag.max()
    if dmax == 0.0 or diag.min() <= dmax * diag.size * np.finfo(float).eps:
        raise SingularMatrixError(
            "matrix is singular to working precision "
            f"(pivot ratio {0.0 if dmax == 0.0 else diag.min() / dmax:.3e})")


# Rows per block of the forward substitution: measured on 1024 and 2048
# complex systems, it keeps the block loop short and the products large.
_NB = 64


def _forward_substitute(L: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Overwrite ``X`` with ``L^{-1} X`` and return it, reading only the
    lower triangle of ``L``.

    Blocks of :data:`_NB` rows: the part of a block left of the diagonal
    takes one product, and the diagonal block is inverted by
    ``np.linalg.solve`` and applied by one product, so many right-hand sides
    run at matrix-product speed.
    """
    n = L.shape[0]
    for i in range(0, n, _NB):
        j = min(i + _NB, n)
        if i:
            X[i:j] -= L[i:j, :i] @ X[:i]
        try:
            D_inv = np.linalg.solve(np.tril(L[i:j, i:j]), np.eye(j - i))
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"triangular block {i}:{j} is singular: {exc}") from exc
        X[i:j] = D_inv @ X[i:j]
    return X


def solve(A, b) -> np.ndarray:
    """Solve ``A x = b`` by LAPACK's partial-pivoting LU (``gesv``).

    ``b`` may be a vector or a matrix of stacked right-hand sides; shape
    mismatches raise :class:`ShapeError`.  Singularity is tested first on
    the diagonal of R in ``A = QR``: a diagonal entry within ``n eps`` of
    the largest one (the "pivot ratio") raises :class:`SingularMatrixError`.
    R is triangular and has the singular values of ``A``, so
    ``sigma_min <= min |R_kk|`` and ``max |R_kk| <= sigma_max``; the error
    therefore fires only when ``kappa_2(A) >= 1 / (n eps)``, and never on a
    matrix that is merely ill-conditioned below that.
    """
    A = _require_square(as_matrix(A), "solve")
    B, vector_rhs = _stacked_rhs(A, b)
    if A.shape[0] == 0:
        return B.reshape(-1) if vector_rhs else B
    _require_pivots(np.diag(np.linalg.qr(A, mode="r")))
    try:
        X = np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"LU pivot is exactly zero: {exc}") from exc
    return X.reshape(-1) if vector_rhs else X


def solve_lower_triangular(L, b) -> np.ndarray:
    """Solve ``L x = b`` by forward substitution, ``L`` lower triangular.

    Same contract as :func:`solve`: a diagonal entry within ~n*eps of zero
    (relative to the largest one; the diagonal holds the pivots) is reported
    as :class:`SingularMatrixError`, shape mismatches raise
    :class:`ShapeError`, and so does a nonzero entry above the diagonal.
    A real ``L`` stays real: it is not copied to complex for a complex ``b``.
    """
    L = _require_square(_unwidened(L), "solve_lower_triangular")
    B, vector_rhs = _stacked_rhs(L, b)
    n = L.shape[0]
    if n == 0:
        return B.reshape(-1) if vector_rhs else B
    _require_lower_triangular(L, "solve_lower_triangular")
    _require_pivots(np.diag(L))
    X = _forward_substitute(L, B.copy())
    return X.reshape(-1) if vector_rhs else X


def vector_norm(x, p: float, weight: float = 1.0) -> float:
    """Weighted vector p-norm ``(sum_i w |x_i|^p)^{1/p}``; max-norm for inf."""
    v = np.abs(np.asarray(x, dtype=np.complex128).reshape(-1))
    if np.isinf(p):
        return float(v.max()) if v.size else 0.0
    if p <= 0:
        raise UnsupportedExponentError(f"p = {p} is not a norm exponent")
    return float((weight * np.sum(v ** p)) ** (1.0 / p))


def induced_norm(A, p, weights=None) -> float:
    """Exact induced operator p-norm for p in {1, 2, inf}.

    ``weights`` (positive reals, one per axis point) turn the plain p-norm
    into the quadrature-weighted one via the diagonal similarity
    ``D A D^{-1}`` with ``D = diag(w^{1/p})``; for p = inf weights cancel.
    For any other exponent use :func:`norm_bounds`.

    p = 2 is the largest singular value, taken as the square root of the
    largest eigenvalue of the Hermitian Gram matrix on the smaller side
    (``A^H A`` or ``A A^H``) by a symmetric eigensolve.  That eigenvalue is
    backward stable to about ``n eps ||A||^2``, so ``sigma_max`` carries a
    relative error of about ``n eps`` (n the smaller dimension), whatever
    the conditioning of ``A``.  Real data (also complex data with a zero
    imaginary part) runs in real arithmetic.
    """
    A = _narrowed(A)
    if weights is not None and not np.isinf(p):
        w_out, w_in = _norm_weights(A, weights)
        D_out = w_out ** (1.0 / p)
        D_in = w_in ** (1.0 / p)
        A = (A * D_out[:, None]) / D_in[None, :]
    if p == 1:
        return float(np.abs(A).sum(axis=0).max()) if A.size else 0.0
    if p == 2:
        return _largest_singular_value(A) if A.size else 0.0
    if np.isinf(p):
        return float(np.abs(A).sum(axis=1).max()) if A.size else 0.0
    raise UnsupportedExponentError(
        f"exact induced norm only for p in {{1, 2, inf}}, got p = {p}; "
        "use norm_bounds for a certified bracket")


def _largest_singular_value(A: np.ndarray) -> float:
    Ah = A.conj().T                      # a view when A is real
    gram = Ah @ A if A.shape[0] >= A.shape[1] else A @ Ah
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def _smallest_singular_value(A) -> float:
    """Smallest singular value of ``A`` by a dense SVD (real data in real
    arithmetic).  A Gram eigensolve would lose it below ``sqrt(eps) ||A||``,
    so margin checks near 1e-8 need the SVD."""
    A = _narrowed(A)
    if not A.size:
        return float("inf")
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def _norm_weights(A: np.ndarray, weights):
    if isinstance(weights, tuple):
        w_out, w_in = weights
    else:
        w_out = w_in = weights
    w_out = np.asarray(w_out, dtype=float).reshape(-1)
    w_in = np.asarray(w_in, dtype=float).reshape(-1)
    if w_out.shape[0] != A.shape[0] or w_in.shape[0] != A.shape[1]:
        raise ShapeError("weight lengths must match matrix dimensions")
    if np.any(w_out <= 0) or np.any(w_in <= 0):
        raise ValueError("weights must be positive")
    return w_out, w_in


def norm_bounds(A, p: float, rng=None, trials: int = 200):
    """Certified (lower, upper) bracket for the induced p-norm, 1 <= p <= inf.

    lower: best ratio ``||Ax||_p / ||x||_p`` over the canonical basis plus
    ``trials`` seeded random vectors (a genuine lower bound).
    upper: the interpolation bound ``||A||_1^{1/p} * ||A||_inf^{1-1/p}``
    (log-convexity of p -> ||A||_p between the exact endpoint norms).
    """
    A = as_matrix(A)
    if p < 1:
        raise UnsupportedExponentError(f"p = {p} < 1 is not supported")
    if p in (1, 2) or np.isinf(p):
        exact = induced_norm(A, p)
        return exact, exact
    if A.size == 0:
        return 0.0, 0.0
    n1 = induced_norm(A, 1)
    ninf = induced_norm(A, np.inf)
    upper = n1 ** (1.0 / p) * ninf ** (1.0 - 1.0 / p)
    rng = make_rng(0) if rng is None else rng
    lower = 0.0
    cols = A.shape[1]
    for j in range(cols):
        lower = max(lower, vector_norm(A[:, j], p))  # unit basis vectors
    for _ in range(max(trials, 1)):
        x = random_vector(rng, cols)
        nx = vector_norm(x, p)
        if nx > 0.0:
            lower = max(lower, vector_norm(A @ x, p) / nx)
    return lower, upper


def eigenvalues(A) -> np.ndarray:
    """All eigenvalues of a square matrix (dense QR iteration).

    Raises :class:`ConvergenceError` if the QR iteration fails — the error
    message carries the LAPACK diagnostic.
    """
    A = _require_square(as_matrix(A), "eigenvalues")
    if A.shape[0] == 0:
        return np.zeros(0, dtype=np.complex128)
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc


def spectral_radius_distance(A, point: complex) -> float:
    """Distance from ``point`` to the spectrum of ``A`` (min over eigenvalues)."""
    lam = eigenvalues(A)
    if lam.size == 0:
        return float("inf")
    return float(np.min(np.abs(lam - point)))


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------

def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator; identical seed => identical stream on all platforms."""
    return np.random.Generator(np.random.PCG64(seed))


def random_matrix(rng: np.random.Generator, rows: int, cols: int,
                  scale: float = 1.0) -> np.ndarray:
    """Random complex matrix, re/im parts i.i.d. uniform on [-scale, scale]."""
    re = rng.uniform(-scale, scale, size=(rows, cols))
    im = rng.uniform(-scale, scale, size=(rows, cols))
    return re + 1j * im


def random_vector(rng: np.random.Generator, dim: int,
                  scale: float = 1.0) -> np.ndarray:
    """Random complex vector, re/im parts i.i.d. uniform on [-scale, scale]."""
    return random_matrix(rng, dim, 1, scale).reshape(-1)
