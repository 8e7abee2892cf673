"""Dense complex linear-algebra kernel shared by every other module.

Operators in this package are finite complex matrices (``numpy.ndarray``
with dtype ``complex128``) produced by the validating coercers
:func:`as_matrix` / :func:`as_vector`, or float64 ones where the data is
real.  Two kernels take real input as float64, without a complex copy, and
narrow complex data whose imaginary part is zero: the norms and the singular
values.  The module provides

* a scaling-and-squaring Pade matrix exponential (:func:`expm`),
* linear solves with explicit singularity reporting (:func:`solve`,
  LAPACK's LU behind a QR-diagonal singularity test),
* exact induced operator norms for p in {1, 2, inf} (:func:`induced_norm`;
  the 2-norm from a symmetric eigensolve of the Gram matrix, in real
  arithmetic when the data is real),
* 2-norms of operators given only by their products, section by section
  (:func:`lanczos_norms`, symmetric Lanczos on the normal operator),
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
    "vector_norm",
    "induced_norm",
    "lanczos_norms",
    "eigenvalues",
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
    """An iterative eigenvalue or singular-value computation failed to
    converge."""


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


def _narrowed(a) -> np.ndarray:
    """:func:`as_matrix` that leaves real input as float64 instead of
    widening it to a complex copy, and narrows a complex input whose
    imaginary part is all zero to its real part, so LAPACK runs in real
    arithmetic."""
    m = np.asarray(a)
    if not np.iscomplexobj(m):
        return _finite_matrix(m.astype(np.float64, copy=False))
    m = as_matrix(m)
    if not m.imag.any():
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
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
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


def vector_norm(x, p: float, weight: float = 1.0) -> float:
    """Weighted vector p-norm ``(sum_i w |x_i|^p)^{1/p}``; max-norm for inf.

    Only when the plain sum overflows are the entries rescaled by the
    largest one, so an in-range norm keeps the bytes of the plain formula.
    """
    v = np.abs(np.asarray(x, dtype=np.complex128).reshape(-1))
    if np.isinf(p):
        return float(v.max()) if v.size else 0.0
    if not p > 0:
        raise UnsupportedExponentError(f"p = {p} is not a norm exponent")
    with np.errstate(over="ignore"):
        total = weight * np.sum(v ** p)
    if not np.isfinite(total) and np.isfinite(scale := v.max()):
        return float(scale * (weight * np.sum((v / scale) ** p)) ** (1.0 / p))
    return float(total ** (1.0 / p))


def _euclidean_norm(x) -> float:
    """``np.linalg.norm(x)``, rescaled (:func:`vector_norm`) only when that
    overflows, so an in-range norm keeps its bytes; raises past the range."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        norm = np.linalg.norm(x)
        if not np.isfinite(norm):
            norm = vector_norm(x, 2)
    if not np.isfinite(norm):
        raise NumericalRangeError("euclidean norm overflowed")
    return float(norm)


def induced_norm(A, p) -> float:
    """Exact induced operator p-norm for p in {1, 2, inf}.

    For a causal Toeplitz operator,
    :func:`~sgperturb.toeplitz.column_norm` bounds every other exponent.

    p = 2 is the largest singular value, taken as the square root of the
    largest eigenvalue of the Hermitian Gram matrix on the smaller side
    (``A^H A`` or ``A A^H``) by a symmetric eigensolve.  That eigenvalue is
    backward stable to about ``n eps ||A||^2``, so ``sigma_max`` carries a
    relative error of about ``n eps`` (n the smaller dimension), whatever
    the conditioning of ``A``.  Real data (also complex data with a zero
    imaginary part) runs in real arithmetic.
    """
    A = _narrowed(A)
    if p == 1:
        return float(np.abs(A).sum(axis=0).max()) if A.size else 0.0
    if p == 2:
        return _largest_singular_value(A) if A.size else 0.0
    if np.isinf(p):
        return float(np.abs(A).sum(axis=1).max()) if A.size else 0.0
    raise UnsupportedExponentError(
        f"exact induced norm only for p in {{1, 2, inf}}, got p = {p}; "
        "toeplitz.column_norm bounds a causal Toeplitz operator's norm")


def _largest_singular_value(A: np.ndarray) -> float:
    """Only when the Gram product overflows is ``A`` rescaled by its largest
    entry modulus, so an in-range norm keeps the bytes of the plain one."""
    Ah = A.conj().T                      # a view when A is real
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        gram = Ah @ A if A.shape[0] >= A.shape[1] else A @ Ah
    if np.isfinite(gram).all():
        return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))
    scale = float(np.abs(A).max())
    sigma = scale * _largest_singular_value(A / scale)
    if not np.isfinite(sigma):
        raise NumericalRangeError("largest singular value overflowed")
    return sigma


def _smallest_singular_value(A) -> float:
    """Smallest singular value of ``A`` by a dense SVD (real data in real
    arithmetic).  A Gram eigensolve would lose it below ``sqrt(eps) ||A||``,
    so margin checks near 1e-8 need the SVD."""
    A = _narrowed(A)
    if not A.size:
        return float("inf")
    return float(np.linalg.svd(A, compute_uv=False)[-1])


#: relative residual at which a Lanczos Ritz value counts as converged
_GKL_TOL = 1e-13
#: Lanczos steps allowed before :class:`ConvergenceError`
_GKL_MAX_STEPS = 500
#: seed of the fixed Lanczos start vector (no caller's rng is drawn from)
_GKL_SEED = 0
#: Lanczos vectors per storage chunk, so a basis grows without a copy
_GKL_CHUNK = 8


def lanczos_norms(forward, adjoint, sizes) -> np.ndarray:
    """2-norms of the leading sections ``A_s = A[:s, :s]``, ``s`` in
    ``sizes``, of a square operator ``A`` given only by its products.

    ``forward(X)`` and ``adjoint(X)`` return ``A X`` and ``A^H X`` for a
    block ``X`` of ``max(sizes)`` rows, one column per section; a column is
    zero below its section, and the rows below it are dropped from the
    product, so each column sees ``A_s``.  Symmetric Lanczos runs on the
    normal operator ``A_s^H A_s`` of every section in lockstep (Golub & Van
    Loan, ch. 10), one step being ``adjoint(forward(v))``, from one fixed
    start vector (seeded here, so the result is a pure function of ``A``),
    with full reorthogonalization of its one basis, applied twice.  The
    Krylov space is the right one of Golub-Kahan-Lanczos bidiagonalization
    from the same start, so the steps and products match that method's.
    Each section's products are divided by ``c = max |A_s v_1|``, the
    largest entry of its first product, so ``||A_s||^2`` may lie outside
    double range as long as the products do not.

    Step ``k`` has the ``k x k`` tridiagonal ``T_k``, the compression of
    ``A_s^H A_s / c^2`` to the basis.  Its top eigenpair ``(theta^2 / c^2,
    y)`` is a Ritz pair with residual ``r = beta_k |y_k|``, so ``A_s^H A_s``
    has an eigenvalue ``sigma^2`` within ``c^2 r`` of ``theta^2``, and
    ``|sigma - theta| = |sigma^2 - theta^2| / (sigma + theta) <= c^2 r /
    theta``.  A section stops when ``c^2 r <= _GKL_TOL * theta^2``, or when
    its Krylov space is exhausted (``beta = 0``, or ``s`` steps), where ``r``
    is 0.  Guarantee: ``theta`` is within ``_GKL_TOL * theta`` of a singular
    value of ``A_s``, and ``theta <= ||A_s||``, because ``T_k`` is a
    compression of ``A_s^H A_s / c^2``.  A section that has not stopped after
    ``_GKL_MAX_STEPS`` steps raises :class:`ConvergenceError`; a product
    that is not finite (it overflowed) raises :class:`NumericalRangeError`.
    """
    sizes = np.asarray(sizes, dtype=int).reshape(-1)
    if not sizes.size or sizes.min() < 1:
        raise ShapeError(f"section sizes must be positive, got {sizes}")
    weight = (np.arange(sizes.max()) < sizes[:, None]).astype(float)

    def apply(product, w):
        return product(w.T).T * weight

    v = make_rng(_GKL_SEED).standard_normal(weight.shape[1]) * weight
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    # the tridiagonals, one row per section: alphas[:, k-1] and betas[:, k-1]
    alphas = np.zeros((sizes.size, _GKL_MAX_STEPS))
    betas = np.zeros((sizes.size, _GKL_MAX_STEPS))
    theta = np.zeros(sizes.size)
    done = np.zeros(sizes.size, dtype=bool)
    active = np.arange(sizes.size)
    # an overflow shows as a non-finite alpha or beta, checked every step
    with np.errstate(over="ignore", invalid="ignore"):
        u = apply(forward, v)
        c = np.abs(u).max(axis=1)       # every later product is over c
        c[c == 0.0] = 1.0
        weight /= c[:, None]
        u /= c[:, None]
        V = _Basis(v, np.result_type(u, v))
        for k in range(1, _GKL_MAX_STEPS + 1):
            alpha = np.linalg.norm(u, axis=1) ** 2
            w = V.project_out(apply(adjoint, u))
            beta = np.linalg.norm(w, axis=1)
            if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
                raise NumericalRangeError(
                    "Lanczos norm: an operator product left double range")
            alphas[:, k - 1] = alpha
            # top eigenpairs of the open sections' tridiagonals, filled by
            # flat strides (eigh reads the lower triangle only)
            tridiagonal = np.zeros((active.size, k * k))
            tridiagonal[:, ::k + 1] = alphas[active, :k]
            tridiagonal[:, k::k + 1] = betas[active, :k - 1]
            lam, vectors = np.linalg.eigh(tridiagonal.reshape(-1, k, k))
            top = lam[:, -1]
            residual = beta[active] * np.abs(vectors[:, -1, -1])
            stop = (residual <= _GKL_TOL * top) | (k >= sizes[active])
            if stop.any():
                theta[active[stop]] = c[active[stop]] * np.sqrt(
                    np.maximum(top[stop], 0.0))
                done[active[stop]] = True
                if done.all():
                    return theta
                active = active[~stop]
            # a stopped section's Krylov space may be exhausted: its rows
            # stay 0 from here on instead of growing until they overflow
            beta[done] = 0.0
            v = w / np.where(beta > 0.0, beta, 1.0)[:, None]
            v[done] = 0.0
            betas[:, k - 1] = beta
            V.append(v)
            u = apply(forward, v)
    raise ConvergenceError(
        f"Lanczos norm of sections {sizes[~done].tolist()} not converged "
        f"in {_GKL_MAX_STEPS} steps")


class _Basis:
    """Orthonormal Lanczos vectors, one row per section, kept in chunks of
    :data:`_GKL_CHUNK` vectors of shape ``(sections, chunk, n)``."""

    def __init__(self, first: np.ndarray, dtype):
        self.dtype = dtype
        self.chunks = []
        self.size = 0
        self.append(first)

    def append(self, w: np.ndarray) -> None:
        slot = self.size % _GKL_CHUNK
        if not slot:
            self.chunks.append(np.empty((w.shape[0], _GKL_CHUNK, w.shape[1]),
                                        dtype=self.dtype))
        self.chunks[-1][:, slot] = w
        self.size += 1

    def project_out(self, w: np.ndarray) -> np.ndarray:
        """``w`` (sections, n) minus its components along the basis,
        projected out twice (classical Gram-Schmidt, repeated once)."""
        filled = [chunk[:, :self.size - i * _GKL_CHUNK]
                  for i, chunk in enumerate(self.chunks)]
        for _ in range(2):
            coefs = [(w.conj()[:, None, :] @ part.transpose(0, 2, 1)).conj()
                     for part in filled]
            for coef, part in zip(coefs, filled):
                w = w - (coef @ part)[:, 0, :]
        return w


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
