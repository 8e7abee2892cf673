"""The matrix world: finite-dimensional triples and their time grids.

The package never builds an extrapolation space.  Instead every
computation runs in one of two concrete worlds, sibling modules that import
nothing from each other: the matrix world here (:class:`MatrixTriple`) and
the transport world (:mod:`sgperturb.transport`).  Each triple class holds
all of its world's facts behind the same methods, those a time grid fixes on
its ``discretize(grid)``.  Callers call those methods directly, so no
algorithm tests which world it is in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numkit
from .numkit import ShapeError, as_matrix, as_vector
from .toeplitz import FEEDBACK_MARGIN, FeedbackSingularError

__all__ = ["MatrixTriple", "MatrixDiscretization"]


@dataclass(frozen=True)
class MatrixTriple:
    """Finite-dimensional system ``(A, B, C)`` on ``X = C^n``, ``U = C^m``.

    The semigroup is ``e^{tA}`` and every extrapolated object coincides with
    the ordinary one; signals on a time grid use left-endpoint quadrature.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A)
        B = as_matrix(self.B)
        C = as_matrix(self.C)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ShapeError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ShapeError(f"B must have {n} rows, got {B.shape}")
        if C.shape[1] != n:
            raise ShapeError(f"C must have {n} columns, got {C.shape}")
        if B.shape[1] != C.shape[0]:
            raise ShapeError(
                f"control dim {B.shape[1]} != observation dim {C.shape[0]}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def control_dim(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> float:
        """Norm exponent of states and observed signals: euclidean."""
        return 2.0

    @property
    def mu_shift(self) -> float:
        """Always 0: :meth:`rescale` folds a shift into ``A``."""
        return 0.0

    def step(self, t: float, x):
        if t < 0:
            raise ValueError("semigroup is defined for t >= 0 only")
        return numkit.expm(self.A, t) @ as_vector(x)

    def _shifted(self, lam: complex) -> np.ndarray:
        """``lam I - A``.  No eigensolve guards it: the ``numkit.solve`` that
        applies it refuses it ("pivot ratio") where it is singular to
        working precision, so a resolvent refuses on application."""
        return lam * np.eye(self.state_dim, dtype=np.complex128) - self.A

    def resolvent(self, lam: complex):
        shifted = self._shifted(lam)
        return lambda x: numkit.solve(shifted, as_vector(x))

    def rescale(self, mu_shift: float) -> "MatrixTriple":
        return MatrixTriple(
            self.A - mu_shift * np.eye(self.state_dim, dtype=np.complex128),
            self.B, self.C)

    def spectral_abscissa(self) -> float:
        return float(np.max(numkit.eigenvalues(self.A).real))

    def closed_loop(self) -> np.ndarray:
        return self.A + self.B @ self.C

    def transfer(self, lam: complex) -> np.ndarray:
        return self.C @ numkit.solve(self._shifted(lam), self.B)

    def perturbed_resolvent(self, lam: complex) -> np.ndarray:
        B, C = self.B, self.C
        RA = numkit.solve(self._shifted(lam),
                          np.eye(self.state_dim, dtype=np.complex128))
        W = np.eye(self.control_dim, dtype=np.complex128) - C @ RA @ B
        smallest = numkit._smallest_singular_value(W)
        if smallest < FEEDBACK_MARGIN:
            raise FeedbackSingularError(
                f"feedback singular at lambda = {lam} "
                f"(smallest singular value {smallest:.3e})")
        return RA + RA @ B @ numkit.solve(W, C @ RA)

    def state_norm(self, x) -> float:
        return numkit._euclidean_norm(as_vector(x))

    def random_domain_state(self, rng: np.random.Generator) -> np.ndarray:
        x = numkit.random_vector(rng, self.state_dim)
        return x / np.linalg.norm(x)

    def discretize(self, grid) -> "MatrixDiscretization":
        return MatrixDiscretization(self, grid)

    def compatibility(self):
        return True, "finite-dimensional state space: compatibility automatic"

    def resolvent_residual(self, lam: complex, Q: np.ndarray,
                           rng: np.random.Generator):
        """Worst ``||(lam - A - BC) Q x - x|| / ||x||`` over three random
        ``x``, against ``1e-8 max(1, ||Q||_2)``."""
        n = self.state_dim
        shifted = lam * np.eye(n, dtype=np.complex128) - self.closed_loop()
        worst = 0.0
        for _ in range(3):
            x = numkit.random_vector(rng, n)
            res = numkit._euclidean_norm(shifted @ (Q @ x) - x)
            worst = max(worst, float(res / np.linalg.norm(x)))
        threshold = 1e-8 * max(1.0, numkit.induced_norm(Q, 2))
        return lam, worst, threshold


def _powers(M: np.ndarray, X: np.ndarray, count: int) -> np.ndarray:
    """``M^k X`` for k = 0 .. count - 1, ``(count,) + X.shape``, for a
    vector or block ``X``: a doubling walk, which keeps the powers
    ``M^{2^i}`` and takes one batched product per doubling of the stack.
    Powers that overflow raise :class:`NumericalRangeError`."""
    out = np.empty((count, X.shape[0], X.shape[1] if X.ndim > 1 else 1),
                   dtype=np.complex128)
    filled = min(1, count)
    out[:filled] = X.reshape(out.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        while filled < count:
            take = min(filled, count - filled)
            out[filled:filled + take] = M @ out[:take]
            filled += take
            if filled < count:
                M = M @ M
    if not np.isfinite(out).all():
        raise numkit.NumericalRangeError("matrix powers overflowed")
    return out.reshape((count,) + X.shape)


@dataclass(frozen=True)
class MatrixDiscretization:
    """A :class:`MatrixTriple` on a time grid: ``E = e^{hA}``, computed once,
    and the maps it fixes.  Every stack of powers of E (the walk ``E^k B``,
    the rows ``C E^k`` of O, G's impulse column) comes from one doubling
    walk, :func:`_powers`; the state loop of :meth:`solve_feedback` is the
    one loop left.  The walk, W and O are built on first use."""

    triple: MatrixTriple
    grid: object

    def __post_init__(self):
        object.__setattr__(self, "E", numkit.expm(self.triple.A, self.grid.h))

    @cached_property
    def _walk(self) -> np.ndarray:
        """``E^k B`` for k = 1 .. steps, ``(steps, n, m)``: W and F's lags."""
        return _powers(self.E, self.E @ self.triple.B, self.grid.steps)

    def controllability_matrix(self) -> np.ndarray:
        walk = self.grid.h * self._walk[::-1]
        return walk.transpose(1, 0, 2).reshape(self.triple.state_dim, -1)

    def observability_matrix(self) -> np.ndarray:
        """``C E^k`` for k = 0 .. steps - 1, stacked: ``(steps m, n)``."""
        C = self.triple.C
        rows = _powers(self.E.T, C.T, self.grid.steps).transpose(0, 2, 1)
        return rows.reshape(-1, self.triple.state_dim)

    _W = cached_property(controllability_matrix)
    _O = cached_property(observability_matrix)

    def feedback_column(self) -> np.ndarray:
        """F's first block column, ``(steps, m, m)``: lag ``d >= 1`` holds
        ``h C E^d B``; lag 0 is zero (F is strictly block lower)."""
        m = self.triple.control_dim
        blocks = np.zeros((self.grid.steps, m, m), dtype=np.complex128)
        blocks[1:] = self.grid.h * (self.triple.C @ self._walk[:-1])
        return blocks

    def solve_feedback(self, v) -> np.ndarray:
        """``(I - F)^{-1} v`` for stacked samples ``v`` (``steps x m``),
        without F: F's lag-d block is ``h C E^d B``, so ``y = v + F y`` is
        the state loop ``y_k = v_k + C z_k``, ``z_{k+1} = E (z_k + h B y_k)``
        from ``z_0 = 0``; O(steps n^2)."""
        C, hB = self.triple.C, self.grid.h * self.triple.B
        v = np.asarray(v, dtype=np.complex128).reshape(self.grid.steps, -1)
        y = np.empty_like(v)
        z = np.zeros(self.triple.state_dim, dtype=np.complex128)
        for k in range(self.grid.steps):
            y[k] = v[k] + C @ z
            z = self.E @ (z + hB @ y[k])
        return y

    def impulse_column(self) -> np.ndarray:
        """G's first block column, ``(steps, m, m)``, G = ``(I - F)^{-1}``:
        the :meth:`solve_feedback` responses to unit impulses at t = 0.  The
        state loop gives ``g_0 = I`` and ``g_k = C M^{k-1} E hB`` with ``M =
        E (I + h B C)``, the powers taken by :func:`_powers`."""
        t, steps = self.triple, self.grid.steps
        EhB = self.E @ (self.grid.h * t.B)
        g = np.empty((steps, t.control_dim, t.control_dim),
                     dtype=np.complex128)
        g[0] = np.eye(t.control_dim)
        g[1:] = t.C @ _powers(self.E + EhB @ t.C, EhB, steps - 1)
        return g

    def control(self, samples) -> np.ndarray:
        return self._W @ samples.reshape(-1)

    def observe(self, x, require_domain: bool = True) -> np.ndarray:
        x = as_vector(x)
        if x.shape[0] != self.triple.state_dim:
            raise ShapeError("state dimension mismatch")
        return (self._O @ x).reshape(self.grid.steps, -1)

    def euclidean_frames(self):
        """(B, C, T): the stacked maps weighted by ``sqrt(h)`` so that
        euclidean norms are the signal norms, and ``T = e^{t0 A}``."""
        sqrt_h = np.sqrt(self.grid.h)
        return (self._W / sqrt_h, sqrt_h * self._O,
                numkit.expm(self.triple.A, self.grid.t0))

    def vop_outputs(self, x) -> np.ndarray:
        """Outputs of the independent reference, the exponential of the
        closed-loop matrix: the samples ``C e^{t_k (A + BC)} x``."""
        t = self.triple
        closed = MatrixTriple(t.closed_loop(), t.B, t.C)
        return closed.discretize(self.grid).observe(x)
