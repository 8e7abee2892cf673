"""Block lower-triangular Toeplitz operator algebra.

An ``n``-block operator matrix ``(T_{i-j})_{i,j=1..n}`` (zero above the
diagonal) is stored by its first block column ``T_0 .. T_{n-1}``.  The module
provides its products by FFT (a lower-triangular Toeplitz operator is a
compression of a block circulant of twice its order; Boettcher & Silbermann,
*Introduction to Large Truncated Toeplitz Matrices*), one operand per column
of the right-hand side, so each column of a product is the same bit for bit
however many columns share the call; its p-norms without a
matrix (:func:`column_norm` off the first column; the 2-norm is
:func:`~sgperturb.numkit.lanczos_norms` on the products), and the norm chain
of the inverse of the feedback block matrix ``I - F_n`` whose sub-diagonal
blocks are ``C T^{k-1} B``.  That inverse is again block lower-triangular Toeplitz with
diagonal ``G = (I - F)^{-1}`` and sub-diagonals ``G C (T + B G C)^{k-1} B G``,
so

    ||(I - F_n)^{-1}||  <=  ||G|| + ||G C|| ||B G|| sum_{l=1}^{n-1} ||T + B G C||^{l-1}.

:func:`feedback_norm_chain` evaluates the chain for every ``n = 1 .. n_max``
from G's first block column ``g`` alone (G is block lower-triangular Toeplitz
when F is, as for a time-invariant system's input-output map).  No inverse
is formed: the ``n_max``-block inverse is applied as its block
recursion (:func:`_inverse_products`, the one feedback-inverse code path),
whose only large product is G's, by FFT; the n-block inverse is its leading
section, and every lhs is a Lanczos 2-norm of such a section
(:func:`~sgperturb.numkit.lanczos_norms`).  A dense G is the case of one
``q x q`` block.

These identities are purely algebraic — no semigroup structure is required —
which is why the tests can demand them to 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import numkit
from .numkit import (induced_norm, NumericalRangeError, ShapeError,
                     SingularMatrixError, UnsupportedExponentError)

__all__ = [
    "BlockToeplitz",
    "column_norm",
    "NormChain",
    "feedback_norm_chain",
]

#: distance below which 1 counts as belonging to the spectrum of a feedback
#: operator (``I - F`` singular, a transfer value at 1, unit boundary mass)
FEEDBACK_MARGIN = 1e-8


class FeedbackSingularError(ArithmeticError):
    """``I - C R(lam) B`` is singular (within :data:`FEEDBACK_MARGIN`) at the
    requested lambda."""


@dataclass(frozen=True, eq=False)
class BlockToeplitz:
    """Block lower-triangular Toeplitz operator given by its first column.

    ``blocks[k]`` is the k-th sub-diagonal block (k = 0 the diagonal); all
    blocks are square of equal dimension ``d``; the represented operator is
    ``n*d x n*d`` with entry block ``(i, j) = blocks[i - j]`` for ``i >= j``.
    ``blocks`` is stored as one complex128 array of shape ``(n, d, d)``.

    :meth:`forward` and :meth:`adjoint` apply the operator and its adjoint
    by FFT on the block circulant of order ``2n`` that contains it, from a
    symbol computed once here (in real arithmetic when every block is real).
    The ``R`` columns of an operand are ``R`` rows ``(n, d)`` here (a view
    when the operand is a transposed row-major block), with the FFT along
    the block axis and a per-row symbol product, so a column of the result
    does not depend on the other columns.
    """

    blocks: np.ndarray
    _real: bool = field(init=False, repr=False)
    _symbol: np.ndarray = field(init=False, repr=False)
    _adjoint_symbol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        try:
            col = np.asarray(self.blocks, dtype=np.complex128)
        except ValueError as exc:
            raise ShapeError(f"blocks must share one shape: {exc}") from exc
        if col.ndim != 3 or not col.shape[0] or col.shape[1] != col.shape[2]:
            raise ShapeError(
                f"need at least one block, all square of one size; got "
                f"blocks of shape {col.shape}")
        if not np.isfinite(col).all():
            raise NumericalRangeError("block entries must be finite")
        real = not col.imag.any()
        n = col.shape[0]
        symbol = (np.fft.rfft(col.real, 2 * n, axis=0) if real
                  else np.fft.fft(col, 2 * n, axis=0))
        object.__setattr__(self, "blocks", col)
        object.__setattr__(self, "_real", real)
        object.__setattr__(self, "_symbol", symbol)
        object.__setattr__(self, "_adjoint_symbol",
                           symbol.conj().transpose(0, 2, 1))

    @property
    def n(self) -> int:
        return self.blocks.shape[0]

    @property
    def block_dim(self) -> int:
        return self.blocks.shape[1]

    def forward(self, X) -> np.ndarray:
        """``T X`` for ``X`` of ``n*d`` rows (a vector, or one right-hand
        side per column)."""
        return self._apply(self._symbol, X)

    def adjoint(self, Y) -> np.ndarray:
        """``T^H Y``, the same way: the circulant's adjoint has the
        conjugate-transposed symbol, and its wrap-around lands in the zero
        padding."""
        return self._apply(self._adjoint_symbol, Y)

    def _apply(self, symbol, X) -> np.ndarray:
        X = np.asarray(X)
        n, d = self.n, self.block_dim
        if X.ndim not in (1, 2) or X.shape[0] != n * d:
            raise ShapeError(f"operand needs {n * d} rows, got {X.shape}")
        if self._real and np.iscomplexobj(X):
            return self._apply(symbol, X.real) \
                + 1j * self._apply(symbol, X.imag)
        fft, ifft = ((np.fft.rfft, np.fft.irfft) if self._real
                     else (np.fft.fft, np.fft.ifft))
        Z = fft(X.reshape(n * d, -1).T.reshape(-1, n, d), 2 * n, axis=1)
        Z = symbol[:, 0] * Z if d == 1 else (symbol @ Z[..., None])[..., 0]
        Y = ifft(Z, 2 * n, axis=1)[:, :n]
        return Y.reshape(-1, n * d).T.reshape(X.shape)


def column_norm(column, p: float) -> float:
    """Induced p-norm, ``1 <= p <= inf``, of the operator with first block
    column ``column`` (shape ``(n, d, d)``), without a matrix: the largest
    column and row sums lie in the first block column and the last block
    row, so both are block sums of the column, exact at p = 1 and p = inf;
    any other p gets the Riesz-Thorin upper bound
    ``||T||_1^{1/p} ||T||_inf^{1-1/p}``."""
    if not p >= 1:
        raise UnsupportedExponentError(f"p = {p} is not a norm exponent >= 1")
    mags = np.abs(np.asarray(column))
    n1 = float(mags.sum(axis=(0, 1)).max())
    ninf = float(mags.sum(axis=(0, 2)).max())
    return n1 ** (1.0 / p) * ninf ** (1.0 - 1.0 / p)   # exact at p = 1, inf


def _frames(Bt0, Ct0, Tt0, q: int):
    """``B``, ``C``, ``T`` as matrices (float64 when real), checked against
    ``q`` signal rows."""
    B = numkit._narrowed(Bt0)
    C = numkit._narrowed(Ct0)
    T = numkit._narrowed(Tt0)
    d = T.shape[0]
    if T.shape != (d, d):
        raise ShapeError("T block must be square")
    if B.shape != (d, q) or C.shape != (q, d):
        raise ShapeError(
            f"need B: {d}x{q} and C: {q}x{d}, got {B.shape}, {C.shape}")
    return B, C, T


def _require_margin(inverse_norm: float) -> None:
    """Raise unless ``sigma_min(I - F) = 1 / ||(I - F)^{-1}||`` is at least
    :data:`FEEDBACK_MARGIN`."""
    if inverse_norm > 1.0 / FEEDBACK_MARGIN:
        raise SingularMatrixError(
            f"I - F is singular to margin {FEEDBACK_MARGIN:g} "
            f"(smallest singular value {1.0 / inverse_norm:.3e})")


class NormChain(NamedTuple):
    """The feedback-inverse norm chain for every block count up to n_max.

    ``closed_norm`` is ``||T + B G C||_2``; ``entries`` holds one
    ``(n, lhs, rhs)`` per block count ``n = 1 .. n_max``, with ``lhs`` the
    Lanczos 2-norm of the n-block inverse (within the stated residual of a
    singular value, and never above the norm; see
    :func:`~sgperturb.numkit.lanczos_norms`).
    """
    closed_norm: float
    entries: tuple


def feedback_norm_chain(g, Bt0, Ct0, Tt0, n_max: int) -> NormChain:
    """(lhs, rhs) of the feedback-inverse norm chain for ``n = 1 .. n_max``.

    ``g`` (shape ``(K, b, b)``) is the first block column of
    ``G = (I - F)^{-1}``, block lower-triangular Toeplitz of ``K`` blocks,
    and ``B``, ``C``, ``T`` are the frames of the other three maps.
    lhs: the 2-norm of the inverse of the n-block feedback matrix, from
    :func:`~sgperturb.numkit.lanczos_norms` on the leading sections of the
    ``n_max``-block inverse, applied as its block recursion
    (:func:`_inverse_products`).
    rhs: ``||G|| + ||G C|| ||B G|| sum_{l=1}^{n-1} ||T + B G C||^{l-1}``,
    with ``||G||`` the lhs at n = 1.  The contract is ``lhs <= rhs``.

    ``G C`` and ``B G`` are FFT products with ``g``.  ``||G|| > 1 /
    FEEDBACK_MARGIN`` raises :class:`SingularMatrixError`, which is exactly
    ``sigma_min(I - F) < FEEDBACK_MARGIN``.
    """
    if n_max < 1:
        raise ShapeError(f"need n >= 1 blocks, got {n_max}")
    G = BlockToeplitz(g)
    q = G.n * G.block_dim
    B, C, T = _frames(Bt0, Ct0, Tt0, q)
    GC = G.forward(C)
    BG = G.adjoint(B.conj().T).conj().T
    closed = T + B @ GC
    lhs = numkit.lanczos_norms(*_inverse_products(G, GC, BG, B, closed,
                                                  n_max),
                               q * np.arange(1, n_max + 1))
    head = float(lhs[0])
    _require_margin(head)
    s = induced_norm(closed, 2)
    gain = induced_norm(GC, 2) * induced_norm(BG, 2)
    entries = []
    for n in range(1, n_max + 1):
        geom = sum(s ** (l - 1) for l in range(1, n))
        entries.append((n, float(lhs[n - 1]), float(head + gain * geom)))
    return NormChain(float(s), tuple(entries))


def _inverse_products(G: BlockToeplitz, GC, BG, B, closed, n_max: int):
    """Products with the ``n_max``-block inverse ``K`` of the feedback
    block matrix, and with its adjoint, on ``(n_max q, columns)`` blocks.

    ``K``'s block ``(i, j)`` is ``G`` on the diagonal and
    ``G C closed^{i-j-1} B G`` below it, so ``y = K x`` is the recursion
    ``y_i = G x_i + (G C) w_i``, ``w_{i+1} = closed w_i + B (G x_i)`` from
    ``w_0 = 0``, and ``K^H`` runs backward:
    ``y_j = G^H x_j + (B G)^H z_j``,
    ``z_{j-1} = closed^H z_j + (G C)^H x_j`` from ``z_{n_max-1} = 0``.
    Columns are rows here: ``X^T`` as ``(R, n_max, q)``, a view of the
    transposed row-major blocks Lanczos passes.  G's product is one
    :class:`BlockToeplitz` call on the blocks that are not all zero, each
    its own operand, so skipping the zero ones changes no bit.  A block
    ``x_i`` reaches only ``y_{i'}``, ``i' >= i`` (the adjoint the other
    way), so a column that is zero below a leading section sees that
    section alone, and its blocks below it are the zero blocks skipped.
    """
    q = GC.shape[0]

    def blocks(X):           # (n_max q, R) -> (R, n_max, q), a view of X.T
        return X.T.reshape(-1, n_max, q)

    def columns(Y):          # (R, n_max, q) -> (n_max q, R)
        return Y.reshape(-1, n_max * q).T

    def nonzero_blocks(product, Xb):
        live = Xb.any(axis=2)
        Y = product(Xb[live].T).T
        out = np.zeros(Xb.shape, dtype=Y.dtype)
        out[live] = Y
        return out

    def forward(X):
        Gx = nonzero_blocks(G.forward, blocks(X))
        BGx = Gx @ B.T
        W = np.zeros_like(BGx, dtype=np.result_type(BGx, closed))
        for i in range(1, n_max):
            W[:, i] = W[:, i - 1] @ closed.T + BGx[:, i - 1]
        return columns(Gx + W @ GC.T)

    def adjoint(X):
        Xb = blocks(X)
        GCx = Xb @ GC.conj()
        Z = np.zeros_like(GCx, dtype=np.result_type(GCx, closed))
        for j in range(n_max - 1, 0, -1):
            Z[:, j - 1] = Z[:, j] @ closed.conj() + GCx[:, j]
        return columns(nonzero_blocks(G.adjoint, Xb) + Z @ BG.conj())

    return forward, adjoint
