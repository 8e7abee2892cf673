"""Block lower-triangular Toeplitz operator algebra.

An ``n``-block operator matrix ``(T_{i-j})_{i,j=1..n}`` (zero above the
diagonal) is stored by its first block column ``T_0 .. T_{n-1}``.  The module
provides the dense materialization, the triangle-inequality norm bound
``||T|| <= sum_j ||T_j||``, and the explicit inverse of the feedback block
matrix ``I - F_n`` whose sub-diagonal blocks are ``C T^{k-1} B``: the inverse
is again block lower-triangular Toeplitz with diagonal ``G = (I - F)^{-1}``
and sub-diagonals ``G C (T + B G C)^{k-1} B G``, together with the norm chain

    ||(I - F_n)^{-1}||  <=  ||G|| + ||G C|| ||B G|| sum_{l=1}^{n-1} ||T + B G C||^{l-1}.

:func:`feedback_norm_chain` evaluates the chain for every ``n = 1 .. n_max``
from one build: the n-block inverse is the leading ``n q x n q`` section of
the ``n_max``-block inverse, so each lhs is the norm of a section of one
matrix, and the n-independent norms and the ``I - F`` margin are computed
once.

These identities are purely algebraic — no semigroup structure is required —
which is why the tests can demand them to 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numkit
from .numkit import as_matrix, induced_norm, ShapeError, SingularMatrixError

__all__ = [
    "BlockToeplitz",
    "norm_bound",
    "materialize",
    "feedback_toeplitz_inverse",
    "NormChain",
    "feedback_norm_chain",
    "feedback_inverse_norm_bound",
]

#: distance below which 1 counts as belonging to the spectrum of a feedback
#: operator (``I - F`` singular, a transfer value at 1, unit boundary mass)
FEEDBACK_MARGIN = 1e-8


@dataclass(frozen=True)
class BlockToeplitz:
    """Block lower-triangular Toeplitz operator given by its first column.

    ``blocks[k]`` is the k-th sub-diagonal block (k = 0 the diagonal); all
    blocks are square of equal dimension ``d``; the represented operator is
    ``n*d x n*d`` with entry block ``(i, j) = blocks[i - j]`` for ``i >= j``.
    """

    blocks: tuple

    def __post_init__(self):
        mats = tuple(as_matrix(b) for b in self.blocks)
        if not mats:
            raise ShapeError("need at least one block")
        d = mats[0].shape[0]
        for b in mats:
            if b.shape != (d, d):
                raise ShapeError(f"all blocks must be {d}x{d}, got {b.shape}")
        object.__setattr__(self, "blocks", mats)

    @property
    def n(self) -> int:
        return len(self.blocks)

    @property
    def block_dim(self) -> int:
        return self.blocks[0].shape[0]


def materialize(T: BlockToeplitz) -> np.ndarray:
    """Dense ``n*d x n*d`` matrix of the operator, one write per lag.

    float64 when every block has a zero imaginary part, else complex128.
    """
    n, d = T.n, T.block_dim
    real = not any(block.imag.any() for block in T.blocks)
    M = np.zeros((n * d, n * d), dtype=np.float64 if real else np.complex128)
    grid = M.reshape(n, d, n, d)         # (row block, row, col block, col)
    for lag, block in enumerate(T.blocks):
        grid[np.arange(lag, n), :, np.arange(n - lag), :] = (
            block.real if real else block)
    return M


def norm_bound(T: BlockToeplitz, p: float = 2) -> float:
    """Triangle-inequality bound ``sum_j ||T_j||_p`` on the induced p-norm.

    Valid for every p in {1, 2, inf} (Young's inequality for the block
    convolution); always >= the exact induced norm of :func:`materialize`.
    """
    return float(sum(induced_norm(b, p) for b in T.blocks))


def _feedback_blocks(Ft0, Bt0, Ct0, Tt0):
    F = as_matrix(Ft0)
    B = as_matrix(Bt0)
    C = as_matrix(Ct0)
    T = as_matrix(Tt0)
    q = F.shape[0]
    if F.shape != (q, q):
        raise ShapeError("F block must be square")
    d = T.shape[0]
    if T.shape != (d, d):
        raise ShapeError("T block must be square")
    if B.shape != (d, q) or C.shape != (q, d):
        raise ShapeError(
            f"need B: {d}x{q} and C: {q}x{d}, got {B.shape}, {C.shape}")
    eye_q = np.eye(q, dtype=np.complex128)
    smallest = numkit._smallest_singular_value(eye_q - F)
    if smallest < FEEDBACK_MARGIN:
        raise SingularMatrixError(
            f"I - F is singular to margin {FEEDBACK_MARGIN:g} "
            f"(smallest singular value {smallest:.3e})")
    G = numkit.solve(eye_q - F, eye_q)
    return F, B, C, T, G


def _inverse_blocks(B, C, T, G, n: int):
    """Closed-loop block ``T + B G C`` and the first ``n`` inverse blocks."""
    closed = T + B @ G @ C
    closed_power = np.eye(T.shape[0], dtype=np.complex128)
    blocks = [G]
    for _ in range(1, n):
        blocks.append(G @ C @ closed_power @ B @ G)
        closed_power = closed_power @ closed
    return closed, blocks


def feedback_toeplitz_inverse(Ft0, Bt0, Ct0, Tt0, n: int):
    """Forward and inverse feedback block matrices over ``n`` blocks.

    forward: diagonal blocks ``I - F``, k-th sub-diagonal ``-C T^{k-1} B``.
    inverse: diagonal blocks ``G = (I - F)^{-1}``, k-th sub-diagonal
    ``G C (T + B G C)^{k-1} B G``.

    Returns the pair ``(forward, inverse)`` as dense matrices; their product
    is the identity for arbitrary blocks with ``I - F`` invertible.
    """
    if n < 1:
        raise ShapeError(f"need n >= 1 blocks, got {n}")
    F, B, C, T, G = _feedback_blocks(Ft0, Bt0, Ct0, Tt0)
    fwd_blocks = [np.eye(F.shape[0], dtype=np.complex128) - F]
    power = np.eye(T.shape[0], dtype=np.complex128)  # T^{k-1} walker
    for _ in range(1, n):
        fwd_blocks.append(-(C @ power @ B))
        power = power @ T
    _, inv_blocks = _inverse_blocks(B, C, T, G, n)
    return (materialize(BlockToeplitz(fwd_blocks)),
            materialize(BlockToeplitz(inv_blocks)))


class NormChain(NamedTuple):
    """The feedback-inverse norm chain for every block count up to n_max.

    ``closed_norm`` is ``||T + B G C||_2``; ``entries`` holds one
    ``(n, lhs, rhs)`` per block count ``n = 1 .. n_max``.
    """
    closed_norm: float
    entries: tuple


def feedback_norm_chain(Ft0, Bt0, Ct0, Tt0, n_max: int) -> NormChain:
    """(lhs, rhs) of the feedback-inverse norm chain for ``n = 1 .. n_max``.

    lhs: exact 2-norm of the inverse of ``I - F_n``.
    rhs: ``||G|| + ||G C|| ||B G|| sum_{l=1}^{n-1} ||T + B G C||^{l-1}``.
    The contract is ``lhs <= rhs``.

    The inverse is materialized once, over ``n_max`` blocks; the n-block
    inverse is its leading ``n q x n q`` section (the operator is block
    lower-triangular), so every lhs comes from that one build, and the
    n-independent norms and the ``I - F`` margin are computed once.
    """
    if n_max < 1:
        raise ShapeError(f"need n >= 1 blocks, got {n_max}")
    _, B, C, T, G = _feedback_blocks(Ft0, Bt0, Ct0, Tt0)
    closed, blocks = _inverse_blocks(B, C, T, G, n_max)
    inverse = materialize(BlockToeplitz(blocks))
    s = induced_norm(closed, 2)
    head = induced_norm(G, 2)
    gain = induced_norm(G @ C, 2) * induced_norm(B @ G, 2)
    q = G.shape[0]
    entries = []
    for n in range(1, n_max + 1):
        lhs = induced_norm(inverse[:n * q, :n * q], 2)
        geom = sum(s ** (l - 1) for l in range(1, n))
        entries.append((n, float(lhs), float(head + gain * geom)))
    return NormChain(float(s), tuple(entries))


def feedback_inverse_norm_bound(Ft0, Bt0, Ct0, Tt0, n: int):
    """(lhs, rhs) for the feedback-inverse norm chain over ``n`` blocks.

    The last entry of :func:`feedback_norm_chain` with ``n_max = n``.
    """
    _, lhs, rhs = feedback_norm_chain(Ft0, Bt0, Ct0, Tt0, n).entries[-1]
    return lhs, rhs
