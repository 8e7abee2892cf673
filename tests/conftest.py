"""Shared oracles and factories for the test suite.

Oracles here are deliberately independent of the library code paths they
check: the Taylor exponential sums the series in extended precision, the
dense Toeplitz assembly indexes blocks directly, the feedback block matrix
and its dense inverse are built from their closed forms, and the closed-loop
reference states come from scipy/closed forms.  A replaced code path is
kept here verbatim as the oracle of its replacement: ``block_solve_pde`` is
``transport.solve_pde`` as it checked each block's boundary relation inside
the recursion.  ``unskipped_inverse_products`` is
``toeplitz._inverse_products`` with G's FFT products run on every block,
the all-zero ones included.  ``materialize`` is the dense build that
``toeplitz`` once shipped, and ``io_matrix`` the dense F the package once
took its p = 2 norm from: both are oracles now, as ``io_map``, the
reference application of F, is.  ``apply_phi`` and ``total_variation``
are the functional ``Phi f`` and the measure's total variation, which the
package once exported and only tests called.  ``loop_walk``,
``loop_observability_matrix`` and ``loop_orbit_sum`` are the sequential
power loops the matrix world once ran, the oracles of its doubling walk
``semigroup._powers``.  ``dissipative_matrix`` draws test generators.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from sgperturb import admissibility, numkit, toeplitz, transport
from sgperturb.semigroup import MatrixTriple
from sgperturb.transport import (BorelMeasure, GridFunction, TransportTriple,
                                 phi_coefficients)


def taylor_expm(A, t=1.0, terms=60):
    """Matrix exponential by plain Taylor summation in extended precision."""
    M = np.asarray(A, dtype=np.clongdouble) * np.clongdouble(t)
    n = M.shape[0]
    acc = np.eye(n, dtype=np.clongdouble)
    term = np.eye(n, dtype=np.clongdouble)
    for k in range(1, terms + 1):
        term = term @ M / np.clongdouble(k)
        acc = acc + term
    return acc.astype(np.complex128)


def dense_lower_toeplitz(blocks, n):
    """Assemble the n-block lower-triangular Toeplitz matrix directly."""
    blocks = [np.asarray(b, dtype=np.complex128) for b in blocks]
    d = blocks[0].shape[0]
    M = np.zeros((n * d, n * d), dtype=np.complex128)
    for i in range(n):
        for j in range(i + 1):
            if i - j < len(blocks):
                M[i * d:(i + 1) * d, j * d:(j + 1) * d] = blocks[i - j]
    return M


def feedback_forward_matrix(F, B, C, T, n):
    """``I - F_n`` from its definition: diagonal blocks ``I - F``, k-th
    sub-diagonal ``-C T^{k-1} B``."""
    F, B, C, T = (np.asarray(X, dtype=np.complex128) for X in (F, B, C, T))
    blocks = [np.eye(F.shape[0]) - F]
    power = np.eye(T.shape[0])                 # T^{k-1} walker
    for _ in range(1, n):
        blocks.append(-(C @ power @ B))
        power = power @ T
    return dense_lower_toeplitz(blocks, n)


def feedback_toeplitz_inverse(F, B, C, T, n):
    """Dense oracle: ``(forward, inverse)`` of the n-block feedback matrix.

    forward is :func:`feedback_forward_matrix`; inverse has diagonal blocks
    ``G = (I - F)^{-1}`` and k-th sub-diagonal ``G C (T + B G C)^{k-1} B G``.
    ``sigma_min(I - F)`` below the feedback margin raises the package's
    :class:`~sgperturb.numkit.SingularMatrixError`.
    """
    F, B, C, T = (np.asarray(X, dtype=np.complex128) for X in (F, B, C, T))
    eye_q = np.eye(F.shape[0], dtype=np.complex128)
    G = numkit.solve(eye_q - F, eye_q)
    toeplitz._require_margin(numkit.induced_norm(G, 2))
    closed = T + B @ G @ C
    blocks = [G]
    power = np.eye(T.shape[0], dtype=np.complex128)  # closed^{k-1} walker
    for _ in range(1, n):
        blocks.append(G @ C @ power @ B @ G)
        power = power @ closed
    return (feedback_forward_matrix(F, B, C, T, n),
            dense_lower_toeplitz(blocks, n))


def shipped_feedback_inverse(F, B, C, T, n):
    """``(K, K^H)`` for the n-block inverse K of the feedback matrix as the
    package applies it: ``toeplitz._inverse_products`` fed the dense
    ``G = (I - F)^{-1}`` as one block, on the identity."""
    F, B, C, T = (np.asarray(X, dtype=np.complex128) for X in (F, B, C, T))
    G = np.linalg.inv(np.eye(F.shape[0]) - F)
    forward, adjoint = toeplitz._inverse_products(
        toeplitz.BlockToeplitz(G[None]), G @ C, B @ G, B, T + B @ G @ C, n)
    eye = np.eye(n * G.shape[0], dtype=np.complex128)
    return forward(eye), adjoint(eye)


def unskipped_inverse_products(G, GC, BG, B, closed, n_max):
    """``toeplitz._inverse_products`` with G's FFT products on every block,
    the all-zero ones included; otherwise verbatim."""
    q = GC.shape[0]

    def blocks(X):           # (n_max q, R) -> (R, n_max, q), a view of X.T
        return X.T.reshape(-1, n_max, q)

    def columns(Y):          # (R, n_max, q) -> (n_max q, R)
        return Y.reshape(-1, n_max * q).T

    def every_block(product, Xb):
        return product(Xb.reshape(-1, q).T).T.reshape(Xb.shape)

    def forward(X):
        Gx = every_block(G.forward, blocks(X))
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
        return columns(every_block(G.adjoint, Xb) + Z @ BG.conj())

    return forward, adjoint


def chain_entry(F, B, C, T, n):
    """``(lhs, rhs)`` of the n-block norm chain, from
    ``feedback_norm_chain`` fed the dense ``G = (I - F)^{-1}`` as one
    block."""
    G = np.linalg.inv(np.eye(np.shape(F)[0]) - np.asarray(F))
    return toeplitz.feedback_norm_chain(G[None], B, C, T, n).entries[-1][1:]


def block_solve_pde(mu, x0, horizon, N):
    """``transport.solve_pde`` with the relation checked per block, inside
    the recursion (a fresh window maximum of ``|z|`` per level), verbatim
    but for the module prefixes."""
    if x0.N != N:
        raise numkit.ShapeError(f"x0 lives on N = {x0.N}, expected {N}")
    levels = transport._grid_nodes(horizon, N)
    c, denom = transport._boundary_coefficients(mu, N)
    z = np.zeros(N + 1 + levels, dtype=np.complex128)
    z[:N + 1] = x0.values
    mag = np.abs(z)          # |z|, extended per block, for the relative scale
    windows = sliding_window_view(z, N + 1)
    mag_windows = sliding_window_view(mag, N + 1)
    support = np.flatnonzero(c[:N])
    k_max = int(support[-1]) if support.size else -1
    block = N - k_max if support.size else max(levels, 1)
    heads = windows[:, :k_max + 1]
    read = transport._phi_reader(c[:k_max + 1], bool(mu.density))
    for j in range(1, levels + 1, block):
        end = min(j + block, levels + 1)
        partial = read(heads[j:end])
        z[N + j:N + end] = partial / denom
        mag[N + j:N + end] = np.abs(z[N + j:N + end])
        # c . state with the boundary read back from the stored windows;
        # c vanishes on (k_max, N), so the partial sum carries the rest
        b = windows[j:end, N]
        gap = np.abs(b - (partial + c[N] * b))
        scale = np.maximum(1.0, mag_windows[j:end].max(axis=1))
        bad = np.flatnonzero(~(gap <= 1e-12 * scale))
        if bad.size:
            raise ArithmeticError(
                f"boundary relation x(1) = Phi x broken by "
                f"{gap[bad[0]]:.3e} at time level {j + bad[0]}")
    times = np.arange(levels + 1, dtype=float) / N
    return transport.Trajectory(times, windows)


def power_iteration_2norm(A, iters=500, seed=7):
    """Largest singular value via power iteration on A^H A."""
    A = np.asarray(A, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.shape[1]) + 1j * rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    H = A.conj().T @ A
    lam = 0.0
    for _ in range(iters):
        w = H @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam = nw
    return float(np.sqrt(lam))


def materialize(T):
    """Dense ``n*d x n*d`` matrix of the operator, one strided copy: entry
    ``(i, a, j, b)`` is ``blocks[i - j, a, b]``, read backwards off the
    windows of the column zero-padded by ``n - 1`` blocks in front.

    float64 when every block has a zero imaginary part, else complex128.
    """
    n, d = T.n, T.block_dim
    col = T.blocks.real if T._real else T.blocks
    padded = np.concatenate([np.zeros((n - 1, d, d), col.dtype), col])
    windows = sliding_window_view(padded, n, axis=0)[..., ::-1]
    return np.ascontiguousarray(windows.transpose(0, 1, 3, 2)).reshape(
        n * d, n * d)


def io_matrix(disc):
    """Dense sample matrix of the input-output map on ``disc``'s grid: the
    discretization's ``feedback_column`` materialized (float64 when F is
    real).  Uniform signal weights cancel in induced norms, so this matrix
    *is* the discrete ``L^p -> L^p`` operator.  Matrix world: blocks
    ``h C e^{d h A} B`` on lags ``d >= 1``.  Transport world: each node
    coefficient of ``Phi`` on its lag; node ``s = 1`` (an atom there plus
    the last density half-cell) lands on the diagonal."""
    return materialize(toeplitz.BlockToeplitz(disc.feedback_column()))


def loop_walk(disc):
    """``E^k B`` for k = 1 .. steps, ``(steps, n, m)``, one product per
    step (``MatrixDiscretization._walk`` as a sequential loop)."""
    B = disc.triple.B
    walk = np.empty((disc.grid.steps,) + B.shape, dtype=np.complex128)
    P = B
    for k in range(disc.grid.steps):
        P = disc.E @ P
        walk[k] = P
    return walk


def loop_observability_matrix(disc):
    """The rows ``C E^k`` for k = 0 .. steps - 1, one product per step
    (``MatrixDiscretization.observability_matrix`` as a sequential loop)."""
    C = disc.triple.C
    rows = np.empty((disc.grid.steps,) + C.shape, dtype=np.complex128)
    P = C
    for k in range(disc.grid.steps):
        rows[k] = P
        P = P @ disc.E
    return rows.reshape(-1, disc.triple.state_dim)


def loop_orbit_sum(E, x, count):
    """``sum_{k < count} E^k x`` by one walk in ``E``: with ``E = e^{hA}``
    the samples ``e^{khA} x`` of the free orbit on ``count`` grid steps."""
    total = np.zeros_like(x)
    for _ in range(count):
        total += x
        x = E @ x
    return total


def refuse_dense_f(monkeypatch, *columns):
    """Make every norm of a square operand with one of these ``columns``
    (the sizes of a dense F under test) raise: the package takes F's norms
    off its first block column, so a dense F reaching ``induced_norm``, as
    the p = 2 Gram eigensolve once did, is a regression."""
    norm = numkit.induced_norm

    def guarded(A, p):
        shape = np.shape(A)
        if len(shape) == 2 and shape[0] == shape[1] and shape[0] in columns:
            raise AssertionError(f"dense {shape} operator normed at p = {p}")
        return norm(A, p)
    for module in (numkit, toeplitz):
        monkeypatch.setattr(module, "induced_norm", guarded)


def io_map(triple, grid, u):
    """Input-output map ``u -> F_t0 u`` by the assembled sample matrix
    applied to the stacked samples: the dense oracle of F's FFT products."""
    F = io_matrix(triple.discretize(grid))
    out = (F @ u.values.reshape(-1)).reshape(u.values.shape)
    return admissibility.SampledSignal(grid, out, p=u.p)


def apply_phi(mu, f):
    """``Phi f = int_0^1 f dmu`` for a grid function or a sample vector
    ``f``: its node coefficients applied to its samples."""
    values = f.values if isinstance(f, GridFunction) else numkit.as_vector(f)
    return complex(phi_coefficients(mu, values.shape[0] - 1) @ values)


def total_variation(mu):
    """``sum |w_k| + integral of |density|`` of a :class:`BorelMeasure`."""
    tv = sum(abs(w) for _, w in mu.atoms)
    if mu.density:
        tv += sum(abs(d) for d in mu.density) / len(mu.density)
    return float(tv)


def dissipative_matrix(rng, n):
    """Random dissipative matrix: skew-hermitian part plus strictly negative
    diagonal, so the generated semigroup is a strict contraction."""
    R = numkit.random_matrix(rng, n, n)
    A = (R - R.conj().T) / 2.0
    A = A - np.diag(rng.uniform(0.2, 1.0, size=n).astype(np.complex128))
    return A


def stable_triple(seed, n=4, m=2, scale=0.7):
    """Random dissipative matrix triple (strictly negative abscissa)."""
    rng = numkit.make_rng(seed)
    R = numkit.random_matrix(rng, n, n)
    A = (R - R.conj().T) / 2.0
    A = A - np.diag(rng.uniform(0.3, 1.0, size=n).astype(np.complex128))
    B = scale * numkit.random_matrix(rng, n, m)
    C = scale * numkit.random_matrix(rng, m, n)
    return MatrixTriple(A, B, C)


def transport_triple(N=64, p=2.0, atoms=(), density=(), mu_shift=0.0):
    """Transport triple whose boundary measure has these atoms and density."""
    return TransportTriple(N=N, p=p, mu=BorelMeasure(atoms, density),
                           mu_shift=mu_shift)


def compatible_state(mu, N, p=2.0):
    """Smooth profile adjusted at the endpoint so that x(1) = Phi x."""
    s = np.arange(N + 1) / N
    v = (np.sin(np.pi * s) * (1.0 - s)).astype(complex)
    c = phi_coefficients(mu, N)
    v[N] = (c[:N] @ v[:N]) / (1.0 - c[N])
    return GridFunction(v, p=p)


@pytest.fixture
def rng():
    return numkit.make_rng(12345)
