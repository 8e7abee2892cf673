"""Shared oracles and factories for the test suite.

Oracles here are deliberately independent of the library code paths they
check: the Taylor exponential sums the series in extended precision, the
dense Toeplitz assembly indexes blocks directly, and the closed-loop
reference states come from scipy/closed forms.
"""

import numpy as np
import pytest

from sgperturb import numkit
from sgperturb.semigroup import GridFunction, MatrixTriple, TransportTriple
from sgperturb.transport import BorelMeasure, phi_coefficients


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
