"""Transport equation on [0, 1] with a measure-valued boundary functional.

The state space is the grid surrogate of ``L^p[0, 1]``; the free dynamics is
the nilpotent left shift and the feedback closes the loop through the
boundary condition ``x(1, t) = Phi x(., t)`` where ``Phi`` is integration
against a complex measure ``mu`` (atoms on grid nodes plus a
piecewise-constant density).  The module provides

* the system triple :class:`TransportTriple`, this world's side of every
  generic algorithm,
* the functional itself (:func:`apply_phi`, :func:`phi_coefficients`),
* boundary Dirichlet lifts ``D_lam`` (:func:`dirichlet_operator`),
* the tail-variation test ``|mu|[1-delta, 1] < 1`` (:func:`little_mass`),
* the closed-loop PDE solved by the method of steps (:func:`solve_pde`),
* an upwind finite-difference realization of the closed-loop generator
  (:func:`upwind_generator`),
* the scalar transfer function ``H(lam) = int_0^1 e^{lam (r-1)} dmu(r)`` and
  the eigenvalue characteristic ``H(lam) = 1`` (:func:`transfer_scalar`,
  :func:`characteristic_roots`),
* the range-compatibility identity ``(Id - lam R(lam, A)) D_0 = D_lam``
  (:func:`greiner_compatibility`).

Grid conventions are inherited from :mod:`sgperturb.semigroup` (open shift,
left-endpoint norms, atoms snapped to nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import numkit
from .semigroup import (NILPOTENT_SENTINEL, FeedbackSingularError,
                        GridFunction, SpectralAbscissa, as_grid_function,
                        shift_open, volterra_resolvent_values)
from .toeplitz import FEEDBACK_MARGIN

__all__ = [
    "TransportTriple",
    "BorelMeasure",
    "LittleMassReport",
    "Trajectory",
    "apply_phi",
    "phi_coefficients",
    "dirichlet_operator",
    "little_mass",
    "solve_pde",
    "upwind_generator",
    "transfer_scalar",
    "characteristic_roots",
    "greiner_compatibility",
]

_RE_LIMIT = 500.0          # |Re lambda| beyond which e^{lam (r - 1)} is refused
_CELL_BLOCK = 1 << 16      # entries of one start-by-cell exponential block


@dataclass(frozen=True)
class BorelMeasure:
    """Complex measure on [0, 1]: point atoms plus a cellwise density.

    ``atoms`` is a sequence of ``(location, weight)`` with distinct locations
    in [0, 1]; ``density`` holds one complex value per uniform grid cell (or
    is empty).  Total variation is ``sum |w_k| + integral of |density|``.
    """

    atoms: tuple = ()
    density: tuple = ()

    def __post_init__(self):
        atoms = tuple((float(loc), complex(w)) for loc, w in self.atoms)
        for loc, w in atoms:
            if not 0.0 <= loc <= 1.0:
                raise ValueError(f"atom location {loc} outside [0, 1]")
            if not (np.isfinite(w.real) and np.isfinite(w.imag)):
                raise ValueError("atom weights must be finite")
        locs = [loc for loc, _ in atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be distinct")
        dens = tuple(complex(d) for d in self.density)
        if dens and not np.all(np.isfinite(np.asarray(dens))):
            raise ValueError("density values must be finite")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "density", dens)

    def total_variation(self) -> float:
        tv = sum(abs(w) for _, w in self.atoms)
        if self.density:
            tv += sum(abs(d) for d in self.density) / len(self.density)
        return float(tv)

    def tail_mass(self, delta: float) -> float:
        """Total variation of the restriction to ``[1 - delta, 1]``."""
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {delta}")
        lo = 1.0 - delta
        mass = sum(abs(w) for loc, w in self.atoms if loc >= lo - 1e-15)
        if self.density:
            n = len(self.density)
            h = 1.0 / n
            for c, d in enumerate(self.density):
                a, b = c * h, (c + 1) * h
                overlap = max(0.0, min(b, 1.0) - max(a, lo))
                mass += abs(d) * overlap
        return float(mass)


def _grid_nodes(t: float, N: int, least: int = 0) -> int:
    """``t N`` as a whole number of nodes, at least ``least``.

    The one on-grid check of the transport world: a time, horizon or time
    step must be a multiple of the space step ``1/N`` (to 1e-9 nodes);
    :class:`ValueError` otherwise.
    """
    nodes = t * N
    j = int(round(nodes))
    if t < 0 or j < least or abs(nodes - j) > 1e-9:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{t} is not a {kind} multiple of 1/{N}")
    return j


class LittleMassReport(NamedTuple):
    delta_grid: tuple
    mass: tuple
    q_found: float
    passes: bool


class Trajectory(NamedTuple):
    """Time levels and the state at each level (rows of ``states``).

    ``states`` may be a read-only window view of one sequence (as
    :func:`solve_pde` returns it), so rows share memory; copy before writing.
    """
    times: np.ndarray
    states: np.ndarray


def phi_coefficients(mu: BorelMeasure, N: int) -> np.ndarray:
    """Node coefficients ``c`` with ``Phi f = c . f`` on an N-grid.

    Atoms land on their nodes exactly; each density cell contributes its mass
    ``d_c / N`` through the midpoint value, interpolated as the average of the
    two cell-endpoint samples (so half the mass goes to each endpoint node).
    """
    c = np.zeros(N + 1, dtype=np.complex128)
    for loc, w in mu.atoms:
        node = loc * N
        k = int(round(node))
        if abs(node - k) > 1e-12:
            raise ValueError(f"atom at {loc} is off the N = {N} grid")
        c[k] += w
    if mu.density:
        if len(mu.density) != N:
            raise ValueError(
                f"density has {len(mu.density)} cells, grid has {N}")
        for cell, d in enumerate(mu.density):
            c[cell] += d / (2.0 * N)
            c[cell + 1] += d / (2.0 * N)
    return c


def apply_phi(mu: BorelMeasure, f) -> complex:
    """``Phi f = int_0^1 f dmu`` for a grid function ``f``."""
    values = f.values if isinstance(f, GridFunction) else numkit.as_vector(f)
    c = phi_coefficients(mu, values.shape[0] - 1)
    return complex(c @ values)


def dirichlet_operator(lam: complex, alpha: complex, N: int,
                       p: float = 2.0) -> GridFunction:
    """Boundary lift ``(D_lam alpha)(s) = alpha e^{lam (s - 1)}``.

    Solves the stationary kernel problem ``(lam - d/ds) f = 0`` with boundary
    value ``f(1) = alpha``; at ``lam = 0`` this is exactly the constant
    function ``alpha``.
    """
    lam = complex(lam)
    if abs(lam.real) > _RE_LIMIT:
        raise numkit.NumericalRangeError(
            f"|Re lambda| = {abs(lam.real):g} overflows e^(lam (s-1))")
    s = np.arange(N + 1, dtype=float) / N
    return GridFunction(alpha * np.exp(lam * (s - 1.0)), p=p)


def little_mass(mu: BorelMeasure, delta_grid) -> LittleMassReport:
    """Tail variations ``|mu|[1 - delta, 1]`` over a decreasing delta grid.

    ``passes`` iff the smallest attained tail mass is < 1 — the condition
    under which a short enough horizon makes the feedback loop contractive.
    """
    deltas = tuple(float(d) for d in delta_grid)
    if not deltas:
        raise ValueError("need at least one delta")
    mass = tuple(mu.tail_mass(d) for d in deltas)
    q_found = min(mass)
    return LittleMassReport(deltas, mass, float(q_found), bool(q_found < 1.0))


def _boundary_coefficients(mu: BorelMeasure, N: int):
    """Phi coefficients plus the solvability factor ``1 / (1 - c_N)``."""
    c = phi_coefficients(mu, N)
    denom = 1.0 - c[N]
    if abs(denom) < FEEDBACK_MARGIN:
        raise ArithmeticError(
            "boundary functional has unit mass at s = 1 "
            f"(1 - c_N = {denom:.2e}); the closed-loop operator is not a "
            "generator and the boundary value cannot be eliminated")
    return c, denom


def solve_pde(mu: BorelMeasure, x0: GridFunction, horizon: float,
              N: int) -> Trajectory:
    """Method-of-steps solution of the closed-loop transport equation.

    Time step equals the space step ``1/N`` (characteristics aligned, so the
    advection is exact and the only approximation is the boundary quadrature
    of ``Phi``).  The whole trajectory is one sequence ``z`` of length
    ``N + 1 + levels``: ``z[:N+1]`` is ``x0``, ``z[N+j]`` is the boundary
    value at level ``j``,

        b_j = sum_{k<N} c_k z[j+k] / (1 - c_N),

    which solves ``x(1, t_j) = Phi x(., t_j)`` including a possible atom at
    ``s = 1``, and level ``j`` is the window ``z[j : j+N+1]``.  With
    ``k_max`` the last node below ``s = 1`` that carries weight, ``b_j``
    reads ``z`` only up to ``j + k_max``, so the next ``N - k_max`` boundary
    values depend only on earlier ones and are computed as one block by one
    matrix-vector product over the level windows (a measure without mass
    below ``s = 1`` is one block for the whole horizon, a density gives
    blocks of one level).  The relation is checked to 1e-12 (relative to
    ``max(1, max |state|)``) at every constructed level, and
    :class:`ArithmeticError` names the first level where it fails.

    ``states`` is a read-only window view of ``z``, not one array per level;
    copy it before writing.
    """
    if x0.N != N:
        raise numkit.ShapeError(f"x0 lives on N = {x0.N}, expected {N}")
    levels = _grid_nodes(horizon, N)
    c, denom = _boundary_coefficients(mu, N)
    z = np.zeros(N + 1 + levels, dtype=np.complex128)
    z[:N + 1] = x0.values
    mag = np.abs(z)          # |z|, extended per block, for the relative scale
    windows = sliding_window_view(z, N + 1)
    mag_windows = sliding_window_view(mag, N + 1)
    support = np.flatnonzero(c[:N])
    k_max = int(support[-1]) if support.size else -1
    block = N - k_max if support.size else max(levels, 1)
    head = c[:k_max + 1]
    for j in range(1, levels + 1, block):
        end = min(j + block, levels + 1)
        partial = windows[j:end, :k_max + 1] @ head
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
    return Trajectory(times, windows)


def upwind_generator(mu: BorelMeasure, N: int) -> np.ndarray:
    """N x N forward-difference matrix of the closed-loop generator.

    Interior rows discretize ``f' (s_k) ~ (f_{k+1} - f_k) N``; the boundary
    sample ``f_N`` is eliminated through ``f_N = Phi f`` before the last row
    is formed, which folds the nonlocal boundary condition into the matrix.
    """
    c, denom = _boundary_coefficients(mu, N)
    A = np.zeros((N, N), dtype=np.complex128)
    for k in range(N - 1):
        A[k, k] = -N
        A[k, k + 1] = N
    A[N - 1, N - 1] = -N
    A[N - 1, :] += N * c[:N] / denom
    return A


def _exp_ratio(z: np.ndarray) -> np.ndarray:
    """Elementwise stable ``(e^z - 1) / z`` (Taylor fallback near the origin)."""
    small = np.abs(z) < 1e-5
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0,
                    (np.exp(safe) - 1.0) / safe)


def _transfer_values(mu: BorelMeasure, lam: np.ndarray) -> np.ndarray:
    """``H`` at every entry of the complex array ``lam`` (no range check).

    Atoms contribute ``w e^{lam (r - 1)}``; the density cells are summed per
    entry along the cell axis, so each value does not depend on which other
    points share the array.  The cell exponentials are formed in blocks of
    at most :data:`_CELL_BLOCK` entries.
    """
    H = np.zeros(lam.shape, dtype=np.complex128)
    for loc, w in mu.atoms:
        H += w * np.exp(lam * (loc - 1.0))
    if mu.density:
        n = len(mu.density)
        h = 1.0 / n
        weights = np.asarray(mu.density, dtype=np.complex128) * h
        left = np.arange(n) * h - 1.0
        flat = lam.reshape(-1)
        cells = np.empty_like(flat)
        rows = max(1, _CELL_BLOCK // n)
        for i in range(0, flat.size, rows):
            block = np.exp(np.multiply.outer(flat[i:i + rows], left))
            cells[i:i + rows] = (block * weights).sum(axis=-1)
        H += cells.reshape(lam.shape) * _exp_ratio(lam * h)
    return H


def transfer_scalar(mu: BorelMeasure, lam: complex) -> complex:
    """Transfer function ``H(lam) = int_0^1 e^{lam (r - 1)} dmu(r)``.

    Atoms contribute ``w e^{lam (r - 1)}`` exactly; density cells use the
    exact primitive of the exponential (no quadrature error).  The value is
    the one :func:`characteristic_roots` computes at ``lam``.
    """
    lam = complex(lam)
    if abs(lam.real) > _RE_LIMIT:
        raise numkit.NumericalRangeError(
            f"|Re lambda| = {abs(lam.real):g} out of range for e^(lam (r-1))")
    return complex(_transfer_values(mu, np.array([lam]))[0])


def characteristic_roots(mu: BorelMeasure, search_box, tol: float = 1e-10,
                         max_iter: int = 60) -> np.ndarray:
    """Roots of ``H(lam) = 1`` inside a rectangular box, by seeded Newton.

    ``search_box`` is ``(re_min, re_max, im_min, im_max)``.  Newton runs from
    a grid of up to 40 x 80 starting points with a central finite-difference
    derivative, all starts at once as one batch.  A start is dropped when
    its iterate (or a difference point) leaves the evaluable strip
    ``|Re lam| <= 500``, when the derivative vanishes or the step is not
    finite, when ``|lam| > 1e6``, or when it has not reached
    ``|H - 1| <= min(tol, 1e-12)`` after ``max_iter`` steps.  Converged
    points are kept iff ``|1 - H(lam)| <= tol``, clipped to the box (pad
    1e-9) and deduplicated to 1e-6 in start order; the result is sorted by
    imaginary, then real part.  An empty result is a valid answer (e.g. a
    constant transfer function that never equals 1).  Roots that no start
    converges to go unreported.
    """
    re_min, re_max, im_min, im_max = (float(v) for v in search_box)
    if not (re_min < re_max and im_min < im_max):
        raise ValueError("search box must have positive extent")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n_re = min(40, max(3, int(np.ceil((re_max - re_min) / 1.0)) + 1))
    n_im = min(80, max(3, int(np.ceil((im_max - im_min) / 2.0)) + 1))
    lam = np.add.outer(np.linspace(re_min, re_max, n_re),
                       1j * np.linspace(im_min, im_max, n_im)).ravel()
    converged = np.zeros(lam.size, dtype=bool)
    live = np.arange(lam.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            z = lam[live]
            keep = np.abs(z.real) <= _RE_LIMIT
            live, z = live[keep], z[keep]
            g = _transfer_values(mu, z) - 1.0
            done = np.abs(g) <= min(tol, 1e-12)
            converged[live[done]] = True
            d = 1e-6 * (1.0 + np.abs(z))
            keep = (~done & (np.abs(z.real + d) <= _RE_LIMIT)
                    & (np.abs(z.real - d) <= _RE_LIMIT))
            live, z, g, d = live[keep], z[keep], g[keep], d[keep]
            dg = (_transfer_values(mu, z + d)
                  - _transfer_values(mu, z - d)) / (2.0 * d)
            step = g / dg
            z = z - step
            keep = ((np.abs(dg) >= 1e-300) & np.isfinite(step.real)
                    & np.isfinite(step.imag) & (np.abs(z) <= 1e6))
            live = live[keep]
            lam[live] = z[keep]
            if not live.size:
                break
    found = lam[converged]
    pad = 1e-9
    found = found[(np.abs(_transfer_values(mu, found) - 1.0) <= tol)
                  & (re_min - pad <= found.real) & (found.real <= re_max + pad)
                  & (im_min - pad <= found.imag)
                  & (found.imag <= im_max + pad)]
    # dedup in start order: each kept root removes the points within 1e-6
    # of it, so the first point left is the first one far from every root
    roots = []
    while found.size:
        roots.append(found[0])
        found = found[np.abs(found - found[0]) > 1e-6]
    roots = np.asarray(roots, dtype=np.complex128)
    return roots[np.lexsort((roots.real, roots.imag))]


def greiner_compatibility(lam: complex, N: int, alpha: complex = 1.0) -> float:
    """Sup-norm residual of ``(Id - lam R(lam, A)) D_0 alpha = D_lam alpha``.

    Both sides are grid functions; the left side uses the discrete Volterra
    resolvent, so the residual is the quadrature error — O(1/N), exactly 0
    at ``lam = 0`` where both sides are the constant lift.
    """
    lam = complex(lam)
    d0 = dirichlet_operator(0.0, alpha, N)
    lhs = d0.values - lam * volterra_resolvent_values(lam, d0.values)
    rhs = dirichlet_operator(lam, alpha, N).values
    return float(np.abs(lhs - rhs).max())


@dataclass(frozen=True)
class TransportTriple:
    """Grid transport system on ``[0, 1]`` with boundary inflow and a
    measure-functional observation.

    States are :class:`~sgperturb.semigroup.GridFunction` samples; the
    state operator generates the nilpotent open left shift
    (``(T(t) f)(s) = f(s+t)`` for ``s+t <= 1``, else 0), the control
    channel is the boundary inflow at ``s = 1`` and the observation is
    ``Phi``.  Wherever the abstract theory applies an extrapolated
    semigroup, the methods substitute these closed forms.  A time grid
    advances ``q = h N`` nodes per step, a positive whole number.  A
    non-negative ``mu_shift`` represents the rescaled state operator
    ``A - mu``: analytic data are evaluated at ``lambda + mu`` and the
    semigroup and the maps gain the factors ``e^{-mu t}``.

    Parameters
    ----------
    N : grid size (``N >= 4``); nodes ``s_k = k / N``.
    p : norm exponent in ``[1, inf)`` for the state space.
    mu : the observation functional, a measure on ``[0, 1]`` whose atoms
        must sit on grid nodes (validated here).
    mu_shift : non-negative spectral shift of the state operator.
    """

    N: int
    p: float
    mu: BorelMeasure
    mu_shift: float = 0.0

    def __post_init__(self):
        if self.N < 4:
            raise ValueError(f"need N >= 4, got {self.N}")
        if not (1.0 <= self.p < np.inf):
            raise ValueError(f"need p in [1, inf), got {self.p}")
        if self.mu_shift < 0:
            raise ValueError("mu_shift must be >= 0")
        phi_coefficients(self.mu, self.N)  # atoms on nodes, N density cells

    @property
    def world(self) -> str:
        return "transport"

    @property
    def control_dim(self) -> int:
        return 1

    def step(self, t: float, x) -> GridFunction:
        gf = as_grid_function(self, x)
        out = shift_open(gf.values, _grid_nodes(t, self.N))
        if self.mu_shift:
            out = out * np.exp(-self.mu_shift * t)
        return GridFunction(out, p=self.p)

    def resolvent(self, lam: complex):
        lam_eff = lam + self.mu_shift

        def _apply(x):
            gf = as_grid_function(self, x)
            return GridFunction(volterra_resolvent_values(lam_eff, gf.values),
                                p=self.p)
        return _apply

    def rescale(self, mu_shift: float) -> "TransportTriple":
        return replace(self, mu_shift=self.mu_shift + mu_shift)

    def spectral_abscissa(self) -> SpectralAbscissa:
        return SpectralAbscissa(NILPOTENT_SENTINEL, True)

    def closed_loop(self) -> np.ndarray:
        """The boundary-folded upwind matrix, minus ``mu_shift``;
        :class:`ArithmeticError` for unit mass at ``s = 1``."""
        mat = upwind_generator(self.mu, self.N)
        if self.mu_shift:
            mat = mat - self.mu_shift * np.eye(self.N, dtype=np.complex128)
        return mat

    def transfer(self, lam: complex) -> np.ndarray:
        H = transfer_scalar(self.mu, lam + self.mu_shift)
        return np.array([[H]], dtype=np.complex128)

    def perturbed_resolvent(self, lam: complex):
        lam_eff = lam + self.mu_shift
        H = transfer_scalar(self.mu, lam_eff)
        if abs(1.0 - H) < FEEDBACK_MARGIN:
            raise FeedbackSingularError(
                f"feedback singular at lambda = {lam} (transfer {H:.6g})")
        lift = dirichlet_operator(lam_eff, 1.0, self.N, p=self.p).values
        gain = 1.0 / (1.0 - H)
        coef = phi_coefficients(self.mu, self.N)

        def _apply(f):
            gf = as_grid_function(self, f)
            Rf = volterra_resolvent_values(lam_eff, gf.values)
            boundary = gain * complex(coef @ Rf)
            return GridFunction(Rf + boundary * lift, p=self.p)
        return _apply

    def controllability_matrix(self, grid) -> np.ndarray:
        """``N x steps``: node i holds sample ``k = (i + q steps - N) // q``
        when that is ``>= 0``, with factor ``e^{-mu (t0 - t_k)}``."""
        q = _grid_nodes(grid.h, self.N, least=1)
        k = np.arange(grid.steps)
        sample = (np.arange(self.N) + q * grid.steps - self.N) // q
        Bc = (sample[:, None] == k).astype(np.complex128)
        if self.mu_shift:
            Bc *= np.exp(-self.mu_shift * (grid.t0 - k * grid.h))
        return Bc

    def observability_matrix(self, grid) -> np.ndarray:
        """``steps x N``: row k reads node i through ``c[i - k q]`` when
        ``i >= k q``, with factor ``e^{-mu t_k}``."""
        q = _grid_nodes(grid.h, self.N, least=1)
        k = np.arange(grid.steps)
        lag = np.arange(self.N) - q * k[:, None]
        coef = phi_coefficients(self.mu, self.N)
        Cc = np.where(lag >= 0, coef[np.maximum(lag, 0)], 0.0)
        if self.mu_shift:
            Cc *= np.exp(-self.mu_shift * (k * grid.h))[:, None]
        return Cc

    def io_matrix(self, grid) -> np.ndarray:
        """Lower triangular Toeplitz: an atom at node ``a`` adds its weight
        at lag ``ceil((N - a) / q)``, density cell ``c`` adds ``d_c / N`` at
        lag ``ceil((N - c) / q)``; each lag sums atoms, then cells, in
        order."""
        q = _grid_nodes(grid.h, self.N, least=1)
        N, steps = self.N, grid.steps
        col = np.zeros(steps, dtype=np.complex128)
        for loc, w in self.mu.atoms:
            lag = -((int(round(loc * N)) - N) // q)
            if lag < steps:
                col[lag] += w
        if self.mu.density:
            cell_lag = -((np.arange(N) - N) // q)
            keep = cell_lag < steps
            cells = np.array([d / N for d in self.mu.density])
            np.add.at(col, cell_lag[keep], cells[keep])
        F = np.zeros((steps, steps), dtype=np.complex128)
        for lag in np.flatnonzero(col):
            np.fill_diagonal(F[lag:], col[lag])
        mu = self.mu_shift
        if mu:
            tk = grid.times
            F = np.exp(-mu * tk)[:, None] * F * np.exp(mu * tk)[None, :]
        return F

    def control(self, grid):
        q = _grid_nodes(grid.h, self.N, least=1)
        N = self.N
        j0 = q * grid.steps
        first = max(0, N - j0)
        # node i reads sample (i + j0 - N) // q while that index is >= 0
        k = (np.arange(first, N) + j0 - N) // q

        def control(samples) -> GridFunction:
            out = np.zeros(N + 1, dtype=np.complex128)
            out[first:N] = samples[k, 0]
            if self.mu_shift:
                out[first:N] *= np.exp(-self.mu_shift * (grid.t0 - k * grid.h))
            return GridFunction(out, p=self.p)
        return control

    def observe(self, grid, require_domain: bool = True):
        """With ``require_domain`` the state must have ``x(1) = 0``."""
        q = _grid_nodes(grid.h, self.N, least=1)
        N = self.N
        coef = phi_coefficients(self.mu, N)

        def observe(x) -> np.ndarray:
            gf = as_grid_function(self, x)
            scale = max(1.0, float(np.abs(gf.values).max()))
            if require_domain and abs(gf.values[-1]) > 1e-9 * scale:
                raise ValueError(
                    f"state rejected (outside D(A)): boundary sample x(1) = "
                    f"{gf.values[-1]:.3e} must vanish")
            # shift_open(x, k q) is the window at k q of x[:N] padded with 0
            padded = np.zeros(N + 1 + (grid.steps - 1) * q,
                              dtype=np.complex128)
            padded[:N] = gf.values[:N]
            out = sliding_window_view(padded, N + 1)[::q] @ coef
            if self.mu_shift:
                out *= np.exp(-self.mu_shift * np.arange(grid.steps) * grid.h)
            return out[:, None]
        return observe

    def state_norm(self, x) -> float:
        return as_grid_function(self, x).norm()

    def random_domain_state(self, rng: np.random.Generator) -> GridFunction:
        v = numkit.random_vector(rng, self.N + 1)
        v[-1] = 0.0
        return GridFunction(v / self.state_norm(v), p=self.p)

    def grid_steps(self, t: float, base_steps: int) -> int:
        return _grid_nodes(t, self.N, least=1)

    def euclidean_frames(self, grid):
        """(B, C, T) reweighted so that euclidean 2-norms are the signal and
        state norms (signal frame ``sqrt(h)``; state frame ``sqrt(1/N)`` on
        nodes ``0 .. N-1``, node N dropped — it carries no norm).  T is the
        open shift by ``q steps`` nodes, ``e^{-mu t0}`` on its diagonal."""
        sqrt_h = np.sqrt(grid.h)
        sqrt_N = np.sqrt(float(self.N))
        q = _grid_nodes(grid.h, self.N, least=1)
        T = np.eye(self.N, k=q * grid.steps, dtype=np.complex128)
        if self.mu_shift:
            T = T * np.exp(-self.mu_shift * grid.t0)
        return ((self.controllability_matrix(grid) / sqrt_N) / sqrt_h,
                sqrt_h * self.observability_matrix(grid) * sqrt_N, T)

    def vop_outputs(self, grid, x) -> np.ndarray:
        """Outputs of the independent reference, the method-of-steps PDE
        solution: ``Phi`` of its states at the grid times.  ``x`` must
        satisfy the closed-loop boundary constraint ``x(1) = Phi x``."""
        gf = as_grid_function(self, x)
        coef = phi_coefficients(self.mu, self.N)
        scale = max(1.0, float(np.abs(gf.values).max()))
        if abs(gf.values[-1] - coef @ gf.values) > 1e-9 * scale:
            raise ValueError(
                "state is outside the discrete closed-loop domain: "
                "x(1) != Phi x")
        q = _grid_nodes(grid.h, self.N, least=1)
        traj = solve_pde(self.mu, gf, grid.t0, self.N)
        samples = traj.states[::q][:grid.steps] @ coef
        if self.mu_shift:
            samples *= np.exp(-self.mu_shift * np.arange(grid.steps) * grid.h)
        return samples[:, None]

    def compatibility(self):
        res = greiner_compatibility(1.0, self.N)
        ok = res <= 10.0 / self.N
        return bool(ok), (f"boundary-lift range identity residual {res:.3e} "
                          f"at probe lambda = 1 (threshold "
                          f"{10.0 / self.N:.3e})")

    def resolvent_residual(self, lam: complex, Q, rng: np.random.Generator):
        """Worst forward-difference residual of ``(lam + mu - d/ds) g = f``
        and of ``g(1) = Phi g`` for ``g = Q f`` over three random ``f`` with
        ``f(1) = 0``, against ``50 (1 + |lam|)^2 / N``."""
        N = self.N
        coef = phi_coefficients(self.mu, N)
        lam_eff = lam + self.mu_shift
        worst = 0.0
        for _ in range(3):
            f = numkit.random_vector(rng, N + 1)
            f[-1] = 0.0
            g = Q(GridFunction(f, p=self.p)).values
            interior = lam_eff * g[:N] - N * (g[1:] - g[:N]) - f[:N]
            boundary = abs(g[N] - coef @ g)
            res = max(float(np.abs(interior).max()), float(boundary))
            res /= max(1.0, float(np.abs(f).max()))
            worst = max(worst, res)
        threshold = 50.0 * (1.0 + abs(lam)) ** 2 / N
        return lam, worst, threshold
