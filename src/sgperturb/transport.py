"""Transport equation on [0, 1] with a measure-valued boundary functional.

The state space is the grid surrogate of ``L^p[0, 1]``; the free dynamics is
the nilpotent left shift and the feedback closes the loop through the
boundary condition ``x(1, t) = Phi x(., t)`` where ``Phi`` is integration
against a complex measure ``mu`` (atoms on grid nodes plus a
piecewise-constant density).  The module provides

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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numkit
from .semigroup import GridFunction, volterra_resolvent_values

__all__ = [
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

_DEGENERATE_MARGIN = 1e-8
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

    def weight_at_one(self) -> complex:
        for loc, w in self.atoms:
            if loc >= 1.0 - 1e-15:
                return w
        return 0.0 + 0.0j


class LittleMassReport(NamedTuple):
    delta_grid: tuple
    mass: tuple
    q_found: float
    passes: bool


class Trajectory(NamedTuple):
    """Time levels and the state at each level (rows of ``states``)."""
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
    if abs(lam.real) > 500.0:
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
    if abs(denom) < _DEGENERATE_MARGIN:
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
    of ``Phi``).  Each level shifts the state left by one node and closes the
    loop with the boundary value

        b(t_j) = sum_{k<N} c_k x_k(t_j) / (1 - c_N),

    which solves ``x(1, t_j) = Phi x(., t_j)`` including a possible atom at
    ``s = 1``; the relation is checked to 1e-12 (relative) at every
    constructed level, and :class:`ArithmeticError` is raised when it fails.
    """
    if x0.N != N:
        raise numkit.ShapeError(f"x0 lives on N = {x0.N}, expected {N}")
    steps = horizon * N
    levels = int(round(steps))
    if abs(steps - levels) > 1e-9 or horizon < 0:
        raise ValueError(f"horizon {horizon} is not a multiple of 1/{N}")
    c, denom = _boundary_coefficients(mu, N)
    states = np.zeros((levels + 1, N + 1), dtype=np.complex128)
    states[0] = x0.values
    cur = x0.values.copy()
    for j in range(1, levels + 1):
        nxt = np.empty_like(cur)
        nxt[:N] = cur[1:]
        b = (c[:N] @ nxt[:N]) / denom
        nxt[N] = b
        gap = abs(b - c @ nxt)
        if not gap <= 1e-12 * max(1.0, np.abs(nxt).max()):
            raise ArithmeticError(
                f"boundary relation x(1) = Phi x broken by {gap:.3e} at "
                f"time level {j}")
        states[j] = nxt
        cur = nxt
    times = np.arange(levels + 1, dtype=float) / N
    return Trajectory(times, states)


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
