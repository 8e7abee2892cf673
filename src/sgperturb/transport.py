"""Transport equation on [0, 1] with a measure-valued boundary functional.

The state space is the grid surrogate of ``L^p[0, 1]``; the free dynamics is
the nilpotent left shift and the feedback closes the loop through the
boundary condition ``x(1, t) = Phi x(., t)`` where ``Phi`` is integration
against a complex measure ``mu`` (atoms on grid nodes plus a
piecewise-constant density).  The module provides

* the system triple :class:`TransportTriple` and its time-grid maps
  (:class:`TransportDiscretization`), this world's side of every algorithm,
* the functional itself, read through its node coefficients
  (:func:`phi_coefficients`, kept on the triple),
* boundary Dirichlet lifts ``D_lam`` (:func:`dirichlet_operator`),
* the tail-variation test ``|mu|[1-delta, 1] < 1`` (:func:`little_mass`),
* the closed-loop PDE solved by the method of steps (:func:`solve_pde`),
* an upwind finite-difference realization of the closed-loop generator
  (:func:`upwind_generator`),
* the scalar transfer function ``H(lam) = int_0^1 e^{lam (r-1)} dmu(r)`` and
  the eigenvalue characteristic ``H(lam) = 1`` (:func:`transfer_scalar`,
  :func:`characteristic_roots`: its zeros in a box counted by the argument
  principle on the box boundary, then found by batched Newton, which stops
  once the count is met),
* the range-compatibility identity ``(Id - lam R(lam, A)) D_0 = D_lam``
  (:func:`greiner_compatibility`).

States are :class:`GridFunction` samples.  Discretization conventions
(load-bearing; the admissibility identities are exact *because* of them):

* grid values live on all ``N + 1`` nodes, but the p-norm uses the
  left-endpoint rule over nodes ``0 .. N-1`` with weight ``1/N`` — node ``N``
  carries no measure, so the open shift below is an exact isometry on
  surviving samples;
* the shift is *open*: a sample dies as soon as it reaches or passes node
  ``N`` (``(shift_j f)[i] = f[i+j]`` iff ``i + j < N``, node ``N`` maps to 0);
* times and measure atoms must sit on the grid; off-grid inputs are rejected
  rather than interpolated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import numkit
from .toeplitz import FEEDBACK_MARGIN, FeedbackSingularError

__all__ = [
    "TransportTriple",
    "TransportDiscretization",
    "GridFunction",
    "BorelMeasure",
    "LittleMassReport",
    "Trajectory",
    "phi_coefficients",
    "dirichlet_operator",
    "little_mass",
    "solve_pde",
    "upwind_generator",
    "transfer_scalar",
    "characteristic_roots",
    "greiner_compatibility",
    "shift_open",
    "as_grid_function",
    "volterra_resolvent_values",
]

#: the transport world's exponent range: a lambda with ``|Re lambda|`` above
#: it is refused by every closed form in ``e^{lam s}``, s in [-1, 1]
_RE_LIMIT = 500.0

_CELL_BLOCK = 1 << 16      # entries of one block of the cell power table
_CELL_RUN = 64             # cells per exp of the power table, at most
_BOX_PAD = 1e-9            # the root search's box, widened on every side
_ROOT_TOL = 1e-10          # |H - 1| at which a converged root is kept
_NEWTON_STEPS = 60         # Newton steps of the root search, at most

# Gauss-Kronrod 7/15 on [-1, 1], the QUADPACK qk15 table: the Kronrod nodes
# from the end inwards to 0 with their weights, and the Gauss weights of the
# second, fourth, sixth and eighth of those nodes
_KRONROD_NODES = (0.991455371120812639206854697526329,
                  0.949107912342758524526189684047851,
                  0.864864423359769072789712788640926,
                  0.741531185599394439863864773280788,
                  0.586087235467691130294144845693013,
                  0.405845151377397166906606412076961,
                  0.207784955007898467600689403773245,
                  0.0)
_KRONROD_WEIGHTS = (0.022935322010529224963732008058970,
                    0.063092092629978553290700663189204,
                    0.104790010322250183839876322541518,
                    0.140653259715525918745189590510238,
                    0.169004726639267902826583426598550,
                    0.190350578064785409913256402421014,
                    0.204432940075298892414161999234649,
                    0.209482141084727828012999174891714)
_GAUSS_WEIGHTS = (0.129484966168869693270611432679082,
                  0.279705391489276667901467771423780,
                  0.381830050505118944950369775488975,
                  0.417959183673469387755102040816327)


@dataclass(frozen=True)
class GridFunction:
    """``N + 1`` complex samples on the nodes ``k / N`` with a norm exponent.

    The p-norm is the left-endpoint quadrature over nodes ``0 .. N-1`` with
    weight ``1/N``; node ``N`` carries no weight (see module docstring).
    Sums, differences, scalar multiples and the pointwise modulus act on the
    samples, as they do on the vector states of the matrix world.
    """

    values: np.ndarray
    p: float = 2.0

    def __post_init__(self):
        v = numkit.as_vector(self.values)
        if v.shape[0] < 2:
            raise numkit.ShapeError("a grid function needs at least 2 nodes")
        if not self.p >= 1:
            raise numkit.UnsupportedExponentError(
                f"a grid function needs p >= 1, got p = {self.p}")
        object.__setattr__(self, "values", v)

    @property
    def N(self) -> int:
        return self.values.shape[0] - 1

    def norm(self) -> float:
        return numkit.vector_norm(self.values[:-1], self.p, weight=1.0 / self.N)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.values + other.values, p=self.p)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.values - other.values, p=self.p)

    def __rmul__(self, scale: float) -> "GridFunction":
        return GridFunction(scale * self.values, p=self.p)

    def __abs__(self) -> np.ndarray:
        return np.abs(self.values)


def shift_open(values: np.ndarray, j: int) -> np.ndarray:
    """Left shift by ``j`` nodes with open right boundary.

    ``out[i] = values[i + j]`` while ``i + j < N``; every other node —
    including node ``N`` itself — is set to zero.  For ``j = 0`` this returns
    a copy with node ``N`` zeroed, which is the stored representative of the
    same L^p class that every semigroup orbit uses.
    """
    v = np.asarray(values, dtype=np.complex128)
    N = v.shape[0] - 1
    out = np.zeros_like(v)
    if j < 0:
        raise ValueError("shift amount must be >= 0")
    if j < N:
        out[: N - j] = v[j:N]
    return out


def as_grid_function(triple, x) -> GridFunction:
    if isinstance(x, GridFunction):
        if x.N != triple.N:
            raise numkit.ShapeError(
                f"grid function has N = {x.N}, triple N = {triple.N}")
        if x.p != triple.p:
            raise ValueError(
                f"grid function has p = {x.p}, triple p = {triple.p}")
        return x
    v = numkit.as_vector(x)
    if v.shape[0] != triple.N + 1:
        raise numkit.ShapeError(
            f"expected {triple.N + 1} samples, got {v.shape[0]}")
    return GridFunction(v, p=triple.p)


def volterra_resolvent_values(lam: complex, values: np.ndarray) -> np.ndarray:
    """Trapezoid discretization of ``(R f)(s) = int_s^1 e^{lam (s-r)} f(r) dr``.

    Backward per-cell recursion: with ``h = 1/N`` and ``E = e^{-lam h}``,

        I_N = 0,   I_k = (h/2) (f_k + E f_{k+1}) + E I_{k+1}.

    Exact for constant ``f`` up to O(h^2); used by both the unperturbed
    transport resolvent and the perturbed one.  The values grow like
    ``e^{|Re lam|}`` across the interval, so a non-finite ``lam`` or one with
    ``|Re lam| > 500`` raises :class:`numkit.NumericalRangeError`, as
    :func:`transfer_scalar` does.
    """
    if not np.isfinite(lam):
        raise numkit.NumericalRangeError(f"lambda = {lam} is not finite")
    if abs(lam.real) > _RE_LIMIT:
        raise numkit.NumericalRangeError(
            f"|Re lambda| = {abs(lam.real):g} overflows e^(lam (s-r))")
    f = np.asarray(values, dtype=np.complex128)
    N = f.shape[0] - 1
    h = 1.0 / N
    E = np.exp(-lam * h)
    out = np.zeros_like(f)
    acc = 0.0 + 0.0j
    for k in range(N - 1, -1, -1):
        acc = (h / 2.0) * (f[k] + E * f[k + 1]) + E * acc
        out[k] = acc
    return out


@dataclass(frozen=True)
class BorelMeasure:
    """Complex measure on [0, 1]: point atoms plus a cellwise density.

    ``atoms`` is a sequence of ``(location, weight)`` with distinct locations
    in [0, 1]; ``density`` holds one complex value per uniform grid cell (or
    is empty).
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

    def tail_mass(self, delta: float) -> float:
        """Total variation of the restriction to ``[1 - delta, 1]``."""
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {delta}")
        lo = 1.0 - delta
        mass = sum(abs(w) for loc, w in self.atoms if loc >= lo - 1e-15)
        if self.density:
            n = len(self.density)
            h = 1.0 / n
            ends = np.arange(n + 1) * h
            overlap = np.maximum(
                0.0, np.minimum(ends[1:], 1.0) - np.maximum(ends[:-1], lo))
            d = np.asarray(self.density)
            # hypot is Python's complex abs; numpy's complex abs rounds apart
            terms = np.hypot(d.real, d.imag) * overlap
            mass = np.add.accumulate(np.r_[mass, terms])[-1]  # in order
        return float(mass)

    @cached_property
    def _terms(self) -> tuple:
        """``((r - 1, w) per atom, c_k h, k h - 1, c_k h (k h - 1), h)``
        for :func:`_transfer_and_slope`, built on first use."""
        n = len(self.density)
        h = 1.0 / max(n, 1)
        weights = np.asarray(self.density, dtype=np.complex128) * h
        left = np.arange(n) * h - 1.0
        return (tuple((loc - 1.0, w) for loc, w in self.atoms), weights, left,
                weights * left, h)


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
        half = _cell_masses(mu.density, 2.0 * N)
        c[1:] += half     # node k takes cell k - 1 first,
        c[:-1] += half    # then cell k
    return c


def _cell_masses(density, scale) -> np.ndarray:
    """``d / scale`` per cell, divided componentwise as Python divides.

    numpy divides a complex array by a real scalar through its reciprocal,
    which rounds differently; the float64 view keeps the true quotient.
    """
    return (np.asarray(density, dtype=np.complex128).view(np.float64)
            / scale).view(np.complex128)


def dirichlet_operator(lam: complex, N: int, p: float = 2.0) -> GridFunction:
    """Boundary lift ``(D_lam 1)(s) = e^{lam (s - 1)}`` of the unit boundary
    value.

    Solves the stationary kernel problem ``(lam - d/ds) f = 0`` with boundary
    value ``f(1) = 1``; at ``lam = 0`` this is exactly the constant
    function 1.
    """
    lam = complex(lam)
    if abs(lam.real) > _RE_LIMIT:
        raise numkit.NumericalRangeError(
            f"|Re lambda| = {abs(lam.real):g} overflows e^(lam (s-1))")
    s = np.arange(N + 1, dtype=float) / N
    return GridFunction(np.exp(lam * (s - 1.0)), p=p)


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


def _phi_reader(coef: np.ndarray, density: bool):
    """``rows -> rows @ coef`` for the rows of a window view, one state per
    row.

    A window view whose row stride is below its width is no BLAS operand,
    so a product with it visits every node, zero or not.  Without a
    ``density`` the nonzero coefficients are the atoms, and each atom's term
    is read by index: O(#atoms) per row.  A density gives every node
    weight, so its rows keep the one contiguous window product (which reads
    the atoms' nodes as well).
    """
    if density:
        return lambda rows: rows @ coef
    nodes = np.flatnonzero(coef)

    def read(rows) -> np.ndarray:
        out = np.zeros(rows.shape[0], dtype=np.complex128)
        for node in nodes:
            out += coef[node] * rows[:, node]
        return out
    return read


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


def _sliding_max(a: np.ndarray, width: int) -> np.ndarray:
    """``max(a[i : i + width])`` for every full window, in O(len(a)).

    van Herk / Gil-Werman: cut ``a`` into tiles of ``width`` (the last one
    padded with its final value, which every window reaching it holds); a
    window starting at ``i`` spans the rest of ``i``'s tile, whose suffix
    maximum is taken backwards, and the start of the next tile, whose prefix
    maximum is taken forwards.  ``np.maximum`` propagates NaN, so a window
    holding a NaN gives NaN, as ``max`` does.
    """
    n = a.shape[0]
    tiles = -(-n // width)
    padded = np.empty(tiles * width, dtype=a.dtype)
    padded[:n] = a
    padded[n:] = a[-1]
    padded = padded.reshape(tiles, width)
    prefix = np.maximum.accumulate(padded, axis=1).ravel()
    suffix = np.maximum.accumulate(padded[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(suffix[:n - width + 1], prefix[width - 1:n])


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
    values depend only on earlier ones and are computed as one block (a
    measure without mass below ``s = 1`` is one block for the whole
    horizon, a density gives blocks of one level).  A block reads each
    atom's term off its level windows by index; a density keeps one window
    product per block.  After the recursion one pass checks the relation to
    1e-12 (relative to ``max(1, max |state|)``) at every constructed level,
    in O(levels + N): the scales are one sliding maximum of ``|z|``.  Level
    ``j``'s check reads ``z`` only up to ``N + j``, so
    :class:`ArithmeticError` names the first level where it fails, whatever
    the later levels hold.

    ``states`` is a read-only window view of ``z``, not one array per level;
    copy it before writing.
    """
    if x0.N != N:
        raise numkit.ShapeError(f"x0 lives on N = {x0.N}, expected {N}")
    levels = _grid_nodes(horizon, N)
    c, denom = _boundary_coefficients(mu, N)
    z = np.zeros(N + 1 + levels, dtype=np.complex128)
    z[:N + 1] = x0.values
    windows = sliding_window_view(z, N + 1)
    support = np.flatnonzero(c[:N])
    k_max = int(support[-1]) if support.size else -1
    block = N - k_max if support.size else max(levels, 1)
    heads = windows[:, :k_max + 1]
    read = _phi_reader(c[:k_max + 1], bool(mu.density))
    partial = np.empty(levels, dtype=np.complex128)  # level j at j - 1
    # past a broken level the values may overflow; the check names it
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, levels + 1, block):
            end = min(j + block, levels + 1)
            partial[j - 1:end - 1] = read(heads[j:end])
            z[N + j:N + end] = partial[j - 1:end - 1] / denom
        # c . state with the boundary read back from the stored windows;
        # c vanishes on (k_max, N), so the partial sum carries the rest
        b = z[N + 1:]
        gap = np.abs(b - (partial + c[N] * b))
        scale = np.maximum(1.0, _sliding_max(np.abs(z), N + 1)[1:])
        bad = np.flatnonzero(~(gap <= 1e-12 * scale))
    if bad.size:
        raise ArithmeticError(
            f"boundary relation x(1) = Phi x broken by "
            f"{gap[bad[0]]:.3e} at time level {1 + bad[0]}")
    times = np.arange(levels + 1, dtype=float) / N
    return Trajectory(times, windows)


def upwind_generator(mu: BorelMeasure, N: int) -> np.ndarray:
    """N x N forward-difference matrix of the closed-loop generator.

    Interior rows discretize ``f' (s_k) ~ (f_{k+1} - f_k) N``; the boundary
    sample ``f_N`` is eliminated through ``f_N = Phi f`` before the last row
    is formed, which folds the nonlocal boundary condition into the matrix.
    """
    c, denom = _boundary_coefficients(mu, N)
    A = N * (np.eye(N, k=1, dtype=np.complex128) - np.eye(N))
    A[N - 1, :] += N * c[:N] / denom
    return A


def _exp_ratio_and_slope(z: np.ndarray, e: np.ndarray):
    """Elementwise stable ``R(z) = (e^z - 1) / z`` and
    ``R'(z) = (z e^z - expm1(z)) / z^2``, from the caller's ``e = e^z``.

    ``R`` takes its Taylor series through ``z^3`` below ``|z| = 1e-5``,
    ``R'`` its series through ``z^5`` below ``|z| = 1e-2``, where the
    truncation is below 2e-16.  Above, ``R'`` is evaluated as
    ``(e^z - expm1(z) / z) / z`` so that no ``z^2`` overflows; it loses about
    ``2 eps / |z|`` relative to cancellation, at most 4e-14 at the switch.
    The Taylor terms are formed on the small entries only and written over
    the closed forms there, so a huge ``z`` cannot overflow ``z^3``; a batch
    without an entry below ``1e-2`` skips them.
    """
    size = np.abs(z)
    small = size < 1e-2
    series = small.any()
    tiny = size < 1e-5
    safe = np.where(tiny, 1.0, z) if series else z
    ratio = (e - 1.0) / safe
    slope = (e - np.expm1(safe) / safe) / safe
    if series:
        x = z[tiny]
        ratio[tiny] = 1.0 + x / 2.0 + x * x / 6.0 + x ** 3 / 24.0
        x = z[small]
        slope[small] = 0.5 + x * (1.0 / 3.0 + x * (1.0 / 8.0 + x * (
            1.0 / 30.0 + x * (1.0 / 144.0 + x / 840.0))))
    return ratio, slope


def _transfer_and_slope(mu: BorelMeasure, lam: np.ndarray):
    """``(H, H')`` at each entry of the complex array ``lam`` (no range check).

    Atoms contribute ``w e^{lam (r - 1)}`` to ``H`` and
    ``(r - 1) w e^{lam (r - 1)}`` to ``H'``.  The cell exponentials
    ``e^{lam (kh - 1)}`` are a power table: one ``exp`` per run of
    :data:`_CELL_RUN` cells, times powers of ``e^{lam h}`` accumulated
    along the run (within ``128 eps sum |terms|`` of one ``exp`` per cell),
    in blocks of at most :data:`_CELL_BLOCK` entries, weighted by ``c_k h``
    for ``S`` and ``c_k h (kh - 1)`` for ``S_1`` and summed per entry, so
    no value depends on the other points in the array.  Then ``H`` gains
    ``S R(lam h)`` with ``R(z) = (e^z - 1) / z`` and ``H'`` gains
    ``S_1 R(lam h) + S h R'(lam h)`` (:func:`_exp_ratio_and_slope`, from
    the table's step ``e^{lam h}``: one ``exp`` per point serves both).
    ``H'`` is the exact derivative of the ``H`` computed here (the same cell
    primitives, differentiated in closed form), up to the rounding of
    ``R'``, so Newton on it converges to the zeros that a ``|H - 1|`` test
    on this ``H`` accepts.
    """
    atoms, weights, left, moments, h = mu._terms
    H = np.zeros(lam.shape, dtype=np.complex128)
    dH = np.zeros(lam.shape, dtype=np.complex128)
    for offset, w in atoms:
        atom = w * np.exp(lam * offset)
        H += atom
        dH += offset * atom
    if left.size:
        flat = lam.reshape(-1)
        cells, cell_moments = np.empty_like(flat), np.empty_like(flat)
        n, run = left.size, min(left.size, _CELL_RUN)
        starts = left[::run]
        step = np.exp(flat * h)
        rows = max(1, _CELL_BLOCK // (starts.size * run))
        for i in range(0, flat.size, rows):
            chunk = flat[i:i + rows]
            table = np.empty((chunk.size, starts.size, run), complex)
            table[..., 0] = np.exp(np.multiply.outer(chunk, starts))
            table[..., 1:] = step[i:i + rows, None, None]
            table.reshape(chunk.size, -1)[:, n:] = 1.0   # past the last cell
            block = np.multiply.accumulate(table, axis=2).reshape(
                chunk.size, -1)[:, :n]
            cells[i:i + rows] = (block * weights).sum(axis=-1)
            cell_moments[i:i + rows] = (block * moments).sum(axis=-1)
        cells = cells.reshape(lam.shape)
        ratio, slope = _exp_ratio_and_slope(lam * h,
                                            step.reshape(lam.shape))
        H += cells * ratio
        dH += cell_moments.reshape(lam.shape) * ratio + cells * h * slope
    return H, dH


def transfer_scalar(mu: BorelMeasure, lam: complex) -> complex:
    """Transfer function ``H(lam) = int_0^1 e^{lam (r - 1)} dmu(r)``.

    Atoms contribute ``w e^{lam (r - 1)}`` exactly; density cells use the
    exact primitive of the exponential (no quadrature error).  The value is
    the one :func:`characteristic_roots` computes at ``lam``.  A non-finite
    ``lam`` or one with ``|Re lam| > 500`` raises
    :class:`numkit.NumericalRangeError`.
    """
    lam = complex(lam)
    if not np.isfinite(lam):
        raise numkit.NumericalRangeError(f"lambda = {lam} is not finite")
    if abs(lam.real) > _RE_LIMIT:
        raise numkit.NumericalRangeError(
            f"|Re lambda| = {abs(lam.real):g} out of range for e^(lam (r-1))")
    return complex(_transfer_and_slope(mu, np.array([lam]))[0][0])


def _gauss_kronrod_15():
    """The 15 nodes of :data:`_KRONROD_NODES` on [-1, 1], ascending, with
    their Kronrod weights and their Gauss weights (0 off the 7 Gauss
    nodes)."""
    half = np.array(_KRONROD_NODES)
    kronrod = np.array(_KRONROD_WEIGHTS)
    gauss = np.zeros(8)
    gauss[1::2] = _GAUSS_WEIGHTS
    return (np.concatenate([-half, half[-2::-1]]),
            np.concatenate([kronrod, kronrod[-2::-1]]),
            np.concatenate([gauss, gauss[-2::-1]]))


def _root_count(mu: BorelMeasure, box, mirrored: bool, budget: int):
    """Zeros of ``H - 1`` inside ``box`` padded by :data:`_BOX_PAD`, or
    ``None`` when the count is not certified.

    Argument principle, ``(1 / 2 pi i)`` times the integral of
    ``H' / (H - 1)`` counter-clockwise round the padded box, by
    Gauss-Kronrod 7/15 on segments of at most 4 per edge, with ``H`` and
    ``H'`` from one :func:`_transfer_and_slope` call on every node.  For
    ``mirrored`` (a real measure on a box symmetric about the real axis) the
    lower half is the conjugate of the upper, so only the upper half path
    (right edge up from ``Im = 0``, top edge, left edge down to ``Im = 0``)
    is evaluated and the count is ``Im I_upper / pi``.  Certified means:
    the box lies in the strip ``|Re| <= 500``, the contour has at most
    ``budget`` nodes (they are evaluated before the count is known), the
    Kronrod and the Gauss sums lie within 1e-3 of the same integer, and the
    phase of ``H - 1`` turns by less than ``pi / 2`` between consecutive
    nodes round the whole contour.  A zero of ``H - 1`` on or near the
    contour breaks the last two.
    """
    re_min, re_max, im_min, im_max = box
    lo, hi = re_min - _BOX_PAD, re_max + _BOX_PAD
    bottom, top = im_min - _BOX_PAD, im_max + _BOX_PAD
    if max(-lo, hi) > _RE_LIMIT:
        return None
    wide = int(np.ceil((re_max - re_min) / 4.0))
    if mirrored:
        tall = int(np.ceil(im_max / 4.0))
        edges = ((complex(hi, 0.0), complex(hi, top), tall),
                 (complex(hi, top), complex(lo, top), wide),
                 (complex(lo, top), complex(lo, 0.0), tall))
    else:
        tall = int(np.ceil((im_max - im_min) / 4.0))
        edges = ((complex(lo, bottom), complex(hi, bottom), wide),
                 (complex(hi, bottom), complex(hi, top), tall),
                 (complex(hi, top), complex(lo, top), wide),
                 (complex(lo, top), complex(lo, bottom), tall))
    if 15 * sum(pieces for _, _, pieces in edges) > budget:
        return None
    x, kronrod, gauss = _gauss_kronrod_15()
    lam, half = [], []
    for start, end, pieces in edges:
        step = (end - start) / pieces
        lam.append(start + step * (np.arange(pieces) + 0.5)[:, None]
                   + step / 2.0 * x)
        half.append(np.full(pieces, step / 2.0))
    lam = np.concatenate(lam)
    H, dH = _transfer_and_slope(mu, lam)
    g = H - 1.0
    ring = g.ravel()
    if mirrored:
        ring = np.concatenate([ring, ring[::-1].conj()])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        terms = np.concatenate(half)[:, None] * (dH / g)
        sums = np.array([(terms * kronrod).sum(), (terms * gauss).sum()])
        turns = np.abs(np.angle(np.roll(ring, -1) / ring))
    counts = sums.imag / np.pi if mirrored else sums / (2j * np.pi)
    if not np.all(np.isfinite(counts)) or not np.all(turns < np.pi / 2.0):
        return None
    n = np.rint(counts[0].real)
    return int(n) if np.all(np.abs(counts - n) <= 1e-3) else None


def _clip_and_dedup(points, seen: np.ndarray, box, mirrored: bool):
    """``(seen, found)``: ``seen`` extended, in order, by each of
    ``points`` that lies in the padded box and farther than 1e-6 from every
    point of ``seen`` so far, and the number of roots that ``seen`` stands
    for.  Mirrored, a point stands for itself and its conjugate, so it is
    kept as the one with ``Im >= 0`` and counts twice unless the two lie
    within 1e-6 (a real root).  The loop runs once per point kept.  The
    result of :func:`characteristic_roots` and its stop test both come from
    here.
    """
    if mirrored:
        points = points.real + 1j * np.abs(points.imag)
    re_min, re_max, im_min, im_max = box
    points = points[(re_min - _BOX_PAD <= points.real)
                    & (points.real <= re_max + _BOX_PAD)
                    & (im_min - _BOX_PAD <= points.imag)
                    & (points.imag <= im_max + _BOX_PAD)]
    if seen.size:
        points = points[np.abs(points[:, None] - seen).min(axis=1) > 1e-6]
    new = [seen]
    while points.size:
        new.append(points[:1])
        points = points[np.abs(points - points[0]) > 1e-6]
    seen = np.concatenate(new)
    pairs = np.count_nonzero(2.0 * seen.imag > 1e-6) if mirrored else 0
    return seen, seen.size + pairs


def characteristic_roots(mu: BorelMeasure, search_box) -> np.ndarray:
    """Roots of ``H(lam) = 1`` inside a rectangular box: counted by the
    argument principle, found by seeded Newton.

    ``search_box`` is ``(re_min, re_max, im_min, im_max)``, finite in extent.
    Newton runs from a grid of up to 40 x 80 starting points, all starts at
    once as one batch, with the analytic derivative: each step makes one
    evaluation of ``H`` and ``H'`` (:func:`_transfer_and_slope`).  For a
    real measure ``H(conj lam) = conj H(lam)`` bit for bit, so on a grid
    symmetric about the real axis Newton and the final ``|H - 1|`` test
    run only from the starts with ``Im >= 0`` and mirror the rest; the
    roots do not change.  A start is dropped when its iterate leaves the
    evaluable strip ``|Re lam| <= 500``, when the derivative vanishes or
    the step is not finite, when ``|lam| > 1e6``, or when it has not
    reached ``|H - 1| <= 1e-12`` after :data:`_NEWTON_STEPS` (60) steps.
    Converged points are kept iff ``|1 - H(lam)| <= 1e-10``
    (:data:`_ROOT_TOL`), clipped to the box (pad
    1e-9) and deduplicated to 1e-6 in start order; the result is sorted by
    imaginary, then real part.  An empty result is a valid answer (e.g. a
    constant transfer function that never equals 1).  Roots that no start
    converges to go unreported.

    Before Newton, one evaluation on the padded box's boundary counts the
    zeros of ``H - 1`` inside (:func:`_root_count`; the upper half
    boundary when the grid is mirrored).  The count is used only when it is
    certified: the box lies in the strip, the boundary has no more nodes
    than the ``_NEWTON_STEPS - 1`` Newton steps it can save evaluate at most,
    the Kronrod and Gauss sums agree on an integer to 1e-3 and the phase of
    ``H - 1`` turns by less than ``pi / 2`` between neighbouring nodes, which
    a zero on or near the boundary breaks.  Newton then stops once the
    distinct converged points in the padded box, counted as the clip and
    dedup count them (a mirrored pair twice), reach the count; a count that
    is refused or never met changes nothing.  A met count means every zero
    in the box has been found, so the result is the same root set as the
    full run's, to the Newton stop: each root is the point of the first
    start, in start order, among those converged by the stop step, within
    about ``2e-12 / |H'|`` of the full run's.  A box edge or extent that is
    not finite, or an empty box, raises :class:`ValueError`.
    """
    re_min, re_max, im_min, im_max = (float(v) for v in search_box)
    if not np.all(np.isfinite((re_max - re_min, im_max - im_min))):
        raise ValueError("search box edges and extent must be finite")
    if not (re_min < re_max and im_min < im_max):
        raise ValueError("search box must have positive extent")
    n_re = min(40, max(3, int(np.ceil((re_max - re_min) / 1.0)) + 1))
    n_im = min(80, max(3, int(np.ceil((im_max - im_min) / 2.0)) + 1))
    im = np.linspace(im_min, im_max, n_im)
    lam = np.add.outer(np.linspace(re_min, re_max, n_re), 1j * im)
    # columns :lower mirror the columns with Im >= 0 (none without symmetry)
    real = not np.imag([w for _, w in mu.atoms] + [*mu.density]).any()
    lower = n_im // 2 if real and np.array_equal(im, -im[::-1]) else 0
    upper = lam[:, lower:]
    converged = np.zeros(upper.shape, dtype=bool)
    z = upper.ravel()
    live = np.arange(z.size)
    box, mirrored = (re_min, re_max, im_min, im_max), lower > 0
    count = _root_count(mu, box, mirrored, (_NEWTON_STEPS - 1) * z.size)
    # converged points wait until they could meet the count, then are tallied
    seen, tally, waiting = np.empty(0, dtype=np.complex128), 0, []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            if count is not None and tally >= count:
                break
            keep = np.abs(z.real) <= _RE_LIMIT
            live, z = live[keep], z[keep]
            H, dg = _transfer_and_slope(mu, z)
            g = H - 1.0
            done = np.abs(g) <= 1e-12
            fresh = z[done]
            upper.flat[live[done]] = fresh
            converged.flat[live[done]] = True
            if count is not None and fresh.size:
                waiting.append(fresh)
                if tally + sum(map(len, waiting)) * (1 + mirrored) >= count:
                    seen, tally = _clip_and_dedup(np.concatenate(waiting),
                                                  seen, box, mirrored)
                    waiting = []
            keep = ~done
            live, z, g, dg = live[keep], z[keep], g[keep], dg[keep]
            step = g / dg
            z = z - step
            keep = ((np.abs(dg) >= 1e-300) & np.isfinite(step.real)
                    & np.isfinite(step.imag) & (np.abs(z) <= 1e6))
            live, z = live[keep], z[keep]
            if not live.size:
                break
    # keep iff |1 - H| <= _ROOT_TOL, tested on the upper columns; |H - 1| at a
    # mirrored point is its mirror's, so the lower flags are mirrored too
    kept = np.zeros(lam.shape, dtype=bool)
    H = _transfer_and_slope(mu, upper[converged])[0]
    kept[:, lower:][converged] = np.abs(H - 1.0) <= _ROOT_TOL
    lam[:, :lower] = lam[:, ::-1][:, :lower].conj()
    kept[:, :lower] = kept[:, ::-1][:, :lower]
    # dedup in start order: each kept root removes the points within 1e-6
    # of it, so the first point left is the first one far from every root
    roots = _clip_and_dedup(lam[kept], np.empty(0, dtype=np.complex128), box,
                            False)[0]
    return roots[np.lexsort((roots.real, roots.imag))]


def greiner_compatibility(lam: complex, N: int) -> float:
    """Sup-norm residual of ``(Id - lam R(lam, A)) D_0 1 = D_lam 1``.

    Both sides are grid functions; the left side uses the discrete Volterra
    resolvent, so the residual is the quadrature error — O(1/N), exactly 0
    at ``lam = 0`` where both sides are the constant lift.
    """
    lam = complex(lam)
    d0 = dirichlet_operator(0.0, N)
    lhs = d0.values - lam * volterra_resolvent_values(lam, d0.values)
    rhs = dirichlet_operator(lam, N).values
    return float(np.abs(lhs - rhs).max())


@dataclass(frozen=True)
class TransportTriple:
    """Grid transport system on ``[0, 1]`` with boundary inflow and a
    measure-functional observation.

    States are :class:`GridFunction` samples; the
    state operator generates the nilpotent open left shift
    (``(T(t) f)(s) = f(s+t)`` for ``s+t <= 1``, else 0), the control
    channel is the boundary inflow at ``s = 1`` and the observation is
    ``Phi``.  Wherever the abstract theory applies an extrapolated
    semigroup, the methods substitute these closed forms.  A non-negative
    ``mu_shift`` represents the rescaled state operator ``A - mu``:
    analytic data are evaluated at ``lambda + mu`` and the semigroup and
    the maps gain the factors ``e^{-mu t}``.

    Parameters
    ----------
    N : grid size, an integer ``N >= 4`` (not a bool or a float); nodes
        ``s_k = k / N``.
    p : norm exponent in ``[1, inf)`` for the state space.
    mu : the observation functional, a measure on ``[0, 1]`` whose atoms
        must sit on grid nodes (validated here).
    mu_shift : non-negative spectral shift of the state operator.
    """

    N: int
    p: float
    mu: BorelMeasure
    mu_shift: float = 0.0
    coef: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        N = self.N
        if (isinstance(N, bool) or not hasattr(N, "__index__")
                or operator.index(N) < 4):
            raise ValueError(f"need an integer N >= 4, got {N!r}")
        object.__setattr__(self, "N", operator.index(N))
        if not (1.0 <= self.p < np.inf):
            raise ValueError(f"need p in [1, inf), got {self.p}")
        if self.mu_shift < 0:
            raise ValueError("mu_shift must be >= 0")
        # atoms on nodes, N density cells; every read of Phi uses this
        object.__setattr__(self, "coef", phi_coefficients(self.mu, self.N))

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

    def spectral_abscissa(self) -> float:
        """``-inf``: the generator is nilpotent, its spectrum empty."""
        return -np.inf

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
        lift = dirichlet_operator(lam_eff, self.N, p=self.p).values
        gain = 1.0 / (1.0 - H)

        def _apply(f):
            gf = as_grid_function(self, f)
            Rf = volterra_resolvent_values(lam_eff, gf.values)
            boundary = gain * complex(self.coef @ Rf)
            return GridFunction(Rf + boundary * lift, p=self.p)
        return _apply

    def state_norm(self, x) -> float:
        return as_grid_function(self, x).norm()

    def random_domain_state(self, rng: np.random.Generator) -> GridFunction:
        v = numkit.random_vector(rng, self.N + 1)
        v[-1] = 0.0
        return GridFunction(v / self.state_norm(v), p=self.p)

    def discretize(self, grid) -> "TransportDiscretization":
        return TransportDiscretization(self, grid)

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
        lam_eff = lam + self.mu_shift
        worst = 0.0
        for _ in range(3):
            f = numkit.random_vector(rng, N + 1)
            f[-1] = 0.0
            g = Q(GridFunction(f, p=self.p)).values
            interior = lam_eff * g[:N] - N * (g[1:] - g[:N]) - f[:N]
            boundary = abs(g[N] - self.coef @ g)
            res = max(float(np.abs(interior).max()), float(boundary))
            res /= max(1.0, float(np.abs(f).max()))
            worst = max(worst, res)
        threshold = 50.0 * (1.0 + abs(lam)) ** 2 / N
        return lam, worst, threshold


@dataclass(frozen=True)
class TransportDiscretization:
    """A :class:`TransportTriple` on a time grid: the stride ``q = h N``, a
    positive whole number (else :class:`ValueError`), and the ``mu_shift``
    factors, fixed once.  Control, observation and F stay index arithmetic
    on the triple's node coefficients; dense matrices only on request."""

    triple: TransportTriple
    grid: object

    def __post_init__(self):
        triple, grid = self.triple, self.grid
        object.__setattr__(self, "q", _grid_nodes(grid.h, triple.N, least=1))
        if triple.mu_shift:
            mu, k = triple.mu_shift, np.arange(grid.steps)
            # e^{-mu (t0 - t_k)} on inputs, e^{-mu t_k} on F's lags and O's
            # rows, and rounded as e^{(-mu k) h} on the observed samples
            for name, exponent in (("_grow", -mu * (grid.t0 - k * grid.h)),
                                   ("_decay", -mu * grid.times),
                                   ("_sample_decay", -mu * k * grid.h)):
                object.__setattr__(self, name, np.exp(exponent))

    def controllability_matrix(self) -> np.ndarray:
        """``N x steps``: node i holds sample ``k = (i + q steps - N) // q``
        when that is ``>= 0``, with factor ``e^{-mu (t0 - t_k)}``."""
        N, q, steps = self.triple.N, self.q, self.grid.steps
        sample = (np.arange(N) + q * steps - N) // q
        Bc = (sample[:, None] == np.arange(steps)).astype(np.complex128)
        if self.triple.mu_shift:
            Bc *= self._grow
        return Bc

    def observability_matrix(self) -> np.ndarray:
        """``steps x N``: row k reads node i through ``c[i - k q]`` when
        ``i >= k q``, with factor ``e^{-mu t_k}``."""
        k = np.arange(self.grid.steps)
        lag = np.arange(self.triple.N) - self.q * k[:, None]
        Cc = np.where(lag >= 0, self.triple.coef[np.maximum(lag, 0)], 0.0)
        if self.triple.mu_shift:
            Cc *= self._decay[:, None]
        return Cc

    def feedback_column(self) -> np.ndarray:
        """F's first block column, ``(steps, 1, 1)``: node ``k`` adds its
        :func:`phi_coefficients` entry ``c_k`` at lag ``ceil((N - k) / q)``,
        nodes in order, so lag 0 holds ``c_N`` (an atom at ``s = 1`` plus
        the last density half-cell; see :func:`_boundary_coefficients`).  A
        ``mu_shift`` multiplies lag ``l`` by ``e^{-mu t_l}``, which is
        ``e^{-mu t_j} F e^{mu t_k}`` without the overflow of ``e^{mu t_k}``.
        """
        triple, steps = self.triple, self.grid.steps
        lag = -((np.arange(triple.N + 1) - triple.N) // self.q)
        keep = lag < steps
        col = np.zeros(steps, dtype=np.complex128)
        np.add.at(col, lag[keep], triple.coef[keep])
        if triple.mu_shift:
            col *= self._decay
        return col[:, None, None]

    def solve_feedback(self, v) -> np.ndarray:
        """``(I - F)^{-1} v`` by the boundary recursion, without F:

            y_j = (v_j + sum_{l in S} col_l y_{j-l}) / (1 - col_0),

        ``S`` the nonzero lags ``l >= 1`` of F's first column ``col``.  A
        density puts weight on every lag up to the largest, so each step
        reads ``y_{j-1} .. y_{j-pad}`` as one contiguous window dot with the
        reversed column.  Atoms alone give a few scattered lags: with ``L``
        the smallest lag in ``S``, the next ``L`` values read only earlier
        ones, so each delay block of ``L`` steps is one gather and one
        product (the delay blocks of :func:`solve_pde`).  ``1 - col_0 =
        1 - c_N`` is the diagonal of ``I - F``, the factor of
        :func:`_boundary_coefficients`; exactly 0 (unit mass at ``s = 1``)
        raises :class:`~sgperturb.numkit.SingularMatrixError`."""
        steps = self.grid.steps
        col = self.feedback_column()[:, 0, 0]
        denom = 1.0 - col[0]
        numkit._require_pivots(np.array([denom]))
        v = np.asarray(v, dtype=np.complex128).reshape(steps)
        lags = np.flatnonzero(col[1:]) + 1
        if not lags.size:
            return (v / denom)[:, None]
        pad = int(lags[-1])
        y = np.zeros(pad + steps, dtype=np.complex128)
        if self.triple.mu.density:
            reversed_col = col[pad:0:-1]     # y[j + i] pairs with col_{pad-i}
            for j in range(steps):
                y[pad + j] = (v[j] + y[j:j + pad] @ reversed_col) / denom
            return y[pad:, None]
        reads = pad - lags           # y_{j-l} sits at y[j + pad - l]
        weights = col[lags]
        block = int(lags[0])
        for j in range(0, steps, block):
            end = min(j + block, steps)
            gathered = y[np.arange(j, end)[:, None] + reads]
            y[pad + j:pad + end] = (v[j:end] + gathered @ weights) / denom
        return y[pad:, None]

    def impulse_column(self) -> np.ndarray:
        """G's first column, ``(steps, 1, 1)``, G = ``(I - F)^{-1}``: the
        :meth:`solve_feedback` response to the unit impulse at t = 0."""
        impulse = np.zeros(self.grid.steps)
        impulse[0] = 1.0
        return self.solve_feedback(impulse)[:, :, None]

    def control(self, samples) -> GridFunction:
        N, q = self.triple.N, self.q
        j0 = q * self.grid.steps
        first = max(0, N - j0)
        # node i reads sample (i + j0 - N) // q while that index is >= 0
        k = (np.arange(first, N) + j0 - N) // q
        out = np.zeros(N + 1, dtype=np.complex128)
        out[first:N] = samples[k, 0]
        if self.triple.mu_shift:
            out[first:N] *= self._grow[k]
        return GridFunction(out, p=self.triple.p)

    def observe(self, x, require_domain: bool = True) -> np.ndarray:
        """With ``require_domain`` the state must have ``x(1) = 0``."""
        N, q = self.triple.N, self.q
        gf = as_grid_function(self.triple, x)
        scale = max(1.0, float(np.abs(gf.values).max()))
        if require_domain and abs(gf.values[-1]) > 1e-9 * scale:
            raise ValueError(
                f"state rejected (outside D(A)): boundary sample x(1) = "
                f"{gf.values[-1]:.3e} must vanish")
        # shift_open(x, k q) is the window at k q of x[:N] padded with 0
        padded = np.zeros(N + 1 + (self.grid.steps - 1) * q,
                          dtype=np.complex128)
        padded[:N] = gf.values[:N]
        return self._read_levels(sliding_window_view(padded, N + 1)[::q])

    def _read_levels(self, levels) -> np.ndarray:
        """Phi of each level (one state per row), times ``e^{-mu t_k}``."""
        triple = self.triple
        out = _phi_reader(triple.coef, bool(triple.mu.density))(levels)
        if triple.mu_shift:
            out *= self._sample_decay
        return out[:, None]

    def euclidean_frames(self):
        """(B, C, T) reweighted so that euclidean 2-norms are the signal and
        state norms (signal frame ``sqrt(h)``; state frame ``sqrt(1/N)`` on
        nodes ``0 .. N-1``, node N dropped — it carries no norm).  T is the
        open shift by ``q steps`` nodes, ``e^{-mu t0}`` on its diagonal."""
        triple, grid = self.triple, self.grid
        sqrt_h = np.sqrt(grid.h)
        sqrt_N = np.sqrt(float(triple.N))
        T = np.eye(triple.N, k=self.q * grid.steps, dtype=np.complex128)
        if triple.mu_shift:
            T = T * np.exp(-triple.mu_shift * grid.t0)
        return ((self.controllability_matrix() / sqrt_N) / sqrt_h,
                sqrt_h * self.observability_matrix() * sqrt_N, T)

    def vop_outputs(self, x) -> np.ndarray:
        """Outputs of the independent reference, the method-of-steps PDE
        solution: ``Phi`` of its states at the grid times.  ``x`` must
        satisfy the closed-loop boundary constraint ``x(1) = Phi x``."""
        triple, grid = self.triple, self.grid
        gf = as_grid_function(triple, x)
        scale = max(1.0, float(np.abs(gf.values).max()))
        if abs(gf.values[-1] - triple.coef @ gf.values) > 1e-9 * scale:
            raise ValueError(
                "state is outside the discrete closed-loop domain: "
                "x(1) != Phi x")
        traj = solve_pde(triple.mu, gf, grid.t0, triple.N)
        return self._read_levels(traj.states[::self.q][:grid.steps])
