"""Averaged Green's matrices and dense propagators.

A Green column with pole Y = (s, y) and component k is the forward solve
whose source is the normalized cell indicator of the backward parabolic
cylinder of radius rho at Y (cell-counted measure), started from zero at
s - rho^2 and extended by zero below.  The transpose column mirrors this
with the adjoint solver on the forward cylinder.  The discrete cylinders
and their slab conventions are those of ``Mesh.cylinder``.

One private builder marches every column: the N source components of a
pole share their source window, so ``green_block_columns`` and
``transpose_block_columns`` march them as one block, bitwise equal to the
single-component ``averaged_green_column`` and ``transpose_green_column``.
The public builders keep the whole window; the duality check asks the same
builder for only the slices and cells of the cylinders it averages over,
the causality check for the slices from step 0 to a column's first source
slab.  Columns and ``propagator``, which marches the identity block and
keeps its last slice, all take implicit Euler steps through the solver's
one marcher, ``solver._march``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .mesh import Mesh, Trajectory
from .problem import OperatorSpec
from .solver import ThetaScheme, _Keep, _march


def heat_kernel(n: int, t: float, r) -> np.ndarray:
    """Free-space Gaussian kernel (4 pi t)^{-n/2} exp(-r^2 / 4t)."""
    r = np.asarray(r, dtype=float)
    if t <= 0:
        return np.zeros_like(r)
    return (4.0 * math.pi * t) ** (-n / 2.0) * np.exp(-(r ** 2) / (4.0 * t))


def wrapped_heat_kernel(n: int, t: float, dx, lengths) -> np.ndarray:
    """Torus heat kernel: image sum of the free kernel over lattice shifts."""
    dx = np.atleast_2d(np.asarray(dx, dtype=float))
    L = np.asarray(lengths, dtype=float)
    shifts = np.arange(-6, 7)  # six lattice images per axis and side
    if n == 1:
        d = dx[:, 0][:, None] + shifts[None, :] * L[0]
        return heat_kernel(1, t, np.abs(d)).sum(axis=1)
    out = np.zeros(dx.shape[0])
    for sx in shifts:
        for sy in shifts:
            d = dx + np.array([sx * L[0], sy * L[1]])
            out += heat_kernel(2, t, np.linalg.norm(d, axis=1))
    return out


# ----------------------------------------------------------------------
# mollifier geometry
# ----------------------------------------------------------------------


def _check_resolvable(mesh: Mesh, radius: float):
    hmax = float(np.max(mesh.h))
    if radius < 2.0 * hmax or radius * radius < 4.0 * mesh.tau:
        raise ConfigError(
            f"mollifier radius {radius} below resolution: need rho >= 2*max(h, sqrt(tau))")


def _check_pole(mesh: Mesh, pole):
    """The pole's point must be a cell center off the pinned dirichlet layer."""
    if not mesh.interior_mask[mesh.cell_index(pole[1])]:
        raise ConfigError("pole sits on the pinned dirichlet boundary layer")


def _mollifier(mesh: Mesh, N: int, y, radius: float, k: int) -> np.ndarray:
    """Flat source slice: normalized indicator of the rho-ball, component k."""
    ball = mesh.ball_cells(y, radius)
    if len(ball) == 0:
        raise ConfigError("mollifier ball contains no cells")
    c = 1.0 / (mesh.slab_count(radius) * mesh.tau * len(ball) * mesh.volume)
    g = np.zeros((N, mesh.ncells))
    g[k - 1, ball] = c
    return g.ravel()


@dataclass
class GreenColumn:
    """One sampled column of an averaged Green's matrix.

    ``field`` spans [s - rho^2, T] for forward columns (zero-extended below)
    and [S, t + sigma^2] for transpose columns (zero-extended above).
    ``k`` is the 1-based source component; rho = 0 marks an extrapolated
    column, whose field starts exactly at the pole time.
    """

    spec: OperatorSpec
    mesh: Mesh
    pole: tuple
    k: int
    rho: float
    field: Trajectory
    direction: str = "forward"

    @property
    def N(self) -> int:
        return self.field.N

    def value_at(self, t: float, x) -> np.ndarray:
        """Column vector at (t, x); applies the zero extension exactly."""
        lo, hi = self.field.window
        eps = 1e-12 * max(1.0, abs(lo), abs(hi))
        if self.direction == "forward" and t < lo - eps:
            return np.zeros(self.N)
        if self.direction == "backward" and t > hi + eps:
            return np.zeros(self.N)
        return self.field.slice_at(t)[:, self.mesh.cell_index(x)].copy()


def _green_block(spec: OperatorSpec, mesh: Mesh, pole, ks, radius: float, horizon: float,
                 direction: str, keep: _Keep = _Keep()):
    """The columns of source components ``ks`` at one pole, marched as one block.

    Forward columns carry the minus-cylinder source and run up to the
    horizon; backward (transpose) columns carry the plus-cylinder source and
    run down to it.  A forward march starts at its source window, or at the
    first kept slice when that comes earlier, so the zero extension below
    the window is marched rather than assumed.  Returns the first time index
    of the march window and what ``keep`` keeps of the columns, as
    (len(ks), slices, N, kept cells).
    """
    _check_resolvable(mesh, radius)
    N = spec.coeffs.N
    for k in ks:
        if not 1 <= k <= N:
            raise ConfigError(f"component k={k} outside 1..{N}")
    _check_pole(mesh, pole)
    forward = direction == "forward"
    active, _ = mesh.cylinder(pole, radius, "minus" if forward else "plus")
    G = np.stack([_mollifier(mesh, N, pole[1], radius, k) for k in ks], axis=1)

    def src(m):
        return G if m in active else None

    if forward:
        i0, i1 = active.start, mesh.time_index(horizon)
        if keep.slices is not None and len(keep.slices) and keep.slices[0] < i0:
            i0 = int(keep.slices[0])
    else:
        i0, i1 = mesh.time_index(horizon), active.stop
    block = _march(ThetaScheme(mesh, spec), i0, i1, np.zeros_like(G), src, keep,
                   backward=not forward)
    return i0, block.reshape(block.shape[:2] + (N, block.shape[2] // N))


def _green_columns(spec: OperatorSpec, mesh: Mesh, pole, ks, radius: float, horizon: float,
                   direction: str) -> list:
    """Columns of ``_green_block``; each column's field is a view of the whole block."""
    i0, block = _green_block(spec, mesh, pole, ks, radius, horizon, direction)
    where = (float(pole[0]), np.atleast_1d(np.asarray(pole[1], dtype=float)))
    return [GreenColumn(spec, mesh, where, k, radius, Trajectory(mesh, i0, vals), direction)
            for k, vals in zip(ks, block)]


def averaged_green_column(spec: OperatorSpec, mesh: Mesh, Y, k: int, rho: float,
                          T: float) -> GreenColumn:
    """Forward solve with the normalized minus-cylinder indicator source.

    Y = (s, y) must sit on the grid; the mesh window must reach down to
    s - rho^2 (time clipping is an error, spatial clipping at a dirichlet
    boundary is allowed).
    """
    return _green_columns(spec, mesh, Y, [k], rho, T, "forward")[0]


def transpose_green_column(spec: OperatorSpec, mesh: Mesh, X, k: int, sigma: float,
                           S: float) -> GreenColumn:
    """Adjoint solve with the plus-cylinder indicator source (mirror image)."""
    return _green_columns(spec, mesh, X, [k], sigma, S, "backward")[0]


def cylinder_average(traj: Trajectory, pole, radius: float, kind: str) -> np.ndarray:
    """Cell-and-slab average of a trajectory over a discrete cylinder.

    Averages over the slices and ball cells of ``Trajectory.cylinder``,
    which match the source conventions of the Green columns.
    """
    vals, ball = traj.cylinder(pole, radius, kind)
    return vals[:, :, ball].mean(axis=(0, 2))


# ----------------------------------------------------------------------
# propagators
# ----------------------------------------------------------------------

PROPAGATOR_CAP = 4000  # unknowns of a dense propagator; normalization marches N states


def propagator(spec: OperatorSpec, mesh: Mesh, s: float, t: float) -> np.ndarray:
    """P(t, s) as an (nn, nn) array: the identity block marched from s to t, so
    column j is the march of unit state j."""
    scheme = ThetaScheme(mesh, spec)
    if scheme.nn > PROPAGATOR_CAP:
        raise ConfigError(f"propagator size {scheme.nn} exceeds cap {PROPAGATOR_CAP}")
    i0, i1 = mesh.time_index(s), mesh.time_index(t)
    return _march(scheme, i0, i1, np.eye(scheme.nn), lambda m: None, _Keep([i1]))[:, 0].T


# ----------------------------------------------------------------------
# rho refinement and extrapolation
# ----------------------------------------------------------------------


@dataclass
class RhoTable:
    rhos: np.ndarray
    values: np.ndarray          # (len(rhos), N) column samples at the probe
    extrapolated: np.ndarray    # (N,)
    observed_order: float
    monotone: bool


def _rho_weights(rhos: np.ndarray) -> np.ndarray:
    """Least-squares extraction weights for the rho -> 0 limit, model a + c rho^2."""
    M = np.stack([np.ones_like(rhos), rhos ** 2], axis=1)
    pinv = np.linalg.pinv(M)
    return pinv[0]


def _rho_ladder(rho_list) -> np.ndarray:
    """The radii as floats; a ladder must decrease strictly and hold >= 2 entries."""
    rhos = np.asarray([float(r) for r in rho_list])
    if len(rhos) < 2 or np.any(np.diff(rhos) >= 0):
        raise ConfigError("rho_list must be strictly decreasing with >= 2 entries")
    return rhos


def rho_refinement(spec: OperatorSpec, mesh: Mesh, Y, k: int, rho_list,
                   X_probe) -> RhoTable:
    """Sample one Green column at a probe across a ladder of radii.

    Extrapolates with the quadratic-in-rho model (averaging a twice
    differentiable kernel over a shrinking cylinder) and reports the
    observed convergence order; non-monotone ladders are flagged, not
    fatal.
    """
    rhos = _rho_ladder(rho_list)
    tp, xp = float(X_probe[0]), X_probe[1]
    if mesh.pdist((tp, xp), (float(Y[0]), Y[1])) <= 3.0 * rhos[0]:
        raise ConfigError("probe must satisfy |X - Y|_p > 3 * max(rho)")
    vals = []
    for r in rhos:
        col = averaged_green_column(spec, mesh, Y, k, float(r), tp)
        vals.append(col.value_at(tp, xp))
    vals = np.asarray(vals)
    w = _rho_weights(rhos)
    extrap = w @ vals
    errs = np.linalg.norm(vals - extrap[None, :], axis=1)
    good = errs > 0
    if good.sum() >= 2:
        slope = np.polyfit(np.log(rhos[good]), np.log(errs[good]), 1)[0]
    else:
        slope = float("nan")
    monotone = bool(np.all(np.diff(errs) <= 1e-14 + 1e-9 * errs[:-1]))
    return RhoTable(rhos, vals, extrap, float(slope), monotone)


def extrapolated_green_column(spec: OperatorSpec, mesh: Mesh, Y, k: int, rho_list,
                              T: float) -> GreenColumn:
    """Richardson-combined column with rho = 0; exactly zero before the pole time."""
    rhos = _rho_ladder(rho_list)
    cols = [averaged_green_column(spec, mesh, Y, k, float(r), T) for r in rhos]
    i_pole = mesh.time_index(cols[0].pole[0])
    combined = np.zeros((mesh.time_index(T) - i_pole + 1, cols[0].N, mesh.ncells))
    for wj, col in zip(_rho_weights(rhos), cols):
        off = i_pole - col.field.i0
        combined += wj * col.field.values[off:off + combined.shape[0]]
    return GreenColumn(spec, mesh, cols[0].pole, k, 0.0, Trajectory(mesh, i_pole, combined),
                       "forward")


def green_block_columns(spec: OperatorSpec, mesh: Mesh, Y, rho: float, T: float):
    """All N source components of the averaged column at one pole, as one block."""
    return _green_columns(spec, mesh, Y, range(1, spec.coeffs.N + 1), rho, T, "forward")


def transpose_block_columns(spec: OperatorSpec, mesh: Mesh, X, sigma: float, S: float):
    """All N source components of the transpose column at one pole, as one block."""
    return _green_columns(spec, mesh, X, range(1, spec.coeffs.N + 1), sigma, S, "backward")

