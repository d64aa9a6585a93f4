"""Averaged Green's matrices and dense propagators.

A Green column with pole Y = (s, y) and component k is the forward solve
whose source is the normalized cell indicator of the backward parabolic
cylinder of radius rho at Y (cell-counted measure), started from zero at
s - rho^2 and extended by zero below.  The transpose column mirrors this
with the adjoint solver on the forward cylinder.  The discrete cylinders
and their slab conventions are those of ``Mesh.cylinder``.

One private builder, ``_green_block``, marches every column, for one or
several sources (a pole and a radius each) at once: the N source
components of a pole share their source window, so
``green_block_columns`` and ``transpose_block_columns`` march them as one
block, bitwise equal to the single-component ``averaged_green_column`` and
``transpose_green_column``.  The public builders keep the whole window of
one source.  The duality check makes one march per direction, of all its
forward or all its transpose sources, keeping only the slices and cells of
the cylinders it averages over; the causality check makes one march for
its radii, keeping the slices from step 0 to each column's first source
slab.  The packing rule lives in ``_packs``: sources at one pole time
share a block, as many as keep its spectrum within
``solver.BLOCK_SPECTRUM_BYTES``, and every packed column is bitwise its
own march.  Columns and the propagators, which march the identity block and
keep the slices they return, all take implicit Euler steps through the
solver's one marcher, ``solver._march``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .mesh import Mesh, Trajectory
from .problem import OperatorSpec
from .solver import BLOCK_SPECTRUM_BYTES, ThetaScheme, _Keep, _march


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


def _packs(mesh: Mesh, poles, columns: int, N: int) -> list:
    """The blocks that sources at ``poles`` march in, as lists of their indices.

    Sources pack when their poles share a time.  A source window then ends,
    in march order, at the pole's step for every source (a minus cylinder
    ends at its pole, and so does a plus cylinder marched backward), so no
    packed column past its window takes a fresh transform while another
    column's source is still on: each column stays bitwise its own march.
    A block holds as many sources, of ``columns`` columns of N components
    each, as keep its spectrum within ``BLOCK_SPECTRUM_BYTES`` at 16 bytes
    per value; a source alone over it marches alone.
    """
    per = 16 * columns * N * math.prod(mesh.cells[:-1]) * (mesh.cells[-1] // 2 + 1)
    size = max(1, BLOCK_SPECTRUM_BYTES // per)
    runs: dict = {}
    for j, pole in enumerate(poles):
        runs.setdefault(mesh.time_index(float(pole[0])), []).append(j)
    return [run[i:i + size] for run in runs.values() for i in range(0, len(run), size)]


def _green_block(spec: OperatorSpec, mesh: Mesh, sources, ks, horizon: float,
                 direction: str, keep: _Keep = _Keep()):
    """The columns of source components ``ks`` at each (pole, radius) of ``sources``.

    Forward columns carry the minus-cylinder source of their pole and radius
    and run up to the horizon; backward (transpose) columns carry the
    plus-cylinder source and run down to it.  The sources march in the
    blocks of ``_packs``, one block for a few sources at one time.  Each
    column carries its own source window: a column marched before its window
    holds exact zeros, which its steps keep at zero.  Every block marches
    from the earliest window start (forward; backward from the latest window
    end), or from the first kept slice when that comes earlier, so the zero
    extension below a window is marched rather than assumed.  Returns the
    first time index of the march window and what ``keep`` keeps of the
    columns, as (len(sources), len(ks), slices, N, kept cells).
    """
    N = spec.coeffs.N
    for k in ks:
        if not 1 <= k <= N:
            raise ConfigError(f"component k={k} outside 1..{N}")
    forward = direction == "forward"
    windows = []
    for pole, radius in sources:
        _check_resolvable(mesh, radius)
        _check_pole(mesh, pole)
        windows.append(mesh.cylinder(pole, radius, "minus" if forward else "plus")[0])
    if forward:
        i0, i1 = min(w.start for w in windows), mesh.time_index(horizon)
        if keep.slices is not None and len(keep.slices) and keep.slices[0] < i0:
            i0 = int(keep.slices[0])
    else:
        i0, i1 = mesh.time_index(horizon), max(w.stop for w in windows)
    out = None
    for pack in _packs(mesh, [pole for pole, _ in sources], len(ks), N):
        # batch-major, as the solver returns its blocks: G.T is C-contiguous
        G = np.stack([_mollifier(mesh, N, sources[j][0][1], sources[j][1], k)
                      for j in pack for k in ks]).T
        # each step's source: the columns whose window holds the step, the others 0
        steps, masked = {}, {}
        for m in range(min(windows[j].start for j in pack), max(windows[j].stop for j in pack)):
            opened = tuple(m in windows[j] for j in pack)
            if any(opened):
                if opened not in masked:
                    masked[opened] = G if all(opened) else G * np.repeat(opened, len(ks))
                steps[m] = masked[opened]
        block = _march(ThetaScheme(mesh, spec), i0, i1, np.zeros_like(G), steps.get, keep,
                       backward=not forward)
        block = block.reshape(len(pack), len(ks), *block.shape[1:])
        if len(pack) == len(sources):
            out = block
        else:
            if out is None:
                out = np.empty((len(sources), *block.shape[1:]))
            out[pack] = block
    return i0, out.reshape(*out.shape[:3], N, -1)


def _green_columns(spec: OperatorSpec, mesh: Mesh, pole, ks, radius: float, horizon: float,
                   direction: str) -> list:
    """Columns of ``_green_block`` at one source; each field is a view of the whole block."""
    i0, block = _green_block(spec, mesh, [(pole, radius)], ks, horizon, direction)
    where = (float(pole[0]), np.atleast_1d(np.asarray(pole[1], dtype=float)))
    return [GreenColumn(spec, mesh, where, k, radius, Trajectory(mesh, i0, vals), direction)
            for k, vals in zip(ks, block[0])]


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

# unknowns of a dense propagator, which bounds propagator and semigroup; normalization
# marches N states
PROPAGATOR_CAP = 4000


def _propagators(spec: OperatorSpec, mesh: Mesh, s: float, times) -> list:
    """P(t, s) for each t of the increasing ``times``: the slices at those times of one
    march of the identity block from s."""
    scheme = ThetaScheme(mesh, spec)
    if scheme.nn > PROPAGATOR_CAP:
        raise ConfigError(f"propagator size {scheme.nn} exceeds cap {PROPAGATOR_CAP}")
    steps = [mesh.time_index(t) for t in times]
    out = _march(scheme, mesh.time_index(s), steps[-1], np.eye(scheme.nn), lambda m: None,
                 _Keep(steps))
    return [out[:, j].T for j in range(len(steps))]


def propagator(spec: OperatorSpec, mesh: Mesh, s: float, t: float) -> np.ndarray:
    """P(t, s) as an (nn, nn) array: the identity block marched from s to t, so
    column j is the march of unit state j."""
    return _propagators(spec, mesh, s, [t])[0]


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

