"""Whole Green columns, dense propagators and adjoint trajectories, for tests only.

The package keeps only the slices and cells each check reads; the tests
that compare against whole fields build them here from the same two
builders every check uses, ``green._green_block`` and ``solver._march``
(through ``solver._solve``), keeping every slice.  A column is a
``Trajectory`` over its own window: forward from its source window's start
up to the horizon, backward (the transpose column) from the horizon up to
its source window's end.
"""

import numpy as np

from greenlab import ConfigError, Trajectory
from greenlab.green import _green_block
from greenlab.solver import ThetaScheme, _Keep, _march, _solve


def column(spec, mesh, pole, k, radius, horizon, direction="forward") -> Trajectory:
    """Component k's Green column of ``radius`` at ``pole``, its whole window."""
    i0, block = _green_block(spec, mesh, [(pole, radius)], [k], horizon, direction)
    return Trajectory(mesh, i0, block[0, 0])


def padded(traj: Trajectory) -> np.ndarray:
    """The trajectory over the whole mesh window, zero outside its own."""
    full = np.zeros((traj.mesh.steps + 1, *traj.values.shape[1:]))
    full[traj.i0:traj.i0 + len(traj.values)] = traj.values
    return full


def value_at(traj: Trajectory, t: float, x) -> np.ndarray:
    """The (N,) vector at (t, x), zero outside the window: a column's zero extension."""
    return padded(traj)[traj.mesh.time_index(t)][:, traj.mesh.cell_index(x)]


def slice_at(traj: Trajectory, t: float) -> np.ndarray:
    """The (N, ncells) slice at time t, which must lie in the window."""
    k = traj.mesh.time_index(t) - traj.i0
    if not 0 <= k < len(traj.values):
        raise ConfigError(f"time {t} outside the trajectory window")
    return traj.values[k]


def cylinder(traj: Trajectory, pole, radius: float, kind: str):
    """(values on the slices of ``Mesh.cylinder_slices``, ball cells); the cylinder
    must lie in the window."""
    slices, cells = traj.mesh.cylinder_slices(pole, radius, kind)
    lo, hi = slices.start - traj.i0, slices.stop - traj.i0
    if lo < 0 or hi > len(traj.values):
        raise ConfigError("cylinder lies outside the trajectory window")
    return traj.values[lo:hi], cells


def cylinder_average(traj: Trajectory, pole, radius: float, kind: str) -> np.ndarray:
    """The (N,) cell-and-slab average over a discrete cylinder."""
    vals, ball = cylinder(traj, pole, radius, kind)
    return vals[:, :, ball].mean(axis=(0, 2))


def propagator(spec, mesh, s: float, t: float) -> np.ndarray:
    """P(t, s) as a dense (nn, nn) array: column j is the march of unit state j."""
    scheme = ThetaScheme(mesh, spec)
    i1 = mesh.time_index(t)
    marched = _march(scheme, mesh.time_index(s), i1, np.eye(scheme.nn), lambda m: None,
                     _Keep([i1]))
    return marched[:, 0].T


def solve_backward(spec, mesh, g, f, b: float, S: float) -> Trajectory:
    """The adjoint march from final data g at time b down to S, every slice."""
    return Trajectory(mesh, mesh.time_index(S), _solve(spec, mesh, g, f, S, b, "backward"))
