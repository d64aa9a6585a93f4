"""Whole Green columns, dense propagators, whole trajectories, the assembled operator,
coefficient transposes and the earlier forms of closed-form fits, for tests only.

The package keeps only the slices and cells each check reads; the tests
that compare against whole fields build them here from the same two
builders every check uses, ``green._green_block`` and ``solver._march``
(through ``solver._solve``), keeping every slice.  A column is a
``Trajectory`` over its own window: forward from its source window's start
up to the horizon, backward (the transpose column) from the horizon up to
its source window's end.  The sparse operator L(t) is gathered by the
solver's own ``_stencil`` and ``_gathered``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from greenlab import CoefficientField, ConfigError, Mesh, OperatorSpec, Trajectory
from greenlab import verify as V
from greenlab.green import _green_block, _rho_weights, heat_kernel
from greenlab.solver import ThetaScheme, _assemble, _gathered, _Keep, _march, _solve, _stencil, sp


def assemble(mesh: Mesh, spec: OperatorSpec, t: float) -> sp.csr_matrix:
    """The flux-form spatial operator L(t) = -div(A D u) as a CSR matrix.

    The face tensors come from ``solver._assemble``, and the pattern and the
    gather from ``solver._stencil`` over every tensor entry, zero or not, so
    the pattern depends on (mesh, N) alone.  It is that of I + L, so a
    dirichlet mesh's pinned rows hold an explicit 0 on the diagonal.
    ``scipy.sparse`` loads here, through ``solver.sp``, on the first call.
    """
    N = spec.coeffs.N
    entries = tuple(range(mesh.n * mesh.n * N * N))
    _, indices, indptr, _ = _stencil(mesh, N, entries)
    nn = len(indptr) - 1
    values = _gathered(mesh, N, _assemble(mesh, spec, t)[0], entries)
    return sp.csr_matrix((values, indices, indptr), shape=(nn, nn))


def solve_forward(spec, mesh, g, f, s: float, T: float) -> Trajectory:
    """The forward march from data g at time s up to T, every slice; the step from t_m to
    t_{m+1} takes the source slice f(t_{m+1}) (or none when f is None)."""
    return Trajectory(mesh, mesh.time_index(s), _solve(spec, mesh, g, f, s, T, "forward"))


def transposed(coeffs: CoefficientField) -> CoefficientField:
    """The field with alpha <-> beta and i <-> j swapped; the same lam and Lam."""
    base = coeffs.tensor_fn

    def fn(t, pts):
        return np.asarray(base(t, pts)).transpose(0, 2, 1, 4, 3)

    return replace(coeffs, tensor_fn=fn, name=coeffs.name + "^T")


def entry(coeffs: CoefficientField, t: float, x, alpha: int, beta: int, i: int, j: int) -> float:
    """The scalar A^{alpha beta}_{ij}(t, x), with indices from 1."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(coeffs.tensor(t, x[None, :])[0, alpha - 1, beta - 1, i - 1, j - 1])


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


def assert_fits_match_lapack(fits, ladders):
    """``loglog_fit`` on each (xs, ys) of ``fits`` agrees with LAPACK's least squares on
    log y ~ p log x + log C, and ``_rho_weights`` on each of ``ladders`` with the
    pseudo-inverse of the model a + c rho^2, to 1e-13 relative."""
    for xs, ys in fits:
        fit = V.loglog_fit(xs, ys)
        A = np.stack([np.log(xs), np.ones(len(xs))], axis=1)
        ly = np.log(ys)
        coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
        r2 = 1.0 - np.sum((ly - A @ coef) ** 2) / np.sum((ly - ly.mean()) ** 2)
        assert fit.exponent == pytest.approx(coef[0], rel=1e-13, abs=0)
        assert fit.constant == pytest.approx(math.exp(coef[1]), rel=1e-13, abs=0)
        assert fit.r2 == pytest.approx(r2, rel=1e-13, abs=1e-15)
    for rhos in ladders:
        rhos = np.asarray(rhos, dtype=float)
        want = np.linalg.pinv(np.stack([np.ones_like(rhos), rhos ** 2], axis=1))[0]
        assert np.max(np.abs(_rho_weights(rhos) - want)) <= 1e-13 * np.max(np.abs(want))


def kappa_search(samples, n: int, c_max: float = 10.0) -> float:
    """``fit_gaussian``'s rate as a search found it: doubling from 1 up to 64, then 80
    bisection steps on max(base * exp(kappa xi^2)) <= c_max from 0."""
    dt, dist, g = (np.array([s[k] for s in samples]) for k in range(3))
    xi2 = dist ** 2 / dt
    base = g * dt ** (n / 2.0)

    def c_fit(kappa):
        return float(np.max(base * np.exp(kappa * xi2)))

    lo, hi = 0.0, 1.0
    while c_fit(hi) <= c_max and hi < 64.0:
        hi *= 2.0
    if c_fit(hi) <= c_max:
        return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if c_fit(mid) <= c_max:
            lo = mid
        else:
            hi = mid
    return lo


def image_sum_heat_kernel(n: int, t: float, dx, lengths) -> np.ndarray:
    """The torus heat kernel as the package summed it: the images of the 1-D free kernel,
    and in 2-D the 13 x 13 images of the 2-D one, six per axis and side."""
    dx = np.atleast_2d(np.asarray(dx, dtype=float))
    L = np.asarray(lengths, dtype=float)
    shifts = np.arange(-6, 7)
    if n == 1:
        d = dx[:, 0][:, None] + shifts[None, :] * L[0]
        return heat_kernel(1, t, np.abs(d)).sum(axis=1)
    out = np.zeros(dx.shape[0])
    for sx in shifts:
        for sy in shifts:
            d = dx + np.array([sx * L[0], sy * L[1]])
            out += heat_kernel(2, t, np.linalg.norm(d, axis=1))
    return out


def cylinder_measure(r: float, n: int) -> float:
    """|Q_r| = 2 r^2 times the ball's volume, 2 r in 1-D and pi r^2 in 2-D."""
    ball = 2.0 * r if n == 1 else math.pi * r * r
    return 2.0 * r * r * ball
