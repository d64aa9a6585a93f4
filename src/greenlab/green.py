"""Averaged Green's matrices, marched a block of columns at a time.

A Green column with pole Y = (s, y) and component k is the forward solve
whose source is the normalized cell indicator of the backward parabolic
cylinder of radius rho at Y (cell-counted measure), started from zero at
s - rho^2 and extended by zero below.  The transpose column mirrors this
with the adjoint solver on the forward cylinder.  The discrete cylinders
and their slab conventions are those of ``Mesh.cylinder``.

The module owns the one builder of these columns, ``_green_block``, which
marches them through the solver's one marcher, ``solver._march``, and the
rule that packs sources into blocks, ``_packs``; the mollifier source is
``_mollifier``, the weights of the rho -> 0 limit ``_rho_weights``, and the one
least-squares line, ``_line_fit``, which ``verify.loglog_fit`` fits too.
What each check keeps of its columns is in that check's docstring.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .mesh import Mesh
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


# ----------------------------------------------------------------------
# rho ladders
# ----------------------------------------------------------------------


def _line_fit(x: np.ndarray, y: np.ndarray, fit: str):
    """Intercept and slope of the least-squares line y ~ a + b x, per column of y; fewer
    than two distinct x leave b undetermined, and ConfigError names ``fit``."""
    dx = x - x.mean()
    sxx = dx @ dx
    if not sxx > 0:
        raise ConfigError(f"{fit} needs two distinct abscissae, got {x.tolist()}")
    ybar = y.mean(axis=0)
    slope = dx @ (y - ybar) / sxx
    return ybar - x.mean() * slope, slope


def _rho_weights(rhos: np.ndarray) -> np.ndarray:
    """Weights w, w @ v the least-squares intercept a of v ~ a + c rho^2, in closed form
    w = 1/n - xbar (x - xbar) / sum (x - xbar)^2 with x = rho^2 (``_line_fit``): no
    pseudo-inverse, whose LAPACK faults in about 1 MB of code on its first call."""
    return _line_fit(rhos ** 2, np.eye(len(rhos)), "the rho -> 0 limit")[0]


def _rho_ladder(rho_list) -> np.ndarray:
    """The radii as floats; a ladder must decrease strictly and hold >= 2 entries."""
    rhos = np.asarray([float(r) for r in rho_list])
    if len(rhos) < 2 or np.any(np.diff(rhos) >= 0):
        raise ConfigError("rho_list must be strictly decreasing with >= 2 entries")
    return rhos
