"""Uniform space-time meshes and discrete trajectories."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .problem import Domain

GRID_TOL = 1e-9  # snap tolerance onto the grid: in cells for points, relative steps for times


def _torus_gaps(gaps, lengths) -> np.ndarray:
    """Shortest representatives of coordinate gaps (last axis) on a torus."""
    L = np.asarray(lengths, dtype=float)
    return gaps - L * np.round(gaps / L)


def parabolic_distance(X, Y, lengths=None) -> float:
    """max(sqrt|t-s|, |x-y|); with ``lengths`` the spatial gap wraps on the torus."""
    t, x = X[0], np.atleast_1d(np.asarray(X[1], dtype=float))
    s, y = Y[0], np.atleast_1d(np.asarray(Y[1], dtype=float))
    dx = x - y if lengths is None else _torus_gaps(x - y, lengths)
    return max(math.sqrt(abs(t - s)), float(np.linalg.norm(dx)))


def _positions_in(cells: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Positions of the flat cells ``wanted`` in the increasing index array ``cells``."""
    pos = np.searchsorted(cells, wanted)
    if not ((pos < len(cells)).all() and np.array_equal(cells[pos], wanted)):
        raise ConfigError("cells must hold both neighbours of every differenced face")
    return pos


@dataclass(frozen=True)
class Mesh:
    """Cell-centered uniform grid over a box, plus an arithmetic time grid.

    In dirichlet mode the outermost cell layer is pinned to zero (the
    discrete analogue of vanishing boundary values); in periodic mode all
    indices wrap.  ``cells`` needs at least 4 cells per axis.
    """

    domain: Domain
    cells: tuple
    tau: float
    t0: float
    steps: int

    def __post_init__(self):
        if len(self.cells) != self.domain.n:
            raise ConfigError("cells/domain dimension mismatch")
        if any(c < 4 for c in self.cells):
            raise ConfigError("need at least 4 cells per axis")
        if self.tau <= 0:
            raise ConfigError("tau must be positive")
        if self.steps < 1:
            raise ConfigError("need at least one time step")

    @property
    def n(self) -> int:
        return self.domain.n

    @property
    def boundary_mode(self) -> str:
        return self.domain.boundary_mode

    @property
    def periodic(self) -> bool:
        return self.domain.periodic

    @cached_property
    def h(self) -> np.ndarray:
        return self.domain.lengths / np.asarray(self.cells, dtype=float)

    @cached_property
    def volume(self) -> float:
        """Cell volume (the weight of the discrete inner product)."""
        return float(np.prod(self.h))

    @cached_property
    def ncells(self) -> int:
        return int(np.prod(self.cells))

    @cached_property
    def times(self) -> np.ndarray:
        return self.t0 + self.tau * np.arange(self.steps + 1)

    def axis_centers(self, ax: int) -> np.ndarray:
        lo = self.domain.lo[ax]
        return lo + (np.arange(self.cells[ax]) + 0.5) * self.h[ax]

    @cached_property
    def centers(self) -> np.ndarray:
        """All cell centers, shape (ncells, n), C-order over the index grid."""
        axes = [self.axis_centers(ax) for ax in range(self.n)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    @cached_property
    def interior_mask(self) -> np.ndarray:
        """Flat boolean mask of evolving cells (all cells when periodic)."""
        if self.periodic:
            return np.ones(self.ncells, dtype=bool)
        mask = np.ones(self.cells, dtype=bool)
        for ax in range(self.n):
            sl = [slice(None)] * self.n
            sl[ax] = 0
            mask[tuple(sl)] = False
            sl[ax] = self.cells[ax] - 1
            mask[tuple(sl)] = False
        return mask.ravel()

    def cell_index(self, x) -> int:
        """Flat index of the cell whose center is x (must be on the grid)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = []
        for ax in range(self.n):
            pos = (x[ax] - self.domain.lo[ax]) / self.h[ax] - 0.5
            k = int(round(pos))
            if self.periodic:
                k %= self.cells[ax]
            if not 0 <= k < self.cells[ax] or abs(pos - round(pos)) > GRID_TOL:
                raise ConfigError(f"point {x} is not a grid cell center")
            idx.append(k)
        return int(np.ravel_multi_index(idx, self.cells))

    def time_index(self, t: float) -> int:
        pos = (t - self.t0) / self.tau
        k = int(round(pos))
        if abs(pos - k) > GRID_TOL * max(1.0, abs(pos)):
            raise ConfigError(f"time {t} is not on the mesh time grid")
        if not 0 <= k <= self.steps:
            raise ConfigError(f"time {t} is step {k} of the time lattice, outside the mesh "
                              f"window [{self.t0}, {float(self.times[-1])}] "
                              f"(steps 0..{self.steps})")
        return k

    def wrap_gaps(self, gaps) -> np.ndarray:
        """Coordinate gaps (space on the last axis) in the mesh metric.

        Periodic meshes wrap each gap to its shortest torus representative;
        dirichlet meshes return the gaps unchanged.
        """
        return _torus_gaps(gaps, self.domain.lengths) if self.periodic else gaps

    def pdist(self, X, Y) -> float:
        lengths = self.domain.lengths if self.periodic else None
        return parabolic_distance(X, Y, lengths=lengths)

    def ball_cells(self, y, radius: float) -> np.ndarray:
        """Flat indices of cells whose centers lie strictly inside the ball.

        Dirichlet mode intersects with the evolving interior (clipping the
        ball at the boundary is allowed).
        """
        y = np.atleast_1d(np.asarray(y, dtype=float))
        dist = np.linalg.norm(self.wrap_gaps(self.centers - y[None, :]), axis=1)
        mask = dist < radius
        if not self.periodic:
            mask &= self.interior_mask
        return np.nonzero(mask)[0]

    def slab_count(self, r: float) -> int:
        """Number of time slabs a parabolic cylinder of radius r spans: floor(r^2 / tau).

        The guards keep r^2 / tau that is an integer up to roundoff at that
        integer.
        """
        return int(math.floor(r * r / self.tau * (1 + 1e-12) + 1e-12))

    def cylinder(self, pole, r: float, kind: str):
        """(slab indices, ball cells) of the discrete parabolic cylinder at pole = (s, y).

        Slab m is the time interval [t_m, t_{m+1}].  The conventions are
        fixed by the exact duality pairing of the implicit Euler steps, whose
        step m takes the source of slab m:

        * a backward ("minus") cylinder covers the slabs inside
          (s - r^2, s], i.e. ip - n ... ip - 1 for s = t_ip and
          n = ``slab_count(r)``; sources and averages attach to each
          slab's early end t_m;
        * a forward ("plus") cylinder covers the slabs inside
          [s, s + r^2), i.e. ip ... ip + n - 1; sources and averages
          attach to each slab's late end t_{m+1}.

        With these conventions the averaged duality identity holds to
        solver roundoff, not just to discretization accuracy.  A cylinder
        whose slabs leave the mesh time grid is a ConfigError.
        """
        ip = self.time_index(float(pole[0]))
        n = self.slab_count(r)
        if kind == "minus":
            slabs = range(ip - n, ip)
        elif kind == "plus":
            slabs = range(ip, ip + n)
        else:
            raise ConfigError("kind must be 'minus' or 'plus'")
        if slabs.start < 0 or slabs.stop > self.steps:
            raise ConfigError(f"{kind} cylinder of radius {r} at t={float(pole[0])} "
                              "leaves the mesh time grid")
        return slabs, self.ball_cells(pole[1], r)

    def cylinder_slices(self, pole, r: float, kind: str):
        """(time indices of the slices attached to the slabs of ``cylinder``, ball cells).

        A slab's early end t_m for "minus", its late end t_{m+1} for "plus";
        a cylinder that spans no slab is a ConfigError.
        """
        slabs, cells = self.cylinder(pole, r, kind)
        if not slabs:
            raise ConfigError(f"{kind} cylinder of radius {r} spans no time slab")
        shift = 1 if kind == "plus" else 0
        return range(slabs.start + shift, slabs.stop + shift), cells

    @cached_property
    def _faces(self) -> tuple:
        """``face_positions`` of every axis, built once per mesh as read-only arrays."""
        faces = []
        for ax in range(self.n):
            M = self.cells[ax]
            lo_face = 0 if self.periodic else 1
            face_ids = np.arange(lo_face, M)
            axis_grids = []
            for a2 in range(self.n):
                if a2 == ax:
                    axis_grids.append(self.domain.lo[ax] + face_ids * self.h[ax])
                else:
                    axis_grids.append(self.axis_centers(a2))
            grids = np.meshgrid(*axis_grids, indexing="ij")
            pts = np.stack([g.ravel() for g in grids], axis=1)

            idx_axes = [np.arange(m) for m in self.cells]
            idx_axes[ax] = face_ids
            igrids = np.meshgrid(*idx_axes, indexing="ij")
            right = list(g.ravel() for g in igrids)
            left = [r.copy() for r in right]
            left[ax] = (left[ax] - 1) % M if self.periodic else left[ax] - 1
            arrays = (pts, np.ravel_multi_index(left, self.cells),
                      np.ravel_multi_index(right, self.cells))
            for arr in arrays:
                arr.flags.writeable = False  # shared by every caller on this mesh
            faces.append(arrays)
        return tuple(faces)

    @cached_property
    def face_points(self) -> np.ndarray:
        """The points of ``face_positions`` of every axis, stacked in axis order, read-only."""
        pts = np.concatenate([pts for pts, _, _ in self._faces])
        pts.flags.writeable = False
        return pts

    def face_positions(self, ax: int):
        """(points, left_flat, right_flat) for the faces normal to axis ax.

        Periodic meshes include the wrap face; dirichlet meshes only list
        interior faces (both neighbor cells in-grid).  The arrays are built
        once per mesh and are read-only.
        """
        return self._faces[ax]

    def face_difference(self, x: np.ndarray, ax: int, faces=slice(None),
                        cells=None) -> np.ndarray:
        """(x[..., right] - x[..., left]) / h[ax] over the faces of ``face_positions(ax)``.

        ``x`` holds cell values on its last axis: a flat cell function or a
        (slices, N, ncells) array.  ``faces`` (a boolean mask or indices into
        the face list) differences only those faces.  When ``x`` holds only
        some cells, ``cells`` names them (increasing flat indices); it must
        hold both neighbours of every differenced face.
        """
        _, left, right = self.face_positions(ax)
        left, right = left[faces], right[faces]
        if cells is not None:
            left, right = (_positions_in(np.asarray(cells), side) for side in (left, right))
        x = np.asarray(x, dtype=float)
        diff = x[..., right]  # a fresh array (advanced indexing), so updated in place
        diff -= x[..., left]
        diff /= self.h[ax]
        return diff

    def shift_flat(self, flat: np.ndarray, ax: int, by: int):
        """Shift flat cell indices along an axis; returns (shifted, valid)."""
        idx = np.array(np.unravel_index(flat, self.cells))
        idx[ax] += by
        if self.periodic:
            idx[ax] %= self.cells[ax]
            valid = np.ones(flat.shape, dtype=bool)
        else:
            valid = (idx[ax] >= 0) & (idx[ax] < self.cells[ax])
            idx[ax] = np.clip(idx[ax], 0, self.cells[ax] - 1)
        return np.ravel_multi_index(idx, self.cells), valid


@dataclass
class Trajectory:
    """Per-slice vector fields u(t_m) over a window of the mesh time grid.

    ``values`` has shape (nslices, N, ncells); slice m lives at time
    ``mesh.times[i0 + m]``.  Dirichlet trajectories vanish on the pinned
    boundary layer.
    """

    mesh: Mesh
    i0: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3 or self.values.shape[2] != self.mesh.ncells:
            raise ConfigError("trajectory values must have shape (slices, N, ncells)")
        if self.i0 < 0 or self.i0 + self.values.shape[0] - 1 > self.mesh.steps:
            raise ConfigError("trajectory window exceeds the mesh time grid")

