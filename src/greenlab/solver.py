"""Divergence-form finite differences and implicit Euler time stepping.

The spatial operator is the negative discrete divergence of face fluxes,
with coefficients evaluated at face midpoints and centered differences
across each face (transverse gradients on a face use the 4-point average
of the neighboring differences).  One implicit Euler step solves

    (I + tau*L(t+tau)) u' = u + tau*g,

and the backward solver applies the exact matrix transpose of the forward
one-step maps, which is what makes the discrete duality identities exact.
Implicit Euler is the only time scheme: the slab conventions of
``Mesh.cylinder`` make the duality identity exact for it alone.
State layout: slices are (N, ncells) arrays, flattened component-major.

Each mechanism of this module is described once, in the docstring of the
code named here:

* the flux stencil, the one home of the flux weights and the face order:
  ``_stencil``, with ``_used_entries`` (the entries it gathers),
  ``_implicit_values``, ``_step_matrix`` and ``_pruned_pattern`` (D =
  I + tau*L on its pattern) and the public ``assemble``;
* the choice between the Fourier and the SuperLU solver, made from the
  evaluated face tensors: ``_assemble`` and ``ThetaScheme.implicit_lu``;
* the Fourier path: ``_kernel_gather`` (D's kernel, read from the
  stencil's gather), ``_Stencil`` (D as blocks, its transpose and its
  residual, with ``_copy_plan``), ``_FourierSolver`` (the real inverse
  symbol), ``_rfft`` and ``_irfft``, and the spectrum a scheme carries
  (``ThetaScheme``, ``_flush_subnormals``);
* the SuperLU path and the scipy modules it loads on first use:
  ``ThetaScheme.implicit_lu``, ``_Deferred`` and ``_preload_linalg``;
* the step store and its byte charge: ``_StepStore``, ``_factor_bytes``
  and ``cache_info``;
* the one time loop and what a march keeps: ``_stream``, ``_march``,
  ``_Keep`` and ``_check_window``, and the residual gate of every solve,
  ``ThetaScheme.solve_implicit``;
* the space-time oracle: ``dense_spacetime_oracle``, with
  ``_band_order``, ``_band_factor`` and ``_band_solve``.
"""

from __future__ import annotations

import importlib
import itertools
import math
from collections import OrderedDict
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, SolverError
from .mesh import Mesh, Trajectory
from .problem import Domain, OperatorSpec

RESIDUAL_TOL = 1e-11
CACHE_BYTES = 256 * 2**20
SUPERLU_FIXED_BYTES = 512 * 2**10  # SuperLU heap beyond the nonzeros: see _factor_bytes


class _Deferred:
    """Stands in for a module and imports it on the first attribute lookup.

    ``sp`` and ``spla`` stand in for ``scipy.sparse`` and
    ``scipy.sparse.linalg``, which ``assemble`` and the SuperLU steps use.  A
    periodic run on an x-independent field, 1-D or 2-D, solves by Fourier
    and its oracle by numpy, and loads neither, nor the ``scipy.linalg``
    that the second pulls in: ``import greenlab.cli`` costs 31 MB of RSS and
    0.11 s where the eager ``import scipy.sparse`` made it 52 MB and 0.25 s
    (medians of 5 fresh processes under a 128 KiB mmap threshold).
    Every lookup reads the imported module, so a patch of, say,
    ``scipy.sparse.linalg.splu`` takes effect, and the stand-in itself stays
    a module attribute that a wrapper may replace.
    """

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


sp = _Deferred("scipy.sparse")
spla = _Deferred("scipy.sparse.linalg")


@lru_cache(maxsize=8)
def _stencil(mesh: Mesh, N: int, entries: tuple):
    """(gather, indices, indptr, diag) of the tensor entries ``entries`` on one mesh.

    ``indices`` and ``indptr`` are the CSR pattern of I + L, which holds the
    diagonal and the positions that ``entries`` reach, and ``diag`` holds
    the positions of the diagonal.  ``gather`` is (rows, src, weights): L(t)'s
    values on the pattern sum ``weights * A.ravel()[src]`` by ``rows``
    (``_gathered``), where A is ``tensor(t, mesh.face_points)``; each row's
    terms are in CSR order, so the sums are those of the CSR product
    ``gather @ A.ravel()`` to the bit.  ``entries`` are flat
    indices (a * n + b) * N * N + i * N + j into a face tensor, increasing,
    and the gather reads only them.  The dirichlet projection is already
    applied: the pinned rows of L are empty, so their diagonals are gather
    rows without weights.  The gather is numpy arrays applied by
    ``np.bincount``, so it needs no ``scipy.sparse``; it is built once per
    (mesh, N, entries), and the last eight are kept.
    """
    n, C, nn = mesh.n, mesh.ncells, N * mesh.ncells
    faces = [mesh.face_positions(a) for a in range(n)]
    stride = n * n * N * N  # tensor values per face
    size = stride * sum(len(pts) for pts, _, _ in faces)
    itype = np.int32 if max(size, nn) < 2**31 else np.int64
    comp = C * np.arange(N, dtype=itype)
    entries = np.array(entries, dtype=itype)
    # one block of entries per (a, b, side, shift): rows, columns and positions
    # in A of its valid faces, shaped (entries, faces), and one weight for all
    rows, cols, src, wts, counts = [], [], [], [], []
    offset = 0
    for a, (pts, left, right) in enumerate(faces):
        # A[p, a, b, i, j] sits at offset + p * stride + (a * n + b) * N * N + i * N + j
        base = offset + stride * np.arange(len(left), dtype=itype)
        offset += stride * len(left)
        inv_ha = 1.0 / mesh.h[a]
        for b in range(n):
            ab = entries[(entries // (N * N)) == a * n + b]
            if not len(ab):
                continue
            i, j = divmod(ab % (N * N), N)
            if b == a:
                col_specs = [(right, None, +1.0 / mesh.h[b]),
                             (left, None, -1.0 / mesh.h[b])]
            else:
                lp, vlp = mesh.shift_flat(left, b, +1)
                rp, vrp = mesh.shift_flat(right, b, +1)
                lm, vlm = mesh.shift_flat(left, b, -1)
                rm, vrm = mesh.shift_flat(right, b, -1)
                q = 1.0 / (4.0 * mesh.h[b])
                col_specs = [(lp, vlp, +q), (rp, vrp, +q), (lm, vlm, -q), (rm, vrm, -q)]
            for row_cells, sgn in ((left, -inv_ha), (right, +inv_ha)):
                for col_cells, valid, w in col_specs:
                    if not mesh.periodic:  # project out the pinned boundary layer
                        inside = mesh.interior_mask[row_cells] & mesh.interior_mask[col_cells]
                        valid = inside if valid is None else valid & inside
                    r, c, p = (v if valid is None else v[valid]
                               for v in (row_cells, col_cells, base))
                    rows.append(comp[i, None] + r.astype(itype))
                    cols.append(comp[j, None] + c.astype(itype))
                    src.append(p + ab[:, None])
                    wts.append(sgn * w)
                    counts.append(len(p) * len(ab))
    src = np.concatenate(src, axis=None)
    key = np.concatenate(rows, axis=None, dtype=np.int64)
    key *= nn
    key += np.concatenate(cols, axis=None)
    del rows, cols
    # one sort by (row, column, position); with at least 4 cells per axis no
    # (row, column, position) repeats, so each run of one (row, column) is a
    # row of the gather, already in canonical CSR order
    order = np.lexsort((src, key))
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    keys = key[starts]
    del key
    src = src[order]
    data = np.repeat(wts, counts)[order]
    del order
    starts = np.append(starts, len(data))
    # the diagonals that L lacks join by search and insert, never a second
    # sort: ``np.union1d`` made a first 64 x 64 build 2 to 3 times slower
    diag = np.arange(nn, dtype=np.int64) * (nn + 1)
    at = np.searchsorted(keys, diag)
    missing = keys[np.minimum(at, len(keys) - 1)] != diag
    if missing.any():
        at = at[missing]
        keys = np.insert(keys, at, diag[missing])
        starts = np.insert(starts, at, starts[at])  # empty gather rows
    diag = np.searchsorted(keys, diag)
    rows = np.repeat(np.arange(len(keys), dtype=itype), np.diff(starts))
    indices = (keys % nn).astype(np.int32)
    indptr = np.searchsorted(keys, nn * np.arange(nn + 1)).astype(np.int32)
    for arr in (rows, src, data, indices, indptr, diag):
        arr.flags.writeable = False  # shared by every assembly on this stencil
    return (rows, src, data), indices, indptr, diag


@lru_cache(maxsize=8)
def _pruned_pattern(mesh: Mesh, N: int, entries: tuple, bits: bytes):
    """The positions of ``_stencil(mesh, N, entries)``'s pattern that the packed mask ``bits`` keeps.

    Returns their positions and the CSR pattern they form.  The exact zeros
    left on the stencil come from entries that are zero at some faces only
    or from cancellation, which repeat from step to step on a run's fields,
    so the steps of a run share one mask and one pruned pattern, and each
    stored matrix owns only its exact-size data.
    """
    _, indices, indptr, _ = _stencil(mesh, N, entries)
    nz = np.flatnonzero(np.unpackbits(np.frombuffer(bits, np.uint8), count=len(indices)))
    pattern = (indices[nz], np.searchsorted(nz, indptr).astype(np.int32))
    for arr in pattern:
        arr.flags.writeable = False
    return (nz, *pattern)


@lru_cache(maxsize=8)
def _kernel_gather(mesh: Mesh, N: int, entries: tuple):
    """The gather terms of D's kernel, its N columns at cell 0, on a periodic ``mesh`` whose faces all hold one tensor.

    They are ``_stencil``'s terms of the cell-0 columns on the 4^n torus
    with ``mesh``'s h (a box of 4 h gives that h exactly), each source moved
    to the first face of its axis on ``mesh``.  That is D's kernel to the
    bit, the cell-0 columns of ``sp.identity(nn) + tau*assemble(...)``: with
    one tensor on the faces of each axis those columns depend on h alone,
    and the gather sums each entry in face order, which is the same on every
    torus of at least 4 cells per axis.  So the flux weights and the face
    order are written once, in ``_stencil``, for every path.  The terms are
    selected once per (mesh, N, entries), and each step sums them with one
    ``np.bincount`` (``_Stencil.build``).

    Returns (rows, src, weights, at, diag, offsets): the terms, their rows
    numbered over the torus pattern's cell-0 positions and their sources in
    ``mesh``'s raveled face tensors; each such position's flat index
    (k * N + i) * N + j into the (3^n, N, N) blocks, block k at
    ``offsets[k]``; and the positions on the diagonal.
    """
    n, stride = mesh.n, mesh.n ** 2 * N * N  # tensor values per face
    torus = Mesh(Domain((0.0,) * n, tuple(4.0 * mesh.h), "periodic"), (4,) * n,
                 tau=mesh.tau, t0=0.0, steps=1)
    C = torus.ncells
    (rows, src, weights), indices, indptr, _ = _stencil(torus, N, entries)
    cell0 = indices % C == 0  # the pattern positions in the cell-0 columns
    pos = np.flatnonzero(cell0)
    row = np.searchsorted(indptr, pos, side="right") - 1
    i, x = np.divmod(row, C)
    d = (np.array(np.unravel_index(x, torus.cells)) + 1) % 4 - 1  # cell 3 is offset -1
    at = (np.ravel_multi_index(tuple(d + 1), (3,) * n) * N + i) * N + indices[pos] // C
    terms = cell0[rows]
    axis, src = np.divmod(src[terms].astype(np.int64), C * stride)
    gather = ((np.cumsum(cell0) - 1)[rows[terms]], axis * (mesh.ncells * stride) + src % stride,
              weights[terms], at, np.flatnonzero(row == indices[pos]),
              np.array(list(itertools.product((-1, 0, 1), repeat=n))))
    for arr in gather:
        arr.flags.writeable = False  # shared by every step on this mesh
    return gather


def _assemble(mesh: Mesh, spec: OperatorSpec, t: float):
    """The face tensors of L(t), and whether the Fourier path applies.

    Returns (A, fourier): A is ``tensor(t, mesh.face_points)``, one call
    over the stacked face points of every axis, checked finite.
    ``fourier`` is True when the mesh is periodic, of either dimension, and
    A is exactly equal on the faces of each axis, which makes the operator
    block-circulant; it is read from the values, never from a flag such as
    ``CoefficientField.x_dependent``.
    """
    A = spec.coeffs.tensor(t, mesh.face_points)
    if not np.isfinite(A).all():
        raise ConfigError(f"non-finite coefficient at a face (t={t})")
    # equal on the faces of each axis, which translating by one cell maps onto
    # themselves; a periodic mesh has one face per cell on each axis
    if mesh.periodic:
        axes = A.reshape(mesh.n, mesh.ncells, -1)
        return A, bool((axes[:, 1:] == axes[:, :-1]).all())
    return A, False


def _used_entries(A: np.ndarray) -> tuple:
    """The flat tensor entries of the face tensors A that are nonzero at some face.

    An entry that is zero at every face adds only exact zeros to L, so
    leaving it out changes no value of I + tau*L: on a diagonal field (heat,
    t-oscillating) the Fourier and the SuperLU path neither gather nor store
    the cross entries.  A field that is zero everywhere keeps one entry, so
    L has a pattern.
    """
    # one contiguous row per entry: ``flat.any(axis=0)``, which reduces across
    # the rows of ``flat``, took 10 times longer at 64^2
    used = (A.reshape(len(A), -1) != 0).T.copy().any(axis=1)
    return tuple(np.flatnonzero(used).tolist()) or (0,)


def _gathered(mesh: Mesh, N: int, A: np.ndarray, entries: tuple) -> np.ndarray:
    """L's values from the face tensors A, on ``_stencil(mesh, N, entries)``'s pattern."""
    (rows, src, weights), indices, _, _ = _stencil(mesh, N, entries)
    flat = A.reshape(len(A), -1)  # one row per face, a copy only for a strided A
    # bincount adds each row's terms in order, from 0, as the CSR product does
    return np.bincount(rows, weights=weights * flat.ravel()[src], minlength=len(indices))


def _implicit_values(mesh: Mesh, N: int, A: np.ndarray, entries: tuple) -> np.ndarray:
    """D = I + tau*L on ``_stencil(mesh, N, entries)``'s pattern, exact zeros kept.

    L's values are gathered from the face tensors A by ``_gathered``;
    scaled by tau, with 1 added on the diagonal, they give
    ``sp.identity(nn) + tau*L`` to the bit once exact zeros are dropped.
    """
    values = _gathered(mesh, N, A, entries)
    values *= mesh.tau
    values[_stencil(mesh, N, entries)[3]] += 1.0
    return values


def _step_matrix(mesh: Mesh, N: int, A: np.ndarray) -> sp.csr_matrix:
    """D = I + tau*L as a CSR matrix, gathered from the face tensors A over ``_used_entries``.

    The exact zeros left (entries zero at some faces only, cancellation) are
    dropped; the data is an exact-size array and the pattern arrays are the
    cached ones of the stencil or of ``_pruned_pattern``.
    """
    entries = _used_entries(A)
    data = _implicit_values(mesh, N, A, entries)
    _, indices, indptr, _ = _stencil(mesh, N, entries)
    keep = data != 0
    if not keep.all():
        nz, indices, indptr = _pruned_pattern(mesh, N, entries, np.packbits(keep).tobytes())
        data = data[nz]
    nn = len(indptr) - 1
    return sp.csr_matrix((data, indices, indptr), shape=(nn, nn))


def _preload_linalg(mesh: Mesh, spec: OperatorSpec) -> None:
    """Import ``scipy.sparse.linalg`` (and so ``scipy.sparse``) now when a run on (mesh, spec) will use it.

    It is, when ``_assemble`` will send the implicit matrices to SuperLU:
    sure to on a dirichlet mesh, and nearly sure to for an x-dependent field
    (every table is one).  A periodic run on an x-independent field solves
    by Fourier in 1-D and 2-D alike, and its space-time oracle by numpy
    alone, so it loads neither module.  ``cli.build_context`` calls it, so
    the guess only moves the import into set-up; a wrong one costs time,
    never correctness.
    """
    if not mesh.periodic or spec.coeffs.x_dependent:
        import scipy.sparse.linalg  # noqa: F401


def assemble(mesh: Mesh, spec: OperatorSpec, t: float) -> sp.csr_matrix:
    """Assemble the flux-form spatial operator -div(A D u) at time t, as a CSR matrix.

    Each face contributes A(face midpoint) times the centered difference;
    in dirichlet mode the pinned boundary layer is projected out (rows and
    columns zeroed), in periodic mode indices wrap and row sums vanish.
    Only the face tensors are evaluated here; the pattern and the gather
    come from ``_stencil`` over every tensor entry, zero or not, so the
    pattern depends on (mesh, N) alone.  It is that of I + L, so a dirichlet
    mesh's pinned rows hold an explicit 0 on the diagonal.
    """
    N = spec.coeffs.N
    entries = tuple(range(mesh.n * mesh.n * N * N))
    _, indices, indptr, _ = _stencil(mesh, N, entries)
    nn = len(indptr) - 1
    values = _gathered(mesh, N, _assemble(mesh, spec, t)[0], entries)
    return sp.csr_matrix((values, indices, indptr), shape=(nn, nn))


def project_slice(mesh: Mesh, slc: np.ndarray) -> np.ndarray:
    """Zero the pinned boundary cells (no-op on periodic meshes)."""
    slc = np.array(slc, dtype=float)
    if not mesh.periodic:
        slc[:, ~mesh.interior_mask] = 0.0
    return slc


class CacheInfo(NamedTuple):
    """Size of the step store: entries held, bytes charged, byte budget."""

    entries: int
    bytes: int
    budget: int


def _csr_bytes(mat) -> int:
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


_TINY = np.finfo(float).tiny  # the smallest normal double


def _flush_subnormals(spectrum: np.ndarray) -> None:
    """Set the subnormal parts of a C-contiguous complex spectrum to 0, in place.

    ``ThetaScheme.solve_implicit`` flushes the spectrum it carries every
    eighth step.  A carried spectrum decays mode by mode through the
    subnormal range, where every product and butterfly costs many normal
    ones: after 5 000 steps of a 320-cell 1-D heat march, a carried step
    took 4 to 11 us longer than at the start.  A subnormal part adds
    nothing to a state of normal size, so the states stay bitwise what they
    were.
    """
    parts = spectrum.view(np.float64)
    parts[np.abs(parts) < _TINY] = 0.0


@lru_cache(maxsize=64)
def _shift_pieces(d: tuple) -> tuple:
    """(dst, src) cell-axis slices: u's cells ``src``, copied to ``dst``, put u[x - d] at x.

    One pair per combination of the axes' two wrapped ranges; on an axis of
    two cells the offsets +1 and -1 give the same shift.
    """
    ranges = {0: [(slice(None), slice(None))],
              1: [(slice(1, None), slice(None, -1)), (slice(None, 1), slice(-1, None))],
              -1: [(slice(None, -1), slice(1, None)), (slice(-1, None), slice(None, 1))]}
    return tuple((tuple(dst for dst, _ in combo), tuple(src for _, src in combo))
                 for combo in itertools.product(*(ranges[da] for da in d)))


@lru_cache(maxsize=16)
def _copy_plan(offsets: tuple) -> tuple:
    """(destination in the (B, K + 1, N, *cells) stack, source in the (B, N, *cells) states)
    of every shifted copy ``_Stencil._residual`` makes for the offsets ``offsets``: the
    stencils of a run share one plan."""
    every = slice(None)
    return tuple(((every, k, every, *dst), (every, every, *src))
                 for k, d in enumerate(offsets) for dst, src in _shift_pieces(d))


# ``green._packs`` packs Green sources into blocks whose spectrum, 16 bytes
# per value, stays within glibc's 128 KiB mmap threshold, as perfbench pins
# it.  Past it every step maps and faults in fresh arrays: on 64^2 heat,
# forward blocks of one-column sources took 5.5 ms per column in blocks of 3
# (101 KB of spectrum), 7.4 ms in blocks of 4 and 8.7-9.4 ms in blocks of 6
# or 8, against 7.1 ms for a column alone (1 BLAS thread, medians of 9).
BLOCK_SPECTRUM_BYTES = 128 * 2**10


class _Stencil:
    """A block-circulant implicit matrix D on a periodic mesh, as its nonzero (N, N) blocks.

    ``D[i*C + (x + d), j*C + x] = blocks[k][i, j]`` for the offset
    d = ``offsets[k]``, cells wrapping, one of the 3^n offsets.  ``T`` is
    D's transpose: the offsets negated and the blocks transposed, or D
    itself when its blocks satisfy B_{-d} = B_d^T to the bit (every N = 1
    step in 1-D, and in 2-D without alpha != beta entries).  ``residual``
    applies D to shifted copies of a state, so it shares nothing with the
    FFT that solves with D.
    """

    # The residual's stack of shifted copies lives in one buffer that every
    # stencil reuses: allocated per call, the stack of one 64^2 state (197 KB)
    # sits above a 128 KiB mmap threshold, and mapping and faulting in fresh
    # pages tripled the run time of a 2-D heat march.  A block is stacked a
    # few columns at a time, so the buffer holds at most STACK_BYTES, or one
    # column's stack when that is larger.
    STACK_BYTES = 2**20
    _buffer = np.empty(0)

    def __init__(self, cells, offsets: np.ndarray, blocks: np.ndarray):
        self.cells, self.offsets, self.N = tuple(cells), offsets, blocks.shape[1]
        # [blocks[0] | ... | blocks[-1] | -I]: the residual is one product of
        # this row with the shifted states stacked over rhs
        self.row = np.concatenate([*blocks, -np.eye(self.N)], axis=1)
        self._copies = _copy_plan(tuple(map(tuple, offsets.tolist())))
        self._nn = self.N * math.prod(self.cells)
        # the block columns one stack holds: (K + 1) N copies of C cells each
        self._width = max(1, self.STACK_BYTES // (8 * self.row.shape[1] * math.prod(self.cells)))
        self.nbytes = self.row.nbytes + offsets.nbytes

    @classmethod
    def build(cls, mesh: Mesh, A: np.ndarray) -> "_Stencil":
        """D = I + tau*L from the face tensors A of a periodic mesh whose faces all hold one tensor.

        Its blocks are the gathered D's cell-0 columns, read from the first
        face of each axis through ``_kernel_gather`` over ``_used_entries(A)``:
        L's values summed by ``np.bincount``, scaled by tau, with 1 added on
        the diagonal, as ``_implicit_values`` makes D's entries.  The blocks
        that are zero are dropped.
        """
        N = A.shape[-1]
        rows, src, weights, at, diag, offsets = _kernel_gather(mesh, N, _used_entries(A))
        values = np.bincount(rows, weights=weights * A.ravel()[src], minlength=len(at))
        values *= mesh.tau
        values[diag] += 1.0
        D = np.zeros((len(offsets), N, N))
        D.reshape(-1)[at] = values
        keep = D.reshape(len(D), -1).any(axis=1)
        return cls(mesh.cells, offsets[keep], D[keep])

    @property
    def blocks(self) -> np.ndarray:
        return self.row[:, :-self.N].reshape(self.N, -1, self.N).swapaxes(0, 1)

    @property
    def T(self) -> "_Stencil":
        blocks = self.blocks
        at = {d: k for k, d in enumerate(map(tuple, self.offsets.tolist()))}
        mirror = [at.get(tuple(-d for d in offset)) for offset in at]
        if None not in mirror and np.array_equal(blocks[mirror], blocks.swapaxes(1, 2)):
            return self
        return _Stencil(self.cells, -self.offsets, blocks.swapaxes(1, 2))

    def kernel(self) -> np.ndarray:
        """[i, j, x] = D[i*C + x, j*C]: D's N columns at cell 0, shaped (N, N, *cells)."""
        kernel = np.zeros((self.N, self.N, *self.cells))
        at = (slice(None), slice(None), *(self.offsets % self.cells).T)
        np.add.at(kernel, at, self.blocks.transpose(1, 2, 0))
        return kernel

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """D @ x - rhs for a flat (nn,) state or an (nn, B) block, shaped like x.

        A block is read batch-major, through ``x.T`` as (B, N, *cells), the
        layout of the C-contiguous array whose transpose
        ``_FourierSolver.solve`` returns, so every shifted copy moves runs
        of contiguous cells.  Read through the (nn, B) view, the copies
        gathered one strided value at a time: at 64^2 and B = 2 the residual
        took 107 us per column, against 30 us (one process, 1 BLAS thread).
        Each column's residual is its flat residual to the bit.
        """
        B = 1 if x.ndim == 1 else x.shape[1]
        shape = (B, self.N, *self.cells)
        u, v = x.T.reshape(shape), rhs.T.reshape(shape)
        if B <= self._width:
            res = self._residual(u, v)
        else:
            res = np.empty((B, self._nn))
            for j in range(0, B, self._width):
                cols = slice(j, j + self._width)
                res[cols] = self._residual(u[cols], v[cols])
        return res.T.reshape(x.shape)

    def _residual(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """D @ u - v for (b, N, *cells) states, shaped (b, nn): for each state one product
        of ``row`` with its shifted copies stacked over its v."""
        size = (len(self.offsets) + 1) * u.size
        if _Stencil._buffer.size < size:
            _Stencil._buffer = np.empty(size)
        stack = _Stencil._buffer[:size].reshape(len(u), -1, *u.shape[1:])
        for dst, src in self._copies:
            stack[dst] = u[src]
        stack[:, -1] = v
        res = np.matmul(self.row, stack.reshape(len(u), self.row.shape[1], -1))
        return res.reshape(len(u), self._nn)


def _rfft(a: np.ndarray, cells: tuple) -> np.ndarray:
    """The real FFT of ``a`` over its trailing cell axes.

    On 2-D it runs what ``rfft2`` runs, ``rfft`` along the last axis and
    ``fft`` along the other, bitwise, without its argument handling: about
    9 us of a 64^2 transform.  ``rfftn`` costs 2 to 3 times more still.
    The transforms are looked up in ``np.fft`` on every call.
    """
    if len(cells) == 1:
        return np.fft.rfft(a)
    return np.fft.fft(np.fft.rfft(a), axis=-2)


def _irfft(y: np.ndarray, cells: tuple) -> np.ndarray:
    """The inverse of ``_rfft``, back to ``cells`` (odd counts included); on 2-D ``irfft2``'s steps."""
    if len(cells) == 1:
        return np.fft.irfft(y, n=cells[0])
    return np.fft.irfft(np.fft.ifft(y, axis=-2), n=cells[1])


class _FourierSolver:
    """Solves with a block-circulant implicit matrix D on a periodic mesh, 1-D or 2-D.

    ``_rfft`` of D's kernel (``_Stencil.kernel``, the gathered D's cell-0
    columns, read on the 4^n torus) is one N x N symbol block per
    wavenumber.  A divergence-form D on faces that all hold one tensor is an
    even block convolution, B_{-d} = B_d, so its symbol is real: the real
    part is kept and inverted here once in float64 (by a reciprocal when
    N = 1), half the bytes of a complex inverse.  It is the symbol of D's
    even part, which is D to the bit in 1-D and within an ulp of the cross
    terms in 2-D, which cancel on the axis-0 offsets in a different order at
    d and -d.  An odd stencil would get a wrong inverse, which the residual
    check of every solve rejects.
    A solve is ``_rfft``, one N x N product per wavenumber and ``_irfft``;
    ``trans="T"`` multiplies by the transposed inverse blocks, the inverse
    symbol of D^T, taken from the one stored inverse as the solve runs.
    Given the spectrum a previous solve returned with its right-hand side,
    a solve skips the forward transform and costs one inverse transform.
    """

    def __init__(self, stencil: _Stencil):
        self.N, self.cells = stencil.N, stencil.cells
        symbol = np.moveaxis(_rfft(stencil.kernel(), self.cells).real, (0, 1), (-2, -1))
        inv = 1.0 / symbol if self.N == 1 else np.linalg.inv(symbol)
        self.inv = np.ascontiguousarray(np.moveaxis(inv, (-2, -1), (0, 1)))
        self.nbytes = self.inv.nbytes

    def solve(self, rhs: np.ndarray, trans: str = "N", spectrum=None):
        """Solve for a flat (nn,) state or an (nn, B) block, bitwise column by column.

        ``spectrum`` is rhs's spectrum as an earlier solve returned it, or None
        to transform rhs.  Returns the solution and the spectrum it is the
        ``_irfft`` of, C-contiguous and shaped (B, N, *cells) with the last
        axis halved plus one.
        """
        # the block columns: of the inverse, or for D^T its rows
        M = self.inv.swapaxes(0, 1) if trans == "N" else self.inv
        r = spectrum
        if r is None:
            r = _rfft(rhs.T.reshape(-1, self.N, *self.cells), self.cells)
        y = np.multiply(M[0], r[:, None, 0], order="C")
        for j in range(1, self.N):
            y += M[j] * r[:, None, j]
        x = _irfft(y, self.cells).reshape(len(r), -1)
        return (x.T if rhs.ndim == 2 else x[0]), y


class _Implicit(tuple):
    """The stored (solver, D) pair of one step's implicit matrix.

    D is a ``_Stencil`` for a Fourier solver and a CSC matrix for a SuperLU
    factor.  ``DT`` is D's transpose for the residual checks of
    ``trans="T"`` solves, built once per entry: a view that shares a CSC
    matrix's arrays, D itself for a stencil equal to its transpose, or a
    stencil of its own.
    """

    def __new__(cls, solver, D):
        pair = super().__new__(cls, (solver, D))
        pair.DT = D.T
        return pair


def _factor_bytes(pair) -> int:
    """The store's charge of one ``_Implicit`` pair.

    A Fourier step: its real inverse symbol, 8 N^2 bytes per wavenumber
    (17 024 bytes in all for a 64^2 N = 1 step), and its stencils' blocks,
    D^T's only when it is not D itself.  A SuperLU step: 12 bytes per L+U
    nonzero, ``SUPERLU_FIXED_BYTES`` and the CSC arrays of D.  No stored
    array views a larger buffer; a pattern array that entries share with
    the stencil or the cached patterns is charged to each of them.

    ``splu`` keeps its factors on the C heap, in four L/U arrays sized from
    a fill guess (about 740 bytes per nonzero of D in all, by
    ``mallinfo2``); the 12 bytes per nonzero count only their written part.
    With glibc's mmap threshold at 128 KiB, as ``perfbench`` pins it, an
    array above the threshold is mapped and resident only where written and
    one below it may be resident whole, so a factor holds at most
    4 x 128 KiB = ``SUPERLU_FIXED_BYTES`` more.  By ``ru_maxrss`` over
    stored 1-D and 2-D dirichlet factors of 16 to 4 096 unknowns, the
    largest excess was 299 KB (16 x 16 cells, the store evicting), and the
    RSS a march added stayed below the charge.  Under glibc's default
    threshold, which rises after large frees, a mid-size factor can exceed
    it: 917 KB resident against 646 KB charged at 1 536 unknowns, 1-D.
    """
    solver, D = pair
    if isinstance(solver, _FourierSolver):
        return solver.nbytes + D.nbytes + (0 if pair.DT is D else pair.DT.nbytes)
    return 12 * int(solver.nnz) + SUPERLU_FIXED_BYTES + _csr_bytes(D)


class _StepStore:
    """Least-recently-used map from step keys to ``_Implicit`` pairs, bounded by CACHE_BYTES.

    ``assemble`` is a pure function of (mesh, spec, t), so every
    ``ThetaScheme`` of the same (mesh, spec) shares the one process-wide
    store, ``_STORE``.  A key holds the frozen mesh and spec themselves
    (equal by value; coefficient functions by identity) and the step index
    (``"const"`` for static coefficients).  Each entry is charged
    ``_factor_bytes``; past ``CACHE_BYTES`` the least recently used entries
    go first, never the one just built.  Every caller gets the same stored
    object, so no caller may modify one.
    """

    def __init__(self):
        self.entries: OrderedDict = OrderedDict()  # key -> (value, charged bytes)
        self.nbytes = 0

    def get(self, key, build):
        hit = self.entries.get(key)
        if hit is not None:
            self.entries.move_to_end(key)
            return hit[0]
        value = build()
        cost = _factor_bytes(value)
        self.entries[key] = (value, cost)
        self.nbytes += cost
        while self.nbytes > CACHE_BYTES and len(self.entries) > 1:
            _, (_, old) = self.entries.popitem(last=False)
            self.nbytes -= old
        return value


_STORE = _StepStore()


def cache_info() -> CacheInfo:
    """Entries, charged bytes and byte budget of the shared step store."""
    return CacheInfo(len(_STORE.entries), _STORE.nbytes, CACHE_BYTES)


class _SchemeKey:
    """The (mesh, spec) part of a store key, hashed once."""

    __slots__ = ("parts", "_hash")

    def __init__(self, mesh: Mesh, spec: OperatorSpec):
        self.parts = (mesh, spec)
        self._hash = hash(self.parts)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.parts == other.parts


class ThetaScheme:
    """Implicit Euler step matrices and factorizations of one (mesh, spec), from the shared store.

    The scheme also holds its last Fourier solution and that solution's
    spectrum, never in the store: one state per scheme, for one march.  A
    solve whose right-hand side is that very state (a step without a
    source, forward or adjoint, flat or block) reuses the spectrum and
    skips the forward FFT, so a march transforms forward once, plus once per
    step with a source.
    """

    def __init__(self, mesh: Mesh, spec: OperatorSpec):
        self.mesh = mesh
        self.spec = spec
        self.N = spec.coeffs.N
        self.nn = self.N * mesh.ncells
        self._static = not spec.coeffs.time_dependent
        self._base = _SchemeKey(mesh, spec)
        self._carry = (None, None)  # the last Fourier solution and its spectrum

    def implicit_lu(self, m: int):
        """Solver of D = I + tau*L(t_m), with D: the stored ``_Implicit`` pair.

        The solver is a ``_FourierSolver`` with D as a ``_Stencil`` when the
        face tensors of L(t_m) allow it (see ``_assemble``), and builds no
        sparse matrix.  Otherwise (dirichlet meshes, x-dependent fields and
        tables) it is the ``splu`` factorization of D as a CSC matrix, whose
        data L(t_m)'s gathered values become in place, with the
        ``MMD_AT_PLUS_A`` ordering (minimum degree on the pattern of
        A^T + A), which suits the structurally symmetric operator.  L
        itself is never stored.
        """
        def build():
            mesh = self.mesh
            A, fourier = _assemble(mesh, self.spec, float(mesh.times[m]))
            if fourier:
                stencil = _Stencil.build(mesh, A)
                return _Implicit(_FourierSolver(stencil), stencil)
            D = _step_matrix(mesh, self.N, A).tocsc()
            return _Implicit(spla.splu(D, permc_spec="MMD_AT_PLUS_A"), D)

        return _STORE.get((self._base, "const" if self._static else m), build)

    def solve_implicit(self, m: int, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve with the implicit matrix of step m; rhs is (nn,) or a block (nn, B).

        Both solvers solve a block bitwise equal to its columns one by one.
        A Fourier solve of the state the previous Fourier solve returned
        reuses that state's spectrum, so a caller must not change a returned
        state in place and solve with it again.  Each column's relative
        residual, with the physical rhs, must stay within RESIDUAL_TOL, so a
        bad small column cannot hide behind a large one, and a zero column
        must solve to exactly 0.  A SuperLU step's residual is ``D @ x - rhs``
        with the stored CSC matrix, a Fourier step's ``_Stencil.residual``,
        which shares nothing with the FFT: a wrong inverse symbol or a stale
        spectrum fails the check.  A ``trans="T"`` solve checks against
        ``_Implicit.DT``.
        """
        pair = self.implicit_lu(m)
        lu, D = pair
        mat = D if trans == "N" else pair.DT
        if isinstance(lu, _FourierSolver):
            state, spectrum = self._carry
            x, spectrum = lu.solve(rhs, trans, spectrum if rhs is state else None)
            if m % 8 == 0:  # a part gone subnormal costs a few slow steps at most
                _flush_subnormals(spectrum)
            self._carry = (x, spectrum)
            res = mat.residual(x, rhs)
        else:
            x = lu.solve(rhs, trans=trans)
            res = mat @ x - rhs
        # both solvers return exactly 0 for a zero column, so its residual
        # must be 0; a NaN residual fails too
        if rhs.ndim == 1:
            num, den = np.linalg.norm(res), np.linalg.norm(rhs)
            ok = num <= RESIDUAL_TOL * den
        else:  # per column: a bad small column must not hide behind a large one
            num = np.sqrt(np.einsum("ij,ij->j", res, res))
            den = np.sqrt(np.einsum("ij,ij->j", rhs, rhs))
            ok = (num <= RESIDUAL_TOL * den).all()
        if not ok:
            num, den = np.atleast_1d(num, den)
            bad = ~(num <= RESIDUAL_TOL * den)
            if np.any(den[bad] == 0):
                raise SolverError(f"linear solve residual {np.max(num[den == 0]):.3e} "
                                  "for a zero right-hand side")
            worst = np.max(num[bad] / den[bad])
            raise SolverError(f"linear solve residual {worst:.3e} exceeds {RESIDUAL_TOL}")
        return x

    def forward_step(self, m: int, u: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
        """One step t_m -> t_{m+1} of a flat state or an (nn, B) block: the rhs is u + tau*g,
        g the source f(t_{m+1}) (``_slab_source_fn``)."""
        rhs = u if g is None else u + self.mesh.tau * g
        return self.solve_implicit(m + 1, rhs)

    def backward_step(self, m: int, w: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
        """Adjoint step t_{m+1} -> t_m: the transpose of forward_step(m, .)."""
        rhs = w if q is None else w + self.mesh.tau * q
        return self.solve_implicit(m + 1, rhs, trans="T")


def _as_slice(mesh: Mesh, N: int, data) -> np.ndarray:
    arr = np.zeros((N, mesh.ncells)) if data is None else np.array(data, dtype=float)
    if arr.shape != (N, mesh.ncells):
        raise ConfigError(f"slice must have shape ({N}, {mesh.ncells}), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigError("slice contains non-finite values")
    return arr


def _slab_source_fn(scheme: ThetaScheme, f):
    """Normalize the user source into a per-step flat source callable.

    Step m, from t_m to t_{m+1}, takes the source f(t_{m+1}).
    """
    if f is None:
        return lambda m: None
    if not callable(f):
        raise ConfigError("source must be None or a callable t -> slice")
    mesh, N = scheme.mesh, scheme.N
    return lambda m: project_slice(mesh, _as_slice(mesh, N, f(float(mesh.times[m + 1])))).ravel()


class _Keep(NamedTuple):
    """What a march keeps: the slices at the mesh time indices ``slices``
    (increasing) and the flat state rows ``rows``, in that order; None keeps
    every slice or every row, which is what ``solve_forward`` returns and the
    ``weak-levels`` column holds.  A check that reads one slice or one
    cylinder holds that, not the whole (steps + 1, N, ncells) field."""

    slices: Sequence[int] | None = None
    rows: np.ndarray | None = None

    @classmethod
    def on_cells(cls, mesh: Mesh, N: int, slices, cells) -> "_Keep":
        """Keep ``slices`` and all N components at the flat cells ``cells``."""
        return cls(slices, (np.arange(N)[:, None] * mesh.ncells + cells).ravel())


def _check_window(i0: int, i1: int) -> None:
    """Reject a window t_{i0}..t_{i1} that spans no time step: every march and the oracle."""
    if i1 <= i0:
        raise ConfigError(f"the march window {i0}..{i1} must span at least one time step")


def _kept_slices(keep: _Keep, i0: int, i1: int) -> Sequence[int]:
    """The mesh time indices ``keep`` keeps in the window t_{i0}..t_{i1}, checked.

    A range stays a range, so a march that keeps a long run of slices holds
    no list of them.
    """
    _check_window(i0, i1)
    slices = keep.slices
    if slices is None:
        return range(i0, i1 + 1)
    if not isinstance(slices, range):
        slices = [int(m) for m in slices]
    if (any(b <= a for a, b in zip(slices, slices[1:]))
            or (slices and not i0 <= slices[0] <= slices[-1] <= i1)):
        raise ConfigError("kept slices must be increasing steps inside the march "
                          f"window {i0}..{i1}")
    return slices


def _stream(scheme: ThetaScheme, i0: int, i1: int, x: np.ndarray, src,
            keep: _Keep = _Keep(), backward: bool = False):
    """The one time loop of every march: steps over t_{i0}..t_{i1} of a flat state (nn,) or a
    block (nn, B) of states that share every step's solver.

    Forward steps start from x at t_{i0}; with ``backward`` adjoint steps
    start from x at t_{i1}.  ``src(m)`` gives step m's source, shaped like x
    (or None).  Yields ``(m, state[rows])`` at each kept slice m as the march
    passes it, in march order (backward: decreasing m), where ``rows`` are
    the kept rows (all of them, as a view of the state, when ``keep.rows`` is
    None); a consumer must not change what it is given.  A forward march
    stops at its last kept slice and a backward one at its first, since no
    state beyond is read.  The window and the kept slices are checked when
    the stream starts, before its first step.
    """
    slices = _kept_slices(keep, i0, i1)
    due = iter(reversed(slices) if backward else slices)  # the kept slices in march order
    at = next(due, None)
    rows = slice(None) if keep.rows is None else keep.rows
    step = scheme.backward_step if backward else scheme.forward_step
    if at == (i1 if backward else i0):
        yield at, x[rows]
        at = next(due, None)
    for m in (range(i1 - 1, (slices[0] if slices else i1) - 1, -1) if backward
              else range(i0, slices[-1] if slices else i0)):
        x = step(m, x, src(m))
        if at == (m if backward else m + 1):
            yield at, x[rows]
            at = next(due, None)


def _march(scheme: ThetaScheme, i0: int, i1: int, x: np.ndarray, src,
           keep: _Keep = _Keep(), backward: bool = False) -> np.ndarray:
    """The states ``_stream`` yields, stacked in increasing time order.

    Returns the kept states as (slices, rows), or (B, slices, rows) for a
    block; by default (i1 - i0 + 1, nn) or (B, i1 - i0 + 1, nn).
    """
    slot = {m: j for j, m in enumerate(_kept_slices(keep, i0, i1))}
    out = np.empty(x.shape[1:] + (len(slot), x.shape[0] if keep.rows is None
                                  else len(keep.rows)))
    for m, state in _stream(scheme, i0, i1, x, src, keep, backward):
        out[..., slot[m], :] = state.T
    return out


def _solve(spec: OperatorSpec, mesh: Mesh, g, f, lo: float, hi: float, direction: str,
           keep: _Keep = _Keep()) -> np.ndarray:
    """March one state over [lo, hi]: forward from data g at lo, or backward from g at hi.

    Returns what ``keep`` keeps, as (slices, N, kept cells).
    """
    scheme = ThetaScheme(mesh, spec)
    x = project_slice(mesh, _as_slice(mesh, scheme.N, g)).ravel()
    out = _march(scheme, mesh.time_index(lo), mesh.time_index(hi), x,
                 _slab_source_fn(scheme, f), keep, direction == "backward")
    return out.reshape(len(out), scheme.N, out.shape[1] // scheme.N)


def solve_forward(spec: OperatorSpec, mesh: Mesh, g, f, s: float, T: float) -> Trajectory:
    """March the Cauchy problem from data g at time s up to time T.

    ``f`` is a per-slice source sampled as f(t) -> (N, ncells); the step
    from t_m to t_{m+1} uses f(t_{m+1}).
    """
    values = _solve(spec, mesh, g, f, s, T, "forward")
    return Trajectory(mesh, mesh.time_index(s), values)


ORACLE_CAP = 20_000
ORACLE_BAND_BYTES = 8 * 2**20  # the oracle's band factors held at once, one step at least


def _band_order(mesh: Mesh, N: int) -> np.ndarray:
    """The oracle's elimination order: ``order[p]`` is the flat unknown at band position p.

    Cell by cell, the N components innermost, the axis with the fewest cells
    varying fastest.  A periodic axis is folded to 0, C-1, 1, C-2, ..., which
    puts the wrap-around neighbours next to each other and every neighbour
    at most two places away, so D's couplings lie within about 3N positions
    of the diagonal in 1-D and N (2 C_fast + 3) in 2-D.
    """
    strides = np.cumprod((1, *mesh.cells[:0:-1]))[::-1]  # of the flat cell index
    cells = np.zeros(1, dtype=np.int64)
    for a in sorted(range(mesh.n), key=lambda a: -mesh.cells[a]):
        C = mesh.cells[a]
        line = np.arange(C)
        if mesh.periodic:
            line = np.stack([line, C - 1 - line], axis=1).ravel()[:C]
        cells = (cells[:, None] + strides[a] * line).ravel()
    return (cells[:, None] + mesh.ncells * np.arange(N)).ravel()


def _band_factor(band: np.ndarray, kl: int, u: int) -> np.ndarray:
    """LU-factorize K band matrices at once, in place, with partial pivoting; returns the pivots.

    ``band[k, j, u + i - j]`` is entry (i, j) of matrix k, for n columns j
    followed by u zero ones that keep every window inside the array; kl is
    the lower width and u >= kl the upper width of U, which row swaps widen
    to the matrix's upper width plus kl.  As in LAPACK's ``gbtrf``, column
    j's multipliers overwrite its entries below the diagonal, and a swap
    moves only the entries from column j on.  ``pivots[k, j]`` is the offset
    t of the row j + t swapped with row j.  A step is a few elementwise
    operations over a strided window of all K matrices, with one scratch
    array for the update; a zero pivot raises SolverError.
    """
    K, cols, R = band.shape
    flat = band.reshape(K, -1)
    ks = np.arange(K)
    pivots = np.empty((K, cols - u), dtype=np.intp)
    update = np.empty((K, u, kl))
    for j in range(cols - u):
        # V[k, c, t] is entry (j + t, j + c): column j at c = 0, row j at t = 0
        start = j * R + u
        V = flat[:, start:start + (u + 1) * (R - 1)].reshape(K, u + 1, R - 1)[:, :, :kl + 1]
        t = np.abs(V[:, 0]).argmax(axis=1)
        pivots[:, j] = t
        row = V[ks, :, t]
        if not row[:, 0].all():
            raise SolverError(f"the space-time oracle met a singular step matrix at column {j}")
        V[ks, :, t] = V[:, :, 0]
        V[:, :, 0] = row
        V[:, 0, 1:] /= row[:, :1]
        # the update reaches only the columns that some pivot row reaches, at
        # most the upper width while no row is swapped, and goes through the
        # scratch array: ``V[:, 1:, 1:] -= ...`` made numpy copy the window
        # first, 1 MB per column on a 64 x 64 mesh
        w = 1 + int(np.flatnonzero(row.any(axis=0))[-1])
        scratch = update[:, :w - 1]
        np.multiply(V[:, 1:w, :1], V[:, :1, 1:], out=scratch)
        np.subtract(V[:, 1:w, 1:], scratch, out=scratch)
        V[:, 1:w, 1:] = scratch
    return pivots


def _band_solve(band: np.ndarray, pivots: np.ndarray, kl: int, u: int,
                b: np.ndarray) -> np.ndarray:
    """Solve with one matrix that ``_band_factor`` factorized: its band and pivots, rhs b.

    Forward through the row swaps and multipliers, then back through U, a
    column at a time, so every step is an elementwise update of a few
    entries and no sum is reduced.
    """
    n = len(b)
    x = np.zeros(u + n + kl)  # the zeros around b take the updates beyond its ends
    x[u:u + n] = b
    lower, upper = band[:n, u + 1:], band[:n, :u + 1]
    for j, t in enumerate(pivots.tolist()):
        i = u + j
        if t:
            x[i], x[i + t] = x[i + t], x[i]
        x[i + 1:i + kl + 1] -= lower[j] * x[i]
    for j in range(n - 1, -1, -1):
        i = u + j
        x[i] /= upper[j, u]
        x[i - u:i] -= upper[j, :u] * x[i]
    return x[u:u + n]


def dense_spacetime_oracle(spec: OperatorSpec, mesh: Mesh, g, f, s: float,
                           T: float) -> Trajectory:
    """Brute-force reference: one direct solve of the stacked implicit Euler steps, in numpy alone.

    The space-time system over all unknown slices holds each step's D on
    its block diagonal and -I below it.  It is block lower-bidiagonal, so
    its direct solve is a block forward substitution, x_k = D_k^{-1}
    (x_{k-1} + tau*g_k), with each D_k gathered afresh by
    ``_implicit_values`` over every tensor entry: independent of the step
    store, of the Fourier stencil and of SuperLU.  The steps share one
    pattern, put in ``_band_order``, and go in groups of consecutive steps:
    a group is factorized together by band LU with partial pivoting
    (``_band_factor``), each of its steps then solves on its own
    (``_band_solve``), and its band is dropped before the next group fills.
    A group's factors are bitwise those of one batch of all K steps.  No
    step calls BLAS or reduces a sum, so the result does not depend on the
    BLAS thread count.
    With lower width kl and upper width ku, one step of nn unknowns takes
    b = 8 (nn + kl + ku) (2 kl + ku + 1) bytes of band, and a group holds
    g = max(1, ORACLE_BAND_BYTES // b) steps, so the factors held at once
    take g b bytes: at most ORACLE_BAND_BYTES, or one step's band when that
    is larger (13.6 MB on a 64 x 64 heat mesh, where 4 steps in one batch
    added 56 MB of ``ru_maxrss`` and the groups 16.5 MB).  Only meant as a test
    oracle, capped at ORACLE_CAP space-time unknowns.
    """
    scheme = ThetaScheme(mesh, spec)
    i0, i1 = mesh.time_index(s), mesh.time_index(T)
    _check_window(i0, i1)
    K = i1 - i0
    N, nn = scheme.N, scheme.nn
    if K * nn > ORACLE_CAP:
        raise ConfigError(f"oracle size {K * nn} exceeds cap {ORACLE_CAP}")
    src = _slab_source_fn(scheme, f)
    u0 = project_slice(mesh, _as_slice(mesh, N, g)).ravel()

    entries = tuple(range(mesh.n * mesh.n * N * N))  # one pattern for every step
    _, indices, indptr, _ = _stencil(mesh, N, entries)
    order = _band_order(mesh, N)
    pos = np.empty(nn, dtype=np.int64)
    pos[order] = np.arange(nn)
    rows, cols = pos[np.repeat(np.arange(nn), np.diff(indptr))], pos[indices]
    kl = max(int(np.max(rows - cols)), 1)
    u = kl + int(np.max(cols - rows))
    shape = (nn + u, u + kl + 1)  # one step's band
    group = max(1, ORACLE_BAND_BYTES // (8 * math.prod(shape)))

    out = np.empty((K + 1, N, mesh.ncells))
    out[0] = u0.reshape(N, -1)
    x = u0
    for k0 in range(0, K, group):
        steps = range(k0, min(k0 + group, K))
        band = np.zeros((len(steps), *shape))
        for j, k in enumerate(steps):
            A = _assemble(mesh, spec, float(mesh.times[i0 + k + 1]))[0]
            band[j, cols, u + rows - cols] = _implicit_values(mesh, N, A, entries)
        pivots = _band_factor(band, kl, u)
        for j, k in enumerate(steps):
            gm = src(i0 + k)
            b = x if gm is None else x + mesh.tau * gm
            x = out[k + 1].reshape(nn)  # a view: the solution lands in place
            x[order] = _band_solve(band[j], pivots[j], kl, u, b[order])
        del band, pivots  # freed before the next group fills its own
    return Trajectory(mesh, i0, out)
