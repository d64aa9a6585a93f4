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

The pattern of the step matrix D = I + tau*L depends on (mesh, N) and on
which tensor entries A^{ab}_{ij} are nonzero at some face.  ``_stencil``
builds it once per (mesh, N, entries), with the positions of its diagonal
and a sparse gather from the raveled face tensors to L's values on that
pattern, and keeps the last eight.  Each assembly evaluates the face
tensors at ``Mesh.face_points`` with one ``tensor`` call, reads the
entries that are nonzero at some face from those values and gathers only
them: on a diagonal field (heat, t-oscillating) the gather and the pattern
skip the entries that are zero at every face, which would add only exact
zeros.  ``_shifted`` scales the values, adds 1 on the diagonal and drops
the exact zeros left (entries zero at some faces only, cancellation),
which gives ``sp.identity(nn) + tau*L`` to the bit.  The pattern left after
dropping them is cached per stencil and zero mask by ``_pruned_pattern``:
the steps of a run share one pattern and each stored matrix owns only its
exact-size data.  The public ``assemble`` gathers every entry, so its
pattern depends on (mesh, N) alone.

The implicit matrix D = I + tau*L(t_m) is solved by one of two solvers,
chosen from the values of the face tensors the assembly already
evaluated, never from a flag such as ``CoefficientField.x_dependent``:

* Fourier: on a periodic mesh, 1-D or 2-D, whose face tensors are exactly
  equal at every face, D is block-circulant.  ``_FourierSolver`` reads the
  N columns of D at cell 0 from D's entries as a kernel, inverts its
  symbol once (one N x N block per wavenumber, a reciprocal when N = 1)
  and solves with a real FFT, a batched N x N product and the inverse
  FFT: ``rfft``/``irfft`` on 1-D, ``rfft2``/``irfft2`` on 2-D.  It stores
  that one inverse; a ``trans="T"`` solve multiplies by the conjugates of
  its transposed blocks, which is bitwise what a stored inverse symbol of
  D^T would give.  A scheme keeps the state its last Fourier solve
  returned together with that state's spectrum; a solve whose right-hand
  side is that very state (a step without a source, forward or adjoint,
  flat or block) reuses the spectrum and skips the forward FFT, so a march
  transforms forward once, plus once per step with a source.  Every eighth
  step sets the carried spectrum's subnormal parts to 0, which keeps a
  long march from slowing down as its modes decay and leaves the states
  bitwise unchanged.
* SuperLU: everywhere else (dirichlet meshes, x-dependent fields and
  tables), D is factorized by ``splu`` with the ``MMD_AT_PLUS_A`` ordering
  (minimum degree on the pattern of A^T + A), which suits the
  structurally symmetric operator.

One private time loop, the generator ``_stream``, runs every march,
forward or (with ``backward``) through the adjoint steps, for a flat (nn,)
state or an (nn, B) block of B states sharing every step's solver.
``_march`` stacks what it yields; ``verify.ph_decay_fit`` folds it into
its cylinder energies as it comes.  It and ``dense_spacetime_oracle``
check that a window spans a step with one ``_check_window``.
``solve_forward``/``solve_backward`` march one state, the Green column
builders march all source components of a pole as one block,
``green.propagator`` marches the (nn, nn) identity block and
``verify.check_normalization`` the (nn, N) block of constant states.
Both solvers solve a block bitwise equal to its columns one by one.  Every
solve checks the relative residual of each column against
``RESIDUAL_TOL`` with the assembled D, so a bad small column cannot hide
behind a large one and a wrong Fourier symbol fails loudly; the residual
of a ``trans="T"`` solve uses D's transpose, built once per stored step as
a view of D's arrays.

A march keeps what a ``_Keep`` names: the slices at some mesh time
indices and some flat state rows, handed on as the march passes them, so a
check that reads one slice or one cylinder holds that and not the whole
(steps + 1, N, ncells) field; the march stops at the last slice it keeps
(backward: the first), so no step runs whose state nobody reads.  The
default keeps every slice and row, which is what the public solvers and
column builders return; the checks in ``verify`` and the adjoint pairing
in ``cli`` march through ``_solve`` with the slices and cells they read,
and ``interior-decay`` consumes ``_stream`` a few slices at a time, so it
never holds its outer cylinder.

``assemble`` is a pure function of (mesh, spec, t), so every
``ThetaScheme`` of the same (mesh, spec) shares one process-wide store of
step matrices: the (solver, D) pair of each step's implicit matrix.  A key
holds the frozen mesh and spec themselves (equal by value; coefficient
functions by identity) and the step index (``"const"`` for static
coefficients).  A step's solver assembles L(t_m) itself and the operator
is not stored, since nothing else reads it.  The store charges a Fourier
solver the bytes of its one array of inverse blocks, a SuperLU factor 12
bytes per L+U nonzero plus ``SUPERLU_FIXED_BYTES``, and either one the
CSC/CSR arrays of D.  No stored array views a larger buffer; a pattern
array that entries share with the stencil or the cached patterns is
charged to each of them.  ``splu`` keeps its factors on the C heap, in four
L/U arrays sized from a fill guess (about 740 bytes per nonzero of D in
all, by ``mallinfo2``); the 12 bytes per nonzero count only their written
part.  With glibc's mmap threshold at 128 KiB, as
``perfbench`` pins it, an array above the threshold is mapped and resident
only where written and one below it may be resident whole, so a factor
holds at most 4 x 128 KiB = ``SUPERLU_FIXED_BYTES`` more.  By
``ru_maxrss`` over stored 1-D and 2-D dirichlet factors of 16 to 4 096
unknowns, the largest excess was 299 KB (16 x 16 cells, the store
evicting), and the RSS a march added stayed below the charge.  Under
glibc's default threshold, which rises after large frees, a mid-size
factor can exceed it: 917 KB resident against 646 KB charged at 1 536
unknowns, 1-D.  ``CACHE_BYTES`` caps the charge.  Past it the store
evicts the least recently used entries, never the one just built.
``cache_info`` reports its size.

``dense_spacetime_oracle`` stacks the stored step matrices into one sparse
block-bidiagonal space-time system and solves it with ``spsolve``; the
dense ``np.linalg.solve`` it replaced gave results that moved with the
BLAS thread count.

``scipy.sparse.linalg`` (``splu`` and ``spsolve``) loads on first use:
``spla`` is a stand-in that imports it on its first attribute lookup.  A
periodic run that solves only by Fourier, 1-D or 2-D, never loads it, nor
the ``scipy.linalg`` it pulls in, which saves about 10 MB of RSS and 0.1
to 0.2 s per process.  A run that will use it pays the import during set-up:
``cli.build_context`` calls ``_preload_linalg``, whose guess sits next to
the ``_assemble`` rule it predicts.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, SolverError
from .mesh import Mesh, Trajectory
from .problem import OperatorSpec

RESIDUAL_TOL = 1e-11
CACHE_BYTES = 256 * 2**20
SUPERLU_FIXED_BYTES = 512 * 2**10  # heap a SuperLU factor may hold beyond its nonzeros


class _DeferredLinalg:
    """Stands in for ``scipy.sparse.linalg`` and imports it on the first attribute lookup.

    Every lookup reads the imported module, so a patch of
    ``scipy.sparse.linalg.splu`` takes effect, and ``spla`` itself stays a
    module attribute that a wrapper may replace.
    """

    def __getattr__(self, name):
        import scipy.sparse.linalg

        return getattr(scipy.sparse.linalg, name)


spla = _DeferredLinalg()


@lru_cache(maxsize=8)
def _stencil(mesh: Mesh, N: int, entries: tuple):
    """(gather, indices, indptr, diag) of the tensor entries ``entries`` on one mesh.

    ``indices`` and ``indptr`` are the CSR pattern of I + L, which holds the
    diagonal and the positions that ``entries`` reach; L(t)'s values on it
    are ``gather @ A.ravel()``, where A is ``tensor(t, mesh.face_points)``,
    and ``diag`` holds the positions of the diagonal.  ``entries`` are flat
    indices (a * n + b) * N * N + i * N + j into a face tensor, increasing,
    and the gather reads only them.  The dirichlet projection is already
    applied: the pinned rows of L are empty, so their diagonals are gather
    rows without weights.
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
    gather = sp.csr_matrix((data, src, starts), shape=(len(keys), offset))
    indices = (keys % nn).astype(np.int32)
    indptr = np.searchsorted(keys, nn * np.arange(nn + 1)).astype(np.int32)
    for arr in (indices, indptr, diag):
        arr.flags.writeable = False  # shared by every assembly on this stencil
    return gather, indices, indptr, diag


@lru_cache(maxsize=8)
def _pruned_pattern(mesh: Mesh, N: int, entries: tuple, bits: bytes):
    """The positions of ``_stencil(mesh, N, entries)``'s pattern that the packed mask ``bits`` keeps.

    Returns their positions and the CSR pattern they form.  The exact zeros
    left on the stencil come from entries that are zero at some faces only
    or from cancellation, which repeat from step to step on a run's fields,
    so the steps of a run share one mask and one pruned pattern.
    """
    _, indices, indptr, _ = _stencil(mesh, N, entries)
    nz = np.flatnonzero(np.unpackbits(np.frombuffer(bits, np.uint8), count=len(indices)))
    pattern = (indices[nz], np.searchsorted(nz, indptr).astype(np.int32))
    for arr in pattern:
        arr.flags.writeable = False
    return (nz, *pattern)


def _shifted(mesh: Mesh, N: int, entries: tuple, data: np.ndarray, c: float) -> sp.csr_matrix:
    """I + c*L as a CSR matrix, from L's values ``data`` on the pattern of ``_stencil(mesh, N, entries)``.

    Scales ``data`` in place and adds 1 on the diagonal, which gives
    ``sp.identity(nn, format="csr") + c*L`` to the bit once exact zeros are
    dropped.  The data is an exact-size array; the pattern arrays are the
    cached ones of this stencil.
    """
    _, indices, indptr, diag = _stencil(mesh, N, entries)
    data *= c
    data[diag] += 1.0
    keep = data != 0
    if not keep.all():
        nz, indices, indptr = _pruned_pattern(mesh, N, entries, np.packbits(keep).tobytes())
        data = data[nz]
    nn = len(indptr) - 1
    return sp.csr_matrix((data, indices, indptr), shape=(nn, nn))


def _assemble(mesh: Mesh, spec: OperatorSpec, t: float, entries: tuple | None = None):
    """L(t)'s values, the entries of the stencil they sit on, and whether the Fourier path applies.

    The values sit on the pattern of ``_stencil(mesh, N, entries)``.
    ``entries`` None picks the tensor entries that are nonzero at some face,
    read from the face tensors evaluated here: an entry that is zero at
    every face adds only exact zeros to L, so leaving it out changes no
    value of I + tau*L.  The Fourier path needs a periodic mesh, of either
    dimension, and face tensors that are exactly equal at every face, which
    makes the operator block-circulant.
    """
    A = spec.coeffs.tensor(t, mesh.face_points)
    if not np.isfinite(A).all():
        raise ConfigError(f"non-finite coefficient at a face (t={t})")
    # equal on the faces of each axis, which translating by one cell maps onto
    # themselves; a periodic mesh has one face per cell on each axis
    fourier = mesh.periodic and all((B[1:] == B[:-1]).all() for B in np.split(A, mesh.n))
    flat = A.reshape(len(A), -1)  # one row per face, a copy only for a strided A
    if entries is None:
        # one contiguous row per entry: ``flat.any(axis=0)``, which reduces
        # across the rows of ``flat``, took 10 times longer at 64^2
        used = (flat != 0).T.copy().any(axis=1)
        # a field that is zero everywhere keeps one entry, so L has a pattern
        entries = tuple(np.flatnonzero(used).tolist()) or (0,)
    gather = _stencil(mesh, spec.coeffs.N, entries)[0]
    return gather @ flat.ravel(), entries, fourier


def _preload_linalg(mesh: Mesh, spec: OperatorSpec, oracle: bool) -> None:
    """Import ``scipy.sparse.linalg`` now when a run on (mesh, spec) is expected to use it.

    It is, when the run lists the space-time oracle (``spsolve``) or when
    ``_assemble`` will send the implicit matrices to SuperLU: sure to on a
    dirichlet mesh, and nearly sure to for an x-dependent field (every table
    is one).  A periodic run on an x-independent field solves by Fourier in
    1-D and 2-D alike, so it loads the module only for an oracle.  The guess
    only moves the import into set-up; a wrong one costs time, never
    correctness.
    """
    if oracle or not mesh.periodic or spec.coeffs.x_dependent:
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
    return sp.csr_matrix((_assemble(mesh, spec, t, entries)[0], indices, indptr),
                         shape=(nn, nn))


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

    A carried spectrum decays mode by mode through the subnormal range, where
    every product and butterfly costs many normal ones: after 5 000 steps of
    a 320-cell 1-D heat march, a carried step took 4 to 11 us longer than at
    the start.  A subnormal part adds nothing to a state of normal size, so
    the states stay bitwise what they were.
    """
    parts = spectrum.view(np.float64)
    parts[np.abs(parts) < _TINY] = 0.0


def _rfft(a: np.ndarray, cells: tuple) -> np.ndarray:
    """The real FFT of ``a`` over its trailing cell axes: ``rfft`` on 1-D, ``rfft2`` on 2-D.

    ``rfftn`` would serve both, at 2 to 3 times their call overhead.  The
    transform is looked up in ``np.fft`` on every call.
    """
    return np.fft.rfft(a) if len(cells) == 1 else np.fft.rfft2(a)


def _irfft(y: np.ndarray, cells: tuple) -> np.ndarray:
    """The inverse of ``_rfft``, back to ``cells`` (odd counts included)."""
    return np.fft.irfft(y, n=cells[0]) if len(cells) == 1 else np.fft.irfft2(y, s=cells)


class _FourierSolver:
    """Solves with a block-circulant implicit matrix D on a periodic mesh, 1-D or 2-D.

    The N columns of D at cell 0 are an (N, N, *cells) kernel; ``_rfft`` of
    the kernel is one N x N symbol block per wavenumber, inverted here once
    (by a reciprocal when N = 1).  A solve is ``_rfft``, one N x N product
    per wavenumber and ``_irfft``; ``trans="T"`` multiplies by the
    conjugate-transposed inverse blocks, the inverse symbol of D^T, taken
    from the one stored inverse as the solve runs.  Given the spectrum
    a previous solve returned with its right-hand side, a solve skips the
    forward transform and costs one inverse transform.
    """

    def __init__(self, D, N: int, cells):
        self.N, self.cells = N, tuple(cells)
        kernel = self.kernel(D, N, self.cells)
        symbol = np.moveaxis(_rfft(kernel, self.cells), (0, 1), (-2, -1))
        inv = 1.0 / symbol if N == 1 else np.linalg.inv(symbol)
        self.inv = np.ascontiguousarray(np.moveaxis(inv, (-2, -1), (0, 1)))
        self.nbytes = self.inv.nbytes

    @staticmethod
    def kernel(D, N: int, cells) -> np.ndarray:
        """[i, j, x] = D[i*C + x, j*C], read from D's CSR entries in the columns j*C."""
        C = D.shape[0] // N
        in_cols = D.indices == 0
        for j in range(1, N):
            in_cols |= D.indices == j * C
        pos = np.flatnonzero(in_cols)
        rows = np.searchsorted(D.indptr, pos, side="right") - 1
        kernel = np.zeros((N, N, C))
        kernel[rows // C, D.indices[pos] // C, rows % C] = D.data[pos]
        return kernel.reshape(N, N, *cells)

    def solve(self, rhs: np.ndarray, trans: str = "N", spectrum=None):
        """Solve for a flat (nn,) state or an (nn, B) block, bitwise column by column.

        ``spectrum`` is rhs's spectrum as an earlier solve returned it, or None
        to transform rhs.  Returns the solution and the spectrum it is the
        ``_irfft`` of, C-contiguous and shaped (B, N, *cells) with the last
        axis halved plus one.
        """
        # the block columns: of the inverse, or for D^T its conjugated rows
        M = ([self.inv[:, j] for j in range(self.N)] if trans == "N"
             else [self.inv[j].conj() for j in range(self.N)])
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

    ``DT`` is D's transpose for the residual checks of ``trans="T"`` solves,
    built once per entry; it is a view that shares D's arrays.
    """

    def __new__(cls, solver, D):
        pair = super().__new__(cls, (solver, D))
        pair.DT = D.T
        return pair


def _factor_bytes(pair) -> int:
    solver, D = pair
    if isinstance(solver, _FourierSolver):
        held = solver.nbytes
    else:
        held = 12 * int(solver.nnz) + SUPERLU_FIXED_BYTES
    return held + _csr_bytes(D)


class _StepStore:
    """Least-recently-used map from step keys to ``_Implicit`` pairs, bounded by CACHE_BYTES.

    Every caller gets the same stored object, so no caller may modify one.
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
    spectrum, never in the store: one state per scheme, for one march.
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

        The solver is a ``_FourierSolver`` when the face tensors of L(t_m)
        allow it (see ``_assemble``), otherwise the ``splu`` factorization of D.
        L(t_m)'s values become D's data in place; L itself is never stored.
        """
        def build():
            values, entries, fourier = _assemble(self.mesh, self.spec,
                                                 float(self.mesh.times[m]))
            D = _shifted(self.mesh, self.N, entries, values, self.mesh.tau)
            if fourier:
                return _Implicit(_FourierSolver(D, self.N, self.mesh.cells), D)
            D = D.tocsc()
            return _Implicit(spla.splu(D, permc_spec="MMD_AT_PLUS_A"), D)

        return _STORE.get((self._base, "const" if self._static else m), build)

    def solve_implicit(self, m: int, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve with the implicit matrix of step m; rhs is (nn,) or a block (nn, B).

        A Fourier solve of the state the previous Fourier solve returned
        reuses that state's spectrum, so a caller must not change a returned
        state in place and solve with it again.  Each column's relative
        residual, with the physical rhs, must stay within RESIDUAL_TOL, and a
        zero column must solve to exactly 0; a stale spectrum fails that check.
        """
        pair = self.implicit_lu(m)
        lu, D = pair
        if isinstance(lu, _FourierSolver):
            state, spectrum = self._carry
            x, spectrum = lu.solve(rhs, trans, spectrum if rhs is state else None)
            if m % 8 == 0:  # a part gone subnormal costs a few slow steps at most
                _flush_subnormals(spectrum)
            self._carry = (x, spectrum)
        else:
            x = lu.solve(rhs, trans=trans)
        res = (D if trans == "N" else pair.DT) @ x - rhs
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
        """One step t_m -> t_{m+1} of a flat state or an (nn, B) block; g is the source."""
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
    every slice or every row."""

    slices: Sequence[int] | None = None
    rows: np.ndarray | None = None

    @classmethod
    def on_cells(cls, mesh: Mesh, N: int, slices, cells) -> "_Keep":
        """Keep ``slices`` and all N components at the flat cells ``cells``."""
        return cls(slices, (np.arange(N)[:, None] * mesh.ncells + cells).ravel())


def _check_window(i0: int, i1: int) -> None:
    """Reject a window t_{i0}..t_{i1} that spans no time step."""
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
    """The time loop: steps over t_{i0}..t_{i1} of a flat state (nn,) or a block (nn, B).

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


def solve_backward(spec: OperatorSpec, mesh: Mesh, g, f, b: float, S: float) -> Trajectory:
    """March the adjoint problem from final data g at time b down to S.

    Each backward step is the exact matrix transpose of the corresponding
    forward step, so <forward(a), b> = <a, backward(b)> holds to roundoff
    for matching windows.  Sources pair with the slab convention of
    ``solve_forward``.
    """
    values = _solve(spec, mesh, g, f, S, b, "backward")
    return Trajectory(mesh, mesh.time_index(S), values)


ORACLE_CAP = 20_000


def dense_spacetime_oracle(spec: OperatorSpec, mesh: Mesh, g, f, s: float,
                           T: float) -> Trajectory:
    """Brute-force reference: one sparse direct solve of the stacked implicit Euler steps.

    Stacks each step's stored implicit matrix D on the block diagonal and
    -I below it, the block-bidiagonal space-time system over all unknown
    slices, and solves it with ``spsolve``; only meant as a test oracle,
    capped at ORACLE_CAP space-time unknowns.
    """
    scheme = ThetaScheme(mesh, spec)
    i0, i1 = mesh.time_index(s), mesh.time_index(T)
    _check_window(i0, i1)
    K = i1 - i0
    nn = scheme.nn
    if K * nn > ORACLE_CAP:
        raise ConfigError(f"oracle size {K * nn} exceeds cap {ORACLE_CAP}")
    src = _slab_source_fn(scheme, f)
    u0 = project_slice(mesh, _as_slice(mesh, scheme.N, g)).ravel()

    blocks = [[None] * K for _ in range(K)]
    minus_eye = -sp.identity(nn, format="csr")
    rhs = np.zeros(K * nn)
    rhs[:nn] = u0
    for k in range(K):
        m = i0 + k
        blocks[k][k] = scheme.implicit_lu(m + 1)[1]
        if k > 0:
            blocks[k][k - 1] = minus_eye
        gm = src(m)
        if gm is not None:
            rhs[k * nn:(k + 1) * nn] += mesh.tau * gm
    sol = spla.spsolve(sp.bmat(blocks, format="csc"), rhs)
    out = np.empty((K + 1, scheme.N, mesh.ncells))
    out[0] = u0.reshape(scheme.N, -1)
    out[1:] = sol.reshape(K, scheme.N, mesh.ncells)
    return Trajectory(mesh, i0, out)
