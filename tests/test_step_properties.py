"""Property tests of the step matrices over random strongly parabolic fields on tiny meshes.

Each field is lam*I plus a skew coupling plus a small symmetric perturbation
that moves with (t, x), so every (alpha, beta) entry is generally nonzero.
The step matrix must be ``sp.identity(nn) + tau*L`` to the bit, and the
checks of the exact identities the construction rests on (adjointness,
averaged duality, semigroup, and normalization on a torus) must pass at
their default tolerances, those of the acceptance battery.  Fields written
to CSV and read back by ``load_table`` hold the same step matrix property,
with entries that are zero at every face and entries that vanish in one
time slice only, so a step picks the tensor entries its stencil gathers.
"""

import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlab import (CoefficientField, Domain, Mesh, OperatorSpec, load_table,
                      validate_parabolicity)
from greenlab import solver
from greenlab import verify as V
from greenlab.solver import ThetaScheme

from conftest import assert_stored_step_exact, step_matrix

PROPERTY_SETTINGS = settings(max_examples=24, deadline=None, derandomize=True)


def parabolic_field(n, N, vary, seed):
    """lam*I + K - K^T + s(t, x)*P with |s| <= 1 and ||P||_2 = lam/4, so lam*3/4 is a lower bound.

    ``vary`` is "const" (s = 1), "t" (s = cos 5t) or "x" (s = sin(2 pi x_0 + 3t)).
    """
    rng = np.random.default_rng(seed)
    d = n * N
    lam = rng.uniform(0.5, 2.0)
    K = rng.standard_normal((d, d))
    P = rng.standard_normal((d, d))
    P = 0.25 * lam * (P + P.T) / np.linalg.norm(P + P.T, 2)
    base = lam * np.eye(d) + K - K.T
    # the flat index a * N + i of the quadratic form to the tensor's [a, b, i, j]
    B, Q = (M.reshape(n, N, n, N).transpose(0, 2, 1, 3) for M in (base, P))

    def fn(t, pts):
        if vary == "const":
            s = np.ones(len(pts))
        elif vary == "t":
            s = np.full(len(pts), math.cos(5.0 * t))
        else:
            s = np.sin(2 * np.pi * pts[:, 0] + 3.0 * t)
        return B + s[:, None, None, None, None] * Q

    # the Frobenius norm is convex in s, so its largest value sits at s = +-1
    Lam = max(np.linalg.norm(base + P), np.linalg.norm(base - P))
    return CoefficientField(n, N, 0.75 * lam, float(Lam), math.inf, f"random-{seed}", fn,
                            time_dependent=vary != "const", x_dependent=vary == "x")


@st.composite
def cases(draw):
    """(mesh, spec) of a random field on a mesh of 4 to 6 cells per axis."""
    n = draw(st.sampled_from([1, 2]))
    N = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(["periodic", "dirichlet"]))
    vary = draw(st.sampled_from(["const", "t", "x"]))
    cells = tuple(draw(st.lists(st.integers(4, 6), min_size=n, max_size=n)))
    coeffs = parabolic_field(n, N, vary, draw(st.integers(0, 2**32 - 1)))
    domain = Domain((0.0,) * n, (1.0, 1.5)[:n], mode)
    # a duality pair needs rho >= 2 max(h); its cylinders span 7 to 16 slabs
    rho = 2.0 * max(L / c for L, c in zip(domain.lengths, cells))
    tau = 1 / 64
    slabs = math.floor(rho * rho / tau * (1 + 1e-12))
    mesh = Mesh(domain, cells, tau=tau, t0=0.0, steps=2 * slabs + 4)
    return mesh, OperatorSpec(coeffs, domain)


def assert_step_matrices_exact(mesh, spec, steps):
    """D of each step is ``sp.identity(nn) + tau*assemble(...)`` to the bit; a Fourier
    step's stencil, built from one face tensor per axis, has that matrix's columns at
    cell 0 as its kernel."""
    scheme = ThetaScheme(mesh, spec)
    for m in steps:
        assert_stored_step_exact(scheme.implicit_lu(m), step_matrix(mesh, spec, m))


@PROPERTY_SETTINGS
@given(cases())
def test_step_matrix_is_identity_plus_tau_operator(case):
    mesh, spec = case
    assert validate_parabolicity(spec.coeffs, 8).ok
    assert_step_matrices_exact(mesh, spec, (1, mesh.steps))


@st.composite
def fourier_cases(draw):
    """(mesh, spec) of a random x-independent field, or its transpose, on a periodic mesh."""
    n = draw(st.sampled_from([1, 2]))
    N = draw(st.integers(1, 3))
    coeffs = parabolic_field(n, N, draw(st.sampled_from(["const", "t"])),
                             draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        coeffs = coeffs.transposed()
    cells = tuple(draw(st.lists(st.integers(4, 7), min_size=n, max_size=n)))
    domain = Domain((0.0,) * n, (1.0, 1.5)[:n], "periodic")
    return Mesh(domain, cells, tau=1 / 64, t0=0.0, steps=3), OperatorSpec(coeffs, domain)


@PROPERTY_SETTINGS
@given(fourier_cases())
def test_fourier_stencil_is_even_and_its_inverse_real(case):
    """A Fourier step stores the float64 inverse of its symbol's real part, the symbol of
    D's even part.  D is even in exact arithmetic, however nonsymmetric the tensor: B_{-d}
    equals B_d to the bit in 1-D, and in 2-D within a few ulps of its terms (the cross
    terms that cancel on the axis-0 offsets are summed in a different order at d and at
    -d).  So the real inverse solves D, forward and transposed, to roundoff."""
    mesh, spec = case
    scheme = ThetaScheme(mesh, spec)
    N, eps = spec.coeffs.N, np.finfo(float).eps
    rhs = np.sin(np.arange(scheme.nn) + 1.0)
    for m in range(1, mesh.steps + 1):
        lu, D = scheme.implicit_lu(m)
        assert isinstance(lu, solver._FourierSolver)
        assert lu.inv.dtype == np.float64
        assert lu.inv.shape == (N, N, *mesh.cells[:-1], mesh.cells[-1] // 2 + 1)
        # every term of a block is tau * T[a, b][i, j] times a weight of at most 1/h^2
        T = spec.coeffs.tensor(float(mesh.times[m]), mesh.face_points[:1])[0]
        term = mesh.tau * np.abs(T).max(axis=(0, 1)) / np.min(mesh.h) ** 2
        blocks = {d: b for d, b in zip(map(tuple, D.offsets.tolist()), D.blocks)}
        for d, block in blocks.items():
            mirror = blocks[tuple(-x for x in d)]
            if mesh.n == 1:
                assert mirror.tobytes() == block.tobytes(), d
            else:
                assert np.all(np.abs(mirror - block) <= 8 * eps * term), d
        for trans, mat in (("N", D), ("T", scheme.implicit_lu(m).DT)):
            x = scheme.solve_implicit(m, rhs, trans=trans)
            assert np.linalg.norm(mat.residual(x, rhs)) <= 1e-13 * np.linalg.norm(rhs)


TABLE_TAU = 1 / 64
TABLE_T1 = 2.5 * TABLE_TAU  # the second time slice of a table starts between t_2 and t_3


def table_field(n, N, nodes, slices, cross, zero, seed):
    """Node tensors of a table, shaped (slices, *nodes, n, n, N, N), and its (lam, Lam).

    Each node holds lam*I + K - K^T + s*P with a node's own s in [-1, 1] and
    ||P||_2 = lam/8.  Without ``cross`` every alpha != beta entry is zero;
    ``zero`` names one flat pair p != q of the quadratic form whose two
    entries are zero in the slices listed with it.  Dropping blocks and one
    symmetric pair leaves ||P'||_2 <= lam/4, so lam*3/4 is a lower bound.
    """
    rng = np.random.default_rng(seed)
    d = n * N
    lam = rng.uniform(0.5, 2.0)
    K = rng.standard_normal((d, d))
    P = rng.standard_normal((d, d))
    P = 0.125 * lam * (P + P.T) / np.linalg.norm(P + P.T, 2)
    s = rng.uniform(-1.0, 1.0, (slices, *nodes))
    flat = (lam * np.eye(d) + K - K.T) + s[..., None, None] * P
    if not cross:
        axis = np.arange(d) // N
        flat[..., axis[:, None] != axis[None, :]] = 0.0
    if zero is not None:
        (p, q), where = zero
        flat[where, ..., p, q] = flat[where, ..., q, p] = 0.0
    tensors = flat.reshape(slices, *nodes, n, N, n, N).swapaxes(-3, -2)
    Lam = float(np.max(np.sqrt(np.sum(tensors ** 2, axis=(-4, -3, -2, -1)))))
    return tensors, 0.75 * lam, Lam


def write_table(path, tensors, times, lengths):
    """Write node tensors as a ``load_table`` CSV; the nodes of an axis span its length."""
    slices, *nodes = tensors.shape[:-4]
    n, N = tensors.shape[-4], tensors.shape[-2]
    axes = [np.linspace(0.0, L, k) if k > 1 else np.array([0.5 * L])
            for L, k in zip(lengths, nodes)]
    lines = [f"# {n} {N} {slices} " + " ".join(map(str, nodes))]
    for idx in np.ndindex(tensors.shape):
        x = ",".join(repr(float(axes[ax][idx[1 + ax]])) for ax in range(n))
        tensor_index = ",".join(str(k + 1) for k in idx[-4:])
        lines.append(f"{times[idx[0]]!r},{x},{tensor_index},{float(tensors[idx])!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@st.composite
def table_cases(draw):
    """(mesh, spec) of a random table field on a mesh of 4 to 6 cells per axis."""
    n = draw(st.sampled_from([1, 2]))
    N = draw(st.integers(1, 3))
    slices = draw(st.sampled_from([1, 2]))
    nodes = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    cross = n == 2 and draw(st.booleans())
    # the flat pairs p != q of the quadratic form that may hold nonzero entries
    pairs = [(p, q) for p in range(n * N) for q in range(p)
             if cross or p // N == q // N]
    zero = None
    if pairs and draw(st.booleans()):
        where = draw(st.sampled_from([slice(None), slice(0, 1)][:slices]))
        zero = (draw(st.sampled_from(pairs)), where)
    mode = draw(st.sampled_from(["periodic", "dirichlet"]))
    cells = tuple(draw(st.lists(st.integers(4, 6), min_size=n, max_size=n)))
    domain = Domain((0.0,) * n, (1.0, 1.5)[:n], mode)
    tensors, lam, Lam = table_field(n, N, nodes, slices, cross, zero,
                                    draw(st.integers(0, 2**32 - 1)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.csv")
        write_table(path, tensors, (0.0, TABLE_T1), domain.lengths)
        coeffs = load_table(path, lam, Lam)
    mesh = Mesh(domain, cells, tau=TABLE_TAU, t0=0.0, steps=5)
    return mesh, OperatorSpec(coeffs, domain)


@PROPERTY_SETTINGS
@given(table_cases())
def test_table_step_matrix_is_identity_plus_tau_operator(case):
    mesh, spec = case
    assert_step_matrices_exact(mesh, spec, range(1, mesh.steps + 1))


def test_entry_vanishing_in_one_slice_gives_two_stencils(tmp_path):
    """A 2-D N = 2 table whose coupling entries vanish before TABLE_T1 only: the
    steps before it gather fewer tensor entries than those after, and every
    step matrix is still exact."""
    domain = Domain((0.0, 0.0), (1.0, 1.5), "dirichlet")
    tensors, lam, Lam = table_field(2, 2, (2, 3), 2, True, ((1, 0), slice(0, 1)), 5)
    path = tmp_path / "vanishing.csv"
    write_table(path, tensors, (0.0, TABLE_T1), domain.lengths)
    mesh = Mesh(domain, (5, 4), tau=TABLE_TAU, t0=0.0, steps=5)
    spec = OperatorSpec(load_table(path, lam, Lam), domain)
    entries = [solver._used_entries(solver._assemble(mesh, spec, float(t))[0])
               for t in mesh.times[1:]]
    assert entries[0] == entries[1] != entries[2] == entries[4]
    assert set(entries[0]) < set(entries[2])
    assert_step_matrices_exact(mesh, spec, range(1, mesh.steps + 1))


def duality_pair(mesh):
    """Y at the first interior cell after rho^2, X at the last one 4 steps later."""
    rho = 2.0 * float(np.max(mesh.h))
    slabs = mesh.slab_count(rho)
    inner = np.flatnonzero(mesh.interior_mask)
    Y = (float(mesh.times[slabs]), mesh.centers[inner[0]])
    X = (float(mesh.times[slabs + 4]), mesh.centers[inner[-1]])
    return Y, X, rho, rho


@PROPERTY_SETTINGS
@given(cases())
def test_adjointness_duality_and_semigroup(case):
    mesh, spec = case
    N, T = spec.coeffs.N, float(mesh.times[-1])
    rng = np.random.default_rng(mesh.ncells * N)
    a, b = rng.standard_normal((2, N, mesh.ncells))
    pair = duality_pair(mesh)
    records = [V.check_adjoint(spec, mesh, a, b, 0.0, T),
               V.check_duality(spec, mesh, [pair], T, 0.0),
               V.check_semigroup(spec, mesh, 0.0, pair[0][0], T)]
    if mesh.periodic:
        records.append(V.check_normalization(spec, mesh, 0.0, T))
    for rec in records:
        assert rec.status == "pass", (rec.name, rec.fitted)


def test_duality_reads_each_block_at_its_scale():
    """A block near the identity: its off-diagonal averages are 7e-7, and forward
    and adjoint agree to roundoff of the block, far below 1e-10 of it."""
    domain = Domain((0.0,), (1.0,), "periodic")
    mesh = Mesh(domain, (4,), tau=1 / 64, t0=0.0, steps=36)
    spec = OperatorSpec(parabolic_field(1, 2, "const", 1), domain)
    pair = duality_pair(mesh)
    assert pair[2] == 0.5
    rec = V.check_duality(spec, mesh, [pair], float(mesh.times[-1]), 0.0)
    assert rec.status == "pass", rec.fitted
