import copy

import numpy as np
import pytest
import scipy.sparse as sp

from greenlab import Domain, Mesh, OperatorSpec, make_preset, solver

from reference import assemble


@pytest.fixture
def periodic_1d():
    return Domain((0.0,), (1.0,), "periodic")


@pytest.fixture
def dirichlet_1d():
    return Domain((0.0,), (1.0,), "dirichlet")


@pytest.fixture
def periodic_2d():
    return Domain((0.0, 0.0), (1.0, 1.0), "periodic")


@pytest.fixture
def mesh32(periodic_1d):
    return Mesh(periodic_1d, (32,), tau=1.0 / 512, t0=0.0, steps=64)


@pytest.fixture
def heat_spec(periodic_1d):
    return OperatorSpec(make_preset("heat", n=1), periodic_1d)


def bundle_1d(domain):
    """The bundled 1d presets used by the dynamics acceptance checks."""
    h = domain.lengths[0] / 64  # checkerboard tiles aligned to a 64-cell grid
    return [
        OperatorSpec(make_preset("heat", n=1), domain),
        OperatorSpec(make_preset("t-oscillating", n=1, period=0.11), domain),
        OperatorSpec(make_preset("x-oscillatory", n=1,
                                 wavelength=float(domain.lengths[0])), domain),
        OperatorSpec(make_preset("checkerboard", n=1, period=float(2 * h)), domain),
        OperatorSpec(make_preset("almost-diagonal", eps=0.1), domain),
        OperatorSpec(make_preset("rotating", w0=0.5, omega=2.0), domain),
    ]


def step_matrix(mesh, spec, m):
    """D = I + tau*L(t_m) from the reference ``assemble``, as a CSR matrix."""
    nn = spec.coeffs.N * mesh.ncells
    return sp.identity(nn, format="csr") + mesh.tau * assemble(mesh, spec, float(mesh.times[m]))


def cell0_kernel(D, N, cells):
    """[i, j, x] = D[i*C + x, j*C]: a sparse D's N columns at cell 0, shaped (N, N, *cells)."""
    cols = D[:, np.arange(N) * int(np.prod(cells))].toarray()
    return np.ascontiguousarray(cols.T.reshape(N, N, *cells).swapaxes(0, 1))


def assert_stored_step_exact(pair, want):
    """A stored step holds D = ``want`` to the bit: a SuperLU step its CSC matrix, a
    Fourier step a stencil whose kernel is ``want``'s N columns at cell 0."""
    lu, D = pair
    if isinstance(lu, solver._FourierSolver):
        kernel = cell0_kernel(want, D.N, D.cells)
        assert D.kernel().tobytes() == kernel.tobytes()
        return
    want = want.tocsc()
    assert type(D) is type(want)
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(D, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr


def rng_slice(rng, N, mesh):
    return rng.standard_normal((N, mesh.ncells))


def _passed_through(lu, spoil):
    """A step solver that solves like ``lu`` and hands each solution to ``spoil``.

    A Fourier solver stays one, so ``solve_implicit`` takes the same branch
    as with ``lu``; a SuperLU factor is wrapped.
    """
    if isinstance(lu, solver._FourierSolver):
        fake = copy.copy(lu)

        def solve(b, trans="N", spectrum=None):
            x, y = lu.solve(b, trans, spectrum)
            return spoil(x), y

        fake.solve = solve
        return fake

    class Spoiled:
        def solve(self, b, trans="N"):
            return spoil(lu.solve(b, trans=trans))

    return Spoiled()


def spoiled(lu, column):
    """A step solver that solves like ``lu`` but scales ``column`` of a block by 1 + 1e-4."""
    def spoil(x):
        x[:, column] *= 1 + 1e-4
        return x

    return _passed_through(lu, spoil)


def plus_one(lu):
    """A step solver that solves like ``lu`` and adds 1 to every entry of the solution."""
    return _passed_through(lu, lambda x: x + 1.0)
