import math

import numpy as np
import pytest

from greenlab import (ConfigError, Domain, Mesh, OperatorSpec, SolverError, heat_kernel,
                      make_preset, wrapped_heat_kernel)
from greenlab import green, solver
from greenlab import verify as V
from greenlab.solver import ThetaScheme

from conftest import spoiled, step_matrix
from reference import (column, cylinder_average, image_sum_heat_kernel, padded, propagator,
                       solve_forward, value_at)


def fine_heat_setup(cells=128, extra=0):
    dom = Domain((0.0,), (1.0,), "periodic")
    h = 1.0 / cells
    tau = h * h / 2
    steps = int(round((8 * h) ** 2 / tau)) + int(round(0.05 / tau)) + extra
    mesh = Mesh(dom, (cells,), tau=tau, t0=0.0, steps=steps)
    spec = OperatorSpec(make_preset("heat", n=1), dom)
    return dom, mesh, spec


def duhamel_slice(spec, mesh, slab_source, i0, K):
    """Duhamel's formula from zero data at t_i0: u(t_K) = tau sum_m P(t_K, t_m) g_m.

    An implicit Euler step from t_m is P(t_{m+1}, t_m) = (I + tau L(t_{m+1}))^{-1}, so
    the slab source g_m (a flat array, or None) enters u(t_K) as tau P(t_K, t_m) g_m.
    """
    u = np.zeros(spec.coeffs.N * mesh.ncells)
    for m in range(i0, K):
        g = slab_source(m)
        if g is not None:
            P = propagator(spec, mesh, float(mesh.times[m]), float(mesh.times[K]))
            u += mesh.tau * (P @ g)
    return u


class TestHeatKernelHelpers:
    def test_free_kernel_spot_values(self):
        assert heat_kernel(1, 0.25, 1.0) == pytest.approx(math.pi ** -0.5 * math.e ** -1,
                                                          rel=1e-12)
        assert heat_kernel(1, 1.0, 0.0) == pytest.approx((4 * math.pi) ** -0.5, rel=1e-12)
        assert heat_kernel(2, 1.0, 0.0) == pytest.approx((4 * math.pi) ** -1, rel=1e-12)

    @pytest.mark.parametrize("dx", [[[0.3]], [[0.1, 0.2, -0.3], [0.0, 0.0, 0.0], [0.4, -0.1, 0.05]]])
    def test_wrapped_reduces_to_free_for_large_box(self, dx):
        dx = np.array(dx)
        n = dx.shape[1]
        free = heat_kernel(n, 0.01, np.linalg.norm(dx, axis=1))
        wrapped = wrapped_heat_kernel(n, 0.01, dx, [50.0] * n)
        assert wrapped == pytest.approx(free, rel=1e-14)

    @pytest.mark.parametrize("t", [1e-3, 0.05, 0.3])
    @pytest.mark.parametrize("cells", [(64,), (48,), (64, 64), (32, 48)])
    def test_wrapped_product_is_the_image_sum(self, cells, t):
        """The product of 1-D wrapped kernels is the 1-D image sum to the bit, and the 2-D
        image sum over 13 x 13 shifts within 1e-13 relative (2.9e-14 at t = 1e-3)."""
        n = len(cells)
        mesh = Mesh(Domain((0.0,) * n, (1.0, 1.5)[:n], "periodic"), cells, tau=1 / 256,
                    t0=0.0, steps=4)
        gaps = mesh.wrap_gaps(mesh.centers - mesh.centers[5][None, :])
        got = wrapped_heat_kernel(n, t, gaps, mesh.domain.lengths)
        want = image_sum_heat_kernel(n, t, gaps, mesh.domain.lengths)
        if n == 1:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(got - want) / want) <= 1e-13


class TestAveragedColumn:
    def test_zero_before_source_window(self, mesh32, heat_spec):
        rho = 4 / 32
        col = column(heat_spec, mesh32, (24 / 512, mesh32.centers[16]), 1, rho, 48 / 512)
        full = padded(col)
        nslab = mesh32.slab_count(rho)
        assert np.all(full[:24 - nslab] == 0.0)
        assert np.any(full[24] != 0.0)
        assert np.all(value_at(col, 0.0, mesh32.centers[3]) == 0.0)

    def test_decoupled_pair_second_component_zero(self, mesh32, periodic_1d):
        spec = OperatorSpec(make_preset("decoupled-heat-pair", n=1), periodic_1d)
        col = column(spec, mesh32, (24 / 512, mesh32.centers[16]), 1, 4 / 32, 48 / 512)
        assert np.all(col.values[:, 1, :] == 0.0)
        assert np.any(col.values[:, 0, :] != 0.0)

    def test_cylinder_average_representation_oracle(self):
        # far from the pole, the column value is the cylinder average of the
        # kernel; quadrature of the wrapped kernel over the discrete source
        # support reproduces it within a percent
        dom, mesh, spec = fine_heat_setup()
        rho = 4 * mesh.h[0]
        nslab = mesh.slab_count(rho)
        i_pole = nslab + 2
        s = float(mesh.times[i_pole])
        y = mesh.centers[64]
        T = float(mesh.times[i_pole + int(round(0.04 / mesh.tau))])
        col = column(spec, mesh, (s, y), 1, rho, T)
        ball = mesh.ball_cells(y, rho)
        t_probe = float(mesh.times[mesh.time_index(T)])
        for cell in (84, 96):
            x = mesh.centers[cell]
            acc = []
            for m in range(i_pole - nslab, i_pole):
                t_src = float(mesh.times[m + 1])
                gaps = x[None, :] - mesh.centers[ball]
                acc.append(np.mean(wrapped_heat_kernel(1, t_probe - t_src, gaps,
                                                       mesh.domain.lengths)))
            oracle = float(np.mean(acc))
            got = float(value_at(col, t_probe, x)[0])
            assert got == pytest.approx(oracle, rel=0.01)

    def test_rho_below_resolution_rejected(self, mesh32, heat_spec):
        with pytest.raises(ConfigError):
            column(heat_spec, mesh32, (24 / 512, mesh32.centers[16]), 1, 1.5 / 32, 48 / 512)

    def test_time_clipping_rejected(self, mesh32, heat_spec):
        with pytest.raises(ConfigError):
            column(heat_spec, mesh32, (4 / 512, mesh32.centers[16]), 1, 4 / 32, 48 / 512)

    def test_dirichlet_spatial_clipping_allowed(self, dirichlet_1d):
        mesh = Mesh(dirichlet_1d, (32,), tau=1 / 512, t0=0.0, steps=64)
        spec = OperatorSpec(make_preset("heat", n=1), dirichlet_1d)
        # pole two cells from the pinned layer: the rho-ball is clipped
        col = column(spec, mesh, (24 / 512, mesh.centers[2]), 1, 4 / 32, 48 / 512)
        assert np.all(col.values[:, :, 0] == 0.0)

    def test_pole_on_boundary_layer_rejected(self, dirichlet_1d):
        mesh = Mesh(dirichlet_1d, (32,), tau=1 / 512, t0=0.0, steps=64)
        spec = OperatorSpec(make_preset("heat", n=1), dirichlet_1d)
        with pytest.raises(ConfigError):
            column(spec, mesh, (24 / 512, mesh.centers[0]), 1, 4 / 32, 48 / 512)


class TestTransposeColumn:
    def test_zero_after_source_window(self, mesh32, heat_spec):
        sigma = 4 / 32
        col = column(heat_spec, mesh32, (24 / 512, mesh32.centers[16]), 1, sigma, 0.0, "backward")
        nslab = mesh32.slab_count(sigma)
        assert col.i0 == 0
        assert np.all(value_at(col, 60 / 512, mesh32.centers[10]) == 0.0)
        assert np.all(padded(col)[24 + nslab + 1:] == 0.0)

    def test_averaged_duality_heat_and_rotating(self, mesh32, periodic_1d):
        for preset, tol in (("heat", 1e-12), ("rotating", 1e-10)):
            kw = {"n": 1} if preset == "heat" else {"omega": 2.0}
            spec = OperatorSpec(make_preset(preset, **kw), periodic_1d)
            N = spec.coeffs.N
            Y = (16 / 512, mesh32.centers[8])
            X = (44 / 512, mesh32.centers[24])
            rho = sigma = 4 / 32
            fwd = {k: column(spec, mesh32, Y, k, rho, 64 / 512)
                   for k in range(1, N + 1)}
            bwd = {l: column(spec, mesh32, X, l, sigma, 0.0, "backward")
                   for l in range(1, N + 1)}
            for k in range(1, N + 1):
                rhs = cylinder_average(fwd[k], X, sigma, "plus")
                for l in range(1, N + 1):
                    lhs = float(cylinder_average(bwd[l], Y, rho, "minus")[k - 1])
                    den = max(abs(lhs), abs(float(rhs[l - 1])))
                    assert abs(lhs - rhs[l - 1]) <= tol * den

    def test_static_symmetric_reflection_symmetry(self, mesh32, periodic_1d):
        spec = OperatorSpec(make_preset("x-oscillatory", n=1), periodic_1d)
        K = mesh32.steps
        sigma = 4 / 32
        nslab = mesh32.slab_count(sigma)
        it = 40
        bwd = column(spec, mesh32, (it / 512, mesh32.centers[20]), 1, sigma, 0.0, "backward")
        fwd = column(spec, mesh32, ((K - it) / 512, mesh32.centers[20]),
                     1, sigma, float(mesh32.times[-1]))
        pad_b = padded(bwd)
        pad_f = padded(fwd)
        assert np.allclose(pad_b, pad_f[::-1], rtol=0, atol=1e-13)


class TestPropagator:
    def test_one_step_heat_is_resolvent(self, mesh32, heat_spec):
        P = propagator(heat_spec, mesh32, 0.0, 1 / 512)
        D = step_matrix(mesh32, heat_spec, 1).toarray()
        assert np.allclose(P @ D, np.eye(32), rtol=0, atol=1e-12)

    def test_composition_and_rowsums(self, mesh32, periodic_1d):
        spec = OperatorSpec(make_preset("rotating", omega=2.0), periodic_1d)
        P_ts = propagator(spec, mesh32, 0.0, 40 / 512)
        P_tr = propagator(spec, mesh32, 16 / 512, 40 / 512)
        P_rs = propagator(spec, mesh32, 0.0, 16 / 512)
        resid = np.max(np.abs(P_ts - P_tr @ P_rs)) / np.max(np.abs(P_ts))
        assert resid <= 1e-12
        # the normalization march of the constant states sums the dense P's columns
        R = V._row_sums(spec, mesh32, 0.0, 40 / 512)
        assert np.max(np.abs(R - P_ts.reshape(2, 32, 2, 32).sum(axis=3))) <= 1e-14

    def test_green_block_sampling(self, mesh32, heat_spec):
        P = propagator(heat_spec, mesh32, 0.0, 8 / 512)
        blk = P.reshape(1, 32, 1, 32)[:, 10, :, 10] / mesh32.volume
        assert blk.shape == (1, 1)
        assert blk[0, 0] > 0

    @pytest.mark.parametrize("mode", ["periodic", "dirichlet"])  # Fourier and SuperLU
    def test_spoiled_column_raises(self, monkeypatch, mode):
        domain = Domain((0.0,), (1.0,), mode)
        mesh = Mesh(domain, (32,), tau=1.0 / 512, t0=0.0, steps=64)
        spec = OperatorSpec(make_preset("heat", n=1), domain)
        real = ThetaScheme.implicit_lu
        kinds = []

        def spoiling(self, m):
            lu, D = real(self, m)
            kinds.append(isinstance(lu, solver._FourierSolver))
            return solver._Implicit(spoiled(lu, 5), D)

        monkeypatch.setattr(ThetaScheme, "implicit_lu", spoiling)
        with pytest.raises(SolverError, match="residual"):
            propagator(spec, mesh, 0.0, 4 / 512)
        assert kinds == [mode == "periodic"]

    @pytest.mark.parametrize("case", ["heat-1d", "rotating-1d", "fourier-2d"])
    def test_columns_are_single_column_marches(self, monkeypatch, case):
        """Column j of P is the forward march of unit state j, bit for bit, and P
        steps through ``ThetaScheme.forward_step`` once per step."""
        n = 2 if case == "fourier-2d" else 1
        domain = Domain((0.0,) * n, (1.0,) * n, "periodic")
        mesh = Mesh(domain, (8,) * n if n == 2 else (16,), tau=1 / 512, t0=0.0, steps=8)
        coeffs = {"heat-1d": make_preset("heat", n=1),
                  "rotating-1d": make_preset("rotating", omega=2.0),
                  "fourier-2d": make_preset("decoupled-heat-pair", n=2)}[case]
        spec = OperatorSpec(coeffs, domain)
        stepped = []
        real = ThetaScheme.forward_step
        monkeypatch.setattr(ThetaScheme, "forward_step",
                            lambda self, m, *args: stepped.append(m) or real(self, m, *args))
        i0, i1 = 2, 7
        s, t = float(mesh.times[i0]), float(mesh.times[i1])
        P = propagator(spec, mesh, s, t)
        assert stepped == list(range(i0, i1))
        for j in range(P.shape[1]):
            e = np.zeros(P.shape[0])
            e[j] = 1.0
            col = solve_forward(spec, mesh, e.reshape(coeffs.N, -1), None, s, t).values[-1]
            assert col.ravel().tobytes() == P[:, j].tobytes()

    def test_scaling_covariance_bitwise(self, mesh32, periodic_1d):
        # doubling the coefficients and halving the step leaves P unchanged
        spec1 = OperatorSpec(make_preset("heat", n=1), periodic_1d)
        spec2 = OperatorSpec(make_preset("diag", values=(2.0,)), periodic_1d)
        mesh_half = Mesh(periodic_1d, (32,), tau=1 / 1024, t0=0.0, steps=128)
        P1 = propagator(spec1, mesh32, 0.0, 16 / 512)
        P2 = propagator(spec2, mesh_half, 0.0, 16 / 1024)  # same step count
        assert np.array_equal(P1, P2)


class TestRhoRefinement:
    def test_heat_extrapolation_hits_kernel(self):
        """The rho -> 0 weights that ``heat-kernel`` combines its radii with recover the
        kernel at a probe within 1%, and the radii's errors fall at an order near 2."""
        dom, mesh, spec = fine_heat_setup()
        h = mesh.h[0]
        rhos = np.array([8 * h, 6 * h, 4 * h])
        s = float(mesh.times[mesh.slab_count(rhos[0])])
        y = mesh.centers[64]
        t_probe = float(mesh.times[mesh.steps])
        x_probe = mesh.centers[96]
        vals = np.array([value_at(column(spec, mesh, (s, y), 1, r, t_probe), t_probe,
                                  x_probe)[0] for r in rhos])
        extrapolated = green._rho_weights(rhos) @ vals
        ref = wrapped_heat_kernel(1, t_probe - s, (x_probe - y)[None, :], dom.lengths)[0]
        assert extrapolated == pytest.approx(ref, rel=0.01)
        order = np.polyfit(np.log(rhos), np.log(np.abs(vals - extrapolated)), 1)[0]
        assert 1.2 <= order <= 2.8


class TestRepresentation:
    def test_agreement_with_solve_forward(self, mesh32, periodic_1d):
        spec = OperatorSpec(make_preset("rotating", omega=2.0), periodic_1d)

        def f(t):
            if t > 32 / 512 + 1e-12:
                return np.zeros((2, 32))
            prof = np.sin(2 * math.pi * mesh32.centers[:, 0]) * math.cos(20 * t)
            return np.stack([prof, 0.3 * prof])

        b = solve_forward(spec, mesh32, None, f, 0.0, 32 / 512)
        # the slab source of step m is f(t_{m+1})
        for K in (16, 32):
            a = duhamel_slice(spec, mesh32, lambda m: f(float(mesh32.times[m + 1])).ravel(), 0, K)
            assert np.max(np.abs(a - b.values[K].ravel())) <= 1e-9 * np.max(np.abs(b.values))

    def test_zero_source(self, mesh32, heat_spec):
        traj = solve_forward(heat_spec, mesh32, None, lambda t: np.zeros((1, 32)), 0.0, 16 / 512)
        assert np.all(traj.values == 0.0)

    def test_mollified_source_reproduces_column(self, mesh32, heat_spec):
        rho = 4 / 32
        Y = (24 / 512, mesh32.centers[16])
        col = column(heat_spec, mesh32, Y, 1, rho, 48 / 512)
        from greenlab.green import _mollifier
        g = _mollifier(mesh32, 1, Y[1], rho, 1)
        nslab = mesh32.slab_count(rho)
        active = range(24 - nslab, 24)
        assert col.i0 == 24 - nslab
        for K in (20, 24, 36, 48):
            u = duhamel_slice(heat_spec, mesh32, lambda m: g if m in active else None,
                              24 - nslab, K)
            assert np.max(np.abs(u - col.values[K - col.i0, 0])) <= \
                1e-11 * np.max(col.values)


class TestApplyInitial:
    def test_constant_preserved_periodic(self, mesh32, heat_spec):
        g = np.full((1, 32), 1.7)
        out = propagator(heat_spec, mesh32, 0.0, 24 / 512) @ g.ravel()
        assert np.allclose(out, g.ravel(), rtol=0, atol=1e-12)

    def test_point_mass_gives_green_column_slice(self, mesh32, heat_spec):
        g = np.zeros((1, 32))
        g[0, 16] = 1.0 / mesh32.volume
        out = solve_forward(heat_spec, mesh32, g, None, 0.0, 16 / 512).values[-1]
        P = propagator(heat_spec, mesh32, 0.0, 16 / 512)
        assert np.allclose(out[0], P[:, 16] / mesh32.volume, rtol=0, atol=1e-12)

    def test_equals_solve_forward(self, mesh32, periodic_1d):
        spec = OperatorSpec(make_preset("almost-diagonal"), periodic_1d)
        g = np.random.default_rng(1).standard_normal((2, 32))
        out = propagator(spec, mesh32, 0.0, 24 / 512) @ g.ravel()
        traj = solve_forward(spec, mesh32, g, None, 0.0, 24 / 512)
        assert np.max(np.abs(out - traj.values[-1].ravel())) <= 1e-12 * np.max(np.abs(out))

    def test_needs_future_time(self, mesh32, heat_spec):
        with pytest.raises(ConfigError):
            propagator(heat_spec, mesh32, 8 / 512, 8 / 512)


class TestBlockSampling:
    def test_block_columns_match_scalar(self, mesh32, periodic_1d):
        spec = OperatorSpec(make_preset("almost-diagonal"), periodic_1d)
        i0, block = green._green_block(spec, mesh32, [((24 / 512, mesh32.centers[8]), 4 / 32)],
                                       [1, 2], 56 / 512, "forward")
        blk = block[0, :, mesh32.time_index(48 / 512) - i0, :, 20].T
        assert blk.shape == (2, 2)
        # symmetric coupling: the block is symmetric for this preset
        assert blk[0, 1] == pytest.approx(blk[1, 0], rel=1e-9)

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    def test_block_columns_bitwise_equal_single_columns(self, boundary):
        dom = Domain((0.0,), (1.0,), boundary)
        mesh = Mesh(dom, (32,), tau=1 / 512, t0=0.0, steps=64)
        spec = OperatorSpec(make_preset("rotating", w0=0.5, omega=2.0), dom)
        Y = (20 / 512, mesh.centers[9])
        X = (44 / 512, mesh.centers[22])
        for pole, r, horizon, direction in ((Y, 4 / 32, 53 / 512, "forward"),
                                            (X, 3 / 32, 11 / 512, "backward")):
            i0, block = green._green_block(spec, mesh, [(pole, r)], [1, 2], horizon, direction)
            for k, col in zip((1, 2), block[0]):
                one = column(spec, mesh, pole, k, r, horizon, direction)
                assert i0 == one.i0
                assert col.shape == one.values.shape
                assert col.tobytes() == one.values.tobytes()
                # the rotating coupling reaches both field components of every column
                assert np.abs(col).max(axis=(0, 2)).min() > 0

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    def test_packed_sources_are_their_own_columns(self, boundary, direction):
        """Sources at one time, of two radii, march as one block: each column is bitwise
        its own march inside that march's window and exactly 0 outside it."""
        dom = Domain((0.0,), (1.0,), boundary)
        mesh = Mesh(dom, (32,), tau=1 / 512, t0=0.0, steps=64)
        spec = OperatorSpec(make_preset("rotating", w0=0.5, omega=2.0), dom)
        t, horizon = (20 / 512, 53 / 512) if direction == "forward" else (44 / 512, 11 / 512)
        sources = [((t, mesh.centers[c]), r) for c in (9, 14) for r in (4 / 32, 3 / 32)]
        i0, block = green._green_block(spec, mesh, sources, [1, 2], horizon, direction)
        assert block.shape[:2] == (4, 2)
        lengths = set()
        for cols, (pole, r) in zip(block, sources):
            for col, one in zip(cols, [column(spec, mesh, pole, k, r, horizon, direction)
                                       for k in (1, 2)]):
                inside = slice(one.i0 - i0, one.i0 - i0 + len(one.values))
                assert col[inside].tobytes() == one.values.tobytes()
                assert not np.delete(col, np.arange(len(col))[inside], axis=0).any()
                lengths.add(len(one.values))
        # the smaller radius's own march is shorter: its packed column holds zeros
        assert min(lengths) < block.shape[2] == max(lengths)

    def test_packs_by_pole_time_within_the_spectrum_bound(self, periodic_2d):
        """A 64 x 64 column's spectrum is 64 x 33 x 16 bytes: 3 one-column sources share
        a block, sources at another pole time take their own, and a source over the
        bound marches alone."""
        mesh = Mesh(periodic_2d, (64, 64), tau=2.0 ** -12, t0=0.0, steps=8)
        line = Mesh(Domain((0.0,), (1.0,), "periodic"), (32,), tau=1 / 512, t0=0.0, steps=8)
        steps = (2, 2, 3, 2, 2, 3)
        poles = [(k * mesh.tau, mesh.centers[0]) for k in steps]
        assert green._packs(mesh, poles, 1, 1) == [[0, 1, 3], [4], [2, 5]]
        assert green._packs(mesh, poles, 2, 1) == [[0], [1], [3], [4], [2], [5]]
        assert green._packs(mesh, poles, 2, 2) == [[0], [1], [3], [4], [2], [5]]
        poles = [(k * line.tau, line.centers[0]) for k in steps]
        assert green._packs(line, poles, 2, 2) == [[0, 1, 3, 4], [2, 5]]


class TestScalarNonnegativity:
    def test_propagator_entries_nonnegative_scalar_theta1(self, mesh32, periodic_1d):
        # implicit Euler with the divergence-form stencil is an M-matrix solve
        for name, kw in (("heat", {"n": 1}),
                         ("checkerboard", {"n": 1, "period": 1 / 16}),
                         ("x-oscillatory", {"n": 1})):
            spec = OperatorSpec(make_preset(name, **kw), periodic_1d)
            P = propagator(spec, mesh32, 0.0, 24 / 512)
            assert P.min() >= -1e-15


class TestTransposeLimitConsistency:
    def test_extrapolated_forward_and_adjoint_values_agree(self, periodic_1d):
        # the rho -> 0 limits of the forward and adjoint constructions are
        # transposes of each other; mollified columns agree to the
        # extrapolation residual
        mesh = Mesh(periodic_1d, (64,), tau=1 / 4096, t0=0.0, steps=512)
        spec = OperatorSpec(make_preset("rotating", omega=2.0), periodic_1d)
        radii = [8 / 64, 6 / 64, 4 / 64]
        Y = (float(mesh.times[128]), mesh.centers[16])
        X = (float(mesh.times[384]), mesh.centers[48])
        from greenlab.green import _rho_weights
        w = _rho_weights(np.asarray(radii))
        fwd = np.zeros((2, 2))
        bwd = np.zeros((2, 2))
        for k in (1, 2):
            for wj, r in zip(w, radii):
                colf = column(spec, mesh, Y, k, r, X[0])
                fwd[:, k - 1] += wj * value_at(colf, X[0], X[1])
                colb = column(spec, mesh, X, k, r, Y[0], "backward")
                bwd[:, k - 1] += wj * value_at(colb, Y[0], Y[1])
        assert np.allclose(fwd, bwd.T, rtol=0.02, atol=1e-4 * np.abs(fwd).max())

    def test_propagator_transpose_is_exact_discrete_adjoint_kernel(self, mesh32,
                                                                   periodic_1d):
        spec = OperatorSpec(make_preset("almost-diagonal"), periodic_1d)
        P = propagator(spec, mesh32, 0.0, 24 / 512)
        from greenlab.solver import ThetaScheme
        scheme = ThetaScheme(mesh32, spec)
        b = np.random.default_rng(0).standard_normal(64)
        w = b.copy()
        for m in range(23, -1, -1):
            w = scheme.backward_step(m, w)
        assert np.allclose(P.T @ b, w, rtol=0, atol=1e-13)
