import gc
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from importlib import resources

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlab import (CoefficientField, ConfigError, Domain, Mesh, OperatorSpec, SolverError,
                      Trajectory, dense_spacetime_oracle, make_preset, parabolic_distance,
                      wrapped_heat_kernel)
from greenlab import cli, green, solver
from greenlab.solver import ThetaScheme
from greenlab.verify import _cylinder_energies, _face_cells, check_normalization

from conftest import (assert_stored_step_exact, bundle_1d, cell0_kernel, plus_one, spoiled,
                      step_matrix)
from reference import assemble, column, cylinder, solve_backward, solve_forward, transposed


def dirichlet_energy(mesh, slc):
    """Sum over the operator's faces of |face difference|^2 times the cell volume."""
    return mesh.volume * sum(float(np.sum(mesh.face_difference(slc, ax) ** 2))
                             for ax in range(mesh.n))


def slice_l2(traj):
    """Cell-volume weighted L2 norm of every slice of a trajectory."""
    return np.sqrt(traj.mesh.volume * np.sum(traj.values ** 2, axis=(1, 2)))


def step_forward(u, mesh, spec):
    """One implicit Euler step from t_0, as a one-step forward solve."""
    return solve_forward(spec, mesh, u, None, float(mesh.times[0]),
                         float(mesh.times[1])).values[-1]


class TestMesh:
    def test_cell_minimum(self, periodic_1d):
        with pytest.raises(ConfigError):
            Mesh(periodic_1d, (3,), tau=0.01, t0=0.0, steps=4)

    def test_parabolic_distance(self):
        assert parabolic_distance((1.0, [0.0]), (0.0, [0.5])) == 1.0
        assert parabolic_distance((0.09, [0.0]), (0.0, [0.5])) == 0.5
        # torus metric wraps the spatial gap
        assert parabolic_distance((0.0, [0.05]), (0.0, [0.95]), lengths=[1.0]) == \
            pytest.approx(0.1)

    def test_ball_cells_strict_radius(self, mesh32):
        y = mesh32.centers[16]
        ball = mesh32.ball_cells(y, 4 * mesh32.h[0])
        assert len(ball) == 7  # strict inequality excludes the radius itself

    def test_wrap_gaps_periodic_only(self, mesh32, dirichlet_1d):
        gaps = np.array([[0.9], [-0.7], [0.2]])
        assert np.allclose(mesh32.wrap_gaps(gaps), [[-0.1], [0.3], [0.2]])
        dirichlet = Mesh(dirichlet_1d, (32,), tau=1 / 512, t0=0.0, steps=64)
        assert np.array_equal(dirichlet.wrap_gaps(gaps), gaps)

    @pytest.mark.parametrize("mode", ["periodic", "dirichlet"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_face_difference(self, n, mode):
        domain = Domain((0.0,) * n, (1.0, 1.5)[:n], mode)
        cells = (6, 5)[:n]
        mesh = Mesh(domain, cells, tau=0.01, t0=0.0, steps=4)
        rng = np.random.default_rng(n)
        arrays = [rng.standard_normal(mesh.ncells)]  # a flat cell function
        arrays += [rng.standard_normal((3, N, mesh.ncells)) for N in (1, 2)]
        for ax in range(n):
            pts, left, right = mesh.face_positions(ax)
            others = mesh.ncells // cells[ax]
            # periodic meshes have the wrap face, dirichlet meshes only interior faces
            assert len(left) == (cells[ax] if mesh.periodic else cells[ax] - 1) * others
            grid = np.array(np.unravel_index(right, cells))
            assert np.any(grid[ax] == 0) == mesh.periodic
            inside = pts[:, ax] > 0.5 * float(domain.hi[ax])
            picks = np.nonzero(inside)[0]
            for x in arrays:
                full = mesh.face_difference(x, ax)
                assert full.shape == x.shape[:-1] + (len(left),)
                assert np.array_equal(full, (x[..., right] - x[..., left]) / mesh.h[ax])
                # a subset is the full difference masked afterwards, bit for bit
                assert mesh.face_difference(x, ax, inside).tobytes() == \
                    full[..., inside].tobytes()
                assert mesh.face_difference(x, ax, picks).tobytes() == \
                    full[..., picks].tobytes()
        if n == 1 and mesh.periodic:
            ramp = np.arange(6.0)
            assert mesh.face_difference(ramp, 0)[0] == (0.0 - 5.0) / mesh.h[0]  # the wrap face

    @pytest.mark.parametrize("mode", ["periodic", "dirichlet"])
    def test_face_geometry_built_once_and_read_only(self, mode):
        domain = Domain((0.0, 0.0), (1.0, 1.5), mode)
        mesh = Mesh(domain, (8, 6), tau=1 / 256, t0=0.0, steps=16)
        for ax in range(mesh.n):
            first = mesh.face_positions(ax)
            assert all(a is b for a, b in zip(first, mesh.face_positions(ax)))
            for arr in first:
                with pytest.raises(ValueError):
                    arr[0] = 0
        vals = np.random.default_rng(12).standard_normal((17, 2, mesh.ncells))
        X0 = (16 / 256, mesh.centers[21])

        def passing(held):  # the march past the slices up to the pole, as the marcher yields it
            return [((m, slc.ravel()) for m, slc in enumerate(held))]

        # the slices up to the pole at step 16; radius 0.25 spans all 16 slabs
        [warm] = _cylinder_energies(mesh, X0, (0.2, 0.25), passing(vals[:16]))
        # an equal mesh builds its geometry afresh: the same energies, bit for bit
        cold = Mesh(domain, (8, 6), tau=1 / 256, t0=0.0, steps=16)
        [again] = _cylinder_energies(cold, X0, (0.2, 0.25), passing(vals[:16]))
        assert again.tobytes() == warm.tobytes()
        # and so do the values at only the cells next to the outer ball's faces
        cells = _face_cells(mesh, X0, 0.25)
        assert len(cells) < mesh.ncells
        [subset] = _cylinder_energies(mesh, X0, (0.2, 0.25), passing(vals[:16, :, cells]), cells)
        assert subset.tobytes() == warm.tobytes()
        with pytest.raises(ConfigError, match=r"needs the slices 0\.\.15 in order"):
            list(_cylinder_energies(mesh, X0, (0.2, 0.25), passing(vals[:15])))
        # and the same as a sum over the faces built by hand (the cell to the right of
        # each face and the one on its left along the axis), to roundoff
        grid = vals.reshape(17, 2, 8, 6)[6:16]  # early ends of the minus cylinder's 10 slabs
        ref = 0.0
        for ax in range(2):
            diff = (grid - np.roll(grid, 1, axis=2 + ax)) / mesh.h[ax]
            mid = mesh.centers.reshape(8, 6, 2) - 0.5 * mesh.h[ax] * np.eye(2)[ax]
            inside = np.linalg.norm(mesh.wrap_gaps(mid - X0[1]), axis=2) < 0.2
            if not mesh.periodic:  # no wrap face: the left neighbour must be in the grid
                inside &= np.indices((8, 6))[ax] > 0
            ref += float(np.sum(diff[..., inside] ** 2)) * mesh.volume * mesh.tau
        assert warm[0] == pytest.approx(ref, rel=1e-13)

    def test_time_index_past_window_names_window_and_step(self, periodic_1d):
        mesh = Mesh(periodic_1d, (64,), tau=2.0 ** -12, t0=0.0, steps=640)
        with pytest.raises(ConfigError) as err:
            mesh.time_index(3604 * 2.0 ** -12)
        msg = str(err.value)
        assert "step 3604 of the time lattice" in msg
        assert "outside the mesh window [0.0, 0.15625] (steps 0..640)" in msg
        assert "not on the mesh time grid" not in msg

    def test_cylinder_slab_conventions(self, mesh32):
        r = 4 / 32  # r^2 / tau = 8 slabs
        pole = (24 / 512, mesh32.centers[16])
        assert mesh32.slab_count(r) == 8
        minus, cells = mesh32.cylinder(pole, r, "minus")
        plus, _ = mesh32.cylinder(pole, r, "plus")
        assert list(minus) == list(range(16, 24))
        assert list(plus) == list(range(24, 32))
        assert np.array_equal(cells, mesh32.ball_cells(pole[1], r))
        # minus slabs attach at their early ends, plus slabs at their late ends
        vals = np.arange(65, dtype=float)[:, None, None] * np.ones((1, 1, 32))
        traj = Trajectory(mesh32, 0, vals)
        assert cylinder(traj, pole, r, "minus")[0][:, 0, 0].tolist() == list(range(16, 24))
        assert cylinder(traj, pole, r, "plus")[0][:, 0, 0].tolist() == list(range(25, 33))
        with pytest.raises(ConfigError):
            cylinder(Trajectory(mesh32, 20, vals[20:]), pole, r, "minus")
        with pytest.raises(ConfigError):
            mesh32.cylinder((4 / 512, pole[1]), r, "minus")
        with pytest.raises(ConfigError):
            mesh32.cylinder((60 / 512, pole[1]), r, "plus")

    def test_interior_mask_dirichlet(self, dirichlet_1d):
        mesh = Mesh(dirichlet_1d, (8,), tau=0.01, t0=0.0, steps=4)
        assert list(mesh.interior_mask) == [False] + [True] * 6 + [False]


class TestAssemble:
    def test_heat_stencil(self, mesh32, heat_spec):
        L = assemble(mesh32, heat_spec, 0.0).toarray()
        h2 = mesh32.h[0] ** 2
        row = L[5]
        assert row[5] == pytest.approx(2 / h2)
        assert row[4] == pytest.approx(-1 / h2)
        assert row[6] == pytest.approx(-1 / h2)
        assert np.count_nonzero(row) == 3

    @pytest.mark.parametrize("mode", ["periodic", "dirichlet"])
    @pytest.mark.parametrize("n, N", [(1, 1), (1, 3), (2, 1), (2, 2)])
    def test_gather_sums_rows_as_the_csr_product(self, mode, n, N):
        """``_gathered`` applies the stencil's gather with ``np.bincount``: bit for bit the
        CSR product of the same gather, on random face tensors with every entry nonzero."""
        domain = Domain((0.0,) * n, (1.0,) * n, mode)
        mesh = Mesh(domain, (9, 6)[:n], tau=2.0 ** -8, t0=0.0, steps=2)
        A = np.random.default_rng(N).standard_normal((len(mesh.face_points), n, n, N, N))
        entries = tuple(range(n * n * N * N))
        (rows, src, weights), indices, _, _ = solver._stencil(mesh, N, entries)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(indices)))])
        gather = sp.csr_matrix((weights, src, indptr), shape=(len(indices), A.size))
        values = solver._gathered(mesh, N, A, entries)
        assert values.tobytes() == (gather @ A.ravel()).tobytes()

    def test_constant_scale_linearity(self, mesh32, periodic_1d):
        c = 3.5
        spec_c = OperatorSpec(make_preset("diag", values=(c,)), periodic_1d)
        heat = OperatorSpec(make_preset("heat", n=1), periodic_1d)
        Lc = assemble(mesh32, spec_c, 0.0).toarray()
        L1 = assemble(mesh32, heat, 0.0).toarray()
        assert np.allclose(Lc, c * L1, rtol=1e-15, atol=0)

    def test_checkerboard_face_rule_hand_row(self, periodic_1d):
        # tiles of one cell each: face midpoints land on the jumps and the
        # rule takes the right-hand tile value
        mesh = Mesh(periodic_1d, (8,), tau=0.001, t0=0.0, steps=4)
        h = mesh.h[0]
        spec = OperatorSpec(make_preset("checkerboard", n=1, period=float(h)), periodic_1d)
        L = assemble(mesh, spec, 0.0).toarray()
        # cell 3 (tile value 4): left face at 3h -> tile 3 value 4,
        # right face at 4h -> tile 4 value 1
        row = L[3] * h * h
        assert row[2] == pytest.approx(-4.0)
        assert row[3] == pytest.approx(5.0)
        assert row[4] == pytest.approx(-1.0)

    def test_row_sums_vanish_periodic(self, periodic_2d):
        mesh = Mesh(periodic_2d, (8, 8), tau=0.001, t0=0.0, steps=4)
        mat = np.zeros((2, 2, 1, 1))
        mat[0, 0, 0, 0] = 2.0
        mat[1, 1, 0, 0] = 1.0
        mat[0, 1, 0, 0] = 0.4
        mat[1, 0, 0, 0] = 0.4
        from greenlab import CoefficientField
        mixed = CoefficientField(2, 1, 0.6, math.sqrt(5.32), math.inf, "mixed",
                                 lambda t, pts: np.broadcast_to(mat, (pts.shape[0],) + mat.shape).copy())
        L = assemble(mesh, OperatorSpec(mixed, periodic_2d), 0.0)
        assert np.max(np.abs(L @ np.ones(64))) < 1e-13
        assert np.max(np.abs(L.T @ np.ones(64))) < 1e-13

    def test_coercivity_on_presets(self, periodic_1d):
        mesh = Mesh(periodic_1d, (24,), tau=0.001, t0=0.0, steps=4)
        rng = np.random.default_rng(0)
        for spec in bundle_1d(periodic_1d):
            N = spec.coeffs.N
            L = assemble(mesh, spec, 0.0)
            for _ in range(5):
                u = rng.standard_normal(N * mesh.ncells)
                form = float(u @ (L @ u)) * mesh.volume
                grad = dirichlet_energy(mesh, u.reshape(N, -1))
                assert form >= spec.coeffs.lam * grad - 1e-12

    def test_coercivity_mixed_2d(self, periodic_2d):
        mesh = Mesh(periodic_2d, (12, 12), tau=0.001, t0=0.0, steps=4)
        mat = np.zeros((2, 2, 1, 1))
        mat[0, 0, 0, 0] = 1.0
        mat[1, 1, 0, 0] = 1.0
        mat[0, 1, 0, 0] = 0.3
        mat[1, 0, 0, 0] = 0.3
        from greenlab import CoefficientField
        mixed = CoefficientField(2, 1, 0.7, math.sqrt(2.18), math.inf, "mixed",
                                 lambda t, pts: np.broadcast_to(mat, (pts.shape[0],) + mat.shape).copy())
        L = assemble(mesh, OperatorSpec(mixed, periodic_2d), 0.0)
        rng = np.random.default_rng(1)
        for _ in range(8):
            u = rng.standard_normal(mesh.ncells)
            form = float(u @ (L @ u)) * mesh.volume
            grad = dirichlet_energy(mesh, u.reshape(1, -1))
            # transverse averaging can shave the constant; keep a margin
            assert form >= 0.5 * mixed.lam * grad - 1e-12


class TestStepForward:
    def test_constant_fixed_point(self, mesh32, periodic_1d):
        for spec in bundle_1d(periodic_1d):
            u = np.ones((spec.coeffs.N, mesh32.ncells)) * 2.5
            out = step_forward(u, mesh32, spec)
            assert np.allclose(out, u, rtol=0, atol=1e-13)

    def test_fourier_mode_amplification(self, mesh32, heat_spec):
        h, tau = mesh32.h[0], mesh32.tau
        x = mesh32.centers[:, 0]
        u = np.sin(2 * math.pi * x)[None, :]
        mu = 4 * math.sin(math.pi * h) ** 2 / h ** 2
        out = step_forward(u, mesh32, heat_spec)
        assert np.allclose(out, u / (1 + tau * mu), rtol=1e-12, atol=1e-14)

    def test_dirichlet_boundary_stays_zero(self, dirichlet_1d):
        mesh = Mesh(dirichlet_1d, (16,), tau=0.001, t0=0.0, steps=4)
        spec = OperatorSpec(make_preset("heat", n=1), dirichlet_1d)
        u = np.zeros((1, 16))
        u[0, 8] = 1.0
        out = step_forward(u, mesh, spec)
        assert out[0, 0] == 0.0 and out[0, 15] == 0.0
        assert out[0, 7] > 0 and out[0, 9] > 0
        # the implicit solve has global but rapidly decaying tails
        assert abs(out[0, 2]) < 1e-3 * out[0, 8]


class TestSolveForward:
    def test_zero_data_zero_source(self, mesh32, heat_spec):
        traj = solve_forward(heat_spec, mesh32, None, None, 0.0, 32 / 512)
        assert np.all(traj.values == 0.0)

    def test_deterministic_bitwise(self, mesh32, periodic_1d):
        spec = OperatorSpec(make_preset("rotating", omega=2.0), periodic_1d)
        g = np.random.default_rng(3).standard_normal((2, 32))
        a = solve_forward(spec, mesh32, g, None, 0.0, 32 / 512)
        b = solve_forward(spec, mesh32, g, None, 0.0, 32 / 512)
        assert np.array_equal(a.values, b.values)

    def test_point_mass_matches_wrapped_kernel(self, periodic_1d):
        cells = 128
        h = 1.0 / cells
        tau = h * h / 2
        steps = int(round(0.05 / tau))
        mesh = Mesh(periodic_1d, (cells,), tau=tau, t0=0.0, steps=steps)
        spec = OperatorSpec(make_preset("heat", n=1), periodic_1d)
        g = np.zeros((1, cells))
        g[0, 64] = 1.0 / mesh.volume
        traj = solve_forward(spec, mesh, g, None, 0.0, float(mesh.times[-1]))
        dt = float(mesh.times[-1])
        gaps = (mesh.centers - mesh.centers[64])[:, :1]
        ref = wrapped_heat_kernel(1, dt, gaps, mesh.domain.lengths)
        dist = np.abs(gaps[:, 0] - np.round(gaps[:, 0]))
        mask = dist <= 3 * math.sqrt(dt)
        rel = np.abs(traj.values[-1, 0] - ref) / ref
        assert float(np.max(rel[mask])) < 0.02

    def test_refinement_order_at_least_1_8(self, periodic_1d):
        spec = OperatorSpec(make_preset("heat", n=1), periodic_1d)
        errs, hs = [], []
        for cells in (32, 64, 128):
            h = 1.0 / cells
            tau = h * h / 2
            steps = int(round(0.05 / tau))
            mesh = Mesh(periodic_1d, (cells,), tau=tau, t0=0.0, steps=steps)
            g = np.zeros((1, cells))
            g[0, cells // 2] = 1.0 / mesh.volume
            traj = solve_forward(spec, mesh, g, None, 0.0, float(mesh.times[-1]))
            dt = float(mesh.times[-1])
            gaps = (mesh.centers - mesh.centers[cells // 2])[:, :1]
            ref = wrapped_heat_kernel(1, dt, gaps, mesh.domain.lengths)
            errs.append(float(np.max(np.abs(traj.values[-1, 0] - ref))))
            hs.append(h)
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert order >= 1.8

    def test_matches_dense_oracle(self, periodic_1d):
        for spec in bundle_1d(periodic_1d):
            mesh = Mesh(periodic_1d, (20,), tau=1 / 256, t0=0.0, steps=24)
            rng = np.random.default_rng(7)
            g = rng.standard_normal((spec.coeffs.N, 20))

            def f(t):
                return np.cos(12 * t) * np.tile(mesh.centers[:, 0], (spec.coeffs.N, 1))

            a = solve_forward(spec, mesh, g, f, 0.0, 24 / 256)
            b = dense_spacetime_oracle(spec, mesh, g, f, 0.0, 24 / 256)
            num = float(np.max(np.abs(a.values - b.values)))
            den = float(np.max(np.abs(b.values)))
            assert num / den < 1e-9

    @pytest.mark.parametrize("x_dependent", [True, False])
    @pytest.mark.parametrize("mode", ["periodic", "dirichlet"])
    @pytest.mark.parametrize("cells", [(17,), (9, 7)])
    def test_oracle_matches_march_without_scipy(self, monkeypatch, mode, cells, x_dependent):
        """The space-time oracle reaches neither ``scipy.sparse`` nor ``scipy.sparse.linalg``
        and matches the march at 1e-9: odd cell counts in 1-D and 2-D, periodic and
        dirichlet, an N = 3 field that couples its components and varies in t, and in x or
        not (a periodic march then solves by Fourier from the kernel gathered on the 4^n
        torus, while the oracle gathers D on the mesh)."""
        n = len(cells)
        domain = Domain((0.0,) * n, (1.0,) * n, mode)
        mesh = Mesh(domain, cells, tau=2.0 ** -8, t0=0.0, steps=6)
        base = np.zeros((n, n, 3, 3))
        for a in range(n):
            base[a, a] = np.eye(3) + 0.2 * np.array([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
        if n == 2:
            base[0, 1] = base[1, 0] = 0.1 * np.eye(3)

        def fn(t, pts):
            s = 1.0 + 0.3 * x_dependent * np.sin(2 * np.pi * pts[:, 0]) + t
            return base * s[:, None, None, None, None]

        spec = OperatorSpec(CoefficientField(n, 3, 0.5, 4.0, math.inf, "coupled-3", fn,
                                             x_dependent=x_dependent, time_dependent=True),
                            domain)
        g = np.random.default_rng(5).standard_normal((3, mesh.ncells))

        def f(t):
            return np.cos(12 * t) * np.tile(mesh.centers[:, 0], (3, 1))

        T = float(mesh.times[-1])
        marched = solve_forward(spec, mesh, g, f, 0.0, T)  # SuperLU may need scipy: first

        class Unreachable:
            def __getattr__(self, name):
                raise AssertionError(f"the oracle reached scipy for {name!r}")

        monkeypatch.setattr(solver, "sp", Unreachable())
        monkeypatch.setattr(solver, "spla", Unreachable())
        oracle = dense_spacetime_oracle(spec, mesh, g, f, 0.0, T)
        num = float(np.max(np.abs(marched.values - oracle.values)))
        assert num <= 1e-9 * float(np.max(np.abs(oracle.values)))

    @pytest.mark.parametrize("mode", ["periodic", "dirichlet"])
    def test_oracle_groups_equal_one_batch(self, monkeypatch, mode):
        """Factored in groups of consecutive steps, one or three at a time, the oracle
        gives bitwise the trajectory of one batch of all its steps: a 2-D N = 2 field
        that couples its components and varies in t, with a source."""
        domain = Domain((0.0, 0.0), (1.0, 1.0), mode)
        mesh = Mesh(domain, (7, 6), tau=2.0 ** -8, t0=0.0, steps=8)
        base = np.einsum("ab,ij->abij", np.eye(2), [[1.0, 0.3], [-0.2, 1.0]])
        base[0, 1] = base[1, 0] = 0.1 * np.eye(2)

        def fn(t, pts):
            return np.broadcast_to(base * (1.0 + t), (len(pts), *base.shape)).copy()

        spec = OperatorSpec(CoefficientField(2, 2, 0.5, 4.0, math.inf, "coupled-t", fn,
                                             time_dependent=True), domain)
        g = np.random.default_rng(8).standard_normal((2, mesh.ncells))

        def f(t):
            return np.cos(12 * t) * np.tile(mesh.centers[:, 0], (2, 1))

        T = float(mesh.times[-1])
        groups = []
        factor = solver._band_factor
        monkeypatch.setattr(solver, "_band_factor",
                            lambda band, kl, u: groups.append(band.shape) or factor(band, kl, u))
        whole = dense_spacetime_oracle(spec, mesh, g, f, 0.0, T).values
        assert [shape[0] for shape in groups] == [8]
        step = 8 * math.prod(groups[0][1:])
        for budget, sizes in ((1, [1] * 8), (3 * step + 7, [3, 3, 2])):
            monkeypatch.setattr(solver, "ORACLE_BAND_BYTES", budget)
            groups.clear()
            assert np.array_equal(dense_spacetime_oracle(spec, mesh, g, f, 0.0, T).values, whole)
            assert [shape[0] for shape in groups] == sizes

    @pytest.mark.peak
    def test_oracle_peak_is_about_one_group(self, monkeypatch):
        """With the band budget at two steps, the oracle of eight 2-D steps holds about one
        group of two steps' band factors at its peak, where one batch would hold eight."""
        domain = Domain((0.0, 0.0), (1.0, 1.0), "periodic")
        mesh = Mesh(domain, (12, 12), tau=2.0 ** -8, t0=0.0, steps=8)
        spec = OperatorSpec(make_preset("t-oscillating", n=2, period=0.05), domain)
        g = np.cos(np.arange(mesh.ncells, dtype=float)).reshape(1, -1)
        T = float(mesh.times[-1])
        groups = []
        factor = solver._band_factor
        monkeypatch.setattr(solver, "_band_factor",
                            lambda band, kl, u: groups.append(band.shape) or factor(band, kl, u))
        whole = dense_spacetime_oracle(spec, mesh, g, None, 0.0, T).values  # warms the caches
        step = 8 * math.prod(groups[0][1:])
        monkeypatch.setattr(solver, "ORACLE_BAND_BYTES", 2 * step)
        groups.clear()
        tracemalloc.start()
        try:
            grouped = dense_spacetime_oracle(spec, mesh, g, None, 0.0, T).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [shape[0] for shape in groups] == [2] * 4
        assert np.array_equal(grouped, whole)
        # one group's band plus the march's own arrays: 2.9 steps' band here, where one
        # batch of the 8 steps peaked at 10.2
        assert peak <= 4 * step, (peak, step)

    def test_oracle_one_step_equals_step_forward(self, mesh32, heat_spec):
        g = np.random.default_rng(0).standard_normal((1, 32))
        one = dense_spacetime_oracle(heat_spec, mesh32, g, None, 0.0, 1 / 512)
        stepped = step_forward(g, mesh32, heat_spec)
        assert np.allclose(one.values[-1], stepped, rtol=0, atol=1e-13)

    def test_oracle_cap(self, periodic_1d):
        mesh = Mesh(periodic_1d, (64,), tau=1e-4, t0=0.0, steps=400)
        spec = OperatorSpec(make_preset("heat", n=1), periodic_1d)
        with pytest.raises(ConfigError):
            dense_spacetime_oracle(spec, mesh, None, None, 0.0, 400e-4)


class TestBandLU:
    """The space-time oracle's band LU against dense matrices it has to pivot on."""

    @staticmethod
    def banded(rng, K, n, kl, ku):
        """K random (n, n) matrices of lower width kl and upper width ku, with a small
        diagonal, dense and in ``_band_factor``'s storage."""
        u = kl + ku
        i, j = np.nonzero(np.tri(n, n, ku) - np.tri(n, n, -kl - 1))
        dense = np.zeros((K, n, n))
        dense[:, i, j] = rng.standard_normal((K, len(i)))
        dense[:, np.arange(n), np.arange(n)] *= 1e-3  # partial pivoting has to swap rows
        band = np.zeros((K, n + u, u + kl + 1))
        band[:, j, u + i - j] = dense[:, i, j]
        return dense, band

    @pytest.mark.parametrize("kl, ku", [(1, 1), (2, 3), (4, 1)])
    def test_solves_like_a_dense_solve(self, kl, ku):
        rng = np.random.default_rng(10 * kl + ku)
        dense, band = self.banded(rng, 3, 13, kl, ku)
        pivots = solver._band_factor(band, kl, kl + ku)
        assert pivots.any()
        for k in range(3):
            b = rng.standard_normal(13)
            x = solver._band_solve(band[k], pivots[k], kl, kl + ku, b)
            assert np.allclose(x, np.linalg.solve(dense[k], b), rtol=1e-10, atol=0)

    def test_singular_matrix_raises(self):
        dense, band = self.banded(np.random.default_rng(0), 2, 8, 2, 2)
        band[1, 3] = 0.0  # column 3 of the second matrix
        with pytest.raises(SolverError, match="singular"):
            solver._band_factor(band, 2, 4)


class TestSolveBackward:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 1000))
    def test_adjoint_pairing(self, seed):
        dom = Domain((0.0,), (1.0,), "periodic")
        mesh = Mesh(dom, (16,), tau=1 / 128, t0=0.0, steps=12)
        spec = OperatorSpec(make_preset("rotating", omega=3.0), dom)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 16))
        b = rng.standard_normal((2, 16))
        fa = solve_forward(spec, mesh, a, None, 0.0, 12 / 128).values[-1]
        bb = solve_backward(spec, mesh, b, None, 12 / 128, 0.0).values[0]
        lhs, rhs = float(np.sum(fa * b)), float(np.sum(a * bb))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_zero_final_zero_source(self, mesh32, heat_spec):
        traj = solve_backward(heat_spec, mesh32, None, None, 32 / 512, 0.0)
        assert np.all(traj.values == 0.0)

    def test_self_adjoint_time_independent_reflection(self, mesh32, periodic_1d):
        spec = OperatorSpec(make_preset("x-oscillatory", n=1), periodic_1d)
        g = np.random.default_rng(2).standard_normal((1, 32))
        K = 20
        fwd = solve_forward(spec, mesh32, g, None, 0.0, K / 512)
        bwd = solve_backward(spec, mesh32, g, None, K / 512, 0.0)
        # symmetric static operator: the adjoint march retraces the forward one
        assert np.allclose(bwd.values, fwd.values[::-1], rtol=0, atol=1e-13)


class TestEnergyAndMonotonicity:
    def test_constant_trajectory(self, mesh32):
        vals = np.full((5, 1, 32), 3.0)
        traj = Trajectory(mesh32, 0, vals)
        # constants carry no Dirichlet energy on any face, the wrap face included
        assert not np.any(mesh32.face_difference(traj.values, 0))
        assert dirichlet_energy(mesh32, traj.values[0]) == 0.0
        assert max(slice_l2(traj)) == pytest.approx(3.0, rel=1e-12)

    def test_l2_monotone_all_presets(self, mesh32, periodic_1d):
        rng = np.random.default_rng(4)
        for spec in bundle_1d(periodic_1d):
            g = rng.standard_normal((spec.coeffs.N, 32))
            traj = solve_forward(spec, mesh32, g, None, 0.0, 40 / 512)
            norms = slice_l2(traj)
            assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_dirichlet_trajectory_boundary_zero(self, dirichlet_1d):
        mesh = Mesh(dirichlet_1d, (16,), tau=1 / 256, t0=0.0, steps=16)
        spec = OperatorSpec(make_preset("heat", n=1), dirichlet_1d)
        g = np.ones((1, 16))
        traj = solve_forward(spec, mesh, g, None, 0.0, 16 / 256)
        assert np.all(traj.values[:, :, 0] == 0.0)
        assert np.all(traj.values[:, :, 15] == 0.0)
        norms = slice_l2(traj)
        assert norms[-1] < norms[0]  # boundary absorbs mass


class TestSchemeContracts:
    def test_residual_contract_enforced(self, mesh32, heat_spec):
        scheme = ThetaScheme(mesh32, heat_spec)
        u = np.random.default_rng(0).standard_normal(32)
        x = scheme.solve_implicit(1, u)
        D = step_matrix(mesh32, heat_spec, 1)
        assert np.linalg.norm(D @ x - u) <= 1e-11 * np.linalg.norm(u)

    def test_time_dependent_matrices_fresh_per_step(self, mesh32, periodic_1d):
        spec = OperatorSpec(make_preset("t-oscillating", n=1, period=0.02), periodic_1d)
        scheme = ThetaScheme(mesh32, spec)
        a = scheme.implicit_lu(1)[1].kernel()
        b = scheme.implicit_lu(5)[1].kernel()
        assert not np.allclose(a, b)


class TestStepStore:
    @pytest.fixture
    def store(self, monkeypatch):
        """A cold, private step store for the test."""
        monkeypatch.setattr(solver, "_STORE", solver._StepStore())

    @pytest.fixture
    def rotating(self, periodic_1d):
        return OperatorSpec(make_preset("rotating", w0=0.5, omega=2.0), periodic_1d)

    def _rotating_fields(self, spec, mesh):
        Y = (20 / 512, np.array([0.25 + 0.5 / 32]))
        X = (44 / 512, np.array([0.75 + 0.5 / 32]))
        b = np.random.default_rng(3).standard_normal((2, 32))
        return [column(spec, mesh, Y, 2, 4 / 32, 64 / 512).values,
                column(spec, mesh, X, 1, 4 / 32, 0.0, "backward").values,
                solve_backward(spec, mesh, b, None, 48 / 512, 8 / 512).values]

    def test_cold_and_warm_store_bitwise_equal(self, store, mesh32, rotating):
        cold = self._rotating_fields(rotating, mesh32)
        filled = solver.cache_info()
        assert filled.entries > 0 and filled.bytes > 0
        warm = self._rotating_fields(rotating, mesh32)
        assert solver.cache_info() == filled  # the warm pass built nothing
        for a, b in zip(cold, warm):
            assert a.tobytes() == b.tobytes()

    def test_equal_keys_share_and_distinct_keys_do_not(self, store, mesh32, rotating,
                                                        periodic_1d):
        base = ThetaScheme(mesh32, rotating).implicit_lu(3)
        assert solver.cache_info().entries == 1
        # equal by value: a rebuilt mesh and spec hit the same entry
        same_mesh = Mesh(Domain((0.0,), (1.0,), "periodic"), (32,), tau=1.0 / 512,
                         t0=0.0, steps=64)
        same_spec = OperatorSpec(rotating.coeffs, Domain((0.0,), (1.0,), "periodic"))
        assert ThetaScheme(same_mesh, same_spec).implicit_lu(3) is base
        assert solver.cache_info().entries == 1
        longer = Mesh(periodic_1d, (32,), tau=1.0 / 512, t0=0.0, steps=65)
        others = [ThetaScheme(mesh32, OperatorSpec(transposed(rotating.coeffs), periodic_1d)),
                  ThetaScheme(longer, rotating)]
        for i, scheme in enumerate(others, start=2):
            assert scheme.implicit_lu(3) is not base
            assert solver.cache_info().entries == i

    def test_evicts_least_recently_used(self, store, monkeypatch):
        def get(key):
            return solver._STORE.get(key, lambda: [key])

        monkeypatch.setattr(solver, "_factor_bytes", lambda value: 10)
        monkeypatch.setattr(solver, "CACHE_BYTES", 20)
        a = get("a")
        get("b")
        assert get("a") is a  # a hit makes "a" the most recent entry
        get("c")
        assert list(solver._STORE.entries) == ["a", "c"]
        assert solver.cache_info() == (2, 20, 20)
        monkeypatch.setattr(solver, "CACHE_BYTES", 5)
        get("d")  # over the budget on its own: kept, the rest evicted
        assert list(solver._STORE.entries) == ["d"]

    def test_byte_budget_holds_and_results_match(self, store, monkeypatch, periodic_2d):
        mesh = Mesh(periodic_2d, (16, 16), tau=1 / 1024, t0=0.0, steps=24)
        spec = OperatorSpec(make_preset("t-oscillating", n=2, period=0.01), periodic_2d)
        g = np.random.default_rng(5).standard_normal((1, 256))
        T = 24 / 1024

        def solve_both(check):
            def f(t):  # a zero source that checks the store at every step
                check()
                return None

            fwd = solve_forward(spec, mesh, g, f, 0.0, T).values
            bwd = solve_backward(spec, mesh, g, f, T, 0.0).values
            check()
            return fwd, bwd

        unbounded = solve_both(lambda: None)
        full = solver.cache_info()
        largest = max(cost for _, cost in solver._STORE.entries.values())
        budget = 4 * largest
        assert budget < full.bytes // 4  # the run must evict

        monkeypatch.setattr(solver, "_STORE", solver._StepStore())
        monkeypatch.setattr(solver, "CACHE_BYTES", budget)

        def within_budget():
            info = solver.cache_info()
            assert info.budget == budget
            assert info.bytes <= budget

        bounded = solve_both(within_budget)
        assert solver.cache_info().entries < full.entries
        for a, b in zip(unbounded, bounded):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("mode", ["periodic", "dirichlet"])
    def test_stored_matrices_own_exact_size_arrays(self, store, mode):
        """The store charges a step its arrays' bytes, so no array may view a larger buffer:
        a SuperLU step's CSC arrays, a Fourier step's inverse symbol and both stencils."""
        domain = Domain((0.0, 0.0), (1.0, 1.0), mode)
        mesh = Mesh(domain, (16, 16), tau=2.0 ** -10, t0=0.0, steps=4)
        # the cross-derivative entries are zero at every face, so they are never gathered
        spec = OperatorSpec(make_preset("t-oscillating", n=2, period=0.05), domain)
        g = np.random.default_rng(6).standard_normal((1, 256))
        solve_forward(spec, mesh, g, None, 0.0, float(mesh.times[4]))

        def allocated(arr):
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            return arr.nbytes

        assert solver.cache_info().entries == 4
        for key, (value, _) in solver._STORE.entries.items():
            lu, D = value
            arrays = ((lu.inv, D.row, D.offsets, value.DT.row, value.DT.offsets)
                      if mode == "periodic" else (D.data, D.indices, D.indptr))
            for arr in arrays:
                assert allocated(arr) == arr.nbytes, (key[1], arr.shape)

    def test_store_keeps_only_implicit_pairs(self, store, periodic_2d):
        mesh = Mesh(periodic_2d, (16, 16), tau=2.0 ** -10, t0=0.0, steps=8)
        spec = OperatorSpec(make_preset("t-oscillating", n=2, period=0.05), periodic_2d)
        g = np.random.default_rng(6).standard_normal((1, 256))
        solve_forward(spec, mesh, g, None, 0.0, float(mesh.times[8]))
        entries = solver._STORE.entries
        assert [key[1] for key in entries] == list(range(1, 9))
        assert all(type(value) is solver._Implicit for value, _ in entries.values())

    @pytest.mark.peak
    def test_superlu_march_rss_stays_within_budget(self, tmp_path):
        """A long 1-D dirichlet time-dependent march, one SuperLU factor per step,
        adds at most the store's budget plus 4 MB of RSS, which covers the march's
        own arrays and the allocator's bookkeeping.  ``ru_maxrss`` is the peak
        of the whole process, so the march runs in a fresh one, which lowers
        ``CACHE_BYTES`` to 8 MB itself.  Charged 12 bytes per L+U nonzero
        alone, these 1 024 steps added 50 MB."""
        code = """
import json, resource
import numpy as np
from greenlab import Domain, Mesh, OperatorSpec, make_preset, solver

solver.CACHE_BYTES = 8 * 2**20
domain = Domain((0.0,), (1.0,), "dirichlet")
mesh = Mesh(domain, (32,), tau=2.0 ** -12, t0=0.0, steps=1024)
scheme = solver.ThetaScheme(mesh, OperatorSpec(make_preset("rotating", w0=0.5, omega=2.0),
                                               domain))
assert not isinstance(scheme.implicit_lu(1)[0], solver._FourierSolver)
x = np.ones(scheme.nn)
for m in range(16):
    x = scheme.forward_step(m, x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for m in range(16, mesh.steps):
    x = scheme.forward_step(m, x)
added = 1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
print(json.dumps([added, solver.cache_info().entries]))
"""
        src = os.path.dirname(os.path.dirname(solver.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, check=True,
                             capture_output=True, text=True, timeout=120)
        added, entries = json.loads(out.stdout.splitlines()[-1])
        assert entries < 1024 - 16  # the store evicted
        assert added <= 8 * 2**20 + 4 * 2**20

    def test_rotating_duality_assembles_each_step_once(self, store, monkeypatch):
        path = resources.files("greenlab") / "scenarios" / "rotating-2x2.json"
        sc = cli.load_scenario(str(path))
        ctx = cli.build_context(sc)
        assert sc["checks"][0]["name"] == "duality"
        calls = []
        real = solver._assemble

        def counting(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(solver, "_assemble", counting)
        rec = cli._run_check(ctx, sc["checks"][0])
        assert rec.status == "pass"
        assert len(calls) <= ctx.mesh.steps + 1


def _loop_assemble(mesh, spec, t):
    """Reference: the per-entry loop that assembled every step before the pattern was memoised."""
    coeffs = spec.coeffs
    n, N = coeffs.n, coeffs.N
    C = mesh.ncells
    rows, cols, vals = [], [], []
    for a in range(n):
        pts, left, right = mesh.face_positions(a)
        A = coeffs.tensor(t, pts)
        ones = np.ones(len(left), dtype=bool)
        inv_ha = 1.0 / mesh.h[a]
        for b in range(n):
            Aab = A[:, a, b]
            if b == a:
                col_specs = [(right, ones, +1.0 / mesh.h[b]),
                             (left, ones, -1.0 / mesh.h[b])]
            else:
                lp, vlp = mesh.shift_flat(left, b, +1)
                rp, vrp = mesh.shift_flat(right, b, +1)
                lm, vlm = mesh.shift_flat(left, b, -1)
                rm, vrm = mesh.shift_flat(right, b, -1)
                q = 1.0 / (4.0 * mesh.h[b])
                col_specs = [(lp, vlp, +q), (rp, vrp, +q), (lm, vlm, -q), (rm, vrm, -q)]
            for row_cells, sgn in ((left, -inv_ha), (right, +inv_ha)):
                for col_cells, valid, w in col_specs:
                    for i in range(N):
                        for j in range(N):
                            rows.append(i * C + row_cells[valid])
                            cols.append(j * C + col_cells[valid])
                            vals.append(sgn * w * Aab[valid, i, j])
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    if not mesh.periodic:
        mask = np.tile(mesh.interior_mask, N)
        keep = mask[rows] & mask[cols]
        # the pattern is that of I + L: each pinned row holds an explicit 0 on its diagonal
        pinned = np.flatnonzero(~mask)
        rows, cols = np.append(rows[keep], pinned), np.append(cols[keep], pinned)
        vals = np.append(vals[keep], np.zeros(len(pinned)))
    return sp.coo_matrix((vals, (rows, cols)), shape=(N * C, N * C)).tocsr()


def _random_n2_N3():
    """A nonsymmetric N=3, n=2 field with every cross-derivative and coupling term, in x and t."""
    B0, B1 = np.random.default_rng(11).standard_normal((2, 2, 2, 3, 3))

    def fn(t, pts):
        m = np.sin(2 * np.pi * pts[:, 0] + 3.0 * t) * np.cos(2 * np.pi * pts[:, 1])
        return B0 + m[:, None, None, None, None] * B1

    return CoefficientField(2, 3, 1.0, 10.0, math.inf, "random-n2-N3", fn,
                            time_dependent=True, x_dependent=True)


# cells of each case of test_fixed_pattern_matches_loop: on 4- and 5-cell
# axes the +1 and -1 transverse shifts of one face wrap onto nearby columns;
# t-oscillating is the N = 1 case, whose cross-derivative entries are zero
PATTERN_CELLS = {"rotating": (16,), "rotating-4": (4,), "rotating-5": (5,),
                 "random-n2-N3": (8, 6), "random-n2-N3-4x5": (4, 5),
                 "random-n2-N3-5x4": (5, 4), "t-oscillating": (8, 6)}


def _pattern_case(field, mode, flip=False):
    """Mesh and spec of one case of PATTERN_CELLS."""
    if field.startswith("rotating"):
        coeffs = make_preset("rotating", w0=0.5, omega=2.0)
        domain = Domain((0.0,), (1.0,), mode)
    else:
        coeffs = (make_preset("t-oscillating", n=2, period=0.05) if field == "t-oscillating"
                  else _random_n2_N3())
        domain = Domain((0.0, 0.0), (1.0, 1.5), mode)
    mesh = Mesh(domain, PATTERN_CELLS[field], tau=1 / 256, t0=0.0, steps=8)
    return mesh, OperatorSpec(transposed(coeffs) if flip else coeffs, domain)


def _partly_zero_cross():
    """A symmetric 2-D N = 1 field, x-dependent, whose cross entry A^{12} = A^{21} is exactly
    zero where x_0 <= 1/2 and nonzero beyond: its step matrices hold exact zeros on the
    stencil's pattern, where only the zero cross entries reach."""
    def fn(t, pts):
        x = pts[:, 0]
        A = np.zeros((len(pts), 2, 2, 1, 1))
        A[:, 0, 0, 0, 0] = 1.0 + 0.25 * np.sin(2 * np.pi * x)
        A[:, 1, 1, 0, 0] = 1.5 - 0.2 * np.cos(2 * np.pi * pts[:, 1])
        A[:, 0, 1, 0, 0] = A[:, 1, 0, 0, 0] = np.where(x > 0.5, 0.3 * np.sin(np.pi * x) ** 2, 0.0)
        return A

    return CoefficientField(2, 1, 0.4, 2.0, math.inf, "partly-zero-cross", fn,
                            x_dependent=True)


class TestStepLayer:
    @pytest.fixture
    def store(self, monkeypatch):
        """A cold, private step store for the test."""
        monkeypatch.setattr(solver, "_STORE", solver._StepStore())

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("mode", ["periodic", "dirichlet"])
    @pytest.mark.parametrize("field", sorted(PATTERN_CELLS))
    def test_fixed_pattern_matches_loop(self, field, mode, flip):
        mesh, spec = _pattern_case(field, mode, flip)
        coeffs = spec.coeffs
        got = [assemble(mesh, spec, t) for t in (0.0, 3 / 256)]
        for t, L in zip((0.0, 3 / 256), got):
            ref = _loop_assemble(mesh, spec, t)
            assert np.array_equal(L.indices, ref.indices)
            assert np.array_equal(L.indptr, ref.indptr)
            assert np.max(np.abs(L.data - ref.data)) <= 1e-14 * np.max(np.abs(ref.data))
        # one pattern at every time, with values that do move
        assert np.array_equal(got[0].indices, got[1].indices)
        assert np.array_equal(got[0].indptr, got[1].indptr)
        assert not np.allclose(got[0].data, got[1].data)
        if mesh.periodic:
            N, C = coeffs.N, mesh.ncells
            for L in got:
                blocks = L.toarray().reshape(N, C, N, C)
                scale = np.max(np.abs(blocks))
                assert np.max(np.abs(blocks.sum(axis=3))) <= 1e-14 * scale  # row sums
                assert np.max(np.abs(blocks.sum(axis=1))) <= 1e-14 * scale  # column sums

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("mode", ["periodic", "dirichlet"])
    @pytest.mark.parametrize("field", sorted(PATTERN_CELLS))
    def test_step_matrices_bitwise_equal_identity_plus_operator(self, store, field, mode, flip):
        """D, built from L's data, equals ``sp.identity(nn) + tau*L`` to the bit; on the
        Fourier path, its stencil's kernel equals that matrix's columns at cell 0."""
        mesh, spec = _pattern_case(field, mode, flip)
        scheme = ThetaScheme(mesh, spec)
        for m in (1, 3):
            assert_stored_step_exact(scheme.implicit_lu(m), step_matrix(mesh, spec, m))

    @pytest.mark.parametrize("mode", ["periodic", "dirichlet"])
    def test_superlu_step_keeps_the_exact_zeros(self, store, mode):
        """A SuperLU step of a field whose cross entry is zero on part of the faces stores
        D on the stencil's own pattern, its exact zeros kept: D is the reference step
        matrix once they are dropped, every solve passes the residual gate, and the march
        matches the space-time oracle."""
        domain = Domain((0.0, 0.0), (1.0, 1.0), mode)
        mesh = Mesh(domain, (16, 16), tau=2.0 ** -10, t0=0.0, steps=8)
        spec = OperatorSpec(_partly_zero_cross(), domain)
        A = solver._assemble(mesh, spec, float(mesh.times[1]))[0]
        cross = A[:, 0, 1, 0, 0]
        assert (cross == 0).any() and (cross != 0).any()
        entries = solver._used_entries(A)
        assert entries == (0, 1, 2, 3)
        csr = solver._step_matrix(mesh, 1, A)
        _, indices, indptr, _ = solver._stencil(mesh, 1, entries)
        assert np.shares_memory(csr.indices, indices) and np.shares_memory(csr.indptr, indptr)
        scheme = ThetaScheme(mesh, spec)
        lu, D = scheme.implicit_lu(1)
        assert not isinstance(lu, solver._FourierSolver)
        assert D.nnz == len(indices) and (D.data == 0).any()
        pruned = D.copy()
        pruned.eliminate_zeros()
        assert pruned.nnz < D.nnz
        want = step_matrix(mesh, spec, 1)
        assert_stored_step_exact((lu, pruned), want)
        rhs = np.random.default_rng(8).standard_normal((scheme.nn, 3))
        for trans, mat in (("N", want), ("T", want.T)):
            x = scheme.solve_implicit(1, rhs, trans=trans)  # the residual gate, per column
            res = np.linalg.norm(mat @ x - rhs, axis=0)
            assert (res <= solver.RESIDUAL_TOL * np.linalg.norm(rhs, axis=0)).all()
        g = np.random.default_rng(9).standard_normal((1, mesh.ncells))
        T = float(mesh.times[-1])
        marched = solve_forward(spec, mesh, g, None, 0.0, T)
        oracle = dense_spacetime_oracle(spec, mesh, g, None, 0.0, T)
        num = float(np.max(np.abs(marched.values - oracle.values)))
        assert num <= 1e-12 * float(np.max(np.abs(oracle.values)))

    @pytest.mark.peak
    @pytest.mark.parametrize("entries", [(0, 1, 2, 3), (0, 3)])  # all, and the diagonal
    def test_stencil_peak_is_a_small_multiple_of_what_it_keeps(self, periodic_2d, entries):
        mesh = Mesh(periodic_2d, (64, 64), tau=2.0 ** -12, t0=0.0, steps=4)
        for a in range(mesh.n):
            mesh.face_positions(a)  # the mesh's own geometry, built before the stencil
        tracemalloc.start()
        try:
            gather, indices, indptr, diag = solver._stencil.__wrapped__(mesh, 1, entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(arr.nbytes for arr in (*gather, indices, indptr, diag))
        assert peak <= 3 * kept, (peak, kept)

    def test_non_finite_coefficient_stops_at_its_step(self, store, mesh32, periodic_1d):
        bad_t = float(mesh32.times[5])

        def fn(t, pts):
            out = np.ones((len(pts), 1, 1, 1, 1))
            if abs(t - bad_t) < mesh32.tau / 2:
                out[7] = np.nan
            return out

        spec = OperatorSpec(CoefficientField(1, 1, 1.0, 1.0, math.inf, "nan-at-t5", fn,
                                             time_dependent=True), periodic_1d)
        for m in range(5):
            assemble(mesh32, spec, float(mesh32.times[m]))
        with pytest.raises(ConfigError, match="non-finite coefficient"):
            assemble(mesh32, spec, bad_t)
        reached = []
        g = np.random.default_rng(2).standard_normal((1, 32))
        with pytest.raises(ConfigError, match="non-finite coefficient"):
            solver._march(ThetaScheme(mesh32, spec), 0, 10, g.ravel(),
                          lambda m: reached.append(m))
        assert reached == [0, 1, 2, 3, 4]  # the step into t_5 is the first to fail

    @pytest.mark.parametrize("mode", ["periodic", "dirichlet"])
    def test_ordering_fills_less_than_default(self, store, mode):
        domain = Domain((0.0, 0.0), (1.0, 1.0), mode)
        mesh = Mesh(domain, (32, 32), tau=2.0 ** -12, t0=0.0, steps=4)
        # periodic heat takes the Fourier path; an x-dependent field keeps splu
        preset = "x-oscillatory" if mode == "periodic" else "heat"
        scheme = ThetaScheme(mesh, OperatorSpec(make_preset(preset, n=2), domain))
        lu, D = scheme.implicit_lu(1)
        assert lu.nnz < spla.splu(D).nnz
        rhs = np.random.default_rng(4).standard_normal(scheme.nn)
        for trans, mat in (("N", D), ("T", D.T)):
            x = scheme.solve_implicit(1, rhs, trans=trans)
            assert np.linalg.norm(mat @ x - rhs) <= solver.RESIDUAL_TOL * np.linalg.norm(rhs)

    def test_marches_assemble_each_step_once(self, store, monkeypatch, mesh32, periodic_1d):
        """A step builds only its implicit matrix: forward and adjoint marches over
        steps 1..24 assemble L(t_1)..L(t_24) once each and store 24 entries."""
        spec = OperatorSpec(make_preset("rotating", w0=0.5, omega=2.0), periodic_1d)
        times = []
        real = solver._assemble
        monkeypatch.setattr(solver, "_assemble",
                            lambda *args: times.append(args[2]) or real(*args))
        g = np.random.default_rng(7).standard_normal((2, 32))
        T = float(mesh32.times[24])
        solve_forward(spec, mesh32, g, None, 0.0, T)
        solve_backward(spec, mesh32, g, None, T, 0.0)
        assert times == [float(t) for t in mesh32.times[1:25]]
        assert solver.cache_info().entries == 24


class TestBlockSolve:
    @pytest.mark.parametrize("trans", ["N", "T"])
    @pytest.mark.parametrize("mode", ["periodic", "dirichlet"])  # Fourier and SuperLU
    def test_small_bad_column_raises(self, monkeypatch, mode, trans):
        domain = Domain((0.0,), (1.0,), mode)
        mesh = Mesh(domain, (32,), tau=1.0 / 512, t0=0.0, steps=64)
        spec = OperatorSpec(make_preset("rotating", w0=0.5, omega=2.0), domain)
        scheme = ThetaScheme(mesh, spec)
        lu, D = scheme.implicit_lu(1)
        assert isinstance(lu, solver._FourierSolver) == (mode == "periodic")
        rng = np.random.default_rng(8)
        rhs = np.stack([1e6 * rng.standard_normal(64), 1e-6 * rng.standard_normal(64)], axis=1)
        block = scheme.solve_implicit(1, rhs, trans=trans)
        for j in (0, 1):
            assert block[:, j].tobytes() == scheme.solve_implicit(1, rhs[:, j], trans).tobytes()

        bad = spoiled(lu, 1)  # spoils the small second column
        monkeypatch.setattr(scheme, "implicit_lu", lambda m: solver._Implicit(bad, D))
        ref = step_matrix(mesh, spec, 1)
        mat = ref if trans == "N" else ref.T
        x = block.copy()
        x[:, 1] *= 1 + 1e-4
        # one norm over the whole block would not see the bad column
        assert np.linalg.norm(mat @ x - rhs) <= solver.RESIDUAL_TOL * np.linalg.norm(rhs)
        with pytest.raises(SolverError, match="residual"):
            scheme.solve_implicit(1, rhs, trans=trans)

    @pytest.mark.parametrize("trans", ["N", "T"])
    @pytest.mark.parametrize("mode", ["periodic", "dirichlet"])  # Fourier and SuperLU
    def test_zero_rhs_must_solve_to_zero(self, monkeypatch, mode, trans):
        """A zero column has no relative residual: its solution must be exactly 0."""
        domain = Domain((0.0,), (1.0,), mode)
        mesh = Mesh(domain, (32,), tau=1.0 / 512, t0=0.0, steps=64)
        scheme = ThetaScheme(mesh, OperatorSpec(make_preset("rotating", w0=0.5, omega=2.0),
                                                domain))
        lu, D = scheme.implicit_lu(1)
        assert isinstance(lu, solver._FourierSolver) == (mode == "periodic")
        mixed = np.stack([np.random.default_rng(12).standard_normal(64), np.zeros(64)], axis=1)
        assert not scheme.solve_implicit(1, np.zeros(64), trans).any()
        assert not scheme.solve_implicit(1, mixed, trans)[:, 1].any()

        bad = plus_one(lu)
        monkeypatch.setattr(scheme, "implicit_lu", lambda m: solver._Implicit(bad, D))
        for zero in (np.zeros(64), np.zeros((64, 3))):  # flat, and a block of zero columns
            with pytest.raises(SolverError, match="zero right-hand side"):
                scheme.solve_implicit(1, zero, trans=trans)


def _coupled(n, N):
    """An x- and t-independent coupled field: 3 I plus a random coupling."""
    B = np.random.default_rng(13).standard_normal((n, n, N, N))
    mat = 3.0 * np.einsum("ab,ij->abij", np.eye(n), np.eye(N)) + 0.3 * B

    def fn(t, pts):
        return np.broadcast_to(mat, (len(pts),) + mat.shape).copy()

    return CoefficientField(n, N, 1.0, 10.0, math.inf, f"coupled-N{N}-{n}d", fn)


def _x_bump_unflagged():
    """An x-dependent scalar field that keeps the default ``x_dependent=False``."""
    def fn(t, pts):
        a = 1.0 + 0.5 * np.sin(2 * np.pi * pts[:, 0]) * np.cos(2 * np.pi * pts[:, 1])
        return a[:, None, None, None, None] * np.eye(2)[None, :, :, None, None]

    return CoefficientField(2, 1, 0.5, 2.0, math.inf, "x-bump", fn)


def _axiswise_N1():
    """Equal on the faces of each axis and different between the axes: on the (16, 9)
    mesh of unit width, 32 x_1 is even on the axis-0 faces and odd on the axis-1 faces."""
    def fn(t, pts):
        a = 1.0 + 0.5 * (np.round(2 * 16 * pts[:, 0]) % 2)
        return a[:, None, None, None, None] * np.eye(2)[None, :, :, None, None]

    return CoefficientField(2, 1, 1.0, 2.0, math.inf, "axiswise-N1", fn)


FOURIER_FIELDS = {
    "heat": lambda: make_preset("heat", n=2),
    "decoupled-heat-pair": lambda: make_preset("decoupled-heat-pair", n=2),
    "diag": lambda: make_preset("diag", values=(2.0, 0.5)),
    "t-oscillating": lambda: make_preset("t-oscillating", n=2, period=0.01),
    "coupled-N2": lambda: _coupled(2, 2),
    "axiswise-N1": _axiswise_N1,
    # 1-D, N = 1 to 3, on an odd cell count
    "heat-1d": lambda: make_preset("heat", n=1),
    "t-oscillating-1d": lambda: make_preset("t-oscillating", n=1, period=0.01),
    "rotating-1d": lambda: make_preset("rotating", w0=0.5, omega=2.0),
    "coupled-N3-1d": lambda: _coupled(1, 3),
}


def _fourier_mesh(n, steps=4, smallest=False):
    """A periodic mesh of odd and even cell counts: (16, 9) in 2-D, (15,) in 1-D, or with
    ``smallest`` the fewest cells a mesh takes, (4, 5) and (4,); h_x != h_y in 2-D."""
    domain = Domain((0.0,) * n, (1.0, 1.5)[:n], "periodic")
    cells = ((4, 5) if smallest else (16, 9)) if n == 2 else ((4,) if smallest else (15,))
    return domain, Mesh(domain, cells, tau=2.0 ** -10, t0=0.0, steps=steps)


class TestFourierPath:
    @pytest.fixture
    def store(self, monkeypatch):
        """A cold, private step store for the test."""
        monkeypatch.setattr(solver, "_STORE", solver._StepStore())

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("field", sorted(FOURIER_FIELDS))
    def test_matches_superlu(self, store, field, flip):
        coeffs = FOURIER_FIELDS[field]()
        domain, mesh = _fourier_mesh(coeffs.n)
        scheme = ThetaScheme(mesh, OperatorSpec(transposed(coeffs) if flip else coeffs,
                                                domain))
        pair = scheme.implicit_lu(2)
        fourier, stencil = pair
        assert isinstance(fourier, solver._FourierSolver)
        # SuperLU on D as the reference ``assemble`` gathers it, a second build of the weights
        D = step_matrix(mesh, scheme.spec, 2)
        # D^T's stencil is D's own exactly when the assembled D is symmetric
        assert (pair.DT is stencil) == ((D != D.T).nnz == 0)
        # the store charges the real inverse blocks, 8 N^2 bytes per wavenumber, and the
        # stencils of D and of D^T, that of D^T only when it is not D itself
        C0, C1 = math.prod(mesh.cells[:-1]), mesh.cells[-1]
        assert fourier.inv.dtype == np.float64
        assert fourier.nbytes == 8 * coeffs.N ** 2 * C0 * (C1 // 2 + 1)
        assert solver.cache_info().bytes == fourier.nbytes + stencil.nbytes + (
            0 if pair.DT is stencil else pair.DT.nbytes)
        lu = spla.splu(D.tocsc(), permc_spec="MMD_AT_PLUS_A")
        rhs = np.random.default_rng(9).standard_normal((scheme.nn, 3))
        for trans in ("N", "T"):
            block = scheme.solve_implicit(2, rhs, trans=trans)
            ref = lu.solve(rhs, trans=trans)
            for j in range(3):
                flat = scheme.solve_implicit(2, rhs[:, j].copy(), trans=trans)
                assert flat.shape == (scheme.nn,)
                assert flat.tobytes() == block[:, j].tobytes()
                assert np.linalg.norm(flat - ref[:, j]) <= 1e-14 * np.linalg.norm(ref[:, j])

    @pytest.mark.parametrize("case", ["dirichlet", "x-oscillatory", "dirichlet-1d",
                                      "x-oscillatory-1d", "x-bump-unflagged"])
    def test_other_cases_keep_splu(self, store, monkeypatch, case):
        mode = "dirichlet" if case.startswith("dirichlet") else "periodic"
        n = 1 if case.endswith("-1d") else 2
        domain = Domain((0.0,) * n, (1.0, 1.5)[:n], mode)
        mesh = Mesh(domain, (16, 9)[:n], tau=2.0 ** -10, t0=0.0, steps=4)
        if case.startswith("x-oscillatory"):
            coeffs = make_preset("x-oscillatory", n=n)
        elif case == "x-bump-unflagged":
            coeffs = _x_bump_unflagged()
        else:
            coeffs = make_preset("heat", n=n)
        calls = []
        real = spla.splu
        monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(a) or real(*a, **k))
        scheme = ThetaScheme(mesh, OperatorSpec(coeffs, domain))
        lu, D = scheme.implicit_lu(1)
        assert len(calls) == 1 and not isinstance(lu, solver._FourierSolver)
        rhs = np.random.default_rng(10).standard_normal(scheme.nn)
        for trans, mat in (("N", D), ("T", D.T)):
            x = scheme.solve_implicit(1, rhs, trans=trans)
            assert np.linalg.norm(mat @ x - rhs) <= solver.RESIDUAL_TOL * np.linalg.norm(rhs)

    @pytest.mark.parametrize("smallest", [False, True], ids=["mesh", "4-cells"])
    @pytest.mark.parametrize("field", sorted(FOURIER_FIELDS))
    def test_kernel_and_inverse_symbol(self, store, monkeypatch, field, smallest):
        """The kernel, gathered on the 4^n torus of the same h from the first face of each
        axis, is the cell-0 columns of I + tau*assemble(...) on the mesh, to the bit, also
        on the smallest meshes, where an axis of 4 cells is the torus's own."""
        coeffs = FOURIER_FIELDS[field]()
        domain, mesh = _fourier_mesh(coeffs.n, smallest=smallest)
        spec = OperatorSpec(coeffs, domain)
        stencil = ThetaScheme(mesh, spec).implicit_lu(2)[1]
        N = spec.coeffs.N
        want = cell0_kernel(step_matrix(mesh, spec, 2), N, mesh.cells)
        assert stencil.kernel().tobytes() == want.tobytes()
        inv = np.linalg.inv
        inverted = []
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a.shape) or inv(a))
        fourier = solver._FourierSolver(stencil)
        assert len(inverted) == (0 if N == 1 else 1)  # 1 x 1 blocks take a reciprocal
        rfft = np.fft.rfft if mesh.n == 1 else np.fft.rfft2
        # the symbol of an even kernel is real: its real part, inverted in float64
        symbol = np.moveaxis(rfft(want).real, (0, 1), (-2, -1))
        ref = np.moveaxis(inv(symbol), (-2, -1), (0, 1))
        assert fourier.inv.dtype == np.float64
        if N == 1:  # within roundoff of LAPACK's inverse of each 1 x 1 block
            assert np.max(np.abs(fourier.inv - ref) / np.abs(ref)) <= 1e-15
        else:
            assert fourier.inv.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("trans", ["N", "T"])
    @pytest.mark.parametrize("field", ["heat", "coupled-N3-1d"])
    def test_odd_stencil_fails_the_residual_gate(self, store, monkeypatch, field, trans):
        """The solver inverts the real part of the symbol, which is the inverse only for an
        even stencil.  A first-order term b * (u(x + h) - u(x - h)) / (2h) along axis 0
        makes B_{+e1} != B_{-e1}: its solve must raise from the residual check, not
        return a wrong state."""
        coeffs = FOURIER_FIELDS[field]()
        domain, mesh = _fourier_mesh(coeffs.n)
        rhs = np.random.default_rng(21).standard_normal(coeffs.N * mesh.ncells)
        # the even stencil passes the gate
        ThetaScheme(mesh, OperatorSpec(coeffs, domain)).solve_implicit(1, rhs, trans=trans)
        build = solver._Stencil.build

        def odd_build(mesh, A):
            even = build(mesh, A)
            blocks = even.blocks.copy()
            drift = mesh.tau / (2 * mesh.h[0]) * np.eye(even.N)
            for k, d in enumerate(even.offsets.tolist()):
                if d[0] and not any(d[1:]):
                    blocks[k] -= d[0] * drift  # through B_d, cell y reads u(y - d)
            return solver._Stencil(even.cells, even.offsets, blocks)

        monkeypatch.setattr(solver, "_STORE", solver._StepStore())
        monkeypatch.setattr(solver._Stencil, "build", staticmethod(odd_build))
        scheme = ThetaScheme(mesh, OperatorSpec(coeffs, domain))
        D = scheme.implicit_lu(1)[1]
        plus, minus = (D.blocks[D.offsets.tolist().index([s] + [0] * (coeffs.n - 1))]
                       for s in (1, -1))
        assert not np.array_equal(plus, minus)
        with pytest.raises(SolverError, match="residual .* exceeds"):
            scheme.solve_implicit(1, rhs, trans=trans)

    @pytest.mark.parametrize("field", sorted(FOURIER_FIELDS))
    def test_stencil_residual_matches_assembled_matrix(self, store, field):
        """A Fourier step's residual, from shifted copies of the state, is
        ``(I + tau*assemble) @ x - rhs`` to roundoff: "N" with D's stencil, "T" with
        D^T's, on flat states and on blocks in both memory orders."""
        coeffs = FOURIER_FIELDS[field]()
        domain, mesh = _fourier_mesh(coeffs.n)
        spec = OperatorSpec(coeffs, domain)
        pair = ThetaScheme(mesh, spec).implicit_lu(2)
        D = step_matrix(mesh, spec, 2)
        rng = np.random.default_rng(17)
        for stencil, mat in ((pair[1], D), (pair.DT, D.T)):
            for shape, order in (((D.shape[0],), "C"), ((D.shape[0], 3), "C"),
                                 ((D.shape[0], 3), "F")):
                x = np.asarray(rng.standard_normal(shape), order=order)
                rhs = rng.standard_normal(shape)
                got, want = stencil.residual(x, rhs), mat @ x - rhs
                scale = abs(mat) @ abs(x) + abs(rhs)
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-15 * scale), (field, shape, order)

    @pytest.mark.parametrize("field", ["heat", "decoupled-heat-pair", "heat-1d", "rotating-1d"])
    def test_block_residual_equals_flat_residuals(self, store, field):
        """A block's residual, read batch-major, is each column's flat residual to the bit
        (N = 1 and 2, 1-D and 2-D): for the block a solve returns, a transposed
        C-contiguous array, and for blocks in either (nn, B) memory order."""
        coeffs = FOURIER_FIELDS[field]()
        domain, mesh = _fourier_mesh(coeffs.n)
        scheme = ThetaScheme(mesh, OperatorSpec(coeffs, domain))
        pair = scheme.implicit_lu(2)
        rng = np.random.default_rng(23)
        rhs = rng.standard_normal((scheme.nn, 3))
        solved = pair[0].solve(rhs)[0]
        assert solved.T.flags.c_contiguous
        for stencil in (pair[1], pair.DT):
            for x in (solved, np.ascontiguousarray(solved), np.asfortranarray(solved)):
                got = stencil.residual(x, rhs)
                assert got.shape == x.shape
                for b in range(3):
                    flat = stencil.residual(x[:, b].copy(), rhs[:, b].copy())
                    assert got[:, b].tobytes() == flat.tobytes(), (field, b)

    def test_stencil_residual_of_a_wide_block_in_column_chunks(self, store, monkeypatch):
        """A block whose stack of shifted copies would pass ``STACK_BYTES`` is checked a few
        columns at a time, to the same residual, and the shared buffer stays within the
        bound: a (nn, nn) propagator block on a 2-D mesh would otherwise stack 6 nn^2."""
        domain, mesh = _fourier_mesh(2)
        spec = OperatorSpec(make_preset("heat", n=2), domain)
        column = 6 * mesh.ncells * 8  # the 5-point stencil's copies and rhs
        monkeypatch.setattr(solver._Stencil, "STACK_BYTES", 2 * column)
        monkeypatch.setattr(solver._Stencil, "_buffer", np.empty(0))
        stencil = ThetaScheme(mesh, spec).implicit_lu(1)[1]
        assert len(stencil.offsets) == 5
        rng = np.random.default_rng(19)
        x, rhs = (np.asfortranarray(rng.standard_normal((mesh.ncells, 5))) for _ in range(2))
        D = step_matrix(mesh, spec, 1)
        got = stencil.residual(x, rhs)
        assert solver._Stencil._buffer.nbytes == 2 * column
        assert np.all(np.abs(got - (D @ x - rhs)) <= 1e-15 * (abs(D) @ abs(x) + abs(rhs)))

    @pytest.mark.parametrize("cells", [(2,), (3,), (2, 3), (3, 2), (2, 2), (3, 5)])
    def test_stencil_residual_on_two_and_three_cell_axes(self, cells):
        """On a 2-cell axis the offsets +1 and -1 shift to the same cell, on a 3-cell axis
        each wrapped piece is one cell wide: the residual sums every block, as the
        block-circulant matrix D[x + d, x] = blocks[d] built entry by entry does."""
        N, C = 2, math.prod(cells)
        rng = np.random.default_rng(18)
        offsets = np.array(list(itertools.product((-1, 0, 1), repeat=len(cells))))
        blocks = rng.standard_normal((len(offsets), N, N))
        stencil = solver._Stencil(cells, offsets, blocks)
        D = np.zeros((N * C, N * C))
        for d, block in zip(offsets, blocks):
            for y in itertools.product(*map(range, cells)):
                x = np.ravel_multi_index(tuple((np.array(y) + d) % cells), cells)
                y = np.ravel_multi_index(y, cells)
                D[np.ix_(np.arange(N) * C + x, np.arange(N) * C + y)] += block
        kernel = stencil.kernel()  # the cell-0 columns, with coinciding offsets summed
        assert np.allclose(kernel, D[:, np.arange(N) * C].T.reshape(N, N, *cells).swapaxes(0, 1),
                           rtol=0, atol=1e-15)
        for st, mat in ((stencil, D), (stencil.T, D.T)):
            for shape in ((N * C,), (N * C, 4)):
                x, rhs = rng.standard_normal(shape), rng.standard_normal(shape)
                got, want = st.residual(x, rhs), mat @ x - rhs
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-15 * (abs(mat) @ abs(x) + abs(rhs)))

    @pytest.mark.parametrize("cells", [(12,), (9,), (8, 6), (7, 5)])
    def test_transforms_are_the_per_axis_calls(self, cells):
        """``_rfft`` and ``_irfft`` give bitwise what ``rfft`` and ``irfft`` give in 1-D, and
        ``rfft`` then ``fft`` along axis -2, and ``ifft`` along it then ``irfft``, in 2-D
        (odd cell counts included)."""
        a = np.random.default_rng(16).standard_normal((3, 2, *cells))
        if len(cells) == 1:
            y, back = np.fft.rfft(a), np.fft.irfft(np.fft.rfft(a), n=cells[0])
        else:
            y = np.fft.fft(np.fft.rfft(a), axis=-2)
            back = np.fft.irfft(np.fft.ifft(y, axis=-2), n=cells[1])
        assert solver._rfft(a, cells).tobytes() == y.tobytes()
        assert solver._irfft(y, cells).tobytes() == back.tobytes()

    def test_transforms_on_three_axes(self):
        """On three cell axes the same loop is ``rfftn`` and ``irfftn`` to roundoff."""
        cells = (5, 6, 7)
        a = np.random.default_rng(17).standard_normal((2, *cells))
        y = solver._rfft(a, cells)
        want = np.fft.rfftn(a, axes=(-3, -2, -1))
        assert y.shape == want.shape
        assert np.max(np.abs(y - want)) <= 1e-14 * np.max(np.abs(want))
        back = solver._irfft(y, cells)
        assert np.max(np.abs(back - np.fft.irfftn(y, s=cells, axes=(-3, -2, -1)))) <= 1e-15
        assert np.max(np.abs(back - a)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2])
    def test_fourier_path_needs_every_face_equal(self, store, n):
        """A Fourier step reads one face tensor per axis, and its residual applies the
        same stencil, so only the exact decision keeps an x-dependent field off the path:
        one entry one ulp off at one face of any axis sends the step to SuperLU.  Built
        from the first faces anyway, the step solves a different operator."""
        domain, mesh = _fourier_mesh(n)
        coupled = _coupled(n, 2)
        assert isinstance(ThetaScheme(mesh, OperatorSpec(coupled, domain)).implicit_lu(1)[0],
                          solver._FourierSolver)
        rng = np.random.default_rng(11)
        rhs = rng.standard_normal(2 * mesh.ncells)
        starts = np.cumsum([0] + [len(mesh.face_positions(a)[0]) for a in range(n)])
        for a in range(n):
            face = int(rng.integers(starts[a] + 1, starts[a + 1]))

            def off_by_one_ulp(t, pts, _face=face, _a=a):
                A = coupled.tensor_fn(t, pts)
                A[_face, _a, _a, 1, 0] = np.nextafter(A[_face, _a, _a, 1, 0], np.inf)
                return A

            spec = OperatorSpec(CoefficientField(n, 2, 1.0, 10.0, math.inf, f"ulp-off-{a}",
                                                 off_by_one_ulp), domain)
            assert solver._assemble(mesh, spec, 0.0)[1] is False
            scheme = ThetaScheme(mesh, spec)
            assert not isinstance(scheme.implicit_lu(1)[0], solver._FourierSolver)
            scheme.solve_implicit(1, rhs)
        # the x-oscillatory field forced onto the path: the residual cannot tell
        field = OperatorSpec(make_preset("x-oscillatory", n=n), domain)
        A = solver._assemble(mesh, field, 0.0)[0]
        forced = solver._Stencil.build(mesh, A)
        b = rhs[:mesh.ncells]
        x = solver._FourierSolver(forced).solve(b)[0]
        assert np.linalg.norm(forced.residual(x, b)) <= 1e-13 * np.linalg.norm(b)
        assert np.linalg.norm(step_matrix(mesh, field, 0) @ x - b) > 1e-3 * np.linalg.norm(b)


MARCH_CASES = ["fourier", "fourier-1d", "dirichlet", "dirichlet-1d"]


def _march_scheme(case):
    """A scheme on the Fourier path (a periodic mesh) or on SuperLU (a dirichlet one).

    The 1-D cases march the rotating N = 2 field, the 2-D ones heat fields.
    """
    mode = "dirichlet" if case.startswith("dirichlet") else "periodic"
    n = 1 if case.endswith("-1d") else 2
    domain = Domain((0.0,) * n, (1.0, 1.5)[:n], mode)
    mesh = Mesh(domain, (16, 9)[:n], tau=2.0 ** -10, t0=0.0, steps=12)
    coeffs = (make_preset("rotating", w0=0.5, omega=2.0) if n == 1
              else make_preset("decoupled-heat-pair" if case == "fourier" else "heat", n=2))
    scheme = ThetaScheme(mesh, OperatorSpec(coeffs, domain))
    assert isinstance(scheme.implicit_lu(1)[0], solver._FourierSolver) == (mode == "periodic")
    return scheme


class TestStoredTranspose:
    @pytest.fixture
    def store(self, monkeypatch):
        """A cold, private step store for the test."""
        monkeypatch.setattr(solver, "_STORE", solver._StepStore())

    @pytest.mark.parametrize("case", MARCH_CASES)
    def test_transposed_residual_matrix_built_once(self, store, monkeypatch, case):
        scheme = _march_scheme(case)
        pair = scheme.implicit_lu(1)
        D = pair[1]
        made = []
        if case.startswith("fourier"):
            mirror = solver._Stencil(D.cells, -D.offsets, D.blocks.swapaxes(1, 2))
            # the 2-D decoupled heat pair is symmetric: D^T is D's own stencil, charged once
            assert (pair.DT is D) == (case == "fourier")
            if pair.DT is D:
                assert mirror.kernel().tobytes() == D.kernel().tobytes()
                assert solver.cache_info().bytes == pair[0].nbytes + D.nbytes
            else:  # D^T's stencil: the offsets negated and the blocks transposed
                assert np.array_equal(pair.DT.offsets, mirror.offsets)
                assert np.array_equal(pair.DT.blocks, mirror.blocks)
            real = solver._Stencil.T
            monkeypatch.setattr(solver._Stencil, "T",
                                property(lambda self: made.append(1) or real.fget(self)))
        else:
            # a view that shares D's arrays, so the store's byte charge is the pair's alone
            assert all(np.shares_memory(getattr(D, a), getattr(pair.DT, a))
                       for a in ("data", "indices", "indptr"))
            real = type(D).transpose
            monkeypatch.setattr(type(D), "transpose",
                                lambda *a, **k: made.append(1) or real(*a, **k))
        assert solver.cache_info().bytes == solver._factor_bytes(pair)
        rhs = np.random.default_rng(4).standard_normal(scheme.nn)
        for _ in range(3):
            x = scheme.solve_implicit(1, rhs, trans="T")
        assert made == [] and scheme.implicit_lu(1).DT is pair.DT
        ref = step_matrix(scheme.mesh, scheme.spec, 1).T
        assert np.linalg.norm(ref @ x - rhs) <= solver.RESIDUAL_TOL * np.linalg.norm(rhs)


class TestStreamingMarch:
    """A march keeps the slices and rows it is asked for, bitwise as the full march has them."""

    @pytest.mark.parametrize("block", [False, True])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("case", MARCH_CASES)
    def test_kept_equals_full_march_sliced(self, case, direction, block):
        scheme = _march_scheme(case)
        rng = np.random.default_rng(5)
        shape = (scheme.nn, 3) if block else (scheme.nn,)
        x, G = rng.standard_normal(shape), rng.standard_normal(shape)
        def run(keep=solver._Keep()):
            return solver._march(scheme, 2, 11, x, lambda m: G if m in (4, 5) else None, keep,
                                 backward=direction == "backward")

        full = run()
        assert full.shape == shape[1:] + (10, scheme.nn)
        slices = [2, 5, 6, 11]  # both ends of the window and the source steps
        at = [m - 2 for m in slices]
        rows = rng.permutation(scheme.nn)[:20]
        for keep, want in ((solver._Keep(slices, rows), full[..., at, :][..., rows]),
                           (solver._Keep(slices), full[..., at, :]),
                           (solver._Keep(rows=rows), full[..., rows])):
            kept = run(keep)
            assert kept.shape == want.shape and kept.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [False, True])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("case", MARCH_CASES)
    def test_march_ends_at_last_kept_slice(self, monkeypatch, case, direction, block):
        """A forward march stops at its last kept slice and a backward one at its
        first; what it keeps is bitwise what the full march has there."""
        scheme = _march_scheme(case)
        backward = direction == "backward"
        rng = np.random.default_rng(8)
        shape = (scheme.nn, 3) if block else (scheme.nn,)
        x, G = rng.standard_normal(shape), rng.standard_normal(shape)
        name = "backward_step" if backward else "forward_step"
        steps, real = [], getattr(scheme, name)
        monkeypatch.setattr(scheme, name, lambda m, *a: steps.append(m) or real(m, *a))

        def run(keep=solver._Keep()):
            steps.clear()
            return solver._march(scheme, 2, 11, x, lambda m: G if m in (4, 5) else None, keep,
                                 backward=backward)

        full = run()
        assert sorted(steps) == list(range(2, 11))
        slices = [5, 8, 10] if backward else [3, 5, 7]  # the window is 2..11
        kept = run(solver._Keep(slices))
        assert sorted(steps) == (list(range(5, 11)) if backward else list(range(2, 7)))
        assert kept.tobytes() == full[..., [m - 2 for m in slices], :].tobytes()

    @pytest.mark.parametrize("block", [False, True])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("case", MARCH_CASES)
    def test_stream_yields_the_kept_states(self, case, direction, block):
        """The time loop hands each kept state on as the march passes it, in march order,
        bitwise as ``_march`` stacks it."""
        scheme = _march_scheme(case)
        backward = direction == "backward"
        rng = np.random.default_rng(3)
        shape = (scheme.nn, 3) if block else (scheme.nn,)
        x, G = rng.standard_normal(shape), rng.standard_normal(shape)
        rows = rng.permutation(scheme.nn)[:20]
        for keep in (solver._Keep(), solver._Keep(range(3, 9)), solver._Keep([2, 5, 11], rows)):
            args = (scheme, 2, 11, x, lambda m: G if m in (4, 5) else None, keep, backward)
            stacked = solver._march(*args)
            slices = list(range(2, 12) if keep.slices is None else keep.slices)
            streamed = list(solver._stream(*args))
            assert [m for m, _ in streamed] == (slices[::-1] if backward else slices)
            for m, state in streamed:
                assert state.T.tobytes() == stacked[..., slices.index(m), :].tobytes()

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("case", ["fourier-1d", "dirichlet-1d"])
    def test_cells_of_every_component(self, case, direction):
        scheme = _march_scheme(case)
        mesh, spec = scheme.mesh, scheme.spec
        g = np.random.default_rng(6).standard_normal((2, mesh.ncells))
        cells = np.array([0, 3, 4, 15])
        lo, hi = float(mesh.times[1]), float(mesh.times[9])
        full = (solve_forward(spec, mesh, g, None, lo, hi) if direction == "forward"
                else solve_backward(spec, mesh, g, None, hi, lo))
        kept = solver._solve(spec, mesh, g, None, lo, hi, direction,
                             solver._Keep.on_cells(mesh, 2, [1, 4, 9], cells))
        assert kept.tobytes() == full.values[[0, 3, 8]][:, :, cells].tobytes()

    def test_window_without_a_step_is_one_error(self, mesh32, heat_spec):
        """Every march path, and the space-time oracle, rejects a window that spans no
        step with the marcher's error."""
        r, y = 4 / 32, mesh32.centers[16]  # the pole's cylinders span 8 slabs
        s = float(mesh32.times[20])
        first, last = float(mesh32.times[12]), float(mesh32.times[28])
        calls = {
            "solve_forward": lambda: solve_forward(heat_spec, mesh32, None, None, s, s),
            "_solve backward": lambda: solver._solve(heat_spec, mesh32, None, None, s, s,
                                                     "backward"),
            # the forward column starts at its source's first slice, the transpose
            # column at its source's last one
            "_green_block forward": lambda: green._green_block(heat_spec, mesh32, [((s, y), r)],
                                                               [1], first, "forward"),
            "_green_block backward": lambda: green._green_block(heat_spec, mesh32, [((s, y), r)],
                                                                [1], last, "backward"),
            "normalization": lambda: check_normalization(heat_spec, mesh32, s, s),
            "dense_spacetime_oracle":
                lambda: dense_spacetime_oracle(heat_spec, mesh32, None, None, s, s),
        }
        for name, call in calls.items():
            with pytest.raises(ConfigError) as err:
                call()
            assert re.fullmatch(r"the march window (\d+)\.\.\1 must span at least one time "
                                r"step", str(err.value)), name

    @pytest.mark.parametrize("slices", [[1, 5], [5, 12], [6, 4], [4, 4]])
    def test_slices_outside_or_out_of_order_rejected(self, slices):
        scheme = _march_scheme("dirichlet-1d")
        x = np.zeros(scheme.nn)
        for backward in (False, True):
            with pytest.raises(ConfigError, match="kept slices"):
                solver._march(scheme, 2, 11, x, lambda m: None, solver._Keep(slices), backward)


def _carry_scheme(field):
    """A scheme on the Fourier path with every step's solver already in the store."""
    coeffs = FOURIER_FIELDS[field]()
    domain, mesh = _fourier_mesh(coeffs.n, steps=12)
    scheme = ThetaScheme(mesh, OperatorSpec(coeffs, domain))
    for m in range(1, mesh.steps + 1):
        assert isinstance(scheme.implicit_lu(m)[0], solver._FourierSolver)
    return scheme


def _count_forward_ffts(monkeypatch):
    """Record (name, input shape) of every real forward FFT greenlab calls through ``np.fft``."""
    calls = []
    for name in ("rfft", "rfft2", "rfftn"):
        real = getattr(solver.np.fft, name)
        monkeypatch.setattr(solver.np.fft, name,
                            lambda a, *args, _name=name, _real=real, **kw:
                            calls.append((_name, a.shape)) or _real(a, *args, **kw))
    return calls


CARRY_FIELDS = ["heat", "t-oscillating", "coupled-N2", "heat-1d", "rotating-1d",
                "coupled-N3-1d"]


class TestSpectrumCarry:
    """A Fourier step whose rhs is the state the previous step returned reuses its spectrum."""

    @pytest.fixture
    def store(self, monkeypatch):
        """A cold, private step store for the test."""
        monkeypatch.setattr(solver, "_STORE", solver._StepStore())

    @staticmethod
    def _run(scheme, x, G, direction):
        return solver._march(scheme, 2, 11, x, lambda m: G if m in (4, 5) else None,
                             backward=direction == "backward")

    @pytest.mark.parametrize("block", [False, True])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("field", CARRY_FIELDS)
    def test_one_rfft_per_march_and_source_step(self, store, monkeypatch, field, direction,
                                                block):
        scheme = _carry_scheme(field)
        rng = np.random.default_rng(14)
        shape = (scheme.nn, 3) if block else (scheme.nn,)
        x, G = rng.standard_normal(shape), rng.standard_normal(shape)
        calls = _count_forward_ffts(monkeypatch)
        self._run(scheme, x, None, direction)
        # the first step's rhs, by ``rfft`` on 1-D and 2-D alike: never ``rfft2`` or
        # ``rfftn``, which run the same per-axis transforms behind more argument handling
        assert [name for name, _ in calls] == ["rfft"]
        del calls[:]
        self._run(scheme, x, G, direction)
        assert len(calls) == 3  # the first step and the two source steps

    @pytest.mark.parametrize("case", ["dirichlet", "dirichlet-1d"])
    def test_superlu_march_transforms_nothing(self, store, monkeypatch, case):
        scheme = _march_scheme(case)
        calls = _count_forward_ffts(monkeypatch)
        rng = np.random.default_rng(15)
        x, G = rng.standard_normal(scheme.nn), rng.standard_normal(scheme.nn)
        for direction in ("forward", "backward"):
            self._run(scheme, x, G, direction)
        assert calls == []

    @pytest.mark.parametrize("block", [False, True])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("field", CARRY_FIELDS)
    def test_matches_march_transforming_every_step(self, store, monkeypatch, field, direction,
                                                   block):
        scheme = _carry_scheme(field)
        rng = np.random.default_rng(16)
        shape = (scheme.nn, 3) if block else (scheme.nn,)
        x, G = rng.standard_normal(shape), rng.standard_normal(shape)
        carried = self._run(scheme, x, G, direction)
        if block:  # each column marched alone, bit for bit
            for j in range(3):
                alone = self._run(scheme, x[:, j].copy(), G[:, j].copy(), direction)
                assert alone.tobytes() == carried[j].tobytes()
        real = solver._FourierSolver.solve
        monkeypatch.setattr(solver._FourierSolver, "solve",
                            lambda self, rhs, trans="N", spectrum=None: real(self, rhs, trans))
        ref = self._run(scheme, x, G, direction)
        err = np.linalg.norm(carried - ref, axis=-1)
        assert np.all(err <= 1e-13 * np.linalg.norm(ref, axis=-1))

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("field", ["heat", "heat-1d"])
    def test_corrupted_spectrum_fails_the_residual(self, store, field, direction):
        scheme = _carry_scheme(field)
        step = scheme.forward_step if direction == "forward" else scheme.backward_step
        y = step(4, np.random.default_rng(17).standard_normal(scheme.nn))
        state, spectrum = scheme._carry
        assert state is y
        bin_ = (0, 0) + (1,) * scheme.mesh.n  # not a self-conjugate bin
        spectrum[bin_] += 1e-6 * np.max(np.abs(spectrum))
        with pytest.raises(SolverError, match="residual"):
            step(5, y)

    def test_subnormal_spectrum_parts_flushed_bitwise(self, store, monkeypatch):
        """Every eighth step sets the carried spectrum's subnormal parts to 0; the
        states stay bitwise those of a march that keeps them."""
        domain = Domain((0.0,), (1.0,), "periodic")
        mesh = Mesh(domain, (16,), tau=2.0 ** -6, t0=0.0, steps=256)
        spec = OperatorSpec(make_preset("heat", n=1), domain)
        x = np.random.default_rng(19).standard_normal(16)

        def march():
            scheme = ThetaScheme(mesh, spec)
            states = solver._march(scheme, 0, 256, x, lambda m: None)
            parts = scheme._carry[1].view(np.float64)
            return states, int(np.sum((parts != 0) & (np.abs(parts) < np.finfo(float).tiny)))

        flushed, left = march()
        monkeypatch.setattr(solver, "_flush_subnormals", lambda spectrum: None)
        kept, subnormal = march()
        assert left == 0 and subnormal > 0
        assert flushed.tobytes() == kept.tobytes()

    def test_march_holds_nothing_past_its_scheme(self, store):
        scheme = _carry_scheme("t-oscillating")
        filled = solver.cache_info()
        x = np.random.default_rng(18).standard_normal(scheme.nn)
        solver._march(scheme, 0, 12, x, lambda m: None)
        assert solver.cache_info() == filled  # no spectrum in the step store
        for m in range(12):
            x = scheme.forward_step(m, x)
        last = weakref.ref(x)
        del x, scheme
        gc.collect()
        assert last() is None
