import math
import tracemalloc

import numpy as np
import pytest

from greenlab import (ConfigError, Domain, Mesh, OperatorSpec, Trajectory, make_preset,
                      solve_forward)
from greenlab import cli, green, solver
from greenlab import verify as V
from greenlab.green import _mollifier, wrapped_heat_kernel
from greenlab.problem import seeded_uniform
from greenlab.solver import ThetaScheme

from conftest import bundle_1d
from reference import (assert_fits_match_lapack, column, cylinder, cylinder_average, propagator,
                       slice_at, value_at)


def _per_pair_duality(spec, mesh, pairs, T, S, tolerance=1e-10):
    """Reference: the per-pair loop that marched 2N columns for every pair, each
    pair's blocks measured at the block's scale."""
    N = spec.coeffs.N
    worst = 0.0
    count = 0
    for (Y, X, rho, sigma) in pairs:
        # F[k, l]: component l of forward column k; Bt[k, l]: component k of transpose column l
        F = np.stack([cylinder_average(column(spec, mesh, Y, k, rho, T), X, sigma, "plus")
                      for k in range(1, N + 1)])
        Bt = np.stack([cylinder_average(column(spec, mesh, X, l, sigma, S, "backward"),
                                        Y, rho, "minus") for l in range(1, N + 1)], axis=1)
        scale = max(float(np.max(np.abs(F))), float(np.max(np.abs(Bt))))
        worst = max(worst, float(np.max(np.abs(Bt - F))) / scale)
        count += N * N
    status = "pass" if worst <= tolerance else "fail"
    return V.CheckRecord("duality", "averaged-duality", status, tolerance,
                         fitted={"max_residual": worst}, samples={"pairs": count})


@pytest.fixture
def scheme_log(monkeypatch):
    """Every ThetaScheme built through solver, green or verify, with the rhs shapes it
    solved."""
    made = []

    class Logged(ThetaScheme):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.shapes = set()
            self.solves = 0
            made.append(self)

        def solve_implicit(self, m, rhs, trans="N"):
            self.shapes.add(rhs.shape)
            self.solves += 1
            return super().solve_implicit(m, rhs, trans)

    for module in (solver, green, V):
        monkeypatch.setattr(module, "ThetaScheme", Logged)
    return made


class TestDuality:
    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    def test_rotating_grid_marches_each_direction_once(self, boundary, scheme_log, monkeypatch):
        """The columns-rotating-1d grid: 3 poles x 3 probes x rho {4, 3} x sigma {4, 3}
        cells.  On the dirichlet mesh the blocks solve by SuperLU."""
        domain = Domain((0.0,), (1.0,), boundary)
        mesh = Mesh(domain, (32,), tau=1.0 / 512, t0=0.0, steps=64)
        spec = OperatorSpec(make_preset("rotating", w0=0.5, omega=2.0), domain)
        poles = [(20 / 512, mesh.centers[c]) for c in (6, 9, 12)]
        probes = [(44 / 512, mesh.centers[c]) for c in (19, 22, 25)]
        radii = [4 / 32, 3 / 32]
        pairs = [(Y, X, rho, sigma) for Y in poles for X in probes
                 for rho in radii for sigma in radii]
        rec = V.check_duality(spec, mesh, pairs, T=53 / 512, S=11 / 512)
        # 3 poles x 2 radii x N = 2 forward columns in one march, 3 probes x 2 radii x 2
        # transpose columns in another; 144 per-pair columns before
        assert len(scheme_log) == 2
        assert all(scheme.shapes == {(64, 12)} for scheme in scheme_log)
        monkeypatch.undo()
        fourier = isinstance(ThetaScheme(mesh, spec).implicit_lu(1)[0], solver._FourierSolver)
        assert fourier == (boundary == "periodic")
        ref = _per_pair_duality(spec, mesh, pairs, T=53 / 512, S=11 / 512)
        assert rec.to_dict() == ref.to_dict()
        assert rec.fitted["max_residual"] == ref.fitted["max_residual"] > 0
        assert rec.samples["pairs"] == 36 * 4
        assert rec.status == "pass"

    def test_poles_at_two_times_match_per_pair_columns(self, mesh32, periodic_1d, scheme_log,
                                                       monkeypatch):
        """Sources pack only with sources whose pole shares their time: the forward
        columns at two pole times march in two blocks, the transpose ones in one, and
        the record is bitwise the per-pair columns'."""
        spec = OperatorSpec(make_preset("rotating", w0=0.5, omega=2.0), periodic_1d)
        poles = [(20 / 512, mesh32.centers[6]), (24 / 512, mesh32.centers[10]),
                 (20 / 512, mesh32.centers[12])]
        probes = [(44 / 512, mesh32.centers[c]) for c in (19, 25)]
        radii = [4 / 32, 3 / 32]
        pairs = [(Y, X, rho, sigma) for Y in poles for X in probes
                 for rho in radii for sigma in radii]
        rec = V.check_duality(spec, mesh32, pairs, T=53 / 512, S=11 / 512)
        # (2 poles at 20 and 1 at 24) x 2 radii x N = 2; 2 probes x 2 radii x 2
        assert sorted(scheme.shapes.pop()[1] for scheme in scheme_log) == [4, 8, 8]
        monkeypatch.undo()
        ref = _per_pair_duality(spec, mesh32, pairs, T=53 / 512, S=11 / 512)
        assert rec.to_dict() == ref.to_dict() and rec.status == "pass"

    def test_2d_blocks_stay_within_the_packing_bound(self, periodic_2d, scheme_log,
                                                     monkeypatch):
        """On 64 x 64 cells a column's spectrum is 64 x 33 x 16 bytes, so 3 columns fit
        ``BLOCK_SPECTRUM_BYTES``: 4 forward sources march as blocks of 3 and 1, and the
        record is bitwise the per-pair columns'."""
        mesh = Mesh(periodic_2d, (64, 64), tau=2.0 ** -12, t0=0.0, steps=96)
        spec = OperatorSpec(make_preset("heat", n=2), periodic_2d)
        tau = mesh.tau
        poles = [(32 * tau, mesh.centers[c]) for c in (20 * 64 + 20, 26 * 64 + 18)]
        probes = [(64 * tau, mesh.centers[40 * 64 + 42])]
        pairs = [(Y, X, rho, 4 / 64) for Y in poles for X in probes for rho in (4 / 64, 3 / 64)]
        rec = V.check_duality(spec, mesh, pairs, T=81 * tau, S=15 * tau)
        widths = sorted(width for scheme in scheme_log for _, width in scheme.shapes)
        assert widths == [1, 1, 3]
        assert 3 * 64 * 33 * 16 <= solver.BLOCK_SPECTRUM_BYTES < 4 * 64 * 33 * 16
        monkeypatch.undo()
        ref = _per_pair_duality(spec, mesh, pairs, T=81 * tau, S=15 * tau)
        assert rec.to_dict() == ref.to_dict() and rec.status == "pass"

    def test_heat_tight(self, mesh32, heat_spec):
        pairs = [((16 / 512, mesh32.centers[8]), (44 / 512, mesh32.centers[24]),
                  4 / 32, 4 / 32)]
        rec = V.check_duality(heat_spec, mesh32, pairs, T=64 / 512, S=0.0)
        assert rec.status == "pass"
        assert rec.fitted["max_residual"] <= 1e-12

    def test_no_pairs_rejected(self, mesh32, heat_spec):
        with pytest.raises(ConfigError, match="at least one"):
            V.check_duality(heat_spec, mesh32, [], T=64 / 512, S=0.0)

    def test_nonsymmetric_system(self, mesh32, periodic_1d):
        spec = OperatorSpec(make_preset("rotating", omega=2.0), periodic_1d)
        pairs = [((16 / 512, mesh32.centers[8]), (44 / 512, mesh32.centers[22]),
                  4 / 32, 3 / 32),
                 ((20 / 512, mesh32.centers[12]), (40 / 512, mesh32.centers[28]),
                  3 / 32, 4 / 32)]
        rec = V.check_duality(spec, mesh32, pairs, T=64 / 512, S=0.0)
        assert rec.status == "pass"
        assert rec.fitted["max_residual"] <= 1e-10

    def test_mismatched_backward_fixture_shows_drift(self, mesh32, periodic_1d):
        """Stepping the transposed coefficients instead of transposing the
        matrices leaves an O(tau) residual in the averaged duality; this is
        what the exact-adjoint contract buys."""
        spec = OperatorSpec(make_preset("rotating", omega=4.0), periodic_1d)
        Y = (16 / 512, mesh32.centers[8])
        X = (44 / 512, mesh32.centers[24])
        rho = sigma = 4 / 32
        fwd = column(spec, mesh32, Y, 1, rho, 64 / 512)
        rhs = float(cylinder_average(fwd, X, sigma, "plus")[0])

        # fixture: march the transposed operator backward in time with the
        # same implicit-Euler recipe (coefficients at each step's own time)
        t_spec = OperatorSpec(spec.coeffs.transposed(), periodic_1d)
        scheme = ThetaScheme(mesh32, t_spec)
        q = _mollifier(mesh32, 2, X[1], sigma, 1)
        n_sig = mesh32.slab_count(sigma)
        i_pole = 44
        w = np.zeros(2 * 32)
        vals = np.zeros((mesh32.steps + 1, 2, 32))
        for m in range(i_pole + n_sig - 1, -1, -1):
            rhs_vec = w + mesh32.tau * (q if i_pole <= m < i_pole + n_sig else 0.0)
            w = scheme.solve_implicit(m, rhs_vec)  # tA at the step's own time
            vals[m] = w.reshape(2, 32)
        mock = Trajectory(mesh32, 0, vals)
        lhs = float(cylinder_average(mock, Y, rho, "minus")[0])
        resid = abs(lhs - rhs) / max(abs(lhs), abs(rhs))

        exact = V.check_duality(spec, mesh32, [(Y, X, rho, sigma)], 64 / 512, 0.0)
        assert resid > 1e-8
        assert resid > 100 * exact.fitted["max_residual"]


class TestExactChecks:
    def test_causality_marches_its_ladder_once(self, mesh32, periodic_1d, scheme_log):
        spec = OperatorSpec(make_preset("rotating", w0=0.5, omega=2.0), periodic_1d)
        Y = (20 / 512, mesh32.centers[16])
        rec = V.check_causality(spec, mesh32, Y, [4 / 32, 3 / 32], 53 / 512)
        assert rec.status == "pass" and rec.fitted["max_early_value"] == 0.0
        # one march, a column of component 1 per radius
        assert len(scheme_log) == 1 and scheme_log[0].shapes == {(64, 2)}

    def test_causality_reads_marched_values(self, mesh32, periodic_1d, monkeypatch):
        """A step that adds 1.0 to every state puts nonzero values before the
        source window, and the check must see them."""
        spec = OperatorSpec(make_preset("rotating", w0=0.5, omega=2.0), periodic_1d)
        Y = (20 / 512, mesh32.centers[16])
        real = ThetaScheme.forward_step
        monkeypatch.setattr(ThetaScheme, "forward_step",
                            lambda self, m, u, g=None: real(self, m, u, g) + 1.0)
        rec = V.check_causality(spec, mesh32, Y, [4 / 32, 3 / 32], 53 / 512)
        assert rec.status == "fail" and rec.fitted["max_early_value"] >= 1.0

    def test_semigroup_associativity(self, mesh32, heat_spec):
        rec1 = V.check_semigroup(heat_spec, mesh32, 0.0, 16 / 512, 48 / 512)
        rec2 = V.check_semigroup(heat_spec, mesh32, 16 / 512, 32 / 512, 48 / 512)
        assert rec1.status == rec2.status == "pass"
        assert rec1.fitted["max_residual"] <= 1e-12

    def test_semigroup_keeps_two_slices_of_one_march(self, mesh32, periodic_1d, scheme_log):
        """Y_r and Y_t are the slices at r and t of one march of the (nn, K) probe block
        from s, and Z_t is a second march from r: (t - s) + (t - r) solves of the block."""
        spec = OperatorSpec(make_preset("rotating", w0=0.5, omega=2.0), periodic_1d)
        rec = V.check_semigroup(spec, mesh32, 0.0, 24 / 512, 56 / 512)
        assert sum(scheme.solves for scheme in scheme_log) == 56 + 32
        assert all(scheme.shapes == {(64, V.SEMIGROUP_PROBES)} for scheme in scheme_log)
        assert rec.status == "pass" and rec.fitted["max_residual"] <= 1e-12

    def test_semigroup_needs_interior_time(self, mesh32, heat_spec):
        with pytest.raises(ConfigError):
            V.check_semigroup(heat_spec, mesh32, 0.0, 0.0, 48 / 512)

    def test_normalization_periodic_all_presets(self, mesh32, periodic_1d):
        for spec in bundle_1d(periodic_1d):
            rec = V.check_normalization(spec, mesh32, 0.0, 32 / 512)
            assert rec.status == "pass"
            assert rec.fitted["max_row_deviation"] <= 1e-12

    @pytest.mark.peak
    def test_normalization_holds_no_dense_propagator(self, periodic_2d):
        """On 64 x 64 cells the march of the constant state holds far less than one
        dense nn x nn array."""
        mesh = Mesh(periodic_2d, (64, 64), tau=2.0 ** -12, t0=0.0, steps=16)
        spec = OperatorSpec(make_preset("heat", n=2), periodic_2d)
        tracemalloc.start()
        try:
            rec = V.check_normalization(spec, mesh, 0.0, float(mesh.times[-1]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.status == "pass", rec.fitted
        assert peak < mesh.ncells ** 2 * 8

    def test_normalization_dirichlet_informational_deficit(self, dirichlet_1d):
        mesh = Mesh(dirichlet_1d, (24,), tau=1 / 512, t0=0.0, steps=32)
        spec = OperatorSpec(make_preset("heat", n=1), dirichlet_1d)
        rec = V.check_normalization(spec, mesh, 0.0, 32 / 512)
        assert rec.status == "informational"
        assert rec.fitted["boundary_deficit"] >= 0.0

    def test_rerun_identical_records(self, mesh32, heat_spec):
        a = V.check_semigroup(heat_spec, mesh32, 0.0, 16 / 512, 48 / 512)
        b = V.check_semigroup(heat_spec, mesh32, 0.0, 16 / 512, 48 / 512)
        assert a.to_dict() == b.to_dict()


class TestProbeSemigroup:
    """``semigroup`` marches a seeded probe block (Freivalds' check), not dense
    propagators, so it can fail, agrees with the dense identity and runs on any mesh."""

    @pytest.mark.parametrize("preset", ["heat", "rotating"])
    def test_a_skipped_first_step_fails(self, mesh32, periodic_1d, monkeypatch, preset):
        kw = {"n": 1} if preset == "heat" else {"w0": 0.5, "omega": 2.0}
        spec = OperatorSpec(make_preset(preset, **kw), periodic_1d)
        args = (spec, mesh32, 0.0, 24 / 512, 56 / 512)
        assert V.check_semigroup(*args).status == "pass"
        real = V._march

        def skipping(scheme, i0, i1, x, src, keep=solver._Keep(), backward=False):
            return real(scheme, i0 + 1, i1, x, src, keep, backward)  # starts a step late

        monkeypatch.setattr(V, "_march", skipping)
        rec = V.check_semigroup(*args)
        assert rec.status == "fail" and rec.fitted["max_residual"] > 1e-6

    @pytest.mark.parametrize("name", ["heat-1d-core", "rotating-2x2"])
    def test_probe_and_dense_residuals_on_bundled_meshes(self, name):
        """The bundled scenarios' records, and the dense P(t, s) - P(t, r) P(r, s) of
        ``tests/reference.py`` at the same times, both stay within 1e-12."""
        sc = cli.load_scenario(cli.Path(cli.__file__).parent / "scenarios" / f"{name}.json")
        ctx = cli.build_context(sc)
        params = next({k: v for k, v in c.items() if k != "name"} for c in sc["checks"]
                      if c["name"] == "semigroup")
        rec = cli._run_semigroup(ctx, **params)
        assert rec.status == "pass" and rec.fitted["max_residual"] <= 1e-12
        s, r, t = (rec.samples[k] for k in ("s", "r", "t"))
        P_ts = propagator(ctx.spec, ctx.mesh, s, t)
        dense = P_ts - propagator(ctx.spec, ctx.mesh, r, t) @ propagator(ctx.spec, ctx.mesh, s, r)
        assert float(np.max(np.abs(dense))) / float(np.max(np.abs(P_ts))) <= 1e-12

    @pytest.mark.peak
    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    def test_runs_on_meshes_past_any_dense_propagator(self, boundary):
        """64 x 64 periodic heat (4 096 unknowns) and 16 x 16 dirichlet heat pass.  On the
        64 x 64 mesh the traced peak stays within 12 (nn, K) probe states, 1.5 MiB: the
        kept slices Y_r, Y_t and Z_t and the march's spectra and residual temporaries
        (1.2 MB measured), where one dense propagator would take 134 MB."""
        domain = Domain((0.0, 0.0), (1.0, 1.0), boundary)
        cells = 64 if boundary == "periodic" else 16
        mesh = Mesh(domain, (cells, cells), tau=2.0 ** -12, t0=0.0, steps=32)
        spec = OperatorSpec(make_preset("heat", n=2), domain)
        args = (spec, mesh, 0.0, float(mesh.times[12]), float(mesh.times[-1]))
        assert V.check_semigroup(*args, seed=5).status == "pass"  # the step store, warm
        tracemalloc.start()
        try:
            rec = V.check_semigroup(*args, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.status == "pass" and rec.fitted["max_residual"] <= 1e-12, rec.fitted
        if boundary == "periodic":
            assert peak < 12 * mesh.ncells * V.SEMIGROUP_PROBES * 8, peak


class TestDecayFits:
    def test_loglog_fit_reports_r2(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        fit = V.loglog_fit(xs, 3.0 * xs ** -2)
        assert fit.exponent == pytest.approx(-2.0, abs=1e-12)
        assert fit.constant == pytest.approx(3.0, rel=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_closed_forms_match_lapack_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        xs = np.exp(rng.uniform(-5.0, 3.0, n))
        ys = 2.5 * xs ** (rng.choice([-1, 1]) * rng.uniform(0.5, 4.0)) \
            * np.exp(0.1 * rng.standard_normal(n))
        assert_fits_match_lapack([(xs, ys)], [np.sort(rng.uniform(0.01, 1.0, n))[::-1]])

    def test_degenerate_abscissae_raise(self):
        # least squares would return a minimum-norm slope here, which means nothing
        for xs in ([2.0, 2.0, 2.0], [3.0, 3.0]):
            with pytest.raises(ConfigError, match="log-log fit needs two distinct abscissae"):
                V.loglog_fit(xs, [1.0, 2.0, 3.0][:len(xs)])
        with pytest.raises(ConfigError, match="rho -> 0 limit needs two distinct abscissae"):
            green._rho_weights(np.asarray([0.1, -0.1]))

    def test_operator_norms_2x2(self):
        blocks = np.array([[[3.0, 0.0], [0.0, 1.0]], [[0.0, 2.0], [0.0, 0.0]]])
        norms = V.operator_norms(blocks)
        assert norms[0] == pytest.approx(3.0)
        assert norms[1] == pytest.approx(2.0)

    def test_ray_fit_decade_required(self):
        with pytest.raises(ConfigError):
            V.fit_pointwise_decay([0.1, 0.2, 0.5], [1.0, 0.5, 0.2], 1)


class TestGaussianSamples:
    def test_dirichlet_distances_are_unwrapped(self, dirichlet_1d):
        # pole near the left wall: on a torus the cells near the right wall
        # would be closer, but a dirichlet box records the plain |x - y|
        mesh = Mesh(dirichlet_1d, (64,), tau=1 / 8192, t0=0.0, steps=400)
        spec = OperatorSpec(make_preset("heat", n=1), dirichlet_1d)
        rho = 2 * mesh.h[0]
        y = mesh.centers[8]
        s = float(mesh.times[mesh.slab_count(rho) + 1])
        times = [float(mesh.times[200]), float(mesh.times[400])]
        samples = V.gaussian_samples(spec, mesh, (s, y), times, rho)
        col = column(spec, mesh, (s, y), 1, rho, times[-1])
        true = np.abs(mesh.centers[:, 0] - y[0])
        assert samples
        for dt, d, g in samples:
            cells = np.nonzero(np.abs(slice_at(col, s + dt)[0]) == g)[0]
            assert len(cells) > 0
            assert np.all(true[cells] == d)


class TestGaffney:
    def test_heat_reference_numbers(self):
        # unit coefficients, separation 1, time 0.5: bound exp(-1)
        dom = Domain((0.0,), (4.0,), "periodic")
        mesh = Mesh(dom, (256,), tau=1 / 1024, t0=0.0, steps=512)
        spec = OperatorSpec(make_preset("heat", n=1), dom)
        x = mesh.centers[:, 0]
        F = np.abs(x - 1.0) < 0.15
        E = np.abs(x - 2.3) < 0.15
        g = np.zeros((1, mesh.ncells))
        g[0, F] = 1.0
        rec = V.check_gaffney(spec, mesh, E, F, g, 0.0, 0.5)
        assert rec.status == "pass"
        assert rec.fitted["c"] == pytest.approx(0.5)
        assert rec.fitted["dist"] == pytest.approx(1.0, abs=2 * mesh.h[0])
        assert rec.fitted["bound"] == pytest.approx(math.exp(-rec.fitted["dist"] ** 2), rel=1e-9)
        assert rec.fitted["ratio"] < rec.fitted["bound"]

    def test_zero_distance_trivial(self, mesh32, heat_spec):
        x = mesh32.centers[:, 0]
        F = np.abs(x - 0.5) < 0.2
        E = np.abs(x - 0.55) < 0.2
        g = np.zeros((1, 32))
        g[0, F] = 1.0
        rec = V.check_gaffney(heat_spec, mesh32, E, F, g, 0.0, 16 / 512)
        assert rec.fitted["dist"] == 0.0
        assert rec.fitted["bound"] == 1.0
        assert rec.status == "pass"


class TestDavies:
    def test_gamma_zero_is_l2_decay(self, mesh32, periodic_1d):
        rng = np.random.default_rng(0)
        for spec in bundle_1d(periodic_1d):
            f = rng.standard_normal((spec.coeffs.N, 32))
            rec = V.davies_growth(spec, mesh32, np.zeros(32), 0.0, f, 0.0, 32 / 512)
            assert rec.status == "pass"
            assert rec.fitted["ratio"] <= 1.0 + 1e-12

    def test_heat_unit_gamma_bound_e2(self, periodic_1d):
        # gamma = 1 over a unit of time: growth capped by e^2
        dom = Domain((0.0,), (2.0,), "periodic")
        mesh = Mesh(dom, (64,), tau=1 / 128, t0=0.0, steps=128)
        spec = OperatorSpec(make_preset("heat", n=1), dom)
        x = mesh.centers[:, 0]
        psi = 1.0 - np.abs(x - 1.0)
        f = np.ones((1, 64))
        rec = V.davies_growth(spec, mesh, psi, 1.0, f, 0.0, 1.0)
        assert rec.fitted["bound"] == pytest.approx(math.e ** 2, rel=1e-12)
        assert rec.fitted["ratio"] <= 1.05 * rec.fitted["bound"]
        assert rec.status == "pass"

    def test_ramp_gamma_two_oscillatory(self, mesh32, periodic_1d):
        spec = OperatorSpec(make_preset("x-oscillatory", n=1), periodic_1d)
        x = mesh32.centers[:, 0]
        psi = 2.0 * (0.5 - np.abs(x - 0.5))
        rec = V.davies_growth(spec, mesh32, psi, 2.0, np.ones((1, 32)), 0.0, 32 / 512)
        assert rec.status == "pass"

    def test_lipschitz_violation_rejected(self, mesh32, heat_spec):
        psi = np.zeros(32)
        psi[10] = 1.0
        with pytest.raises(ConfigError):
            V.davies_growth(heat_spec, mesh32, psi, 1.0, np.ones((1, 32)), 0.0, 16 / 512)


class TestInteriorDecayAndBoundedness:
    def test_checkerboard_informational(self, periodic_1d):
        cells = 96
        h = 1.0 / cells
        mesh = Mesh(periodic_1d, (cells,), tau=2 * h * h, t0=0.0,
                    steps=int(0.09 / (2 * h * h)) + 2)
        spec = OperatorSpec(make_preset("checkerboard", n=1, period=2 * h), periodic_1d)
        ladder = [k * h for k in (6, 8, 12, 16, 24)]
        rec = V.ph_decay_fit(spec, mesh, (float(mesh.times[-1]), mesh.centers[48]),
                             ladder, n_solutions=4, seed=1)
        assert rec.status == "informational"
        assert np.isfinite(rec.fitted["mu0"])
        assert rec.fitted["C0"] >= 1.0

    @pytest.mark.parametrize("R_c", [1 / 64, 12 / 96])
    def test_ladder_must_stay_below_R_c(self, periodic_1d, R_c):
        # the interior estimate is assumed only below R_c; the outer radius is 12 h
        mesh = Mesh(periodic_1d, (96,), tau=1 / 4608, t0=0.0, steps=96)
        spec = OperatorSpec(make_preset("heat", n=1, R_c=R_c), periodic_1d)
        ladder = [k / 96 for k in (6, 8, 12)]
        with pytest.raises(ConfigError, match="R_c"):
            V.ph_decay_fit(spec, mesh, (float(mesh.times[-1]), mesh.centers[48]), ladder,
                           n_solutions=2)

    def test_outer_cylinder_may_reach_step_0(self, periodic_1d):
        # R = 12 h and R^2 / tau = 9.375, so the outer cylinder spans 9 slabs: at the pole
        # t = 9 tau < R^2 they all lie on the grid, and one step earlier they do not
        mesh = Mesh(periodic_1d, (96,), tau=1 / 600, t0=0.0, steps=12)
        spec = OperatorSpec(make_preset("heat", n=1), periodic_1d)
        ladder = [k / 96 for k in (6, 8, 12)]
        X0 = (float(mesh.times[9]), mesh.centers[48])
        rec = V.ph_decay_fit(spec, mesh, X0, ladder, n_solutions=2, seed=3)
        assert rec.to_dict() == _whole_ph_decay_fit(spec, mesh, X0, ladder, 2, 3).to_dict()
        with pytest.raises(ConfigError, match="leaves the mesh time grid"):
            V.ph_decay_fit(spec, mesh, (float(mesh.times[8]), mesh.centers[48]), ladder,
                           n_solutions=2)

    def test_local_boundedness_stable(self, periodic_1d):
        mesh = Mesh(periodic_1d, (48,), tau=1 / 2048, t0=0.0, steps=96)
        fine = Mesh(periodic_1d, (96,), tau=1 / 4096, t0=0.0, steps=192)
        spec = OperatorSpec(make_preset("heat", n=1), periodic_1d)
        X0 = (float(mesh.times[-1]), mesh.centers[24])
        rec = V.check_local_boundedness(spec, mesh, fine, X0, R=8 / 48, seed=3)
        assert rec.status == "pass"
        assert rec.fitted == {"ratio": _whole_sup_ratio(spec, mesh, X0, 8 / 48, 3),
                              "ratio_refined": _whole_sup_ratio(spec, fine, X0, 8 / 48, 3)}

    def test_local_boundedness_cylinder_outside_window_rejected(self, mesh32, heat_spec):
        fine = Mesh(mesh32.domain, (64,), tau=mesh32.tau / 2, t0=0.0, steps=128)
        X0 = (float(mesh32.times[-1]), mesh32.centers[16])
        with pytest.raises(ConfigError):
            V.check_local_boundedness(heat_spec, mesh32, fine, X0,
                                      R=math.sqrt(80 * mesh32.tau))


class TestInitialData:
    def test_constant_datum_exact(self, mesh32, heat_spec):
        g = np.full((1, 32), 2.0)
        rec = V.initial_trace_test(heat_spec, mesh32, g, mesh32.centers[16], 0.0,
                                   [4 / 512, 8 / 512, 16 / 512])
        assert rec.status == "pass"
        assert rec.fitted["final_error"] <= 1e-12

    def test_jump_away_from_probe_converges(self, periodic_1d):
        cells = 128
        h = 1.0 / cells
        tau = h * h / 2
        mesh = Mesh(periodic_1d, (cells,), tau=tau, t0=0.0, steps=64)
        spec = OperatorSpec(make_preset("heat", n=1), periodic_1d)
        x = mesh.centers[:, 0]
        g = (np.where(x < 0.25, 2.0, 1.0) + np.exp(-0.5 * ((x - 0.6) / 0.1) ** 2))[None, :]
        rec = V.initial_trace_test(spec, mesh, g, mesh.centers[int(0.6 * cells)], 0.0,
                                   [float(mesh.times[k]) for k in (4, 8, 16, 32)])
        assert rec.status == "pass"
        assert rec.fitted["monotone"]

    def test_bounded_initial_scalar_max_principle(self, mesh32, periodic_1d):
        for name, kw in (("heat", {"n": 1}), ("checkerboard", {"n": 1, "period": 1 / 16})):
            spec = OperatorSpec(make_preset(name, **kw), periodic_1d)
            g = np.zeros((1, 32))
            g[0, 8:14] = 1.0
            rec = V.check_bounded_initial(spec, mesh32, g, 0.0, 32 / 512)
            assert rec.status == "pass"
            assert rec.fitted["ratio"] <= 1.0 + 1e-12

    def test_bounded_initial_zero_data(self, mesh32, heat_spec):
        # a zero datum bounds nothing: no vacuous pass with ratio 0
        with pytest.raises(ConfigError, match="zero at every cell.*halfwidth.*center_frac"):
            V.check_bounded_initial(heat_spec, mesh32, np.zeros((1, 32)), 0.0, 16 / 512)

    def test_bounded_initial_system_informational(self, mesh32, periodic_1d):
        spec = OperatorSpec(make_preset("rotating"), periodic_1d)
        g = np.zeros((2, 32))
        g[:, 8:14] = 1.0
        rec = V.check_bounded_initial(spec, mesh32, g, 0.0, 32 / 512)
        assert rec.status == "informational"
        assert np.isfinite(rec.fitted["ratio"])


class TestDecoupling:
    def test_zero_diag_distance_implies_component_solves(self, mesh32, periodic_1d):
        pair = OperatorSpec(make_preset("decoupled-heat-pair", n=1), periodic_1d)
        scal = OperatorSpec(make_preset("heat", n=1), periodic_1d)
        rng = np.random.default_rng(9)
        g = rng.standard_normal((2, 32))
        full = solve_forward(pair, mesh32, g, None, 0.0, 32 / 512)
        for comp in range(2):
            single = solve_forward(scal, mesh32, g[comp:comp + 1], None, 0.0, 32 / 512)
            assert np.allclose(full.values[:, comp], single.values[:, 0],
                               rtol=0, atol=1e-13)


class TestReport:
    def test_report_aggregation_and_serialization(self, mesh32, heat_spec):
        rep = V.VerificationReport()
        rep.add(V.check_semigroup(heat_spec, mesh32, 0.0, 16 / 512, 32 / 512))
        rep.add(V.CheckRecord("demo", "demo-anchor", "informational", 0.0))
        assert rep.all_pass
        d = rep.to_dict()
        assert d["records"][0]["anchor"] == "semigroup-composition"
        rep.add(V.CheckRecord("bad", "x", "fail", 0.0))
        assert not rep.all_pass


def _cylinder_energy(mesh, X0, radius, vals, cells=None):
    """Reference: one radius's energy as one ``np.sum`` of its own face difference over the
    faces inside its ball and the last ``slab_count(radius)`` held slices."""
    xc = np.atleast_1d(np.asarray(X0[1], dtype=float))
    vals = vals[len(vals) - mesh.slab_count(radius):]
    total = 0.0
    for ax in range(mesh.n):
        pts, _, _ = mesh.face_positions(ax)
        inside = np.linalg.norm(mesh.wrap_gaps(pts - xc[None, :]), axis=1) < radius
        diff = mesh.face_difference(vals, ax, inside, cells)
        total += float(np.sum(diff ** 2)) * mesh.volume * mesh.tau
    return total


CHUNK = 16  # the slices of one partial sum, as ``verify.ENERGY_CHUNK`` documents


def _chunked_cylinder_energy(mesh, X0, radius, vals, cells=None):
    """Reference for the documented grouping of ``verify._cylinder_energies``: ``vals`` holds
    the slices of the largest cylinder; chunks of CHUNK of them, counted from its first slice,
    each add one ``np.sum`` of the squared face difference per axis over the faces inside
    the ball of ``radius`` and the chunk's slices in its cylinder."""
    xc = np.atleast_1d(np.asarray(X0[1], dtype=float))
    first = len(vals) - mesh.slab_count(radius)  # offset of the radius's first slice
    total = 0.0
    for a in range(0, len(vals), CHUNK):
        part = vals[max(a, first):a + CHUNK]
        if len(part) == 0:
            continue
        for ax in range(mesh.n):
            pts, _, _ = mesh.face_positions(ax)
            inside = np.linalg.norm(mesh.wrap_gaps(pts - xc[None, :]), axis=1) < radius
            diff = mesh.face_difference(part, ax, inside, cells)
            total += float(np.sum(diff ** 2)) * mesh.volume * mesh.tau
    return total


def _passing(vals, first):
    """The march past the slices ``vals`` from mesh time index ``first`` on, as
    ``solver._stream`` yields it: (time index, flat component-major rows)."""
    return ((first + k, slc.ravel()) for k, slc in enumerate(vals))


class TestCylinderEnergies:
    """The streamed energies add, chunk by chunk, what each radius's own face difference
    gives, bit for bit, and agree with one sum over the whole cylinder at roundoff."""

    @pytest.mark.parametrize("subset", [False, True])
    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("mode", ["periodic", "dirichlet"])
    def test_matches_chunked_face_differences(self, mode, n, N, subset):
        domain = Domain((0.0,) * n, (1.0, 1.5)[:n], mode)
        if n == 1:
            mesh = Mesh(domain, (32,), tau=2.0 ** -10, t0=0.0, steps=48)
            ladder = [k / 32 for k in (3, 4, 6)]  # 9, 16 and 36 slabs: 3 chunks, 1 partial
        else:
            mesh = Mesh(domain, (8, 6), tau=2.0 ** -8, t0=0.0, steps=32)
            ladder = [0.2, 0.25, 0.3]  # 10, 16 and 23 slabs
        X0 = (float(mesh.times[-1]), mesh.centers[1])  # near a corner: wrapped or clipped
        S = mesh.slab_count(ladder[-1])
        first = mesh.steps - S
        cells = V._face_cells(mesh, X0, ladder[-1]) if subset else None
        rng = np.random.default_rng(9)
        solutions = [rng.standard_normal((S, N, mesh.ncells)) for _ in range(3)]
        if subset:
            assert len(cells) < mesh.ncells
            solutions = [vals[:, :, cells] for vals in solutions]
        got = list(V._cylinder_energies(mesh, X0, ladder,
                                        (_passing(vals, first) for vals in solutions), cells))
        assert len(got) == 3
        for E, vals in zip(got, solutions):
            want = np.array([_chunked_cylinder_energy(mesh, X0, r, vals, cells) for r in ladder])
            assert E.tobytes() == want.tobytes()
            whole = np.array([_cylinder_energy(mesh, X0, r, vals, cells) for r in ladder])
            assert np.max(np.abs(E - whole) / whole) <= 1e-13
            assert np.all(np.diff(E) > 0)

    def test_cells_missing_a_face_neighbour_fail_loudly(self, mesh32):
        X0 = (float(mesh32.times[-1]), mesh32.centers[5])
        ladder = [3 / 32, 4 / 32]  # 4 and 8 slabs
        cells = V._face_cells(mesh32, X0, ladder[-1])[1:]
        vals = np.ones((8, 1, len(cells)))
        with pytest.raises(ConfigError, match="both neighbours"):
            list(V._cylinder_energies(mesh32, X0, ladder, [_passing(vals, 56)], cells))

    @pytest.mark.parametrize("start, count", [(57, 7), (56, 7), (56, 9), (55, 8)])
    def test_march_must_pass_exactly_the_outer_slices(self, mesh32, start, count):
        # the pole is at step 64 and the outer cylinder's 8 slices are 56..63
        X0 = (float(mesh32.times[-1]), mesh32.centers[5])
        vals = np.ones((count, 1, 32))
        with pytest.raises(ConfigError, match=r"needs the slices 56\.\.63 in order"):
            list(V._cylinder_energies(mesh32, X0, [3 / 32, 4 / 32], [_passing(vals, start)]))


# References for the streamed checks: the same computations on whole trajectories.


def _whole_ph_decay_fit(spec, mesh, X0, ladder, n_solutions, seed, mu_min=0.9):
    """``ph_decay_fit`` with each energy read from the whole trajectory, in the documented
    grouping of ``verify._cylinder_energies``; each energy also agrees with one ``np.sum``
    over the whole cylinder to 1e-13 relative."""
    ladder = sorted(float(r) for r in ladder)
    xc = np.atleast_1d(np.asarray(X0[1], dtype=float))
    outer = mesh.time_index(float(X0[0])) - mesh.slab_count(ladder[-1])  # its first slice

    def energy(traj, radius):
        vals, _ = cylinder(traj, X0, radius, "minus")
        slabs, _ = mesh.cylinder(X0, radius, "minus")
        chunk = (np.asarray(slabs) - outer) // CHUNK  # the partial sums, counted from outer
        def add(total, part):  # axis by axis, as the energies add
            for ax in range(mesh.n):
                pts, left, right = mesh.face_positions(ax)
                inside = np.linalg.norm(mesh.wrap_gaps(pts - xc[None, :]), axis=1) < radius
                diff = (part[..., right[inside]] - part[..., left[inside]]) / mesh.h[ax]
                total += float(np.sum(diff ** 2)) * mesh.volume * mesh.tau
            return total

        chunked = 0.0
        for k in np.unique(chunk):
            chunked = add(chunked, vals[chunk == k])
        single = add(0.0, vals)
        assert abs(chunked - single) <= 1e-13 * single
        return chunked

    slopes, consts = [], []
    size = spec.coeffs.N * mesh.ncells
    for i in range(n_solutions):  # solution i draws the i-th segment of the seed's stream
        g = seeded_uniform(seed, (spec.coeffs.N, mesh.ncells), skip=i * size)
        traj = solve_forward(spec, mesh, g, None, float(mesh.t0), float(X0[0]))
        E = np.array([energy(traj, r) for r in ladder])
        fit = V.loglog_fit(np.asarray(ladder), E)
        slopes.append(fit.exponent)
        consts.append(max((E[i] / E[j]) * (ladder[j] / ladder[i]) ** fit.exponent
                          for i in range(len(ladder)) for j in range(i + 1, len(ladder))))
    mu0 = (min(slopes) - mesh.n) / 2.0
    status = ("informational" if spec.coeffs.x_dependent
              else "pass" if mu0 >= mu_min else "fail")
    return V.CheckRecord("interior-decay", "interior-energy-decay", status, mu_min,
                         fitted={"mu0": mu0, "exponent": float(min(slopes)),
                                 "C0": float(max(consts))},
                         samples={"ladder": ladder, "solutions": len(slopes)})


def _whole_gaffney(spec, mesh, E_mask, F_mask, g, s, t, slack=1.05):
    """``check_gaffney`` with the whole |E| x |F| gap array and the whole trajectory."""
    g = np.array(g, dtype=float)
    g[:, ~F_mask] = 0.0
    gE, gF = mesh.centers[E_mask], mesh.centers[F_mask]
    d = float(np.min(np.linalg.norm(mesh.wrap_gaps(gE[:, None, :] - gF[None, :, :]), axis=2)))
    u_t = solve_forward(spec, mesh, g, None, s, t).values[-1]
    num = mesh.volume * float(np.sum(u_t[:, E_mask] ** 2))
    den = mesh.volume * float(np.sum(g[:, F_mask] ** 2))
    c = spec.coeffs.lam / (2.0 * spec.coeffs.Lam ** 2)
    bound = math.exp(-c * d * d / (t - s))
    return V.CheckRecord("gaffney", "offdiagonal-l2-decay",
                         "pass" if num / den <= slack * bound else "fail", slack,
                         fitted={"ratio": num / den, "bound": bound, "dist": d, "c": c},
                         samples={"t-s": t - s})


def _whole_sup_ratio(spec, mesh, X0, R, seed):
    """The ratio ``check_local_boundedness`` reports on one mesh, from the whole trajectory."""
    u = seeded_uniform(seed, (3, mesh.n + 2))
    modes = [[1 + math.floor(1.5 * (v + 1)) for v in row[:mesh.n]] for row in u]
    amps = u[:, mesh.n]
    phases = math.pi * (u[:, mesh.n + 1] + 1)
    vals = np.zeros(mesh.ncells)
    for a, md, ph in zip(amps, modes, phases):
        arg = np.zeros(mesh.ncells)
        for ax in range(mesh.n):
            arg += 2 * math.pi * md[ax] * mesh.centers[:, ax] / mesh.domain.lengths[ax]
        vals += a * np.cos(arg + ph)
    g = np.tile(vals, (spec.coeffs.N, 1)) + 2.0
    traj = solve_forward(spec, mesh, g, None, float(mesh.t0), float(X0[0]))

    def cyl(rad):
        vals, ball = cylinder(traj, X0, rad, "minus")
        return vals[:, :, ball]

    inner, outer = cyl(R / 4.0), cyl(R)
    return (float(np.max(np.linalg.norm(inner, axis=1)))
            / math.sqrt(float(np.mean(np.sum(outer ** 2, axis=1)))))


def _whole_heat_kernel(spec, mesh, Y, t_probe, rhos, tolerance, radius_factor=3.0):
    """``heat_kernel_check`` from one whole column per radius, the radii's probe slices
    combined from zeros with the rho -> 0 weights (one radius read as it is)."""
    slices = [slice_at(column(spec, mesh, Y, 1, r, t_probe), t_probe)[0] for r in rhos]
    u = slices[0]
    if len(rhos) > 1:
        u = np.zeros(mesh.ncells)
        for w, v in zip(green._rho_weights(np.asarray(rhos)), slices):
            u += w * v
    dt = float(mesh.times[mesh.time_index(t_probe)] - Y[0])
    gaps = mesh.wrap_gaps(mesh.centers - Y[1][None, :])
    ref = wrapped_heat_kernel(mesh.n, dt, gaps, mesh.domain.lengths)
    mask = np.linalg.norm(gaps, axis=1) <= radius_factor * math.sqrt(dt)
    err = float(np.max(np.abs(u[mask] - ref[mask]) / ref[mask]))
    return V.CheckRecord("heat-kernel", "gaussian-kernel-oracle",
                         "pass" if err <= tolerance else "fail", tolerance,
                         fitted={"sup_rel_error": err, "dt": dt},
                         samples={"cells": int(mask.sum()), "rhos": rhos})


def _whole_gaussian_samples(spec, mesh, Y, times, rho):
    """``gaussian_samples`` from the N whole columns at the pole."""
    cols = [column(spec, mesh, Y, k, rho, max(times)) for k in range(1, spec.coeffs.N + 1)]
    dist = np.linalg.norm(mesh.wrap_gaps(mesh.centers - Y[1][None, :]), axis=1)
    near = dist <= 0.4 * float(np.min(mesh.domain.lengths))
    out = []
    for t in times:
        blocks = np.stack([slice_at(col, t).T for col in cols], axis=2)  # [cell, l, k]
        norms = V.operator_norms(blocks)
        keep = near & (norms > 1e-10 * float(norms.max()))
        dt = float(mesh.times[mesh.time_index(t)]) - Y[0]
        out += [(dt, float(d), float(g)) for d, g in zip(dist[keep], norms[keep])]
    return out


def _whole_ray_samples(spec, mesh, Y, distances, rho, axis=0):
    """``pointwise_ray_samples`` from the N whole columns at the pole."""
    s, y = Y
    distances = sorted(distances)
    last = s + round(distances[-1] ** 2 / mesh.tau) * mesh.tau
    cols = [column(spec, mesh, Y, k, rho, last) for k in range(1, spec.coeffs.N + 1)]
    out_d, out_g = [], []
    for d in distances:
        t = float(mesh.times[mesh.time_index(s + round(d * d / mesh.tau) * mesh.tau)])
        x = y.copy()
        x[axis] += round(d / mesh.h[axis]) * mesh.h[axis]
        block = np.stack([value_at(col, t, x) for col in cols], axis=1)  # [l, k]
        out_d.append(mesh.pdist((t, x), (s, y)))
        out_g.append(float(V.operator_norms(block[None])[0]))
    return np.asarray(out_d), np.asarray(out_g)


STREAM_CASES = {  # (preset, n, boundary): the Fourier path and SuperLU, in 2-D and 1-D
    "fourier": ("decoupled-heat-pair", 2, "periodic"),
    "dirichlet": ("x-oscillatory", 2, "dirichlet"),
    "fourier-1d": ("rotating", 1, "periodic"),
    "dirichlet-1d": ("rotating", 1, "dirichlet"),
}


def _stream_case(case, cells, tau, steps):
    preset, n, mode = STREAM_CASES[case]
    domain = Domain((0.0,) * n, (1.0,) * n, mode)
    kw = {} if preset == "rotating" else {"n": n}
    return (OperatorSpec(make_preset(preset, **kw), domain),
            Mesh(domain, (cells,) * n, tau=tau, t0=0.0, steps=steps))


class TestStreamedChecks:
    """Checks that keep only the slices and cells they read report what whole
    trajectories give, bit for bit, and hold less than one trajectory."""

    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_interior_decay_matches_whole_trajectories(self, case):
        spec, mesh = _stream_case(case, 32, 2.0 ** -10, 64)
        X0 = (float(mesh.times[-1]), mesh.centers[mesh.ncells // 2 - 5])
        ladder = [k / 32 for k in (3, 4, 6, 8)]
        rec = V.ph_decay_fit(spec, mesh, X0, ladder, n_solutions=3, seed=4)
        assert rec.to_dict() == _whole_ph_decay_fit(spec, mesh, X0, ladder, 3, 4).to_dict()

    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_gaffney_matches_whole_trajectory(self, case):
        spec, mesh = _stream_case(case, 32, 2.0 ** -10, 64)
        x = mesh.centers[:, 0]
        E, F = np.abs(x - 0.7) < 0.1, np.abs(x - 0.25) < 0.1
        g = np.random.default_rng(7).standard_normal((spec.coeffs.N, mesh.ncells))
        s, t = float(mesh.times[8]), float(mesh.times[64])  # a window that starts late
        rec = V.check_gaffney(spec, mesh, E, F, g, s, t)
        assert rec.to_dict() == _whole_gaffney(spec, mesh, E, F, g, s, t).to_dict()

    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_local_boundedness_matches_whole_trajectories(self, case):
        spec, mesh = _stream_case(case, 16, 2.0 ** -9, 48)
        fine = Mesh(mesh.domain, tuple(2 * c for c in mesh.cells), mesh.tau / 2, 0.0, 96)
        X0 = (float(mesh.times[-1]), mesh.centers[mesh.ncells // 2 - 5])
        rec = V.check_local_boundedness(spec, mesh, fine, X0, R=0.25, seed=2)
        assert rec.fitted == {"ratio": _whole_sup_ratio(spec, mesh, X0, 0.25, 2),
                              "ratio_refined": _whole_sup_ratio(spec, fine, X0, 0.25, 2)}

    @pytest.mark.parametrize("case", ["fourier", "dirichlet"])
    def test_duality_2d_matches_per_pair_columns(self, case):
        spec, mesh = _stream_case(case, 16, 2.0 ** -10, 128)
        poles = [(40 / 1024, mesh.centers[c]) for c in (4 * 16 + 5, 6 * 16 + 4)]
        probes = [(80 / 1024, mesh.centers[c]) for c in (10 * 16 + 11, 11 * 16 + 9)]
        radii = [2 / 16, 3 / 16]
        pairs = [(Y, X, rho, sigma) for Y in poles for X in probes
                 for rho in radii for sigma in radii]
        rec = V.check_duality(spec, mesh, pairs, T=117 / 1024, S=3 / 1024)
        ref = _per_pair_duality(spec, mesh, pairs, T=117 / 1024, S=3 / 1024)
        assert rec.to_dict() == ref.to_dict() and rec.status == "pass"

    @pytest.mark.parametrize("radii", [[3], [4, 3, 2]])
    @pytest.mark.parametrize("case", ["fourier", "fourier-1d"])
    def test_heat_kernel_matches_whole_columns(self, case, radii):
        """On the periodic meshes, with the heat preset the check needs."""
        _, mesh = _stream_case(case, 16, 2.0 ** -10, 280)
        spec = OperatorSpec(make_preset("heat", n=mesh.n), mesh.domain)
        Y = (float(mesh.times[66]), mesh.centers[mesh.ncells // 2 + 5])
        rhos = [k / 16 for k in radii]
        t_probe = float(mesh.times[130])
        rec = V.heat_kernel_check(spec, mesh, Y, t_probe, rhos, tolerance=0.5)
        ref = _whole_heat_kernel(spec, mesh, Y, t_probe, rhos, tolerance=0.5)
        assert rec.to_dict() == ref.to_dict()

    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_gaussian_and_ray_samples_match_whole_columns(self, case):
        """Gaussian times out of order and repeated, and ray probes of which two snap to
        one step and one cell (one slice kept for both) and the longest off the grid."""
        spec, mesh = _stream_case(case, 16, 2.0 ** -10, 280)
        Y = (float(mesh.times[17]), mesh.centers[3 if mesh.n == 1 else 3 * 16 + 8])
        times = [float(mesh.times[17 + k]) for k in (100, 50, 100, 250)]
        assert (V.gaussian_samples(spec, mesh, Y, times, 2 / 16)
                == _whole_gaussian_samples(spec, mesh, Y, times, 2 / 16))
        # the longest ray's d^2 / tau is 240.25: its probe snaps to step 240
        distances = [12 / 32, 14 / 32, 12 / 32 * (1 + 1e-9), 15.5 / 32]
        d, g = V.pointwise_ray_samples(spec, mesh, Y, distances, 2 / 16)
        d_ref, g_ref = _whole_ray_samples(spec, mesh, Y, distances, 2 / 16)
        assert d[0] == d[1] and g[0] == g[1]  # the probes that snap together
        assert d.tobytes() == d_ref.tobytes() and g.tobytes() == g_ref.tobytes()

    @pytest.mark.parametrize("gradient", [False, True])
    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_weak_levels_matches_the_whole_column(self, case, gradient):
        """The record, or the error that the level sets leave these unit boxes, is the
        whole column's; at these horizons the dirichlet cases and every gradient give
        records."""
        spec, mesh = _stream_case(case, 64, 2.0 ** -12, 400)
        t_step = 200 if case == "dirichlet-1d" else 400
        rho = cli._rho_from_cells(mesh, 2)
        Y = (float(mesh.times[cli._cylinder_steps(mesh, rho)]), cli._cell_at_frac(mesh, None, 0.5))
        T = float(mesh.times[t_step])

        def outcome(check):
            try:
                return check().to_dict()
            except ConfigError as err:
                return str(err)

        got = outcome(lambda: cli._run_weak_levels(cli.Context(case, spec, mesh, 0), rho_cells=2,
                                                   t_step=t_step, gradient=gradient, margin=5.0))
        want = outcome(lambda: V.weak_lp_levels(mesh, Y, rho,
                                                column(spec, mesh, Y, 1, rho, T).values, T,
                                                use_gradient=gradient, margin=5.0))
        assert got == want
        assert isinstance(got, dict) or not (gradient or case.startswith("dirichlet"))

    @pytest.mark.peak
    def test_peaks_below_one_trajectory(self):
        domain = Domain((0.0, 0.0), (1.0, 1.0), "periodic")
        mesh = Mesh(domain, (64, 64), tau=2.0 ** -12, t0=0.0, steps=256)
        spec = OperatorSpec(make_preset("heat", n=2), domain)
        ThetaScheme(mesh, spec).implicit_lu(1)  # the step store, shared by every check
        trajectory = (mesh.steps + 1) * mesh.ncells * 8  # bytes of one whole trajectory
        ctx = cli.Context("heat-64", spec, mesh, 0)
        X0 = (float(mesh.times[-1]), mesh.centers[32 * 64 + 32])
        ladder = [k / 64 for k in (4, 6, 8, 12, 16)]  # the outer cylinder spans all 256 slabs
        for check in (lambda: cli._run_adjoint(ctx),
                      lambda: V.ph_decay_fit(spec, mesh, X0, ladder, n_solutions=2)):
            tracemalloc.start()
            try:
                rec = check()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rec.status == "pass"
            assert peak < trajectory, (rec.name, peak)

    @pytest.mark.peak
    def test_interior_decay_peak_does_not_grow_with_slabs(self):
        """interior-decay holds a chunk of slices of its cylinders, never a cylinder: on
        64 x 64 heat its traced peak stays below 1 MB when the outer cylinder spans 256
        slabs, and does not grow when the same radii span 4 times the slabs."""
        domain = Domain((0.0, 0.0), (1.0, 1.0), "periodic")
        spec = OperatorSpec(make_preset("heat", n=2), domain)
        ladder = [k / 64 for k in (4, 6, 8, 12, 16)]
        peaks = {}
        for steps in (1024, 256):
            mesh = Mesh(domain, (64, 64), tau=1 / (16 * steps), t0=0.0, steps=steps)
            assert mesh.slab_count(ladder[-1]) == steps  # the outer cylinder spans every slab
            ThetaScheme(mesh, spec).implicit_lu(1)  # the step store, shared by every check
            X0 = (float(mesh.times[-1]), mesh.centers[32 * 64 + 32])
            if not peaks:
                # an untraced run first makes the one-time allocations (_Stencil._buffer,
                # the first fit's), so the test reads the same alone as after other tests
                V.ph_decay_fit(spec, mesh, X0, ladder, n_solutions=2)
            tracemalloc.start()
            try:
                rec = V.ph_decay_fit(spec, mesh, X0, ladder, n_solutions=2)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rec.status == "pass"
        assert peaks[256] < 2 ** 20, peaks
        assert peaks[1024] <= peaks[256] + 16 * 2 ** 10, peaks
