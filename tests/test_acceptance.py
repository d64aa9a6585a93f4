"""Acceptance battery: every gating criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
all); the asserted tolerances are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np
import pytest

from greenlab import (Domain, Mesh, OperatorSpec, dense_spacetime_oracle, heat_kernel,
                      make_preset, solve_forward, wrapped_heat_kernel)
from greenlab import verify as V
from greenlab.cli import tent_profile
from greenlab.green import _rho_weights

from conftest import bundle_1d
from reference import column, slice_at, solve_backward, value_at

DOM1 = Domain((0.0,), (1.0,), "periodic")
DOM1_LONG = Domain((0.0,), (4.0,), "periodic")
DOM2 = Domain((0.0, 0.0), (1.0, 1.0), "periodic")


def presets_1d():
    return bundle_1d(DOM1)


def presets_2d():
    return [OperatorSpec(make_preset("heat", n=2), DOM2),
            OperatorSpec(make_preset("diag", values=(2.0, 0.5)), DOM2)]


def mesh_1d(cells=32, tau=1 / 512, steps=64, dom=DOM1):
    return Mesh(dom, (cells,), tau=tau, t0=0.0, steps=steps)


def mesh_2d(cells=12, tau=1 / 256, steps=24):
    return Mesh(DOM2, (cells, cells), tau=tau, t0=0.0, steps=steps)


def emit(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


class TestCriterion01HeatKernelOracle:
    def test_extrapolated_kernel_two_percent(self):
        t_start = time.perf_counter()
        cells = 128
        h = 1.0 / cells
        tau = h * h / 2
        rho_list = [8 * h, 6 * h, 4 * h]
        n_moll = int(round((8 * h) ** 2 / tau))
        steps = n_moll + int(round(0.05 / tau))
        mesh = Mesh(DOM1, (cells,), tau=tau, t0=0.0, steps=steps)
        spec = OperatorSpec(make_preset("heat", n=1), DOM1)
        s = float(mesh.times[n_moll])
        y = mesh.centers[64]
        t_probe = float(mesh.times[-1])
        u = np.zeros(mesh.ncells)  # the Richardson combination of the radii's slices
        for w, rho in zip(_rho_weights(np.asarray(rho_list)), rho_list):
            u += w * slice_at(column(spec, mesh, (s, y), 1, rho, t_probe), t_probe)[0]
        dt = t_probe - s
        gaps = mesh.centers - y[None, :]
        gaps -= np.round(gaps)  # unit torus
        ref = wrapped_heat_kernel(1, dt, gaps, DOM1.lengths)
        mask = np.abs(gaps[:, 0]) <= 3.0 * math.sqrt(dt)
        err = float(np.max(np.abs(u[mask] - ref[mask]) / ref[mask]))
        elapsed = time.perf_counter() - t_start
        ok = err <= 0.02 and elapsed < 60.0
        emit(1, "heat kernel oracle", ok,
             f"sup_rel_err={err:.3e} (tol 2e-2), runtime={elapsed:.1f}s (<60s)")
        assert err <= 0.02
        assert elapsed < 60.0

    def test_kernel_spot_value(self):
        val = heat_kernel(1, 0.25, 1.0)
        ok = val == pytest.approx(0.20755, abs=5e-6)
        emit(1, "kernel spot value", ok, f"phi(0.25,1)={val:.6f} vs 0.20755")
        assert ok


class TestCriterion02Semigroup:
    def test_composition_machine_exact_all_presets(self):
        worst = 0.0
        for spec in presets_1d():
            mesh = mesh_1d()
            rec = V.check_semigroup(spec, mesh, 0.0, 16 / 512, 48 / 512)
            worst = max(worst, rec.fitted["max_residual"])
        for spec in presets_2d():
            mesh = mesh_2d()
            rec = V.check_semigroup(spec, mesh, 0.0, 8 / 256, 20 / 256)
            worst = max(worst, rec.fitted["max_residual"])
        ok = worst <= 1e-12
        emit(2, "semigroup composition", ok, f"max residual {worst:.3e} <= 1e-12")
        assert ok


class TestCriterion03AveragedDuality:
    def test_twenty_plus_combos_per_preset(self):
        chosen = {"heat-1d", "checkerboard", "t-oscillating", "rotating"}
        worst_overall = 0.0
        for spec in presets_1d():
            if spec.coeffs.name not in chosen:
                continue
            mesh = mesh_1d(steps=96)
            pairs = []
            for yc in (8, 12, 16):
                for xc in (22, 26):
                    for rk in (4, 3):
                        for sk in (4, 3):
                            pairs.append(((20 / 512, mesh.centers[yc]),
                                          (56 / 512, mesh.centers[xc]),
                                          rk / 32, sk / 32))
            assert len(pairs) >= 20
            rec = V.check_duality(spec, mesh, pairs, T=88 / 512, S=0.0)
            worst_overall = max(worst_overall, rec.fitted["max_residual"])
            assert rec.status == "pass", spec.coeffs.name
        ok = worst_overall <= 1e-10
        emit(3, "averaged duality", ok,
             f"max residual {worst_overall:.3e} <= 1e-10 over >=20 combos x 4 presets")
        assert ok


class TestCriterion04Normalization:
    def test_row_sums_identity_all_presets(self):
        worst = 0.0
        for spec in presets_1d():
            rec = V.check_normalization(spec, mesh_1d(), 0.0, 32 / 512)
            worst = max(worst, rec.fitted["max_row_deviation"])
        for spec in presets_2d():
            rec = V.check_normalization(spec, mesh_2d(), 0.0, 16 / 256)
            worst = max(worst, rec.fitted["max_row_deviation"])
        ok = worst <= 1e-12
        emit(4, "mass normalization", ok, f"max row deviation {worst:.3e} <= 1e-12")
        assert ok


class TestCriterion05Causality:
    def test_zero_extension_exact(self):
        worst = 0.0
        for spec in (presets_1d()[0], presets_1d()[5]):
            mesh = mesh_1d()
            Y = (24 / 512, mesh.centers[16])
            rec = V.check_causality(spec, mesh, Y, [6 / 32, 4 / 32], 48 / 512)
            worst = max(worst, rec.fitted["max_early_value"])
            assert rec.status == "pass"
        ok = worst == 0.0
        emit(5, "causality / zero extension", ok, f"max early value {worst!r} == 0")
        assert ok


class TestCriterion06GaussianBound:
    def test_kappa_at_least_theory_on_three_presets(self):
        dom = Domain((0.0,), (6.0,), "periodic")
        cells = 256
        h = 6.0 / cells
        tau = 1 / 512
        mesh = Mesh(dom, (cells,), tau=tau, t0=0.0, steps=261)
        rho = 4 * h
        configs = [
            ("heat", OperatorSpec(make_preset("heat", n=1), dom)),
            ("checkerboard", OperatorSpec(make_preset("checkerboard", n=1,
                                                      period=2 * h), dom)),
            ("rotating", OperatorSpec(make_preset("rotating", omega=1.0), dom)),
        ]
        details = []
        all_ok = True
        for name, spec in configs:
            s_step = mesh.slab_count(rho) + 1
            s = float(mesh.times[s_step])
            times = [float(mesh.times[s_step + k]) for k in (64, 128, 256)]
            samples = V.gaussian_samples(spec, mesh, (s, mesh.centers[cells // 2]),
                                         times, rho)
            rec = V.fit_gaussian(samples, spec.coeffs.lam, spec.coeffs.Lam, 1)
            all_ok &= (rec.status == "pass"
                       and rec.fitted["C_at_target"] <= 10.0)
            details.append(f"{name}: kappa_fit={rec.fitted['kappa_fit']:.4f}"
                           f">={rec.fitted['kappa_target']:.4f}")
        emit(6, "gaussian upper bound", all_ok, "; ".join(details))
        assert all_ok

    def test_heat_true_rate_beats_theory(self):
        # lam = Lam = 1: the conservative exponent is 1/8, the kernel's is 1/4
        assert 0.25 >= 1.0 / 8.0


class TestCriterion07Gaffney:
    DISTS = (0.25, 0.5, 1.0)
    DTS = (0.1, 0.5)

    @staticmethod
    def masks(mesh, d, halfwidth=0.15):
        x = mesh.centers[:, 0]
        F = np.abs(x - 1.0) < halfwidth
        E = np.abs(x - (1.0 + 2 * halfwidth + d)) < halfwidth
        return E, F

    def run_one(self, spec, mesh, d, dt):
        E, F = self.masks(mesh, d)
        g = np.zeros((spec.coeffs.N, mesh.ncells))
        g[:, F] = 1.0
        t = float(mesh.times[int(round(dt / mesh.tau))])
        return V.check_gaffney(spec, mesh, E, F, g, 0.0, t)

    def test_all_presets_within_slack(self):
        all_ok = True
        worst_excess = 0.0
        for spec1 in bundle_1d(DOM1_LONG):
            mesh = Mesh(DOM1_LONG, (256,), tau=1 / 1024, t0=0.0, steps=512)
            for d in self.DISTS:
                for dt in self.DTS:
                    rec = self.run_one(spec1, mesh, d, dt)
                    all_ok &= rec.status == "pass"
                    worst_excess = max(worst_excess,
                                       rec.fitted["ratio"] / rec.fitted["bound"])
        dom2 = Domain((0.0, 0.0), (4.0, 1.0), "periodic")
        mesh2 = Mesh(dom2, (96, 24), tau=1 / 256, t0=0.0, steps=128)
        spec2 = OperatorSpec(make_preset("heat", n=2), dom2)
        for d in self.DISTS:
            for dt in self.DTS:
                rec = self.run_one(spec2, mesh2, d, dt)
                all_ok &= rec.status == "pass"
                worst_excess = max(worst_excess,
                                   rec.fitted["ratio"] / rec.fitted["bound"])
        emit(7, "gaffney off-diagonal decay", all_ok,
             f"worst measured/bound = {worst_excess:.3e} <= 1.05")
        assert all_ok

    def test_slack_shrinks_under_tau_refinement(self):
        shrunk = True
        for spec in bundle_1d(DOM1_LONG):
            excesses = []
            for tau, steps in ((1 / 512, 256), (1 / 1024, 512)):
                mesh = Mesh(DOM1_LONG, (256,), tau=tau, t0=0.0, steps=steps)
                rec = self.run_one(spec, mesh, 0.5, 0.5)
                excesses.append(max(0.0, rec.fitted["ratio"] / rec.fitted["bound"] - 1.0))
            shrunk &= excesses[1] <= excesses[0] + 1e-12
        emit(7, "gaffney slack refinement", shrunk,
             "excess non-increasing under tau -> tau/2")
        assert shrunk


class TestCriterion08DaviesGrowth:
    def test_weighted_growth_all_presets(self):
        all_ok = True
        worst = 0.0
        for spec in presets_1d():
            mesh = mesh_1d(cells=64, tau=1 / 256, steps=64)
            for gamma in (0.5, 1.0, 2.0):
                psi = tent_profile(mesh, gamma)
                f = np.ones((spec.coeffs.N, mesh.ncells))
                rec = V.davies_growth(spec, mesh, psi, gamma, f, 0.0, 0.25)
                all_ok &= rec.status == "pass"
                worst = max(worst, rec.fitted["ratio"] / rec.fitted["bound"])
        for spec in presets_2d():
            mesh = mesh_2d(cells=16, tau=1 / 128, steps=32)
            for gamma in (0.5, 1.0, 2.0):
                psi = tent_profile(mesh, gamma)
                f = np.ones((spec.coeffs.N, mesh.ncells))
                rec = V.davies_growth(spec, mesh, psi, gamma, f, 0.0, 0.25)
                all_ok &= rec.status == "pass"
                worst = max(worst, rec.fitted["ratio"] / rec.fitted["bound"])
        emit(8, "davies weighted growth", all_ok,
             f"worst ratio/bound = {worst:.3e} <= 1.05")
        assert all_ok

    def test_gamma_zero_monotone_decay(self):
        rng = np.random.default_rng(11)
        violations = 0
        for spec in presets_1d() + presets_2d():
            mesh = mesh_1d() if spec.coeffs.n == 1 else mesh_2d()
            f = rng.standard_normal((spec.coeffs.N, mesh.ncells))
            rec = V.davies_growth(spec, mesh, np.zeros(mesh.ncells), 0.0, f,
                                  0.0, float(mesh.times[-1]))
            violations += rec.status != "pass"
        emit(8, "davies gamma=0 reduces to L2 decay", violations == 0,
             f"{violations} violations")
        assert violations == 0


class TestCriterion09DecayExponents:
    def test_pointwise_ray_n1(self):
        dom = DOM1_LONG
        cells = 512
        h = 4.0 / cells
        tau = h * h
        mesh = Mesh(dom, (cells,), tau=tau, t0=0.0, steps=3700)
        results = {}
        for name, spec in (("heat", OperatorSpec(make_preset("heat", n=1), dom)),
                           ("x-oscillatory",
                            OperatorSpec(make_preset("x-oscillatory", n=1), dom))):
            rho = 2 * h
            s = float(mesh.times[mesh.slab_count(rho) + 1])
            ds = [6 * h * 10 ** (k / 7) for k in range(8)]
            d_act, g = V.pointwise_ray_samples(spec, mesh, (s, mesh.centers[64]),
                                               ds, rho)
            rec = V.fit_pointwise_decay(d_act, g, 1)
            results[name] = rec
        ok = all(r.status == "pass" for r in results.values())
        detail = "; ".join(f"{k}: exp={r.fitted['exponent']:.3f}"
                           for k, r in results.items())
        emit(9, "pointwise ray decay n=1 (target <= -0.85)", ok, detail)
        assert ok

    def test_pointwise_ray_n2_scaled_boxes(self):
        # one box per probe, scaled with the probe distance, so every probe
        # is resolved and wrap-free; cycling cell counts varies the geometry
        samples_d, samples_g = [], []
        cell_cycle = (60, 64, 68)
        for j in range(7):
            d_target = 0.05 * 10 ** (j / 5)
            cells = cell_cycle[j % 3]
            L = 6.0 * d_target
            dom = Domain((0.0, 0.0), (L, L), "periodic")
            h = L / cells
            tau = h * h
            rho = 2 * h
            k_off = int(round(d_target / h))
            t_idx = int(round((k_off * h) ** 2 / tau))
            nm = Mesh(dom, (cells, cells), tau=tau, t0=0.0, steps=8).slab_count(rho)
            mesh = Mesh(dom, (cells, cells), tau=tau, t0=0.0, steps=nm + t_idx + 2)
            spec = OperatorSpec(make_preset("heat", n=2), dom)
            y = mesh.centers[mesh.cell_index((mesh.axis_centers(0)[cells // 2],
                                              mesh.axis_centers(1)[cells // 2]))]
            s = float(mesh.times[nm])
            col = column(spec, mesh, (s, y), 1, rho, float(mesh.times[nm + t_idx]))
            t = float(mesh.times[nm + t_idx])
            x = y + np.array([k_off * h, 0.0])
            d_act = mesh.pdist((t, x), (s, y))
            val = float(np.abs(value_at(col, t, x)[0]))
            samples_d.append(d_act)
            samples_g.append(val)
        rec = V.fit_pointwise_decay(samples_d, samples_g, 2)
        ok = rec.status == "pass"
        emit(9, "pointwise ray decay n=2 (target <= -1.85)", ok,
             f"exp={rec.fitted['exponent']:.3f} r2={rec.fitted['r2']:.4f}")
        assert ok

    def test_weak_levels_n1(self):
        dom = Domain((0.0,), (2.5,), "periodic")
        cells = 320
        h = 2.5 / cells
        tau = h * h / 2
        mesh = Mesh(dom, (cells,), tau=tau, t0=0.0, steps=int(0.45 / tau) + 8)
        spec = OperatorSpec(make_preset("heat", n=1), dom)
        rho = 2 * h
        s = float(mesh.times[8])
        Y, T = (s, mesh.centers[160]), float(mesh.times[-1])
        col = column(spec, mesh, Y, 1, rho, T)
        rec_v = V.weak_lp_levels(mesh, Y, rho, col.values, T)
        rec_g = V.weak_lp_levels(mesh, Y, rho, col.values, T, use_gradient=True)
        ok = rec_v.status == "pass" and rec_g.status == "pass"
        emit(9, "weak level sets n=1 (targets <= -2.8 / <= -1.3)", ok,
             f"value slope {rec_v.fitted['slope']:.3f}, "
             f"gradient slope {rec_g.fitted['slope']:.3f}")
        assert ok

    def test_weak_levels_n2(self):
        cells = 96
        h = 1.0 / cells
        tau = h * h
        mesh = Mesh(DOM2, (cells, cells), tau=tau, t0=0.0,
                    steps=int(0.045 / tau) + 6)
        spec = OperatorSpec(make_preset("heat", n=2), DOM2)
        rho = 2 * h
        s = float(mesh.times[4])
        y = mesh.centers[mesh.cell_index((mesh.axis_centers(0)[48],
                                          mesh.axis_centers(1)[48]))]
        T = float(mesh.times[-1])
        col = column(spec, mesh, (s, y), 1, rho, T)
        rec_v = V.weak_lp_levels(mesh, (s, y), rho, col.values, T)
        rec_g = V.weak_lp_levels(mesh, (s, y), rho, col.values, T, use_gradient=True)
        ok = rec_v.status == "pass" and rec_g.status == "pass"
        emit(9, "weak level sets n=2 (targets <= -1.8 / <= -1.133)", ok,
             f"value slope {rec_v.fitted['slope']:.3f}, "
             f"gradient slope {rec_g.fitted['slope']:.3f}")
        assert ok


class TestCriterion10InteriorDecay:
    def test_x_independent_presets_mu_at_least_09(self):
        all_ok = True
        details = []
        cells = 160
        h = 1 / cells
        tau = 2 * h * h
        mesh = Mesh(DOM1, (cells,), tau=tau, t0=0.0, steps=int(0.14 / tau) + 2)
        ladder = [k * h for k in (6, 8, 12, 16, 24, 32, 40)]
        for name, spec in (
                ("heat-1d", OperatorSpec(make_preset("heat", n=1), DOM1)),
                ("t-oscillating", OperatorSpec(make_preset("t-oscillating", n=1,
                                                           period=0.05), DOM1))):
            rec = V.ph_decay_fit(spec, mesh, (float(mesh.times[-1]), mesh.centers[80]),
                                 ladder, n_solutions=10, seed=5)
            all_ok &= rec.status == "pass" and rec.fitted["exponent"] >= 1 + 1.8
            details.append(f"{name}: exp={rec.fitted['exponent']:.2f}")
        cells2 = 64
        h2 = 1 / cells2
        tau2 = 4 * h2 * h2
        mesh2 = Mesh(DOM2, (cells2, cells2), tau=tau2, t0=0.0,
                     steps=int(0.09 / tau2) + 2)
        spec2 = OperatorSpec(make_preset("heat", n=2), DOM2)
        y = mesh2.centers[mesh2.cell_index((mesh2.axis_centers(0)[32],
                                            mesh2.axis_centers(1)[32]))]
        rec2 = V.ph_decay_fit(spec2, mesh2, (float(mesh2.times[-1]), y),
                              [k * h2 for k in (6, 8, 12, 16)], n_solutions=10, seed=5)
        all_ok &= rec2.status == "pass" and rec2.fitted["exponent"] >= 2 + 1.8
        details.append(f"heat-2d: exp={rec2.fitted['exponent']:.2f}")
        emit(10, "interior energy decay (exp >= n+1.8)", all_ok, "; ".join(details))
        assert all_ok


class TestCriterion11OracleEquivalence:
    def test_forward_matches_dense_oracle_everywhere(self):
        worst = 0.0
        rng = np.random.default_rng(17)
        for spec in presets_1d():
            mesh = mesh_1d(cells=20, tau=1 / 256, steps=24)
            g = rng.standard_normal((spec.coeffs.N, mesh.ncells))
            a = solve_forward(spec, mesh, g, None, 0.0, 24 / 256)
            b = dense_spacetime_oracle(spec, mesh, g, None, 0.0, 24 / 256)
            worst = max(worst, float(np.max(np.abs(a.values - b.values))
                                     / np.max(np.abs(b.values))))
        for spec in presets_2d():
            mesh = mesh_2d(cells=8, tau=1 / 128, steps=16)
            g = rng.standard_normal((spec.coeffs.N, mesh.ncells))
            a = solve_forward(spec, mesh, g, None, 0.0, 16 / 128)
            b = dense_spacetime_oracle(spec, mesh, g, None, 0.0, 16 / 128)
            worst = max(worst, float(np.max(np.abs(a.values - b.values))
                                     / np.max(np.abs(b.values))))
        ok = worst <= 1e-9
        emit(11, "space-time oracle equivalence", ok, f"max rel diff {worst:.3e} <= 1e-9")
        assert ok

    def test_adjointness_everywhere(self):
        worst = 0.0
        rng = np.random.default_rng(23)
        for spec in presets_1d() + presets_2d():
            mesh = mesh_1d() if spec.coeffs.n == 1 else mesh_2d()
            a = rng.standard_normal((spec.coeffs.N, mesh.ncells))
            b = rng.standard_normal((spec.coeffs.N, mesh.ncells))
            t = float(mesh.times[-1])
            fa = solve_forward(spec, mesh, a, None, 0.0, t).values[-1]
            bb = solve_backward(spec, mesh, b, None, t, 0.0).values[0]
            lhs, rhs = float(np.sum(fa * b)), float(np.sum(a * bb))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        ok = worst <= 1e-12
        emit(11, "forward/backward adjointness", ok, f"max residual {worst:.3e} <= 1e-12")
        assert ok


class TestCriterion12InitialTrace:
    def test_bump_recovery_on_reference_mesh(self):
        cells = 128
        h = 1.0 / cells
        tau = h * h / 2
        mesh = Mesh(DOM1, (cells,), tau=tau, t0=0.0, steps=40)
        spec = OperatorSpec(make_preset("heat", n=1), DOM1)
        x = mesh.centers[:, 0]
        g = np.exp(-0.5 * ((x - x[64]) / 0.1) ** 2)[None, :]
        t_list = [float(mesh.times[k]) for k in (4, 8, 16, 32)]
        rec = V.initial_trace_test(spec, mesh, g, mesh.centers[64], 0.0, t_list)
        ok = rec.status == "pass"
        emit(12, "initial trace recovery", ok,
             f"|u-g|(4 tau)={rec.fitted['final_error']:.3e} <= "
             f"{rec.fitted['threshold']:.3e}, monotone={rec.fitted['monotone']}")
        assert ok
