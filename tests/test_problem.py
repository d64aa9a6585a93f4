import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlab import (CoefficientField, ConfigError, Domain, load_table, make_preset,
                      validate_parabolicity)


def write_coefficient_table(path, coeffs, t_vals, axes):
    """Sample a field onto a grid and write the CSV table that ``load_table`` reads."""
    n, N = coeffs.n, coeffs.N
    dims = tuple(len(a) for a in axes)
    with open(path, "w") as fh:
        fh.write(f"# {n} {N} {len(t_vals)} " + " ".join(str(d) for d in dims) + "\n")
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        for t in t_vals:
            blk = coeffs.tensor(float(t), pts)
            for p in range(pts.shape[0]):
                xs = ",".join(repr(float(v)) for v in pts[p])
                for a in range(n):
                    for b in range(n):
                        for i in range(N):
                            for j in range(N):
                                fh.write(f"{float(t)!r},{xs},{a + 1},{b + 1},"
                                         f"{i + 1},{j + 1},{float(blk[p, a, b, i, j])!r}\n")


def random_field(seed, n=2, N=2):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, n, N, N))
    # shift to make it strongly parabolic so the audit has something to hold
    d = n * N
    M = mat.transpose(2, 0, 3, 1).reshape(d, d)
    lam_true = float(np.min(np.linalg.eigvalsh(0.5 * (M + M.T))))
    for a in range(n):
        for i in range(N):
            mat[a, a, i, i] += 1.0 - min(lam_true, 0.0)

    def fn(t, pts):
        return np.broadcast_to(mat, (pts.shape[0],) + mat.shape).copy()

    M = mat.transpose(2, 0, 3, 1).reshape(d, d)
    lam = float(np.min(np.linalg.eigvalsh(0.5 * (M + M.T))))
    Lam = float(np.sqrt(np.sum(mat ** 2)))
    return CoefficientField(n, N, lam, Lam, math.inf, f"random-{seed}", fn), mat


class TestValidateParabolicity:
    def test_heat_identity(self):
        rep = validate_parabolicity(make_preset("heat", n=1), 16)
        assert rep.lambda_est == pytest.approx(1.0, abs=1e-12)
        assert rep.Lambda_est == pytest.approx(1.0, abs=1e-12)
        assert rep.ok

    def test_diagonal_two_half(self):
        rep = validate_parabolicity(make_preset("diag", values=(2.0, 0.5)), 16)
        assert rep.lambda_est == pytest.approx(0.5, abs=1e-12)
        assert rep.Lambda_est == pytest.approx(math.sqrt(4.25), abs=1e-12)
        assert rep.ok

    def test_overdeclared_lambda_flagged(self):
        honest = make_preset("almost-diagonal", eps=0.1)
        lying = CoefficientField(1, 2, 0.95, honest.Lam, math.inf, "lying",
                                 honest.tensor_fn)
        rep = validate_parabolicity(lying, 16)
        assert not rep.ok
        # independent oracle: dense sweep of unit directions in R^{N*n}
        angles = np.linspace(0.0, 2 * math.pi, 20001)
        xi = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        blk = honest.tensor(0.0, np.zeros((1, 1)))[0]
        M = blk.transpose(2, 0, 3, 1).reshape(2, 2)
        form = np.einsum("sd,de,se->s", xi, M, xi)
        assert form.min() == pytest.approx(0.9, abs=1e-7)
        assert form.min() < 0.95
        assert rep.lambda_est == pytest.approx(form.min(), abs=1e-9)

    def test_rejects_zero_samples(self):
        with pytest.raises(ConfigError):
            validate_parabolicity(make_preset("heat", n=1), 0)

    def test_rejects_non_finite(self):
        bad = CoefficientField(1, 1, 1.0, 1.0, math.inf, "bad",
                               lambda t, pts: np.full((pts.shape[0], 1, 1, 1, 1), np.nan))
        with pytest.raises(ConfigError):
            validate_parabolicity(bad, 4)

    def test_transposed_field_same_estimates(self):
        field, _ = random_field(3)
        a = validate_parabolicity(field, 12, seed=5)
        b = validate_parabolicity(field.transposed(), 12, seed=5)
        assert a.lambda_est == b.lambda_est
        assert a.Lambda_est == b.Lambda_est


class TestTranspose:
    def test_heat_unchanged(self):
        heat = make_preset("heat", n=2)
        t = heat.transposed()
        pts = np.array([[0.3, 0.7]])
        assert np.array_equal(heat.tensor(0.0, pts), t.tensor(0.0, pts))

    def test_symmetric_scalar_pointwise_equal(self):
        f = make_preset("x-oscillatory", n=2)
        t = f.transposed()
        pts = np.random.default_rng(0).random((5, 2))
        assert np.allclose(f.tensor(0.2, pts), t.tensor(0.2, pts), atol=0, rtol=0)

    def test_spot_index_swap(self):
        field, mat = random_field(11)
        t = field.transposed()
        assert t.eval(0.0, [0.1, 0.2], 1, 2, 1, 2) == pytest.approx(
            field.eval(0.0, [0.1, 0.2], 2, 1, 2, 1), abs=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_involution(self, seed):
        field, mat = random_field(seed)
        tt = field.transposed().transposed()
        pts = np.random.default_rng(seed).random((4, 2))
        assert np.array_equal(tt.tensor(0.0, pts), field.tensor(0.0, pts))


class TestDomain:
    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            Domain((0.0,), (1.0,), "neumann")


class TestTableLoader:
    def test_roundtrip_matches_source(self, tmp_path):
        field, _ = random_field(5, n=1, N=2)
        path = tmp_path / "table.csv"
        t_vals = [0.0, 0.5]
        axes = [np.linspace(0.0, 1.0, 9)]
        write_coefficient_table(path, field, t_vals, axes)
        loaded = load_table(path, field.lam, field.Lam)
        pts = axes[0][[0, 3, 8]][:, None]
        assert np.allclose(loaded.tensor(0.0, pts), field.tensor(0.0, pts),
                           rtol=0, atol=1e-15)
        # between nodes: multilinear in x stays within the node envelope
        mid = np.array([[0.4375]])
        lo = field.tensor(0.0, np.array([[0.375]]))
        hi = field.tensor(0.0, np.array([[0.5]]))
        got = loaded.tensor(0.0, mid)
        assert np.all(got >= np.minimum(lo, hi) - 1e-15)
        assert np.all(got <= np.maximum(lo, hi) + 1e-15)
        rep = validate_parabolicity(loaded, 8)
        assert rep.ok

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_file_names_the_path(self, tmp_path, kind):
        path = tmp_path / "coefficients.csv"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(ConfigError, match=f"cannot read table {path}"):
            load_table(path, 1.0, 1.0)

    def test_missing_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# 1 1 1 2\n0.0,0.0,1,1,1,1,1.0\n")
        with pytest.raises(ConfigError):
            load_table(path, 1.0, 1.0)


def test_table_loader_2d(tmp_path):
    field = make_preset("diag", values=(2.0, 0.5))
    path = tmp_path / "t2d.csv"
    axes = [np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 4)]
    write_coefficient_table(path, field, [0.0], axes)
    loaded = load_table(path, field.lam, field.Lam)
    pts = np.array([[0.25, 1.0 / 3.0], [0.0, 0.0]])
    assert np.allclose(loaded.tensor(0.0, pts), field.tensor(0.0, pts),
                       rtol=0, atol=1e-14)
