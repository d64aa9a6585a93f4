import inspect
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlab import cli, problem
from greenlab import (CoefficientField, ConfigError, Domain, load_table, make_preset,
                      validate_parabolicity)

from reference import entry, transposed


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
        b = validate_parabolicity(transposed(field), 12, seed=5)
        assert a.lambda_est == b.lambda_est
        assert a.Lambda_est == b.Lambda_est


class TestTranspose:
    def test_heat_unchanged(self):
        heat = make_preset("heat", n=2)
        t = transposed(heat)
        pts = np.array([[0.3, 0.7]])
        assert np.array_equal(heat.tensor(0.0, pts), t.tensor(0.0, pts))

    def test_symmetric_scalar_pointwise_equal(self):
        f = make_preset("x-oscillatory", n=2)
        t = transposed(f)
        pts = np.random.default_rng(0).random((5, 2))
        assert np.allclose(f.tensor(0.2, pts), t.tensor(0.2, pts), atol=0, rtol=0)

    def test_spot_index_swap(self):
        field, mat = random_field(11)
        t = transposed(field)
        assert entry(t, 0.0, [0.1, 0.2], 1, 2, 1, 2) == pytest.approx(
            entry(field, 0.0, [0.1, 0.2], 2, 1, 2, 1), abs=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_involution(self, seed):
        field, mat = random_field(seed)
        tt = transposed(transposed(field))
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, math.nan]), max_size=12))
def test_sorted_unique_is_np_unique(values):
    """``_sorted_unique`` returns ``np.unique``'s array, byte for byte, NaN and signed zeros
    included, on floats and on integers."""
    from greenlab.problem import _sorted_unique

    for arr in (np.array(values, dtype=float), np.array(values, dtype=float)[:0],
                np.array([v if math.isfinite(v) else 3 for v in values], dtype=np.int64)):
        got, want = _sorted_unique(arr), np.unique(arr)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_readme_presets_table_lists_every_builder_signature():
    """README's Presets table names each preset of ``PRESETS`` in order, with its builder's
    parameters, their JSON types and their defaults."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Presets\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]

    def default(value):
        return "+∞" if value == math.inf else \
            json.dumps(list(value)) if isinstance(value, tuple) else repr(value)

    assert [row[0] for row in rows] == [f"| `{name}`" for name in problem.PRESETS]
    for row, builder in zip(rows, problem.PRESETS.values()):
        params = inspect.signature(builder, eval_str=True).parameters.values()
        assert row[1] == "; ".join(f"`{p.name}`: {cli._describe(p.annotation)} = "
                                   f"{default(p.default)}" for p in params)


def _splitmix64(seed: int, count: int) -> list:
    """The first ``count`` SplitMix64 outputs of the state ``seed``, in Python integers."""
    out, state, mask = [], seed, 2 ** 64 - 1
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestSeededUniform:
    def test_canonical_outputs_of_seed_0(self):
        assert _splitmix64(0, 2) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]

    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 32 + 5, 2 ** 63, 2 ** 64 - 1])
    def test_matches_the_scalar_reference(self, seed):
        got = problem.seeded_uniform(seed, (3, 5))
        want = [(z >> 11) * 2.0 ** -52 - 1.0 for z in _splitmix64(seed, 15)]
        assert got.shape == (3, 5) and got.dtype == np.float64
        assert got.ravel().tolist() == want

    def test_values_are_multiples_of_2_to_the_minus_52_on_the_half_open_interval(self):
        u = problem.seeded_uniform(11, 4096)
        assert np.all(u >= -1.0) and np.all(u < 1.0)
        k = (u + 1.0) * 2.0 ** 52
        assert np.array_equal(k, np.floor(k))
        assert u.min() < -0.99 and u.max() > 0.99 and abs(u.mean()) < 0.05

    def test_skip_continues_the_stream(self):
        whole = problem.seeded_uniform(5, (4, 6))
        for skip in (0, 1, 7, 23):
            part = problem.seeded_uniform(5, 24 - skip, skip=skip)
            assert np.array_equal(part, whole.ravel()[skip:])

    def test_no_warning_under_error_filters(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problem.seeded_uniform(2 ** 64 - 1, (2, 3), skip=2 ** 40)
            problem.seeded_uniform(0, 0)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ConfigError, match=r"seed must lie in \[0, 2\*\*64\)"):
            problem.seeded_uniform(seed, 3)

    def test_float_seed_rejected(self):
        with pytest.raises(TypeError):
            problem.seeded_uniform(1.5, 3)
