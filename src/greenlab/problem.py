"""Parabolic system definitions and coefficient diagnostics.

A system is described by a tensor A[alpha, beta, i, j](t, x) acting on
vector fields with N components over n spatial dimensions (n in {1, 2}),
together with its coercivity constant ``lam`` (the quadratic form lower
bound), the Frobenius bound ``Lam``, and an interior-regularity scale
``R_c``.  Fields are immutable and safe to share between workers.

Tensor index convention: ``eval`` takes 1-based indices (alpha, beta in
1..n, i, j in 1..N); the vectorized ``tensor`` method returns 0-based
numpy blocks of shape (P, n, n, N, N).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError

BOUNDARY_MODES = ("dirichlet", "periodic")


@dataclass(frozen=True)
class CoefficientField:
    """Coefficient tensor A[alpha, beta, i, j](t, x) with ellipticity metadata.

    ``tensor_fn(t, pts)`` must accept a scalar time and an array of points
    of shape (P, n) and return an array of shape (P, n, n, N, N).
    ``lam`` and ``Lam`` are the declared constants of record; sampling
    audits them but never overrides them.
    """

    n: int
    N: int
    lam: float
    Lam: float
    R_c: float
    name: str
    tensor_fn: Callable[[float, np.ndarray], np.ndarray]
    time_dependent: bool = False
    x_dependent: bool = False
    from_table: bool = False

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ConfigError(f"spatial dimension must be 1 or 2, got {self.n}")
        if self.N < 1:
            raise ConfigError(f"system size must be >= 1, got {self.N}")
        if not (self.lam > 0 and self.Lam > 0):
            raise ConfigError("lam and Lam must be positive")
        if not (self.R_c > 0):
            raise ConfigError("R_c must be positive (math.inf allowed)")

    def tensor(self, t: float, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != self.n:
            raise ConfigError(f"points have dimension {pts.shape[1]}, field has n={self.n}")
        out = np.asarray(self.tensor_fn(t, pts), dtype=float)
        expect = (pts.shape[0], self.n, self.n, self.N, self.N)
        if out.shape != expect:
            raise ConfigError(f"tensor_fn returned shape {out.shape}, expected {expect}")
        return out

    def eval(self, t: float, x, alpha: int, beta: int, i: int, j: int) -> float:
        """Scalar entry A^{alpha beta}_{ij}(t, x) with 1-based indices."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        blk = self.tensor(t, x[None, :])
        return float(blk[0, alpha - 1, beta - 1, i - 1, j - 1])

    def transposed(self) -> "CoefficientField":
        """Swap alpha<->beta and i<->j; same lam, Lam by construction."""
        base = self.tensor_fn

        def t_fn(t, pts):
            return np.asarray(base(t, pts)).transpose(0, 2, 1, 4, 3)

        return replace(self, tensor_fn=t_fn, name=self.name + "^T")


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box with either a Dirichlet or a periodic boundary."""

    lo: tuple
    hi: tuple
    boundary_mode: str

    def __post_init__(self):
        if self.boundary_mode not in BOUNDARY_MODES:
            raise ConfigError(f"boundary_mode must be one of {BOUNDARY_MODES}")
        if len(self.lo) != len(self.hi):
            raise ConfigError("lo/hi dimension mismatch")
        if not all(h > l for l, h in zip(self.lo, self.hi)):
            raise ConfigError("box must have positive extent on every axis")

    @property
    def n(self) -> int:
        return len(self.lo)

    @property
    def lengths(self) -> np.ndarray:
        return np.asarray(self.hi, dtype=float) - np.asarray(self.lo, dtype=float)

    @property
    def periodic(self) -> bool:
        return self.boundary_mode == "periodic"


@dataclass(frozen=True)
class OperatorSpec:
    """A divergence-form operator: coefficients on a domain."""

    coeffs: CoefficientField
    domain: Domain

    def __post_init__(self):
        if self.coeffs.n != self.domain.n:
            raise ConfigError("coefficient and domain dimensions differ")


# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------


def _const_tensor(mat: np.ndarray, n: int, N: int):
    mat = np.asarray(mat, dtype=float).reshape(n, n, N, N)

    def fn(t, pts):
        return np.broadcast_to(mat, (pts.shape[0],) + mat.shape).copy()

    return fn


def _scalar_diag_tensor(n: int, a_of_tx: Callable[[float, np.ndarray], np.ndarray]):
    """Isotropic scalar field a(t,x) * delta_{alpha beta}, N = 1."""

    def fn(t, pts):
        a = np.asarray(a_of_tx(t, pts), dtype=float)
        out = np.zeros((pts.shape[0], n, n, 1, 1))
        for ax in range(n):
            out[:, ax, ax, 0, 0] = a
        return out

    return fn


# Each preset is one builder: its keyword arguments are the preset's scenario keys, their
# annotations the keys' JSON types (``cli`` reads them from the signature), and it declares
# exact (lam, Lam).  Every preset takes ``R_c``, +inf by default.  Float casts keep a JSON
# integer from reaching the declared constants and names as an int.  A builder holds its
# keys to their ranges before it computes anything from them.


def _in_range(key: str, value, ok: bool, rule: str) -> None:
    """Reject a preset value outside its range, naming its scenario key."""
    if not ok:
        raise ConfigError(f"preset.{key} must be {rule}, got {value!r}")


def _dimension(n) -> None:
    _in_range("n", n, n in (1, 2), "1 or 2")


def _heat(n: int = 1, R_c: float = math.inf) -> CoefficientField:
    _dimension(n)
    return CoefficientField(n, 1, 1.0, math.sqrt(n), R_c, f"heat-{n}d",
                            _const_tensor(np.eye(n), n, 1))


def _decoupled_heat_pair(n: int = 1, R_c: float = math.inf) -> CoefficientField:
    _dimension(n)
    return CoefficientField(n, 2, 1.0, math.sqrt(2 * n), R_c, f"decoupled-pair-{n}d",
                            _const_tensor(np.eye(n)[:, :, None, None] * np.eye(2), n, 2))


def _diag(values: list[float] = (2.0, 0.5), R_c: float = math.inf) -> CoefficientField:
    _in_range("values", list(values), len(values) in (1, 2) and all(v > 0 for v in values),
              "one or two positive numbers")
    vals = tuple(float(v) for v in values)
    return CoefficientField(len(vals), 1, min(vals), math.sqrt(sum(v * v for v in vals)), R_c,
                            "diag" + str(vals), _const_tensor(np.diag(vals), len(vals), 1))


def _t_oscillating(n: int = 1, base: float = 1.0, amp: float = 0.5, period: float = 1.0,
                   R_c: float = math.inf) -> CoefficientField:
    _dimension(n)
    _in_range("period", period, period > 0, "positive")
    base, amp, period = float(base), float(amp), float(period)
    if not 0 <= amp < base:
        raise ConfigError("t-oscillating needs 0 <= amp < base")

    def a(t, pts):
        return np.full(pts.shape[0], base + amp * math.sin(2 * math.pi * t / period))

    return CoefficientField(n, 1, base - amp, (base + amp) * math.sqrt(n), R_c,
                            "t-oscillating", _scalar_diag_tensor(n, a), time_dependent=True)


def _x_oscillatory(n: int = 1, offset: float = 2.0, amp: float = 1.0,
                   wavelength: float = 1.0, R_c: float = math.inf) -> CoefficientField:
    _dimension(n)
    _in_range("wavelength", wavelength, wavelength > 0, "positive")
    off, amp, wavelength = float(offset), float(amp), float(wavelength)
    if not 0 <= amp < off:
        raise ConfigError("x-oscillatory needs 0 <= amp < offset")

    def a(t, pts):
        return off + amp * np.sin(2 * np.pi * pts[:, 0] / wavelength)

    return CoefficientField(n, 1, off - amp, (off + amp) * math.sqrt(n), R_c,
                            "x-oscillatory", _scalar_diag_tensor(n, a), x_dependent=True)


def _checkerboard(n: int = 1, low: float = 1.0, high: float = 4.0, period: float = 0.25,
                  R_c: float = math.inf) -> CoefficientField:
    _dimension(n)
    _in_range("period", period, period > 0, "positive")
    lo, hi, period = float(low), float(high), float(period)
    if not 0 < lo <= hi:
        raise ConfigError("checkerboard needs 0 < low <= high")

    # Value flips with the parity of floor(x_1/period); at a point that
    # sits exactly on a tile edge, floor picks the right-hand tile.
    def a(t, pts):
        parity = np.floor(pts[:, 0] / period).astype(np.int64) % 2
        return np.where(parity == 0, lo, hi)

    return CoefficientField(n, 1, lo, hi * math.sqrt(n), R_c, "checkerboard",
                            _scalar_diag_tensor(n, a), x_dependent=True)


def _almost_diagonal(eps: float = 0.1, R_c: float = math.inf) -> CoefficientField:
    if not 0 <= eps < 1:
        raise ConfigError("almost-diagonal needs 0 <= eps < 1")
    return CoefficientField(1, 2, 1.0 - eps, math.sqrt(2 + 2 * eps * eps), R_c,
                            "almost-diagonal", _const_tensor([[1.0, eps], [eps, 1.0]], 1, 2))


def _rotating(w0: float = 0.5, omega: float = 1.0, R_c: float = math.inf) -> CoefficientField:
    # Antisymmetric inter-component coupling: the quadratic form ignores
    # the skew part, so lam = 1 exactly while the tensor is nonsymmetric.
    def fn(t, pts):
        w = w0 * math.cos(2 * math.pi * omega * t)
        mat = np.zeros((1, 1, 2, 2))
        mat[0, 0] = np.array([[1.0, w], [-w, 1.0]])
        return np.broadcast_to(mat, (pts.shape[0],) + mat.shape).copy()

    return CoefficientField(1, 2, 1.0, math.sqrt(2 + 2 * w0 * w0), R_c, "rotating", fn,
                            time_dependent=omega != 0.0)


PRESETS = {
    "heat": _heat,
    "decoupled-heat-pair": _decoupled_heat_pair,
    "diag": _diag,
    "t-oscillating": _t_oscillating,
    "x-oscillatory": _x_oscillatory,
    "checkerboard": _checkerboard,
    "almost-diagonal": _almost_diagonal,
    "rotating": _rotating,
}


def make_preset(name: str, **kw) -> CoefficientField:
    """The closed-form preset ``name`` (a key of ``PRESETS``), built from its keywords ``kw``."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}")
    return PRESETS[name](**kw)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, increasing, NaN once: what ``np.unique`` returns.

    ``np.unique`` imports ``numpy.ma`` on its first call, about 17 ms and
    1.6 MB (numpy 2.4.6) that a run otherwise never needs.
    """
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    if len(values) and values[-1] != values[-1]:  # NaNs sort last; keep the first
        keep[np.searchsorted(values, values[-1]) + 1:] = False
    return values[keep]


def load_table(path, lam: float, Lam: float, R_c: float = math.inf) -> CoefficientField:
    """Load a gridded coefficient table from CSV.

    Header line ``# n N nt nx [ny]`` followed by rows
    ``t,x[,y],alpha,beta,i,j,value`` (1-based tensor indices).  Lookup is
    nearest-left in t and multilinear in x on the stored grid; declared
    (lam, Lam) come from the caller.
    """
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read table {path}: {exc}") from exc
    with fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ConfigError("table must start with a '# n N nt nx [ny]' header")
        fields = header[1:].split()
        if len(fields) not in (4, 5):
            raise ConfigError("table header must be '# n N nt nx [ny]'")
        n, N, nt = int(fields[0]), int(fields[1]), int(fields[2])
        dims = tuple(int(v) for v in fields[3:])
        if len(dims) != n:
            raise ConfigError("table header grid sizes do not match n")
        raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    ncol = 1 + n + 4 + 1
    if raw.shape[1] != ncol:
        raise ConfigError(f"table rows must have {ncol} columns for n={n}")
    expected = nt * int(np.prod(dims)) * n * n * N * N
    if raw.shape[0] != expected:
        raise ConfigError(f"table has {raw.shape[0]} rows, expected {expected}")

    t_vals = _sorted_unique(raw[:, 0])
    x_vals = [_sorted_unique(raw[:, 1 + ax]) for ax in range(n)]
    if len(t_vals) != nt or any(len(xv) != d for xv, d in zip(x_vals, dims)):
        raise ConfigError("table grid is not a full tensor product")
    table = np.full((nt,) + dims + (n, n, N, N), np.nan)
    it = np.searchsorted(t_vals, raw[:, 0])
    ix = [np.searchsorted(x_vals[ax], raw[:, 1 + ax]) for ax in range(n)]
    a_idx = raw[:, 1 + n].astype(int) - 1
    b_idx = raw[:, 2 + n].astype(int) - 1
    i_idx = raw[:, 3 + n].astype(int) - 1
    j_idx = raw[:, 4 + n].astype(int) - 1
    table[(it, *ix, a_idx, b_idx, i_idx, j_idx)] = raw[:, -1]
    if np.isnan(table).any():
        raise ConfigError("table is missing entries")

    def fn(t, pts):
        k = np.searchsorted(t_vals, t + 1e-12, side="right") - 1
        k = min(max(k, 0), nt - 1)
        sl = table[k]
        # multilinear in x with clamped edges: per axis the (index, weight) of
        # the grid points left and right of each point
        ends = []
        for ax in range(n):
            xv = x_vals[ax]
            pos = np.clip(pts[:, ax], xv[0], xv[-1])
            j = np.clip(np.searchsorted(xv, pos, side="right") - 1, 0, len(xv) - 2) \
                if len(xv) > 1 else np.zeros(len(pos), dtype=int)
            if len(xv) > 1:
                frac = (pos - xv[j]) / (xv[j + 1] - xv[j])
            else:
                frac = np.zeros(len(pos))
            w = 1.0 - frac
            ends.append(((j, w), (np.minimum(j + 1, dims[ax] - 1), 1 - w)))
        # the 2^n corners, axis 0 fastest, each weighed by its axes' weights in axis order
        corners = (c[::-1] for c in itertools.product(*ends[::-1]))
        return sum(math.prod(w for _, w in c)[:, None, None, None, None]
                   * sl[tuple(j for j, _ in c)] for c in corners)

    return CoefficientField(n, N, lam, Lam, R_c, "table", fn,
                            time_dependent=nt > 1, x_dependent=True,
                            from_table=True)


# ----------------------------------------------------------------------
# seeded check data
# ----------------------------------------------------------------------

_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's state increment
_MASK = 2 ** 64 - 1


def seeded_uniform(seed: int, shape, skip: int = 0) -> np.ndarray:
    """Seeded data uniform on [-1, 1), the same on every machine.

    Value i, in C order, is the SplitMix64 output (Steele, Lea & Flood, OOPSLA
    2014) for counter c = ``skip + i`` of the stream whose state starts at
    ``seed``: the state ``seed + (c + 1) * _GOLDEN`` mod 2**64, mixed, as a
    counter-based generator computes it (Salmon et al., SC 2011).  The
    output's top 53 bits k map to ``k * 2**-52 - 1``.  Only wrapping
    ``uint64`` arithmetic runs, so every value is exact, and ``skip``
    continues a stream without drawing what comes before it.  No run needs
    ``numpy.random``, whose import costs 6 MB of RSS.
    """
    seed, skip = operator.index(seed), operator.index(skip)
    if not 0 <= seed <= _MASK:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    z = np.arange(math.prod(shape), dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64((seed + (skip + 1) * _GOLDEN) & _MASK)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(11)).astype(float) * 2.0 ** -52 - 1.0).reshape(shape)


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ParabolicityReport:
    lambda_est: float
    Lambda_est: float
    ok: bool


def _sample_points(coeffs, sample_count, seed):
    """Sample times in [0, 1] and points in the unit box, the first draws of ``seed``."""
    ts = np.linspace(0.0, 1.0, max(2, int(math.isqrt(sample_count)) + 1))
    pts = (seeded_uniform(seed, (sample_count, coeffs.n)) + 1.0) / 2.0
    return ts, pts


def validate_parabolicity(coeffs: CoefficientField, sample_count: int,
                          seed: int = 0) -> ParabolicityReport:
    """Audit the declared (lam, Lam) by sampling the quadratic form.

    lambda_est is the minimum of the form over sampled (t, x) and a set of
    directions xi (coordinate axes, random unit vectors, and the extremal
    eigendirection of the symmetrized tensor at each sample).  Lambda_est
    is the largest sampled Frobenius norm.  ``ok`` holds when both sit on
    the declared side of the constants within 1e-12 (1e-8 for a loaded
    table).  The points and then the directions are consecutive segments of
    the ``seeded_uniform`` stream of ``seed``.
    """
    if sample_count < 1:
        raise ConfigError("sample_count must be >= 1")
    tol = 1e-8 if coeffs.from_table else 1e-12
    n, N = coeffs.n, coeffs.N
    d = n * N
    ts, pts = _sample_points(coeffs, sample_count, seed)

    dirs = [np.eye(d)]
    nrand = max(8, 4 * d)
    v = seeded_uniform(seed, (nrand, d), skip=sample_count * n)
    dirs.append(v / np.linalg.norm(v, axis=1, keepdims=True))
    xi_fixed = np.vstack(dirs)

    lam_est = math.inf
    Lam_est = 0.0
    for t in ts:
        blk = coeffs.tensor(float(t), pts)
        if not np.isfinite(blk).all():
            raise ConfigError("non-finite coefficient value encountered")
        Lam_est = max(Lam_est, float(np.sqrt(np.max(np.sum(blk ** 2, axis=(1, 2, 3, 4))))))
        # M[(i,alpha),(j,beta)] so that xi^T M xi is the parabolicity form
        M = blk.transpose(0, 3, 1, 4, 2).reshape(-1, d, d)
        sym = 0.5 * (M + M.transpose(0, 2, 1))
        evals, evecs = np.linalg.eigh(sym)
        lam_est = min(lam_est, float(np.min(evals)))
        q = np.einsum("sd,pde,se->ps", xi_fixed, sym, xi_fixed)
        lam_est = min(lam_est, float(np.min(q)))
    ok = (lam_est >= coeffs.lam - tol) and (Lam_est <= coeffs.Lam + tol)
    return ParabolicityReport(lam_est, Lam_est, ok)
