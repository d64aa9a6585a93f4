"""Machine checks for the identities and quantitative bounds of the theory.

Each check returns a CheckRecord carrying a stable ``anchor`` label that
names the mathematical identity being tested, the fitted quantities, the
tolerance that decided pass/fail, and sampling metadata.  Checks are pure
functions of their inputs; fits never fail on data, only on violated
preconditions, and informational records never gate anything.

Every check marches through ``solver._march`` (or its generator
``_stream``), and Green columns through ``green._green_block``, keeping
only what it reads; each check's docstring says what that is.  No check
forms an (nn, nn) array, and only ``weak_lp_levels`` reads a whole column.
Cylinder slices come from ``Mesh.cylinder_slices`` alone.
``interior-decay`` folds its marches into its energies as they pass
(``_cylinder_energies``) and differs from one sum over the whole cylinder
only at roundoff; every other record is byte-identical to the one computed
from whole trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .green import _green_block, _line_fit, _rho_ladder, _rho_weights, wrapped_heat_kernel
from .mesh import Mesh, _positions_in
from .problem import OperatorSpec, _sorted_unique, seeded_uniform
from .solver import (ThetaScheme, _Keep, _march, _solve, _stream, dense_spacetime_oracle,
                     project_slice)

# ----------------------------------------------------------------------
# records and fits
# ----------------------------------------------------------------------


@dataclass
class BoundFit:
    exponent: float
    constant: float
    r2: float


@dataclass
class CheckRecord:
    name: str
    anchor: str
    status: str                  # pass / fail / informational
    tolerance: float
    fitted: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    details: str = ""

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_dict(self):
        return {"name": self.name, "anchor": self.anchor, "status": self.status,
                "tolerance": self.tolerance, "fitted": self.fitted,
                "samples": self.samples, "details": self.details}


@dataclass
class VerificationReport:
    records: list = field(default_factory=list)

    def add(self, rec: CheckRecord):
        self.records.append(rec)
        return rec

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self):
        return {"records": [r.to_dict() for r in self.records],
                "all_pass": self.all_pass}


def loglog_fit(xs, ys) -> BoundFit:
    """Least-squares power law y ~ C x^p, r2 reported, never discarded; in closed form
    p = sum (lx - lxbar)(ly - lybar) / sum (lx - lxbar)^2, lx = log x, ly = log y
    (``green._line_fit``), since LAPACK's first call faults in about 1 MB of code."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    good = (xs > 0) & (ys > 0)
    if good.sum() < 2:
        raise ConfigError("need at least two positive samples for a log-log fit")
    lx, ly = np.log(xs[good]), np.log(ys[good])
    icpt, slope = _line_fit(lx, ly, "a log-log fit")
    ss_res = float(np.sum((ly - (slope * lx + icpt)) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return BoundFit(float(slope), float(math.exp(icpt)), r2)


def operator_norms(blocks: np.ndarray) -> np.ndarray:
    """Spectral norms of stacked N x N blocks (exact, via SVD)."""
    blocks = np.asarray(blocks, dtype=float)
    if blocks.shape[-1] == 1:
        return np.abs(blocks[..., 0, 0])
    return np.linalg.svd(blocks, compute_uv=False)[..., 0]


# ----------------------------------------------------------------------
# exact identity checks
# ----------------------------------------------------------------------


def _block_averages(spec: OperatorSpec, mesh: Mesh, wants, horizon: float,
                    direction: str) -> list:
    """Cylinder averages of Green columns, from one march per direction.

    ``wants`` lists (pole, radius, cylinder pole, cylinder radius) per pair;
    forward columns are averaged over plus cylinders, transpose columns over
    minus cylinders.  Each distinct (pole, radius) is one source of N
    columns, and ``_green_block`` marches all of them, in the blocks of
    ``green._packs``: one block when the poles share their time and the
    block's spectrum fits.  The march keeps only the slices and ball cells of
    the pairs' cylinders.  Entry [k, l] of each returned (N, N) array is
    component l of column k averaged over the pair's cylinder, as
    ``cylinder_average`` averages it.
    """
    kind = "plus" if direction == "forward" else "minus"
    N = spec.coeffs.N
    groups: dict = {}
    for i, (P, r, Q, q) in enumerate(wants):
        key = (float(P[0]), tuple(np.atleast_1d(np.asarray(P[1], dtype=float))), float(r))
        groups.setdefault(key, []).append((i, *mesh.cylinder_slices(Q, q, kind)))
    members = [m for group in groups.values() for m in group]
    slices = sorted(set().union(*(idx for _, idx, _ in members)))
    cells = _sorted_unique(np.concatenate([ball for _, _, ball in members]))
    _, block = _green_block(spec, mesh, [wants[group[0][0]][:2] for group in groups.values()],
                            range(1, N + 1), horizon, direction,
                            _Keep.on_cells(mesh, N, slices, cells))
    out = [None] * len(wants)
    for cols, group in zip(block, groups.values()):
        for i, idx, ball in group:
            j, at = slices.index(idx.start), np.searchsorted(cells, ball)
            out[i] = np.stack([col[j:j + len(idx)][:, :, at].mean(axis=(0, 2))
                               for col in cols])
    return out


def check_duality(spec: OperatorSpec, mesh: Mesh, pairs, T: float, S: float,
                  tolerance: float = 1e-10) -> CheckRecord:
    """Averaged duality: minus-cylinder average of the adjoint column equals
    the plus-cylinder average of the forward column, for every component pair.

    ``pairs`` is an iterable of (Y, X, rho, sigma); the forward column is
    solved up to T >= t + sigma^2 and the adjoint column down to
    S <= s - rho^2 so the pairing windows overlap.  The columns of every
    distinct forward (Y, rho) march together, and so do those of every
    transpose (X, sigma): one march per direction (``_block_averages``).  A
    pair's (N, N) blocks F and B are compared at their scale:
    max|B^T - F| / max(max|F|, max|B|).
    """
    pairs = list(pairs)
    if not pairs:
        raise ConfigError("duality needs at least one (Y, X, rho, sigma) pair")
    fwd = _block_averages(spec, mesh, [(Y, rho, X, sigma) for Y, X, rho, sigma in pairs],
                          T, "forward")
    bwd = _block_averages(spec, mesh, [(X, sigma, Y, rho) for Y, X, rho, sigma in pairs],
                          S, "backward")
    worst = 0.0
    for F, B in zip(fwd, bwd):
        scale = max(float(np.max(np.abs(F))), float(np.max(np.abs(B))))
        if scale > 0:
            worst = max(worst, float(np.max(np.abs(B.T - F))) / scale)
    status = "pass" if worst <= tolerance else "fail"
    return CheckRecord("duality", "averaged-duality", status, tolerance,
                       fitted={"max_residual": worst}, samples={"pairs": sum(F.size for F in fwd)})


SEMIGROUP_PROBES = 4  # states of the semigroup check's probe block


def check_semigroup(spec: OperatorSpec, mesh: Mesh, s: float, r: float, t: float,
                    tolerance: float = 1e-12, seed: int = 0) -> CheckRecord:
    """Composition through an intermediate time reproduces the propagator, on probes.

    Freivalds' check (1977) of P(t, s) = P(t, r) P(r, s): a block X of
    ``SEMIGROUP_PROBES`` states, drawn from the ``seeded_uniform`` stream of
    ``seed`` and projected, marches from s, and its slices at r and t are
    Y_r = P(r, s) X and Y_t = P(t, s) X.  Y_r then marches from r to t, which
    gives Z_t = P(t, r) Y_r.  The record is max|Y_t - Z_t| / max|Y_t|; no
    (nn, nn) array is formed.  On the Fourier path the second march
    transforms Y_r afresh where the first carried its spectrum, so the sides
    may differ at roundoff; SuperLU steps repeat to the bit, and the record
    reads 0.
    """
    if not (s < r < t):
        raise ConfigError("need s < r < t")
    scheme = ThetaScheme(mesh, spec)
    i_r, i_t = mesh.time_index(r), mesh.time_index(t)
    X = project_slice(mesh, seeded_uniform(seed, (SEMIGROUP_PROBES * scheme.N, mesh.ncells)))
    Y = _march(scheme, mesh.time_index(s), i_t, X.reshape(SEMIGROUP_PROBES, -1).T,
               lambda m: None, _Keep([i_r, i_t]))
    del X  # only Y_r, Y_t and Z_t are held during the second march
    Z = _march(scheme, i_r, i_t, Y[:, 0].T, lambda m: None, _Keep([i_t]))
    num = float(np.max(np.abs(Y[:, 1] - Z[:, 0])))
    den = float(np.max(np.abs(Y[:, 1])))
    resid = num / den if den > 0 else 0.0
    status = "pass" if resid <= tolerance else "fail"
    return CheckRecord("semigroup", "semigroup-composition", status, tolerance,
                       fitted={"max_residual": resid},
                       samples={"s": s, "r": r, "t": t})


def _row_sums(spec: OperatorSpec, mesh: Mesh, s: float, t: float) -> np.ndarray:
    """R[i, x, j]: row (i, x) of P(t, s) summed over component j's cells, that is
    the march of constant unit state j; the N states march as one (nn, N) block."""
    scheme = ThetaScheme(mesh, spec)
    N, i1 = scheme.N, mesh.time_index(t)
    ones = np.repeat(np.eye(N), mesh.ncells, axis=0)  # column j: 1 on component j's cells
    out = _march(scheme, mesh.time_index(s), i1, ones, lambda m: None, _Keep([i1]))
    return out[:, 0].T.reshape(N, mesh.ncells, N)


def check_normalization(spec: OperatorSpec, mesh: Mesh, s: float, t: float,
                        tolerance: float = 1e-12) -> CheckRecord:
    """Row sums of the Green samples integrate to the identity matrix.

    Exact (to solver residual) in periodic mode because the stencil
    preserves constants; in dirichlet mode the record is informational and
    reports the boundary mass deficit, which is nonnegative for scalar
    systems by the maximum principle.
    """
    R = _row_sums(spec, mesh, s, t)
    N, rows = len(R), R if mesh.periodic else R[:, mesh.interior_mask]
    eye_dev = float(np.max(np.abs(rows - np.eye(N)[:, None, :])))
    if mesh.periodic:
        status = "pass" if eye_dev <= tolerance else "fail"
        fitted = {"max_row_deviation": eye_dev}
    else:
        deficit = float(np.max(1.0 - rows[range(N), :, range(N)]))
        status = "informational"
        fitted = {"max_row_deviation": eye_dev, "boundary_deficit": deficit}
    return CheckRecord("normalization", "mass-normalization", status, tolerance,
                       fitted=fitted, samples={"s": s, "t": t})


def check_causality(spec: OperatorSpec, mesh: Mesh, Y, rho_list, T: float) -> CheckRecord:
    """Zero extension: columns vanish identically before their source window.

    The columns of all radii march from step 0 as one block, each with its
    own source window, and each column's slices up to its first source slab
    must all be exactly zero.
    """
    rhos = _rho_ladder(rho_list)
    firsts = [mesh.cylinder(Y, rho, "minus")[0].start for rho in rhos]
    _, early = _green_block(spec, mesh, [(Y, rho) for rho in rhos], [1], T, "forward",
                            _Keep(range(max(firsts) + 1)))
    worst = max(float(np.max(np.abs(col[0, :first + 1]))) for col, first in zip(early, firsts))
    status = "pass" if worst == 0.0 else "fail"
    return CheckRecord("causality", "zero-extension", status, 0.0,
                       fitted={"max_early_value": worst},
                       samples={"rhos": [float(r) for r in rho_list]})


def check_adjoint(spec: OperatorSpec, mesh: Mesh, a, b, s: float, t: float,
                  tolerance: float = 1e-12) -> CheckRecord:
    """<P(t, s) a, b> = <a, P(t, s)^T b>, from the forward march of a from s and
    the adjoint march of b from t, each keeping its last slice, relative to the
    larger side."""
    i0, i1 = mesh.time_index(s), mesh.time_index(t)
    fa = _solve(spec, mesh, a, None, s, t, "forward", _Keep([i1]))[0]
    bb = _solve(spec, mesh, b, None, s, t, "backward", _Keep([i0]))[0]
    lhs, rhs = float(np.sum(fa * b)), float(np.sum(a * bb))
    resid = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return CheckRecord("adjoint", "forward-backward-adjointness",
                       "pass" if resid <= tolerance else "fail", tolerance,
                       fitted={"pairing_residual": resid}, samples={"t_step": i1})


def check_oracle(spec: OperatorSpec, mesh: Mesh, g, s: float, t: float,
                 tolerance: float = 1e-9) -> CheckRecord:
    """The marched solution from data g equals the space-time oracle's, sup-relative,
    over every slice from s to t."""
    marched = _solve(spec, mesh, g, None, s, t, "forward")
    dense = dense_spacetime_oracle(spec, mesh, g, None, s, t)
    num = float(np.max(np.abs(marched - dense.values)))
    den = float(np.max(np.abs(dense.values)))
    resid = num / den if den > 0 else 0.0
    return CheckRecord("oracle", "spacetime-oracle-equivalence",
                       "pass" if resid <= tolerance else "fail", tolerance,
                       fitted={"max_rel_diff": resid}, samples={"t_step": mesh.time_index(t)})


# ----------------------------------------------------------------------
# kernel comparisons and decay fits
# ----------------------------------------------------------------------


def heat_kernel_check(spec: OperatorSpec, mesh: Mesh, Y, t_probe: float, rho_list,
                      tolerance: float = 0.02, radius_factor: float = 3.0) -> CheckRecord:
    """Extrapolated column vs the periodized Gaussian kernel, sup-relative.

    Only meaningful for the identity-coefficient preset on a periodic box;
    the comparison window is the parabolic ball |x - y| <= radius_factor
    * sqrt(t - s) in the torus metric.  The columns of every radius march as
    one block and keep the probe slice; a ladder of radii is combined there
    with the weights of the rho -> 0 limit (``green._rho_weights``), one
    radius read as it is.
    """
    if spec.coeffs.N != 1 or not spec.coeffs.name.startswith("heat"):
        raise ConfigError("heat kernel check needs the identity-coefficient preset")
    if not mesh.periodic:
        raise ConfigError("heat kernel check runs on the periodic box")
    s = float(Y[0])
    y = np.atleast_1d(np.asarray(Y[1], dtype=float))
    rho_list = [float(r) for r in rho_list]
    rhos = rho_list if len(rho_list) == 1 else _rho_ladder(rho_list)
    it = mesh.time_index(t_probe)
    _, block = _green_block(spec, mesh, [(Y, float(r)) for r in rhos], [1], t_probe, "forward",
                            _Keep([it]))
    slices = block[:, 0, 0, 0]  # each radius's probe slice, component 1
    u = slices[0] if len(rhos) == 1 else sum(w * v for w, v in zip(_rho_weights(rhos), slices))
    dt = float(mesh.times[it] - s)
    gaps = mesh.wrap_gaps(mesh.centers - y[None, :])
    dist = np.linalg.norm(gaps, axis=1)
    ref = wrapped_heat_kernel(mesh.n, dt, gaps, mesh.domain.lengths)
    mask = dist <= radius_factor * math.sqrt(dt)
    rel = np.abs(u[mask] - ref[mask]) / ref[mask]
    err = float(np.max(rel))
    status = "pass" if err <= tolerance else "fail"
    return CheckRecord("heat-kernel", "gaussian-kernel-oracle", status, tolerance,
                       fitted={"sup_rel_error": err, "dt": dt},
                       samples={"cells": int(mask.sum()), "rhos": [float(r) for r in rho_list]})


def pointwise_ray_samples(spec: OperatorSpec, mesh: Mesh, Y, distances, rho: float,
                          axis: int = 0):
    """|Gamma^rho|_op along the space-time ray |x - y| = sqrt(t - s).

    Returns (actual parabolic distances, operator norms); probe times and
    positions snap to the grid, and the recorded distance is the snapped
    one.  The N columns march as one block up to the last probe's step,
    keeping the probe cells of the probe slices; probes that snap to one
    step share its slice.
    """
    s = float(Y[0])
    y = np.atleast_1d(np.asarray(Y[1], dtype=float))
    distances = sorted(float(d) for d in distances)
    probes = []  # (time index, point) of each distance
    for d in distances:
        shift = np.zeros(mesh.n)
        shift[axis] = round(d / mesh.h[axis]) * mesh.h[axis]
        probes.append((mesh.time_index(s + round(d * d / mesh.tau) * mesh.tau), y + shift))
    slices = sorted({it for it, _ in probes})
    cells = _sorted_unique(np.array([mesh.cell_index(x) for _, x in probes]))
    N = spec.coeffs.N
    _, block = _green_block(spec, mesh, [(Y, rho)], range(1, N + 1), float(mesh.times[slices[-1]]),
                            "forward", _Keep.on_cells(mesh, N, slices, cells))
    out_d, out_g = [], []
    for it, x in probes:
        t = float(mesh.times[it])
        d_act = mesh.pdist((t, x), (s, y))
        if d_act < 3.0 * rho * (1.0 - 1e-12):
            raise ConfigError(f"probe at distance {d_act} too close to the pole (3*rho)")
        # [l, k]: component l of column k at the probe
        at = block[0, :, slices.index(it), :, np.searchsorted(cells, mesh.cell_index(x))]
        out_d.append(d_act)
        out_g.append(float(operator_norms(at.T[None])[0]))
    return np.asarray(out_d), np.asarray(out_g)


def fit_pointwise_decay(samples_d, samples_g, n: int, margin: float = 0.15) -> CheckRecord:
    """Fit the on-diagonal decay |Gamma| ~ |X - Y|_p^{-n} from ray samples."""
    d = np.asarray(samples_d, dtype=float)
    if d.max() / d.min() < 10.0 * (1 - 1e-9):
        raise ConfigError("ray probes must span at least one decade")
    fit = loglog_fit(d, samples_g)
    status = "pass" if fit.exponent <= -n + margin else "fail"
    return CheckRecord("pointwise-decay", "on-diagonal-decay", status, margin,
                       fitted={"exponent": fit.exponent, "r2": fit.r2,
                               "constant": fit.constant},
                       samples={"distances": [float(v) for v in d]})


def gaussian_samples(spec: OperatorSpec, mesh: Mesh, Y, times, rho: float):
    """(dt, |x-y|, |Gamma^rho|_op) samples for the Gaussian bound fit.

    Samples beyond 0.4 times the smallest box side, or with magnitude below
    1e-10 of the slice peak, are excluded (torus wrap-around and roundoff
    would otherwise pollute the far tail).  The N columns march as one
    block that keeps the slices at ``times``.
    """
    s = float(Y[0])
    y = np.atleast_1d(np.asarray(Y[1], dtype=float))
    N = spec.coeffs.N
    slices = sorted({mesh.time_index(t) for t in times})
    _, block = _green_block(spec, mesh, [(Y, rho)], range(1, N + 1), max(times), "forward",
                            _Keep(slices))
    dist = np.linalg.norm(mesh.wrap_gaps(mesh.centers - y[None, :]), axis=1)
    keep_dist = dist <= 0.4 * float(np.min(mesh.domain.lengths))
    out = []
    for t in times:
        it = mesh.time_index(t)
        dt = float(mesh.times[it]) - s
        if dt <= 0:
            raise ConfigError("sample times must follow the pole")
        blocks = np.empty((mesh.ncells, N, N))
        for k in range(N):
            blocks[:, :, k] = block[0, k, slices.index(it)].T
        norms = operator_norms(blocks)
        floor = 1e-10 * float(norms.max())
        keep = keep_dist & (norms > floor)
        for dd, g in zip(dist[keep], norms[keep]):
            out.append((dt, float(dd), float(g)))
    return out


def fit_gaussian(samples, lam: float, Lam: float, n: int, c_max: float = 10.0) -> CheckRecord:
    """Largest kappa for which |Gamma| <= C (t-s)^{-n/2} exp(-kappa xi^2), C <= c_max.

    With xi^2 = |x-y|^2 / (t-s) and base = |Gamma| (t-s)^{n/2}, a sample
    allows every kappa up to ln(c_max / base) / xi^2, so the fit is the
    least of these over the samples with xi^2 > 0, in closed form, and at
    most 64.  It is 0 when a sample with xi^2 = 0 exceeds c_max or the least
    is negative; a sample with |Gamma| = 0 never binds.  Passes when the fit
    is at least lam / (8 Lam^2), the conservative theoretical exponent.
    """
    if not samples:
        raise ConfigError("no gaussian samples supplied")
    dt = np.array([s[0] for s in samples])
    dist = np.array([s[1] for s in samples])
    g = np.array([s[2] for s in samples])
    xi2 = dist ** 2 / dt
    base = g * dt ** (n / 2.0)
    binds = (xi2 > 0) & (base > 0)
    rates = np.log(c_max / base[binds]) / xi2[binds]
    kappa_fit = 0.0 if np.any(base[xi2 == 0] > c_max) else max(float(rates.min(initial=64.0)), 0.0)
    kappa_target = lam / (8.0 * Lam ** 2)
    status = "pass" if kappa_fit >= kappa_target else "fail"
    return CheckRecord("gaussian", "gaussian-upper-bound", status, c_max,
                       fitted={"kappa_fit": kappa_fit, "kappa_target": kappa_target,
                               "C_at_target": float(np.max(base * np.exp(kappa_target * xi2)))},
                       samples={"count": len(samples)})


# ----------------------------------------------------------------------
# off-diagonal and weighted growth bounds
# ----------------------------------------------------------------------


GAP_BLOCK = 4096  # coordinate gaps (32 KiB) per block of the E-F distance


def check_gaffney(spec: OperatorSpec, mesh: Mesh, E_mask, F_mask, g, s: float, t: float,
                  slack: float = 1.05) -> CheckRecord:
    """L2 mass in E from data in F never beats exp(-c dist^2 / (t-s)), c = lam/(2 Lam^2).

    The datum marches from s to t and keeps only its slice at t.
    """
    E_mask = np.asarray(E_mask, dtype=bool)
    F_mask = np.asarray(F_mask, dtype=bool)
    g = np.array(g, dtype=float)
    g[:, ~F_mask] = 0.0
    gE = mesh.centers[E_mask]
    gF = mesh.centers[F_mask]
    if len(gE) == 0 or len(gF) == 0:
        raise ConfigError("E and F must both contain cells")
    # blocks of E cells: the |E| x |F| gap array would dwarf the rest of the check, and
    # each block's stays well under glibc's 128 KiB mmap threshold
    block = max(1, GAP_BLOCK // (len(gF) * mesh.n))
    d = min(float(np.min(np.linalg.norm(mesh.wrap_gaps(gE[i:i + block, None] - gF), axis=2)))
            for i in range(0, len(gE), block))
    u_t = _solve(spec, mesh, g, None, s, t, "forward", _Keep([mesh.time_index(t)]))[0]
    num = mesh.volume * float(np.sum(u_t[:, E_mask] ** 2))
    den = mesh.volume * float(np.sum(g[:, F_mask] ** 2))
    ratio = num / den
    c = spec.coeffs.lam / (2.0 * spec.coeffs.Lam ** 2)
    bound = math.exp(-c * d * d / (t - s))
    status = "pass" if ratio <= slack * bound else "fail"
    return CheckRecord("gaffney", "offdiagonal-l2-decay", status, slack,
                       fitted={"ratio": ratio, "bound": bound, "dist": d, "c": c},
                       samples={"t-s": t - s})


def davies_growth(spec: OperatorSpec, mesh: Mesh, psi, gamma: float, f, s: float, t: float,
                  slack: float = 1.05) -> CheckRecord:
    """Exponentially weighted L2 growth against exp(2 nu gamma^2 (t-s)), nu = Lam^2/lam.

    psi must be grid-Lipschitz with face slopes at most gamma; gamma = 0
    reduces to plain monotone L2 decay and is enforced with zero slack.  The
    weighted datum marches from s to t and keeps its slices at s and t.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (mesh.ncells,):
        raise ConfigError("psi must be a flat cell function")
    for ax in range(mesh.n):
        slope = np.abs(mesh.face_difference(psi, ax))
        if float(slope.max(initial=0.0)) > gamma * (1 + 1e-9) + 1e-15:
            raise ConfigError("psi violates the declared Lipschitz constant on a face")
    f = np.array(f, dtype=float)
    u0 = project_slice(mesh, f * np.exp(-psi)[None, :])
    u_s, u_t = _solve(spec, mesh, u0, None, s, t, "forward",
                      _Keep([mesh.time_index(s), mesh.time_index(t)]))
    w = np.exp(2.0 * psi)[None, :]
    I_s = mesh.volume * float(np.sum(w * u_s ** 2))
    I_t = mesh.volume * float(np.sum(w * u_t ** 2))
    nu = spec.coeffs.Lam ** 2 / spec.coeffs.lam
    if gamma == 0.0:
        bound = 1.0
        ok = I_t <= I_s * (1 + 1e-12)
    else:
        bound = math.exp(2.0 * nu * gamma * gamma * (t - s))
        ok = I_t <= slack * bound * I_s
    return CheckRecord("davies", "weighted-l2-growth", "pass" if ok else "fail", slack,
                       fitted={"ratio": I_t / I_s if I_s > 0 else 0.0, "bound": bound,
                               "nu": nu, "gamma": gamma},
                       samples={"t-s": t - s})


# ----------------------------------------------------------------------
# level-set measures and interior regularity fits
# ----------------------------------------------------------------------


def _level_measure(sorted_values: np.ndarray, weight: float, thresholds) -> np.ndarray:
    counts = len(sorted_values) - np.searchsorted(sorted_values, np.asarray(thresholds),
                                                  side="right")
    return counts * weight


def _cylinder_measure(r: float, n: int) -> float:
    """|Q_r| = omega_n r^n * 2 r^2, with the unit n-ball's volume omega_n from
    omega_0 = 1, omega_1 = 2 and omega_n = (2 pi / n) omega_{n-2}, so omega_2 = pi
    exactly; omega_n is multiplied by r n times."""
    ball = 2.0 if n % 2 else 1.0
    for k in range(2 + n % 2, n + 1, 2):
        ball *= 2.0 * math.pi / k
    for _ in range(n):
        ball *= r
    return 2.0 * r * r * ball


def weak_lp_levels(mesh: Mesh, pole, rho: float, values: np.ndarray, horizon: float,
                   use_gradient: bool = False, margin: float = 0.2) -> CheckRecord:
    """Superlevel-set measure of a column (or its gradient) vs the threshold.

    ``values`` is the column of radius ``rho`` at ``pole`` over its whole
    window, up to the time ``horizon``, shaped (slices, N, ncells), as
    ``green._green_block`` keeps it by default.  Measures
    |{|Gamma^rho| > tau}| with the cell-counted space-time measure and fits
    the log-log slope; the target exponents are -(n+2)/n for values and
    -(n+2)/(n+1) for gradients.  The thresholds are one decade placed
    measure-matched to the resolvable window: the top threshold is the level
    whose set fills a parabolic cylinder of radius 3 rho (above the
    mollifier scale), and the ladder must stay inside the box and the time
    horizon.
    """
    n = mesh.n
    if use_gradient:
        samples = np.concatenate([np.linalg.norm(mesh.face_difference(values, ax),
                                                 axis=1).ravel() for ax in range(n)])
        target = -(n + 2.0) / (n + 1.0)
        name, anchor = "weak-levels-gradient", "gradient-level-measure"
    else:
        samples = np.linalg.norm(values, axis=1).ravel()
        target = -(n + 2.0) / n
        name, anchor = "weak-levels-value", "value-level-measure"
    if float(samples.max()) <= 0:
        raise ConfigError("column is identically zero")
    samples = np.sort(samples)
    weight = mesh.volume * mesh.tau
    window = float(mesh.times[mesh.time_index(horizon)]) - float(pole[0])
    r_max = min(float(np.min(mesh.domain.lengths)) / 4.0, math.sqrt(max(window, 0.0)))
    k = int(round(_cylinder_measure(3.0 * rho, n) / weight))
    if not 1 <= k < len(samples):
        raise ConfigError("window too small to resolve the top level set")
    thresholds = float(samples[-k]) * 10.0 ** np.linspace(-1.0, 0.0, 9)
    meas = _level_measure(samples, weight, thresholds)
    if np.any(meas == 0):
        raise ConfigError("thresholds exceed the sampled range")
    if float(meas.max()) > _cylinder_measure(r_max, n):
        raise ConfigError("lowest level set leaves the resolvable window; "
                          "enlarge the box or the time horizon")
    fit = loglog_fit(thresholds, meas)
    status = "pass" if fit.exponent <= target + margin else "fail"
    return CheckRecord(name, anchor, status, margin,
                       fitted={"slope": fit.exponent, "target": target, "r2": fit.r2,
                               "rho": rho},
                       samples={"thresholds": [float(v) for v in thresholds],
                                "measures": [float(v) for v in meas]})


def _face_distances(mesh: Mesh, ax: int, X0) -> np.ndarray:
    """Distances from X0's point to the midpoints of the faces normal to ax."""
    xc = np.atleast_1d(np.asarray(X0[1], dtype=float))
    pts, _, _ = mesh.face_positions(ax)
    return np.linalg.norm(mesh.wrap_gaps(pts - xc[None, :]), axis=1)


def _face_cells(mesh: Mesh, X0, radius: float) -> np.ndarray:
    """The cells on either side of the faces inside the ball at X0, increasing."""
    sides = []
    for ax in range(mesh.n):
        _, left, right = mesh.face_positions(ax)
        inside = _face_distances(mesh, ax, X0) < radius
        sides += [left[inside], right[inside]]
    return _sorted_unique(np.concatenate(sides))


ENERGY_CHUNK = 16  # slices per partial sum of the cylinder energies


def _cylinder_energies(mesh: Mesh, X0, ladder, solutions, cells=None):
    """Dirichlet energies over the discrete backward cylinders at X0, one per radius.

    ``solutions`` yields, one solution at a time, the march past the slices
    of the largest cylinder as ``solver._stream`` yields it: (time index,
    rows) pairs, where rows holds the N components at the flat cells
    ``cells`` (None for all), flat and component-major.  The cylinder of
    radius r reads the slices ``Mesh.cylinder_slices(X0, r, "minus")``
    names, which end at the pole, and counts the faces whose midpoints lie
    inside its ball.  Yields the energies of ``ladder``'s radii for each
    solution, as an array.

    The slices are gathered in chunks of ``ENERGY_CHUNK``, counted from the
    largest cylinder's first slice (the last chunk may hold fewer), cells
    first, into buffers allocated once and reused across solutions, so the
    memory held does not grow with the number of slices.  Each chunk is
    differenced once per axis, as ``Mesh.face_difference`` does, over the
    largest ball's faces; a smaller ball's faces are a subset, gathered from
    the squares.  The energy of
    radius r adds, chunk by chunk and within a chunk axis by axis, the
    ``np.sum`` of the squares of ``face_difference`` over r's faces and r's
    slices in the chunk, times the cell volume and tau.  The squares are
    held faces-major, (faces, slices, N), the memory order of
    ``face_difference``'s result, so that each sum adds in the order, and to
    the bits, of that reference.  The grouping differs from one ``np.sum``
    over the whole cylinder only at roundoff.
    """
    outer, _ = mesh.cylinder_slices(X0, max(ladder), "minus")
    starts = [mesh.cylinder_slices(X0, r, "minus")[0].start for r in ladder]
    K = mesh.ncells if cells is None else len(cells)
    axes = []  # per axis: the largest ball's faces and each radius's subset of them
    for ax in range(mesh.n):
        _, left, right = mesh.face_positions(ax)
        dist = _face_distances(mesh, ax, X0)
        inside = dist < max(ladder)
        left, right = left[inside], right[inside]
        if cells is not None:
            left, right = (_positions_in(np.asarray(cells), side) for side in (left, right))
        axes.append((left, right, [np.flatnonzero(dist[inside] < r) for r in ladder]))
    chunk = sq = spare = None

    def wrong(detail):
        return ConfigError(f"cylinder of radius {max(ladder)} needs the slices "
                           f"{outer.start}..{outer.stop - 1} in order; {detail}")

    def buffer(buf, shape):
        return buf[:math.prod(shape)].reshape(shape)

    def add(E, m0, c):
        """Adds the chunk of c slices that starts at the time index m0."""
        N = chunk.shape[2]
        for ax, (left, right, subsets) in enumerate(axes):
            shape = (len(right), c, N)
            # the indices are in range; mode "clip" spares the copy of out that "raise" makes
            d = np.take(chunk[:, :c], right, axis=0, out=buffer(sq, shape), mode="clip")
            d -= np.take(chunk[:, :c], left, axis=0, out=buffer(spare, shape), mode="clip")
            d /= mesh.h[ax]
            d *= d
            for i, (start, sub) in enumerate(zip(starts, subsets)):
                lo = max(start - m0, 0)  # the chunk's first slice in radius i's cylinder
                if lo >= c:
                    continue
                part = d
                if lo > 0 or len(sub) < len(right):
                    part = np.take(d[:, lo:], sub, axis=0, mode="clip",
                                   out=buffer(spare, (len(sub), c - lo, N)))
                E[i] += float(np.sum(part)) * mesh.volume * mesh.tau

    for march in solutions:
        E = np.zeros(len(ladder))
        held = 0
        for m, rows in march:
            if held == len(outer) or m != outer.start + held:
                raise wrong(f"slice {m} came after {held} of them")
            if chunk is None:
                chunk = np.empty((K, ENERGY_CHUNK, rows.size // K))
                sq, spare = (np.empty(ENERGY_CHUNK * chunk.shape[2]
                                      * max(len(right) for _, right, _ in axes))
                             for _ in range(2))
            j = held % ENERGY_CHUNK
            chunk[:, j] = rows.reshape(-1, K).T
            held += 1
            if j == ENERGY_CHUNK - 1 or held == len(outer):
                add(E, m - j, j + 1)
        if held < len(outer):
            raise wrong(f"the march held {held}")
        yield E


def ph_decay_fit(spec: OperatorSpec, mesh: Mesh, X0, ladder, n_solutions: int = 10,
                 seed: int = 0, mu_min: float = 0.9) -> CheckRecord:
    """Interior energy-decay exponent across a cylinder ladder.

    Random-data homogeneous solves are restricted to nested backward
    cylinders at X0 (solution i starts from the i-th (N, ncells) segment of
    the ``seeded_uniform`` stream of ``seed``, drawn when its march starts)
    and the slope of log energy vs log radius is fitted;
    the worst exponent over the sample set is reported as n + 2*mu0.  Each
    solution's march is folded into the energies as it passes the outer
    cylinder, ``ENERGY_CHUNK`` slices at a time, so the check holds neither
    a trajectory nor a cylinder.
    Pass requires mu0 >= ``mu_min`` for x-independent coefficients;
    otherwise the record is informational (no checkable constant).  Every
    radius must lie below the field's ``R_c``, where the estimate is assumed.
    """
    ladder = sorted(float(r) for r in ladder)
    if len(ladder) < 3:
        raise ConfigError("cylinder ladder needs at least three radii")
    tc = float(X0[0])
    R = ladder[-1]
    if not R < spec.coeffs.R_c:
        raise ConfigError(f"the ladder's largest radius {R:g} must be below R_c = "
                          f"{spec.coeffs.R_c:g}, where the interior estimate holds")
    slices, _ = mesh.cylinder_slices(X0, R, "minus")
    cells = _face_cells(mesh, X0, R)
    keep = _Keep.on_cells(mesh, spec.coeffs.N, slices, cells)
    scheme = ThetaScheme(mesh, spec)
    n = mesh.n
    shape = (scheme.N, mesh.ncells)

    def datum(i: int) -> np.ndarray:  # the i-th segment of the seed's stream
        return project_slice(mesh, seeded_uniform(seed, shape, skip=i * math.prod(shape))).ravel()

    solutions = (_stream(scheme, 0, mesh.time_index(tc), datum(i), lambda m: None, keep)
                 for i in range(n_solutions))
    slopes, consts = [], []
    for E in _cylinder_energies(mesh, X0, ladder, solutions, cells):
        if np.any(E <= 0):
            continue
        fit = loglog_fit(np.asarray(ladder), E)
        slopes.append(fit.exponent)
        consts.append(max((E[i] / E[j]) * (ladder[j] / ladder[i]) ** fit.exponent
                          for i in range(len(ladder)) for j in range(i + 1, len(ladder))))
    if not slopes:
        raise ConfigError("all sampled solutions had zero cylinder energy")
    slope_worst = float(min(slopes))
    mu0 = (slope_worst - n) / 2.0
    if spec.coeffs.x_dependent:
        status = "informational"
    else:
        status = "pass" if mu0 >= mu_min else "fail"
    return CheckRecord("interior-decay", "interior-energy-decay", status, mu_min,
                       fitted={"mu0": mu0, "exponent": slope_worst,
                               "C0": float(max(consts))},
                       samples={"ladder": ladder, "solutions": len(slopes)})


def check_local_boundedness(spec: OperatorSpec, mesh: Mesh, mesh_fine: Mesh, X0,
                            R: float, seed: int = 0,
                            stability: float = 0.2) -> CheckRecord:
    """Sup over the quarter cylinder vs the mean-square over the full one.

    The implied constant is not explicit in the theory, so the record
    tracks the measured ratio and passes when it is finite and stable
    under one mesh refinement.  The data is 2 plus three cosine modes whose
    periods, amplitudes and phases come from ``seeded_uniform(seed, (3, n + 2))``.
    On each mesh the march keeps the slices of the outer cylinder at its
    ball cells.
    """
    n = mesh.n
    u = seeded_uniform(seed, (3, n + 2))
    modes = 1 + np.floor(1.5 * (u[:, :n] + 1))  # 1, 2 or 3 periods per axis
    amps = u[:, n]
    phases = math.pi * (u[:, n + 1] + 1)

    def smooth_data(m: Mesh) -> np.ndarray:
        vals = np.zeros(m.ncells)
        for a, md, ph in zip(amps, modes, phases):
            arg = np.zeros(m.ncells)
            for ax in range(n):
                arg += 2 * math.pi * md[ax] * m.centers[:, ax] / m.domain.lengths[ax]
            vals += a * np.cos(arg + ph)
        return np.tile(vals, (spec.coeffs.N, 1)) + 2.0

    def ratio_on(m: Mesh) -> float:
        slices, ball = m.cylinder_slices(X0, R, "minus")
        kept = _solve(spec, m, smooth_data(m), None, float(m.t0), float(X0[0]), "forward",
                      _Keep.on_cells(m, spec.coeffs.N, slices, ball))

        def cyl(rad):
            # a backward cylinder's slices end at the pole; the fancy index gives
            # the memory order, and so the reduction order, of the whole-field cut
            rad_slices, rad_ball = m.cylinder_slices(X0, rad, "minus")
            return kept[len(kept) - len(rad_slices):][:, :, np.searchsorted(ball, rad_ball)]

        inner = cyl(R / 4.0)
        outer = cyl(R)
        sup_inner = float(np.max(np.linalg.norm(inner, axis=1)))
        ms_outer = math.sqrt(float(np.mean(np.sum(outer ** 2, axis=1))))
        return sup_inner / ms_outer

    r1 = ratio_on(mesh)
    r2 = ratio_on(mesh_fine)
    ok = np.isfinite(r1) and np.isfinite(r2) and abs(r2 - r1) <= stability * abs(r1)
    return CheckRecord("local-boundedness", "local-sup-bound",
                       "pass" if ok else "fail", stability,
                       fitted={"ratio": r1, "ratio_refined": r2},
                       samples={"R": R})


# ----------------------------------------------------------------------
# initial data checks
# ----------------------------------------------------------------------


def initial_trace_test(spec: OperatorSpec, mesh: Mesh, g, x0, s: float, t_list,
                       tolerance: float = 0.02) -> CheckRecord:
    """Pointwise recovery of continuous initial data as t decreases to s.

    The datum marches from s and keeps only its slices at the probe times.
    """
    t_list = sorted(float(t) for t in t_list)
    if t_list[0] <= s + mesh.tau * (1 - 1e-9):
        raise ConfigError("need t - s >= tau for every probe time")
    g = np.array(g, dtype=float)
    cell = mesh.cell_index(x0)
    gx0 = g[:, cell].copy()
    probes = sorted({mesh.time_index(t) for t in t_list})
    vals = _solve(spec, mesh, g, None, s, t_list[-1], "forward", _Keep(probes))
    errs = []
    for t in t_list:
        u = vals[probes.index(mesh.time_index(t))]
        errs.append(float(np.linalg.norm(u[:, cell] - gx0)))
    # errs are ordered by increasing t; recovery must improve toward s
    monotone = all(errs[i] <= errs[i + 1] + 1e-12 for i in range(len(errs) - 1))
    final = errs[0]
    thresh = tolerance * (1.0 + float(np.linalg.norm(gx0)))
    ok = monotone and final <= thresh
    return CheckRecord("initial-trace", "initial-trace-recovery",
                       "pass" if ok else "fail", tolerance,
                       fitted={"final_error": final, "threshold": thresh,
                               "monotone": monotone},
                       samples={"errors": errs, "t_list": t_list})


def check_bounded_initial(spec: OperatorSpec, mesh: Mesh, g, s: float, t: float,
                          tolerance: float = 1e-12) -> CheckRecord:
    """Sup bound by the data sup; exact (max principle) for scalar systems.

    A datum that is zero at every cell bounds nothing, so it is a ConfigError.
    The datum marches from s to t and keeps only its slice at t.
    """
    g = np.array(g, dtype=float)
    gmax = float(np.max(np.abs(g)))
    if not gmax > 0:
        raise ConfigError("bounded-initial: the datum is zero at every cell; the segment of "
                          "halfwidth around center_frac must hold a cell center")
    u_t = _solve(spec, mesh, g, None, s, t, "forward", _Keep([mesh.time_index(t)]))[0]
    ratio = float(np.max(np.abs(u_t))) / gmax
    if spec.coeffs.N == 1:
        status = "pass" if ratio <= 1.0 + tolerance else "fail"
    else:
        status = "informational"
    return CheckRecord("bounded-initial", "sup-bound-by-data", status, tolerance,
                       fitted={"ratio": ratio},
                       samples={"t-s": t - s})
