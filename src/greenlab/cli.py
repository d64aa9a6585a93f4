"""Scenario-driven command line front end.

``greenlab run scenario.json`` builds the configured system, executes the
requested checks, and writes a structured report, per-check CSV data, and
a human-readable summary.  ``greenlab sweep`` repeats a scenario's metric
check along one refinement axis and fits the observed order.  Scenario
files are strict JSON: unknown keys anywhere are rejected.

Exit codes: 0 all gating checks pass, 1 check failure, 2 invalid scenario
or parameters, 3 solver failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import verify as V
from .errors import ConfigError, SolverError
from .green import _green_block
from .io import report_to_json, write_samples_csv
from .mesh import Mesh
from .problem import PRESETS, Domain, OperatorSpec, load_table, make_preset, seeded_uniform
from .solver import _preload_linalg


@dataclass
class Context:
    name: str
    spec: OperatorSpec
    mesh: Mesh
    seed: int


def _cell_at_frac(mesh: Mesh, fracs, per_axis: float):
    """Center of the cell at the given per-axis box fractions.

    On each axis the cell is ``floor(frac * cells)``, wrapped: a fraction on a
    cell edge takes the right-hand cell, the edge convention of the
    checkerboard preset, whatever the parity of the edge.  ``fracs`` None
    means ``per_axis`` on every axis, in any dimension; an explicit fraction
    list must have one entry per axis.
    """
    if fracs is None:
        fracs = [per_axis] * mesh.n
    fracs = np.atleast_1d(np.asarray(fracs, dtype=float))
    if len(fracs) != mesh.n:
        raise ConfigError("position fraction dimension mismatch")
    idx = [math.floor(f * m) % m for f, m in zip(fracs, mesh.cells)]
    flat = int(np.ravel_multi_index(idx, mesh.cells))
    return mesh.centers[flat]


# A scenario value's JSON type is a kind: float is any finite number, int an
# integer, list[X] a non-empty list of X values and a union any of its arms.
# A check's or a preset's kinds are its builder's annotations; ``_check_section``
# holds every scenario value to its kind.
Frac = float | list[float]  # one box fraction for every axis, or one per axis

_JSON_NAMES = {float: ("a number", "numbers"), int: ("an integer", "integers"),
               bool: ("true or false", "booleans"), type(None): ("null", "nulls"),
               str: ("a string", "strings"), dict: ("an object", "objects")}


def _fits(value, kind) -> bool:
    """Whether a JSON value has the type of a builder annotation."""
    if get_origin(kind) is list:
        return isinstance(value, list) and all(_fits(v, get_args(kind)[0]) for v in value)
    if get_args(kind):
        return any(_fits(value, arm) for arm in get_args(kind))
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _describe(kind, many: bool = False) -> str:
    """A builder annotation's JSON type in words, plural when ``many``."""
    if get_origin(kind) is list:
        return ("lists of " if many else "a list of ") + _describe(get_args(kind)[0], True)
    if get_args(kind):
        return " or ".join(_describe(arm, many) for arm in get_args(kind))
    return _JSON_NAMES[kind][many]


def _positive(check: str, **values) -> None:
    """Reject a check parameter that is not above 0, naming the check and its key."""
    for key, value in values.items():
        if not value > 0:
            raise ConfigError(f"{check}: {key} must be positive, got {value}")


def _rho_from_cells(mesh: Mesh, k) -> float:
    return float(k) * float(np.max(mesh.h))


def _cylinder_steps(mesh: Mesh, r: float) -> int:
    """Whole time steps that cover r^2: ceil(r^2 / tau), robust to roundoff.

    Default poles sit this many steps into the window, and the duality
    windows reach this far past their poles.  Kept apart from
    ``Mesh.slab_count`` (a floor): the two differ when r^2 / tau is not an
    integer, and the default poles sit on this one.
    """
    return int(math.ceil(r ** 2 / mesh.tau * (1 - 1e-12)))


def _time(mesh: Mesh, step, default=None) -> float:
    """Mesh time at ``step``, or at ``default`` when the step is not given."""
    m = int(default if step is None else step)
    if not 0 <= m <= mesh.steps:
        raise ConfigError(f"step {m} is outside the mesh window 0..{mesh.steps}")
    return float(mesh.times[m])


def _numbers(value) -> list:
    """The floats in a JSON value, lists flattened: the values that can be non-finite."""
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [value] if isinstance(value, float) else []


def _check_section(cfg: dict, kinds: dict, required, where: str) -> None:
    """Hold one scenario section to its kinds, naming ``where`` and the key.

    Rejects an unknown key, a missing ``required`` key, a value that does not
    fit its kind, an empty list, a non-finite number and a seed outside
    [0, 2**64), which ``seeded_uniform`` takes as the 64-bit start of its stream.
    """
    for key in cfg:
        if key not in kinds:
            raise ConfigError(f"{where}{key} is not a known key (known: {', '.join(kinds)})")
    for key in required:
        if key not in cfg:
            raise ConfigError(f"{where}{key} is missing: it must be {_describe(kinds[key])}")
    for key, value in cfg.items():
        kind = kinds[key]
        if not _fits(value, kind) or value == []:
            raise ConfigError(f"{where}{key} must be {_describe(kind)}, got {json.dumps(value)}")
        if not all(map(math.isfinite, _numbers(value))):
            raise ConfigError(f"{where}{key} must be finite, got {json.dumps(value)}")
        if key == "seed" and value is not None and value < 0:
            kind = _describe(kind).replace("an integer", "a non-negative integer")
            raise ConfigError(f"{where}seed must be {kind}, got {value}")
        if key == "seed" and value is not None and value >= 2 ** 64:
            raise ConfigError(f"{where}seed must be below 2**64, got {value}")


def _signature(builder) -> tuple[dict, tuple]:
    """A builder's scenario keys: the kind of each keyword argument, and those without a default."""
    params = [p for p in inspect.signature(builder, eval_str=True).parameters.values()
              if p.name != "ctx"]
    return ({p.name: p.annotation for p in params},
            tuple(p.name for p in params if p.default is p.empty))


def _named(cfg: dict, table: dict, where: str):
    """The entry of ``table`` that a section's ``name`` key names."""
    name = cfg.get("name")
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"{where}name must be one of {', '.join(table)}, "
                          f"got {json.dumps(name)}")
    return table[name]


# the kinds of the top-level keys, the mesh, a table preset and the sweep section
_SCENARIO_KINDS = {"name": str, "preset": dict, "mesh": dict, "theta": float, "seed": int,
                   "checks": list[dict], "sweep": dict}
_MESH_KINDS = {"cells": list[int], "box": list[list[float]], "tau": float, "steps": int,
               "t0": float, "boundary": str}
_TABLE_KINDS = {"table": str, "lambda": float, "Lambda": float, "R_c": float}
_SWEEP_KINDS = {"check": str, "field": str}


def load_scenario(path) -> dict:
    try:
        with open(path) as fh:
            sc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    return _check_scenario(sc)


def _check_scenario(sc) -> dict:
    """Type every section of a scenario, so that ``build_context`` builds from good values."""
    if not isinstance(sc, dict):
        raise ConfigError(f"a scenario must be a JSON object, got {json.dumps(sc)}")
    _check_section(sc, _SCENARIO_KINDS, ("name", "preset", "mesh", "checks"), "")
    if sc.get("theta", 1) != 1:
        raise ConfigError("theta must be 1 (implicit Euler is the only time scheme), "
                          f"got {json.dumps(sc['theta'])}")
    _check_section(sc["mesh"], _MESH_KINDS, ("cells", "box", "tau", "steps"), "mesh.")
    _check_mesh(sc["mesh"])
    preset = sc["preset"]
    if "table" in preset:
        _check_section(preset, _TABLE_KINDS, ("table", "lambda", "Lambda"), "preset.")
    else:
        kinds, required = _signature(_named(preset, PRESETS, "preset."))
        _check_section(preset, {"name": str, **kinds}, ("name", *required), "preset.")
    for i, chk in enumerate(sc["checks"]):
        kinds, _ = _named(chk, CHECKS, f"checks[{i}].")  # every check parameter has a default
        _check_section(chk, {"name": str, **kinds}, ("name",), f"{chk['name']}: ")
    if "sweep" in sc:
        _check_section(sc["sweep"], _SWEEP_KINDS, tuple(_SWEEP_KINDS), "sweep.")
    return sc


def _check_mesh(mesh_cfg: dict) -> None:
    """Reject a box that is not one [lo, hi] pair per axis and a time grid that overflows."""
    if any(len(pair) != 2 for pair in mesh_cfg["box"]):
        raise ConfigError(f"mesh.box must hold one [lo, hi] pair per axis, "
                          f"got {json.dumps(mesh_cfg['box'])}")
    try:
        end = mesh_cfg.get("t0", 0.0) + mesh_cfg["tau"] * mesh_cfg["steps"]
    except OverflowError:  # a step count beyond the float range
        end = math.inf
    if not math.isfinite(end):
        raise ConfigError(f"mesh.tau must keep the last time t0 + tau*steps finite, "
                          f"got {json.dumps(mesh_cfg['tau'])}")


def build_context(sc: dict) -> Context:
    """Build the system of a scenario that ``load_scenario`` has typed."""
    preset = dict(sc["preset"])
    if "table" in preset:
        coeffs = load_table(preset["table"], float(preset["lambda"]), float(preset["Lambda"]),
                            preset.get("R_c", math.inf))
    else:
        coeffs = make_preset(preset.pop("name"), **preset)
    mesh_cfg = sc["mesh"]
    lo, hi = zip(*((float(a), float(b)) for a, b in mesh_cfg["box"]))
    domain = Domain(lo, hi, mesh_cfg.get("boundary", "periodic"))
    mesh = Mesh(domain, tuple(mesh_cfg["cells"]), float(mesh_cfg["tau"]),
                float(mesh_cfg.get("t0", 0.0)), mesh_cfg["steps"])
    spec = OperatorSpec(coeffs, domain)
    _preload_linalg(mesh, spec)
    return Context(sc["name"], spec, mesh, sc.get("seed", 0))


# ----------------------------------------------------------------------
# check builders: scenario params -> CheckRecord
# ----------------------------------------------------------------------


def _run_duality(ctx: Context, y_fracs: list[Frac | None] = (None,),
                 x_fracs: list[Frac | None] = (None,), rho_cells: list[float] = (4,),
                 sigma_cells: list[float] = (4,), s_step: int | None = None,
                 t_step: int | None = None, tolerance: float = 1e-10):
    mesh = ctx.mesh
    s_step = int(mesh.steps // 4 if s_step is None else s_step)
    t_step = int((3 * mesh.steps) // 4 if t_step is None else t_step)
    rhos = [_rho_from_cells(mesh, k) for k in rho_cells]
    sigmas = [_rho_from_cells(mesh, k) for k in sigma_cells]
    poles = [(_time(mesh, s_step), _cell_at_frac(mesh, f, 0.25)) for f in y_fracs]
    probes = [(_time(mesh, t_step), _cell_at_frac(mesh, f, 0.75)) for f in x_fracs]
    pairs = [(Y, X, rho, sigma) for Y in poles for X in probes
             for rho in rhos for sigma in sigmas]
    S_idx = s_step - _cylinder_steps(mesh, max(rhos)) - 1
    T_idx = t_step + _cylinder_steps(mesh, max(sigmas)) + 1
    if S_idx < 0 or T_idx > mesh.steps:
        raise ConfigError("duality windows leave the mesh time grid")
    return V.check_duality(ctx.spec, mesh, pairs, _time(mesh, T_idx), _time(mesh, S_idx),
                           tolerance=float(tolerance))


def _run_semigroup(ctx: Context, s_step: int = 0, r_step: int | None = None,
                   t_step: int | None = None, tolerance: float = 1e-12):
    mesh = ctx.mesh
    return V.check_semigroup(ctx.spec, mesh, _time(mesh, s_step),
                             _time(mesh, r_step, mesh.steps // 2),
                             _time(mesh, t_step, mesh.steps), tolerance=float(tolerance),
                             seed=ctx.seed)


def _run_normalization(ctx: Context, s_step: int = 0, t_step: int | None = None,
                       tolerance: float = 1e-12):
    mesh = ctx.mesh
    return V.check_normalization(ctx.spec, mesh, _time(mesh, s_step),
                                 _time(mesh, t_step, mesh.steps), tolerance=float(tolerance))


def _run_causality(ctx: Context, rho_cells: list[float] = (6, 4), s_step: int | None = None,
                   t_step: int | None = None, y_frac: Frac | None = None):
    mesh = ctx.mesh
    rhos = [_rho_from_cells(mesh, k) for k in rho_cells]
    Y = (_time(mesh, s_step, _cylinder_steps(mesh, max(rhos)) + 1),
         _cell_at_frac(mesh, y_frac, 0.5))
    return V.check_causality(ctx.spec, mesh, Y, rhos, _time(mesh, t_step, mesh.steps))


def _run_heat_kernel(ctx: Context, rho_cells: list[float] = (8, 6, 4),
                     s_step: int | None = None, dt: float = 0.05, y_frac: Frac | None = None,
                     tolerance: float = 0.02, radius_factor: float = 3.0):
    mesh = ctx.mesh
    _positive("heat-kernel", dt=dt, radius_factor=radius_factor)
    rhos = [_rho_from_cells(mesh, k) for k in rho_cells]
    s_step = int(_cylinder_steps(mesh, max(rhos)) if s_step is None else s_step)
    t_step = s_step + max(1, int(round(float(dt) / mesh.tau)))
    if t_step > mesh.steps:
        raise ConfigError("heat kernel probe time leaves the mesh window")
    Y = (_time(mesh, s_step), _cell_at_frac(mesh, y_frac, 0.5))
    return V.heat_kernel_check(ctx.spec, mesh, Y, _time(mesh, t_step), rhos,
                               tolerance=float(tolerance),
                               radius_factor=float(radius_factor))


def _segment_mask(mesh: Mesh, center_frac: float, halfwidth: float):
    center = mesh.domain.lo + float(center_frac) * mesh.domain.lengths
    return np.abs(mesh.wrap_gaps(mesh.centers - center[None, :])[:, 0]) < float(halfwidth)


def _run_gaffney(ctx: Context, F_frac: float = 0.2, E_frac: float = 0.8,
                 halfwidth: float = 0.05, s_step: int = 0, t_step: int | None = None,
                 slack: float = 1.05):
    mesh = ctx.mesh
    F = _segment_mask(mesh, F_frac, halfwidth)
    E = _segment_mask(mesh, E_frac, halfwidth)
    g = np.zeros((ctx.spec.coeffs.N, mesh.ncells))
    g[:, F] = 1.0
    return V.check_gaffney(ctx.spec, mesh, E, F, g, _time(mesh, s_step),
                           _time(mesh, t_step, mesh.steps), slack=float(slack))


def tent_profile(mesh: Mesh, gamma: float) -> np.ndarray:
    """Periodic-compatible tent with face slopes at most gamma."""
    x = mesh.centers[:, 0]
    lo = mesh.domain.lo[0]
    L = mesh.domain.lengths[0]
    return gamma * (L / 2.0 - np.abs(x - lo - L / 2.0))


def _run_davies(ctx: Context, gamma: float = 1.0, s_step: int = 0, t_step: int | None = None,
                slack: float = 1.05):
    mesh = ctx.mesh
    gamma = float(gamma)
    psi = tent_profile(mesh, gamma)
    f = np.ones((ctx.spec.coeffs.N, mesh.ncells))
    return V.davies_growth(ctx.spec, mesh, psi, gamma, f, _time(mesh, s_step),
                           _time(mesh, t_step, mesh.steps), slack=float(slack))


def _run_gaussian(ctx: Context, rho_cells: float = 4, s_step: int | None = None,
                  dt_steps: list[int] | None = None, y_frac: Frac | None = None,
                  c_max: float = 10.0):
    mesh = ctx.mesh
    rho = _rho_from_cells(mesh, rho_cells)
    s_step = int(_cylinder_steps(mesh, rho) if s_step is None else s_step)
    left = mesh.steps - s_step
    if dt_steps is None:
        dt_steps = [left // 3, 2 * left // 3, left]
    times = [_time(mesh, s_step + int(k)) for k in dt_steps]
    Y = (_time(mesh, s_step), _cell_at_frac(mesh, y_frac, 0.5))
    samples = V.gaussian_samples(ctx.spec, mesh, Y, times, rho)
    return V.fit_gaussian(samples, ctx.spec.coeffs.lam, ctx.spec.coeffs.Lam, mesh.n,
                          c_max=float(c_max))


def _run_pointwise_decay(ctx: Context, rho_cells: float = 2, s_step: int | None = None,
                         d_min_cells: float = 6, n_points: int = 8, decade: float = 1.0,
                         margin: float = 0.15, y_frac: Frac | None = None, axis: int = 0):
    mesh = ctx.mesh
    rho = _rho_from_cells(mesh, rho_cells)
    d_min = float(d_min_cells) * float(np.max(mesh.h))
    npts, decade = int(n_points), float(decade)
    if npts < 2:
        raise ConfigError(f"pointwise-decay: n_points must be at least 2, got {npts}")
    ds = [d_min * 10 ** (decade * k / (npts - 1)) for k in range(npts)]
    s_step = int(_cylinder_steps(mesh, rho) if s_step is None else s_step)
    Y = (_time(mesh, s_step), _cell_at_frac(mesh, y_frac, 0.1))
    # the ray probe at distance d sits round(d^2 / tau) steps past the pole
    need = s_step + round(max(ds) ** 2 / mesh.tau)
    if need > mesh.steps:
        raise ConfigError(f"pointwise-decay: the longest ray (d_min_cells={d_min_cells}, "
                          f"decade={decade:g}) needs step {need}, but the mesh has steps "
                          f"0..{mesh.steps}; lower d_min_cells or decade, or add steps")
    d_act, g = V.pointwise_ray_samples(ctx.spec, mesh, Y, ds, rho, axis=int(axis))
    return V.fit_pointwise_decay(d_act, g, mesh.n, margin=float(margin))


def _run_weak_levels(ctx: Context, rho_cells: float = 2, s_step: int | None = None,
                     t_step: int | None = None, y_frac: Frac | None = None,
                     gradient: bool = False, margin: float = 0.2):
    mesh = ctx.mesh
    rho = _rho_from_cells(mesh, rho_cells)
    Y = (_time(mesh, s_step, _cylinder_steps(mesh, rho)), _cell_at_frac(mesh, y_frac, 0.5))
    T = _time(mesh, t_step, mesh.steps)
    _, block = _green_block(ctx.spec, mesh, [(Y, rho)], [1], T, "forward")
    return V.weak_lp_levels(mesh, Y, rho, block[0, 0], T, use_gradient=bool(gradient),
                            margin=float(margin))


def _run_interior_decay(ctx: Context, ladder_cells: list[float] = (6, 8, 12, 16, 24, 32),
                        t_step: int | None = None, x_frac: Frac | None = None,
                        solutions: int = 10, seed: int | None = None, mu_min: float = 0.9):
    mesh = ctx.mesh
    _positive("interior-decay", solutions=solutions)
    hmax = float(np.max(mesh.h))
    ladder = [float(k) * hmax for k in ladder_cells]
    X0 = (_time(mesh, t_step, mesh.steps), _cell_at_frac(mesh, x_frac, 0.5))
    return V.ph_decay_fit(ctx.spec, mesh, X0, ladder, n_solutions=int(solutions),
                          seed=int(ctx.seed if seed is None else seed),
                          mu_min=float(mu_min))


def _bump_datum(ctx: Context, width: float, x0) -> np.ndarray:
    mesh = ctx.mesh
    gaps = mesh.wrap_gaps(mesh.centers - x0[None, :])
    prof = np.exp(-0.5 * (np.linalg.norm(gaps, axis=1) / width) ** 2)
    return np.tile(prof, (ctx.spec.coeffs.N, 1))


def _run_initial_trace(ctx: Context, width: float | None = None, x0_frac: Frac | None = None,
                       s_step: int = 0, t_steps: list[int] = (4, 8, 16, 32),
                       tolerance: float = 0.02):
    mesh = ctx.mesh
    width = 0.1 * float(np.min(mesh.domain.lengths)) if width is None else float(width)
    _positive("initial-trace", width=width)
    x0 = _cell_at_frac(mesh, x0_frac, 0.5)
    g = _bump_datum(ctx, width, x0)
    s_step = int(s_step)
    t_list = [_time(mesh, s_step + int(k)) for k in t_steps]
    return V.initial_trace_test(ctx.spec, mesh, g, x0, _time(mesh, s_step), t_list,
                                tolerance=float(tolerance))


def _run_bounded_initial(ctx: Context, center_frac: float = 0.3, halfwidth: float = 0.1,
                         s_step: int = 0, t_step: int | None = None):
    mesh = ctx.mesh
    g = np.zeros((ctx.spec.coeffs.N, mesh.ncells))
    g[:, _segment_mask(mesh, center_frac, halfwidth)] = 1.0
    return V.check_bounded_initial(ctx.spec, mesh, g, _time(mesh, s_step),
                                   _time(mesh, t_step, mesh.steps))


def _run_local_boundedness(ctx: Context, t_step: int | None = None,
                           x_frac: Frac | None = None, R: float | None = None,
                           seed: int | None = None, stability: float = 0.2):
    mesh = ctx.mesh
    fine = Mesh(mesh.domain, tuple(2 * c for c in mesh.cells), mesh.tau / 2.0,
                mesh.t0, 2 * mesh.steps)
    X0 = (_time(mesh, t_step, mesh.steps), _cell_at_frac(mesh, x_frac, 0.5))
    R = 8 * float(np.max(mesh.h)) if R is None else float(R)
    return V.check_local_boundedness(ctx.spec, mesh, fine, X0, R,
                                     seed=int(ctx.seed if seed is None else seed),
                                     stability=float(stability))


def _run_oracle(ctx: Context, t_step: int | None = None, seed: int | None = None,
                tolerance: float = 1e-9):
    mesh = ctx.mesh
    g = seeded_uniform(ctx.seed if seed is None else seed, (ctx.spec.coeffs.N, mesh.ncells))
    return V.check_oracle(ctx.spec, mesh, g, _time(mesh, 0),
                          _time(mesh, t_step, min(mesh.steps, 24)), tolerance=float(tolerance))


def _run_adjoint(ctx: Context, t_step: int | None = None, seed: int | None = None,
                 tolerance: float = 1e-12):
    mesh = ctx.mesh
    a, b = seeded_uniform(ctx.seed if seed is None else seed,
                          (2, ctx.spec.coeffs.N, mesh.ncells))
    return V.check_adjoint(ctx.spec, mesh, a, b, _time(mesh, 0),
                           _time(mesh, t_step, mesh.steps), tolerance=float(tolerance))


# Each check's parameters are the keyword arguments of its builder; the
# allowed scenario keys and their JSON types are read from the signature.
# Builders are looked up here at call time, so wrappers installed in this
# table take effect.
CHECKS = {name: (_signature(builder)[0], builder)
          for name, builder in {
              "duality": _run_duality,
              "semigroup": _run_semigroup,
              "normalization": _run_normalization,
              "causality": _run_causality,
              "heat-kernel": _run_heat_kernel,
              "gaffney": _run_gaffney,
              "davies": _run_davies,
              "gaussian": _run_gaussian,
              "pointwise-decay": _run_pointwise_decay,
              "weak-levels": _run_weak_levels,
              "interior-decay": _run_interior_decay,
              "initial-trace": _run_initial_trace,
              "bounded-initial": _run_bounded_initial,
              "local-boundedness": _run_local_boundedness,
              "oracle": _run_oracle,
              "adjoint": _run_adjoint,
          }.items()}


# ----------------------------------------------------------------------
# run / sweep drivers
# ----------------------------------------------------------------------


def _run_check(ctx: Context, chk: dict) -> V.CheckRecord:
    """Run one scenario check entry, its name and its parameters, on ctx."""
    params = {k: v for k, v in chk.items() if k != "name"}
    return CHECKS[chk["name"]][1](ctx, **params)


def _write_outputs(out_dir: Path, name: str, scenario: dict, report: V.VerificationReport):
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {"scenario": name, "config": scenario, "report": report.to_dict()}
    report_to_json(doc, out_dir / "report.json")
    lines = [f"scenario {name}: {len(report.records)} checks, "
             f"all gating checks pass: {report.all_pass}"]
    for rec in report.records:
        fitted = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in sorted(rec.fitted.items()))
        lines.append(f"{rec.status.upper():14s} {rec.name:20s} anchor={rec.anchor} "
                     f"tol={rec.tolerance:g} {fitted}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
    for idx, rec in enumerate(report.records):
        series = {k: v for k, v in rec.samples.items()
                  if isinstance(v, list) and v and isinstance(v[0], (int, float))}
        if not series:
            continue
        length = {len(v) for v in series.values()}
        if len(length) != 1:
            continue
        keys = sorted(series)
        rows = list(zip(*[series[k] for k in keys]))
        write_samples_csv(out_dir / f"{idx:02d}-{rec.name}.csv", keys, rows)


def _exit_code(body) -> int:
    """Run ``body()`` and return its exit code, or that of the error that ends it.

    An invalid scenario exits 2, a solver failure 3 and any other exception,
    an internal error, 4 with its traceback on stderr, so exit 1 stays with
    a failing check.
    """
    try:
        return body()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except Exception:
        print("unexpected error:", file=sys.stderr)
        traceback.print_exc()
        return 4


def run(scenario_path, out_dir=None) -> int:
    """Execute a scenario; returns the process exit code."""
    return _exit_code(lambda: _run(scenario_path, out_dir))


def _run(scenario_path, out_dir) -> int:
    sc = load_scenario(scenario_path)
    ctx = build_context(sc)
    report = V.VerificationReport()
    for chk in sc["checks"]:
        report.add(_run_check(ctx, chk))
    out = Path(out_dir) if out_dir else Path(f"out-{ctx.name}")
    _write_outputs(out, ctx.name, sc, report)
    for rec in report.records:
        print(f"{rec.status.upper():14s} {rec.name:20s} [{rec.anchor}]")
    print(f"report written to {out}")
    return 0 if report.all_pass else 1


def _parse_values(text: str) -> list[float]:
    """``--values``: comma-separated positive finite numbers or fractions ``a/b``."""
    vals = []
    for tok in text.split(","):
        num, slash, den = tok.partition("/")
        try:
            v = float(num) / float(den) if slash else float(num)
        except (ValueError, ZeroDivisionError):
            v = math.nan
        if not (math.isfinite(v) and v > 0):
            raise argparse.ArgumentTypeError(f"{tok.strip()!r} is not a positive number "
                                             "or fraction")
        vals.append(v)
    return vals


def sweep(scenario_path, axis: str, values, out_dir=None) -> int:
    """Repeat the scenario's metric check along one refinement axis; returns the exit code."""
    return _exit_code(lambda: _sweep(scenario_path, axis, values, out_dir))


def _sweep(scenario_path, axis: str, values, out_dir) -> int:
    sc = load_scenario(scenario_path)
    if "sweep" not in sc:
        raise ConfigError("scenario has no 'sweep' section (metric check/field)")
    metric_check, metric_field = sc["sweep"]["check"], sc["sweep"]["field"]
    chk_cfg = next((c for c in sc["checks"] if c["name"] == metric_check), None)
    if chk_cfg is None:
        raise ConfigError(f"metric check {metric_check!r} not in scenario checks")
    if axis not in ("h", "tau", "rho"):
        raise ConfigError("sweep axis must be h, tau, or rho")
    vals = sorted(values, reverse=True)
    if list(values) != vals and list(values) != vals[::-1]:
        raise ConfigError("sweep values must be monotone")
    rows = []
    for v in values:
        sc_v = json.loads(json.dumps(sc))
        mesh_cfg = sc_v["mesh"]
        if axis == "h":
            L = [b[1] - b[0] for b in mesh_cfg["box"]]
            h0 = L[0] / mesh_cfg["cells"][0]
            mesh_cfg["cells"] = [int(round(Li / v)) for Li in L]
            scale = (v / h0) ** 2
            mesh_cfg["tau"] = mesh_cfg["tau"] * scale
            mesh_cfg["steps"] = int(round(mesh_cfg["steps"] / scale))
        elif axis == "tau":
            scale = v / mesh_cfg["tau"]
            mesh_cfg["tau"] = v
            mesh_cfg["steps"] = int(round(mesh_cfg["steps"] / scale))
        else:
            listed = get_origin(CHECKS[metric_check][0].get("rho_cells")) is list
            for c in sc_v["checks"]:
                if c["name"] == metric_check:
                    c["rho_cells"] = [v] if listed else v
        ctx = build_context(_check_scenario(sc_v))
        chk_v = next(c for c in sc_v["checks"] if c["name"] == metric_check)
        rec = _run_check(ctx, chk_v)
        metric = rec.fitted.get(metric_field)
        if metric is None:
            raise ConfigError(f"metric field {metric_field!r} not in record")
        rows.append((float(v), float(metric)))
        print(f"{axis}={v:g}: {metric_field}={metric:.6g}")
    out = Path(out_dir) if out_dir else Path(f"sweep-{sc['name']}-{axis}")
    out.mkdir(parents=True, exist_ok=True)
    write_samples_csv(out / "sweep.csv", [axis, metric_field], rows)
    if len(rows) >= 2:
        fit = V.loglog_fit([r[0] for r in rows], [max(r[1], 1e-300) for r in rows])
        print(f"observed order: {fit.exponent:.3f} (r2={fit.r2:.4f})")
        (out / "order.txt").write_text(
            f"observed order {fit.exponent!r} r2 {fit.r2!r}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="greenlab",
                                     description="Green's matrix verification lab")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None)
    p_sweep = sub.add_parser("sweep", help="refinement study along one axis")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--axis", required=True, choices=["h", "tau", "rho"])
    p_sweep.add_argument("--values", required=True, type=_parse_values)
    p_sweep.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.scenario, args.out)
    return sweep(args.scenario, args.axis, args.values, args.out)


if __name__ == "__main__":
    sys.exit(main())
