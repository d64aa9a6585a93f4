"""greenlab benchmark: fresh single-threaded ``greenlab run`` processes on generated scenarios.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload columns-rotating-1d --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics (run_s, setup_s, peak_rss_mb)
over as many untraced runs as fit in ``--seconds``.  ``--trace 1`` alternates
untraced and traced runs on two seeds and reports the per-layer metrics, the
tracing overhead, and whether every count repeated exactly.  Human-readable
lines come first; the last line of standard output is one JSON object.
Scratch files go to ``.bench_build/perfbench`` in the checkout.  See README.md
in this directory for the workloads and the layer -> metric table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
WORK = ROOT / ".bench_build" / "perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"
BLAS_THREADS = 1          # the runs are single-threaded; nproc is 2 where this was sized
SETUP_PROBES = 3          # set-up-only processes per invocation, on top of one per run
MIN_RUNS = 3              # untraced runs, even when --seconds is too short for them
MIN_PAIRS = 2             # (untraced, traced) pairs, one seed each
HARD_LIMIT_S = 170        # no child may outlive this much of the invocation
# glibc's default mmap threshold, pinned: left dynamic, it rises after large
# frees and the peak RSS of refactor-toscill-2d then wanders between 485 and
# 635 MB on identical runs; pinned, large blocks go back to the system when
# freed and peak RSS follows the memory the run actually holds.
MMAP_THRESHOLD = 128 * 1024

# ----------------------------------------------------------------------
# workloads: scenario generators and the check list each must reproduce
# ----------------------------------------------------------------------
# The seed sets the scenario seed (random data of adjoint, oracle and
# interior-decay) and picks pole fractions from fixed sets.  Every mesh is
# periodic and every coefficient field is x-independent, so the amount of
# work and every check status are the same for all seeds.


def _columns_rotating_1d(rng: random.Random, seed: int) -> dict:
    ys = sorted(rng.sample([0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45], 3))
    xs = sorted(rng.sample([0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9], 3))
    return {
        "name": "columns-rotating-1d",
        "preset": {"name": "rotating", "w0": 0.5, "omega": 2.0},
        "mesh": {"cells": [32], "box": [[0.0, 1.0]], "tau": 2.0 ** -9, "t0": 0.0,
                 "steps": 64, "boundary": "periodic"},
        "theta": 1.0,
        "seed": seed,
        "checks": [
            {"name": "duality", "y_fracs": [[y] for y in ys], "x_fracs": [[x] for x in xs],
             "rho_cells": [4, 3], "sigma_cells": [4, 3], "s_step": 20, "t_step": 44,
             "tolerance": 1e-10},
            {"name": "causality", "rho_cells": [4, 3],
             "y_frac": [rng.choice([0.3, 0.4, 0.5, 0.6, 0.7])]},
            {"name": "semigroup", "s_step": 0, "r_step": 24, "t_step": 56,
             "tolerance": 1e-12},
            {"name": "normalization", "s_step": 0, "t_step": 48, "tolerance": 1e-12},
            {"name": "adjoint", "t_step": 48, "tolerance": 1e-12},
            {"name": "oracle", "t_step": 16, "tolerance": 1e-9},
        ],
    }


def _pick_2d(rng: random.Random, choices) -> list:
    return [rng.choice(choices), rng.choice(choices)]


def _solves_heat_2d(rng: random.Random, seed: int) -> dict:
    # 2-D position fractions are explicit: the cli defaults are 1-D.
    return {
        "name": "solves-heat-2d",
        "preset": {"name": "heat", "n": 2},
        "mesh": {"cells": [64, 64], "box": [[0.0, 1.0], [0.0, 1.0]], "tau": 2.0 ** -12,
                 "t0": 0.0, "steps": 256, "boundary": "periodic"},
        "theta": 1.0,
        "seed": seed,
        "checks": [
            {"name": "duality", "y_fracs": [_pick_2d(rng, [0.2, 0.3, 0.4])],
             "x_fracs": [_pick_2d(rng, [0.6, 0.7, 0.8])], "rho_cells": [4],
             "sigma_cells": [4], "s_step": 64, "t_step": 192, "tolerance": 1e-10},
            {"name": "adjoint", "t_step": 256, "tolerance": 1e-12},
            {"name": "gaffney", "F_frac": 0.2, "E_frac": 0.7, "halfwidth": 0.05,
             "t_step": 256, "slack": 1.05},
            {"name": "davies", "gamma": 0.5, "t_step": 256, "slack": 1.05},
            {"name": "bounded-initial", "t_step": 256},
            {"name": "initial-trace", "width": 0.25,
             "x0_frac": _pick_2d(rng, [0.4, 0.5, 0.6]), "t_steps": [2, 4, 8, 16]},
            {"name": "interior-decay", "ladder_cells": [4, 6, 8, 12, 16], "t_step": 256,
             "x_frac": _pick_2d(rng, [0.4, 0.5, 0.6]), "solutions": 8},
        ],
    }


def _refactor_toscill_2d(rng: random.Random, seed: int) -> dict:
    return {
        "name": "refactor-toscill-2d",
        "preset": {"name": "t-oscillating", "n": 2, "period": 0.05},
        "mesh": {"cells": [64, 64], "box": [[0.0, 1.0], [0.0, 1.0]], "tau": 2.0 ** -10,
                 "t0": 0.0, "steps": 48, "boundary": "periodic"},
        "theta": 1.0,
        "seed": seed,
        "checks": [
            {"name": "adjoint", "t_step": 48, "tolerance": 1e-12},
            {"name": "davies", "gamma": 0.5, "t_step": 48, "slack": 1.05},
            {"name": "bounded-initial", "t_step": 48,
             "center_frac": rng.choice([0.3, 0.4, 0.5, 0.6, 0.7])},
        ],
    }


WORKLOADS = {
    "columns-rotating-1d": _columns_rotating_1d,
    "solves-heat-2d": _solves_heat_2d,
    "refactor-toscill-2d": _refactor_toscill_2d,
}


def make_scenario(workload: str, seed: int) -> dict:
    seed = seed % 2 ** 32
    return WORKLOADS[workload](random.Random(seed), seed)


def expected_checks(scenario: dict) -> list:
    """Every check of a workload must pass, in scenario order."""
    return [[chk["name"], "pass"] for chk in scenario["checks"]]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics printed in the JSON line: the ones every workload
# exercises.  Times of code that only some workloads reach (green columns,
# the dense oracle, checks other than adjoint) go to the printed table and
# the trace record only: a time that is 0 on every run reads as a fake.
PER_LAYER = [
    "cli.load_scenario_s", "cli.build_context_s",
    "problem.tensor_calls", "problem.tensor_s",
    "mesh.calls", "mesh.self_s",
    "solver.schemes", "solver.assemble_calls", "solver.assemble_s",
    "solver.factor_calls", "solver.factor_s", "solver.factor_hit_ratio",
    "solver.solve_calls", "solver.trisolve_s", "solver.solve_check_s", "solver.steps",
    "solver.lu_nnz_max", "solver.lu_nnz_sum",
    "green.columns", "green.propagator_calls",
    "verify.adjoint_s", "verify.self_s",
    "io.write_s", "io.bytes_written",
    "trace_overhead_frac",
]


def is_count(name: str) -> bool:
    """Counts must repeat exactly across runs and seeds of one workload."""
    return (name.endswith("_calls") or name.startswith("solver.lu_nnz_")
            or name in ("solver.steps", "solver.schemes", "green.columns", "mesh.calls"))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans nest and come from one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child_time)]


def span_table(spans: list) -> dict:
    """Per (run, span name): calls, total seconds, self seconds, each duration."""
    table: dict = {}
    for (name, start, end, _, run), self_s in zip(spans, self_times(spans)):
        row = table.setdefault((run, name), {"calls": 0, "total": 0.0, "self": 0.0, "each": []})
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += self_s
        row["each"].append(end - start)
    return table


def span_tree(spans: list) -> dict:
    """[calls, total s, self s] per call path, named from the root down."""
    paths, tree = [], {}
    for (name, start, end, parent, run), self_s in zip(spans, self_times(spans)):
        paths.append((paths[parent] if parent >= 0 else run) + " > " + name)
        row = tree.setdefault(paths[-1], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += self_s
    return tree


def layer_metrics(spans: list, lu_nnz: list, checks: list, bytes_written: int) -> dict:
    """Every per-layer metric of one traced run: name -> (value, unit)."""
    table = span_table(spans)

    def row(name, run="run"):
        return table.get((run, name), {"calls": 0, "total": 0.0, "self": 0.0, "each": []})

    def layer(prefix, field):
        return sum(r[field] for (run, name), r in table.items()
                   if run == "run" and name.startswith(prefix + "."))

    columns = row("green.averaged_green_column")["each"] + row("green.transpose_green_column")["each"]
    column_p50 = statistics.median(columns) if columns else 0.0
    column_p90 = statistics.quantiles(columns, n=10)[-1] if len(columns) >= 2 else column_p50
    lu_calls = row("solver.implicit_lu")["calls"]
    factors = row("solver.splu")["calls"]
    m = {
        "cli.load_scenario_s": (row("cli.load_scenario", "setup")["total"], "s"),
        "cli.build_context_s": (row("cli.build_context", "setup")["total"], "s"),
        "problem.tensor_calls": (row("problem.tensor")["calls"], "count"),
        "problem.tensor_s": (row("problem.tensor")["total"], "s"),
        "mesh.calls": (layer("mesh", "calls"), "count"),
        "mesh.self_s": (layer("mesh", "self"), "s"),
        "solver.schemes": (row("solver.scheme")["calls"], "count"),
        "solver.assemble_calls": (row("solver.assemble")["calls"], "count"),
        "solver.assemble_s": (row("solver.assemble")["total"], "s"),
        "solver.factor_calls": (factors, "count"),
        "solver.factor_s": (row("solver.splu")["total"], "s"),
        "solver.factor_hit_ratio": ((lu_calls - factors) / lu_calls if lu_calls else 0.0,
                                    "ratio"),
        "solver.solve_calls": (row("solver.trisolve")["calls"], "count"),
        "solver.trisolve_s": (row("solver.trisolve")["total"], "s"),
        "solver.solve_check_s": (row("solver.solve_implicit")["self"], "s"),
        "solver.steps": (row("solver.forward_step")["calls"]
                         + row("solver.backward_step")["calls"], "count"),
        "solver.oracle_s": (row("solver.dense_spacetime_oracle")["total"], "s"),
        "solver.lu_nnz_max": (max(lu_nnz, default=0), "count"),
        "solver.lu_nnz_sum": (sum(lu_nnz), "count"),
        "green.columns": (len(columns), "count"),
        "green.column_s": (sum(columns), "s"),
        "green.column_ms.p50": (1e3 * column_p50, "ms"),
        "green.column_ms.p90": (1e3 * column_p90, "ms"),
        "green.propagator_calls": (row("green.propagator")["calls"], "count"),
        "green.propagator_s": (row("green.propagator")["total"], "s"),
        "green.cylinder_average_s": (row("green.cylinder_average")["total"], "s"),
    }
    for check in dict.fromkeys(checks):
        m[f"verify.{check}_s"] = (row(f"verify.{check}")["total"], "s")
    m["verify.self_s"] = (layer("verify", "self"), "s")
    m["io.write_s"] = (layer("io", "total"), "s")
    m["io.bytes_written"] = (bytes_written, "bytes")
    return m


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
    return env


class Runner:
    def __init__(self, workload: str, seconds: float):
        self.workload = workload
        self.env = child_env()
        self.launched = self.start = time.monotonic()
        self.seconds = seconds
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.count = 0

    def begin(self):
        """Start the measured window of --seconds."""
        self.start = time.monotonic()

    def remaining_hard(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.launched)

    def spawn(self, scenario: Path, *extra) -> dict:
        """Start one child; returns its result with setup_s, or {'error': ...}."""
        self.count += 1
        tag = f"{self.count:03d}"
        out, result = self.work / f"out-{tag}", self.work / f"result-{tag}.json"
        shutil.rmtree(out, ignore_errors=True)
        t_spawn = time.monotonic()
        with open(self.work / f"log-{tag}.txt", "w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(CHILD), str(scenario), str(out), str(result), *extra],
                    env=self.env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1.0, self.remaining_hard()))
            except subprocess.TimeoutExpired:
                return {"error": "timeout", "timeout": True}
        wall = time.monotonic() - t_spawn
        if proc.returncode != 0 or not result.exists():
            return {"error": f"child exit {proc.returncode}, see {log.name}"}
        res = json.loads(result.read_text())
        res["setup_s"] = res["ready"] - t_spawn
        res["wall_s"] = wall
        res["out"] = out
        return res

    def setup(self, scenario: Path) -> dict:
        return self.spawn(scenario, "--setup-only")

    def greenlab_run(self, scenario: Path, expected: list, spans: Path | None = None) -> dict:
        res = self.spawn(scenario, *(("--trace", str(spans)) if spans else ()))
        if "error" in res:
            res["ok"] = False
            return res
        report = res["out"] / "report.json"
        if report.exists():
            data = report.read_bytes()
            res["sha256"] = hashlib.sha256(data).hexdigest()
            records = json.loads(data)["report"]["records"]
            res["checks"] = [[r["name"], r["status"]] for r in records]
            res["bytes_written"] = sum(p.stat().st_size for p in res["out"].iterdir())
        res["ok"] = res["exit_code"] == 0 and res.get("checks") == expected
        if not res["ok"]:
            res["error"] = f"exit {res['exit_code']}, checks {res.get('checks')}"
        return res

    def has_time_for(self, duration: float) -> bool:
        elapsed = time.monotonic() - self.start
        return elapsed + duration <= self.seconds and duration < self.remaining_hard()


def write_scenario(runner: Runner, seed: int) -> tuple:
    sc = make_scenario(runner.workload, seed)
    path = runner.work / f"scenario-{seed}.json"
    path.write_text(json.dumps(sc, indent=1))
    return path, expected_checks(sc)


def env_record(seed: int, versions: dict) -> dict:
    return {"seed": seed, "blas_threads": BLAS_THREADS, "malloc_mmap_threshold": MMAP_THRESHOLD,
            "nproc": len(os.sched_getaffinity(0)), **versions}


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_stat(name: str, unit: str, values: list):
    q1, q2, q3 = quartiles(values)
    print(f"  {name:<14} median {q2:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")


# ----------------------------------------------------------------------
# the two modes
# ----------------------------------------------------------------------


def measure_end_to_end(runner: Runner, seed: int):
    scenario, expected = write_scenario(runner, seed)
    runner.setup(scenario)              # warm-up: compiles bytecode, fills the page cache
    runner.begin()
    setups = [runner.setup(scenario) for _ in range(SETUP_PROBES)]
    setup_errors = [s["error"] for s in setups if "error" in s]
    runs, walls = [], []
    while len(runs) < MIN_RUNS or runner.has_time_for(statistics.mean(walls)):
        res = runner.greenlab_run(scenario, expected)
        runs.append(res)
        if res.get("timeout"):
            break
        walls.append(res.get("wall_s", 0.0))
    good = [r for r in runs if r["ok"]]
    samples = {
        "run_s": [r["run_s"] for r in good],
        "setup_s": [s["setup_s"] for s in setups + runs if "setup_s" in s],
        "peak_rss_mb": [r["maxrss_kb"] / 1024.0 for r in good],
    }
    if not all(samples.values()):
        raise SystemExit(f"error: no successful run of {runner.workload}: "
                         f"{[r.get('error') for r in runs] + setup_errors}")
    failed = len(runs) - len(good)
    env = env_record(seed, good[0]["versions"])
    print(f"perfbench {runner.workload} trace=0 " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in END_TO_END.items():
        print_stat(name, unit, samples[name])
    print(f"  {'fail_frac':<14} {failed / len(runs):.4f} ({failed}/{len(runs)} runs)")
    for r in runs:
        if not r["ok"]:
            print(f"  failed run: {r['error']}")
    for err in setup_errors:
        print(f"  failed set-up: {err}")
    print(f"  report sha256 (information only): {sorted({r['sha256'] for r in good})}")
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END.items()}
    record = {"env": env, "samples": samples, "metrics": metrics,
              "fail_frac": failed / len(runs), "errors": [r.get("error") for r in runs]}
    (runner.work / f"end_to_end-seed{seed}.json").write_text(json.dumps(record, indent=1))
    return not setup_errors and failed == 0, len(runs), failed, metrics


def measure_per_layer(runner: Runner, seed: int):
    seeds = [seed, seed + 1]
    scenarios = [write_scenario(runner, s) for s in seeds]
    runner.setup(scenarios[0][0])
    runner.begin()
    plain, traced, walls = [], [], []
    while len(walls) < MIN_PAIRS or runner.has_time_for(statistics.mean(walls)):
        scenario, expected = scenarios[len(plain) % 2]
        spans_path = runner.work / f"spans-{len(plain) % 2}.json"
        t0 = time.monotonic()
        plain.append(runner.greenlab_run(scenario, expected))
        res = runner.greenlab_run(scenario, expected, spans_path)
        if res["ok"]:
            trace = json.loads(spans_path.read_text())
            res["layers"] = layer_metrics(trace["spans"], trace["lu_nnz"],
                                          [c for c, _ in expected], res["bytes_written"])
            res["tree"] = span_tree(trace["spans"])
        traced.append(res)
        if plain[-1].get("timeout") or res.get("timeout"):
            break
        walls.append(time.monotonic() - t0)
    runs = plain + traced
    failed = sum(not r["ok"] for r in runs)
    good = [r for r in traced if r["ok"]]
    good_plain = [r for r in plain if r["ok"]]
    if not good or not good_plain:
        raise SystemExit(f"error: no successful traced run of {runner.workload}: "
                         f"{[r.get('error') for r in runs]}")
    mismatched = [i for i, (p, t) in enumerate(zip(plain, traced))
                  if p.get("checks") != t.get("checks")]
    names = list(good[0]["layers"])
    unsteady = [n for n in names if is_count(n)
                and len({r["layers"][n][0] for r in good}) != 1]
    layers = {}
    for n in names:
        values = [r["layers"][n][0] for r in good]
        layers[n] = (values[0] if is_count(n) else statistics.median(values),
                     good[0]["layers"][n][1])
    plain_run = statistics.median(r["run_s"] for r in good_plain)
    traced_run = statistics.median(r["run_s"] for r in good)
    layers["trace_overhead_frac"] = (traced_run / plain_run - 1.0, "ratio")

    env = env_record(seed, good[0]["versions"])
    env["seeds"] = seeds
    print(f"perfbench {runner.workload} trace=1 " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  runs: {len(plain)} untraced, {len(traced)} traced, {failed} failed; "
          f"run_s untraced {plain_run:.4f} s, traced {traced_run:.4f} s")
    tree = good[-1]["tree"]
    print("  span tree of the last traced run (calls, total s, self s; paths >= 1% of run_s):")
    for path, (calls, total, self_s) in tree.items():
        if total >= 0.01 * traced_run:
            print(f"    {path}: {calls} {total:.4f} {self_s:.4f}")
    print("  per-layer metrics (times: median over traced runs; counts: exact):")
    for n, (value, unit) in layers.items():
        print(f"    {n:<28} {fmt(value)} {unit}")
    print(f"  counts repeat exactly across runs and seeds {seeds}: {not unsteady}"
          + (f" (differ: {unsteady})" if unsteady else ""))
    print(f"  traced and untraced check statuses identical: {not mismatched}")
    for r in runs:
        if not r["ok"]:
            print(f"  failed run: {r['error']}")
    record = {"env": env, "per_layer": layers, "unsteady_counts": unsteady,
              "status_mismatch": mismatched, "span_tree": tree,
              "errors": [r.get("error") for r in runs]}
    (runner.work / f"per_layer-seed{seed}.json").write_text(json.dumps(record, indent=1))
    metrics = {n: {"value": layers[n][0], "unit": layers[n][1]} for n in PER_LAYER}
    correct = failed == 0 and not unsteady and not mismatched
    return correct, len(runs), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "greenlab" / "cli.py").is_file():
        print(f"error: no greenlab source tree under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seconds)
    measure = measure_per_layer if args.trace else measure_end_to_end
    correct, attempted, failed, metrics = measure(runner, args.seed)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
