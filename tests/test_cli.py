import importlib.util
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenlab
from greenlab import ConfigError, cli, wrapped_heat_kernel
from greenlab import verify as V

from reference import assert_fits_match_lapack

SCEN = resources.files("greenlab") / "scenarios"


PERFBENCH_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def scenario_path(name):
    return str(SCEN / name)


def test_heat_core_golden_run(tmp_path):
    code = cli.run(scenario_path("heat-1d-core.json"), out_dir=tmp_path / "out")
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    by_name = {r["name"]: r for r in report["report"]["records"]}
    for name in ("duality", "semigroup", "normalization"):
        assert by_name[name]["status"] == "pass"
        resid = by_name[name]["fitted"].get("max_residual",
                                            by_name[name]["fitted"].get("max_row_deviation"))
        assert resid <= 1e-10
    for rec in report["report"]["records"]:
        assert rec["anchor"]  # every record names its identity anchor
    assert (tmp_path / "out" / "summary.txt").exists()


def test_rotating_golden_run(tmp_path):
    code = cli.run(scenario_path("rotating-2x2.json"), out_dir=tmp_path / "out")
    assert code == 0


def test_rotating_report_byte_determinism(tmp_path):
    c1 = cli.run(scenario_path("rotating-2x2.json"), out_dir=tmp_path / "o1")
    c2 = cli.run(scenario_path("rotating-2x2.json"), out_dir=tmp_path / "o2")
    assert c1 == c2 == 0
    assert (tmp_path / "o1" / "report.json").read_bytes() == \
        (tmp_path / "o2" / "report.json").read_bytes()


def test_theta_contract_exit_2(tmp_path, capsys):
    """Implicit Euler is the only scheme: theta may be 1 or absent, anything else exits 2."""
    sc = json.loads((SCEN / "heat-1d-core.json").read_text())
    p = tmp_path / "bad.json"
    for theta in (0.5, 0.25, True):
        p.write_text(json.dumps(dict(sc, theta=theta)))
        assert cli.run(str(p), out_dir=tmp_path / "bad") == 2
        assert "theta" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    sc.pop("theta")
    p.write_text(json.dumps(sc))
    assert cli.run(str(p), out_dir=tmp_path / "no-theta") == 0


def test_theta_absent_reports_like_theta_one(tmp_path):
    """A scenario without ``theta`` runs implicit Euler: only the echoed config differs."""
    sc = json.loads((SCEN / "heat-1d-core.json").read_text())
    assert sc["theta"] == 1
    p = tmp_path / "no-theta.json"
    p.write_text(json.dumps({k: v for k, v in sc.items() if k != "theta"}))
    one, absent = tmp_path / "one", tmp_path / "absent"
    assert cli.run(str(SCEN / "heat-1d-core.json"), out_dir=one) == 0
    assert cli.run(str(p), out_dir=absent) == 0
    a, b = (json.loads((d / "report.json").read_text()) for d in (one, absent))
    assert a.pop("config") == dict(b.pop("config"), theta=1)
    assert a == b
    names = sorted(f.name for f in one.iterdir())
    assert names == sorted(f.name for f in absent.iterdir())
    for name in names:
        if name != "report.json":
            assert (one / name).read_bytes() == (absent / name).read_bytes(), name


def test_unknown_check_exit_2(tmp_path, capsys):
    sc = json.loads((SCEN / "heat-1d-core.json").read_text())
    sc["checks"].append({"name": "nonsense"})
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(sc))
    assert cli.run(str(p)) == 2
    assert "nonsense" in capsys.readouterr().err


def test_unknown_scenario_key_exit_2(tmp_path):
    sc = json.loads((SCEN / "heat-1d-core.json").read_text())
    sc["surprise"] = 1
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(sc))
    assert cli.run(str(p)) == 2


def test_unknown_check_param_exit_2(tmp_path):
    sc = json.loads((SCEN / "heat-1d-core.json").read_text())
    sc["checks"][0]["mystery_knob"] = 3
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(sc))
    assert cli.run(str(p)) == 2


@pytest.mark.parametrize("t_step", [-40, 200])
def test_step_outside_window_exit_2(tmp_path, capsys, t_step):
    # heat-1d-core has 96 steps; neither end may be indexed past
    sc = json.loads((SCEN / "heat-1d-core.json").read_text())
    sc["checks"] = [{"name": "adjoint", "t_step": t_step}]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(sc))
    assert cli.run(str(p), out_dir=tmp_path / "out") == 2
    assert f"step {t_step} is outside the mesh window 0..96" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("check, key, value", [
    ("duality", "rho_cells", []), ("duality", "sigma_cells", []),
    ("duality", "y_fracs", []), ("duality", "x_fracs", []),
    ("causality", "rho_cells", []), ("heat-kernel", "rho_cells", []),
    ("gaussian", "dt_steps", []), ("initial-trace", "t_steps", []),
    ("pointwise-decay", "n_points", 1),
])
def test_empty_or_short_list_parameter_exit_2(tmp_path, capsys, check, key, value):
    # exit 1 is a failing check; a list too short to sample from is a bad scenario
    sc = json.loads((SCEN / "heat-1d-core.json").read_text())
    sc["checks"] = [{"name": check, key: value}]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(sc))
    assert cli.run(str(p), out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"{check}: {key}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("check, key, value", [
    ("heat-kernel", "dt", 0.0), ("heat-kernel", "dt", -0.05),
    ("heat-kernel", "radius_factor", -1.0), ("initial-trace", "width", 0.0),
    ("interior-decay", "solutions", 0),
    # a segment narrower than half a cell holds no cell center: the datum is zero
    ("bounded-initial", "halfwidth", 0.001),
    # a dt below half a step rounds to no step, and dt / tau may overflow
    ("heat-kernel", "dt", 1e-6), ("heat-kernel", "dt", 1e306),
    # a flat weight on a periodic mesh weighs a constant datum, which never moves
    ("davies", "gamma", 0.0), ("davies", "gamma", -1.0),
    ("gaussian", "c_max", 0.0), ("gaussian", "c_max", -1.0),
    # a 1-D mesh has axis 0 alone
    ("pointwise-decay", "axis", 1), ("pointwise-decay", "axis", -1),
])
def test_parameter_out_of_range_exit_2(tmp_path, capsys, check, key, value):
    # a value that types but leaves nothing to check is a bad scenario, not a pass
    # (exit 0), a failing check (exit 1) or a traceback (exit 4)
    sc = json.loads((SCEN / "heat-1d-core.json").read_text())
    sc["checks"] = [{"name": check, key: value}]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(sc))
    assert cli.run(str(p), out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"{check}: " in err and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("check, key, value, want", [
    # a list where a number is expected
    ("gaussian", "rho_cells", [4], "a number"),
    ("adjoint", "t_step", [48], "an integer or null"),
    ("davies", "gamma", [1.0], "a number"),
    # a number where a list is expected
    ("duality", "rho_cells", 4, "a list of numbers"),
    ("initial-trace", "t_steps", 4, "a list of integers"),
    # a list of the wrong entries, and the wrong scalar type
    ("causality", "rho_cells", [[6]], "a list of numbers"),
    ("duality", "y_fracs", ["a"], "a list of numbers or lists of numbers or nulls"),
    ("semigroup", "tolerance", "1e-12", "a number"),
    ("oracle", "seed", 1.5, "an integer or null"),
    ("adjoint", "seed", -1, "a non-negative integer or null"),
    ("weak-levels", "gradient", 1, "true or false"),
    # a non-finite number: NaN passed every tolerance comparison as a failure (exit 1)
    ("adjoint", "tolerance", math.nan, "finite"),
    ("causality", "y_frac", [math.nan], "finite"),
    ("gaussian", "rho_cells", math.inf, "finite"),
])
def test_parameter_of_wrong_json_type_exit_2(tmp_path, capsys, check, key, value, want):
    # exit 1 is a failing check; a value of the wrong type is a bad scenario
    sc = json.loads((SCEN / "heat-1d-core.json").read_text())
    sc["checks"] = [{"name": check, key: value}]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(sc))
    assert cli.run(str(p), out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"{check}: {key} must be {want}, got {json.dumps(value)}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, want", [
    ("mesh.steps", 8.7, "mesh.steps must be an integer, got 8.7"),  # it ran 8 steps
    ("mesh.steps", True, "mesh.steps must be an integer, got true"),
    ("mesh.cells", ["a"], 'mesh.cells must be a list of integers, got ["a"]'),
    ("mesh.cells", [64.0], "mesh.cells must be a list of integers, got [64.0]"),
    ("mesh.cells", 64, "mesh.cells must be a list of integers, got 64"),
    ("mesh.cells", [], "mesh.cells must be a list of integers, got []"),
    ("mesh.tau", math.nan, "mesh.tau must be finite, got NaN"),
    ("mesh.tau", "0.1", 'mesh.tau must be a number, got "0.1"'),
    ("mesh.tau", 1e308, "mesh.tau must keep the last time t0 + tau*steps finite, got 1e+308"),
    ("mesh.t0", math.inf, "mesh.t0 must be finite, got Infinity"),
    ("mesh.box", [[0.0, math.nan]], "mesh.box must be finite, got [[0.0, NaN]]"),
    ("mesh.box", [[0, "x"]], 'mesh.box must be a list of lists of numbers, got [[0, "x"]]'),
    ("mesh.box", [0, 1], "mesh.box must be a list of lists of numbers, got [0, 1]"),
    ("mesh.box", [[0.0, 0.5, 1.0]], "mesh.box must hold one [lo, hi] pair per axis"),
    ("seed", "a", 'seed must be an integer, got "a"'),
    ("seed", -1, "seed must be a non-negative integer, got -1"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),  # it ran with seed 1
    # a seed is the 64-bit start of a SplitMix64 stream
    ("seed", 2 ** 64, "seed must be below 2**64, got 18446744073709551616"),
    ("checks", [{"name": "adjoint", "seed": 2 ** 64 + 1}],
     "adjoint: seed must be below 2**64, got 18446744073709551617"),
    ("checks", {"name": "adjoint"}, 'checks must be a list of objects, got {"name": "adjoint"}'),
    ("checks", ["adjoint"], 'checks must be a list of objects, got ["adjoint"]'),
    ("preset", [1], "preset must be an object, got [1]"),
    ("mesh", [1], "mesh must be an object, got [1]"),
    ("name", {"a": 1}, 'name must be a string, got {"a": 1}'),  # it ran, named "{'a': 1}"
    ("sweep", 5, "sweep must be an object, got 5"),
    ("sweep", {"check": 5, "field": "c_fit"}, "sweep.check must be a string, got 5"),
    ("checks", [], "checks must be a list of objects, got []"),
    # preset keys: 1.5 and true ran 1-D heat; the others ended in tracebacks
    ("preset.n", 1.5, "preset.n must be an integer, got 1.5"),
    ("preset.n", True, "preset.n must be an integer, got true"),
    ("preset.n", "two", 'preset.n must be an integer, got "two"'),
    ("preset.R_c", "x", 'preset.R_c must be a number, got "x"'),
    ("preset.R_c", math.inf, "preset.R_c must be finite, got Infinity"),
    ("preset.nope", 1, "preset.nope is not a known key"),
    ("preset", {"n": 1}, "preset.name must be one of heat, "),
    ("preset", {"name": "diag", "values": [1, "x"]},
     'preset.values must be a list of numbers, got [1, "x"]'),
    ("preset", {"name": "diag", "values": 3}, "preset.values must be a list of numbers, got 3"),
    ("preset", {"name": "t-oscillating", "amp": [0.1]}, "preset.amp must be a number, got [0.1]"),
    ("preset", {"table": "t.csv", "Lambda": 1.0}, "preset.lambda is missing: it must be a number"),
    ("preset", {"table": "t.csv", "lambda": "x", "Lambda": 1.0},
     'preset.lambda must be a number, got "x"'),
    ("preset", {"table": 0, "lambda": 1.0, "Lambda": 1.0}, "preset.table must be a string, got 0"),
    # preset values out of range, rejected before the builder computes with them: the
    # first three ended in tracebacks, wavelength 0 failed at the first step and period 0
    # of checkerboard ran to exit 0 on a field of NaN parities
    ("preset", {"name": "heat", "n": -1}, "preset.n must be 1 or 2, got -1"),
    ("preset", {"name": "x-oscillatory", "n": -2}, "preset.n must be 1 or 2, got -2"),
    ("preset", {"name": "t-oscillating", "period": 0}, "preset.period must be positive, got 0"),
    ("preset", {"name": "x-oscillatory", "wavelength": 0},
     "preset.wavelength must be positive, got 0"),
    ("preset", {"name": "checkerboard", "period": 0}, "preset.period must be positive, got 0"),
    ("preset", {"name": "diag", "values": [2.0, -0.5]},
     "preset.values must be one or two positive numbers, got [2.0, -0.5]"),
    ("preset", {"name": "diag", "values": [1, 2, 3]},
     "preset.values must be one or two positive numbers, got [1, 2, 3]"),
])
def test_malformed_scenario_key_exit_2(tmp_path, capsys, key, value, want):
    # a value of the wrong type, out of range or non-finite is a bad scenario, named by its key
    sc = json.loads((SCEN / "heat-1d-core.json").read_text())
    *parents, last = key.split(".")
    obj = sc
    for part in parents:
        obj = obj[part]
    obj[last] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(sc))
    assert cli.run(str(p), out_dir=tmp_path / "out") == 2
    assert want in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _typed_scenarios(table: str) -> list:
    """A scenario with a key of every section, and its twin on a coefficient table."""
    sc = {
        "name": "typed", "theta": 1, "seed": 3,
        "preset": {"name": "t-oscillating", "n": 1, "amp": 0.25, "R_c": 2.0},
        "mesh": {"cells": [8], "box": [[0.0, 1.0]], "tau": 0.01, "steps": 4, "t0": 0.0,
                 "boundary": "periodic"},
        "checks": [{"name": "duality", "y_fracs": [[0.25], None], "rho_cells": [2],
                    "s_step": 1, "tolerance": 1e-10},
                   {"name": "interior-decay", "seed": 1, "x_frac": 0.5, "solutions": 2}],
        "sweep": {"check": "duality", "field": "max_residual"},
    }
    return [sc, dict(sc, preset={"table": table, "lambda": 1.0, "Lambda": 1.0, "R_c": 2.0})]


def _json_type(value) -> str:
    return {bool: "bool", int: "number", float: "number", str: "string", list: "list",
            dict: "object", type(None): "null"}[type(value)]


_OTHER_JSON_VALUES = {
    "bool": st.booleans(), "number": st.integers(-3, 3) | st.floats(-1e3, 1e3),
    "string": st.text(max_size=3), "list": st.lists(st.integers(0, 3), max_size=2),
    "object": st.dictionaries(st.sampled_from("ab"), st.integers(0, 3), max_size=1),
    "null": st.none(),
}


def _typed_targets():
    """(scenario index, key path, the name a message gives the key) for every scenario value."""
    sc, table_sc = _typed_scenarios("table.csv")
    targets = [(0, (key,), key) for key in sc]
    for i, sc_i in enumerate((sc, table_sc)):
        targets += [(i, ("preset", key), f"preset.{key}") for key in sc_i["preset"]]
    targets += [(0, ("mesh", key), f"mesh.{key}") for key in sc["mesh"]]
    targets += [(0, ("sweep", key), f"sweep.{key}") for key in sc["sweep"]]
    for k, chk in enumerate(sc["checks"]):
        targets += [(0, ("checks", k, key),
                     f"checks[{k}].name" if key == "name" else f"{chk['name']}: {key}")
                    for key in chk]
    return targets


@pytest.fixture(scope="module")
def typed_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("typed")
    (path / "table.csv").write_text("# 1 1 1 2\n0.0,0.0,1,1,1,1,1.0\n0.0,1.0,1,1,1,1,1.0\n")
    return path


@settings(max_examples=150, deadline=None)
@given(target=st.sampled_from(_typed_targets()), data=st.data())
def test_any_value_of_another_json_type_is_rejected_by_name(typed_dir, target, data):
    """One value swapped for another JSON type, or NaN: the scenario loads and builds, or it
    raises ConfigError naming that key; nothing else escapes."""
    index, path, label = target
    sc = _typed_scenarios(str(typed_dir / "table.csv"))[index]
    *parents, last = path
    obj = sc
    for part in parents:
        obj = obj[part]
    kinds = [k for k in _OTHER_JSON_VALUES if k != _json_type(obj[last])]
    obj[last] = data.draw(st.just(math.nan) | st.sampled_from(kinds).flatmap(
        _OTHER_JSON_VALUES.__getitem__))
    (typed_dir / "sc.json").write_text(json.dumps(sc))
    try:
        cli.build_context(cli.load_scenario(str(typed_dir / "sc.json")))
    except ConfigError as exc:
        assert label in str(exc)


def test_missing_table_exit_2(tmp_path, capsys):
    sc = json.loads((SCEN / "heat-1d-core.json").read_text())
    sc["preset"] = {"table": str(tmp_path / "absent.csv"), "lambda": 1.0, "Lambda": 1.0}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(sc))
    assert cli.run(str(p), out_dir=tmp_path / "out") == 2
    assert f"cannot read table {tmp_path / 'absent.csv'}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_table_preset_of_a_number_reads_nothing(tmp_path, capsys, monkeypatch):
    # ``"table": 0`` made ``load_table`` open fd 0: it read stdin as the table, then closed it
    monkeypatch.setattr(cli, "load_table", lambda *args: pytest.fail("a table was opened"))
    sc = json.loads((SCEN / "heat-1d-core.json").read_text())
    sc["preset"] = {"table": 0, "lambda": 1.0, "Lambda": 1.0}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(sc))
    assert cli.run(str(p), out_dir=tmp_path / "out") == 2
    assert "preset.table must be a string" in capsys.readouterr().err
    os.fstat(0)  # still open


def test_time_past_window_names_window_and_step(tmp_path, capsys):
    # the longest default ray lands on lattice step 3604 of a 640-step window
    sc = {
        "name": "decay-past-window",
        "preset": {"name": "heat", "n": 1},
        "mesh": {"cells": [64], "box": [[0.0, 1.0]], "tau": 2.0 ** -12, "steps": 640,
                 "boundary": "periodic"},
        "checks": [{"name": "pointwise-decay"}],
    }
    p = tmp_path / "decay.json"
    p.write_text(json.dumps(sc))
    assert cli.run(str(p), out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    # the check fails before it builds a column, naming its parameters and the window
    assert "pointwise-decay" in err and "d_min_cells=6" in err and "decade=1" in err
    assert "needs step 3604" in err and "steps 0..640" in err
    assert not (tmp_path / "out").exists()


def _ray_scenario(cells):
    """A periodic 2-D heat pointwise-decay scenario at h = 1/32 and tau = h^2, with steps
    enough for the default ray of 6 h to 60 h."""
    return {"name": "heat-2d-ray", "preset": {"name": "heat", "n": 2},
            "mesh": {"cells": cells, "box": [[0.0, c / 32] for c in cells], "tau": 2.0 ** -10,
                     "steps": 3608, "boundary": "periodic"},
            "checks": [{"name": "pointwise-decay", "rho_cells": 2, "d_min_cells": 6}]}


def test_ray_past_a_third_of_the_torus_exit_2(tmp_path, capsys):
    # the ray reaches 60 h = 1.875, past a third of the 2.5 side of the 4 x 2.5 torus,
    # where the far probes see the wrapped images: run, it fitted -1.31 against -1.85
    p = tmp_path / "ray.json"
    p.write_text(json.dumps(_ray_scenario([128, 80])))
    assert cli.run(str(p), out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "pointwise-decay" in err and "d_min_cells=6" in err and "decade=1" in err
    assert "smallest side 2.5" in err and "128 x 80" in err
    assert not (tmp_path / "out").exists()


def test_ray_at_a_third_of_the_torus_runs(tmp_path, monkeypatch):
    """The 7.5 x 5.625 torus of 240 x 180 cells holds the ray of 1.875 at exactly a third of
    its short side, so the check goes on to sample it."""
    class Sampled(Exception):
        pass

    def samples(spec, mesh, Y, ds, rho, axis=0):
        raise Sampled(max(ds))

    p = tmp_path / "ray.json"
    p.write_text(json.dumps(_ray_scenario([240, 180])))
    ctx = cli.build_context(cli.load_scenario(str(p)))
    monkeypatch.setattr(V, "pointwise_ray_samples", samples)
    with pytest.raises(Sampled) as reached:
        cli._run_pointwise_decay(ctx, rho_cells=2, d_min_cells=6)
    assert reached.value.args[0] == pytest.approx(cli.RAY_TORUS_FRACTION * 5.625, rel=1e-12)


@pytest.mark.parametrize("n, sides, want", [
    (2, (4.0, 3.0), -1.91), (2, (3.0, 3.0), -1.83), (2, (2.5, 1.5), -1.46), (1, (3.0,), -0.88)])
def test_continuum_torus_kernel_along_the_ray(n, sides, want):
    """The exponent the continuum torus kernel fits along the default ray, 8 probes over a
    decade, on boxes of ``sides`` ray lengths: ``RAY_TORUS_FRACTION``'s comment."""
    ds = 10 ** (np.arange(8) / 7 - 1)  # the longest ray is 1
    g = [wrapped_heat_kernel(n, d * d, [[d] + [0.0] * (n - 1)], sides)[0] for d in ds]
    assert V.loglog_fit(ds, g).exponent == pytest.approx(want, abs=0.005)


def test_failing_check_exit_1(tmp_path):
    sc = json.loads((SCEN / "heat-1d-core.json").read_text())
    sc["checks"] = [{"name": "semigroup", "s_step": 0, "r_step": 32, "t_step": 80,
                     "tolerance": 1e-18}]
    p = tmp_path / "fail.json"
    p.write_text(json.dumps(sc))
    assert cli.run(str(p), out_dir=tmp_path / "out") == 1


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unexpected_error_exit_4(tmp_path, capsys, monkeypatch, command):
    """An exception other than ConfigError or SolverError is an internal error: exit 4
    with its traceback on stderr, and no output, since exit 1 means a failing check."""
    sc = json.loads((SCEN / "heat-1d-sweep.json").read_text())
    sc["checks"] = [{"name": "gaussian", "rho_cells": 6}]
    sc["sweep"] = {"check": "gaussian", "field": "c_fit"}
    p = tmp_path / "bug.json"
    p.write_text(json.dumps(sc))
    kinds, _ = cli.CHECKS["gaussian"]

    def builder(ctx, **params):
        raise RuntimeError("a bug in a check builder")

    monkeypatch.setitem(cli.CHECKS, "gaussian", (kinds, builder))
    argv = [command, str(p), "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--axis", "rho", "--values", "8,4"]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert err.rstrip().endswith("RuntimeError: a bug in a check builder")
    assert not (tmp_path / "out").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_rows(heading: str, first: str) -> list:
    """The cells of the README table under ``heading`` whose header starts with ``first``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    table = section.split(f"| {first} |", 1)[1].split("\n\n", 1)[0]
    return [[cell.strip() for cell in line.strip("|").split(" | ")]
            for line in table.splitlines()[2:]]


def test_readme_exit_code_table_matches_exit_code(capsys):
    """README's exit codes, in order, are what ``cli._exit_code`` returns for a passing
    and a failing run and for each kind of error."""
    def raising(exc):
        def body():
            raise exc("boom")
        return body

    bodies = [lambda: 0, lambda: 1, raising(ConfigError), raising(greenlab.SolverError),
              raising(RuntimeError)]
    rows = _readme_rows("Command line", "exit code")
    assert [int(code) for code, _ in rows] == [cli._exit_code(body) for body in bodies]
    assert "ConfigError" in rows[2][1] and "SolverError" in rows[3][1]
    assert "traceback" in rows[4][1] and "Traceback" in capsys.readouterr().err


def test_readme_key_table_matches_the_kinds():
    """README's key table lists the top-level, mesh, table-preset and sweep keys in the
    order of ``cli``'s kinds tables, with their JSON types; a key it calls required is
    one whose absence exits 2, and an optional one may be left out."""
    kinds = {"": cli._SCENARIO_KINDS, "mesh.": cli._MESH_KINDS, "preset.": cli._TABLE_KINDS,
             "sweep.": cli._SWEEP_KINDS}
    keys = [(where, key, kind) for where, table in kinds.items() for key, kind in table.items()]
    rows = _readme_rows("Command line", "key")
    assert [(key, kind) for key, kind, _ in rows] == [
        (f"`{where}{key}`", cli._describe(kind)) for where, key, kind in keys]
    base = json.loads((SCEN / "heat-1d-sweep.json").read_text())
    base["preset"] = {"table": "coefficients.csv", "lambda": 1.0, "Lambda": 1.0}
    for (_, _, note), (where, key, _) in zip(rows, keys):
        sc = json.loads(json.dumps(base))
        (sc[where[:-1]] if where else sc).pop(key, None)
        if where + key == "preset.table":  # without it the preset is a named one
            with pytest.raises(ConfigError, match="preset.name must be one of"):
                cli._check_scenario(sc)
        elif note.startswith("required"):
            with pytest.raises(ConfigError, match=f"{where}{key} is missing"):
                cli._check_scenario(sc)
        else:
            assert note.startswith("optional"), where + key
            cli._check_scenario(sc)


def test_davies_gamma_zero_runs_on_a_dirichlet_mesh(tmp_path):
    # the pinned layer makes the datum non-constant, so gamma = 0 checks plain L2 decay
    sc = json.loads((SCEN / "heat-1d-core.json").read_text())
    sc["mesh"]["boundary"] = "dirichlet"
    sc["checks"] = [{"name": "davies", "gamma": 0.0}]
    p = tmp_path / "davies.json"
    p.write_text(json.dumps(sc))
    assert cli.run(str(p), out_dir=tmp_path / "out") == 0
    [rec] = json.loads((tmp_path / "out" / "report.json").read_text())["report"]["records"]
    assert rec["fitted"]["gamma"] == 0.0 and rec["fitted"]["ratio"] < 1.0


def test_report_byte_determinism(tmp_path):
    cli.run(scenario_path("heat-1d-core.json"), out_dir=tmp_path / "a")
    cli.run(scenario_path("heat-1d-core.json"), out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()


def test_report_independent_of_blas_threads(tmp_path):
    """The same scenario writes the same report.json under 1 and 2 BLAS threads."""
    src = os.path.dirname(os.path.dirname(greenlab.__file__))
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads-{threads}"
        subprocess.run([sys.executable, "-m", "greenlab.cli", "run",
                        scenario_path("heat-1d-core.json"), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


LINALG = ("scipy.sparse", "scipy.sparse.linalg", "scipy.linalg")
# a Fourier run transforms with np.fft and builds no sparse matrix
UNUSED = LINALG + ("scipy.fft",)


def _fresh(tmp_path, code: str, watched=LINALG):
    """Run ``code`` in a fresh interpreter; return its ``result`` and which of ``watched`` it
    loaded.

    The test modules import ``scipy.sparse`` and ``scipy.sparse.linalg``
    themselves, so only a fresh process shows what greenlab imports.  The
    process finds greenlab and, for ``code`` that imports it, ``reference``.
    """
    src = os.path.dirname(os.path.dirname(greenlab.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, tests, os.environ.get("PYTHONPATH")])))
    probe = (f"result = None\n{code}\nimport json, sys\n"
             f"print(json.dumps([result, [m for m in {tuple(watched)!r} if m in sys.modules]]))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path, check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def _heat_2d(**changes):
    """A small periodic 2-D heat scenario, which solves only by Fourier."""
    sc = {"name": "heat-2d-small", "preset": {"name": "heat", "n": 2},
          "mesh": {"cells": [16, 16], "box": [[0.0, 1.0], [0.0, 1.0]], "tau": 2.0 ** -10,
                   "t0": 0.0, "steps": 64, "boundary": "periodic"},
          "theta": 1.0, "seed": 3,
          "checks": [{"name": "duality", "y_fracs": [[0.3, 0.3]], "x_fracs": [[0.7, 0.7]],
                      "rho_cells": [2], "sigma_cells": [2], "s_step": 20, "t_step": 44},
                     {"name": "adjoint"},
                     {"name": "davies", "gamma": 0.5},
                     {"name": "bounded-initial"},
                     {"name": "interior-decay", "ladder_cells": [2, 3, 4], "solutions": 2,
                      "x_frac": [0.5, 0.5]}]}
    return dict(sc, **changes)


class TestDeferredLinalg:
    """``scipy.sparse`` and ``scipy.sparse.linalg`` load only in runs that use them, at their
    first SuperLU step."""

    def test_import_loads_no_linalg(self, tmp_path):
        assert _fresh(tmp_path, "import greenlab.cli", UNUSED) == [None, []]

    @pytest.mark.parametrize("case", ["heat-2d", "heat-1d-sweep"])
    def test_fourier_run_loads_no_linalg(self, tmp_path, case):
        # periodic and x-independent, without an oracle: Fourier in 2-D and 1-D alike
        sc = _heat_2d() if case == "heat-2d" else json.loads((SCEN / f"{case}.json").read_text())
        (tmp_path / "sc.json").write_text(json.dumps(sc))
        code = "from greenlab import cli\nresult = cli.run('sc.json', 'out')"
        assert _fresh(tmp_path, code, UNUSED) == [0, []]

    @pytest.mark.parametrize("case", ["heat-1d-core", "rotating-2x2", "columns-rotating-1d"])
    def test_oracle_run_loads_no_linalg(self, tmp_path, case):
        # periodic and x-independent, with an oracle: the space-time oracle solves by numpy
        # alone, and no run needs ``numpy.ma``
        if case == "columns-rotating-1d":
            spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH_RUN)
            bench = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(bench)
            sc = bench.make_scenario(case, 1)
        else:
            sc = json.loads((SCEN / f"{case}.json").read_text())
        assert any(chk["name"] == "oracle" for chk in sc["checks"])
        (tmp_path / "sc.json").write_text(json.dumps(sc))
        code = "from greenlab import cli\nresult = cli.run('sc.json', 'out')"
        assert _fresh(tmp_path, code, LINALG + ("numpy.ma",)) == [0, []]

    def test_seeded_data_loads_no_numpy_random(self, tmp_path):
        # adjoint, oracle, interior-decay, local-boundedness and the parabolicity audit
        # draw from ``seeded_uniform``, which needs only numpy's integer arithmetic
        if _fresh(tmp_path, "import numpy", ("numpy.random",)) != [None, []]:
            pytest.skip("this numpy imports numpy.random with numpy itself")
        sc = json.loads((SCEN / "heat-1d-core.json").read_text())
        sc["checks"] += [{"name": "interior-decay", "ladder_cells": [2, 3, 4], "solutions": 2},
                         {"name": "local-boundedness"}]
        (tmp_path / "sc.json").write_text(json.dumps(sc))
        code = ("from greenlab import cli, make_preset, validate_parabolicity\n"
                "validate_parabolicity(make_preset('almost-diagonal'), 16)\n"
                "result = cli.run('sc.json', 'out')")
        assert _fresh(tmp_path, code, ("numpy.random",)) == [0, []]

    @pytest.mark.parametrize("case, digest, run_loads", [
        ("dirichlet", "635b7753a7a3f79f", LINALG), ("x-oscillatory", "64b03ea5ac9b2787", LINALG),
        ("table", "642e6f85845dc107", ())])
    def test_set_up_loads_no_linalg(self, tmp_path, case, digest, run_loads):
        """Set-up loads no ``scipy.sparse*``; a run loads it at its first SuperLU step.  A
        table is x-dependent by its flag, but this one is constant in x and t, so every
        step is a Fourier step and the run never loads it.  Each report has the bytes
        written when set-up imported ``scipy.sparse.linalg`` on a guess from the mesh and
        the flag (digests recorded then)."""
        if case == "dirichlet":
            sc = _heat_2d(mesh=dict(_heat_2d()["mesh"], boundary="dirichlet"))
        elif case == "table":
            rows = [f"0.0,{x},{y},{a},{b},1,1,{float(a == b)}" for x in (0.0, 1.0)
                    for y in (0.0, 1.0) for a in (1, 2) for b in (1, 2)]
            (tmp_path / "table.csv").write_text("# 2 1 1 2 2\n" + "\n".join(rows) + "\n")
            sc = _heat_2d(preset={"table": "table.csv", "lambda": 1.0, "Lambda": 2.0})
        else:
            sc = _heat_2d(preset={"name": "x-oscillatory", "n": 2})
        (tmp_path / "sc.json").write_text(json.dumps(sc))
        code = ("import hashlib, sys\nfrom greenlab import cli\n"
                "cli.build_context(cli.load_scenario('sc.json'))\n"
                f"set_up = [m for m in {LINALG!r} if m in sys.modules]\n"
                "code = cli.run('sc.json', 'out')\n"
                "report = hashlib.sha256(open('out/report.json', 'rb').read()).hexdigest()\n"
                "result = [set_up, code, report[:16]]")
        assert _fresh(tmp_path, code) == [[[], 0, digest], list(run_loads)]

    def test_public_assemble_returns_the_same_csr_matrix(self, tmp_path):
        """The reference ``assemble``, gathered by the solver's own ``_stencil`` and
        ``_gathered``, in a process that never loaded ``scipy.sparse``, loads it and returns
        the CSR matrix that greenlab returned when it imported the module eagerly: the same
        digests of data, indices and indptr, for an N = 2 field with every tensor entry
        nonzero and varying in x, on a 2-D periodic, a 2-D dirichlet and a 1-D dirichlet mesh.
        The field takes only sums and products, which IEEE arithmetic rounds the same way
        on every platform."""
        code = """
import hashlib
import numpy as np
from greenlab import CoefficientField, Domain, Mesh, OperatorSpec
from reference import assemble

BASE = np.array([[[[2.0, 0.3], [-0.3, 1.5]], [[0.2, 0.1], [0.05, 0.4]]],
                 [[[0.1, -0.2], [0.3, 0.25]], [[1.8, 0.2], [-0.1, 2.2]]]])

result = []
for mode, n in (("periodic", 2), ("dirichlet", 2), ("dirichlet", 1)):
    def cross(t, pts, n=n):
        s = (pts[:, 0] * (1.0 - pts[:, 0]) + t)[:, None, None, None, None]
        return BASE[:n, :n] * (1.0 + 0.1 * s)

    domain = Domain((0.0,) * n, (1.0, 1.5)[:n], mode)
    mesh = Mesh(domain, (16, 9)[:n], tau=2.0 ** -10, t0=0.0, steps=4)
    coeffs = CoefficientField(n, 2, 0.5, 4.0, float("inf"), "cross", cross, x_dependent=True,
                              time_dependent=True)
    L = assemble(mesh, OperatorSpec(coeffs, domain), float(mesh.times[1]))
    h = hashlib.sha256()
    for arr in (L.data, L.indices, L.indptr):
        h.update(arr.dtype.str.encode() + arr.tobytes())
    result.append([type(L).__name__, h.hexdigest()[:16]])
"""
        got, loaded = _fresh(tmp_path, code, ("scipy.sparse",))
        assert loaded == ["scipy.sparse"]  # by ``assemble`` itself, through ``solver.sp``
        # recorded with greenlab's eager ``import scipy.sparse``, before it was deferred
        digests = ("671ffcfd3fea943c", "f125f2086ae1a26c", "f06b0d5d6c29d1ec")
        assert got == [["csr_matrix", digest] for digest in digests]

    def test_replaced_spla_sees_every_factorization(self, tmp_path):
        # a wrapper that replaces ``solver.spla`` and reads ``splu`` when it is
        # installed, as a tracer does, before anything has imported the module
        code = """
import numpy as np
from greenlab import Domain, Mesh, OperatorSpec, make_preset, solver
from reference import solve_forward

class Counting:
    def __init__(self, spla):
        self._spla, self.calls, real = spla, 0, spla.splu

        def splu(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._spla, name)

solver.spla = wrapper = Counting(solver.spla)
domain = Domain((0.0,), (1.0,), "dirichlet")
mesh = Mesh(domain, (16,), tau=1 / 256, t0=0.0, steps=8)
spec = OperatorSpec(make_preset("rotating", w0=0.5, omega=2.0), domain)
solve_forward(spec, mesh, np.ones((2, 16)), None, 0.0, float(mesh.times[8]))
factors = len(solver._STORE.entries)
result = [wrapper.calls, factors]
"""
        assert _fresh(tmp_path, code) == [[8, 8], list(LINALG)]


LAPACK = ("lstsq", "pinv", "inv", "solve", "svd", "eigh")

# periodic N = 1 runs and sweeps: (scenario, sweep values along rho or None)
SCALAR_CASES = {"heat-1d-core": ("heat-1d-core.json", None),
                "heat-1d-sweep": ("heat-1d-sweep.json", None),  # heat-kernel's rho ladder
                "rho-sweep": ("heat-1d-sweep.json", [8, 6, 4]),
                "heat-2d": (None, None)}  # _heat_2d(), with interior-decay


def _scalar_case(tmp_path, case, out):
    """Run or sweep one of ``SCALAR_CASES`` into ``out``; its exit code and outputs."""
    name, values = SCALAR_CASES[case]
    if name is None:
        (tmp_path / "sc.json").write_text(json.dumps(_heat_2d()))
    path = str(tmp_path / "sc.json") if name is None else scenario_path(name)
    code = cli.run(path, out) if values is None else cli.sweep(path, "rho", values, out)
    return code, {f.name: f.read_bytes() for f in sorted(Path(out).iterdir())}


class TestClosedFormFits:
    """Line fits are closed forms: a periodic N = 1 run calls no numpy LAPACK routine."""

    @pytest.mark.parametrize("case", SCALAR_CASES)
    def test_scalar_run_calls_no_lapack(self, tmp_path, monkeypatch, case):
        plain = _scalar_case(tmp_path, case, tmp_path / "plain")
        assert plain[0] == 0
        monkeypatch.setattr(greenlab.solver, "_STORE", greenlab.solver._StepStore())

        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"np.linalg.{name} was called")
            return call

        for name in LAPACK:
            monkeypatch.setattr(np.linalg, name, refuse(name))
        assert _scalar_case(tmp_path, case, tmp_path / "guarded") == plain

    def test_bundled_fits_match_lapack(self, tmp_path, monkeypatch):
        fits, ladders = [], []
        loglog_fit, rho_weights = V.loglog_fit, V._rho_weights
        monkeypatch.setattr(V, "loglog_fit",
                            lambda xs, ys: fits.append((xs, ys)) or loglog_fit(xs, ys))
        monkeypatch.setattr(V, "_rho_weights",
                            lambda rhos: ladders.append(rhos) or rho_weights(rhos))
        for case in SCALAR_CASES:
            assert _scalar_case(tmp_path, case, tmp_path / case)[0] == 0
        assert cli.sweep(scenario_path("heat-1d-sweep.json"), "h", [1 / 32, 1 / 64, 1 / 128],
                         tmp_path / "h-sweep") == 0
        # two sweeps and interior-decay's two solutions; the run and the h sweep's three
        # points each extrapolate heat-kernel's rho ladder
        assert len(fits) == 4 and len(ladders) == 4
        monkeypatch.undo()
        assert_fits_match_lapack(fits, ladders)


class TestSweep:
    def test_h_sweep_order(self, tmp_path, capsys):
        code = cli.sweep(scenario_path("heat-1d-sweep.json"), "h",
                         [1 / 32, 1 / 64, 1 / 128], out_dir=tmp_path / "sw")
        assert code == 0
        out = capsys.readouterr().out
        assert "observed order" in out
        order = float((tmp_path / "sw" / "order.txt").read_text().split()[2])
        assert order >= 1.8
        assert (tmp_path / "sw" / "sweep.csv").exists()

    def test_rho_sweep_order_near_two(self, tmp_path):
        code = cli.sweep(scenario_path("heat-1d-sweep.json"), "rho",
                         [8, 6, 4], out_dir=tmp_path / "sw")
        assert code == 0
        order = float((tmp_path / "sw" / "order.txt").read_text().split()[2])
        assert 1.5 <= order <= 2.6

    def test_rho_sweep_keeps_fractional_radii(self, tmp_path, capsys):
        # rho_cells is a number of cells, not an integer: 4.9 ran as 4 once
        code = cli.main(["sweep", scenario_path("heat-1d-sweep.json"), "--axis", "rho",
                         "--values", "4.9,4", "--out", str(tmp_path / "sw")])
        assert code == 0
        rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        (rho_a, err_a), (rho_b, err_b) = (map(float, row.split(",")) for row in rows)
        assert (rho_a, rho_b) == (4.9, 4.0) and err_a != err_b

    def test_rho_sweep_keeps_the_checks_own_shape(self, tmp_path, monkeypatch):
        # gaussian takes one radius, heat-kernel a list of them
        sc = json.loads((SCEN / "heat-1d-sweep.json").read_text())
        sc["checks"].append({"name": "gaussian"})
        sc["sweep"] = {"check": "gaussian", "field": "c_fit"}
        p = tmp_path / "sweep.json"
        p.write_text(json.dumps(sc))
        seen = []
        kinds, _ = cli.CHECKS["gaussian"]

        def builder(ctx, **params):
            seen.append(params["rho_cells"])
            return cli.V.CheckRecord("gaussian", "-", "pass", 0.0, fitted={"c_fit": 1.0})

        monkeypatch.setitem(cli.CHECKS, "gaussian", (kinds, builder))
        assert cli.sweep(str(p), "rho", [8, 4], out_dir=tmp_path / "sw") == 0
        assert seen == [8, 4]

    def test_run_and_sweep_share_one_check_runner(self, tmp_path, monkeypatch):
        sc = json.loads((SCEN / "heat-1d-sweep.json").read_text())
        sc["checks"] = [{"name": "gaussian", "rho_cells": 6}]
        sc["sweep"] = {"check": "gaussian", "field": "c_fit"}
        p = tmp_path / "sweep.json"
        p.write_text(json.dumps(sc))
        kinds, _ = cli.CHECKS["gaussian"]
        monkeypatch.setitem(cli.CHECKS, "gaussian", (kinds, lambda ctx, **params: cli.V.CheckRecord(
            "gaussian", "-", "pass", 0.0, fitted={"c_fit": 1.0})))
        ran = []
        real = cli._run_check
        monkeypatch.setattr(cli, "_run_check", lambda ctx, chk: ran.append(dict(chk)) or real(ctx, chk))
        assert cli.run(str(p), out_dir=tmp_path / "out") == 0
        assert cli.sweep(str(p), "rho", [8, 4], out_dir=tmp_path / "sw") == 0
        assert [chk["rho_cells"] for chk in ran] == [6, 8, 4]

    def test_rho_sweep_of_a_check_without_radius_exit_2(self, tmp_path, capsys):
        sc = json.loads((SCEN / "heat-1d-sweep.json").read_text())
        sc["checks"].append({"name": "semigroup"})
        sc["sweep"] = {"check": "semigroup", "field": "max_residual"}
        p = tmp_path / "sweep.json"
        p.write_text(json.dumps(sc))
        assert cli.sweep(str(p), "rho", [8, 4], out_dir=tmp_path / "sw") == 2
        assert "rho_cells" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, want", [
        ("field", [1], "sweep.field must be a string, got [1]"),
        ("check", None, "sweep.check is missing: it must be a string"),
    ])
    def test_malformed_sweep_section_exit_2(self, tmp_path, capsys, key, value, want):
        sc = json.loads((SCEN / "heat-1d-sweep.json").read_text())
        if value is None:
            del sc["sweep"][key]
        else:
            sc["sweep"][key] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(sc))
        assert cli.sweep(str(p), "rho", [8, 6], out_dir=tmp_path / "out") == 2
        assert want in capsys.readouterr().err

    @pytest.mark.parametrize("axis, values", [
        ("rho", "abc"), ("rho", "1/0"), ("rho", "nan"), ("h", "0"), ("h", "1/32,,1/64"),
        ("h", "1/"), ("tau", "inf"), ("tau", "=-0.001"),
    ])
    def test_values_not_positive_numbers_exit_2(self, tmp_path, capsys, axis, values):
        # abc, 1/0 and nan ended in tracebacks while parsing, 0 on h in the sweep
        argv = ["sweep", scenario_path("heat-1d-sweep.json"), "--axis", axis,
                "--out", str(tmp_path / "sw")]
        argv += [f"--values{values}"] if values.startswith("=") else ["--values", values]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "argument --values: " in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_single_value_no_fit(self, tmp_path):
        code = cli.sweep(scenario_path("heat-1d-sweep.json"), "h", [1 / 64],
                         out_dir=tmp_path / "sw")
        assert code == 0
        assert not (tmp_path / "sw" / "order.txt").exists()
        assert len((tmp_path / "sw" / "sweep.csv").read_text().splitlines()) == 2

    def test_non_monotone_values_rejected(self, tmp_path):
        assert cli.sweep(scenario_path("heat-1d-sweep.json"), "h",
                         [1 / 32, 1 / 128, 1 / 64], out_dir=tmp_path / "sw") == 2

    @pytest.mark.parametrize("values", ["4,4", "8,6,6", "4,4,8"])
    def test_repeated_values_exit_2(self, tmp_path, capsys, values):
        # two equal points leave the observed order undetermined
        code = cli.main(["sweep", scenario_path("heat-1d-sweep.json"), "--axis", "rho",
                         "--values", values, "--out", str(tmp_path / "sw")])
        assert code == 2
        assert "sweep --values must be strictly monotone" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_main_entrypoint(self, tmp_path, capsys):
        code = cli.main(["sweep", scenario_path("heat-1d-sweep.json"),
                         "--axis", "h", "--values", "1/32,1/64",
                         "--out", str(tmp_path / "sw")])
        assert code == 0


class TestBuilderCoverage:
    def test_fit_checks_scenario(self, tmp_path):
        # one long-box scenario drives the fit-style builders end to end
        h = 2.5 / 320
        sc = {
            "name": "builder-fits",
            "preset": {"name": "heat", "n": 1},
            "mesh": {"cells": [320], "box": [[0.0, 2.5]], "tau": h * h / 2,
                     "steps": int(0.45 / (h * h / 2)) + 8, "t0": 0.0,
                     "boundary": "periodic"},
            "theta": 1.0,
            "seed": 1,
            "checks": [
                {"name": "causality", "rho_cells": [4, 3], "s_step": 40,
                 "t_step": 2000, "y_frac": [0.5]},
                {"name": "pointwise-decay", "rho_cells": 2, "d_min_cells": 6,
                 "n_points": 8, "y_frac": [0.1]},
                {"name": "weak-levels", "rho_cells": 2, "y_frac": [0.5]},
                {"name": "weak-levels", "rho_cells": 2, "y_frac": [0.5],
                 "gradient": True},
                {"name": "gaussian", "rho_cells": 4,
                 "dt_steps": [3000, 6000, 12000], "y_frac": [0.5]},
                {"name": "interior-decay",
                 "ladder_cells": [6, 8, 12, 16, 24, 32], "solutions": 5},
            ],
        }
        p = tmp_path / "fits.json"
        p.write_text(json.dumps(sc))
        assert cli.run(str(p), out_dir=tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        names = [r["name"] for r in report["report"]["records"]]
        assert names.count("weak-levels-value") == 1
        assert names.count("weak-levels-gradient") == 1

    def test_initial_data_scenario(self, tmp_path):
        h = 1.0 / 128
        sc = {
            "name": "builder-initial",
            "preset": {"name": "heat", "n": 1},
            "mesh": {"cells": [128], "box": [[0.0, 1.0]], "tau": h * h / 2,
                     "steps": 40, "t0": 0.0, "boundary": "periodic"},
            "checks": [
                {"name": "initial-trace", "width": 0.1, "x0_frac": [0.5],
                 "t_steps": [4, 8, 16, 32]},
                {"name": "bounded-initial", "t_step": 32},
            ],
        }
        p = tmp_path / "init.json"
        p.write_text(json.dumps(sc))
        assert cli.run(str(p), out_dir=tmp_path / "out") == 0

    def test_local_boundedness_scenario(self, tmp_path):
        sc = {
            "name": "builder-local",
            "preset": {"name": "heat", "n": 1},
            "mesh": {"cells": [48], "box": [[0.0, 1.0]], "tau": 1 / 2048,
                     "steps": 96, "t0": 0.0, "boundary": "periodic"},
            "checks": [
                {"name": "local-boundedness", "x_frac": [0.5], "R": 8 / 48,
                 "seed": 3},
            ],
        }
        p = tmp_path / "local.json"
        p.write_text(json.dumps(sc))
        assert cli.run(str(p), out_dir=tmp_path / "out") == 0

    def test_2d_default_positions(self, tmp_path):
        # every check below takes its positions from the per-axis defaults
        sc = {
            "name": "builder-2d-defaults",
            "preset": {"name": "heat", "n": 2},
            "mesh": {"cells": [16, 16], "box": [[0.0, 1.0], [0.0, 1.0]],
                     "tau": 1 / 1024, "steps": 96, "boundary": "periodic"},
            "checks": [
                {"name": "duality", "rho_cells": [2], "sigma_cells": [2]},
                {"name": "causality", "rho_cells": [3, 2]},
                {"name": "initial-trace", "width": 0.25, "t_steps": [1, 2, 4, 8]},
                {"name": "interior-decay", "ladder_cells": [2, 3, 4], "solutions": 2},
                {"name": "local-boundedness", "R": 0.25},
            ],
        }
        p = tmp_path / "defaults2d.json"
        p.write_text(json.dumps(sc))
        assert cli.run(str(p), out_dir=tmp_path / "out") == 0
        # an explicit fraction must still name every axis
        sc["checks"] = [{"name": "causality", "rho_cells": [3, 2], "y_frac": [0.5]}]
        p.write_text(json.dumps(sc))
        assert cli.run(str(p), out_dir=tmp_path / "bad") == 2

    def test_fraction_on_a_cell_edge_takes_the_right_hand_cell(self):
        """floor(frac * cells), on odd and even edges alike; off an edge, the cell
        that holds the point; 1.0 wraps to cell 0."""
        domain = greenlab.Domain((0.0, 0.0), (1.0, 2.0), "periodic")
        mesh = greenlab.Mesh(domain, (32, 10), tau=1 / 64, t0=0.0, steps=4)
        for fracs, cells in (([3 / 32, 0.5], (3, 5)), ([4 / 32, 0.3], (4, 3)),
                             ([0.1, 0.25], (3, 2)), ([1.0, 0.95], (0, 9))):
            want = mesh.centers[cells[0] * 10 + cells[1]]
            assert np.array_equal(cli._cell_at_frac(mesh, fracs, 0.5), want), fracs
        # the default fraction 0.5 sits on the edge between cells 15 and 16
        assert np.array_equal(cli._cell_at_frac(mesh, None, 0.5), mesh.centers[16 * 10 + 5])

    @pytest.mark.parametrize("slabs", [80, 200])
    def test_local_boundedness_cylinder_taller_than_window_exit_2(self, tmp_path, capsys,
                                                                  slabs):
        # the outer cylinder spans more slabs than the 64-step window holds
        tau = 2.0 ** -9
        sc = {
            "name": "builder-local-tall",
            "preset": {"name": "heat", "n": 1},
            "mesh": {"cells": [32], "box": [[0.0, 1.0]], "tau": tau, "steps": 64,
                     "boundary": "periodic"},
            "checks": [{"name": "local-boundedness", "t_step": 64,
                        "R": math.sqrt(slabs * tau)}],
        }
        p = tmp_path / "tall.json"
        p.write_text(json.dumps(sc))
        assert cli.run(str(p), out_dir=tmp_path / "out") == 2
        assert "leaves the mesh time grid" in capsys.readouterr().err


def test_non_finite_table_coefficient_exit_2(tmp_path, capsys):
    # heat table on 4 x-nodes at t = 0 and t = 0.05; the node x = 2/3 is inf
    # in the second time slice only (every face weighs it by 0 or by a
    # positive weight, so no inf * 0), and the first step past t = 0.05 must fail
    xs = [0.0, 1 / 3, 2 / 3, 1.0]
    lines = ["# 1 1 2 4"]
    for t in (0.0, 0.05):
        for k, x in enumerate(xs):
            value = "inf" if (t, k) == (0.05, 2) else "1.0"
            lines.append(f"{t},{x},1,1,1,1,{value}")
    table = tmp_path / "inf-once.csv"
    table.write_text("\n".join(lines) + "\n")
    sc = {
        "name": "non-finite-table",
        "preset": {"table": str(table), "lambda": 1.0, "Lambda": 1.0, "R_c": 1.0},
        "mesh": {"cells": [16], "box": [[0.0, 1.0]], "tau": 2.0 ** -8, "steps": 32,
                 "boundary": "periodic"},
        "checks": [{"name": "adjoint", "t_step": 32, "tolerance": 1e-12}],
    }
    p = tmp_path / "inf.json"
    p.write_text(json.dumps(sc))
    assert cli.run(str(p), out_dir=tmp_path / "out") == 2
    # step 13 (t = 13 / 256) is the first time past the faulty slice
    assert "non-finite coefficient at a face (t=0.05078125)" in capsys.readouterr().err
