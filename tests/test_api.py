import inspect
import types

import greenlab
from greenlab import cli, green, io, mesh, problem, solver, verify

# Public names that only tests called; they are gone from the package.
DELETED = {
    green: ("apply_representation", "apply_initial", "block_at", "GREEN_THETA",
            "_richardson_column", "Propagator",
            # the whole-column and dense-propagator layer: checks keep what they read
            "GreenColumn", "_green_columns", "averaged_green_column", "transpose_green_column",
            "green_block_columns", "transpose_block_columns", "extrapolated_green_column",
            "rho_refinement", "RhoTable", "cylinder_average", "propagator", "_propagators",
            "PROPAGATOR_CAP"),
    solver: ("step_forward", "DiscreteOperator", "solve_backward", "_kernel_terms",
             # no module of the package called them; tests/reference.py rebuilds them
             "assemble", "solve_forward"),
    mesh: ("dirichlet_energy", "EnergyNorm", "energy_norm"),
    problem: ("vmo_modulus", "VmoProbe", "diagonal_distance", "transpose_coefficients"),
    verify: ("_rel_residual",),
    io: ("trajectory_to_csv", "trajectory_to_binary", "trajectory_from_binary",
         "propagator_to_csv", "MAGIC", "write_coefficient_table"),
}


def test_all_pinned():
    assert greenlab.__all__ == (
        "ConfigError", "SolverError",
        "CoefficientField", "Domain", "OperatorSpec", "load_table", "make_preset",
        "validate_parabolicity",
        "Mesh", "Trajectory", "parabolic_distance",
        "ThetaScheme", "dense_spacetime_oracle",
        "heat_kernel", "wrapped_heat_kernel",
    )


def test_all_names_public_objects_only():
    names = greenlab.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert not isinstance(getattr(greenlab, name), types.ModuleType), name
    star = {}
    exec("from greenlab import *", star)
    assert not any(isinstance(v, types.ModuleType) for v in star.values())
    modules = (greenlab, cli, green, io, mesh, problem, solver, verify)
    for gone in DELETED.values():
        for name in gone:
            assert name not in names
            assert not any(hasattr(module, name) for module in modules), name


def test_deleted_methods_and_options_are_gone():
    assert not hasattr(problem.Domain, "dist_to_boundary")
    # a field is its tensor; tests read single entries and transposes through
    # tests/reference.py
    for attr in ("eval", "transposed"):
        assert not hasattr(problem.CoefficientField, attr), attr
    # nothing read them; the boundary mode is the domain's
    assert not hasattr(mesh.Mesh, "boundary_mode")
    assert not hasattr(verify.BoundFit, "to_dict")
    assert set(verify.BoundFit.__dataclass_fields__) == {"exponent", "constant", "r2"}
    # a trajectory is its mesh, first step and values; tests read slices and cylinders
    # through tests/reference.py
    for attr in ("slice_l2", "N", "nslices", "times", "window", "slice_at", "cylinder"):
        assert not hasattr(mesh.Trajectory, attr), attr
    for fn in (solver._solve, solver.dense_spacetime_oracle):
        assert "slab_source" not in inspect.signature(fn).parameters
    # implicit Euler is the only time scheme
    for cls, attr in ((solver.ThetaScheme, "explicit"), (solver.ThetaScheme, "operator"),
                      (solver.ThetaScheme, "_operator"),
                      (problem.OperatorSpec, "effective_coeffs")):
        assert not hasattr(cls, attr), attr
    assert "transposed" not in problem.OperatorSpec.__dataclass_fields__
    assert "theta" not in cli.Context.__dataclass_fields__
    assert "size" not in inspect.signature(solver._StepStore.get).parameters
    for fn in (solver.ThetaScheme, solver._solve, solver.dense_spacetime_oracle,
               verify.check_gaffney, verify.davies_growth, verify.initial_trace_test,
               verify.check_bounded_initial):
        assert "theta" not in inspect.signature(fn).parameters, fn.__name__
