import inspect
import types

import greenlab
from greenlab import green, io, mesh, problem, solver

# Public names that only tests called; they are gone from the package.
DELETED = {
    green: ("apply_representation", "apply_initial", "block_at"),
    solver: ("step_forward", "DiscreteOperator"),
    mesh: ("dirichlet_energy", "EnergyNorm", "energy_norm"),
    problem: ("vmo_modulus", "VmoProbe", "diagonal_distance", "transpose_coefficients"),
    io: ("trajectory_to_csv", "trajectory_to_binary", "trajectory_from_binary",
         "propagator_to_csv", "MAGIC", "write_coefficient_table"),
}


def test_all_names_public_objects_only():
    names = greenlab.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert not isinstance(getattr(greenlab, name), types.ModuleType), name
    star = {}
    exec("from greenlab import *", star)
    assert not any(isinstance(v, types.ModuleType) for v in star.values())
    for module, gone in DELETED.items():
        for name in gone:
            assert name not in names
            assert not hasattr(greenlab, name) and not hasattr(module, name), name


def test_deleted_methods_and_options_are_gone():
    assert not hasattr(green.Propagator, "apply")
    assert not hasattr(green.Propagator, "green_block")
    assert not hasattr(problem.Domain, "dist_to_boundary")
    assert not hasattr(mesh.Trajectory, "slice_l2")
    for fn in (solver.solve_forward, solver.solve_backward, solver.dense_spacetime_oracle):
        assert "slab_source" not in inspect.signature(fn).parameters
