"""Numerical laboratory for Green's matrices of divergence-form parabolic systems."""

from .errors import ConfigError, SolverError
from .problem import (CoefficientField, Domain, OperatorSpec, load_table, make_preset,
                      validate_parabolicity)
from .mesh import Mesh, Trajectory, parabolic_distance
from .solver import ThetaScheme, assemble, dense_spacetime_oracle, solve_forward
from .green import heat_kernel, wrapped_heat_kernel

__version__ = "0.1.0"

__all__ = (
    "ConfigError", "SolverError",
    "CoefficientField", "Domain", "OperatorSpec", "load_table", "make_preset",
    "validate_parabolicity",
    "Mesh", "Trajectory", "parabolic_distance",
    "ThetaScheme", "assemble", "dense_spacetime_oracle", "solve_forward",
    "heat_kernel", "wrapped_heat_kernel",
)
