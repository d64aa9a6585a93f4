"""Numerical laboratory for Green's matrices of divergence-form parabolic systems."""

from .errors import ConfigError, SolverError
from .problem import (CoefficientField, Domain, OperatorSpec, load_table, make_preset,
                      validate_parabolicity)
from .mesh import Mesh, Trajectory, parabolic_distance
from .solver import ThetaScheme, dense_spacetime_oracle
from .green import heat_kernel, wrapped_heat_kernel

__version__ = "0.1.0"

__all__ = (
    "ConfigError", "SolverError",
    "CoefficientField", "Domain", "OperatorSpec", "load_table", "make_preset",
    "validate_parabolicity",
    "Mesh", "Trajectory", "parabolic_distance",
    "ThetaScheme", "dense_spacetime_oracle",
    "heat_kernel", "wrapped_heat_kernel",
)
