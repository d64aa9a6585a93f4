"""Numerical laboratory for Green's matrices of divergence-form parabolic systems."""

from .errors import ConfigError, SolverError
from .problem import (CoefficientField, Domain, OperatorSpec, VmoProbe,
                      diagonal_distance, load_table, make_preset,
                      transpose_coefficients, validate_parabolicity, vmo_modulus)
from .mesh import EnergyNorm, Mesh, Trajectory, dirichlet_energy, energy_norm, parabolic_distance
from .solver import (DiscreteOperator, ThetaScheme, assemble, dense_spacetime_oracle,
                     solve_backward, solve_forward, step_forward)
from .green import (GreenColumn, Propagator, apply_initial, apply_representation,
                    averaged_green_column, block_at, cylinder_average,
                    extrapolated_green_column, green_block_columns, heat_kernel,
                    propagator, rho_refinement, transpose_block_columns,
                    transpose_green_column, wrapped_heat_kernel)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
