"""Spectral exponential-Euler solver for one-dimensional stochastic
moving-boundary dynamics, with a Monte Carlo experiment harness."""

from .errors import (
    BoundaryLeftWindow,
    ConfigError,
    GridMismatch,
    NonFiniteState,
    StefansimError,
    WindowUnresolved,
)
from .grids import Grid, state_norm
from .operators import SpectralOperator, apply_A, semigroup, K_A
from .noise import AmbientGrid, Kernel, NoiseStream, gaussian_kernel
from .coefficients import CoefficientSet, TruncationSpec, h_r
from .solver import ExitEvent, SolveConfig, Trajectory, exit_times, solve, step
from .transform import F_transform

__version__ = "0.1.0"
