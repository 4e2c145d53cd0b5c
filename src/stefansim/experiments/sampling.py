"""Random grid functions and states for property suites and tests."""

from __future__ import annotations

import numpy as np

from ..grids import Grid, GridFunction, State
from ..operators import _dirichlet_eigenvalues, _from_modes, _to_modes


def smooth_gridfunction(rng: np.random.Generator, grid: Grid, amplitude: float = 1.0, decay: float = 3.0) -> GridFunction:
    """Random sine series with polynomially decaying coefficients (spatially smooth)."""
    k = np.arange(1, grid.M + 1)
    coeffs = amplitude * rng.standard_normal(grid.M) * k ** (-decay)
    return GridFunction(grid, _from_modes(coeffs, grid.M))


def rough_h2_gridfunction(rng: np.random.Generator, grid: Grid, sigma: float = 1.0) -> GridFunction:
    """Random function whose second difference is white noise: generic H2 roughness.

    Draw white noise w on the grid and solve d2 f = w in the sine basis; f is
    in the discrete H2 class but has no extra smoothness, which is the regime
    where the 1/sqrt(n) interface-gap rate is sharp.
    """
    w = sigma * rng.standard_normal(grid.M)
    f_hat = -_to_modes(w) / _dirichlet_eigenvalues(grid)
    return GridFunction(grid, _from_modes(f_hat, grid.M))


def smooth_state(rng: np.random.Generator, grid: Grid, amplitude: float = 1.0, decay: float = 3.0) -> State:
    return State(
        smooth_gridfunction(rng, grid, amplitude, decay),
        smooth_gridfunction(rng, grid, amplitude, decay),
        float(amplitude * rng.standard_normal()),
    )


def rough_state(rng: np.random.Generator, grid: Grid, sigma: float = 1.0) -> State:
    return State(
        rough_h2_gridfunction(rng, grid, sigma),
        rough_h2_gridfunction(rng, grid, sigma),
        float(sigma * rng.standard_normal()),
    )
