"""Random phases and state rows for property suites and tests."""

from __future__ import annotations

import numpy as np

from ..grids import Grid
from ..operators import _dirichlet_eigenvalues, dst


def smooth_phase(rng: np.random.Generator, grid: Grid, amplitude: float = 1.0, decay: float = 3.0) -> np.ndarray:
    """Random sine series with polynomially decaying coefficients (spatially smooth), shape (M,)."""
    k = np.arange(1, grid.M + 1)
    coeffs = amplitude * rng.standard_normal(grid.M) * k ** (-decay)
    return dst(coeffs) / (2.0 * (grid.M + 1))


def rough_h2_phase(rng: np.random.Generator, grid: Grid, sigma: float = 1.0) -> np.ndarray:
    """Random function whose second difference is white noise: generic H2 roughness, shape (M,).

    Draw white noise w on the grid and solve d2 f = w in the sine basis; f is
    in the discrete H2 class but has no extra smoothness, which is the regime
    where the 1/sqrt(n) interface-gap rate is sharp.
    """
    w = sigma * rng.standard_normal(grid.M)
    f_hat = -dst(w) / _dirichlet_eigenvalues(grid)
    return dst(f_hat) / (2.0 * (grid.M + 1))


def smooth_state(rng: np.random.Generator, grid: Grid, amplitude: float = 1.0, decay: float = 3.0) -> np.ndarray:
    """State row of two smooth phases and a normal boundary, drawn in the order u1, u2, p."""
    u1 = smooth_phase(rng, grid, amplitude, decay)
    u2 = smooth_phase(rng, grid, amplitude, decay)
    return np.concatenate((u1, u2, [amplitude * rng.standard_normal()]))


def rough_state(rng: np.random.Generator, grid: Grid, sigma: float = 1.0) -> np.ndarray:
    """State row of two H2-rough phases and a normal boundary, drawn in the order u1, u2, p."""
    u1 = rough_h2_phase(rng, grid, sigma)
    u2 = rough_h2_phase(rng, grid, sigma)
    return np.concatenate((u1, u2, [sigma * rng.standard_normal()]))
