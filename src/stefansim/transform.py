"""Maps between fixed-frame states and moving-frame profiles.

The solver works entirely in the fixed frame; these maps only transport the
results.  Gluing the two half-line phases gives a function on the real line
(zero at the origin, zero outside [-L, L]); shifting by the boundary position
produces the moving-frame profile with a Dirichlet zero at the interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InterfaceNotZero
from .grids import Grid, padded

__all__ = ["MovingProfile", "iota", "F_transform", "F_inverse"]


def iota(grid: Grid, x: np.ndarray) -> Callable:
    """Glue the phases of the state row x into a function on the real line: u1 on (0, inf), u2(-.) on (-inf, 0).

    Evaluation is linear interpolation between grid nodes, exactly zero at 0
    and outside [-L, L].
    """
    U = padded(grid, x)
    xs = np.concatenate(([-grid.L], -grid.nodes[::-1], [0.0], grid.nodes, [grid.L]))
    # the padded u2 row reversed, then u1 without its zero at x = 0
    vals = np.concatenate((U[1, ::-1], U[0, 1:]))

    def evaluate(x):
        return np.interp(x, xs, vals, left=0.0, right=0.0)

    return evaluate


@dataclass(frozen=True)
class MovingProfile:
    """Profile v(.) sampled on evaluation points, with the interface position."""

    x: np.ndarray
    values: np.ndarray
    p_star: float
    _fn: Callable = field(repr=False)

    def evaluate(self, x):
        return self._fn(x)


def F_transform(grid: Grid, x: np.ndarray, eval_points: np.ndarray) -> MovingProfile:
    """Moving-frame profile v(y) = glued(y - p) of the state row x; exactly zero at the interface."""
    glued = iota(grid, x)
    p = float(x[-1])

    def v(y):
        return glued(np.asarray(y, dtype=float) - p)

    pts = np.asarray(eval_points, dtype=float)
    return MovingProfile(x=pts, values=v(pts), p_star=p, _fn=v)


def F_inverse(eval_points: np.ndarray, v_values: np.ndarray, p_star: float, grid: Grid):
    """Recover the state row u1 | u2 | p_star by sampling the profile at p_star +/- x_i.

    The profile must vanish at the interface (within 1e-9); values between
    evaluation points are linearly interpolated.
    """
    pts = np.asarray(eval_points, dtype=float)
    vals = np.asarray(v_values, dtype=float)
    at_interface = float(np.interp(p_star, pts, vals, left=0.0, right=0.0))
    if abs(at_interface) > 1e-9:
        raise InterfaceNotZero(f"profile value {at_interface} at the interface")
    u1 = np.interp(p_star + grid.nodes, pts, vals, left=0.0, right=0.0)
    u2 = np.interp(p_star - grid.nodes, pts, vals, left=0.0, right=0.0)
    return np.concatenate((u1, u2, [p_star]))
