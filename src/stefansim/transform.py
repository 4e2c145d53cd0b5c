"""The map F from fixed-frame states to moving-frame profiles.

The solver works entirely in the fixed frame; F only transports the results.
Gluing the two half-line phases gives a function on the real line (zero at
the origin, zero outside [-L, L]); shifting by the boundary position produces
the moving-frame profile with a Dirichlet zero at the interface.
"""

from __future__ import annotations

import numpy as np

from .grids import Grid, padded

__all__ = ["F_transform"]


def F_transform(grid: Grid, x: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Values at ``pts`` of the moving-frame profile v(y) = glued(y - p) of the state row x = u1 | u2 | p.

    The glued function is u1 on (0, inf) and u2(-.) on (-inf, 0), linear
    between grid nodes and exactly zero at 0 and outside [-L, L], so v is
    exactly zero at the interface y = p.
    """
    U = padded(grid, x)
    xs = np.concatenate(([-grid.L], -grid.nodes[::-1], [0.0], grid.nodes, [grid.L]))
    # the padded u2 row reversed, then u1 without its zero at x = 0
    vals = np.concatenate((U[1, ::-1], U[0, 1:]))
    return np.interp(np.asarray(pts, dtype=float) - float(x[-1]), xs, vals, left=0.0, right=0.0)
