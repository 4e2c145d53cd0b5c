"""The uniform grid on the truncated half-line [0, L] and the state format.

Functions live at the interior nodes x_i = i*h, i = 1..M, of a uniform grid
with h = L/(M+1).  Their values at x = 0 and x = L are implicitly zero
(Dirichlet constraint), which is what makes the discrete second difference
the Dirichlet Laplacian and keeps all norms consistent with the dynamics.

A state (u1, u2, p) -- right phase, reflected left phase and boundary
position -- is one row x = u1 | u2 | p of length 2M+1; a stack of states is
an array of such rows.  The model steps the padded form ``padded(grid, x)``
of shape (2, M+2): rows u1 and u2 with zero end columns for the Dirichlet
nodes.  The differences, norms and window functionals are written once, for
padded rows (``diff1``, ``diff2``, ``sq_norm``, ``padded_state_norm``,
``interface_weights``); ``state_norm`` reads a state row through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridMismatch, WindowUnresolved

__all__ = [
    "Grid",
    "padded",
    "diff1",
    "diff2",
    "interface_weights",
    "sq_norm",
    "padded_state_norm",
    "state_norm",
]


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, L] with M interior points, spacing h = L/(M+1)."""

    L: float
    M: int

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError(f"domain length must be positive, got {self.L}")
        if self.M < 4:
            raise ValueError(f"need at least 4 interior points, got {self.M}")

    @property
    def h(self) -> float:
        return self.L / (self.M + 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        """Interior node positions x_i = i*h, i = 1..M (read-only)."""
        x = self.h * np.arange(1, self.M + 1)
        x.setflags(write=False)
        return x

    @cached_property
    def reflected_nodes(self) -> np.ndarray:
        """-x_i, the positions of the reflected left phase u2 (read-only)."""
        x = -self.nodes
        x.setflags(write=False)
        return x


def padded(grid: Grid, x) -> np.ndarray:
    """Padded phases (..., 2, M+2) of state rows x (..., 2M+1): rows u1 and u2 with zero end columns."""
    x = np.asarray(x, dtype=float)
    M = grid.M
    if x.ndim == 0 or x.shape[-1] != 2 * M + 1:
        raise GridMismatch(f"state rows of length {2 * M + 1} expected on {grid}, got shape {x.shape}")
    out = np.zeros(x.shape[:-1] + (2, M + 2))
    out[..., 1:-1] = x[..., : 2 * M].reshape(x.shape[:-1] + (2, M))
    return out


def diff1(V: np.ndarray, h: float) -> np.ndarray:
    """Centered first difference of padded rows V (..., M+2) at the interior nodes."""
    return (V[..., 2:] - V[..., :-2]) / (2.0 * h)


def diff2(V: np.ndarray, h: float) -> np.ndarray:
    """Standard 3-point second difference of padded rows V (..., M+2) at the interior nodes."""
    return (V[..., 2:] - 2.0 * V[..., 1:-1] + V[..., :-2]) / (h * h)


@lru_cache(maxsize=32)
def interface_weights(grid: Grid, n) -> np.ndarray:
    """Weights w on the padded nodes with w . f = the window mean 2 n^2 * integral of f over [0, 1/n].

    For finite n this is the trapezoidal rule over the grid nodes inside
    [0, 1/n], with the off-grid endpoint 1/n handled by linear interpolation
    between its neighbouring nodes, scaled by 2 n^2; it requires the window
    to span at least two cells.  At n = inf, the limit of the window mean,
    it is the one-sided second-order stencil of f'(0+).  Both use f(0) = f(L) = 0, so
    the end weights are zero.  Read-only; cached per (grid, n).
    """
    h = grid.h
    w = np.zeros(grid.M + 2)
    if n == math.inf:
        w[1] = 4.0 / (2.0 * h)
        w[2] = -1.0 / (2.0 * h)
    else:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        z = 1.0 / n
        if z < 2.0 * h:
            raise WindowUnresolved(f"window 1/n = {z} is below 2h = {2 * h}")
        xs = np.concatenate(([0.0], grid.nodes, [grid.L]))
        m = min(int(np.floor(z / h + 1e-12)), grid.M + 1)
        half = 0.5 * np.diff(xs[: m + 1])
        w[:m] += half
        w[1 : m + 1] += half
        if m <= grid.M and xs[m] < z:
            t = z - xs[m]
            r = t / (xs[m + 1] - xs[m])
            w[m] += 0.5 * t * (2.0 - r)
            w[m + 1] += 0.5 * t * r
        w *= 2.0 * n * n
        w[0] = w[-1] = 0.0
    w.setflags(write=False)
    return w


_ORDERS = ("L2", "H1", "H2")


def _sumsq(a: np.ndarray, axis):
    # vdot is the fastest full reduction for the small arrays of one state
    return np.vdot(a, a) if axis is None else np.sum(a * a, axis=axis)


def sq_norm(V: np.ndarray, h: float, order: str = "L2", g1=None, axis=None, interior=None):
    """Squared discrete Sobolev norm of the padded rows V (..., M+2), summed over ``axis``.

    ``axis=None`` sums over every row.  The H1/H2 norms add the squared first
    and second differences, with the same stencils as the dynamics; ``g1`` is
    ``diff1(V, h)`` (up to the signs of whole rows) and ``interior`` is
    V[..., 1:-1] as a contiguous array, if the caller has them.
    """
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}, got {order!r}")
    s = _sumsq(V[..., 1:-1] if interior is None else interior, axis)
    if order != "L2":
        s = s + _sumsq(diff1(V, h) if g1 is None else g1, axis)
    if order == "H2":
        s = s + _sumsq(diff2(V, h), axis)
    return h * s


def padded_state_norm(U: np.ndarray, p: float, h: float, order: str = "L2", g1=None, interior=None) -> float:
    """Direct-sum norm of the state held as padded phases U (2, M+2) and boundary p; see ``sq_norm``."""
    return math.sqrt(sq_norm(U, h, order, g1, interior=interior) + p * p)


def state_norm(grid: Grid, x: np.ndarray, order: str = "L2") -> float:
    """Direct-sum norm sqrt(|u1|^2 + |u2|^2 + p^2) of the state row x = u1 | u2 | p."""
    return padded_state_norm(padded(grid, x), float(x[-1]), grid.h, order)
