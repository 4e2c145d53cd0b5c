"""Discrete functions on the truncated half-line [0, L] and the product state space.

A :class:`GridFunction` stores values at the interior nodes x_i = i*h,
i = 1..M, of a uniform grid with h = L/(M+1).  The values at x = 0 and
x = L are implicitly zero (Dirichlet constraint), which is what makes the
discrete second difference the Dirichlet Laplacian and keeps all norms
consistent with the dynamics.

A :class:`State` is the triple (u1, u2, p): right phase, reflected left
phase and boundary position.

``GridFunction`` and ``State`` are value types at the API boundary: initial
states, recorded states and the samples of the lemma battery.  The model
exists only on padded arrays, one contiguous buffer of shape (2, M+2) per
path, rows u1 and u2 with zero end columns for the Dirichlet nodes, plus the
scalar p.  The differences, norms and window functionals are written once,
for padded arrays (``diff1``, ``diff2``, ``sq_norm``, ``padded_state_norm``,
``interface_weights``); ``d1``, ``d2``, ``norm``, ``state_norm``,
``trace_grad`` and ``window_mean`` read a value through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridMismatch, WindowUnresolved

__all__ = [
    "Grid",
    "GridFunction",
    "State",
    "d1",
    "d2",
    "diff1",
    "diff2",
    "interface_weights",
    "trace_grad",
    "window_mean",
    "norm",
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


def _as_values(grid: Grid, values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.M,):
        raise ValueError(f"expected {grid.M} values, got shape {v.shape}")
    v = v.copy()
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class GridFunction:
    """Values of a function at the interior nodes; zero at 0 and L by convention."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.grid, self.values))

    @classmethod
    def zero(cls, grid: Grid) -> "GridFunction":
        return cls(grid, np.zeros(grid.M))

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "GridFunction":
        return cls(grid, fn(grid.nodes))

    def padded(self) -> np.ndarray:
        """Values including the implicit zeros at x = 0 and x = L."""
        out = np.zeros(self.grid.M + 2)
        out[1:-1] = self.values
        return out

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _check_grid(self, other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _check_grid(self, other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, c * self.values)

    __rmul__ = __mul__


def _check_grid(f: GridFunction, g: GridFunction):
    if f.grid != g.grid:
        raise GridMismatch(f"grids differ: {f.grid} vs {g.grid}")


@dataclass(frozen=True)
class State:
    """Element (u1, u2, p) of the discrete product state space."""

    u1: GridFunction
    u2: GridFunction
    p: float

    def __post_init__(self):
        if self.u1.grid != self.u2.grid:
            raise GridMismatch("u1 and u2 must share a grid")

    @property
    def grid(self) -> Grid:
        return self.u1.grid

    @classmethod
    def zero(cls, grid: Grid) -> "State":
        return cls(GridFunction.zero(grid), GridFunction.zero(grid), 0.0)

    @classmethod
    def from_flat(cls, grid: Grid, v: np.ndarray) -> "State":
        """The state stored as one row u1 | u2 | p of length 2M+1."""
        M = grid.M
        return cls(GridFunction(grid, v[:M]), GridFunction(grid, v[M : 2 * M]), float(v[2 * M]))

    def padded(self) -> np.ndarray:
        """(2, M+2) array: rows u1 and u2 with the zero values at x = 0 and x = L."""
        out = np.zeros((2, self.grid.M + 2))
        out[0, 1:-1] = self.u1.values
        out[1, 1:-1] = self.u2.values
        return out

    def __add__(self, other: "State") -> "State":
        return State(self.u1 + other.u1, self.u2 + other.u2, self.p + other.p)

    def __sub__(self, other: "State") -> "State":
        return State(self.u1 - other.u1, self.u2 - other.u2, self.p - other.p)

    def __mul__(self, c: float) -> "State":
        return State(c * self.u1, c * self.u2, c * self.p)

    __rmul__ = __mul__


def diff1(V: np.ndarray, h: float) -> np.ndarray:
    """Centered first difference of padded rows V (..., M+2) at the interior nodes."""
    return (V[..., 2:] - V[..., :-2]) / (2.0 * h)


def diff2(V: np.ndarray, h: float) -> np.ndarray:
    """Standard 3-point second difference of padded rows V (..., M+2) at the interior nodes."""
    return (V[..., 2:] - 2.0 * V[..., 1:-1] + V[..., :-2]) / (h * h)


def d1(f: GridFunction) -> GridFunction:
    """Centered first difference, second order, implicit zero boundaries."""
    return GridFunction(f.grid, diff1(f.padded(), f.grid.h))


def d2(f: GridFunction) -> GridFunction:
    """Standard 3-point second difference with implicit zero boundaries."""
    return GridFunction(f.grid, diff2(f.padded(), f.grid.h))


@lru_cache(maxsize=32)
def interface_weights(grid: Grid, n) -> np.ndarray:
    """Weights w on the padded nodes with w . f = window_mean(f, n), or trace_grad(f) at n = inf.

    For finite n this is the trapezoidal rule over the grid nodes inside
    [0, 1/n], with the off-grid endpoint 1/n handled by linear interpolation
    between its neighbouring nodes, scaled by 2 n^2.  At n = inf it is the
    one-sided second-order stencil of f'(0+).  Both use f(0) = f(L) = 0, so
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


def trace_grad(f: GridFunction) -> float:
    """One-sided second-order estimate of f'(0+), using f(0) = 0."""
    return float(interface_weights(f.grid, math.inf) @ f.padded())


def window_mean(f: GridFunction, n: int) -> float:
    """Windowed average 2 n^2 * integral of f over [0, 1/n].

    Trapezoidal quadrature over the grid nodes inside the window, with the
    off-grid endpoint 1/n handled by linear interpolation.  Requires the
    window to span at least two cells.  Its limit n = inf, f'(0+), is
    ``trace_grad``.
    """
    return float(interface_weights(f.grid, n) @ f.padded())


_ORDERS = ("L2", "H1", "H2")


def _sumsq(a: np.ndarray, axis):
    # vdot is the fastest full reduction for the small arrays of one state
    return np.vdot(a, a) if axis is None else np.sum(a * a, axis=axis)


def sq_norm(V: np.ndarray, h: float, order: str = "L2", g1=None, axis=None):
    """Squared discrete Sobolev norm of the padded rows V (..., M+2), summed over ``axis``.

    ``axis=None`` sums over every row.  The H1/H2 norms add the squared first
    and second differences, with the same stencils as the dynamics; ``g1`` is
    ``diff1(V, h)`` (up to the signs of whole rows) if the caller has it.
    """
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}, got {order!r}")
    s = _sumsq(V[..., 1:-1], axis)
    if order != "L2":
        s = s + _sumsq(diff1(V, h) if g1 is None else g1, axis)
    if order == "H2":
        s = s + _sumsq(diff2(V, h), axis)
    return h * s


def norm(f: GridFunction, order: str = "L2") -> float:
    """Discrete Sobolev norm; the H1/H2 norms use the same stencils as the dynamics."""
    return math.sqrt(sq_norm(f.padded(), f.grid.h, order))


def padded_state_norm(U: np.ndarray, p: float, h: float, order: str = "L2", g1=None) -> float:
    """Direct-sum norm of the state held as padded phases U (2, M+2) and boundary p."""
    return math.sqrt(sq_norm(U, h, order, g1) + p * p)


def state_norm(X: State, order: str = "L2") -> float:
    """Direct-sum norm sqrt(|u1|^2 + |u2|^2 + p^2)."""
    return padded_state_norm(X.padded(), X.p, X.grid.h, order)
