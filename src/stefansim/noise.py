"""Discretized cylindrical Wiener increments and the coloring operator.

The cylindrical increment over one step is a vector of iid N(0, dt/dy)
variates on an ambient real-line grid; the coloring kernel turns it into the
increment of the driving field xi at arbitrary points by quadrature of
integral of zeta(x, y) dW(y).  Kernels are evaluated in closed form at the
shifted points p +/- x_i, so no interpolation error enters the noise.

For the Gaussian kernel the closed form factors exactly.  With c the window
midpoint, delta = p - c and u_j = y_j - c,

    zeta(p +/- x_i, y_j) = Z_ij exp(-/+ delta x_i / s^2) exp(delta u_j / s^2)
                           exp(-delta^2 / (2 s^2)),   Z_ij = zeta(c +/- x_i, y_j),

so ``color_field`` costs one product of the fixed (2M x J) matrix Z, cached
per geometry, with a vector of J exponentials, scaled by 2M exponentials.
Where those factors could grow large enough to cost accuracy (see
``_MAX_EXPONENT``), and for any other kernel, the direct form ``color_at`` is
used instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import BoundaryLeftWindow
from .grids import Grid

__all__ = [
    "AmbientGrid",
    "Kernel",
    "gaussian_kernel",
    "NoiseIncrement",
    "NoiseStream",
    "check_window",
    "color_at",
    "color_field",
]


@dataclass(frozen=True)
class AmbientGrid:
    """Uniform grid covering the window of the real line seen by the boundary."""

    x_lo: float
    x_hi: float
    J: int

    def __post_init__(self):
        if self.J < 2:
            raise ValueError("need at least two ambient nodes")
        if not self.x_hi > self.x_lo:
            raise ValueError("empty ambient window")

    @property
    def dy(self) -> float:
        return (self.x_hi - self.x_lo) / (self.J - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        """The J equispaced nodes from x_lo to x_hi (read-only)."""
        y = np.linspace(self.x_lo, self.x_hi, self.J)
        y.setflags(write=False)
        return y

    def covers(self, p: float, L: float) -> bool:
        return self.x_lo <= p - L and p + L <= self.x_hi


@dataclass(frozen=True)
class Kernel:
    """Coloring kernel zeta with its L2-in-y profile on a reference grid.

    ``zeta`` must accept broadcasting arrays (x, y).  The profile is used for
    construction-time validation and as the analytic-variance oracle in tests.
    ``scale`` is set only for the Gaussian kernel of that width, and lets
    ``color_field`` use the factorized form.
    """

    zeta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    l2_profile: np.ndarray = field(repr=False)
    scale: Optional[float] = None

    @classmethod
    def build(cls, zeta, ambient: AmbientGrid) -> "Kernel":
        ys = ambient.nodes
        rows = zeta(ys[:, None], ys[None, :])
        profile = np.sqrt(np.sum(rows * rows, axis=1) * ambient.dy)
        if not np.all(np.isfinite(profile)):
            raise ValueError("kernel L2 profile is not finite on the ambient window")
        return cls(zeta=zeta, l2_profile=profile)


def _gaussian(scale: float):
    c = 1.0 / math.sqrt(2.0 * math.pi * scale * scale)

    def zeta(x, y):
        d = np.asarray(x) - np.asarray(y)
        return c * np.exp(-d * d / (2.0 * scale * scale))

    return zeta


def gaussian_kernel(scale: float, ambient: AmbientGrid) -> Kernel:
    """Gaussian convolution kernel (2 pi s^2)^(-1/2) exp(-(x-y)^2 / (2 s^2)), built on ``ambient``."""
    if scale <= 0:
        raise ValueError("kernel scale must be positive")
    return replace(Kernel.build(_gaussian(scale), ambient), scale=scale)


@dataclass(frozen=True)
class NoiseIncrement:
    dW: np.ndarray
    step_index: int
    dt: float

    def __post_init__(self):
        v = np.asarray(self.dW, dtype=float).copy()
        v.setflags(write=False)
        object.__setattr__(self, "dW", v)


@dataclass(frozen=True)
class NoiseStream:
    """Deterministic per-trajectory noise source, replayable by step index.

    The same (seed, trajectory_id, step_index) always yields the same
    increment, independently of how many steps were consumed before; this is
    what lets every member of the interface family n see the identical noise.
    """

    seed: int
    trajectory_id: int = 0

    def increment(self, step_index: int, dt: float, ambient: AmbientGrid) -> NoiseIncrement:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.trajectory_id, step_index))
        rng = np.random.default_rng(ss)
        dW = rng.normal(0.0, math.sqrt(dt / ambient.dy), ambient.J)
        return NoiseIncrement(dW=dW, step_index=step_index, dt=dt)


def color_at(kernel: Kernel, ambient: AmbientGrid, inc: NoiseIncrement, x):
    """Increment of the colored field at x: quadrature of zeta(x, .) against dW."""
    xs = np.asarray(x, dtype=float)
    weights = kernel.zeta(xs[..., None], ambient.nodes)
    out = weights @ inc.dW * ambient.dy
    if out.ndim == 0:
        return float(out)
    return out


# Largest admissible bound D W / s^2 on the exponents of the factorized form,
# where W is the window half-width and D = W - L the largest |delta| the window
# admits.  Each exponent is rounded with a relative error of about 1e-16, which
# a factor e^a turns into a relative error of about |a| * 1e-16 in the weight,
# so at 60 the weights stay within about 1e-14 of the direct form.  It also
# keeps every factor below e^60, far from overflow: with sigma = 0 an infinite
# factor would turn the colored increment into 0 * inf = NaN.
_MAX_EXPONENT = 60.0


@lru_cache(maxsize=8)
def _gaussian_factors(scale: float, ambient: AmbientGrid, grid: Grid):
    """(Z, rows, cols, centre) of the factorized Gaussian coloring, or None.

    ``rows`` holds +x_i then -x_i and ``cols`` holds u_j = y_j - centre; None
    means the geometry exceeds ``_MAX_EXPONENT`` and needs the direct form.
    """
    half_width = 0.5 * (ambient.x_hi - ambient.x_lo)
    if (half_width - grid.L) * half_width / (scale * scale) > _MAX_EXPONENT:
        return None
    centre = 0.5 * (ambient.x_lo + ambient.x_hi)
    xs = grid.nodes
    rows = np.concatenate((xs, -xs))
    cols = ambient.nodes - centre
    Z = _gaussian(scale)(centre + rows[:, None], ambient.nodes[None, :])
    for a in (Z, rows, cols):
        a.setflags(write=False)
    return Z, rows, cols, centre


def check_window(ambient: AmbientGrid, p: float, L: float):
    """Raise BoundaryLeftWindow unless the window covers [p - L, p + L]."""
    if not ambient.covers(p, L):
        raise BoundaryLeftWindow(
            f"boundary at {p} with half-width {L} leaves window [{ambient.x_lo}, {ambient.x_hi}]"
        )


def color_field(kernel: Kernel, ambient: AmbientGrid, inc: NoiseIncrement, p: float, grid: Grid):
    """Colored increments at p + x_i and p - x_i for the two phases, as rows of a (2, M) array."""
    check_window(ambient, p, grid.L)
    factors = None if kernel.scale is None else _gaussian_factors(kernel.scale, ambient, grid)
    if factors is None:
        xs = grid.nodes
        return np.stack((color_at(kernel, ambient, inc, p + xs), color_at(kernel, ambient, inc, p - xs)))
    Z, rows, cols, centre = factors
    delta = p - centre
    a = delta / (kernel.scale * kernel.scale)
    out = Z @ (np.exp(a * cols) * inc.dW)
    out *= ambient.dy * np.exp(-a * (rows + 0.5 * delta))
    return out.reshape(2, grid.M)
