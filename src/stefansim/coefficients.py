"""Model coefficients and the nonlinear parts of the evolution equation.

Assembles the drift (pointwise reaction, interface-driven transport, identity
shift) and the multiplicative diffusion of a state held as padded phases
U (2, M+2) and boundary p, together with the smooth cutoff ``h_r`` that the
solver applies to both.  Sign conventions for the reflected left phase: its
spatial argument is -x and its slope argument carries the reflection sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import WindowUnresolved
from .grids import Grid, interface_weights, padded, padded_state_norm, sq_norm
from .noise import AmbientGrid, Kernel, NoiseIncrement, check_window, color_field

__all__ = [
    "CoefficientSet",
    "TruncationSpec",
    "transport_direction",
    "reaction",
    "interface_speed",
    "drift_rows",
    "diffusion_rows",
    "h_r",
    "psi_gap_bound",
    "mu_zero",
    "mu_linear",
    "mu_saturated",
    "mu_quadratic",
    "sigma_zero",
    "sigma_affine",
    "rho_linear",
    "rho_tanh",
    "rho_zero",
]

INF = math.inf


@dataclass(frozen=True)
class CoefficientSet:
    """Validated model data: diffusivities, reaction, noise amplitude, interface map.

    ``rho_lipschitz`` maps a radius to a Lipschitz constant of rho on the
    centered ball of that radius; the assumptions grant its existence and the
    lemma-level tests need it explicitly.
    """

    eta_plus: float
    eta_minus: float
    mu_plus: Callable
    mu_minus: Callable
    sigma_plus: Callable
    sigma_minus: Callable
    rho: Callable[[float, float], float]
    rho_lipschitz: Callable[[float], float]
    kernel: Kernel
    rho_bounded: bool = False
    sigma_affine_flag: bool = False
    mu_bounded_slopes: bool = False

    def __post_init__(self):
        if not (self.eta_plus > 0 and self.eta_minus > 0):
            raise ValueError("diffusivities must be positive")
        for name, s in (("sigma_plus", self.sigma_plus), ("sigma_minus", self.sigma_minus)):
            val = float(s(np.array(0.0), np.array(0.0)))
            if abs(val) > 1e-12:
                raise ValueError(f"{name}(0, 0) = {val} violates the interface condition")


@dataclass(frozen=True)
class TruncationSpec:
    """Radius of the smooth cutoff; the transition lives on [r^2, (r+1)^2] in squared norm."""

    r: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("truncation radius must be positive")


def h_r(spec: TruncationSpec, s: float) -> float:
    """Quintic-smoothstep cutoff of the squared norm: 1 below r^2, 0 above (r+1)^2."""
    if s < 0:
        raise ValueError("squared norm must be nonnegative")
    r = spec.r
    lo, hi = r * r, (r + 1.0) * (r + 1.0)
    if s <= lo:
        return 1.0
    if s >= hi:
        return 0.0
    t = (s - lo) / (hi - lo)
    return 1.0 - t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)


@lru_cache(maxsize=8)
def _signed_steps(h: float) -> np.ndarray:
    s = np.array([[2.0 * h], [-2.0 * h]])
    s.setflags(write=False)
    return s


def transport_direction(U: np.ndarray, h: float, out=None) -> np.ndarray:
    """Phase rows (u1', -u2') of the transport direction grad_bar = (u1', -u2', 1) of U (2, M+2).

    Written into ``out`` (2, M) if given.  It is diff1(U, h) with row u2
    negated, bit for bit: a quotient by -2h is the negated quotient by 2h.
    """
    g = np.subtract(U[:, 2:], U[:, :-2], out=out)
    g /= _signed_steps(h)
    return g


def reaction(c: CoefficientSet, U: np.ndarray, g: np.ndarray, grid: Grid, out=None) -> np.ndarray:
    """Phase rows mu+(x, u1, u1') and mu-(-x, u2, -u2') of N_mu, into ``out`` if given; g from transport_direction."""
    if out is None:
        out = np.empty_like(g)
    out[0] = c.mu_plus(grid.nodes, U[0, 1:-1], g[0])
    out[1] = c.mu_minus(grid.reflected_nodes, U[1, 1:-1], g[1])
    return out


def interface_speed(c: CoefficientSet, U: np.ndarray, w: np.ndarray) -> float:
    """Psi_n = rho(w . u1, -(w . u2)) for the interface weights w = interface_weights(grid, n)."""
    a, b = (U @ w).tolist()
    return float(c.rho(a, -b))


def drift_rows(
    c: CoefficientSet, U: np.ndarray, p: float, g: np.ndarray, w: np.ndarray, grid: Grid, out=None, interior=None
):
    """Drift N_mu + Psi_n * grad_bar + Id at the state (U, p): phase rows (2, M) and p component.

    The phase rows are written into ``out`` (2, M) if given.  ``interior`` is
    U[:, 1:-1] as a contiguous array, if the caller holds one.
    """
    psi = interface_speed(c, U, w)
    # N_mu + Psi_n * grad_bar has the bits of Psi_n * grad_bar + N_mu: one
    # rounded addition per entry, which is commutative
    out = reaction(c, U, g, grid, out)
    out += psi * g
    out += U[:, 1:-1] if interior is None else interior
    return out, psi + p


def diffusion_rows(
    c: CoefficientSet,
    U: np.ndarray,
    p: float,
    draw: Callable[[], NoiseIncrement],
    ambient: AmbientGrid,
    grid: Grid,
    out=None,
) -> Optional[np.ndarray]:
    """Phase rows (sigma+(x, u1) xi+, sigma-(-x, u2) xi-) of the noise increment; its p component is 0.

    ``draw()`` returns the increment.  Where every sigma entry is zero the
    product is zero whatever the increment: nothing is drawn or colored, only
    the boundary is checked against the window, and the result is None.  The
    rows are written into ``out`` (2, M) if given.
    """
    if out is None:
        out = np.empty((2, grid.M))
    out[0] = c.sigma_plus(grid.nodes, U[0, 1:-1])
    out[1] = c.sigma_minus(grid.reflected_nodes, U[1, 1:-1])
    if not np.count_nonzero(out):
        check_window(ambient, p, grid.L)
        return None
    out *= color_field(c.kernel, ambient, draw(), p, grid)
    return out


def psi_gap_bound(c: CoefficientSet, grid: Grid, x: np.ndarray, n: int):
    """Distance between the finite-n and limiting drifts, with its a-priori bound.

    Returns (gap, bound) where gap is the H1-state norm of B_n - B_inf at the state row x
    and the bound is the 1/sqrt(n) estimate with an O(h) slack factor for the
    discrete norms.  The reaction and identity parts of the two drifts
    cancel, so B_n - B_inf = (Psi_n - Psi_inf) (u1', -u2', 1) and the gap is
    |Psi_n - Psi_inf| times the H1-state norm of (u1', -u2', 1).  Requires
    the window to span at least ten cells so the rate statement is
    meaningful on the grid.
    """
    h = grid.h
    if 1.0 / n < 10.0 * h:
        raise WindowUnresolved(f"window 1/n = {1 / n} is below 10h = {10 * h}")
    U = padded(grid, x)
    g = transport_direction(U, h)
    dpsi = interface_speed(c, U, interface_weights(grid, n)) - interface_speed(c, U, interface_weights(grid, INF))
    gap = abs(dpsi) * math.sqrt(sq_norm(np.pad(g, ((0, 0), (1, 1))), h, "H1") + 1.0)
    R = padded_state_norm(U, float(x[-1]), h, "H2", g)
    bound = c.rho_lipschitz(2.0 * R) * R * (1.0 + R) * (1.0 + 10.0 * h) / math.sqrt(n)
    return gap, bound


# ---------------------------------------------------------------------------
# Builtin coefficient families (selected by name from experiment configs)

def mu_zero():
    return lambda x, v, vp: np.zeros(np.shape(v))


def mu_linear(c_v: float = 0.0, c_vp: float = 0.0):
    return lambda x, v, vp: c_v * v + c_vp * vp


def mu_saturated(amplitude: float = 1.0, slope: float = 1.0):
    """Bounded reaction with bounded slopes, tanh in both v and v'."""
    return lambda x, v, vp: amplitude * np.tanh(slope * v) + amplitude * np.tanh(slope * vp)


def mu_quadratic(coeff: float = 1.0):
    """v^2 reaction; locally Lipschitz only, used for explosion demonstrations."""
    return lambda x, v, vp: coeff * v * v


def sigma_zero():
    return lambda x, v: np.zeros(np.shape(v))


def sigma_affine(additive: float = 0.0, multiplicative: float = 0.0, width: float = 1.0):
    """sigma(x, v) = additive * x exp(-x^2 / (2 w^2)) + multiplicative * v.

    The additive profile vanishes at x = 0 and decays, so the interface
    condition sigma(0, 0) = 0 holds and the additive part is square
    integrable with two derivatives.
    """

    # additive profile per read-only x array (the grid's node arrays), which
    # is held so that its id cannot be reused by another array
    profiles = {}

    def sigma(x, v):
        hit = profiles.get(id(x))
        if hit is not None and hit[0] is x:
            return hit[1] + multiplicative * v
        xa = np.asarray(x, dtype=float)
        profile = additive * xa * np.exp(-xa * xa / (2.0 * width * width))
        if isinstance(x, np.ndarray) and not x.flags.writeable:
            if len(profiles) >= 8:
                profiles.clear()
            profiles[id(x)] = (x, profile)
        return profile + multiplicative * v

    return sigma


def rho_zero():
    return (lambda a, b: 0.0), (lambda r: 0.0)


def rho_linear(rho0: float = 1.0):
    lip = abs(rho0) * math.sqrt(2.0)
    return (lambda a, b: rho0 * (a - b)), (lambda r: lip)


def rho_tanh(rho0: float = 1.0, slope: float = 1.0):
    """Bounded interface map rho0 * tanh(slope * (a - b))."""
    lip = abs(rho0) * slope * math.sqrt(2.0)
    return (lambda a, b: rho0 * math.tanh(slope * (a - b))), (lambda r: lip)
