"""Model coefficients and the nonlinear parts of the evolution equation.

Assembles the drift (pointwise reaction, interface-driven transport, identity
shift) and the multiplicative diffusion, together with the smooth cutoff used
to localize both.  Sign conventions for the reflected left phase: its spatial
argument is -x and its slope argument carries the reflection sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import WindowUnresolved
from .grids import Grid, GridFunction, State, diff1, interface_weights, state_norm
from .noise import AmbientGrid, Kernel, NoiseIncrement, color_field

__all__ = [
    "CoefficientSet",
    "TruncationSpec",
    "N_mu",
    "Psi_n",
    "drift_B",
    "diffusion_C",
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


def transport_direction(U: np.ndarray, h: float) -> np.ndarray:
    """Phase rows (u1', -u2') of the transport direction grad_bar = (u1', -u2', 1) of U (2, M+2)."""
    g = diff1(U, h)
    g[1] *= -1.0
    return g


def reaction(c: CoefficientSet, U: np.ndarray, g: np.ndarray, grid: Grid) -> np.ndarray:
    """Phase rows mu+(x, u1, u1') and mu-(-x, u2, -u2') of N_mu; g from transport_direction."""
    x = grid.nodes
    out = np.empty_like(g)
    out[0] = c.mu_plus(x, U[0, 1:-1], g[0])
    out[1] = c.mu_minus(-x, U[1, 1:-1], g[1])
    return out


def interface_speed(c: CoefficientSet, U: np.ndarray, w: np.ndarray) -> float:
    """Psi_n = rho(w . u1, -(w . u2)) for the interface weights w = interface_weights(grid, n)."""
    a, b = (U @ w).tolist()
    return float(c.rho(a, -b))


def drift_rows(c: CoefficientSet, U: np.ndarray, p: float, g: np.ndarray, w: np.ndarray, grid: Grid):
    """Drift N_mu + Psi_n * grad_bar + Id at the state (U, p): phase rows (2, M) and p component."""
    psi = interface_speed(c, U, w)
    out = psi * g
    out += reaction(c, U, g, grid)
    out += U[:, 1:-1]
    return out, psi + p


def diffusion_rows(
    c: CoefficientSet, U: np.ndarray, p: float, inc: NoiseIncrement, ambient: AmbientGrid, grid: Grid
) -> np.ndarray:
    """Phase rows (sigma+(x, u1) xi+, sigma-(-x, u2) xi-) of the noise increment; its p component is 0."""
    xi = color_field(c.kernel, ambient, inc, p, grid)
    x = grid.nodes
    out = np.empty_like(xi)
    out[0] = c.sigma_plus(x, U[0, 1:-1])
    out[1] = c.sigma_minus(-x, U[1, 1:-1])
    out *= xi
    return out


def _state(grid: Grid, rows: np.ndarray, p: float) -> State:
    return State(GridFunction(grid, rows[0]), GridFunction(grid, rows[1]), p)


def _cut(spec: Optional[TruncationSpec], X: State, out: State) -> State:
    if spec is not None:
        f = h_r(spec, state_norm(X, "H2") ** 2)
        if f != 1.0:
            out = f * out
    return out


def N_mu(c: CoefficientSet, X: State) -> State:
    """Pointwise reaction (mu+(x, u1, u1'), mu-(-x, u2, -u2'), 0)."""
    U = X.padded()
    return _state(X.grid, reaction(c, U, transport_direction(U, X.grid.h), X.grid), 0.0)


def Psi_n(c: CoefficientSet, X: State, n) -> float:
    """Interface speed: windowed volume imbalance for finite n, gradient jump at n = inf."""
    return interface_speed(c, X.padded(), interface_weights(X.grid, n))


def drift_B(c: CoefficientSet, X: State, n, spec: Optional[TruncationSpec] = None) -> State:
    """Full drift N_mu + Psi_n * grad_bar + Id, optionally cut off outside the norm ball."""
    U = X.padded()
    g = transport_direction(U, X.grid.h)
    rows, dp = drift_rows(c, U, X.p, g, interface_weights(X.grid, n), X.grid)
    return _cut(spec, X, _state(X.grid, rows, dp))


def diffusion_C(
    c: CoefficientSet,
    X: State,
    inc: NoiseIncrement,
    ambient: AmbientGrid,
    spec: Optional[TruncationSpec] = None,
) -> State:
    """Multiplicative noise increment (sigma+(x, u1) xi+, sigma-(-x, u2) xi-, 0)."""
    rows = diffusion_rows(c, X.padded(), X.p, inc, ambient, X.grid)
    return _cut(spec, X, _state(X.grid, rows, 0.0))


def psi_gap_bound(c: CoefficientSet, X: State, n: int):
    """Distance between the finite-n and limiting drifts, with its a-priori bound.

    Returns (gap, bound) where gap is the H1-state norm of B_n - B_inf at X
    and the bound is the 1/sqrt(n) estimate with an O(h) slack factor for the
    discrete norms.  Requires the window to span at least ten cells so the
    rate statement is meaningful on the grid.
    """
    h = X.grid.h
    if 1.0 / n < 10.0 * h:
        raise WindowUnresolved(f"window 1/n = {1 / n} is below 10h = {10 * h}")
    gap = state_norm(drift_B(c, X, n) - drift_B(c, X, INF), "H1")
    R = state_norm(X, "H2")
    bound = c.rho_lipschitz(2.0 * R) * R * (1.0 + R) * (1.0 + 10.0 * h) / math.sqrt(n)
    return gap, bound


# ---------------------------------------------------------------------------
# Builtin coefficient families (selected by name from experiment configs)

def mu_zero():
    return lambda x, v, vp: np.zeros_like(np.asarray(v, dtype=float))


def mu_linear(c_v: float = 0.0, c_vp: float = 0.0):
    return lambda x, v, vp: c_v * v + c_vp * vp


def mu_saturated(amplitude: float = 1.0, slope: float = 1.0):
    """Bounded reaction with bounded slopes, tanh in both v and v'."""
    return lambda x, v, vp: amplitude * np.tanh(slope * v) + amplitude * np.tanh(slope * vp)


def mu_quadratic(coeff: float = 1.0):
    """v^2 reaction; locally Lipschitz only, used for explosion demonstrations."""
    return lambda x, v, vp: coeff * v * v


def sigma_zero():
    return lambda x, v: np.zeros_like(np.asarray(v, dtype=float))


def sigma_affine(additive: float = 0.0, multiplicative: float = 0.0, width: float = 1.0):
    """sigma(x, v) = additive * x exp(-x^2 / (2 w^2)) + multiplicative * v.

    The additive profile vanishes at x = 0 and decays, so the interface
    condition sigma(0, 0) = 0 holds and the additive part is square
    integrable with two derivatives.
    """

    def sigma(x, v):
        xa = np.asarray(x, dtype=float)
        return additive * xa * np.exp(-xa * xa / (2.0 * width * width)) + multiplicative * v

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
