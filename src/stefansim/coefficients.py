"""Model coefficients and the nonlinear parts of the evolution equation.

Assembles the drift (pointwise reaction, interface-driven transport, identity
shift) and the multiplicative diffusion of a state held as padded phases
U (2, M+2) and boundary p, together with the smooth cutoff ``h_r`` that the
solver applies to both.  Sign conventions for the reflected left phase: its
spatial argument is -x and its slope argument carries the reflection sign.

The zero families ``mu_zero`` and ``sigma_zero`` are one shared function
each, so a term whose two phases are both that function is known to vanish
by identity and is not evaluated: the drift then has no reaction part, and a
path whose model fails ``draws_noise`` has no diffusion term and reads no
increment.  A path binds each phase's sigma to its nodes once, by ``sigma_at``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import WindowUnresolved
from .grids import Grid, interface_weights, padded, padded_state_norm, sq_norm, window_resolved
from .noise import Kernel, color_field

__all__ = [
    "CoefficientSet",
    "TruncationSpec",
    "transport_direction",
    "reaction",
    "interface_speed",
    "drift_rows",
    "draws_noise",
    "sigma_at",
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
    """Validated model data: reaction, noise amplitude, interface map and coloring kernel.

    The diffusivities belong to the linear part, ``operators.SpectralOperator``.
    ``rho_lipschitz`` maps a radius to a Lipschitz constant of rho on the
    centered ball of that radius; the assumptions grant its existence and the
    lemma-level tests need it explicitly.  ``bounded`` marks the bounded
    regime (bounded rho, affine sigma, mu with bounded slopes in both phases),
    where the convergence rate and the linear-growth bound are asserted.
    """

    mu_plus: Callable
    mu_minus: Callable
    sigma_plus: Callable
    sigma_minus: Callable
    rho: Callable[[float, float], float]
    rho_lipschitz: Callable[[float], float]
    kernel: Kernel
    bounded: bool = False

    def __post_init__(self):
        for name, s in (("sigma_plus", self.sigma_plus), ("sigma_minus", self.sigma_minus)):
            val = float(s(np.array(0.0), np.array(0.0)))
            if not abs(val) <= 1e-12:  # NaN fails too
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
    U[:, 1:-1] as a contiguous array, if the caller holds one.  When both
    phases react by the shared ``mu_zero`` function, ``reaction`` is not
    called and the rows are Psi_n * grad_bar + Id.
    """
    psi = interface_speed(c, U, w)
    if c.mu_plus is _mu_zero and c.mu_minus is _mu_zero:
        # drops the 0.0 + that the general path adds: the bits differ only
        # in the sign of a zero where Psi_n * grad_bar and Id are both -0.0
        out = np.multiply(g, psi, out=out)
    else:
        # N_mu + Psi_n * grad_bar has the bits of Psi_n * grad_bar + N_mu: one
        # rounded addition per entry, which is commutative
        out = reaction(c, U, g, grid, out)
        out += psi * g
    out += U[:, 1:-1] if interior is None else interior
    return out, psi + p


def draws_noise(c: CoefficientSet) -> bool:
    """Whether a step of c reads a noise increment: not when both sigma phases are the shared ``sigma_zero``."""
    return not (c.sigma_plus is _sigma_zero and c.sigma_minus is _sigma_zero)


def sigma_at(s: Callable, x: np.ndarray) -> Callable:
    """sigma s bound to the nodes x: a function of v with the bits of s(x, v); an affine profile is evaluated once."""
    if isinstance(s, partial) and s.func is _sigma_affine:
        additive, multiplicative, width = s.args
        xa = np.asarray(x, dtype=float)
        return partial(_affine_at, additive * xa * np.exp(-xa * xa / (2.0 * width * width)), multiplicative)
    return partial(s, x)


def diffusion_rows(sigma: tuple, U: np.ndarray, p: float, dW: np.ndarray, coloring: tuple, out=None) -> np.ndarray:
    """Phase rows (sigma+(x, u1) xi+, sigma-(-x, u2) xi-) of the noise increment dW (J,); its p component is 0.

    ``sigma`` is the pair of phase sigmas bound by ``sigma_at`` and ``coloring``
    the path's ``noise.coloring``, whose window covers p.  The rows are written
    into ``out`` (2, M) if given.
    """
    if out is None:
        out = np.empty((2, U.shape[1] - 2))
    out[0] = sigma[0](U[0, 1:-1])
    out[1] = sigma[1](U[1, 1:-1])
    out *= color_field(coloring, dW, p)
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
    if not window_resolved(grid, n, 10.0):
        raise WindowUnresolved(f"window 1/n = {1 / n} is below 10h = {10 * h}")
    U = padded(grid, x)
    g = transport_direction(U, h)
    dpsi = interface_speed(c, U, interface_weights(grid, n)) - interface_speed(c, U, interface_weights(grid, INF))
    gap = abs(dpsi) * math.sqrt(sq_norm(np.pad(g, ((0, 0), (1, 1))), h, "H1") + 1.0)
    R = padded_state_norm(U, float(x[-1]), h, "H2")
    bound = c.rho_lipschitz(2.0 * R) * R * (1.0 + R) * (1.0 + 10.0 * h) / math.sqrt(n)
    return gap, bound


# ---------------------------------------------------------------------------
# Builtin coefficient families, selected by name from configs; each binds a module function, so it pickles

def _mu_zero(x, v, vp):
    return np.zeros(np.shape(v))


def mu_zero():
    """The zero reaction; every call returns the same function, which ``drift_rows`` skips."""
    return _mu_zero


def _mu_linear(c_v, c_vp, x, v, vp):
    return c_v * v + c_vp * vp


def mu_linear(c_v: float = 0.0, c_vp: float = 0.0):
    return partial(_mu_linear, c_v, c_vp)


def _mu_saturated(amplitude, slope, x, v, vp):
    return amplitude * np.tanh(slope * v) + amplitude * np.tanh(slope * vp)


def mu_saturated(amplitude: float = 1.0, slope: float = 1.0):
    """Bounded reaction with bounded slopes, tanh in both v and v'."""
    return partial(_mu_saturated, amplitude, slope)


def _mu_quadratic(coeff, x, v, vp):
    return coeff * v * v


def mu_quadratic(coeff: float = 1.0):
    """v^2 reaction; locally Lipschitz only, used for explosion demonstrations."""
    return partial(_mu_quadratic, coeff)


def _sigma_zero(x, v):
    return np.zeros(np.shape(v))


def sigma_zero():
    """The zero noise amplitude; every call returns the same function, which ``draws_noise`` tests for."""
    return _sigma_zero


def _affine_at(profile, multiplicative, v):
    return profile + multiplicative * v


def _sigma_affine(additive, multiplicative, width, x, v):
    return sigma_at(partial(_sigma_affine, additive, multiplicative, width), x)(v)  # s(x, v) is sigma_at(s, x)(v)


def sigma_affine(additive: float = 0.0, multiplicative: float = 0.0, width: float = 1.0):
    """sigma(x, v) = additive * x exp(-x^2 / (2 w^2)) + multiplicative * v.

    The additive profile vanishes at x = 0 and decays, so the interface
    condition sigma(0, 0) = 0 holds and the additive part is square
    integrable with two derivatives.  The width must be positive.
    """
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")
    return partial(_sigma_affine, additive, multiplicative, width)


def _constant(value, *args):
    return value


def _rho_linear(rho0, a, b):
    return rho0 * (a - b)


def _rho_tanh(rho0, slope, a, b):
    return rho0 * math.tanh(slope * (a - b))


def rho_zero():
    return partial(_constant, 0.0), partial(_constant, 0.0)


def rho_linear(rho0: float = 1.0):
    return partial(_rho_linear, rho0), partial(_constant, abs(rho0) * math.sqrt(2.0))


def rho_tanh(rho0: float = 1.0, slope: float = 1.0):
    """Bounded interface map rho0 * tanh(slope * (a - b))."""
    return partial(_rho_tanh, rho0, slope), partial(_constant, abs(rho0) * slope * math.sqrt(2.0))
