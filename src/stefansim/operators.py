"""The linear operator A = diag(eta+ Lap_D, eta- Lap_D, 0) - Id and its semigroup.

The Dirichlet Laplacian on the uniform grid is diagonal in the discrete sine
basis, so e^{tA} is applied exactly (up to round-off) by a DST, a pointwise
exponential factor and an inverse DST.  No time-stepping error enters through
the linear part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# scipy.fftpack.dst calls the pocketfft transform directly; scipy.fft.dst goes
# through the backend dispatch first, which doubles the cost of a small
# transform.  Both return the same bits.
from scipy.fftpack import dst

from .grids import Grid, diff2, padded, sq_norm, state_norm

__all__ = [
    "SpectralOperator",
    "apply_A",
    "semigroup",
    "semigroup_factors",
    "apply_factors",
    "K_A",
    "smoothing_check",
]


def _dirichlet_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues lambda_k^h = (4/h^2) sin^2(k pi h / (2L)) of -Lap_D, k=1..M."""
    h = grid.h
    k = np.arange(1, grid.M + 1)
    return (4.0 / (h * h)) * np.sin(k * np.pi * h / (2.0 * grid.L)) ** 2


@dataclass(frozen=True)
class SpectralOperator:
    grid: Grid
    eta_plus: float
    eta_minus: float
    eigenvalues_plus: np.ndarray = field(init=False, repr=False)
    eigenvalues_minus: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (self.eta_plus > 0 and self.eta_minus > 0):
            raise ValueError("diffusivities must be positive")
        lam = _dirichlet_eigenvalues(self.grid)
        object.__setattr__(self, "eigenvalues_plus", -self.eta_plus * lam - 1.0)
        object.__setattr__(self, "eigenvalues_minus", -self.eta_minus * lam - 1.0)
        assert np.all(self.eigenvalues_plus < 0)
        assert np.all(self.eigenvalues_minus < 0)


def _to_modes(values: np.ndarray) -> np.ndarray:
    return dst(values, type=1)


def _from_modes(coeffs: np.ndarray, M: int) -> np.ndarray:
    return dst(coeffs, type=1) / (2.0 * (M + 1))


def apply_A(op: SpectralOperator, x: np.ndarray) -> np.ndarray:
    """A x = (eta+ d2 u1 - u1, eta- d2 u2 - u2, -p) of the state row x = u1 | u2 | p."""
    U = padded(op.grid, x)
    D = diff2(U, op.grid.h)
    D[0] *= op.eta_plus
    D[1] *= op.eta_minus
    D -= U[:, 1:-1]
    return np.append(D, -x[-1])


def semigroup_factors(op: SpectralOperator, t: float):
    """(F, e^{-t}): per-mode decay factors of e^{tA} for both phases, and for p.

    F is a read-only (2, M) array, rows u1 and u2, with the normalization of
    the inverse sine transform folded in; reusable across states for fixed t.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    M = op.grid.M
    F = np.exp(t * np.stack((op.eigenvalues_plus, op.eigenvalues_minus))) / (2.0 * (M + 1))
    F.setflags(write=False)
    return F, math.exp(-t)


def apply_factors(F: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """e^{tA} on the phase rows Y (2, M): one DST of both rows, the factors F, a second DST.

    Works in place: Y is overwritten, and the result, returned, may share its
    memory.  The bits are those of ``dst(F * dst(Y, type=1), type=1)``.
    """
    Y = dst(Y, type=1, overwrite_x=True)
    Y *= F
    return dst(Y, type=1, overwrite_x=True)


def semigroup(op: SpectralOperator, t: float, x: np.ndarray) -> np.ndarray:
    """Apply e^{tA} to the state row x exactly in the discrete sine basis; t = 0 is the identity."""
    U = padded(op.grid, x)
    F, fp = semigroup_factors(op, t)
    if t == 0.0:
        return np.array(x, dtype=float)
    return np.append(apply_factors(F, U[:, 1:-1]), fp * x[-1])


def K_A(op: SpectralOperator) -> float:
    """Norm-equivalence constant sup |u|_{H2-state} / |A u|_{L2-state}.

    The supremum over the product space is attained on the sine basis of
    either slot or on the scalar direction, so an exhaustive sweep over the
    M basis vectors per slot is exact.
    """
    g = op.grid
    best = 1.0  # scalar direction (0, 0, 1): ratio exactly 1
    for k in range(1, g.M + 1):
        phi = np.pad(np.sin(k * np.pi * g.nodes / g.L), 1)
        h2 = math.sqrt(sq_norm(phi, g.h, "H2"))
        l2 = math.sqrt(sq_norm(phi, g.h, "L2"))
        ratio_plus = h2 / (abs(op.eigenvalues_plus[k - 1]) * l2)
        ratio_minus = h2 / (abs(op.eigenvalues_minus[k - 1]) * l2)
        best = max(best, ratio_plus, ratio_minus)
    return best


_NORM_OF_ALPHA = {0.0: "L2", 0.5: "H1", 1.0: "H2"}


def smoothing_check(op: SpectralOperator, t: float, x: np.ndarray, alpha: float, beta: float):
    """Diagnostic pair (|S_t x|_alpha, t^(beta-alpha) |x|_beta) for alpha >= beta and the state row x.

    The levels 0, 1/2 and 1 are realized as the discrete L2/H1/H2 norms.
    """
    if alpha < beta:
        raise ValueError("need alpha >= beta")
    if alpha not in _NORM_OF_ALPHA or beta not in _NORM_OF_ALPHA:
        raise ValueError(f"levels must be in {sorted(_NORM_OF_ALPHA)}")
    if t <= 0:
        raise ValueError("need t > 0")
    lhs = state_norm(op.grid, semigroup(op, t, x), _NORM_OF_ALPHA[alpha])
    rhs = t ** (beta - alpha) * state_norm(op.grid, x, _NORM_OF_ALPHA[beta])
    return lhs, rhs
