"""The linear operator A = diag(eta+ Lap_D, eta- Lap_D, 0) - Id and its semigroup.

The Dirichlet Laplacian on the uniform grid is diagonal in the discrete sine
basis, so e^{tA} is applied exactly (up to round-off) by a DST, a pointwise
exponential factor and an inverse DST.  No time-stepping error enters through
the linear part.

The unnormalized DST-I S of length M satisfies S^2 = 2(M+1) Id, so for rows
Y = S Q Parseval gives sum Y^2 + sum (d2 Y)^2 = sum_k 2(M+1)(1 + lambda_k^2) Q_k^2,
with lambda_k the eigenvalues of -Lap_D.  The semigroup step reads the L2 and
second-difference part of the next state's H2 norm from its sine modes this
way, with the weights ``SpectralOperator.h2_weights``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .grids import Grid, diff2, padded, sq_norm

__all__ = [
    "SpectralOperator",
    "apply_A",
    "semigroup",
    "semigroup_factors",
    "apply_factors",
    "K_A",
]


def _load_extension(name: str, directory: str):
    """The extension module ``name`` executed from its file in ``directory``, not entered in sys.modules.

    Raises ImportError naming ``directory`` when it holds no such module.
    """
    spec = importlib.machinery.PathFinder.find_spec(name, [directory])
    if spec is None:
        raise ImportError(f"no extension module {name!r} in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pocketfft_dir() -> str:
    """The directory of scipy's pocketfft package, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed")
    return os.path.join(spec.submodule_search_locations[0], "fft", "_pocketfft")


# The pocketfft binding that scipy.fft.dst and scipy.fftpack.dst end in.  The
# module is private to scipy; called directly it skips the per-call dtype
# coercion, copy detection, norm and worker lookup and complex check, which
# cost more than a transform of a few hundred points.  It returns the same
# bits.  It is loaded from its file, so that scipy.fft's package init (its
# array-API layer and every other transform) never runs; a later
# ``import scipy.fft`` loads its own copy.  There is no fallback.
pypocketfft = _load_extension("pypocketfft", _pocketfft_dir())


def dst(x: np.ndarray, out=None) -> np.ndarray:
    """Unnormalized DST-I of the float64 array x along its last axis, into ``out`` (which may be x) if given."""
    return pypocketfft.dst(x, 1, (x.ndim - 1,), 0, out, 1)


def _dirichlet_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues lambda_k^h = (4/h^2) sin^2(k pi h / (2L)) of -Lap_D, k=1..M."""
    h = grid.h
    k = np.arange(1, grid.M + 1)
    return (4.0 / (h * h)) * np.sin(k * np.pi * h / (2.0 * grid.L)) ** 2


@dataclass(frozen=True)
class SpectralOperator:
    """The operator A on ``grid`` with the diffusivities eta+ and eta- of the two phases.

    ``h2_weights`` (M,), read-only, are the per-mode weights 2(M+1)(1 + lambda_k^2)
    of ``apply_factors``' modal sum.
    """

    grid: Grid
    eta_plus: float
    eta_minus: float
    eigenvalues_plus: np.ndarray = field(init=False, repr=False)
    eigenvalues_minus: np.ndarray = field(init=False, repr=False)
    h2_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (0 < self.eta_plus < math.inf and 0 < self.eta_minus < math.inf):
            raise ValueError(f"diffusivities eta_plus = {self.eta_plus} and eta_minus = {self.eta_minus} "
                             "must be positive and finite")
        lam = _dirichlet_eigenvalues(self.grid)
        object.__setattr__(self, "eigenvalues_plus", -self.eta_plus * lam - 1.0)
        object.__setattr__(self, "eigenvalues_minus", -self.eta_minus * lam - 1.0)
        assert np.all(self.eigenvalues_plus < 0)
        assert np.all(self.eigenvalues_minus < 0)
        W = 2.0 * (self.grid.M + 1) * (1.0 + lam * lam)
        W.setflags(write=False)
        object.__setattr__(self, "h2_weights", W)

    def __reduce__(self):
        return SpectralOperator, (self.grid, self.eta_plus, self.eta_minus)  # rebuilt, so its arrays stay read-only


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


def apply_factors(F: np.ndarray, Y: np.ndarray, W: np.ndarray):
    """e^{tA} on the phase rows Y (2, M) and the modal sum of the result.

    One DST of both rows, the factors F, a second DST, all in place: Y is
    overwritten with the new rows, which are returned together with
    sum_k W_k Q_k^2 over the sine modes Q between the two transforms.  With
    W = ``SpectralOperator.h2_weights`` that sum is sum Y'^2 + sum (d2 Y')^2
    of the new rows Y' up to round-off.  The rows have the bits of
    ``scipy.fft.dst(F * scipy.fft.dst(Y, type=1), type=1)``.
    """
    Q = dst(Y, Y)
    Q *= F
    s = np.vdot(Q * W, Q)
    return dst(Q, Q), s


def semigroup(op: SpectralOperator, t: float, x: np.ndarray) -> np.ndarray:
    """Apply e^{tA} to the state row x exactly in the discrete sine basis; t = 0 is the identity."""
    U = padded(op.grid, x)
    F, fp = semigroup_factors(op, t)
    if t == 0.0:
        return np.array(x, dtype=float)
    return np.append(apply_factors(F, U[:, 1:-1], op.h2_weights)[0], fp * x[-1])


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
