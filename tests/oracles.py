"""Reference maps that only the tests use: the inverse of F, the semigroup
smoothing pair and numpy's own draw of one noise increment."""

import math

import numpy as np

from stefansim import SpectralOperator, semigroup, state_norm
from stefansim.errors import StefansimError
from stefansim.grids import Grid


def seed_sequence_increment(seed: int, k: int, dt: float, ambient) -> np.ndarray:
    """Step k's increment as numpy draws it: a fresh SeedSequence, PCG64 and Generator for (seed, k)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0, k))
    return np.random.default_rng(ss).normal(0.0, math.sqrt(dt / ambient.dy), ambient.J)


class InterfaceNotZero(StefansimError):
    """A moving-frame profile does not vanish at the interface."""


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
