"""Exponential-Euler time integration with exit-time and explosion tracking.

One step applies the exact semigroup to (state + dt * drift + noise
increment), which discretizes the semigroup integral equation term by term:
unconditionally stable in the stiff linear part, first order in dt in the
drift, Ito (left endpoint) in the noise.

The loop of ``solve`` steps one contiguous padded buffer of shape (2, M+2)
per path, rows u1 and u2 with zero end columns for the Dirichlet nodes, plus
the scalar p, and records dense rows u1 | u2 | p.  ``step`` runs the same
step for one ``State``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from . import coefficients
from .coefficients import CoefficientSet, TruncationSpec, diffusion_rows, drift_rows, transport_direction
from .errors import BoundaryLeftWindow, GridMismatch, NonFiniteState
from .grids import Grid, State, interface_weights, padded_state_norm
from .noise import AmbientGrid, NoiseIncrement, NoiseStream
from .operators import SpectralOperator, apply_factors, semigroup_factors

# The State-level layers stay importable here because perfbench/tracing.py
# hooks them by these names; the array loop below does not call them.
from .coefficients import diffusion_C, drift_B  # noqa: F401
from .grids import state_norm  # noqa: F401
from .operators import apply_semigroup_factors  # noqa: F401

__all__ = ["SolveConfig", "ExitEvent", "Trajectory", "step", "solve", "exit_times"]

# Relative tolerance on T/dt being a whole number of steps: admits the rounding
# of decimal inputs such as 0.25/2e-3 = 125.00000000000001.
_STEPS_RTOL = 1e-9


@dataclass(frozen=True)
class SolveConfig:
    dt: float
    T: float
    n: float  # positive integer or math.inf
    truncation: Optional[TruncationSpec] = None
    explosion_radius: float = 1e6
    record_every: int = 1

    def __post_init__(self):
        if not 0 < self.dt <= self.T:
            raise ValueError(f"need 0 < dt <= T, got dt={self.dt}, T={self.T}")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > _STEPS_RTOL * steps:
            raise ValueError(f"T = {self.T} is not a whole number of steps dt = {self.dt}")
        if not self.explosion_radius > 0:
            raise ValueError("explosion radius must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")

    @property
    def num_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass(frozen=True)
class ExitEvent:
    step: int
    time: float
    threshold: float  # the explosion radius for "radius", inf otherwise
    kind: str  # "radius", "nonfinite" or "window" (boundary left the noise window)


@dataclass
class Trajectory:
    """Recorded states as dense rows u1 | u2 | p, plus the per-step norm history used for exit times."""

    grid: Grid
    dt: float
    times: np.ndarray
    values: np.ndarray  # (records, 2M+1), one row u1 | u2 | p per recorded state
    norm_h2: np.ndarray  # H2-state norm at every step, starting at t = 0
    exit: Optional[ExitEvent] = None

    @property
    def exited(self) -> bool:
        return self.exit is not None

    @cached_property
    def states(self) -> List[State]:
        return [State.from_flat(self.grid, v) for v in self.values]

    @property
    def final_state(self) -> State:
        return State.from_flat(self.grid, self.values[-1])

    @property
    def boundary_path(self) -> np.ndarray:
        return self.values[:, -1].copy()


def _advance(op, c, cfg, U, p, g, nrm, inc, ambient, factors, w):
    """One exponential-Euler step of the padded phases U (2, M+2) and boundary p.

    ``g`` is transport_direction(U) and ``nrm`` the H2-state norm of (U, p);
    the cutoff factor is evaluated once from it and applied to drift and
    diffusion.  Returns the new (U, p).
    """
    grid = op.grid
    drift, drift_p = drift_rows(c, U, p, g, w, grid)
    noise = diffusion_rows(c, U, p, inc, ambient, grid)
    if cfg.truncation is not None:
        # looked up on the module so that a wrapper of coefficients.h_r sees the call
        f = coefficients.h_r(cfg.truncation, nrm**2)
        if f != 1.0:
            drift *= f
            noise *= f
            drift_p = f * drift_p
    drift *= cfg.dt
    drift += U[:, 1:-1]
    drift += noise
    F, fp = factors
    out = np.zeros_like(U)
    out[:, 1:-1] = apply_factors(F, drift)
    p_out = fp * (p + cfg.dt * drift_p)
    if not (np.isfinite(out).all() and math.isfinite(p_out)):
        raise NonFiniteState(f"non-finite state after step at index {inc.step_index}")
    return out, p_out


def step(
    op: SpectralOperator,
    c: CoefficientSet,
    cfg: SolveConfig,
    X: State,
    inc: NoiseIncrement,
    ambient: AmbientGrid,
    factors=None,
    norm_h2: Optional[float] = None,
) -> State:
    """One exponential-Euler step; deterministic given (X, inc).

    ``norm_h2`` is the H2-state norm of X, if the caller already has it.
    """
    if X.grid != op.grid:
        raise GridMismatch("state grid does not match operator grid")
    h = op.grid.h
    U = X.padded()
    g = transport_direction(U, h)
    if factors is None:
        factors = semigroup_factors(op, cfg.dt)
    if norm_h2 is None and cfg.truncation is not None:
        norm_h2 = padded_state_norm(U, X.p, h, "H2", g)
    w = interface_weights(op.grid, cfg.n)
    U, p = _advance(op, c, cfg, U, X.p, g, norm_h2, inc, ambient, factors, w)
    return State.from_flat(op.grid, np.append(U[:, 1:-1], p))


def solve(
    op: SpectralOperator,
    c: CoefficientSet,
    cfg: SolveConfig,
    X0: State,
    stream: NoiseStream,
    ambient: AmbientGrid,
) -> Trajectory:
    """Iterate steps until the horizon, an explosion, a non-finite value or
    the boundary leaving the noise window.

    All recorded values are finite: the step that produces a non-finite state
    is flagged as the exit and not recorded.  A state whose boundary has left
    the ambient window cannot be stepped; it ends the path as a "window" exit
    and is recorded as the last state, like the state crossing the explosion
    radius.  With truncated coefficients the drift and diffusion are bounded,
    so runs only stop early at the explosion radius if that radius was set
    inside the cutoff ball.
    """
    if X0.grid != op.grid:
        raise GridMismatch("state grid does not match operator grid")
    h = op.grid.h
    factors = semigroup_factors(op, cfg.dt)
    w = interface_weights(op.grid, cfg.n)
    U, p = X0.padded(), X0.p
    g = transport_direction(U, h)
    nrm = padded_state_norm(U, p, h, "H2", g)
    times = [0.0]
    rows = [np.append(U[:, 1:-1], p)]
    norms = [nrm]
    exit_event: Optional[ExitEvent] = None

    for k in range(cfg.num_steps):
        inc = stream.increment(k, cfg.dt, ambient)
        t_next = (k + 1) * cfg.dt
        try:
            U_next, p_next = _advance(op, c, cfg, U, p, g, nrm, inc, ambient, factors, w)
        except NonFiniteState:
            exit_event = ExitEvent(step=k + 1, time=t_next, threshold=math.inf, kind="nonfinite")
            break
        except BoundaryLeftWindow:
            t_exit = k * cfg.dt
            exit_event = ExitEvent(step=k, time=t_exit, threshold=math.inf, kind="window")
            if times[-1] != t_exit:
                times.append(t_exit)
                rows.append(np.append(U[:, 1:-1], p))
            break
        U, p = U_next, p_next
        g = transport_direction(U, h)
        nrm = padded_state_norm(U, p, h, "H2", g)
        norms.append(nrm)
        if (k + 1) % cfg.record_every == 0:
            times.append(t_next)
            rows.append(np.append(U[:, 1:-1], p))
        if nrm > cfg.explosion_radius:
            exit_event = ExitEvent(
                step=k + 1, time=t_next, threshold=cfg.explosion_radius, kind="radius"
            )
            if times[-1] != t_next:
                times.append(t_next)
                rows.append(np.append(U[:, 1:-1], p))
            break

    return Trajectory(
        grid=op.grid,
        dt=cfg.dt,
        times=np.array(times),
        values=np.array(rows),
        norm_h2=np.array(norms),
        exit=exit_event,
    )


def exit_times(traj: Trajectory, r: float):
    """First times the recorded norm reaches (>=) and strictly exceeds (>) r.

    Both are computed from the same per-step norm sequence; the pair differs
    only on exact-threshold hits.  Returns math.inf where no crossing occurs.
    A "window" exit is not a norm crossing and does not count.
    """
    if not r > 0:
        raise ValueError("radius must be positive")
    norms = traj.norm_h2
    sigma_r = math.inf
    tau_r = math.inf
    hit = np.nonzero(norms >= r)[0]
    if hit.size:
        sigma_r = hit[0] * traj.dt
    hit = np.nonzero(norms > r)[0]
    if hit.size:
        tau_r = hit[0] * traj.dt
    if traj.exit is not None and traj.exit.kind == "nonfinite":
        # the non-finite step counts as exceeding every radius
        t_exit = traj.exit.time
        sigma_r = min(sigma_r, t_exit)
        tau_r = min(tau_r, t_exit)
    return sigma_r, tau_r
