"""Exponential-Euler time integration with exit-time and explosion tracking.

One step applies the exact semigroup to (state + dt * drift + noise
increment), which discretizes the semigroup integral equation term by term:
unconditionally stable in the stiff linear part, first order in dt in the
drift, Ito (left endpoint) in the noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import coefficients
from .coefficients import CoefficientSet, TruncationSpec, diffusion_C, drift_B
from .errors import BoundaryLeftWindow, NonFiniteState
from .grids import State, state_norm
from .noise import AmbientGrid, NoiseIncrement, NoiseStream
from .operators import SpectralOperator, apply_semigroup_factors, semigroup_factors

__all__ = ["SolveConfig", "ExitEvent", "Trajectory", "step", "solve", "exit_times"]


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
    """Recorded states plus the per-step norm history used for exit times."""

    dt: float
    times: np.ndarray
    states: List[State]
    norm_h2: np.ndarray  # H2-state norm at every step, starting at t = 0
    exit: Optional[ExitEvent] = None

    @property
    def exited(self) -> bool:
        return self.exit is not None

    @property
    def final_state(self) -> State:
        return self.states[-1]

    @property
    def boundary_path(self) -> np.ndarray:
        return np.array([s.p for s in self.states])


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

    ``norm_h2`` is the H2-state norm of X, if the caller already has it; the
    cutoff factor is evaluated once from it and applied to drift and diffusion.
    """
    if factors is None:
        factors = semigroup_factors(op, cfg.dt)
    drift = drift_B(c, X, cfg.n)
    noise = diffusion_C(c, X, inc, ambient)
    if cfg.truncation is not None:
        if norm_h2 is None:
            norm_h2 = state_norm(X, "H2")
        # looked up on the module so that a wrapper of coefficients.h_r sees the call
        f = coefficients.h_r(cfg.truncation, norm_h2**2)
        if f != 1.0:
            drift, noise = f * drift, f * noise
    Y = X + cfg.dt * drift + noise
    out = apply_semigroup_factors(op, factors, Y)
    if not out.is_finite():
        raise NonFiniteState(f"non-finite state after step at index {inc.step_index}")
    return out


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
    times = [0.0]
    states = [X0]
    norms = [state_norm(X0, "H2")]
    exit_event: Optional[ExitEvent] = None
    factors = semigroup_factors(op, cfg.dt)

    X = X0
    nrm = norms[0]
    for k in range(cfg.num_steps):
        inc = stream.increment(k, cfg.dt, ambient)
        t_next = (k + 1) * cfg.dt
        try:
            X = step(op, c, cfg, X, inc, ambient, factors=factors, norm_h2=nrm)
        except NonFiniteState:
            exit_event = ExitEvent(step=k + 1, time=t_next, threshold=math.inf, kind="nonfinite")
            break
        except BoundaryLeftWindow:
            t_exit = k * cfg.dt
            exit_event = ExitEvent(step=k, time=t_exit, threshold=math.inf, kind="window")
            if times[-1] != t_exit:
                times.append(t_exit)
                states.append(X)
            break
        nrm = state_norm(X, "H2")
        norms.append(nrm)
        if (k + 1) % cfg.record_every == 0:
            times.append(t_next)
            states.append(X)
        if nrm > cfg.explosion_radius:
            exit_event = ExitEvent(
                step=k + 1, time=t_next, threshold=cfg.explosion_radius, kind="radius"
            )
            if times[-1] != t_next:
                times.append(t_next)
                states.append(X)
            break

    return Trajectory(
        dt=cfg.dt,
        times=np.array(times),
        states=states,
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
