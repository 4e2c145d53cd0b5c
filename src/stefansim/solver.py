"""Exponential-Euler time integration with exit-time and explosion tracking.

One step applies the exact semigroup to (state + dt * drift + noise
increment), which discretizes the semigroup integral equation term by term:
unconditionally stable in the stiff linear part, first order in dt in the
drift, Ito (left endpoint) in the noise.  A step whose diffusion coefficients
vanish at the current state draws no noise increment.

A state is the row u1 | u2 | p (see ``grids``).  ``_advance`` steps its
padded phases (2, M+2) plus the scalar p through the array functions of
``coefficients``, and applies the cutoff of a truncated run there.  It
writes every array of the state's size that it can into the buffers of a
``_Workspace``: ping-pong padded states, ping-pong rows that take the drift
and then the next state's interior, and the transport and noise rows.
``solve`` makes one workspace per path, loops the step from an initial row
and records rows; ``step`` makes a one-off workspace, runs the same step once
from a row and returns the next, which is how the lemma battery checks the
cutoff that runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import coefficients
from .coefficients import CoefficientSet, TruncationSpec, diffusion_rows, drift_rows, transport_direction
from .errors import BoundaryLeftWindow, NonFiniteState
from .grids import Grid, interface_weights, padded, padded_state_norm
from .noise import AmbientGrid, NoiseIncrement, NoiseStream
from .operators import SpectralOperator, apply_factors, semigroup_factors

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

    @property
    def boundary_path(self) -> np.ndarray:
        return self.values[:, -1].copy()


class _Workspace:
    """The current state of one path and the buffers it is stepped in, allocated once per path.

    The state is held as padded phases ``states[i]`` (2, M+2), whose
    Dirichlet columns stay zero, for the differences; as their interior
    ``Y`` (2, M), contiguous, for the sums; and as the boundary ``p``.  ``g``
    holds its transport direction and ``nrm`` its H2-state norm.  A step
    assembles the drift in ``rows[1 - i]``, which the semigroup turns into
    the next ``Y`` in place, writes the next padded phases into
    ``states[1 - i]`` and flips i.  ``noise`` holds the noise rows of a step.
    """

    __slots__ = ("states", "rows", "noise", "g", "i", "Y", "p", "nrm")

    def __init__(self, grid: Grid, x: np.ndarray):
        M = grid.M
        U = padded(grid, x)
        self.states = (U, np.zeros((2, M + 2)))
        self.rows = (np.ascontiguousarray(U[:, 1:-1]), np.empty((2, M)))
        self.noise = np.empty((2, M))
        self.g = transport_direction(U, grid.h)
        self.i, self.Y, self.p = 0, self.rows[0], float(x[-1])
        self.nrm = padded_state_norm(U, self.p, grid.h, "H2", self.g, self.Y)

    @property
    def row(self) -> np.ndarray:
        """The current state as a row u1 | u2 | p."""
        return np.append(self.Y, self.p)


def _advance(op, c, cfg, ws, draw, k, ambient, factors, w):
    """Step ``k`` of exponential Euler from the current state of the workspace ``ws``.

    The cutoff factor is evaluated once from the norm ``ws.nrm`` and applied
    to drift and diffusion.  ``draw()`` returns the noise increment of the
    step; it is not called when the diffusion coefficients vanish at the
    state.  The new state becomes the current state of ``ws``.  A norm that
    is not finite is followed by an entrywise check; a non-finite entry
    raises NonFiniteState and leaves ``ws`` unfit for another step.
    """
    grid = op.grid
    i, Y, p = ws.i, ws.Y, ws.p
    U = ws.states[i]
    drift, drift_p = drift_rows(c, U, p, ws.g, w, grid, ws.rows[1 - i], Y)
    noise = diffusion_rows(c, U, p, draw, ambient, grid, ws.noise)
    if cfg.truncation is not None:
        # looked up on the module so that a wrapper of coefficients.h_r sees the call
        f = coefficients.h_r(cfg.truncation, ws.nrm**2)
        if f != 1.0:
            drift *= f
            if noise is not None:
                noise *= f
            drift_p = f * drift_p
    drift *= cfg.dt
    drift += Y
    if noise is not None:
        drift += noise
    F, fp = factors
    Y = apply_factors(F, drift)
    U = ws.states[1 - i]
    U[:, 1:-1] = Y
    p = fp * (p + cfg.dt * drift_p)
    h = grid.h
    nrm = padded_state_norm(U, p, h, "H2", transport_direction(U, h, ws.g), Y)
    # a finite norm is a sum of finite squares, so every entry is finite
    if not math.isfinite(nrm) and not (np.isfinite(Y).all() and math.isfinite(p)):
        raise NonFiniteState(f"non-finite state after step at index {k}")
    ws.i, ws.Y, ws.p, ws.nrm = 1 - i, Y, p, nrm


def step(
    op: SpectralOperator,
    c: CoefficientSet,
    cfg: SolveConfig,
    x: np.ndarray,
    inc: NoiseIncrement,
    ambient: AmbientGrid,
) -> np.ndarray:
    """One exponential-Euler step of ``solve`` from the state row x; deterministic given (x, inc)."""
    ws = _Workspace(op.grid, x)
    factors = semigroup_factors(op, cfg.dt)
    w = interface_weights(op.grid, cfg.n)
    _advance(op, c, cfg, ws, lambda: inc, inc.step_index, ambient, factors, w)
    return ws.row


def solve(
    op: SpectralOperator,
    c: CoefficientSet,
    cfg: SolveConfig,
    x0: np.ndarray,
    stream: NoiseStream,
    ambient: AmbientGrid,
) -> Trajectory:
    """Iterate steps from the state row x0 until the horizon, an explosion, a
    non-finite value or the boundary leaving the noise window.

    All recorded values are finite: the step that produces a non-finite state
    is flagged as the exit and not recorded.  A state whose boundary has left
    the ambient window cannot be stepped; it ends the path as a "window" exit
    and is recorded as the last state, like the state crossing the explosion
    radius.  The state at the horizon is always recorded, whether or not
    ``record_every`` divides the number of steps.  With truncated
    coefficients the drift and diffusion are bounded, so runs only stop early
    at the explosion radius if that radius was set inside the cutoff ball.
    """
    ws = _Workspace(op.grid, x0)
    factors = semigroup_factors(op, cfg.dt)
    w = interface_weights(op.grid, cfg.n)
    times = [0.0]
    rows = [ws.row]
    norms = [ws.nrm]
    exit_event: Optional[ExitEvent] = None
    last = cfg.num_steps - 1

    for k in range(cfg.num_steps):
        t_next = (k + 1) * cfg.dt
        draw = partial(stream.increment, k, cfg.dt, ambient)
        try:
            _advance(op, c, cfg, ws, draw, k, ambient, factors, w)
        except NonFiniteState:
            exit_event = ExitEvent(step=k + 1, time=t_next, threshold=math.inf, kind="nonfinite")
            break
        except BoundaryLeftWindow:
            t_exit = k * cfg.dt
            exit_event = ExitEvent(step=k, time=t_exit, threshold=math.inf, kind="window")
            if times[-1] != t_exit:
                times.append(t_exit)
                rows.append(ws.row)
            break
        nrm = ws.nrm
        norms.append(nrm)
        if (k + 1) % cfg.record_every == 0 or k == last:
            times.append(t_next)
            rows.append(ws.row)
        if nrm > cfg.explosion_radius:
            exit_event = ExitEvent(
                step=k + 1, time=t_next, threshold=cfg.explosion_radius, kind="radius"
            )
            if times[-1] != t_next:
                times.append(t_next)
                rows.append(ws.row)
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
