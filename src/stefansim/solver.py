"""Exponential-Euler time integration with exit-time and explosion tracking.

One step applies the exact semigroup to (state + dt * drift + noise
increment), which discretizes the semigroup integral equation term by term:
unconditionally stable in the stiff linear part, first order in dt in the
drift, Ito (left endpoint) in the noise.  A step of a model whose two sigma
phases are the shared zero noise ``coefficients.sigma_zero()`` has no noise
term and draws no increment.

A state is the row u1 | u2 | p (see ``grids``).  A ``_Path`` holds one
trajectory: the constants of its model and step, built once, its state as
padded phases (2, M+2) plus the scalar p, and the buffers ``advance`` writes
into, so a step allocates no array of the state's size and its noise term
looks nothing up.  ``advance`` steps the state by an increment array through
the array functions of ``coefficients`` and applies the cutoff of a
truncated run.  ``solve`` loops it from an initial row, records rows and
decides the exits; only a path that draws reads the stream, as the
sequence of its steps' increments.  ``step`` runs it once from a row, which
is how the lemma battery checks the cutoff that runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import coefficients
from .coefficients import CoefficientSet, TruncationSpec, diffusion_rows, draws_noise, drift_rows, transport_direction
from .errors import BoundaryLeftWindow, NonFiniteState
from .grids import Grid, interface_weights, padded, padded_state_norm
from .noise import AmbientGrid, NoiseStream, coloring
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
        if not 0 < self.dt <= self.T < math.inf:
            raise ValueError(f"need 0 < dt <= T < inf, got dt={self.dt}, T={self.T}")
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


class _Path:
    """One trajectory: the constants of its step, its current state and the buffers it is stepped in.

    The constants are the semigroup factors ``F``, ``fp`` of dt, the
    interface weights ``w`` of n, the phases' ``sigma`` bound to their nodes
    and, for a path that ``draws``, the ``coloring`` of its noise.  The
    state is held as padded phases ``U`` (2, M+2), whose Dirichlet columns
    stay zero, for the differences; as their interior ``Y`` (2, M),
    contiguous, for the sums; and as the boundary ``p``.  ``g`` holds its
    transport direction and ``nrm`` its H2-state norm, from the differences
    for the starting row and from the sine modes after each step.  ``Z`` is
    the spare row buffer and ``noise`` the noise rows.
    """

    __slots__ = (
        "op", "c", "cfg", "draws", "sigma", "coloring", "F", "fp", "w", "U", "Y", "Z", "noise", "g", "p", "nrm"
    )

    def __init__(self, op: SpectralOperator, c: CoefficientSet, cfg: SolveConfig, ambient: AmbientGrid, x):
        grid = op.grid
        self.op, self.c, self.cfg = op, c, cfg
        self.draws = draws_noise(c)
        at = coefficients.sigma_at
        self.sigma = (at(c.sigma_plus, grid.nodes), at(c.sigma_minus, grid.reflected_nodes))
        self.coloring = coloring(c.kernel, ambient, grid) if self.draws else None
        self.F, self.fp = semigroup_factors(op, cfg.dt)
        self.w = interface_weights(grid, cfg.n)
        self.U = U = padded(grid, x)
        self.Y, self.Z, self.noise = np.ascontiguousarray(U[:, 1:-1]), np.empty((2, grid.M)), np.empty((2, grid.M))
        self.g = transport_direction(U, grid.h)
        self.p = float(x[-1])
        self.nrm = padded_state_norm(U, self.p, grid.h, "H2")

    @property
    def row(self) -> np.ndarray:
        """The current state as a row u1 | u2 | p."""
        return np.append(self.Y, self.p)

    @property
    def finite(self) -> bool:
        # a finite modal sum bounds every sine mode below about 1e154, so the
        # inverse DST has finite entries, and p is finite with the norm
        return math.isfinite(self.nrm) or bool(np.isfinite(self.Y).all() and math.isfinite(self.p))

    def advance(self, dW: Optional[np.ndarray]):
        """One step of exponential Euler by the noise increment dW (J,), not read where ``draws`` is false.

        The caller has checked that the window covers the boundary.  The
        cutoff factor is evaluated once from ``nrm`` and scales drift and
        diffusion.  The semigroup turns the drift in ``Z`` into the next ``Y``
        in place, which is copied into ``U``: the old padded state is dead
        once it has been read.  The new norm sqrt(h (s + g.g) + p^2) takes the
        modal sum s from ``apply_factors``; the caller checks ``finite``.
        """
        op, c, cfg = self.op, self.c, self.cfg
        grid = op.grid
        U, Y, p = self.U, self.Y, self.p
        drift, drift_p = drift_rows(c, U, p, self.g, self.w, grid, self.Z, Y)
        noise = diffusion_rows(self.sigma, U, p, dW, self.coloring, self.noise) if self.draws else None
        if cfg.truncation is not None:
            # looked up on the module so that a wrapper of coefficients.h_r sees the call
            f = coefficients.h_r(cfg.truncation, self.nrm**2)
            if f != 1.0:
                drift *= f
                if noise is not None:
                    noise *= f
                drift_p = f * drift_p
        drift *= cfg.dt
        drift += Y
        if noise is not None:
            drift += noise
        Y, s = apply_factors(self.F, drift, op.h2_weights)
        U[:, 1:-1] = Y
        p = self.fp * (p + cfg.dt * drift_p)
        h = grid.h
        g = transport_direction(U, h, self.g)
        self.Y, self.Z, self.p = Y, self.Y, p
        self.nrm = math.sqrt(h * (s + np.vdot(g, g)) + p * p)


def step(
    op: SpectralOperator,
    c: CoefficientSet,
    cfg: SolveConfig,
    x: np.ndarray,
    dW: np.ndarray,
    ambient: AmbientGrid,
) -> np.ndarray:
    """One exponential-Euler step of ``solve`` from the state row x; deterministic given (x, dW).

    It reproduces the row ``solve`` steps to bit for bit, except possibly in
    the cutoff band r^2 < |x|^2 < (r+1)^2 of a truncated run: there the
    cutoff factor reads the norm of x from differences, where ``solve`` read
    it from the previous step's sine modes, at most about 1e-15 apart.  Where
    ``solve`` exits it raises BoundaryLeftWindow or NonFiniteState.
    """
    path = _Path(op, c, cfg, ambient, x)
    p, L = path.p, op.grid.L
    if not ambient.covers(p, L):
        raise BoundaryLeftWindow(f"boundary at {p} with half-width {L} leaves window [{ambient.x_lo}, {ambient.x_hi}]")
    path.advance(dW)
    if not path.finite:
        raise NonFiniteState("non-finite state after a step")
    return path.row


# an exploding state overflows on its way to the "nonfinite" exit, which reports it
@np.errstate(over="ignore", invalid="ignore")
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

    ``stream`` needs only ``increments(num_steps, dt, ambient)``, an iterator over the (J,) increments
    of steps 0, 1, ... in order, read up to the last step taken; a noise-free path never touches it.
    """
    path = _Path(op, c, cfg, ambient, x0)
    times, rows, norms = [], [], [path.nrm]

    def record(t):
        if not times or times[-1] != t:
            times.append(t)
            rows.append(path.row)

    record(0.0)
    exit_event: Optional[ExitEvent] = None
    last = cfg.num_steps - 1
    increments = stream.increments(cfg.num_steps, cfg.dt, ambient) if path.draws else None
    for k in range(cfg.num_steps):
        if not ambient.covers(path.p, op.grid.L):
            exit_event = ExitEvent(step=k, time=k * cfg.dt, threshold=math.inf, kind="window")
            record(k * cfg.dt)
            break
        path.advance(next(increments) if path.draws else None)
        t_next = (k + 1) * cfg.dt
        if not path.finite:
            exit_event = ExitEvent(step=k + 1, time=t_next, threshold=math.inf, kind="nonfinite")
            break
        norms.append(path.nrm)
        if (k + 1) % cfg.record_every == 0 or k == last:
            record(t_next)
        if path.nrm > cfg.explosion_radius:
            exit_event = ExitEvent(step=k + 1, time=t_next, threshold=cfg.explosion_radius, kind="radius")
            record(t_next)
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
