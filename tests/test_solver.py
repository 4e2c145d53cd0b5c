import math
import sys

import numpy as np
import pytest

from stefansim import (
    AmbientGrid,
    CoefficientSet,
    Grid,
    GridFunction,
    NoiseStream,
    SolveConfig,
    State,
    SpectralOperator,
    TruncationSpec,
    exit_times,
    gaussian_kernel,
    semigroup,
    solve,
    state_norm,
    step,
)
from stefansim.coefficients import (
    INF,
    drift_B,
    mu_quadratic,
    mu_zero,
    rho_linear,
    rho_tanh,
    rho_zero,
    sigma_affine,
    sigma_zero,
)
from stefansim.noise import NoiseIncrement
from stefansim.solver import ExitEvent, Trajectory

REPORT_LINES = []


@pytest.fixture
def grid():
    return Grid(1.0, 127)


@pytest.fixture
def ambient():
    return AmbientGrid(-3.0, 3.0, 121)


def make_model(ambient, mu=None, sigma=None, rho=None):
    r, lip = rho if rho is not None else rho_zero()
    return CoefficientSet(
        eta_plus=1.0,
        eta_minus=1.0,
        mu_plus=mu if mu is not None else mu_zero(),
        mu_minus=mu if mu is not None else mu_zero(),
        sigma_plus=sigma if sigma is not None else sigma_zero(),
        sigma_minus=sigma if sigma is not None else sigma_zero(),
        rho=r,
        rho_lipschitz=lip,
        kernel=gaussian_kernel(0.5, ambient),
    )


def sine_state(grid, amplitude=1.0):
    f = GridFunction.from_callable(grid, lambda x: amplitude * np.sin(np.pi * x / grid.L))
    return State(f, GridFunction.zero(grid), 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(dt=0.0, T=1.0, n=INF)
    with pytest.raises(ValueError):
        SolveConfig(dt=0.2, T=0.1, n=INF)
    with pytest.raises(ValueError):
        SolveConfig(dt=0.01, T=1.0, n=INF, explosion_radius=0.0)
    with pytest.raises(ValueError):
        SolveConfig(dt=0.3, T=1.0, n=INF)  # would stop at t = 0.9
    assert SolveConfig(dt=0.01, T=1.0, n=INF).num_steps == 100
    assert SolveConfig(dt=2e-3, T=0.25, n=INF).num_steps == 125


def test_heat_decay_oracle(grid, ambient):
    model = make_model(ambient)
    op = SpectralOperator(grid, 1.0, 1.0)
    cfg = SolveConfig(dt=1e-4, T=0.1, n=INF, record_every=100)
    traj = solve(op, model, cfg, sine_state(grid), NoiseStream(seed=0), ambient)
    assert not traj.exited
    final = traj.final_state.u1.values
    target = math.exp(-math.pi**2 * 0.1) * sine_state(grid).u1.values
    assert np.max(np.abs(final - target)) / np.max(np.abs(target)) < 1e-2


def test_scalar_motion(grid, ambient):
    # mu = sigma = 0, rho = 1: p ODE is p' = 1 after the Id terms cancel
    model = make_model(ambient, rho=(lambda a, b: 1.0, lambda r: 0.0))
    op = SpectralOperator(grid, 1.0, 1.0)
    dt = 1e-3
    cfg = SolveConfig(dt=dt, T=0.5, n=INF, record_every=1)
    X0 = State(GridFunction.zero(grid), GridFunction.zero(grid), 0.25)
    traj = solve(op, model, cfg, X0, NoiseStream(seed=0), ambient)
    # single-step recursion p+ = e^{-dt} (p + dt (1 + p))
    p = 0.25
    for _ in range(cfg.num_steps):
        p = math.exp(-dt) * (p + dt * (1.0 + p))
    assert traj.final_state.p == pytest.approx(p, rel=1e-12)
    assert abs(traj.final_state.p - 0.75) < 5 * dt


def test_step_richardson(grid, ambient):
    from stefansim.operators import apply_A
    from stefansim.noise import NoiseIncrement

    # coarse grid so dt * |largest eigenvalue| stays small in the sweep
    cg = Grid(1.0, 31)
    model = make_model(ambient, rho=rho_linear(0.5))
    op = SpectralOperator(cg, 1.0, 1.0)
    X = sine_state(cg, 0.5)
    rhs = apply_A(op, X) + drift_B(model, X, INF)
    errs = []
    for dt in (1e-5, 5e-6):
        cfg = SolveConfig(dt=dt, T=1.0, n=INF)
        inc = NoiseIncrement(np.zeros(ambient.J), 0, dt)
        Y = step(op, model, cfg, X, inc, ambient)
        errs.append(state_norm((1.0 / dt) * (Y - X) - rhs, "L2"))
    assert errs[1] < 0.7 * errs[0]


def test_truncated_large_state_decays(grid, ambient):
    model = make_model(ambient, rho=rho_linear(1.0), sigma=sigma_affine(additive=0.5))
    op = SpectralOperator(grid, 1.0, 1.0)
    cfg = SolveConfig(dt=1e-3, T=0.05, n=INF, truncation=TruncationSpec(0.5))
    X0 = sine_state(grid, 10.0)
    assert state_norm(X0, "H2") ** 2 > (0.5 + 1.0) ** 2
    traj = solve(op, model, cfg, X0, NoiseStream(seed=3), ambient)
    norms = traj.norm_h2
    assert np.all(np.diff(norms) < 0)


def test_explosion_flagged(grid, ambient):
    model = make_model(ambient, mu=mu_quadratic(1.0))
    op = SpectralOperator(grid, 1.0, 1.0)
    cfg = SolveConfig(dt=1e-3, T=1.0, n=INF, explosion_radius=1e4)
    traj = solve(op, model, cfg, sine_state(grid, 30.0), NoiseStream(seed=0), ambient)
    assert traj.exited
    assert traj.exit.time < 1.0
    for X in traj.states:
        assert X.is_finite()


def test_determinism(grid, ambient):
    model = make_model(ambient, rho=rho_linear(0.5), sigma=sigma_affine(additive=0.3))
    op = SpectralOperator(grid, 1.0, 1.0)
    cfg = SolveConfig(dt=1e-3, T=0.05, n=8, record_every=10)
    a = solve(op, model, cfg, sine_state(grid), NoiseStream(seed=11), ambient)
    b = solve(op, model, cfg, sine_state(grid), NoiseStream(seed=11), ambient)
    assert np.array_equal(a.final_state.u1.values, b.final_state.u1.values)
    assert a.final_state.p == b.final_state.p
    c = solve(op, model, cfg, sine_state(grid), NoiseStream(seed=12), ambient)
    assert not np.array_equal(a.final_state.u1.values, c.final_state.u1.values)


def test_truncation_consistency_bitwise(grid, ambient):
    # truncated and plain runs agree bitwise while the squared norm stays below r^2
    model = make_model(ambient, rho=rho_linear(0.5), sigma=sigma_affine(additive=0.3))
    op = SpectralOperator(grid, 1.0, 1.0)
    r = 2.0
    base = SolveConfig(dt=1e-3, T=0.05, n=INF, record_every=1)
    trunc = SolveConfig(dt=1e-3, T=0.05, n=INF, truncation=TruncationSpec(r), record_every=1)
    for seed in range(5):
        a = solve(op, model, base, sine_state(grid, 0.2), NoiseStream(seed=seed), ambient)
        b = solve(op, model, trunc, sine_state(grid, 0.2), NoiseStream(seed=seed), ambient)
        assert np.all(a.norm_h2 < r)
        for Xa, Xb in zip(a.states, b.states):
            assert np.array_equal(Xa.u1.values, Xb.u1.values)
            assert np.array_equal(Xa.u2.values, Xb.u2.values)
            assert Xa.p == Xb.p


def _norm_history(dt, norm_h2, exit=None):
    # exit_times reads only dt, the norm history and the exit
    return Trajectory(grid=Grid(1.0, 4), dt=dt, times=np.array([0.0]), values=np.zeros((1, 9)),
                      norm_h2=norm_h2, exit=exit)


def test_exit_times_sequences():
    r = 1.0
    traj = _norm_history(0.5, np.array([0.1, r, r, 2 * r]))
    sigma_r, tau_r = exit_times(traj, r)
    assert sigma_r == pytest.approx(0.5)
    assert tau_r == pytest.approx(1.5)

    below = _norm_history(0.5, np.array([0.1, 0.2]))
    assert exit_times(below, r) == (math.inf, math.inf)

    with pytest.raises(ValueError):
        exit_times(below, 0.0)

    # leaving the noise window is not a norm crossing; a non-finite step is
    for kind, expected in (("window", (math.inf, math.inf)), ("nonfinite", (0.5, 0.5))):
        event = ExitEvent(step=1, time=0.5, threshold=math.inf, kind=kind)
        t = _norm_history(0.5, np.array([0.1, 0.2]), event)
        assert exit_times(t, r) == expected

    rng = np.random.default_rng(0)
    for _ in range(50):
        t = _norm_history(0.1, np.abs(rng.standard_normal(20)))
        s, tau = exit_times(t, 0.8)
        assert s <= tau


def test_boundary_leaving_window_ends_path(grid):
    # strong interface transport pushes p out of a narrow window within a few steps
    ambient = AmbientGrid(-grid.L - 0.05, grid.L + 0.05, 43)
    model = make_model(ambient, rho=rho_linear(20.0))
    op = SpectralOperator(grid, 1.0, 1.0)
    cfg = SolveConfig(dt=2e-3, T=0.1, n=INF, record_every=5)
    f = GridFunction.from_callable(grid, lambda x: x * np.exp(-4.0 * x * x))
    traj = solve(op, model, cfg, State(f, GridFunction.zero(grid), 0.0), NoiseStream(seed=0), ambient)
    assert traj.exited and traj.exit.kind == "window"
    k = traj.exit.step
    assert 0 < k < cfg.num_steps
    assert len(traj.norm_h2) == k + 1
    assert traj.times[-1] == traj.exit.time == k * cfg.dt
    assert not ambient.covers(traj.final_state.p, grid.L)
    assert all(ambient.covers(X.p, grid.L) for X in traj.states[:-1])


def test_mild_vs_strong_identity(grid, ambient):
    # zero noise: X(t) - S_t X0 matches the Riemann sum of S_{t-s} B(X(s)) ds
    model = make_model(ambient, rho=rho_linear(0.5))
    op = SpectralOperator(grid, 1.0, 1.0)
    dt = 1e-3
    cfg = SolveConfig(dt=dt, T=0.05, n=INF, record_every=1)
    X0 = sine_state(grid, 0.5)
    stream = NoiseStream(seed=0)

    class ZeroStream:
        def increment(self, k, dt_, amb):
            from stefansim.noise import NoiseIncrement

            return NoiseIncrement(np.zeros(amb.J), k, dt_)

    traj = solve(op, model, cfg, X0, ZeroStream(), ambient)
    K = cfg.num_steps
    acc = State.zero(grid)
    for k in range(K):
        contrib = semigroup(op, (K - k) * dt, dt * drift_B(model, traj.states[k], INF))
        acc = acc + contrib
    lhs = traj.states[K] - semigroup(op, K * dt, X0)
    assert state_norm(lhs - acc, "H1") < 10 * dt


def test_strong_order_under_common_noise(ambient):
    # dt, dt/2, dt/4 and dt/8 all read one fine keyed stream: a coarse
    # increment is the exact sum of the fine increments it covers.  The noise
    # is mostly multiplicative, for which the expected strong order is 1/2.
    grid = Grid(1.0, 63)
    model = make_model(ambient, sigma=sigma_affine(additive=0.3, multiplicative=1.0), rho=rho_tanh(1.0))
    op = SpectralOperator(grid, 1.0, 1.0)
    X0 = sine_state(grid, 0.5)
    dt, T, halvings, seeds = 4e-3, 0.1, 3, range(32)
    fine_dt = dt / 2**halvings

    class Coarsened:
        def __init__(self, fine, ratio):
            self.fine, self.ratio = fine, ratio

        def increment(self, k, dt_, amb):
            r = self.ratio
            return NoiseIncrement(sum(self.fine[k * r : (k + 1) * r]), k, dt_)

    sup_dist = np.zeros(halvings)
    for seed in seeds:
        stream = NoiseStream(seed=seed)
        fine = [stream.increment(j, fine_dt, ambient).dW for j in range(round(T / fine_dt))]
        paths = []
        for level in range(halvings + 1):
            cfg = SolveConfig(dt=dt / 2**level, T=T, n=8, record_every=2**level)
            traj = solve(op, model, cfg, X0, Coarsened(fine, 2 ** (halvings - level)), ambient)
            assert not traj.exited
            paths.append(traj)
        for level, (a, b) in enumerate(zip(paths, paths[1:])):
            assert np.allclose(a.times, b.times, rtol=0, atol=1e-12)
            sup_dist[level] += max(state_norm(x - y, "L2") for x, y in zip(a.states, b.states))
    sup_dist /= len(seeds)
    order = float(np.polyfit(np.log(dt / 2.0 ** np.arange(halvings)), np.log(sup_dist), 1)[0])
    ok = order >= 0.4
    line = (f"STRONG ORDER: {'PASS' if ok else 'FAIL'} - fitted order {order:.3f} (>=0.4, expected 1/2) "
            f"of E sup_t |X_dt - X_dt/2|_L2, dt = {dt:g}..{dt / 2**halvings:g}, {len(seeds)} seeds")
    print(line, file=sys.__stdout__, flush=True)
    REPORT_LINES.append(line)
    assert ok
