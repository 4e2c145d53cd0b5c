import math
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from stefansim import (
    AmbientGrid,
    Grid,
    GridMismatch,
    NoiseStream,
    SolveConfig,
    SpectralOperator,
    TruncationSpec,
    exit_times,
    semigroup,
    solve,
    state_norm,
    step,
)
from stefansim.coefficients import (
    INF,
    drift_rows,
    mu_quadratic,
    mu_zero,
    rho_linear,
    rho_tanh,
    sigma_affine,
    sigma_zero,
    transport_direction,
)
from stefansim.experiments import load_config, resolve
from stefansim.grids import interface_weights, padded
from stefansim.errors import BoundaryLeftWindow
from stefansim.noise import _gaussian_factors
from stefansim.solver import ExitEvent, Trajectory

from conftest import make_model
from oracles import seed_sequence_increment

REPORT_LINES = []


def row(u1, u2, p):
    return np.concatenate((u1, u2, [p]))


def sine_state(grid, amplitude=1.0):
    return row(amplitude * np.sin(np.pi * grid.nodes / grid.L), np.zeros(grid.M), 0.0)


def drift(model, grid, X, n):
    """The drift B_n at the state row X as a row, from the array function the solver steps."""
    U = padded(grid, X)
    rows, dp = drift_rows(model, U, X[-1], transport_direction(U, grid.h), interface_weights(grid, n), grid)
    return np.append(rows, dp)


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
    final = traj.values[-1, : grid.M]
    target = math.exp(-math.pi**2 * 0.1) * sine_state(grid)[: grid.M]
    assert np.max(np.abs(final - target)) / np.max(np.abs(target)) < 1e-2


def test_scalar_motion(grid, ambient):
    # mu = sigma = 0, rho = 1: p ODE is p' = 1 after the Id terms cancel
    model = make_model(ambient, rho=(lambda a, b: 1.0, lambda r: 0.0))
    op = SpectralOperator(grid, 1.0, 1.0)
    dt = 1e-3
    cfg = SolveConfig(dt=dt, T=0.5, n=INF, record_every=1)
    X0 = row(np.zeros(grid.M), np.zeros(grid.M), 0.25)
    traj = solve(op, model, cfg, X0, NoiseStream(seed=0), ambient)
    # single-step recursion p+ = e^{-dt} (p + dt (1 + p))
    p = 0.25
    for _ in range(cfg.num_steps):
        p = math.exp(-dt) * (p + dt * (1.0 + p))
    assert traj.values[-1, -1] == pytest.approx(p, rel=1e-12)
    assert abs(traj.values[-1, -1] - 0.75) < 5 * dt


def test_step_richardson(grid, ambient):
    from stefansim.operators import apply_A

    # coarse grid so dt * |largest eigenvalue| stays small in the sweep
    cg = Grid(1.0, 31)
    model = make_model(ambient, rho=rho_linear(0.5))
    op = SpectralOperator(cg, 1.0, 1.0)
    X = sine_state(cg, 0.5)
    rhs = apply_A(op, X) + drift(model, cg, X, INF)
    errs = []
    for dt in (1e-5, 5e-6):
        cfg = SolveConfig(dt=dt, T=1.0, n=INF)
        Y = step(op, model, cfg, X, np.zeros(ambient.J), ambient)
        errs.append(state_norm(cg, (1.0 / dt) * (Y - X) - rhs, "L2"))
    assert errs[1] < 0.7 * errs[0]


def test_truncated_large_state_decays(grid, ambient):
    model = make_model(ambient, rho=rho_linear(1.0), sigma=sigma_affine(additive=0.5))
    op = SpectralOperator(grid, 1.0, 1.0)
    cfg = SolveConfig(dt=1e-3, T=0.05, n=INF, truncation=TruncationSpec(0.5))
    X0 = sine_state(grid, 10.0)
    assert state_norm(grid, X0, "H2") ** 2 > (0.5 + 1.0) ** 2
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
    assert np.isfinite(traj.values).all()


def test_determinism(grid, ambient):
    model = make_model(ambient, rho=rho_linear(0.5), sigma=sigma_affine(additive=0.3))
    op = SpectralOperator(grid, 1.0, 1.0)
    cfg = SolveConfig(dt=1e-3, T=0.05, n=8, record_every=10)
    a = solve(op, model, cfg, sine_state(grid), NoiseStream(seed=11), ambient)
    b = solve(op, model, cfg, sine_state(grid), NoiseStream(seed=11), ambient)
    assert np.array_equal(a.values[-1], b.values[-1])
    c = solve(op, model, cfg, sine_state(grid), NoiseStream(seed=12), ambient)
    assert not np.array_equal(a.values[-1, : grid.M], c.values[-1, : grid.M])


def test_solve_grid_mismatch(grid, ambient):
    # a row of another grid's length
    model = make_model(ambient)
    op = SpectralOperator(grid, 1.0, 1.0)
    cfg = SolveConfig(dt=1e-3, T=1e-2, n=INF)
    with pytest.raises(GridMismatch):
        solve(op, model, cfg, sine_state(Grid(1.0, 63)), NoiseStream(seed=0), ambient)


def _step_case(case):
    """(op, model, cfg, x0, ambient) of a path whose steps test_step_is_solves_step replays."""
    base = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "example.yaml")).raw
    raw = dict(base, grid=dict(base["grid"], M=63), mode="simulate", family=[8, "inf"])
    if case == "noise-free":
        # as in stefan-oracle: zero sigma, linear rho, no truncation
        raw["model"] = dict(base["model"], sigma={"name": "zero"}, rho={"name": "linear", "rho0": 1.0})
    elif case == "direct-coloring":
        # a kernel too narrow for the factorized coloring of this window
        raw["model"] = dict(base["model"], kernel={"scale": 0.2})
    elif case in ("window", "noise-free-window"):
        # strong transport out of a narrow window: a "window" exit after a few steps
        raw["model"] = dict(base["model"], rho={"name": "linear", "rho0": 20.0})
        raw["ambient"] = dict(base["ambient"], pad=0.05)
        if case == "noise-free-window":
            raw["model"]["sigma"] = {"name": "zero"}
    c = resolve(raw)
    assert c.solve.truncation is not None
    n = case if case in (8, INF) else INF
    cfg = replace(c.solve, n=n, T=20 * c.solve.dt, record_every=1)
    if case == "noise-free":
        cfg = replace(cfg, truncation=None)
    return c.operator, c.model, cfg, c.initial, c.ambient


@pytest.mark.parametrize("case", [8, INF, "noise-free", "window", "noise-free-window", "direct-coloring"])
def test_step_is_solves_step(case):
    # one step from every recorded state, with the increment solve drew for
    # it, reproduces the next recorded state bit for bit; from the state that
    # left the window, a step raises where the solve loop exited, with noise
    # or without
    op, model, cfg, x0, ambient = _step_case(case)
    if case == "direct-coloring":
        assert _gaussian_factors(model.kernel.scale, ambient, op.grid) is None
    window = case in ("window", "noise-free-window")
    stream = NoiseStream(seed=0)
    traj = solve(op, model, cfg, x0, stream, ambient)
    if window:
        assert traj.exited and traj.exit.kind == "window" and 0 < traj.exit.step < 20
    else:
        assert not traj.exited
    steps = len(traj.values) - 1
    assert steps == (traj.exit.step if traj.exited else 20)
    for k in range(steps):
        inc = stream.increment(k, cfg.dt, ambient)
        assert np.array_equal(step(op, model, cfg, traj.values[k], inc, ambient), traj.values[k + 1])
    if window:
        with pytest.raises(BoundaryLeftWindow):
            step(op, model, cfg, traj.values[-1], stream.increment(steps, cfg.dt, ambient), ambient)


def _zero_user(c):
    """The shared zero families of c as user functions, which take the general evaluated path."""
    mu, sigma = lambda x, v, vp: np.zeros(np.shape(v)), lambda x, v: np.zeros(np.shape(v))
    swap = {name: mu for name in ("mu_plus", "mu_minus") if getattr(c, name) is mu_zero()}
    swap.update({name: sigma for name in ("sigma_plus", "sigma_minus") if getattr(c, name) is sigma_zero()})
    return replace(c, **swap), sorted(swap)


@pytest.mark.parametrize("case", ["stefan", 8, INF])
def test_shared_zeros_match_user_zeros(case):
    # the shared zero reaction and noise are skipped by identity; the same run
    # with user zero functions evaluates them: both give the same bits, the
    # sign of every zero included
    here = os.path.join(os.path.dirname(__file__), "..", "configs")
    if case == "stefan":
        base = load_config(os.path.join(here, "stefan.yaml")).raw
        c = resolve(dict(base, solve=dict(base["solve"], T=0.02, record_every=1)))
        cfg = c.solve
    else:
        base = load_config(os.path.join(here, "example.yaml")).raw
        c = resolve(dict(base, mode="simulate", family=[8, "inf"]))
        cfg = replace(c.solve, n=case)
    user, swapped = _zero_user(c.model)
    expected = ["mu_minus", "mu_plus", "sigma_minus", "sigma_plus"] if case == "stefan" else ["mu_minus", "mu_plus"]
    assert swapped == expected
    a = solve(c.operator, c.model, cfg, c.initial, NoiseStream(seed=0), c.ambient)
    b = solve(c.operator, user, cfg, c.initial, NoiseStream(seed=0), c.ambient)
    assert not a.exited and not b.exited
    for x, y in ((a.values, b.values), (a.norm_h2, b.norm_h2)):
        assert np.array_equal(x, y)
        assert np.array_equal(np.signbit(x), np.signbit(y))
    if case == "stefan":
        # the u2 row of the one-phase run is zero throughout: the signs of its
        # zeros are what the general path's 0.0 + could change
        assert not np.any(a.values[:, c.grid.M : 2 * c.grid.M])


@pytest.mark.parametrize("M", [63, 127, 255])
def test_step_norm_matches_state_norm(M):
    # the step reads the H2 norm from the new state's sine modes; state_norm
    # computes it from second differences: the two agree on a noisy path
    base = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "example.yaml")).raw
    c = resolve(dict(base, grid=dict(base["grid"], M=M), mode="simulate", family=[8, "inf"]))
    cfg = replace(c.solve, n=8, record_every=1)
    traj = solve(c.operator, c.model, cfg, c.initial, NoiseStream(seed=1), c.ambient)
    assert not traj.exited and len(traj.norm_h2) == len(traj.values) == cfg.num_steps + 1
    ref = [state_norm(c.grid, x, "H2") for x in traj.values]
    np.testing.assert_allclose(traj.norm_h2, ref, rtol=1e-13, atol=0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_nonfinite_exit_from_overflowing_norm():
    # v^2 reaction without cutoff or radius: the state at step 59 has finite
    # entries whose H2 norm overflows, and step 60 makes entries non-finite
    grid, ambient = Grid(1.0, 31), AmbientGrid(-2, 2, 81)
    model = make_model(ambient, mu=mu_quadratic(1.0))
    op = SpectralOperator(grid, 1.0, 1.0)
    cfg = SolveConfig(dt=1e-3, T=1, n=INF, explosion_radius=math.inf)
    traj = solve(op, model, cfg, sine_state(grid, 30.0), NoiseStream(seed=0), ambient)
    assert traj.exit == ExitEvent(step=60, time=60 * cfg.dt, threshold=math.inf, kind="nonfinite")
    assert len(traj.norm_h2) == 60
    assert traj.norm_h2[-1] == math.inf and np.isfinite(traj.norm_h2[:-1]).all()
    assert np.isfinite(traj.values).all()


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
        assert np.array_equal(a.values, b.values)


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
    f = grid.nodes * np.exp(-4.0 * grid.nodes**2)
    traj = solve(op, model, cfg, row(f, np.zeros(grid.M), 0.0), NoiseStream(seed=0), ambient)
    assert traj.exited and traj.exit.kind == "window"
    k = traj.exit.step
    assert 0 < k < cfg.num_steps
    assert len(traj.norm_h2) == k + 1
    assert traj.times[-1] == traj.exit.time == k * cfg.dt
    assert not ambient.covers(traj.values[-1, -1], grid.L)
    assert all(ambient.covers(p, grid.L) for p in traj.values[:-1, -1])


def test_noise_free_step_draws_nothing(grid, ambient):
    # zero sigma: the product with the increment is zero whatever it is, so a
    # step neither draws nor colors one, and a NaN increment cannot leak in
    class NanStream:
        def increments(self, num_steps, dt_, amb):
            return iter(np.full((num_steps, amb.J), np.nan))

    class CountingStream:
        # calls counts the steps whose increments were read
        def __init__(self, stream):
            self.stream, self.calls = stream, 0

        def increments(self, num_steps, dt_, amb):
            for dW in self.stream.increments(num_steps, dt_, amb):
                self.calls += 1
                yield dW

    model = make_model(ambient, rho=rho_linear(0.5))
    op = SpectralOperator(grid, 1.0, 1.0)
    cfg = SolveConfig(dt=1e-3, T=0.05, n=INF, record_every=5)
    ref = solve(op, model, cfg, sine_state(grid), NoiseStream(seed=0), ambient)
    nan = solve(op, model, cfg, sine_state(grid), NanStream(), ambient)
    assert not nan.exited and np.isfinite(nan.values).all()
    assert np.array_equal(nan.values, ref.values)
    assert np.array_equal(nan.norm_h2, ref.norm_h2)

    counted = CountingStream(NoiseStream(seed=0))
    solve(op, model, cfg, sine_state(grid), counted, ambient)
    assert counted.calls == 0
    noisy = make_model(ambient, rho=rho_linear(0.5), sigma=sigma_affine(additive=0.3))
    counted = CountingStream(NoiseStream(seed=0))
    traj = solve(op, noisy, cfg, sine_state(grid), counted, ambient)
    assert counted.calls == cfg.num_steps == len(traj.norm_h2) - 1


def test_solve_draws_the_bits_of_per_step_draws(grid, ambient, monkeypatch):
    # 600 steps span five of the stream's blocks, the last one short; each
    # step of the path is the one step from its state on the increment that
    # numpy draws for that step alone
    blocks = []
    block = NoiseStream.block

    def recorded(self, k0, K, dt_, amb):
        blocks.append((k0, K))
        return block(self, k0, K, dt_, amb)

    monkeypatch.setattr(NoiseStream, "block", recorded)
    model = make_model(ambient, rho=rho_linear(0.5), sigma=sigma_affine(additive=0.3))
    op = SpectralOperator(grid, 1.0, 1.0)
    cfg = SolveConfig(dt=1e-4, T=0.06, n=8)
    traj = solve(op, model, cfg, sine_state(grid), NoiseStream(seed=3), ambient)
    assert cfg.num_steps == 600 and blocks == [(0, 32), (32, 64), (96, 128), (224, 256), (480, 120)]
    assert not traj.exited and len(traj.values) == 601
    for k in range(cfg.num_steps):
        dW = seed_sequence_increment(3, k, cfg.dt, ambient)
        assert np.array_equal(step(op, model, cfg, traj.values[k], dW, ambient), traj.values[k + 1]), k


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
            return np.zeros(amb.J)

    traj = solve(op, model, cfg, X0, ZeroStream(), ambient)
    K = cfg.num_steps
    acc = np.zeros(2 * grid.M + 1)
    for k in range(K):
        contrib = semigroup(op, (K - k) * dt, dt * drift(model, grid, traj.values[k], INF))
        acc = acc + contrib
    lhs = traj.values[K] - semigroup(op, K * dt, X0)
    assert state_norm(grid, lhs - acc, "H1") < 10 * dt


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

        def increments(self, num_steps, dt_, amb):
            r = self.ratio
            return (sum(self.fine[k * r : (k + 1) * r]) for k in range(num_steps))

    sup_dist = np.zeros(halvings)
    for seed in seeds:
        stream = NoiseStream(seed=seed)
        fine = [stream.increment(j, fine_dt, ambient) for j in range(round(T / fine_dt))]
        paths = []
        for level in range(halvings + 1):
            cfg = SolveConfig(dt=dt / 2**level, T=T, n=8, record_every=2**level)
            traj = solve(op, model, cfg, X0, Coarsened(fine, 2 ** (halvings - level)), ambient)
            assert not traj.exited
            paths.append(traj)
        for level, (a, b) in enumerate(zip(paths, paths[1:])):
            assert np.allclose(a.times, b.times, rtol=0, atol=1e-12)
            sup_dist[level] += max(state_norm(grid, x - y, "L2") for x, y in zip(a.values, b.values))
    sup_dist /= len(seeds)
    order = float(np.polyfit(np.log(dt / 2.0 ** np.arange(halvings)), np.log(sup_dist), 1)[0])
    ok = order >= 0.4
    line = (f"STRONG ORDER: {'PASS' if ok else 'FAIL'} - fitted order {order:.3f} (>=0.4, expected 1/2) "
            f"of E sup_t |X_dt - X_dt/2|_L2, dt = {dt:g}..{dt / 2**halvings:g}, {len(seeds)} seeds")
    print(line, file=sys.__stdout__, flush=True)
    REPORT_LINES.append(line)
    assert ok


def test_spatial_order_under_common_noise():
    # The keyed noise lives on the ambient grid, which does not depend on M,
    # so runs at M and 2M + 1 share their noise exactly, and their nodes nest:
    # coarse node i is fine node 2i.  The semigroup is exact in the sine
    # basis and the stencils are second order, so the expected order in h is 2.
    base = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "example.yaml")).raw
    Ms, seeds = (31, 63, 127, 255), range(16)
    cfgs = [resolve(dict(base, grid=dict(base["grid"], M=M), mode="simulate", family=[8, "inf"])) for M in Ms]
    assert len({c.ambient for c in cfgs}) == 1
    orders = {}
    for n in (8, INF):
        err = np.zeros(len(Ms) - 1)
        for seed in seeds:
            paths = []
            for c in cfgs:
                traj = solve(c.operator, c.model, replace(c.solve, n=n), c.initial, NoiseStream(seed=seed), c.ambient)
                assert not traj.exited
                paths.append(traj)
            for i, (a, b) in enumerate(zip(paths, paths[1:])):
                assert np.array_equal(a.times, b.times)
                Mc, h = a.grid.M, a.grid.h
                coarse = a.values[:, : 2 * Mc].reshape(-1, 2, Mc)
                fine = b.values[:, : 2 * b.grid.M].reshape(-1, 2, b.grid.M)[:, :, 1::2]
                dist = np.sqrt(h * np.sum((coarse - fine) ** 2, axis=(1, 2)))
                err[i] += np.max(dist + np.abs(a.values[:, -1] - b.values[:, -1]))
        err /= len(seeds)
        hs = [c.grid.h for c in cfgs[:-1]]
        orders[n] = float(np.polyfit(np.log(hs), np.log(err), 1)[0])
    ok = all(order >= 1.5 for order in orders.values())
    line = (f"SPATIAL ORDER: {'PASS' if ok else 'FAIL'} - fitted order {orders[8]:.3f} at n=8, "
            f"{orders[INF]:.3f} at n=inf (>=1.5, expected 2) of E sup_t (|X_M - X_2M+1|_L2 + |dp|) "
            f"at the coarse nodes, M = {Ms[0]}..{Ms[-1]}, {len(seeds)} seeds")
    print(line, file=sys.__stdout__, flush=True)
    REPORT_LINES.append(line)
    assert ok


def test_front_order_in_time():
    # The shipped Stefan run at dt = 4e-4 .. 2.5e-5: the left-endpoint drift
    # and the explicit transport are first order, so the final-time
    # self-differences |p_dt - p_dt/2| should halve with dt, the order
    # rising towards 1 as dt refines.
    base = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "stefan.yaml")).raw
    dts = (4e-4, 2e-4, 1e-4, 5e-5, 2.5e-5)
    fronts = []
    for dt in dts:
        c = resolve(dict(base, solve=dict(base["solve"], dt=dt, record_every=1)))
        traj = solve(c.operator, c.model, c.solve, c.initial, NoiseStream(seed=0), c.ambient)
        assert not traj.exited and traj.times[-1] == pytest.approx(c.solve.T, rel=1e-12)
        fronts.append(traj.values[-1, -1])
    diffs = np.abs(np.diff(fronts))
    orders = np.log2(diffs[:-1] / diffs[1:])
    ok = bool(np.all(np.diff(orders) > 0) and orders[-1] >= 0.8)
    line = (f"FRONT ORDER: {'PASS' if ok else 'FAIL'} - orders {', '.join(f'{o:.3f}' for o in orders)} "
            f"(increasing, finest >=0.8, expected 1) of |p_dt - p_dt/2| at T on configs/stefan.yaml, "
            f"dt = {dts[0]:g}..{dts[-1]:g}")
    print(line, file=sys.__stdout__, flush=True)
    REPORT_LINES.append(line)
    assert ok


def test_initial_data_continuity_under_common_noise():
    # The paper's solution map is continuous in the initial data as well as in
    # the coefficients.  Scaling u by 1 + eps and shifting p by eps, on the
    # same noise, moves the whole path by O(eps): expected order 1.
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "example.yaml"))
    epss, seeds = (1e-1, 1e-2, 1e-3, 1e-4), range(8)
    orders = {}
    for n in (8, INF):
        scfg = replace(cfg.solve, n=n)
        refs = [solve(cfg.operator, cfg.model, scfg, cfg.initial, NoiseStream(seed=s), cfg.ambient) for s in seeds]
        rms = []
        for eps in epss:
            x0 = np.append(cfg.initial[:-1] * (1.0 + eps), cfg.initial[-1] + eps)
            sq = 0.0
            for seed, ref in zip(seeds, refs):
                traj = solve(cfg.operator, cfg.model, scfg, x0, NoiseStream(seed=seed), cfg.ambient)
                assert not traj.exited and not ref.exited
                sq += max(state_norm(cfg.grid, x - y, "H1") for x, y in zip(ref.values, traj.values)) ** 2
            rms.append(math.sqrt(sq / len(seeds)))
        orders[n] = float(np.polyfit(np.log(epss), np.log(rms), 1)[0])
    ok = all(order >= 0.9 for order in orders.values())
    line = (f"INITIAL-DATA CONTINUITY: {'PASS' if ok else 'FAIL'} - fitted order {orders[8]:.3f} at n=8, "
            f"{orders[INF]:.3f} at n=inf (>=0.9, expected 1) of RMS sup_t |X - X_eps|_H1 for "
            f"u0 (1 + eps), p0 + eps, eps = {epss[0]:g}..{epss[-1]:g}, {len(seeds)} seeds on configs/example.yaml")
    print(line, file=sys.__stdout__, flush=True)
    REPORT_LINES.append(line)
    assert ok
