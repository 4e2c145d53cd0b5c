import math
import pickle

import numpy as np
import pytest

from stefansim import (
    Grid,
    NoiseStream,
    SolveConfig,
    SpectralOperator,
    TruncationSpec,
    h_r,
    semigroup,
    state_norm,
    step,
)
from stefansim.coefficients import (
    INF,
    diffusion_rows,
    draws_noise,
    drift_rows,
    interface_speed,
    mu_linear,
    mu_quadratic,
    mu_saturated,
    mu_zero,
    psi_gap_bound,
    reaction,
    rho_linear,
    rho_tanh,
    rho_zero,
    sigma_affine,
    sigma_at,
    sigma_zero,
    transport_direction,
)
from stefansim.errors import WindowUnresolved
from stefansim.experiments.sampling import rough_state
from stefansim.grids import diff1, interface_weights, padded, sq_norm
from stefansim.noise import coloring

from conftest import make_model


def row(u1, u2, p):
    return np.concatenate((u1, u2, [p]))


def zero(grid):
    return np.zeros(2 * grid.M + 1)


def d1(grid, f):
    return diff1(np.pad(f, 1), grid.h)


def psi(model, grid, X, n):
    return interface_speed(model, padded(grid, X), interface_weights(grid, n))


def drift(model, grid, X, n):
    """The drift B_n at the state row X as a row, from the array function the solver steps."""
    U = padded(grid, X)
    rows, dp = drift_rows(model, U, X[-1], transport_direction(U, grid.h), interface_weights(grid, n), grid)
    return np.append(rows, dp)


def test_boundary_condition_enforced(ambient):
    with pytest.raises(ValueError):
        make_model(ambient, sigma=lambda x, v: np.ones_like(np.asarray(v, dtype=float)))
    # a sigma that is NaN at the interface does not hold the condition either
    with pytest.raises(ValueError, match="sigma_plus"):
        make_model(ambient, sigma=lambda x, v: np.full_like(np.asarray(v, dtype=float), np.nan))
    # the diffusivities belong to the operator, which checks them
    with pytest.raises(ValueError):
        SpectralOperator(Grid(1.0, 31), -1.0, 1.0)


def test_N_mu_identity_and_slope(grid, ambient):
    f = np.sin(np.pi * grid.nodes)
    g = grid.nodes * (1 - grid.nodes)
    U = padded(grid, row(f, g, 0.3))
    slope = transport_direction(U, grid.h)

    out = reaction(make_model(ambient, mu=mu_linear(c_v=1.0)), U, slope, grid)
    assert np.array_equal(out[0], f)
    assert np.array_equal(out[1], g)

    out = reaction(make_model(ambient, mu=mu_linear(c_vp=1.0)), U, slope, grid)
    assert np.allclose(out[0], d1(grid, f))
    # reflected slot carries the reflection sign on its slope argument
    assert np.allclose(out[1], -d1(grid, g))


def test_psi_linear_data(grid, ambient):
    model = make_model(ambient, rho=rho_linear(1.0))
    X = row(grid.nodes, np.zeros(grid.M), 0.0)
    for n in (2, 4, 8):
        assert psi(model, grid, X, n) == pytest.approx(1.0, abs=1e-12)
    assert psi(model, grid, X, INF) == pytest.approx(1.0, abs=1e-12)


def test_psi_quadratic_gap(grid, ambient):
    model = make_model(ambient, rho=(lambda a, b: a, lambda r: 1.0))
    X = row(grid.nodes**2, np.zeros(grid.M), 0.0)
    for n in (2, 4, 8):
        assert psi(model, grid, X, n) == pytest.approx(2.0 / (3.0 * n), abs=5 * grid.h**2)
    assert abs(psi(model, grid, X, INF)) < 5 * grid.h**2


def test_psi_window_unresolved(grid, ambient):
    model = make_model(ambient, rho=rho_linear(1.0))
    with pytest.raises(WindowUnresolved):
        psi(model, grid, zero(grid), 100)


def test_drift_transport_structure(grid, ambient):
    model = make_model(ambient, rho=(lambda a, b: 1.0, lambda r: 0.0))
    f = np.sin(np.pi * grid.nodes)
    out = drift(model, grid, row(f, f, 0.2), INF)
    M = grid.M
    assert np.allclose(out[:M], d1(grid, f) + f)
    assert np.allclose(out[M : 2 * M], -d1(grid, f) + f)
    assert out[-1] == pytest.approx(1.0 + 0.2)


def test_drift_cutoff_support(grid, ambient):
    model = make_model(ambient, rho=rho_tanh(1.0))
    op = SpectralOperator(grid, 1.0, 1.0)
    X = row(5.0 * np.sin(np.pi * grid.nodes), np.zeros(grid.M), 0.0)
    spec = TruncationSpec(0.5)
    plain = SolveConfig(dt=1e-3, T=1e-3, n=INF)
    cut = SolveConfig(dt=1e-3, T=1e-3, n=INF, truncation=spec)
    inc = NoiseStream(seed=0).increment(0, 1e-3, ambient)
    assert state_norm(grid, X, "H2") ** 2 > (spec.r + 1.0) ** 2
    # outside the ball the truncated step adds no drift: it is the bare semigroup step
    Y = step(op, model, cut, X, inc, ambient)
    S = semigroup(op, 1e-3, X)
    assert np.array_equal(Y, S)
    # inside the ball the truncated step coincides bitwise with the plain one
    Xs = 0.001 * X
    a = step(op, model, cut, Xs, inc, ambient)
    b = step(op, model, plain, Xs, inc, ambient)
    assert np.array_equal(a, b)


def test_diffusion_zero_sigma(grid, ambient):
    model = make_model(ambient)
    assert not draws_noise(model)
    assert draws_noise(make_model(ambient, sigma=sigma_affine(additive=0.3)))
    # a path of the zero-sigma model has no noise term at all, so it neither
    # draws nor colors: test_noise_free_step_draws_nothing pins that


def test_zero_families_are_shared():
    # one function per zero family, so drift_rows and diffusion_rows can skip it by identity
    assert mu_zero() is mu_zero()
    assert sigma_zero() is sigma_zero()


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def test_families_pickle_with_their_values():
    # a resolved config goes to worker processes whole: every family round-trips
    # with its parameters, bit for bit, and the zero families stay the shared function
    x = np.linspace(-1.5, 1.5, 11)
    x.setflags(write=False)  # like the grid's nodes
    v, vp = np.sin(3.0 * x), np.cos(2.0 * x) - 0.5
    mus = (mu_zero(), mu_linear(0.3, -0.7), mu_saturated(2.0, 0.5), mu_quadratic(3.0))
    sigmas = (sigma_zero(), sigma_affine(0.4, 0.3, 0.7), sigma_affine(additive=-1.2, width=2.5))
    rhos = (rho_zero(), rho_linear(-0.8), rho_tanh(1.5, 0.3))
    for mu in mus:
        copy = pickle.loads(pickle.dumps(mu))
        assert _bits(copy(x, v, vp)) == _bits(mu(x, v, vp))
    for sigma in sigmas:
        expected = sigma(x, v)
        copy = pickle.loads(pickle.dumps(sigma))
        assert _bits(copy(x, v)) == _bits(expected) and _bits(copy(x.copy(), v)) == _bits(expected)
        # the sigma a path binds to its nodes has the bits of the family's call
        for s in (sigma, copy):
            assert _bits(sigma_at(s, x)(v)) == _bits(expected)
    user = lambda x, v: 0.3 * np.sin(x) * v
    assert _bits(sigma_at(user, x)(v)) == _bits(user(x, v))
    # an affine family binds its values and nothing else
    assert sigmas[1].args == (0.4, 0.3, 0.7) and not sigmas[1].keywords
    for rho, lip in rhos:
        rho_copy, lip_copy = pickle.loads(pickle.dumps((rho, lip)))
        for a, b in ((0.3, -0.2), (-1.7, 2.4), (5.0, 5.0)):
            assert _bits(rho_copy(a, b)) == _bits(rho(a, b))
        assert _bits(lip_copy(3.0)) == _bits(lip(3.0))
    assert pickle.loads(pickle.dumps(mu_zero())) is mu_zero()
    assert pickle.loads(pickle.dumps(sigma_zero())) is sigma_zero()


def test_diffusion_multiplicative_boundary_decay(grid, ambient):
    model = make_model(ambient, sigma=sigma_affine(multiplicative=1.0))
    f = np.sin(np.pi * grid.nodes)
    X = row(f, np.zeros(grid.M), 0.0)
    inc = NoiseStream(seed=1).increment(0, 0.01, ambient)
    sigma = (sigma_at(model.sigma_plus, grid.nodes), sigma_at(model.sigma_minus, grid.reflected_nodes))
    out = diffusion_rows(sigma, padded(grid, X), X[-1], inc, coloring(model.kernel, ambient, grid))
    # first interior node value inherits the O(h) smallness of u1 there
    assert abs(out[0, 0]) <= abs(f[0]) * np.max(np.abs(inc)) * 10.0
    assert np.max(np.abs(out[1])) == 0.0


def test_h_r_shape():
    spec = TruncationSpec(2.0)
    assert h_r(spec, 0.0) == 1.0
    assert h_r(spec, 4.0) == 1.0
    assert h_r(spec, 9.0) == 0.0
    assert h_r(spec, 100.0) == 0.0
    with pytest.raises(ValueError):
        h_r(spec, -1.0)
    with pytest.raises(ValueError):
        TruncationSpec(0.0)
    # monotone, and max slope matches 15 / (8 (2r + 1)) by dense sampling
    s = np.linspace(3.9, 9.1, 20001)
    vals = np.array([h_r(spec, float(x)) for x in s])
    assert np.all(np.diff(vals) <= 1e-15)
    slopes = np.abs(np.diff(vals) / np.diff(s))
    assert np.max(slopes) == pytest.approx(15.0 / (8.0 * (2 * spec.r + 1)), rel=1e-3)


def test_psi_gap_linear_data_zero(ambient):
    grid = Grid(1.0, 1023)
    model = make_model(ambient, rho=rho_linear(0.7))
    X = row(grid.nodes, np.zeros(grid.M), 0.0)
    gap, bound = psi_gap_bound(model, grid, X, 16)
    assert gap == pytest.approx(0.0, abs=1e-9)
    assert bound >= 0.0


def test_psi_gap_bound_holds(ambient):
    grid = Grid(1.0, 1023)
    model = make_model(ambient, rho=rho_tanh(1.0))
    rng = np.random.default_rng(17)
    from scipy.fft import dst

    k = np.arange(1, grid.M + 1)
    for _ in range(50):
        coeffs = rng.standard_normal(grid.M) * k**-2.0
        f = dst(coeffs, type=1) / (2.0 * (grid.M + 1))
        X = row(f, np.zeros(grid.M), float(rng.standard_normal()))
        for n in (4, 16, 64):
            gap, bound = psi_gap_bound(model, grid, X, n)
            assert gap <= bound


def test_psi_gap_closed_form_matches_drift_difference(ambient):
    # B_n - B_inf = (Psi_n - Psi_inf) (u1', -u2', 1): the closed form against
    # the H1-state norm of the difference of two drifts
    grid = Grid(1.0, 1023)
    h = grid.h
    model = make_model(ambient, mu=mu_saturated(0.5, 1.0), rho=rho_tanh(1.0))
    rng = np.random.default_rng(5)
    for _ in range(20):
        X = rough_state(rng, grid, sigma=1.0)
        U = padded(grid, X)
        g = transport_direction(U, h)
        a, ap = drift_rows(model, U, X[-1], g, interface_weights(grid, INF), grid)
        for n in (4, 16, 64):
            b, bp = drift_rows(model, U, X[-1], g, interface_weights(grid, n), grid)
            ref = math.sqrt(sq_norm(np.pad(b - a, ((0, 0), (1, 1))), h, "H1") + (bp - ap) ** 2)
            gap, _ = psi_gap_bound(model, grid, X, n)
            assert gap == pytest.approx(ref, rel=1e-10)


def test_psi_gap_requires_fine_grid(grid, ambient):
    model = make_model(ambient, rho=rho_linear(1.0))
    with pytest.raises(WindowUnresolved):
        psi_gap_bound(model, grid, zero(grid), 64)


def test_explosive_mu_family(grid, ambient):
    mu = mu_quadratic(1.0)
    v = np.array([2.0, -3.0])
    assert np.allclose(mu(None, v, None), v * v)
