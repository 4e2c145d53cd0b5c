import math

import numpy as np
import pytest

from stefansim import Grid, GridMismatch, WindowUnresolved, state_norm
from stefansim.grids import diff1, diff2, interface_weights, padded, sq_norm


def pad(grid, fn):
    """fn at the interior nodes, with the zero values at x = 0 and x = L."""
    return np.pad(fn(grid.nodes), 1)


def norm(grid, F, order="L2"):
    return math.sqrt(sq_norm(F, grid.h, order))


def window_mean(grid, F, n):
    return float(interface_weights(grid, n) @ F)


def trace_grad(grid, F):
    return window_mean(grid, F, math.inf)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, 10)
    with pytest.raises(ValueError):
        Grid(1.0, 3)
    g = Grid(2.0, 7)
    assert g.h == pytest.approx(0.25)
    assert g.nodes[0] == pytest.approx(g.h)
    assert g.nodes[-1] == pytest.approx(2.0 - g.h)


def test_gridfunction_immutable(grid):
    for x in (grid.nodes, grid.reflected_nodes):
        with pytest.raises(ValueError):
            x[0] = 1.0


def test_padded_rows(grid):
    M = grid.M
    x = np.arange(2 * M + 1, dtype=float)
    U = padded(grid, x)
    assert U.shape == (2, M + 2)
    assert np.array_equal(U[:, [0, -1]], np.zeros((2, 2)))
    assert np.array_equal(U[0, 1:-1], x[:M]) and np.array_equal(U[1, 1:-1], x[M : 2 * M])
    batch = np.stack((x, -x, 2 * x))
    assert np.array_equal(padded(grid, batch), np.stack((U, -U, 2 * U)))
    for bad in (x[:-1], np.append(x, 0.0), np.zeros((3, 2 * M)), 1.0):
        with pytest.raises(GridMismatch):
            padded(grid, bad)


def test_d1_zero(grid):
    assert np.all(diff1(np.zeros(grid.M + 2), grid.h) == 0.0)


def test_d1_sine(grid):
    F = pad(grid, lambda x: np.sin(np.pi * x))
    exact = np.pi * np.cos(np.pi * grid.nodes)
    # centered-difference error constant on this function is pi^3 h^2 / 6
    assert np.max(np.abs(diff1(F, grid.h) - exact)) <= 6.0 * grid.h**2


def test_d1_exact_on_quadratics(grid):
    F = pad(grid, lambda x: x * (1.0 - x))
    exact = 1.0 - 2.0 * grid.nodes
    assert np.max(np.abs(diff1(F, grid.h) - exact)) < 1e-13


def test_d2_sine_eigenpair(grid):
    F = pad(grid, lambda x: np.sin(np.pi * x))
    lam1 = (4.0 / grid.h**2) * math.sin(math.pi * grid.h / 2.0) ** 2
    rel = np.abs(diff2(F, grid.h) + lam1 * F[1:-1]) / np.max(np.abs(lam1 * F[1:-1]))
    assert np.max(rel) < 1e-12


def test_d2_exact_on_quadratics(grid):
    F = pad(grid, lambda x: x * (1.0 - x))
    assert np.max(np.abs(diff2(F, grid.h) + 2.0)) < 1e-10


def test_trace_grad_sine(grid):
    F = pad(grid, lambda x: np.sin(np.pi * x))
    # one-sided stencil error is pi^3 h^2 / 3 here
    assert abs(trace_grad(grid, F) - math.pi) <= 11.0 * grid.h**2


def test_trace_grad_exact_cases(grid):
    assert trace_grad(grid, np.zeros(grid.M + 2)) == 0.0
    F = pad(grid, lambda x: x * x)
    assert abs(trace_grad(grid, F)) < 1e-13


def test_window_mean_linear(grid):
    F = pad(grid, lambda x: x)
    for n in (2, 4, 8):
        assert window_mean(grid, F, n) == pytest.approx(1.0, abs=1e-12)


def test_window_mean_quadratic(grid):
    F = pad(grid, lambda x: x * x)
    for n in (2, 4, 8):
        assert window_mean(grid, F, n) == pytest.approx(2.0 / (3.0 * n), abs=5.0 * grid.h**2)


def test_window_mean_off_node():
    # 1/n between two nodes: the partial last cell is interpolated linearly
    grid = Grid(1.0, 127)
    h = grid.h
    linear, quadratic = pad(grid, lambda x: x), pad(grid, lambda x: x * x)

    def quadratic_error(n):
        """Error of the window mean of x^2, whose exact value is 2 / (3n), in units of h^2."""
        return (window_mean(grid, quadratic, n) - 2.0 / (3.0 * n)) / (h * h)

    for n in (3, 5, 6, 7, 10):
        assert not (1.0 / n / h).is_integer()
        assert window_mean(grid, linear, n) == pytest.approx(1.0, abs=1e-15)
        # the trapezoid constant: 2 n^2 * (1/n) h^2 f'' / 12 = n h^2 / 3
        assert quadratic_error(n) == pytest.approx(n / 3.0, rel=0.01)
    # continuous in n through the node 1/4 = 32 h
    for n in (3.9, 4.0, 4.1):
        assert quadratic_error(n) == pytest.approx(n / 3.0, rel=0.01)
    for n in (4.0 - 1e-6, 4.0 + 1e-6):
        assert quadratic_error(n) == pytest.approx(quadratic_error(4.0), abs=1e-5)


def test_window_mean_unresolved(grid):
    with pytest.raises(WindowUnresolved):
        window_mean(grid, np.zeros(grid.M + 2), 100)


def test_norm_sine(grid):
    F = pad(grid, lambda x: np.sin(np.pi * x))
    assert norm(grid, F, "L2") ** 2 == pytest.approx(0.5, abs=1e-3)


def test_norm_homogeneity(grid):
    rng = np.random.default_rng(7)
    F = np.pad(rng.standard_normal(grid.M), 1)
    for order in ("L2", "H1", "H2"):
        assert norm(grid, -3.5 * F, order) == pytest.approx(3.5 * norm(grid, F, order), rel=1e-12)


def test_norm_monotone_random(grid):
    rng = np.random.default_rng(11)
    for _ in range(50):
        F = np.pad(rng.standard_normal(grid.M), 1)
        assert norm(grid, F, "L2") <= norm(grid, F, "H1") <= norm(grid, F, "H2")


def test_state_norm(grid):
    z = np.zeros(grid.M)
    assert state_norm(grid, np.concatenate((z, z, [0.0])), "H2") == 0.0
    assert state_norm(grid, np.concatenate((z, z, [-2.5])), "H2") == 2.5
    f = np.sin(np.pi * grid.nodes)
    assert state_norm(grid, np.concatenate((f, f, [0.0])), "L2") == pytest.approx(
        math.sqrt(2.0) * norm(grid, np.pad(f, 1), "L2"), rel=1e-12
    )


def test_integral_window_bound(grid):
    # |integral over [0, 1/n]| <= (1/n)^2 * H2 norm, with O(h) slack
    rng = np.random.default_rng(3)
    slack = 1.0 + 10.0 * grid.h
    for _ in range(100):
        k = np.arange(1, grid.M + 1)
        coeffs = rng.standard_normal(grid.M) * k**-2.0
        from scipy.fft import dst

        F = np.pad(dst(coeffs, type=1) / (2.0 * (grid.M + 1)), 1)
        for n in (2, 4, 8):
            z = 1.0 / n
            integral = window_mean(grid, F, n) / (2.0 * n * n)
            assert abs(integral) <= z * z * norm(grid, F, "H2") * slack


def test_sup_bound(grid):
    rng = np.random.default_rng(5)
    for _ in range(100):
        f = rng.standard_normal(grid.M)
        assert np.max(np.abs(f)) <= 2.0 * norm(grid, np.pad(f, 1), "H2") * (1.0 + 10.0 * grid.h)


def test_d2_symmetric_negative(grid):
    rng = np.random.default_rng(13)
    for _ in range(50):
        F = np.pad(rng.standard_normal(grid.M), 1)
        G = np.pad(rng.standard_normal(grid.M), 1)
        f, g = F[1:-1], G[1:-1]
        a = float(np.dot(diff2(F, grid.h), g))
        b = float(np.dot(f, diff2(G, grid.h)))
        assert a == pytest.approx(b, rel=1e-10)
        assert np.dot(diff2(F, grid.h), f) <= 0.0
