import math

import numpy as np
import pytest

from stefansim import F_transform
from stefansim.errors import GridMismatch
from stefansim.grids import sq_norm
from oracles import F_inverse, InterfaceNotZero


def smooth_pair(grid):
    x = grid.nodes
    return np.sin(np.pi * x), x * (1.0 - x) ** 2


def row(u1, u2, p):
    return np.concatenate((u1, u2, [p]))


def norm(grid, f):
    return math.sqrt(sq_norm(np.pad(f, 1), grid.h))


def glued(grid, u1, u2):
    # at p = 0 the moving-frame profile is the glued function itself
    return lambda y: F_transform(grid, row(u1, u2, 0.0), y)


def test_iota_zero(grid):
    fn = glued(grid, np.zeros(grid.M), np.zeros(grid.M))
    xs = np.linspace(-2, 2, 101)
    assert np.all(fn(xs) == 0.0)


def test_iota_grid_mismatch(grid):
    # a row of another grid's length
    with pytest.raises(GridMismatch):
        F_transform(grid, np.zeros(2 * 63 + 1), [0.0])


def test_iota_reflection_exact(grid):
    u1, u2 = smooth_pair(grid)
    fn = glued(grid, u1, u2)
    assert np.allclose(fn(-grid.nodes), u2, atol=0)
    assert np.allclose(fn(grid.nodes), u1, atol=0)
    assert fn(0.0) == 0.0
    assert fn(5.0) == 0.0 and fn(-5.0) == 0.0


def test_iota_l2_isometry(grid):
    u1, u2 = smooth_pair(grid)
    fn = glued(grid, u1, u2)
    xs = np.linspace(-grid.L, grid.L, 2 * (grid.M + 1) + 1)
    quad = np.trapezoid(fn(xs) ** 2, xs)
    assert quad == pytest.approx(norm(grid, u1) ** 2 + norm(grid, u2) ** 2, abs=1e-10)


def test_F_transform_shift_and_interface(grid):
    u1, u2 = smooth_pair(grid)
    p = 0.37
    pts = np.linspace(p - 1.5, p + 1.5, 401)
    vals = F_transform(grid, row(u1, u2, p), pts)
    vals0 = F_transform(grid, row(u1, u2, 0.0), pts - p)
    assert np.array_equal(vals, vals0)
    assert F_transform(grid, row(u1, u2, p), [p])[0] == 0.0


def test_F_roundtrip_on_nodes(grid):
    u1, u2 = smooth_pair(grid)
    # p = 0: evaluation points coincide with grid nodes, roundtrip is exact
    X = row(u1, u2, 0.0)
    pts = np.concatenate((-grid.nodes[::-1], [0.0], grid.nodes))
    vals = F_transform(grid, X, pts)
    assert np.array_equal(F_inverse(pts, vals, 0.0, grid), X)

    # shifted frame: same roundtrip up to roundoff of the (p + x) - p cancellation
    p = -0.21
    X = row(u1, u2, p)
    pts = np.concatenate((p - grid.nodes[::-1], [p], p + grid.nodes))
    vals = F_transform(grid, X, pts)
    R = F_inverse(pts, vals, p, grid)
    assert np.allclose(R, X, atol=1e-12)
    assert R[-1] == p


def test_F_inverse_rejects_nonzero_interface(grid):
    pts = np.linspace(-1, 1, 51)
    vals = np.ones_like(pts)
    with pytest.raises(InterfaceNotZero):
        F_inverse(pts, vals, 0.0, grid)


def test_F_inverse_misaligned_second_order(grid):
    u1 = np.sin(np.pi * grid.nodes)
    X = row(u1, u1, 0.0)
    errs = []
    for m in (400, 800):
        pts = np.linspace(-1.0, 1.0, 2 * m + 1)  # nodes misaligned with the grid
        vals = F_transform(grid, X, pts)
        r1 = F_inverse(pts, vals, 0.0, grid)[: grid.M]
        errs.append(np.max(np.abs(r1 - u1)))
    assert errs[1] < 0.6 * errs[0]


def test_F_continuity_in_p(grid):
    u1, u2 = smooth_pair(grid)
    xs = np.linspace(-1.5, 1.5, 1201)
    base = F_transform(grid, row(u1, u2, 0.0), xs)
    diffs = []
    for dp in (0.02, 0.01):
        moved = F_transform(grid, row(u1, u2, dp), xs)
        diffs.append(np.sqrt(np.trapezoid((moved - base) ** 2, xs)))
    assert diffs[1] < 0.6 * diffs[0]
