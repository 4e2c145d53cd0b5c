"""Executable property battery for the lemma-level inequalities.

Each check runs over seeded random draws and reports the worst observed
ratio against its allowance.  Failures are data, not exceptions: a check
runs only what the grid and window admit, and is a skip row when nothing is
left.  The checks of the model go through what the solver steps: the array
functions of ``coefficients`` and one ``solver.step``, whose cutoff is the
one a truncated run applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..coefficients import (
    CoefficientSet,
    TruncationSpec,
    drift_rows,
    interface_speed,
    psi_gap_bound,
    transport_direction,
)
from ..grids import Grid, diff2, interface_weights, padded, sq_norm, state_norm, window_resolved
from ..noise import AmbientGrid, NoiseStream, color_at
from ..operators import K_A, SpectralOperator, apply_A, semigroup
from ..solver import SolveConfig, step
from .sampling import rough_state, smooth_phase, smooth_state

INF = math.inf


PASS, FAIL, SKIP = "pass", "FAIL", "skip"


@dataclass
class LemmaResult:
    name: str
    status: str  # PASS, FAIL or SKIP; a skipped check was not run and did not pass
    worst: float
    allowed: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def row(self):
        return [self.name, self.status, f"{self.worst:.6g}", f"{self.allowed:.6g}", self.detail]


def _result(name, worst, allowed, detail=""):
    return LemmaResult(name, PASS if worst <= allowed else FAIL, float(worst), float(allowed), detail)


def _resolvable(grid: Grid, family):
    return [n for n in family if n != INF and window_resolved(grid, n)]


def _no_finite_n(name):
    """The row of a check over the finite family members when there is none to check."""
    return LemmaResult(name, SKIP, 0.0, 0.0, "no finite n in the family with 1/n >= 2h")


def _ratio(gap, bound):
    """gap / bound, where a gap of exactly 0 is 0 and a nonzero gap over a zero bound is inf."""
    return 0.0 if gap == 0 else gap / bound if bound != 0 else math.inf


def _padded_phase(rng, grid, decay):
    """A smooth random phase with its zero values at x = 0 and x = L, shape (M+2,)."""
    return np.pad(smooth_phase(rng, grid, decay=decay), 1)


def _norm(F, grid, order):
    return math.sqrt(sq_norm(F, grid.h, order))


def check_norm_monotone(rng, grid, samples):
    worst = 0.0
    for _ in range(samples):
        F = _padded_phase(rng, grid, 2.0)
        l2, h1, h2 = _norm(F, grid, "L2"), _norm(F, grid, "H1"), _norm(F, grid, "H2")
        worst = max(worst, l2 - h1, h1 - h2)
    return _result("norm_monotone", worst, 0.0)


def check_intnorm(rng, grid, samples, family):
    """|integral over [0, 1/n]| <= (1/n)^2 |f|_H2 (1 + 10h), shrinking slack on refinement."""
    ns = _resolvable(grid, family)
    if not ns:
        return _no_finite_n("intnorm_window")

    def worst_ratio(g: Grid):
        w = 0.0
        local = np.random.default_rng(rng.integers(2**32))
        for _ in range(samples):
            F = _padded_phase(local, g, 2.0)
            h2 = _norm(F, g, "H2")
            if h2 == 0:
                continue
            for n in ns:
                z = 1.0 / n
                integral = float(interface_weights(g, n) @ F) / (2.0 * n * n)
                w = max(w, abs(integral) / (z * z * h2))
        return w

    coarse = worst_ratio(grid)
    fine_grid = Grid(grid.L, 2 * grid.M + 1)
    fine = worst_ratio(fine_grid)
    ok_coarse = coarse <= 1.0 + 10.0 * grid.h
    ok_fine = fine <= 1.0 + 10.0 * fine_grid.h
    return LemmaResult(
        "intnorm_window",
        PASS if ok_coarse and ok_fine else FAIL,
        max(coarse, fine),
        1.0 + 10.0 * grid.h,
        f"coarse={coarse:.4g} fine={fine:.4g}",
    )


def check_trace_bound(rng, grid, samples):
    worst = 0.0
    for _ in range(samples):
        F = _padded_phase(rng, grid, 2.0)
        h2 = _norm(F, grid, "H2")
        if h2 == 0:
            continue
        worst = max(worst, np.max(np.abs(F)) / h2)
    return _result("trace_sup_bound", worst, 2.0 * (1.0 + 10.0 * grid.h))


def check_d2_symmetric_negative(rng, grid, samples):
    worst_sym = 0.0
    worst_neg = 0.0
    for _ in range(samples):
        F = _padded_phase(rng, grid, 1.5)
        G = _padded_phase(rng, grid, 1.5)
        f, g = F[1:-1], G[1:-1]
        a = float(np.dot(diff2(F, grid.h), g))
        b = float(np.dot(f, diff2(G, grid.h)))
        scale = max(abs(a), abs(b), 1e-300)
        worst_sym = max(worst_sym, abs(a - b) / scale)
        quad = float(np.dot(diff2(F, grid.h), f))
        worst_neg = max(worst_neg, quad / max(np.dot(f, f), 1e-300))
    res = _result("d2_symmetric", worst_sym, 1e-10)
    neg = _result("d2_negative", worst_neg, 0.0)
    return [res, neg]


def check_eigen_exactness(op: SpectralOperator, grid: Grid):
    """A phi_k = lambda_k phi_k on sine modes, up to rounding; the worst error in units of its allowance.

    Mode k's relative error may reach eps (1 + k pi) (4 eta+/h^2 + 1) / |lambda_k|:
    the stencil's rounding scales with its weights 4 eta+/h^2 + 1, and the
    k pi term covers the rounding of the sine's argument.
    """
    eps = np.finfo(float).eps
    stencil = 4.0 * op.eta_plus / grid.h**2 + 1.0
    worst = worst_rel = 0.0
    for k in (1, 2, grid.M // 2, grid.M):
        phi = np.sin(k * np.pi * grid.nodes / grid.L)
        AX = apply_A(op, np.concatenate((phi, np.zeros(grid.M + 1))))
        lam = op.eigenvalues_plus[k - 1]
        expected = lam * phi
        rel = np.max(np.abs(AX[: grid.M] - expected)) / np.max(np.abs(expected))
        worst = max(worst, rel / (eps * (1.0 + k * math.pi) * stencil / abs(lam)))
        worst_rel = max(worst_rel, rel)
    return _result("eigen_exactness", worst, 1.0, f"relative error {worst_rel:.3g}")


def check_semigroup_property(rng, op, grid, samples):
    worst = 0.0
    for _ in range(samples):
        X = smooth_state(rng, grid)
        t, s = rng.uniform(0.01, 0.5, 2)
        a = semigroup(op, t, semigroup(op, s, X))
        b = semigroup(op, t + s, X)
        denom = max(state_norm(grid, b, "L2"), 1e-300)
        worst = max(worst, state_norm(grid, a - b, "L2") / denom)
    return _result("semigroup_property", worst, 1e-12)


def check_generator_consistency(rng, op, grid):
    X = smooth_state(rng, grid, decay=4.0)
    AX = apply_A(op, X)
    errs = []
    for eps in (1e-3, 5e-4):
        diff = (1.0 / eps) * (semigroup(op, eps, X) - X)
        errs.append(state_norm(grid, diff - AX, "L2"))
    ratio = errs[1] / max(errs[0], 1e-300)
    # halving eps should roughly halve the error (first order)
    return _result("generator_consistency", ratio, 0.7, f"errors={errs[0]:.3g},{errs[1]:.3g}")


def check_negative_type(rng, op, grid, samples):
    worst = 0.0
    for _ in range(samples):
        X = smooth_state(rng, grid, decay=1.5)
        t = float(rng.uniform(0.0, 2.0))
        lhs = state_norm(grid, semigroup(op, t, X), "L2")
        rhs = math.exp(-t) * state_norm(grid, X, "L2")
        worst = max(worst, lhs - rhs * (1.0 + 1e-12))
    return _result("negative_type", worst, 0.0)


def check_coloring_linear(rng, model: CoefficientSet, ambient: AmbientGrid, samples):
    """The coloring is linear in the increment, up to rounding; the worst gap in units of its allowance.

    The quadrature rounds a sum over the J ambient nodes, so a sample's gap
    may reach J eps dy sum_j zeta(x, y_j) (|a dW1_j| + |b dW2_j|), the absolute
    sum it rounds; relative to |a c1 + b c2| it is unbounded where that nearly cancels.
    """
    eps = np.finfo(float).eps
    worst = worst_rel = 0.0
    for _ in range(min(samples, 50)):
        dW1 = rng.standard_normal(ambient.J)
        dW2 = rng.standard_normal(ambient.J)
        a, b = rng.uniform(-2, 2, 2)
        x = float(rng.uniform(ambient.x_lo, ambient.x_hi))
        lhs = color_at(model.kernel, ambient, a * dW1 + b * dW2, x)
        rhs = a * color_at(model.kernel, ambient, dW1, x) + b * color_at(model.kernel, ambient, dW2, x)
        absolute = model.kernel.zeta(x, ambient.nodes) @ (np.abs(a * dW1) + np.abs(b * dW2))
        worst = max(worst, _ratio(abs(lhs - rhs), ambient.J * eps * ambient.dy * absolute))
        worst_rel = max(worst_rel, abs(lhs - rhs) / max(abs(rhs), 1e-12))
    return _result("coloring_linear", worst, 1.0, f"relative error {worst_rel:.3g}")


def check_brownian_variance(rng, model: CoefficientSet, ambient: AmbientGrid):
    """Variance of the colored field grows linearly in time (two-horizon ratio).

    Over 16,000 paths the ratio's standard deviation is sqrt(8 / 16000), about
    0.022.  12,000 of them come from a generator spawned from ``rng``, so the
    later checks read ``rng``'s stream as 4,000 paths left it.
    """
    x = 0.5 * (ambient.x_lo + ambient.x_hi)
    dt = 0.1
    w = model.kernel.zeta(np.asarray(x), ambient.nodes) * ambient.dy
    sd = math.sqrt(dt / ambient.dy)
    one, two = [], []
    for gen, n_paths in ((rng, 4000), (rng.spawn(1)[0], 12000)):
        one.append((gen.standard_normal((n_paths, ambient.J)) * sd) @ w)
        two.append(one[-1] + (gen.standard_normal((n_paths, ambient.J)) * sd) @ w)
    ratio = np.var(np.concatenate(two)) / np.var(np.concatenate(one))
    return _result("brownian_variance_linear", abs(ratio - 2.0), 0.1, f"ratio={ratio:.4g}")


def check_coloring_variance(rng, model: CoefficientSet, ambient: AmbientGrid):
    """Variance per unit time equals the squared kernel L2 profile."""
    x = 0.5 * (ambient.x_lo + ambient.x_hi)
    n_paths = 20000
    w = model.kernel.zeta(np.asarray(x), ambient.nodes) * ambient.dy
    sd = math.sqrt(1.0 / ambient.dy)
    draws = (rng.standard_normal((n_paths, ambient.J)) * sd) @ w
    target = float(np.sum(model.kernel.zeta(np.asarray(x), ambient.nodes) ** 2) * ambient.dy)
    rel = abs(np.var(draws) - target) / target
    return _result("coloring_variance", rel, 0.05)


def _diffusion_hs_scale(c: CoefficientSet, g: Grid, X: np.ndarray, ambient: AmbientGrid) -> float:
    """Discrete Hilbert-Schmidt scale of the diffusion operator at the state row X."""
    x = g.nodes
    p = float(X[-1])
    ys = ambient.nodes
    prof_plus = np.sqrt(np.sum(c.kernel.zeta((p + x)[:, None], ys) ** 2, axis=1) * ambient.dy)
    prof_minus = np.sqrt(np.sum(c.kernel.zeta((p - x)[:, None], ys) ** 2, axis=1) * ambient.dy)
    s1 = np.broadcast_to(c.sigma_plus(x, X[: g.M]), (g.M,)) * prof_plus
    s2 = np.broadcast_to(c.sigma_minus(-x, X[g.M : 2 * g.M]), (g.M,)) * prof_minus
    return math.sqrt(g.h * (float(np.dot(s1, s1)) + float(np.dot(s2, s2))))


def check_equilip(rng, model, op, samples, family):
    grid = op.grid
    ns = _resolvable(grid, family)
    if not ns:
        return _no_finite_n("psi_uniform_lipschitz")
    ka = K_A(op)
    r = 2.0
    worst = 0.0
    for _ in range(samples):
        X = smooth_state(rng, grid, decay=2.0)
        Y = smooth_state(rng, grid, decay=2.0)
        sx, sy = state_norm(grid, X, "H2"), state_norm(grid, Y, "H2")
        if sx > r:
            X = (r / sx * 0.9) * X
        if sy > r:
            Y = (r / sy * 0.9) * Y
        dist = state_norm(grid, X - Y, "H2")
        if dist == 0:
            continue
        lip = 2.0 * ka * model.rho_lipschitz(2.0 * ka * r) * (1.0 + 10.0 * grid.h)
        UX, UY = padded(grid, X), padded(grid, Y)
        for n in ns:
            w = interface_weights(grid, n)
            gap = abs(interface_speed(model, UX, w) - interface_speed(model, UY, w))
            worst = max(worst, _ratio(gap, lip * dist))
    return _result("psi_uniform_lipschitz", worst, 1.0)


def check_window_bound(rng, grid, samples, family):
    ns = _resolvable(grid, family)
    if not ns:
        return _no_finite_n("window_arg_bound")
    worst = 0.0
    for _ in range(samples):
        F = _padded_phase(rng, grid, 2.0)
        h2 = _norm(F, grid, "H2")
        if h2 == 0:
            continue
        for n in ns:
            window_mean = float(interface_weights(grid, n) @ F)
            worst = max(worst, abs(window_mean) / (2.0 * h2 * (1.0 + 10.0 * grid.h)))
    return _result("window_arg_bound", worst, 1.0)


def check_truncation_support(rng, model, op, ambient, samples, family):
    """One truncated solver step is the bare semigroup step outside the cutoff ball
    and the plain step inside it, bitwise: the cutoff factor is 0 or 1 there.
    Only states whose boundary the noise window covers are stepped."""
    grid = op.grid
    ns = _resolvable(grid, family) or [INF]
    spec = TruncationSpec(1.0)
    dt = 1e-3
    count = min(samples, 40)
    increments = NoiseStream(seed=12345).block(0, count, dt, ambient) if count else ()
    gaps = []
    for i in range(count):
        X = smooth_state(rng, grid, decay=2.0)
        s = state_norm(grid, X, "H2")
        if s == 0:
            continue
        dW = increments[i]
        plain = SolveConfig(dt=dt, T=dt, n=ns[i % len(ns)])
        cut = SolveConfig(dt=dt, T=dt, n=plain.n, truncation=spec)
        # outside the ball: scale the phases only, so the boundary stays near 0
        Xo = np.append((spec.r + 1.0) / s * 1.5 * X[:-1], 0.9 * math.tanh(X[-1]))
        if state_norm(grid, Xo, "H2") ** 2 >= (spec.r + 1.0) ** 2 and ambient.covers(Xo[-1], grid.L):
            gaps.append(np.max(np.abs(step(op, model, cut, Xo, dW, ambient) - semigroup(op, dt, Xo))))
        Xi = spec.r / s * 0.5 * X
        if ambient.covers(Xi[-1], grid.L):
            Y = step(op, model, cut, Xi, dW, ambient)
            gaps.append(np.max(np.abs(Y - step(op, model, plain, Xi, dW, ambient))))
    if not gaps:
        return LemmaResult("truncation_support", SKIP, 0.0, 0.0, "no sampled boundary inside the noise window")
    return _result("truncation_support", max(gaps), 0.0)


def check_linear_growth(rng, model, grid, ambient, samples, family):
    """Drift plus diffusion scale grows at most linearly, uniformly over n.

    The bound assumes the bounded regime (bounded rho, affine sigma, mu with
    bounded slopes); outside it the check is skipped, not passed.
    """
    if not model.bounded:
        return LemmaResult("linear_growth", SKIP, 0.0, 0.0, "model not in the bounded regime")
    ns = _resolvable(grid, family) + [INF]
    h = grid.h
    per_n = {}
    for n in ns:
        w = interface_weights(grid, n)
        worst = 0.0
        local = np.random.default_rng(rng.integers(2**32))
        for _ in range(max(samples // 4, 20)):
            for radius in (1.0, 5.0, 25.0):
                X = smooth_state(local, grid, decay=2.0)
                s = state_norm(grid, X, "H2")
                if s > 0:
                    X = (radius / s) * X
                U = padded(grid, X)
                rows, dp = drift_rows(model, U, float(X[-1]), transport_direction(U, h), w, grid)
                drift_h1 = math.sqrt(sq_norm(np.pad(rows, ((0, 0), (1, 1))), h, "H1") + dp * dp)
                val = drift_h1 + _diffusion_hs_scale(model, grid, X, ambient)
                worst = max(worst, val / (1.0 + state_norm(grid, X, "H2")))
        per_n[n] = worst
    vals = list(per_n.values())
    spread = max(vals) / max(min(vals), 1e-300)
    return _result("linear_growth", spread, 1.5, f"per-n worst ratios {min(vals):.3g}..{max(vals):.3g}")


def check_psi_gap(rng, model, grid, samples, gap_family=(4, 16, 64)):
    ns = [n for n in gap_family if window_resolved(grid, n, 10.0)]
    if not ns:
        return LemmaResult("psi_gap_bound", FAIL, math.inf, 0.0, "no n with 1/n >= 10h")
    worst = 0.0

    def medians(draw):
        """Median of gap * sqrt(n) per n over ``samples`` states from ``draw()``."""
        nonlocal worst
        per_n = {n: [] for n in ns}
        for _ in range(samples):
            X = draw()
            for n in ns:
                gap, bound = psi_gap_bound(model, grid, X, n)
                worst = max(worst, gap / max(bound, 1e-300))
                per_n[n].append(gap * math.sqrt(n))
        return {n: float(np.median(v)) for n, v in per_n.items()}

    # generic H2-rough states: the rescaled gap is flat in n (factor-2 stability;
    # gaps that are all zero, as under a zero interface map, are flat too)
    rough = medians(lambda: rough_state(rng, grid, sigma=1.0))
    ok_rate = max(rough.values()) <= 2.0 * min(rough.values())
    # genuinely smooth states: gap * sqrt(n) decays, nonincreasing up to O(h) noise
    smooth = medians(lambda: smooth_state(rng, grid, decay=3.0))
    ok_rate = ok_rate and all(smooth[b] <= smooth[a] * (1.0 + 10.0 * grid.h) for a, b in zip(ns, ns[1:]))
    res = _result("psi_gap_bound", worst, 1.0, f"rough medians {rough}; smooth medians {smooth}")
    if not ok_rate:
        res.status = FAIL
    return res


def run_suite(
    model: CoefficientSet,
    op: SpectralOperator,
    ambient: AmbientGrid,
    family,
    samples: int = 200,
    seed: int = 0,
):
    """Run every property check on the grid of ``op`` and return the result rows."""
    grid = op.grid
    if samples == 0:
        return []
    rng = np.random.default_rng(seed)
    # the gap rate needs 1/n >= 10h up to n = 64: refine to M = 2^k - 1 where the grid is coarser
    gap_grid, k = grid, 10
    while not window_resolved(gap_grid, 64, 10.0):
        gap_grid, k = Grid(grid.L, 2**k - 1), k + 1
    # the checks run in this order, each on the battery's one rng stream
    return [
        check_norm_monotone(rng, grid, samples),
        check_intnorm(rng, grid, samples, family),
        check_trace_bound(rng, grid, samples),
        *check_d2_symmetric_negative(rng, grid, samples),
        check_eigen_exactness(op, grid),
        check_semigroup_property(rng, op, grid, min(samples, 50)),
        check_generator_consistency(rng, op, grid),
        check_negative_type(rng, op, grid, min(samples, 100)),
        check_coloring_linear(rng, model, ambient, samples),
        check_brownian_variance(rng, model, ambient),
        check_coloring_variance(rng, model, ambient),
        check_equilip(rng, model, op, min(samples, 100), family),
        check_window_bound(rng, grid, samples, family),
        check_truncation_support(rng, model, op, ambient, samples, family),
        check_linear_growth(rng, model, grid, ambient, samples, family),
        check_psi_gap(rng, model, gap_grid, min(samples, 200)),
    ]
