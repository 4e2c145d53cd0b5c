"""Executable property battery for the lemma-level inequalities.

Each check runs over seeded random draws and reports the worst observed
ratio against its allowance.  Failures are data, not exceptions; structural
problems (e.g. an unresolvable window) become failure rows with a reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..coefficients import (
    CoefficientSet,
    TruncationSpec,
    Psi_n,
    diffusion_C,
    drift_B,
    psi_gap_bound,
)
from ..errors import WindowUnresolved
from ..grids import (
    Grid,
    GridFunction,
    State,
    d2,
    norm,
    state_norm,
    window_mean,
)
from ..noise import AmbientGrid, NoiseIncrement, NoiseStream, color_at
from ..operators import K_A, SpectralOperator, apply_A, semigroup
from .sampling import rough_state, smooth_gridfunction, smooth_state

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
    return [n for n in family if n != INF and 1.0 / n >= 2.0 * grid.h]


def check_norm_monotone(rng, grid, samples):
    worst = 0.0
    for _ in range(samples):
        f = smooth_gridfunction(rng, grid, decay=2.0)
        l2, h1, h2 = norm(f, "L2"), norm(f, "H1"), norm(f, "H2")
        worst = max(worst, l2 - h1, h1 - h2)
    return _result("norm_monotone", worst, 0.0)


def check_intnorm(rng, grid, samples, family):
    """|integral over [0, 1/n]| <= (1/n)^2 |f|_H2 (1 + 10h), shrinking slack on refinement."""
    ns = _resolvable(grid, family)
    if not ns:
        return LemmaResult("intnorm_window", FAIL, math.inf, 0.0, "no resolvable n")

    def worst_ratio(g: Grid):
        w = 0.0
        local = np.random.default_rng(rng.integers(2**32))
        for _ in range(samples):
            f = smooth_gridfunction(local, g, decay=2.0)
            h2 = norm(f, "H2")
            if h2 == 0:
                continue
            for n in ns:
                z = 1.0 / n
                integral = window_mean(f, n) / (2.0 * n * n)
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
        f = smooth_gridfunction(rng, grid, decay=2.0)
        h2 = norm(f, "H2")
        if h2 == 0:
            continue
        worst = max(worst, np.max(np.abs(f.values)) / h2)
    return _result("trace_sup_bound", worst, 2.0 * (1.0 + 10.0 * grid.h))


def check_d2_symmetric_negative(rng, grid, samples):
    worst_sym = 0.0
    worst_neg = 0.0
    for _ in range(samples):
        f = smooth_gridfunction(rng, grid, decay=1.5)
        g = smooth_gridfunction(rng, grid, decay=1.5)
        a = float(np.dot(d2(f).values, g.values))
        b = float(np.dot(f.values, d2(g).values))
        scale = max(abs(a), abs(b), 1e-300)
        worst_sym = max(worst_sym, abs(a - b) / scale)
        quad = float(np.dot(d2(f).values, f.values))
        worst_neg = max(worst_neg, quad / max(np.dot(f.values, f.values), 1e-300))
    res = _result("d2_symmetric", worst_sym, 1e-10)
    neg = _result("d2_negative", worst_neg, 0.0)
    return [res, neg]


def check_eigen_exactness(op: SpectralOperator, grid: Grid):
    worst = 0.0
    for k in (1, 2, grid.M // 2, grid.M):
        phi = GridFunction.from_callable(grid, lambda x, k=k: np.sin(k * np.pi * x / grid.L))
        X = State(phi, GridFunction.zero(grid), 0.0)
        AX = apply_A(op, X)
        expected = op.eigenvalues_plus[k - 1] * phi.values
        worst = max(worst, np.max(np.abs(AX.u1.values - expected)) / np.max(np.abs(expected)))
    return _result("eigen_exactness", worst, 1e-12)


def check_semigroup_property(rng, op, grid, samples):
    worst = 0.0
    for _ in range(samples):
        X = smooth_state(rng, grid)
        t, s = rng.uniform(0.01, 0.5, 2)
        a = semigroup(op, t, semigroup(op, s, X))
        b = semigroup(op, t + s, X)
        denom = max(state_norm(b, "L2"), 1e-300)
        worst = max(worst, state_norm(a - b, "L2") / denom)
    return _result("semigroup_property", worst, 1e-12)


def check_generator_consistency(rng, op, grid):
    X = smooth_state(rng, grid, decay=4.0)
    AX = apply_A(op, X)
    errs = []
    for eps in (1e-3, 5e-4):
        diff = (1.0 / eps) * (semigroup(op, eps, X) - X)
        errs.append(state_norm(diff - AX, "L2"))
    ratio = errs[1] / max(errs[0], 1e-300)
    # halving eps should roughly halve the error (first order)
    return _result("generator_consistency", ratio, 0.7, f"errors={errs[0]:.3g},{errs[1]:.3g}")


def check_negative_type(rng, op, grid, samples):
    worst = 0.0
    for _ in range(samples):
        X = smooth_state(rng, grid, decay=1.5)
        t = float(rng.uniform(0.0, 2.0))
        lhs = state_norm(semigroup(op, t, X), "L2")
        rhs = math.exp(-t) * state_norm(X, "L2")
        worst = max(worst, lhs - rhs * (1.0 + 1e-12))
    return _result("negative_type", worst, 0.0)


def check_coloring_linear(rng, model: CoefficientSet, ambient: AmbientGrid, samples):
    worst = 0.0
    for _ in range(min(samples, 50)):
        dW1 = rng.standard_normal(ambient.J)
        dW2 = rng.standard_normal(ambient.J)
        a, b = rng.uniform(-2, 2, 2)
        x = float(rng.uniform(ambient.x_lo, ambient.x_hi))
        i1 = NoiseIncrement(dW1, 0, 1.0)
        i2 = NoiseIncrement(dW2, 0, 1.0)
        i3 = NoiseIncrement(a * dW1 + b * dW2, 0, 1.0)
        lhs = color_at(model.kernel, ambient, i3, x)
        rhs = a * color_at(model.kernel, ambient, i1, x) + b * color_at(model.kernel, ambient, i2, x)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-12))
    return _result("coloring_linear", worst, 1e-12)


def check_brownian_variance(rng, model: CoefficientSet, ambient: AmbientGrid):
    """Variance of the colored field grows linearly in time (two-horizon ratio)."""
    x = 0.5 * (ambient.x_lo + ambient.x_hi)
    n_paths = 4000
    dt = 0.1
    w = model.kernel.zeta(np.asarray(x), ambient.nodes) * ambient.dy
    sd = math.sqrt(dt / ambient.dy)
    one = (rng.standard_normal((n_paths, ambient.J)) * sd) @ w
    two = one + (rng.standard_normal((n_paths, ambient.J)) * sd) @ w
    ratio = np.var(two) / np.var(one)
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


def _diffusion_hs_scale(c: CoefficientSet, X: State, ambient: AmbientGrid) -> float:
    """Discrete Hilbert-Schmidt scale of the diffusion operator at X."""
    g = X.grid
    x = g.nodes
    ys = ambient.nodes
    prof_plus = np.sqrt(np.sum(c.kernel.zeta((X.p + x)[:, None], ys) ** 2, axis=1) * ambient.dy)
    prof_minus = np.sqrt(np.sum(c.kernel.zeta((X.p - x)[:, None], ys) ** 2, axis=1) * ambient.dy)
    s1 = np.broadcast_to(c.sigma_plus(x, X.u1.values), (g.M,)) * prof_plus
    s2 = np.broadcast_to(c.sigma_minus(-x, X.u2.values), (g.M,)) * prof_minus
    return math.sqrt(g.h * (float(np.dot(s1, s1)) + float(np.dot(s2, s2))))


def check_equilip(rng, model, op, grid, samples, family):
    ns = _resolvable(grid, family)
    if not ns:
        return LemmaResult("psi_uniform_lipschitz", FAIL, math.inf, 0.0, "no resolvable n")
    ka = K_A(op)
    r = 2.0
    worst = 0.0
    for _ in range(samples):
        X = smooth_state(rng, grid, decay=2.0)
        Y = smooth_state(rng, grid, decay=2.0)
        sx, sy = state_norm(X, "H2"), state_norm(Y, "H2")
        if sx > r:
            X = (r / sx * 0.9) * X
        if sy > r:
            Y = (r / sy * 0.9) * Y
        dist = state_norm(X - Y, "H2")
        if dist == 0:
            continue
        lip = 2.0 * ka * model.rho_lipschitz(2.0 * ka * r) * (1.0 + 10.0 * grid.h)
        for n in ns:
            gap = abs(Psi_n(model, X, n) - Psi_n(model, Y, n))
            worst = max(worst, gap / (lip * dist))
    return _result("psi_uniform_lipschitz", worst, 1.0)


def check_window_bound(rng, grid, samples, family):
    ns = _resolvable(grid, family)
    if not ns:
        return LemmaResult("window_arg_bound", FAIL, math.inf, 0.0, "no resolvable n")
    worst = 0.0
    for _ in range(samples):
        f = smooth_gridfunction(rng, grid, decay=2.0)
        h2 = norm(f, "H2")
        if h2 == 0:
            continue
        for n in ns:
            worst = max(worst, abs(window_mean(f, n)) / (2.0 * h2 * (1.0 + 10.0 * grid.h)))
    return _result("window_arg_bound", worst, 1.0)


def check_truncation_support(rng, model, grid, ambient, samples, family):
    ns = _resolvable(grid, family) or [INF]
    spec = TruncationSpec(1.0)
    stream = NoiseStream(seed=12345)
    worst = 0.0
    for i in range(min(samples, 40)):
        X = smooth_state(rng, grid, decay=2.0)
        s = state_norm(X, "H2")
        inc = stream.increment(i, 1e-3, ambient)
        n = ns[i % len(ns)]
        outside = (spec.r + 1.0) / s * 1.5 if s > 0 else None
        if outside:
            # scale the phases only so the boundary stays inside the window
            Xo = State(outside * X.u1, outside * X.u2, 0.9 * math.tanh(X.p))
            if state_norm(Xo, "H2") ** 2 >= (spec.r + 1.0) ** 2:
                dn = state_norm(drift_B(model, Xo, n, spec), "H2")
                cn = state_norm(diffusion_C(model, Xo, inc, ambient, spec), "H2")
                worst = max(worst, dn, cn)
        inside = spec.r / s * 0.5 if s > 0 else None
        if inside:
            Xi = inside * X
            gap = state_norm(
                drift_B(model, Xi, n, spec) - drift_B(model, Xi, n, None), "H2"
            )
            worst = max(worst, gap)
    return _result("truncation_support", worst, 0.0)


def check_linear_growth(rng, model, grid, ambient, samples, family):
    """Drift plus diffusion scale grows at most linearly, uniformly over n.

    The bound assumes the bounded regime (bounded rho, affine sigma, mu with
    bounded slopes); outside it the check is skipped, not passed.
    """
    if not (model.rho_bounded and model.sigma_affine_flag and model.mu_bounded_slopes):
        return LemmaResult("linear_growth", SKIP, 0.0, 0.0, "model not in the bounded regime")
    ns = _resolvable(grid, family) + [INF]
    per_n = {}
    for n in ns:
        worst = 0.0
        local = np.random.default_rng(rng.integers(2**32))
        for _ in range(max(samples // 4, 20)):
            for radius in (1.0, 5.0, 25.0):
                X = smooth_state(local, grid, decay=2.0)
                s = state_norm(X, "H2")
                if s > 0:
                    X = (radius / s) * X
                val = state_norm(drift_B(model, X, n), "H1") + _diffusion_hs_scale(
                    model, X, ambient
                )
                worst = max(worst, val / (1.0 + state_norm(X, "H2")))
        per_n[n] = worst
    vals = list(per_n.values())
    spread = max(vals) / max(min(vals), 1e-300)
    return _result("linear_growth", spread, 1.5, f"per-n worst ratios {min(vals):.3g}..{max(vals):.3g}")


def check_psi_gap(rng, model, grid, samples, gap_family=(4, 16, 64)):
    ns = [n for n in gap_family if 1.0 / n >= 10.0 * grid.h]
    if not ns:
        return LemmaResult("psi_gap_rate", FAIL, math.inf, 0.0, "no n with 1/n >= 10h")
    worst = 0.0
    medians = {}
    per_n = {n: [] for n in ns}
    for _ in range(samples):
        X = rough_state(rng, grid, sigma=1.0)
        for n in ns:
            gap, bound = psi_gap_bound(model, X, n)
            worst = max(worst, gap / max(bound, 1e-300))
            per_n[n].append(gap * math.sqrt(n))
    for n in ns:
        medians[n] = float(np.median(per_n[n]))
    vals = list(medians.values())
    # generic H2-rough states: the rescaled gap is flat in n (factor-2 stability)
    ok_rate = max(vals) < 2.0 * min(vals)

    # genuinely smooth states: gap * sqrt(n) decays, nonincreasing up to O(h) noise
    smooth_medians = {}
    per_n_s = {n: [] for n in ns}
    for _ in range(samples):
        Xs = smooth_state(rng, grid, decay=3.0)
        for n in ns:
            gap, bound = psi_gap_bound(model, Xs, n)
            worst = max(worst, gap / max(bound, 1e-300))
            per_n_s[n].append(gap * math.sqrt(n))
    for n in ns:
        smooth_medians[n] = float(np.median(per_n_s[n]))
    for a, b in zip(ns, ns[1:]):
        if smooth_medians[b] > smooth_medians[a] * (1.0 + 10.0 * grid.h):
            ok_rate = False

    res = _result(
        "psi_gap_bound",
        worst,
        1.0,
        f"rough medians {medians}; smooth medians {smooth_medians}",
    )
    if not ok_rate:
        res.status = FAIL
    return res


def run_suite(
    model: CoefficientSet,
    op: SpectralOperator,
    grid: Grid,
    ambient: AmbientGrid,
    family,
    samples: int = 200,
    seed: int = 0,
):
    """Run every property check and return the result rows."""
    if samples == 0:
        return []
    rng = np.random.default_rng(seed)
    results = []

    def guard(fn, name):
        try:
            out = fn()
        except WindowUnresolved as exc:
            out = LemmaResult(name, FAIL, math.inf, 0.0, f"WindowUnresolved: {exc}")
        if isinstance(out, list):
            results.extend(out)
        else:
            results.append(out)

    guard(lambda: check_norm_monotone(rng, grid, samples), "norm_monotone")
    guard(lambda: check_intnorm(rng, grid, samples, family), "intnorm_window")
    guard(lambda: check_trace_bound(rng, grid, samples), "trace_sup_bound")
    guard(lambda: check_d2_symmetric_negative(rng, grid, samples), "d2_symmetric")
    guard(lambda: check_eigen_exactness(op, grid), "eigen_exactness")
    guard(lambda: check_semigroup_property(rng, op, grid, min(samples, 50)), "semigroup_property")
    guard(lambda: check_generator_consistency(rng, op, grid), "generator_consistency")
    guard(lambda: check_negative_type(rng, op, grid, min(samples, 100)), "negative_type")
    guard(lambda: check_coloring_linear(rng, model, ambient, samples), "coloring_linear")
    guard(lambda: check_brownian_variance(rng, model, ambient), "brownian_variance_linear")
    guard(lambda: check_coloring_variance(rng, model, ambient), "coloring_variance")
    guard(lambda: check_equilip(rng, model, op, grid, min(samples, 100), family), "psi_uniform_lipschitz")
    guard(lambda: check_window_bound(rng, grid, samples, family), "window_arg_bound")
    guard(lambda: check_truncation_support(rng, model, grid, ambient, samples, family), "truncation_support")
    guard(lambda: check_linear_growth(rng, model, grid, ambient, samples, family), "linear_growth")

    gap_grid = grid if 1.0 / 64 >= 10.0 * grid.h else Grid(grid.L, 1023)
    gap_op_grid = gap_grid
    guard(lambda: check_psi_gap(rng, model, gap_op_grid, min(samples, 200)), "psi_gap_bound")
    return results
