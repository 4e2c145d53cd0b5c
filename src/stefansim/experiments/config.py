"""Experiment configuration: parsing, validation and object construction.

Configs are YAML mappings.  ``resolve`` validates the raw dictionary and
builds the grid, ambient window, kernel and coefficient set; workers rebuild
from the raw dictionary, so everything here must be constructible from plain
data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import yaml

from .. import coefficients as coef
from ..errors import ConfigError
from ..grids import Grid, GridFunction, State
from ..noise import AmbientGrid, Kernel, gaussian_kernel
from ..operators import SpectralOperator
from ..solver import SolveConfig
from ..coefficients import TruncationSpec

INF = math.inf

MODES = ("simulate", "converge", "stefan-oracle", "lemma-suite")

# Relative tolerance on T/dt being a whole number of steps: admits the rounding
# of decimal inputs such as 0.25/2e-3 = 125.00000000000001.
_STEPS_RTOL = 1e-9


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing field {key!r} in {where}")
    return d[key]


def _as_int(value, what: str) -> int:
    """A whole number from an int, an integral float or a decimal string; ConfigError otherwise."""
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def parse_seeds(spec) -> list:
    """Nonempty seed list from a list, an integer count, or an inclusive range 'a..b'."""
    if isinstance(spec, list):
        seeds = [_as_int(s, "seed") for s in spec]
    elif isinstance(spec, int) and not isinstance(spec, bool):
        seeds = list(range(spec))
    elif isinstance(spec, str) and ".." in spec:
        a, b = spec.split("..", 1)
        seeds = list(range(_as_int(a, "seed"), _as_int(b, "seed") + 1))
    else:
        raise ConfigError(f"cannot parse seeds from {spec!r}")
    if not seeds:
        raise ConfigError(f"seeds {spec!r} select no seed")
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be nonnegative, got {spec!r}")
    return seeds


def parse_family(spec) -> list:
    out = []
    for n in spec:
        if n in ("inf", ".inf", "infinity") or (isinstance(n, float) and math.isinf(n)):
            out.append(INF)
        else:
            n = _as_int(n, "family entry")
            if n <= 0:
                raise ConfigError(f"family entries must be positive, got {n}")
            out.append(n)
    return out


def build_grid(d: dict) -> Grid:
    return Grid(L=float(_require(d, "L", "grid")), M=int(_require(d, "M", "grid")))


def build_ambient(d: dict, grid: Grid, p0: float) -> AmbientGrid:
    if "x_lo" in d and "x_hi" in d:
        x_lo, x_hi = float(d["x_lo"]), float(d["x_hi"])
        pad = min(p0 - grid.L - x_lo, x_hi - p0 - grid.L)
        if pad <= 0:
            raise ConfigError("ambient window must cover [p0 - L, p0 + L] with positive pad")
    else:
        pad = float(d.get("pad", 1.0))
        if pad <= 0:
            raise ConfigError("ambient pad must be positive")
        x_lo = p0 - grid.L - pad
        x_hi = p0 + grid.L + pad
    if "J" in d:
        J = int(d["J"])
    else:
        dy = float(d.get("dy", 0.05))
        J = int(round((x_hi - x_lo) / dy)) + 1
    return AmbientGrid(x_lo=x_lo, x_hi=x_hi, J=J)


_MU_FAMILIES = {
    "zero": lambda p: coef.mu_zero(),
    "linear": lambda p: coef.mu_linear(
        c_v=float(p.get("c_v", 0.0)), c_vp=float(p.get("c_vp", 0.0))
    ),
    "saturated": lambda p: coef.mu_saturated(
        amplitude=float(p.get("amplitude", 1.0)), slope=float(p.get("slope", 1.0))
    ),
    "quadratic": lambda p: coef.mu_quadratic(coeff=float(p.get("coeff", 1.0))),
}

_SIGMA_FAMILIES = {
    "zero": lambda p: coef.sigma_zero(),
    "affine": lambda p: coef.sigma_affine(
        additive=float(p.get("additive", 0.0)),
        multiplicative=float(p.get("multiplicative", 0.0)),
        width=float(p.get("width", 1.0)),
    ),
}

_RHO_FAMILIES = {
    "zero": lambda p: coef.rho_zero(),
    "linear": lambda p: coef.rho_linear(rho0=float(p.get("rho0", 1.0))),
    "tanh": lambda p: coef.rho_tanh(
        rho0=float(p.get("rho0", 1.0)), slope=float(p.get("slope", 1.0))
    ),
}


def build_coefficients(model: dict, ambient: AmbientGrid) -> coef.CoefficientSet:
    def pick(table, d, what):
        name = _require(d, "name", f"model.{what}")
        if name not in table:
            raise ConfigError(f"unknown {what} family {name!r}; choose from {sorted(table)}")
        return table[name](d)

    mu_d = model.get("mu", {"name": "zero"})
    sigma_d = model.get("sigma", {"name": "zero"})
    rho_d = model.get("rho", {"name": "zero"})
    kernel_d = model.get("kernel", {"scale": 0.5})
    kernel = gaussian_kernel(float(kernel_d.get("scale", 0.5)), ambient)

    rho, rho_lip = pick(_RHO_FAMILIES, rho_d, "rho")
    return coef.CoefficientSet(
        eta_plus=float(model.get("eta_plus", 1.0)),
        eta_minus=float(model.get("eta_minus", 1.0)),
        mu_plus=pick(_MU_FAMILIES, mu_d, "mu"),
        mu_minus=pick(_MU_FAMILIES, model.get("mu_minus", mu_d), "mu"),
        sigma_plus=pick(_SIGMA_FAMILIES, sigma_d, "sigma"),
        sigma_minus=pick(_SIGMA_FAMILIES, model.get("sigma_minus", sigma_d), "sigma"),
        rho=rho,
        rho_lipschitz=rho_lip,
        kernel=kernel,
        rho_bounded=rho_d.get("name") in ("tanh", "zero"),
        sigma_affine_flag=sigma_d.get("name") in ("affine", "zero"),
        mu_bounded_slopes=mu_d.get("name") in ("zero", "saturated"),
    )


def build_initial_state(d: dict, grid: Grid) -> State:
    kind = d.get("kind", "zero")
    p0 = float(d.get("p0", 0.0))
    if kind == "zero":
        return State(GridFunction.zero(grid), GridFunction.zero(grid), p0)
    if kind == "sine":
        a1 = float(d.get("amplitude", 1.0))
        a2 = float(d.get("amplitude2", 0.0))
        mode = int(d.get("mode", 1))
        fn = lambda x: np.sin(mode * np.pi * x / grid.L)
        base = GridFunction.from_callable(grid, fn)
        return State(a1 * base, a2 * base, p0)
    if kind == "bump":
        a1 = float(d.get("amplitude", 1.0))
        a2 = float(d.get("amplitude2", a1))
        w = float(d.get("width", 0.5))
        fn = lambda x: x * np.exp(-((x / w) ** 2))
        base = GridFunction.from_callable(grid, fn)
        return State(a1 * base, a2 * base, p0)
    raise ConfigError(f"unknown initial-state kind {kind!r}")


@dataclass
class ExperimentConfig:
    """Fully resolved configuration plus the raw mapping it came from."""

    raw: dict
    mode: str
    grid: Grid
    ambient: AmbientGrid
    model: coef.CoefficientSet
    operator: SpectralOperator
    initial: State
    solve: SolveConfig
    family: list
    seeds: list
    out_dir: str
    q: int = 2
    profiles: bool = False
    dump_noise: bool = False
    lemma_samples: int = 200
    jobs: int = 1
    warnings: list = field(default_factory=list)


def resolve(raw: dict) -> ExperimentConfig:
    mode = raw.get("mode", "simulate")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    grid = build_grid(_require(raw, "grid", "config"))
    initial_d = raw.get("initial", {"kind": "zero"})
    initial = build_initial_state(initial_d, grid)
    ambient = build_ambient(raw.get("ambient", {}), grid, initial.p)
    model = build_coefficients(raw.get("model", {}), ambient)
    operator = SpectralOperator(grid, model.eta_plus, model.eta_minus)

    sd = _require(raw, "solve", "config")
    trunc_r = sd.get("truncation_r")
    dt = float(_require(sd, "dt", "solve"))
    T = float(_require(sd, "T", "solve"))
    if dt > 0 and abs(T / dt - round(T / dt)) > _STEPS_RTOL * (T / dt):
        raise ConfigError(f"T = {T} is not a whole number of steps dt = {dt}")
    solve_cfg = SolveConfig(
        dt=dt,
        T=T,
        n=INF,
        truncation=None if trunc_r is None else TruncationSpec(float(trunc_r)),
        explosion_radius=float(sd.get("R_max", 1e6)),
        record_every=int(sd.get("record_every", 1)),
    )

    family = parse_family(raw.get("family", [INF]))
    for n in family:
        if n != INF and 1.0 / n < 2.0 * grid.h:
            raise ConfigError(
                f"family member n={n} has unresolved window: 1/n = {1 / n} < 2h = {2 * grid.h}"
            )

    warnings = []
    if mode == "converge":
        finite = [n for n in family if n != INF]
        if len(finite) < 3 or INF not in family:
            raise ConfigError("converge mode needs at least 3 finite n values and inf")
        assumption5 = model.rho_bounded and model.sigma_affine_flag and model.mu_bounded_slopes
        if solve_cfg.truncation is None and not assumption5:
            warnings.append(
                "rate assertion refused: neither truncation nor globally bounded "
                "coefficient flags are set; slope is recorded but asserts nothing"
            )

    return ExperimentConfig(
        raw=raw,
        mode=mode,
        grid=grid,
        ambient=ambient,
        model=model,
        operator=operator,
        initial=initial,
        solve=solve_cfg,
        family=family,
        seeds=parse_seeds(raw.get("seeds", [0])),
        out_dir=str(raw.get("outputs", "out")),
        q=int(raw.get("q", 2)),
        profiles=bool(raw.get("profiles", False)),
        dump_noise=bool(raw.get("dump_noise", False)),
        lemma_samples=int(raw.get("lemma_samples", 200)),
        jobs=int(raw.get("jobs", 1)),
        warnings=warnings,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} did not parse to a mapping")
    return resolve(raw)
