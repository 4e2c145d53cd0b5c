"""Experiment configuration: parsing, validation and object construction.

Configs are mappings; ``read_config`` reads one from a YAML file and is the
one function that imports PyYAML, so ``resolve(mapping)`` runs without it.
``resolve`` validates the raw dictionary and builds what its mode steps (in
``stefan-oracle`` mode, the classical melting run of the ``stefan`` section,
whose scaled complementary error function ``_erfcx`` is evaluated with the
standard library to 2e-15 relative, so no mode imports ``scipy.special``).
The resolved config pickles, and it is what every cell and worker of a run
receives.  Unknown or conflicting keys, non-numeric or non-finite values,
non-integer counts, repeated seeds or family entries and degenerate widths
and modes are rejected with a ``ConfigError`` that names the key.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .. import coefficients as coef
from ..errors import ConfigError
from ..grids import Grid, window_resolved
from ..noise import AmbientGrid, gaussian_kernel
from ..operators import SpectralOperator
from ..solver import SolveConfig
from ..coefficients import TruncationSpec

INF = math.inf

# Fewest cells of h across the similarity boundary layer before stefan-oracle
# warns: on configs/stefan.yaml with ambient.pad 15 the late front error is
# 1.1% at 16.6 cells and 2.4% at 10.9 (Acceptance 7 allows 2%).
_STEFAN_MIN_LAYER_CELLS = 16

MODES = ("simulate", "converge", "stefan-oracle", "lemma-suite")

_KEYS = (
    "mode", "grid", "ambient", "model", "initial", "solve", "family", "seeds", "outputs",
    "q", "profiles", "dump_noise", "lemma_samples", "jobs", "stefan",
)
_MODEL_KEYS = ("eta_plus", "eta_minus", "mu", "mu_minus", "sigma", "sigma_minus", "rho", "kernel")
_SOLVE_KEYS = ("dt", "T", "truncation_r", "R_max", "record_every")
_INITIAL_KEYS = {
    "zero": ("p0",),
    "sine": ("p0", "amplitude", "amplitude2", "mode"),
    "bump": ("p0", "amplitude", "amplitude2", "width"),
}

# Coefficient families: name -> (factory, in the bounded regime).  A family's
# parameters and their defaults are the factory's keyword arguments.  A model
# is in the bounded regime (CoefficientSet.bounded) when all of its families are.
_FAMILIES = {
    "mu": {
        "zero": (coef.mu_zero, True),
        "linear": (coef.mu_linear, False),
        "saturated": (coef.mu_saturated, True),
        "quadratic": (coef.mu_quadratic, False),
    },
    "sigma": {"zero": (coef.sigma_zero, True), "affine": (coef.sigma_affine, True)},
    "rho": {
        "zero": (coef.rho_zero, True),
        "linear": (coef.rho_linear, False),
        "tanh": (coef.rho_tanh, True),
    },
}


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing field {key!r} in {where}")
    return d[key]


def _mapping(value, where: str, keys=None) -> dict:
    """``value`` itself if it is a mapping with no key outside ``keys`` (any key if None)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {value!r}")
    unknown = [] if keys is None else [k for k in value if k not in keys]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}; choose from {list(keys)}")
    return value


@contextmanager
def _invalid(where: str):
    """Re-raise a constructor's range check (a ValueError) as a ConfigError naming the section."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _as_int(value, what: str, minimum=None) -> int:
    """A whole number from an int, an integral float or a decimal string; ConfigError otherwise."""
    n = None
    if isinstance(value, float) and value.is_integer():
        n = int(value)
    elif isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            n = int(value)
        except ValueError:
            pass
    if n is None:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and n < minimum:
        raise ConfigError(f"{what} must be at least {minimum}, got {n}")
    return n


def _as_float(value, what: str, finite: bool = True) -> float:
    """A real number, not NaN and finite unless ``finite`` is False, from an int, a float or a numeric string."""
    x = math.nan
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            x = float(value)
        except ValueError:
            pass
    if math.isnan(x) or (finite and math.isinf(x)):
        raise ConfigError(f"{what} must be a {'finite ' if finite else ''}number, got {value!r}")
    return x


def _as_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


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
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds must be distinct, got {spec!r}")
    return seeds


def parse_family(spec) -> list:
    if not isinstance(spec, list):
        raise ConfigError(f"family must be a list, got {spec!r}")
    out = []
    for n in spec:
        if n in ("inf", ".inf", "infinity") or (isinstance(n, float) and math.isinf(n)):
            n = INF
        else:
            n = _as_int(n, "family entry")
            if n <= 0:
                raise ConfigError(f"family entries must be positive, got {n}")
        if n in out:
            raise ConfigError(f"family entries must be distinct, got {n} more than once")
        out.append(n)
    return out


def build_grid(d: dict) -> Grid:
    _mapping(d, "grid", ("L", "M"))
    L, M = _require(d, "L", "grid"), _require(d, "M", "grid")
    return Grid(L=_as_float(L, "grid.L"), M=_as_int(M, "grid.M"))


def build_ambient(d: dict, grid: Grid, p0: float) -> AmbientGrid:
    """The window from ``x_lo``/``x_hi`` or else ``pad``; its nodes from ``J`` or else ``dy``."""
    _mapping(d, "ambient", ("x_lo", "x_hi", "pad", "dy", "J"))
    if ("x_lo" in d) != ("x_hi" in d):
        raise ConfigError("ambient.x_lo and ambient.x_hi must be given together")
    for a, b in (("x_lo", "pad"), ("J", "dy")):
        if a in d and b in d:
            raise ConfigError(f"ambient.{a} and ambient.{b} conflict; give one of them")
    if "x_lo" in d:
        x_lo, x_hi = _as_float(d["x_lo"], "ambient.x_lo"), _as_float(d["x_hi"], "ambient.x_hi")
        keys, pad = "ambient.x_lo and ambient.x_hi", min(p0 - grid.L - x_lo, x_hi - p0 - grid.L)
    else:
        keys, pad = "ambient.pad", _as_float(d.get("pad", 1.0), "ambient.pad")
        x_lo, x_hi = p0 - grid.L - pad, p0 + grid.L + pad
    if pad <= 0:
        raise ConfigError(f"{keys} must put the window a positive pad beyond [p0 - L, p0 + L], got pad {pad:g}")
    if "J" in d:
        J = _as_int(d["J"], "ambient.J")
    else:
        dy = _as_float(d.get("dy", 0.05), "ambient.dy")
        if dy <= 0:
            raise ConfigError("ambient.dy must be positive")
        J = int(round((x_hi - x_lo) / dy)) + 1
    return AmbientGrid(x_lo=x_lo, x_hi=x_hi, J=J)


def _family(kind: str, d, where: str):
    """(coefficient, in the bounded regime) of a mu, sigma or rho mapping {name, **parameters}."""
    table = _FAMILIES[kind]
    name = _require(_mapping(d, where), "name", where)
    if name not in table:
        raise ConfigError(f"unknown {kind} family {name!r} in {where}; choose from {sorted(table)}")
    factory, bounded = table[name]
    params = {k: _as_float(v, f"{where}.{k}") for k, v in d.items() if k != "name"}
    try:
        return factory(**params), bounded
    except (TypeError, ValueError) as exc:  # a parameter the family does not take, or out of its range
        raise ConfigError(f"{where}: {exc}") from exc


def build_coefficients(model: dict, ambient: AmbientGrid) -> coef.CoefficientSet:
    """The coefficient set of the ``model`` section; its diffusivities go to the operator (``resolve``)."""
    _mapping(model, "model", _MODEL_KEYS)
    mu_d = model.get("mu", {"name": "zero"})
    sigma_d = model.get("sigma", {"name": "zero"})
    kernel_d = _mapping(model.get("kernel", {}), "model.kernel", ("scale",))

    mu_plus, mu_ok = _family("mu", mu_d, "model.mu")
    mu_minus, mu_minus_ok = _family("mu", model.get("mu_minus", mu_d), "model.mu_minus")
    sigma_plus, sigma_ok = _family("sigma", sigma_d, "model.sigma")
    sigma_minus, sigma_minus_ok = _family("sigma", model.get("sigma_minus", sigma_d), "model.sigma_minus")
    (rho, rho_lip), rho_ok = _family("rho", model.get("rho", {"name": "zero"}), "model.rho")
    return coef.CoefficientSet(
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        sigma_plus=sigma_plus,
        sigma_minus=sigma_minus,
        rho=rho,
        rho_lipschitz=rho_lip,
        kernel=gaussian_kernel(_as_float(kernel_d.get("scale", 0.5), "model.kernel.scale"), ambient),
        bounded=mu_ok and mu_minus_ok and sigma_ok and sigma_minus_ok and rho_ok,
    )


def build_initial_state(d: dict, grid: Grid) -> np.ndarray:
    """The initial state row u1 | u2 | p of the ``initial`` section."""
    kind = _mapping(d, "initial").get("kind", "zero")
    if kind not in _INITIAL_KEYS:
        raise ConfigError(f"unknown initial-state kind {kind!r}; choose from {sorted(_INITIAL_KEYS)}")
    _mapping(d, f"initial ({kind})", ("kind",) + _INITIAL_KEYS[kind])
    p0 = _as_float(d.get("p0", 0.0), "initial.p0")
    if kind == "zero":
        return np.append(np.zeros(2 * grid.M), p0)
    a1 = _as_float(d.get("amplitude", 1.0), "initial.amplitude")
    if kind == "sine":
        a2 = _as_float(d.get("amplitude2", 0.0), "initial.amplitude2")
        mode = _as_int(d.get("mode", 1), "initial.mode", minimum=1)
        if mode > grid.M:  # mode M+1 is zero on the nodes, and higher modes alias onto lower ones
            raise ConfigError(f"initial.mode must be at most grid.M = {grid.M}, got {mode}")
        fn = lambda x: np.sin(mode * np.pi * x / grid.L)
    else:
        a2 = _as_float(d.get("amplitude2", a1), "initial.amplitude2")
        w = _as_float(d.get("width", 0.5), "initial.width")
        if not w > 0:
            raise ConfigError(f"initial.width must be positive, got {w}")
        fn = lambda x: x * np.exp(-((x / w) ** 2))
    base = fn(grid.nodes)
    return np.concatenate((a1 * base, a2 * base, [p0]))


def _erfcx(x: float) -> float:
    """The scaled complementary error function e^{x^2} erfc(x) for x >= 0, to 2e-15 relative.

    Below 6 it is e^hi erfc(x) (1 + lo), where x^2 = hi + lo exactly by
    Dekker's split, so the rounding of x^2 does not reach the exponential.
    From 6 on it is the continued fraction
    1 / (sqrt(pi) (x + 1/2 / (x + 1 / (x + 3/2 / (x + ...))))), 200 terms
    evaluated from the tail, which stays finite where erfc underflows.
    """
    if x < 6.0:
        c = 134217729.0 * x  # 2^27 + 1
        xh = c - (c - x)
        xl = x - xh
        hi = x * x
        lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl
        return math.exp(hi) * math.erfc(x) * (1.0 + lo)
    t = x
    for k in range(200, 0, -1):
        t = x + 0.5 * k / t
    return 1.0 / (math.sqrt(math.pi) * t)


def _front_equation(lam: float) -> float:
    """sqrt(pi) lambda e^{lambda^2} erfc(lambda), increasing from 0 to 1; finite for every lambda."""
    return math.sqrt(math.pi) * lam * _erfcx(lam)


def stefan_front_coefficient(rho0: float, v_inf: float, eta: float) -> float:
    """Similarity coefficient lambda with front 2 lambda sqrt(eta t), by bisection.

    Solves sqrt(pi) lambda e^{lambda^2} erfc(lambda) = rho0 v_inf / eta; a
    root exists iff that Stefan number lies in (0, 1).  The bracket doubles
    until it holds the root, which grows like (2 (1 - St))^(-1/2) as the
    Stefan number St approaches 1.  Bisection then runs until a step leaves
    the bracket unchanged, so a root as small as the least subnormal is
    resolved too (about 1,050 steps for St = 1e-300).
    """
    if rho0 == 0.0:
        return 0.0
    stefan_number = rho0 * v_inf / eta
    if not 0.0 < stefan_number < 1.0:
        raise ValueError(f"no similarity root: rho0*v_inf/eta = {stefan_number} must lie in (0, 1)")
    lo, hi = 0.0, 1.0
    while _front_equation(hi) < stefan_number:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        bracket = (mid, hi) if _front_equation(mid) < stefan_number else (lo, mid)
        if bracket == (lo, hi):
            return 0.5 * (lo + hi)
        lo, hi = bracket


@dataclass(frozen=True)
class StefanFront:
    """The resolved ``stefan`` section: a run from the similarity profile at t0 with interface strength rho0."""

    rho0: float
    lam: float
    eta: float
    t0: float

    def position(self, t):
        """The exact front 2 lambda sqrt(eta (t0 + t)) at run time t."""
        return 2.0 * self.lam * np.sqrt(self.eta * (self.t0 + t))


def _stefan_initial_state(grid: Grid, lam: float, v_inf: float, eta: float, t0: float) -> np.ndarray:
    """State row of the similarity profile at time t0, pulled back to the boundary frame."""
    p0 = 2.0 * lam * math.sqrt(eta * t0)
    s = grid.nodes / (2.0 * math.sqrt(eta * t0))
    # erfc(lam + s) / erfc(lam), written with erfcx so that neither factor underflows
    scaled = np.array([_erfcx(z) for z in (lam + s).tolist()])
    ratio = scaled / _erfcx(lam) * np.exp(-s * (2.0 * lam + s))
    return np.concatenate((v_inf * (1.0 - ratio), np.zeros(grid.M), [p0]))


def build_stefan(d: dict, eta_default: float, grid: Grid, ambient: AmbientGrid, T: float, warnings: list):
    """(front, initial state row) of the ``stefan`` section, which must have a similarity front whose
    boundary frame stays in the noise window up to T; warns when the boundary layer spans too few cells."""
    defaults = {"rho0": 1.0, "v_inf": 0.5, "eta": eta_default, "t0": 0.25}
    _mapping(d, "stefan", defaults)
    rho0, v_inf, eta, t0 = (_as_float(d.get(k, v), f"stefan.{k}") for k, v in defaults.items())
    if not eta > 0:
        raise ConfigError(f"stefan.eta must be positive, got {eta}")
    if not t0 > 0:
        raise ConfigError(f"stefan.t0 must be positive, got {t0}")
    # the similarity front exists for Stefan numbers in (0, 1); rho0 = 0 is the stationary front
    stefan_number = rho0 * v_inf / eta
    if rho0 != 0.0 and not 0.0 < stefan_number < 1.0:
        raise ConfigError(
            f"stefan.rho0 * stefan.v_inf / stefan.eta = {stefan_number} must lie in (0, 1)"
        )
    lam = stefan_front_coefficient(rho0, v_inf, eta)
    front = StefanFront(rho0, lam, eta, t0)
    # the front moves monotonically, so it stays in the window if both ends do
    ends = front.position(np.array([0.0, T]))
    if not all(ambient.covers(p, grid.L) for p in ends):
        raise ConfigError(
            f"the similarity front moves from {ends[0]:.6g} to {ends[1]:.6g}, and the boundary frame of "
            f"half-width grid.L = {grid.L:g} leaves the window [{ambient.x_lo:g}, {ambient.x_hi:g}]; "
            "lower stefan.rho0 * stefan.v_inf / stefan.eta, stefan.t0 or solve.T, or widen ambient.pad"
        )
    # the initial profile varies on the width sqrt(eta t0) / lambda next to the front
    cells = math.sqrt(eta * t0) / lam / grid.h if lam > 0 else math.inf
    if cells < _STEFAN_MIN_LAYER_CELLS:
        warnings.append(
            f"the similarity boundary layer sqrt(stefan.eta * stefan.t0) / lambda spans {cells:.3g} cells of "
            f"h = {grid.h:.3g}, fewer than {_STEFAN_MIN_LAYER_CELLS}; the front error grows as the layer "
            "narrows: raise grid.M or lower stefan.rho0 * stefan.v_inf / stefan.eta"
        )
    return front, _stefan_initial_state(grid, lam, v_inf, eta, t0)


@dataclass
class ExperimentConfig:
    """Fully resolved configuration plus the raw mapping it came from, which only the manifest reads.

    ``model``, ``operator``, ``initial`` and ``solve`` are what the mode steps.
    """

    raw: dict
    grid: Grid
    ambient: AmbientGrid
    model: coef.CoefficientSet
    operator: SpectralOperator
    initial: np.ndarray  # the state row u1 | u2 | p
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
    stefan: Optional[StefanFront] = None


def resolve(raw: dict) -> ExperimentConfig:
    _mapping(raw, "config", _KEYS)
    mode = raw.get("mode", "simulate")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    with _invalid("grid"):
        grid = build_grid(_require(raw, "grid", "config"))
    initial = build_initial_state(raw.get("initial", {"kind": "zero"}), grid)
    with _invalid("ambient"):
        ambient = build_ambient(raw.get("ambient", {}), grid, float(initial[-1]))
    model_d = raw.get("model", {})
    with _invalid("model"):
        model = build_coefficients(model_d, ambient)
        eta = [_as_float(model_d.get(k, 1.0), f"model.{k}") for k in ("eta_plus", "eta_minus")]
        operator = SpectralOperator(grid, *eta)

    # an infinite radius is no radius, and an infinite cutoff no cutoff
    sd = _mapping(_require(raw, "solve", "config"), "solve", _SOLVE_KEYS)
    trunc_r = sd.get("truncation_r")
    if trunc_r is not None:
        trunc_r = _as_float(trunc_r, "solve.truncation_r", False)
    with _invalid("solve section"):
        solve_cfg = SolveConfig(
            dt=_as_float(_require(sd, "dt", "solve"), "solve.dt"),
            T=_as_float(_require(sd, "T", "solve"), "solve.T"),
            n=INF,
            truncation=None if trunc_r in (None, INF) else TruncationSpec(trunc_r),
            explosion_radius=_as_float(sd.get("R_max", 1e6), "solve.R_max", False),
            record_every=_as_int(sd.get("record_every", 1), "solve.record_every"),
        )

    family = parse_family(raw.get("family", [INF]))
    for n in family:
        if n != INF and not window_resolved(grid, n):
            raise ConfigError(
                f"family member n={n} has unresolved window: 1/n = {1 / n} < 2h = {2 * grid.h}"
            )

    warnings, stefan = [], None
    if mode == "stefan-oracle":
        stefan, initial = build_stefan(
            raw.get("stefan", {}), operator.eta_plus, grid, ambient, solve_cfg.T, warnings
        )
        # the classical melting run: zero reaction and noise, linear interface map, one diffusivity
        mu, sigma = coef.mu_zero(), coef.sigma_zero()
        model = coef.CoefficientSet(mu, mu, sigma, sigma, *coef.rho_linear(stefan.rho0), model.kernel)
        operator = SpectralOperator(grid, stefan.eta, stefan.eta)
        solve_cfg = replace(solve_cfg, truncation=None)
    if mode == "converge":
        finite = [n for n in family if n != INF]
        if len(finite) < 3 or INF not in family:
            raise ConfigError("converge mode needs at least 3 finite n values and inf")
        if solve_cfg.truncation is None and not model.bounded:
            warnings.append(
                "rate assertion refused: the run is neither truncated nor in the bounded "
                "regime of the coefficients; slope is recorded but asserts nothing"
            )

    return ExperimentConfig(
        raw=raw,
        grid=grid,
        ambient=ambient,
        model=model,
        operator=operator,
        initial=initial,
        solve=solve_cfg,
        family=family,
        seeds=parse_seeds(raw.get("seeds", [0])),
        out_dir=str(raw.get("outputs", "out")),
        q=_as_int(raw.get("q", 2), "q", minimum=1),
        profiles=_as_bool(raw.get("profiles", False), "profiles"),
        dump_noise=_as_bool(raw.get("dump_noise", False), "dump_noise"),
        lemma_samples=_as_int(raw.get("lemma_samples", 200), "lemma_samples", minimum=0),
        jobs=_as_int(raw.get("jobs", 1), "jobs", minimum=1),
        warnings=warnings,
        stefan=stefan,
    )


def read_config(path: str) -> dict:
    """The raw mapping of a YAML config file, not yet resolved."""
    import yaml

    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} did not parse to a mapping")
    return raw


def load_config(path: str) -> ExperimentConfig:
    return resolve(read_config(path))
