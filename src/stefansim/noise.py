"""Discretized cylindrical Wiener increments, drawn once per seed and replayed, and the coloring operator.

The cylindrical increment over one step is a vector of iid N(0, dt/dy)
variates on an ambient real-line grid; the coloring kernel, the Gaussian
zeta(x, y) = (2 pi s^2)^(-1/2) exp(-(x-y)^2 / (2 s^2)) of width s, turns it
into the increment of the driving field xi at arbitrary points by quadrature
of integral of zeta(x, y) dW(y).  The kernel is evaluated in closed form at
the shifted points p +/- x_i, so no interpolation error enters the noise,
and that form factors exactly.  With c the window midpoint, delta = p - c
and u_j = y_j - c,

    zeta(p +/- x_i, y_j) = Z_ij exp(-/+ delta x_i / s^2) exp(delta u_j / s^2)
                           exp(-delta^2 / (2 s^2)),   Z_ij = zeta(c +/- x_i, y_j),

so ``color_field`` costs one product of the fixed (2M x J) matrix Z, which a
path takes once from ``coloring``, with a vector of J exponentials, scaled by
2M exponentials.  Where those factors could grow large enough to cost
accuracy (see ``_MAX_EXPONENT``), the direct form ``color_at`` is used instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .grids import Grid

__all__ = [
    "AmbientGrid",
    "Kernel",
    "gaussian_kernel",
    "NoiseStream",
    "color_at",
    "coloring",
    "color_field",
]


@dataclass(frozen=True)
class AmbientGrid:
    """Uniform grid covering the window of the real line seen by the boundary."""

    x_lo: float
    x_hi: float
    J: int

    def __post_init__(self):
        if self.J < 2:
            raise ValueError("need at least two ambient nodes")
        if not -math.inf < self.x_lo < self.x_hi < math.inf:
            raise ValueError(f"need a finite, nonempty ambient window, got [{self.x_lo}, {self.x_hi}]")

    def __getstate__(self):
        return {"x_lo": self.x_lo, "x_hi": self.x_hi, "J": self.J}  # as Grid's: not the cached nodes

    @property
    def dy(self) -> float:
        return (self.x_hi - self.x_lo) / (self.J - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        """The J equispaced nodes from x_lo to x_hi (read-only)."""
        y = np.linspace(self.x_lo, self.x_hi, self.J)
        y.setflags(write=False)
        return y

    def covers(self, p: float, L: float) -> bool:
        return self.x_lo <= p - L and p + L <= self.x_hi


def _gaussian(scale: float):
    c = 1.0 / math.sqrt(2.0 * math.pi * scale * scale)

    def zeta(x, y):
        d = np.asarray(x) - np.asarray(y)
        # below a scale of about 1e-153 d^2 / (2 s^2) overflows off the diagonal; exp(-inf) = 0 is right
        with np.errstate(over="ignore"):
            return c * np.exp(-d * d / (2.0 * scale * scale))

    return zeta


@dataclass(frozen=True)
class Kernel:
    """The Gaussian coloring kernel of width ``scale``."""

    scale: float

    def zeta(self, x, y):
        """zeta(x, y) = (2 pi s^2)^(-1/2) exp(-(x-y)^2 / (2 s^2)), for broadcasting arrays x and y."""
        return _gaussian(self.scale)(x, y)


def gaussian_kernel(scale: float, ambient: AmbientGrid) -> Kernel:
    """The Gaussian kernel of width ``scale``, checked for a finite L2-in-y norm at the middle node of ``ambient``."""
    # The squared kernel, whose integral is its squared L2 norm, peaks at
    # 1/(2 pi s^2).  For s below about 3e-155 that peak overflows or 2 pi s^2
    # underflows to 0; above about 5e153 2 pi s^2 overflows and the kernel
    # rounds to 0 everywhere, which would silently switch the noise off.
    two_pi_s2 = 2.0 * math.pi * scale * scale
    if not (scale > 0 and 0 < two_pi_s2 < math.inf and 1.0 / two_pi_s2 < math.inf):
        raise ValueError(f"kernel scale must be positive with 2 pi s^2 and 1/(2 pi s^2) finite floats, got {scale}")
    kernel = Kernel(scale)
    row = kernel.zeta(ambient.nodes[ambient.J // 2], ambient.nodes)  # one row: J evaluations, not J^2
    if not np.isfinite(np.sqrt(np.sum(row * row) * ambient.dy)):
        raise ValueError("kernel L2 norm is not finite at the middle of the ambient window")
    return kernel


# numpy's SeedSequence hash and mix constants, and PCG64's 128-bit LCG multiplier.
# NEP 19 keeps both algorithms stable; the tests pin ``block`` against them.
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_consts(init: int, mult: int, t: int, n: int) -> list:
    """init * mult^i mod 2^32 for i = t .. t + n: the hash call number i reads constants i and i + 1."""
    c = init * pow(mult, t, 1 << 32) & _MASK32
    out = [c]
    for _ in range(n):
        c = c * mult & _MASK32
        out.append(c)
    return out


# SeedSequence's hashmix and mix, on Python ints or elementwise on uint32 arrays
def _hashmix(value, c0, c1):
    v = (value ^ c0) * c1 & _MASK32
    return v ^ v >> 16


def _mix(x, y):
    v = (_MIX_L * x - _MIX_R * y) & _MASK32
    return v ^ v >> 16


def _word_shifts(n: int) -> range:
    """The shifts of the nonnegative int n's 32-bit words, least significant first; 0 has one word."""
    return range(0, max(n.bit_length(), 1), 32)


# generate_state's constants, one column per output word
_STATE_CONSTS = np.array(_hash_consts(_INIT_B, _MULT_B, 0, 8), dtype=np.uint32)[:, None]

_CHUNK = 256  # the longest block ``NoiseStream.increments`` draws at once


@dataclass(frozen=True)
class NoiseStream:
    """Deterministic noise source of one seed, replayable by step index.

    The same (seed, step_index) always yields the same increment,
    independently of how many steps were consumed before; this is what lets
    every member of the interface family n see the identical noise.  Step k's
    increment has the bits of ``default_rng(SeedSequence(seed, spawn_key=(0,
    k))).normal(0, sqrt(dt/dy), J)``; ``block`` computes the generator states
    of many steps at once and draws them from one generator.  ``increments``
    reads the steps in order and replays each block it drew to every reader.
    """

    seed: int

    _blocks = cached_property(lambda self: {})  # (k0, K, dt, ambient) -> the block ``increments`` drew

    @cached_property
    def _pool(self):
        """The seed's SeedSequence pool after every entropy word but the step index's, and the hashes taken.

        A spawned sequence's entropy is the seed's words, zero-padded to the
        pool size of 4, then the spawn key's words.  Only the step index's
        words differ between steps, and they come last.
        """
        seed = operator.index(self.seed)
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        entropy = [seed >> s & _MASK32 for s in _word_shifts(seed)]
        entropy += [0] * (4 - len(entropy)) + [0]  # the padding, then the spawn key's leading 0
        # 4 hashes fill the pool, 12 mix it and 4 take in each further word
        consts = _hash_consts(_INIT_A, _MULT_A, 0, 4 * len(entropy))
        hashes = iter(zip(consts, consts[1:]))
        pool = [_hashmix(w, *next(hashes)) for w in entropy[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(hashes)))
        for w in entropy[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], _hashmix(w, *next(hashes)))
        return pool, len(consts) - 1

    def block(self, k0: int, K: int, dt: float, ambient: AmbientGrid) -> np.ndarray:
        """The read-only (K, J) array whose row i is the increment of step k0 + i: iid N(0, dt/dy) at the ambient nodes.

        The SeedSequence mixing of the steps' words and ``generate_state(4,
        uint64)`` run as uint32 array arithmetic over the block; each PCG64
        is seeded from those words by its two LCG steps in Python ints, and
        one generator draws every row from its state.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if k0 < 0 or K < 1:
            raise ValueError(f"need a step index >= 0 and at least one step, got k0={k0}, K={K}")
        seed_pool, t = self._pool
        pool = np.array(seed_pool, dtype=np.uint32)[:, None]
        steps = range(k0, k0 + K)
        for w, s in enumerate(_word_shifts(steps[-1])):
            word = np.array([k >> s & _MASK32 for k in steps], dtype=np.uint32)
            c = np.array(_hash_consts(_INIT_A, _MULT_A, t + 4 * w, 4), dtype=np.uint32)[:, None]
            mixed = _mix(pool, _hashmix(word, c[:-1], c[1:]))
            # a step index has word w only from 2^s on, and a block may cross that
            pool = mixed if s == 0 else np.where(np.arange(K) >= (1 << s) - k0, mixed, pool)
        words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_CONSTS[:-1], _STATE_CONSTS[1:]).astype(np.uint64)
        seeds = words[0::2] | words[1::2] << 32  # little-endian pairs: seed high, low, increment high, low

        gen = np.random.Generator(np.random.PCG64(0))  # its state is replaced before each draw
        bits, scale = gen.bit_generator, math.sqrt(dt / ambient.dy)
        out = np.empty((K, ambient.J))
        for i, (s_hi, s_lo, i_hi, i_lo) in enumerate(seeds.T.tolist()):
            # pcg64_set_seed: from state 0, one LCG step, add the seed, one more step
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
            out[i] = gen.normal(0.0, scale, ambient.J)
        out.setflags(write=False)
        return out

    def increments(self, num_steps: int, dt: float, ambient: AmbientGrid):
        """The read-only (J,) increments of steps 0 .. num_steps - 1 in order, drawn as they are read.

        Blocks of 32, 64, 128, then ``_CHUNK`` steps, the last one short, so a reader that stops after k
        steps has drawn fewer than min(2k + 32, k + 256); each is drawn once per stream and then replayed.
        """
        k0, K = 0, 32
        while k0 < num_steps:
            key = (k0, min(K, num_steps - k0), dt, ambient)
            if key not in self._blocks:
                self._blocks[key] = self.block(*key)
            yield from self._blocks[key]
            k0, K = k0 + K, min(2 * K, _CHUNK)

    def increment(self, step_index: int, dt: float, ambient: AmbientGrid) -> np.ndarray:
        """The read-only (J,) increment dW of step ``step_index``: the one row of ``block(step_index, 1, dt, ambient)``."""
        return self.block(step_index, 1, dt, ambient)[0]


def color_at(kernel: Kernel, ambient: AmbientGrid, dW: np.ndarray, x):
    """Increment of the colored field at x: quadrature of zeta(x, .) against the increment dW (J,)."""
    xs = np.asarray(x, dtype=float)
    weights = kernel.zeta(xs[..., None], ambient.nodes)
    out = weights @ dW * ambient.dy
    if out.ndim == 0:
        return float(out)
    return out


# Largest admissible bound D W / s^2 on the exponents of the factorized form,
# where W is the window half-width and D = W - L the largest |delta| the window
# admits.  Each exponent is rounded with a relative error of about 1e-16, which
# a factor e^a turns into a relative error of about |a| * 1e-16 in the weight,
# so at 60 the weights stay within about 1e-14 of the direct form.  It also
# keeps every factor below e^60, far from overflow: with sigma = 0 an infinite
# factor would turn the colored increment into 0 * inf = NaN.
_MAX_EXPONENT = 60.0


@lru_cache(maxsize=8)
def _gaussian_factors(scale: float, ambient: AmbientGrid, grid: Grid):
    """(Z, rows, cols, centre) of the factorized Gaussian coloring, or None.

    ``rows`` holds +x_i then -x_i and ``cols`` holds u_j = y_j - centre; None
    means the geometry exceeds ``_MAX_EXPONENT`` and needs the direct form.
    """
    half_width = 0.5 * (ambient.x_hi - ambient.x_lo)
    if (half_width - grid.L) * half_width / (scale * scale) > _MAX_EXPONENT:
        return None
    centre = 0.5 * (ambient.x_lo + ambient.x_hi)
    xs = grid.nodes
    rows = np.concatenate((xs, -xs))
    cols = ambient.nodes - centre
    Z = _gaussian(scale)(centre + rows[:, None], ambient.nodes[None, :])
    for a in (Z, rows, cols):
        a.setflags(write=False)
    return Z, rows, cols, centre


def coloring(kernel: Kernel, ambient: AmbientGrid, grid: Grid) -> tuple:
    """The coloring of a path: (kernel, ambient, grid, the ``_gaussian_factors`` of that geometry or None)."""
    return kernel, ambient, grid, _gaussian_factors(kernel.scale, ambient, grid)


def color_field(coloring: tuple, dW: np.ndarray, p: float):
    """Colored increments at p + x_i and p - x_i of the two phases, as (2, M) rows; the window covers p."""
    kernel, ambient, grid, factors = coloring
    if factors is None:
        xs = grid.nodes
        return np.stack((color_at(kernel, ambient, dW, p + xs), color_at(kernel, ambient, dW, p - xs)))
    Z, rows, cols, centre = factors
    delta = p - centre
    a = delta / (kernel.scale * kernel.scale)
    out = Z @ (np.exp(a * cols) * dW)
    out *= ambient.dy * np.exp(-a * (rows + 0.5 * delta))
    return out.reshape(2, grid.M)
