"""Q16.16 saturating fixed-point arithmetic and piecewise-linear function tables.

All datapath values are signed 32-bit integers interpreted as value = raw / 2**16.
Arithmetic saturates at the range ends instead of wrapping, so overflow in a
simulated program stays comparable against the floating-point oracle.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

FRAC_BITS = 16
FX_ONE = 1 << FRAC_BITS
FX_MAX = (1 << 31) - 1
FX_MIN = -(1 << 31)

REAL_MAX = FX_MAX / FX_ONE


def saturate(raw: int) -> int:
    if raw > FX_MAX:
        return FX_MAX
    if raw < FX_MIN:
        return FX_MIN
    return raw


def fx_from_real(v: float) -> int:
    """Nearest representable Q16.16 raw value; out-of-range inputs saturate."""
    if math.isnan(v):
        raise ValueError("cannot convert NaN to fixed point")
    if math.isinf(v):
        return FX_MAX if v > 0 else FX_MIN
    return saturate(math.floor(v * FX_ONE + 0.5))


def fx_to_real(raw: int) -> float:
    return raw / FX_ONE


def fx_add(a: int, b: int) -> int:
    return saturate(a + b)


def fx_mul(a: int, b: int) -> int:
    # Full product, then arithmetic shift: rounds toward negative infinity.
    return saturate((a * b) >> FRAC_BITS)


def fx_array(values) -> np.ndarray:
    """Vectorized fx_from_real onto an int32 array."""
    v = np.asarray(values, dtype=np.float64)
    if np.isnan(v).any():
        raise ValueError("cannot convert NaN to fixed point")
    raw = np.floor(v * FX_ONE + 0.5)
    return np.clip(raw, FX_MIN, FX_MAX).astype(np.int32)


_FUNCTIONS = {
    "sigmoid": lambda x: 1.0 / (1.0 + math.exp(-x)),
    "tanh": math.tanh,
    "exp-neg": math.exp,
}

# Defaults used by the machine. tanh is narrower than sigmoid: with 128 secant
# segments the interpolation error over [-8, 8] would peak near 1.5e-3, above
# the 1e-3 budget, while tanh(6) is already within 1.3e-5 of saturation.
LUT_DEFAULTS = {
    "sigmoid": (128, -8.0, 8.0),
    "tanh": (128, -6.0, 6.0),
    "exp-neg": (128, -16.0, 0.0),
}


@dataclass(frozen=True)
class LutTable:
    """Uniform-segment slope/intercept table for one nonlinear function.

    Evaluation mirrors the hardware path: the table supplies (k, b) for the
    segment containing x and the datapath computes k*x + b. Inputs outside
    [lo, hi] get (k=0, b=f(boundary)) so any overshoot still yields the
    saturated function value.
    """

    name: str
    segments: int
    lo_raw: int
    hi_raw: int
    k: np.ndarray  # int32 raw slopes, one per segment
    b: np.ndarray  # int32 raw intercepts
    sat_lo: int  # raw f(lo)
    sat_hi: int  # raw f(hi)

    @property
    def lo(self) -> float:
        return fx_to_real(self.lo_raw)

    @property
    def hi(self) -> float:
        return fx_to_real(self.hi_raw)

    def lookup(self, x_raw: int) -> tuple[int, int]:
        """Slope/intercept pair for one raw input."""
        if x_raw < self.lo_raw:
            return 0, self.sat_lo
        if x_raw >= self.hi_raw:
            return 0, self.sat_hi
        span = self.hi_raw - self.lo_raw
        idx = (x_raw - self.lo_raw) * self.segments // span
        return int(self.k[idx]), int(self.b[idx])

    @functools.cached_property
    def _padded(self) -> tuple[np.ndarray, np.ndarray]:
        """int64 slopes and intercepts with one entry added at each end: the
        pair for inputs below lo first, the pair for inputs at or above hi last."""
        k = np.concatenate(([0], self.k, [0])).astype(np.int64)
        b = np.concatenate(([self.sat_lo], self.b, [self.sat_hi])).astype(np.int64)
        return k, b

    def lookup_array(self, x_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`lookup` over an array, as int64 slopes and intercepts."""
        # Floor division sends every x < lo below segment 0 and every x >= hi
        # to segment `segments` or above, so clipping onto the padded tables
        # picks the saturation pairs.
        pos = np.subtract(x_raw, self.lo_raw, dtype=np.int64)
        pos *= self.segments
        pos //= self.hi_raw - self.lo_raw
        pos += 1
        k, b = self._padded
        return k.take(pos, mode="clip"), b.take(pos, mode="clip")

    def eval(self, x_raw: int) -> int:
        """k*x + b through the fixed-point multiply/add path."""
        k, b = self.lookup(x_raw)
        return fx_add(fx_mul(k, x_raw), b)


def lut_build(name: str, segments: int, lo: float, hi: float) -> LutTable:
    """Secant-interpolating table: segment i joins f at its two endpoints."""
    if name not in _FUNCTIONS:
        raise ValueError(f"unknown LUT function {name!r}")
    if segments < 2:
        raise ValueError("need at least 2 segments")
    if not lo < hi:
        raise ValueError("need lo < hi")
    f = _FUNCTIONS[name]
    lo_raw = fx_from_real(lo)
    hi_raw = fx_from_real(hi)
    xs = fx_to_real(lo_raw) + (fx_to_real(hi_raw) - fx_to_real(lo_raw)) * np.arange(
        segments + 1
    ) / segments
    ys = np.array([f(x) for x in xs])
    slopes = (ys[1:] - ys[:-1]) / (xs[1:] - xs[:-1])
    intercepts = ys[:-1] - slopes * xs[:-1]
    return LutTable(
        name=name,
        segments=segments,
        lo_raw=lo_raw,
        hi_raw=hi_raw,
        k=fx_array(slopes),
        b=fx_array(intercepts),
        sat_lo=fx_from_real(ys[0]),
        sat_hi=fx_from_real(ys[-1]),
    )


def default_luts() -> dict[str, LutTable]:
    return {name: lut_build(name, *args) for name, args in LUT_DEFAULTS.items()}
