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


def fx_array(values) -> np.ndarray:
    """Vectorized fx_from_real onto an int32 array."""
    raw = np.floor(np.multiply(values, FX_ONE, dtype=np.float64) + 0.5)
    # Saturated, only a NaN value stays non-finite: np.maximum keeps NaN.
    raw = np.minimum(np.maximum(raw, FX_MIN), FX_MAX)
    if math.isnan(np.add.reduce(raw, axis=None)):
        raise ValueError("cannot convert NaN to fixed point")
    return raw.astype(np.int32)


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

    @functools.cached_property
    def _vector(self) -> tuple:
        """What `eval_array` derives once: x's segment (x - lo) * segments //
        (hi - lo), plus 1, as (x*scale - base) // width (scale 1 for whole-word
        segments); slopes and intercepts padded with the x < lo and x >= hi
        pairs; and whether k*x + b can leave the range (k is 0 outside [lo, hi))."""
        span = self.hi_raw - self.lo_raw
        g = math.gcd(self.segments, span)
        scale, width = self.segments // g, span // g
        k = np.concatenate(([0], self.k, [0])).astype(np.int64)
        b = np.concatenate(([self.sat_lo], self.b, [self.sat_hi])).astype(np.int64)
        reach = int(abs(k).max()) * max(abs(self.lo_raw), abs(self.hi_raw))
        clamp = (reach >> FRAC_BITS) + 1 + int(abs(b).max()) > FX_MAX
        return scale, self.lo_raw * scale - width, width, k, b, clamp

    def eval_array(self, x_raw: np.ndarray) -> np.ndarray:
        """k*x + b of each raw input through the saturating Q16.16 multiply and add, as int64."""
        # Floor division sends every x < lo below index 1 and every x >= hi to
        # index `segments` + 1 or above, so clipping onto the padded tables
        # picks the saturation pairs.
        scale, base, width, k, b, clamp = self._vector
        pos = (np.subtract(x_raw, base, dtype=np.int64) if scale == 1
               else np.multiply(x_raw, scale, dtype=np.int64) - base)
        pos //= width
        out = k.take(pos, mode="clip")
        out *= x_raw
        out >>= FRAC_BITS
        if clamp:
            np.clip(out, FX_MIN, FX_MAX, out=out)
        out += b.take(pos, mode="clip")
        return np.clip(out, FX_MIN, FX_MAX, out=out) if clamp else out


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
