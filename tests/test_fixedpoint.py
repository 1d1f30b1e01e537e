import math
import random

import numpy as np
import pytest

from sid.fixedpoint import (
    FX_MAX,
    FX_MIN,
    FX_ONE,
    default_luts,
    fx_add,
    fx_array,
    fx_from_real,
    fx_mul,
    fx_to_real,
    lut_build,
)

from oracles import fx_sub


def test_from_real_basics():
    assert fx_from_real(0.5) == 32768
    assert fx_from_real(0.0) == 0
    assert fx_from_real(70000.0) == 0x7FFFFFFF
    assert fx_from_real(-70000.0) == FX_MIN
    assert fx_from_real(math.inf) == FX_MAX and fx_from_real(-math.inf) == FX_MIN


def test_roundtrip_error_bound():
    rng = random.Random(1)
    for _ in range(2000):
        v = rng.uniform(-32768.0, 32767.0)
        assert abs(fx_to_real(fx_from_real(v)) - v) <= 2**-16


def test_mul_basics():
    two, three = fx_from_real(2.0), fx_from_real(3.0)
    assert fx_mul(two, three) == fx_from_real(6.0)
    assert fx_mul(fx_from_real(0.5), fx_from_real(0.5)) == fx_from_real(0.25)
    rng = random.Random(2)
    one = fx_from_real(1.0)
    for _ in range(500):
        x = rng.randint(FX_MIN, FX_MAX)
        assert fx_mul(x, one) == x
        assert fx_mul(x, 0) == 0


def test_mul_rounds_toward_negative_infinity():
    # -1 * 2^-16 * 2^-16 is below resolution: floor gives -1 raw, not 0.
    assert fx_mul(-1, 1) == -1
    assert fx_mul(1, 1) == 0


def test_add_saturates():
    assert fx_add(fx_from_real(1.0), fx_from_real(2.0)) == fx_from_real(3.0)
    assert fx_add(FX_MAX, fx_from_real(1.0)) == FX_MAX
    assert fx_sub(FX_MIN, fx_from_real(1.0)) == FX_MIN
    rng = random.Random(3)
    for _ in range(500):
        x = rng.randint(FX_MIN, FX_MAX)
        assert fx_add(x, 0) == x


def test_add_associative_without_saturation():
    rng = random.Random(4)
    bound = FX_MAX // 4
    for _ in range(500):
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        assert fx_add(a, b) == fx_add(b, a)
        assert fx_add(fx_add(a, b), c) == fx_add(a, fx_add(b, c))


@pytest.mark.parametrize("name,f", [("sigmoid", lambda x: 1 / (1 + math.exp(-x))), ("tanh", math.tanh)])
def test_lut_dense_grid_error(name, f):
    t = default_luts()[name]
    xs = np.linspace(t.lo, t.hi, 4001)
    worst = max(abs(fx_to_real(t.eval(fx_from_real(x))) - f(x)) for x in xs)
    assert worst <= 1e-3


def test_lut_symmetry():
    luts = default_luts()
    sig, tanh = luts["sigmoid"], luts["tanh"]
    for x in np.linspace(0.0, 8.0, 500):
        xr = fx_from_real(x)
        nr = fx_from_real(-x)
        s = fx_to_real(sig.eval(xr)) + fx_to_real(sig.eval(nr))
        assert abs(s - 1.0) <= 2e-3
        t = fx_to_real(tanh.eval(xr)) + fx_to_real(tanh.eval(nr))
        assert abs(t) <= 2e-3


def test_lut_midpoints():
    luts = default_luts()
    assert abs(fx_to_real(luts["sigmoid"].eval(0)) - 0.5) <= 1e-3
    assert fx_to_real(luts["tanh"].eval(0)) == pytest.approx(0.0, abs=1e-3)
    assert abs(fx_to_real(luts["exp-neg"].eval(0)) - 1.0) <= 2e-3


def test_lut_clamps():
    luts = default_luts()
    sig = luts["sigmoid"]
    assert sig.eval(fx_from_real(20.0)) == sig.sat_hi
    assert sig.eval(fx_from_real(-20.0)) == sig.sat_lo
    exp = luts["exp-neg"]
    assert exp.eval(fx_from_real(-30.0)) == fx_from_real(math.exp(-16.0))


def test_lut_build_rejects_bad_args():
    with pytest.raises(ValueError):
        lut_build("sigmoid", 1, -8, 8)
    with pytest.raises(ValueError):
        lut_build("sigmoid", 128, 8, -8)
    with pytest.raises(ValueError):
        lut_build("sinh", 128, -8, 8)


def test_lookup_array_matches_scalar():
    t = default_luts()["sigmoid"]
    rng = np.random.default_rng(6)
    xs = rng.integers(t.lo_raw - 3 * FX_ONE, t.hi_raw + 3 * FX_ONE, size=500)
    karr, barr = t.lookup_array(xs.astype(np.int64))
    for x, k, b in zip(xs, karr, barr):
        assert (int(k), int(b)) == t.lookup(int(x))


def test_fx_array_matches_scalar():
    vals = [-70000.0, -1.25, 0.0, 0.5, 3.75, 70000.0]
    arr = fx_array(vals)
    assert list(arr) == [fx_from_real(v) for v in vals]


def test_fx_array_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        fx_array([0.5, float("nan")])
    assert list(fx_array([math.inf, -math.inf])) == [FX_MAX, FX_MIN]
