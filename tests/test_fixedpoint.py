import math
import random

import numpy as np
import pytest

from sid.fixedpoint import (
    FX_MAX,
    FX_MIN,
    FX_ONE,
    default_luts,
    fx_array,
    fx_from_real,
    fx_to_real,
    lut_build,
)

from oracles import fx_add, fx_mul, fx_sub, lut_eval


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
    worst = max(abs(fx_to_real(lut_eval(t, fx_from_real(x))) - f(x)) for x in xs)
    assert worst <= 1e-3


def test_lut_symmetry():
    luts = default_luts()
    sig, tanh = luts["sigmoid"], luts["tanh"]
    for x in np.linspace(0.0, 8.0, 500):
        xr = fx_from_real(x)
        nr = fx_from_real(-x)
        s = fx_to_real(lut_eval(sig, xr)) + fx_to_real(lut_eval(sig, nr))
        assert abs(s - 1.0) <= 2e-3
        t = fx_to_real(lut_eval(tanh, xr)) + fx_to_real(lut_eval(tanh, nr))
        assert abs(t) <= 2e-3


def test_lut_midpoints():
    luts = default_luts()
    assert abs(fx_to_real(lut_eval(luts["sigmoid"], 0)) - 0.5) <= 1e-3
    assert fx_to_real(lut_eval(luts["tanh"], 0)) == pytest.approx(0.0, abs=1e-3)
    assert abs(fx_to_real(lut_eval(luts["exp-neg"], 0)) - 1.0) <= 2e-3


def test_lut_clamps():
    luts = default_luts()
    sig = luts["sigmoid"]
    assert lut_eval(sig, fx_from_real(20.0)) == sig.sat_hi
    assert lut_eval(sig, fx_from_real(-20.0)) == sig.sat_lo
    exp = luts["exp-neg"]
    assert lut_eval(exp, fx_from_real(-30.0)) == fx_from_real(math.exp(-16.0))


def test_lut_build_rejects_bad_args():
    with pytest.raises(ValueError):
        lut_build("sigmoid", 1, -8, 8)
    with pytest.raises(ValueError):
        lut_build("sigmoid", 128, 8, -8)
    with pytest.raises(ValueError):
        lut_build("sinh", 128, -8, 8)


# The ROM tables, then tables whose span does not split into whole-word
# segments (the index scales x) or whose k*x + b can leave the range (clamps).
EVAL_TABLES = [
    *default_luts().values(),
    lut_build("tanh", 7, -3.0, 3.0),
    lut_build("exp-neg", 8, 0.0, 12.0),
    lut_build("exp-neg", 7, 0.0, 12.0),
]


@pytest.mark.parametrize("t", EVAL_TABLES, ids=lambda t: f"{t.name}-{t.segments}-{t.hi:g}")
def test_eval_array_matches_scalar(t):
    rng = np.random.default_rng(6)
    edges = t.lo_raw + (t.hi_raw - t.lo_raw) * np.arange(t.segments + 1) // t.segments
    xs = np.concatenate((
        rng.integers(t.lo_raw - 3 * FX_ONE, t.hi_raw + 3 * FX_ONE, size=500),
        edges - 1, edges, [FX_MIN, FX_MIN + 1, FX_MAX - 1, FX_MAX],
    )).astype(np.int32)
    assert t.eval_array(xs).tolist() == [lut_eval(t, int(x)) for x in xs]


def test_rom_tables_take_the_clamp_free_path():
    # max|k| * max(|lo|, |hi|) >> 16, plus 1, plus max|b| fits the range for
    # every ROM table, so `eval_array` skips both clamps; a table past 32767
    # does not.
    assert [t._vector[-1] for t in default_luts().values()] == [False] * 3
    assert lut_build("exp-neg", 8, 0.0, 12.0)._vector[-1]


def test_fx_array_matches_scalar():
    vals = [-70000.0, -1.25, 0.0, 0.5, 3.75, 70000.0]
    arr = fx_array(vals)
    assert list(arr) == [fx_from_real(v) for v in vals]


def test_fx_array_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        fx_array([0.5, float("nan")])
    assert list(fx_array([math.inf, -math.inf])) == [FX_MAX, FX_MIN]
