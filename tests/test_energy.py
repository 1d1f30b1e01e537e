import numpy as np
import pytest

from sid.energy import (
    DeviceProfile,
    EnergyError,
    GPU_PROFILE,
    SID_PROFILE,
    energy_ratio,
    energy_sod,
    format_energy_report,
    parse_profiles,
)


def test_idle_only_limit():
    p = DeviceProfile("dev", 2.0, 0.5)
    assert energy_sod([(p, 0.0)], 0.02) == pytest.approx(0.5 * 0.02)


def test_sid_profile_worked_example():
    # 0.62 W for 1 ms plus 0.12 W for the remaining 19 ms.
    e = energy_sod([(SID_PROFILE, 0.001)], 0.02)
    assert e == pytest.approx(0.00062 + 0.00228)


def test_full_period_running():
    p = DeviceProfile("dev", 3.0, 1.0, e_wakeup=0.5, e_sleep=0.25)
    assert energy_sod([(p, 0.02)], 0.02) == pytest.approx(3.0 * 0.02 + 0.75)


def test_active_time_validation():
    with pytest.raises(EnergyError):
        energy_sod([(SID_PROFILE, 0.05)], 0.02)


def test_monotone_in_active_time_and_linear_in_period():
    rng = np.random.default_rng(0)
    p = DeviceProfile("dev", 4.0, 1.0)
    for _ in range(50):
        t1, t2 = sorted(rng.uniform(0, 0.02, size=2))
        assert energy_sod([(p, t1)], 0.02) <= energy_sod([(p, t2)], 0.02)
    base = energy_sod([(p, 0.0)], 0.02)
    assert energy_sod([(p, 0.0)], 0.04) == pytest.approx(2 * base)


def test_idle_approximation_converges():
    ratios = []
    for t in (1e-3, 1e-4, 1e-5, 1e-6):
        full, idle = energy_ratio([(GPU_PROFILE, t)], [(SID_PROFILE, t)], 0.02)
        ratios.append(abs(full - idle))
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[-1] < 0.05


def test_gpu_vs_sid_idle_ratio():
    _, idle = energy_ratio([(GPU_PROFILE, 0.001)], [(SID_PROFILE, 0.001)], 0.02)
    assert idle == pytest.approx(8 / 0.12)
    assert round(idle, 2) == 66.67


def test_identical_platforms_ratio_one():
    ratio, idle = energy_ratio([(SID_PROFILE, 0.001)], [(SID_PROFILE, 0.001)], 0.02)
    assert ratio == pytest.approx(1.0) and idle == pytest.approx(1.0)


def test_worked_ratio_example():
    # GPU active 1 ms vs accelerator active 1.6 ms in a 20 ms period.
    ratio, _ = energy_ratio([(GPU_PROFILE, 0.001)], [(SID_PROFILE, 0.0016)], 0.02)
    assert energy_sod([(GPU_PROFILE, 0.001)], 0.02) == pytest.approx(0.208)
    assert energy_sod([(SID_PROFILE, 0.0016)], 0.02) == pytest.approx(0.0032, abs=1e-6)
    assert ratio == pytest.approx(65.0, abs=0.5)


def test_parse_profiles():
    text = """
    # name P_run P_idle E_wake E_sleep
    gpu 56 8 0 0
    sid 0.62 0.12 0 0
    """
    profiles = parse_profiles(text)
    assert profiles["gpu"].p_idle == 8.0
    assert profiles["sid"].p_running == 0.62
    with pytest.raises(EnergyError, match="line 1"):
        parse_profiles("gpu 56 8")


def test_parse_profiles_rejects_a_device_named_twice():
    # The later row would silently replace the first.
    with pytest.raises(EnergyError, match="^line 4: device 'gpu' is already named on line 2$"):
        parse_profiles("# name P_run P_idle E_wake E_sleep\ngpu 56 8 0 0\nsid 0.62 0.12 0 0\n"
                       "gpu 1 0.2 0 0\n")


def test_profile_validation():
    with pytest.raises(EnergyError):
        DeviceProfile("bad", 0.1, 0.5)
    with pytest.raises(EnergyError):
        DeviceProfile("bad", -1.0, -2.0)


def test_profile_reader_rejects_non_finite_values():
    for column in range(1, 5):
        for value in ("nan", "inf", "-inf"):
            row = ["cpu", "30", "10", "0", "0"]
            row[column] = value
            with pytest.raises(EnergyError, match="cpu: power/energy values must be finite"):
                parse_profiles(" ".join(row))


def test_period_must_be_finite_and_positive():
    for period in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(EnergyError, match="period must be finite and above 0"):
            energy_sod([(GPU_PROFILE, 0.0)], period)


def test_report_format():
    text = format_energy_report([(GPU_PROFILE, 0.001)], [(SID_PROFILE, 0.0016)], 0.02)
    assert "energy_ratio=" in text and "idle_ratio=66.67" in text
