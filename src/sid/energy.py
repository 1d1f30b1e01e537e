"""Deployment-energy model over device power profiles.

Energy for one sensor-reading period T sums, per device, the running energy
over its active time, the idle energy over the remainder, and fixed wakeup and
sleep costs. When running and idle power are of the same magnitude and the
active time is a small fraction of T, the idle term dominates and the energy
ratio of two platforms approaches their idle-power ratio.
"""

import math
from dataclasses import dataclass


class EnergyError(ValueError):
    pass


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    p_running: float  # watts
    p_idle: float  # watts
    e_wakeup: float = 0.0  # joules
    e_sleep: float = 0.0  # joules

    def __post_init__(self):
        values = (self.p_running, self.p_idle, self.e_wakeup, self.e_sleep)
        if not all(math.isfinite(v) for v in values):
            raise EnergyError(f"{self.name}: power/energy values must be finite")
        if min(values) < 0:
            raise EnergyError(f"{self.name}: power/energy values must be non-negative")
        if self.p_running < self.p_idle:
            raise EnergyError(f"{self.name}: running power must be at least idle power")


# Measured idle/running watts for the comparison platforms.
GPU_PROFILE = DeviceProfile("gpu", p_running=56.0, p_idle=8.0)
SID_PROFILE = DeviceProfile("sid", p_running=0.62, p_idle=0.12)


def energy_sod(devices, period: float) -> float:
    """Energy of a set of devices over one period; devices = [(profile, t_active)]."""
    if not (math.isfinite(period) and period > 0):
        raise EnergyError(f"period must be finite and above 0, got {period}")
    total = 0.0
    for profile, t in devices:
        if not 0 <= t <= period:
            raise EnergyError(
                f"{profile.name}: active time {t} outside [0, {period}]"
            )
        total += (
            profile.p_running * t
            + profile.p_idle * (period - t)
            + profile.e_wakeup
            + profile.e_sleep
        )
    return total


def energy_ratio(platform_a, platform_b, period: float) -> tuple[float, float]:
    """(E(a)/E(b), idle-power-ratio approximation).

    Each platform is a [(profile, t_active)] list; the idle approximation uses
    the summed idle powers, which the full ratio approaches as t/T -> 0.
    """
    ea = energy_sod(platform_a, period)
    eb = energy_sod(platform_b, period)
    if eb <= 0:
        raise EnergyError("reference platform energy must be positive")
    idle_a = sum(p.p_idle for p, _ in platform_a)
    idle_b = sum(p.p_idle for p, _ in platform_b)
    if idle_b <= 0:
        raise EnergyError("reference platform idle power must be positive")
    return ea / eb, idle_a / idle_b


# ---------------------------------------------------------------------------
# Profile files: "name P_run P_idle E_wake E_sleep" per line, # comments.
# ---------------------------------------------------------------------------

def parse_profiles(text: str) -> dict[str, DeviceProfile]:
    """One profile per device; a device named on two lines is an error."""
    profiles, named_on = {}, {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise EnergyError(
                f"line {line_no}: expected 'name P_run P_idle E_wake E_sleep'"
            )
        try:
            values = [float(v) for v in parts[1:]]
        except ValueError:
            raise EnergyError(f"line {line_no}: bad number in {line!r}") from None
        if parts[0] in named_on:
            raise EnergyError(
                f"line {line_no}: device {parts[0]!r} is already named on line {named_on[parts[0]]}"
            )
        named_on[parts[0]] = line_no
        try:
            profiles[parts[0]] = DeviceProfile(parts[0], *values)
        except EnergyError as exc:
            raise EnergyError(f"line {line_no}: {exc}") from None
    return profiles


def load_profiles(path) -> dict[str, DeviceProfile]:
    with open(path) as fh:
        return parse_profiles(fh.read())


def format_energy_report(platform_a, platform_b, period: float) -> str:
    ratio, idle_ratio = energy_ratio(platform_a, platform_b, period)
    lines = [
        f"period_s={period}",
        f"energy_a_j={energy_sod(platform_a, period):.6g}",
        f"energy_b_j={energy_sod(platform_b, period):.6g}",
        f"energy_ratio={ratio:.4g}",
        f"idle_ratio={idle_ratio:.4g}",
    ]
    return "\n".join(lines) + "\n"
