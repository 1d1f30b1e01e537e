"""Synthetic gait sequences, HAPT-format loading, and feature extraction.

Sensor readings are 6-channel rows (3-axis accelerometer + 3-axis gyroscope)
sampled at 50 Hz. The synthetic generator sums three harmonics of a per-user
step frequency per channel, plus Gaussian noise, which is enough to give users
distinct prediction-error distributions without modeling biomechanics.
"""

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE_HZ = 50.0
CHANNELS = 6
WALK_ACTIVITY_ID = 1
HARMONICS = 3


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class UserSequence:
    user: int
    seq: object
    readings: np.ndarray  # (T, 6)

    def __post_init__(self):
        r = np.asarray(self.readings, dtype=np.float64)
        if r.ndim != 2 or r.shape[1] != CHANNELS or len(r) == 0:
            raise DataError("readings must be a non-empty (T, 6) array")
        if not np.all(np.isfinite(r)):
            raise DataError("readings must be finite")
        object.__setattr__(self, "readings", r)


@dataclass(frozen=True)
class GaitParams:
    step_freq: float  # Hz
    amplitudes: np.ndarray  # (HARMONICS, CHANNELS)
    phases: np.ndarray  # (HARMONICS, CHANNELS)
    noise_std: float = 0.05

    def __post_init__(self):
        if not 1.4 <= self.step_freq <= 2.4:
            raise DataError("step frequency must lie in [1.4, 2.4] Hz")
        if self.noise_std < 0:
            raise DataError("noise std must be non-negative")
        object.__setattr__(self, "amplitudes", np.asarray(self.amplitudes, dtype=np.float64))
        object.__setattr__(self, "phases", np.asarray(self.phases, dtype=np.float64))


def random_gait_params(rng, step_freq=None, noise_std=0.05) -> GaitParams:
    freq = float(rng.uniform(1.4, 2.4)) if step_freq is None else step_freq
    amps = rng.uniform(0.2, 1.0, size=(HARMONICS, CHANNELS))
    amps[1] *= 0.5
    amps[2] *= 0.25
    return GaitParams(
        step_freq=freq,
        amplitudes=amps,
        phases=rng.uniform(0, 2 * np.pi, size=(HARMONICS, CHANNELS)),
        noise_std=noise_std,
    )


def synth_sequence(params: GaitParams, length: int, rng) -> np.ndarray:
    t = np.arange(length) / SAMPLE_RATE_HZ
    readings = np.zeros((length, CHANNELS))
    for h in range(HARMONICS):
        angle = 2 * np.pi * (h + 1) * params.step_freq * t[:, None] + params.phases[h][None, :]
        readings += params.amplitudes[h][None, :] * np.sin(angle)
    if params.noise_std:
        readings += rng.normal(0, params.noise_std, size=readings.shape)
    return readings


def synth_user_sessions(
    step_freqs, seqs_per_user: int, length: int, seed: int,
    noise_std: float = 0.1, session_jitter: float = 0.07,
):
    """Synthetic corpus with mild per-session variation around each user.

    Every sequence gets its own GaitParams: the user's base harmonics with
    amplitudes scaled by (1 + jitter*eps) and phases shifted by jitter*eps.
    Session variation is what keeps per-window mean errors overlapping between
    users while their error distributions stay distinguishable.
    """
    if seqs_per_user < 1 or length < 64:
        raise DataError("need at least one sequence of at least 64 readings per user")
    rng = np.random.default_rng(seed)
    sequences = []
    for user, freq in enumerate(step_freqs, start=1):
        base = random_gait_params(rng, step_freq=freq, noise_std=noise_std)
        for s in range(seqs_per_user):
            params = GaitParams(
                step_freq=freq,
                amplitudes=base.amplitudes
                * (1.0 + session_jitter * rng.normal(size=base.amplitudes.shape)),
                phases=base.phases + session_jitter * rng.normal(size=base.phases.shape),
                noise_std=noise_std,
            )
            sequences.append(
                UserSequence(user=user, seq=s, readings=synth_sequence(params, length, rng))
            )
    return sequences


# ---------------------------------------------------------------------------
# HAPT-format directories
# ---------------------------------------------------------------------------

def _read_matrix(path: Path, columns: int, dtype=float) -> np.ndarray:
    """The rows of `columns` whitespace-separated finite numbers in `path`, blank lines skipped.

    One vectorised parse reads the file; its text is read only to reject an
    all-blank file or to name the line it rejects.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            matrix = np.loadtxt(path, dtype, comments=None, ndmin=2)
        if matrix.shape[1] == columns and np.isfinite(matrix).all():
            return matrix
    except ValueError:
        pass
    lines = path.read_text().split("\n")
    if not any(line.strip() for line in lines):
        return np.empty((0, columns), dtype)
    for line_no, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != columns:
            raise DataError(f"{path}: line {line_no}: expected {columns} columns")
        try:
            row = np.loadtxt([raw], dtype, comments=None)
        except ValueError:
            what = "integer" if dtype is int else "number"
            raise DataError(f"{path}: line {line_no}: malformed {what}") from None
        if not np.isfinite(row).all():
            raise DataError(f"{path}: line {line_no}: non-finite number")
    raise DataError(f"{path}: malformed")  # unreached: the scan names a line


def hapt_load(directory):
    """One UserSequence per labeled WALK segment; at least one must exist.

    Expects per-experiment acc_expXX_userYY.txt / gyro_expXX_userYY.txt files
    (three real columns) and a labels.txt of five integer columns: experiment,
    user, activity, first row, last row (1-based, inclusive).
    """
    directory = Path(directory)
    labels_path = directory / "labels.txt"
    if not labels_path.exists():
        raise DataError(f"missing labels file {labels_path}")
    labels = _read_matrix(labels_path, 5, int).tolist()
    cache: dict[tuple[int, int], np.ndarray] = {}
    sequences = []
    for exp, user, activity, first, last in labels:
        if activity != WALK_ACTIVITY_ID:
            continue
        key = (exp, user)
        if key not in cache:
            acc_path = directory / f"acc_exp{exp:02d}_user{user:02d}.txt"
            gyro_path = directory / f"gyro_exp{exp:02d}_user{user:02d}.txt"
            for p in (acc_path, gyro_path):
                if not p.exists():
                    raise DataError(f"missing sensor file {p}")
            acc, gyro = (_read_matrix(p, 3) for p in (acc_path, gyro_path))
            if len(acc) != len(gyro):
                raise DataError(
                    f"{acc_path} has {len(acc)} rows but {gyro_path} has {len(gyro)}"
                )
            cache[key] = np.hstack([acc, gyro])
        data = cache[key]
        if not 1 <= first <= last <= len(data):
            raise DataError(
                f"{labels_path}: segment rows [{first}, {last}] outside experiment {exp}"
            )
        sequences.append(
            UserSequence(user=user, seq=f"exp{exp:02d}:{first}", readings=data[first - 1 : last])
        )
    if not sequences:
        raise DataError(f"{labels_path}: no walking segment (activity {WALK_ACTIVITY_ID}) labelled")
    return sequences


def hapt_write(directory, sequences) -> None:
    """Emit sequences in the same directory format (one experiment each)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    label_rows = []
    for exp, s in enumerate(sequences, start=1):
        acc_path = directory / f"acc_exp{exp:02d}_user{s.user:02d}.txt"
        gyro_path = directory / f"gyro_exp{exp:02d}_user{s.user:02d}.txt"
        np.savetxt(acc_path, s.readings[:, :3], fmt="%.10f")
        np.savetxt(gyro_path, s.readings[:, 3:], fmt="%.10f")
        label_rows.append(f"{exp} {s.user} {WALK_ACTIVITY_ID} 1 {len(s.readings)}")
    (directory / "labels.txt").write_text("\n".join(label_rows) + "\n")


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------

def amp_features(window) -> tuple[np.ndarray, np.ndarray]:
    """Per-reading squared amplitudes of each sensor: (acc_amp, gyr_amp)."""
    w = np.asarray(window, dtype=np.float64)
    acc = (w[:, :3] ** 2).sum(axis=1)
    gyr = (w[:, 3:] ** 2).sum(axis=1)
    return acc, gyr


def dft_magnitudes(series, length: int = 64) -> np.ndarray:
    """|DFT_k| for k = 0..length/2.

    A real input's spectrum is conjugate-symmetric, so the first length/2+1
    magnitudes (33 for a 64-point window) carry all the information.
    """
    return dft_full_magnitudes(series, length)[: length // 2 + 1]


def dft_full_magnitudes(series, length: int = 64) -> np.ndarray:
    """All `length` magnitudes |DFT_k|, via the direct O(N^2) sum."""
    x = np.asarray(series, dtype=np.float64)
    if len(x) != length:
        raise DataError(f"need a length-{length} series, got {len(x)}")
    k = np.arange(length)[:, None]
    j = np.arange(length)[None, :]
    angle = -2 * np.pi * k * j / length
    real = (x[None, :] * np.cos(angle)).sum(axis=1)
    imag = (x[None, :] * np.sin(angle)).sum(axis=1)
    return np.sqrt(real**2 + imag**2)


def krr_features(window) -> np.ndarray:
    """14 features: per sensor, min/max/mean/std of the squared-amplitude
    series plus the 3 largest non-DC DFT magnitudes."""
    w = np.asarray(window, dtype=np.float64)
    feats = []
    for series in amp_features(w):
        feats.extend([series.min(), series.max(), series.mean(), series.std()])
        mags = dft_magnitudes(series, len(series))
        feats.extend(sorted(mags[1:], reverse=True)[:3])
    return np.asarray(feats)
