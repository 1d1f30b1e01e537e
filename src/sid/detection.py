"""Anomaly-detection pipeline pieces: windows, empirical error distributions,
two-sample KS statistics (exact and hardware-shaped), voting, and metrics.

The hardware-shaped KS path works in integer counts over a reference
distribution's bin boundaries, mirroring what the compiled program computes;
the software path is the exact two-sample statistic. Accuracy metrics are
computed in exact rational arithmetic.
"""

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .fixedpoint import FX_ONE


class DetectionError(ValueError):
    pass


class MetricError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------

def make_windows(sequence, window_len: int = 64, step: int = 4) -> list[np.ndarray]:
    """Overlapping windows at offsets 0, step, 2*step, ...

    A 64/4 default overlaps consecutive windows by 93.75%. Sequences shorter
    than one window yield an empty list. Windows are read-only views of the
    sequence; `sequence` itself stays writeable.
    """
    if window_len < 1 or step < 1:
        raise DetectionError(f"window length {window_len} and step {step} must be at least 1")
    data = np.asarray(sequence).view()
    data.flags.writeable = False
    count = (len(data) - window_len) // step + 1 if len(data) >= window_len else 0
    return [data[i * step : i * step + window_len] for i in range(count)]


@dataclass(frozen=True)
class Window:
    user: object
    seq: object
    start: int
    data: np.ndarray


def tag_windows(user, seq_id, data, window_len=64, step=4) -> list[Window]:
    return [
        Window(user, seq_id, i * step, w)
        for i, w in enumerate(make_windows(data, window_len, step))
    ]


def split_by_sequence(sequences, train_fraction: float, seed: int,
                      window_len: int = 64, step: int = 4):
    """Split windows so no source sequence spans the train/test boundary.

    `sequences` is an iterable of objects with .user, .seq and .readings.
    Every user needs at least two sequences; each side gets at least one
    sequence, and at least one window in all.
    """
    by_user: dict = {}
    for s in sequences:
        by_user.setdefault(s.user, []).append(s)
    rng = np.random.default_rng(seed)
    train, test = [], []
    for user in sorted(by_user, key=str):
        seqs = by_user[user]
        if len(seqs) < 2:
            raise DetectionError(
                f"user {user!r} has a single sequence; cannot split by sequence"
            )
        order = rng.permutation(len(seqs))
        n_train = int(round(train_fraction * len(seqs)))
        n_train = max(1, min(len(seqs) - 1, n_train))
        for pos, idx in enumerate(order):
            s = seqs[idx]
            target = train if pos < n_train else test
            target.extend(tag_windows(s.user, s.seq, s.readings, window_len, step))
    for side, windows in (("train", train), ("test", test)):
        if not windows:
            raise DetectionError(f"no {side} sequence spans one {window_len}-reading window")
    return train, test


# ---------------------------------------------------------------------------
# Empirical prediction-error distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ped:
    """Sorted bin boundaries plus a cumulative histogram of a reference sample.

    counts[j] is the number of reference samples <= boundaries[j]; the last
    count always equals the sample count n.
    """

    boundaries: np.ndarray
    counts: np.ndarray
    n: int

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=np.float64)
        c = np.asarray(self.counts, dtype=np.int64)
        if not np.all(np.diff(b) > 0):
            raise DetectionError("bin boundaries must be strictly increasing")
        if np.any(np.diff(c) < 0) or (len(c) and c[-1] != self.n):
            raise DetectionError("cumulative counts must be non-decreasing up to n")
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "counts", c)

    @property
    def bins(self) -> int:
        return len(self.boundaries)


def build_ped(errors, bins: int) -> Ped:
    """Quantile-boundary reference PED of an error sample.

    Boundary j (1-based) is the empirical j/bins quantile, so bins roughly
    equalize occupancy; equal-valued boundaries are separated by a one-ulp
    (2^-16) ladder so strict monotonicity holds.
    """
    errors = np.sort(np.asarray(errors, dtype=np.float64))
    n = len(errors)
    if n < 1:
        raise DetectionError("need at least one error sample")
    if bins < 1:
        raise DetectionError("need at least one bin")
    idx = [math.ceil(j * n / bins) - 1 for j in range(1, bins + 1)]
    boundaries = errors[idx].copy()
    for j in range(1, bins):
        if boundaries[j] <= boundaries[j - 1]:
            boundaries[j] = boundaries[j - 1] + 1.0 / FX_ONE
    counts = np.searchsorted(errors, boundaries, side="right")
    return Ped(boundaries=boundaries, counts=counts, n=n)


# ---------------------------------------------------------------------------
# KS statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KsDecisionConfig:
    critical: ClassVar[float] = 1.358  # c(alpha) for alpha = 0.05
    refs: int = 20
    window_errors: int = 40
    bins: int = 16

    def __post_init__(self):
        for name in ("refs", "window_errors", "bins"):
            if getattr(self, name) < 1:
                raise DetectionError(f"{name} must be at least 1, got {getattr(self, name)}")


def ks_statistic(sample_a, sample_b):
    """Exact sup |F_a - F_b| over the merged sample points.

    Either sample may stack rows: windows a (W, n) against references
    b (R, m) give (W, R), one statistic per pair, and two 1-D samples give a
    float. Each reference takes one pass: one sort merges it into every
    window, one search in the sorted reference counts its points, and at
    the last of each run of equal merged points a's count is the point's
    rank minus b's.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.sort(np.asarray(sample_b, dtype=np.float64), axis=-1)
    n, m = a.shape[-1], b.shape[-1]
    if n == 0 or m == 0:
        raise DetectionError("KS statistic needs non-empty samples")
    windows, refs = a.reshape(-1, n), b.reshape(-1, m)
    rank = np.arange(1, n + m + 1)
    pts = np.empty((len(windows), n + m))
    d = np.empty((len(windows), len(refs)))
    for r, ref in enumerate(refs):
        pts[:, :n] = windows
        pts[:, n:] = ref
        pts.sort()
        count_b = np.searchsorted(ref, pts.ravel(), side="right").reshape(pts.shape)
        gap = np.abs((rank - count_b) / n - count_b / m)
        gap[:, :-1][pts[:, 1:] == pts[:, :-1]] = 0.0  # only a run's last point counts it whole
        d[:, r] = gap.max(axis=1)
    d = d.reshape(a.shape[:-1] + b.shape[:-1])
    return float(d) if d.ndim == 0 else d


def ks_reject(d, n: int, m: int, cfg: KsDecisionConfig):
    """Reject the same-distribution hypothesis iff D exceeds the critical bound.

    `d` may be an array of statistics, for one decision each.
    """
    if n < 1 or m < 1:
        raise DetectionError("KS test needs non-empty samples")
    return d > cfg.critical * math.sqrt((n + m) / (n * m))


def ks_hardware(ref: Ped, observed, cfg: KsDecisionConfig) -> tuple[int, bool]:
    """Count-domain KS against a reference PED, shaped like the compiled flow.

    The observed cumulative histogram counts errors <= boundary (the compiled
    stage gets this from one strict boundary > error compare per error, with
    the boundaries stored one ulp up), so equal-size samples compare in raw
    counts: reject iff max|ref - obs| > c(alpha)*sqrt(2n).
    """
    observed = np.sort(np.asarray(observed, dtype=np.float64))
    if len(observed) != ref.n:
        raise DetectionError(
            f"observed sample has {len(observed)} errors, reference has {ref.n}"
        )
    obs_counts = np.searchsorted(observed, ref.boundaries, side="right")
    d_count = int(np.abs(ref.counts - obs_counts).max())
    threshold = cfg.critical * math.sqrt(2 * ref.n)
    return d_count, d_count > threshold


def vote_decide(rejections, cfg: KsDecisionConfig):
    """Anomaly iff at least half (inclusive) of the reference tests reject.

    `rejections` may stack rows, (..., refs), for one decision per row; a
    single row gives a bool.
    """
    votes = np.asarray(rejections, dtype=bool)
    decisions = votes.sum(axis=-1) >= votes.shape[-1] / 2
    return bool(decisions) if votes.ndim == 1 else decisions


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0  # impostor detected as impostor
    fp: int = 0  # owner flagged as impostor
    tn: int = 0  # owner accepted
    fn: int = 0  # impostor accepted

    def __add__(self, other):
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.tn + other.tn, self.fn + other.fn
        )

    @classmethod
    def tally(cls, impostor, flagged) -> "ConfusionCounts":
        """Counts of per-window anomaly flags against whether each window is an impostor's."""
        i, f = np.asarray(impostor, dtype=bool), np.asarray(flagged, dtype=bool)
        return cls(int((i & f).sum()), int((~i & f).sum()), int((~i & ~f).sum()), int((i & ~f).sum()))


def confusion_metrics(c: ConfusionCounts) -> dict[str, Fraction]:
    """TNR, TPR, accuracy, recall, precision and F1 as exact fractions. A
    detector that catches no impostor (tp == 0) scores precision and F1 0."""
    if c.tn + c.fp < 1:
        raise MetricError("TNR undefined: no negative (owner) samples")
    if c.tp + c.fn < 1:
        raise MetricError("TPR undefined: no positive (impostor) samples")
    tnr = Fraction(c.tn, c.tn + c.fp)
    tpr = Fraction(c.tp, c.tp + c.fn)
    accuracy = Fraction(c.tn + c.tp, c.tn + c.fp + c.tp + c.fn)
    recall = tpr
    precision = Fraction(c.tp, c.tp + c.fp) if c.tp else Fraction(0)
    f1 = 2 * recall * precision / (recall + precision) if c.tp else Fraction(0)
    return {
        "tnr": tnr,
        "tpr": tpr,
        "accuracy": accuracy,
        "recall": recall,
        "precision": precision,
        "f1": f1,
    }


def combined_score(entries, weights=(0.5, 0.5, 0.5, 0.5)) -> list[float]:
    """Single preference score per model from (FNR, FPR, time, mem) rows.

    Each dimension is normalized to the best (minimum) entry; the score is
    2 / (weighted sum of normalized penalties) with weights summing to 2.
    """
    a1, a2, b1, b2 = weights
    if abs(a1 + a2 + b1 + b2 - 2.0) > 1e-9:
        raise MetricError("combined-score weights must sum to 2")
    rows = [tuple(float(v) for v in row) for row in entries]
    if not rows:
        return []
    mins = [min(col) for col in zip(*rows)]
    if any(m <= 0 for m in mins):
        raise MetricError("combined-score normalization needs positive minima")
    scores = []
    for fnr, fpr, t, mem in rows:
        denom = a1 * fnr / mins[0] + a2 * fpr / mins[1] + b1 * t / mins[2] + b2 * mem / mins[3]
        scores.append(2.0 / denom)
    return scores


# ---------------------------------------------------------------------------
# Evaluation report
# ---------------------------------------------------------------------------

REPORT_FIELDS = ("user", "model", "pipeline", "tnr", "tpr", "accuracy", "precision", "recall", "f1")


def format_report(rows, summary: dict | None = None) -> str:
    """CSV rows per (user, model, pipeline) followed by a key=value block."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=REPORT_FIELDS)
    writer.writeheader()
    for row in rows:
        rendered = dict(row)
        for key in ("tnr", "tpr", "accuracy", "precision", "recall", "f1"):
            if key in rendered:
                rendered[key] = f"{float(rendered[key]):.6f}"
        writer.writerow(rendered)
    if summary:
        buf.write("\n")
        for key, value in summary.items():
            buf.write(f"{key}={value}\n")
    return buf.getvalue()
