"""Host speed, sampled with a fixed reference computation while a run measures.

Other tenants of a shared host slow this process by 1.2x to 2x for stretches
of seconds to minutes, which moves every host time by more than a benchmark
bound can allow. The reference work below mixes the kinds of host work `sid`
does, uses nothing from `sid`, and so changes only with the host: its time
over REFERENCE_S is the host's slowdown at that moment. A timer interrupts
the run every PERIOD_S to take a sample, also inside long operations, and a
measured time divided by the mean slowdown sampled during it gives seconds at
the reference host speed. The samples add about 1.5% to every measured time,
in proportion, so comparisons between commits are unaffected.
"""

import contextlib
import signal
import time

import numpy as np

# Median time of reference_work() on an uncontended 2-core Xeon VM with
# Python 3.11.7 and numpy 2.4.6, the host the first baselines were taken on.
REFERENCE_S = 0.0040
PERIOD_S = 0.25

_rng = np.random.default_rng(0)
_LANES = np.arange(64, dtype=np.int64)
_X = _rng.normal(size=(30, 22))
_W = _rng.normal(size=(22, 64)) * 0.1
_M = _rng.integers(-(2**20), 2**20, size=(64, 206))
_V = _rng.integers(-(2**20), 2**20, size=206)


def reference_work() -> None:
    """Interpreted loop; tiny numpy calls, about half the time, as in the VM's
    vector modes and the one-class SVM fit; small float mat-muls and
    activations (LSTM training); and a 64x206 fixed-point mat-vec with a
    running sum (MVMUL)."""
    total = 0
    for i in range(10_000):
        total += i * i
    for i in range(225):
        int(np.clip((_LANES * i) >> 3, -100, 100).sum())
    for _ in range(30):
        h = np.tanh(_X @ _W)
        (h / (1.0 + np.exp(-h))).sum(axis=0)
    for _ in range(6):
        np.cumsum(np.clip((_M * _V[None, :]) >> 16, -(2**31), 2**31 - 1), axis=1)


class HostSpeed:
    """Slowdown samples (time, factor) taken every PERIOD_S while sampling."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.samples.append((t1, (t1 - t0) / REFERENCE_S))

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown sampled in [start, end], or of the samples on either
        side when the interval is shorter than the sampling period."""
        inside = [f for t, f in self.samples if start <= t <= end]
        if inside:
            return sum(inside) / len(inside)
        before = [f for t, f in self.samples if t < start]
        after = [f for t, f in self.samples if t > end]
        around = before[-1:] + after[:1]
        return sum(around) / len(around)
