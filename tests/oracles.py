"""Reference implementations that only the tests use.

Each is the plain loop a faster `sid` routine replaced, kept here so the
tests can compare the two.
"""

import numpy as np

from sid.fixedpoint import FX_ONE, saturate
from sid.models import (
    ShapeError, gru_cell, lstm_cell, rnn_hidden_size, stacked_weights, step_gru, step_lstm,
)


def predict_series(m, readings) -> np.ndarray:
    """Squared-L2 next-step prediction errors over a reading sequence.

    errors[t-1] = ||prediction from readings[..t-1] - readings[t]||^2,
    one error per transition, so a length-T sequence yields T-1 errors.
    Steps the single-reading models, state from zero.
    """
    readings = np.asarray(readings, dtype=np.float64)
    if readings.ndim != 2 or len(readings) < 2:
        raise ShapeError("need at least two readings to score predictions")
    h = c = np.zeros(rnn_hidden_size(m))
    errors = []
    for t in range(len(readings) - 1):
        if m.kind == "lstm":
            h, c, pred = step_lstm(m, h, c, readings[t])
        else:
            h, pred = step_gru(m, h, readings[t])
        diff = pred - readings[t + 1]
        errors.append(float(np.dot(diff, diff)))
    return np.array(errors)


def stepwise_readout_errors(m, windows) -> np.ndarray:
    """batched_window_errors with the readout and the error inside the step loop."""
    x = np.asarray(windows, dtype=np.float64)
    B, T, D = x.shape
    W, U, b = stacked_weights(m)
    h = np.zeros((B, rnn_hidden_size(m)))
    c = np.zeros_like(h)
    errors = np.empty((B, T - 1))
    for t in range(T - 1):
        if m.kind == "lstm":
            h, c = lstm_cell(W, U, b, h, c, x[:, t, :])[:2]
        else:
            h = gru_cell(W, U, b, h, x[:, t, :])[0]
        pred = h @ m["Wout"].T + m["bout"]
        errors[:, t] = ((pred - x[:, t + 1, :]) ** 2).sum(axis=1)
    return errors


def fx_sub(a: int, b: int) -> int:
    """Saturating Q16.16 difference of two raw values."""
    return saturate(a - b)


def real_array(raw) -> np.ndarray:
    """Raw Q16.16 values as floats."""
    return np.asarray(raw, dtype=np.float64) / FX_ONE
