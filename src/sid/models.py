"""Floating-point reference models: the oracle the simulated programs must match.

Bundles are plain named-tensor containers. Inference is pure float64 numpy;
each routine follows the corresponding closed-form equation exactly, so these
functions double as the ground truth for the fixed-point compiler tests.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

BUNDLE_MAGIC = b"SIDB"
BUNDLE_VERSION = 1

KINDS = ("lr", "linear_svm", "kernel_svm", "krr", "mlp", "ocsvm", "lstm", "gru")


class ShapeError(ValueError):
    pass


@dataclass
class ModelBundle:
    kind: str
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        self.tensors = {k: np.asarray(v, dtype=np.float64) for k, v in self.tensors.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.tensors[name]
        except KeyError:
            raise ShapeError(f"{self.kind} bundle is missing tensor {name!r}") from None

    def scalar(self, name: str) -> float:
        value = self[name]
        if value.size != 1:
            raise ShapeError(f"{self.kind} tensor {name!r} holds {value.size} values, not one")
        return float(value.reshape(-1)[0])


def sigmoid(z, out=None):
    """Logistic function in the branch-free form 1/2 + tanh(z/2)/2.

    Exactly symmetric (sigmoid(-z) = 1 - sigmoid(z)). Its error is absolute
    (about 1e-16), not relative: below z of about -37 it returns 0 where
    1/(1 + exp(-z)) is still about 1e-17. The steps run in place on one
    array: `out`, which may be `z` itself, or a new one.
    """
    z = np.asarray(z, dtype=np.float64)
    s = np.multiply(z, 0.5, out=np.empty_like(z) if out is None else out)
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


def softmax(z):
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def _expect_vector(x, dim, what):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,):
        raise ShapeError(f"{what}: expected shape ({dim},), got {x.shape}")
    return x


def infer_lr(m: ModelBundle, x) -> float:
    """Probability of the positive (impostor) class: sigmoid(w.x + b)."""
    w = m["w"]
    x = _expect_vector(x, len(w), "lr input")
    return float(sigmoid(np.dot(w, x) + m.scalar("b")))


def _rbf_kernel(m: ModelBundle, x) -> np.ndarray:
    """k_i = exp(-gamma * ||sv_i - x||^2), one row per row of x; coef . k is the
    kernel machines' unbiased score."""
    return np.exp(-m.scalar("gamma") * ((m["sv"] - x[..., None, :]) ** 2).sum(axis=-1))


def svm_score(m: ModelBundle, x) -> float:
    coef, sv, b = m["coef"], m["sv"], m.scalar("b")
    if sv.ndim != 2 or len(coef) != len(sv):
        raise ShapeError("svm bundle needs one coefficient per support vector")
    x = _expect_vector(x, sv.shape[1], "svm input")
    if m.kind == "kernel_svm":
        return float(np.dot(coef, _rbf_kernel(m, x)) + b)
    return float(np.dot(coef, sv @ x) + b)


def infer_svm(m: ModelBundle, x) -> tuple[int, float]:
    """Class in {+1, -1} and the raw margin score. A zero score ties to +1."""
    score = svm_score(m, x)
    return (1 if score >= 0.0 else -1), score


def infer_krr(m: ModelBundle, features) -> tuple[int, float]:
    w = m["w"]
    f = _expect_vector(features, len(w), "krr features")
    score = float(np.dot(w, f) + m.scalar("b"))
    return (1 if score >= 0.0 else -1), score


def mlp_logits(m: ModelBundle, x) -> np.ndarray:
    """Pre-softmax output scores: sigmoid hidden layers, affine final layer."""
    n_layers = int(m.scalar("n_layers"))
    h = np.asarray(x, dtype=np.float64)
    for layer in range(n_layers):
        w, b = m[f"W{layer}"], m[f"b{layer}"]
        if w.shape[1] != len(h):
            raise ShapeError(f"mlp layer {layer}: weight shape {w.shape} vs input {len(h)}")
        h = w @ h + b
        if layer < n_layers - 1:
            h = sigmoid(h)
    return h


def infer_mlp(m: ModelBundle, x) -> np.ndarray:
    """Class probabilities (softmax over the final affine layer)."""
    return softmax(mlp_logits(m, x))


def ocsvm_score(m: ModelBundle, x) -> float:
    x = _expect_vector(x, m["sv"].shape[1], "ocsvm input")
    return float(np.dot(m["coef"], _rbf_kernel(m, x)) - m.scalar("rho"))


def infer_ocsvm(m: ModelBundle, x):
    """(is_anomaly, score): anomalous iff the margin score is negative. A 2-D x gives
    arrays, one flag and score per row from one kernel evaluation, each row's bits its own."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2 and x.shape[1] == m["sv"].shape[1]:
        score = np.array([np.dot(m["coef"], k) for k in _rbf_kernel(m, x)]) - m.scalar("rho")
    else:
        score = ocsvm_score(m, x)
    return score < 0.0, score


# Recurrent cells. Gate weights are stacked row-wise, one H-row block per gate:
# LSTM W, U, b in order (c, f, i, o), so the three sigmoid gates are contiguous;
# GRU W, b in order (z, r, h) and U in order (z, r), since the candidate reuses Ur.
RNN_GATES = {"lstm": ("cfio", "cfio"), "gru": ("zrh", "zr")}


def mT(a):
    """`a` transposed over its last two axes (numpy 2's ndarray.mT), a view."""
    return a.swapaxes(-1, -2)


def stacked_weights(m: ModelBundle) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, U, b) of a recurrent bundle, gate blocks stacked in RNN_GATES order.

    Leading model axes on the tensors carry over: gates stack along the rows.
    """
    w_gates, u_gates = RNN_GATES[m.kind]
    return (
        np.concatenate([m[f"W{g}"] for g in w_gates], axis=-2),
        np.concatenate([m[f"U{g}"] for g in u_gates], axis=-2),
        np.concatenate([m[f"b{g}"] for g in w_gates], axis=-1),
    )


def split_gates(kind: str, W, U, b) -> dict[str, np.ndarray]:
    """Inverse of stacked_weights: the named W*/U*/b* tensors in bundle order."""
    w_gates, u_gates = RNN_GATES[kind]
    hidden = b.shape[-1] // len(w_gates)
    out = {}
    for k, g in enumerate(w_gates):
        rows = slice(k * hidden, (k + 1) * hidden)
        out[f"W{g}"] = W[..., rows, :]
        if g in u_gates:
            out[f"U{g}"] = U[..., rows, :]
        out[f"b{g}"] = b[..., rows]
    return out


def lstm_cell(a, U, b, h, c, out=None):
    """One LSTM update over gate-stacked weights; h, c and a may be batched.

    cand = tanh(Wc x + Uc h + bc); f, i, o = sigmoid gates;
    c' = f*c + i*cand; h' = o * tanh(c').

    `a` holds the input projection x @ W.T, (..., 4H), and becomes the gate
    pre-activations: the step adds h @ U.T, then b. U is used transposed
    over its last two axes and b broadcasts against `a`, so weights with a
    leading model axis, (M, 4H, H) and b as (M, 1, 4H), step a (M, B, .)
    batch, model k on row k. Returns (h', c', (cand, fio, tanh(c'))), where
    fio stacks the f, i and o activations: what backpropagation needs.

    `out` = (h', c', cand, fio, tanh(c'), scratch) are the arrays the step
    writes, new without it: shaped like h, except fio (..., 3H) and h @ U.T
    (..., 4H). h' and c' may be h and c.
    """
    hidden = h.shape[-1]
    h_new, c_new, cand, fio, hc, scratch = (None,) * 6 if out is None else out
    a += np.matmul(h, mT(U), out=scratch)
    a += b
    cand = np.tanh(a[..., :hidden], out=cand)
    fio = sigmoid(a[..., hidden:], out=fio)
    f, i, o = fio[..., :hidden], fio[..., hidden : 2 * hidden], fio[..., 2 * hidden :]
    c_new = np.multiply(f, c, out=c_new)
    c_new += np.multiply(i, cand, out=hc)  # hc holds i*cand until tanh(c') replaces it
    hc = np.tanh(c_new, out=hc)
    return np.multiply(o, hc, out=h_new), c_new, (cand, fio, hc)


def gru_cell(a, U, b, h, out=None):
    """One GRU update over gate-stacked weights, following the printed equations.

    z = sigmoid(Wz x + Uz h + bz); r = sigmoid(Wr x + Ur h + br);
    h' = (1-z)*h + z*sigmoid(Wh x + Ur (r*h) + bh).
    Note the candidate reuses Ur and a sigmoid, as printed.

    `a` holds x @ W.T, (..., 3H); batches and model axes are as in
    lstm_cell. Returns (h', (zr, r*h, cand)), where zr stacks the z and r
    activations: what backpropagation through the step needs.

    `out` = (h', zr, r*h, cand, scratch) are the arrays the step writes:
    shaped like h, except zr and h @ U.T (..., 2H). h' may be h itself.
    Without `out` every array is new, as in lstm_cell.
    """
    hidden = h.shape[-1]
    h_new, zr, rh, cand, scratch = (None,) * 5 if out is None else out
    scratch = np.matmul(h, mT(U), out=scratch)
    zr = np.add(a[..., : 2 * hidden], scratch, out=zr)
    zr += b[..., : 2 * hidden]
    sigmoid(zr, out=zr)
    z, r = zr[..., :hidden], zr[..., hidden:]
    rh = np.multiply(r, h, out=rh)
    cand = np.matmul(rh, mT(U[..., hidden:, :]), out=cand)
    cand += a[..., 2 * hidden :]  # the same sum as x @ Wh.T + (r*h) @ Ur.T
    cand += b[..., 2 * hidden :]
    sigmoid(cand, out=cand)
    keep, update = scratch.reshape(2, *h.shape)  # h @ U.T is spent: two h-shaped temporaries
    np.subtract(1.0, z, out=keep)
    keep *= h
    return np.add(keep, np.multiply(z, cand, out=update), out=h_new), (zr, rh, cand)


# kind -> (cell, number of state arrays, widths in H of the cell's activations).
# A state is the tuple (h, c) for an lstm and (h,) for a gru, h first;
# `cell(x @ W.T, U, b, *state, out=(*state', *activations, scratch))` returns
# (*state', activations), and h @ U.T fills the scratch.
RNN_CELLS = {"lstm": (lstm_cell, 2, (1, 3, 1)), "gru": (gru_cell, 1, (2, 1, 1))}


def rnn_hidden_size(m: ModelBundle) -> int:
    return m[f"b{RNN_GATES[m.kind][0][0]}"].shape[-1]


def batched_window_errors(m: ModelBundle, windows, n: int | None = None) -> np.ndarray:
    """The last n per-window next-step squared errors, (B, n); state resets per window.

    errors[:, t] = ||Wout h_t + bout - x_{t+1}||^2, where h_t has read
    x_0..x_t, over the trailing n of the T-1 transitions (all of them by
    default). The step loop runs the recurrence at every step, writing the
    state in place and the cell's gates, activations and scratch into arrays
    allocated once per call from the kind's RNN_CELLS row, and writes
    h_t @ Wout.T into row t of one (n, B, D) buffer for the kept steps only;
    bias, difference, square and sum over D run once over that buffer after
    the loop.
    """
    x = np.asarray(windows, dtype=np.float64)
    B, T, D = x.shape
    n = T - 1 if n is None else n
    if not 1 <= n <= T - 1:
        raise ShapeError(f"windows of {T} readings yield 1 to {T - 1} errors, not {n}")
    first = T - 1 - n  # the first kept step
    W, U, b = stacked_weights(m)
    w_t, w_out_t = W.T, m["Wout"].T
    hidden, (cell, arity, widths) = rnn_hidden_size(m), RNN_CELLS[m.kind]
    state = tuple(np.zeros((B, hidden)) for _ in range(arity))
    out = (*state, *(np.empty((B, k * hidden)) for k in widths), np.empty((B, len(U))))
    gates, pred = np.empty((B, len(W))), np.empty((n, B, D))
    b = np.broadcast_to(b, gates.shape).copy()  # a same-shape add costs less than a broadcast
    for t in range(T - 1):
        cell(np.matmul(x[:, t, :], w_t, out=gates), U, b, *state, out=out)
        if t >= first:
            np.matmul(state[0], w_out_t, out=pred[t - first])
    del state, out, gates, b  # spent: freed before the readout's temporaries, a lower peak
    pred += m["bout"]
    pred -= x[:, first + 1 :, :].transpose(1, 0, 2)
    pred **= 2
    return np.ascontiguousarray(pred.sum(axis=2).T)


# ---------------------------------------------------------------------------
# Bundle files: "SIDB", version, kind, then (name, rank, dims, float64 payload).
# ---------------------------------------------------------------------------

def bundle_to_bytes(m: ModelBundle) -> bytes:
    out = bytearray(BUNDLE_MAGIC)
    kind = m.kind.encode()
    out += struct.pack("<IH", BUNDLE_VERSION, len(kind))
    out += kind
    out += struct.pack("<I", len(m.tensors))
    for name in sorted(m.tensors):
        data = np.ascontiguousarray(m.tensors[name], dtype="<f8")
        nb = name.encode()
        out += struct.pack("<H", len(nb)) + nb
        out += struct.pack("<H", data.ndim)
        out += struct.pack(f"<{data.ndim}I", *data.shape)
        out += data.tobytes()
    return bytes(out)


def bundle_from_bytes(blob: bytes) -> ModelBundle:
    if blob[:4] != BUNDLE_MAGIC:
        raise ValueError("bad bundle magic")
    pos = 4

    def take(size: int, what: str) -> bytes:
        nonlocal pos
        if pos + size > len(blob):
            raise ValueError(f"bundle truncated in {what} at byte {pos} of {len(blob)}")
        pos += size
        return blob[pos - size : pos]

    version, kind_len = struct.unpack("<IH", take(6, "header"))
    if version != BUNDLE_VERSION:
        raise ValueError(f"unsupported bundle version {version}")
    kind = take(kind_len, "kind").decode()
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "tensor name"))
        name = take(name_len, "tensor name").decode()
        (rank,) = struct.unpack("<H", take(2, f"tensor {name!r}"))
        shape = struct.unpack(f"<{rank}I", take(4 * rank, f"tensor {name!r}"))
        data = np.frombuffer(take(8 * math.prod(shape), f"tensor {name!r}"), dtype="<f8")
        if not np.isfinite(data).all():
            raise ValueError(f"tensor {name!r} holds a non-finite value")
        tensors[name] = data.reshape(shape).astype(np.float64)
    if pos != len(blob):
        raise ValueError(f"bundle has {len(blob) - pos} bytes after its last tensor")
    return ModelBundle(kind=kind, tensors=tensors)


def save_bundle(path, m: ModelBundle) -> None:
    with open(path, "wb") as fh:
        fh.write(bundle_to_bytes(m))


def load_bundle(path) -> ModelBundle:
    with open(path, "rb") as fh:
        return bundle_from_bytes(fh.read())
