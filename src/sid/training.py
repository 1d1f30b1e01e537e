"""Desk-scale trainers for every model kind.

All trainers are deterministic given (dataset, hyperparameters, seed) and use
plain gradient methods: mini-batch gradient descent on cross-entropy for the
classifiers, subgradient descent on hinge loss for the SVMs, a closed-form
solve for ridge regression, projected gradient on the dual for the one-class
SVM, and truncated backpropagation-through-time with gradient-norm clipping
for the recurrent models. Learning rates and epoch counts are defaults tuned
for the small synthetic workloads in the test suite, nothing more.

The recurrent trainer, train_rnn, serves the lstm and gru alike and takes an
optional leading model axis: weights shaped (M, ...) and a batch shaped
(M, B, T, D) train M models in one pass, which shares numpy's per-call
overhead across them. Each model keeps its own loss,
gradient-norm clip and update, computed with the same float operations in
the same order as a one-model call, so every bundle is bit-identical to
training it alone; a one-model call is the same code with no model axis.
Each chunk runs in a bptt_workspace whose state and activation stacks follow
the kind's RNN_CELLS row, with its backward step and U gradient from
_RNN_GRADS; the step loops carry only the recurrence, and each weight
gradient is one stacked product that allocates its own result.
"""

import numpy as np

from .models import (
    RNN_CELLS, RNN_GATES, ModelBundle, mT, rbf_kernel, rnn_hidden_size, sigmoid,
    split_gates, stacked_weights,
)


class TrainingError(RuntimeError):
    pass


def _check_finite(value, what):
    if not np.all(np.isfinite(value)):
        raise TrainingError(f"non-finite {what} encountered; aborting")


def _as_xy(dataset):
    X, y = dataset
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if len(X) == 0:
        raise TrainingError("empty dataset")
    if len(X) != len(y):
        raise TrainingError("X and y lengths differ")
    return X, y


# ---------------------------------------------------------------------------
# Logistic regression
# ---------------------------------------------------------------------------

def train_lr(dataset, lr=0.1, epochs=200, batch=32, seed=0) -> ModelBundle:
    X, y = _as_xy(dataset)
    y = y.astype(np.float64)
    rng = np.random.default_rng(seed)
    w = np.zeros(X.shape[1])
    b = 0.0
    idx = np.arange(len(X))
    for _ in range(epochs):
        rng.shuffle(idx)
        for start in range(0, len(idx), batch):
            sel = idx[start : start + batch]
            p = sigmoid(X[sel] @ w + b)
            grad = p - y[sel]
            w -= lr * (X[sel].T @ grad) / len(sel)
            b -= lr * grad.mean()
        _check_finite(w, "lr weights")
    return ModelBundle("lr", {"w": w, "b": b})


# ---------------------------------------------------------------------------
# MLP (sigmoid hidden layers, softmax cross-entropy)
# ---------------------------------------------------------------------------

def init_mlp(sizes, seed=0) -> ModelBundle:
    rng = np.random.default_rng(seed)
    tensors = {"n_layers": len(sizes) - 1}
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        tensors[f"W{i}"] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in))
        tensors[f"b{i}"] = np.zeros(fan_out)
    return ModelBundle("mlp", tensors)


def mlp_loss_and_grads(m: ModelBundle, X, y):
    """Mean cross-entropy and gradients for every weight/bias tensor."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_layers = int(m.scalar("n_layers"))
    acts = [X]
    pre = []
    h = X
    for layer in range(n_layers):
        z = h @ m[f"W{layer}"].T + m[f"b{layer}"]
        pre.append(z)
        h = sigmoid(z) if layer < n_layers - 1 else z
        acts.append(h)
    logits = acts[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    loss = float(np.mean(logz - logits[np.arange(len(y)), y]))

    probs = np.exp(logits - logz[:, None])
    delta = probs
    delta[np.arange(len(y)), y] -= 1.0
    delta /= len(y)
    grads = {}
    for layer in reversed(range(n_layers)):
        grads[f"W{layer}"] = delta.T @ acts[layer]
        grads[f"b{layer}"] = delta.sum(axis=0)
        if layer:
            back = delta @ m[f"W{layer}"]
            s = acts[layer]  # sigmoid output of the previous hidden layer
            delta = back * s * (1.0 - s)
    return loss, grads


def train_mlp(dataset, sizes=None, lr=0.5, epochs=200, batch=32, seed=0) -> ModelBundle:
    X, y = _as_xy(dataset)
    y = y.astype(np.int64)
    if sizes is None:
        sizes = [X.shape[1], 50, int(y.max()) + 1]
    m = init_mlp(sizes, seed=seed)
    rng = np.random.default_rng(seed + 1)
    idx = np.arange(len(X))
    for _ in range(epochs):
        rng.shuffle(idx)
        for start in range(0, len(idx), batch):
            sel = idx[start : start + batch]
            loss, grads = mlp_loss_and_grads(m, X[sel], y[sel])
            _check_finite(loss, "mlp loss")
            for name, g in grads.items():
                m.tensors[name] = m.tensors[name] - lr * g
    return m


# ---------------------------------------------------------------------------
# SVMs (hinge subgradient; kernel variant keeps training points as candidates)
# ---------------------------------------------------------------------------

def _as_pm1(y):
    y = np.asarray(y, dtype=np.float64)
    return np.where(y > 0, 1.0, -1.0)


def train_linear_svm(dataset, lr=0.05, epochs=200, lam=1e-3, seed=0) -> ModelBundle:
    X, y = _as_xy(dataset)
    y = _as_pm1(y)
    rng = np.random.default_rng(seed)
    w = np.zeros(X.shape[1])
    b = 0.0
    idx = np.arange(len(X))
    for _ in range(epochs):
        rng.shuffle(idx)
        for i in idx:
            margin = y[i] * (np.dot(w, X[i]) + b)
            w *= 1.0 - lr * lam
            if margin < 1.0:
                w += lr * y[i] * X[i]
                b += lr * y[i]
    _check_finite(w, "svm weights")
    # Inner-product form with a single weighted "support vector".
    return ModelBundle("linear_svm", {"coef": [1.0], "sv": [w], "b": b})


def train_kernel_svm(dataset, gamma=0.5, lr=0.05, epochs=100, lam=1e-3, seed=0) -> ModelBundle:
    X, y = _as_xy(dataset)
    y = _as_pm1(y)
    rng = np.random.default_rng(seed)
    n = len(X)
    K = rbf_kernel(X, X, gamma)
    alpha = np.zeros(n)  # signed coefficients a_i = alpha_i * y_i folded in
    b = 0.0
    idx = np.arange(n)
    for _ in range(epochs):
        rng.shuffle(idx)
        for i in idx:
            margin = y[i] * (K[i] @ alpha + b)
            alpha *= 1.0 - lr * lam
            if margin < 1.0:
                alpha[i] += lr * y[i]
                b += lr * y[i]
    _check_finite(alpha, "kernel svm coefficients")
    keep = np.abs(alpha) > 1e-12
    return ModelBundle(
        "kernel_svm",
        {"coef": alpha[keep], "sv": X[keep], "b": b, "gamma": gamma},
    )


# ---------------------------------------------------------------------------
# Kernel ridge regression (closed form)
# ---------------------------------------------------------------------------

def train_krr(dataset, lam=1e-3) -> ModelBundle:
    X, y = _as_xy(dataset)
    y = _as_pm1(y)
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    K = Xc @ Xc.T
    alpha = np.linalg.solve(K + lam * np.eye(len(X)), y - y_mean)
    w = Xc.T @ alpha
    b = y_mean - np.dot(w, x_mean)
    return ModelBundle("krr", {"w": w, "b": b, "lam": lam})


# ---------------------------------------------------------------------------
# One-class SVM (projected gradient on the dual)
# ---------------------------------------------------------------------------

def _project_capped_simplex(v, cap):
    """Project v onto {0 <= a <= cap, sum a = 1} exactly: a = clip(v - t, 0, cap).

    f(t) = sum clip(v - t, 0, cap) is piecewise linear with knots at v and
    v - cap: t interpolates f = 1 between two sorted knots (the sort-based
    projection of Duchi et al. 2008, with caps).
    """
    knots = np.sort(np.concatenate([v - cap, v]))
    # np.minimum(cap, np.maximum(0.0, .)) in this order is np.clip's result, signed zeros and
    # NaN included; f is non-increasing and f[-1] == 0.
    f = np.minimum(cap, np.maximum(0.0, v - knots[:, None])).sum(axis=1)
    j = np.count_nonzero(f > 1.0)
    t = knots[0]  # j == 0 only if cap * n == 1: every entry at the cap
    if j:
        (k0, k1), (f0, f1) = knots[j - 1 : j + 1].tolist(), f[j - 1 : j + 1].tolist()
        t = k0 + (f0 - 1.0) * (k1 - k0) / (f0 - f1)
    return np.minimum(cap, np.maximum(0.0, v - t))


def train_ocsvm(X, gamma=0.5, nu=0.2, iters=300, lr=0.1) -> ModelBundle:
    X = np.asarray(X, dtype=np.float64)
    if len(X) == 0:
        raise TrainingError("empty dataset")
    n = len(X)
    cap = 1.0 / max(nu * n, 1.0)
    if cap * n < 1.0:
        raise TrainingError(f"nu={nu} is infeasible for {n} samples")
    K = rbf_kernel(X, X, gamma)
    alpha = _project_capped_simplex(np.full(n, 1.0 / n), cap)
    for _ in range(iters):
        alpha = _project_capped_simplex(alpha - lr * (K @ alpha), cap)
    _check_finite(alpha, "ocsvm dual variables")
    scores = K @ alpha
    margin = (alpha > 1e-9) & (alpha < cap - 1e-9)
    rho = float(np.median(scores[margin])) if margin.any() else float(np.median(scores))
    keep = alpha > 1e-9
    return ModelBundle(
        "ocsvm", {"coef": alpha[keep], "sv": X[keep], "rho": rho, "gamma": gamma}
    )


# ---------------------------------------------------------------------------
# Recurrent models: batched BPTT on next-step mean squared error
# ---------------------------------------------------------------------------

def init_rnn(kind, hidden, dim, seed=0, scale=0.2) -> ModelBundle:
    """Per gate in RNN_GATES order: W, then U where the gate has one, then a zero b."""
    rng = np.random.default_rng(seed)
    w_gates, u_gates = RNN_GATES[kind]
    tensors = {}
    for gate in w_gates:
        tensors[f"W{gate}"] = rng.normal(0, scale / np.sqrt(dim), size=(hidden, dim))
        if gate in u_gates:
            tensors[f"U{gate}"] = rng.normal(0, scale / np.sqrt(hidden), size=(hidden, hidden))
        tensors[f"b{gate}"] = np.zeros(hidden)
    tensors["Wout"] = rng.normal(0, scale / np.sqrt(hidden), size=(dim, hidden))
    tensors["bout"] = np.zeros(dim)
    return ModelBundle(kind, tensors)


def init_lstm(hidden, dim, seed=0, scale=0.2) -> ModelBundle:
    return init_rnn("lstm", hidden, dim, seed, scale)


def _lstm_grads(U, da, state, acts, dstate):
    """One step back through lstm_cell, given (dh, dc) at its output: writes
    the pre-activation gradient into da and returns the previous (dh, dc)."""
    (_, c), (cand, fio, hc), (dh, dc) = state, acts, dstate
    H = c.shape[-1]
    f, i, o = fio[..., :H], fio[..., H : 2 * H], fio[..., 2 * H :]
    dc = dc + dh * o * (1.0 - hc**2)
    dfio = np.concatenate([dc * c, dc * cand, dh * hc], axis=-1)
    np.concatenate([dc * i * (1.0 - cand**2), dfio * fio * (1.0 - fio)], axis=-1, out=da)
    return da @ U, dc * f


def _gru_grads(U, da, state, acts, dstate):
    """One step back through gru_cell, as _lstm_grads; the candidate reuses Ur."""
    (h,), (zr, _, cand), (dh,) = state, acts, dstate
    H = h.shape[-1]
    z, r = zr[..., :H], zr[..., H:]
    dac = dh * z * cand * (1.0 - cand)  # candidate pre-activation
    drh = dac @ U[..., H:, :]
    dzr = np.concatenate([dh * (cand - h), drh * h], axis=-1) * zr * (1.0 - zr)
    np.concatenate([dzr, dac], axis=-1, out=da)
    return (dh * (1.0 - z) + drh * r + dzr @ U,)


def bptt_workspace(m: ModelBundle, batch_shape) -> dict:
    """rnn_loss_and_grads' stacks for batches (*models, B, T, D) of up to T readings;
    time-major, (step, *models, B, .): each step's product keeps its BLAS call."""
    *models, B, T, D = batch_shape
    H, rows = rnn_hidden_size(m), (T - 1, *models, B)
    (_, arity, act_widths), (w_gates, u_gates) = RNN_CELLS[m.kind], RNN_GATES[m.kind]
    widths = {"gates": len(w_gates) * H, "err": D, "dpred": D, "dh": H}
    return {
        "state": tuple(np.empty((T, *rows[1:], H)) for _ in range(arity)),
        "acts": tuple(np.empty((*rows, k * H)) for k in act_widths),
        **{name: np.empty((*rows, n)) for name, n in widths.items()},
        "scratch": np.empty((*rows[1:], len(u_gates) * H)),
    }


def _sum_steps(terms):
    """`total = 0.0; for t in terms: total += t`, bit for bit: np.add.reduce
    sums pairwise where a step holds one number, and cumsum + 0.0 does not."""
    if terms[0].size > 1:
        return np.add.reduce(terms, axis=0, initial=0.0)
    return np.cumsum(terms, axis=0)[-1] + 0.0


def _step_sum(a, b=None):
    """Sum from zero, last step first, of mT(a[t]) @ b[t] or, without b, a[t]'s row sums."""
    if b is None:
        return _sum_steps(np.add.reduce(a[::-1], axis=-2))
    return _sum_steps(np.matmul(mT(a[::-1]), b[::-1]))


def _gru_u_grad(da, h, acts):
    """The gru's gU: per step the gate-side term, then the candidate-side one (+0.0,
    a no-op, on the Uz rows), over contiguous copies: a gemv's bits vary with stride."""
    (dzr, rh, dac), H = acts, h.shape[-1]
    np.copyto(dzr, da[..., : 2 * H])
    np.copyto(dac, da[..., 2 * H :])
    terms = np.empty((len(da), 2, *da.shape[1:-2], 2 * H, H))
    np.matmul(mT(dzr[::-1]), h[::-1], out=terms[:, 0])
    terms[:, 1, ..., :H, :] = 0.0
    np.matmul(mT(dac[::-1]), rh[::-1], out=terms[:, 1, ..., H:, :])
    return _sum_steps(terms.reshape(-1, *terms.shape[2:]))


# kind -> (backward step, gU from the stacked pre-activation gradients, h and activations)
_RNN_GRADS = {"lstm": (_lstm_grads, lambda da, h, acts: _step_sum(da, h)),
              "gru": (_gru_grads, _gru_u_grad)}


def rnn_loss_and_grads(m: ModelBundle, batch, state=None, work=None):
    """Forward + full backward over a (B, T, D) batch of sequences.

    Loss is the mean over (sequence, transition) of the squared L2 next-step
    error. `state` is the carried-in state tuple, (h, c) for an lstm and (h,)
    for a gru, zero by default. Returns (loss, grads, final state), all new
    arrays; gradients do not flow into the carried-in state, which is what
    makes chunked calls a truncated BPTT. `work` is a bptt_workspace that
    fits the batch, new by default. The step loops carry only the
    recurrence; all else runs once over the stacks, bit for bit.

    Leading axes are model axes: tensors shaped (M, ...) with a batch shaped
    (M, B, T, D) give M losses, gradients and states, model k's computed from
    batch[k] alone with the same float operations as a one-model call.
    """
    x = np.asarray(batch, dtype=np.float64)
    *_, B, T, _ = x.shape
    steps, (cell, *_), (step_back, u_grad) = T - 1, RNN_CELLS[m.kind], _RNN_GRADS[m.kind]
    W, U, b = stacked_weights(m)
    b_rows, w_out = b[..., None, :], m["Wout"]  # one bias row per model, broadcast over its batch
    work = bptt_workspace(m, x.shape) if work is None else work
    states, acts = work["state"], tuple(a[:steps] for a in work["acts"])
    gates, err, dpred, dh_out = (work[k][:steps] for k in ("gates", "err", "dpred", "dh"))
    xs = np.moveaxis(x, -2, 0)  # (T, *models, B, D)
    for s, s0 in zip(states, (0.0,) * len(states) if state is None else state):
        s[0] = s0
    np.matmul(xs[:-1], mT(W), out=gates)
    for a, prev, new, act in zip(gates, zip(*states), zip(*(s[1:] for s in states)), zip(*acts)):
        cell(a, U, b_rows, *prev, out=(*new, *act, work["scratch"]))
    h = states[0][:T]
    np.matmul(h[1:], mT(w_out), out=err)
    err += m["bout"][..., None, :]
    err -= xs[1:]
    scale = 1.0 / (B * steps)
    np.multiply(err, 2.0 * scale, out=dpred)
    loss = _sum_steps(np.square(err, out=err).sum(axis=(-2, -1))) * scale
    np.matmul(dpred, w_out, out=dh_out)

    dstate = (np.zeros(h.shape[1:]),) * len(states)
    for da, prev, act, dh in reversed(list(zip(gates, zip(*states), zip(*acts), dh_out))):
        dstate = step_back(U, da, prev, act, (dstate[0] + dh, *dstate[1:]))
    gU = u_grad(gates, h[:steps], acts)
    grads = {**split_gates(m.kind, _step_sum(gates, xs[:-1]), gU, _step_sum(gates)),
             "Wout": _step_sum(dpred, h[1:]), "bout": _step_sum(dpred)}
    return loss, grads, tuple(s[steps].copy() for s in states)


def _clip_grads(grads, clip, models):
    """Scale each model's gradients down to a global L2 norm of at most `clip`.

    `models` is the shape of the leading model axes, () for one model.
    """
    lead = len(models)
    total = np.sqrt(sum((g**2).sum(axis=tuple(range(lead, g.ndim))) for g in grads.values()))
    if clip and np.any(total > clip):
        factor = clip / np.maximum(total, clip)  # exactly 1.0 for a model under the clip
        for g in grads.values():
            g *= factor.reshape(models + (1,) * (g.ndim - lead))


def train_rnn(kind, sequences, hidden=16, lr=0.05, epochs=200, clip=5.0, trunc=20, seed=0):
    """Chunked BPTT of an lstm or gru from one seeded initialisation per model.

    `sequences` is (T, D), (B, T, D), or (M, B, T, D) for M models trained
    in one pass, model k on sequences[k]; the last returns a list of M
    bundles, each bit-identical to training that model alone. All chunks of
    `trunc` steps run in one bptt_workspace; `clip` 0 turns clipping off.
    """
    if trunc < 1 or clip < 0:
        raise TrainingError(f"need trunc >= 1 and clip >= 0, not trunc={trunc}, clip={clip}")
    x = np.asarray(sequences, dtype=np.float64)
    if x.ndim not in (2, 3, 4):
        raise TrainingError("sequences must be (T, D), (B, T, D) or (M, B, T, D)")
    if x.ndim == 4 and len(x) == 1:  # a lone model trains faster without the model axis
        return [train_rnn(kind, x[0], hidden, lr, epochs, clip, trunc, seed)]
    stacked = x.ndim == 4
    if x.ndim == 2:
        x = x[None, :, :]
    if x.size == 0:
        raise TrainingError("empty dataset")
    models, T = x.shape[:-3], x.shape[-2]
    if T < 2:
        raise TrainingError("sequences must have at least two readings")
    m = init_rnn(kind, hidden, x.shape[-1], seed)
    m.tensors = {k: np.broadcast_to(v, models + v.shape).copy() for k, v in m.tensors.items()}
    work = bptt_workspace(m, x.shape[:-2] + (min(trunc, T - 1) + 1, x.shape[-1]))
    losses = []
    for _ in range(epochs):
        epoch_loss = 0.0
        state = None  # zero at the start of every epoch
        # Chunked passes: state carries across chunks, gradients do not.
        for start in range(0, T - 1, trunc):
            chunk = x[..., start : start + trunc + 1, :]
            loss, grads, state = rnn_loss_and_grads(m, chunk, state, work)
            _check_finite(loss, f"{kind} loss")
            _clip_grads(grads, clip, models)
            for name, g in grads.items():
                m.tensors[name] = m.tensors[name] - lr * g
            epoch_loss += loss * (chunk.shape[-2] - 1)
        losses.append(epoch_loss / (T - 1))
    # (epochs, *models) -> (*models, epochs)
    m.tensors["epoch_losses"] = np.moveaxis(np.reshape(losses, (epochs,) + models), 0, -1)
    if not stacked:
        return m
    return [ModelBundle(kind, {k: v[i] for k, v in m.tensors.items()}) for i in range(len(x))]


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def train(kind: str, dataset, hyper=None, seed=0) -> ModelBundle:
    """Train a bundle of the given kind; `hyper` overrides per-kind defaults.

    `seed` feeds every trainer but the deterministic krr and ocsvm solvers.
    """
    hyper = hyper or {}
    trainers = {
        "lr": train_lr,
        "mlp": train_mlp,
        "linear_svm": train_linear_svm,
        "kernel_svm": train_kernel_svm,
    }
    if kind in RNN_CELLS:
        return train_rnn(kind, dataset, **{"seed": seed, **hyper})
    if kind == "krr":
        return train_krr(dataset, **hyper)
    if kind == "ocsvm":
        return train_ocsvm(dataset, **hyper)
    if kind not in trainers:
        raise ValueError(f"unknown model kind {kind!r}")
    return trainers[kind](dataset, **{"seed": seed, **hyper})
