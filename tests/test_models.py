import math

import numpy as np
import pytest

from sid import codegen, training
from sid.models import (
    RNN_CELLS,
    RNN_GATES,
    ModelBundle,
    ShapeError,
    batched_window_errors,
    bundle_from_bytes,
    bundle_to_bytes,
    infer_krr,
    infer_lr,
    infer_mlp,
    infer_ocsvm,
    infer_svm,
    mlp_logits,
    rnn_hidden_size,
    sigmoid,
)
from sid.training import init_lstm

from oracles import init_gru, predict_series, step_rnn, stepwise_readout_errors


def lstm_bundle(hidden, dim, rng=None, scale=0.0):
    def mat(r, c):
        return rng.normal(0, scale, size=(r, c)) if scale else np.zeros((r, c))

    tensors = {}
    for gate in "cfio":
        tensors[f"W{gate}"] = mat(hidden, dim)
        tensors[f"U{gate}"] = mat(hidden, hidden)
        tensors[f"b{gate}"] = rng.normal(0, scale, size=hidden) if scale else np.zeros(hidden)
    tensors["Wout"] = mat(dim, hidden)
    tensors["bout"] = rng.normal(0, scale, size=dim) if scale else np.zeros(dim)
    return ModelBundle("lstm", tensors)


def gru_bundle(hidden, dim, rng=None, scale=0.0):
    def mat(r, c):
        return rng.normal(0, scale, size=(r, c)) if scale else np.zeros((r, c))

    tensors = {}
    for gate in "zr":
        tensors[f"W{gate}"] = mat(hidden, dim)
        tensors[f"U{gate}"] = mat(hidden, hidden)
        tensors[f"b{gate}"] = rng.normal(0, scale, size=hidden) if scale else np.zeros(hidden)
    tensors["Wh"] = mat(hidden, dim)
    tensors["bh"] = rng.normal(0, scale, size=hidden) if scale else np.zeros(hidden)
    tensors["Wout"] = mat(dim, hidden)
    tensors["bout"] = rng.normal(0, scale, size=dim) if scale else np.zeros(dim)
    return ModelBundle("gru", tensors)


def test_lr_examples():
    m = ModelBundle("lr", {"w": [0.0], "b": 0.0})
    assert infer_lr(m, [3.0]) == 0.5
    m = ModelBundle("lr", {"w": [1.0], "b": 0.0})
    assert infer_lr(m, [0.0]) == 0.5
    m = ModelBundle("lr", {"w": [2.0], "b": 1.0})
    # Analytic value of the logistic at z = 3.
    assert infer_lr(m, [1.0]) == pytest.approx(1 / (1 + math.exp(-3)), abs=1e-12)


def test_svm_examples():
    m = ModelBundle("kernel_svm", {"coef": [1.0], "sv": [[1.0, 2.0]], "b": 0.0, "gamma": 0.7})
    label, score = infer_svm(m, [1.0, 2.0])
    assert label == 1 and score == pytest.approx(1.0)

    m = ModelBundle("kernel_svm", {"coef": [0.0, 0.0], "sv": [[0.0], [1.0]], "b": -1.0, "gamma": 1.0})
    assert infer_svm(m, [5.0])[0] == -1

    m = ModelBundle("kernel_svm", {"coef": [1.0, -1.0], "sv": [[1.0], [-1.0]], "b": 0.0, "gamma": 1.0})
    label, score = infer_svm(m, [0.0])
    assert score == pytest.approx(0.0) and label == 1  # ties break to impostor


def test_kernel_svm_gamma_zero_degenerates():
    rng = np.random.default_rng(0)
    coef = rng.normal(size=5)
    m = ModelBundle(
        "kernel_svm",
        {"coef": coef, "sv": rng.normal(size=(5, 3)), "b": 0.25, "gamma": 0.0},
    )
    _, score = infer_svm(m, rng.normal(size=3))
    assert score == pytest.approx(coef.sum() + 0.25, abs=1e-12)


def test_linear_svm_brute_force():
    rng = np.random.default_rng(1)
    coef = rng.normal(size=4)
    sv = rng.normal(size=(4, 6))
    x = rng.normal(size=6)
    m = ModelBundle("linear_svm", {"coef": coef, "sv": sv, "b": 0.1})
    _, score = infer_svm(m, x)
    expected = sum(coef[i] * np.dot(sv[i], x) for i in range(4)) + 0.1
    assert score == pytest.approx(expected, abs=1e-12)


def test_krr_constant_bias():
    m = ModelBundle("krr", {"w": np.zeros(14), "b": 1.0})
    label, _ = infer_krr(m, np.zeros(14))
    assert label == 1


def test_mlp_zero_weights_softmax_half():
    m = ModelBundle(
        "mlp",
        {"n_layers": 1, "W0": np.zeros((2, 6)), "b0": np.zeros(2)},
    )
    probs = infer_mlp(m, np.ones(6))
    assert probs == pytest.approx([0.5, 0.5])


def test_mlp_identity_single_layer():
    m = ModelBundle("mlp", {"n_layers": 1, "W0": np.eye(3), "b0": np.zeros(3)})
    x = np.array([0.3, -1.0, 2.0])
    assert mlp_logits(m, x) == pytest.approx(x)


def test_mlp_matches_loop_oracle():
    rng = np.random.default_rng(2)
    sizes = [6, 16, 2]
    tensors = {"n_layers": 2}
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        tensors[f"W{i}"] = rng.normal(size=(fan_out, fan_in))
        tensors[f"b{i}"] = rng.normal(size=fan_out)
    m = ModelBundle("mlp", tensors)
    x = rng.normal(size=6)

    h = list(x)
    for layer in range(2):
        w, b = tensors[f"W{layer}"], tensors[f"b{layer}"]
        out = []
        for r in range(len(b)):
            acc = b[r]
            for c_idx in range(len(h)):
                acc += w[r][c_idx] * h[c_idx]
            out.append(acc)
        if layer < 1:
            h = [1 / (1 + math.exp(-v)) for v in out]
        else:
            h = out
    assert mlp_logits(m, x) == pytest.approx(h, abs=1e-12)


def test_lstm_zero_parameters():
    m = lstm_bundle(4, 6)
    (h, c), pred = step_rnn(m, (np.zeros(4), np.zeros(4)), np.ones(6))
    assert np.all(c == 0) and np.all(h == 0) and np.all(pred == 0)


def test_lstm_forget_gate_limit():
    m = lstm_bundle(3, 2)
    m.tensors["bf"] = np.full(3, 50.0)  # forget gate ~1
    m.tensors["bi"] = np.full(3, -50.0)  # input gate ~0
    c0 = np.array([0.3, -0.2, 0.9])
    (_, c1), _ = step_rnn(m, (np.zeros(3), c0), np.ones(2))
    assert c1 == pytest.approx(c0, abs=1e-12)


def test_lstm_matches_loop_oracle():
    rng = np.random.default_rng(3)
    m = lstm_bundle(5, 4, rng, scale=0.6)
    h0, c0, x = rng.normal(size=5), rng.normal(size=5), rng.normal(size=4)
    (h1, c1), pred = step_rnn(m, (h0, c0), x)

    def dot(w, a):
        return [sum(w[r][k] * a[k] for k in range(len(a))) for r in range(len(w))]

    sig = lambda v: 1 / (1 + math.exp(-v))
    cand = [math.tanh(a + b + c) for a, b, c in zip(dot(m["Wc"], x), dot(m["Uc"], h0), m["bc"])]
    f = [sig(a + b + c) for a, b, c in zip(dot(m["Wf"], x), dot(m["Uf"], h0), m["bf"])]
    i = [sig(a + b + c) for a, b, c in zip(dot(m["Wi"], x), dot(m["Ui"], h0), m["bi"])]
    o = [sig(a + b + c) for a, b, c in zip(dot(m["Wo"], x), dot(m["Uo"], h0), m["bo"])]
    c_ref = [fv * cv + iv * av for fv, cv, iv, av in zip(f, c0, i, cand)]
    h_ref = [ov * math.tanh(cv) for ov, cv in zip(o, c_ref)]
    pred_ref = [p + q for p, q in zip(dot(m["Wout"], h_ref), m["bout"])]
    assert c1 == pytest.approx(c_ref, abs=1e-12)
    assert h1 == pytest.approx(h_ref, abs=1e-12)
    assert pred == pytest.approx(pred_ref, abs=1e-12)


def test_gru_zero_parameters():
    m = gru_bundle(4, 6)
    (h1,), _ = step_rnn(m, (np.zeros(4),), np.ones(6))
    # z = r = 1/2, candidate = sigmoid(0) = 1/2, so h' = 1/4 everywhere.
    assert h1 == pytest.approx(np.full(4, 0.25))


def test_gru_update_gate_off():
    rng = np.random.default_rng(4)
    m = gru_bundle(3, 2, rng, scale=0.5)
    m.tensors["bz"] = np.full(3, -60.0)  # z ~ 0 keeps the old state
    h0 = rng.normal(size=3)
    (h1,), _ = step_rnn(m, (h0,), rng.normal(size=2))
    assert h1 == pytest.approx(h0, abs=1e-10)


def test_gru_matches_loop_oracle_and_reuses_ur():
    rng = np.random.default_rng(5)
    m = gru_bundle(4, 3, rng, scale=0.7)
    h0, x = rng.normal(size=4), rng.normal(size=3)
    (h1,), pred = step_rnn(m, (h0,), x)

    def dot(w, a):
        return [sum(w[r][k] * a[k] for k in range(len(a))) for r in range(len(w))]

    sig = lambda v: 1 / (1 + math.exp(-v))
    z = [sig(a + b + c) for a, b, c in zip(dot(m["Wz"], x), dot(m["Uz"], h0), m["bz"])]
    r = [sig(a + b + c) for a, b, c in zip(dot(m["Wr"], x), dot(m["Ur"], h0), m["br"])]
    rh = [rv * hv for rv, hv in zip(r, h0)]
    cand = [sig(a + b + c) for a, b, c in zip(dot(m["Wh"], x), dot(m["Ur"], rh), m["bh"])]
    h_ref = [(1 - zv) * hv + zv * cv for zv, hv, cv in zip(z, h0, cand)]
    assert h1 == pytest.approx(h_ref, abs=1e-12)
    assert pred == pytest.approx([p + q for p, q in zip(dot(m["Wout"], h_ref), m["bout"])], abs=1e-12)


@pytest.mark.parametrize("init", [init_lstm, init_gru])
def test_hidden_size_reads_the_last_axis(init):
    m = init(5, 6, seed=1)
    stacked = ModelBundle(m.kind, {k: np.stack([v] * 3) for k, v in m.tensors.items()})
    assert rnn_hidden_size(m) == rnn_hidden_size(stacked) == 5


def test_predict_series_zero_model_unit_norm():
    m = lstm_bundle(4, 3)
    readings = np.zeros((5, 3))
    readings[:, 0] = 1.0  # unit-norm rows
    errors = predict_series(m, readings)
    assert errors == pytest.approx(np.ones(4))


def test_predict_series_requires_two_readings():
    m = lstm_bundle(2, 3)
    with pytest.raises(ShapeError):
        predict_series(m, np.zeros((1, 3)))


@pytest.mark.parametrize("hidden", [3, 16, 33, 200])  # 200: the paper's LSTM size
@pytest.mark.parametrize("init", [init_lstm, init_gru], ids=["lstm", "gru"])
def test_batched_readout_after_loop_is_exact(init, hidden):
    # Each prediction error sees the same float operations in the same order
    # as the readout inside the step loop, so the bits must agree.
    # A trailing count reads out the kept steps only, from the same state.
    m = init(hidden, 6, seed=hidden)
    windows = np.random.default_rng(hidden).normal(size=(7, 30, 6))
    every = stepwise_readout_errors(m, windows)
    assert np.array_equal(batched_window_errors(m, windows), every)
    for n in (1, 11):
        assert np.array_equal(batched_window_errors(m, windows, n), every[:, -n:]), n


def test_every_recurrent_table_lists_the_same_kinds():
    # A recurrent kind added to only some of these tables fails here at once.
    for table in (RNN_CELLS, training._RNN_GRADS, codegen._STEP_CELLS):
        assert sorted(table) == sorted(RNN_GATES)


@pytest.mark.parametrize("init", [init_lstm, init_gru], ids=["lstm", "gru"])
def test_buffered_scorer_calls_do_not_alias(init):
    # Each call allocates its own state and cell buffers, so a second call
    # with another batch leaves the first call's result as it was.
    m = init(5, 6, seed=3)
    rng = np.random.default_rng(3)
    first, second = rng.normal(size=(4, 20, 6)), rng.normal(size=(9, 20, 6))
    errors = batched_window_errors(m, first, 6)
    kept = errors.copy()
    other = batched_window_errors(m, second, 6)
    assert np.array_equal(errors, kept) and not np.shares_memory(errors, other)
    assert np.array_equal(errors, stepwise_readout_errors(m, first)[:, -6:])
    assert np.array_equal(other, stepwise_readout_errors(m, second)[:, -6:])


def test_ocsvm_examples():
    m = ModelBundle("ocsvm", {"coef": [1.0], "sv": [[0.0, 0.0]], "rho": 0.5, "gamma": 1.0})
    anomaly, score = infer_ocsvm(m, [0.0, 0.0])
    assert not anomaly and score == pytest.approx(0.5)
    anomaly, _ = infer_ocsvm(m, [50.0, 50.0])
    assert anomaly


def test_ocsvm_matches_brute_force():
    rng = np.random.default_rng(6)
    coef = np.abs(rng.normal(size=10))
    sv = rng.normal(size=(10, 4))
    x = rng.normal(size=4)
    m = ModelBundle("ocsvm", {"coef": coef, "sv": sv, "rho": 0.3, "gamma": 0.8})
    _, score = infer_ocsvm(m, x)
    expected = sum(
        coef[i] * math.exp(-0.8 * sum((sv[i][k] - x[k]) ** 2 for k in range(4)))
        for i in range(10)
    ) - 0.3
    assert score == pytest.approx(expected, abs=1e-12)


def test_sigmoid_identities():
    xs = np.linspace(-30, 30, 101)
    assert sigmoid(xs) + sigmoid(-xs) == pytest.approx(np.ones_like(xs), abs=1e-15)
    assert np.tanh(-xs) == pytest.approx(-np.tanh(xs), abs=1e-15)


def test_shape_errors():
    m = ModelBundle("lr", {"w": [1.0, 2.0], "b": 0.0})
    with pytest.raises(ShapeError):
        infer_lr(m, [1.0])
    m = ModelBundle("kernel_svm", {"coef": [1.0, 2.0], "sv": [[1.0]], "b": 0.0, "gamma": 1.0})
    with pytest.raises(ShapeError):
        infer_svm(m, [1.0])
    m = lstm_bundle(3, 2)
    for state in ((np.zeros(3),), (np.zeros(3), np.zeros(2)), (np.zeros(2), np.zeros(3))):
        with pytest.raises(ShapeError):
            step_rnn(m, state, np.zeros(2))
    with pytest.raises(ShapeError):
        step_rnn(gru_bundle(3, 2), (np.zeros(3), np.zeros(3)), np.zeros(2))


def test_bundle_roundtrip():
    rng = np.random.default_rng(7)
    m = lstm_bundle(6, 4, rng, scale=0.5)
    back = bundle_from_bytes(bundle_to_bytes(m))
    assert back.kind == "lstm"
    assert set(back.tensors) == set(m.tensors)
    for name in m.tensors:
        assert np.array_equal(back.tensors[name], m.tensors[name])
