import copy
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sid import training
from sid.models import ModelBundle, bundle_to_bytes, infer_krr, infer_lr, infer_ocsvm, infer_svm
from sid.training import (
    TrainingError,
    bptt_workspace,
    init_lstm,
    init_mlp,
    init_rnn,
    mlp_loss_and_grads,
    rnn_loss_and_grads,
    train,
    train_krr,
    train_ocsvm,
    train_rnn,
)

from oracles import bptt_stepped, init_gru


def central_difference(loss_fn, tensors, name, eps=1e-5):
    t = tensors[name]
    grad = np.zeros_like(t)
    it = np.nditer(t, flags=["multi_index"], op_flags=["readwrite"])
    while not it.finished:
        idx = it.multi_index
        orig = t[idx]
        t[idx] = orig + eps
        up = loss_fn()
        t[idx] = orig - eps
        down = loss_fn()
        t[idx] = orig
        grad[idx] = (up - down) / (2 * eps)
        it.iternext()
    return grad


def max_rel_error(analytic, numeric):
    diff = np.abs(analytic - numeric)
    scale = np.abs(analytic) + np.abs(numeric) + 1e-8
    return float((diff / scale).max())


def blobs(n=60, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal([-2.0, -2.0], 0.4, size=(n, 2))
    b = rng.normal([2.0, 2.0], 0.4, size=(n, 2))
    X = np.vstack([a, b])
    y = np.array([0] * n + [1] * n)
    return X, y


def test_lr_separable_blobs():
    X, y = blobs()
    m = train("lr", (X, y), {"epochs": 100}, seed=1)
    preds = [infer_lr(m, x) >= 0.5 for x in X]
    assert np.mean(np.asarray(preds) == y.astype(bool)) == 1.0


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(12, 6))
    y = rng.integers(0, 2, size=12)
    m = init_mlp([6, 8, 2], seed=3)
    _, grads = mlp_loss_and_grads(m, X, y)
    for name in grads:
        numeric = central_difference(lambda: mlp_loss_and_grads(m, X, y)[0], m.tensors, name)
        assert max_rel_error(grads[name], numeric) < 1e-4


def test_mlp_trains_blobs():
    X, y = blobs(40, seed=4)
    m = train("mlp", (X, y), {"sizes": [2, 8, 2], "epochs": 120, "lr": 0.5}, seed=5)
    from sid.models import infer_mlp

    preds = [int(np.argmax(infer_mlp(m, x))) for x in X]
    assert np.mean(np.asarray(preds) == y) >= 0.95


def test_linear_and_kernel_svm_train():
    X, y = blobs(30, seed=6)
    for kind in ("linear_svm", "kernel_svm"):
        m = train(kind, (X, y), {"epochs": 60}, seed=7)
        preds = [infer_svm(m, x)[0] for x in X]
        want = np.where(y > 0, 1, -1)
        assert np.mean(np.asarray(preds) == want) == 1.0


def test_kernel_svm_prunes_zero_coefficients():
    X, y = blobs(25, seed=8)
    m = train("kernel_svm", (X, y), {"epochs": 40}, seed=9)
    assert len(m["coef"]) <= len(X) * 2
    assert np.all(np.abs(m["coef"]) > 1e-12)


def test_krr_two_points_closed_form():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([1, 0])
    m = train_krr((X, y), lam=1e-3)
    assert infer_krr(m, X[0])[0] == 1
    assert infer_krr(m, X[1])[0] == -1


def test_krr_large_lambda_shrinks_weights():
    X, y = blobs(20, seed=10)
    small = train_krr((X, y), lam=1e-3)
    large = train_krr((X, y), lam=1e6)
    assert np.linalg.norm(large["w"]) < np.linalg.norm(small["w"]) / 100


def test_ocsvm_flags_outliers():
    rng = np.random.default_rng(11)
    X = rng.normal(0, 0.5, size=(60, 3))
    m = train_ocsvm(X, gamma=0.8, nu=0.1)
    inlier_scores = [infer_ocsvm(m, x)[0] for x in X]
    assert np.mean(inlier_scores) <= 0.25  # few false anomalies
    assert infer_ocsvm(m, np.array([6.0, 6.0, 6.0]))[0]


def test_ocsvm_alpha_constraints():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(40, 2))
    m = train_ocsvm(X, gamma=0.5, nu=0.25)
    coef = m["coef"]
    assert np.all(coef >= 0)
    assert coef.sum() == pytest.approx(1.0, abs=1e-6)
    assert coef.max() <= 1.0 / (0.25 * 40) + 1e-9


@pytest.mark.parametrize("init, seeds", [(init_lstm, (15, 16)), (init_gru, (17, 18))],
                         ids=["lstm", "gru"])
def test_rnn_gradients_match_finite_differences(init, seeds):
    rng = np.random.default_rng(seeds[0])
    m = init(4, 3, seed=seeds[1])
    batch = rng.normal(size=(2, 5, 3))
    _, grads, _ = rnn_loss_and_grads(m, batch)
    assert list(grads) == list(m.tensors)
    for name in grads:  # every gate tensor, Wout and bout
        numeric = central_difference(lambda: rnn_loss_and_grads(m, batch)[0], m.tensors, name)
        assert max_rel_error(grads[name], numeric) < 1e-4


def sinusoid(T=160, dim=6, freq=1.8, rate=50.0):
    t = np.arange(T) / rate
    phases = np.linspace(0, np.pi, dim)
    return np.sin(2 * np.pi * freq * t[:, None] + phases[None, :])


def test_lstm_learns_sinusoid():
    seq = sinusoid()
    m = train_rnn("lstm", seq, hidden=16, lr=0.05, epochs=150, seed=19)
    losses = m["epoch_losses"]
    assert losses[-1] < losses[0] / 10


def test_rnn_training_deterministic():
    seq = sinusoid(T=60)
    m1 = train_rnn("lstm", seq, hidden=8, epochs=10, seed=20)
    m2 = train_rnn("lstm", seq, hidden=8, epochs=10, seed=20)
    for name in m1.tensors:
        assert np.array_equal(m1.tensors[name], m2.tensors[name])


def test_empty_dataset_rejected():
    with pytest.raises(TrainingError):
        train("lr", (np.zeros((0, 3)), np.zeros(0)))
    with pytest.raises(TrainingError):
        train_ocsvm(np.zeros((0, 3)))


@pytest.mark.parametrize("init, digest", [
    (init_lstm, "546579de2604c2554f05467f39d42be03b4a063dcf2bb884a1a68436267b888e"),
    (init_gru, "04443cab31ed0a817dce2612f18fa80f56b738bbf2b4da90a9040fc8844a020d"),
])
def test_recurrent_init_draws_are_pinned(init, digest):
    # Pure RNG draws with no BLAS: the bundle bytes pin the gate order and shapes.
    blob = bundle_to_bytes(init(5, 6, seed=2))
    assert hashlib.sha256(blob).hexdigest() == digest


# Per-model data scales: at clip 1 the smallest never reaches the
# gradient-norm clip and the largest is clipped every chunk, so one stack
# mixes both.
SCALES = (1.0, 0.05, 10.0)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
@pytest.mark.parametrize("hidden", [3, 16, 33])
@pytest.mark.parametrize("batch", [1, 7, 32])
def test_stacked_training_matches_one_model_at_a_time(kind, hidden, batch):
    # T = 45 with trunc 20 makes three chunks, so h (and c) carry across two
    # chunk boundaries in every epoch.
    rng = np.random.default_rng(hidden * 100 + batch)
    stack = np.stack([s * rng.normal(size=(batch, 45, 6)) for s in SCALES])
    stacked = train_rnn(kind, stack, hidden=hidden, epochs=3, clip=1.0, trunc=20, seed=22)
    assert len(stacked) == len(SCALES)
    for k, together in enumerate(stacked):
        alone = train_rnn(kind, stack[k], hidden=hidden, epochs=3, clip=1.0, trunc=20, seed=22)
        assert list(together.tensors) == list(alone.tensors)
        for name, want in alone.tensors.items():
            assert np.array_equal(together[name], want), (k, name)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_stacked_loss_and_grads_match_per_model_calls(kind):
    rng = np.random.default_rng(23)
    models = [train_rnn(kind, rng.normal(size=(4, 12, 6)), hidden=5, epochs=1, seed=s)
              for s in (1, 2)]
    stacked = ModelBundle(kind, {name: np.stack([m[name] for m in models])
                                 for name in models[0].tensors})
    batch = rng.normal(size=(2, 4, 9, 6))
    state = tuple(rng.normal(size=(2, 2, 4, 5))[: 2 if kind == "lstm" else 1])  # carried in
    together = rnn_loss_and_grads(stacked, batch, state)
    for k, m in enumerate(models):
        alone = rnn_loss_and_grads(m, batch[k], tuple(s[k] for s in state))
        assert together[0][k] == alone[0]
        for name, g in alone[1].items():
            assert np.array_equal(together[1][name][k], g), name
        assert len(together[2]) == len(alone[2]) == len(state)
        for got, want in zip(together[2], alone[2]):
            assert np.array_equal(got[k], want)


@pytest.mark.parametrize("kind, digest", [
    ("lstm", "5a49278dd73bfa0c2bd56f609f9475051c0979f5456fec385ed444d6477c2b8a"),
    ("gru", "a6f611539575631aca1c91b5cee6a4f7753c9e64a38802e8fa23e6ab52bb0937"),
])
def test_trained_recurrent_bundles_are_pinned(kind, digest):
    # Pins the trained bytes, epoch losses included, as the one-model trainer
    # wrote them before it gained a model axis (with this build's BLAS).
    seqs = np.stack([sinusoid(T=61, freq=f) for f in (1.2, 1.8, 2.4)])
    m = train_rnn(kind, seqs, hidden=7, epochs=4, seed=21)
    assert hashlib.sha256(bundle_to_bytes(m)).hexdigest() == digest


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kind, digest", [
    ("lstm", "6a076479be32bdd6fc66e2691915baa00247e07454d879b16550543555d1fd7c"),
    ("gru", "54fb24e323dd1d7100ce9efe8894b4b69f98566f6eecedca0a8bf62b88d07ae6"),
])
def test_stacked_clipped_chunked_training_is_pinned(kind, digest):
    # Three models at the SCALES above, clip 1 and T = 45 over chunks of 20:
    # clipping engages on some models only, and the state crosses two chunk
    # boundaries per epoch. The digest pins every last bit of the bundles.
    rng = np.random.default_rng(25)
    stack = np.stack([s * rng.normal(size=(4, 45, 6)) for s in SCALES])
    hyper = {"hidden": 5, "epochs": 3, "clip": 1.0, "trunc": 20}
    bundles = train(kind, stack, hyper, seed=26)
    blob = b"".join(bundle_to_bytes(m) for m in bundles)
    assert hashlib.sha256(blob).hexdigest() == digest


@pytest.mark.parametrize("kind, digest", [
    ("lstm", "eacbef36dae20b5ce7d819b3a0db0cf036ac88d4ee8b29f5f44ab7a1ff6b1237"),
    ("gru", "d9361ae9588f41b7f7e3de917e8733ad4773cfa8cb98f6e00dccd3961d039df7"),
])
def test_loss_and_grads_with_carried_state_are_pinned(kind, digest):
    rng = np.random.default_rng(27)
    m = init_rnn(kind, 5, 6, seed=28, scale=0.8)
    batch = rng.normal(size=(4, 9, 6))
    state = tuple(rng.normal(size=(2, 4, 5))[: 2 if kind == "lstm" else 1])  # carried in
    loss, grads, final = rnn_loss_and_grads(m, batch, state)
    arrays = [loss, *(grads[name] for name in sorted(grads)), *final]
    assert _sha256(arrays) == digest


def _same_bits(got, want):
    return np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _assert_same_results(got, want):
    """(loss, grads, final state) equal bit for bit, signs of zero included."""
    assert _same_bits(got[0], want[0])
    assert list(got[1]) == list(want[1])
    for name, g in want[1].items():
        assert _same_bits(got[1][name], g), name
    assert len(got[2]) == len(want[2])
    for a, b in zip(got[2], want[2]):
        assert _same_bits(a, b)


@pytest.mark.parametrize("shape", [(16,), (16, 1), (16, 1, 1), (16, 2), (16, 3, 2)])
def test_step_sums_add_in_loop_order_from_zero(shape):
    # Magnitudes 24 decades apart make a pairwise sum differ from the loop's
    # in about half the draws, and the loop turns -0.0 steps into +0.0.
    rng = np.random.default_rng(33)
    draws = [rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, size=shape) for _ in range(8)]
    for terms in (*draws, np.full(shape, -0.0)):
        total = np.zeros(shape[1:])
        for step in terms:
            total += step
        assert _same_bits(training._sum_steps(terms), total)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["lstm", "gru"]), hidden=st.integers(1, 40), batch=st.integers(1, 33),
       T=st.integers(2, 45), dim=st.integers(1, 8), models=st.sampled_from([(), (1,), (3,)]),
       carried=st.booleans(), scale=st.floats(0.05, 10.0), seed=st.integers(0, 1 << 16))
@example(kind="gru", hidden=1, batch=33, T=45, dim=1, models=(), carried=True, scale=10.0, seed=0)
@example(kind="lstm", hidden=1, batch=1, T=2, dim=1, models=(1,), carried=False, scale=0.05,
         seed=1)
def test_bptt_matches_the_stepped_oracle_bit_for_bit(kind, hidden, batch, T, dim, models, carried,
                                                     scale, seed):
    # The hoisted loops must reproduce every bit of the step-by-step BPTT:
    # per-step products keep their (B, K) @ (K, N) shapes, and every sum over
    # steps keeps the stepped loop's order.
    rng = np.random.default_rng(seed)
    alone = [init_rnn(kind, hidden, dim, seed=seed + k, scale=0.8) for k in range(math.prod(models))]
    m = ModelBundle(kind, {name: np.reshape([a[name] for a in alone], models + t.shape)
                           for name, t in alone[0].tensors.items()})
    batch = scale * rng.normal(size=models + (batch, T, dim))
    state = None
    if carried:
        state = tuple(rng.normal(size=batch.shape[:-2] + (hidden,)) for _ in range(1 + (kind == "lstm")))
    _assert_same_results(rnn_loss_and_grads(m, batch, state), bptt_stepped(m, batch, state))


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_training_with_a_short_last_chunk_matches_stepped_bptt(kind, monkeypatch):
    # 30 transitions in chunks of 12: the last chunk of 6 steps runs in the
    # leading rows of the workspace sized for 12.
    rng = np.random.default_rng(29)
    stack = np.stack([s * rng.normal(size=(3, 31, 6)) for s in SCALES])
    hyper = {"hidden": 6, "epochs": 2, "clip": 1.0, "trunc": 12, "seed": 30}
    hoisted = train_rnn(kind, stack, **hyper)
    monkeypatch.setattr(training, "rnn_loss_and_grads",
                        lambda m, batch, state, work: bptt_stepped(m, batch, state))
    stepped = train_rnn(kind, stack, **hyper)
    for got, want in zip(hoisted, stepped):
        assert list(got.tensors) == list(want.tensors)
        for name, t in want.tensors.items():
            assert _same_bits(got[name], t), name


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_calls_sharing_a_workspace_do_not_alias(kind):
    # Every returned array is new, so a second call in the same workspace
    # (a shorter batch, carrying the first call's final state) leaves the
    # first call's results as they were.
    rng = np.random.default_rng(31)
    m = init_rnn(kind, 5, 6, seed=32, scale=0.8)
    first, second = rng.normal(size=(4, 12, 6)), rng.normal(size=(4, 8, 6))
    state = tuple(rng.normal(size=(4, 5)) for _ in range(1 + (kind == "lstm")))
    work = bptt_workspace(m, first.shape)
    results = rnn_loss_and_grads(m, first, state, work)
    kept = copy.deepcopy(results)
    again = rnn_loss_and_grads(m, second, results[2], work)
    _assert_same_results(results, kept)
    _assert_same_results(results, rnn_loss_and_grads(m, first, state))
    _assert_same_results(again, rnn_loss_and_grads(m, second, kept[2]))


@pytest.mark.parametrize("trunc, clip", [(0, 5.0), (-5, 5.0), (20, -1.0)])
def test_train_rnn_rejects_bad_trunc_and_clip(trunc, clip):
    # trunc < 1 used to train nothing or leak range()'s ValueError, and a
    # negative clip flipped the gradient's sign.
    with pytest.raises(TrainingError, match="trunc"):
        train_rnn("lstm", sinusoid(T=30), hidden=4, epochs=1, clip=clip, trunc=trunc)
