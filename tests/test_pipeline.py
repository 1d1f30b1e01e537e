from dataclasses import replace

import numpy as np
import pytest

from sid.data import synth_user_sessions
from sid import pipeline as pipeline_module
from sid.detection import ConfusionCounts, Window, ks_reject, ks_statistic, split_by_sequence
from sid.models import ShapeError, infer_ocsvm
from sid.pipeline import (
    PIPELINES,
    IdaasConfig,
    LadConfig,
    PipelineError,
    batched_window_errors,
    evaluate_lad,
    fit_lad_model,
    run_idaas,
    run_lad,
    safe_metrics,
    validation_split,
    window_error_samples,
)
from sid.training import init_lstm, train_ocsvm

from oracles import init_gru, predict_series


def small_corpus(seed=0, freqs=(1.5, 2.2), length=700):
    return synth_user_sessions(freqs, 2, length, seed=seed, noise_std=0.05)


def test_batched_errors_match_predict_series():
    rng = np.random.default_rng(1)
    windows = rng.normal(size=(3, 12, 6))
    for init in (init_lstm, init_gru):
        m = init(5, 6, seed=2)
        batched = batched_window_errors(m, windows)
        for i in range(3):
            assert predict_series(m, windows[i]) == pytest.approx(batched[i], abs=1e-12)


@pytest.mark.parametrize("init", [init_lstm, init_gru])
@pytest.mark.parametrize("hidden", [3, 16, 33])
def test_trailing_errors_equal_the_last_columns(init, hidden):
    rng = np.random.default_rng(hidden)
    windows = rng.normal(size=(9, 30, 6))
    m = init(hidden, 6, seed=7)
    full = batched_window_errors(m, windows)
    for n in (1, 11, 29):
        assert np.array_equal(batched_window_errors(m, windows, n), full[:, -n:])
    for n in (0, 30):
        with pytest.raises(ShapeError):
            batched_window_errors(m, windows, n)


def exercise_lad(pipeline):
    cfg = LadConfig(rnn_window=120, rnn_step=60, hidden=8, epochs=10)
    rows, total = run_lad(small_corpus(), "lstm", pipeline, cfg, seed=3)
    assert len(rows) == 2
    metrics = safe_metrics(total)
    assert 0 <= float(metrics["accuracy"]) <= 1
    return float(metrics["accuracy"])


def test_run_lad_vote_smoke():
    assert exercise_lad("vote") >= 0.5


def test_run_lad_threshold_smoke():
    exercise_lad("threshold")


def test_run_lad_ocsvm_smoke():
    exercise_lad("ocsvm")


def test_lad_rejects_two_class_kind():
    cfg = LadConfig(rnn_window=120, rnn_step=60)
    with pytest.raises(PipelineError):
        run_lad(small_corpus(), "mlp", "vote", cfg, seed=0)


def test_run_lad_bundle_needs_its_user():
    cfg = LadConfig(rnn_window=120, rnn_step=60)
    with pytest.raises(PipelineError):
        run_lad(small_corpus(), "lstm", "vote", cfg, seed=0, bundle=init_lstm(4, 6))


def test_fit_lad_model_threshold_is_quantile():
    cfg = LadConfig(rnn_window=120, rnn_step=60, hidden=8, epochs=5)
    train_w, _ = split_by_sequence(small_corpus(), 0.5, 0, 120, 60)
    own = [w for w in train_w if w.user == 1]
    model = fit_lad_model(1, own, "lstm", cfg, seed=4)
    assert model.mean_threshold > 0
    assert model.ref_samples.shape[1] == cfg.ks.window_errors


def test_run_idaas_mlp():
    corpus = small_corpus(length=400)
    cfg = IdaasConfig(step=16, epochs=30)
    rows, total = run_idaas(corpus, "mlp", cfg, seed=5)
    metrics = safe_metrics(total)
    assert float(metrics["accuracy"]) > 0.8  # distinct users separate easily


def test_run_idaas_rejects_one_class_kind():
    with pytest.raises(PipelineError):
        run_idaas(small_corpus(length=300), "lstm", IdaasConfig(), seed=0)


def test_fit_lad_model_scores_validation_windows_once(monkeypatch):
    rng = np.random.default_rng(4)
    windows = [Window(0, 0, 0, w) for w in rng.normal(size=(8, 50, 6))]
    cfg = LadConfig(rnn_window=50, hidden=4)
    calls = []
    real = pipeline_module.window_error_samples
    monkeypatch.setattr(
        pipeline_module, "window_error_samples",
        lambda *a: calls.append(a) or real(*a),
    )
    bundle = init_lstm(4, 6, seed=5)
    model = fit_lad_model(0, windows, "lstm", cfg, seed=6, bundle=bundle)
    assert len(calls) == 1  # references and threshold share one forward
    val = np.stack([w.data for w in windows[-3:]])
    want = real(bundle, val, cfg.ks.window_errors)
    assert np.array_equal(model.pool, want)
    assert model.mean_threshold == float(
        np.quantile(want.mean(axis=1), cfg.threshold_quantile)
    )


def separate_group_counts(model, test_windows, pipeline):
    """evaluate_lad's counts as owner and impostor windows scored apart, with
    one decision per window by the threshold, vote or one-class SVM rule."""
    ks = model.cfg.ks
    n = ks.window_errors
    feature_rows = [ks_statistic(w, model.ref_samples) for w in model.pool]
    svm = train_ocsvm(np.array(feature_rows), gamma=2.0, nu=0.1)
    counts = ConfusionCounts()
    for impostor in (False, True):
        rows = [w.data for w in test_windows if (w.user != model.user) == impostor]
        for errors in pipeline_module.window_error_samples(model.bundle, np.stack(rows), n):
            features = ks_statistic(errors, model.ref_samples)
            if pipeline == "threshold":
                flagged = errors.mean() > model.mean_threshold
            elif pipeline == "vote":
                rejections = [ks_reject(d, n, n, ks) for d in features]
                flagged = sum(rejections) >= len(rejections) / 2
            else:
                flagged = infer_ocsvm(svm, features)[0]
            counts = counts + ConfusionCounts.tally([impostor], [flagged])
    return counts


@pytest.fixture(scope="module", params=["lstm", "gru"])
def lad_models(request):
    """(models per owner, test windows) for a kind trained on small_corpus."""
    cfg = LadConfig(rnn_window=120, rnn_step=60, hidden=8, epochs=10)
    train_w, test_w = split_by_sequence(small_corpus(), 0.5, 3, 120, 60)
    owners = sorted({w.user for w in train_w})
    models = [
        fit_lad_model(u, [w for w in train_w if w.user == u], request.param, cfg, seed=3)
        for u in owners
    ]
    return models, test_w


def one_pass_errors(model, test_windows):
    """Every test window's error samples under the owner's model, in one pass."""
    test_data = np.stack([w.data for w in test_windows])
    return window_error_samples(model.bundle, test_data, model.cfg.ks.window_errors)


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_evaluate_lad_scores_test_windows_in_one_pass(lad_models, pipeline):
    models, test_w = lad_models
    want = [separate_group_counts(model, test_w, pipeline) for model in models]
    got = [evaluate_lad(model, test_w, one_pass_errors(model, test_w), pipeline) for model in models]
    assert got == want


def three_owner_corpus():
    """Users 1 and 2 fit on 6 windows and validate on 4; user 3's shorter
    sequences fit on 5 and validate on 2."""
    return [
        s if s.user != 3 else replace(s, readings=s.readings[:520])
        for s in synth_user_sessions((1.5, 1.9, 2.3), 2, 700, seed=8, noise_std=0.05)
    ]


def per_owner_rows(corpus, kind, pipeline, cfg, seed):
    """run_lad's rows from fit_lad_model per owner and a separate pass over the test windows."""
    train_w, test_w = split_by_sequence(corpus, cfg.train_fraction, seed, cfg.rnn_window,
                                        cfg.rnn_step)
    rows = []
    for owner in sorted({w.user for w in train_w}):
        model = fit_lad_model(owner, [w for w in train_w if w.user == owner], kind, cfg, seed)
        counts = evaluate_lad(model, test_w, one_pass_errors(model, test_w), pipeline)
        rows.append({"user": owner, "model": kind, "pipeline": pipeline, **safe_metrics(counts)})
    return rows


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_run_lad_trains_once_per_shape_group(kind, monkeypatch):
    corpus = three_owner_corpus()
    cfg = LadConfig(rnn_window=120, rnn_step=60, hidden=6, epochs=4)
    want = per_owner_rows(corpus, kind, "vote", cfg, 9)
    shapes = []
    real = pipeline_module.train
    monkeypatch.setattr(
        pipeline_module, "train",
        lambda kind, data, *a, **kw: shapes.append(data.shape) or real(kind, data, *a, **kw),
    )
    rows, _ = run_lad(corpus, kind, "vote", cfg, seed=9)
    assert sorted(shapes) == [(1, 5, 120, 6), (2, 6, 120, 6)]
    assert rows == want


@pytest.mark.parametrize("hidden", [16, 33])
@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_run_lad_scores_each_owner_in_one_pass(kind, hidden, monkeypatch):
    corpus = three_owner_corpus()
    cfg = LadConfig(rnn_window=120, rnn_step=60, hidden=hidden, epochs=2)
    train_w, test_w = split_by_sequence(corpus, cfg.train_fraction, 9, 120, 60)
    n_test = len(test_w)
    for pipeline in PIPELINES:
        want = per_owner_rows(corpus, kind, pipeline, cfg, 9)
        scored = []

        def recording(m, windows, n):
            scored.append(windows)
            return window_error_samples(m, windows, n)

        monkeypatch.setattr(pipeline_module, "window_error_samples", recording)
        rows, _ = run_lad(corpus, kind, pipeline, cfg, seed=9)
        monkeypatch.undo()
        assert rows == want
        # One forward per owner: its validation windows, then every test window.
        assert [len(windows) for windows in scored] == [4 + n_test, 4 + n_test, 2 + n_test]
        for owner, windows in zip((1, 2, 3), scored):
            val = validation_split([w for w in train_w if w.user == owner], cfg)[1]
            assert np.array_equal(windows, np.stack([w.data for w in val + test_w]))


def test_run_lad_splits_each_owner_once(monkeypatch):
    corpus = three_owner_corpus()
    cfg = LadConfig(rnn_window=120, rnn_step=60, hidden=4, epochs=1)
    split = []
    real = pipeline_module.validation_split
    monkeypatch.setattr(
        pipeline_module, "validation_split",
        lambda windows, cfg: split.append(windows[0].user) or real(windows, cfg),
    )
    run_lad(corpus, "lstm", "vote", cfg, seed=9)
    assert sorted(split) == [1, 2, 3]
    split.clear()
    run_lad(corpus, "gru", "ocsvm", cfg, seed=9, bundle=init_gru(4, 6), user=2)
    assert split == [2]


def test_run_lad_rejects_an_unknown_pipeline_before_training(monkeypatch):
    trained = []
    monkeypatch.setattr(pipeline_module, "train", lambda *args, **kwargs: trained.append(args))
    with pytest.raises(PipelineError, match="^unknown pipeline 'bogus'$"):
        run_lad(small_corpus(), "lstm", "bogus", LadConfig(rnn_window=120, rnn_step=60), seed=0)
    assert trained == []
