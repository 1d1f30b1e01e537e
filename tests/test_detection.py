import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from sid.detection import (
    ConfusionCounts,
    DetectionError,
    KsDecisionConfig,
    MetricError,
    Ped,
    build_ped,
    combined_score,
    confusion_metrics,
    format_report,
    ks_hardware,
    ks_reject,
    ks_statistic,
    make_windows,
    split_by_sequence,
    vote_decide,
)


@dataclass
class Seq:
    user: int
    seq: int
    readings: np.ndarray


def brute_force_ks(a, b):
    """Independent oracle: evaluate both ECDFs at every merged point."""
    pts = sorted(set(list(a) + list(b)))
    best = 0.0
    for x in pts:
        fa = sum(1 for v in a if v <= x) / len(a)
        fb = sum(1 for v in b if v <= x) / len(b)
        best = max(best, abs(fa - fb))
    return best


def test_make_windows_counts():
    assert len(make_windows(np.zeros((100, 6)))) == 10  # floor((100-64)/4)+1
    assert len(make_windows(np.zeros((64, 6)))) == 1
    assert len(make_windows(np.zeros((63, 6)))) == 0


def test_make_windows_rejects_non_positive_length_or_step():
    for window_len, step in ((0, 4), (64, 0), (64, -5), (-1, 1)):
        with pytest.raises(DetectionError):
            make_windows(np.zeros((100, 6)), window_len, step)


def test_ks_config_rejects_empty_counts():
    for field_name in ("refs", "window_errors", "bins"):
        with pytest.raises(DetectionError):
            KsDecisionConfig(**{field_name: 0})


def test_make_windows_offsets():
    seq = np.arange(80)
    windows = make_windows(seq, window_len=64, step=4)
    assert windows[1][0] == 4 and windows[2][0] == 8


def test_make_windows_are_read_only_views():
    seq = np.arange(120.0).reshape(20, 6)
    windows = make_windows(seq, window_len=8, step=3)
    assert all(np.shares_memory(w, seq) for w in windows)
    assert np.array_equal(windows[2], seq[6:14])
    with pytest.raises(ValueError):
        windows[0][0, 0] = 1.0
    assert seq.flags.writeable
    seq[0, 0] = -1.0  # the caller's array stays writeable, and the views see the write
    assert windows[0][0, 0] == -1.0


def test_split_by_sequence():
    rng = np.random.default_rng(0)
    seqs = [Seq(u, s, rng.normal(size=(70, 6))) for u in (1, 2) for s in (0, 1)]
    train, test = split_by_sequence(seqs, 0.5, seed=1)
    train_srcs = {(w.user, w.seq) for w in train}
    test_srcs = {(w.user, w.seq) for w in test}
    assert train_srcs.isdisjoint(test_srcs)
    assert {u for u, _ in train_srcs} == {1, 2} == {u for u, _ in test_srcs}
    again = split_by_sequence(seqs, 0.5, seed=1)
    assert [(w.user, w.seq, w.start) for w in again[0]] == [
        (w.user, w.seq, w.start) for w in train
    ]


def test_split_single_sequence_user_fails():
    seqs = [Seq(7, 0, np.zeros((70, 6)))]
    with pytest.raises(DetectionError, match="7"):
        split_by_sequence(seqs, 0.5, seed=0)


def test_split_needs_a_window_on_each_side():
    rng = np.random.default_rng(0)
    seqs = [Seq(u, s, rng.normal(size=(70, 6))) for u in (1, 2) for s in (0, 1)]
    train_srcs = {(w.user, w.seq) for w in split_by_sequence(seqs, 0.5, seed=1)[0]}
    for side, long_side_is_train in (("train", False), ("test", True)):
        cut = [Seq(s.user, s.seq, s.readings if ((s.user, s.seq) in train_srcs) == long_side_is_train
                   else s.readings[:63]) for s in seqs]
        with pytest.raises(DetectionError, match=f"no {side} sequence.*64-reading window"):
            split_by_sequence(cut, 0.5, seed=1)


def test_build_ped_hand_counts():
    ped = build_ped([1.0, 2.0, 3.0, 4.0], bins=4)
    assert list(ped.boundaries) == [1.0, 2.0, 3.0, 4.0]
    assert list(ped.counts) == [1, 2, 3, 4]
    assert ped.n == 4


def test_build_ped_degenerate_ladder():
    ped = build_ped([2.0] * 10, bins=4)
    assert np.all(np.diff(ped.boundaries) > 0)
    assert ped.counts[-1] == 10


def test_build_ped_invariants_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        errors = rng.exponential(size=rng.integers(1, 100))
        bins = int(rng.integers(1, 20))
        ped = build_ped(errors, bins)
        assert np.all(np.diff(ped.counts) >= 0)
        assert ped.counts[-1] == ped.n


def test_ped_validation():
    with pytest.raises(DetectionError):
        Ped(boundaries=[1.0, 1.0], counts=[1, 2], n=2)
    with pytest.raises(DetectionError):
        Ped(boundaries=[1.0, 2.0], counts=[2, 1], n=2)


def test_ks_statistic_examples():
    assert ks_statistic([1, 2, 3], [1, 2, 3]) == 0.0
    assert ks_statistic([1, 2], [3, 4]) == 1.0
    # ECDF steps at 1,2,3,4: max gap is 1/2.
    assert ks_statistic([1, 3], [2, 4]) == 0.5


def test_ks_statistic_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.normal(size=rng.integers(1, 30))
        b = rng.normal(loc=rng.uniform(-1, 1), size=rng.integers(1, 30))
        assert ks_statistic(a, b) == pytest.approx(brute_force_ks(a, b), abs=1e-12)


def test_ks_statistic_symmetry_and_range():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.normal(size=10)
        b = rng.normal(size=17)
        d = ks_statistic(a, b)
        assert 0.0 <= d <= 1.0
        assert d == ks_statistic(b, a)


def test_ks_reject_threshold():
    cfg = KsDecisionConfig()
    # 1.358 * sqrt(80/1600) = 0.3036...: D = 1 rejects, D = 0 never does.
    assert ks_reject(1.0, 40, 40, cfg)
    assert not ks_reject(0.0, 40, 40, cfg)
    threshold = 1.358 * math.sqrt(2 / 40)
    assert not ks_reject(threshold, 40, 40, cfg)  # strict inequality
    assert ks_reject(threshold + 1e-12, 40, 40, cfg)


def test_ks_hardware_self_comparison_is_zero():
    rng = np.random.default_rng(5)
    errors = rng.exponential(size=40)
    ped = build_ped(errors, bins=16)
    d, reject = ks_hardware(ped, errors, KsDecisionConfig())
    assert d == 0 and not reject


def test_ks_hardware_extreme_shift():
    errors = np.linspace(0.0, 1.0, 40)
    ped = build_ped(errors, bins=16)
    observed = errors + 100.0  # everything above the last boundary
    d, reject = ks_hardware(ped, observed, KsDecisionConfig())
    assert d == 40 and reject


def test_ks_hardware_equals_boundary_restricted_software():
    rng = np.random.default_rng(6)
    cfg = KsDecisionConfig()
    for _ in range(300):
        ref = rng.exponential(size=40)
        obs = rng.exponential(scale=rng.uniform(0.5, 2.0), size=40)
        ped = build_ped(ref, bins=16)
        d_count, _ = ks_hardware(ped, obs, cfg)
        # Independent counting loop restricted to the boundaries.
        best = 0
        for j, b in enumerate(ped.boundaries):
            oc = sum(1 for e in obs if e <= b)
            best = max(best, abs(int(ped.counts[j]) - oc))
        assert d_count == best


def test_ks_hardware_size_mismatch():
    ped = build_ped(np.arange(40.0), bins=16)
    with pytest.raises(DetectionError, match="39"):
        ks_hardware(ped, np.arange(39.0), KsDecisionConfig())


def test_vote_decide():
    cfg = KsDecisionConfig(refs=20)
    assert vote_decide([True] * 12 + [False] * 8, cfg)
    assert not vote_decide([False] * 20, cfg)
    assert vote_decide([True] * 10 + [False] * 10, cfg)  # half is inclusive


def test_vote_decide_stacked_rows_match_single_rows():
    cfg = KsDecisionConfig(refs=20)
    rows = np.random.default_rng(3).random((3, 4, 20)) < 0.5
    rows[1, 2] = [True] * 10 + [False] * 10  # exactly half
    got = vote_decide(rows, cfg)
    assert got.shape == (3, 4)
    assert got[1, 2]
    assert got.tolist() == [[vote_decide(r, cfg) for r in block] for block in rows]
    assert type(vote_decide(rows[0, 0], cfg)) is bool


def test_vote_monotone():
    cfg = KsDecisionConfig(refs=20)
    rng = np.random.default_rng(7)
    for _ in range(100):
        votes = list(rng.random(20) < 0.5)
        base = vote_decide(votes, cfg)
        for i in range(20):
            if not votes[i]:
                flipped = list(votes)
                flipped[i] = True
                assert vote_decide(flipped, cfg) >= base


def test_confusion_metrics_formulas():
    c = ConfusionCounts(tp=5, fp=2, tn=8, fn=5)
    m = confusion_metrics(c)
    assert m["tnr"] == Fraction(8, 10)
    assert m["tpr"] == Fraction(5, 10)
    assert m["accuracy"] == Fraction(13, 20)
    assert m["precision"] == Fraction(5, 7)
    assert m["recall"] == m["tpr"]
    # Exact rational identities.
    assert m["tnr"] * (c.tn + c.fp) == c.tn
    assert m["tpr"] * (c.tp + c.fn) == c.tp


def test_f1_equals_precision_when_balanced():
    c = ConfusionCounts(tp=6, fp=2, tn=10, fn=2)  # precision == recall == 3/4
    m = confusion_metrics(c)
    assert m["precision"] == m["recall"] == m["f1"]


def test_accuracy_identity_balanced_classes():
    rng = np.random.default_rng(9)
    for _ in range(100):
        total = int(rng.integers(2, 200))
        tp = int(rng.integers(0, total + 1))
        tn = int(rng.integers(0, total + 1))
        c = ConfusionCounts(tp=tp, fn=total - tp, tn=tn, fp=total - tn)
        if tp == 0:
            continue
        m = confusion_metrics(c)
        assert m["accuracy"] == (m["tnr"] + m["tpr"]) / 2


def test_metrics_errors_name_metric():
    with pytest.raises(MetricError, match="TNR"):
        confusion_metrics(ConfusionCounts(tp=1, fn=1))
    with pytest.raises(MetricError, match="TPR"):
        confusion_metrics(ConfusionCounts(tn=1, fp=1))


@pytest.mark.parametrize("fp", [0, 3])
def test_no_impostor_caught_scores_zero_precision_and_f1(fp):
    m = confusion_metrics(ConfusionCounts(tp=0, fp=fp, tn=5, fn=4))
    assert m["precision"] == m["f1"] == m["tpr"] == 0
    assert m["tnr"] == Fraction(5, 5 + fp)
    assert m["accuracy"] == Fraction(5, 9 + fp)


def test_combined_score_single_model():
    assert combined_score([(0.1, 0.2, 3.0, 4.0)]) == [pytest.approx(1.0)]


def test_combined_score_dominant_model_wins():
    rows = [(0.1, 0.1, 1.0, 1.0), (0.2, 0.3, 2.0, 5.0)]
    scores = combined_score(rows)
    assert scores[0] > scores[1]


def test_combined_score_one_class_table_row():
    # Normalized penalty table for the one-class detectors under equal
    # weights; the first row's combined score rounds to 0.36.
    rows = [
        (3.06, 6.03, 1.00, 1.00),  # one-class SVM row
        (3.37, 5.54, 1.32, 2.78),
        (1.00, 4.36, 1.87, 2.82),
        (1.98, 1.00, 1.84, 2.81),
    ]
    scores = combined_score(rows)
    assert round(scores[0], 2) == 0.36


def test_combined_score_monotone_decreasing():
    base = [(0.2, 0.2, 2.0, 2.0), (0.3, 0.4, 3.0, 4.0)]
    s0 = combined_score(base)[1]
    for dim in range(4):
        worse = [list(r) for r in base]
        worse[1][dim] *= 1.5
        assert combined_score([tuple(r) for r in worse])[1] < s0


def test_combined_score_validation():
    with pytest.raises(MetricError, match="sum to 2"):
        combined_score([(1, 1, 1, 1)], weights=(1, 1, 1, 1))
    with pytest.raises(MetricError, match="positive"):
        combined_score([(0.0, 1, 1, 1)])


def test_format_report():
    rows = [
        {
            "user": 1,
            "model": "lstm",
            "pipeline": "vote",
            "tnr": Fraction(9, 10),
            "tpr": Fraction(4, 5),
            "accuracy": Fraction(17, 20),
            "precision": Fraction(8, 9),
            "recall": Fraction(4, 5),
            "f1": Fraction(64, 76),
        }
    ]
    text = format_report(rows, summary={"seed": 1, "windows": 40})
    assert text.splitlines()[0].startswith("user,model,pipeline,tnr")
    assert "0.900000" in text
    assert "seed=1" in text and "windows=40" in text
