"""End-to-end detection pipelines over user sequences.

Two scenarios: two-class classification trained with other users' data
(subscription service), and one-class local detection trained on the owner's
data only. The one-class pipelines score windows by next-step prediction
errors of a per-user recurrent model and decide via a mean-error threshold, a
KS majority vote against reference error distributions, or a one-class SVM
over the KS feature vector.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .detection import (
    ConfusionCounts,
    KsDecisionConfig,
    confusion_metrics,
    ks_reject,
    ks_statistic,
    split_by_sequence,
    vote_decide,
)
from .models import (
    ModelBundle, batched_window_errors, infer_krr, infer_lr, infer_mlp, infer_ocsvm, infer_svm,
)
from .data import krr_features
from .training import train, train_ocsvm

TWO_CLASS_KINDS = ("lr", "linear_svm", "kernel_svm", "krr", "mlp")
ONE_CLASS_KINDS = ("lstm", "gru", "ocsvm")
LAD_KINDS = ("lstm", "gru")  # local detection trains one recurrent model per user
PIPELINES = ("vote", "ocsvm", "threshold")
# The training settings each model kind reads; any other leaves its bundle as is.
KIND_SETTINGS = {
    "lstm": ("seed", "hidden", "epochs", "lr"),
    "gru": ("seed", "hidden", "epochs", "lr"),
    "mlp": ("seed", "hidden", "epochs"),
    "lr": ("seed", "epochs"),
    "linear_svm": ("seed", "epochs"),
    "kernel_svm": ("seed", "epochs"),
    "krr": (),
    "ocsvm": (),
}


class PipelineError(ValueError):
    pass


# `bench/workloads.py` still reads the old name.
safe_metrics = confusion_metrics


@dataclass(frozen=True)
class LadConfig:
    rnn_window: int = 200  # readings per detection window
    rnn_step: int = 100
    hidden: int = 16
    epochs: int = 40
    lr: ClassVar[float] = 0.05
    train_fraction: ClassVar[float] = 0.5
    validation_fraction: float = 0.35  # tail of the train windows; references come from it
    threshold_quantile: ClassVar[float] = 0.95
    ks: KsDecisionConfig = field(default_factory=KsDecisionConfig)


# ---------------------------------------------------------------------------
# Training data and hyperparameters, per model kind
# ---------------------------------------------------------------------------

def window_features(kind: str, windows) -> np.ndarray:
    """A two-class model's input rows: DFT features for krr, flat readings otherwise."""
    if kind == "krr":
        return np.stack([krr_features(w.data) for w in windows])
    return np.stack([w.data.reshape(-1) for w in windows])


def training_sets(kind: str, windows, users) -> dict:
    """user -> the dataset `train` takes for that user's model of `kind`.

    lstm/gru train on the owner's stacked windows and ocsvm on their flat
    readings; the two-class kinds train on the features of every window, one
    array shared by all users, with label 1 for another user's window.
    """
    present = {w.user for w in windows}
    for user in users:
        if user not in present:
            raise PipelineError(f"user {user!r} has no training window")
    if kind in ONE_CLASS_KINDS:
        own = {user: np.stack([w.data for w in windows if w.user == user]) for user in users}
        if kind == "ocsvm":
            return {user: x.reshape(len(x), -1) for user, x in own.items()}
        return own
    feats = window_features(kind, windows)
    return {user: (feats, np.array([int(w.user != user) for w in windows])) for user in users}


def train_hyper(kind: str, dataset, epochs=None, hidden=None, lr=None) -> dict:
    """The `train` overrides for `kind` from the settings it reads (KIND_SETTINGS).

    A setting left None keeps the trainer's default; an epochs or hidden
    below 1 or an lr not above 0 is an error. mlp turns `hidden` into its
    layer sizes.
    """
    given = {"epochs": epochs, "hidden": hidden, "lr": lr}
    hyper = {k: v for k, v in given.items() if k in KIND_SETTINGS[kind] and v is not None}
    for name in ("epochs", "hidden"):
        if hyper.get(name, 1) < 1:
            raise PipelineError(f"{name} must be at least 1, got {hyper[name]}")
    if not hyper.get("lr", 1.0) > 0:
        raise PipelineError(f"lr must be above 0, got {hyper['lr']}")
    if kind == "mlp" and "hidden" in hyper:
        feats, _ = dataset
        hyper["sizes"] = [feats.shape[1], hyper.pop("hidden"), 2]
    return hyper


def train_user_model(kind: str, windows, user, seed: int = 0, epochs: int = LadConfig.epochs,
                     hidden: int = LadConfig.hidden, lr: float = LadConfig.lr) -> ModelBundle:
    """Train `user`'s model of `kind` on all their `windows`, for `sid train`."""
    dataset = training_sets(kind, windows, [user])[user]
    return train(kind, dataset, train_hyper(kind, dataset, epochs, hidden, lr), seed=seed)


def window_error_samples(m: ModelBundle, windows, n_errors: int) -> np.ndarray:
    """The last n_errors prediction errors of each window, (B, n_errors).

    Kept apart from batched_window_errors as the traced boundary that counts
    the windows local detection scores.
    """
    return batched_window_errors(m, windows, n_errors)


@dataclass
class LadModel:
    """A trained per-user detector with its references and thresholds."""

    user: object
    bundle: ModelBundle
    pool: np.ndarray  # (windows, n_errors): the reference pool's error samples
    ref_samples: np.ndarray  # (refs, n_errors), drawn from the pool
    mean_threshold: float
    cfg: LadConfig

    @classmethod
    def from_pool(cls, user, bundle: ModelBundle, pool: np.ndarray, cfg: LadConfig,
                  seed: int) -> "LadModel":
        """The detector whose references and mean-error threshold come from
        `pool`, the error samples of the owner's validation windows."""
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(pool), size=min(cfg.ks.refs, len(pool)), replace=False)
        mean_threshold = float(np.quantile(pool.mean(axis=1), cfg.threshold_quantile))
        return cls(user, bundle, pool, pool[np.sort(picks)], mean_threshold, cfg)

    def ks_features(self, windows: np.ndarray) -> np.ndarray:
        """(windows, refs): each window's KS statistic against each reference sample."""
        return ks_statistic(windows, self.ref_samples)

    @cached_property
    def ocsvm(self) -> ModelBundle:
        """One-class SVM over the pool's KS feature vectors, fit on first use."""
        return train_ocsvm(self.ks_features(self.pool), gamma=2.0, nu=0.1)

    def decide(self, windows: np.ndarray, pipeline: str) -> np.ndarray:
        """One flag per row of (windows, n_errors); True = anomaly (impostor)."""
        if pipeline == "threshold":
            return windows.mean(axis=1) > self.mean_threshold
        if pipeline == "vote":
            n = self.cfg.ks.window_errors
            rejections = ks_reject(self.ks_features(windows), n, n, self.cfg.ks)
            return vote_decide(rejections, self.cfg.ks)
        if pipeline == "ocsvm":
            return infer_ocsvm(self.ocsvm, self.ks_features(windows))[0]
        raise PipelineError(f"unknown pipeline {pipeline!r}")


def validation_split(windows, cfg: LadConfig) -> tuple[list, list]:
    """(fit, validation): an owner's windows before and in the validation tail.

    The tail holds validation_fraction of the windows, at least one, and
    leaves at least one to fit when there are two or more.
    """
    n_val = max(int(round(cfg.validation_fraction * len(windows))), 1)
    n_val = min(n_val, len(windows) - 1) if len(windows) > 1 else 1
    return windows[: len(windows) - n_val], windows[len(windows) - n_val :]


def train_lad_bundles(kind: str, fit_windows: dict, cfg: LadConfig, seed: int) -> dict:
    """owner -> recurrent bundle trained on the owner's fit windows (validation_split).

    Owners whose training stacks share a shape train in one `train` call,
    their models on a leading axis, each bit-identical to training that
    owner alone. Groups are never padded: another batch size can change the
    last bits of the matrix products.
    """
    groups = defaultdict(dict)  # training-stack shape -> owner -> stack
    for owner, windows in fit_windows.items():
        stack = training_sets(kind, windows, [owner])[owner]
        groups[stack.shape][owner] = stack
    bundles = {}
    for stacks in groups.values():
        group = np.stack(list(stacks.values()))
        hyper = train_hyper(kind, group, cfg.epochs, cfg.hidden, cfg.lr)
        bundles.update(zip(stacks, train(kind, group, hyper, seed=seed)))
    return bundles


def _lad_detectors(kind: str, owner_windows: dict, test_w: list, cfg: LadConfig, seed: int,
                   bundle: ModelBundle | None = None):
    """Yield (LadModel, test windows' error samples) per owner in `owner_windows`.

    Each owner's windows are split once; the fit windows train every bundle
    (train_lad_bundles) unless the single owner's `bundle` is given. One
    forward pass per owner scores its validation tail, whose rows give the
    references and threshold, and then every test window.
    """
    if kind not in LAD_KINDS:
        raise PipelineError("local detection trains an lstm or gru per user")
    if bundle is not None and bundle.kind != kind:
        raise PipelineError(f"bundle kind {bundle.kind!r} does not match {kind!r}")
    n = cfg.ks.window_errors
    length = len(next(iter(owner_windows.values()))[0].data)
    if length - 1 < n:
        raise PipelineError(f"windows yield {length - 1} errors, need {n}")
    splits = {owner: validation_split(windows, cfg) for owner, windows in owner_windows.items()}
    if bundle is None:
        bundles = train_lad_bundles(kind, {o: fit for o, (fit, _) in splits.items()}, cfg, seed)
    else:
        bundles = dict.fromkeys(splits, bundle)
    for owner, (_, val) in splits.items():
        errors = window_error_samples(bundles[owner], np.stack([w.data for w in val + test_w]), n)
        model = LadModel.from_pool(owner, bundles[owner], errors[: len(val)], cfg, seed)
        yield model, errors[len(val) :]


def fit_lad_model(user, windows, kind: str, cfg: LadConfig, seed: int,
                  bundle: ModelBundle | None = None) -> LadModel:
    """The user's detector from their windows alone (_lad_detectors, no test windows).

    Passing a pre-trained bundle skips training but still derives the
    references and thresholds from this user's windows.
    """
    model, _ = next(_lad_detectors(kind, {user: windows}, [], cfg, seed, bundle))
    return model


def evaluate_lad(model: LadModel, test_windows, errors: np.ndarray,
                 pipeline: str) -> ConfusionCounts:
    """Owner windows are negatives; every other user's windows are positives.

    `errors` holds the test windows' error samples under the owner's model,
    one row per window; one `decide` flags them all.
    """
    impostor = [w.user != model.user for w in test_windows]
    return ConfusionCounts.tally(impostor, model.decide(errors, pipeline))


def run_lad(sequences, kind: str, pipeline: str, cfg: LadConfig, seed: int,
            bundle: ModelBundle | None = None, user=None):
    """Per-user one-class evaluation; returns (report rows, aggregate counts).

    `user` restricts the evaluation to that owner's detector, and `bundle`,
    which needs a `user`, is that owner's pre-trained model. Each owner is
    split, fit and scored once (_lad_detectors, the path fit_lad_model
    takes), and owners whose training stacks share a shape train together.
    """
    if bundle is not None and user is None:
        raise PipelineError("a pre-trained bundle needs the user it belongs to")
    if pipeline not in PIPELINES:
        raise PipelineError(f"unknown pipeline {pipeline!r}")
    train_w, test_w = split_by_sequence(
        sequences, cfg.train_fraction, seed, cfg.rnn_window, cfg.rnn_step
    )
    users = sorted({w.user for w in train_w}, key=str)
    if user is not None:
        if user not in users:
            raise PipelineError(f"user {user!r} not present in the data")
        users = [user]
    own = {owner: [w for w in train_w if w.user == owner] for owner in users}
    rows = []
    total = ConfusionCounts()
    for model, errors in _lad_detectors(kind, own, test_w, cfg, seed, bundle):
        counts = evaluate_lad(model, test_w, errors, pipeline)
        total = total + counts
        rows.append({"user": model.user, "model": kind, "pipeline": pipeline,
                     **confusion_metrics(counts)})
    return rows, total


# ---------------------------------------------------------------------------
# Two-class scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdaasConfig:
    window_len: int = 64
    step: int = 4
    train_fraction: ClassVar[float] = 0.5
    epochs: int = 40


def _idaas_predict(kind: str, bundle: ModelBundle, feats: np.ndarray) -> np.ndarray:
    if kind == "lr":
        return np.array([infer_lr(bundle, f) >= 0.5 for f in feats])
    if kind in ("linear_svm", "kernel_svm"):
        return np.array([infer_svm(bundle, f)[0] > 0 for f in feats])
    if kind == "krr":
        return np.array([infer_krr(bundle, f)[0] > 0 for f in feats])
    if kind == "mlp":
        return np.array([int(np.argmax(infer_mlp(bundle, f))) == 1 for f in feats])
    raise PipelineError(f"unknown two-class kind {kind!r}")


def run_idaas(sequences, kind: str, cfg: IdaasConfig, seed: int):
    """Per-user two-class evaluation: own windows vs all other users' windows."""
    if kind not in TWO_CLASS_KINDS:
        raise PipelineError(f"{kind!r} is not a two-class model kind")
    train_w, test_w = split_by_sequence(
        sequences, cfg.train_fraction, seed, cfg.window_len, cfg.step
    )
    users = sorted({w.user for w in train_w}, key=str)
    datasets = training_sets(kind, train_w, users)
    feats_test = window_features(kind, test_w)
    rows = []
    total = ConfusionCounts()
    for user in users:
        dataset = datasets[user]
        bundle = train(kind, dataset, train_hyper(kind, dataset, cfg.epochs), seed=seed)
        predicted = _idaas_predict(kind, bundle, feats_test)
        counts = ConfusionCounts.tally([w.user != user for w in test_w], predicted)
        total = total + counts
        rows.append({"user": user, "model": kind, "pipeline": "idaas", **confusion_metrics(counts)})
    return rows, total
