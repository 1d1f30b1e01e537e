"""The traced benchmark run patches `sid` attributes by name; a rename in the
program that drops one of them would break that run, so check every name
here, and check that a small `sid detect` still enters the layers whose
spans feed the per-layer metrics. Only reads `bench/tracing.py`."""

import importlib.util
from pathlib import Path

from sid.cli import main

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_exists():
    boundaries = load_tracing()._layer_boundaries()
    assert boundaries
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in boundaries
        if attr not in owner.__dict__
    ]
    assert missing == []


def detect_spans(tmp_path, *extra):
    """The span names one traced `sid detect --scenario lad` call records."""
    tracing = load_tracing()
    tracer = tracing.Tracer(True)
    with tracing.layer_spans(tracer):
        assert main(["detect", "--scenario", "lad", "--data", str(tmp_path / "synth"),
                     "--window", "120", "--step", "60", *extra,
                     "--out", str(tmp_path / "report.csv")]) == 0
    return {name for name, *_ in tracer.spans}


def test_detect_records_every_lad_layer(tmp_path):
    assert main(["gen-data", "--users", "2", "--seqs", "2", "--length", "500", "--seed", "5",
                 "--out", str(tmp_path / "synth")]) == 0
    lad_layers = {"pipeline.run_lad", "pipeline.window_error_samples", "pipeline.evaluate_lad",
                  "pipeline.LadModel.decide"}
    trained = detect_spans(tmp_path, "--hidden", "4", "--epochs", "1")
    assert lad_layers | {"training.train"} <= trained
    assert main(["train", "--kind", "lstm", "--data", str(tmp_path / "synth"), "--user", "1",
                 "--window", "120", "--step", "60", "--hidden", "4", "--epochs", "1",
                 "--out", str(tmp_path / "lstm.sidb")]) == 0
    pretrained = detect_spans(tmp_path, "--model", str(tmp_path / "lstm.sidb"), "--user", "1")
    assert lad_layers <= pretrained and "training.train" not in pretrained
