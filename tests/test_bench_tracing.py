"""The traced benchmark run patches `sid` attributes by name; a rename in the
program that drops one of them would break that run, so check every name
here. Only reads `bench/tracing.py`."""

import importlib.util
from pathlib import Path

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
