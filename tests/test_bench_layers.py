"""The benchmark's per-layer tracer names program functions; every one of
them must still resolve, or ``bench/run.py --trace 1`` breaks."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    layers = tracing.layer_functions()
    assert len(layers) == sum(len(names) for names in tracing.LAYERS.values())
    assert all(callable(fn) for fn in layers.values())
