"""The benchmark's tracer still finds every function it times.

perfbench wraps graphnls functions by name (``perfbench/layers.py``), so
a rename or a dropped import binding breaks the benchmark without
breaking any other test.  This installs the tracer over the benchmark's
targets and uninstalls it again; it times nothing.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_binds_every_traced_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    targets = layers.targets()
    originals = [getattr(owner, attr) for _, owner, attr, _ in targets]
    try:
        tracer.install(targets)
        assert tracer.names == list(layers.MOVES)
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for _, owner, attr, _ in targets] == originals
