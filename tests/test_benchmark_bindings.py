"""The benchmark's tracer still finds every function it times.

perfbench wraps graphnls functions by name (``perfbench/layers.py``), so
a rename or a dropped import binding breaks the benchmark without
breaking any other test.  This installs the tracer over the benchmark's
targets and uninstalls it again; it times nothing.  The stepper's solve
count is read through ``dynamics.solve_banded``, so a check here keeps
every stepper solve going through that binding.
"""

import importlib
from pathlib import Path

from graphnls import EvolutionConfig, GraphSpec, dynamics, evolve, stationary_state

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


def test_every_stepper_solve_goes_through_solve_banded(monkeypatch):
    calls = 0
    solve_banded = dynamics.solve_banded

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return solve_banded(*args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_banded", counted)
    st, _ = stationary_state(6.0, GraphSpec(3, 20.0, 128))
    _, trace = evolve(st, EvolutionConfig(dt=1e-3, t_final=0.01))
    # one solve per midpoint iteration, plus the solver's vertex-column
    # solve when evolve builds it
    assert calls == trace.extras["fixed_point_iters"].sum() + 1
