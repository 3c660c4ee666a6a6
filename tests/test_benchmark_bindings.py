"""The benchmark's tracer still finds every function it times.

perfbench wraps graphnls functions by name (``perfbench/layers.py``), so
a rename or a dropped import binding breaks the benchmark without
breaking any other test.  This installs the tracer over the benchmark's
targets and uninstalls it again; it times nothing.  The stepper's solve
count is read through ``dynamics.solve_banded`` inside the spans of
``dynamics.step_crank_nicolson``, so checks here keep every stepper
solve going through that binding and every step through that function.
The two fast workloads also run here once each, so a change to what
their jobs and gates read fails this suite too.
"""

import collections
import importlib
from pathlib import Path

import pytest

from graphnls import (EvolutionConfig, GraphSpec, SesquiParams, dynamics, evolve,
                      sesquisoliton, stationary_state)

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
    columns = []
    solve_banded = dynamics.solve_banded

    def counted(*args, **kwargs):
        columns.append(args[2].shape[1])
        return solve_banded(*args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_banded", counted)
    spec = GraphSpec(3, 20.0, 128)
    standing, _ = stationary_state(6.0, spec)
    moving = sesquisoliton(SesquiParams.solve(1.0, 5.0), spec)
    # the edge-symmetric standing wave solves one chain column per
    # midpoint iteration, the sesquisoliton one per edge
    for state, width in ((standing, 1), (moving, spec.edge_count)):
        columns.clear()
        _, trace = evolve(state, EvolutionConfig(dt=1e-3, t_final=0.01))
        # one solve per midpoint iteration, after the solver's
        # vertex-column solve when evolve builds it
        iterations = int(trace.columns["fixed_point_iters"].sum())
        assert columns == [1] + [width] * iterations


def test_evolve_takes_each_step_through_step_crank_nicolson(monkeypatch):
    calls = 0
    step = dynamics.step_crank_nicolson

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(dynamics, "step_crank_nicolson", counted)
    st, _ = stationary_state(6.0, GraphSpec(3, 20.0, 128))
    config = EvolutionConfig(dt=1e-3, t_final=0.01)
    evolve(st, config)
    assert calls == config.steps


@pytest.mark.parametrize("workload", ["SaddleEscape", "LandscapeSweep"])
def test_fast_workloads_pass_every_gate(monkeypatch, tmp_path, workload):
    # cn_evolution's job takes seconds, so only the perfbench suite runs it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = getattr(importlib.import_module("workloads"), workload)(1)
    bench.setup()
    outcome = bench.check(str(tmp_path), bench.job(str(tmp_path), collections.Counter()))
    assert outcome.gates
    assert [gate for gate in outcome.gates if not gate.passed] == []
