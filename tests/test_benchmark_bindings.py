"""The benchmark's tracer still finds every function it times.

perfbench wraps graphnls functions by name (``perfbench/layers.py``), so
a rename or a dropped import binding breaks the benchmark without
breaking any other test.  This installs the tracer over the benchmark's
targets and uninstalls it again; it times nothing.  The benchmark's
``dynamics.solve_banded`` metric counts calls of scipy's solve_banded
made through any graphnls module binding of it (the stepper's go
through ``operators``), and its solves per step those inside the spans
of ``dynamics.step_crank_nicolson``, so checks here keep every stepper
solve going through such a binding, every step through that function,
and both metrics reading the trace's midpoint iterations; a real
start's flow, saddle_escape's, makes no such call.
The two fast workloads also run here once each, so a change to what
their jobs and gates read fails this suite too, and saddle_escape runs
once under the tracer, so a flow that drops a traced call fails here.
"""

import collections
import importlib
import sys
from pathlib import Path

import pytest
from scipy.linalg import solve_banded

from graphnls import (EvolutionConfig, GraphSpec, GraphState, SesquiParams, dynamics, evolve,
                      gradient_flow_fixed_mass, sesquisoliton, shift_perturbation,
                      stationary_state)

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


def test_saddle_escape_reaches_every_function_mapped_to_it(monkeypatch, tmp_path):
    # a flow that stops calling a traced function would read zero calls
    # in the benchmark's saddle_escape metrics
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    bench = importlib.import_module("workloads").SaddleEscape(1)
    tracer = importlib.import_module("tracer").Tracer()
    bench.setup()
    tracer.install(layers.targets())
    try:
        assert bench.job(str(tmp_path), collections.Counter()) == 0
    finally:
        tracer.uninstall()
    calls = collections.Counter(tracer.names[i] for i in tracer.columns()["name"])
    mapped = [func for func, moves in layers.MOVES.items() if layers.SADDLE in moves]
    assert mapped
    assert [func for func in mapped if calls[func] == 0] == []


def count_solve_banded(monkeypatch):
    """The column count of each solve_banded call from now on, counted
    as the tracer counts: through every graphnls module binding of
    scipy's solve_banded."""
    columns = []

    def counted(*args, **kwargs):
        columns.append(args[2].shape[1])
        return solve_banded(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "graphnls":
            for attr, value in list(vars(module).items()):
                if value is solve_banded:
                    monkeypatch.setattr(module, attr, counted)
    return columns


def test_every_stepper_solve_goes_through_solve_banded(monkeypatch):
    columns = count_solve_banded(monkeypatch)
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


def test_only_a_complex_start_flows_through_solve_banded(monkeypatch):
    # saddle_escape's real flow factors its chain once, so no call reaches
    # the tracer's solve count; its complex twin solves the vertex column,
    # then one 3-column direction per accepted step
    columns = count_solve_banded(monkeypatch)
    start = shift_perturbation(6.0, GraphSpec(3, 30.0, 512), 0.01)
    gradient_flow_fixed_mass(start, 0.1, 40000, 1e-6)
    assert columns == []
    twin = GraphState(start.spec, start.values.astype(complex))
    _, trace = gradient_flow_fixed_mass(twin, 0.1, 40000, 1e-6)
    assert columns == [1] + [3] * trace.metadata["accepted_steps"]


@pytest.mark.parametrize("initial", ["standing", "moving"])
def test_the_tracer_counts_every_stepper_solve(monkeypatch, initial):
    # what cn_evolution's dynamics.solve_banded.calls and
    # dynamics.solves_per_step read: the solver's vertex-column solve
    # plus one solve per midpoint iteration, all of them inside a step
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    spec = GraphSpec(3, 20.0, 128)
    state = (stationary_state(6.0, spec)[0] if initial == "standing"
             else sesquisoliton(SesquiParams.solve(1.0, 5.0), spec))
    config = EvolutionConfig(dt=1e-3, t_final=0.01)
    tracer.install(layers.targets())
    try:
        _, trace = dynamics.evolve(state, config)
    finally:
        tracer.uninstall()
    metrics = layers.per_layer_metrics(tracer, 0.0)
    iterations = int(trace.columns["fixed_point_iters"].sum())
    assert metrics["dynamics.step_crank_nicolson.calls"] == config.steps
    assert metrics["dynamics.solve_banded.calls"] == iterations + 1
    assert metrics["dynamics.solves_per_step"] == iterations / config.steps


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
