"""Tests of the benchmark itself.

    python3 -m pytest perfbench        # ~90 s: one traced run per workload

The repository's own test command collects ``tests/`` only, so these
run when asked for.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, descendants, self_times  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def child(workload: str, seed: int, trace: int) -> dict:
    args = argparse.Namespace(seed=seed, seconds=1, trace=trace)
    return run.run_child(args, workload, time.monotonic() + run.TIME_LIMIT_S)


@pytest.fixture(scope="module")
def traced():
    return {w: child(w, seed=7, trace=1) for w in run.WORKLOADS}


def test_self_time_excludes_nested_spans():
    tracer = Tracer()

    inner_w = tracer.wrap("inner", lambda: time.sleep(0.01))
    outer_w = tracer.wrap("outer", lambda: (inner_w(), inner_w(), time.sleep(0.01)))
    outer_w()
    inner_w()
    cols = tracer.columns()
    duration = cols["end"] - cols["start"]
    own = self_times(cols["parent"], duration)
    assert list(cols["parent"]) == [-1, 0, 0, -1]
    assert own[0] == pytest.approx(duration[0] - duration[1] - duration[2], abs=1e-12)
    assert list(own[1:]) == list(duration[1:])
    assert descendants(cols["start"], cols["end"], 0) == slice(1, 3)
    assert descendants(cols["start"], cols["end"], 3) == slice(4, 4)


def test_install_wraps_every_binding_and_uninstall_restores():
    sys.path.insert(0, str(run.ROOT / "src"))
    from graphnls import landscape, operators

    original = operators.energy
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        assert operators.energy is landscape.energy is not original
        assert operators.energy.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert operators.energy is landscape.energy is original


def test_benchmark_json_names_what_the_run_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.per_layer_names()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_metric_and_matches_untraced(traced, workload):
    record = traced[workload]
    assert set(record["per_layer"]) == set(layers.per_layer_names())
    gates = {g["name"]: g["passed"] for g in record["gates"]}
    assert gates.pop("traced_equals_untraced")
    assert gates and all(gates.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_self_time_at_most_total(traced, workload):
    metrics = traced[workload]["per_layer"]
    for func in layers.MOVES:
        if func not in layers.CALLS_ONLY:
            assert 0.0 <= metrics[f"{func}.self_s"] <= metrics[f"{func}.total_s"], func


def test_mapped_metrics_are_nonzero(traced):
    for func, workloads in layers.MOVES.items():
        for workload in workloads:
            metrics = traced[workload]["per_layer"]
            for name in (k for k in metrics if k.rpartition(".")[0] == func):
                assert metrics[name] > 0, (name, workload)
    for name, workloads in layers.DERIVED_MOVES.items():
        for workload in workloads:
            assert traced[workload]["per_layer"][name] > 0, (name, workload)


def test_bypassed_layers_read_zero_calls(traced):
    for workload, prefixes in layers.BYPASSED.items():
        metrics = traced[workload]["per_layer"]
        calls = {k: v for k, v in metrics.items()
                 if k.endswith(".calls") and k.startswith(prefixes)}
        assert calls and not any(calls.values()), (workload, calls)


def test_seed_changes_the_random_states_and_nothing_else():
    first, again, other = (child("landscape_sweep", seed, 0) for seed in (1, 1, 2))
    assert first["digests"] == again["digests"]
    assert first["final_energies"] == again["final_energies"]
    assert first["digests"]["cli"] == other["digests"]["cli"]
    assert first["digests"]["random_states"] != other["digests"]["random_states"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "saddle_escape",
         "--seed", "1", "--seconds", "30", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
