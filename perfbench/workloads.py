"""The three benchmark workloads: set-up, timed job, and correctness gates.

Every call into graphnls goes through a module attribute
(``cli.main``, ``operators.energy``, ...) so that the tracer's patches
see it.  Gates reuse the acceptance battery's thresholds unchanged and
run after the timer stops.

* saddle_escape: ``graphnls flow`` at 512 points, in-process, CSV out.
  The battery's dominant path (criterion 9): ~1e5 calls on small
  arrays, so per-call cost in operators and graph_core dominates, plus
  the flow's accept/reject policy and a 40,001-row CLI table.  The
  energy first crosses the escape threshold at iteration 24,050, so
  the 40,000-iteration budget cannot shrink.
* cn_evolution: criterion 8 replayed through public calls (Newton
  profile at N = 4096, forward to t = 1 and back), then one forward run
  of a sesquisoliton, which does not rotate uniformly.  3000
  Crank-Nicolson steps on 3x4096 complex arrays: dynamics is the work.
* landscape_sweep: the three CLI scans at N = 4096 and a comparison
  sweep over random spline states drawn from the seed.  Few calls on
  large arrays, no gradients and no solves: the bandwidth-bound regime
  of operators.energy, and the only workload that leans on profiles.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from graphnls import cli, dynamics, landscape, operators, profiles
from graphnls.graph_core import GraphSpec

M = 6.0
L = 30.0
STATIONARY_ENERGY = -M ** 3 / 216.0
INFIMUM = -M ** 3 / 96.0
FLOOR_SLACK = 5e-3  # acceptance.FLOOR_SLACK


@dataclass
class Gate:
    name: str
    observed: float
    expected: str
    passed: bool


@dataclass
class Outcome:
    """What one repetition produced: digests and energies that must
    repeat bit for bit, and the gates it passed or failed."""

    digests: dict = field(default_factory=dict)
    final_energies: dict = field(default_factory=dict)
    gates: list = field(default_factory=list)


def _at_most(name, observed, bound) -> Gate:
    return Gate(name, float(observed), f"<= {bound:g}", bool(observed <= bound))


def _dir_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def _files_digest(path) -> str:
    sha = hashlib.sha256()
    for entry in sorted(os.scandir(path), key=lambda e: e.name):
        sha.update(entry.name.encode())
        with open(entry.path, "rb") as fh:
            sha.update(fh.read())
    return sha.hexdigest()


def _arrays_digest(*arrays) -> str:
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(np.ascontiguousarray(a).tobytes())
    return sha.hexdigest()


def _read_table(path) -> dict:
    """Columns of a CLI CSV table: '#' lines, a header, then float rows."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    header = lines[0].strip().split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return {name: data[:, k] for k, name in enumerate(header)}


def _run_cli(argv, out, counters) -> int:
    before = _dir_bytes(out)
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", out])
    counters["cli.bytes_written"] += _dir_bytes(out) - before
    return code


class SaddleEscape:
    name = "saddle_escape"
    argv = ["flow", "--mass", "6", "--length", "30", "--points", "512",
            "--perturbation", "shift:0.01", "--step", "0.1",
            "--max-iters", "40000", "--grad-tol", "1e-6", "--format", "csv"]

    def __init__(self, seed: int):
        self.seed = seed  # the flow has no random input

    def setup(self) -> None:
        pass

    def job(self, out, counters):
        return _run_cli(self.argv, out, counters)

    def check(self, out, code) -> Outcome:
        gates = [Gate("cli_exit_code", code, "== 0", code == 0)]
        if code != 0:
            return Outcome(gates=gates)
        with open(os.path.join(out, "flow_summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        energies = _read_table(os.path.join(out, "flow_trace.csv"))["energy"]
        final = summary["final_energy"]
        floor = INFIMUM - FLOOR_SLACK
        gates += [
            Gate("not_stalled", float(summary["stalled"]), "== 0", not summary["stalled"]),
            Gate("escape_final_energy", final, f"< {STATIONARY_ENERGY - 0.05:g}",
                 final < STATIONARY_ENERGY - 0.05),
            Gate("escape_trace_floor", energies.min(), f">= {floor:g}",
                 bool(energies.min() >= floor)),
        ]
        return Outcome({"cli": _files_digest(out)}, {"flow": final}, gates)


class CNEvolution:
    name = "cn_evolution"
    forward = dynamics.EvolutionConfig(dt=1e-3, t_final=1.0, observe_every=10)
    backward = dynamics.EvolutionConfig(dt=-1e-3, t_final=1.0, observe_every=10)

    def __init__(self, seed: int):
        self.seed = seed  # both initial states are deterministic

    def setup(self) -> None:
        spec = GraphSpec(3, L, 4096)
        self.newton, _ = dynamics.discrete_stationary_state(M, spec)
        self.moving = profiles.sesquisoliton(profiles.SesquiParams.solve(1.0, 5.0), spec)

    def job(self, out, counters):
        final, trace = dynamics.evolve(self.newton, self.forward)
        back, _ = dynamics.evolve(final, self.backward)
        moved, moving_trace = dynamics.evolve(self.moving, self.forward)
        return final, trace, back, moved, moving_trace

    def check(self, out, result) -> Outcome:
        final, trace, back, moved, moving_trace = result
        omega = dynamics.measure_omega(trace)
        target = M ** 2 / 36.0
        modulus = np.max(np.abs(np.abs(final.values) - np.abs(self.newton.values)))
        reversal = np.max(np.abs(back.values - self.newton.values))
        gates = [
            Gate("standing_wave_omega", omega, f"{target:g} +- 1e-3",
                 abs(omega - target) <= 1e-3),
            _at_most("standing_wave_mass_drift", trace.mass_drift, 1e-10),
            _at_most("standing_wave_energy_drift", trace.energy_drift, 1e-6),
            _at_most("standing_wave_modulus_drift", modulus, 1e-6),
            _at_most("standing_wave_reversal", reversal, 1e-6),
            _at_most("moving_soliton_mass_drift", moving_trace.mass_drift, 1e-10),
        ]
        digest = _arrays_digest(final.values, back.values, moved.values,
                                trace.energies, trace.vertex_phase, moving_trace.energies)
        energies = {"forward": float(trace.energies[-1]),
                    "moving": float(moving_trace.energies[-1])}
        return Outcome({"states": digest}, energies, gates)


class LandscapeSweep:
    name = "landscape_sweep"
    grid = ["--mass", "6", "--length", "30", "--points", "4096", "--format", "csv"]
    # the CLI's default ranges, spelled out so the workload stays fixed
    scans = [
        ["scan", "sesqui", "--m1", "0.01:2.0:40"] + grid,
        ["scan", "dilation", "--lambda", "0.5:1.5:21"] + grid,
        ["scan", "minseq", "--m1", "1,0.5,0.1,0.02"] + grid + ["--length", "60"],
    ]
    criterion3_m1 = [0.5, 1.0, 1.5, 2.0]
    random_states = 200

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.spec = GraphSpec(3, L, 4096)

    def job(self, out, counters):
        codes = [_run_cli(argv, out, counters) for argv in self.scans]
        curve = landscape.scan_sesqui_curve(M, self.criterion3_m1, self.spec)
        rng = np.random.default_rng(self.seed)
        e_in = np.empty(self.random_states)
        e_cmp = np.empty(self.random_states)
        for k in range(self.random_states):
            state = landscape.random_vertex_continuous_state(self.spec, rng, target_mass=M)
            e_in[k] = operators.energy(state).total
            _, _, comparison = landscape.comparison_sesquisoliton(state)
            e_cmp[k] = operators.energy(comparison).total
        return codes, curve, e_in, e_cmp

    def check(self, out, result) -> Outcome:
        codes, curve, e_in, e_cmp = result
        gates = [Gate(f"cli_exit_code_{argv[1]}", code, "== 0", code == 0)
                 for argv, code in zip(self.scans, codes)]
        for m1, closed, disc in zip(self.criterion3_m1, curve.closed_energy,
                                    curve.discrete_energy):
            gates.append(_at_most(f"sesqui_energy_m1_{m1:g}_rel_error",
                                  abs(disc - closed) / abs(closed), 5e-4))
        if codes[2] == 0:
            gaps = _read_table(os.path.join(out, "scan_minseq.csv"))["gap"]
            gates += [
                Gate("minseq_gaps_positive", gaps.min(), "> 0", bool(np.all(gaps > 0))),
                Gate("minseq_gaps_decreasing", np.diff(gaps).max(), "< 0",
                     bool(np.all(np.diff(gaps) < 0))),
            ]
        worst = float(np.max(e_cmp - e_in))
        gates.append(_at_most("comparison_dominates", worst, 1e-6))
        digests = {"cli": _files_digest(out), "random_states": _arrays_digest(e_in, e_cmp)}
        energies = {"comparison_worst": worst,
                    "sesqui_m1_2": float(curve.discrete_energy[-1])}
        return Outcome(digests, energies, gates)


WORKLOADS = {w.name: w for w in (SaddleEscape, CNEvolution, LandscapeSweep)}
