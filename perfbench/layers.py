"""The traced layers: which graphnls functions get spans, and what they predict.

Layers are the package's modules.  ``acceptance`` only sequences calls
into the others, so it has no spans of its own; ``errors`` holds no
work.  ``MOVES`` is the metric -> workload map: a change that lowers a
metric's time or count should lower ``wall_s`` on the workloads listed
for it, and leave the other workloads flat.  ``BYPASSED`` lists the
functions a workload never reaches: their call counts read zero there,
which is the "no change" prediction for an optimisation of them.
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer, descendants, self_times

SADDLE, CN, SWEEP = "saddle_escape", "cn_evolution", "landscape_sweep"

# function metric -> workloads whose wall_s it should move
MOVES = {
    # call-bound on 512-point states in the flow; bandwidth-bound on
    # 4096-point states in the sweep; not called by the evolution
    "operators.energy": (SADDLE, SWEEP),
    # best_omega recomputes the gradient the flow just computed
    "operators.energy_gradient": (SADDLE,),
    "operators.best_omega": (SADDLE,),
    # per-step mass projection and trace recording
    "graph_core.mass": (SADDLE,),
    "graph_core.edge_masses": (SADDLE,),
    "graph_core.rescale_mass": (SADDLE,),
    "landscape.gradient_flow_fixed_mass": (SADDLE,),
    # self time is argument parsing, table formatting and file writing;
    # flat on the sweep, whose tables are short
    "cli.main": (SADDLE,),
    # banded solves and the fixed-point loop of the midpoint rule
    "dynamics.evolve": (CN,),
    "dynamics.step_crank_nicolson": (CN,),
    "dynamics.solve_banded": (CN,),
    # the Newton profile is built in the evolution's set-up
    "dynamics.discrete_stationary_state": (CN,),
    # spline states and comparison states hold most of the sweep
    "profiles.SesquiParams.solve": (SWEEP,),
    "profiles.sesquisoliton": (SWEEP,),
    "landscape.random_vertex_continuous_state": (SWEEP,),
    "landscape.comparison_sesquisoliton": (SWEEP,),
    "landscape.scan_sesqui_curve": (SWEEP,),
    "landscape.scan_dilation_curve": (SWEEP,),
    "landscape.minimizing_sequence_demo": (SWEEP,),
}

# counters and ratios -> workloads whose wall_s they should move
DERIVED_MOVES = {
    "landscape.flow.accepted_steps": (SADDLE,),
    "landscape.flow.energy_trials": (SADDLE,),
    "landscape.flow.accept_ratio": (SADDLE,),
    "landscape.flow.gradients_per_step": (SADDLE,),
    "cli.bytes_written": (SADDLE,),
    "dynamics.solves_per_step": (CN,),
}

# workload -> function-metric prefixes that must read zero calls there
BYPASSED = {
    SADDLE: ("dynamics.", "profiles."),
    CN: ("operators.energy_gradient",),
}

# only counted: a scipy routine whose time is all inside the step span
CALLS_ONLY = ("dynamics.solve_banded",)

_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}
DERIVED_UNITS = {
    "landscape.flow.accepted_steps": "count",
    "landscape.flow.energy_trials": "count",
    "landscape.flow.accept_ratio": "ratio",
    "landscape.flow.gradients_per_step": "1/step",
    "cli.bytes_written": "bytes",
    "dynamics.solves_per_step": "1/step",
    "trace.overhead_s": "s",
}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = {}
    for func in MOVES:
        fields = ("calls",) if func in CALLS_ONLY else ("calls", "total_s", "self_s")
        for f in fields:
            names[f"{func}.{f}"] = _UNITS[f]
    names.update(DERIVED_UNITS)
    return names


def _count_accepted(result, counters) -> None:
    # the flow returns (state, trace); row 0 of the trace is the start
    counters["landscape.flow.accepted_steps"] += len(result[1].times) - 1


def targets():
    """(name, owner, attribute, on_return) for every traced function."""
    from graphnls import cli, dynamics, graph_core, landscape, operators, profiles

    owners = {"graph_core": graph_core, "operators": operators, "cli": cli,
              "dynamics": dynamics, "landscape": landscape, "profiles": profiles}
    out = []
    for func in MOVES:
        module, _, attr = func.partition(".")
        owner = owners[module]
        if "." in attr:  # Class.method
            cls, _, attr = attr.partition(".")
            owner = getattr(owner, cls)
        hook = _count_accepted if func == "landscape.gradient_flow_fixed_mass" else None
        out.append((func, owner, attr, hook))
    return out


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Aggregate the spans and counters into the per-layer metrics."""
    cols = tracer.columns()
    name, parent = cols["name"], cols["parent"]
    start, end = cols["start"], cols["end"]
    duration = end - start
    own = self_times(parent, duration)
    ids = {n: i for i, n in enumerate(tracer.names)}

    out: dict[str, float] = {}
    for func in MOVES:
        mask = name == ids[func]
        out[f"{func}.calls"] = int(mask.sum())
        if func not in CALLS_ONLY:
            out[f"{func}.total_s"] = float(duration[mask].sum())
            out[f"{func}.self_s"] = float(own[mask].sum())

    # Energy trials are the energy calls the flow makes itself (one of
    # them per flow call evaluates the start state); gradients count
    # every energy_gradient call nested in the flow, best_omega's too.
    flow_id = ids["landscape.gradient_flow_fixed_mass"]
    trials = gradients = 0
    for i in np.flatnonzero(name == flow_id):
        inner = descendants(start, end, i)
        trials += int(np.count_nonzero((name[inner] == ids["operators.energy"])
                                       & (parent[inner] == i)))
        gradients += int(np.count_nonzero(name[inner] == ids["operators.energy_gradient"]))
    accepted = int(tracer.counters["landscape.flow.accepted_steps"])
    out["landscape.flow.accepted_steps"] = accepted
    out["landscape.flow.energy_trials"] = trials
    out["landscape.flow.accept_ratio"] = accepted / trials if trials else 0.0
    out["landscape.flow.gradients_per_step"] = gradients / accepted if accepted else 0.0

    out["cli.bytes_written"] = int(tracer.counters["cli.bytes_written"])

    # the appended False is what parent index -1 (a root span) reads
    is_step = np.append(name == ids["dynamics.step_crank_nicolson"], False)
    steps = int(np.count_nonzero(is_step))
    solves = int(np.count_nonzero((name == ids["dynamics.solve_banded"]) & is_step[parent]))
    out["dynamics.solves_per_step"] = solves / steps if steps else 0.0

    out["trace.overhead_s"] = overhead_s
    return out
