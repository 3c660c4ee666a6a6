"""One benchmark child: set up a workload, time its job, check its outputs.

Started by run.py in a fresh process, one at a time, with BLAS pinned
to one thread and graphnls importable only from the checkout's
absolute ``src`` path.  Prints one JSON object as its last stdout line.

Set-up time runs from the moment the parent spawned this process
(``--spawned``, a CLOCK_MONOTONIC reading, which every process on
Linux shares) to the first timed call, so it covers interpreter start,
the numpy, scipy and graphnls imports, and building the inputs.

Untraced, the job repeats while the next repetition is expected to
end within ``--seconds``; at least one always runs.  Traced, one
untraced repetition is followed by one traced repetition, and the two
must give bit-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

import numpy as np
import scipy

import graphnls
import layers
import workloads
from tracer import Tracer


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "graphnls": os.path.dirname(graphnls.__file__),
    }


def run_rep(workload, workdir, counters):
    """Time one job and check it; returns (wall s, CPU s, outcome)."""
    out = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workdir)
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        result = workload.job(out, counters)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        return wall, cpu, workload.check(out, result)
    finally:
        shutil.rmtree(out)


def same_outputs(a, b) -> bool:
    return a.digests == b.digests and a.final_energies == b.final_energies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.commonpath([graphnls.__file__, src]) != src:
        print(f"graphnls imported from {graphnls.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(layers.targets())
    workload.setup()
    if tracer is not None:
        tracer.uninstall()
    setup_s = time.monotonic() - args.spawned
    record = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    if tracer is not None:
        reps = [run_rep(workload, args.workdir, Counter())]
        tracer.run_id = 1
        tracer.install(layers.targets())
        try:
            traced = run_rep(workload, args.workdir, tracer.counters)
        finally:
            tracer.uninstall()
        record["traced_wall_s"] = traced[0]
        record["per_layer"] = layers.per_layer_metrics(tracer, traced[0] - reps[0][0])
        record["spans"] = len(tracer)
        tracer.save(os.path.join(args.workdir, f"spans-{args.workload}.npz"))
        outcomes = [reps[0][2], traced[2]]
    else:
        deadline = time.monotonic() + args.seconds
        reps = [run_rep(workload, args.workdir, Counter())]
        while time.monotonic() + reps[-1][0] <= deadline:
            reps.append(run_rep(workload, args.workdir, Counter()))
        outcomes = [outcome for _, _, outcome in reps]
    walls = [wall for wall, _, _ in reps]

    gates = [gate for outcome in outcomes for gate in outcome.gates]
    if len(outcomes) > 1:
        identical = all(same_outputs(outcomes[0], o) for o in outcomes[1:])
        name = "traced_equals_untraced" if tracer is not None else "repetitions_identical"
        gates.append(workloads.Gate(name, float(identical), "== 1", identical))
    record.update({
        "wall_s": statistics.median(walls),
        "walls": walls,
        "cpus": [cpu for _, cpu, _ in reps],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": outcomes[0].digests,
        "final_energies": outcomes[0].final_energies,
        "gates": [vars(g) for g in gates],
        "provenance": provenance(),
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
