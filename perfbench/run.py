"""graphnls benchmark: run one workload, check it, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload saddle_escape --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced

Each child process (child.py) runs alone, single-threaded, importing
graphnls from this checkout's ``src``.  Untraced (``--trace 0``), the
run starts ``SETUP_ONLY`` children that only import and build inputs,
then one child that repeats the job for ``--seconds``; it reports the
median set-up time of all of them, the median job time, and the job
child's peak RSS.  Traced (``--trace 1``), one child times an untraced
and a traced repetition and reports the per-layer metrics.

The last stdout line is one JSON object: ``correct``, ``attempted``
and ``failed`` count the correctness gates, ``metrics`` maps each
metric to its value and unit.  Work files go to ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import CN, SADDLE, SWEEP, per_layer_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = (SADDLE, CN, SWEEP)
SETUP_ONLY = 4
TIME_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


class ChildError(RuntimeError):
    pass


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("GRAPHNLS_OUT", None)
    env.update({
        "PYTHONPATH": str(src),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
    })
    return env


def run_child(args, workload: str, deadline: float, extra=()) -> dict:
    workdir = ROOT / ".bench_build" / "perfbench"
    workdir.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    spawned = time.monotonic()
    proc = subprocess.Popen(argv + ["--spawned", repr(spawned)], cwd=ROOT,
                            env=child_env(ROOT / "src"),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError(f"{workload} child passed the {TIME_LIMIT_S:g} s limit") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{workload} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, workload: str, deadline: float):
    """Returns (metrics, gates, job child's record)."""
    if args.trace:
        record = run_child(args, workload, deadline)
        units = per_layer_names()
        metrics = {name: {"value": record["per_layer"][name], "unit": unit}
                   for name, unit in units.items()}
        return metrics, record["gates"], record
    setups = [run_child(args, workload, deadline, ["--setup-only"])["setup_s"]
              for _ in range(SETUP_ONLY)]
    record = run_child(args, workload, deadline)
    values = {
        "setup_s": statistics.median(setups + [record["setup_s"]]),
        "wall_s": record["wall_s"],
        "peak_rss_mb": record["peak_rss_mb"],
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    return metrics, record["gates"], record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="graphnls benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "graphnls" / "__init__.py").is_file():
        print(f"perfbench: no graphnls sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in names:
            if args.workload == "all":
                deadline = time.monotonic() + TIME_LIMIT_S
            metrics, gates, record = run_workload(args, workload, deadline)
            failed = [g for g in gates if not g["passed"]]
            summary["attempted"] += len(gates)
            summary["failed"] += len(failed)
            summary["correct"] = summary["correct"] and not failed
            print(f"== {workload} (seed {args.seed}, trace {args.trace})")
            print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
            for g in failed:
                print(f"FAILED gate {g['name']}: observed {g['observed']:.6g}, "
                      f"expected {g['expected']}")
            print(f"gates: {len(gates) - len(failed)}/{len(gates)} passed")
            print("job wall/CPU s: " + ", ".join(
                f"{w:.3f}/{c:.3f}" for w, c in zip(record["walls"], record["cpus"])))
            for name, m in metrics.items():
                print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
            prefix = f"{workload}." if args.workload == "all" else ""
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
