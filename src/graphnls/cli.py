"""Command-line interface: verify, scan, profile, flow, evolve.

One binary with subcommands.  Precedence for settings: command-line
flags, then the GRAPHNLS_OUT environment variable (output directory
only), then a `--config` file of flat `key = value` lines, then the
built-in defaults.  Outputs are deterministic for a fixed config and
seed: no timestamps, 17 significant digits, sorted JSON keys.  The one
exception is the wall time of each criterion in verify_report.json's
"criteria" list, which verify also prints to stderr.

Exit codes: 0 success, 1 check or run failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .acceptance import _Battery, all_passed
from .dynamics import (EvolutionConfig, discrete_stationary_state,
                       evolve, measure_omega)
from .errors import DomainError, GraphNLSError, StallError, StepFailureError
from .graph_core import GraphSpec, state_columns, table_json, write_csv
from .landscape import (
    deposit_perturbation,
    gather_perturbation,
    gradient_flow_fixed_mass,
    minimizing_sequence_demo,
    scan_dilation_curve,
    scan_sesqui_curve,
    shift_perturbation,
)
from .operators import energy
from .profiles import (SesquiParams, _require_finite_energy, dilation_family,
                       energy_infimum, sesquisoliton, stationary_state)

_DEFAULT_RANGES = {
    "sesqui": "0.01:2.0:40",
    "dilation": "0.5:1.5:21",
    "minseq": "1,0.5,0.1,0.02",
}


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by every subcommand."""

    mass: float = 6.0
    length: float = 30.0
    points: int = 4096
    dt: float = 1e-3
    t_final: float = 1.0
    seed: int = 42
    out: str = "."
    format: str = "csv"

    def spec(self) -> GraphSpec:
        return GraphSpec(3, self.length, self.points)

    def validate(self) -> None:
        if self.format not in ("csv", "json"):
            raise DomainError("format must be csv or json")
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise DomainError(f"mass must be positive and finite, got {self.mass}")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        _require_finite_energy(self.mass, 1.0, self.spec())  # checks the grid too


_CASTS = {f.name: type(f.default) for f in fields(RunConfig)}


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read config file: {exc}") from exc
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DomainError(f"bad config line (expected key = value): {raw!r}")
        key = key.strip().replace("-", "_")
        if key not in _CASTS:
            raise DomainError(f"unknown config key: {key}")
        try:
            values[key] = _CASTS[key](value.strip())
        except ValueError as exc:
            raise DomainError(f"bad value for {key}: {value.strip()!r}") from exc
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config is not None:
        config = replace(config, **_load_config_file(args.config))
    env_out = os.environ.get("GRAPHNLS_OUT")
    if env_out:
        config = replace(config, out=env_out)
    overrides = {}
    for name in _CASTS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if overrides:
        config = replace(config, **overrides)
    config.validate()
    return config


def _parse_values(text: str) -> list:
    """Range spec: 'start:stop:count' (inclusive) or a comma list."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:count")
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError("count must be >= 1")
            return [float(v) for v in np.linspace(start, stop, count)]
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise DomainError(f"bad range spec {text!r}: {exc}") from exc


def _header(config: RunConfig) -> str:
    h = config.spec().spacing
    echo = (f"mass={config.mass:g} length={config.length:g} "
            f"points={config.points} dt={config.dt:g} t_final={config.t_final:g} "
            f"seed={config.seed} format={config.format}")
    return (f"# graphnls {__version__}\n"
            f"# config: {echo}\n"
            f"# grid: h={h:.17g}\n")


def _write(config: RunConfig, stem: str, columns, **fields) -> str:
    """Write one table in the configured format.

    CSV gets the config header; JSON gets the version, the grid spacing
    and fields as top-level keys beside "data".
    """
    if config.format == "json":
        return _write_json(config, stem + ".json", table_json(
            columns, version=__version__, grid_spacing=config.spec().spacing, **fields))
    os.makedirs(config.out, exist_ok=True)
    path = os.path.join(config.out, stem + ".csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header(config))
        write_csv(fh, columns)
    return path


def _write_json(config: RunConfig, name: str, obj) -> str:
    os.makedirs(config.out, exist_ok=True)
    path = os.path.join(config.out, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# -- subcommands ---------------------------------------------------------


def cmd_verify(config: RunConfig, args: argparse.Namespace) -> int:
    battery = _Battery(config.mass, config.length, config.points, config.dt,
                       config.t_final, config.seed)
    results = battery.run()
    ok = all_passed(results)
    report = {
        "version": __version__,
        "config": asdict(config),
        "checks": [asdict(r) for r in results],
        "criteria": battery.criteria,
        "all_passed": ok,
    }
    for c in battery.criteria:
        grids = "; ".join(f"{g['edge_count']} edges x {g['points_per_edge']} points, "
                          f"L = {g['truncation_length']:g}" for g in c["grids"])
        print(f"criterion {c['criterion']:2d}: {c['seconds']:.3f} s on {grids}",
              file=sys.stderr)
    path = _write_json(config, "verify_report.json", report)
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{flag} [criterion {r.criterion:2d}] {r.name}: "
              f"observed {r.observed:.6g}, expected {r.expected}")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed; report: {path}")
    return 0 if ok else 1


def cmd_scan(config: RunConfig, args: argparse.Namespace) -> int:
    spec = config.spec()
    curve = args.curve
    if curve == "sesqui":
        values = _parse_values(args.m1 or _DEFAULT_RANGES["sesqui"])
        scan = scan_sesqui_curve(config.mass, values, spec)
    elif curve == "dilation":
        values = _parse_values(args.lam or _DEFAULT_RANGES["dilation"])
        scan = scan_dilation_curve(config.mass, values, spec)
    else:
        values = _parse_values(args.m1 or _DEFAULT_RANGES["minseq"])
        scan = minimizing_sequence_demo(config.mass, values, spec)
    path = _write(config, f"scan_{curve}", scan.columns,
                  param_name=scan.param_name, metadata=scan.metadata)
    print(f"{curve} scan over {len(values)} values: {path}")
    return 0


def _named_state(kind: str, config: RunConfig, args: argparse.Namespace):
    if kind == "stationary":
        return stationary_state(config.mass, config.spec())[0]
    return sesquisoliton(SesquiParams.solve(args.m1, args.m2), config.spec())


def cmd_profile(config: RunConfig, args: argparse.Namespace) -> int:
    spec = config.spec()
    state = _named_state(args.kind, config, args)
    peak = float(np.max(np.abs(state.values)))
    tail = float(np.max(np.abs(state.values[:, -1])))
    if tail > 1e-8 * peak:
        print(f"warning: profile tail {tail:.3g} exceeds 1e-8 of peak; "
              f"consider a larger --length", file=sys.stderr)
    path = _write(config, f"profile_{args.kind}", state_columns(state))
    print(f"{args.kind} profile ({spec.edge_count} edges x {spec.points_per_edge} "
          f"points): {path}")
    return 0


def _parse_perturbation(text: str) -> tuple:
    kind, _, frac = text.partition(":")
    kind = kind.strip()
    if kind not in ("shift", "deposit", "gather", "dilation", "none"):
        raise DomainError(f"unknown perturbation kind: {kind!r}")
    fraction = 0.01
    if frac:
        try:
            fraction = float(frac)
        except ValueError as exc:
            raise DomainError(f"bad perturbation fraction: {frac!r}") from exc
    return kind, fraction


def cmd_flow(config: RunConfig, args: argparse.Namespace) -> int:
    spec = config.spec()
    kind, fraction = _parse_perturbation(args.perturbation)
    if kind == "none":
        # exact critical point of the discrete energy, so the flow stalls
        start, _ = discrete_stationary_state(config.mass, spec)
    elif kind == "shift":
        start = shift_perturbation(config.mass, spec, fraction)
    elif kind == "deposit":
        start = deposit_perturbation(config.mass, spec, fraction)
    elif kind == "gather":
        start = gather_perturbation(config.mass, spec, fraction)
    else:
        start = dilation_family(config.mass, 1.0 + fraction, spec)
    try:
        _, trace = gradient_flow_fixed_mass(start, step=args.step,
                                            max_iters=args.max_iters,
                                            grad_tol=args.grad_tol)
    except StallError as exc:
        trace = exc.trace
    stalled = trace.metadata["stop_reason"] == "stalled"
    final_energy = float(trace.energies[-1])
    infimum = energy_infimum(config.mass)
    summary = {
        "perturbation": f"{kind}:{fraction:g}",
        "iterations": int(trace.times[-1]),
        "final_energy": final_energy,
        "infimum": infimum,
        "gap_to_infimum": final_energy - infimum,
        "stationary_energy": -(config.mass ** 3) / 216.0,
        "final_grad_norm": float(trace.extras["grad_norm"][-1]),
        "stalled": stalled,
        **trace.metadata,
    }
    trace_path = _write(config, "flow_trace", trace.columns)
    summary_path = _write_json(config, "flow_summary.json", summary)
    print(f"flow ({summary['perturbation']}): {summary['iterations']} iterations, "
          f"final energy {final_energy:.6g}, gap to infimum "
          f"{summary['gap_to_infimum']:.6g}"
          + (", stalled" if stalled else ""))
    print(f"trace: {trace_path}; summary: {summary_path}")
    return 0


def cmd_evolve(config: RunConfig, args: argparse.Namespace) -> int:
    evo = EvolutionConfig(dt=config.dt, t_final=config.t_final,
                          observe_every=args.observe_every)
    if evo.steps <= evo.observe_every:  # the trace: t = 0 and one more row
        raise DomainError(f"{evo.steps} steps at --observe-every {evo.observe_every} "
                          "give 2 trace rows; the frequency fit needs 3")
    state = _named_state(args.initial, config, args)
    try:
        final, trace = evolve(state, evo)
    except StepFailureError as exc:
        print(f"evolution failed: {exc}", file=sys.stderr)
        return 1
    summary = {
        "initial": args.initial,
        "measured_omega": measure_omega(trace),
        "mass_drift": trace.mass_drift,
        "energy_drift_rel": trace.energy_drift,
        "final_energy": energy(final).total,
        "dt": config.dt,
        "t_final": config.t_final,
        "steps": evo.steps,
        "fixed_point_iters_per_step":
            float(trace.extras["fixed_point_iters"].sum()) / evo.steps,
    }
    trace_path = _write(config, "evolve_trace", trace.columns)
    summary_path = _write_json(config, "evolve_summary.json", summary)
    print(f"evolve ({args.initial}): measured omega {summary['measured_omega']:.6g}, "
          f"mass drift {summary['mass_drift']:.3g}, "
          f"energy drift {summary['energy_drift_rel']:.3g}")
    print(f"trace: {trace_path}; summary: {summary_path}")
    return 0


# -- argument plumbing ----------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mass", type=float, help="total mass M (default 6)")
    parser.add_argument("--length", type=float, help="edge truncation length (default 30)")
    parser.add_argument("--points", type=int, help="grid points per edge (default 4096)")
    parser.add_argument("--dt", type=float, help="time step (default 1e-3)")
    parser.add_argument("--t-final", dest="t_final", type=float,
                        help="final time (default 1)")
    parser.add_argument("--seed", type=int, help="random seed (default 42)")
    parser.add_argument("--out", help="output directory (default .; "
                        "GRAPHNLS_OUT overrides the default)")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="table output format (default csv)")
    parser.add_argument("--config", help="flat key = value settings file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphnls",
        description="Focusing cubic NLS on a star graph: profiles, energy "
                    "landscape, flows, and the acceptance battery.")
    parser.add_argument("--version", action="version",
                        version=f"graphnls {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the acceptance battery")
    _add_common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("scan", help="tabulate an energy curve")
    p.add_argument("curve", choices=("sesqui", "dilation", "minseq"))
    p.add_argument("--m1", help="m1 values, 'start:stop:count' or comma list "
                   f"(sesqui default {_DEFAULT_RANGES['sesqui']}, "
                   f"minseq default {_DEFAULT_RANGES['minseq']})")
    p.add_argument("--lambda", dest="lam",
                   help=f"dilation factors (default {_DEFAULT_RANGES['dilation']})")
    _add_common(p)
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("profile", help="sample a named profile to a table")
    p.add_argument("kind", choices=("stationary", "sesqui"))
    p.add_argument("--m1", type=float, default=1.0, help="sesqui first-edge mass")
    p.add_argument("--m2", type=float, default=4.0, help="sesqui remaining mass")
    _add_common(p)
    p.set_defaults(handler=cmd_profile)

    p = sub.add_parser("flow", help="fixed-mass gradient descent from a "
                       "perturbed stationary state")
    p.add_argument("--perturbation", default="shift:0.01",
                   help="kind[:fraction] with kind one of shift, deposit, "
                   "gather, dilation, none (default shift:0.01)")
    p.add_argument("--step", type=float, default=0.1, help="initial step size")
    p.add_argument("--max-iters", dest="max_iters", type=int, default=40000)
    # the projected gradient falls to about 1e-3 (1.1e-3 from shift:0.01)
    # in the flat channel near the stationary state; a loose tolerance
    # would stop the run there
    p.add_argument("--grad-tol", dest="grad_tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(handler=cmd_flow)

    p = sub.add_parser("evolve", help="Crank-Nicolson time evolution")
    p.add_argument("--initial", choices=("stationary", "sesqui"),
                   default="stationary")
    p.add_argument("--m1", type=float, default=1.0, help="sesqui first-edge mass")
    p.add_argument("--m2", type=float, default=4.0, help="sesqui remaining mass")
    p.add_argument("--observe-every", dest="observe_every", type=int, default=10)
    _add_common(p)
    p.set_defaults(handler=cmd_evolve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        return args.handler(config, args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraphNLSError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
