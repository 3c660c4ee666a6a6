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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .acceptance import _Battery
from .dynamics import (EvolutionConfig, discrete_stationary_state,
                       evolve, measure_omega)
from .errors import DomainError, GraphNLSError
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
# --m1/--m2 when not given; only the sesquisoliton reads them
_SESQUI_MASSES = {"m1": 1.0, "m2": 4.0}
# the flow's start kinds, each a branch of cmd_flow
_PERTURBATIONS = ("none", "shift", "deposit", "gather", "dilation")


@dataclass(frozen=True)
class RunConfig:
    """The default run: every setting, its default and its --help text.
    Each subcommand registers the flags of the settings it reads."""

    mass: float = field(default=6.0, metadata={"help": "total mass M"})
    length: float = field(default=30.0, metadata={"help": "edge truncation length"})
    points: int = field(default=4096, metadata={"help": "grid points per edge"})
    dt: float = field(default=1e-3, metadata={"help": "time step"})
    t_final: float = field(default=1.0, metadata={"help": "final time"})
    seed: int = field(default=42, metadata={"help": "random seed"})
    out: str = field(default=".", metadata={
        "help": "output directory; GRAPHNLS_OUT overrides the default"})
    format: str = field(default="csv", metadata={"help": "table output format"})

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
    # made before the run, so an output that cannot be written fails fast
    with _output_errors():
        os.makedirs(config.out, exist_ok=True)
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


@contextmanager
def _output_errors():
    """Turn an OSError from the output directory into a DomainError."""
    try:
        yield
    except OSError as exc:
        raise DomainError(f"cannot write output: {exc}") from exc


def _open_out(config: RunConfig, name: str):
    """The file name in the output directory (made by _resolve_config),
    opened for writing."""
    with _output_errors():
        return open(os.path.join(config.out, name), "w", encoding="utf-8")


def _write(config: RunConfig, stem: str, columns, **fields) -> str:
    """Write one table in the configured format.

    CSV gets the config header; JSON gets the version, the grid spacing
    and fields as top-level keys beside "data".
    """
    if config.format == "json":
        return _write_json(config, stem + ".json", table_json(
            columns, version=__version__, grid_spacing=config.spec().spacing, **fields))
    with _open_out(config, stem + ".csv") as fh:
        fh.write(_header(config))
        write_csv(fh, columns)
    return fh.name


def _write_json(config: RunConfig, name: str, obj) -> str:
    with _open_out(config, name) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return fh.name


# -- subcommands ---------------------------------------------------------


def cmd_verify(config: RunConfig, args: argparse.Namespace) -> int:
    battery = _Battery(config)
    results = battery.run()
    ok = all(r.passed for r in results)
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
    flag, unread, given = (("--m1", args.m1, args.lam) if curve == "dilation"
                           else ("--lambda", args.lam, args.m1))
    if unread is not None:
        raise DomainError(f"scan {curve} does not read {flag}")
    values = _parse_values(_DEFAULT_RANGES[curve] if given is None else given)
    if curve == "sesqui":
        scan = scan_sesqui_curve(config.mass, values, spec)
    elif curve == "dilation":
        scan = scan_dilation_curve(config.mass, values, spec)
    else:
        scan = minimizing_sequence_demo(config.mass, values, spec)
    metadata = {"M": config.mass, "edges": spec.edge_count,
                "length": spec.truncation_length, "points": spec.points_per_edge}
    path = _write(config, f"scan_{curve}", scan.columns,
                  param_name=scan.param_name, metadata=metadata)
    print(f"{curve} scan over {len(values)} values: {path}")
    return 0


def _tail_checked(state):
    """state, after a stderr warning if it has not decayed by x = L."""
    peak, tail = np.max(np.abs(state.values)), np.max(np.abs(state.values[:, -1]))
    if tail > 1e-8 * peak:
        print(f"warning: tail {tail:.3g} at x = L exceeds 1e-8 of peak {peak:.3g}; "
              f"consider a larger --length", file=sys.stderr)
    return state


def _named_state(kind: str, config: RunConfig, args: argparse.Namespace):
    if kind == "stationary":
        if args.m1 is not None or args.m2 is not None:
            raise DomainError("the stationary state does not read --m1 or --m2")
        return _tail_checked(stationary_state(config.mass, config.spec())[0])
    m1 = _SESQUI_MASSES["m1"] if args.m1 is None else args.m1
    m2 = _SESQUI_MASSES["m2"] if args.m2 is None else args.m2
    return _tail_checked(sesquisoliton(SesquiParams.solve(m1, m2), config.spec()))


def cmd_profile(config: RunConfig, args: argparse.Namespace) -> int:
    spec = config.spec()
    state = _named_state(args.kind, config, args)
    path = _write(config, f"profile_{args.kind}", state_columns(state))
    print(f"{args.kind} profile ({spec.edge_count} edges x {spec.points_per_edge} "
          f"points): {path}")
    return 0


def cmd_flow(config: RunConfig, args: argparse.Namespace) -> int:
    spec = config.spec()
    kind, colon, frac = args.perturbation.partition(":")
    kind = kind.strip()
    if kind not in _PERTURBATIONS:
        raise DomainError(f"unknown perturbation kind: {kind!r}")
    if kind == "none" and colon:
        raise DomainError("perturbation none takes no fraction")
    try:
        fraction = float(frac) if colon else 0.01
    except ValueError as exc:
        raise DomainError(f"bad perturbation fraction: {frac!r}") from exc
    if kind == "none":
        # a critical point of the discrete energy: the flow converges at
        # iteration 0 (projected gradient 1.0e-10 at 256 points) and
        # stalls only at --grad-tol 0
        start, _ = discrete_stationary_state(config.mass, spec)
    elif kind == "shift":
        start = shift_perturbation(config.mass, spec, fraction)
    elif kind == "deposit":
        start = deposit_perturbation(config.mass, spec, fraction)
    elif kind == "gather":
        start = gather_perturbation(config.mass, spec, fraction)
    else:
        start = dilation_family(config.mass, 1.0 + fraction, spec)
    _, trace = gradient_flow_fixed_mass(_tail_checked(start), step=args.step,
                                        max_iters=args.max_iters, grad_tol=args.grad_tol)
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
        "final_grad_norm": float(trace.columns["grad_norm"][-1]),
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
                          observe_every=args.observe_every).require_phase_fit()
    state = _named_state(args.initial, config, args)
    final, trace = evolve(state, evo)
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
            float(trace.columns["fixed_point_iters"].sum()) / evo.steps,
    }
    trace_path = _write(config, "evolve_trace", trace.columns)
    summary_path = _write_json(config, "evolve_summary.json", summary)
    print(f"evolve ({args.initial}): measured omega {summary['measured_omega']:.6g}, "
          f"mass drift {summary['mass_drift']:.3g}, "
          f"energy drift {summary['energy_drift_rel']:.3g}")
    print(f"trace: {trace_path}; summary: {summary_path}")
    return 0


# -- argument plumbing ----------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, *settings: str) -> None:
    """--mass, --length, --points, --out, --config and the given settings.
    Type, help and the default the help shows come from RunConfig; each
    flag itself defaults to None, so an unset flag keeps a config file's value."""
    for f in fields(RunConfig):
        if f.name in ("mass", "length", "points", "out", *settings):
            parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                                type=_CASTS[f.name],
                                choices=("csv", "json") if f.name == "format" else None,
                                help=f"{f.metadata['help']} (default {f.default})")
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
    _add_common(p, "dt", "t_final", "seed")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("scan", help="tabulate an energy curve")
    p.add_argument("curve", choices=("sesqui", "dilation", "minseq"))
    p.add_argument("--m1", help="m1 values, 'start:stop:count' or comma list "
                   f"(sesqui default {_DEFAULT_RANGES['sesqui']}, "
                   f"minseq default {_DEFAULT_RANGES['minseq']})")
    p.add_argument("--lambda", dest="lam",
                   help=f"dilation factors (default {_DEFAULT_RANGES['dilation']})")
    _add_common(p, "format")
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("profile", help="sample a named profile to a table")
    p.add_argument("kind", choices=("stationary", "sesqui"))
    p.add_argument("--m1", type=float,
                   help=f"sesqui first-edge mass (default {_SESQUI_MASSES['m1']})")
    p.add_argument("--m2", type=float,
                   help=f"sesqui remaining mass (default {_SESQUI_MASSES['m2']})")
    _add_common(p, "format")
    p.set_defaults(handler=cmd_profile)

    p = sub.add_parser("flow", help="fixed-mass gradient descent from a "
                       "perturbed stationary state")
    p.add_argument("--perturbation", default="shift:0.01",
                   help="kind[:fraction] with kind one of shift, deposit, "
                   "gather, dilation, none (default shift:0.01)")
    p.add_argument("--step", type=float, default=0.1,
                   help="initial step size; accepted steps grow to 10x")
    p.add_argument("--max-iters", dest="max_iters", type=int, default=40000)
    # the projected gradient falls to about 1e-3 (1.1e-3 from shift:0.01)
    # in the flat channel near the stationary state; a loose tolerance
    # would stop the run there
    p.add_argument("--grad-tol", dest="grad_tol", type=float, default=1e-6)
    _add_common(p, "format")
    p.set_defaults(handler=cmd_flow)

    p = sub.add_parser("evolve", help="Crank-Nicolson time evolution")
    p.add_argument("--initial", choices=("stationary", "sesqui"),
                   default="stationary")
    p.add_argument("--m1", type=float,
                   help=f"sesqui first-edge mass (default {_SESQUI_MASSES['m1']})")
    p.add_argument("--m2", type=float,
                   help=f"sesqui remaining mass (default {_SESQUI_MASSES['m2']})")
    p.add_argument("--observe-every", dest="observe_every", type=int, default=10)
    _add_common(p, "dt", "t_final", "format")
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
