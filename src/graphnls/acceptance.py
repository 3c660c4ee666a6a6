"""Quantitative acceptance battery behind `graphnls verify`.

Every check returns a CheckResult so callers can render a report or
assert on individual outcomes.  The battery is deterministic for a
fixed seed and keeps a running minimum of every energy of a state at
the battery's mass, which feeds the global lower-bound check at the
end.

Grid policy: checks run on the configured grid, except the
random-state property suites (capped at 256 points to keep 50-state
sweeps fast).  The cap only ever shrinks the grid, so a coarse
configured grid is honored.  Every criterion records its wall time
and the grids it built.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dynamics import EvolutionConfig, discrete_stationary_state, evolve, measure_omega
from .errors import DomainError, GraphNLSError
from .graph_core import (
    GraphSpec,
    GraphState,
    edge_masses,
    mass,
    state_columns,
    write_csv,
)
from .landscape import (
    comparison_sesquisoliton,
    dilation_tangent,
    gather_perturbation,
    gradient_flow_fixed_mass,
    hessian_probe,
    minimizing_sequence_demo,
    phase_direction,
    random_vertex_continuous_state,
    scan_sesqui_curve,
    sesqui_curve_second_derivative,
    sesqui_tangent,
    shift_perturbation,
)
from .operators import (
    apply_laplacian,
    best_omega,
    el_residual,
    energy,
    energy_gradient,
    weighted_inner,
    weighted_norm,
)
from .profiles import (dilation_family, energy_infimum, half_soliton, line_soliton,
                       stationary_state)

FLOOR_SLACK = 5e-3


@dataclass(frozen=True)
class CheckResult:
    """One named check: observed value against expectation."""

    name: str
    criterion: int
    observed: float
    expected: str
    tolerance: float | None
    passed: bool


def _halved(spec: GraphSpec) -> GraphSpec:
    # 2N-1 points exactly halves the spacing
    return GraphSpec(spec.edge_count, spec.truncation_length, 2 * spec.points_per_edge - 1)


class _Battery:
    """The battery for a cli.RunConfig: its mass, grid, dt, t_final and seed."""

    def __init__(self, config):
        if config.points < 8:
            raise DomainError("battery needs at least 8 points per edge")
        self.config = config
        self.M = config.mass
        self.spec = config.spec()
        # criterion 8's run, checked here so a time grid it cannot use
        # fails before the first criterion
        self.evolution = EvolutionConfig(dt=config.dt, t_final=config.t_final,
                                         observe_every=10).require_phase_fit()
        self.results: list[CheckResult] = []
        self.min_energy = math.inf
        self.criteria: list[dict] = []  # number, wall seconds and grids of each
        self._grids: list[GraphSpec] = []

    # -- bookkeeping ----------------------------------------------------

    def grid(self, spec: GraphSpec) -> GraphSpec:
        """spec, recorded as a grid the running criterion builds on."""
        self._grids.append(spec)
        return spec

    def note_energy(self, value: float) -> float:
        if value < self.min_energy:
            self.min_energy = value
        return value

    def state_energy(self, state: GraphState) -> float:
        return self.note_energy(energy(state).total)

    def flow(self, start: GraphState, max_iters: int, grad_tol: float):
        """The trace of the gradient flow from start at step 0.1, its
        lowest energy noted; a stall is an error, so it fails the criterion."""
        _, trace = gradient_flow_fixed_mass(start, step=0.1, max_iters=max_iters,
                                            grad_tol=grad_tol)
        if trace.metadata["stop_reason"] == "stalled":
            raise GraphNLSError("gradient flow stalled: no descent step above 1e-12")
        self.note_energy(trace.energies.min())
        return trace

    def check(self, name, criterion, observed, expected, tolerance, passed):
        """Record one CheckResult, observed as a float and passed as a bool."""
        self.results.append(CheckResult(name, criterion, float(observed), expected,
                                        tolerance, bool(passed)))

    def check_rel(self, name, criterion, observed, target, rel_tol):
        self.check(name, criterion, observed, f"{target:.12g} (relative)", rel_tol,
                   abs(observed - target) / abs(target) <= rel_tol)

    def check_abs(self, name, criterion, observed, target, tol):
        self.check(name, criterion, observed, f"{target:.12g}", tol,
                   abs(observed - target) <= tol)

    def check_range(self, name, criterion, observed, lo, hi):
        self.check(name, criterion, observed, f"[{lo:g}, {hi:g}]", None, lo <= observed <= hi)

    def check_below(self, name, criterion, observed, bound):
        self.check(name, criterion, observed, f"< {bound:g}", None, observed < bound)

    def check_at_most(self, name, criterion, observed, bound):
        self.check(name, criterion, observed, f"<= {bound:g}", bound, observed <= bound)

    def check_at_least(self, name, criterion, observed, bound):
        self.check(name, criterion, observed, f">= {bound:g}", None, observed >= bound)

    def check_bool(self, name, criterion, ok, description):
        self.check(name, criterion, ok, description, None, ok)

    # -- criteria -------------------------------------------------------

    def criterion_1(self):
        """Half-line minimum: E of the mass-2 half-soliton is -1/3."""
        m = 2.0
        target = -(m ** 3) / 24.0

        def half_line_energy(spec2):
            # even extension through the vertex: graph energy is twice
            # the half-line energy and the vertex trapezoid weight is
            # exact for the doubled profile
            prof = half_soliton(m, spec2)
            st = GraphState(spec2, [prof, prof])
            return energy(st).total / 2.0

        spec2 = self.grid(replace(self.spec, edge_count=2))
        e_coarse = half_line_energy(spec2)
        e_fine = half_line_energy(self.grid(_halved(spec2)))
        self.check_rel("half_soliton_energy", 1, e_coarse, target, 5e-4)
        ratio = abs(e_coarse - target) / abs(e_fine - target)
        self.check_range("half_soliton_energy_order", 1, ratio, 3.5, 4.5)

    def criterion_2(self):
        """Line minimum via a 2-edge graph: E of the mass-4 soliton is -2/3."""
        m = 4.0
        target = -(m ** 3) / 96.0
        spec2 = self.grid(replace(self.spec, edge_count=2))
        x = spec2.coordinates()
        st = GraphState(spec2, [line_soliton(m, 0.0, x), line_soliton(m, 0.0, -x)])
        self.check_rel("line_soliton_energy", 2, energy(st).total, target, 5e-4)

    def criterion_3(self):
        m1_values = [0.5, 1.0, 1.5, 2.0]
        scan = scan_sesqui_curve(self.M, m1_values, self.grid(self.spec))
        for m1, closed, disc in zip(m1_values, scan.closed_energy, scan.discrete_energy):
            self.note_energy(disc)
            self.check_rel(f"sesqui_energy_m1_{m1:g}", 3, disc, closed, 5e-4)
        increasing = bool(np.all(np.diff(scan.discrete_energy) > 0.0))
        self.check_bool("sesqui_curve_increasing", 3, increasing,
                        "discrete energies strictly increasing in m1")

    def criterion_4(self):
        spec_long = self.grid(replace(self.spec, truncation_length=60.0))
        demo = minimizing_sequence_demo(self.M, [1.0, 0.5, 0.1, 0.02], spec_long)
        for e in demo.discrete_energy:
            self.note_energy(e)
        gaps = demo.columns["gap"]
        self.check_bool("minseq_gaps_positive", 4, bool(np.all(gaps > 0.0)),
                        "every gap to the infimum positive")
        self.check_bool("minseq_gaps_decreasing", 4, bool(np.all(np.diff(gaps) < 0.0)),
                        "gaps strictly decreasing toward 0")

    def criterion_5(self):
        spec = self.grid(self.spec)
        rng = np.random.default_rng(self.config.seed)
        worst = -math.inf
        for _ in range(200):
            st = random_vertex_continuous_state(spec, rng, target_mass=self.M)
            e_in = self.state_energy(st)
            _, _, cmp_state = comparison_sesquisoliton(st)
            e_cmp = self.state_energy(cmp_state)
            worst = max(worst, e_cmp - e_in)
        self.check_at_most("comparison_dominates", 5, worst, 1e-6)

    def criterion_6(self):
        spec = self.grid(self.spec)
        st, omega = stationary_state(self.M, spec)
        res = el_residual(st, omega)
        self.check_at_most("el_residual", 6, res, 1e-3)
        st_fine, _ = stationary_state(self.M, self.grid(_halved(spec)))
        res_fine = el_residual(st_fine, omega)
        self.check_range("el_residual_order", 6, res / res_fine, 3.5, 4.5)
        self.check_abs("best_omega_M6", 6, best_omega(st), omega, 1e-3)
        st3, omega3 = stationary_state(self.M / 2.0, spec)
        self.check_abs("best_omega_M3", 6, best_omega(st3), omega3, 1e-3)

    def criterion_7(self):
        spec = self.grid(self.spec)
        st, _ = stationary_state(self.M, spec)
        self.state_energy(st)
        d_sesqui = sesqui_tangent(self.M, spec)
        for eps in (1e-2, 5e-3, 2.5e-3):
            self.check_below(f"probe_sesqui_eps_{eps:g}", 7,
                             hessian_probe(st, d_sesqui, eps), 0.0)
        d_dil = dilation_tangent(self.M, spec)
        self.check_abs("probe_dilation", 7, hessian_probe(st, d_dil, 1e-2), 2.0, 0.2)
        self.check_abs("probe_phase", 7, hessian_probe(st, phase_direction(st), 1e-2),
                       0.0, 1e-6)
        curv = sesqui_curve_second_derivative(self.M, self.M / 3.0)
        self.check_abs("sesqui_curvature_closed_form", 7, curv, -self.M / 8.0, 1e-6)

    def criterion_8(self):
        st, _ = discrete_stationary_state(self.M, self.grid(self.spec))
        self.state_energy(st)
        final, trace = evolve(st, self.evolution)
        for e in trace.energies:
            self.note_energy(e)
        omega_target = (self.M ** 2) / 36.0
        self.check_abs("standing_wave_omega", 8, measure_omega(trace), omega_target, 1e-3)
        mod_drift = float(np.max(np.abs(np.abs(final.values) - np.abs(st.values))))
        self.check_at_most("standing_wave_modulus_drift", 8, mod_drift, 1e-6)
        self.check_at_most("standing_wave_mass_drift", 8, trace.mass_drift, 1e-10)
        self.check_at_most("standing_wave_energy_drift", 8, trace.energy_drift, 1e-6)
        back, _ = evolve(final, replace(self.evolution, dt=-self.evolution.dt))
        rev = float(np.max(np.abs(back.values - st.values)))
        self.check_at_most("standing_wave_reversal", 8, rev, 1e-6)

    def criterion_9(self):
        stationary_value = -(self.M ** 3) / 216.0
        escaped = stationary_value - 0.05
        floor = energy_infimum(self.M) - FLOOR_SLACK
        spec = self.grid(self.spec)

        def descend(perturbation, fraction):
            """Energies of the escape flow from this start, and the first
            iteration below `escaped` (nan if none)."""
            trace = self.flow(perturbation(self.M, spec, fraction=fraction),
                              max_iters=40000, grad_tol=1e-6)
            below = np.flatnonzero(trace.energies < escaped)
            return trace.energies, float(trace.times[below[0]]) if below.size else math.nan

        # the shift start and the gather start (edges 1 and 2 kept equal)
        # both escape toward the infimum
        escapes = (("escape", shift_perturbation), ("gather_escape", gather_perturbation))
        crossings = {}
        for name, perturbation in escapes:
            energies, crossings[name] = descend(perturbation, 0.01)
            self.check_below(f"{name}_final_energy", 9, float(energies[-1]), escaped)
            self.check_at_least(f"{name}_trace_floor", 9, energies.min(), floor)

        trace2 = self.flow(dilation_family(self.M, 1.01, spec), max_iters=500,
                           grad_tol=1e-3)
        self.check_abs("symmetric_return", 9, float(trace2.energies[-1]),
                       stationary_value, 5e-4)
        # the saddle is degenerate, so a start at fraction f leaves it on
        # a 1/f clock: doubling f halves the escape time.  A nondegenerate
        # saddle is left on a log(1/f) clock, a ratio of about 1.15.  On
        # a coarse grid the start can already lie below `escaped`: a
        # crossing at 0 gives no ratio
        _, crossing = descend(shift_perturbation, 0.02)
        ratio = crossings["escape"] / crossing if crossing > 0 else math.nan
        self.check_range("escape_time_ratio", 9, ratio, 1.7, 2.3)

    def criterion_10(self):
        points = min(256, self.spec.points_per_edge)
        spec10 = self.grid(replace(self.spec, points_per_edge=points))
        rng = np.random.default_rng(self.config.seed)

        worst_fd = 0.0
        worst_add = 0.0
        for _ in range(50):
            st = random_vertex_continuous_state(spec10, rng, target_mass=self.M)
            direction = random_vertex_continuous_state(spec10, rng)
            h = 1e-5 * max(weighted_norm(st), 1.0) / weighted_norm(direction)
            e_plus = energy(GraphState(spec10, st.values + h * direction.values)).total
            e_minus = energy(GraphState(spec10, st.values - h * direction.values)).total
            fd = (e_plus - e_minus) / (2.0 * h)
            grad = energy_gradient(st)
            analytic = float(np.real(weighted_inner(grad, direction)))
            worst_fd = max(worst_fd, abs(fd - analytic) / max(1.0, abs(analytic)))
            worst_add = max(worst_add, abs(sum(edge_masses(st)) - mass(st)))
        self.check_at_most("gradient_consistency", 10, worst_fd, 1e-6)
        self.check_at_most("mass_additivity", 10, worst_add, 1e-12)

        worst_sym = 0.0
        worst_pos = -math.inf
        for _ in range(20):
            a = random_vertex_continuous_state(spec10, rng)
            b = random_vertex_continuous_state(spec10, rng)
            la, lb = apply_laplacian(a), apply_laplacian(b)
            s1 = weighted_inner(la, b)
            s2 = weighted_inner(a, lb)
            worst_sym = max(worst_sym, abs(s1 - s2) / max(abs(s1), abs(s2), 1.0))
            worst_pos = max(worst_pos, float(np.real(weighted_inner(la, a))))
        self.check_at_most("laplacian_symmetry", 10, worst_sym, 1e-12)
        self.check_at_most("laplacian_negative_semidefinite", 10, worst_pos, 1e-12)

        def artifacts():
            rng2 = np.random.default_rng(self.config.seed)
            scan = scan_sesqui_curve(self.M, [0.5, 1.0, 1.5], spec10)
            st = random_vertex_continuous_state(spec10, rng2, target_mass=self.M)
            tr = self.flow(st, max_iters=5, grad_tol=1e-12)
            buf = io.StringIO()
            for columns in (scan.columns, state_columns(st), tr.columns):
                write_csv(buf, columns)
            return buf.getvalue()

        self.check_bool("csv_determinism", 10, artifacts() == artifacts(),
                        "identical seed gives byte-identical CSV text")

    def finish(self):
        floor = energy_infimum(self.M) - FLOOR_SLACK
        self.check_at_least("battery_energy_floor", 4, self.min_energy, floor)

    def run_criterion(self, number: int) -> None:
        """Run one criterion and append its wall time and grids to criteria."""
        self._grids = []
        start = time.perf_counter()
        try:
            getattr(self, f"criterion_{number}")()
        except Exception as exc:  # keep the battery going; report the failure
            self.check(f"criterion{number}_error", number, math.nan,
                       f"no exception, got {type(exc).__name__}: {exc}", None, False)
        self.criteria.append({"criterion": number,
                              "seconds": time.perf_counter() - start,
                              "grids": [asdict(spec) for spec in self._grids]})

    def run(self) -> list[CheckResult]:
        for number in range(1, 11):
            self.run_criterion(number)
        self.finish()
        return self.results
