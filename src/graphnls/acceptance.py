"""Quantitative acceptance battery behind `graphnls verify`.

Every check returns a CheckResult so callers can render a report or
assert on individual outcomes.  The battery is deterministic for a
fixed seed and keeps a running minimum of every discrete energy it
computes, which feeds the global lower-bound check at the end.

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
from .errors import DomainError
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
    def __init__(self, mass_value, length, points, dt, t_final, seed):
        if points < 8:
            raise DomainError("battery needs at least 8 points per edge")
        self.M = float(mass_value)
        self.spec = GraphSpec(3, float(length), int(points))
        self.dt = float(dt)
        self.t_final = float(t_final)
        self.seed = int(seed)
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

    def check_rel(self, name, criterion, observed, target, rel_tol):
        err = abs(observed - target) / abs(target)
        self.results.append(CheckResult(
            name, criterion, float(observed),
            f"{target:.12g} (relative)", rel_tol, bool(err <= rel_tol)))

    def check_abs(self, name, criterion, observed, target, tol):
        self.results.append(CheckResult(
            name, criterion, float(observed),
            f"{target:.12g}", tol, bool(abs(observed - target) <= tol)))

    def check_range(self, name, criterion, observed, lo, hi):
        self.results.append(CheckResult(
            name, criterion, float(observed),
            f"[{lo:g}, {hi:g}]", None, bool(lo <= observed <= hi)))

    def check_below(self, name, criterion, observed, bound):
        self.results.append(CheckResult(
            name, criterion, float(observed),
            f"< {bound:g}", None, bool(observed < bound)))

    def check_at_most(self, name, criterion, observed, bound):
        self.results.append(CheckResult(
            name, criterion, float(observed),
            f"<= {bound:g}", bound, bool(observed <= bound)))

    def check_bool(self, name, criterion, ok, description):
        self.results.append(CheckResult(
            name, criterion, float(bool(ok)), description, None, bool(ok)))

    def fail_exception(self, criterion, exc):
        self.results.append(CheckResult(
            f"criterion{criterion}_error", criterion, math.nan,
            f"no exception, got {type(exc).__name__}: {exc}", None, False))

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
            st = GraphState.from_edges(spec2, [prof, prof])
            return self.state_energy(st) / 2.0

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
        st = GraphState.from_edges(
            spec2, [line_soliton(m, 0.0, x), line_soliton(m, 0.0, -x)])
        self.check_rel("line_soliton_energy", 2, self.state_energy(st), target, 5e-4)

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
        gaps = np.asarray(demo.extras["gap"])
        self.check_bool("minseq_gaps_positive", 4, bool(np.all(gaps > 0.0)),
                        "every gap to the infimum positive")
        self.check_bool("minseq_gaps_decreasing", 4, bool(np.all(np.diff(gaps) < 0.0)),
                        "gaps strictly decreasing toward 0")

    def criterion_5(self):
        spec = self.grid(self.spec)
        rng = np.random.default_rng(self.seed)
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
        st, info = stationary_state(self.M, spec)
        res = el_residual(st, info.omega)
        self.check_at_most("el_residual", 6, res, 1e-3)
        st_fine, _ = stationary_state(self.M, self.grid(_halved(spec)))
        res_fine = el_residual(st_fine, info.omega)
        self.check_range("el_residual_order", 6, res / res_fine, 3.5, 4.5)
        self.check_abs("best_omega_M6", 6, best_omega(st), info.omega, 1e-3)
        st3, info3 = stationary_state(self.M / 2.0, spec)
        self.check_abs("best_omega_M3", 6, best_omega(st3), info3.omega, 1e-3)

    def criterion_7(self):
        spec = self.grid(self.spec)
        st, _ = stationary_state(self.M, spec)
        self.state_energy(st)
        d_sesqui = sesqui_tangent(self.M, spec)
        for eps in (1e-2, 5e-3, 2.5e-3):
            rep = hessian_probe(st, d_sesqui, eps, label="sesqui_tangent")
            self.check_below(f"probe_sesqui_eps_{eps:g}", 7, rep.second_difference, 0.0)
        d_dil = dilation_tangent(self.M, spec)
        rep = hessian_probe(st, d_dil, 1e-2, label="dilation_tangent")
        self.check_abs("probe_dilation", 7, rep.second_difference, 2.0, 0.2)
        rep = hessian_probe(st, phase_direction(st), 1e-2, label="phase")
        self.check_abs("probe_phase", 7, rep.second_difference, 0.0, 1e-6)
        curv = sesqui_curve_second_derivative(self.M, self.M / 3.0)
        self.check_abs("sesqui_curvature_closed_form", 7, curv, -self.M / 8.0, 1e-6)

    def criterion_8(self):
        st, _ = discrete_stationary_state(self.M, self.grid(self.spec))
        self.state_energy(st)
        cfg = EvolutionConfig(dt=self.dt, t_final=self.t_final, observe_every=10)
        final, trace = evolve(st, cfg)
        for e in trace.energies:
            self.note_energy(e)
        omega_target = (self.M ** 2) / 36.0
        self.check_abs("standing_wave_omega", 8, measure_omega(trace), omega_target, 1e-3)
        mod_drift = float(np.max(np.abs(np.abs(final.values) - np.abs(st.values))))
        self.check_at_most("standing_wave_modulus_drift", 8, mod_drift, 1e-6)
        self.check_at_most("standing_wave_mass_drift", 8, trace.mass_drift, 1e-10)
        self.check_at_most("standing_wave_energy_drift", 8, trace.energy_drift, 1e-6)
        back, _ = evolve(final, EvolutionConfig(dt=-self.dt, t_final=self.t_final,
                                                observe_every=10))
        rev = float(np.max(np.abs(back.values - st.values)))
        self.check_at_most("standing_wave_reversal", 8, rev, 1e-6)

    def criterion_9(self):
        stationary_value = -(self.M ** 3) / 216.0
        floor = energy_infimum(self.M) - FLOOR_SLACK
        spec = self.grid(self.spec)
        # the shift start and the gather start (edges 1 and 2 kept equal)
        # both escape toward the infimum
        escapes = (("escape", shift_perturbation), ("gather_escape", gather_perturbation))
        for name, perturbation in escapes:
            start = perturbation(self.M, spec, fraction=0.01)
            _, trace = gradient_flow_fixed_mass(start, step=0.1, max_iters=40000,
                                                grad_tol=1e-6)
            energies = np.asarray(trace.energies)
            for e in energies:
                self.note_energy(e)
            self.check_below(f"{name}_final_energy", 9, float(energies[-1]),
                             stationary_value - 0.05)
            self.results.append(CheckResult(
                f"{name}_trace_floor", 9, float(energies.min()),
                f">= {floor:.6g}", None, bool(energies.min() >= floor)))

        sym = dilation_family(self.M, 1.01, spec)
        _, trace2 = gradient_flow_fixed_mass(sym, step=0.1, max_iters=500,
                                             grad_tol=1e-3)
        for e in trace2.energies:
            self.note_energy(e)
        self.check_abs("symmetric_return", 9, float(trace2.energies[-1]),
                       stationary_value, 5e-4)

    def criterion_10(self):
        points = min(256, self.spec.points_per_edge)
        spec10 = self.grid(replace(self.spec, points_per_edge=points))
        rng = np.random.default_rng(self.seed)

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
            rng2 = np.random.default_rng(self.seed)
            scan = scan_sesqui_curve(self.M, [0.5, 1.0, 1.5], spec10)
            st = random_vertex_continuous_state(spec10, rng2, target_mass=self.M)
            _, tr = gradient_flow_fixed_mass(st, step=0.1, max_iters=5, grad_tol=1e-12)
            buf = io.StringIO()
            for columns in (scan.columns, state_columns(st), tr.columns):
                write_csv(buf, columns)
            return buf.getvalue()

        self.check_bool("csv_determinism", 10, artifacts() == artifacts(),
                        "identical seed gives byte-identical CSV text")

    def finish(self):
        floor = energy_infimum(self.M) - FLOOR_SLACK
        self.results.append(CheckResult(
            "battery_energy_floor", 4, self.min_energy,
            f">= {floor:.6g}", None, bool(self.min_energy >= floor)))

    def run_criterion(self, number: int) -> None:
        """Run one criterion and append its wall time and grids to criteria."""
        self._grids = []
        start = time.perf_counter()
        try:
            getattr(self, f"criterion_{number}")()
        except Exception as exc:  # keep the battery going; report the failure
            self.fail_exception(number, exc)
        self.criteria.append({"criterion": number,
                              "seconds": time.perf_counter() - start,
                              "grids": [asdict(spec) for spec in self._grids]})

    def run(self) -> list[CheckResult]:
        for number in range(1, 11):
            self.run_criterion(number)
        self.finish()
        return self.results


def run_acceptance(mass_value: float = 6.0, length: float = 30.0, points: int = 4096,
                   dt: float = 1e-3, t_final: float = 1.0, seed: int = 42,
                   ) -> list[CheckResult]:
    """Run the full battery; returns one CheckResult per named check."""
    return _Battery(mass_value, length, points, dt, t_final, seed).run()


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
