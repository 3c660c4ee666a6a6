"""Energy landscape: scans, probes, comparison map, and the descent flow."""

import math

import numpy as np
import pytest

from graphnls import landscape, operators
from graphnls import (
    DomainError,
    GraphSpec,
    GraphState,
    ProbeError,
    ZeroEdgeMassError,
    comparison_sesquisoliton,
    deposit_perturbation,
    dilation_family,
    dilation_tangent,
    discrete_stationary_state,
    edge_masses,
    energy,
    energy_infimum,
    energy_sesqui_closed,
    gradient_flow_fixed_mass,
    hessian_probe,
    mass,
    minimizing_sequence_demo,
    phase_direction,
    random_vertex_continuous_state,
    scan_dilation_curve,
    scan_sesqui_curve,
    sesqui_curve_second_derivative,
    sesqui_tangent,
    shift_perturbation,
    stationary_state,
    vertex_defect,
)

M = 6.0


class TestScans:
    def test_sesqui_discrete_tracks_closed_form(self):
        spec = GraphSpec(3, 30.0, 1024)
        scan = scan_sesqui_curve(M, [0.5, 1.0, 1.5, 2.0], spec)
        rel = np.abs(scan.discrete_energy - scan.closed_energy) / np.abs(
            scan.closed_energy)
        assert np.max(rel) < 1e-3
        assert np.all(np.diff(scan.discrete_energy) > 0)

    def test_sesqui_csv_has_offset_column(self):
        spec = GraphSpec(3, 30.0, 256)
        scan = scan_sesqui_curve(M, [1.0, 2.0], spec)
        assert list(scan.columns) == ["param", "closed_energy", "discrete_energy", "offset"]

    def test_dilation_minimum_at_unit_factor(self):
        spec = GraphSpec(3, 30.0, 1024)
        scan = scan_dilation_curve(M, [0.9, 1.0, 1.1], spec)
        e = scan.discrete_energy
        assert e[1] < e[0] and e[1] < e[2]

    def test_dilation_preserves_mass(self):
        spec = GraphSpec(3, 30.0, 1024)
        st = dilation_family(M, 1.3, spec)
        assert mass(st) == pytest.approx(M, rel=1e-12)
        assert vertex_defect(st) == 0.0

    def test_minimizing_sequence_walks_down_to_the_infimum(self):
        spec = GraphSpec(3, 60.0, 2048)
        scan = minimizing_sequence_demo(M, [1.0, 0.5, 0.1], spec)
        gaps = scan.discrete_energy - energy_infimum(M)
        assert np.all(gaps > 0)
        assert np.all(np.diff(gaps) < 0)

    def test_infimum_never_attained_on_the_curve(self):
        # closed form stays strictly above -M^3/96 for every admissible m1
        for m1 in np.linspace(1e-6, M / 3.0, 200):
            assert energy_sesqui_closed(m1, M) > energy_infimum(M)


@pytest.fixture(scope="module")
def center():
    spec = GraphSpec(3, 30.0, 1024)
    return stationary_state(M, spec)[0]


class TestProbes:
    def test_dilation_direction_curves_up(self, center):
        d = dilation_tangent(M, center.spec)
        rep = hessian_probe(center, d, 1e-2, "dilation")
        assert rep.second_difference == pytest.approx(2.0, abs=0.2)

    def test_phase_direction_is_flat(self, center):
        d = phase_direction(center)
        rep = hessian_probe(center, d, 1e-3, "phase")
        assert abs(rep.second_difference) < 1e-6

    def test_chord_through_the_family_is_not_concave(self, center):
        # the constrained second difference along the sesquisoliton
        # chord comes out positive: the curve meets the stationary
        # state in a cusp, so its energy drop is invisible at second
        # order along any straight line of states
        d = sesqui_tangent(M, center.spec)
        rep = hessian_probe(center, d, 1e-2, "sesqui")
        assert rep.second_difference > 0

    def test_curve_itself_drops_quadratically_in_m1(self):
        # directly on the family the one-sided curvature is -M/8
        got = sesqui_curve_second_derivative(M, M / 3.0)
        assert got == pytest.approx(-M / 8.0, abs=1e-6)

    def test_probe_rejects_huge_epsilon(self, center):
        with pytest.raises(ProbeError):
            hessian_probe(center, center, 0.5, "self")

    def test_probe_rejects_bad_arguments(self, center):
        with pytest.raises(DomainError):
            hessian_probe(center, center, -1.0, "bad")
        with pytest.raises(DomainError):
            hessian_probe(center, GraphState.zeros(center.spec), 1e-2, "zero")

    def test_report_row_is_reproducible(self, center):
        d = dilation_tangent(M, center.spec)
        a = hessian_probe(center, d, 1e-2, "dilation")
        b = hessian_probe(center, d, 1e-2, "dilation")
        assert a.second_difference == b.second_difference


class TestComparisonMap:
    def test_comparison_never_raises_the_energy(self, rng):
        spec = GraphSpec(3, 30.0, 512)
        for _ in range(20):
            st = random_vertex_continuous_state(spec, rng, target_mass=M)
            _, _, cmp_state = comparison_sesquisoliton(st)
            assert energy(cmp_state).total <= energy(st).total + 1e-6

    def test_head_edge_is_the_lightest(self, rng):
        spec = GraphSpec(3, 30.0, 512)
        st = random_vertex_continuous_state(spec, rng, target_mass=M)
        perm, params, _ = comparison_sesquisoliton(st)
        masses = edge_masses(st)
        assert params.m1 == pytest.approx(min(masses), rel=1e-12)
        assert perm[0] == int(np.argmin(masses))

    def test_edge_relabeling_does_not_change_the_bound(self, rng):
        spec = GraphSpec(3, 30.0, 512)
        st = random_vertex_continuous_state(spec, rng, target_mass=M)
        rolled = GraphState(spec, np.roll(st.values, 1, axis=0))
        _, p1, _ = comparison_sesquisoliton(st)
        _, p2, _ = comparison_sesquisoliton(rolled)
        assert p1.m1 == pytest.approx(p2.m1, rel=1e-12)
        assert p1.m2 == pytest.approx(p2.m2, rel=1e-12)

    def test_zero_edge_rejected(self, coarse_spec):
        vals = np.zeros((3, coarse_spec.points_per_edge), dtype=complex)
        x = coarse_spec.coordinates()
        vals[0] = np.exp(-x) - np.exp(-x[0])
        vals[1] = vals[0]
        # edge 2 stays zero; all vertex values are 0, so continuity holds
        st = GraphState(coarse_spec, vals)
        with pytest.raises(ZeroEdgeMassError):
            comparison_sesquisoliton(st)


class TestPerturbations:
    def test_shift_moves_mass_between_the_outer_edges(self, coarse_spec):
        st = shift_perturbation(M, coarse_spec, 0.01)
        em = edge_masses(st)
        assert mass(st) == pytest.approx(M, rel=1e-12)
        assert vertex_defect(st) == 0.0
        assert em[1] - em[2] == pytest.approx(2 * 0.01 * M, rel=0.05)

    def test_deposit_drains_the_first_edge(self, coarse_spec):
        st = deposit_perturbation(M, coarse_spec, 0.01)
        em = edge_masses(st)
        assert mass(st) == pytest.approx(M, rel=1e-12)
        assert em[0] < M / 3.0 < em[1]

    def test_fraction_bounds(self, coarse_spec):
        for bad in (0.0, 0.5, -0.1):
            with pytest.raises(DomainError):
                shift_perturbation(M, coarse_spec, bad)
            with pytest.raises(DomainError):
                deposit_perturbation(M, coarse_spec, bad)


class TestDescentFlow:
    def test_energy_never_increases(self, coarse_spec):
        start = shift_perturbation(M, coarse_spec, 0.01)
        _, trace = gradient_flow_fixed_mass(start, step=0.1, max_iters=200,
                                            grad_tol=1e-12)
        assert np.all(np.diff(trace.energies) <= 1e-12)
        assert trace.mass_drift < 1e-12

    def test_symmetric_start_returns_to_the_stationary_energy(self, coarse_spec):
        # moving mass from edge 0 equally onto edges 1 and 2 keeps the
        # 1<->2 symmetry, and in that sector the stationary state is a
        # strict constrained minimum: the flow falls back onto it
        newton, _ = discrete_stationary_state(M, coarse_spec)
        e_star = energy(newton).total
        start = deposit_perturbation(M, coarse_spec, 0.01)
        _, trace = gradient_flow_fixed_mass(start, step=0.1, max_iters=3000,
                                            grad_tol=1e-3)
        assert trace.energies[-1] == pytest.approx(e_star, abs=2e-3)
        assert len(trace.times) < 3000
        assert trace.metadata["stop_reason"] == "converged"
        assert trace.extras["grad_norm"][-1] <= 1e-3

    def test_asymmetric_start_escapes(self, coarse_spec):
        # breaking the symmetry between edges 1 and 2 opens the descent
        # channel along the sesquisoliton family
        newton, _ = discrete_stationary_state(M, coarse_spec)
        e_star = energy(newton).total
        start = shift_perturbation(M, coarse_spec, 0.01)
        _, trace = gradient_flow_fixed_mass(start, step=0.1, max_iters=3000,
                                            grad_tol=1e-6)
        assert trace.energies[-1] < e_star - 2e-3

    def test_trace_records_gradient_norms(self, coarse_spec):
        start = shift_perturbation(M, coarse_spec, 0.01)
        _, trace = gradient_flow_fixed_mass(start, step=0.1, max_iters=50,
                                            grad_tol=1e-12)
        assert "grad_norm" in trace.extras
        assert len(trace.extras["grad_norm"]) == len(trace.times)
        assert trace.metadata["stop_reason"] == "max_iters"
        assert trace.metadata["accepted_steps"] == 50

    def test_one_gradient_and_one_energy_per_trial(self, coarse_spec, monkeypatch):
        # the start state and each accepted state get one gradient, which
        # best_omega shares; every trial step, accepted or not, one energy
        calls = {"energy_gradient": 0, "energy": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(landscape, name, counted(name, getattr(landscape, name)))
        monkeypatch.setattr(operators, "energy_gradient",
                            counted("energy_gradient", operators.energy_gradient))
        start = shift_perturbation(M, coarse_spec, 0.01)
        _, trace = gradient_flow_fixed_mass(start, step=0.1, max_iters=50,
                                            grad_tol=1e-12)
        meta = trace.metadata
        assert meta["accepted_steps"] == len(trace.times) - 1 == 50
        assert meta["rejected_steps"] > 0
        assert calls["energy_gradient"] == meta["accepted_steps"] + 1
        assert calls["energy"] == meta["accepted_steps"] + meta["rejected_steps"] + 1
        assert 0 < meta["final_step"] <= 0.1

    def test_overflowing_trial_is_rejected_not_fatal(self, coarse_spec):
        start = shift_perturbation(M, coarse_spec, 0.01)
        with np.errstate(over="ignore", invalid="ignore"):
            _, trace = gradient_flow_fixed_mass(start, step=1e300, max_iters=5,
                                                grad_tol=1e-12)
        assert trace.metadata["rejected_steps"] > 900
        assert np.all(np.diff(trace.energies) < 0)
        assert trace.mass_drift < 1e-12


class TestRandomStates:
    def test_continuity_and_mass(self, coarse_spec, rng):
        st = random_vertex_continuous_state(coarse_spec, rng, target_mass=M)
        assert vertex_defect(st) < 1e-12
        assert mass(st) == pytest.approx(M, rel=1e-12)

    def test_states_differ_between_draws(self, coarse_spec, rng):
        a = random_vertex_continuous_state(coarse_spec, rng, target_mass=M)
        b = random_vertex_continuous_state(coarse_spec, rng, target_mass=M)
        assert np.max(np.abs(a.values - b.values)) > 1e-3
