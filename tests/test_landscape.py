"""Energy landscape: scans, probes, comparison map, and the descent flow."""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from graphnls import dynamics, graph_core, landscape, operators
from graphnls import (
    DomainError,
    GraphSpec,
    GraphNLSError,
    GraphState,
    best_omega,
    comparison_sesquisoliton,
    deposit_perturbation,
    dilation_family,
    dilation_tangent,
    discrete_stationary_state,
    edge_masses,
    edge_weights,
    energy,
    energy_gradient,
    energy_infimum,
    energy_sesqui_closed,
    gather_perturbation,
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
    weighted_norm,
)
from graphnls.operators import _Arrowhead, _lapack_chain

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
        assert hessian_probe(center, d, 1e-2) == pytest.approx(2.0, abs=0.2)

    def test_phase_direction_is_flat(self, center):
        d = phase_direction(center)
        assert abs(hessian_probe(center, d, 1e-3)) < 1e-6

    def test_chord_through_the_family_is_not_concave(self, center):
        # the constrained second difference along the sesquisoliton
        # chord comes out positive: the curve meets the stationary
        # state in a cusp, so its energy drop is invisible at second
        # order along any straight line of states
        d = sesqui_tangent(M, center.spec)
        assert hessian_probe(center, d, 1e-2) > 0

    def test_curve_itself_drops_quadratically_in_m1(self):
        # directly on the family the one-sided curvature is -M/8
        got = sesqui_curve_second_derivative(M, M / 3.0)
        assert got == pytest.approx(-M / 8.0, abs=1e-6)

    def test_probe_rejects_huge_epsilon(self, center):
        with pytest.raises(GraphNLSError, match="moves the mass by .*not meaningful") as exc:
            hessian_probe(center, center, 0.5)
        assert type(exc.value) is GraphNLSError

    def test_probe_rejects_bad_arguments(self, center):
        with pytest.raises(DomainError):
            hessian_probe(center, center, -1.0)
        with pytest.raises(DomainError):
            zero = GraphState(center.spec, np.zeros_like(center.values))
            hessian_probe(center, zero, 1e-2)

    @pytest.mark.parametrize("length,points", [(20.0, 512), (30.0, 256)])
    def test_probe_rejects_a_direction_on_another_grid(self, length, points):
        # same point count on another length used to give a bogus +2.768,
        # another point count an untyped numpy broadcast ValueError
        center = stationary_state(M, GraphSpec(3, 30.0, 512))[0]
        d = dilation_tangent(M, GraphSpec(3, length, points))
        with pytest.raises(DomainError, match="different grids"):
            hessian_probe(center, d, 1e-2)

    def test_report_row_is_reproducible(self, center):
        d = dilation_tangent(M, center.spec)
        assert hessian_probe(center, d, 1e-2) == hessian_probe(center, d, 1e-2)


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
        with pytest.raises(GraphNLSError, match="an edge carries zero mass") as exc:
            comparison_sesquisoliton(st)
        assert type(exc.value) is GraphNLSError


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

    def test_gather_fills_the_first_edge_and_keeps_the_others_equal(self, coarse_spec):
        st = gather_perturbation(M, coarse_spec, 0.01)
        em = edge_masses(st)
        assert mass(st) == pytest.approx(M, rel=1e-12)
        assert vertex_defect(st) == 0.0
        assert em[0] > M / 3.0 > em[1] == em[2]
        for bad in (0.0, 0.5, -0.1):
            with pytest.raises(DomainError):
                gather_perturbation(M, coarse_spec, bad)

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

    def test_step_grows_past_the_initial_step_up_to_ten_times_it(self, coarse_spec):
        # step is the initial step: accepted steps grow by 1.2 to 10 * step
        start = shift_perturbation(M, coarse_spec, 0.01)
        _, trace = gradient_flow_fixed_mass(start, step=0.1, max_iters=50,
                                            grad_tol=1e-12)
        assert trace.metadata["accepted_steps"] == 50
        assert 0.1 < trace.metadata["final_step"] <= 1.0
        assert np.all(np.diff(trace.energies) <= 0)

    def test_symmetric_start_returns_to_the_stationary_energy(self, coarse_spec):
        # moving mass from edge 0 equally onto edges 1 and 2: the flow
        # falls back onto the stationary state.  The 1<->2 symmetry is not
        # why; gathering mass onto edge 0 keeps it too and escapes
        newton, _ = discrete_stationary_state(M, coarse_spec)
        e_star = energy(newton).total
        start = deposit_perturbation(M, coarse_spec, 0.01)
        _, trace = gradient_flow_fixed_mass(start, step=0.1, max_iters=3000,
                                            grad_tol=1e-3)
        assert trace.energies[-1] == pytest.approx(e_star, abs=2e-3)
        assert len(trace.times) < 3000
        assert trace.metadata["stop_reason"] == "converged"
        assert trace.columns["grad_norm"][-1] <= 1e-3

    def test_deposit_start_returns_to_a_tight_tolerance(self, coarse_spec):
        # next to the degenerate saddle the projected gradient decays
        # slowly; with the step held at 0.1 this run took 29,264 steps,
        # growing it to 10 * step takes 2,932
        start = deposit_perturbation(M, coarse_spec, 0.01)
        _, trace = gradient_flow_fixed_mass(start, step=0.1, max_iters=40000,
                                            grad_tol=1e-6)
        assert trace.metadata["stop_reason"] == "converged"
        assert trace.metadata["accepted_steps"] < 5000
        assert trace.columns["grad_norm"][-1] <= 1e-6

    def test_asymmetric_start_escapes(self, coarse_spec):
        # breaking the symmetry between edges 1 and 2 opens the descent
        # channel along the sesquisoliton family
        newton, _ = discrete_stationary_state(M, coarse_spec)
        e_star = energy(newton).total
        start = shift_perturbation(M, coarse_spec, 0.01)
        _, trace = gradient_flow_fixed_mass(start, step=0.1, max_iters=3000,
                                            grad_tol=1e-6)
        assert trace.energies[-1] < e_star - 2e-3

    def test_tiny_mass_start_descends_to_a_scaled_tolerance(self):
        # at mass 1e-60 the start's gradient norm is 1.2e-34, far below
        # grad_tol = 1e-6: an absolute stop would call the start converged
        # after 0 iterations.  The stop scales with that norm
        start = shift_perturbation(1e-60, GraphSpec(3, 30.0, 64), 0.01)
        tol = 1e-6 * weighted_norm(energy_gradient(start))
        _, trace = gradient_flow_fixed_mass(start, step=0.1, max_iters=40000,
                                            grad_tol=1e-6)
        assert trace.metadata["stop_reason"] == "converged"
        assert trace.metadata["accepted_steps"] > 1000
        grad_norm = trace.columns["grad_norm"]
        assert grad_norm[-1] <= tol < grad_norm[-2]
        assert trace.energies[-1] < trace.energies[0]

    def test_trace_records_gradient_norms(self, coarse_spec):
        start = shift_perturbation(M, coarse_spec, 0.01)
        _, trace = gradient_flow_fixed_mass(start, step=0.1, max_iters=50,
                                            grad_tol=1e-12)
        assert "grad_norm" in trace.columns
        assert len(trace.columns["grad_norm"]) == len(trace.times)
        assert trace.metadata["stop_reason"] == "max_iters"
        assert trace.metadata["accepted_steps"] == 50

    def test_trace_stores_the_table_it_is_written_as(self, coarse_spec):
        start = shift_perturbation(M, coarse_spec, 0.01)
        _, trace = gradient_flow_fixed_mass(start, step=0.1, max_iters=5, grad_tol=1e-12)
        assert trace.columns is trace.columns
        assert list(trace.columns) == ["t", "mass", "energy", "phase", "edge_mass_1",
                                       "edge_mass_2", "edge_mass_3", "grad_norm",
                                       "peak_edge", "peak_coordinate"]
        assert trace.energies is trace.columns["energy"]

    def test_one_gradient_and_one_energy_per_trial(self, coarse_spec, monkeypatch):
        # the start state and each accepted state get one gradient, which
        # best_omega shares; every trial step, accepted or not, one energy.
        # Step 5 forces rejections: at step 0.1 this flow rejects none
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
        _, trace = gradient_flow_fixed_mass(start, step=5.0, max_iters=50,
                                            grad_tol=1e-12)
        meta = trace.metadata
        assert meta["accepted_steps"] == len(trace.times) - 1 == 50
        assert meta["rejected_steps"] > 0
        assert calls["energy_gradient"] == meta["accepted_steps"] + 1
        assert calls["energy"] == meta["accepted_steps"] + meta["rejected_steps"] + 1
        assert 0 < meta["final_step"] <= 5.0

    def test_one_edge_masses_pass_per_trial_and_per_recorded_state(
            self, coarse_spec, monkeypatch):
        # a trial's rescale measures its mass; a recorded state's one pass
        # gives best_omega its mass and the trace its edge masses
        calls = 0
        original = graph_core.edge_masses

        def counted(state):
            nonlocal calls
            calls += 1
            return original(state)

        start = shift_perturbation(M, coarse_spec, 0.01)
        for module in (graph_core, landscape, dynamics):
            monkeypatch.setattr(module, "edge_masses", counted)
        _, trace = gradient_flow_fixed_mass(start, step=5.0, max_iters=50,
                                            grad_tol=1e-12)
        meta = trace.metadata
        assert meta["rejected_steps"] > 0
        trials = meta["accepted_steps"] + meta["rejected_steps"]
        assert calls == trials + len(trace.times)

    def test_gather_start_escapes_along_edge_0(self, coarse_spec):
        # the mirror of the deposit start keeps edges 1 and 2 equal too,
        # and still escapes: a full soliton leaves along edge 0
        start = gather_perturbation(M, coarse_spec, 0.01)
        _, trace = gradient_flow_fixed_mass(start, step=0.1, max_iters=5000,
                                            grad_tol=1e-6)
        assert trace.metadata["stop_reason"] == "near_infimum"
        assert trace.energies[-1] < -(M ** 3) / 216.0 - 0.05
        assert np.array_equal(trace.columns["edge_mass_2"], trace.columns["edge_mass_3"])
        assert trace.columns["edge_mass_1"][-1] > 0.99 * M
        assert trace.columns["peak_edge"][-1] == 0

    def test_escape_stops_near_the_infimum_in_a_grid_independent_count(self):
        # a 4x finer grid would take 16x the iterations of an explicit
        # flow; this count converges like h^2 instead, reading 206,
        # 224, 231, 232 and 233 at N = 256, 512, ..., 4096
        infimum = energy_infimum(M)
        counts = []
        for points in (512, 2048):
            spec = GraphSpec(3, 30.0, points)
            start = shift_perturbation(M, spec, 0.01)
            _, trace = gradient_flow_fixed_mass(start, step=0.1, max_iters=5000,
                                                grad_tol=1e-6)
            assert trace.metadata["stop_reason"] == "near_infimum"
            assert infimum < trace.energies[-1] <= 0.99 * infimum < trace.energies[-2]
            assert trace.columns["peak_coordinate"][-1] < spec.truncation_length / 10
            counts.append(trace.metadata["accepted_steps"])
        assert abs(counts[1] - counts[0]) <= 0.1 * counts[0]

    def test_overflowing_trial_is_rejected_not_fatal(self, coarse_spec):
        start = shift_perturbation(M, coarse_spec, 0.01)
        with np.errstate(over="ignore", invalid="ignore"):
            _, trace = gradient_flow_fixed_mass(start, step=1e300, max_iters=5,
                                                grad_tol=1e-12)
        assert trace.metadata["rejected_steps"] > 900
        assert np.all(np.diff(trace.energies) < 0)
        assert trace.mass_drift < 1e-12


class TestSobolevDirection:
    """d = -(I - L)^{-1} r, r = grad E + best_omega psi, made tangent."""

    @staticmethod
    def direction(state):
        g = energy_gradient(state)
        r = g.values + best_omega(state, g) * state.values
        resolvent = _Arrowhead(state.spec, 1.0, _lapack_chain)
        d = landscape._sobolev_direction(state, r, mass(state), resolvent)
        return g, d

    @staticmethod
    def starts(rng):
        spec = GraphSpec(3, 30.0, 512)
        yield shift_perturbation(M, spec, 0.01)
        yield gather_perturbation(M, spec, 0.01)
        for _ in range(5):
            yield random_vertex_continuous_state(spec, rng, target_mass=M)

    def test_direction_is_tangent_to_the_mass_sphere(self, rng):
        for state in self.starts(rng):
            _, d = self.direction(state)
            w = edge_weights(state.spec)
            radial = float((w * np.real(np.conj(state.values) * d)).sum())
            assert abs(radial) <= 1e-12 * mass(state)

    def test_direction_descends(self, rng):
        for state in self.starts(rng):
            g, d = self.direction(state)
            w = edge_weights(state.spec)
            assert float((w * np.real(np.conj(g.values) * d)).sum()) < 0.0


class TestRandomStates:
    def test_continuity_and_mass(self, coarse_spec, rng):
        st = random_vertex_continuous_state(coarse_spec, rng, target_mass=M)
        assert vertex_defect(st) < 1e-12
        assert mass(st) == pytest.approx(M, rel=1e-12)

    def test_states_differ_between_draws(self, coarse_spec, rng):
        a = random_vertex_continuous_state(coarse_spec, rng, target_mass=M)
        b = random_vertex_continuous_state(coarse_spec, rng, target_mass=M)
        assert np.max(np.abs(a.values - b.values)) > 1e-3


def _spline_edges(spec, seed):
    """The random state's edges as one CubicSpline per edge, from the
    controls that seed draws: the vertex value, then per edge 9 real
    and 9 imaginary parts."""
    rng = np.random.default_rng(seed)
    nodes = np.linspace(0.0, spec.truncation_length, 9)
    vertex = complex(rng.standard_normal() + 1j * rng.standard_normal())
    edges = []
    for _ in range(spec.edge_count):
        ctrl = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        ctrl[0] = vertex
        ctrl[-2:] = 0.0
        vals = CubicSpline(nodes, ctrl)(spec.coordinates())
        vals[-1] = 0.0
        edges.append(vals)
    return edges


class TestSplineBasis:
    @pytest.mark.parametrize("length", [5.0, 30.0])
    @pytest.mark.parametrize("points", [64, 384, 4096])
    def test_edges_match_one_spline_per_edge(self, length, points):
        spec = GraphSpec(3, length, points)
        for seed in range(10):
            st = random_vertex_continuous_state(spec, np.random.default_rng(seed))
            for row, ref in zip(st.values, _spline_edges(spec, seed)):
                assert np.max(np.abs(row - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("length", [5.0, 20.0, 30.0, 60.0])
    @pytest.mark.parametrize("points", [64, 128, 384, 4096])
    def test_basis_equals_cubic_spline_bit_for_bit(self, length, points):
        spec = GraphSpec(3, length, points)
        nodes = np.linspace(0.0, length, 9)
        ref = CubicSpline(nodes, np.eye(9)[:, :7])(spec.coordinates()).T
        assert np.array_equal(landscape._spline_basis(spec), ref)

    def test_vertex_is_shared_and_far_end_is_zero(self, coarse_spec, rng):
        for _ in range(10):
            vals = random_vertex_continuous_state(coarse_spec, rng).values
            assert np.all(vals[:, 0] == vals[0, 0])
            assert np.all(vals[:, -1] == 0.0)

    def test_same_seed_same_state(self, coarse_spec):
        a, b = (random_vertex_continuous_state(
            coarse_spec, np.random.default_rng(7), target_mass=M) for _ in range(2))
        assert a.values.tobytes() == b.values.tobytes()

    def test_basis_is_cached_read_only_and_per_grid(self, coarse_spec):
        basis = landscape._spline_basis(coarse_spec)
        assert basis is landscape._spline_basis(GraphSpec(3, 20.0, 128))
        assert basis.shape == (7, 128)
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 2.0
        assert landscape._spline_basis(GraphSpec(3, 20.0, 64)).shape == (7, 64)
        # the nodes scale with L, so only the grid's point count shapes the values
        other = landscape._spline_basis(GraphSpec(3, 5.0, 128))
        assert other is not basis
        np.testing.assert_allclose(other, basis, rtol=0.0, atol=1e-15)
