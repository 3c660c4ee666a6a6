"""Crank-Nicolson evolution: conservation, order, reversal, failure modes."""

import warnings

import numpy as np
import pytest

from graphnls import (
    AliasingError,
    DomainError,
    EvolutionConfig,
    GraphSpec,
    GraphState,
    StallError,
    StepFailureError,
    TruncationError,
    best_omega,
    discrete_stationary_state,
    el_residual,
    evolve,
    gradient_flow_fixed_mass,
    mass,
    measure_omega,
    minimizing_sequence_demo,
    phase_slope,
    sesquisoliton,
    SesquiParams,
    stationary_state,
    step_crank_nicolson,
)

M = 6.0


@pytest.fixture(scope="module")
def newton_512():
    spec = GraphSpec(3, 30.0, 512)
    state, omega = discrete_stationary_state(M, spec)
    return state, omega


class TestConfig:
    def test_zero_dt_rejected(self):
        with pytest.raises(DomainError):
            EvolutionConfig(dt=0.0, t_final=1.0)

    def test_nonpositive_t_final_rejected(self):
        with pytest.raises(DomainError):
            EvolutionConfig(dt=1e-3, t_final=0.0)

    def test_dt_larger_than_t_final_rejected(self):
        with pytest.raises(DomainError):
            EvolutionConfig(dt=2.0, t_final=1.0)

    def test_non_integer_step_count_rejected(self, coarse_spec):
        st, _ = stationary_state(M, coarse_spec)
        with pytest.raises(DomainError):
            evolve(st, EvolutionConfig(dt=0.3, t_final=1.0))


class TestConservation:
    def test_mass_conserved(self, newton_512):
        st, _ = newton_512
        _, trace = evolve(st, EvolutionConfig(dt=1e-3, t_final=0.1,
                                              observe_every=10))
        assert trace.mass_drift < 1e-12

    def test_short_edges_conserve_mass_and_energy(self):
        # on L = 5 the half-soliton edge is still 0.12 at x = L, so the
        # far-end row of the propagator must be the one energy() uses
        spec = GraphSpec(3, 5.0, 512)
        st = sesquisoliton(SesquiParams.solve(1.0, 5.0), spec)
        _, trace = evolve(st, EvolutionConfig(dt=1e-3, t_final=1.0,
                                              observe_every=10))
        assert trace.mass_drift <= 1e-10
        assert trace.energy_drift <= 1e-6

    def test_energy_drift_scales_as_dt_squared(self, newton_512):
        # a moving state: the standing wave keeps its energy to rounding
        # (~1e-14, not monotone in dt), so it shows no dt^2 law
        st = sesquisoliton(SesquiParams.solve(1.0, 5.0), newton_512[0].spec)
        drifts = []
        for dt in (2e-3, 1e-3):
            _, tr = evolve(st, EvolutionConfig(dt=dt, t_final=0.1,
                                               observe_every=10))
            drifts.append(tr.energy_drift)
        ratio = drifts[0] / drifts[1]
        assert 3.0 < ratio < 5.5

    def test_standing_wave_modulus_frozen_one_step(self, newton_512):
        # |psi| should not move at all for the exact discrete profile
        st, _ = newton_512
        after = step_crank_nicolson(st, 1e-3)
        drift = np.max(np.abs(np.abs(after.values) - np.abs(st.values)))
        assert drift < 1e-10

    def test_measured_omega(self, newton_512):
        st, _ = newton_512
        _, trace = evolve(st, EvolutionConfig(dt=1e-3, t_final=0.2,
                                              observe_every=10))
        assert measure_omega(trace) == pytest.approx(M * M / 36.0, abs=2e-3)


class TestMidpointIteration:
    def test_extrapolated_start_saves_a_solve(self, newton_512):
        # every step after the first starts from 1.5 psi_n - 0.5 psi_{n-1},
        # one iteration closer than psi_n (4 per step from psi_n)
        st, _ = newton_512
        _, trace = evolve(st, EvolutionConfig(dt=1e-3, t_final=0.05))
        iters = trace.extras["fixed_point_iters"]
        assert iters[0] == 0
        assert iters[2:].mean() <= 3.1

    def test_iterations_add_up_across_rows(self, newton_512):
        st, _ = newton_512
        every = dict(dt=1e-3, t_final=0.05)
        _, each = evolve(st, EvolutionConfig(**every))
        _, tenth = evolve(st, EvolutionConfig(observe_every=10, **every))
        per_step = each.extras["fixed_point_iters"]
        assert np.array_equal(tenth.extras["fixed_point_iters"],
                              np.concatenate([[0], per_step[1:].reshape(-1, 10).sum(axis=1)]))

    @pytest.mark.parametrize("moving", [False, True], ids=["standing", "sesqui"])
    def test_start_moves_the_step_only_at_the_tolerance(self, newton_512, moving):
        st, _ = newton_512
        if moving:
            st = sesquisoliton(SesquiParams.solve(1.0, 5.0), st.spec)
        p, st = st, step_crank_nicolson(st, 1e-3)
        a = step_crank_nicolson(st, 1e-3)
        b = step_crank_nicolson(st, 1e-3, previous=p)
        assert np.max(np.abs(a.values - b.values)) <= 1e-11

    def test_previous_on_another_grid_rejected(self, newton_512, coarse_spec):
        st, _ = newton_512
        other, _ = discrete_stationary_state(M, coarse_spec)
        with pytest.raises(DomainError):
            step_crank_nicolson(st, 1e-3, previous=other)


class TestStructure:
    def test_gauge_covariance(self, newton_512):
        st, _ = newton_512
        rot = GraphState(st.spec, st.values * np.exp(1j * 0.9))
        a = step_crank_nicolson(st, 1e-3)
        b = step_crank_nicolson(rot, 1e-3)
        assert np.max(np.abs(b.values - a.values * np.exp(1j * 0.9))) < 1e-12

    def test_small_amplitude_linearity(self, newton_512):
        # cubic term is negligible at amplitude 1e-6, so doubling the
        # input should double the output
        st, _ = newton_512
        eps = 1e-6
        small = GraphState(st.spec, eps * st.values)
        double = GraphState(st.spec, 2 * eps * st.values)
        a = step_crank_nicolson(small, 1e-3)
        b = step_crank_nicolson(double, 1e-3)
        assert np.max(np.abs(b.values - 2 * a.values)) / eps < 1e-9

    def test_time_reversal_round_trip(self, newton_512):
        st, _ = newton_512
        fwd, _ = evolve(st, EvolutionConfig(dt=1e-3, t_final=0.05))
        back, _ = evolve(fwd, EvolutionConfig(dt=-1e-3, t_final=0.05))
        assert np.max(np.abs(back.values - st.values)) < 1e-6

    def test_sesquisoliton_is_not_stationary(self):
        # a trial state off the standing-wave family radiates: modulus moves
        spec = GraphSpec(3, 30.0, 512)
        st = sesquisoliton(SesquiParams.solve(1.0, 5.0), spec)
        _, trace = evolve(st, EvolutionConfig(dt=1e-3, t_final=0.3,
                                              observe_every=30))
        drift = np.max(np.abs(trace.edge_masses[-1] - trace.edge_masses[0]))
        assert drift > 1e-6


class TestNewtonRefinement:
    def test_refined_profile_beats_sampled_one(self, newton_512):
        st, omega = newton_512
        spec = st.spec
        sampled, info = stationary_state(M, spec)
        after_newton = step_crank_nicolson(st, 1e-3)
        after_sampled = step_crank_nicolson(sampled, 1e-3)
        d_newton = np.max(np.abs(np.abs(after_newton.values) - np.abs(st.values)))
        d_sampled = np.max(np.abs(np.abs(after_sampled.values) - np.abs(sampled.values)))
        assert d_newton < 1e-2 * d_sampled
        assert omega == pytest.approx(info.omega, rel=1e-2)

    def test_short_edge_profile_is_a_critical_point_of_the_energy(self):
        # on L = 5 the profile is still 2e-2 at x = L, so a far-end row
        # other than the energy gradient's leaves a visible residual
        newton, _ = discrete_stationary_state(M, GraphSpec(3, 5.0, 256))
        assert el_residual(newton, best_omega(newton)) <= 1e-9


class TestFailureModes:
    def test_huge_step_fails_loudly(self, coarse_spec):
        st, _ = discrete_stationary_state(M, coarse_spec)
        with pytest.raises(StepFailureError) as exc:
            evolve(st, EvolutionConfig(dt=1.0, t_final=2.0))
        assert exc.value.step_index >= 1

    def test_overflowing_iterate_fails_the_step_silently(self):
        # at M = 1000 the midpoint iteration diverges within the first step
        spec = GraphSpec(3, 30.0, 64)
        st, _ = stationary_state(1e3, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailureError) as exc:
                evolve(st, EvolutionConfig(dt=1e-3, t_final=0.01))
        assert exc.value.step_index == 1
        assert "try a smaller dt" in str(exc.value)

    def test_undersampled_phase_detected(self):
        # omega = 1, so 3 time units between samples advances the phase
        # by ~3 radians, beyond the unwrap limit
        spec = GraphSpec(3, 20.0, 256)
        st, _ = discrete_stationary_state(M, spec)
        _, trace = evolve(st, EvolutionConfig(dt=1e-2, t_final=9.0,
                                              observe_every=300))
        with pytest.raises(AliasingError):
            measure_omega(trace)

    def test_flow_stalls_at_the_stationary_point(self, coarse_spec):
        st, _ = discrete_stationary_state(M, coarse_spec)
        with pytest.raises(StallError) as exc:
            gradient_flow_fixed_mass(st, step=0.1, max_iters=200, grad_tol=0.0)
        assert len(exc.value.trace.times) > 0
        assert exc.value.trace.metadata["stop_reason"] == "stalled"
        assert exc.value.trace.metadata["final_step"] < 1e-12

    def test_short_edges_rejected_for_small_m1(self):
        spec = GraphSpec(3, 5.0, 128)
        with pytest.raises(TruncationError) as exc:
            minimizing_sequence_demo(M, [1.0, 0.1], spec)
        assert exc.value.m1_floor == pytest.approx(0.4925, abs=1e-3)


class TestPhaseSlope:
    def test_recovers_linear_phase(self, newton_512):
        st, _ = newton_512
        _, trace = evolve(st, EvolutionConfig(dt=1e-3, t_final=0.1,
                                              observe_every=10))
        assert phase_slope(trace) == pytest.approx(1.0, abs=5e-3)

    def test_needs_three_samples(self, newton_512):
        st, _ = newton_512
        _, trace = evolve(st, EvolutionConfig(dt=1e-3, t_final=0.002))
        # only 3 samples here, so this passes; 2 would not
        _, short = evolve(st, EvolutionConfig(dt=1e-3, t_final=0.001))
        with pytest.raises(DomainError):
            phase_slope(short)
