"""Crank-Nicolson evolution: conservation, order, reversal, failure modes."""

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
    discrete_stationary_state,
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

    def test_energy_drift_scales_as_dt_squared(self, newton_512):
        st, _ = newton_512
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


class TestFailureModes:
    def test_huge_step_fails_loudly(self, coarse_spec):
        st, _ = discrete_stationary_state(M, coarse_spec)
        with pytest.raises(StepFailureError) as exc:
            evolve(st, EvolutionConfig(dt=1.0, t_final=2.0))
        assert exc.value.step_index >= 1

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
