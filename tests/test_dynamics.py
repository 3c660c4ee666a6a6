"""Crank-Nicolson evolution: conservation, order, reversal, failure modes."""

import re
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_banded

from graphnls import (
    DomainError,
    EvolutionConfig,
    GraphNLSError,
    GraphSpec,
    GraphState,
    best_omega,
    discrete_stationary_state,
    el_residual,
    energy,
    evolve,
    gradient_flow_fixed_mass,
    mass,
    measure_omega,
    minimizing_sequence_demo,
    sesquisoliton,
    SesquiParams,
    stationary_state,
    step_crank_nicolson,
)
from graphnls import dynamics

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
        # steps 2-3 start from 1.5 psi_n - 0.5 psi_{n-1} (3 solves), steps
        # 4-5 from the quadratic guess (2 solves) and later ones from the
        # degree-4 guess (1 solve); from psi_n it takes 4
        st, _ = newton_512
        _, trace = evolve(st, EvolutionConfig(dt=1e-3, t_final=0.05))
        iters = trace.columns["fixed_point_iters"]
        assert iters[0] == 0
        assert iters[6:].mean() <= 1.1

    def test_standing_wave_takes_one_solve_per_step(self, newton_512):
        st, _ = newton_512
        _, trace = evolve(st, EvolutionConfig(dt=1e-3, t_final=0.05))
        assert np.all(trace.columns["fixed_point_iters"][6:] == 1)

    @pytest.mark.parametrize("dt", [5e-4, 2e-3])
    def test_degree_four_start_keeps_its_margin_across_dt(self, newton_512, dt):
        # the degree-4 start misses the midpoint by ~1e-14, 30x or more
        # inside the stop threshold, so no dt around the default 1e-3
        # (the test above) needs a second solve
        st, _ = newton_512
        _, trace = evolve(st, EvolutionConfig(dt=dt, t_final=0.05))
        assert np.all(trace.columns["fixed_point_iters"][6:] == 1)

    def test_sesquisoliton_takes_at_most_four_solves_per_step(self, newton_512):
        st = sesquisoliton(SesquiParams.solve(1.0, 5.0), newton_512[0].spec)
        _, trace = evolve(st, EvolutionConfig(dt=1e-3, t_final=0.05))
        assert trace.columns["fixed_point_iters"][4:].max() <= 4.0

    def test_iterations_add_up_across_rows(self, newton_512):
        st, _ = newton_512
        every = dict(dt=1e-3, t_final=0.05)
        _, each = evolve(st, EvolutionConfig(**every))
        _, tenth = evolve(st, EvolutionConfig(observe_every=10, **every))
        per_step = each.columns["fixed_point_iters"]
        assert np.array_equal(tenth.columns["fixed_point_iters"],
                              np.concatenate([[0], per_step[1:].reshape(-1, 10).sum(axis=1)]))

    # the start's weights on the latest states, newest first: quadratic
    # from three earlier steps, degree 4 from five
    @pytest.mark.parametrize("moving,coefficients", [
        (False, (1.5, 0.0, -1.0, 0.5)),
        (True, (1.5, 0.0, -1.0, 0.5)),
        (False, (2.5, -2.5, 0.0, 2.5, -2.0, 0.5)),
        (True, (2.5, -2.5, 0.0, 2.5, -2.0, 0.5)),
    ], ids=["standing", "sesqui", "standing-degree4", "sesqui-degree4"])
    def test_start_moves_the_step_only_at_the_tolerance(self, newton_512, moving,
                                                        coefficients):
        st, _ = newton_512
        if moving:
            st = sesquisoliton(SesquiParams.solve(1.0, 5.0), st.spec)
        past = [st.values]
        for _ in range(len(coefficients) - 1):
            st = step_crank_nicolson(st, 1e-3)
            past.insert(0, st.values)
        a = step_crank_nicolson(st, 1e-3)
        b = step_crank_nicolson(st, 1e-3, start=sum(c * p for c, p in zip(coefficients, past)))
        assert np.max(np.abs(a.values - b.values)) <= 1e-11

    def test_start_on_another_grid_rejected(self, newton_512, coarse_spec):
        st, _ = newton_512
        other, _ = discrete_stationary_state(M, coarse_spec)
        with pytest.raises(DomainError):
            step_crank_nicolson(st, 1e-3, start=other.values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_start_rejected(self, newton_512, bad):
        st, _ = newton_512
        start = st.values.copy()
        start[1, 7] = bad
        with pytest.raises(DomainError, match="non-finite"):
            step_crank_nicolson(st, 1e-3, start=start)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_nonfinite_dt_rejected(self, newton_512, dt):
        with pytest.raises(DomainError, match="nonzero and finite"):
            step_crank_nicolson(newton_512[0], dt)

    def test_start_is_left_unchanged(self, newton_512):
        st, _ = newton_512
        start = 1.5 * step_crank_nicolson(st, 1e-3).values - 0.5 * st.values
        kept = start.copy()
        step_crank_nicolson(st, 1e-3, start=start)
        assert start.flags.writeable and np.array_equal(start, kept)

    def test_evolve_repeats_bit_for_bit(self, newton_512):
        # the past states evolve extrapolates from must not share buffers
        st = sesquisoliton(SesquiParams.solve(1.0, 5.0), newton_512[0].spec)
        runs = [evolve(st, EvolutionConfig(dt=1e-3, t_final=0.02)) for _ in range(2)]
        (a, ta), (b, tb) = runs
        assert np.array_equal(a.values, b.values)
        assert all(np.array_equal(ta.columns[k], tb.columns[k]) for k in ta.columns)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _solve_columns(monkeypatch):
    """Column counts of every call of scipy's solve_banded from now on
    through a graphnls module binding of it, the calls perfbench's
    tracer counts."""
    columns = []

    def counted(*args, **kwargs):
        columns.append(args[2].shape[1])
        return solve_banded(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "graphnls":
            for attr, value in list(vars(module).items()):
                if value is solve_banded:
                    monkeypatch.setattr(module, attr, counted)
    return columns


class TestEdgeSymmetricSector:
    """An edge-symmetric state steps on one edge row; forcing the E-row
    path (_edge_symmetric always False) must give the same bits."""

    @pytest.mark.parametrize("dt", [1e-3, -1e-3])
    def test_evolve_matches_the_full_path(self, newton_512, monkeypatch, dt):
        st, _ = newton_512
        config = EvolutionConfig(dt=dt, t_final=0.2, observe_every=5)
        columns = _solve_columns(monkeypatch)
        a, ta = evolve(st, config)
        assert set(columns) == {1}
        monkeypatch.setattr(dynamics, "_edge_symmetric", lambda values: False)
        columns.clear()
        b, tb = evolve(st, config)
        assert set(columns[1:]) == {st.spec.edge_count}
        assert _same_bits(a.values, b.values)
        assert ta.columns.keys() == tb.columns.keys()
        assert all(_same_bits(ta.columns[k], tb.columns[k]) for k in ta.columns)

    def test_step_with_a_start_matches_the_full_path(self, newton_512, monkeypatch):
        st, _ = newton_512
        start = 1.5 * step_crank_nicolson(st, 1e-3).values - 0.5 * st.values
        columns = _solve_columns(monkeypatch)
        a = step_crank_nicolson(st, 1e-3, start=start)
        assert set(columns) == {1}
        monkeypatch.setattr(dynamics, "_edge_symmetric", lambda values: False)
        b = step_crank_nicolson(st, 1e-3, start=start)
        assert _same_bits(a.values, b.values)

    def test_a_fortran_ordered_start_steps_as_a_c_ordered_one(self, newton_512, monkeypatch):
        # _edge_symmetric compares a strided start's rows on a C-ordered copy
        st, _ = newton_512
        start = 1.5 * step_crank_nicolson(st, 1e-3).values - 0.5 * st.values
        a = step_crank_nicolson(st, 1e-3, start=start)
        columns = _solve_columns(monkeypatch)
        b = step_crank_nicolson(st, 1e-3, start=np.asfortranarray(start))
        assert set(columns) == {1}
        assert _same_bits(a.values, b.values)

    def test_one_ulp_off_on_one_edge_takes_the_full_path(self, newton_512, monkeypatch):
        st, _ = newton_512
        values = st.values.astype(complex)
        values[2, 100] = np.nextafter(values[2, 100].real, np.inf) + 1j * values[2, 100].imag
        off = GraphState(st.spec, values)
        columns = _solve_columns(monkeypatch)
        # each call's first solve is its solver's vertex column
        evolve(off, EvolutionConfig(dt=1e-3, t_final=0.01))
        assert set(columns[1:]) == {st.spec.edge_count}
        columns.clear()
        step_crank_nicolson(st, 1e-3, start=values)
        assert set(columns[1:]) == {st.spec.edge_count}


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
        edge_mass = [trace.columns[f"edge_mass_{e}"] for e in (1, 2, 3)]
        drift = max(abs(col[-1] - col[0]) for col in edge_mass)
        assert drift > 1e-6


class TestNewtonRefinement:
    def test_refined_profile_beats_sampled_one(self, newton_512):
        st, omega = newton_512
        spec = st.spec
        sampled, sampled_omega = stationary_state(M, spec)
        after_newton = step_crank_nicolson(st, 1e-3)
        after_sampled = step_crank_nicolson(sampled, 1e-3)
        d_newton = np.max(np.abs(np.abs(after_newton.values) - np.abs(st.values)))
        d_sampled = np.max(np.abs(np.abs(after_sampled.values) - np.abs(sampled.values)))
        assert d_newton < 1e-2 * d_sampled
        assert omega == pytest.approx(sampled_omega, rel=1e-2)

    def test_short_edge_profile_is_a_critical_point_of_the_energy(self):
        # on L = 5 the profile is still 2e-2 at x = L, so a far-end row
        # other than the energy gradient's leaves a visible residual
        newton, _ = discrete_stationary_state(M, GraphSpec(3, 5.0, 256))
        assert el_residual(newton, best_omega(newton)) <= 1e-9


class TestFailureModes:
    def test_huge_step_fails_loudly(self, coarse_spec):
        st, _ = discrete_stationary_state(M, coarse_spec)
        with pytest.raises(GraphNLSError, match=r"^step \d+: .*try a smaller dt$") as exc:
            evolve(st, EvolutionConfig(dt=1.0, t_final=2.0))
        assert type(exc.value) is GraphNLSError
        assert int(re.match(r"step (\d+): ", str(exc.value))[1]) >= 1

    def test_overflowing_iterate_fails_the_step_silently(self):
        # at M = 1000 the midpoint iteration diverges within the first step
        spec = GraphSpec(3, 30.0, 64)
        st, _ = stationary_state(1e3, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphNLSError, match=r"^step 1: midpoint iteration overflowed") as exc:
                evolve(st, EvolutionConfig(dt=1e-3, t_final=0.01))
        assert type(exc.value) is GraphNLSError
        assert "try a smaller dt" in str(exc.value)

    def test_domain_error_inside_a_step_keeps_its_class(self, coarse_spec, monkeypatch):
        # only a run failure gets the "step k: " prefix; bad input still exits 2
        def bad_start(*args, **kwargs):
            raise DomainError("start contains non-finite values")

        st, _ = discrete_stationary_state(M, coarse_spec)
        monkeypatch.setattr(dynamics, "step_crank_nicolson", bad_start)
        with pytest.raises(DomainError) as exc:
            evolve(st, EvolutionConfig(dt=1e-3, t_final=0.01))
        assert type(exc.value) is DomainError
        assert str(exc.value) == "start contains non-finite values"

    def test_undersampled_phase_detected(self):
        # omega = 1, so 3 time units between samples advances the phase
        # by ~3 radians, beyond the unwrap limit
        spec = GraphSpec(3, 20.0, 256)
        st, _ = discrete_stationary_state(M, spec)
        _, trace = evolve(st, EvolutionConfig(dt=1e-2, t_final=9.0,
                                              observe_every=300))
        with pytest.raises(GraphNLSError, match="phase advances close to pi per sample") as exc:
            measure_omega(trace)
        assert type(exc.value) is GraphNLSError

    def test_flow_stalls_at_the_stationary_point(self, coarse_spec):
        st, _ = discrete_stationary_state(M, coarse_spec)
        final, trace = gradient_flow_fixed_mass(st, step=0.1, max_iters=200,
                                                grad_tol=0.0)
        assert trace.metadata["stop_reason"] == "stalled"
        assert trace.metadata["final_step"] < 1e-12
        # the last accepted state comes back, not a rejected trial
        assert energy(final).total == trace.energies[-1]

    def test_short_edges_rejected_for_small_m1(self):
        spec = GraphSpec(3, 5.0, 128)
        with pytest.raises(DomainError, match="pushes the soliton peak too close") as exc:
            minimizing_sequence_demo(M, [1.0, 0.1], spec)
        floor = float(re.search(r"smallest admissible m1 is about (\S+)$", str(exc.value))[1])
        assert floor == pytest.approx(0.4925, abs=1e-3)


class TestPhaseSlope:
    def test_recovers_linear_phase(self, newton_512):
        st, _ = newton_512
        _, trace = evolve(st, EvolutionConfig(dt=1e-3, t_final=0.1,
                                              observe_every=10))
        assert measure_omega(trace) == pytest.approx(1.0, abs=5e-3)

    def test_needs_three_samples(self, newton_512):
        st, _ = newton_512
        _, trace = evolve(st, EvolutionConfig(dt=1e-3, t_final=0.002))
        # only 3 samples here, so this passes; 2 would not
        _, short = evolve(st, EvolutionConfig(dt=1e-3, t_final=0.001))
        with pytest.raises(DomainError):
            measure_omega(short)
