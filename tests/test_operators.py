"""Energy, gradient, and Laplacian on the star grid."""

import math

import numpy as np
import pytest

from graphnls import (
    DomainError,
    GraphSpec,
    GraphState,
    apply_laplacian,
    best_omega,
    el_residual,
    energy,
    energy_gradient,
    energy_sesqui_closed,
    mass,
    rescale_mass,
    random_vertex_continuous_state,
    sesquisoliton,
    SesquiParams,
    stationary_state,
    weighted_inner,
    weighted_norm,
)
from graphnls.dynamics import _banded_chain
from graphnls.operators import (_Arrowhead, _lapack_chain, _laplacian_bands,
                                _laplacian_values, _vertex_coupling)

M = 6.0


def gaussian_state(spec, width=2.0):
    # u'(0) = 0 on every edge, so the Kirchhoff condition holds exactly
    x = spec.coordinates()
    row = np.exp(-((x / width) ** 2)).astype(complex)
    return GraphState(spec, np.tile(row, (spec.edge_count, 1)))


def state_alive_at_far_end(spec, rng):
    # the random states vanish at x = L, where the far-end row of the
    # Laplacian acts; a constant shift makes that row count
    st = random_vertex_continuous_state(spec, rng, target_mass=1.0)
    shift = complex(rng.standard_normal(), rng.standard_normal())
    return GraphState(spec, st.values + shift)


class TestWeightedInner:
    def test_norm_squared_is_mass(self, coarse_spec, rng):
        st = random_vertex_continuous_state(coarse_spec, rng, target_mass=M)
        assert weighted_norm(st) ** 2 == pytest.approx(mass(st), rel=1e-12)

    def test_conjugate_symmetry(self, coarse_spec, rng):
        a = random_vertex_continuous_state(coarse_spec, rng, target_mass=2.0)
        b = random_vertex_continuous_state(coarse_spec, rng, target_mass=3.0)
        assert weighted_inner(a, b) == pytest.approx(
            np.conj(weighted_inner(b, a)), rel=1e-12)

    def test_rejects_states_on_different_grids(self):
        # another point count, and the same point count on another length
        st, _ = stationary_state(M, GraphSpec(3, 20.0, 128))
        for spec in (GraphSpec(3, 20.0, 256), GraphSpec(3, 30.0, 128)):
            other, _ = stationary_state(M, spec)
            for a, b in ((st, other), (other, st)):
                with pytest.raises(DomainError, match="different grids"):
                    weighted_inner(a, b)


class TestLaplacian:
    def test_matches_second_derivative_inside_edges(self):
        spec = GraphSpec(3, 20.0, 4096)
        st = gaussian_state(spec)
        x = spec.coordinates()
        lap = apply_laplacian(st)
        # exact: u'' = (4x^2/w^4 - 2/w^2) exp(-x^2/w^2) with w = 2
        exact = (x ** 2 - 2.0) / 4.0 * np.exp(-((x / 2.0) ** 2))
        mid = slice(50, 2000)
        err = np.max(np.abs(lap.values[0][mid] - exact[mid]))
        assert err < 1e-5

    def test_symmetric_in_weighted_inner(self, coarse_spec, rng):
        worst = 0.0
        for _ in range(10):
            a = state_alive_at_far_end(coarse_spec, rng)
            b = state_alive_at_far_end(coarse_spec, rng)
            s1 = weighted_inner(apply_laplacian(a), b)
            s2 = weighted_inner(a, apply_laplacian(b))
            worst = max(worst, abs(s1 - s2) / max(abs(s1), 1.0))
        assert worst < 1e-12

    def test_negative_semidefinite(self, coarse_spec, rng):
        for _ in range(10):
            a = state_alive_at_far_end(coarse_spec, rng)
            q = weighted_inner(apply_laplacian(a), a).real
            assert q <= 1e-12


class TestOneMatrix:
    # on L = 5 with random values at x = L the far-end row counts
    def test_bands_are_the_stencil_on_symmetric_states(self, rng):
        spec = GraphSpec(3, 5.0, 257)
        u = rng.standard_normal(spec.points_per_edge)
        bands = _laplacian_bands(spec)
        matrix = (np.diag(bands[1]) + np.diag(bands[0, 1:], 1)
                  + np.diag(bands[2, :-1], -1))
        stencil = _laplacian_values(np.broadcast_to(u, (3, u.size)), spec)
        assert np.max(np.abs(stencil - matrix @ u)) <= 1e-12 * np.max(np.abs(stencil))

    def test_bands_equal_the_stencil_bit_for_bit(self):
        # on this grid h * h != h ** 2, so both must square h one way
        spec = GraphSpec(3, 30.0, 384)
        h = spec.spacing
        assert h * h != h ** 2
        N = spec.points_per_edge
        bands = _laplacian_bands(spec)
        matrix = (np.diag(bands[1]) + np.diag(bands[0, 1:], 1)
                  + np.diag(bands[2, :-1], -1))
        stencil = np.column_stack([_laplacian_values(np.broadcast_to(e, (3, N)), spec)[0]
                                   for e in np.eye(N)])
        assert np.array_equal(stencil, matrix)
        one_edge = np.zeros((3, N))
        one_edge[0, 1] = 1.0
        assert _laplacian_values(one_edge, spec)[0, 0] == _vertex_coupling(spec)

    # the stepper's ((-2i/dt) I - L) W = -rhs for dt = +-1e-3 and the
    # flow's (I - L) W = rhs; at L = 5/N = 4096 the stencil's own
    # rounding reads 1.1e-10, so that grid would measure the measurement
    @pytest.mark.parametrize("shift, factor, length, points", [
        (-2j / 1e-3, _banded_chain, 5.0, 257),
        (-2j / -1e-3, _banded_chain, 5.0, 257),
        (1.0, _lapack_chain, 5.0, 257),
        (1.0, _lapack_chain, 30.0, 4096),
        (-2j / 1e-3, _banded_chain, 5.0, 4),
        (1.0, _lapack_chain, 5.0, 4),
    ], ids=["stepper-dt=1e-3", "stepper-dt=-1e-3", "flow-5.0-257", "flow-30.0-4096",
            "stepper-5.0-4", "flow-5.0-4"])
    def test_arrowhead_inverts_the_shifted_laplacian(self, rng, shift, factor, length, points):
        spec = GraphSpec(3, length, points)
        rhs = state_alive_at_far_end(spec, rng).values
        W = _Arrowhead(spec, shift, factor).solve(rhs[:, 0].mean(), rhs[:, 1:])
        residual = shift * W - _laplacian_values(W, spec) - rhs
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)

    # an edge-symmetric right-hand side solved as one row; the vertex
    # sum of E equal chain heads rounds as E times one head for E <= 5,
    # but not for E = 6, so that case pins the order of the sum
    @pytest.mark.parametrize("edges", [2, 3, 4, 6])
    @pytest.mark.parametrize("points", [4, 257])
    @pytest.mark.parametrize("shift, factor", [(-2j / 1e-3, _banded_chain),
                                               (1.0, _lapack_chain)],
                             ids=["stepper", "flow"])
    def test_one_row_solve_is_every_row_of_the_full_solve(self, rng, edges, points,
                                                         shift, factor):
        spec = GraphSpec(edges, 5.0, points)
        solver = _Arrowhead(spec, shift, factor)
        for _ in range(8):
            row = rng.standard_normal(points) + 1j * rng.standard_normal(points)
            rhs = np.tile(row, (edges, 1))
            full = solver.solve(row[0], rhs[:, 1:])
            one = solver.solve(row[0], rhs[:1, 1:])
            assert np.broadcast_to(one, full.shape).tobytes() == full.tobytes()

    # the stepper keeps each iterate as the next one's input, so a solve
    # must hand back a new array and never touch an earlier result
    @pytest.mark.parametrize("shift, factor", [(-2j / 1e-3, _banded_chain),
                                               (1.0, _lapack_chain)],
                             ids=["stepper", "flow"])
    def test_each_solve_returns_a_new_array(self, rng, shift, factor):
        spec = GraphSpec(3, 5.0, 257)
        solver = _Arrowhead(spec, shift, factor)
        first_rhs, second_rhs = (state_alive_at_far_end(spec, rng).values for _ in range(2))
        first = solver.solve(first_rhs[:, 0].mean(), first_rhs[:, 1:])
        kept = first.copy()
        second = solver.solve(second_rhs[:, 0].mean(), second_rhs[:, 1:])
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()
        assert not np.array_equal(first, second)


class TestEnergy:
    def test_report_is_consistent(self, coarse_spec, rng):
        st = random_vertex_continuous_state(coarse_spec, rng, target_mass=M)
        rep = energy(st)
        assert rep.total == pytest.approx(rep.kinetic - rep.quartic, rel=1e-14)
        assert rep.mass == pytest.approx(mass(st), rel=1e-14)

    def test_sesquisoliton_energy(self):
        spec = GraphSpec(3, 30.0, 2048)
        st = sesquisoliton(SesquiParams.solve(1.0, 5.0), spec)
        assert energy(st).total == pytest.approx(
            energy_sesqui_closed(1.0, M), rel=1e-4)


class TestGradient:
    def test_finite_difference_consistency(self, rng):
        # directional derivative of E against Re<grad E, D>
        spec = GraphSpec(3, 20.0, 256)
        worst = 0.0
        for _ in range(10):
            st = random_vertex_continuous_state(spec, rng, target_mass=M)
            d = random_vertex_continuous_state(spec, rng, target_mass=1.0)
            g = energy_gradient(st)
            h = 1e-6
            ep = energy(GraphState(spec, st.values + h * d.values)).total
            em = energy(GraphState(spec, st.values - h * d.values)).total
            fd = (ep - em) / (2.0 * h)
            an = weighted_inner(g, d).real
            worst = max(worst, abs(fd - an) / max(abs(an), 1.0))
        assert worst < 1e-6

    def test_gradient_small_at_stationary_state(self):
        spec = GraphSpec(3, 30.0, 2048)
        st, omega = stationary_state(M, spec)
        # grad E = -lap - |psi|^2 psi; at the profile it equals -omega*psi
        g = energy_gradient(st)
        resid = GraphState(spec, g.values + omega * st.values)
        assert weighted_norm(resid) < 1e-3


class TestEulerLagrange:
    def test_residual_small_at_stationary_state(self):
        spec = GraphSpec(3, 30.0, 2048)
        st, omega = stationary_state(M, spec)
        assert el_residual(st, omega) < 1e-3

    def test_residual_quarters_under_grid_halving(self):
        st1, omega = stationary_state(M, GraphSpec(3, 30.0, 1024))
        st2, _ = stationary_state(M, GraphSpec(3, 30.0, 2047))
        r1 = el_residual(st1, omega)
        r2 = el_residual(st2, omega)
        assert 3.5 < r1 / r2 < 4.5

    def test_best_omega_at_stationary_state(self):
        spec = GraphSpec(3, 30.0, 2048)
        st, omega = stationary_state(M, spec)
        assert best_omega(st) == pytest.approx(omega, rel=1e-3)

    def test_best_omega_reuses_a_given_gradient_exactly(self, coarse_spec, rng):
        st = random_vertex_continuous_state(coarse_spec, rng, target_mass=M)
        assert best_omega(st, energy_gradient(st)) == best_omega(st)
        other = GraphState(GraphSpec(3, 10.0, 128), st.values)
        with pytest.raises(DomainError):
            best_omega(st, energy_gradient(other))

    def test_residual_large_off_solution(self, coarse_spec, rng):
        st = random_vertex_continuous_state(coarse_spec, rng, target_mass=M)
        assert el_residual(st, best_omega(st)) > 1e-2


class TestGaugeInvariance:
    def test_energy_unchanged_by_global_phase(self, coarse_spec, rng):
        st = random_vertex_continuous_state(coarse_spec, rng, target_mass=M)
        rot = GraphState(coarse_spec, st.values * np.exp(1j * 0.7))
        assert energy(rot).total == pytest.approx(energy(st).total, rel=1e-13)

    def test_gradient_rotates_with_the_state(self, coarse_spec, rng):
        st = random_vertex_continuous_state(coarse_spec, rng, target_mass=M)
        rot = GraphState(coarse_spec, st.values * np.exp(1j * 0.7))
        g1 = energy_gradient(rot).values
        g2 = energy_gradient(st).values * np.exp(1j * 0.7)
        assert np.max(np.abs(g1 - g2)) < 1e-12
