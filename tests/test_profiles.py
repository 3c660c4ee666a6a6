"""Soliton families checked against quadrature and bisection oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from graphnls import (
    DomainError,
    GraphSpec,
    OffsetError,
    SesquiParams,
    TruncationError,
    energy,
    energy_infimum,
    energy_sesqui_closed,
    half_soliton,
    line_soliton,
    mass,
    sesquisoliton,
    solve_offset,
    stationary_state,
    vertex_defect,
)

M = 6.0


def sech(z):
    # overflow-safe for |z| beyond the range of math.cosh
    a = abs(z)
    e = math.exp(-a)
    return 2.0 * e / (1.0 + e * e)


def half_profile(m):
    return lambda x: (m / math.sqrt(2.0)) * sech(0.5 * m * x)


def line_profile(m, y):
    return lambda x: (m / (2.0 * math.sqrt(2.0))) * sech(0.25 * m * (x - y))


def bisect_offset(m1, m2):
    # vertex matching: line soliton at distance y equals the half-soliton peak
    f = lambda y: line_profile(m2, 0.0)(y) - m1 / math.sqrt(2.0)
    lo, hi = 0.0, 1.0
    while f(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSolitonProfiles:
    @pytest.mark.parametrize("m", [0.5, 2.0, 6.0])
    def test_half_soliton_mass_is_m(self, m):
        total = quad(lambda x: half_profile(m)(x) ** 2, 0.0, np.inf)[0]
        assert total == pytest.approx(m, rel=1e-10)

    @pytest.mark.parametrize("m", [1.0, 4.0])
    def test_line_soliton_mass_is_m(self, m):
        total = quad(lambda x: line_profile(m, 0.0)(x) ** 2, -np.inf, np.inf)[0]
        assert total == pytest.approx(m, rel=1e-10)

    def test_sampled_values_match_formula(self):
        spec = GraphSpec(3, 20.0, 256)
        x = spec.coordinates()
        got = half_soliton(2.0, spec)
        want = np.array([half_profile(2.0)(v) for v in x])
        assert np.max(np.abs(got - want)) < 1e-14

    def test_nonpositive_mass_rejected(self):
        spec = GraphSpec(3, 20.0, 64)
        with pytest.raises(DomainError):
            half_soliton(0.0, spec)
        with pytest.raises(DomainError):
            line_soliton(-1.0, 0.0, spec.coordinates())


class TestOffset:
    @pytest.mark.parametrize("m1,m2", [(1.0, 5.0), (0.5, 5.5), (1.9, 4.1),
                                       (0.05, 5.95), (2.0, 4.0)])
    def test_matches_bisection(self, m1, m2):
        assert solve_offset(m1, m2) == pytest.approx(
            bisect_offset(m1, m2), abs=1e-10)

    # (4/m2) acosh(1) is inf * 0 when 4/m2 overflows
    @pytest.mark.parametrize("m1,m2", [(2.0, 4.0), (1e-310, 2e-310), (5e-324, 1e-323)])
    def test_degenerate_corner_is_zero(self, m1, m2):
        assert solve_offset(m1, m2) == 0.0

    def test_extreme_ratio_stays_finite(self):
        y = solve_offset(1e-12, 6.0)
        assert math.isfinite(y)
        assert line_profile(6.0, 0.0)(y) == pytest.approx(
            1e-12 / math.sqrt(2.0), rel=1e-6)
        # log(2 * ratio) would overflow here, and acosh does not
        y = solve_offset(1e-308, 3.4)
        assert math.isfinite(y)
        assert y == (4.0 / 3.4) * math.acosh(3.4 / (2.0 * 1e-308))

    def test_inadmissible_masses_rejected(self):
        with pytest.raises(OffsetError):
            solve_offset(3.0, 1.0)
        with pytest.raises(DomainError):
            solve_offset(-1.0, 5.0)


class TestSesquisoliton:
    def test_params_require_consistent_offset(self):
        with pytest.raises(DomainError):
            SesquiParams(m1=1.0, m2=5.0, offset=0.1)
        p = SesquiParams.solve(1.0, 5.0)
        assert p.total_mass == 6.0

    def test_continuous_at_vertex(self):
        spec = GraphSpec(3, 30.0, 1024)
        st = sesquisoliton(SesquiParams.solve(1.0, 5.0), spec)
        assert vertex_defect(st) < 1e-14

    def test_total_mass(self):
        spec = GraphSpec(3, 40.0, 4096)
        st = sesquisoliton(SesquiParams.solve(1.0, 5.0), spec)
        assert mass(st) == pytest.approx(6.0, rel=1e-6)

    def test_peak_sits_on_second_edge(self):
        spec = GraphSpec(3, 30.0, 1024)
        st = sesquisoliton(SesquiParams.solve(0.5, 5.5), spec)
        peaks = np.max(np.abs(st.values), axis=1)
        assert peaks[1] > peaks[2]
        assert peaks[1] > peaks[0]

    def test_needs_three_edges(self):
        with pytest.raises(DomainError):
            sesquisoliton(SesquiParams.solve(1.0, 5.0), GraphSpec(2, 30.0, 64))

    @pytest.mark.parametrize("m1", [1e-12, 1e-308])
    def test_peak_beyond_the_edge_is_a_truncation_error(self, m1):
        spec = GraphSpec(3, 30.0, 64)
        params = SesquiParams.solve(m1, 3.4)
        assert params.offset > 30.0
        with pytest.raises(TruncationError) as exc:
            sesquisoliton(params, spec)
        assert isinstance(exc.value, DomainError)
        # the floor puts the peak at the far end, x = L
        floor = exc.value.m1_floor
        assert solve_offset(floor, 3.4) == pytest.approx(30.0, rel=1e-9)
        sesquisoliton(SesquiParams.solve(floor * (1.0 + 1e-9), 3.4), spec)


class TestClosedEnergy:
    @pytest.mark.parametrize("m1", [0.5, 1.0, 1.5, 2.0])
    def test_closed_form_matches_quadrature(self, m1):
        m2 = M - m1
        y = solve_offset(m1, m2)

        def edge_energy(prof, deriv):
            kin = quad(lambda x: deriv(x) ** 2, 0.0, np.inf)[0]
            qua = quad(lambda x: prof(x) ** 4, 0.0, np.inf)[0]
            return 0.5 * kin - 0.25 * qua

        def d_half(x):
            v = half_profile(m1)(x)
            return -0.5 * m1 * v * math.tanh(0.5 * m1 * x)

        def d_line(y0):
            def d(x):
                v = line_profile(m2, y0)(x)
                return -0.25 * m2 * v * math.tanh(0.25 * m2 * (x - y0))
            return d

        e = (edge_energy(half_profile(m1), d_half)
             + edge_energy(line_profile(m2, y), d_line(y))
             + edge_energy(line_profile(m2, -y), d_line(-y)))
        assert e == pytest.approx(energy_sesqui_closed(m1, M), rel=1e-9)

    def test_strictly_increasing_in_m1(self):
        m1s = np.linspace(0.05, 2.0, 50)
        es = [energy_sesqui_closed(v, M) for v in m1s]
        assert np.all(np.diff(es) > 0)

    def test_limits(self):
        assert energy_sesqui_closed(M / 3.0, M) == pytest.approx(
            -(M ** 3) / 216.0, rel=1e-14)
        assert energy_sesqui_closed(1e-9, M) == pytest.approx(
            energy_infimum(M), rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            energy_sesqui_closed(2.5, M)
        with pytest.raises(DomainError):
            energy_sesqui_closed(0.0, M)

    def test_discrete_energy_matches_closed(self):
        spec = GraphSpec(3, 30.0, 2048)
        st = sesquisoliton(SesquiParams.solve(1.5, 4.5), spec)
        assert energy(st).total == pytest.approx(
            energy_sesqui_closed(1.5, M), rel=1e-4)


class TestStationaryState:
    def test_info_constants(self):
        spec = GraphSpec(3, 30.0, 512)
        _, info = stationary_state(M, spec)
        assert info.omega == pytest.approx(1.0, rel=1e-15)
        assert info.energy == pytest.approx(-1.0, rel=1e-15)

    def test_grid_energy_near_closed_value(self):
        spec = GraphSpec(3, 30.0, 2048)
        st, info = stationary_state(M, spec)
        assert energy(st).total == pytest.approx(info.energy, rel=1e-4)

    def test_mass(self):
        spec = GraphSpec(3, 30.0, 2048)
        st, _ = stationary_state(M, spec)
        assert mass(st) == pytest.approx(M, rel=1e-8)

    def test_infimum_below_stationary(self):
        assert energy_infimum(M) < -(M ** 3) / 216.0
