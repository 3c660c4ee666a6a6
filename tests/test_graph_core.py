"""States, quadrature, and serialization on the star grid."""

import io
import math

import numpy as np
import pytest
from scipy.integrate import quad

from graphnls import (
    CONTINUITY_TOL,
    apply_laplacian,
    CurveScan,
    DomainError,
    FlowTrace,
    GraphNLSError,
    GraphSpec,
    GraphState,
    edge_masses,
    energy,
    line_soliton,
    mass,
    rescale_mass,
    state_columns,
    stationary_state,
    vertex_defect,
    write_csv,
)


def exp_state(spec, rate=1.0):
    # continuous at the vertex: every edge carries the same profile
    x = spec.coordinates()
    row = np.exp(-rate * x).astype(complex)
    return GraphState(spec, np.tile(row, (spec.edge_count, 1)))


class TestGraphSpec:
    def test_grid_geometry(self):
        spec = GraphSpec(3, 30.0, 4096)
        x = spec.coordinates()
        assert x[0] == 0.0
        assert x[-1] == 30.0
        assert spec.spacing == pytest.approx(30.0 / 4095, rel=1e-15)
        assert len(x) == 4096

    @pytest.mark.parametrize("edges,length,points", [
        (1, 30.0, 64), (0, 30.0, 64), (3, 0.0, 64), (3, -1.0, 64),
        (3, 30.0, 1), (3, 30.0, 0), (3, 30.0, 3),
    ])
    def test_rejects_bad_grids(self, edges, length, points):
        with pytest.raises(DomainError):
            GraphSpec(edges, length, points)


class TestGraphState:
    def test_vertex_defect_measures_disagreement(self, coarse_spec):
        vals = np.ones((3, coarse_spec.points_per_edge), dtype=complex)
        vals[2, 0] = 1.0 + 10 * CONTINUITY_TOL
        st = GraphState(coarse_spec, vals)
        assert vertex_defect(st) == pytest.approx(10 * CONTINUITY_TOL, rel=1e-9)

    def test_operators_reject_discontinuous_states(self, coarse_spec):
        vals = np.ones((3, coarse_spec.points_per_edge), dtype=complex)
        vals[2, 0] = 2.0
        st = GraphState(coarse_spec, vals)
        with pytest.raises(GraphNLSError, match="vertex values disagree by 1.000e[+]00") as exc:
            apply_laplacian(st)
        assert type(exc.value) is GraphNLSError

    def test_continuous_state_accepted(self, coarse_spec):
        st = exp_state(coarse_spec)
        assert vertex_defect(st) == 0.0

    def test_immutable(self, coarse_spec):
        st = exp_state(coarse_spec)
        with pytest.raises(AttributeError):
            st.spec = coarse_spec
        with pytest.raises(AttributeError):
            st.other = 1.0
        with pytest.raises((ValueError, AttributeError)):
            st.values[0, 0] = 99.0

    def test_any_memory_order_gives_the_same_state(self, coarse_spec):
        rng = np.random.default_rng(3)
        shape = (3, coarse_spec.points_per_edge)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for source in (np.ascontiguousarray(vals.T).T, np.asfortranarray(vals)):
            assert not source.flags.c_contiguous
            st = GraphState(coarse_spec, source)
            assert np.array_equal(st.values, vals)

    def test_keeps_its_own_copy(self, coarse_spec):
        vals = np.ones((3, coarse_spec.points_per_edge), dtype=complex)
        st = GraphState(coarse_spec, vals)
        vals[1, 3] = 5.0
        assert np.all(st.values == 1.0)

    @pytest.mark.parametrize("kind", ["array", "list", "broadcast"])
    def test_stores_read_only_c_ordered_complex(self, coarse_spec, kind):
        # a real input stays float64, a complex one is complex128
        real = np.linspace(1.0, 0.0, coarse_spec.points_per_edge)
        for row, dtype in ((real, np.float64), (real * (1.0 - 0.5j), np.complex128)):
            source = {"array": np.array([row] * 3), "list": [row] * 3,
                      "broadcast": np.broadcast_to(row, (3, len(row)))}[kind]
            values = GraphState(coarse_spec, source).values
            assert values.flags.c_contiguous
            assert values.dtype == dtype
            assert not values.flags.writeable
            assert np.array_equal(values, np.array([row] * 3))

    def test_shape_must_match_spec(self, coarse_spec):
        with pytest.raises(DomainError):
            GraphState(coarse_spec, np.ones((2, coarse_spec.points_per_edge)))


class TestQuadrature:
    def test_mass_against_quadrature(self):
        # exp(-x) on each of 3 edges: integral of exp(-2x) over [0, L]
        spec = GraphSpec(3, 20.0, 2048)
        st = exp_state(spec)
        exact = 3 * quad(lambda x: math.exp(-2 * x), 0.0, 20.0)[0]
        assert mass(st) == pytest.approx(exact, rel=1e-4)

    def test_mass_additive_over_edges(self, coarse_spec):
        st = exp_state(coarse_spec, rate=0.7)
        assert mass(st) == pytest.approx(sum(edge_masses(st)), rel=1e-14)

    def test_l4_norm_against_quadrature(self):
        # the energy's quartic part is a quarter of the L^4 norm to the 4th
        spec = GraphSpec(3, 20.0, 2048)
        st = exp_state(spec)
        exact = (3 * quad(lambda x: math.exp(-4 * x), 0.0, 20.0)[0]) ** 0.25
        assert (4.0 * energy(st).quartic) ** 0.25 == pytest.approx(exact, rel=1e-4)

    def test_kinetic_form_against_quadrature(self):
        # derivative of exp(-x) is -exp(-x), so the same integral again
        spec = GraphSpec(3, 20.0, 4096)
        st = exp_state(spec)
        exact = 3 * quad(lambda x: math.exp(-2 * x), 0.0, 20.0)[0]
        assert 2 * energy(st).kinetic == pytest.approx(exact, rel=1e-3)


class TestRescale:
    def test_hits_target_mass(self, coarse_spec):
        st = rescale_mass(exp_state(coarse_spec), 6.0)
        assert mass(st) == pytest.approx(6.0, rel=1e-13)

    def test_preserves_shape(self, coarse_spec):
        st = exp_state(coarse_spec)
        scaled = rescale_mass(st, 2 * mass(st))
        ratio = scaled.values / st.values
        assert np.allclose(ratio, math.sqrt(2.0), rtol=1e-12)

    def test_zero_state_rejected(self, coarse_spec):
        with pytest.raises(GraphNLSError, match="cannot rescale the zero state") as exc:
            rescale_mass(GraphState(coarse_spec, np.zeros((3, 128))), 6.0)
        assert type(exc.value) is GraphNLSError

    def test_nonpositive_target_rejected(self, coarse_spec):
        with pytest.raises(DomainError):
            rescale_mass(exp_state(coarse_spec), -1.0)


class TestStraighten:
    def test_stationary_pair_is_a_line_soliton(self):
        # two half-solitons joined back to back reproduce the full soliton
        spec = GraphSpec(3, 30.0, 2048)
        st, _ = stationary_state(6.0, spec)
        # edge 0 reversed, then edge 1: a line from x = -30 to x = 30
        x = spec.coordinates()
        xi = np.concatenate([-x[:0:-1], x])
        vals = np.concatenate([st.values[0, :0:-1], st.values[1]])
        expected = line_soliton(4.0, 0.0, xi)
        assert np.max(np.abs(vals - expected)) < 1e-12
        assert xi[0] == -30.0 and xi[-1] == 30.0


class TestSerialization:
    def test_csv_round_trip_exact(self, rng):
        # 6000 rows, so the table spans more than one written block
        spec = GraphSpec(3, 20.0, 2000)
        phase = np.exp(2j * np.pi * rng.random((3, spec.points_per_edge)))
        st = rescale_mass(GraphState(spec, exp_state(spec, rate=0.3).values * phase), 6.0)
        columns = state_columns(st)
        buf = io.StringIO()
        write_csv(buf, columns)
        buf.seek(0)
        assert buf.readline() == "edge,index,x,re,im\n"
        back = np.loadtxt(buf, delimiter=",", dtype=np.float64, ndmin=2)
        assert back.shape == (3 * spec.points_per_edge, 5)
        for k, col in enumerate(columns.values()):
            assert np.array_equal(back[:, k], np.asarray(col, dtype=np.float64))

    def test_csv_rejects_garbage(self):
        with pytest.raises(DomainError):
            write_csv(io.StringIO(), {"t": [0.0, 1.0], "energy": [-1.0]})
        with pytest.raises(DomainError):
            write_csv(io.StringIO(), {"values": np.zeros((2, 2))})

    @pytest.mark.parametrize("record", [
        lambda extras: FlowTrace({"t": np.arange(3.0), "mass": np.ones(3),
                                  "energy": -np.ones(3), "phase": np.zeros(3),
                                  "edge_mass_1": np.ones(3), **extras}),
        lambda extras: CurveScan("m1", {"param": np.arange(3.0), "closed_energy": -np.ones(3),
                                        "discrete_energy": -np.ones(3), **extras}),
    ], ids=["FlowTrace", "CurveScan"])
    def test_records_reject_ragged_columns(self, record):
        # a trace and a scan hold their columns to the rule every written table obeys
        record({"extra": np.zeros(3)})
        with pytest.raises(DomainError):
            record({"extra": np.zeros(2)})

    def test_string_column_written_verbatim(self):
        buf = io.StringIO()
        write_csv(buf, {"direction": ["phase", "dilation"], "epsilon": [0.1, 5e-324]})
        assert buf.getvalue() == ("direction,epsilon\n"
                                  "phase,0.10000000000000001\n"
                                  "dilation,4.9406564584124654e-324\n")
