"""A real state stays float64 and gives its complex128 twin's bits.

GraphState keeps a real input as float64, so every flow start the CLI
builds runs its descent in float64.  Each check here runs a real state
and its .astype(complex) twin through the same public call and compares
the bytes: numpy divides a complex by a real as a * (1/c) and sums a
complex array in a pairwise order of its own, and the operators follow
those rules on the real path.  The last checks fail if a real flow,
or the arrowhead solve under it, silently turns complex again.
"""

import numpy as np
import pytest
from scipy.linalg.lapack import zgttrf, zgttrs

from graphnls import (EvolutionConfig, GraphSpec, GraphState, apply_laplacian,
                      best_omega, deposit_perturbation, dilation_family,
                      discrete_stationary_state, el_residual, energy, energy_gradient,
                      evolve, gather_perturbation, gradient_flow_fixed_mass,
                      shift_perturbation, weighted_inner)
from graphnls.operators import _Arrowhead, _laplacian_bands

M = 6.0


@pytest.fixture(scope="module")
def spec_512():
    return GraphSpec(3, 30.0, 512)


def _twin(state):
    return GraphState(state.spec, state.values.astype(complex))


def _same_real_bits(real, twin):
    """real (float64) equals twin's real part bit for bit, and twin's
    imaginary part is zero."""
    return (real.dtype == np.float64 and real.shape == twin.shape
            and real.tobytes() == twin.real.tobytes() and not twin.imag.any())


def _same_columns(a, b):
    return a.keys() == b.keys() and all(a[k].tobytes() == b[k].tobytes() for k in a)


# the starts of `graphnls flow --perturbation`, each at its default fraction
_STARTS = {
    "shift": lambda spec: shift_perturbation(M, spec, 0.01),
    "gather": lambda spec: gather_perturbation(M, spec, 0.01),
    "deposit": lambda spec: deposit_perturbation(M, spec, 0.01),
    "dilation:0.01": lambda spec: dilation_family(M, 1.01, spec),
    "none": lambda spec: discrete_stationary_state(M, spec)[0],
}


@pytest.mark.parametrize("kind", list(_STARTS))
def test_flow_from_a_real_start_matches_its_complex_twin(spec_512, kind):
    start = _STARTS[kind](spec_512)
    assert start.values.dtype == np.float64
    real, real_trace = gradient_flow_fixed_mass(start, 0.1, 40000, 1e-6)
    twin, twin_trace = gradient_flow_fixed_mass(_twin(start), 0.1, 40000, 1e-6)
    # the real flow returns float64, so the gain cannot leak away
    assert real.values.dtype == np.float64
    assert twin.values.dtype == np.complex128
    assert _same_real_bits(real.values, twin.values)
    assert _same_columns(real_trace.columns, twin_trace.columns)
    assert real_trace.metadata == twin_trace.metadata


def test_evolve_from_the_newton_state_matches_its_complex_twin(spec_512):
    newton, _ = discrete_stationary_state(M, spec_512)
    config = EvolutionConfig(dt=1e-3, t_final=0.02, observe_every=5)
    real, real_trace = evolve(newton, config)
    twin, twin_trace = evolve(_twin(newton), config)
    assert real.values.tobytes() == twin.values.tobytes()
    assert _same_columns(real_trace.columns, twin_trace.columns)


def test_operators_on_the_stationary_state_match_its_complex_twin(spec_512):
    real, omega = discrete_stationary_state(M, spec_512)
    twin = _twin(real)
    assert energy(real) == energy(twin)
    assert _same_real_bits(energy_gradient(real).values, energy_gradient(twin).values)
    assert _same_real_bits(apply_laplacian(real).values, apply_laplacian(twin).values)
    assert best_omega(real) == best_omega(twin)
    assert el_residual(real, omega) == el_residual(twin, omega)
    # the gradient differs from the state, so the inner product sums
    # values of both signs
    grad = energy_gradient(real)
    assert weighted_inner(grad, real) == weighted_inner(_twin(grad), twin)


def test_the_flow_resolvent_keeps_a_real_solve_real(spec_512, rng):
    resolvent = _Arrowhead(spec_512, 1.0)
    rhs = rng.standard_normal((3, spec_512.points_per_edge))
    assert resolvent.solve(rhs[0, 0], rhs[:, 1:]).dtype == np.float64
    assert resolvent.solve(rhs[0, 0], rhs[:1, 1:]).dtype == np.float64


@pytest.mark.parametrize("points", [4, 257, 4096])
def test_lapack_chain_solves_a_complex_b_as_zgttrs_does(rng, points):
    # a complex start's flow chain: complex shift 1 minus the Laplacian's
    # bands, N - 1 unknowns, solved by LAPACK through solve_banded
    spec = GraphSpec(3, 30.0, points)
    complex_chain = (-_laplacian_bands(spec)[:, 1:]).astype(complex)
    complex_chain[1] += 1.0
    B = rng.standard_normal((points - 1, 3)) + 1j * rng.standard_normal((points - 1, 3))
    factors = zgttrf(complex_chain[2, :-1], complex_chain[1], complex_chain[0, 1:])[:5]
    expected = zgttrs(*factors, B)[0]
    got = _Arrowhead(spec, np.complex128(1.0))._chain_solve(B)
    assert got.dtype == np.complex128
    assert got.tobytes() == expected.tobytes()
