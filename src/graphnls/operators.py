"""Weighted inner products, the graph Laplacian, energy, and its gradient.

The energy functional is

    E(psi) = 1/2 sum_e int |psi_e'|^2  -  1/4 sum_e int |psi_e|^4

discretized with forward-difference quotients for the kinetic part and
trapezoid weights for the quartic part.  The gradient below is the exact
gradient of that discrete functional with respect to the trapezoid
inner product, which is what makes finite-difference directional
derivatives match to machine precision and makes descent methods
honest.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateStateError, DomainError
from .graph_core import (
    EnergyReport,
    GraphSpec,
    GraphState,
    edge_weights,
    kinetic_quadratic_form,
    mass,
    require_continuity,
)


def weighted_inner(a: GraphState, b: GraphState) -> complex:
    """<a, b> = sum_e int conj(a_e) b_e with trapezoid weights."""
    w = edge_weights(a.spec)
    return complex((w * (np.conj(a.values) * b.values)).sum())


def weighted_norm(a: GraphState) -> float:
    w = edge_weights(a.spec)
    return float(np.sqrt((w * np.abs(a.values) ** 2).sum()))


def _symmetrized(values: np.ndarray) -> np.ndarray:
    """Copy with the vertex entries replaced by their mean across edges."""
    out = values.copy()
    out[:, 0] = values[:, 0].mean()
    return out


# Natural far end: the ghost point beyond x = L mirrors psi[-2], so the
# last row couples to its neighbour with this weight over h^2.  The
# stencil, the CN solver's bands and the Newton Jacobian all read it.
_FAR_END_COUPLING = 2.0


def _laplacian_values(values: np.ndarray, spec: GraphSpec) -> np.ndarray:
    h = spec.spacing
    h2 = h * h
    E = spec.edge_count
    out = np.empty_like(values)
    out[:, 1:-1] = (values[:, :-2] - 2.0 * values[:, 1:-1] + values[:, 2:]) / h2
    # Kirchhoff vertex row: with continuity, the flux condition
    # sum_e psi_e'(0) = 0 closes the stencil as an average over edges.
    v = values[0, 0]
    out[:, 0] = (2.0 / (E * h2)) * np.sum(values[:, 1] - v)
    out[:, -1] = (_FAR_END_COUPLING * values[:, -2] - 2.0 * values[:, -1]) / h2
    return out


def apply_laplacian(state: GraphState) -> GraphState:
    """Kirchhoff Laplacian with the natural far end, as in energy_gradient.

    Symmetric and negative semidefinite in the trapezoid inner product.
    Raises ContinuityError if the state is not vertex continuous.
    """
    require_continuity(state)
    vals = _symmetrized(state.values)
    return GraphState(state.spec, _laplacian_values(vals, state.spec))


def energy(state: GraphState) -> EnergyReport:
    """Kinetic, quartic, and total energy plus mass of the state."""
    w = edge_weights(state.spec)
    kinetic = 0.5 * kinetic_quadratic_form(state)
    a = np.abs(state.values)
    quartic = 0.25 * float((w * a ** 4).sum())
    m = float((w * a ** 2).sum())
    return EnergyReport(kinetic=kinetic, quartic=quartic, total=kinetic - quartic, mass=m)


def energy_gradient(state: GraphState) -> GraphState:
    """Exact gradient of the discrete energy w.r.t. the trapezoid inner product.

    grad E = -L psi - |psi|^2 psi, where L is the Kirchhoff Laplacian
    with the natural far end.  Satisfies (E(psi + eps eta) - E(psi -
    eps eta)) / (2 eps) = Re <grad E, eta> + O(eps^2) for every eta.
    """
    vals = _symmetrized(state.values)
    lap = _laplacian_values(vals, state.spec)
    grad = -lap - (np.abs(vals) ** 2) * vals
    return GraphState(state.spec, grad)


def el_residual(state: GraphState, omega: float) -> float:
    """Weighted norm of grad E + omega psi (Euler-Lagrange defect)."""
    g = energy_gradient(state)
    w = edge_weights(state.spec)
    r = g.values + omega * state.values
    return float(np.sqrt((w * np.abs(r) ** 2).sum()))


def best_omega(state: GraphState, gradient: GraphState | None = None) -> float:
    """Frequency minimizing the Euler-Lagrange defect in the weighted norm.

    Writing r(omega) = grad E + omega psi, the minimizer of ||r(omega)||
    is omega = -Re<grad E, psi> / ||psi||^2.  Equals M^2/36 on the
    stationary state at total mass M, up to discretization error.

    gradient, if given, must be energy_gradient(state); a caller that
    already holds it (the descent flow) passes it to skip recomputing
    it, and the result is bit-for-bit the same.
    """
    m = mass(state)
    if m == 0.0:
        raise DegenerateStateError("best_omega is undefined for the zero state")
    if gradient is None:
        gradient = energy_gradient(state)
    elif gradient.spec != state.spec:
        raise DomainError("gradient and state live on different grids")
    return -float(np.real(weighted_inner(gradient, state))) / m
