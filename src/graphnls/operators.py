"""Weighted inner products, the graph Laplacian, energy, and its gradient.

The energy functional is

    E(psi) = 1/2 sum_e int |psi_e'|^2  -  1/4 sum_e int |psi_e|^4

discretized with forward-difference quotients for the kinetic part and
trapezoid weights for the quartic part.  The gradient below is the exact
gradient of that discrete functional with respect to the trapezoid
inner product, which is what makes finite-difference directional
derivatives match to machine precision and makes descent methods
honest.

The Kirchhoff Laplacian L (natural far end) is written here once: a
stencil for any state and a banded matrix on vertex-symmetric states.
The Newton refinement factors the matrix, and one arrowhead solver,
_Arrowhead, inverts shift I - L for the Crank-Nicolson stepper (shift
-2i/dt) and for the descent flow's preconditioner (shift 1).  Both
solve a complex chain: the flow through LAPACK's zgttrf/zgttrs, the
stepper through solve_banded, where the benchmark counts its solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .errors import DegenerateStateError, DomainError
from .graph_core import GraphSpec, GraphState, edge_weights, mass, require_continuity


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
# stencil and the bands below both read it.
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


def _laplacian_bands(spec: GraphSpec) -> np.ndarray:
    """L on vertex-symmetric states, shape (3, N), in solve_banded layout.

    Such a state is one edge profile u, u[0] the vertex, whose vertex
    row reads 2 (u[1] - u[0]) / h^2.  _Arrowhead's per-edge chain is
    shift I - bands[:, 1:]; the Newton Jacobian is -bands plus a diagonal.
    """
    h = spec.spacing
    h2 = h * h
    bands = np.zeros((3, spec.points_per_edge))
    bands[0, 1] = 2.0 / h2
    bands[0, 2:] = 1.0 / h2
    bands[1, :] = -2.0 / h2
    bands[2, :-1] = 1.0 / h2
    bands[2, -2] = _FAR_END_COUPLING / h2
    return bands


def _vertex_coupling(spec: GraphSpec) -> float:
    """2/(E h^2), the vertex row's weight per edge (bands[0, 1] / E rounds otherwise)."""
    h = spec.spacing
    return 2.0 / (spec.edge_count * (h * h))


class _Arrowhead:
    """Direct solver for (shift I - L) W = rhs, L as in _laplacian_values.

    Eliminating the E per-edge chains against the single vertex unknown
    is a rank-one Schur complement: one chain solve per right-hand side
    plus a scalar division.  Every edge has the same tridiagonal chain,
    shift I - bands[:, 1:], because the grid is uniform and shared.
    factor(chain) returns its solve, B -> chain^{-1} B for B of shape
    (N-1, k): the descent flow passes _lapack_chain, which factors the
    chain once in complex.  factor stays only for the Crank-Nicolson
    stepper, which passes a solve_banded call made through the dynamics
    module because the benchmark counts its solves there; it goes once
    that count moves to solve().  solves counts the calls to solve().
    """

    def __init__(self, spec: GraphSpec, shift: complex, factor):
        bands = _laplacian_bands(spec)
        chain = (-bands[:, 1:]).astype(np.result_type(bands, shift))
        chain[1] += shift
        self._chain_solve = factor(chain)
        # the vertex enters each chain's first row with -bands[2, 0] = -1/h^2
        e1 = np.zeros((chain.shape[1], 1))
        e1[0, 0] = bands[2, 0]
        self._z = self._chain_solve(e1)[:, 0]
        self._vertex_coupling = _vertex_coupling(spec)
        self._denom = (shift - bands[1, 0]) - bands[0, 1] * self._z[0]
        self.solves = 0

    def solve(self, rhs_vertex: complex, rhs_edges: np.ndarray, out: np.ndarray) -> None:
        """Write the solution into out, shape (E, N): the vertex value
        in column 0 and the per-edge chains of length N-1 after it.
        rhs_edges must be finite; the result is not checked."""
        self.solves += 1
        Y = self._chain_solve(rhs_edges.T)
        v = (rhs_vertex + self._vertex_coupling * Y[0, :].sum()) / self._denom
        out[:, 0] = v
        chains = out[:, 1:]
        np.multiply(self._z, v, out=chains)
        chains += Y.T


def _lapack_chain(chain: np.ndarray):
    """Chain solve for the flow's _Arrowhead: the chain cast to complex
    and factored once by LAPACK zgttrf, then one zgttrs call per B.  A
    positive shift makes the chain strictly diagonally dominant, so the
    factorization cannot fail."""
    chain = chain.astype(complex)
    # sub-, main and super-diagonal of the chain; drop zgttrf's info
    factors = zgttrf(chain[2, :-1], chain[1], chain[0, 1:])[:5]
    return lambda B: zgttrs(*factors, B)[0]


def apply_laplacian(state: GraphState) -> GraphState:
    """Kirchhoff Laplacian with the natural far end, as in energy_gradient.

    Symmetric and negative semidefinite in the trapezoid inner product.
    Raises ContinuityError if the state is not vertex continuous.
    """
    require_continuity(state)
    vals = _symmetrized(state.values)
    return GraphState(state.spec, _laplacian_values(vals, state.spec))


@dataclass(frozen=True)
class EnergyReport:
    """Kinetic and quartic parts of the energy, plus the mass, of one state."""

    kinetic: float
    quartic: float
    total: float
    mass: float


def kinetic_quadratic_form(state: GraphState) -> float:
    """Sum over edges of sum_j |psi(j+1)-psi(j)|^2 / h.

    This is the discrete Dirichlet form; its exact gradient in the
    trapezoid inner product is -2 L, with L the stencil above.
    """
    h = state.spec.spacing
    d = np.diff(state.values, axis=1)
    return float((np.abs(d) ** 2).sum() / h)


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


def best_omega(state: GraphState, gradient: GraphState | None = None,
               state_mass: float | None = None) -> float:
    """Frequency minimizing the Euler-Lagrange defect in the weighted norm.

    Writing r(omega) = grad E + omega psi, the minimizer of ||r(omega)||
    is omega = -Re<grad E, psi> / ||psi||^2.  Equals M^2/36 on the
    stationary state at total mass M, up to discretization error.

    gradient, if given, must be energy_gradient(state); a caller that
    already holds it (the descent flow) passes it to skip recomputing
    it, and the result is bit-for-bit the same.  state_mass, if given,
    must be mass(state), under the same contract.
    """
    m = mass(state) if state_mass is None else state_mass
    if m == 0.0:
        raise DegenerateStateError("best_omega is undefined for the zero state")
    if gradient is None:
        gradient = energy_gradient(state)
    elif gradient.spec != state.spec:
        raise DomainError("gradient and state live on different grids")
    return -float(np.real(weighted_inner(gradient, state))) / m
