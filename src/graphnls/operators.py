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
-2i/dt) and for the descent flow's preconditioner (shift 1, in the
start's dtype).  The chain's dtype picks its solve: a real chain (a
real start's flow) is factored once with LAPACK's dgttrf and solved
with dgttrs; a complex chain (the stepper's, or a complex start's
flow) goes through solve_banded on every solve.  An edge-symmetric
system, the stepper's on the standing wave, is solved as one edge row:
one chain column in place of E.

A real (float64) state gives its complex128 twin's bits, so a real
start's flow runs in float64 from end to end: numpy divides a complex
by a real as a * (1/c) and sums a complex array in its own pairwise
order, and the real path does the same (_vertex_mean, the stencil's
1/h^2, _Arrowhead's vertex solve, weighted_inner).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import DomainError, GraphNLSError
from .graph_core import GraphSpec, GraphState, edge_weights, mass, require_continuity


def weighted_inner(a: GraphState, b: GraphState) -> complex:
    """<a, b> = sum_e int conj(a_e) b_e with trapezoid weights; a and b
    must share a grid, else DomainError."""
    if a.spec != b.spec:
        raise DomainError("the two states live on different grids")
    w = edge_weights(a.spec)
    # summed as complex, whose pairwise order differs from float64's
    return complex((w * (np.conj(a.values) * b.values)).astype(complex, copy=False).sum())


def weighted_norm(a: GraphState) -> float:
    w = edge_weights(a.spec)
    return float(np.sqrt((w * np.abs(a.values) ** 2).sum()))


def _vertex_mean(values: np.ndarray):
    """Mean of the vertex entries across edges, as sum * (1/E): numpy's
    complex mean divides so, and a real state keeps its twin's bits."""
    return values[:, 0].sum() * (1.0 / len(values))


def _symmetrized(values: np.ndarray) -> np.ndarray:
    """Copy with the vertex entries replaced by their mean across edges."""
    out = values.copy()
    out[:, 0] = _vertex_mean(values)
    return out


# Natural far end: the ghost point beyond x = L mirrors psi[-2], so the
# last row couples to its neighbour with this weight over h^2.  The
# stencil and the bands below both read it.
_FAR_END_COUPLING = 2.0


def _vertex_coupling(spec: GraphSpec) -> float:
    """2/(E h^2), the vertex row's weight per edge (bands[0, 1] / E rounds otherwise)."""
    h = spec.spacing
    return 2.0 / (spec.edge_count * (h * h))


def _laplacian_values(values: np.ndarray, spec: GraphSpec,
                      divide: bool = False) -> np.ndarray:
    """The stencil's L values.  Its h^-2 quotients multiply by 1/h^2, as
    numpy divides a complex by a real; divide=True divides by h^2, as
    Newton's real profile always has."""
    h = spec.spacing
    h2 = h * h
    quotient, by = (np.divide, h2) if divide else (np.multiply, 1.0 / h2)
    out = np.empty_like(values)
    quotient(values[:, :-2] - 2.0 * values[:, 1:-1] + values[:, 2:], by, out=out[:, 1:-1])
    # Kirchhoff vertex row: with continuity, the flux condition
    # sum_e psi_e'(0) = 0 closes the stencil as an average over edges.
    v = values[0, 0]
    out[:, 0] = _vertex_coupling(spec) * np.sum(values[:, 1] - v)
    quotient(_FAR_END_COUPLING * values[:, -2] - 2.0 * values[:, -1], by, out=out[:, -1])
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


def _edge_sum(per_edge: np.ndarray, edge_count: int):
    """Sum of E per-edge values; one value (an edge-symmetric state's)
    counts E times, added as E equal values are, to the same bits."""
    if len(per_edge) == 1:
        per_edge = np.repeat(per_edge, edge_count)
    return per_edge.sum()


class _Arrowhead:
    """Direct solver for (shift I - L) W = rhs, L as in _laplacian_values.

    Eliminating the E per-edge chains against the single vertex unknown
    is a rank-one Schur complement: one chain solve per right-hand side
    plus a scalar division.  Every edge has the same tridiagonal chain,
    shift I - bands[:, 1:], because the grid is uniform and shared.
    An edge-symmetric system (every edge row equal) is solved as one
    row: one chain column in place of E.  The solution's dtype follows
    the chain's, and a real chain takes only real right-hand sides.
    The chain's dtype picks its solve: a real chain (a real start's
    flow) is factored once by LAPACK dgttrf, a complex one (the
    stepper's, or a complex start's flow) is refactored by solve_banded
    per solve, where perfbench counts the stepper's solves.  solves
    counts the calls to solve().
    """

    def __init__(self, spec: GraphSpec, shift: complex):
        bands = _laplacian_bands(spec)
        chain = (-bands[:, 1:]).astype(np.result_type(bands, shift))
        chain[1] += shift
        if np.isrealobj(chain):
            # sub-, main and super-diagonal, dgttrf's info dropped: a
            # positive shift makes the chain strictly diagonally dominant,
            # so the factorization cannot fail
            factors = dgttrf(chain[2, :-1], chain[1], chain[0, 1:])[:5]

            def chain_solve(B):
                # dgttrs would cast a complex B to float64 with a warning
                if np.iscomplexobj(B):
                    raise DomainError(f"a {chain.dtype} chain takes no {B.dtype} "
                                      "right-hand side")
                return dgttrs(*factors, B)[0]
            self._chain_solve = chain_solve
        else:
            self._chain_solve = lambda B: solve_banded((1, 1), chain, B, check_finite=False)
        # the vertex enters each chain's first row with -bands[2, 0] = -1/h^2
        e1 = np.zeros((chain.shape[1], 1))
        e1[0, 0] = bands[2, 0]
        self._z = self._chain_solve(e1)[:, 0]
        self._vertex_coupling = _vertex_coupling(spec)
        self._edge_count = spec.edge_count
        denom = (shift - bands[1, 0]) - bands[0, 1] * self._z[0]
        # a real denominator multiplies by its reciprocal, as numpy
        # divides a complex by a real; the stepper's complex one divides
        self._over_denom = ((np.divide, denom) if np.iscomplexobj(denom)
                            else (np.multiply, 1.0 / denom))
        self.solves = 0

    def solve(self, rhs_vertex: complex, rhs_edges: np.ndarray) -> np.ndarray:
        """The solution, a new (rows, N) array for rhs_edges of shape
        (rows, N-1): the vertex value in column 0 and the per-edge chains
        after it.  A one-row rhs_edges is an edge-symmetric system: its
        row is bit for bit each row of the E-row solve.  rhs_edges must
        be finite; the result is not checked."""
        self.solves += 1
        Y = self._chain_solve(rhs_edges.T)
        heads = _edge_sum(Y[0, :], self._edge_count)
        over, by = self._over_denom
        v = over(rhs_vertex + self._vertex_coupling * heads, by)
        out = np.empty((Y.shape[1], Y.shape[0] + 1), np.result_type(Y, v))
        out[:, 0] = v
        out[:, 1:] = self._z * v + Y.T
        return out


def apply_laplacian(state: GraphState) -> GraphState:
    """Kirchhoff Laplacian with the natural far end, as in energy_gradient.

    Symmetric and negative semidefinite in the trapezoid inner product.
    Raises GraphNLSError if the state is not vertex continuous.
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


def energy(state: GraphState) -> EnergyReport:
    """Kinetic, quartic, and total energy plus mass of the state.

    The kinetic part is half the discrete Dirichlet form, the sum over
    edges of sum_j |psi(j+1)-psi(j)|^2 / h, whose exact gradient in the
    trapezoid inner product is -2 L, with L the stencil above.
    """
    w = edge_weights(state.spec)
    d = np.diff(state.values, axis=1)
    kinetic = 0.5 * float((np.abs(d) ** 2).sum() / state.spec.spacing)
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
        raise GraphNLSError("best_omega is undefined for the zero state")
    if gradient is None:
        gradient = energy_gradient(state)
    return -float(np.real(weighted_inner(gradient, state))) / m
