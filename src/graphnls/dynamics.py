"""Time integration of i dPsi/dt = -L Psi - |Psi|^2 Psi on the star graph.

The propagator is the implicit midpoint rule (Crank-Nicolson with the
nonlinearity evaluated at the midpoint), solved per step by fixed-point
iteration on the nonlinear term around a direct linear solve.  The
linear system couples E tridiagonal edge blocks through the single
shared vertex unknown; arrowhead elimination keeps each solve O(E*N).

The scheme is time-symmetric, conserves mass at the fixed point, and
keeps the energy drift O(dt^2) per unit time.  The stationary state
evolves as the standing wave e^{i omega t} Phi with omega = M^2/36, so
the recorded phase arg<Psi(0), Psi(t)> grows linearly with slope omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .errors import (
    AliasingError,
    DomainError,
    GraphNLSError,
    StepFailureError,
)
from .graph_core import GraphSpec, GraphState, edge_masses, edge_weights
from .operators import (_FAR_END_COUPLING, _laplacian_values, _symmetrized, energy,
                        weighted_inner)
from .profiles import half_soliton


@dataclass(frozen=True)
class EvolutionConfig:
    """Time stepping parameters.

    dt may be negative to integrate backward (the scheme is symmetric
    under dt -> -dt, which is how time-reversal round trips are run);
    it must be nonzero and finite, t_final positive and finite, and
    t_final an integer number of |dt| steps (to 1e-9 relative).
    """

    dt: float
    t_final: float
    fixed_point_tol: float = 1e-12
    max_fixed_point_iters: int = 50
    observe_every: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt != 0.0):
            raise DomainError(f"dt must be nonzero and finite, got {self.dt}")
        if not (math.isfinite(self.t_final) and self.t_final > 0):
            raise DomainError(f"t_final must be positive and finite, got {self.t_final}")
        if abs(self.dt) > self.t_final:
            raise DomainError("|dt| must not exceed t_final")
        if not math.isfinite(self.t_final / abs(self.dt)):
            raise DomainError("t_final/|dt| overflows: not a finite step count")
        if abs(self.steps * abs(self.dt) - self.t_final) > 1e-9 * self.t_final:
            raise DomainError("t_final must be an integer number of dt steps")
        if not self.fixed_point_tol > 0:
            raise DomainError("fixed_point_tol must be positive")
        if self.max_fixed_point_iters < 1:
            raise DomainError("max_fixed_point_iters must be >= 1")
        if self.observe_every < 1:
            raise DomainError("observe_every must be >= 1")

    @property
    def steps(self) -> int:
        """Number of time steps, round(t_final/|dt|)."""
        return int(round(self.t_final / abs(self.dt)))


@dataclass(frozen=True)
class FlowTrace:
    """Observables sampled along a time evolution or a gradient flow.

    vertex_phase[k] is arg<Psi(0), Psi(t_k)> in the weighted inner
    product: for a standing wave e^{i omega t} Phi it equals omega*t_k.
    extras holds additional per-sample columns (e.g. grad_norm for
    gradient flows); every array must align with times.  metadata holds
    per-run facts that are not columns, such as a gradient flow's stop
    reason and step counts; it is not written to the tables.
    """

    times: np.ndarray
    masses: np.ndarray
    energies: np.ndarray
    vertex_phase: np.ndarray
    edge_masses: np.ndarray
    extras: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.times)
        for name in ("masses", "energies", "vertex_phase"):
            if len(getattr(self, name)) != n:
                raise DomainError(f"trace field {name} misaligned with times")
        if self.edge_masses.shape[0] != n:
            raise DomainError("trace field edge_masses misaligned with times")
        for key, col in self.extras.items():
            if len(col) != n:
                raise DomainError(f"trace extra {key!r} misaligned with times")
        if n >= 2:
            d = np.diff(self.times)
            if not (np.all(d > 0) or np.all(d < 0)):
                raise DomainError("trace times must be strictly monotone")

    @property
    def mass_drift(self) -> float:
        """Largest |mass(t) - mass(0)| over the trace."""
        return float(np.max(np.abs(self.masses - self.masses[0])))

    @property
    def energy_drift(self) -> float:
        """Largest |E(t) - E(0)| / |E(0)| over the trace (absolute if E(0) = 0)."""
        e0 = self.energies[0]
        drift = float(np.max(np.abs(self.energies - e0)))
        return drift / abs(e0) if e0 != 0.0 else drift

    @property
    def columns(self) -> dict:
        """The trace as table columns: t, mass, energy, phase,
        edge_mass_1..E, then the extras."""
        cols = {"t": self.times, "mass": self.masses, "energy": self.energies,
                "phase": self.vertex_phase}
        for e in range(self.edge_masses.shape[1]):
            cols[f"edge_mass_{e + 1}"] = self.edge_masses[:, e]
        cols.update(self.extras)
        return cols


class TraceRecorder:
    """Builds a FlowTrace one sample at a time.

    observe() measures a state: its mass and edge masses from one
    edge_masses pass, and its phase against the reference state.  The
    caller passes the energy, which it has usually computed already,
    and any extra columns by name.  Samples are kept column by column
    and every column becomes a float64 array.
    """

    def __init__(self, reference: GraphState):
        self.reference = reference
        self.samples = {"t": [], "mass": [], "energy": [], "phase": []}
        self.edge_masses = []

    def __len__(self) -> int:
        return len(self.edge_masses)

    def observe(self, t: float, state: GraphState, energy_total: float, **extras):
        em = edge_masses(state)
        row = {"t": float(t), "mass": float(em.sum()), "energy": energy_total,
               "phase": float(np.angle(weighted_inner(self.reference, state))), **extras}
        for name, value in row.items():
            self.samples.setdefault(name, []).append(value)
        self.edge_masses.append(em)

    def trace(self, **metadata) -> FlowTrace:
        cols = {name: np.array(values, dtype=float) for name, values in self.samples.items()}
        return FlowTrace(
            times=cols.pop("t"),
            masses=cols.pop("mass"),
            energies=cols.pop("energy"),
            vertex_phase=cols.pop("phase"),
            edge_masses=np.stack(self.edge_masses, axis=0),
            extras=cols,
            metadata=metadata,
        )


class _ArrowheadSolver:
    """Direct solver for ((2i/dt) I + L) W = rhs, L as in _laplacian_values.

    Eliminating the E per-edge chains (each tridiagonal, sharing one
    matrix) against the single vertex unknown is a rank-one Schur
    complement: one banded solve per right-hand side plus a scalar
    division.  The same tridiagonal factors serve every edge because
    the grid is uniform and shared.
    """

    def __init__(self, spec: GraphSpec, dt: float):
        h2 = spec.spacing ** 2
        n = spec.points_per_edge - 1
        diag = 2j / dt - 2.0 / h2
        off = 1.0 / h2
        ab = np.zeros((3, n), dtype=np.complex128)
        ab[0, 1:] = off
        ab[1, :] = diag
        ab[2, :-1] = off
        ab[2, -2] = _FAR_END_COUPLING / h2
        self._ab = ab
        # Coupling column: the vertex enters each chain's first row with
        # coefficient 1/h^2; z = T^{-1} e_1 / h^2.
        e1 = np.zeros(n, dtype=np.complex128)
        e1[0] = off
        self._z = solve_banded((1, 1), ab, e1)
        self._vertex_coupling = 2.0 / (spec.edge_count * h2)
        self._denom = diag - (2.0 / h2) * self._z[0]

    def solve(self, rhs_vertex: complex, rhs_edges: np.ndarray):
        """Solve for (vertex value, per-edge chains of length N-1)."""
        Y = solve_banded((1, 1), self._ab, rhs_edges.T)
        v = (rhs_vertex - self._vertex_coupling * Y[0, :].sum()) / self._denom
        return v, Y.T - v * self._z


def step_crank_nicolson(
    state: GraphState,
    dt: float,
    *,
    fixed_point_tol: float = 1e-12,
    max_fixed_point_iters: int = 50,
    solver: _ArrowheadSolver | None = None,
) -> GraphState:
    """One implicit midpoint step of the focusing cubic flow.

    Solves (2i/dt) W + L W = (2i/dt) Psi - |W|^2 W for the midpoint W
    by lagging the cubic term, then returns 2W - Psi.  The vertex is a
    single unknown, so input values are first projected to their vertex
    mean.  Raises StepFailureError when the fixed point does not
    converge (the contraction factor scales with dt*max|Psi|^2, so a
    smaller dt is the usual remedy).
    """
    if dt == 0.0:
        raise DomainError("dt must be nonzero")
    spec = state.spec
    if solver is None:
        solver = _ArrowheadSolver(spec, dt)
    vals = _symmetrized(state.values)
    b = (2j / dt) * vals
    w = edge_weights(spec)
    W = vals.copy()
    norm_prev = None
    for _ in range(max_fixed_point_iters):
        rhs = b - (np.abs(W) ** 2) * W
        v, chains = solver.solve(rhs[0, 0], rhs[:, 1:])
        W_next = np.empty_like(W)
        W_next[:, 0] = v
        W_next[:, 1:] = chains
        if not np.all(np.isfinite(W_next.view(np.float64))):
            raise StepFailureError("midpoint iteration produced non-finite values", 0)
        diff = np.sqrt((w * np.abs(W_next - W) ** 2).sum())
        scale = max(1.0, np.sqrt((w * np.abs(W_next) ** 2).sum()))
        W = W_next
        norm_prev = diff
        if diff <= fixed_point_tol * scale:
            return GraphState(spec, 2.0 * W - vals)
    raise StepFailureError(
        f"midpoint fixed point did not reach tol {fixed_point_tol:.1e} in "
        f"{max_fixed_point_iters} iterations (last update {norm_prev:.3e}); "
        "try a smaller dt",
        0,
    )


def evolve(state: GraphState, config: EvolutionConfig):
    """March the state to t_final, recording a FlowTrace along the way.

    The number of steps is config.steps = round(t_final/|dt|).
    Non-vertex-continuous input is projected to its vertex mean once at
    entry; the projected state is what the t = 0 trace row records.  The
    trace samples every observe_every-th step plus the final one.
    """
    n_steps = config.steps
    spec = state.spec
    current = GraphState(spec, _symmetrized(state.values))
    recorder = TraceRecorder(current)
    recorder.observe(0.0, current, energy(current).total)
    solver = _ArrowheadSolver(spec, config.dt)
    for k in range(1, n_steps + 1):
        try:
            current = step_crank_nicolson(
                current,
                config.dt,
                fixed_point_tol=config.fixed_point_tol,
                max_fixed_point_iters=config.max_fixed_point_iters,
                solver=solver,
            )
        except StepFailureError as exc:
            raise StepFailureError(f"step {k}: {exc}", k) from None
        if k % config.observe_every == 0 or k == n_steps:
            recorder.observe(k * config.dt, current, energy(current).total)
    return current, recorder.trace()


def phase_slope(trace: FlowTrace) -> float:
    """Signed least-squares slope of the unwrapped phase vs time."""
    if len(trace.times) < 3:
        raise DomainError("phase fit needs a trace with at least 3 samples")
    phases = np.unwrap(trace.vertex_phase)
    steps = np.abs(np.diff(phases))
    if steps.size and steps.max() > 0.95 * np.pi:
        raise AliasingError(
            "phase advances close to pi per sample; decrease dt*observe_every"
        )
    return float(np.polyfit(trace.times, phases, 1)[0])


def measure_omega(trace: FlowTrace) -> float:
    """|slope| of the unwrapped phase: the standing-wave frequency."""
    return abs(phase_slope(trace))


def discrete_stationary_state(
    M: float,
    spec: GraphSpec,
    tol: float = 1e-9,
    max_iters: int = 30,
):
    """Newton-refined symmetric stationary profile on this exact grid.

    The analytic half-soliton samples satisfy the discrete stationarity
    equation only up to O(h^2); this routine solves the discrete system
    -L u - u^3 + omega u = 0 (L of energy_gradient on the symmetric
    subspace: one real edge profile u) together with the mass constraint
    E * sum(w u^2) = M, by a bordered-tridiagonal Newton iteration on
    (u, omega): a critical point of energy() at fixed mass on this grid.

    Returns (state, omega).  The residual floor is set by rounding in
    the h^-2 difference quotients (about 1e-10 at N = 4096), hence the
    default tol of 1e-9.
    """
    if not M > 0:
        raise DomainError(f"total mass must be positive, got {M}")
    h2 = spec.spacing ** 2
    N = spec.points_per_edge
    E = spec.edge_count
    w = edge_weights(spec)

    # Symmetric stationary profile on E edges has edge mass M/E and
    # omega = (M/E)^2 / 4; the half-soliton of that mass is the guess.
    m_edge = M / E
    u = half_soliton(m_edge, spec)
    omega = (m_edge ** 2) / 4.0

    for _ in range(max_iters):
        lap = _laplacian_values(np.broadcast_to(u, (E, N)), spec)[0]
        G = -lap - u ** 3 + omega * u
        G_mass = E * float((w * u ** 2).sum()) - M
        if max(float(np.max(np.abs(G))), abs(G_mass)) < tol:
            break
        diag = 2.0 / h2 - 3.0 * u ** 2 + omega
        ab = np.zeros((3, N))
        ab[1, :] = diag
        ab[0, 1] = -2.0 / h2
        ab[0, 2:] = -1.0 / h2
        ab[2, :-1] = -1.0 / h2
        ab[2, -2] = -_FAR_END_COUPLING / h2
        rhs = np.column_stack([-G, -u])
        sol = solve_banded((1, 1), ab, rhs)
        y, z = sol[:, 0], sol[:, 1]
        wu = 2.0 * E * (w * u)
        denom = float(wu @ z)
        if denom == 0.0:
            raise GraphNLSError("stationary refinement hit a singular mass row")
        domega = (-G_mass - float(wu @ y)) / denom
        u = u + y + domega * z
        omega = omega + domega
    else:
        raise GraphNLSError(
            f"stationary-state refinement did not converge to {tol:.1e} "
            f"in {max_iters} iterations"
        )
    values = np.broadcast_to(u.astype(np.complex128), (E, N)).copy()
    return GraphState(spec, values), float(omega)
