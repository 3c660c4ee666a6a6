"""Time integration of i dPsi/dt = -L Psi - |Psi|^2 Psi on the star graph.

The propagator is the implicit midpoint rule (Crank-Nicolson with the
nonlinearity evaluated at the midpoint), solved per step by fixed-point
iteration on the nonlinear term around a direct linear solve.  The
linear system couples E tridiagonal edge blocks through the single
shared vertex unknown; the arrowhead elimination of operators, shared
with the descent flow, keeps each solve O(E*N).
evolve starts each step's iteration from the midpoint extrapolated from
the two latest states, 1.5 Psi_n - 0.5 Psi_{n-1}, which saves about one
solve per step over starting from Psi_n; the first step starts from
Psi_0.

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
from .operators import (_Arrowhead, _laplacian_bands, _laplacian_values, _symmetrized,
                        energy, weighted_inner)
from .profiles import half_soliton

# Tolerances and budgets of the midpoint fixed point and of Newton, whose
# residual floor from the h^-2 quotients is about 1e-10 at N = 4096.
_FIXED_POINT_TOL = 1e-12
_MAX_FIXED_POINT_ITERS = 50
_NEWTON_TOL = 1e-9
_NEWTON_MAX_ITERS = 30


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
    the edge masses em if it holds them, and any extra columns by name.
    Samples are kept column by column and every column becomes a
    float64 array.
    """

    def __init__(self, reference: GraphState):
        self.reference = reference
        self.samples = {"t": [], "mass": [], "energy": [], "phase": []}
        self.edge_masses = []

    def __len__(self) -> int:
        return len(self.edge_masses)

    def observe(self, t: float, state: GraphState, energy_total: float,
                em: np.ndarray | None = None, **extras):
        if em is None:
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


def _banded_chain(chain: np.ndarray):
    """Chain solve for the stepper's _Arrowhead: one call of this
    module's solve_banded binding, which refactors the complex chain."""
    return lambda B: solve_banded((1, 1), chain, B, check_finite=False)


def step_crank_nicolson(
    state: GraphState,
    dt: float,
    *,
    previous: GraphState | None = None,
    solver: _Arrowhead | None = None,
) -> GraphState:
    """One implicit midpoint step of the focusing cubic flow.

    Solves (2i/dt) W + L W = (2i/dt) Psi - |W|^2 W for the midpoint W
    by lagging the cubic term, then returns 2W - Psi; the solver takes
    it negated, as ((-2i/dt) I - L) W = (-2i/dt) Psi + |W|^2 W, which
    is exact and pivots on the same rows.  The vertex is a
    single unknown, so input values are first projected to their vertex
    mean.  The iteration starts from Psi; given the state one step
    earlier as previous, it starts from the extrapolated midpoint
    1.5 Psi - 0.5 previous instead, which is O(dt^2) closer to W and
    saves about one iteration per step.  The start changes the result
    only at the fixed-point tolerance, _FIXED_POINT_TOL.

    Raises StepFailureError when the fixed point does not converge or
    an iterate overflows (the contraction factor scales with
    dt*max|Psi|^2, so a smaller dt is the usual remedy).
    """
    if dt == 0.0:
        raise DomainError("dt must be nonzero")
    spec = state.spec
    if previous is not None and previous.spec != spec:
        raise DomainError("previous state is on another grid")
    if solver is None:
        solver = _Arrowhead(spec, -2j / dt, _banded_chain)
    vals = _symmetrized(state.values)
    b = (-2j / dt) * vals
    w = edge_weights(spec)
    if previous is None:
        W = vals.copy()
    else:  # 1.5 vals - 0.5 previous, built in the symmetrized copy
        W = _symmetrized(previous.values)
        W *= -0.5
        W += 1.5 * vals
    W_next = np.empty_like(W)
    diff = math.nan
    # an overflowing iterate ends the step below, so numpy stays silent
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_FIXED_POINT_ITERS):
            rhs = b + (np.abs(W) ** 2) * W
            if not np.all(np.isfinite(rhs.view(np.float64))):
                break
            solver.solve(rhs[0, 0], rhs[:, 1:], W_next)
            diff = np.sqrt((w * np.abs(W_next - W) ** 2).sum())
            norm = np.sqrt((w * np.abs(W_next) ** 2).sum())
            if not (math.isfinite(diff) and math.isfinite(norm)):
                break
            W, W_next = W_next, W
            if diff <= _FIXED_POINT_TOL * max(1.0, norm):
                return GraphState(spec, 2.0 * W - vals)
        else:
            raise StepFailureError(
                f"midpoint fixed point did not reach tol {_FIXED_POINT_TOL:.1e} in "
                f"{_MAX_FIXED_POINT_ITERS} iterations (last update {diff:.3e}); "
                "try a smaller dt",
                0,
            )
    raise StepFailureError("midpoint iteration overflowed; try a smaller dt", 0)


def evolve(state: GraphState, config: EvolutionConfig):
    """March the state to t_final, recording a FlowTrace along the way.

    The number of steps is config.steps = round(t_final/|dt|).
    Non-vertex-continuous input is projected to its vertex mean once at
    entry; the projected state is what the t = 0 trace row records.  The
    trace samples every observe_every-th step plus the final one.  Every
    step after the first starts its midpoint iteration from the
    extrapolation of the two latest states.  The trace's extra column
    fixed_point_iters holds the midpoint iterations (one linear solve
    each) taken since the previous row; row 0 reads 0.
    """
    n_steps = config.steps
    spec = state.spec
    current = GraphState(spec, _symmetrized(state.values))
    recorder = TraceRecorder(current)
    recorder.observe(0.0, current, energy(current).total, fixed_point_iters=0)
    solver = _Arrowhead(spec, -2j / config.dt, _banded_chain)
    previous = None
    recorded_solves = 0
    for k in range(1, n_steps + 1):
        try:
            stepped = step_crank_nicolson(current, config.dt, previous=previous,
                                          solver=solver)
        except StepFailureError as exc:
            raise StepFailureError(f"step {k}: {exc}", k) from None
        previous, current = current, stepped
        if k % config.observe_every == 0 or k == n_steps:
            recorder.observe(k * config.dt, current, energy(current).total,
                             fixed_point_iters=solver.solves - recorded_solves)
            recorded_solves = solver.solves
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


def discrete_stationary_state(M: float, spec: GraphSpec):
    """Newton-refined symmetric stationary profile on this exact grid.

    The analytic half-soliton samples satisfy the discrete stationarity
    equation only up to O(h^2); this routine solves the discrete system
    -L u - u^3 + omega u = 0 (L of energy_gradient on the symmetric
    subspace: one real edge profile u) together with the mass constraint
    E * sum(w u^2) = M, by a bordered-tridiagonal Newton iteration on
    (u, omega): a critical point of energy() at fixed mass on this grid.

    Returns (state, omega).
    """
    if not M > 0:
        raise DomainError(f"total mass must be positive, got {M}")
    N = spec.points_per_edge
    E = spec.edge_count
    w = edge_weights(spec)
    bands = _laplacian_bands(spec)

    # Symmetric stationary profile on E edges has edge mass M/E and
    # omega = (M/E)^2 / 4; the half-soliton of that mass is the guess.
    m_edge = M / E
    u = half_soliton(m_edge, spec)
    omega = (m_edge ** 2) / 4.0

    for _ in range(_NEWTON_MAX_ITERS):
        lap = _laplacian_values(np.broadcast_to(u, (E, N)), spec)[0]
        G = -lap - u ** 3 + omega * u
        G_mass = E * float((w * u ** 2).sum()) - M
        if max(float(np.max(np.abs(G))), abs(G_mass)) < _NEWTON_TOL:
            break
        jac = -bands
        jac[1] = jac[1] - 3.0 * u ** 2 + omega
        rhs = np.column_stack([-G, -u])
        sol = solve_banded((1, 1), jac, rhs)
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
            f"stationary-state refinement did not converge to {_NEWTON_TOL:.1e} "
            f"in {_NEWTON_MAX_ITERS} iterations"
        )
    values = np.broadcast_to(u.astype(np.complex128), (E, N)).copy()
    return GraphState(spec, values), float(omega)
