"""Time integration of i dPsi/dt = -L Psi - |Psi|^2 Psi on the star graph.

The propagator is the implicit midpoint rule (Crank-Nicolson with the
nonlinearity evaluated at the midpoint), solved per step by fixed-point
iteration on the nonlinear term around a direct linear solve.  The
linear system couples E tridiagonal edge blocks through the single
shared vertex unknown; the arrowhead elimination of operators, shared
with the descent flow, keeps each solve O(E*N).  A state with equal
edge rows, such as the standing wave, keeps them equal, so it is
stepped as one row, to the same bits as E rows.  evolve starts each
step's iteration from the past midpoints extrapolated (see evolve).

The scheme is time-symmetric, conserves mass at the fixed point, and
keeps the energy drift O(dt^2) per unit time.  The stationary state
evolves as the standing wave e^{i omega t} Phi with omega = M^2/36, so
the recorded phase arg<Psi(0), Psi(t)> grows linearly with slope omega.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .errors import DomainError, GraphNLSError
from .graph_core import GraphSpec, GraphState, _column_arrays, edge_masses, edge_weights
from .operators import (_Arrowhead, _edge_sum, _laplacian_bands, _laplacian_values,
                        _symmetrized, energy, weighted_inner)
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

    def require_phase_fit(self) -> "EvolutionConfig":
        """self, or a DomainError when the trace (t = 0, every
        observe_every-th step and the last) has fewer than the 3 rows
        that measure_omega fits."""
        if self.steps <= self.observe_every:
            raise DomainError(f"{self.steps} steps at --observe-every {self.observe_every} "
                              "give 2 trace rows; the frequency fit needs 3")
        return self


@dataclass(frozen=True)
class FlowTrace:
    """Observables sampled along a time evolution or a gradient flow.

    columns is the table the trace is written as, one float64 entry per
    sample in each column: t, mass, energy, phase, edge_mass_1..E, then
    the extra columns (grad_norm, peak_edge and peak_coordinate for a
    gradient flow, fixed_point_iters for an evolution).  phase[k] is
    arg<Psi(0), Psi(t_k)> in the weighted inner product: for a standing
    wave e^{i omega t} Phi it equals omega*t_k.  metadata holds per-run
    facts that are not columns, such as a gradient flow's stop reason
    and step counts; it is not written to the tables.
    """

    columns: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        _column_arrays(self.columns)

    @property
    def times(self) -> np.ndarray:
        return self.columns["t"]

    @property
    def masses(self) -> np.ndarray:
        return self.columns["mass"]

    @property
    def energies(self) -> np.ndarray:
        return self.columns["energy"]

    @property
    def vertex_phase(self) -> np.ndarray:
        return self.columns["phase"]

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

    def __len__(self) -> int:
        return len(self.samples["t"])

    def observe(self, t: float, state: GraphState, energy_total: float,
                em: np.ndarray | None = None, **extras):
        if em is None:
            em = edge_masses(state)
        row = {"t": float(t), "mass": float(em.sum()), "energy": energy_total,
               "phase": float(np.angle(weighted_inner(self.reference, state))),
               **{f"edge_mass_{e + 1}": m for e, m in enumerate(em.tolist())}, **extras}
        for name, value in row.items():
            self.samples.setdefault(name, []).append(value)

    def trace(self, **metadata) -> FlowTrace:
        return FlowTrace({name: np.array(values, dtype=float)
                          for name, values in self.samples.items()}, metadata)


def _banded_chain(chain: np.ndarray):
    """Chain solve for the stepper's _Arrowhead: one call of this
    module's solve_banded binding, which refactors the complex chain."""
    return lambda B: solve_banded((1, 1), chain, B, check_finite=False)


@functools.lru_cache(maxsize=8)
def _pair_weights(spec: GraphSpec) -> np.ndarray:
    """edge_weights with each weight twice, shape (2N,): the weights of a
    row's float64 view, where each value's re and im sit side by side.
    Built once per grid and shared, so the array is read-only."""
    w2 = np.repeat(edge_weights(spec), 2)
    w2.setflags(write=False)
    return w2


def _edge_symmetric(values: np.ndarray) -> bool:
    """True when every edge row equals row 0 (a NaN equals nothing)."""
    values = np.asarray(values, dtype=np.complex128)
    if values.strides[-1] != values.itemsize:
        values = np.ascontiguousarray(values)
    # compared as float64 (re, im) pairs, about three times faster than complex
    parts = values.view(np.float64)
    return bool((parts[1:] == parts[0]).all())


def step_crank_nicolson(
    state: GraphState,
    dt: float,
    *,
    start: np.ndarray | None = None,
    solver: _Arrowhead | None = None,
) -> GraphState:
    """One implicit midpoint step of the focusing cubic flow.

    Solves (2i/dt) W + L W = (2i/dt) Psi - |W|^2 W for the midpoint W
    by lagging the cubic term, then returns 2W - Psi; the solver takes
    it negated, as ((-2i/dt) I - L) W = (-2i/dt) Psi + |W|^2 W, which
    is exact and pivots on the same rows.  The vertex is a
    single unknown, so input values are first projected to their vertex
    mean.  The iteration starts from Psi, or from start, a guess of W
    on this grid (evolve extrapolates past midpoints); start is only
    read, and it moves the result only at the fixed-point tolerance,
    _FIXED_POINT_TOL.  Each iteration's right-hand side and solve are
    new arrays, so no iterate is overwritten.
    Edge-symmetric values and start (every row equal to row 0) are
    iterated on row 0, counted E times in each sum over edges; the
    result is bit for bit the E-row one, though the stop test's update
    and norm may differ in their last bits (BLAS sums one row in
    another order).

    Raises DomainError for a zero or non-finite dt or a non-finite start,
    and GraphNLSError when the fixed point does not converge or an
    iterate overflows (the contraction factor scales with
    dt*max|Psi|^2, so a smaller dt is the usual remedy).
    """
    if not (math.isfinite(dt) and dt != 0.0):
        raise DomainError(f"dt must be nonzero and finite, got {dt}")
    spec = state.spec
    E = spec.edge_count
    vals = _symmetrized(state.values)
    if start is not None and np.shape(start) != vals.shape:
        raise DomainError(f"start shape {np.shape(start)} does not match grid {vals.shape}")
    if solver is None:
        solver = _Arrowhead(spec, -2j / dt, _banded_chain)
    # edge-symmetric values and start have an edge-symmetric midpoint
    rows = 1 if _edge_symmetric(vals) and (start is None or _edge_symmetric(start)) else E
    psi = vals[:rows]
    b = (-2j / dt) * psi
    w2 = _pair_weights(spec)
    W = psi if start is None else np.asarray(start[:rows], dtype=np.complex128)
    diff = math.nan
    # an overflowing iterate ends the step below, so numpy stays silent
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_FIXED_POINT_ITERS):
            rhs = W * (W.real ** 2 + W.imag ** 2) + b
            if not np.isfinite(rhs).all():
                break
            W_next = solver.solve(rhs[0, 0], rhs[:, 1:])
            diff = math.sqrt(_edge_sum(np.square((W_next - W).view(np.float64)) @ w2, E))
            norm = math.sqrt(_edge_sum(np.square(W_next.view(np.float64)) @ w2, E))
            if not (math.isfinite(diff) and math.isfinite(norm)):
                break
            W = W_next
            if diff <= _FIXED_POINT_TOL * max(1.0, norm):
                return GraphState(spec, np.broadcast_to(2.0 * W - psi, vals.shape))
        else:
            raise GraphNLSError(
                f"midpoint fixed point did not reach tol {_FIXED_POINT_TOL:.1e} in "
                f"{_MAX_FIXED_POINT_ITERS} iterations (last update {diff:.3e}); "
                "try a smaller dt")
    # a non-finite start breaks the first iteration, so it ends here
    if start is not None and not np.isfinite(start).all():
        raise DomainError("start contains non-finite values")
    raise GraphNLSError("midpoint iteration overflowed; try a smaller dt")


def evolve(state: GraphState, config: EvolutionConfig):
    """March the state to t_final, recording a FlowTrace along the way.

    The number of steps is config.steps = round(t_final/|dt|).
    Non-vertex-continuous input is projected to its vertex mean once at
    entry; the projected state is what the t = 0 trace row records.  The
    trace samples every observe_every-th step plus the final one.  Step 1
    starts its midpoint iteration from Psi_0, steps 2-3 from the linear
    1.5 Psi_n - 0.5 Psi_{n-1}, steps 4-5 from the quadratic
    1.5 Psi_n - Psi_{n-2} + 0.5 Psi_{n-3}, and every later step, once six
    states are held, from the degree-4 2.5 Psi_n - 2.5 Psi_{n-1} +
    2.5 Psi_{n-3} - 2 Psi_{n-4} + 0.5 Psi_{n-5} = 5 W_{n-1/2} -
    10 W_{n-3/2} + 10 W_{n-5/2} - 5 W_{n-7/2} + W_{n-9/2}, the past
    midpoints extrapolated to O(dt^5), a new array each step.  At
    dt = 1e-3 that takes the standing wave to 1 iteration per step and
    the moving sesquisoliton to about 3.2 (N = 4096) or 3.6 (N = 512).
    The trace's extra column fixed_point_iters holds the midpoint
    iterations (one linear solve each) taken since the previous row; row
    0 reads 0.  An edge-symmetric start stays so: the past states and
    guesses are then held on row 0 and broadcast to the step.
    """
    n_steps = config.steps
    spec = state.spec
    current = GraphState(spec, _symmetrized(state.values))
    recorder = TraceRecorder(current)
    recorder.observe(0.0, current, energy(current).total, fixed_point_iters=0)
    solver = _Arrowhead(spec, -2j / config.dt, _banded_chain)
    # a step keeps an edge-symmetric state so
    rows = 1 if _edge_symmetric(current.values) else spec.edge_count
    past = [current.values[:rows]]  # the latest states, newest first, at most six
    recorded_solves = 0
    for k in range(1, n_steps + 1):
        if len(past) == 6:
            start = ((((past[0] - past[1]) + past[3]) * 1.25 - past[4]) * 4.0 + past[5]) * 0.5
        else:
            start = (None if len(past) == 1 else 1.5 * past[0] - 0.5 * past[1]
                     if len(past) < 4 else 1.5 * past[0] - past[2] + 0.5 * past[3])
        if start is not None:
            start = np.broadcast_to(start, current.values.shape)
        try:
            current = step_crank_nicolson(current, config.dt, start=start, solver=solver)
        except DomainError:
            raise
        except GraphNLSError as exc:
            raise GraphNLSError(f"step {k}: {exc}") from None
        past = [current.values[:rows], *past[:5]]
        if k % config.observe_every == 0 or k == n_steps:
            recorder.observe(k * config.dt, current, energy(current).total,
                             fixed_point_iters=solver.solves - recorded_solves)
            recorded_solves = solver.solves
    return current, recorder.trace()


def measure_omega(trace: FlowTrace) -> float:
    """|slope| of the least-squares line through the unwrapped phase vs
    time: the standing-wave frequency."""
    if len(trace.times) < 3:
        raise DomainError("phase fit needs a trace with at least 3 samples")
    phases = np.unwrap(trace.vertex_phase)
    steps = np.abs(np.diff(phases))
    if steps.size and steps.max() > 0.95 * np.pi:
        raise GraphNLSError(
            "phase advances close to pi per sample; decrease dt*observe_every"
        )
    return abs(float(np.polyfit(trace.times, phases, 1)[0]))


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
    return GraphState(spec, np.broadcast_to(u, (E, N))), float(omega)
