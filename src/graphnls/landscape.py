"""Energy-landscape procedures: comparison states, curve scans, probes, flow.

The central fact this module exercises: at fixed total mass M on the
3-edge star, every state's energy is bounded below by the sesquisoliton
curve value at m1 = (smallest edge mass), the curve increases strictly
from the unattained infimum -M^3/96 (m1 -> 0) to the stationary value
-M^3/216 (m1 = M/3), and the stationary state at the top of the curve
is a saddle: nearby same-mass states of lower energy exist along the
sesquisoliton family, while the dilation direction curves up and the
phase direction is flat.  The saddle is degenerate: the family meets
the stationary state in a cusp, the descent along it is quartic in the
peak offset, and the constrained second-difference probe along any
straight chord of the family measures a nonnegative quadratic form.
Under the fixed-mass gradient flow a start that treats all three edges
alike returns to the stationary state.  Keeping only edges 1 and 2
equal does not decide the outcome: deposit_perturbation (mass moved off
edge 0) returns, while its mirror gather_perturbation (mass gathered
onto edge 0) escapes along edge 0.  shift_perturbation escapes along
the sesquisoliton family.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError, GraphNLSError
from .graph_core import (
    GraphSpec,
    GraphState,
    _column_arrays,
    edge_masses,
    edge_weights,
    mass,
    rescale_mass,
)
from .operators import (_Arrowhead, _symmetrized, _vertex_mean, best_omega,
                        energy, energy_gradient, weighted_norm)
from .profiles import (
    SesquiParams,
    _sesqui_energy_poly,
    dilation_family,
    energy_infimum,
    energy_sesqui_closed,
    half_soliton,
    line_soliton,
    sesquisoliton,
    solve_offset,
    stationary_state,
)
from .dynamics import FlowTrace, trace_row

# Finite-difference steps, and the spline nodes per edge of a random state.
_SESQUI_TANGENT_DELTA = 0.1
_DILATION_TANGENT_DELTA = 1e-3
_CURVATURE_DELTA = 1e-3
_CONTROL_POINTS = 9
_LIVE_CONTROLS = _CONTROL_POINTS - 2


@dataclass(frozen=True)
class CurveScan:
    """Energies sampled along a one-parameter family of states.

    columns is the table the scan is written as: param (the values of
    param_name), closed_energy, discrete_energy, then the extra columns
    (offset, plus gap for the minimizing sequence, or mass for dilation).
    """

    param_name: str
    columns: dict

    def __post_init__(self):
        _column_arrays(self.columns)

    @property
    def param_values(self) -> np.ndarray:
        return self.columns["param"]

    @property
    def closed_energy(self) -> np.ndarray:
        return self.columns["closed_energy"]

    @property
    def discrete_energy(self) -> np.ndarray:
        return self.columns["discrete_energy"]


def comparison_sesquisoliton(state: GraphState):
    """The proof's comparison map: a sesquisoliton below any given state.

    Relabels edges so the minimal-mass edge comes first (ties: lowest
    index), sets m1 = that edge's mass and m2 = the sum of the other
    two, and builds the matching sesquisoliton.  m2 >= 2*m1 holds
    automatically because m1 is the minimum.  Returns the permutation,
    the parameters, and the comparison state (in the relabeled frame:
    half-soliton on edge 0).
    """
    spec = state.spec
    if spec.edge_count != 3:
        raise DomainError(
            f"comparison construction is defined on the 3-edge star, got {spec.edge_count}"
        )
    masses = edge_masses(state)
    if np.any(masses == 0.0):
        raise GraphNLSError(
            "an edge carries zero mass, so no sesquisoliton matches it; "
            "the energy bound for such configurations is energy_infimum(M)"
        )
    head = int(np.argmin(masses))
    perm = (head,) + tuple(e for e in range(3) if e != head)
    m1 = float(masses[head])
    m2 = float(masses[perm[1]] + masses[perm[2]])
    params = SesquiParams.solve(m1, m2)
    return perm, params, sesquisoliton(params, spec)


def _param_values(name: str, values, descending: bool = False) -> np.ndarray:
    """A scan's parameter values, checked to be a nonempty 1-D strictly
    monotone sequence (decreasing or ascending).  The family that builds
    each state checks the values themselves."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or len(vals) == 0:
        raise DomainError(f"{name} must be a nonempty 1-D sequence")
    steps = np.diff(vals)
    if not np.all(-steps > 0 if descending else steps > 0):
        order = "decreasing" if descending else "ascending"
        raise DomainError(f"{name} must be strictly {order}")
    return vals


def _sesqui_energies(M: float, m1s: np.ndarray, spec: GraphSpec):
    """Closed-form energies, offsets and discrete energies of the
    sesquisolitons with first-edge masses m1s; the closed form rejects
    an m1 outside (0, M/3] before any state is built."""
    closed = np.array([energy_sesqui_closed(m1, M) for m1 in m1s])
    offsets = np.empty_like(m1s)
    discrete = np.empty_like(m1s)
    for k, m1 in enumerate(m1s):
        params = SesquiParams.solve(m1, M - m1)
        offsets[k] = params.offset
        discrete[k] = energy(sesquisoliton(params, spec)).total
    return closed, offsets, discrete


def scan_sesqui_curve(M: float, m1_values, spec: GraphSpec) -> CurveScan:
    """Sesquisoliton energies along m1, closed form vs discrete.

    m1 values must be strictly ascending within (0, M/3].  The discrete
    energies are checked to be strictly increasing up to a 1e-8 slack
    between neighbors, echoing the monotonicity of the closed form.
    """
    m1s = _param_values("m1_values", m1_values)
    closed, offsets, discrete = _sesqui_energies(M, m1s, spec)
    if len(discrete) >= 2 and not np.all(np.diff(discrete) > -1e-8):
        raise GraphNLSError(
            "discrete sesquisoliton energies failed to increase along m1; "
            "the grid is too coarse for this scan"
        )
    return CurveScan("m1", {"param": m1s, "closed_energy": closed,
                            "discrete_energy": discrete, "offset": offsets})


def scan_dilation_curve(M: float, lambda_values, spec: GraphSpec) -> CurveScan:
    """Energies along the symmetric dilation family through the saddle.

    Closed form lam^2*K - lam*P with K = M^3/216, P = M^3/108: a
    parabola with its minimum at lam = 1, where the family crosses the
    stationary state.  The scan must include lam = 1.
    """
    lams = _param_values("lambda_values", lambda_values)
    if not np.any(np.isclose(lams, 1.0, rtol=0.0, atol=1e-9)):
        raise DomainError("the dilation scan must include lambda = 1")
    discrete = np.empty_like(lams)
    masses = np.empty_like(lams)
    for k, lam in enumerate(lams):
        st = dilation_family(M, lam, spec)
        rep = energy(st)
        discrete[k] = rep.total
        masses[k] = rep.mass
    # after the loop, which rejects a lam whose energy overflows
    K = M ** 3 / 216.0
    P = M ** 3 / 108.0
    closed = lams ** 2 * K - lams * P
    return CurveScan("lambda", {"param": lams, "closed_energy": closed,
                                "discrete_energy": discrete, "mass": masses})


def minimizing_sequence_demo(M: float, m1_values, spec: GraphSpec) -> CurveScan:
    """Walk the sesquisoliton curve toward the unattained infimum.

    m1 values must be strictly decreasing; for each, the scan reports
    the offset, the discrete energy, and the gap to -M^3/96.  Gaps must
    come out positive and strictly decreasing, demonstrating a
    minimizing sequence with no minimizer.  Requires the soliton peak
    to stay at least 5 widths (width = 4/m2) from the far boundary,
    otherwise a DomainError reports the admissible m1 floor.
    """
    m1s = _param_values("m1_values", m1_values, descending=True)
    L = spec.truncation_length
    for m1 in m1s:
        m2 = M - m1
        if solve_offset(m1, m2) + 5.0 * (4.0 / m2) > L:
            # Leading-order offset for small m1 is (4/M) log(M/m1), so
            # the admissible floor is roughly M exp(-(M L - 20)/4).
            floor = M * math.exp(-(M * L - 20.0) / 4.0)
            raise DomainError(
                f"m1 = {m1} pushes the soliton peak too close to the "
                f"truncation boundary L = {L}; smallest admissible m1 is "
                f"about {floor:.3e}")
    closed, offsets, discrete = _sesqui_energies(M, m1s, spec)
    gaps = discrete - energy_infimum(M)
    if not np.all(gaps > 0):
        k = int(np.argmin(gaps))
        raise GraphNLSError(
            f"the minimizing-sequence energy at m1 = {m1s[k]:g} lies {-gaps[k]:.3g} "
            "below the infimum -M^3/96; the grid is too coarse for this scan")
    if len(gaps) >= 2 and not np.all(np.diff(gaps) < 0):
        raise GraphNLSError("minimizing-sequence gaps failed to decrease")
    return CurveScan("m1", {"param": m1s, "closed_energy": closed,
                            "discrete_energy": discrete, "offset": offsets, "gap": gaps})


def hessian_probe(center: GraphState, direction: GraphState, epsilon: float) -> float:
    """Second difference of the mass-constrained energy along a direction.

    Returns (E(center + eps d) + E(center - eps d) - 2 E(center)) / eps^2
    with the probe states center +- eps d rescaled back to the center's
    mass first, so the value estimates the curvature of the energy
    restricted to the constraint sphere.  Raises GraphNLSError when the
    rescaling moves the mass by more than 10%, which is where the
    quadratic reading of the result stops being meaningful.  Raises
    DomainError for a direction on another grid.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if direction.spec != center.spec:
        raise DomainError("probe direction and center live on different grids")
    if mass(direction) == 0.0:
        raise DomainError("probe direction must be nonzero")
    M0 = mass(center)
    if not M0 > 0:
        raise DomainError("probe center must have positive mass")
    probed = []
    for sign in (+1.0, -1.0):
        raw = GraphState(center.spec, center.values + sign * epsilon * direction.values)
        m_raw = mass(raw)
        if abs(m_raw / M0 - 1.0) > 0.1:
            raise GraphNLSError(
                f"epsilon = {epsilon} moves the mass by "
                f"{abs(m_raw / M0 - 1.0):.1%}; the probe is not meaningful "
                "beyond 10%"
            )
        probed.append(energy(rescale_mass(raw, M0)).total)
    return (probed[0] + probed[1] - 2.0 * energy(center).total) / epsilon ** 2


def sesqui_tangent(M: float, spec: GraphSpec) -> GraphState:
    """Chord of the sesquisoliton curve ending at the stationary state.

    Finite difference (in m1) of mass-projected sesquisolitons at
    m1 = M/3 and M/3 - delta, delta = 0.1.  The curve meets the
    stationary state with a square-root cusp in m1, so this chord is
    dominated by the family's offset direction and its norm grows like
    1/sqrt(delta); probes along it need only a sign, not a
    normalization.
    """
    delta = _SESQUI_TANGENT_DELTA
    top = rescale_mass(
        sesquisoliton(SesquiParams.solve(M / 3.0, 2.0 * M / 3.0), spec), M
    )
    below = rescale_mass(
        sesquisoliton(SesquiParams.solve(M / 3.0 - delta, 2.0 * M / 3.0 + delta), spec), M
    )
    return GraphState(spec, (top.values - below.values) / delta)


def dilation_tangent(M: float, spec: GraphSpec) -> GraphState:
    """Central-difference tangent of the dilation family at lambda = 1,
    with step delta = 1e-3."""
    delta = _DILATION_TANGENT_DELTA
    plus = rescale_mass(dilation_family(M, 1.0 + delta, spec), M)
    minus = rescale_mass(dilation_family(M, 1.0 - delta, spec), M)
    return GraphState(spec, (plus.values - minus.values) / (2.0 * delta))


def phase_direction(state: GraphState) -> GraphState:
    """i times the state: the gauge direction, along which energy is flat."""
    return GraphState(state.spec, 1j * state.values)


def sesqui_curve_second_derivative(M: float, m1: float) -> float:
    """d^2/dm1^2 of the closed-form curve energy by central differences.

    The closed form is a cubic polynomial in m1, so the central second
    difference (step delta = 1e-3) is exact up to rounding; evaluation
    slightly past M/3 uses the polynomial itself, not a trial state.
    At m1 = M/3 the value is -M/8.
    """
    center = energy_sesqui_closed(m1, M)  # rejects an m1 outside (0, M/3]
    delta = _CURVATURE_DELTA
    return (
        _sesqui_energy_poly(m1 + delta, M)
        + _sesqui_energy_poly(m1 - delta, M)
        - 2.0 * center
    ) / delta ** 2


def _sobolev_direction(state: GraphState, r: np.ndarray, state_mass: float,
                       resolvent: _Arrowhead) -> np.ndarray:
    """-(I - L)^{-1} r, projected onto the tangent space of the mass
    sphere at state: d -= Re<state, d> / state_mass * state."""
    d = -resolvent.solve(_vertex_mean(r), r[:, 1:])
    w = edge_weights(state.spec)
    psi = state.values
    d -= (float((w * (psi.real * d.real + psi.imag * d.imag)).sum()) / state_mass) * psi
    return d


def gradient_flow_fixed_mass(state0: GraphState, step: float, max_iters: int,
                             grad_tol: float):
    """Sobolev-preconditioned projected descent on the mass sphere.

    With r = grad E + best_omega * Psi, the projected gradient, each
    step moves along d = -(I - L)^{-1} r projected onto the sphere's
    tangent space (d -= Re<Psi, d>/M Psi), then rescales to the start's
    mass M0: Psi <- rescale_mass(Psi + s d, M0).  (I - L), with L the
    Kirchhoff Laplacian of energy_gradient, is built once per flow in
    the start's dtype (a real start's factored once, as _Arrowhead says);
    it is the H^1 Riesz map of Danaila & Kazemi's Sobolev gradient, so
    the usable step does not shrink with h^2 and the iteration count of
    a run does not grow with the grid.  Backtracking: a trial step that
    does not lower the energy, or whose unprojected state overflows,
    halves s and is retried (never recorded); accepted steps grow s by
    1.2, up to 10 * step, so step is the initial step and not the cap
    (the preconditioned flow is stable well above it; a cap of 100 *
    step oscillates where the flow returns to the degenerate saddle).
    step must be finite and positive, grad_tol finite and nonnegative;
    anything else is a DomainError.

    The flow stops when ||r|| drops to grad_tol * min(1, ||grad E(Psi0)||),
    with grad E(Psi0) the start's unprojected gradient ("converged"), so
    a start whose gradient is small, as at a tiny mass, still descends;
    when the energy reaches 0.99 * (-M0^3/96) ("near_infimum"), after
    max_iters accepted steps ("max_iters"), or when backtracking halves
    s below 1e-12 ("stalled", as at a critical point of the discrete
    energy).  The infimum -M0^3/96 is not attained, so an escaped run
    has no critical point to converge to; near_infimum ends it, and
    ends it while the escaping soliton is still far from x = L: with
    the natural far end the truncated problem is not bounded below by
    -M^3/96 (a half-soliton parked at x = L reaches -M^3/24).  On two
    edges, a line, the soliton attains -M^3/96, and the rule stops the
    run short of it.

    Each trace_row (the start or an accepted state) costs one
    energy_gradient, shared with best_omega, and one edge_masses pass,
    which gives M0 or best_omega's mass and the row's masses; a step
    costs one resolvent solve, a trial step one rescale_mass and energy.

    Returns (last accepted state, FlowTrace) at every stop; the trace's
    extra columns record the projected gradient norm and the position
    (edge, coordinate) of the modulus maximum, a proxy for where the
    escaping soliton sits.  Trace metadata records stop_reason ("converged",
    "near_infimum", "max_iters" or "stalled"), the accepted and rejected
    trial steps, and final_step, the step size the next trial would
    have used (below 1e-12 after a stall).
    """
    if not (math.isfinite(step) and step > 0):
        raise DomainError(f"step must be positive and finite, got {step}")
    if not (math.isfinite(grad_tol) and grad_tol >= 0):
        raise DomainError(f"grad_tol must be nonnegative and finite, got {grad_tol}")
    if max_iters < 0:
        raise DomainError("max_iters must be nonnegative")
    em0 = edge_masses(state0)
    M0 = float(em0.sum())
    if not M0 > 0:
        raise DomainError("gradient flow needs a state with positive mass")
    # products, not M0 ** 3: a huge M0 then gives -inf instead of an
    # OverflowError, and no finite energy stops the run; nor does a
    # threshold that underflows to -0.0 (M0 below about 1e-103), which
    # would stop a start above the infimum whose energy underflows to 0
    near_infimum = -(0.99 / 96.0) * M0 * M0 * M0
    if not near_infimum < 0.0:
        near_infimum = -math.inf
    spec = state0.spec
    w = edge_weights(spec)
    h = spec.spacing
    N = spec.points_per_edge
    resolvent = _Arrowhead(spec, state0.values.dtype.type(1.0))

    rows = []
    rejected = 0
    stalled = False

    def record(it, st, e_total, em):
        """Trace row of an accepted state with edge masses em; returns
        the projected gradient r, the mass, ||r|| and the gradient."""
        g = energy_gradient(st)
        m = float(em.sum())
        r = g.values + best_omega(st, g, m) * st.values
        pg = float(np.sqrt((w * np.abs(r) ** 2).sum()))
        flat = int(np.argmax(np.abs(st.values)))
        rows.append(trace_row(state0, it, st, e_total, em, grad_norm=pg,
                              peak_edge=flat // N, peak_coordinate=(flat % N) * h))
        return r, m, pg, g

    # a trial that overflows is rejected below, so numpy stays silent;
    # one errstate for the whole flow costs nothing per trial
    with np.errstate(over="ignore", invalid="ignore"):
        current = state0
        e_current = energy(current).total
        r, m, pg, g = record(0, current, e_current, em0)
        tol = grad_tol * min(1.0, weighted_norm(g))
        s = step
        for it in range(1, max_iters + 1):
            if pg <= tol or e_current <= near_infimum:
                break
            d = _sobolev_direction(current, r, m, resolvent)
            while not stalled:
                try:
                    trial = rescale_mass(GraphState(spec, current.values + s * d), M0)
                except DomainError:  # the unprojected trial overflowed
                    e_trial = math.inf
                else:
                    e_trial = energy(trial).total
                if e_trial < e_current:
                    break
                rejected += 1
                s *= 0.5
                stalled = s < 1e-12
            if stalled:
                break
            current, e_current = trial, e_trial
            s = min(s * 1.2, 10.0 * step)
            r, m, pg, _ = record(it, current, e_current, edge_masses(current))
    if pg <= tol:
        reason = "converged"
    elif e_current <= near_infimum:
        reason = "near_infimum"
    else:
        reason = "stalled" if stalled else "max_iters"
    return current, FlowTrace.from_rows(rows, stop_reason=reason, accepted_steps=len(rows) - 1,
                                        rejected_steps=rejected, final_step=s)


def shift_perturbation(M: float, spec: GraphSpec, fraction: float) -> GraphState:
    """Stationary state with mass slid between the last two edges.

    The profiles on edges 1 and 2 are translated by +/-eta along their
    common line, which carries `fraction` of the total mass across the
    vertex from edge 2 to edge 1 while leaving edge 0 untouched.  This
    is the antisymmetric kick that seeds the unstable channel of the
    saddle; the fixed-mass gradient flow escapes from it.  The small
    vertex mismatch of the translated profiles is averaged out before
    the final mass rescale.
    """
    if spec.edge_count != 3:
        raise DomainError("shift perturbation is defined on the 3-edge star")
    _require_fraction(fraction)
    _require_start_mass(M, spec)
    m = M / spec.edge_count
    # a shift eta moves m*tanh(m*eta/2) of mass onto the receiving edge
    eta = (2.0 / m) * math.atanh(fraction * M / m)
    x = spec.coordinates()
    # half-solitons of mass m: the halves of a mass-2m line soliton
    rows = [half_soliton(m, spec), line_soliton(2.0 * m, eta, x),
            line_soliton(2.0 * m, -eta, x)]
    vals = _symmetrized(np.asarray(rows))
    return rescale_mass(GraphState(spec, vals), M)


def deposit_perturbation(M: float, spec: GraphSpec, fraction: float) -> GraphState:
    """Stationary state with mass moved from edge 0 onto the other edges.

    Edge 0 is scaled down and every other edge scaled up so that
    `fraction` of the total mass leaves edge 0, split evenly.  The
    gradient flow carries this start back to the stationary energy
    instead of escaping.  The equal receiving edges do not cause that:
    the mirror start, gather_perturbation, keeps the same symmetry and
    escapes along edge 0.
    """
    _require_fraction(fraction)
    return _edge0_transfer(M, spec, fraction * M)


def gather_perturbation(M: float, spec: GraphSpec, fraction: float) -> GraphState:
    """The mirror of deposit_perturbation: `fraction` of the total mass
    gathered onto edge 0, taken evenly off the other edges.

    Edges 1 and 2 stay equal, as in the deposit start, yet the gradient
    flow escapes from this start along edge 0.
    """
    _require_fraction(fraction)
    return _edge0_transfer(M, spec, -fraction * M)


def _edge0_transfer(M: float, spec: GraphSpec, moved: float) -> GraphState:
    """Stationary state with mass `moved` taken off edge 0 (put onto it
    when negative), split evenly over the other edges."""
    _require_start_mass(M, spec)
    state, _ = stationary_state(M, spec)
    edge0 = M / spec.edge_count
    rest = spec.edge_count - 1
    vals = state.values.copy()
    vals[0] *= math.sqrt(1.0 - moved / edge0)
    vals[1:] *= math.sqrt(1.0 + moved / (rest * edge0))
    return rescale_mass(GraphState(spec, _symmetrized(vals)), M)


def _require_fraction(fraction: float) -> None:
    if not 0.0 < fraction < 1.0 / 3.0:
        raise DomainError("fraction must lie in (0, 1/3)")


def _require_start_mass(M: float, spec: GraphSpec) -> None:
    """DomainError when a flow start's weighted density, about its peak
    |psi|^2 = (M/3)^2/2 times the spacing, is below the normal floats:
    its mass would round to 0, or lose digits, before rescale_mass."""
    m = float(M) / 3.0
    if m * m / 2.0 * spec.spacing < np.finfo(float).tiny:
        raise DomainError(f"mass {M:g} is too small: the start's |psi|^2 underflows")


@functools.lru_cache(maxsize=8)
def _spline_basis(spec: GraphSpec) -> np.ndarray:
    """Not-a-knot splines through the unit controls, sampled on the grid:
    row k of the (7, N) array is the spline of control k.  A spline on
    fixed nodes is linear in its controls, and the last two controls of a
    random state are zero.  The node slopes come from one tridiagonal
    solve and each piece is a cubic power sum, in the same floating-point
    operations as scipy's CubicSpline, so the basis equals it bit for bit.
    Built once per grid and shared, so read-only.
    """
    x = np.linspace(0.0, spec.truncation_length, _CONTROL_POINTS)
    y = np.eye(_CONTROL_POINTS)[:, :_LIVE_CONTROLS]
    dx = np.diff(x)
    dxr = dx[:, None]
    dydx = np.diff(y, axis=0) / dxr
    # the slope system in solve_banded layout; its first and last rows
    # are the not-a-knot conditions
    ab = np.zeros((3, _CONTROL_POINTS))
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[2, :-2] = dx[1:]
    b = np.empty_like(y)
    b[1:-1] = 3 * (dxr[1:] * dydx[:-1] + dxr[:-1] * dydx[1:])
    d = x[2] - x[0]
    ab[1, 0], ab[0, 1] = dx[1], d
    b[0] = ((dxr[0] + 2 * d) * dxr[1] * dydx[0] + dxr[0] ** 2 * dydx[1]) / d
    d = x[-1] - x[-3]
    ab[1, -1], ab[2, -2] = dx[-2], d
    b[-1] = (dxr[-1] ** 2 * dydx[-2] + (2 * d + dxr[-1]) * dxr[-2] * dydx[-1]) / d
    s = scipy.linalg.solve_banded((1, 1), ab, b, overwrite_ab=True,
                                  overwrite_b=True, check_finite=False)
    t = (s[:-1] + s[1:] - 2 * dydx) / dxr
    c2, c3 = (dydx - s[:-1]) / dxr - t, t / dxr
    coordinates = spec.coordinates()
    piece = np.clip(np.searchsorted(x, coordinates, "right") - 1, 0, _CONTROL_POINTS - 2)
    z = (coordinates - x[piece])[:, None]
    z2 = z * z
    basis = (y[piece] + s[piece] * z + c2[piece] * z2 + c3[piece] * (z2 * z)).T.copy()
    basis.setflags(write=False)
    return basis


def random_vertex_continuous_state(
    spec: GraphSpec,
    rng: np.random.Generator,
    target_mass: float | None = None,
) -> GraphState:
    """Smooth random state: per-edge cubic splines sharing the vertex value.

    Control values are complex Gaussians at 9 equispaced nodes, drawn
    as the vertex value, then per edge 9 real and 9 imaginary parts; the
    vertex control is shared across edges (exact continuity) and the
    last two controls are zero so the state dies off well before the
    truncation boundary.  Each edge is two real vector-matrix products
    with the grid's cached spline basis.  Optionally rescaled to a
    target mass.
    """
    basis = _spline_basis(spec)
    vertex_re, vertex_im = rng.standard_normal(), rng.standard_normal()
    vals = np.empty((spec.edge_count, spec.points_per_edge), dtype=complex)
    for row in vals:
        re, im = rng.standard_normal(_CONTROL_POINTS), rng.standard_normal(_CONTROL_POINTS)
        re[0], im[0] = vertex_re, vertex_im
        row.real = re[:_LIVE_CONTROLS] @ basis
        row.imag = im[:_LIVE_CONTROLS] @ basis
    vals[:, -1] = 0.0
    state = GraphState(spec, vals)
    if target_mass is not None:
        state = rescale_mass(state, target_mass)
    return state

