"""Closed-form soliton profiles and their energies.

Building blocks, all for the cubic focusing nonlinearity:

* half_soliton: phi_m(x) = (m/sqrt(2)) sech(m x / 2), the half-line
  soliton tail with mass m, peak at x = 0.  Its H^1 and L^4 integrals
  are m^3/12 and m^3/3, so its energy is -m^3/24.

* line_soliton: (m/(2 sqrt(2))) sech(m (xi - y) / 4), the full-line
  soliton with mass m centered at xi = y; energy -m^3/96.

* sesquisoliton: a trial state on the 3-edge star made of a half-soliton
  of mass m1 on edge 0 and the two halves of a mass-m2 line soliton,
  shifted outward by a common offset so all three edges meet
  continuously at the vertex.  Exists iff m2 >= 2 m1; its energy has the
  closed form -m1^3/24 + (m1 - M)^3/96 where M = m1 + m2.

* stationary_state: the unique critical point at fixed total mass M,
  three identical half-solitons of mass M/3, with its frequency M^2/36
  (energy -M^3/216); dilation_family scales it at fixed mass.

The infimum of the fixed-mass energy is -M^3/96 (a line soliton escaped
to infinity along two edges); it is approached but never attained, and
the sesquisoliton family with m1 -> 0 realizes a minimizing sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .graph_core import GraphSpec, GraphState

_OFFSET_EDGE_SLACK = 1e-14


def _scaled_sech(amp, rate, x) -> np.ndarray:
    """amp / cosh(rate * x), silent where the product or cosh overflows:
    the quotient is below 1e-308 amp there."""
    with np.errstate(over="ignore"):
        return amp / np.cosh(rate * x)


def half_soliton(m: float, spec: GraphSpec) -> np.ndarray:
    """Samples of (m/sqrt(2)) sech(m x / 2) on one edge, shape (N,)."""
    if not m > 0:
        raise DomainError(f"soliton mass must be positive, got {m}")
    x = spec.coordinates()
    return _scaled_sech(m / math.sqrt(2.0), 0.5 * m, x)


def line_soliton(m: float, y: float, xi) -> np.ndarray:
    """Samples of the mass-m line soliton centered at y, on coordinates xi."""
    if not m > 0:
        raise DomainError(f"soliton mass must be positive, got {m}")
    xi = np.asarray(xi, dtype=float)
    return _scaled_sech(m / (2.0 * math.sqrt(2.0)), 0.25 * m, xi - y)


def solve_offset(m1: float, m2: float) -> float:
    """Offset x >= 0 with (m1/sqrt2) = line soliton value at distance x.

    Matching the half-soliton peak against the mass-m2 line soliton
    profile gives cosh(m2 x / 4) = m2 / (2 m1), i.e.
    x = (4/m2) arccosh(m2 / (2 m1)).  Requires m2 >= 2 m1; at equality
    the offset is 0 and the sesquisoliton degenerates to the symmetric
    three-half-soliton state when additionally m1 = m2/2 = M/3.  A mass
    that is not positive and finite is a DomainError.
    """
    if not (math.isfinite(m1) and math.isfinite(m2) and m1 > 0 and m2 > 0):
        raise DomainError(f"masses must be positive and finite, got m1={m1}, m2={m2}")
    ratio = m2 / (2.0 * m1)
    if ratio < 1.0 - _OFFSET_EDGE_SLACK:
        raise DomainError(
            f"no continuous matching exists for m1={m1}, m2={m2}: needs m2 >= 2*m1"
        )
    # Rounding can land a hair below 1 at the degenerate corner, where the
    # offset is 0; (4/m2) acosh(1) would be inf * 0 for a subnormal m2.
    if ratio <= 1.0:
        return 0.0
    return (4.0 / m2) * math.acosh(ratio)


@dataclass(frozen=True)
class SesquiParams:
    """Masses of a sesquisoliton trial state and the vertex offset they fix."""

    m1: float
    m2: float
    offset: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "offset", solve_offset(self.m1, self.m2))

    @classmethod
    def solve(cls, m1: float, m2: float) -> "SesquiParams":
        return cls(m1, m2)


def sesquisoliton(params: SesquiParams, spec: GraphSpec) -> GraphState:
    """Sesquisoliton trial state on the 3-edge star.

    Edge 0 carries the half-soliton of mass m1.  Edges 1 and 2 carry the
    two halves of the mass-m2 line soliton: on the straightened line
    through the vertex (edge 1 at xi < 0, edge 2 at xi > 0) the soliton
    is centered at xi = -offset, so edge 1 holds the bump with its peak
    a distance offset from the vertex and edge 2 holds the monotone far
    tail.  Swapping edges 1 and 2 gives the mirror state with the same
    energy; this constructor fixes the peak on edge 1.  A peak beyond
    the edge's end, offset > L, is a DomainError.
    """
    if spec.edge_count != 3:
        raise DomainError(
            f"sesquisoliton is defined on the 3-edge star, got {spec.edge_count} edges"
        )
    L = spec.truncation_length
    if params.offset > L:
        # offset <= L needs m1 >= m2 / (2 cosh z), z = m2 L / 4; written
        # with exp(-z), which underflows where cosh would overflow
        z = 0.25 * params.m2 * L
        floor = params.m2 * math.exp(-z) / (1.0 + math.exp(-2.0 * z))
        raise DomainError(
            f"m1 = {params.m1} puts the sesquisoliton's peak at offset "
            f"{params.offset:.6g}, beyond the edge length L = {L}; smallest "
            f"m1 that fits at m2 = {params.m2} is about {floor:.3e}")
    x = spec.coordinates()
    e0 = half_soliton(params.m1, spec)
    # Straightened coordinate: edge 1 is xi = -x, edge 2 is xi = +x.
    # Soliton centered at xi = -offset puts the peak on edge 1.
    e1 = line_soliton(params.m2, params.offset, x)
    e2 = line_soliton(params.m2, -params.offset, x)
    return GraphState(spec, [e0, e1, e2])


def _require_finite_energy(M: float, lam: float, spec: GraphSpec) -> None:
    """DomainError when sqrt(lam) phi_{M/3}(lam x) on every edge (at
    lam = 1 the stationary state) has a kinetic energy lam^2 M^3/216 or
    a peak |psi|^4 = (lam m^2/2)^2 times the graph's length that overflows."""
    # Python floats: the bound below overflows to inf without a warning
    lam, m = float(lam), float(M) / 3.0
    peak2 = lam * m * m / 2.0
    if not math.isfinite(lam * lam * (m * m * m / 8.0)
                         + peak2 * peak2 * 3.0 * spec.truncation_length):
        raise DomainError(f"mass {M:g} at dilation parameter {lam:g} is too large: "
                          "the energy overflows")


def dilation_family(M: float, lam: float, spec: GraphSpec) -> GraphState:
    """sqrt(lam) * phi_{M/3}(lam x) on every edge: mass-preserving dilation
    of the stationary state, which it is at lam = 1.

    A mass or lam whose energy would overflow is a DomainError.
    """
    if not M > 0:
        raise DomainError(f"total mass must be positive, got {M}")
    if not (math.isfinite(lam) and lam > 0):
        raise DomainError(f"dilation parameter must be positive and finite, got {lam}")
    if spec.edge_count != 3:
        raise DomainError(
            f"the symmetric state lives on the 3-edge star, got {spec.edge_count} edges"
        )
    _require_finite_energy(M, lam, spec)
    lam, m = float(lam), float(M) / 3.0
    x = spec.coordinates()
    edge = _scaled_sech(np.sqrt(lam) * (m / math.sqrt(2.0)), 0.5 * m * lam, x)
    return GraphState(spec, [edge] * 3)


def stationary_state(M: float, spec: GraphSpec):
    """Three half-solitons of mass M/3: the unique fixed-mass critical point.

    Returns (state, omega) with omega = M^2/36, as discrete_stationary_state
    does; the energy is -M^3/216.  A saddle of the fixed-mass energy, not
    a minimum.  The state is dilation_family(M, 1, spec).
    """
    return dilation_family(M, 1.0, spec), M * M / 36.0


def energy_infimum(M: float) -> float:
    """Greatest lower bound -M^3/96 of the energy at total mass M (not attained)."""
    if not M > 0:
        raise DomainError(f"total mass must be positive, got {M}")
    return -(M ** 3) / 96.0


def _sesqui_energy_poly(m1: float, M: float) -> float:
    # The closed form as a polynomial, valid for any real m1; domain
    # checks live in energy_sesqui_closed.
    return -(m1 ** 3) / 24.0 + ((m1 - M) ** 3) / 96.0


def energy_sesqui_closed(m1: float, M: float) -> float:
    """Closed-form sesquisoliton energy -m1^3/24 + (m1-M)^3/96.

    Defined for 0 < m1 <= M/3 (so that m2 = M - m1 >= 2 m1).  Strictly
    increasing in m1, tending to -M^3/96 as m1 -> 0 and reaching the
    stationary energy -M^3/216 with zero slope at m1 = M/3.
    """
    if not M > 0:
        raise DomainError(f"total mass must be positive, got {M}")
    if not 0 < m1 <= (M / 3.0) * (1.0 + 1e-12):
        raise DomainError(
            f"m1={m1} outside (0, M/3] with M={M}; the trial state needs m2 >= 2*m1"
        )
    return _sesqui_energy_poly(m1, M)
