"""Star graph geometry, discrete states, and weighted measures.

A metric star graph with E half-line edges glued at one vertex is
truncated to length L per edge and sampled on N uniformly spaced points
per edge, with index 0 at the shared vertex on every edge.  A state is a
complex array of shape (E, N); physically meaningful states agree at the
vertex across edges (Kirchhoff continuity) and have decayed to ~0 by the
far end x = L.

Integrals over the graph are composite trapezoid sums per edge.  The
vertex point therefore carries total weight E*h/2 across edges, which is
exactly the trapezoid rule on the metric graph as long as the state is
vertex continuous.
"""

from __future__ import annotations

import functools
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContinuityError, DegenerateStateError, DomainError

# Vertex values within this of each other count as continuous.
CONTINUITY_TOL = 1e-8


@dataclass(frozen=True)
class GraphSpec:
    """Geometry of the truncated, discretized star graph."""

    edge_count: int = 3
    truncation_length: float = 30.0
    points_per_edge: int = 4096

    def __post_init__(self):
        if self.edge_count < 2:
            raise DomainError(f"need at least 2 edges, got {self.edge_count}")
        if not (math.isfinite(self.truncation_length) and self.truncation_length > 0):
            raise DomainError(
                f"truncation_length must be positive and finite, got {self.truncation_length}"
            )
        if self.points_per_edge < 3:
            raise DomainError(f"need at least 3 points per edge, got {self.points_per_edge}")
        if not self.spacing > 0:
            raise DomainError(
                f"truncation_length {self.truncation_length} gives a grid spacing of zero"
            )

    @property
    def spacing(self) -> float:
        return self.truncation_length / (self.points_per_edge - 1)

    def coordinates(self) -> np.ndarray:
        """Grid coordinates 0 = vertex .. L = far end, shape (N,)."""
        return np.linspace(0.0, self.truncation_length, self.points_per_edge)

    def to_json(self) -> str:
        return json.dumps(
            {
                "edges": self.edge_count,
                "length": self.truncation_length,
                "points": self.points_per_edge,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GraphSpec":
        data = json.loads(text)
        return cls(
            edge_count=int(data["edges"]),
            truncation_length=float(data["length"]),
            points_per_edge=int(data["points"]),
        )


class GraphState:
    """Immutable complex-valued function on the discretized star graph.

    values[e, j] is the sample on edge e at coordinate j*h, j=0 at the
    vertex.  The array is stored read-only; use .values.copy() to get a
    mutable buffer.
    """

    __slots__ = ("spec", "_values")

    def __init__(self, spec: GraphSpec, values):
        arr = np.asarray(values, dtype=np.complex128)
        expected = (spec.edge_count, spec.points_per_edge)
        if arr.shape != expected:
            raise DomainError(f"values shape {arr.shape} does not match grid {expected}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise DomainError("state contains non-finite values")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "_values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("GraphState is immutable")

    @property
    def values(self) -> np.ndarray:
        return self._values

    @classmethod
    def zeros(cls, spec: GraphSpec) -> "GraphState":
        return cls(spec, np.zeros((spec.edge_count, spec.points_per_edge), dtype=np.complex128))

    @classmethod
    def from_edges(cls, spec: GraphSpec, edges) -> "GraphState":
        """Stack per-edge sample arrays (a sequence of E length-N arrays)."""
        rows = [np.asarray(row, dtype=np.complex128) for row in edges]
        if len(rows) != spec.edge_count:
            raise DomainError(f"expected {spec.edge_count} edge arrays, got {len(rows)}")
        return cls(spec, np.stack(rows, axis=0))


def vertex_defect(state: GraphState) -> float:
    """Largest disagreement between edge values at the shared vertex."""
    v = state.values[:, 0]
    return float(np.max(np.abs(v - v[0])))


def require_continuity(state: GraphState, tol: float = CONTINUITY_TOL) -> None:
    defect = vertex_defect(state)
    if defect > tol:
        raise ContinuityError(
            f"vertex values disagree by {defect:.3e} (tol {tol:.1e})", defect
        )


@functools.lru_cache(maxsize=8)
def edge_weights(spec: GraphSpec) -> np.ndarray:
    """Trapezoid weights along one edge, shape (N,): h/2, h, ..., h, h/2.

    Built once per grid and shared, so the array is read-only: every
    mass, energy and inner product of the descent flow reads it.
    """
    h = spec.spacing
    w = np.full(spec.points_per_edge, h)
    w[0] = 0.5 * h
    w[-1] = 0.5 * h
    w.setflags(write=False)
    return w


def edge_masses(state: GraphState) -> np.ndarray:
    """Per-edge integral of |psi|^2, shape (E,)."""
    w = edge_weights(state.spec)
    return (w * np.abs(state.values) ** 2).sum(axis=1)


def mass(state: GraphState) -> float:
    """Total integral of |psi|^2 over the graph (sum of edge masses)."""
    return float(edge_masses(state).sum())


def lp_norm(state: GraphState, p: float) -> float:
    """L^p norm with the same trapezoid measure used for the mass."""
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    w = edge_weights(state.spec)
    return float((w * np.abs(state.values) ** p).sum() ** (1.0 / p))


def kinetic_quadratic_form(state: GraphState) -> float:
    """Sum over edges of sum_j |psi(j+1)-psi(j)|^2 / h.

    This is the discrete Dirichlet form whose exact gradient is the
    natural-boundary Laplacian used by the energy gradient.
    """
    h = state.spec.spacing
    d = np.diff(state.values, axis=1)
    return float((np.abs(d) ** 2).sum() / h)


def straighten(state: GraphState, edge_left: int, edge_right: int):
    """Unfold two edges into a single line through the vertex.

    Returns (xi, values) where xi runs from -L to L (2N-1 points) and
    values traverses edge_left reversed then edge_right.  Requires the
    two edges to agree at the vertex.
    """
    E = state.spec.edge_count
    for e in (edge_left, edge_right):
        if not 0 <= e < E:
            raise DomainError(f"edge index {e} out of range for {E} edges")
    if edge_left == edge_right:
        raise DomainError("straighten needs two distinct edges")
    a = state.values[edge_left]
    b = state.values[edge_right]
    gap = abs(a[0] - b[0])
    if gap > CONTINUITY_TOL:
        raise ContinuityError(
            f"edges {edge_left},{edge_right} disagree at the vertex by {gap:.3e}", gap
        )
    x = state.spec.coordinates()
    xi = np.concatenate([-x[:0:-1], x])
    line = np.concatenate([a[:0:-1], b])
    return xi, line


def rescale_mass(state: GraphState, target_mass: float) -> GraphState:
    """Scale the state so its total mass equals target_mass exactly."""
    if not target_mass > 0:
        raise DomainError(f"target mass must be positive, got {target_mass}")
    m = mass(state)
    if m == 0.0:
        raise DegenerateStateError("cannot rescale the zero state to positive mass")
    if m == math.inf:
        raise DomainError("the state's mass overflows, so it cannot be rescaled")
    return GraphState(state.spec, state.values * np.sqrt(target_mass / m))


@dataclass(frozen=True)
class EnergyReport:
    """Kinetic and quartic parts of the energy, plus the mass, of one state."""

    kinetic: float
    quartic: float
    total: float
    mass: float


# ---------------------------------------------------------------------------
# State serialization: CSV with columns edge,index,x,re,im in row-major
# edge/index order.  17 significant digits round-trips float64 exactly.

def state_to_csv(state: GraphState) -> str:
    buf = io.StringIO()
    buf.write("edge,index,x,re,im\n")
    x = state.spec.coordinates()
    vals = state.values
    for e in range(state.spec.edge_count):
        for j in range(state.spec.points_per_edge):
            v = vals[e, j]
            buf.write("%d,%d,%.17g,%.17g,%.17g\n" % (e, j, x[j], v.real, v.imag))
    return buf.getvalue()


def state_from_csv(text: str) -> GraphState:
    """Rebuild a state from its CSV serialization.

    The grid is reconstructed from the rows themselves: edge count and
    points per edge from the index columns, truncation length from the
    largest coordinate.
    """
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("edge,"):
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise DomainError(f"malformed state row: {line!r}")
        rows.append((int(parts[0]), int(parts[1]), float(parts[2]),
                     float(parts[3]), float(parts[4])))
    if not rows:
        raise DomainError("no data rows in state CSV")
    n_edges = max(r[0] for r in rows) + 1
    n_points = max(r[1] for r in rows) + 1
    length = max(r[2] for r in rows)
    spec = GraphSpec(edge_count=n_edges, truncation_length=length, points_per_edge=n_points)
    vals = np.full((n_edges, n_points), np.nan + 0j, dtype=np.complex128)
    for e, j, _x, re, im in rows:
        vals[e, j] = re + 1j * im
    if np.any(np.isnan(vals.view(np.float64))):
        raise DomainError("state CSV is missing rows for some grid points")
    return GraphState(spec, vals)
