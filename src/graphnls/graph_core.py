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

Every CSV and JSON table the package writes goes through write_csv and
table_json, from an ordered mapping of column name to 1-D array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GraphNLSError

# Vertex values within this of each other count as continuous.
CONTINUITY_TOL = 1e-8


@dataclass(frozen=True)
class GraphSpec:
    """Geometry of the truncated, discretized star graph."""

    edge_count: int
    truncation_length: float
    points_per_edge: int

    def __post_init__(self):
        if self.edge_count < 2:
            raise DomainError(f"need at least 2 edges, got {self.edge_count}")
        if not (math.isfinite(self.truncation_length) and self.truncation_length > 0):
            raise DomainError(
                f"truncation_length must be positive and finite, got {self.truncation_length}"
            )
        # LAPACK's ?gttrf rejects a tridiagonal chain (N - 1 unknowns) below 3
        if self.points_per_edge < 4:
            raise DomainError(f"need at least 4 points per edge, got {self.points_per_edge}")
        # the Laplacian's entries are 2/h^2 (h * h, as in operators)
        h2 = self.spacing * self.spacing
        if not (h2 > 0 and math.isfinite(2.0 / h2)):
            raise DomainError(
                f"truncation_length {self.truncation_length} gives a grid spacing too "
                "small for the Laplacian's 2/h^2"
            )
        # coordinates() computes j*spacing in np.linspace; the last product
        # must not overflow (Python floats give inf here without a warning)
        if not math.isfinite((self.points_per_edge - 1) * self.spacing):
            raise DomainError(
                f"truncation_length {self.truncation_length} overflows the grid coordinates"
            )

    @property
    def spacing(self) -> float:
        return self.truncation_length / (self.points_per_edge - 1)

    def coordinates(self) -> np.ndarray:
        """Grid coordinates 0 = vertex .. L = far end, shape (N,)."""
        return np.linspace(0.0, self.truncation_length, self.points_per_edge)


@dataclass(frozen=True, eq=False)
class GraphState:
    """Immutable complex-valued function on the discretized star graph.

    values[e, j] is the sample on edge e at coordinate j*h, j=0 at the
    vertex; the constructor also takes a list of the E edge rows, or an
    array in any memory order.  It keeps one C-ordered complex128 copy,
    stored read-only; use .values.copy() to get a mutable buffer.
    """

    spec: GraphSpec
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.complex128, order="C")
        expected = (self.spec.edge_count, self.spec.points_per_edge)
        if arr.shape != expected:
            raise DomainError(f"values shape {arr.shape} does not match grid {expected}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise DomainError("state contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def vertex_defect(state: GraphState) -> float:
    """Largest disagreement between edge values at the shared vertex."""
    v = state.values[:, 0]
    return float(np.max(np.abs(v - v[0])))


def require_continuity(state: GraphState) -> None:
    defect = vertex_defect(state)
    if defect > CONTINUITY_TOL:
        raise GraphNLSError(
            f"vertex values disagree by {defect:.3e} (tol {CONTINUITY_TOL:.1e})")


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


def rescale_mass(state: GraphState, target_mass: float) -> GraphState:
    """Scale the state so its total mass equals target_mass exactly."""
    if not target_mass > 0:
        raise DomainError(f"target mass must be positive, got {target_mass}")
    m = mass(state)
    if m == 0.0:
        raise GraphNLSError("cannot rescale the zero state to positive mass")
    if m == math.inf:
        raise DomainError("the state's mass overflows, so it cannot be rescaled")
    return GraphState(state.spec, state.values * np.sqrt(target_mass / m))


# ---------------------------------------------------------------------------
# Tables: every CSV and JSON artifact is an ordered mapping from column
# name to a 1-D array.  17 significant digits round-trip float64 exactly.

# Rows formatted per write: a long trace is never held as one string.
_CSV_BLOCK = 4096


def _column_arrays(columns) -> list:
    cols = [np.asarray(c) for c in columns.values()]
    if any(c.ndim != 1 or len(c) != len(cols[0]) for c in cols):
        raise DomainError("table columns must be 1-D and of equal length")
    return cols


def write_csv(fh, columns) -> None:
    """Write the columns to fh as a header line and one row per sample.

    A column of strings is written with %s, any other with %.17g.
    """
    cols = _column_arrays(columns)
    line = ",".join("%s" if c.dtype.kind == "U" else "%.17g" for c in cols) + "\n"
    fh.write(",".join(columns) + "\n")
    for lo in range(0, len(cols[0]), _CSV_BLOCK):
        rows = zip(*(c[lo:lo + _CSV_BLOCK].tolist() for c in cols))
        fh.write("".join(line % row for row in rows))


def table_json(columns, **fields) -> dict:
    """JSON document of the columns: {"data": {name: values}} plus fields."""
    data = {name: c.tolist() for name, c in zip(columns, _column_arrays(columns))}
    return {**fields, "data": data}


def state_columns(state: GraphState) -> dict:
    """The state as columns edge, index, x, re, im, one row per grid point."""
    E, N = state.values.shape
    return {
        "edge": np.repeat(np.arange(E), N),
        "index": np.tile(np.arange(N), E),
        "x": np.tile(state.spec.coordinates(), E),
        "re": state.values.real.ravel(),
        "im": state.values.imag.ravel(),
    }
