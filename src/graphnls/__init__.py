"""Cubic focusing NLS on a Kirchhoff star graph.

Discretized states and quadrature (graph_core), analytic soliton
families (profiles), the discrete energy with its exact gradient
(operators), Crank-Nicolson time evolution (dynamics), and the
energy-landscape procedures demonstrating the unattained infimum and
the saddle character of the unique stationary state (landscape).
"""

__version__ = "0.1.0"

from .errors import (
    AliasingError,
    ContinuityError,
    DegenerateStateError,
    DomainError,
    GraphNLSError,
    OffsetError,
    ProbeError,
    StallError,
    StepFailureError,
    TruncationError,
    ZeroEdgeMassError,
)
from .graph_core import (
    CONTINUITY_TOL,
    GraphSpec,
    GraphState,
    edge_masses,
    edge_weights,
    mass,
    rescale_mass,
    state_columns,
    table_json,
    vertex_defect,
    write_csv,
)
from .profiles import (
    SesquiParams,
    StationaryInfo,
    dilation_family,
    energy_infimum,
    energy_sesqui_closed,
    half_soliton,
    line_soliton,
    sesquisoliton,
    solve_offset,
    stationary_state,
)
from .operators import (
    EnergyReport,
    apply_laplacian,
    best_omega,
    el_residual,
    energy,
    energy_gradient,
    kinetic_quadratic_form,
    weighted_inner,
    weighted_norm,
)
from .dynamics import (
    EvolutionConfig,
    FlowTrace,
    discrete_stationary_state,
    evolve,
    measure_omega,
    phase_slope,
    step_crank_nicolson,
)
from .landscape import (
    CurveScan,
    SaddleReport,
    comparison_sesquisoliton,
    deposit_perturbation,
    dilation_tangent,
    gather_perturbation,
    gradient_flow_fixed_mass,
    hessian_probe,
    minimizing_sequence_demo,
    phase_direction,
    random_vertex_continuous_state,
    scan_dilation_curve,
    scan_sesqui_curve,
    sesqui_curve_second_derivative,
    sesqui_tangent,
    shift_perturbation,
)
from .acceptance import CheckResult, all_passed, run_acceptance
