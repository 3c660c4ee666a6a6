"""Every float either gives a usable object or raises DomainError.

Property tests over all of float64, NaN and the infinities included:
a grid, a time-stepping configuration, a descent-flow call and a
total mass are either valid (and then behave) or rejected up front
with DomainError, never a ValueError, an OverflowError or a failure
part-way through.
"""

import math
import sys
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphnls import (
    DomainError,
    EvolutionConfig,
    GraphSpec,
    StallError,
    energy,
    gradient_flow_fixed_mass,
    mass,
    shift_perturbation,
    stationary_state,
)
from graphnls.cli import RunConfig

M = 6.0
FLOW_START = shift_perturbation(M, GraphSpec(3, 20.0, 32), 0.01)


@given(st.floats())
@example(math.inf)
@example(5e-324)
@example(1e-153)
@example(sys.float_info.max)
def test_graph_spec_length(length):
    try:
        spec = GraphSpec(3, length, 16)
    except DomainError:
        # np.linspace computes 15 * (length / 15) for the last coordinate,
        # and the Laplacian 2 / h^2 with h^2 = h * h
        h = length / 15
        assert not (math.isfinite(length) and h > 0
                    and math.isfinite(15 * (length / 15))
                    and h * h > 0 and math.isfinite(2.0 / (h * h)))
        return
    assert math.isfinite(spec.spacing) and spec.spacing > 0
    assert math.isfinite(2.0 / (spec.spacing * spec.spacing))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coordinates = spec.coordinates()
    assert np.all(np.isfinite(coordinates))


@given(st.floats(), st.floats())
@example(1e-3, 1.0)
@example(-0.25, 1.0)
@example(math.nan, 1.0)
@example(1e-3, math.inf)
@example(1e-308, 1e308)
def test_evolution_config_time_grid(dt, t_final):
    try:
        config = EvolutionConfig(dt=dt, t_final=t_final)
    except DomainError:
        return
    assert math.isfinite(dt) and dt != 0.0
    assert math.isfinite(t_final) and t_final > 0
    assert config.steps >= 1
    assert abs(config.steps * abs(dt) - t_final) <= 1e-9 * t_final


@settings(deadline=None)
@given(st.floats(), st.floats())
@example(0.1, 1e-3)
@example(math.inf, 1e-3)
@example(0.1, math.nan)
@example(0.1, -1e-3)
@example(0.0, 1e-3)
@example(1e300, 0.0)
def test_flow_step_and_tolerance(step, grad_tol):
    valid = (math.isfinite(step) and step > 0
             and math.isfinite(grad_tol) and grad_tol >= 0)
    try:
        _, trace = gradient_flow_fixed_mass(FLOW_START, step=step, max_iters=3,
                                            grad_tol=grad_tol)
    except DomainError:
        assert not valid
        return
    except StallError as exc:
        trace = exc.trace
        assert trace.metadata["stop_reason"] == "stalled"
    assert valid
    assert trace.metadata["stop_reason"] in ("converged", "max_iters", "stalled")
    assert np.all(np.diff(trace.energies) < 0)
    assert np.allclose(trace.masses, mass(FLOW_START), rtol=1e-12, atol=0.0)


@settings(deadline=None)
@given(st.floats())
@example(6.0)
@example(1e100)
@example(1e200)
@example(5e-324)
@example(1e-153)
@example(sys.float_info.max)
def test_mass_gives_a_finite_energy_or_a_domain_error(mass_value):
    # what `graphnls profile stationary --mass <mass_value> --points 64` does
    config = RunConfig(mass=mass_value, points=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config.validate()
            state, _ = stationary_state(mass_value, config.spec())
        except DomainError:
            return
        total = energy(state).total
    assert math.isfinite(total)
