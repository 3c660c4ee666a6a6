"""Acceptance battery at the default configuration, one test per criterion.

The battery itself lives in graphnls.acceptance and runs once per
session (see conftest.battery).  Each test here asserts that every
check belonging to its criterion passed, and its failure message lists
the observed values, so a red test points straight at the number that
missed its window.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from graphnls import GraphNLSError, acceptance
from graphnls.acceptance import CheckResult, _Battery
from graphnls.cli import RunConfig
from graphnls.landscape import minimizing_sequence_demo, scan_sesqui_curve


def _assert_criterion(battery, criterion):
    checks = [r for r in battery if r.criterion == criterion]
    assert checks, f"no checks ran for criterion {criterion}"
    failed = [r for r in checks if not r.passed]
    detail = "; ".join(
        f"{r.name}: observed {r.observed:.6g}, expected {r.expected}"
        for r in failed)
    assert not failed, detail


def test_criterion_01_stationary_energy_and_convergence(battery):
    _assert_criterion(battery, 1)


def test_criterion_02_line_soliton_energy(battery):
    _assert_criterion(battery, 2)


def test_criterion_03_sesqui_curve_matches_closed_form(battery):
    _assert_criterion(battery, 3)


def test_criterion_04_minimizing_sequence_gaps(battery):
    _assert_criterion(battery, 4)


def test_criterion_05_comparison_state_dominates(battery):
    _assert_criterion(battery, 5)


def test_criterion_06_euler_lagrange_residual(battery):
    _assert_criterion(battery, 6)


def test_criterion_07_saddle_probes(battery):
    # The sesquisoliton-chord negativity checks fail by measurement:
    # the constrained second difference along any straight chord of the
    # family is positive because the family meets the stationary state
    # in a cusp and the descent is quartic, not quadratic.  The checks
    # are kept at their stated reading and this test stays red rather
    # than moving the goalposts.
    _assert_criterion(battery, 7)


def test_criterion_08_standing_wave_evolution(battery):
    _assert_criterion(battery, 8)


def test_criterion_09_descent_escapes_the_saddle(battery):
    _assert_criterion(battery, 9)


def test_criterion_10_infrastructure_checks(battery):
    _assert_criterion(battery, 10)


def test_battery_summary_counts(battery):
    assert len(battery) >= 30
    failed = [r for r in battery if not r.passed]
    # every known failure is a criterion-7 chord-negativity check
    assert all(r.criterion == 7 for r in failed)


@pytest.mark.parametrize("criterion, grids", [
    (4, [(3, 60.0, 512)]),
    (6, [(3, 30.0, 512), (3, 30.0, 1023)]),
    # the random-state suites cap the grid at 256 points
    (10, [(3, 30.0, 256)]),
])
def test_criterion_reports_its_seconds_and_the_grids_it_built(criterion, grids):
    battery = _Battery(RunConfig(points=512))
    battery.run_criterion(criterion)
    (entry,) = battery.criteria
    assert entry["criterion"] == criterion
    assert entry["seconds"] > 0.0
    assert entry["grids"] == [
        {"edge_count": e, "truncation_length": length, "points_per_edge": n}
        for e, length, n in grids]
    assert {r.criterion for r in battery.results} == {criterion}
    assert not any(r.name.endswith("_error") for r in battery.results)


@pytest.mark.parametrize("criterion", [9, 10])
def test_a_stalled_flow_fails_its_criterion(monkeypatch, criterion):
    # the flow returns a stalled run like any other; the battery turns
    # it into the criterion's error row
    flow = acceptance.gradient_flow_fixed_mass

    def stalled(start, **kwargs):
        state, trace = flow(start, **{**kwargs, "max_iters": 0})
        return state, replace(trace, metadata={**trace.metadata, "stop_reason": "stalled"})

    monkeypatch.setattr(acceptance, "gradient_flow_fixed_mass", stalled)
    battery = _Battery(RunConfig(points=64))
    battery.run_criterion(criterion)
    (error,) = [r for r in battery.results if r.name == f"criterion{criterion}_error"]
    assert not error.passed
    assert "gradient flow stalled" in error.expected


def test_a_start_already_escaped_fails_the_time_ratio_without_a_crash():
    # at 16 points both shift starts lie below the escape threshold, so
    # the fraction-0.02 flow crosses it at iteration 0
    battery = _Battery(RunConfig(points=16))
    battery.run_criterion(9)
    assert "criterion9_error" not in [r.name for r in battery.results]
    (ratio,) = [r for r in battery.results if r.name == "escape_time_ratio"]
    assert not ratio.passed
    assert math.isnan(ratio.observed)


def test_the_energy_floor_counts_only_states_at_the_battery_mass():
    # criteria 1 and 2 check 2-edge states of mass 2 and 4, whose
    # energies say nothing about the floor of the mass-M sphere: at
    # M = 2 the line soliton's -2/3 lies far below -M^3/96
    battery = _Battery(RunConfig(mass=2.0, points=64))
    battery.run_criterion(1)
    battery.run_criterion(2)
    assert not any(r.name.endswith("_error") for r in battery.results)
    assert battery.min_energy == math.inf


def test_the_battery_works_its_inputs_out_from_the_mass():
    # the m1 lists and the dilation probe's target follow M; at M = 6
    # they are the old literals bit for bit
    battery = _Battery(RunConfig(mass=2.0, points=256))
    for criterion in (3, 4, 7, 10):
        battery.run_criterion(criterion)
    assert not any(r.name.endswith("_error") for r in battery.results)
    assert all(r.passed for r in battery.results if r.criterion in (3, 4, 10))
    (probe,) = [r for r in battery.results if r.name == "probe_dilation"]
    assert probe.passed


@pytest.mark.parametrize("points", [256, 512])
def test_the_escape_threshold_follows_the_mass(points):
    # 1.05 * -M^3/216 is -M^3/216 - 0.05 at M = 6; at M = 2 the flows
    # stop near -0.0825, above that absolute margin's -0.087037
    battery = _Battery(RunConfig(mass=2.0, points=points))
    battery.run_criterion(9)
    assert len(battery.results) == 6
    assert all(r.passed for r in battery.results)


def test_the_energy_floor_takes_the_least_energy_of_each_scan():
    M = 2.0
    battery = _Battery(RunConfig(mass=M, points=256))
    battery.run_criterion(3)
    battery.run_criterion(4)
    spec = battery.spec
    sesqui = scan_sesqui_curve(M, [M / 12.0, M / 6.0, M / 4.0, M / 3.0], spec)
    minseq = minimizing_sequence_demo(M, [M / 6.0, M / 12.0, M / 60.0, M / 300.0],
                                      replace(spec, truncation_length=60.0))
    assert battery.min_energy == min(sesqui.discrete_energy.min(),
                                     minseq.discrete_energy.min())


def test_note_energy_takes_one_value_or_an_array_and_skips_nan():
    battery = _Battery(RunConfig(points=64))
    battery.note_energy(-1.0)
    battery.note_energy(np.array([math.nan, -2.0, -1.5]))
    battery.note_energy([math.nan])
    assert battery.min_energy == -2.0


def test_every_check_helper_records_one_format(monkeypatch):
    # observed is always a float and passed a bool, whatever numpy
    # scalar a criterion hands over; only the bounded helpers carry a
    # tolerance
    battery = _Battery(RunConfig(points=64))
    battery.check_rel("rel", 1, np.float64(-0.3333), -1 / 3, 5e-4)
    battery.check_abs("abs", 2, 2.1, 2.0, 0.2)
    battery.check_range("range", 3, 4.6, 3.5, 4.5)
    battery.check_below("below", 4, np.float64(-0.5), 0.0)
    battery.check_at_most("at_most", 5, 2e-6, 1e-6)
    battery.check_at_least("at_least", 6, -2.0, -2.255)
    battery.check_bool("bool", 7, np.bool_(False), "a description")

    def raises():
        raise GraphNLSError("no descent")

    monkeypatch.setattr(battery, "criterion_8", raises)
    battery.run_criterion(8)
    *checks, error = battery.results
    assert checks == [
        CheckResult("rel", 1, -0.3333, "-0.333333333333 (relative)", 5e-4, True),
        CheckResult("abs", 2, 2.1, "2", 0.2, True),
        CheckResult("range", 3, 4.6, "[3.5, 4.5]", None, False),
        CheckResult("below", 4, -0.5, "< 0", None, True),
        CheckResult("at_most", 5, 2e-6, "<= 1e-06", 1e-6, False),
        CheckResult("at_least", 6, -2.0, ">= -2.255", None, True),
        CheckResult("bool", 7, 0.0, "a description", None, False),
    ]
    assert (error.name, error.criterion, error.expected, error.tolerance, error.passed) == (
        "criterion8_error", 8, "no exception, got GraphNLSError: no descent", None, False)
    assert math.isnan(error.observed)
    assert all(type(r.observed) is float and type(r.passed) is bool
               for r in battery.results)
