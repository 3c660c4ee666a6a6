"""Build each named profile and tabulate its mass and energy.

Writes one CSV per profile into ./demo_output.
"""

import os

import numpy as np

from graphnls import (
    GraphSpec,
    SesquiParams,
    edge_masses,
    energy,
    energy_sesqui_closed,
    mass,
    sesquisoliton,
    state_columns,
    stationary_state,
    write_csv,
)

M = 6.0
OUT = os.environ.get("GRAPHNLS_OUT", "demo_output")


def report(name, state, closed=None):
    rep = energy(state)
    em = ", ".join(f"{v:.4f}" for v in edge_masses(state))
    line = (f"{name:24s} mass {mass(state):.6f}  energy {rep.total:+.6f}"
            f"  per-edge [{em}]")
    if closed is not None:
        line += f"  closed {closed:+.6f}"
    print(line)
    path = os.path.join(OUT, f"{name}.csv")
    with open(path, "w") as fh:
        write_csv(fh, state_columns(state))
    return path


def main():
    os.makedirs(OUT, exist_ok=True)
    spec = GraphSpec(3, 30.0, 2048)
    print(f"grid: {spec.edge_count} edges, length {spec.truncation_length}, "
          f"{spec.points_per_edge} points, h = {spec.spacing:.5f}\n")

    st, omega = stationary_state(M, spec)
    print(f"stationary state: omega = {omega}, energy = {-(M ** 3) / 216.0}")
    report("stationary", st)

    print("\nsesquisoliton family, m1 shrinking toward 0:")
    for m1 in (2.0, 1.0, 0.5, 0.1):
        params = SesquiParams.solve(m1, M - m1)
        st = sesquisoliton(params, spec)
        report(f"sesqui_m1_{m1:g}", st, energy_sesqui_closed(m1, M))

    print(f"\nenergy infimum -M^3/96 = {-M**3/96}: the family walks toward")
    print("it as m1 -> 0 but no state at mass M ever reaches it.")
    print(f"\nprofiles written to {OUT}/")


if __name__ == "__main__":
    main()
