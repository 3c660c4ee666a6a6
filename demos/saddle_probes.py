"""Second-difference probes of the constrained energy at the stationary state.

The dilation direction curves up and the phase direction is exactly
flat.  The chord through the sesquisoliton family also measures
positive even though the family descends: the family meets the
stationary state in a cusp, so its energy drop is quartic in the peak
offset and invisible to any straight-line second difference.  The drop
is real, and measuring the energy on the curve itself as a function of
m1 shows it: the one-sided second derivative there is -M/8.
"""

import os

from graphnls import (
    GraphSpec,
    dilation_tangent,
    hessian_probe,
    phase_direction,
    sesqui_curve_second_derivative,
    sesqui_tangent,
    stationary_state,
    write_csv,
)

M = 6.0
OUT = os.environ.get("GRAPHNLS_OUT", "demo_output")


def main():
    os.makedirs(OUT, exist_ok=True)
    spec = GraphSpec(3, 30.0, 2048)
    center, _ = stationary_state(M, spec)
    print(f"probing at the stationary state, energy {-(M ** 3) / 216.0}\n")

    columns = {"direction": [], "epsilon": [], "second_difference": []}
    for label, direction in [
        ("dilation", dilation_tangent(M, spec)),
        ("phase", phase_direction(center)),
        ("sesqui_chord", sesqui_tangent(M, spec)),
    ]:
        for eps in (1e-2, 5e-3, 2.5e-3):
            sd = hessian_probe(center, direction, eps)
            columns["direction"].append(label)
            columns["epsilon"].append(eps)
            columns["second_difference"].append(sd)
            print(f"{label:14s} eps {eps:7.4f}  second difference {sd:+.6f}")
        print()

    print("dilation is positive (a true up direction), phase is zero")
    print("(gauge symmetry), and the chord through the family is positive:")
    print("no straight line reveals the descent.\n")

    d2 = sesqui_curve_second_derivative(M, M / 3.0)
    print(f"on the family itself, d2E/dm1^2 at m1 = M/3 is {d2:+.6f}")
    print(f"(exactly -M/8 = {-M/8}): the curve does fall away from the")
    print("stationary state, it just leaves along a cusp rather than a")
    print("straight line, which is why a flow started near the saddle")
    print("returns or escapes depending on the direction of its start")
    print("(see gradient_descent_escape.py).")

    path = os.path.join(OUT, "saddle_probes.csv")
    with open(path, "w") as fh:
        write_csv(fh, columns)
    print(f"\nprobe table written to {path}")


if __name__ == "__main__":
    main()
