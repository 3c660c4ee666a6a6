"""Fixed-mass gradient descent from two perturbations of the stationary state.

Moving mass from edge 0 equally onto edges 1 and 2 (the deposit start)
keeps those edges interchangeable, and the flow comes right back to the
stationary energy.  The symmetry is not the reason: the mirror start,
which gathers mass onto edge 0 from edges 1 and 2, keeps them equal too
and escapes along edge 0.  Only a start that treats all three edges
alike returns by symmetry.  Sliding mass between edges 1 and 2 (the
shift start) opens the descent channel along the sesquisoliton family;
the energy then falls well below the stationary value and keeps going
toward (never to) -M^3/96.

The explicit flow needs its step bounded by the grid stiffness, so this
demo runs on a deliberately coarse grid (N = 512).
"""

import os

from graphnls import (
    GraphSpec,
    StallError,
    deposit_perturbation,
    energy_infimum,
    gradient_flow_fixed_mass,
    shift_perturbation,
    write_csv,
)

M = 6.0
OUT = os.environ.get("GRAPHNLS_OUT", "demo_output")


def run(label, start, max_iters):
    try:
        _, trace = gradient_flow_fixed_mass(start, step=0.1,
                                            max_iters=max_iters,
                                            grad_tol=1e-6)
        stalled = False
    except StallError as exc:
        trace = exc.trace
        stalled = True
    e = trace.energies
    print(f"{label}: {int(trace.times[-1])} iterations, "
          f"energy {e[0]:+.6f} -> {e[-1]:+.6f}"
          + (" (stalled)" if stalled else ""))
    path = os.path.join(OUT, f"flow_{label}.csv")
    with open(path, "w") as fh:
        write_csv(fh, trace.columns)
    return trace


def main():
    os.makedirs(OUT, exist_ok=True)
    spec = GraphSpec(3, 30.0, 512)
    e_star = -(M ** 3) / 216.0
    print(f"stationary energy {e_star}, infimum {energy_infimum(M)}\n")

    deposit = run("deposit", deposit_perturbation(M, spec, 0.01), 4000)
    print("  deposit start: the flow returns to the stationary energy,\n"
          f"  final gap {abs(deposit.energies[-1] - e_star):.2e}\n")

    shift = run("shift", shift_perturbation(M, spec, 0.01), 40000)
    final = shift.energies[-1]
    print(f"  shift start: final energy {final:+.6f} is "
          f"{e_star - final:.4f} below the stationary value;")
    print("  the state is sliding down the sesquisoliton channel, pushing")
    print("  one soliton bump away from the vertex.")
    print(f"\ntraces written to {OUT}/")


if __name__ == "__main__":
    main()
