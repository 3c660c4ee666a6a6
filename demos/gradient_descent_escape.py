"""Fixed-mass gradient descent from three perturbations of the stationary state.

Moving mass from edge 0 equally onto edges 1 and 2 (the deposit start)
keeps those edges interchangeable, and the flow comes right back to the
stationary energy.  The symmetry is not the reason: the mirror start,
which gathers mass onto edge 0 from edges 1 and 2 (the gather start),
keeps them equal too and escapes along edge 0.  Only a start that
treats all three edges alike returns by symmetry.  Sliding mass between
edges 1 and 2 (the shift start) opens the descent channel along the
sesquisoliton family.  An escaping flow falls well below the stationary
value toward (never to) -M^3/96 and stops at 99% of it, with
stop_reason "near_infimum".  Every run returns its trace, whatever the
stop: a flow that cannot lower the energy any more returns too, with
stop_reason "stalled".

The flow is Sobolev-preconditioned, so its iteration count does not
grow with the grid: each escape takes about 235 iterations on the
default 4096-point grid (about 0.5 s each), and the deposit start
returns to a projected gradient of 1e-3 in 14.

How long an escape takes shows that the saddle is degenerate.  A start
at fraction f falls below the stationary energy minus 0.05 after a
number of iterations that goes like 1/f: the shift start at f = 0.02
crosses in about half the iterations of the start at f = 0.01.  A
nondegenerate saddle would be left on a log(1/f) clock, a ratio of
about 1.15.
"""

import os

import numpy as np

from graphnls import (
    GraphSpec,
    deposit_perturbation,
    energy_infimum,
    gather_perturbation,
    gradient_flow_fixed_mass,
    shift_perturbation,
    write_csv,
)

M = 6.0
OUT = os.environ.get("GRAPHNLS_OUT", "demo_output")


def run(label, start, grad_tol):
    _, trace = gradient_flow_fixed_mass(start, step=0.1, max_iters=40000,
                                        grad_tol=grad_tol)
    e = trace.energies
    print(f"{label}: {int(trace.times[-1])} iterations, "
          f"energy {e[0]:+.6f} -> {e[-1]:+.6f}, "
          f"stop_reason {trace.metadata['stop_reason']}")
    path = os.path.join(OUT, f"flow_{label}.csv")
    with open(path, "w") as fh:
        write_csv(fh, trace.columns)
    return trace


def main():
    os.makedirs(OUT, exist_ok=True)
    spec = GraphSpec(3, 30.0, 4096)
    e_star = -(M ** 3) / 216.0
    print(f"stationary energy {e_star}, infimum {energy_infimum(M)}\n")

    deposit = run("deposit", deposit_perturbation(M, spec, 0.01), 1e-3)
    print("  deposit start: the flow returns to the stationary energy,\n"
          f"  final gap {abs(deposit.energies[-1] - e_star):.2e}\n")

    escapes = {}
    for label, start, how in (
            ("gather", gather_perturbation(M, spec, 0.01),
             "edges 1 and 2 stay equal, yet a soliton leaves along edge 0"),
            ("shift", shift_perturbation(M, spec, 0.01),
             "the state slides down the sesquisoliton channel")):
        trace = escapes[label] = run(label, start, 1e-6)
        final = trace.energies[-1]
        print(f"  {label} start: final energy {final:+.6f} is "
              f"{e_star - final:.4f} below the stationary value;")
        print(f"  {how}, its peak at x = "
              f"{trace.columns['peak_coordinate'][-1]:.2f} on edge "
              f"{int(trace.columns['peak_edge'][-1])}.\n")

    # the escape time: first iteration below the stationary energy - 0.05
    def crossing(trace):
        return int(trace.times[np.argmax(trace.energies < e_star - 0.05)])

    slow = crossing(escapes["shift"])
    fast = crossing(run("shift_0.02", shift_perturbation(M, spec, 0.02), 1e-6))
    print(f"  escape time: {slow} iterations from f = 0.01, {fast} from "
          f"f = 0.02, ratio {slow / fast:.2f}\n"
          "  (about 2 on the 1/f clock of a degenerate saddle, about 1.15 "
          "on the log clock of a nondegenerate one)\n")
    print(f"traces written to {OUT}/")


if __name__ == "__main__":
    main()
