"""Concentration of ground states at the maximum of the coefficient.

For a coefficient Q with a strict global maximum at y0 and high frequency
(small epsilon = 1/k), the dual ground state of the rescaled problem
concentrates: its truncated barycenter converges to y0 and, after
recentering, its profile converges to the constant-coefficient limit state.
This script runs a short epsilon sweep and prints both trends.
"""

from helmdual import (
    CoefficientSpec,
    ProblemSpec,
    ResolventConfig,
    SolverConfig,
    concentration_sweep,
    make_grid,
)


def main():
    grid = make_grid(2, 60.0, 256)
    coefficient = CoefficientSpec(
        floor=0.25,
        centers=((0.8, 0.4),), amplitudes=(0.75,), widths=(1.5,),
    )
    resolvent = ResolventConfig(delta=1e-2)  # small absorption: keeps the
    # finite box from feeding energy into near-resonant lattice modes
    template = ProblemSpec(p=8.0, epsilon=0.2, coefficient=coefficient,
                           resolvent=resolvent)
    cfg = SolverConfig(max_iters=20000, grad_tol=5e-8)

    limit_state, records = concentration_sweep(template, [0.2, 0.1, 0.05], grid, cfg, rho=3.0)
    print(f"limit level c_0 = {limit_state.energy:.6f}")
    print(f"maximum of Q at y0 = {coefficient.maximum_set[0]}\n")

    print(f"{'eps':>6} {'c_eps':>10} {'|beta - y0|':>12} {'profile dist':>13}")
    for r in records:
        print(f"{r.epsilon:>6} {r.energy:>10.6f} {r.distance_to_maxima:>12.4f} "
              f"{r.limit_distance:>13.4f}")
    print("\nboth distances shrink as eps -> 0: the state localizes at y0 and "
          "its shape approaches the limit profile")


if __name__ == "__main__":
    main()
