"""Two maxima of the coefficient, two distinct ground-state candidates.

When Q has several well-separated global maxima and epsilon is small, the
energy landscape develops one low-lying critical point near each maximum:
the topology of the maximum set forces multiplicity.  This script builds a
coefficient with two equal Gaussian peaks; multistart seeds the solver with
a cutoff translate of the limit profile at each peak and returns two
genuinely distinct states whose barycenters sit on different peaks.
"""

from helmdual import (
    CoefficientSpec,
    ProblemSpec,
    ResolventConfig,
    SolverConfig,
    barycenter,
    make_grid,
    multistart,
)


def main():
    grid = make_grid(2, 60.0, 256)
    coefficient = CoefficientSpec(
        floor=0.25,
        centers=((5.0, 0.0), (-5.0, 0.0)),
        amplitudes=(0.75, 0.75), widths=(1.5, 1.5),
    )
    resolvent = ResolventConfig(delta=1e-2)
    spec = ProblemSpec(p=8.0, epsilon=0.2, coefficient=coefficient,
                       resolvent=resolvent)
    cfg = SolverConfig(max_iters=20000, grad_tol=5e-8)

    print(f"maxima of Q: {coefficient.maximum_set}")
    print(f"seeding {len(coefficient.maximum_set)} cutoff translates of the limit profile\n")

    states = multistart(spec, grid, cfg)
    print(f"multistart found {len(states)} distinct state(s):")
    for i, s in enumerate(states):
        beta = barycenter(s.v, spec.epsilon, spec.p_prime, rho=8.0)
        print(f"  state {i}: energy {s.energy:.6f}, "
              f"barycenter ({beta[0]: .3f}, {beta[1]: .3f})")


if __name__ == "__main__":
    main()
