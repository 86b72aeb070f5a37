"""Solve the constant-coefficient dual ground state and inspect it.

The dual energy is minimized over the Nehari manifold inside the positive
cone; the returned critical point v maps to a solution u of the rescaled
equation -Delta u - u = Q |u|^(p-2) u through the resolvent.  This script
solves the unit-coefficient problem in 2D, prints the convergence
diagnostics, and tabulates the radial profile of u, whose oscillatory
polynomially-decaying tail is the signature of the Helmholtz (rather than
Schrodinger) regime.
"""

import numpy as np

from helmdual import ResolventConfig, SolverConfig, make_grid, solve_limit


def main():
    # a roomy box and a small absorption keep the descent away from
    # delocalized near-resonant lattice modes, which on a small finite box
    # can undercut the localized state
    grid = make_grid(2, 60.0, 256)
    resolvent = ResolventConfig(delta=1e-2)
    state = solve_limit(1.0, 8.0, grid, SolverConfig(grad_tol=5e-8),
                        resolvent=resolvent)

    print(f"ground-state level     c_0 = {state.energy:.8f}")
    print(f"relative gradient norm     = {state.grad_norm:.2e}")
    print(f"Nehari residual            = {state.nehari_residual:.2e}")

    u = state.u_rescaled.values
    r = np.sqrt(grid.coords(0) ** 2 + grid.coords(1) ** 2)
    print("\nradial profile of u (axis slice from the center):")
    i0 = grid.points_per_axis // 2
    for j in range(i0, grid.points_per_axis, 6):
        print(f"  r = {r[i0, j]:6.2f}   u = {u[i0, j]: .5e}")


if __name__ == "__main__":
    main()
