"""Acceptance gate: the nine headline properties of the library.

Each test prints a single ``ACCEPTANCE k ... PASS/FAIL`` line so the suite
doubles as a checklist.  The concentration sweep (criteria 5 and 6) is shared
through a module-scoped fixture; the full module runs in a few minutes.
"""

import numpy as np
import pytest

from helmdual.grid import Field, dft_forward, dft_inverse, inner_product, lp_norm, make_grid
from helmdual.kernels import KernelSpec, lambda_p
from helmdual.resolvent import (
    ResolventConfig,
    apply_R,
    apply_R_direct,
    resolvent_identity_residual,
)
from helmdual.functional import (
    CoefficientSpec,
    ProblemSpec,
    constant_coefficient,
    energy,
    gradient,
    nehari_t,
    quadratic_term,
)
from helmdual.solver import (
    SolverConfig,
    default_seeds,
    multistart,
    solve_limit,
)
from helmdual.experiments import (
    BarycenterConfig,
    barycenter,
    concentration_sweep,
    homogeneity_ratio,
    interaction_decay,
)


def report(criterion: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} [{label}]: {status}  ({detail})")
    assert ok, f"criterion {criterion} ({label}): {detail}"


def cone_field(grid, rng):
    raw = Field(grid, rng.standard_normal(grid.shape))
    spectrum = dft_forward(raw)
    spectrum[grid.xi_squared < 1.5] = 0.0
    return dft_inverse(spectrum, grid)


# ---------------------------------------------------------------- sweep fixture

SWEEP_EPSILONS = (0.2, 0.1, 0.05)


@pytest.fixture(scope="module")
def sweep():
    """Shared concentration sweep for criteria 5 and 6.

    Single-Gaussian coefficient with floor = sup/4, 2D, p = 8, with a small
    absorption parameter to keep finite-box near-resonant modes suppressed.
    """
    grid = make_grid(2, 60.0, 256)
    coef = CoefficientSpec(kind="gaussian_bumps", floor=0.25,
                           centers=((0.8, 0.4),), amplitudes=(0.75,),
                           widths=(1.5,))
    res = ResolventConfig(delta=1e-2)
    template = ProblemSpec(p=8.0, epsilon=SWEEP_EPSILONS[0], coefficient=coef,
                           resolvent=res)
    cfg = SolverConfig(max_iters=20000, grad_tol=5e-8)
    limit_state = solve_limit(1.0, 8.0, grid, cfg, resolvent=res)
    records = concentration_sweep(template, list(SWEEP_EPSILONS), grid, cfg,
                                  BarycenterConfig(rho=3.0, delta_nbhd=0.5),
                                  limit_state=limit_state)
    return limit_state, records


# ------------------------------------------------------------------- criteria


def test_1_resolvent_oracle_equivalence():
    """Multiplier resolvent vs direct-space kernel sum, refining chain."""
    chain = ((32, 30.0, 1e-3), (80, 60.0, 5e-4), (192, 120.0, 2.5e-4))
    errors = []
    for n, half_length, delta in chain:
        g = make_grid(2, half_length, n)
        r_sq = g.coords(0) ** 2 + g.coords(1) ** 2
        bump = Field(g, np.exp(-r_sq / 72.0))
        mult = apply_R(bump, ResolventConfig(delta=delta))
        direct = apply_R_direct(bump, KernelSpec(2), max_nodes=n * n)
        errors.append(np.linalg.norm(mult.values - direct.values)
                      / np.linalg.norm(direct.values))
    ok = errors[0] <= 5e-2 and errors[0] > errors[1] > errors[2]
    report(1, "resolvent oracle", ok,
           "rel L2 errors " + " -> ".join(f"{e:.2e}" for e in errors))


def test_2_discrete_resolvent_identity():
    """(-Delta - 1) R f = f at delta = 0 for 100 random fields."""
    g = make_grid(2, 9.0, 32, (0.5, 0.5))
    rng = np.random.default_rng(7)
    cfg = ResolventConfig(delta=0.0)
    worst = max(
        resolvent_identity_residual(Field(g, rng.standard_normal(g.shape)), cfg)
        for _ in range(100)
    )
    report(2, "resolvent identity", worst <= 1e-10, f"max residual {worst:.2e}")


def test_3_gradient_matches_finite_differences():
    g = make_grid(2, 30.0, 32)
    spec = ProblemSpec(p=8.0, epsilon=1.0, coefficient=constant_coefficient(1.0))
    rng = np.random.default_rng(12)
    v = Field(g, rng.standard_normal(g.shape))
    grad = gradient(v, spec)
    t = 1e-5
    worst = 0.0
    for _ in range(20):
        d = Field(g, rng.standard_normal(g.shape))
        fd = (energy(v + t * d, spec) - energy(v - t * d, spec)) / (2 * t)
        worst = max(worst, abs(inner_product(grad, d) - fd) / abs(fd))
    report(3, "gradient vs finite differences", worst <= 1e-5,
           f"max rel dev {worst:.2e}")


def test_4_nehari_contract():
    g = make_grid(2, 30.0, 64)
    spec = ProblemSpec(p=8.0, epsilon=1.0, coefficient=constant_coefficient(1.0))
    pp = spec.p_prime
    rng = np.random.default_rng(14)
    worst = 0.0
    maximizer_ok = True
    for i in range(50):
        v = cone_field(g, rng)
        tv = nehari_t(v, spec) * v
        norm_pp = lp_norm(tv, pp) ** pp
        # J'(tv)(tv) = ||tv||_p'^p' - quadratic term
        worst = max(worst, abs(norm_pp - quadratic_term(tv, spec)) / norm_pp)
        if i < 5:
            e_star = energy(tv, spec)
            samples = [energy(s * tv, spec) for s in np.linspace(0.2, 3.0, 25)]
            maximizer_ok &= all(e <= e_star + 1e-12 * abs(e_star) for e in samples)
    # a converged solve satisfies the on-manifold energy identity
    state = solve_limit(1.0, 8.0, g, SolverConfig(max_iters=5000))
    norm_pp = lp_norm(state.v, pp) ** pp
    identity_ok = abs(state.energy - (1 / pp - 0.5) * norm_pp) \
        <= 1e-6 * abs(state.energy)
    ok = worst <= 1e-9 and maximizer_ok and identity_ok
    report(4, "Nehari contract", ok,
           f"max |J'(tv)(tv)| rel {worst:.2e}, maximizer {maximizer_ok}, "
           f"identity {identity_ok}")


def test_5_energy_ordering(sweep):
    limit_state, records = sweep
    c0 = limit_state.energy
    energies = [r.energy for r in records]
    converged = all(r.converged for r in records)
    lower = all(e >= c0 * (1 - 1e-4) for e in energies)
    decreasing = all(a > b for a, b in zip(energies, energies[1:]))
    # constant-coefficient anchor at the floor level
    pp = limit_state.spec.p_prime
    c_inf = c0 * homogeneity_ratio(8.0, 0.25)
    upper = energies[-1] < c_inf
    ok = converged and lower and decreasing and upper
    report(5, "energy ordering", ok,
           f"c_0={c0:.4f}, c_eps=" + ",".join(f"{e:.4f}" for e in energies)
           + f", c_inf={c_inf:.4f}")


def test_6_concentration(sweep):
    _, records = sweep
    dists = [r.distance_to_maxima for r in records]
    ldists = [r.limit_distance for r in records]
    dist_decreasing = all(a > b for a, b in zip(dists, dists[1:]))
    ldist_decreasing = all(a > b for a, b in zip(ldists, ldists[1:]))
    final_ok = ldists[-1] <= 0.2
    trusted = all(r.edge_trusted for r in records)
    ok = dist_decreasing and ldist_decreasing and final_ok and trusted
    report(6, "concentration", ok,
           "dist(beta,M) " + ",".join(f"{d:.4f}" for d in dists)
           + "; aligned limit distance " + ",".join(f"{d:.4f}" for d in ldists))


def test_7_interaction_decay():
    res = ResolventConfig(delta=1e-2)
    r_list = [5 + 2 * np.pi * j for j in range(6)]
    rep2 = interaction_decay(8.0, make_grid(2, 80.0, 256), r_list, resolvent=res)
    rep3 = interaction_decay(5.0, make_grid(3, 80.0, 160), r_list, resolvent=res)
    assert rep2.lambda_p == pytest.approx(lambda_p(2, 8.0)) == pytest.approx(0.125)
    assert rep3.lambda_p == pytest.approx(lambda_p(3, 5.0)) == pytest.approx(0.2)
    ok = rep2.satisfies_bound and rep3.satisfies_bound
    report(7, "interaction decay", ok,
           f"2D slope {rep2.slope:.3f} <= {-rep2.lambda_p + 0.5}; "
           f"3D slope {rep3.slope:.3f} <= {-rep3.lambda_p + 0.5}")


def test_8_multiplicity_two_maxima():
    grid = make_grid(2, 60.0, 256)
    coef = CoefficientSpec(kind="gaussian_bumps", floor=0.25,
                           centers=((5.0, 0.0), (-5.0, 0.0)),
                           amplitudes=(0.75, 0.75), widths=(1.5, 1.5))
    res = ResolventConfig(delta=1e-2)
    spec = ProblemSpec(p=8.0, epsilon=0.2, coefficient=coef, resolvent=res)
    cfg = SolverConfig(max_iters=20000, grad_tol=5e-8)
    lim = solve_limit(1.0, 8.0, grid, cfg, resolvent=res)
    states = multistart(spec, cfg, default_seeds(spec, lim))
    bary_cfg = BarycenterConfig(rho=8.0, delta_nbhd=0.5)
    matched = set()
    for s in states:
        beta = barycenter(s.v, spec.epsilon, spec.p_prime, bary_cfg)
        d = [float(np.linalg.norm(beta - np.array(m))) for m in coef.maximum_set]
        if min(d) <= bary_cfg.delta_nbhd:
            matched.add(int(np.argmin(d)))
    ok = len(states) >= 2 and matched == {0, 1}
    report(8, "multiplicity", ok,
           f"{len(states)} distinct states, maxima matched {sorted(matched)}")


def test_9_constant_q_homogeneity():
    grid = make_grid(2, 30.0, 64)
    cfg = SolverConfig(max_iters=5000)
    e1 = solve_limit(1.0, 8.0, grid, cfg).energy
    e2 = solve_limit(2.0, 8.0, grid, cfg).energy
    expected = homogeneity_ratio(8.0, 2.0)
    rel = abs(e2 / e1 - expected) / expected
    report(9, "constant-coefficient homogeneity", rel <= 1e-6,
           f"ratio {e2 / e1:.8f} vs analytic {expected:.8f} (rel dev {rel:.2e})")
