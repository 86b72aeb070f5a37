"""Barycenter map, concentration sweep, interaction decay, energy comparison."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helmdual import solver
from helmdual.grid import Field, make_grid
from helmdual.functional import CoefficientSpec, DualState, ProblemSpec, constant_coefficient
from helmdual.resolvent import ResolventConfig
from helmdual.runio import load_config
from helmdual.solver import InitialGuess, SolverConfig, cutoff, solve_limit
from helmdual.experiments import (
    BarycenterConfig,
    aligned_distance,
    barycenter,
    compact_bump,
    concentration_sweep,
    edge_mass,
    energy_comparison,
    homogeneity_ratio,
    interaction_decay,
    sweep_to_csv,
)

PP = 8.0 / 7.0


@pytest.fixture(scope="module")
def grid():
    return make_grid(2, 30.0, 64)


def gaussian(grid, center, width=1.0):
    r_sq = sum((grid.coords(d) - center[d]) ** 2 for d in range(grid.dim))
    return Field(grid, np.exp(-r_sq / (2 * width**2)))


def stacked_barycenter(v, epsilon, p_prime, cfg):
    """The barycenter from an (n^N x N) stack of the points eps x and its projection."""
    weight = np.abs(v.values) ** p_prime
    grid = v.grid
    pts = np.stack([epsilon * grid.coords(d) for d in range(grid.dim)], axis=-1)
    norms = np.linalg.norm(pts, axis=-1)
    outside = norms > cfg.rho
    scale = np.ones_like(norms)
    scale[outside] = cfg.rho / norms[outside]
    return np.tensordot(weight, pts * scale[..., None], axes=grid.dim) / weight.sum()


class TestBarycenter:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            BarycenterConfig(rho=0.0, delta_nbhd=0.5)
        cfg = BarycenterConfig(rho=1.0, delta_nbhd=0.5)
        coef = CoefficientSpec(floor=0.0,
                               centers=((5.0, 0.0),), amplitudes=(1.0,), widths=(0.5,))
        with pytest.raises(ValueError):
            cfg.validate_for(coef)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["rho", "delta_nbhd"])
    def test_config_rejects_non_finite(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            BarycenterConfig(**{field: bad})

    def test_even_field_centered(self, grid):
        cfg = BarycenterConfig(rho=100.0, delta_nbhd=1.0)
        beta = barycenter(gaussian(grid, (0.0, 0.0)), 0.5, PP, cfg)
        np.testing.assert_allclose(beta, 0.0, atol=1e-12)

    def test_translated_bump_against_direct_summation(self, grid):
        cfg = BarycenterConfig(rho=100.0, delta_nbhd=1.0)
        eps = 0.25
        v = gaussian(grid, (4.0, -2.0))
        beta = barycenter(v, eps, PP, cfg)
        # independent re-implementation by explicit loops over flat indices
        w = np.abs(v.values) ** PP
        num = np.zeros(2)
        for i in range(grid.points_per_axis):
            for j in range(grid.points_per_axis):
                num += w[i, j] * eps * np.array([grid.x_axis[i], grid.x_axis[j]])
        np.testing.assert_allclose(beta, num / w.sum(), atol=1e-10)

    def test_translation_equivariance(self, grid):
        # shifting by a lattice vector shifts beta by eps * a when the
        # truncation is inactive
        cfg = BarycenterConfig(rho=1000.0, delta_nbhd=1.0)
        eps = 0.5
        v = gaussian(grid, (0.0, 0.0), width=0.8)
        shifted = Field(grid, np.roll(v.values, (4, -6), axis=(0, 1)))
        b0 = barycenter(v, eps, PP, cfg)
        b1 = barycenter(shifted, eps, PP, cfg)
        h = grid.spacing
        np.testing.assert_allclose(b1 - b0, eps * h * np.array([4, -6]), atol=1e-8)

    def test_scale_and_sign_invariance(self, grid):
        cfg = BarycenterConfig(rho=10.0, delta_nbhd=1.0)
        v = gaussian(grid, (2.0, 1.0))
        b = barycenter(v, 0.5, PP, cfg)
        np.testing.assert_allclose(barycenter(-3.0 * v, 0.5, PP, cfg), b, atol=1e-12)

    def test_truncation_active(self, grid):
        # all mass far outside rho projects onto the sphere of radius rho
        cfg = BarycenterConfig(rho=1.0, delta_nbhd=0.5)
        beta = barycenter(gaussian(grid, (20.0, 0.0), 0.5), 1.0, PP, cfg)
        assert np.linalg.norm(beta) <= 1.0 + 1e-12

    def test_zero_field_rejected(self, grid):
        cfg = BarycenterConfig(rho=10.0, delta_nbhd=1.0)
        with pytest.raises(ValueError):
            barycenter(Field(grid, np.zeros(grid.shape)), 1.0, PP, cfg)

    @pytest.mark.parametrize("rho", [1.0, 100.0], ids=["rho-active", "rho-inactive"])
    @pytest.mark.parametrize("dims, center", [((2, 30.0, 64), (4.0, -2.0)),
                                              ((3, 16.0, 24), (3.0, -1.5, 2.0))],
                             ids=["2d", "3d"])
    def test_open_mesh_matches_stacked_points(self, dims, center, rho):
        grid = make_grid(*dims)
        v = gaussian(grid, center, width=1.5)
        cfg = BarycenterConfig(rho=rho, delta_nbhd=0.5)
        expected = stacked_barycenter(v, 0.5, PP, cfg)
        weight = np.abs(v.values) ** PP
        beyond = sum((0.5 * grid.coords(d)) ** 2 for d in range(grid.dim)) > rho**2
        share = weight[beyond].sum() / weight.sum()
        assert share > 0.5 if rho == 1.0 else share == 0.0  # the cut acts, or it does not
        beta = barycenter(v, 0.5, PP, cfg)
        assert np.linalg.norm(beta - expected) <= 1e-14 * np.linalg.norm(expected)

    def test_peak_in_grid_arrays(self):
        # |v|^p' and |eps x| live at once, then one moment product at a time: 3 arrays.
        # Stacks of the points eps x and of their projection took 7.25.
        grid = make_grid(2, 60.0, 256)
        v = gaussian(grid, (4.0, -2.0), width=3.0)
        cfg = BarycenterConfig(rho=1.0, delta_nbhd=0.5)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            barycenter(v, 0.5, PP, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak / (grid.num_nodes * 8) <= 4.0


class TestAlignedDistance:
    def test_identical_fields(self, grid):
        v = gaussian(grid, (0.0, 0.0))
        d, shift = aligned_distance(v, v, PP)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert shift == (0, 0)

    def test_lattice_translate_recovered(self, grid):
        v = gaussian(grid, (0.0, 0.0))
        moved = Field(grid, np.roll(v.values, (5, -3), axis=(0, 1)))
        d, _ = aligned_distance(moved, v, PP)
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_sign_flip_identified(self, grid):
        v = gaussian(grid, (0.0, 0.0))
        d, _ = aligned_distance(-1.0 * v, v, PP)
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_grid_mismatch(self, grid):
        other = make_grid(2, 20.0, 64)
        with pytest.raises(ValueError):
            aligned_distance(gaussian(grid, (0, 0)), gaussian(other, (0, 0)), PP)


class TestEdgeMass:
    def test_centered_bump_has_tiny_edge_mass(self, grid):
        assert edge_mass(gaussian(grid, (0.0, 0.0)), PP) <= 1e-10

    def test_boundary_bump_has_large_edge_mass(self, grid):
        v = gaussian(grid, (29.0, 29.0), width=0.5)
        assert edge_mass(v, PP) >= 0.5


class TestConcentrationSweep:
    def test_constant_coefficient_rejected(self, grid):
        template = ProblemSpec(p=8.0, epsilon=0.5,
                               coefficient=constant_coefficient(1.0))
        with pytest.raises(ValueError):
            concentration_sweep(template, [0.5, 0.25], grid, SolverConfig(),
                                BarycenterConfig(rho=3.0, delta_nbhd=0.5))

    def test_nondecreasing_list_rejected(self, grid):
        coef = CoefficientSpec(floor=0.25,
                               centers=((0.8, 0.4),), amplitudes=(0.75,),
                               widths=(1.5,))
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef)
        with pytest.raises(ValueError):
            concentration_sweep(template, [0.25, 0.5], grid, SolverConfig(),
                                BarycenterConfig(rho=3.0, delta_nbhd=0.5))

    @pytest.mark.parametrize("epsilon_list", [[0.5, np.nan], [np.inf, 0.5]],
                             ids=["nan", "inf"])
    def test_non_finite_epsilon_raises_before_the_limit_solve(self, grid, monkeypatch,
                                                               epsilon_list):
        def no_solve(*args, **kwargs):
            raise AssertionError("an input error must not solve")

        monkeypatch.setattr("helmdual.solver._solve_seeds", no_solve)
        coef = CoefficientSpec(floor=0.25, centers=((0.8, 0.4),),
                               amplitudes=(0.75,), widths=(1.5,))
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef)
        with pytest.raises(ValueError, match="positive and finite"):
            concentration_sweep(template, epsilon_list, grid, SolverConfig(),
                                BarycenterConfig(rho=3.0, delta_nbhd=0.5))

    def test_center_dimension_mismatch_raises_before_the_limit_solve(self, grid, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("an input error must not solve")

        monkeypatch.setattr("helmdual.solver._solve_seeds", no_solve)
        coef = CoefficientSpec(floor=0.25, centers=((0.8, 0.4, 0.1),),
                               amplitudes=(0.75,), widths=(1.5,))
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef)
        with pytest.raises(ValueError, match="dimension"):
            concentration_sweep(template, [0.5, 0.25], grid, SolverConfig(),
                                BarycenterConfig(rho=3.0, delta_nbhd=0.5))

    def test_every_point_outgrowing_the_box_solves_nothing(self, grid, monkeypatch):
        # no point fits, so neither the limit nor any point is solved
        def no_solve(*args, **kwargs):
            raise AssertionError("a sweep with no point to solve must not solve")

        monkeypatch.setattr("helmdual.solver._solve_seeds", no_solve)
        coef = CoefficientSpec(floor=0.25, centers=((0.8, 0.4),),
                               amplitudes=(0.75,), widths=(1.5,))
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef)
        records = concentration_sweep(template, [0.05, 0.02], grid, SolverConfig(),
                                      BarycenterConfig(rho=3.0, delta_nbhd=0.5))
        assert [r.converged for r in records] == [False, False]
        assert all("cutoff support exceeds the box" in r.failure for r in records)

    def test_limit_state_on_another_grid_rejected(self, grid, monkeypatch):
        def no_seeds(*args, **kwargs):
            raise AssertionError("no seed may be built")

        monkeypatch.setattr("helmdual.solver.make_test_function", no_seeds)
        coef = CoefficientSpec(floor=0.25, centers=((0.8, 0.4),),
                               amplitudes=(0.75,), widths=(1.5,))
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef)
        other = make_grid(2, 30.0, 48)
        foreign = DualState.from_field(InitialGuess().build(other), template)
        with pytest.raises(ValueError, match="limit state lives on another grid"):
            concentration_sweep(template, [0.5], grid, SolverConfig(),
                                BarycenterConfig(rho=3.0, delta_nbhd=0.5),
                                limit_state=foreign)

    def test_small_sweep_runs_and_serializes(self, grid):
        coef = CoefficientSpec(floor=0.25,
                               centers=((0.8, 0.4),), amplitudes=(0.75,),
                               widths=(1.5,))
        res = ResolventConfig(delta=1e-2)
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef, resolvent=res)
        cfg = SolverConfig(max_iters=8000, grad_tol=5e-8)
        recs = concentration_sweep(template, [0.5, 0.25], grid, cfg,
                                   BarycenterConfig(rho=3.0, delta_nbhd=0.5))
        assert len(recs) == 2
        assert all(r.converged for r in recs)
        assert all(r.edge_trusted for r in recs)
        csv = sweep_to_csv(recs)
        assert csv.count("\n") == 3  # header + one row per epsilon
        assert csv.splitlines()[0].startswith("epsilon,converged")

    def test_points_solved_together_match_points_solved_alone(self, grid):
        # all points' seeds run in one lock-stepped solve; at eps = 0.05 the
        # cutoff support exceeds the box, and that point alone is flagged
        coef = CoefficientSpec(floor=0.25,
                               centers=((0.8, 0.4),), amplitudes=(0.75,),
                               widths=(1.5,))
        res = ResolventConfig(delta=1e-2)
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef, resolvent=res)
        cfg = SolverConfig(max_iters=8000, grad_tol=5e-8)
        bary = BarycenterConfig(rho=3.0, delta_nbhd=0.5)
        limit = solve_limit(1.0, 8.0, grid, cfg, resolvent=res)
        together = concentration_sweep(template, [0.5, 0.25, 0.05], grid, cfg, bary,
                                       limit_state=limit)
        alone = [concentration_sweep(template, [e], grid, cfg, bary, limit_state=limit)[0]
                 for e in (0.5, 0.25, 0.05)]
        assert [r.converged for r in together] == [r.converged for r in alone] == [True, True, False]
        for a, b in zip(together[:2], alone[:2]):
            assert a.energy == pytest.approx(b.energy, rel=1e-12)
        assert together[2].failure == alone[2].failure
        assert "cutoff support exceeds the box" in together[2].failure

    def test_non_finite_pairing_flags_each_point_that_shared_it(self, grid, monkeypatch):
        # the two points' seeds share every transform pair; a pair whose
        # result is not finite ends both seeds with their own error
        coef = CoefficientSpec(floor=0.25,
                               centers=((0.8, 0.4),), amplitudes=(0.75,),
                               widths=(1.5,))
        res = ResolventConfig(delta=1e-2)
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef, resolvent=res)
        cfg = SolverConfig(max_iters=8000, grad_tol=5e-8)
        limit = solve_limit(1.0, 8.0, grid, cfg, resolvent=res)

        def non_finite_route(g, resolvent_cfg):
            return lambda *fields: [np.full(g.shape, np.nan) for _ in fields]

        monkeypatch.setattr("helmdual.functional._route", non_finite_route)
        records = concentration_sweep(template, [0.5, 0.25], grid, cfg,
                                      BarycenterConfig(rho=3.0, delta_nbhd=0.5),
                                      limit_state=limit)
        assert [r.converged for r in records] == [False, False]
        assert [r.failure for r in records] == ["field values must be finite"] * 2


class TestSweepMemory:
    """The sweep builds a cutoff translate as its slot opens and keeps few grid arrays."""

    def test_translates_are_built_as_slots_open(self, grid, monkeypatch):
        coef = CoefficientSpec(floor=0.25, centers=((0.8, 0.4),), amplitudes=(0.75,),
                               widths=(1.5,))
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef,
                               resolvent=ResolventConfig(delta=1e-2))
        limit = DualState.from_field(InitialGuess().build(grid), template)
        built, at_first_resolve = [], []
        make = solver.make_test_function
        monkeypatch.setattr(solver, "make_test_function",
                            lambda *args: built.append(args) or make(*args))

        class FirstResolve(Exception):
            pass

        def first_resolve(*args):
            at_first_resolve.append(len(built))
            raise FirstResolve

        monkeypatch.setattr(solver, "_resolve", first_resolve)
        with pytest.raises(FirstResolve):
            concentration_sweep(template, [0.5, 0.25, 0.2], grid, SolverConfig(),
                                BarycenterConfig(rho=3.0, delta_nbhd=0.5), limit_state=limit)
        assert at_first_resolve == [2]  # one per open slot, not one per point

    def test_warm_sweep_peak_in_grid_arrays(self):
        # configs/sweep.json on a 128^2 grid; the limit solve also builds the resolvent plan.
        # The sweep peaks at 18.1 grid arrays: two descents of six (five plus Q^(1/p)), the
        # paired application's complex array and its two results, and a finished point's v
        # and u.  The pin allows one array more.
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "sweep.json")
        problem, grid = cfg.problem, make_grid(2, cfg.grid.half_length, 128)
        bary = BarycenterConfig(rho=cfg.params["rho"], delta_nbhd=cfg.params["delta_nbhd"])
        limit = solve_limit(problem.coefficient.q_sup, problem.p, grid, cfg.solver,
                            resolvent=problem.resolvent)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            records = concentration_sweep(problem, cfg.params["epsilon_list"], grid, cfg.solver,
                                          bary, limit_state=limit)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert all(r.converged for r in records)
        assert peak / (grid.num_nodes * 8) <= 19.1


class TestOpenMeshGeometry:
    """Bump and edge mask from open meshes equal the coordinate-array formulas bit for bit."""

    @pytest.mark.parametrize("dims, center", [((2, 30.0, 64), (3.0, -1.5)),
                                              ((3, 16.0, 24), (2.0, 0.5, -1.0))])
    def test_compact_bump_and_edge_mass(self, dims, center):
        grid = make_grid(*dims)
        r_sq = np.zeros(grid.shape)
        for d in range(grid.dim):
            r_sq = r_sq + (grid.coords(d) - center[d]) ** 2
        expected = cutoff(2.0 * np.sqrt(r_sq) / 4.0)
        bump = compact_bump(grid, center, 4.0)
        assert bump.values.tobytes() == expected.tobytes()
        outer = np.zeros(grid.shape, dtype=bool)
        for d in range(grid.dim):
            outer |= np.abs(grid.coords(d)) > 0.9 * grid.half_length
        v = gaussian(grid, (0.8 * grid.half_length,) + (0.0,) * (grid.dim - 1), width=3.0)
        weight = np.abs(v.values) ** PP
        assert edge_mass(v, PP) == float(weight[outer].sum() / weight.sum())


class TestInteractionDecay:
    def test_input_validation(self):
        g = make_grid(2, 80.0, 128)
        with pytest.raises(ValueError):
            interaction_decay(8.0, g, [5.0, 4.0, 10.0])  # not increasing
        with pytest.raises(ValueError):
            interaction_decay(8.0, g, [5.0, 10.0, 200.0])  # box too small
        with pytest.raises(ValueError, match="largest decade"):
            interaction_decay(8.0, g, [1.0, 2.0, 30.0])  # one point in r >= r_max / 10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [0, 1, 3])
    def test_rejects_non_finite_separation(self, where, bad):
        r_list = [5.0, 11.0, 17.0, 23.0]
        r_list[where] = bad
        with pytest.raises(ValueError, match="finite and increasing"):
            interaction_decay(8.0, make_grid(2, 80.0, 64), r_list)

    def test_symmetry_under_swap(self):
        # interaction of two bumps is symmetric in the pair
        from helmdual.grid import inner_product
        from helmdual.resolvent import apply_R

        g = make_grid(2, 80.0, 128)
        cfg = ResolventConfig(delta=1e-2)
        u = compact_bump(g, (0.0, 0.0), 2.0)
        v = compact_bump(g, (15.0, 0.0), 2.0)
        a = inner_product(apply_R(u, cfg), v)
        b = inner_product(apply_R(v, cfg), u)
        assert a == pytest.approx(b, rel=1e-10)

    def test_2d_slope_within_bound(self):
        g = make_grid(2, 80.0, 256)
        r_list = [5 + 2 * np.pi * j for j in range(6)]
        rep = interaction_decay(8.0, g, r_list,
                                resolvent=ResolventConfig(delta=1e-2))
        assert rep.lambda_p == pytest.approx(0.125)
        assert rep.satisfies_bound
        # far value well below the near value
        assert rep.records[-1].interaction <= 0.5 * rep.records[0].interaction


class TestEnergyComparison:
    def test_bounds_and_homogeneity(self, grid):
        coef = CoefficientSpec(floor=0.25,
                               centers=((0.8, 0.4),), amplitudes=(0.75,),
                               widths=(1.5,))
        res = ResolventConfig(delta=1e-2)
        spec = ProblemSpec(p=8.0, epsilon=0.25, coefficient=coef, resolvent=res)
        cfg = SolverConfig(max_iters=8000, grad_tol=5e-8)
        rep = energy_comparison(spec, grid, cfg)
        assert rep.lower_bound_holds
        assert rep.upper_bound_holds
        assert rep.c_inf / rep.c_0 == pytest.approx(homogeneity_ratio(8.0, 0.25),
                                                    rel=1e-6)
        assert "c_inf" in rep.csv()

    def test_c_inf_omitted_for_vanishing_tail(self, grid):
        coef = CoefficientSpec(floor=0.0,
                               centers=((0.0, 0.0),), amplitudes=(1.0,),
                               widths=(1.5,))
        res = ResolventConfig(delta=1e-2)
        spec = ProblemSpec(p=8.0, epsilon=0.25, coefficient=coef, resolvent=res)
        cfg = SolverConfig(max_iters=8000, grad_tol=5e-8)
        rep = energy_comparison(spec, grid, cfg)
        assert rep.c_inf is None
        assert rep.upper_bound_holds  # vacuously
        assert "c_inf" not in rep.csv()


    def test_constant_coefficient_is_its_own_limit(self):
        # no limit state is solved for a constant Q: c_0 is its own level, as is c_inf
        spec = ProblemSpec(p=8.0, epsilon=0.25, coefficient=constant_coefficient(1.0),
                           resolvent=ResolventConfig(delta=1e-2))
        rep = energy_comparison(spec, make_grid(2, 30.0, 32), SolverConfig(grad_tol=5e-8))
        assert rep.c_0 == rep.c_eps == rep.c_inf


class TestHomogeneityRatio:
    def test_value(self):
        # p = 8: exponent -(2/p) p'/(2-p') = -1/3... of the ratio 1/4
        assert homogeneity_ratio(8.0, 0.25) == pytest.approx(4.0 ** (1.0 / 3.0))
        assert homogeneity_ratio(8.0, 1.0) == 1.0
