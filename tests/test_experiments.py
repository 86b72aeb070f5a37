"""Barycenter map, concentration sweep, interaction decay, energy comparison."""

import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from helmdual import solver
from helmdual.grid import Field, make_grid
from helmdual.functional import (
    CoefficientSpec,
    DualState,
    NotInPositiveCone,
    ProblemSpec,
    constant_coefficient,
)
from helmdual.resolvent import ResolventConfig
from helmdual.runio import load_config
from helmdual.solver import InitialGuess, SolverConfig, cutoff, solve_ground_state, solve_limit
from helmdual.experiments import (
    NEIGHBORHOOD,
    SweepRecord,
    aligned_distance,
    barycenter,
    compact_bump,
    concentration_sweep,
    edge_mass,
    energy_comparison,
    homogeneity_ratio,
    interaction_decay,
    sweep_point,
    to_csv,
)

PP = 8.0 / 7.0


@pytest.fixture(scope="module")
def grid():
    return make_grid(2, 30.0, 64)


def gaussian(grid, center, width=1.0):
    r_sq = sum((grid.coords(d) - center[d]) ** 2 for d in range(grid.dim))
    return Field(grid, np.exp(-r_sq / (2 * width**2)))


def stacked_barycenter(v, epsilon, p_prime, rho):
    """The barycenter from an (n^N x N) stack of the points eps x and its projection."""
    weight = np.abs(v.values) ** p_prime
    grid = v.grid
    pts = np.stack([epsilon * grid.coords(d) for d in range(grid.dim)], axis=-1)
    norms = np.linalg.norm(pts, axis=-1)
    outside = norms > rho
    scale = np.ones_like(norms)
    scale[outside] = rho / norms[outside]
    return np.tensordot(weight, pts * scale[..., None], axes=grid.dim) / weight.sum()


class TestBarycenter:
    @pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
    def test_rho_must_be_positive_and_finite(self, grid, rho):
        with pytest.raises(ValueError, match="positive and finite"):
            barycenter(gaussian(grid, (0.0, 0.0)), 0.5, PP, rho)

    def test_even_field_centered(self, grid):
        beta = barycenter(gaussian(grid, (0.0, 0.0)), 0.5, PP, rho=100.0)
        np.testing.assert_allclose(beta, 0.0, atol=1e-12)

    def test_translated_bump_against_direct_summation(self, grid):
        eps = 0.25
        v = gaussian(grid, (4.0, -2.0))
        beta = barycenter(v, eps, PP, rho=100.0)
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
        rho = 1000.0
        eps = 0.5
        v = gaussian(grid, (0.0, 0.0), width=0.8)
        shifted = Field(grid, np.roll(v.values, (4, -6), axis=(0, 1)))
        b0 = barycenter(v, eps, PP, rho)
        b1 = barycenter(shifted, eps, PP, rho)
        h = grid.spacing
        np.testing.assert_allclose(b1 - b0, eps * h * np.array([4, -6]), atol=1e-8)

    def test_scale_and_sign_invariance(self, grid):
        rho = 10.0
        v = gaussian(grid, (2.0, 1.0))
        b = barycenter(v, 0.5, PP, rho)
        np.testing.assert_allclose(barycenter(-3.0 * v, 0.5, PP, rho), b, atol=1e-12)

    def test_truncation_active(self, grid):
        # all mass far outside rho projects onto the sphere of radius rho
        beta = barycenter(gaussian(grid, (20.0, 0.0), 0.5), 1.0, PP, rho=1.0)
        assert np.linalg.norm(beta) <= 1.0 + 1e-12

    def test_zero_field_rejected(self, grid):
        with pytest.raises(ValueError):
            barycenter(Field(grid, np.zeros(grid.shape)), 1.0, PP, rho=10.0)

    @pytest.mark.parametrize("rho", [1.0, 100.0], ids=["rho-active", "rho-inactive"])
    @pytest.mark.parametrize("dims, center", [((2, 30.0, 64), (4.0, -2.0)),
                                              ((3, 16.0, 24), (3.0, -1.5, 2.0))],
                             ids=["2d", "3d"])
    def test_open_mesh_matches_stacked_points(self, dims, center, rho):
        grid = make_grid(*dims)
        v = gaussian(grid, center, width=1.5)
        expected = stacked_barycenter(v, 0.5, PP, rho)
        weight = np.abs(v.values) ** PP
        beyond = sum((0.5 * grid.coords(d)) ** 2 for d in range(grid.dim)) > rho**2
        share = weight[beyond].sum() / weight.sum()
        assert share > 0.5 if rho == 1.0 else share == 0.0  # the cut acts, or it does not
        beta = barycenter(v, 0.5, PP, rho)
        assert np.linalg.norm(beta - expected) <= 1e-14 * np.linalg.norm(expected)

    def test_peak_in_grid_arrays(self):
        # |v|^p' and |eps x| live at once, then one moment product at a time: 3 arrays.
        # Stacks of the points eps x and of their projection took 7.25.
        grid = make_grid(2, 60.0, 256)
        v = gaussian(grid, (4.0, -2.0), width=3.0)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            barycenter(v, 0.5, PP, rho=1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak / (grid.num_nodes * 8) <= 4.0


def band_limited_shift(f, y):
    """f(. + y) for y in nodes: its spectrum times exp(i k . y), with cos(pi y_d) at the
    Nyquist bins, the part of exp(+-i pi y_d) that a real field keeps."""
    n, axes = f.grid.points_per_axis, tuple(range(f.grid.dim))
    spectrum = np.fft.fftn(f.values)
    for d, yd in enumerate(y):
        k = 2.0 * np.pi * np.fft.fftfreq(n)
        phase = np.where(np.arange(n) == n // 2, np.cos(np.pi * yd), np.exp(1j * k * yd))
        spectrum *= phase.reshape([n if a == d else 1 for a in axes])
    shifted = np.fft.ifftn(spectrum)
    assert np.max(np.abs(shifted.imag)) <= 1e-12 * np.max(np.abs(shifted.real))
    return Field(f.grid, shifted.real)


class TestAlignedDistance:
    def test_identical_fields(self, grid):
        v = gaussian(grid, (0.0, 0.0))
        d, shift = aligned_distance(v, v, PP)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert shift == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_lattice_translate_recovered(self, grid):
        v = gaussian(grid, (0.0, 0.0))
        moved = Field(grid, np.roll(v.values, (5, -3), axis=(0, 1)))
        d, shift = aligned_distance(moved, v, PP)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert shift == pytest.approx((-5.0, 3.0), abs=1e-12)

    @pytest.mark.parametrize("roll", [(5, -3), (3, 4)])
    def test_whole_node_shift_is_np_roll(self, grid, roll):
        # white noise carries its full weight at the Nyquist bins, where an odd shift flips
        # the sign: the band-limited shift by whole nodes must still be np.roll
        w0 = Field(grid, np.random.default_rng(3).standard_normal(grid.shape))
        d, shift = aligned_distance(Field(grid, np.roll(w0.values, roll, axis=(0, 1))), w0, PP)
        assert d <= 1e-12
        assert shift == pytest.approx(tuple(-float(r) for r in roll), abs=1e-9)

    @pytest.mark.parametrize("offset", [(0.5, 0.0), (0.5, -0.5), (0.3, 0.7)])
    def test_sub_node_shift_recovered(self, offset):
        # a resolved state (2.8 nodes wide) off the lattice by a fraction of a node: the
        # best lattice shift reads 0.12-0.20 here
        grid = make_grid(2, 60.0, 256)
        h = grid.spacing
        w0 = gaussian(grid, (0.0, 0.0), width=1.3)
        v = gaussian(grid, tuple(h * o for o in offset), width=1.3)
        d, shift = aligned_distance(v, w0, PP)
        assert d <= 1e-3
        assert shift == pytest.approx(tuple(-o for o in offset), abs=1e-6)

    def test_band_limited_half_node_shift_reads_round_off(self, grid):
        # 2.7 nodes wide: the Nyquist bins, whose sub-node shift no real field can carry, hold
        # round-off
        w0 = gaussian(grid, (1.0, -2.0), width=2.5)
        d, shift = aligned_distance(band_limited_shift(w0, (0.5, -0.5)), w0, PP)
        assert d <= 1e-12
        assert shift == pytest.approx((0.5, -0.5), abs=1e-9)

    def test_sign_flip_identified(self, grid):
        v = gaussian(grid, (0.0, 0.0))
        d, _ = aligned_distance(-1.0 * v, v, PP)
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_flipped_off_node_state(self, grid):
        w0 = gaussian(grid, (0.0, 0.0), width=2.5)
        d, shift = aligned_distance(-1.0 * band_limited_shift(w0, (-2.25, 1.5)), w0, PP)
        assert d <= 1e-12
        assert shift == pytest.approx((-2.25, 1.5), abs=1e-9)

    def test_two_bumps_align_on_the_larger(self, grid):
        # the far bump, 20 and 9 nodes off, adds 0.9 ||w0|| to the distance at the near one
        w0 = gaussian(grid, (0.0, 0.0))
        far = np.roll(w0.values, (20, 9), axis=(0, 1))
        v = Field(grid, np.roll(w0.values, (2, -1), axis=(0, 1)) + 0.9 * far)
        d, shift = aligned_distance(v, w0, PP)
        assert d == pytest.approx(0.9, rel=1e-9)
        assert shift == pytest.approx((-2.0, 1.0), abs=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_zero_state_reads_one(self, grid):
        # C = 0 everywhere: no Newton step, the lattice peak (the origin) is kept
        d, shift = aligned_distance(Field(grid, np.zeros(grid.shape)), gaussian(grid, (0, 0)), PP)
        assert d == 1.0
        assert shift == (0.0, 0.0)

    def test_3d_sub_node_shift(self):
        grid = make_grid(3, 20.0, 32)
        w0 = gaussian(grid, (0.0, 0.0, 0.0), width=3.0)
        d, shift = aligned_distance(band_limited_shift(w0, (0.5, -2.25, 1.0)), w0, PP)
        assert d <= 1e-9
        assert shift == pytest.approx((0.5, -2.25, 1.0), abs=1e-9)

    def test_grid_mismatch(self, grid):
        other = make_grid(2, 20.0, 64)
        with pytest.raises(ValueError):
            aligned_distance(gaussian(grid, (0, 0)), gaussian(other, (0, 0)), PP)

    @pytest.mark.filterwarnings("error")
    def test_zero_limit_state_rejected(self, grid):
        with pytest.raises(ValueError, match="zero field"):
            aligned_distance(gaussian(grid, (0, 0)), Field(grid, np.zeros(grid.shape)), PP)

    def test_peak_in_grid_arrays(self):
        # 4.03 grid arrays: the half spectra of v and of C, and two more while C is
        # transformed back
        grid = make_grid(2, 60.0, 256)
        v, w0 = gaussian(grid, (4.0, -2.0), width=1.3), gaussian(grid, (0.0, 0.0))
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            aligned_distance(v, w0, PP)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak / (grid.num_nodes * 8) <= 4.5


class TestEdgeMass:
    def test_centered_bump_has_tiny_edge_mass(self, grid):
        assert edge_mass(gaussian(grid, (0.0, 0.0)), PP) <= 1e-10

    def test_boundary_bump_has_large_edge_mass(self, grid):
        v = gaussian(grid, (29.0, 29.0), width=0.5)
        assert edge_mass(v, PP) >= 0.5

    @pytest.mark.filterwarnings("error")
    def test_zero_field_rejected(self, grid):
        with pytest.raises(ValueError, match="zero field"):
            edge_mass(Field(grid, np.zeros(grid.shape)), PP)


class TestConcentrationSweep:
    def test_constant_coefficient_rejected(self, grid):
        template = ProblemSpec(p=8.0, epsilon=0.5,
                               coefficient=constant_coefficient(1.0))
        with pytest.raises(ValueError):
            concentration_sweep(template, [0.5, 0.25], grid, SolverConfig())

    def test_nondecreasing_list_rejected(self, grid):
        coef = CoefficientSpec(floor=0.25,
                               centers=((0.8, 0.4),), amplitudes=(0.75,),
                               widths=(1.5,))
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef)
        with pytest.raises(ValueError):
            concentration_sweep(template, [0.25, 0.5], grid, SolverConfig())

    @pytest.mark.parametrize("epsilon_list",
                             [[0.5, np.nan], [np.inf, 0.5], [0.5, 0.0], [0.5, -0.1]],
                             ids=["nan", "inf", "zero", "negative"])
    def test_non_finite_epsilon_raises_before_the_limit_solve(self, grid, monkeypatch,
                                                               epsilon_list):
        def no_solve(*args, **kwargs):
            raise AssertionError("an input error must not solve")

        monkeypatch.setattr("helmdual.solver._solve_seeds", no_solve)
        coef = CoefficientSpec(floor=0.25, centers=((0.8, 0.4),),
                               amplitudes=(0.75,), widths=(1.5,))
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef)
        with pytest.raises(ValueError, match="positive and finite"):
            concentration_sweep(template, epsilon_list, grid, SolverConfig())

    @pytest.mark.parametrize("rho, message", [
        (0.0, "positive and finite"), (np.nan, "positive and finite"),
        (np.inf, "positive and finite"), (1.0, "neighborhood of radius"),
    ], ids=["zero", "nan", "inf", "short-of-the-maximum"])
    def test_bad_rho_raises_before_the_limit_solve(self, grid, monkeypatch, rho, message):
        # |(0.8, 0.4)| + NEIGHBORHOOD = 1.39 > 1: rho = 1 leaves part of the neighborhood out
        def no_solve(*args, **kwargs):
            raise AssertionError("an input error must not solve")

        monkeypatch.setattr("helmdual.solver._solve_seeds", no_solve)
        coef = CoefficientSpec(floor=0.25, centers=((0.8, 0.4),),
                               amplitudes=(0.75,), widths=(1.5,))
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef)
        assert np.hypot(0.8, 0.4) + NEIGHBORHOOD > 1.0
        with pytest.raises(ValueError, match=message):
            concentration_sweep(template, [0.5, 0.25], grid, SolverConfig(), rho)

    def test_center_dimension_mismatch_raises_before_the_limit_solve(self, grid, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("an input error must not solve")

        monkeypatch.setattr("helmdual.solver._solve_seeds", no_solve)
        coef = CoefficientSpec(floor=0.25, centers=((0.8, 0.4, 0.1),),
                               amplitudes=(0.75,), widths=(1.5,))
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef)
        with pytest.raises(ValueError, match="dimension"):
            concentration_sweep(template, [0.5, 0.25], grid, SolverConfig())

    def test_every_point_outgrowing_the_box_solves_nothing(self, grid, monkeypatch):
        # no point fits, so neither the limit nor any point is solved
        def no_solve(*args, **kwargs):
            raise AssertionError("a sweep with no point to solve must not solve")

        monkeypatch.setattr("helmdual.solver._solve_seeds", no_solve)
        coef = CoefficientSpec(floor=0.25, centers=((0.8, 0.4),),
                               amplitudes=(0.75,), widths=(1.5,))
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef)
        limit, records = concentration_sweep(template, [0.05, 0.02], grid, SolverConfig())
        assert limit is None
        assert [r.converged for r in records] == [False, False]
        assert all("cutoff support exceeds the box" in r.failure for r in records)

    def test_limit_state_on_another_grid_rejected(self, grid, monkeypatch):
        def no_seeds(*args, **kwargs):
            raise AssertionError("no seed may be built")

        monkeypatch.setattr("helmdual.solver._make_test_function", no_seeds)
        coef = CoefficientSpec(floor=0.25, centers=((0.8, 0.4),),
                               amplitudes=(0.75,), widths=(1.5,))
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef)
        other = make_grid(2, 30.0, 48)
        foreign = DualState.from_field(InitialGuess().build(other), template)
        with pytest.raises(ValueError, match="limit state lives on another grid"):
            concentration_sweep(template, [0.5], grid, SolverConfig(), limit_state=foreign)

    # the limit state of another problem: a p = 7.5 limit came back as the sweep's with
    # c_0 = 0.966 and a row at limit_distance 0.900, a sup Q = 3 limit with 0.742 and 1.039
    @pytest.mark.parametrize("p, coefficient, resolvent", [
        (7.5, constant_coefficient(1.0), ResolventConfig()),
        (8.0, constant_coefficient(3.0), ResolventConfig()),
        (8.0, constant_coefficient(1.0), ResolventConfig(delta=1e-2)),
        (8.0, CoefficientSpec(floor=0.25, centers=((0.0, 0.0),), amplitudes=(0.75,),
                              widths=(1.5,)), ResolventConfig()),
    ], ids=["exponent", "level", "resolvent", "bumps"])
    def test_limit_state_of_another_problem_rejected(self, grid, monkeypatch, p, coefficient,
                                                     resolvent):
        def no_solve(*args, **kwargs):
            raise AssertionError("an input error must not solve")

        monkeypatch.setattr("helmdual.solver._solve_seeds", no_solve)
        coef = CoefficientSpec(floor=0.25, centers=((0.0, 0.0),), amplitudes=(0.75,),
                               widths=(1.5,))
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef)
        foreign = DualState.from_field(InitialGuess().build(grid),
                                       ProblemSpec(p, 1.0, coefficient, resolvent))
        with pytest.raises(ValueError, match="limit state solves another problem"):
            concentration_sweep(template, [0.5], grid, SolverConfig(), limit_state=foreign)

    def test_limit_level_equal_up_to_round_off_accepted(self, grid, monkeypatch):
        # sup Q = 0.1 + 0.2 = 0.30000000000000004 against a limit solved at 0.3
        class Solving(Exception):
            pass

        def solving(*args, **kwargs):
            raise Solving

        monkeypatch.setattr("helmdual.solver._solve_seeds", solving)
        coef = CoefficientSpec(floor=0.1, centers=((0.0, 0.0),), amplitudes=(0.2,),
                               widths=(1.5,))
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef)
        assert coef.q_sup != 0.3
        limit = DualState.from_field(InitialGuess().build(grid),
                                     ProblemSpec(8.0, 1.0, constant_coefficient(0.3)))
        with pytest.raises(Solving):
            concentration_sweep(template, [0.5], grid, SolverConfig(), limit_state=limit)

    def test_small_sweep_runs_and_serializes(self, grid):
        coef = CoefficientSpec(floor=0.25,
                               centers=((0.8, 0.4),), amplitudes=(0.75,),
                               widths=(1.5,))
        res = ResolventConfig(delta=1e-2)
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef, resolvent=res)
        cfg = SolverConfig(max_iters=8000, grad_tol=5e-8)
        limit, recs = concentration_sweep(template, [0.5, 0.25], grid, cfg)
        assert len(recs) == 2
        assert all(r.converged for r in recs)
        assert all(r.edge_trusted for r in recs)
        csv = to_csv(recs)
        assert csv.count("\n") == 3  # header + one row per epsilon
        assert csv.splitlines()[0].startswith("epsilon,converged")
        # the columns are the record's fields, in order, for solved and flagged rows alike
        header = csv.splitlines()[0].split(",")
        assert header == [f.name for f in fields(SweepRecord)]
        flagged = sweep_point(template, ValueError("cutoff support exceeds the box"), 3.0, limit)
        header_again, row = to_csv([flagged]).splitlines()
        assert header_again.split(",") == header and len(row.split(",")) == len(header)

    @pytest.mark.parametrize("resolvent, half_length", [
        (ResolventConfig(delta=1e-2), 30.0),
        (ResolventConfig(mode="direct_oracle"), 15.0),
    ], ids=["periodic", "free_space"])
    def test_grad_norm_column_is_the_dual_defect(self, resolvent, half_length):
        # every solved row reports the descent's dual defect, converged below grad_tol
        # under either route; at eps = 0.05 the cutoff outgrows the box and the cell is empty
        coef = CoefficientSpec(floor=0.25, centers=((0.8, 0.4),), amplitudes=(0.75,),
                               widths=(1.5,))
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef, resolvent=resolvent)
        cfg = SolverConfig(max_iters=8000, grad_tol=5e-8)
        _, recs = concentration_sweep(template, [0.5, 0.25, 0.05], make_grid(2, half_length, 64),
                                      cfg)
        assert [r.converged for r in recs] == [True, True, False]
        assert all(0.0 < r.grad_norm <= cfg.grad_tol for r in recs[:2])
        assert recs[2].grad_norm is None
        header, *rows = (line.split(",") for line in to_csv(recs).splitlines())
        column = header.index("grad_norm")
        assert [float(row[column]) for row in rows[:2]] == [r.grad_norm for r in recs[:2]]
        assert rows[2][column] == ""

    def test_points_solved_together_match_points_solved_alone(self, grid):
        # all points' seeds run in one lock-stepped solve; at eps = 0.05 the
        # cutoff support exceeds the box, and that point alone is flagged
        coef = CoefficientSpec(floor=0.25,
                               centers=((0.8, 0.4),), amplitudes=(0.75,),
                               widths=(1.5,))
        res = ResolventConfig(delta=1e-2)
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef, resolvent=res)
        cfg = SolverConfig(max_iters=8000, grad_tol=5e-8)
        limit = solve_limit(1.0, 8.0, grid, cfg, resolvent=res)
        _, together = concentration_sweep(template, [0.5, 0.25, 0.05], grid, cfg,
                                          limit_state=limit)
        alone = [concentration_sweep(template, [e], grid, cfg, limit_state=limit)[1][0]
                 for e in (0.5, 0.25, 0.05)]
        assert [r.converged for r in together] == [r.converged for r in alone] == [True, True, False]
        for a, b in zip(together[:2], alone[:2]):
            assert a.energy == b.energy
        assert together[2].failure == alone[2].failure
        assert "cutoff support exceeds the box" in together[2].failure

    def test_non_finite_pairing_flags_each_point_by_its_own_seed(self, grid, monkeypatch):
        # the two points' seeds share every transform pair; each seed's first pairing is
        # NaN, so each leaves the cone by its own outcome and flags its own point
        coef = CoefficientSpec(floor=0.25,
                               centers=((0.8, 0.4),), amplitudes=(0.75,),
                               widths=(1.5,))
        res = ResolventConfig(delta=1e-2)
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef, resolvent=res)
        cfg = SolverConfig(max_iters=8000, grad_tol=5e-8)
        limit = solve_limit(1.0, 8.0, grid, cfg, resolvent=res)

        def non_finite_route(g, resolvent_cfg):
            return lambda *fields: [np.full(g.shape, np.nan) for _ in fields]

        points, converged = [], solver._converged

        def spy(outcomes):
            points.append(list(outcomes))
            return converged(points[-1])

        monkeypatch.setattr("helmdual.functional._route", non_finite_route)
        monkeypatch.setattr(solver, "_converged", spy)
        _, records = concentration_sweep(template, [0.5, 0.25], grid, cfg, limit_state=limit)
        assert [r.converged for r in records] == [False, False]
        assert [r.failure for r in records] == ["every seed left the positive cone"] * 2
        assert len(points) == 2
        for [seed] in points:  # one maximum: one seed per point
            assert type(seed) is NotInPositiveCone
            assert str(seed).startswith("first quadratic term nan ")


class TestSweepMemory:
    """The sweep builds a cutoff translate as its slot opens and keeps few grid arrays."""

    def test_translates_are_built_as_slots_open(self, grid, monkeypatch):
        coef = CoefficientSpec(floor=0.25, centers=((0.8, 0.4),), amplitudes=(0.75,),
                               widths=(1.5,))
        template = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef,
                               resolvent=ResolventConfig(delta=1e-2))
        limit = DualState.from_field(InitialGuess().build(grid),
                                     replace(template, coefficient=constant_coefficient(1.0)))
        built, at_first_resolve = [], []
        make = solver._make_test_function
        monkeypatch.setattr(solver, "_make_test_function",
                            lambda *args: built.append(args) or make(*args))

        class FirstResolve(Exception):
            pass

        def first_resolve(*args):
            at_first_resolve.append(len(built))
            raise FirstResolve

        monkeypatch.setattr(solver, "_resolve", first_resolve)
        with pytest.raises(FirstResolve):
            concentration_sweep(template, [0.5, 0.25, 0.2], grid, SolverConfig(),
                                limit_state=limit)
        assert at_first_resolve == [2]  # one per open slot, not one per point

    def test_warm_sweep_peak_in_grid_arrays(self):
        # configs/sweep.json on a 128^2 grid; the limit solve also builds the resolvent plan.
        # The sweep peaks at 18.1 grid arrays: two descents of six (five plus Q^(1/p)), the
        # paired application's 2-stack of half-size complex arrays and its two results, and
        # a finished point's v and u.  The pin allows one array more.
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "sweep.json")
        problem, grid = cfg.problem, make_grid(2, cfg.grid.half_length, 128)
        limit = solve_limit(problem.coefficient.q_sup, problem.p, grid, cfg.solver,
                            resolvent=problem.resolvent)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _, records = concentration_sweep(problem, cfg.params["epsilon_list"], grid,
                                             cfg.solver, cfg.params["rho"], limit_state=limit)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert all(r.converged for r in records)
        assert peak / (grid.num_nodes * 8) <= 19.1

    def test_sweep_point_peak_in_grid_arrays(self):
        # configs/sweep.json on a 128^2 grid: the post-processing of one solved point
        # (barycenter, aligned distance, edge mass, argmax of |u|) peaks at 4.15 grid arrays
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "sweep.json")
        problem, grid = cfg.problem, make_grid(2, cfg.grid.half_length, 128)
        limit = solve_limit(problem.coefficient.q_sup, problem.p, grid, cfg.solver,
                            resolvent=problem.resolvent)
        spec = replace(problem, epsilon=cfg.params["epsilon_list"][0])
        state = solve_ground_state(spec, grid, cfg.solver, limit_state=limit)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            record = sweep_point(spec, state, cfg.params["rho"], limit)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert record.converged
        assert peak / (grid.num_nodes * 8) <= 5.0


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
    @pytest.fixture(scope="class")
    def problem(self):
        coef = CoefficientSpec(floor=0.25,
                               centers=((0.8, 0.4),), amplitudes=(0.75,),
                               widths=(1.5,))
        res = ResolventConfig(delta=1e-2)
        spec = ProblemSpec(p=8.0, epsilon=0.25, coefficient=coef, resolvent=res)
        return spec, SolverConfig(max_iters=8000, grad_tol=5e-8)

    def test_bounds_and_homogeneity(self, grid, problem):
        spec, cfg = problem
        rep = energy_comparison(spec, grid, cfg)
        assert rep.lower_bound_holds
        assert rep.upper_bound_holds
        # c_inf is c_0 scaled by the homogeneity law: a solve at limsup Q is its reference
        reference = solve_limit(0.25, 8.0, grid, cfg, resolvent=spec.resolvent)
        assert rep.c_inf == pytest.approx(reference.energy, rel=1e-12)
        assert to_csv(rep.levels) == (f"level,value\nc_0,{rep.c_0!r}\nc_eps,{rep.c_eps!r}\n"
                                      f"c_inf,{rep.c_inf!r}\n")

    def test_limit_is_solved_once(self, grid, problem, monkeypatch):
        # two seed batches, the limit at sup Q and then the eps point: none at limsup Q
        spec, cfg = problem
        batches, limits = [], []
        solve_seeds, limit = solver._solve_seeds, solver.solve_limit

        def counted_seeds(problems, solver_cfg):
            batches.append(1)
            return solve_seeds(problems, solver_cfg)

        def counted_limit(q0, *args, **kwargs):
            limits.append(q0)
            return limit(q0, *args, **kwargs)

        monkeypatch.setattr(solver, "_solve_seeds", counted_seeds)
        monkeypatch.setattr(solver, "solve_limit", counted_limit)
        rep = energy_comparison(spec, grid, cfg)
        assert len(batches) == 2
        assert limits == [spec.coefficient.q_sup]
        assert rep.c_inf is not None

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
        assert [row.level for row in rep.levels] == ["c_0", "c_eps"]

    def test_constant_coefficient_refused_before_any_solve(self, grid, monkeypatch):
        # c_0 <= c_eps < c_inf needs sup Q > limsup Q: without it all three are one level
        def no_solve(*args, **kwargs):
            raise AssertionError("a problem outside the window must not solve")

        monkeypatch.setattr("helmdual.solver._solve_seeds", no_solve)
        spec = ProblemSpec(p=8.0, epsilon=0.25, coefficient=constant_coefficient(1.0),
                           resolvent=ResolventConfig(delta=1e-2))
        with pytest.raises(ValueError, match="sup Q above its limsup"):
            energy_comparison(spec, grid, SolverConfig(grad_tol=5e-8))


class TestHomogeneityRatio:
    def test_value(self):
        # p = 8: exponent -(2/p) p'/(2-p') = -1/3... of the ratio 1/4
        assert homogeneity_ratio(8.0, 0.25) == pytest.approx(4.0 ** (1.0 / 3.0))
        assert homogeneity_ratio(8.0, 1.0) == 1.0
