"""Ground-state solver: convergence contracts, seeds, cutoffs, multistart."""

from pathlib import Path

import numpy as np
import pytest

from helmdual import resolvent, solver
from helmdual.experiments import homogeneity_ratio
from helmdual.grid import lp_norm, make_grid
from helmdual.functional import (
    CoefficientSpec,
    DualState,
    NotInPositiveCone,
    ProblemSpec,
    _q_root,
    constant_coefficient,
    gradient,
)
from helmdual.resolvent import ResolventConfig
from helmdual.runio import load_config
from helmdual.solver import (
    AllSeedsLeftCone,
    InitialGuess,
    NoConvergence,
    SolverConfig,
    _best_state,
    _distinct,
    _make_test_function,
    _solve_seeds,
    cutoff,
    multistart,
    solve_from_seed,
    solve_ground_state,
    solve_limit,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(2, 30.0, 64)


@pytest.fixture(scope="module")
def cfg():
    return SolverConfig(max_iters=5000)


@pytest.fixture(scope="module")
def limit_state(grid, cfg):
    return solve_limit(1.0, 8.0, grid, cfg)


def assert_default_seeds_converge(grid, q0, p=8.0):
    """Every default seed of the q0 limit converges within 200 iterations."""
    tight = SolverConfig(max_iters=200)
    spec = ProblemSpec(p=p, epsilon=1.0, coefficient=constant_coefficient(q0))
    outcomes = list(_solve_seeds([(s.build(grid), spec) for s in tight.restart_seeds], tight))
    assert not any(isinstance(o, Exception) for o in outcomes), outcomes


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(grad_tol=0.0)
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError, match="width"):
            InitialGuess(width=0.0)
        with pytest.raises(ValueError, match="restart_seeds"):
            SolverConfig(restart_seeds=())


class TestCutoff:
    def test_plateau_support_and_smoothness(self):
        r = np.linspace(0.0, 3.0, 301)
        vals = cutoff(r)
        np.testing.assert_allclose(vals[r <= 1.0], 1.0)
        np.testing.assert_allclose(vals[r >= 2.0], 0.0)
        mid = vals[(r > 1.0) & (r < 2.0)]
        assert np.all((0.0 <= mid) & (mid <= 1.0))
        assert np.all(np.diff(vals) <= 1e-12)  # nonincreasing


class TestLimitSolve:
    def test_converged_contracts(self, limit_state, cfg):
        assert limit_state.energy > 0
        assert limit_state.grad_norm <= cfg.grad_tol
        pp = limit_state.spec.p_prime
        norm_pp = lp_norm(limit_state.v, pp) ** pp
        assert limit_state.nehari_residual <= 1e-9 * norm_pp

    def test_euler_lagrange_fixed_point(self, limit_state, cfg):
        # |v|^(p'-2) v = Q^(1/p) R(Q^(1/p) v) to the gradient tolerance
        g = gradient(limit_state.v, limit_state.spec)
        pp = limit_state.spec.p_prime
        scale = np.linalg.norm(np.abs(limit_state.v.values) ** (pp - 1.0))
        assert np.linalg.norm(g.values) / scale <= cfg.grad_tol

    def test_deterministic(self, grid, cfg, limit_state):
        again = solve_limit(1.0, 8.0, grid, cfg)
        np.testing.assert_array_equal(again.v.values, limit_state.v.values)
        assert again.energy == limit_state.energy

    def test_homogeneity_scaling(self, grid, cfg, limit_state):
        # c_0(Q_0) = Q_0^(-(2/p) p'/(2-p')) c_0(1)
        q0 = 2.0
        other = solve_limit(q0, 8.0, grid, cfg)
        pp = limit_state.spec.p_prime
        ratio = q0 ** (-(2.0 / 8.0) * pp / (2.0 - pp))
        assert other.energy == pytest.approx(ratio * limit_state.energy, rel=1e-6)

    @pytest.mark.parametrize("q0", [0.658, 1.0, 2.0])
    def test_every_default_seed_converges_well_inside_the_budget(self, grid, q0):
        # these seeds take 49-56 iterations; a round-off change that stalls one would
        # otherwise run out the 5000 of the cfg fixture unseen, as another seed still wins
        assert_default_seeds_converge(grid, q0)

    @pytest.fixture
    def r_off_by_one_ulp(self, monkeypatch):
        # every R g one ulp larger: equal to R g within any stated accuracy of R
        multiply = resolvent._multiply
        monkeypatch.setattr(resolvent, "_multiply", lambda *args: [
            part * (1.0 + 2.0**-52) for part in multiply(*args)])
        resolvent._build_route.cache_clear()  # routes bind _multiply as they are built
        yield
        resolvent._build_route.cache_clear()

    @pytest.mark.parametrize("q0", [0.658, 1.0, 2.0])
    def test_default_seeds_converge_whatever_the_last_bit_of_r(self, grid, q0, r_off_by_one_ulp):
        # near the float64 floor the Armijo test forgives RESOLVABLE_ULPS ulps of the
        # energy, so whether a seed converges is not drawn by R's last bit (with an exact
        # test one of these nine seeds collapsed its step)
        assert_default_seeds_converge(grid, q0)

    @pytest.mark.parametrize("q0", [0.0, np.nan, np.inf])
    def test_invalid_q0(self, grid, cfg, q0):
        with pytest.raises(ValueError, match="q0"):
            solve_limit(q0, 8.0, grid, cfg)

    def test_tiny_budget_raises_with_last_gradient(self, grid):
        small = SolverConfig(max_iters=3)
        with pytest.raises(NoConvergence, match=r"gradient \S+ above tolerance") as err:
            solve_from_seed(InitialGuess(width=0.8).build(grid),
                            ProblemSpec(p=8.0, epsilon=1.0,
                                        coefficient=constant_coefficient(1.0)),
                            small)
        assert err.value.iterations == 3
        assert small.grad_tol < float(str(err.value).split()[1]) < np.inf


class TestPowerPaths:
    @pytest.mark.parametrize("p", [3.0, 4.0, 5.0, 8.0])
    def test_integer_chain_matches_pow_within_a_few_ulps(self, p):
        # binary powering of w^2 (even p - 2) or |w| (odd p - 2); zeros stay zeros
        rng = np.random.default_rng(5)
        w = rng.standard_normal(20000) * np.exp(rng.uniform(-5.0, 5.0, 20000))
        w[::9] = 0.0
        assert (w < 0).any()
        got = solver._abs_power(w, p, np.empty_like(w))
        np.testing.assert_array_max_ulp(got, np.abs(w) ** (p - 2.0), maxulp=3)
        assert np.all(got[w == 0.0] == 0.0)

    def test_non_integer_exponent_is_pow_bit_for_bit(self):
        w = np.random.default_rng(6).standard_normal(1000)
        np.testing.assert_array_equal(solver._abs_power(w, 7.5, np.empty_like(w)), np.abs(w) ** 5.5)

    def test_non_integer_exponent_limit_obeys_homogeneity(self, grid, cfg):
        # the np.power path end to end: c_0(2) / c_0(1) = 2^(-(2/p) p'/(2 - p')) at p = 7.5
        one, two = (solve_limit(q0, 7.5, grid, cfg) for q0 in (1.0, 2.0))
        assert max(one.grad_norm, two.grad_norm) <= cfg.grad_tol
        assert two.energy / one.energy == pytest.approx(homogeneity_ratio(7.5, 2.0), rel=1e-12)
        assert_default_seeds_converge(grid, 1.0, p=7.5)


class TestFreeSpaceLimit:
    def test_level_independent_of_box_at_fixed_spacing(self):
        # the free-space resolvent has no periodic images, so doubling the
        # box at h = 30/64 leaves the limit level unchanged to 1e-4
        cfg = SolverConfig(grad_tol=5e-8)
        free = ResolventConfig(mode="direct_oracle")
        small, large = (solve_limit(1.0, 8.0, make_grid(2, half_length, n), cfg,
                                    resolvent=free).energy
                        for half_length, n in ((15.0, 64), (30.0, 128)))
        assert small == pytest.approx(large, rel=1e-4)

    def test_3d_level_independent_of_box_at_fixed_spacing(self):
        # p = 5 at h = 0.5: L 4 -> 8 moves the level by 8.1e-5 (relative)
        cfg = SolverConfig(grad_tol=5e-8)
        free = ResolventConfig(mode="direct_oracle")
        small, large = (solve_limit(1.0, 5.0, make_grid(3, half_length, n), cfg,
                                    resolvent=free).energy
                        for half_length, n in ((4.0, 16), (8.0, 32)))
        assert small == pytest.approx(4.5671117, rel=1e-7)
        assert large == pytest.approx(4.5667405, rel=1e-7)
        assert small == pytest.approx(large, rel=1e-4)

    def test_every_default_seed_converges_at_the_default_tolerance(self):
        # at grad_tol 1e-8 the Armijo test runs at the float64 floor; with steps
        # capped at 1 one of these seeds collapsed its step and one used up the budget
        cfg = SolverConfig()
        spec = ProblemSpec(p=8.0, epsilon=1.0, coefficient=constant_coefficient(1.0),
                           resolvent=ResolventConfig(mode="direct_oracle"))
        grid = make_grid(2, 30.0, 128)
        outcomes = list(_solve_seeds([(s.build(grid), spec) for s in cfg.restart_seeds], cfg))
        assert all(not isinstance(o, Exception) and o[1] <= 50 for o in outcomes), outcomes


class TestSeedFailures:
    @pytest.fixture(scope="class")
    def small(self):
        return make_grid(2, 30.0, 32)

    def test_collapsed_line_search_is_not_a_cone_exit(self, small, monkeypatch):
        # an unreachable Armijo threshold rejects every trial, in the cone or not
        monkeypatch.setattr(solver, "SUFFICIENT_DECREASE", 1e6)
        strict = SolverConfig(max_iters=50)
        with pytest.raises(NoConvergence, match="step collapsed"):
            solve_limit(1.0, 8.0, small, strict)
        # one seed alone still raises the cone error callers already catch
        spec = ProblemSpec(p=8.0, epsilon=1.0, coefficient=constant_coefficient(1.0))
        with pytest.raises(NotInPositiveCone, match="step collapsed"):
            solve_from_seed(InitialGuess().build(small), spec, strict)

    def test_no_seeds_is_not_a_cone_exit(self, small):
        with pytest.raises(ValueError, match="no seeds"):
            _best_state(iter([]))

    @pytest.mark.parametrize("reduce", [_best_state, _distinct])
    @pytest.mark.parametrize("outcomes, error, message", [
        ([], ValueError, "no seeds"),
        ([NotInPositiveCone("a"), NotInPositiveCone("b")], AllSeedsLeftCone,
         "every seed left the positive cone"),
        ([NotInPositiveCone("a"), solver._StepCollapsed("b")], NoConvergence,
         "no seed converged: b"),
        ([NoConvergence("a"), NotInPositiveCone("b")], NoConvergence, "no seed converged: b"),
        ([NotInPositiveCone("a"), ValueError("zero seed"), NoConvergence("c")], ValueError,
         "zero seed"),
    ], ids=["no-seeds", "cone-exits", "collapse", "budget", "other-error"])
    def test_both_reductions_share_one_failure_rule(self, reduce, outcomes, error, message):
        with pytest.raises(error) as err:
            reduce(iter(outcomes))
        assert type(err.value) is error and str(err.value) == message

    def test_every_seed_outside_the_cone(self, small):
        # a wide unmodulated bump has its spectrum inside |xi| < 1, where R < 0
        wide = SolverConfig(restart_seeds=(InitialGuess(width=3.0, modulation=0.0),
                                           InitialGuess(width=4.0, modulation=0.0)))
        with pytest.raises(AllSeedsLeftCone):
            solve_limit(1.0, 8.0, small, wide)


class TestLockStep:
    """Two descents in flight share one transform pair per step, each bit for bit as alone."""

    @pytest.fixture(scope="class")
    def small(self):
        return make_grid(2, 30.0, 32)

    @pytest.fixture(scope="class")
    def spec(self):
        return ProblemSpec(p=8.0, epsilon=1.0, coefficient=constant_coefficient(1.0),
                           resolvent=ResolventConfig(delta=1e-2))

    @pytest.fixture(scope="class")
    def loose(self):
        return SolverConfig(grad_tol=5e-8)

    def test_identical_pair_costs_one_seed_and_agrees_with_it(self, small, spec, loose,
                                                              monkeypatch):
        calls = []
        fftn = np.fft.fftn
        monkeypatch.setattr(np.fft, "fftn", lambda *a, **k: calls.append(1) or fftn(*a, **k))
        seed = InitialGuess(width=0.8).build(small)
        [(alone, _)] = _solve_seeds([(seed, spec)], loose)
        one = len(calls)
        pair = list(_solve_seeds([(seed, spec), (seed, spec)], loose))
        assert len(calls) - one <= one + 2
        for state, _ in pair:
            assert state.energy == alone.energy

    def test_seed_paired_with_another_is_the_seed_alone_bit_for_bit(self, small, spec, loose):
        # each field has its own slot of the transform: its partner changes none of its bits
        seeds = [InitialGuess(width=w).build(small) for w in (0.8, 1.2)]
        pair = list(_solve_seeds([(seed, spec) for seed in seeds], loose))
        for seed, (state, iterations) in zip(seeds, pair):
            [(alone, alone_iterations)] = _solve_seeds([(seed, spec)], loose)
            assert (state.energy, iterations) == (alone.energy, alone_iterations)
            np.testing.assert_array_equal(state.v.values, alone.v.values)
            np.testing.assert_array_equal(state.u_rescaled.values, alone.u_rescaled.values)

    def test_cone_exits_batched_with_a_converging_seed(self, small, spec, loose):
        good = InitialGuess(width=0.8).build(small)
        wide = [InitialGuess(width=w, modulation=0.0).build(small) for w in (3.0, 4.0)]
        [(alone, _)] = _solve_seeds([(good, spec)], loose)
        outcomes = list(_solve_seeds([(wide[0], spec), (good, spec), (wide[1], spec)], loose))
        assert [type(o) for o in (outcomes[0], outcomes[2])] == [NotInPositiveCone] * 2
        state, _ = outcomes[1]
        assert state.energy == alone.energy
        assert _best_state(iter(outcomes)) is state

    def test_seed_error_is_its_outcome_and_raised_by_the_solve(self, small, spec, loose):
        # a zero seed ends with ValueError; its partner still converges
        good = InitialGuess(width=0.8).build(small)
        zero = 0.0 * good
        [(alone, _)] = _solve_seeds([(good, spec)], loose)
        outcomes = list(_solve_seeds([(zero, spec), (good, spec)], loose))
        assert type(outcomes[0]) is ValueError and "zero seed" in str(outcomes[0])
        assert outcomes[1][0].energy == alone.energy
        with pytest.raises(ValueError, match="zero seed"):
            _best_state(iter(outcomes))

    # zero seeds end as they open, before their first resolvent application
    def test_zero_seed_alone_raises_its_error(self, small, spec, loose):
        zero = 0.0 * InitialGuess(width=0.8).build(small)
        with pytest.raises(ValueError, match="zero seed"):
            solve_from_seed(zero, spec, loose)

    def test_seed_after_two_zero_seeds_still_runs(self, small, spec, loose):
        good = InitialGuess(width=0.8).build(small)
        zero = 0.0 * good
        [(alone, _)] = _solve_seeds([(good, spec)], loose)
        outcomes = list(_solve_seeds([(zero, spec), (zero, spec), (good, spec)], loose))
        assert [type(o) for o in outcomes[:2]] == [ValueError] * 2
        assert outcomes[2][0].energy == alone.energy

    def test_solve_after_two_zero_seeds_raises_their_error(self, small, spec, loose):
        good = InitialGuess(width=0.8).build(small)
        with pytest.raises(ValueError, match="zero seed"):
            _best_state(list(_solve_seeds([(0.0 * good, spec), (0.0 * good, spec), (good, spec)],
                                          loose)))

    def test_seeds_on_different_grids_are_refused_unsolved(self, small, spec, loose,
                                                          monkeypatch):
        # a pair shares one transform, so it needs one grid and one resolvent
        def no_resolve(*args):
            raise AssertionError("mixed seeds must be refused before any application")

        monkeypatch.setattr(solver, "_resolve", no_resolve)
        other = make_grid(2, 30.0, 48)
        seeds = [InitialGuess(width=0.8).build(g) for g in (small, other)]
        with pytest.raises(ValueError, match="different grids or resolvents"):
            list(_solve_seeds([(seed, spec) for seed in seeds], loose))
        exact = ProblemSpec(p=8.0, epsilon=1.0, coefficient=constant_coefficient(1.0))
        with pytest.raises(ValueError, match="different grids or resolvents"):
            list(_solve_seeds([(seeds[0], spec), (seeds[0], exact)], loose))

    def test_collapsing_batch_raises_no_convergence(self, small, spec, monkeypatch):
        monkeypatch.setattr(solver, "SUFFICIENT_DECREASE", 1e6)
        strict = SolverConfig(max_iters=50)
        seeds = [InitialGuess(width=w).build(small) for w in (0.5, 0.8)]
        seeds.append(InitialGuess(width=3.0, modulation=0.0).build(small))
        # two collapses and one cone exit: not every seed left the cone
        with pytest.raises(NoConvergence, match="no seed converged"):
            _best_state(list(_solve_seeds([(seed, spec) for seed in seeds], strict)))

    def test_sweep_config_converges_well_inside_the_budget(self, monkeypatch):
        # every seed of configs/sweep.json converges in at most 25 iterations and
        # the six make at most 100 resolvent applications (251 with steps capped
        # at 1); a summation order that lets the Armijo test run below round-off
        # stalls them instead
        applications = []
        resolve = solver._resolve
        monkeypatch.setattr(solver, "_resolve", lambda grid, cfg, *gs: (
            applications.append(len(gs)) or resolve(grid, cfg, *gs)))
        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "sweep.json")
        problem, grid = cfg.problem, cfg.grid
        limit = ProblemSpec(p=problem.p, epsilon=1.0,
                            coefficient=constant_coefficient(problem.coefficient.q_sup),
                            resolvent=problem.resolvent)
        outcomes = list(_solve_seeds([(s.build(grid), limit) for s in cfg.solver.restart_seeds],
                                     cfg.solver))
        limit_state = _best_state(iter(outcomes))
        for eps in cfg.params["epsilon_list"]:
            spec = ProblemSpec(p=problem.p, epsilon=eps, coefficient=problem.coefficient,
                               resolvent=problem.resolvent)
            seeds = [_make_test_function(y, eps, limit_state.v)
                     for y in spec.coefficient.maximum_set]
            outcomes += _solve_seeds([(seed, spec) for seed in seeds], cfg.solver)
        assert len(outcomes) == 6
        assert all(not isinstance(o, Exception) and o[1] <= 25 for o in outcomes), outcomes
        assert sum(applications) <= 100


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestOpenMeshSeeds:
    """Seeds and cutoff translates built on open meshes (np.ix_ of the axes) are bit for bit
    the formulas over n^N coordinate arrays that they replace, kept here as the reference."""

    GRIDS = [(2, 30.0, 64), (3, 16.0, 24)]

    @staticmethod
    def coordinate_seed(grid, guess):
        r_sq = np.zeros(grid.shape)
        for d in range(grid.dim):
            r_sq = r_sq + grid.coords(d) ** 2
        vals = np.exp(-r_sq / (2.0 * guess.width**2))
        if guess.modulation > 0.0:
            vals = vals * np.cos(guess.modulation * np.sqrt(r_sq))
        if guess.perturbation > 0.0:
            noise = np.random.default_rng(guess.rng_seed).standard_normal(grid.shape)
            vals = vals * (1.0 + guess.perturbation * noise)
        return vals

    @pytest.mark.parametrize("dims", GRIDS)
    @pytest.mark.parametrize("guess", [InitialGuess(),
                                       InitialGuess(width=1.2, modulation=0.0),
                                       InitialGuess(width=0.5, perturbation=0.1, rng_seed=3)])
    def test_seed(self, dims, guess):
        grid = make_grid(*dims)
        assert same_bits(guess.build(grid).values, self.coordinate_seed(grid, guess))

    # the cutoff is evaluated on its support's index box only; at eps 0.094 and 0.18 the
    # support reaches within a node of the box's edge
    @pytest.mark.parametrize("dims, y, eps", [(GRIDS[0], (0.8, 0.4), 0.5),
                                              (GRIDS[0], (0.8, 0.4), 0.094),
                                              (GRIDS[1], (0.8, -0.4, 0.3), 0.5),
                                              (GRIDS[1], (0.8, -0.4, 0.3), 0.18)])
    def test_translate(self, dims, y, eps):
        grid = make_grid(*dims)
        w = InitialGuess().build(grid)
        shift = [int(round(c / (eps * grid.spacing))) for c in y]
        r = np.zeros(grid.shape)
        for d in range(grid.dim):
            r = r + (eps * grid.coords(d) - y[d]) ** 2
        expected = cutoff(np.sqrt(r)) * np.roll(w.values, shift, axis=tuple(range(grid.dim)))
        assert np.signbit(expected[expected == 0.0]).any()  # negative zeros are compared too
        assert same_bits(_make_test_function(y, eps, w).values, expected)


class TestConstantCoefficientRoot:
    """A constant Q enters the descent as one number, not as a sampled array."""

    def test_number_is_every_sampled_value(self):
        # with SIMD power loops, Python's ** differs from numpy's in the last bit for some of
        # these (0.359 ** (1/3), 0.407 ** (1/4.5), 0.658 ** (1/8) on an AVX-512 host)
        grid = make_grid(2, 30.0, 16)
        for floor in (0.25, 0.359, 0.407, 0.658, 2.0):
            for p in (3.0, 4.5, 5.0, 8.0):
                spec = ProblemSpec(p=p, epsilon=1.0, coefficient=constant_coefficient(floor))
                root = _q_root(spec, grid)
                assert np.ndim(root) == 0
                assert same_bits(np.full(grid.shape, root), spec.q_root(grid).values)

    def test_descent_matches_the_sampled_array(self, grid, cfg, monkeypatch):
        number = solve_limit(0.658, 8.0, grid, cfg)
        monkeypatch.setattr(solver, "_q_root", lambda spec, g: spec.q_root(g).values)
        sampled = solve_limit(0.658, 8.0, grid, cfg)
        assert same_bits(number.v.values, sampled.v.values)
        assert same_bits(number.u_rescaled.values, sampled.u_rescaled.values)
        assert (number.energy, number.grad_norm) == (sampled.energy, sampled.grad_norm)


def no_seed(*args, **kwargs):
    raise AssertionError("no seed may be built")


class TestTestFunction:
    def test_translate_and_cutoff(self, grid, limit_state):
        phi = _make_test_function((0.8, 0.4), 0.5, limit_state.v)
        # support is inside |eps x - y| <= 2
        r = np.sqrt((0.5 * grid.coords(0) - 0.8) ** 2
                    + (0.5 * grid.coords(1) - 0.4) ** 2)
        assert np.all(np.abs(phi.values[r > 2.0]) == 0.0)

    # the test function trusts its caller: the solve refuses these before building one
    def test_box_too_small(self, grid, cfg, limit_state, monkeypatch):
        monkeypatch.setattr(solver, "_make_test_function", no_seed)
        coef = CoefficientSpec(floor=0.25, centers=((0.8, 0.4),), amplitudes=(0.75,),
                               widths=(1.5,))
        spec = ProblemSpec(p=8.0, epsilon=0.05, coefficient=coef)
        with pytest.raises(ValueError, match="cutoff support exceeds the box"):
            solve_ground_state(spec, grid, cfg, limit_state=limit_state)

    def test_dimension_mismatch(self, grid, cfg, limit_state, monkeypatch):
        monkeypatch.setattr(solver, "_make_test_function", no_seed)
        coef = CoefficientSpec(floor=0.25, centers=((0.8,),), amplitudes=(0.75,),
                               widths=(1.5,))
        spec = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef)
        with pytest.raises(ValueError, match="dimension does not match"):
            solve_ground_state(spec, grid, cfg, limit_state=limit_state)


class TestGroundState:
    def test_bump_coefficient_solve(self, grid, cfg, limit_state):
        coef = CoefficientSpec(floor=0.25,
                               centers=((0.8, 0.4),), amplitudes=(0.75,),
                               widths=(1.5,))
        spec = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef,
                           resolvent=ResolventConfig(delta=1e-2))
        loose = SolverConfig(max_iters=8000, grad_tol=5e-8)
        lim = solve_limit(1.0, 8.0, grid, loose, resolvent=spec.resolvent)
        state = solve_ground_state(spec, grid, loose, limit_state=lim)
        assert state.grad_norm <= 5e-8
        assert state.energy >= lim.energy * (1 - 1e-6)
        # a converged state reuses the descent's last R g instead of applying R again
        for st in (lim, state):
            fresh = DualState.from_field(st.v, st.spec)
            assert st.energy == pytest.approx(fresh.energy, rel=1e-13)
            assert st.quadratic_term == pytest.approx(fresh.quadratic_term, rel=1e-13)
            assert abs(st.grad_norm - fresh.grad_norm) <= 1e-13
            assert st.nehari_residual <= 1e-13 * fresh.quadratic_term
            u, u_fresh = st.u_rescaled.values, fresh.u_rescaled.values
            assert np.max(np.abs(u - u_fresh)) <= 1e-13 * np.max(np.abs(u_fresh))

    def test_limit_state_on_another_grid_rejected(self, grid, cfg, monkeypatch):
        monkeypatch.setattr(solver, "_make_test_function", no_seed)
        coef = CoefficientSpec(floor=0.25, centers=((0.8, 0.4),),
                               amplitudes=(0.75,), widths=(1.5,))
        spec = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef)
        other = make_grid(2, 30.0, 48)
        foreign = DualState.from_field(InitialGuess().build(other), spec)
        with pytest.raises(ValueError, match="limit state lives on another grid"):
            solve_ground_state(spec, grid, cfg, limit_state=foreign)

    def test_inadmissible_exponent_rejected(self, grid, cfg):
        spec = ProblemSpec(p=5.0, epsilon=1.0, coefficient=constant_coefficient(1.0))
        with pytest.raises(ValueError):
            solve_ground_state(spec, grid, cfg)


class TestMultistart:
    def test_identical_seeds_deduplicate(self, grid, cfg):
        spec = ProblemSpec(p=8.0, epsilon=1.0, coefficient=constant_coefficient(1.0))
        seed = InitialGuess(width=0.8).build(grid)
        states = _distinct(_solve_seeds([(seed, spec), (seed, spec), (-1.0 * seed, spec)], cfg))
        assert len(states) == 1  # sign flips identified

    def test_two_maxima_give_two_states(self, grid, cfg, monkeypatch):
        coef = CoefficientSpec(floor=0.25,
                               centers=((5.0, 0.0), (-5.0, 0.0)),
                               amplitudes=(0.75, 0.75), widths=(1.5, 1.5))
        res = ResolventConfig(delta=1e-2)
        spec = ProblemSpec(p=8.0, epsilon=0.5, coefficient=coef, resolvent=res)
        loose = SolverConfig(max_iters=8000, grad_tol=5e-8)
        seeds = []
        monkeypatch.setattr(solver, "_make_test_function",
                            lambda *args: seeds.append(_make_test_function(*args)) or seeds[-1])
        states = multistart(spec, grid, loose)
        assert len(seeds) == 2
        assert len(states) == 2

    # multistart once returned [] here, where solve_ground_state raises
    def test_collapsing_seeds_raise_as_solve_ground_state(self, grid, monkeypatch):
        monkeypatch.setattr(solver, "SUFFICIENT_DECREASE", 1e6)
        spec = ProblemSpec(p=8.0, epsilon=1.0, coefficient=constant_coefficient(1.0))
        strict = SolverConfig(max_iters=50)
        for solve in (multistart, solve_ground_state):
            with pytest.raises(NoConvergence) as err:
                solve(spec, grid, strict)
            assert str(err.value) == ("no seed converged: step collapsed without an "
                                      "acceptable iterate")

    def test_seeds_outside_the_cone_raise_as_solve_ground_state(self, grid):
        spec = ProblemSpec(p=8.0, epsilon=1.0, coefficient=constant_coefficient(1.0))
        flat = SolverConfig(restart_seeds=(InitialGuess(width=1.2, modulation=0.0),) * 2)
        for solve in (multistart, solve_ground_state):
            with pytest.raises(AllSeedsLeftCone, match="^every seed left the positive cone$"):
                solve(spec, grid, flat)

    @pytest.mark.parametrize("spec, message", [
        (ProblemSpec(p=5.0, epsilon=1.0, coefficient=constant_coefficient(1.0)),
         "outside admissible range"),
        (ProblemSpec(p=8.0, epsilon=0.5,
                     coefficient=CoefficientSpec(floor=0.25, centers=((0.8, 0.4, 0.1),),
                                                 amplitudes=(0.75,), widths=(1.5,))),
         "center dimension"),
        (ProblemSpec(p=8.0, epsilon=0.05,
                     coefficient=CoefficientSpec(floor=0.25, centers=((0.8, 0.4),),
                                                 amplitudes=(0.75,), widths=(1.5,))),
         "cutoff support exceeds the box"),
    ], ids=["inadmissible-exponent", "center-dimension", "cutoff-outgrows-box"])
    def test_refused_before_any_application(self, grid, cfg, monkeypatch, spec, message):
        # the checks of solve_ground_state: no limit solve and no seed runs first
        def no_resolve(*args):
            raise AssertionError("a refused problem must not apply the resolvent")

        monkeypatch.setattr(solver, "_resolve", no_resolve)
        with pytest.raises(ValueError, match=message):
            multistart(spec, grid, cfg)
