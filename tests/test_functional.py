"""Dual energy, gradient, Nehari projection, and the map back to the PDE."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helmdual import functional
from helmdual.grid import Field, dft_forward, dft_inverse, inner_product, lp_norm, make_grid
from helmdual.resolvent import ResolventConfig, apply_R
from helmdual.functional import (
    CoefficientSpec,
    DualState,
    NotInPositiveCone,
    ProblemSpec,
    constant_coefficient,
    energy,
    gradient,
    nehari_energy_identity,
    nehari_t,
    pde_residual,
    quadratic_term,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(2, 30.0, 32)


@pytest.fixture(scope="module")
def spec():
    return ProblemSpec(p=8.0, epsilon=1.0, coefficient=constant_coefficient(1.0))


def cone_field(grid, rng):
    """A random field in the positive cone: spectrum outside the unit sphere."""
    raw = Field(grid, rng.standard_normal(grid.shape))
    spectrum = dft_forward(raw)
    spectrum[grid.xi_squared < 1.5] = 0.0
    return dft_inverse(spectrum, grid)


class TestCoefficientSpec:
    def test_constant(self):
        q = constant_coefficient(2.0)
        assert q.q_sup == 2.0
        assert q.q_infinity == 2.0
        assert q.maximum_set == ()
        assert not q.has_strict_maximum

    def test_gaussian_bumps(self):
        q = CoefficientSpec(floor=0.25,
                            centers=((1.0, 0.0), (-8.0, 0.0)),
                            amplitudes=(0.75, 0.5), widths=(1.0, 1.0))
        assert q.q_sup == pytest.approx(1.0)
        assert q.q_infinity == pytest.approx(0.25)
        assert q.maximum_set == ((1.0, 0.0),)
        assert q.has_strict_maximum

    def test_two_equal_maxima(self):
        q = CoefficientSpec(floor=0.0,
                            centers=((5.0, 0.0), (-5.0, 0.0)),
                            amplitudes=(1.0, 1.0), widths=(1.0, 1.0))
        assert len(q.maximum_set) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CoefficientSpec(floor=-1.0)
        with pytest.raises(ValueError):
            constant_coefficient(0.0)
        with pytest.raises(ValueError):
            CoefficientSpec(centers=((0.0, 0.0),),
                            amplitudes=(1.0, 2.0), widths=(1.0,))
        # centers too close for the separation requirement
        with pytest.raises(ValueError):
            CoefficientSpec(centers=((0.0, 0.0), (1.0, 0.0)),
                            amplitudes=(1.0, 1.0), widths=(1.0, 1.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("key", ["floor", "center", "amplitude", "width"])
    def test_nonfinite_number_rejected(self, key, value):
        numbers = {"floor": 0.25, "center": 0.8, "amplitude": 0.75, "width": 1.5, key: value}
        with pytest.raises(ValueError, match="finite"):
            CoefficientSpec(floor=numbers["floor"], centers=((numbers["center"], 0.4),),
                            amplitudes=(numbers["amplitude"],), widths=(numbers["width"],))

    def test_evaluate_and_rescaled_sampling(self, grid):
        q = CoefficientSpec(floor=0.5,
                            centers=((2.0, 0.0),), amplitudes=(1.0,), widths=(1.5,))
        eps = 0.25
        sampled = q.sample_rescaled(grid, eps)
        # spot check: the sample at node j equals Q(eps x_j) analytically
        x = np.array([grid.x_axis[5], grid.x_axis[20]])
        expected = 0.5 + 1.0 * np.exp(
            -((eps * x[0] - 2.0) ** 2 + (eps * x[1]) ** 2) / (2 * 1.5**2)
        )
        assert sampled.values[5, 20] == pytest.approx(expected)

    def test_floor_without_bumps_is_constant(self, grid):
        q = CoefficientSpec(floor=2.0)
        assert q == constant_coefficient(2.0)
        spec = ProblemSpec(p=8.0, epsilon=0.5, coefficient=q)
        np.testing.assert_array_equal(spec.q_root(grid).values,
                                      np.full(grid.shape, 2.0 ** (1.0 / 8.0)))


class TestOpenMeshSampling:
    """Q sampled on an open mesh (np.ix_ of the axes) is bit for bit the formula over an
    (n^N x N) stack of coordinate arrays that it replaces, kept here as the reference."""

    @staticmethod
    def stacked_points_sample(coefficient, grid, eps):
        points = np.stack([eps * grid.coords(d) for d in range(grid.dim)], axis=-1)
        out = np.full(points.shape[:-1], coefficient.floor)
        for c, a, w in zip(coefficient.centers, coefficient.amplitudes, coefficient.widths):
            d_sq = np.sum((points - np.asarray(c)) ** 2, axis=-1)
            out = out + a * np.exp(-d_sq / (2.0 * w * w))
        return out

    @pytest.mark.parametrize("dims", [(2, 30.0, 64), (3, 16.0, 24)])
    @pytest.mark.parametrize("bumps", [0, 1, 2])
    def test_sample(self, dims, bumps):
        grid = make_grid(*dims)
        centers = [(0.8, 0.4, -0.3)[:grid.dim], (-9.0, 6.0, 1.0)[:grid.dim]][:bumps]
        q = CoefficientSpec(floor=0.25 if bumps else 1.3, centers=tuple(centers),
                            amplitudes=(0.75, 0.6)[:bumps], widths=(1.5, 0.7)[:bumps])
        for eps in (1.0, 0.3):
            sampled = q.sample_rescaled(grid, eps).values
            expected = self.stacked_points_sample(q, grid, eps)
            assert sampled.shape == expected.shape
            assert sampled.tobytes() == expected.tobytes()

    def test_stacked_points_refused(self):
        # evaluate takes one coordinate array per axis; an (m x N) point array, which rows
        # would otherwise read as axes, is refused whether or not Q has bumps
        bumped = CoefficientSpec(floor=0.25, centers=((0.8, 0.4),), amplitudes=(0.75,),
                                 widths=(1.5,))
        for q in (bumped, constant_coefficient(1.3)):
            with pytest.raises(TypeError, match="per-axis"):
                q.evaluate(np.zeros((5, 2)))
        with pytest.raises(ValueError, match="coordinate arrays"):
            bumped.evaluate([np.zeros(5)] * 3)
        x, y = np.ix_(np.arange(3.0), np.arange(4.0))
        assert bumped.evaluate((x, y)).shape == (3, 4)


#: pde_residual and a gradient norm of one fixed 256^2 field, printed by a fresh interpreter
BLAS_PROBE = """
import numpy as np
from helmdual.grid import Field, make_grid
from helmdual.functional import CoefficientSpec, DualState, ProblemSpec, pde_residual
from helmdual.resolvent import ResolventConfig
grid = make_grid(2, 60.0, 256)
coef = CoefficientSpec(floor=0.25, centers=((0.8, 0.4),), amplitudes=(0.75,), widths=(1.5,))
spec = ProblemSpec(p=8.0, epsilon=0.2, coefficient=coef, resolvent=ResolventConfig(delta=0.01))
v = Field(grid, np.random.default_rng(7).standard_normal(grid.shape))
print(repr(pde_residual(v, spec)), repr(DualState.from_field(v, spec).grad_norm))
"""


def test_norms_do_not_depend_on_the_blas_thread_count():
    # np.linalg.norm splits its dot product across BLAS threads, and on this field its last
    # bit moves between one and two threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probes = [subprocess.Popen([sys.executable, "-c", BLAS_PROBE], stdout=subprocess.PIPE,
                               text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                                                   PYTHONPATH=path))
              for threads in ("1", "2")]
    outputs = [probe.communicate()[0] for probe in probes]
    assert [probe.returncode for probe in probes] == [0, 0]
    assert outputs[0] == outputs[1], outputs


class TestEnergyAndGradient:
    def test_energy_manual(self, grid, spec):
        rng = np.random.default_rng(11)
        v = Field(grid, rng.standard_normal(grid.shape))
        pp = spec.p_prime
        manual = lp_norm(v, pp) ** pp / pp - 0.5 * quadratic_term(v, spec)
        assert energy(v, spec) == pytest.approx(manual)

    def test_gradient_finite_differences_20_directions(self, grid, spec):
        rng = np.random.default_rng(12)
        v = Field(grid, rng.standard_normal(grid.shape))
        grad = gradient(v, spec)
        t = 1e-5
        for _ in range(20):
            d = Field(grid, rng.standard_normal(grid.shape))
            fd = (energy(v + t * d, spec) - energy(v - t * d, spec)) / (2 * t)
            assert inner_product(grad, d) == pytest.approx(fd, rel=1e-5)

    def test_energy_even(self, grid, spec):
        rng = np.random.default_rng(13)
        v = Field(grid, rng.standard_normal(grid.shape))
        assert energy(v, spec) == pytest.approx(energy(-1.0 * v, spec))

    def test_multiplier_vs_direct_oracle(self, grid):
        # same energy through the spectral route and the direct-space oracle
        coef = constant_coefficient(1.0)
        s_mult = ProblemSpec(p=8.0, epsilon=1.0, coefficient=coef,
                             resolvent=ResolventConfig(delta=1e-3))
        s_direct = ProblemSpec(p=8.0, epsilon=1.0, coefficient=coef,
                               resolvent=ResolventConfig(mode="direct_oracle"))
        r_sq = grid.coords(0) ** 2 + grid.coords(1) ** 2
        v = Field(grid, np.exp(-r_sq / 72.0))
        e1, e2 = energy(v, s_mult), energy(v, s_direct)
        assert e1 == pytest.approx(e2, rel=5e-2)


class TestNehari:
    def test_projection_lands_on_manifold(self, grid, spec):
        rng = np.random.default_rng(14)
        for _ in range(10):
            v = cone_field(grid, rng)
            t = nehari_t(v, spec)
            tv = t * v
            pp = spec.p_prime
            residual = abs(lp_norm(tv, pp) ** pp - quadratic_term(tv, spec))
            assert residual <= 1e-9 * lp_norm(tv, pp) ** pp

    def test_t_maximizes_energy_along_ray(self, grid, spec):
        rng = np.random.default_rng(15)
        v = cone_field(grid, rng)
        t_star = nehari_t(v, spec)
        e_star = energy(t_star * v, spec)
        for t in np.linspace(0.2, 3.0, 25) * t_star:
            assert energy(t * v, spec) <= e_star + 1e-12 * abs(e_star)

    def test_energy_identity_on_manifold(self, grid, spec):
        rng = np.random.default_rng(16)
        v = cone_field(grid, rng)
        tv = nehari_t(v, spec) * v
        pp = spec.p_prime
        value = nehari_energy_identity(tv, spec)
        assert value == pytest.approx((1 / pp - 0.5) * lp_norm(tv, pp) ** pp)
        assert value == pytest.approx(energy(tv, spec), rel=1e-9)

    def test_energy_identity_rejects_off_manifold(self, grid, spec):
        rng = np.random.default_rng(17)
        v = cone_field(grid, rng)
        with pytest.raises(ValueError):
            nehari_energy_identity(3.0 * nehari_t(v, spec) * v, spec)

    def test_outside_cone_rejected(self, grid, spec):
        # low-frequency field has negative quadratic term
        r_sq = grid.coords(0) ** 2 + grid.coords(1) ** 2
        v = Field(grid, np.exp(-r_sq / 8.0))
        assert quadratic_term(v, spec) < 0
        with pytest.raises(NotInPositiveCone):
            nehari_t(v, spec)

    def test_zero_field_rejected(self, grid, spec):
        with pytest.raises(ValueError):
            nehari_t(Field(grid, np.zeros(grid.shape)), spec)


class TestDualState:
    def test_cached_quantities(self, grid, spec):
        rng = np.random.default_rng(18)
        v = cone_field(grid, rng)
        tv = nehari_t(v, spec) * v
        state = DualState.from_field(tv, spec)
        assert state.energy == pytest.approx(energy(tv, spec))
        assert state.quadratic_term == pytest.approx(quadratic_term(tv, spec))
        assert state.nehari_residual <= 1e-9 * lp_norm(tv, spec.p_prime) ** spec.p_prime


def _bits(result):
    """The arrays and numbers of an energy, gradient, quadratic term or DualState."""
    if isinstance(result, DualState):
        return (result.v.values, result.u_rescaled.values, result.energy, result.grad_norm,
                result.nehari_residual, result.quadratic_term)
    return (result.values,) if isinstance(result, Field) else (result,)


class TestOneQRootSite:
    """Every single-field pairing forms Q_eps^(1/p) in functional._q_root, once per call."""

    CALLS = {"energy": energy, "gradient": gradient, "quadratic_term": quadratic_term,
             "from_field": DualState.from_field}

    @pytest.mark.parametrize("name", CALLS)
    def test_constant_q_is_one_number(self, grid, spec, monkeypatch, name):
        v = cone_field(grid, np.random.default_rng(23))
        # the sampled array, as each of the four formed it on its own
        monkeypatch.setattr(functional, "_q_root", lambda spec, g: spec.q_root(g).values)
        sampled = _bits(self.CALLS[name](v, spec))
        monkeypatch.undo()

        def unsampled(self, g):
            raise AssertionError("a constant Q is not sampled")

        monkeypatch.setattr(ProblemSpec, "q_root", unsampled)
        got = _bits(self.CALLS[name](v, spec))
        assert all(np.array_equal(a, b) for a, b in zip(got, sampled, strict=True))

    @pytest.mark.parametrize("name", CALLS)
    def test_bump_q_is_sampled_once(self, grid, monkeypatch, name):
        bump = CoefficientSpec(floor=0.25, centers=((0.8, 0.4),), amplitudes=(0.75,),
                               widths=(1.5,))
        spec = ProblemSpec(p=8.0, epsilon=0.5, coefficient=bump,
                           resolvent=ResolventConfig(delta=1e-2))
        v = cone_field(grid, np.random.default_rng(24))
        calls, q_root = [], ProblemSpec.q_root
        monkeypatch.setattr(ProblemSpec, "q_root",
                            lambda self, g: calls.append(g) or q_root(self, g))
        self.CALLS[name](v, spec)
        assert calls == [grid]


class TestNonFiniteG:
    """A non-finite g ends in one ValueError, alone or in a pair, under either route."""

    @pytest.mark.parametrize("mode", ["multiplier", "direct_oracle"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("position", ["alone", "first", "second"])
    def test_raises_without_a_warning(self, mode, bad, position):
        # the suite turns a RuntimeWarning into an error, so a warning on the way fails here
        g = make_grid(2, 15.0, 32)
        cfg = ResolventConfig(delta=1e-2 if mode == "multiplier" else 0.0, mode=mode)
        ok = np.exp(-(g.coords(0) ** 2 + g.coords(1) ** 2))
        x = ok.copy()
        x[3, 4] = bad
        gs = {"alone": (x,), "first": (x, ok), "second": (ok, x)}[position]
        with pytest.raises(ValueError, match="field values must be finite"):
            functional._resolve(g, cfg, *gs)

    @pytest.mark.parametrize("mode", ["multiplier", "direct_oracle"])
    def test_one_g_is_the_route_applied_once(self, grid, mode):
        cfg = ResolventConfig(delta=1e-2 if mode == "multiplier" else 0.0, mode=mode)
        x = cone_field(grid, np.random.default_rng(25)).values
        [(rg, quad)] = functional._resolve(grid, cfg, x)
        np.testing.assert_array_equal(rg, apply_R(Field(grid, x), cfg).values)
        assert quad == inner_product(Field(grid, x), Field(grid, rg))


class TestSolutionMap:
    def test_scaling_metadata(self):
        s = ProblemSpec(p=8.0, epsilon=0.25, coefficient=constant_coefficient(1.0))
        assert s.k == 4.0
        assert s.amplitude == pytest.approx(4.0 ** (1.0 / 3.0))

    def test_u_is_resolvent_image(self, grid):
        # u_rescaled = R(Q_eps^(1/p) v), with a Q that is not constant on the grid
        bump = CoefficientSpec(floor=0.25, centers=((0.8, 0.4),),
                               amplitudes=(0.75,), widths=(1.5,))
        spec = ProblemSpec(p=8.0, epsilon=0.5, coefficient=bump,
                           resolvent=ResolventConfig(delta=1e-2))
        v = cone_field(grid, np.random.default_rng(19))
        state = DualState.from_field(v, spec)
        expected = apply_R(Field(grid, spec.q_root(grid).values * v.values), spec.resolvent)
        np.testing.assert_allclose(state.u_rescaled.values, expected.values, rtol=1e-12)

    def test_pde_residual_zero_rhs_warns(self, grid, spec):
        with pytest.warns(UserWarning):
            pde_residual(Field(grid, np.zeros(grid.shape)), spec)


class TestProblemSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemSpec(p=2.0, epsilon=1.0, coefficient=constant_coefficient(1.0))
        with pytest.raises(ValueError):
            ProblemSpec(p=8.0, epsilon=0.0, coefficient=constant_coefficient(1.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("key", ["p", "epsilon"])
    def test_nonfinite_number_rejected(self, key, value):
        numbers = {"p": 8.0, "epsilon": 0.5, key: value}
        with pytest.raises(ValueError, match=key):
            ProblemSpec(coefficient=constant_coefficient(1.0), **numbers)

    def test_p_prime_and_k(self):
        s = ProblemSpec(p=8.0, epsilon=0.25, coefficient=constant_coefficient(1.0))
        assert s.p_prime == pytest.approx(8.0 / 7.0)
        assert s.k == pytest.approx(4.0)

    def test_exponent_checked_against_grid(self, grid):
        s = ProblemSpec(p=5.0, epsilon=1.0, coefficient=constant_coefficient(1.0))
        with pytest.raises(ValueError):
            s.validate_for_grid(grid)  # p = 5 inadmissible in 2D

    def test_center_dimension_checked_against_grid(self, grid):
        coef = CoefficientSpec(centers=((0.8, 0.4, 0.1),),
                               amplitudes=(0.75,), widths=(1.5,))
        s = ProblemSpec(p=8.0, epsilon=1.0, coefficient=coef)
        with pytest.raises(ValueError, match="center dimension"):
            s.validate_for_grid(grid)
