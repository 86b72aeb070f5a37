"""Dual energy, gradient, Nehari projection, and the map back to the PDE."""

import numpy as np
import pytest

from helmdual.grid import Field, dft_forward, dft_inverse, inner_product, lp_norm, make_grid
from helmdual.resolvent import ResolventConfig, apply_R
from helmdual.functional import (
    CoefficientSpec,
    DualState,
    NotInPositiveCone,
    ProblemSpec,
    ScalingMetadata,
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
        q = CoefficientSpec(kind="gaussian_bumps", floor=0.25,
                            centers=((1.0, 0.0), (-8.0, 0.0)),
                            amplitudes=(0.75, 0.5), widths=(1.0, 1.0))
        assert q.q_sup == pytest.approx(1.0)
        assert q.q_infinity == pytest.approx(0.25)
        assert q.maximum_set == ((1.0, 0.0),)
        assert q.has_strict_maximum

    def test_two_equal_maxima(self):
        q = CoefficientSpec(kind="gaussian_bumps", floor=0.0,
                            centers=((5.0, 0.0), (-5.0, 0.0)),
                            amplitudes=(1.0, 1.0), widths=(1.0, 1.0))
        assert len(q.maximum_set) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CoefficientSpec(kind="bogus")
        with pytest.raises(ValueError):
            constant_coefficient(0.0)
        with pytest.raises(ValueError):
            CoefficientSpec(kind="gaussian_bumps", centers=((0.0, 0.0),),
                            amplitudes=(1.0, 2.0), widths=(1.0,))
        # centers too close for the separation requirement
        with pytest.raises(ValueError):
            CoefficientSpec(kind="gaussian_bumps", centers=((0.0, 0.0), (1.0, 0.0)),
                            amplitudes=(1.0, 1.0), widths=(1.0, 1.0))
        with pytest.raises(ValueError):
            CoefficientSpec(kind="expression")

    def test_evaluate_and_rescaled_sampling(self, grid):
        q = CoefficientSpec(kind="gaussian_bumps", floor=0.5,
                            centers=((2.0, 0.0),), amplitudes=(1.0,), widths=(1.5,))
        eps = 0.25
        sampled = q.sample_rescaled(grid, eps)
        # spot check: the sample at node j equals Q(eps x_j) analytically
        x = np.array([grid.x_axis[5], grid.x_axis[20]])
        expected = 0.5 + 1.0 * np.exp(
            -((eps * x[0] - 2.0) ** 2 + (eps * x[1]) ** 2) / (2 * 1.5**2)
        )
        assert sampled.values[5, 20] == pytest.approx(expected)

    def test_expression_coefficient(self, grid):
        q = CoefficientSpec(kind="expression",
                            function=lambda pts: 1.0 + 0.0 * pts[..., 0],
                            declared_sup=1.0, declared_limsup=1.0)
        assert q.q_sup == 1.0
        np.testing.assert_allclose(q.sample_rescaled(grid, 1.0).values, 1.0)


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


class TestSolutionMap:
    def test_scaling_metadata(self):
        meta = ScalingMetadata(k=4.0, p=8.0)
        assert meta.amplitude == pytest.approx(4.0 ** (1.0 / 3.0))
        assert meta.amplitude * meta.inverse_amplitude == pytest.approx(1.0)

    def test_u_is_resolvent_image(self, grid):
        # u_rescaled = R(Q_eps^(1/p) v), with a Q that is not constant on the grid
        bump = CoefficientSpec(kind="gaussian_bumps", floor=0.25, centers=((0.8, 0.4),),
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

    def test_p_prime_and_k(self):
        s = ProblemSpec(p=8.0, epsilon=0.25, coefficient=constant_coefficient(1.0))
        assert s.p_prime == pytest.approx(8.0 / 7.0)
        assert s.k == pytest.approx(4.0)

    def test_exponent_checked_against_grid(self, grid):
        s = ProblemSpec(p=5.0, epsilon=1.0, coefficient=constant_coefficient(1.0))
        with pytest.raises(ValueError):
            s.validate_for_grid(grid)  # p = 5 inadmissible in 2D
