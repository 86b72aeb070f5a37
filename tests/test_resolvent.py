"""Multiplier resolvent, its direct-space oracle, and the resolvent identity."""

import numpy as np
import pytest

from helmdual.grid import Field, dft_forward, dft_inverse, make_grid
from helmdual.kernels import KernelSpec
from helmdual.resolvent import (
    DIRECT_GUARD,
    GridTooLargeError,
    ResolventConfig,
    SingularLatticeError,
    _plan,
    apply_R,
    apply_R_direct,
    bilinear_R,
    multiplier_value,
    resolvent_identity_residual,
)


def gaussian_bump(grid, width=6.0):
    r_sq = sum(grid.coords(d) ** 2 for d in range(grid.dim))
    return Field(grid, np.exp(-r_sq / (2.0 * width**2)))


class TestMultiplierValue:
    def test_formula(self):
        xi_sq = np.array([0.0, 0.5, 2.0, 10.0])
        delta = 0.3
        expected = (xi_sq - 1) / ((xi_sq - 1) ** 2 + delta**2)
        np.testing.assert_allclose(multiplier_value(xi_sq, delta), expected)

    def test_delta_zero_is_reciprocal(self):
        assert multiplier_value(3.0, 0.0) == pytest.approx(0.5)

    def test_delta_zero_singular(self):
        with pytest.raises(SingularLatticeError):
            multiplier_value(np.array([1.0, 2.0]), 0.0)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            multiplier_value(2.0, -0.1)

    def test_sign_structure(self):
        # negative inside the unit sphere, positive outside
        assert multiplier_value(0.5, 0.0) < 0
        assert multiplier_value(1.5, 0.0) > 0


class TestApplyR:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResolventConfig(delta=-1.0)
        with pytest.raises(ValueError):
            ResolventConfig(mode="unknown")

    def test_singular_lattice_rejected_at_delta_zero(self):
        g = make_grid(2, np.pi, 16, (0.0, 0.0))
        f = gaussian_bump(g, width=1.0)
        for _ in range(2):  # a failed plan is not cached
            with pytest.raises(SingularLatticeError):
                apply_R(f, ResolventConfig(delta=0.0))

    def test_lattice_mode_eigenvalue(self):
        # R acts on a lattice mode by 1/(|xi|^2 - 1)
        g = make_grid(2, 10.0, 32, (0.5, 0.5))
        xi0, xi1 = g.freq_axis(0)[2], g.freq_axis(1)[3]
        f = Field(g, np.cos(xi0 * g.coords(0)) * np.cos(xi1 * g.coords(1)))
        rf = apply_R(f, ResolventConfig(delta=0.0))
        factor = 1.0 / (xi0**2 + xi1**2 - 1.0)
        np.testing.assert_allclose(rf.values, factor * f.values, atol=1e-12)

    def test_resolvent_identity_100_random_fields(self):
        g = make_grid(2, 9.0, 32, (0.5, 0.5))
        rng = np.random.default_rng(7)
        cfg = ResolventConfig(delta=0.0)
        for _ in range(100):
            f = Field(g, rng.standard_normal(g.shape))
            assert resolvent_identity_residual(f, cfg) <= 1e-10

    def test_indefiniteness_by_spectral_localization(self):
        # the multiplier is negative inside the unit sphere and positive
        # outside, so spectrally localized fields realize both signs of the
        # quadratic form
        g = make_grid(2, 30.0, 64)
        rng = np.random.default_rng(8)
        spec = dft_forward(Field(g, rng.standard_normal(g.shape)))
        low = spec.copy()
        low[g.xi_squared >= 0.8] = 0.0
        high = spec.copy()
        high[g.xi_squared <= 1.2] = 0.0
        cfg = ResolventConfig(delta=0.0)
        u_low = dft_inverse(low, g)
        u_high = dft_inverse(high, g)
        assert bilinear_R(u_low, u_low, cfg) < 0
        assert bilinear_R(u_high, u_high, cfg) > 0

    def test_bilinear_symmetry(self):
        g = make_grid(2, 9.0, 32)
        rng = np.random.default_rng(9)
        u = Field(g, rng.standard_normal(g.shape))
        v = Field(g, rng.standard_normal(g.shape))
        cfg = ResolventConfig(delta=1e-3)
        assert bilinear_R(u, v, cfg) == pytest.approx(bilinear_R(v, u, cfg), rel=1e-12)


class TestPlan:
    @pytest.mark.parametrize("dim, half_length, n, shift", [
        (2, 9.0, 32, (0.5, 0.5)),
        (2, 9.0, 32, (0.0, 0.0)),
        (3, 8.0, 16, (0.5, 0.5, 0.5)),
        (3, 8.0, 16, (0.0, 0.5, 0.5)),
    ])
    @pytest.mark.parametrize("delta", [0.0, 1e-2])
    def test_matches_explicit_transform_composition(self, dim, half_length, n, shift, delta):
        g = make_grid(dim, half_length, n, shift)
        assert not g.singular
        f = Field(g, np.random.default_rng(11).standard_normal(g.shape))
        symbol = multiplier_value(g.xi_squared, delta)
        expected = dft_inverse(symbol * dft_forward(f), g).values
        got = apply_R(f, ResolventConfig(delta=delta)).values
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_built_once_per_grid_and_delta(self):
        f = gaussian_bump(make_grid(2, 9.0, 32))
        cfg = ResolventConfig(delta=1e-3)
        _plan.cache_clear()
        first = apply_R(f, cfg).values
        np.testing.assert_array_equal(apply_R(f, cfg).values, first)
        # an equal grid built again and an equal config share the plan
        again = gaussian_bump(make_grid(2, 9.0, 32))
        np.testing.assert_array_equal(apply_R(again, ResolventConfig(delta=1e-3)).values, first)
        info = _plan.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert not any(arr.flags.writeable for arr in _plan(f.grid, cfg.delta))


class TestDirectOracle:
    def test_guard(self):
        g = make_grid(2, 30.0, 64)
        f = gaussian_bump(g)
        assert g.num_nodes > DIRECT_GUARD[2]
        with pytest.raises(GridTooLargeError):
            apply_R_direct(f, KernelSpec(2))

    def test_dim_mismatch(self):
        g = make_grid(2, 30.0, 16)
        with pytest.raises(ValueError):
            apply_R_direct(gaussian_bump(g), KernelSpec(3))

    def test_agrees_with_multiplier_2d(self):
        g = make_grid(2, 30.0, 32)
        f = gaussian_bump(g)
        direct = apply_R_direct(f, KernelSpec(2))
        mult = apply_R(f, ResolventConfig(delta=1e-3))
        err = np.linalg.norm(direct.values - mult.values) / np.linalg.norm(mult.values)
        assert err <= 5e-2

    def test_agrees_with_multiplier_3d(self):
        g = make_grid(3, 20.0, 16)
        f = gaussian_bump(g, width=4.0)
        direct = apply_R_direct(f, KernelSpec(3))
        mult = apply_R(f, ResolventConfig(delta=1e-3))
        err = np.linalg.norm(direct.values - mult.values) / np.linalg.norm(mult.values)
        assert err <= 8e-2

    def test_mode_dispatch(self):
        g = make_grid(2, 30.0, 32)
        f = gaussian_bump(g)
        via_cfg = apply_R(f, ResolventConfig(mode="direct_oracle"))
        direct = apply_R_direct(f, KernelSpec(2))
        np.testing.assert_allclose(via_cfg.values, direct.values)

    def test_linearity(self):
        g = make_grid(2, 15.0, 16)
        rng = np.random.default_rng(10)
        f = Field(g, rng.standard_normal(g.shape))
        h = Field(g, rng.standard_normal(g.shape))
        spec = KernelSpec(2)
        lhs = apply_R_direct(f + 2.0 * h, spec)
        rhs = apply_R_direct(f, spec) + 2.0 * apply_R_direct(h, spec)
        np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-10)
