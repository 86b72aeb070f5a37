"""Grid construction, quadrature norms, and the shifted DFT contract."""

import numpy as np
import pytest

from helmdual.grid import (
    Field,
    dft_forward,
    dft_inverse,
    inner_product,
    lp_norm,
    make_grid,
    spectral_laplacian,
)


def random_field(grid, rng):
    return Field(grid, rng.standard_normal(grid.shape))


class TestMakeGrid:
    def test_basic_geometry(self):
        g = make_grid(2, 30.0, 64)
        assert g.spacing == pytest.approx(60.0 / 64)
        assert g.shape == (64, 64)
        assert g.num_nodes == 64**2
        assert g.cell_volume == pytest.approx(g.spacing**2)
        assert g.x_axis[0] == pytest.approx(-30.0)
        assert g.x_axis[-1] == pytest.approx(30.0 - g.spacing)

    def test_default_shift_is_half(self):
        g = make_grid(3, 20.0, 16)
        assert g.freq_shift == (0.5, 0.5, 0.5)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_grid(4, 30.0, 64)
        with pytest.raises(ValueError):
            make_grid(2, -1.0, 64)
        with pytest.raises(ValueError):
            make_grid(2, 30.0, 63)  # odd
        with pytest.raises(ValueError):
            make_grid(2, 30.0, 4)  # too small
        with pytest.raises(ValueError):
            make_grid(2, 30.0, 64, (0.5,))  # wrong length
        with pytest.raises(ValueError):
            make_grid(2, 30.0, 64, (1.5, 0.0))  # out of range

    def test_shift_other_than_zero_or_half_rejected(self):
        # a quarter shift breaks the xi / -xi pairing, so no inverse transform would be real
        with pytest.raises(ValueError, match="0 or 0.5"):
            make_grid(2, 30.0, 64, (0.25, 0.5))

    def test_integer_lattice_is_singular(self):
        # L = pi makes the unshifted frequencies integers, so |xi| = 1 occurs
        g = make_grid(2, np.pi, 16, (0.0, 0.0))
        assert g.singular

    def test_half_shift_avoids_unit_circle(self):
        g = make_grid(2, np.pi, 16, (0.5, 0.5))
        assert not g.singular
        assert g.min_unit_circle_distance > 1e-3

    def test_min_distance_by_exhaustive_scan_3d(self):
        g = make_grid(3, 20.0, 64, (0.0, 0.0, 0.0))
        xi = np.sqrt(g.xi_squared)
        assert g.min_unit_circle_distance == pytest.approx(
            float(np.min(np.abs(xi - 1.0))), abs=0.0
        )


class TestField:
    def test_shape_mismatch_rejected(self):
        g = make_grid(2, 30.0, 16)
        with pytest.raises(ValueError):
            Field(g, np.zeros((16, 8)))

    def test_nonfinite_rejected(self):
        g = make_grid(2, 30.0, 16)
        bad = np.zeros(g.shape)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            Field(g, bad)

    def test_arithmetic(self):
        g = make_grid(2, 30.0, 16)
        rng = np.random.default_rng(0)
        f, h = random_field(g, rng), random_field(g, rng)
        np.testing.assert_allclose((f + h).values, f.values + h.values)
        np.testing.assert_allclose((f - h).values, f.values - h.values)
        np.testing.assert_allclose((2.5 * f).values, 2.5 * f.values)
        np.testing.assert_allclose((-f).values, -f.values)

    def test_grid_mismatch(self):
        f = Field(make_grid(2, 30.0, 16), np.zeros((16, 16)))
        h = Field(make_grid(2, 20.0, 16), np.zeros((16, 16)))
        with pytest.raises(ValueError):
            f + h


class TestLpNorm:
    def test_constant_field(self):
        g = make_grid(2, 7.0, 32)
        one = Field(g, np.ones(g.shape))
        assert lp_norm(one, 2.0) == pytest.approx(2 * 7.0)

    def test_zero_field(self):
        g = make_grid(2, 7.0, 32)
        zero = Field(g, np.zeros(g.shape))
        for q in (1.0, 2.0, 8 / 7, np.inf):
            assert lp_norm(zero, q) == 0.0

    def test_gaussian_l2_value(self):
        # ||e^(-|x|^2/2)||_2 = pi^(N/4); the box is large enough for the
        # quadrature to be accurate to many digits (spectral accuracy)
        for dim in (2, 3):
            g = make_grid(dim, 15.0, 64)
            r_sq = sum(g.coords(d) ** 2 for d in range(dim))
            f = Field(g, np.exp(-r_sq / 2.0))
            assert lp_norm(f, 2.0) == pytest.approx(np.pi ** (dim / 4.0), rel=1e-12)

    def test_homogeneity(self):
        g = make_grid(2, 5.0, 16)
        f = random_field(g, np.random.default_rng(1))
        for q in (1.0, 8 / 7, 2.0, 5.0, np.inf):
            assert lp_norm(-3.0 * f, q) == pytest.approx(3.0 * lp_norm(f, q))

    def test_max_norm(self):
        g = make_grid(2, 5.0, 16)
        f = random_field(g, np.random.default_rng(2))
        assert lp_norm(f, np.inf) == np.max(np.abs(f.values))

    def test_q_below_one_rejected(self):
        g = make_grid(2, 5.0, 16)
        with pytest.raises(ValueError):
            lp_norm(Field(g, np.ones(g.shape)), 0.5)


class TestInnerProduct:
    def test_constant_fields(self):
        g = make_grid(2, 7.0, 32)
        one = Field(g, np.ones(g.shape))
        assert inner_product(one, one) == pytest.approx((2 * 7.0) ** 2)

    def test_orthogonal_lattice_cosines(self):
        g = make_grid(2, 10.0, 32)
        k = np.pi / 10.0
        f = Field(g, np.cos(2 * k * g.coords(0)))
        h = Field(g, np.cos(3 * k * g.coords(0)))
        assert inner_product(f, h) == pytest.approx(0.0, abs=1e-12)

    def test_resummation_oracle(self):
        # compare against summation in a different traversal order
        g = make_grid(2, 5.0, 32)
        rng = np.random.default_rng(3)
        f, h = random_field(g, rng), random_field(g, rng)
        direct = inner_product(f, h)
        other = g.cell_volume * float(
            np.sum((f.values * h.values).T[::-1, ::-1])
        )
        assert direct == pytest.approx(other, rel=1e-12)

    def test_symmetry_and_cauchy_schwarz(self):
        g = make_grid(2, 5.0, 16)
        rng = np.random.default_rng(4)
        for _ in range(10):
            f, h = random_field(g, rng), random_field(g, rng)
            assert inner_product(f, h) == pytest.approx(inner_product(h, f))
            assert abs(inner_product(f, h)) <= lp_norm(f, 2) * lp_norm(h, 2) * (1 + 1e-12)


class TestDft:
    def test_roundtrip_many_random_fields(self):
        g = make_grid(2, 9.0, 32)
        rng = np.random.default_rng(5)
        for _ in range(100):
            f = random_field(g, rng)
            back = dft_inverse(dft_forward(f), g)
            err = np.linalg.norm(back.values - f.values) / np.linalg.norm(f.values)
            assert err <= 1e-12

    def test_parseval(self):
        for shift in ((0.5, 0.5), (0.0, 0.5), (0.0, 0.0)):
            g = make_grid(2, 9.0, 32, shift)
            rng = np.random.default_rng(6)
            for _ in range(20):
                f = random_field(g, rng)
                spec = dft_forward(f)
                spectral = np.sum(np.abs(spec) ** 2) / (2 * g.half_length) ** g.dim
                assert lp_norm(f, 2.0) ** 2 == pytest.approx(spectral, rel=1e-12)

    def test_lattice_cosine_spectrum_support(self):
        # a product of cosines at lattice frequencies excites exactly the four
        # conjugate mode pairs (a shifted lattice has no zero frequency, so a
        # plain 1D cosine would not be a finite sum of modes)
        g = make_grid(2, 10.0, 32, (0.5, 0.5))
        xi0, xi1 = g.freq_axis(0)[3], g.freq_axis(1)[5]
        f = Field(g, np.cos(xi0 * g.coords(0)) * np.cos(xi1 * g.coords(1)))
        spec = np.abs(dft_forward(f))
        big = spec > 1e-8 * spec.max()
        assert big.sum() == 4

    def test_inverse_shape_mismatch(self):
        g = make_grid(2, 10.0, 32)
        with pytest.raises(ValueError):
            dft_inverse(np.zeros((32, 16), dtype=complex), g)

    def test_nonreal_result_rejected(self):
        # an asymmetric spectrum cannot come from a real field
        g = make_grid(2, 10.0, 32)
        spec = np.zeros(g.shape, dtype=complex)
        spec[3, 5] = 1.0
        with pytest.raises(ValueError):
            dft_inverse(spec, g)


class TestSpectralLaplacian:
    def test_lattice_cosine_eigenfunction(self):
        g = make_grid(2, 10.0, 32, (0.5, 0.5))
        xi0, xi1 = g.freq_axis(0)[2], g.freq_axis(1)[4]
        f = Field(g, np.cos(xi0 * g.coords(0)) * np.cos(xi1 * g.coords(1)))
        lap = spectral_laplacian(f)
        np.testing.assert_allclose(
            lap.values, -(xi0**2 + xi1**2) * f.values, atol=1e-10
        )
