"""Bessel implementations against independent oracles; kernel and exponents."""

import numpy as np
import pytest

from helmdual.kernels import (
    KernelSpec,
    bessel_j0,
    bessel_y0,
    check_exponent,
    exponent_bounds,
    lambda_p,
    re_phi,
)


def j0_integral_oracle(x):
    """J0(x) = (1/pi) int_0^pi cos(x sin theta) d theta, by dense trapezoid."""
    theta = np.linspace(0.0, np.pi, 20001)
    return np.trapezoid(np.cos(x * np.sin(theta)), theta) / np.pi


def y0_integral_oracle(x):
    """Y0(x) = -(2/pi) int_0^inf cos(x cosh t) dt is slowly convergent; use the
    scipy implementation as the independent oracle instead."""
    import scipy.special

    return scipy.special.y0(x)


class TestBesselJ0:
    def test_against_integral_representation(self):
        for x in np.linspace(0.05, 50.0, 173):
            assert bessel_j0(x) == pytest.approx(j0_integral_oracle(x), abs=5e-11)

    def test_against_scipy_grid(self):
        scipy_special = pytest.importorskip("scipy.special")
        x = np.linspace(1e-6, 60.0, 50000)
        err = np.max(np.abs(bessel_j0(x) - scipy_special.j0(x)))
        assert err <= 1e-11

    def test_first_zero(self):
        # bisection on our implementation against the classical value
        lo, hi = 2.0, 3.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if bessel_j0(lo) * bessel_j0(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert 0.5 * (lo + hi) == pytest.approx(2.404825557695773, abs=1e-12)

    def test_at_zero_and_symmetry(self):
        assert bessel_j0(0.0) == pytest.approx(1.0)
        assert bessel_j0(-3.7) == pytest.approx(bessel_j0(3.7))


class TestBesselY0:
    def test_known_value_at_one(self):
        assert bessel_y0(1.0) == pytest.approx(0.08825696421567696, abs=1e-13)

    def test_against_scipy_grid(self):
        scipy_special = pytest.importorskip("scipy.special")
        x = np.linspace(1e-4, 60.0, 50000)
        err = np.max(np.abs(bessel_y0(x) - scipy_special.y0(x)))
        assert err <= 1e-10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bessel_y0(0.0)
        with pytest.raises(ValueError):
            bessel_y0(np.array([1.0, -2.0]))


class TestRePhi:
    def test_3d_value_at_pi(self):
        # cos(pi)/(4 pi^2) from the half-integer Hankel reduction
        assert re_phi(np.pi, 3) == pytest.approx(-1.0 / (4 * np.pi**2), abs=1e-14)

    def test_2d_is_minus_quarter_y0(self):
        for r in (0.3, 1.0, 7.5):
            assert re_phi(r, 2) == pytest.approx(-0.25 * bessel_y0(r))

    def test_vectorized(self):
        r = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(re_phi(r, 3), np.cos(r) / (4 * np.pi * r))

    def test_rejects_nonpositive_and_bad_dim(self):
        with pytest.raises(ValueError):
            re_phi(0.0, 3)
        with pytest.raises(ValueError):
            re_phi(1.0, 4)


class TestExponents:
    def test_bounds(self):
        assert exponent_bounds(3) == (4.0, 6.0)
        lo, hi = exponent_bounds(2)
        assert lo == 6.0 and hi == np.inf

    def test_check(self):
        check_exponent(3, 5.0)
        check_exponent(2, 8.0)
        with pytest.raises(ValueError):
            check_exponent(3, 4.0)  # endpoint excluded
        with pytest.raises(ValueError):
            check_exponent(2, 6.0)

    def test_lambda_p_values(self):
        assert lambda_p(3, 5.0) == pytest.approx(0.2)
        assert lambda_p(2, 8.0) == pytest.approx(0.125)
        # positive on the whole admissible range
        for p in np.linspace(4.01, 5.99, 20):
            assert lambda_p(3, p) > 0


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(4)

    def test_singular_cell_replaced(self):
        spec = KernelSpec(3)
        h = 0.5
        r = np.array([0.0, h, 2 * h])
        out = spec.evaluate(r, h)
        assert out[0] == pytest.approx(spec.center_weight(h))
        np.testing.assert_allclose(out[1:], re_phi(r[1:], 3))

    def test_uncorrected_center_weight_3d(self):
        # analytic mean of 1/(4 pi r) over the volume-equivalent ball
        spec = KernelSpec(3, corrected=False)
        h = 0.4
        a = h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
        assert spec.center_weight(h) == pytest.approx(3.0 / (8 * np.pi * a))

    def test_corrected_weight_matches_singular_scale(self):
        # the moment-fitted weight is a finite correction of the same order
        # as the leading-term cell average, not a wildly different scale
        for dim in (2, 3):
            h = 0.9375
            plain = KernelSpec(dim, corrected=False).center_weight(h)
            fitted = KernelSpec(dim, corrected=True).center_weight(h)
            assert 0.2 * plain < fitted < 5.0 * plain
