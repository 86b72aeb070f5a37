"""Bessel implementations against independent oracles; kernel and exponents."""

import numpy as np
import pytest

import helmdual.kernels
from helmdual.kernels import (
    EULER_GAMMA,
    KernelSpec,
    _SERIES_TERMS,
    _gaussian_moment,
    _j0_series,
    _y0_series,
    bessel_j0,
    bessel_y0,
    check_exponent,
    exponent_bounds,
    lambda_p,
    re_phi,
)
from helmdual.resolvent import _kernel_spectrum


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            bessel_y0(bad)
        with pytest.raises(ValueError, match="finite"):
            bessel_y0(np.array([1.0, bad]))

    def test_series_bit_identical_to_separate_j0_sum(self):
        # the one-loop series against (ln(x/2) + gamma) J0 taken from J0's own series
        x = np.linspace(1e-6, 13.0, 50001)
        q = 0.25 * x * x
        term, harmonic, total = np.ones_like(x), 0.0, np.zeros_like(x)
        for k in range(1, _SERIES_TERMS):
            term = term * (-q) / (k * k)
            harmonic += 1.0 / k
            total = total - harmonic * term
        separate = (2.0 / np.pi) * ((np.log(0.5 * x) + EULER_GAMMA) * _j0_series(x) + total)
        np.testing.assert_array_equal(_y0_series(x), separate)
        np.testing.assert_array_equal(bessel_y0(x), separate)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_rejects_non_finite(self, dim, bad):
        with pytest.raises(ValueError, match="finite"):
            re_phi(bad, dim)
        with pytest.raises(ValueError, match="finite"):
            re_phi(np.array([0.5, bad]), dim)


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
        spec = KernelSpec(3)
        h = 0.4
        a = h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
        assert spec.singular_cell_value(h) == pytest.approx(3.0 / (8 * np.pi * a))

    def test_corrected_weight_matches_singular_scale(self):
        # the moment-fitted weight is a finite correction of the same order
        # as the leading-term cell average, not a wildly different scale
        for dim in (2, 3):
            h = 0.9375
            plain = KernelSpec(dim).singular_cell_value(h)
            fitted = KernelSpec(dim).center_weight(h)
            assert 0.2 * plain < fitted < 5.0 * plain

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_center_weight_rejects_bad_spacing(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            KernelSpec(2).center_weight(bad)


def _moment_reference(dim, h):
    """The window moment from mpmath's Ei and erfi: D(z) = (sqrt(pi)/2) e^(-z^2) erfi(z)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        sigma = 3 * mpmath.mpf(h)
        x = sigma**2 / 2
        if dim == 2:
            return float(-x * mpmath.exp(-x) * mpmath.ei(x))
        z = mpmath.sqrt(x)
        dawson = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-z * z) * mpmath.erfi(z)
        return float(sigma**2 * (1 - 2 * z * dawson))


class TestGaussianMoment:
    """The center weight's exact integral int Re Phi(|x|) exp(-|x|^2 / (2 sigma^2)) dx."""

    # 2.8 and 2.9 put x = 4.5 h^2 on either side of the switch to the asymptotic series
    @pytest.mark.parametrize("dim, h", [
        *((2, h) for h in (0.1, 0.234, 0.469, 1.25, 1.875, 2.8, 2.9, 3.0)),
        *((3, h) for h in (0.25, 0.5, 2 / 3, 1.0, 2.8, 2.9)),
    ])
    def test_closed_form_against_mpmath(self, dim, h):
        expected = _moment_reference(dim, h)
        assert _gaussian_moment(dim, 3.0 * h) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dim, h", [(2, 0.469), (3, 0.5)])
    def test_identity_against_quadrature(self, dim, h):
        # the radial integral itself, so the closed form is pinned independently of Ei and D
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(15):
            sigma = 3.0 * h
            if dim == 2:  # -Y0(r)/4 on the shell 2 pi r
                radial = lambda r: -mpmath.bessely(0, r) * r * mpmath.pi / 2
            else:  # cos(r)/(4 pi r) on the shell 4 pi r^2
                radial = lambda r: mpmath.cos(r) * r
            exact = mpmath.quad(lambda r: radial(r) * mpmath.exp(-r * r / (2 * sigma**2)),
                                [0, 10 * sigma])
        assert _gaussian_moment(dim, sigma) == pytest.approx(float(exact), rel=1e-12, abs=0.0)


class TestKernelTable:
    @pytest.mark.parametrize("dim, n, h", [(2, 32, 1.875), (2, 33, 0.7), (3, 16, 0.5)])
    def test_orthant_mirror_equals_full_lattice(self, dim, n, h):
        spec = KernelSpec(dim)
        diff_sq = (h * np.arange(1 - n, n)) ** 2
        full = spec.evaluate(np.sqrt(sum(np.ix_(*(diff_sq,) * dim))), h)
        expected = np.fft.rfftn(full, (2 * n,) * dim, tuple(range(dim)))
        np.testing.assert_array_equal(_kernel_spectrum(dim, n, h), expected)

    def test_kernel_evaluations_scale_with_the_lattice(self, monkeypatch):
        radii = []

        def counting(r, dim):
            radii.append(np.size(r))
            return re_phi(r, dim)

        monkeypatch.setattr(helmdual.kernels, "re_phi", counting)
        _kernel_spectrum(2, 80, 1.5)
        # the orthant of the table plus the center weight's punctured lattice sum
        assert sum(radii) <= 80**2 + 55**2
