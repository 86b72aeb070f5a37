"""Real part of the Helmholtz fundamental solution and its special functions.

For unit wavenumber the free-space kernel is

    N = 3:  Re Phi(r) = cos(r) / (4 pi r)
    N = 2:  Re Phi(r) = -Y0(r) / 4

Y0 is evaluated by the ascending series for moderate arguments and by the large-argument
(Hankel) expansion beyond; the crossover at x = 13 keeps both branches below ~1e-11 absolute
error in double precision.  The tests check it against scipy's Y0 and, needing no scipy,
against an integral representation of Y0 and zeros tabulated by Abramowitz & Stegun.

The kernel's moment against a Gaussian window, which fixes the center weight of
KernelSpec, has a closed form through Ei (N = 2) and Dawson's integral (N = 3);
both are summed from their series to round-off, with no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EULER_GAMMA = 0.5772156649015328606

_SERIES_CUTOFF = 13.0
_SERIES_TERMS = 48
_ASYMPTOTIC_TERMS = 34

#: width of the Gaussian window of the moment-fitted center weight, in spacings
_SINGULAR_WINDOW = 3.0
_EPS = np.finfo(np.float64).eps
#: x = -ln(eps): from here on the asymptotic series of the window moment reach round-off
_MOMENT_ASYMPTOTIC = -math.log(_EPS)


def _y0_series(x: np.ndarray) -> np.ndarray:
    """(2/pi) [ (ln(x/2) + gamma) J0(x) + sum_k (-1)^(k+1) H_k (x^2/4)^k / (k!)^2 ].

    J0's series shares the terms (-q)^k / (k!)^2, so one recursion builds both sums.
    """
    q = 0.25 * x * x
    term = np.ones_like(x)
    j0 = np.ones_like(x)
    harmonic = 0.0
    total = np.zeros_like(x)
    for k in range(1, _SERIES_TERMS):
        term = term * (-q) / (k * k)
        j0 = j0 + term
        harmonic += 1.0 / k
        total = total - harmonic * term  # (-1)^(k+1) H_k q^k/(k!)^2
    return (2.0 / np.pi) * ((np.log(0.5 * x) + EULER_GAMMA) * j0 + total)


def _asymptotic_pq(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P, Q of the large-argument expansion, truncated where the terms stop shrinking.

    H0^(1)(x) ~ sqrt(2/(pi x)) e^{i(x - pi/4)} (P(x) - i Q(x)), with
    P = 1 - c2/x^2 + c4/x^4 - ...,  Q = c1/x - c3/x^3 + ...,
    c_m = prod_{j<=m} (2j-1)^2 / (8j).
    """
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)  # c_m / x^m, with sign handled below
    active = np.ones_like(x, dtype=bool)
    for m in range(1, _ASYMPTOTIC_TERMS):
        ratio = (2 * m - 1) ** 2 / (8.0 * m * x)
        # stop (per element) once the expansion starts diverging
        active = active & (ratio < 1.0)
        term = term * ratio
        contrib = np.where(active, term, 0.0)
        sign = (-1.0) ** (m // 2)
        if m % 2 == 1:
            q = q + sign * contrib
        else:
            p = p + sign * contrib
    return p, q


def _y0_large(x: np.ndarray) -> np.ndarray:
    """Y0 = Im H0^(1) from the large-argument expansion."""
    p, q = _asymptotic_pq(x)
    theta = x - 0.25 * np.pi
    return np.sqrt(2.0 / (np.pi * x)) * (p * np.sin(theta) - q * np.cos(theta))


def bessel_y0(x):
    """Bessel function of the second kind, order zero (finite x > 0)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all((x > 0) & (x < np.inf)):  # NaN fails both comparisons
        raise ValueError("bessel_y0 requires finite x > 0")
    small = x <= _SERIES_CUTOFF
    out = np.empty_like(x)
    if np.any(small):
        out[small] = _y0_series(x[small])
    if np.any(~small):
        out[~small] = _y0_large(x[~small])
    return out if out.ndim else float(out)


def re_phi(r, dim: int):
    """Re Phi(r) for the unit-wavenumber Helmholtz equation, finite r > 0."""
    r = np.asarray(r, dtype=np.float64)
    if not np.all((r > 0) & (r < np.inf)):  # NaN fails both comparisons
        raise ValueError("re_phi requires finite r > 0")
    if dim == 3:
        out = np.cos(r) / (4.0 * np.pi * r)
    elif dim == 2:
        out = -0.25 * np.asarray(bessel_y0(r))
    else:
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    return out if out.ndim else float(out)


def _series(first: float, ratio, max_terms: int) -> float:
    """sum_{k < max_terms} t_k with t_0 = first, t_k = t_(k-1) ratio(k); stops at round-off."""
    term = total = first
    for k in range(1, max_terms):
        term *= ratio(k)
        total += term
        if term <= 0.5 * _EPS * total:
            break
    return total


def _gaussian_moment(dim: int, sigma: float) -> float:
    """int over R^N of Re Phi(|x|) exp(-|x|^2 / (2 sigma^2)) dx, in closed form.

    With x = sigma^2 / 2 it is -x e^-x Ei(x) for N = 2 and 2x (1 - 2 sqrt(x) D(sqrt(x)))
    for N = 3, D being Dawson's integral.  Up to x = -ln(eps) both come from positive-term
    ascending series,

        Ei(x) = gamma + ln x + sum_{k>=1} x^k / (k k!),
        2 sqrt(x) D(sqrt(x)) = 2 e^-x sum_{k>=0} x^(k+1) / (k! (2k+1));

    beyond, from the asymptotic series x e^-x Ei(x) ~ sum_{k>=0} k! / x^k and
    1 - 2 sqrt(x) D(sqrt(x)) ~ -sum_{k>=1} (2k-1)!! / (2x)^k, cut before their terms grow.
    """
    x = 0.5 * sigma * sigma
    if x >= _MOMENT_ASYMPTOTIC:
        if dim == 2:
            return -_series(1.0, lambda k: k / x, int(x))
        return -2.0 * x * _series(0.5 / x, lambda k: (2 * k + 1) / (2.0 * x), int(x))
    # below -ln(eps) the ascending series reach round-off well before 1000 terms
    if dim == 2:
        tail = _series(x, lambda k: x * k / (k + 1) ** 2, 1000)
        return -x * math.exp(-x) * (EULER_GAMMA + math.log(x) + tail)
    tail = _series(x, lambda k: x * (2 * k - 1) / (k * (2 * k + 1)), 1000)
    return 2.0 * x * (1.0 - 2.0 * math.exp(-x) * tail)


def exponent_bounds(dim: int) -> tuple[float, float]:
    """Admissible open interval for the nonlinearity exponent p."""
    if dim == 2:
        return 6.0, np.inf
    if dim == 3:
        return 2.0 * (dim + 1) / (dim - 1), 2.0 * dim / (dim - 2)
    raise ValueError(f"dim must be 2 or 3, got {dim}")


def check_exponent(dim: int, p: float) -> None:
    lo, hi = exponent_bounds(dim)
    if not (lo < p < hi):
        raise ValueError(f"p = {p} outside admissible range ({lo}, {hi}) for dim {dim}")


def lambda_p(dim: int, p: float) -> float:
    """Interaction-decay exponent (N-1)/2 - (N+1)/p; positive on the admissible range."""
    check_exponent(dim, p)
    return (dim - 1) / 2.0 - (dim + 1) / p


@dataclass(frozen=True)
class KernelSpec:
    """Free-space kernel with a moment-fitted value for the singular cell.

    The singular cell is r == 0; on the difference lattice every other radius
    is at least the grid spacing.  There the pointwise kernel is replaced by a
    finite cell weight, chosen so that the punctured lattice sum integrates the
    kernel exactly against a Gaussian window of width 3 spacings.  The exact
    integral over R^N is the closed-form moment of ``_gaussian_moment`` (Ei for
    N = 2, Dawson's integral for N = 3), so the weight costs one lattice sum and
    no quadrature.  This cancels the low-frequency bias of sampling a
    slowly-decaying oscillatory kernel on a lattice and is what makes the direct
    oracle agree with the spectral route at coarse spacing.
    """

    dim: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")

    def singular_cell_value(self, spacing: float) -> float:
        """Analytic cell average of the leading singular term: center_weight's plain reference."""
        if self.dim == 3:
            a = spacing * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
            return 3.0 / (8.0 * np.pi * a)
        a = spacing / np.sqrt(np.pi)
        # mean of log r over the disk of radius a is log(a) - 1/2
        return -(EULER_GAMMA + np.log(0.5 * a) - 0.5) / (2.0 * np.pi)

    def center_weight(self, spacing: float) -> float:
        """Moment-fitted center weight: the window's closed-form moment minus the punctured
        lattice sum of kernel * window, per cell volume."""
        if not 0.0 < spacing < np.inf:  # NaN fails too; the weight takes log(spacing)
            raise ValueError(f"spacing must be positive and finite, got {spacing}")
        sw = _SINGULAR_WINDOW * spacing
        exact = _gaussian_moment(self.dim, sw)
        rmax = 9.0 * sw
        # punctured lattice sum of kernel * window, truncated where the window dies
        m = int(np.ceil(rmax / spacing))
        r_sq = sum(np.ix_(*((spacing * np.arange(-m, m + 1)) ** 2,) * self.dim))
        rr = np.sqrt(r_sq[r_sq > 1e-20])
        lattice = np.sum(re_phi(rr, self.dim) * np.exp(-(rr * rr) / (2.0 * sw * sw)))
        return (exact - lattice * spacing**self.dim) / spacing**self.dim

    def evaluate(self, r: np.ndarray, spacing: float) -> np.ndarray:
        """Kernel on an array of radii, with the singular cell replaced by its weight."""
        out = np.empty_like(r)
        sing = r == 0.0
        if np.any(sing):
            out[sing] = self.center_weight(spacing)
        out[~sing] = re_phi(r[~sing], self.dim)
        return out
