"""Real part of the Helmholtz fundamental solution and its special functions.

For unit wavenumber the free-space kernel is

    N = 3:  Re Phi(r) = cos(r) / (4 pi r)
    N = 2:  Re Phi(r) = -Y0(r) / 4

J0 and Y0 are evaluated by the ascending series for moderate arguments and by
the large-argument (Hankel) expansion beyond; the crossover at x = 13 keeps
both branches below ~1e-11 absolute error in double precision.  The test
suite validates them against independent integral-representation quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EULER_GAMMA = 0.5772156649015328606

_SERIES_CUTOFF = 13.0
_SERIES_TERMS = 48
_ASYMPTOTIC_TERMS = 34

#: width of the Gaussian window of the moment-fitted center weight, in spacings
_SINGULAR_WINDOW = 3.0


def _j0_series(x: np.ndarray) -> np.ndarray:
    """sum_k (-1)^k (x^2/4)^k / (k!)^2."""
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, _SERIES_TERMS):
        term = term * (-q) / (k * k)
        total = total + term
    return total


def _y0_series(x: np.ndarray) -> np.ndarray:
    """(2/pi) [ (ln(x/2) + gamma) J0(x) + sum_k (-1)^(k+1) H_k (x^2/4)^k / (k!)^2 ]."""
    q = 0.25 * x * x
    term = np.ones_like(x)
    harmonic = 0.0
    total = np.zeros_like(x)
    for k in range(1, _SERIES_TERMS):
        term = term * (-q) / (k * k)
        harmonic += 1.0 / k
        total = total - harmonic * term  # (-1)^(k+1) H_k q^k/(k!)^2
    return (2.0 / np.pi) * ((np.log(0.5 * x) + EULER_GAMMA) * _j0_series(x) + total)


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


def _j0_y0_large(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p, q = _asymptotic_pq(x)
    amp = np.sqrt(2.0 / (np.pi * x))
    theta = x - 0.25 * np.pi
    return (amp * (p * np.cos(theta) + q * np.sin(theta)),
            amp * (p * np.sin(theta) - q * np.cos(theta)))


def bessel_j0(x):
    """Bessel function of the first kind, order zero."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    small = x <= _SERIES_CUTOFF
    out = np.empty_like(x)
    if np.any(small):
        out[small] = _j0_series(x[small])
    if np.any(~small):
        out[~small] = _j0_y0_large(x[~small])[0]
    return out if out.ndim else float(out)


def bessel_y0(x):
    """Bessel function of the second kind, order zero (x > 0)."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0):
        raise ValueError("bessel_y0 requires x > 0")
    small = x <= _SERIES_CUTOFF
    out = np.empty_like(x)
    if np.any(small):
        out[small] = _y0_series(x[small])
    if np.any(~small):
        out[~small] = _j0_y0_large(x[~small])[1]
    return out if out.ndim else float(out)


def re_phi(r, dim: int):
    """Re Phi(r) for the unit-wavenumber Helmholtz equation, r > 0."""
    r = np.asarray(r, dtype=np.float64)
    if np.any(r <= 0):
        raise ValueError("re_phi requires r > 0")
    if dim == 3:
        out = np.cos(r) / (4.0 * np.pi * r)
    elif dim == 2:
        out = -0.25 * np.asarray(bessel_y0(r))
    else:
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    return out if out.ndim else float(out)


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
    """Free-space kernel with a regularized value for the singular cell.

    The singular cell is r == 0; on the difference lattice every other radius
    is at least the grid spacing.  There the pointwise kernel is replaced by a
    finite cell weight.  Two choices are implemented:

    * ``corrected=True`` (default): a moment-fitted weight.  The center
      weight is chosen so that the punctured lattice sum integrates the
      kernel exactly against a Gaussian window of width 3 spacings.  This
      cancels the low-frequency bias of sampling a slowly-decaying
      oscillatory kernel on a lattice and is what makes the direct oracle
      agree with the spectral route at coarse spacing.
    * ``corrected=False``: the analytic average of the leading singular term
      over a cell-volume-equivalent ball (1/(4 pi r) for N = 3, the log term
      for N = 2).  Kept as the plain second-order reference.
    """

    dim: int
    corrected: bool = True

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")

    def singular_cell_value(self, spacing: float) -> float:
        """Analytic cell average of the leading singular term over one grid cell."""
        if self.dim == 3:
            a = spacing * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
            return 3.0 / (8.0 * np.pi * a)
        a = spacing / np.sqrt(np.pi)
        # mean of log r over the disk of radius a is log(a) - 1/2
        return -(EULER_GAMMA + np.log(0.5 * a) - 0.5) / (2.0 * np.pi)

    def corrected_cell_value(self, spacing: float) -> float:
        """Moment-fitted center weight: exact kernel integral against a Gaussian window."""
        sw = _SINGULAR_WINDOW * spacing
        rmax = 9.0 * sw
        r = np.linspace(1e-8, rmax, 200_001)
        window = np.exp(-(r * r) / (2.0 * sw * sw))
        if self.dim == 2:
            shell = 2.0 * np.pi * r
        else:
            shell = 4.0 * np.pi * r * r
        exact = np.trapezoid(re_phi(r, self.dim) * window * shell, r)
        # punctured lattice sum of kernel * window, truncated where the window dies
        m = int(np.ceil(rmax / spacing))
        r_sq = sum(np.ix_(*((spacing * np.arange(-m, m + 1)) ** 2,) * self.dim))
        rr = np.sqrt(r_sq[r_sq > 1e-20])
        lattice = np.sum(re_phi(rr, self.dim) * np.exp(-(rr * rr) / (2.0 * sw * sw)))
        return (exact - lattice * spacing**self.dim) / spacing**self.dim

    def center_weight(self, spacing: float) -> float:
        if self.corrected:
            return self.corrected_cell_value(spacing)
        return self.singular_cell_value(spacing)

    def evaluate(self, r: np.ndarray, spacing: float) -> np.ndarray:
        """Kernel on an array of radii, with the singular cell replaced by its weight."""
        out = np.empty_like(r)
        sing = r == 0.0
        if np.any(sing):
            out[sing] = self.center_weight(spacing)
        out[~sing] = re_phi(r[~sing], self.dim)
        return out
