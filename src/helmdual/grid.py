"""Periodic-box discretization: grid construction, quadrature norms, shifted DFT.

The box is [-L, L)^N with n uniform nodes per axis, x_j = -L + j*h, h = 2L/n.
The frequency lattice may be shifted by half the spacing pi/L per axis:
xi_m = (pi/L) * (m + shift), shift in {0, 1/2}, m in the centered integer
range.  Only these two shifts pair every xi with -xi, so that real fields
have real transforms.  A half-spacing shift keeps the lattice away from the
unit sphere |xi| = 1, which is where the Helmholtz multiplier is singular.

Transform convention (forward / inverse):

    F_m = h^N * sum_j f_j exp(-i xi_m . x_j)
    f_j = (2L)^-N * sum_m F_m exp(+i xi_m . x_j)

so that Parseval reads  h^N sum |f_j|^2 = (2L)^-N sum |F_m|^2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

#: lattice points closer than this to |xi| = 1 make the delta = 0 resolvent singular
UNIT_CIRCLE_TOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^N with a (possibly shifted) frequency lattice.

    Use :func:`make_grid` instead of constructing directly; it validates the
    arguments and precomputes the lattice.
    """

    dim: int
    half_length: float
    points_per_axis: int
    freq_shift: tuple[float, ...]

    # precomputed in make_grid, compared by value through the fields above
    spacing: float = field(init=False, compare=False, default=0.0)

    def __post_init__(self):
        object.__setattr__(self, "spacing", 2.0 * self.half_length / self.points_per_axis)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def num_nodes(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def x_axis(self) -> np.ndarray:
        """Node coordinates along one axis, x_j = -L + j*h."""
        n, h = self.points_per_axis, self.spacing
        return -self.half_length + h * np.arange(n)

    def coords(self, axis: int) -> np.ndarray:
        """Node coordinate of every grid point along ``axis``, shaped like the grid."""
        n = self.points_per_axis
        shape = [1] * self.dim
        shape[axis] = n
        return self.x_axis.reshape(shape) * np.ones(self.shape)

    def freq_axis(self, axis: int) -> np.ndarray:
        """Shifted frequencies along one axis, in FFT storage order."""
        n = self.points_per_axis
        m = np.fft.fftfreq(n, d=1.0 / n)  # integers 0..n/2-1, -n/2..-1
        return (np.pi / self.half_length) * (m + self.freq_shift[axis])

    @property
    def xi_squared(self) -> np.ndarray:
        """|xi_m|^2 on the full lattice, FFT storage order."""
        return sum(np.ix_(*[self.freq_axis(d) ** 2 for d in range(self.dim)]))

    @property
    def min_unit_circle_distance(self) -> float:
        """min |  |xi_m| - 1  | over the whole lattice (exhaustive scan)."""
        return float(np.min(np.abs(np.sqrt(self.xi_squared) - 1.0)))

    @property
    def singular(self) -> bool:
        """True if some lattice point sits on the unit sphere (delta = 0 forbidden)."""
        return self.min_unit_circle_distance < UNIT_CIRCLE_TOL


def make_grid(dim: int, half_length: float, points_per_axis: int,
              freq_shift: tuple[float, ...] | None = None) -> Grid:
    """Build a periodic grid; default frequency shift is one half spacing per axis."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if half_length <= 0:
        raise ValueError("half_length must be positive")
    if points_per_axis < 8 or points_per_axis % 2 != 0:
        raise ValueError("points_per_axis must be even and >= 8")
    if freq_shift is None:
        freq_shift = (0.5,) * dim
    freq_shift = tuple(float(s) for s in freq_shift)
    if len(freq_shift) != dim:
        raise ValueError("freq_shift must have one entry per axis")
    if any(s not in (0.0, 0.5) for s in freq_shift):
        raise ValueError("freq_shift entries must be 0 or 0.5")
    return Grid(dim, float(half_length), int(points_per_axis), freq_shift)


@dataclass(frozen=True)
class Field:
    """Real scalar function sampled on a Grid (row-major node order)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != self.grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", values)

    def __add__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "Field":
        return Field(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.values)


def _check_same_grid(f: Field, g: Field) -> None:
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")


def lp_norm(f: Field, q: float) -> float:
    """Midpoint-quadrature L^q norm, (h^N sum |f_j|^q)^(1/q); q = inf gives the max norm."""
    if q == np.inf:
        return float(np.max(np.abs(f.values)))
    if q < 1:
        raise ValueError("q must be >= 1")
    return float((f.grid.cell_volume * np.sum(np.abs(f.values) ** q)) ** (1.0 / q))


def inner_product(f: Field, g: Field) -> float:
    """Quadrature L^2 pairing h^N sum f_j g_j."""
    _check_same_grid(f, g)
    return float(f.grid.cell_volume * np.sum(f.values * g.values))


def _shift_modulation(grid: Grid) -> np.ndarray:
    """exp(-2 pi i s_d j_d / n), the node-side phase carrying the lattice shift."""
    n = grid.points_per_axis
    j = np.arange(n)
    return functools.reduce(np.multiply,
                            np.ix_(*[np.exp(-2j * np.pi * s * j / n) for s in grid.freq_shift]))


def _freq_phase(grid: Grid) -> np.ndarray:
    """exp(+i pi (m_d + s_d)) per axis, the frequency-side phase from x_0 = -L."""
    n = grid.points_per_axis
    out = np.ones(grid.shape, dtype=np.complex128)
    m = np.fft.fftfreq(n, d=1.0 / n)
    for d, s in enumerate(grid.freq_shift):
        shape = [1] * grid.dim
        shape[d] = n
        out = out * np.exp(1j * np.pi * (m + s)).reshape(shape)
    return out


def dft_forward(f: Field) -> np.ndarray:
    """Coefficients F_m = h^N sum_j f_j exp(-i xi_m . x_j) on the shifted lattice."""
    grid = f.grid
    g = f.values * _shift_modulation(grid)
    return grid.cell_volume * _freq_phase(grid) * np.fft.fftn(g)


def dft_inverse(spectrum: np.ndarray, grid: Grid) -> Field:
    """Inverse of :func:`dft_forward`; raises if the result is not real."""
    if spectrum.shape != grid.shape:
        raise ValueError(f"spectrum shape {spectrum.shape} != grid shape {grid.shape}")
    g = np.fft.ifftn(spectrum * np.conj(_freq_phase(grid)))
    values = g * np.conj(_shift_modulation(grid)) / grid.cell_volume
    if np.max(np.abs(values.imag)) > 1e-10 * np.max(np.abs(values.real)):
        raise ValueError("inverse transform produced a non-real field "
                         "(frequency shift must be 0 or 0.5 per axis for real output)")
    return Field(grid, values.real)


def spectral_laplacian(f: Field) -> Field:
    """Laplacian via multiplication by -|xi|^2 on the shifted lattice."""
    return dft_inverse(-f.grid.xi_squared * dft_forward(f), f.grid)
