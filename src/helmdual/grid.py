"""Periodic-box discretization: grid construction, quadrature norms, shifted DFT.

The box is [-L, L)^N with n uniform nodes per axis, x_j = -L + j*h, h = 2L/n.
The frequency lattice is shifted by half the spacing pi/L on every axis:
xi_m = (pi/L) * (m + 1/2), m in the centered integer range.  The shift still
pairs every xi with -xi, so real fields have real transforms, and it keeps
the lattice away from the unit sphere |xi| = 1 for most L, which is where the
Helmholtz multiplier is singular.

Transform convention (forward / inverse):

    F_m = h^N * sum_j f_j exp(-i xi_m . x_j)
    f_j = (2L)^-N * sum_m F_m exp(+i xi_m . x_j)

so that Parseval reads  h^N sum |f_j|^2 = (2L)^-N sum |F_m|^2.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

#: lattice points closer than this to |xi| = 1 make the delta = 0 resolvent singular
UNIT_CIRCLE_TOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^N with the half-shifted frequency lattice.

    Construction checks that dim is 2 or 3, 0 < L < inf, and n is even and at least 8.
    """

    dim: int
    half_length: float
    points_per_axis: int

    # derived in __post_init__, compared by value through the fields above
    spacing: float = field(init=False, compare=False, default=0.0)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if not 0.0 < self.half_length < np.inf:
            raise ValueError(f"half_length must be positive and finite, got {self.half_length}")
        if not (self.points_per_axis >= 8 and self.points_per_axis % 2 == 0):
            raise ValueError(f"points_per_axis must be even and >= 8, got {self.points_per_axis}")
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

    @property
    def freq_axis(self) -> np.ndarray:
        """Shifted frequencies (pi/L)(m + 1/2) along every axis, in FFT storage order."""
        n = self.points_per_axis
        m = np.fft.fftfreq(n, d=1.0 / n)  # integers 0..n/2-1, -n/2..-1
        return (np.pi / self.half_length) * (m + 0.5)

    @property
    def xi_squared(self) -> np.ndarray:
        """|xi_m|^2 on the full lattice, FFT storage order."""
        return sum(np.ix_(*(self.freq_axis**2,) * self.dim))

    @property
    def min_unit_circle_distance(self) -> float:
        """min |  |xi_m| - 1  | over the whole lattice (exhaustive scan)."""
        return float(np.min(np.abs(np.sqrt(self.xi_squared) - 1.0)))

    @property
    def singular(self) -> bool:
        """True if some lattice point sits on the unit sphere (delta = 0 forbidden)."""
        return self.min_unit_circle_distance < UNIT_CIRCLE_TOL


def make_grid(dim: int, half_length: float, points_per_axis: int) -> Grid:
    """Build a periodic grid from integer-like sizes and a real half-length."""
    return Grid(operator.index(dim), float(half_length), operator.index(points_per_axis))


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
    """Midpoint-quadrature L^q norm, (h^N sum |f_j|^q)^(1/q), for finite q >= 1."""
    if not 1 <= q < np.inf:  # NaN fails too
        raise ValueError(f"q must be finite and >= 1, got {q}")
    return float((f.grid.cell_volume * np.sum(np.abs(f.values) ** q)) ** (1.0 / q))


def _l2(values: np.ndarray) -> float:
    """Euclidean norm of an array as sqrt(sum x^2), numpy's pairwise sum.

    np.linalg.norm goes through BLAS dot, which splits the sum across threads, so its last
    bits depend on the thread count; this does not.
    """
    return float(np.sqrt(np.sum(values * values)))


def _squared_distance(coords, center) -> np.ndarray:
    """|x - c|^2 at coordinates that broadcast (an open mesh: np.ix_ of the axes).

    The axis terms are summed left to right, (t0 + t1) + t2: numpy's order for a sum over a
    trailing axis of length 3, so a mesh gives the bits of a stacked point array.
    """
    return sum((x - c) ** 2 for x, c in zip(coords, center))


def inner_product(f: Field, g: Field) -> float:
    """Quadrature L^2 pairing h^N sum f_j g_j."""
    _check_same_grid(f, g)
    return float(f.grid.cell_volume * np.sum(f.values * g.values))


def _shift_modulation(grid: Grid, last: int | None = None) -> np.ndarray:
    """exp(-2 pi i (1/2) j_d / n) per axis, the node-side phase carrying the lattice shift.

    With ``last``, only the first ``last`` nodes of the last axis are built: the same bits
    as ``_shift_modulation(grid)[..., :last]``, with no array of the whole grid.
    """
    n = grid.points_per_axis
    j = np.arange(n)
    axis = np.exp(-2j * np.pi * 0.5 * j / n)
    return functools.reduce(np.multiply, np.ix_(*(axis,) * (grid.dim - 1), axis[:last]))


def _freq_phase(grid: Grid) -> np.ndarray:
    """exp(+i pi (m_d + 1/2)) per axis, the frequency-side phase from x_0 = -L."""
    n = grid.points_per_axis
    m = np.fft.fftfreq(n, d=1.0 / n)
    axis = np.exp(1j * np.pi * (m + 0.5))
    return functools.reduce(np.multiply, np.ix_(*(axis,) * grid.dim))


# The transforms work in place on one complex array.  Complex products keep their operand
# order (a * b as multiply(a, b, out=...)): with fused multiply-adds they are not commutative
# bit for bit.

def dft_forward(f: Field) -> np.ndarray:
    """Coefficients F_m = h^N sum_j f_j exp(-i xi_m . x_j) on the shifted lattice."""
    grid = f.grid
    g = f.values * _shift_modulation(grid)
    np.fft.fftn(g, out=g)
    phase = _freq_phase(grid)
    phase *= grid.cell_volume
    return np.multiply(phase, g, out=g)


def dft_inverse(spectrum: np.ndarray, grid: Grid) -> Field:
    """Inverse of :func:`dft_forward`; raises if the result is not real."""
    if spectrum.shape != grid.shape:
        raise ValueError(f"spectrum shape {spectrum.shape} != grid shape {grid.shape}")
    g = np.conjugate(_freq_phase(grid))
    np.multiply(spectrum, g, out=g)
    np.fft.ifftn(g, out=g)
    modulation = _shift_modulation(grid)
    g *= np.conjugate(modulation, out=modulation)
    del modulation
    g /= grid.cell_volume
    if np.max(np.abs(g.imag)) > 1e-10 * np.max(np.abs(g.real)):
        raise ValueError("inverse transform produced a non-real field")
    return Field(grid, g.real.copy())  # a real array, not a view holding the complex one


def spectral_laplacian(f: Field) -> Field:
    """Laplacian via multiplication by -|xi|^2 on the shifted lattice."""
    spectrum = dft_forward(f)
    np.multiply(np.negative(f.grid.xi_squared), spectrum, out=spectrum)
    return dft_inverse(spectrum, f.grid)
