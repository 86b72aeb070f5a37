"""Real Helmholtz resolvent as a Fourier multiplier, plus a direct-space oracle.

The multiplier is Re 1/(|xi|^2 - 1 - i delta) = (|xi|^2 - 1)/((|xi|^2 - 1)^2 + delta^2).
With delta = 0 it requires a frequency lattice that avoids |xi| = 1 (see
Grid.singular).  The direct route (mode "direct_oracle") convolves with the
free-space kernel by one zero-padded FFT: no periodic images and no delta.  Its
inverse transforms only the lines the window keeps: 4n+2 1-D transforms per field
in 2D and 8n^2+6n in 3D, forward and inverse together.
R maps real fields to real fields, so one complex FFT pair serves two.  Each grid and
config has one route (``_route``), whose read-only arrays are built once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, _l2, _shift_modulation, spectral_laplacian
from .kernels import KernelSpec


class SingularLatticeError(ValueError):
    """delta = 0 requested on a lattice containing |xi| = 1."""


class GridTooLargeError(ValueError):
    """Direct-space oracle guard exceeded."""


#: default node-count guards for the direct route: the sizes the multiplier route serves
DIRECT_GUARD = {2: 512**2, 3: 64**3}


@dataclass(frozen=True)
class ResolventConfig:
    delta: float = 0.0
    mode: str = "multiplier"

    def __post_init__(self):
        if not 0.0 <= self.delta < np.inf:
            raise ValueError(f"delta must be nonnegative and finite, got {self.delta}")
        if self.mode not in ("multiplier", "direct_oracle"):
            raise ValueError(f"unknown resolvent mode {self.mode!r}")


def multiplier_value(xi_sq, delta: float):
    """Re 1/(|xi|^2 - 1 - i delta) as a function of |xi|^2."""
    xi_sq = np.asarray(xi_sq, dtype=np.float64)
    if not 0.0 <= delta < np.inf:  # NaN fails too
        raise ValueError(f"delta must be nonnegative and finite, got {delta}")
    diff = xi_sq - 1.0
    if delta == 0.0:
        if np.any(diff == 0.0):
            raise SingularLatticeError("multiplier singular at |xi|^2 = 1 with delta = 0")
        out = 1.0 / diff
    else:
        out = diff / (diff * diff + delta * delta)
    return out if out.ndim else float(out)


def _route(grid: Grid, cfg: ResolventConfig, max_nodes: int | None = None):
    """R on grid under cfg for one or two real arrays; direct only to max_nodes (DIRECT_GUARD)."""
    guard = max_nodes if max_nodes is not None else DIRECT_GUARD[grid.dim]
    if cfg.mode == "direct_oracle" and grid.num_nodes > guard:
        raise GridTooLargeError(f"{grid.num_nodes} nodes exceeds direct-oracle guard {guard}")
    # the free-space kernel reads no delta: a direct route is keyed without it
    return _build_route(grid, cfg.mode, cfg.delta if cfg.mode == "multiplier" else 0.0)


# bounded at 4 entries (M and S, or one kernel spectrum): two grids under both routes
@functools.lru_cache(maxsize=4)
def _build_route(grid: Grid, mode: str, delta: float) -> functools.partial:
    """The route's arrays, built once per grid, mode and delta and shared read-only after."""
    if mode == "direct_oracle":
        apply = _convolve
        arrays = (_kernel_spectrum(grid.dim, grid.points_per_axis, grid.spacing),)
    elif delta == 0.0 and grid.singular:
        raise SingularLatticeError(
            "frequency lattice contains |xi| = 1; change the box or use delta > 0"
        )
    else:
        apply = _multiply
        arrays = (_shift_modulation(grid), multiplier_value(grid.xi_squared, delta))
    for arr in arrays:
        arr.flags.writeable = False
    return functools.partial(apply, grid, *arrays)


def _multiply(grid: Grid, modulation, symbol, *fields: np.ndarray) -> list[np.ndarray]:
    """R of one or two real arrays: R(a/alpha + i b/beta) = R a/alpha + i R b/beta.

    The frequency-side phase and the cell volume of dft_forward/dft_inverse cancel
    between the two transforms, so R f = conj(M) ifftn(S fftn(M f)) with the node-side
    shift modulation M and the real symbol S.  The half shift pairs every xi with -xi,
    so R f is real.  alpha, beta are the max-norms, so a large field's round-off stays
    out of a small one.  Of the equivalent roundings, x / alpha then / (1/alpha) keeps
    every 64^2, delta = 0 limit seed converging: there the Armijo test runs below
    round-off (ROADMAP item 4).
    """
    packed = np.zeros(grid.shape, np.complex128)
    norms = [float(max(x.max(), -x.min())) or 1.0 for x in fields]  # max |x|, with no |x| copy
    for part, x, norm in zip((packed.real, packed.imag), fields, norms):
        np.divide(x, norm, out=part)
    packed *= modulation
    np.fft.fftn(packed, out=packed)  # in place: out= needs numpy >= 2.0
    packed *= symbol
    np.fft.ifftn(packed, out=packed)
    # conj(M) z as conj(conj(z) M), bit for bit; the outer conj is the sign -1 below
    np.conjugate(packed, out=packed)
    packed *= modulation
    return [part / (sign / norm)
            for part, sign, norm in zip((packed.real, packed.imag), (1.0, -1.0), norms)]


def _kernel_spectrum(dim: int, n: int, h: float) -> np.ndarray:
    """rfftn at size (2n)^N of the kernel, center weight included, on the difference lattice.

    The kernel is radial and (h k)^2 == (h (-k))^2 bit for bit, so it is evaluated on the
    orthant of offsets 0..n-1 only and mirrored onto the (2n-1)^N lattice (index offset
    n-1 per axis): 2^N times fewer kernel evaluations, the same table.
    """
    orthant_sq = (h * np.arange(n)) ** 2
    orthant = KernelSpec(dim).evaluate(np.sqrt(sum(np.ix_(*(orthant_sq,) * dim))), h)
    kernel = orthant[np.ix_(*(np.abs(np.arange(1 - n, n)),) * dim)]
    return np.fft.rfftn(kernel, (2 * n,) * dim, tuple(range(dim)))


def _convolve(grid: Grid, spectrum, *fields: np.ndarray) -> list[np.ndarray]:
    """Free-space convolution with Re Phi of each array: the sum over all source cells.

    The kernel on the difference lattice (index offset n-1 per axis) and the
    field are zero-padded to (2n)^N; on the window [n-1, 2n-1) per axis their
    cyclic convolution has no wrap-around and equals the literal sum, at cost
    O((2n)^N log n).  Non-periodic: no images and no delta, which is exactly
    what makes it an independent check of the periodic multiplier route.

    The inverse is irfftn's, one axis at a time in its order, each leading axis
    cropped to the window right after its inverse: the next inverse and the final
    irfft see only kept lines.  1-D transforms per field: 4n+2 in 2D and 8n^2+6n
    in 3D, against 5n+2 and 12n^2+7n for the full irfftn cropped after; the real
    inverse output is n^(N-1) 2n doubles, not (2n)^N.  Each kept line is
    transformed from the same data as by irfftn, so the window is irfftn's bit for bit.
    """
    n = grid.points_per_axis
    size, axes = (2 * n,) * grid.dim, tuple(range(grid.dim))
    keep = slice(n - 1, 2 * n - 1)
    out = []
    for x in fields:
        padded = np.fft.rfftn(x, size, axes)
        padded *= spectrum
        for axis in axes[:-1]:
            np.fft.ifft(padded, axis=axis, out=padded)  # in place: one temporary fewer
            padded = padded[(slice(None),) * axis + (keep,)]
        window = np.fft.irfft(padded, 2 * n, axes[-1])[..., keep]
        out.append(grid.cell_volume * window)
    return out


def apply_R(f: Field, cfg: ResolventConfig) -> Field:
    """Resolvent applied to a field, on the route cfg names."""
    return Field(f.grid, _route(f.grid, cfg)(f.values)[0])


def apply_R_direct(f: Field, spec: KernelSpec, max_nodes: int | None = None) -> Field:
    """Free-space convolution with Re Phi by FFT (``_convolve``), refused above max_nodes."""
    if spec.dim != f.grid.dim:
        raise ValueError("kernel dimension does not match grid")
    route = _route(f.grid, ResolventConfig(mode="direct_oracle"), max_nodes)
    return Field(f.grid, route(f.values)[0])


def resolvent_identity_residual(f: Field, cfg: ResolventConfig) -> float:
    """Relative L^2 residual of -Laplacian(Rf) - Rf = f (exact for delta = 0)."""
    rf = apply_R(f, cfg)
    lhs = -spectral_laplacian(rf).values - rf.values
    denom = _l2(f.values)
    return _l2(lhs - f.values) / denom if denom > 0 else 0.0
