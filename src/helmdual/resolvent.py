"""Real Helmholtz resolvent as a Fourier multiplier, plus a direct-space oracle.

The multiplier is Re 1/(|xi|^2 - 1 - i delta) = (|xi|^2 - 1)/((|xi|^2 - 1)^2 + delta^2).
With delta = 0 it requires a frequency lattice that avoids |xi| = 1 (grid
invariant).  The direct route (mode "direct_oracle") convolves with the
free-space kernel by one zero-padded FFT: no periodic images and no delta.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, _real_field, _shift_modulation, inner_product, spectral_laplacian
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
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.mode not in ("multiplier", "direct_oracle"):
            raise ValueError(f"unknown resolvent mode {self.mode!r}")


def multiplier_value(xi_sq, delta: float):
    """Re 1/(|xi|^2 - 1 - i delta) as a function of |xi|^2."""
    xi_sq = np.asarray(xi_sq, dtype=np.float64)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    diff = xi_sq - 1.0
    if delta == 0.0:
        if np.any(diff == 0.0):
            raise SingularLatticeError("multiplier singular at |xi|^2 = 1 with delta = 0")
        out = 1.0 / diff
    else:
        out = diff / (diff * diff + delta * delta)
    return out if out.ndim else float(out)


# bounded: an entry holds two complex arrays and one real array of the grid's size
@functools.lru_cache(maxsize=4)
def _plan(grid: Grid, delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, conj M, S): the multiplier route's arrays, built once per grid and delta.

    The frequency-side phase and the cell volume of dft_forward/dft_inverse
    cancel between the two transforms, so R f = conj(M) ifftn(S fftn(M f))
    with the node-side shift modulation M and the real symbol S.
    """
    if delta == 0.0 and grid.singular:
        raise SingularLatticeError(
            "frequency lattice contains |xi| = 1; shift the lattice or use delta > 0"
        )
    modulation = _shift_modulation(grid)
    plan = (modulation, np.conj(modulation), multiplier_value(grid.xi_squared, delta))
    for arr in plan:
        arr.flags.writeable = False  # shared by every later call on this grid and delta
    return plan


def apply_R(f: Field, cfg: ResolventConfig) -> Field:
    """Resolvent applied to a field; multiplier route unless cfg says otherwise."""
    if cfg.mode == "direct_oracle":
        return apply_R_direct(f, KernelSpec(f.grid.dim))
    modulation, demodulation, symbol = _plan(f.grid, cfg.delta)
    spectrum = np.fft.fftn(modulation * f.values)
    spectrum *= symbol
    values = np.fft.ifftn(spectrum)
    values *= demodulation
    return _real_field(values, f.grid)


# bounded: an entry holds one complex array of (2n)^(N-1) (n+1) values
@functools.lru_cache(maxsize=4)
def _kernel_spectrum(grid: Grid, spec: KernelSpec) -> np.ndarray:
    """rfftn at size (2n)^N of the kernel, center weight included, on the difference lattice."""
    n, h = grid.points_per_axis, grid.spacing
    diff_sq = (h * np.arange(1 - n, n)) ** 2  # (2n-1)^N lattice, index offset n-1 per axis
    kernel = spec.evaluate(np.sqrt(sum(np.ix_(*(diff_sq,) * grid.dim))), h)
    spectrum = np.fft.rfftn(kernel, (2 * n,) * grid.dim, tuple(range(grid.dim)))
    spectrum.flags.writeable = False  # shared by every later call on this grid and kernel
    return spectrum


def apply_R_direct(f: Field, spec: KernelSpec, max_nodes: int | None = None) -> Field:
    """Free-space convolution with Re Phi: the sum over all source cells, by FFT.

    The kernel on the difference lattice (index offset n-1 per axis) and the
    field are zero-padded to (2n)^N; on the window [n-1, 2n-1) per axis their
    cyclic convolution has no wrap-around and equals the literal sum, at cost
    O((2n)^N log n).  Non-periodic: no images and no delta, which is exactly
    what makes it an independent check of the periodic multiplier route.
    """
    grid = f.grid
    if spec.dim != grid.dim:
        raise ValueError("kernel dimension does not match grid")
    guard = max_nodes if max_nodes is not None else DIRECT_GUARD[grid.dim]
    if grid.num_nodes > guard:
        raise GridTooLargeError(f"{grid.num_nodes} nodes exceeds direct-oracle guard {guard}")
    n = grid.points_per_axis
    size, axes = (2 * n,) * grid.dim, tuple(range(grid.dim))
    spectrum = np.fft.rfftn(f.values, size, axes)
    spectrum *= _kernel_spectrum(grid, spec)
    window = np.fft.irfftn(spectrum, size, axes)[(slice(n - 1, 2 * n - 1),) * grid.dim]
    return Field(grid, grid.cell_volume * window)


def bilinear_R(u: Field, v: Field, cfg: ResolventConfig) -> float:
    """int u R v dx; symmetric in (u, v) since the multiplier is real and even."""
    return inner_product(u, apply_R(v, cfg))


def resolvent_identity_residual(f: Field, cfg: ResolventConfig) -> float:
    """Relative L^2 residual of -Laplacian(Rf) - Rf = f (exact for delta = 0)."""
    rf = apply_R(f, cfg)
    lhs = -spectral_laplacian(rf).values - rf.values
    denom = np.linalg.norm(f.values)
    return float(np.linalg.norm(lhs - f.values) / denom) if denom > 0 else 0.0
