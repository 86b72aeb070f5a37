"""Real Helmholtz resolvent as a Fourier multiplier, plus a direct-space oracle.

The multiplier is Re 1/(|xi|^2 - 1 - i delta) = (|xi|^2 - 1)/((|xi|^2 - 1)^2 + delta^2).
With delta = 0 it requires a frequency lattice that avoids |xi| = 1 (see
Grid.singular).  The direct route (mode "direct_oracle") convolves with the
free-space kernel by one zero-padded FFT: no periodic images and no delta.
R maps real fields to real fields, so one complex FFT pair serves two (``_apply``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, _l2, _shift_modulation, inner_product, spectral_laplacian
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


# bounded: an entry holds one complex and one real array of the grid's size
@functools.lru_cache(maxsize=4)
def _plan(grid: Grid, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """(M, S): the multiplier route's arrays, built once per grid and delta.

    The frequency-side phase and the cell volume of dft_forward/dft_inverse
    cancel between the two transforms, so R f = conj(M) ifftn(S fftn(M f))
    with the node-side shift modulation M and the real symbol S.  The half
    shift pairs every xi with -xi, so R f is real.
    """
    if delta == 0.0 and grid.singular:
        raise SingularLatticeError(
            "frequency lattice contains |xi| = 1; change the box or use delta > 0"
        )
    plan = (_shift_modulation(grid), multiplier_value(grid.xi_squared, delta))
    for arr in plan:
        arr.flags.writeable = False  # shared by every later call on this grid and delta
    return plan


def apply_R(f: Field, cfg: ResolventConfig) -> Field:
    """Resolvent applied to a field; multiplier route unless cfg says otherwise."""
    return Field(f.grid, _apply(f.grid, cfg, f.values)[0])


def _apply(grid: Grid, cfg: ResolventConfig, *fields: np.ndarray) -> list[np.ndarray]:
    """R of one or two real arrays: R(a/alpha + i b/beta) = R a/alpha + i R b/beta.

    alpha, beta are the max-norms, so a large field's round-off stays out of a small one.  Of
    the equivalent roundings, x / alpha then / (1/alpha) keeps every 64^2, delta = 0 limit
    seed converging: there the Armijo test runs below round-off (ROADMAP item 4).
    """
    if cfg.mode == "direct_oracle":
        return [apply_R_direct(Field(grid, x), KernelSpec(grid.dim)).values for x in fields]
    modulation, symbol = _plan(grid, cfg.delta)
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


# bounded: an entry holds one complex array of (2n)^(N-1) (n+1) values
@functools.lru_cache(maxsize=4)
def _kernel_spectrum(dim: int, n: int, h: float, spec: KernelSpec) -> np.ndarray:
    """rfftn at size (2n)^N of the kernel, center weight included, on the difference lattice.

    The kernel is radial and (h k)^2 == (h (-k))^2 bit for bit, so it is evaluated on the
    orthant of offsets 0..n-1 only and mirrored onto the (2n-1)^N lattice (index offset
    n-1 per axis): 2^N times fewer kernel evaluations, the same table.
    """
    orthant_sq = (h * np.arange(n)) ** 2
    orthant = spec.evaluate(np.sqrt(sum(np.ix_(*(orthant_sq,) * dim))), h)
    kernel = orthant[np.ix_(*(np.abs(np.arange(1 - n, n)),) * dim)]
    spectrum = np.fft.rfftn(kernel, (2 * n,) * dim, tuple(range(dim)))
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
    spectrum *= _kernel_spectrum(grid.dim, n, grid.spacing, spec)
    window = np.fft.irfftn(spectrum, size, axes)[(slice(n - 1, 2 * n - 1),) * grid.dim]
    return Field(grid, grid.cell_volume * window)


def bilinear_R(u: Field, v: Field, cfg: ResolventConfig) -> float:
    """int u R v dx; symmetric in (u, v) since the multiplier is real and even."""
    return inner_product(u, apply_R(v, cfg))


def resolvent_identity_residual(f: Field, cfg: ResolventConfig) -> float:
    """Relative L^2 residual of -Laplacian(Rf) - Rf = f (exact for delta = 0)."""
    rf = apply_R(f, cfg)
    lhs = -spectral_laplacian(rf).values - rf.values
    denom = _l2(f.values)
    return _l2(lhs - f.values) / denom if denom > 0 else 0.0
