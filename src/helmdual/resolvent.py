"""Real Helmholtz resolvent as a Fourier multiplier, plus a direct-space oracle.

The multiplier is Re 1/(|xi|^2 - 1 - i delta) = (|xi|^2 - 1)/((|xi|^2 - 1)^2 + delta^2).
With delta = 0 it requires a frequency lattice that avoids |xi| = 1 (see
Grid.singular).  The direct route (mode "direct_oracle") convolves with the
free-space kernel by one zero-padded FFT: no periodic images and no delta.  Its
inverse transforms only the lines the window keeps: 4n+2 1-D transforms per field
in 2D and 8n^2+6n in 3D, forward and inverse together.
R maps real fields to real fields, so the multiplier route transforms each field at half
size: one complex FFT pair on n^(N-1) x n/2 points (see ``_multiply``).  Each grid and
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
        if self.mode == "direct_oracle" and self.delta != 0.0:
            raise ValueError(f"the free-space route reads no delta, got {self.delta}")


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
    return _build_route(grid, cfg.mode, cfg.delta)


# bounded at 4 entries (T and S, or one kernel spectrum): two grids under both routes
@functools.lru_cache(maxsize=4)
def _build_route(grid: Grid, mode: str, delta: float) -> functools.partial:
    """The route's arrays, built once per grid, mode and delta and shared read-only after.

    The multiplier route keeps the half-size twiddle T and the symbol S at the even
    last-axis indices (see ``_multiply``): 1.5 grid arrays in all.
    """
    if mode == "direct_oracle":
        apply = _convolve
        arrays = (_kernel_spectrum(grid.dim, grid.points_per_axis, grid.spacing),)
    elif delta == 0.0 and grid.singular:
        raise SingularLatticeError(
            "frequency lattice contains |xi| = 1; change the box or use delta > 0"
        )
    else:
        apply = _multiply
        # the half lattice copied, so the whole one is gone before the symbol's temporaries
        symbol = multiplier_value(grid.xi_squared[..., ::2].copy(), delta)
        arrays = (_shift_modulation(grid, grid.points_per_axis // 2), symbol)
    for arr in arrays:
        arr.flags.writeable = False
    return functools.partial(apply, grid, *arrays)


def _multiply(grid: Grid, twiddle, symbol, *fields: np.ndarray) -> list[np.ndarray]:
    """R of each real array by one complex FFT pair on n^(N-1) x n/2 points.

    The frequency-side phase and the cell volume of dft_forward/dft_inverse cancel
    between the two transforms, so R f = conj(M) ifftn(S fftn(M f)) with the node-side
    shift modulation M and the real symbol S.  Along the last axis, with t_m the phase of
    M, the half-shifted DFT of a real x at the even index 2r is

        X(2r) = FFT_{n/2}[t_m (x_m - i x_{m+n/2})](r),  m < n/2,

    since t_{m+n/2} = -i t_m.  The half shift pairs index k with n-1-k, and for real x
    X(n-1-k) = conj X(k), while S is even: the even indices carry all of R x.  So each
    field is packed as x[..., :n/2] - i x[..., n/2:] (an R-linear bijection), times the
    twiddle T = M[..., :n/2], transformed, multiplied by S at the even indices and
    transformed back; after conj(T) undoes the twiddle, the real part and the negated
    imaginary part are the two halves of R x.  Two fields go as one stack, each in its
    own slot, so a field's R does not depend on its partner, bit for bit.
    """
    half = grid.points_per_axis // 2
    axes = tuple(range(1, grid.dim + 1))
    stack = np.empty((len(fields),) + twiddle.shape, np.complex128)
    for slot, x in zip(stack, fields):
        slot.real = x[..., :half]
        np.negative(x[..., half:], out=slot.imag)
    stack *= twiddle
    np.fft.fftn(stack, axes=axes, out=stack)  # in place: out= needs numpy >= 2.0
    stack *= symbol
    np.fft.ifftn(stack, axes=axes, out=stack)
    # conj(T) z as conj(conj(z) T), bit for bit; the outer conj negates the second half
    np.conjugate(stack, out=stack)
    stack *= twiddle
    return [np.concatenate((slot.real, slot.imag), axis=-1) for slot in stack]


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

    The forward is rfftn's, into one zeroed (2n)^(N-1) x (n+1) array: the rfft of
    the last axis fills its leading n-blocks, then each other axis is transformed in
    place in rfftn's order, over the slabs that the axes before it have filled (past
    n they are still zero).  Each line holds the data rfftn's would, so the spectrum
    is rfftn's bit for bit, and no axis's output is allocated anew.

    The inverse is irfftn's, one axis at a time in its order, each leading axis
    cropped to the window right after its inverse: the next inverse and the final
    irfft see only kept lines.  1-D transforms per field: 4n+2 in 2D and 8n^2+6n
    in 3D, against 5n+2 and 12n^2+7n for the full irfftn cropped after; the real
    inverse output is n^(N-1) 2n doubles, not (2n)^N.  Each kept line is
    transformed from the same data as by irfftn, so the window is irfftn's bit for bit.
    """
    n = grid.points_per_axis
    axes = tuple(range(grid.dim))
    keep = slice(n - 1, 2 * n - 1)
    out = []
    for x in fields:
        padded = np.zeros((2 * n,) * (grid.dim - 1) + (n + 1,), np.complex128)
        np.fft.rfft(x, 2 * n, axis=-1, out=padded[(slice(n),) * (grid.dim - 1)])
        for axis in axes[-2::-1]:  # rfftn's order; slabs past n of the axes before are zero
            block = padded[(slice(n),) * axis]
            np.fft.fft(block, axis=axis, out=block)
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
