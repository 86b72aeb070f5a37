"""Real Helmholtz resolvent as a Fourier multiplier, plus a direct-space oracle.

The multiplier is Re 1/(|xi|^2 - 1 - i delta) = (|xi|^2 - 1)/((|xi|^2 - 1)^2 + delta^2).
With delta = 0 it requires a frequency lattice that avoids |xi| = 1 (grid
invariant); the direct-space route sums the free-space kernel over all source
cells and is O(n^2N), intended for cross-validation on small grids only.
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


#: default node-count guards for the O(n^2N) oracle
DIRECT_GUARD = {2: 40**2, 3: 16**3}


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


def apply_R_direct(f: Field, spec: KernelSpec, max_nodes: int | None = None) -> Field:
    """Free-space convolution with Re Phi, literal sum over all source cells.

    The kernel is tabulated on the (2n-1)^N difference lattice and gathered
    per target row, so the cost is O(n^2N) multiply-adds.  Non-periodic: no
    wrap-around images, which is exactly what makes it an independent check
    of the periodic multiplier route.
    """
    grid = f.grid
    if spec.dim != grid.dim:
        raise ValueError("kernel dimension does not match grid")
    guard = max_nodes if max_nodes is not None else DIRECT_GUARD[grid.dim]
    if grid.num_nodes > guard:
        raise GridTooLargeError(
            f"{grid.num_nodes} nodes exceeds direct-oracle guard {guard}"
        )
    n, h = grid.points_per_axis, grid.spacing
    # kernel on the difference lattice, index offset n-1 per axis
    diff = h * np.arange(-(n - 1), n)
    r_sq = np.zeros((2 * n - 1,) * grid.dim)
    for d in range(grid.dim):
        shape = [1] * grid.dim
        shape[d] = 2 * n - 1
        r_sq = r_sq + (diff**2).reshape(shape)
    kernel = spec.evaluate(np.sqrt(r_sq), h).ravel()

    src = f.values.ravel()
    idx = np.indices(grid.shape).reshape(grid.dim, -1)  # (dim, n^N)
    strides = np.array([(2 * n - 1) ** (grid.dim - 1 - d) for d in range(grid.dim)])
    out = np.empty(grid.num_nodes)
    chunk = max(1, 2**22 // grid.num_nodes)
    for start in range(0, grid.num_nodes, chunk):
        stop = min(start + chunk, grid.num_nodes)
        # flat difference-lattice index for every (target, source) pair
        offsets = idx[:, start:stop, None] - idx[:, None, :] + (n - 1)
        flat = (strides[:, None, None] * offsets).sum(axis=0)
        out[start:stop] = kernel[flat] @ src
    return Field(grid, (grid.cell_volume * out).reshape(grid.shape))


def bilinear_R(u: Field, v: Field, cfg: ResolventConfig) -> float:
    """int u R v dx; symmetric in (u, v) since the multiplier is real and even."""
    return inner_product(u, apply_R(v, cfg))


def resolvent_identity_residual(f: Field, cfg: ResolventConfig) -> float:
    """Relative L^2 residual of -Laplacian(Rf) - Rf = f (exact for delta = 0)."""
    rf = apply_R(f, cfg)
    lhs = -spectral_laplacian(rf).values - rf.values
    denom = np.linalg.norm(f.values)
    return float(np.linalg.norm(lhs - f.values) / denom) if denom > 0 else 0.0
