"""Dual energy functional, Nehari projection, and the map back to PDE solutions.

The dual energy of a candidate v on the rescaled grid is

    J(v) = (1/p') int |v|^p' dx - (1/2) int Q_eps^(1/p) v R(Q_eps^(1/p) v) dx

with Q_eps(x) = Q(eps x), p' = p/(p-1).  Critical points satisfy the
integral equation |v|^(p'-2) v = Q_eps^(1/p) R(Q_eps^(1/p) v); from such a v
the PDE solution in rescaled coordinates is u = R(Q_eps^(1/p) v), and the
physical solution is a declared pure rescaling of it (never materialized).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import Field, Grid, _l2, _squared_distance, lp_norm, spectral_laplacian
from .kernels import check_exponent
from .resolvent import ResolventConfig, _route


class NotInPositiveCone(ValueError):
    """The quadratic term of v is nonpositive: v has no Nehari projection."""


@dataclass(frozen=True)
class CoefficientSpec:
    """Coefficient Q(x) = floor + sum_i amp_i exp(-|x - c_i|^2 / (2 w_i^2)) >= 0.

    With no bumps Q is the constant floor, whose maximum set is all of space
    (represented as an empty tuple of maxima).  With bumps, limsup Q at
    infinity is the floor, and sup Q and the (finite) maximum set come from
    the dominant bumps, which requires well-separated centers.
    """

    floor: float = 0.0
    centers: tuple[tuple[float, ...], ...] = ()
    amplitudes: tuple[float, ...] = ()
    widths: tuple[float, ...] = ()

    def __post_init__(self):
        numbers = [self.floor, *self.amplitudes, *self.widths, *itertools.chain(*self.centers)]
        if not np.all(np.isfinite(numbers)):
            raise ValueError("coefficient numbers must be finite")
        if self.floor < 0:
            raise ValueError("coefficient floor must be nonnegative")
        if not (len(self.centers) == len(self.amplitudes) == len(self.widths)):
            raise ValueError("centers, amplitudes, widths must have equal length")
        if not self.centers and self.floor <= 0:
            raise ValueError("constant coefficient must be positive")
        if any(a <= 0 for a in self.amplitudes) or any(w <= 0 for w in self.widths):
            raise ValueError("amplitudes and widths must be positive")
        # with >= 6 widths of separation the cross terms perturb sup Q by < 1e-7
        if any(np.linalg.norm(np.subtract(a, b, dtype=float)) < 6.0 * max(self.widths)
               for a, b in itertools.combinations(self.centers, 2)):
            raise ValueError("gaussian bumps must be separated by >= 6 widths")

    @property
    def q_sup(self) -> float:
        """sup Q."""
        return self.floor + max(self.amplitudes, default=0.0)

    @property
    def q_infinity(self) -> float:
        """limsup of Q at infinity."""
        return self.floor

    @property
    def maximum_set(self) -> tuple[tuple[float, ...], ...]:
        """Finite list of maximum points (empty for a constant coefficient)."""
        amax = max(self.amplitudes, default=0.0)
        return tuple(c for c, a in zip(self.centers, self.amplitudes) if a == amax)

    @property
    def has_strict_maximum(self) -> bool:
        """Whether limsup at infinity < sup (the compactness condition)."""
        return self.q_infinity < self.q_sup

    def evaluate(self, coords) -> np.ndarray:
        """Q at the points whose d-th coordinate is coords[d], arrays that broadcast together.

        An open mesh (np.ix_ of the axes) gives Q on a whole grid without a coordinate
        array of the grid's size.
        """
        if isinstance(coords, np.ndarray):
            raise TypeError("coords must be a sequence of per-axis coordinate arrays, "
                            "not a stacked array of points")
        coords = [np.asarray(x, dtype=float) for x in coords]
        if any(len(c) != len(coords) for c in self.centers):
            raise ValueError(f"{len(coords)} coordinate arrays for centers of dimension "
                             f"{len(self.centers[0])}")
        out = np.full(np.broadcast_shapes(*(x.shape for x in coords)), self.floor)
        for c, a, w in zip(self.centers, self.amplitudes, self.widths):
            bump = _squared_distance(coords, c)  # a new array: worked on in place
            np.negative(bump, out=bump)
            bump /= 2.0 * w * w
            np.exp(bump, out=bump)
            bump *= a
            out += bump
        return out

    def sample_rescaled(self, grid: Grid, epsilon: float) -> Field:
        """Q_eps on the grid: Q evaluated analytically at eps * x (never interpolated)."""
        return Field(grid, self.evaluate(np.ix_(*(epsilon * grid.x_axis,) * grid.dim)))


def constant_coefficient(value: float) -> CoefficientSpec:
    return CoefficientSpec(floor=value)


@dataclass(frozen=True)
class ProblemSpec:
    """Exponent, frequency scale and coefficient of one dual problem instance."""

    p: float
    epsilon: float
    coefficient: CoefficientSpec
    resolvent: ResolventConfig = field(default_factory=ResolventConfig)

    def __post_init__(self):
        if not 2.0 < self.p < np.inf:
            raise ValueError(f"p must exceed 2 and be finite, got {self.p}")
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def k(self) -> float:
        return 1.0 / self.epsilon

    @property
    def amplitude(self) -> float:
        """k^(2/(p-2)): the physical solution is amplitude * u_rescaled(k x), never sampled."""
        return self.k ** (2.0 / (self.p - 2.0))

    def validate_for_grid(self, grid: Grid) -> None:
        check_exponent(grid.dim, self.p)
        if any(len(c) != grid.dim for c in self.coefficient.centers):
            raise ValueError("coefficient center dimension does not match the grid")

    def q_root(self, grid: Grid) -> Field:
        """Q_eps^(1/p) sampled on the grid."""
        qe = self.coefficient.sample_rescaled(grid, self.epsilon).values
        return Field(grid, np.power(qe, 1.0 / self.p, out=qe))


def _dual_power(values: np.ndarray, p_prime: float) -> np.ndarray:
    """|v|^(p'-2) v, with the value 0 at v = 0 (p' > 1)."""
    out = np.abs(values)
    out **= p_prime - 1.0
    out *= np.sign(values)
    return out


def _q_root(spec: ProblemSpec, grid: Grid):
    """Q_eps^(1/p), formed nowhere else: one number for a constant Q, else sampled.  np.power,
    not **, runs sampling's ufunc loop: the number is bit for bit every sampled value."""
    coefficient = spec.coefficient
    if coefficient.centers:
        return spec.q_root(grid).values
    return np.power(coefficient.floor, 1.0 / spec.p)


def _resolve(grid: Grid, cfg: ResolventConfig, *gs: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """R g and int g R g for one or two g = Q_eps^(1/p) v: where R meets the dual variable.

    A non-finite g makes its pairing non-finite, which raises here for one or two g
    alike, with the floating-point warnings of the way there silenced: no extra pass.
    """
    with np.errstate(all="ignore"):
        rgs = _route(grid, cfg)(*gs)
        # inner_product's expression
        quads = [float(grid.cell_volume * np.sum(g * rg)) for g, rg in zip(gs, rgs)]
    if not np.isfinite(quads).all():
        raise ValueError("field values must be finite")
    return list(zip(rgs, quads))


def _paired(v: Field, spec: ProblemSpec):
    """Q_eps^(1/p), R g and int g R g for g = Q_eps^(1/p) v."""
    q_root = _q_root(spec, v.grid)
    [(rg, quad)] = _resolve(v.grid, spec.resolvent, q_root * v.values)
    return q_root, rg, quad


def energy(v: Field, spec: ProblemSpec) -> float:
    """Dual energy J(v)."""
    pp = spec.p_prime
    return lp_norm(v, pp) ** pp / pp - 0.5 * _paired(v, spec)[2]


def gradient(v: Field, spec: ProblemSpec) -> Field:
    """L^2 representation of J'(v): |v|^(p'-2) v - Q_eps^(1/p) R(Q_eps^(1/p) v)."""
    q_root, rg, _ = _paired(v, spec)
    return Field(v.grid, _dual_power(v.values, spec.p_prime) - q_root * rg)


def quadratic_term(v: Field, spec: ProblemSpec) -> float:
    """int Q_eps^(1/p) v R(Q_eps^(1/p) v) dx; positive iff v is in the positive cone."""
    return _paired(v, spec)[2]


@dataclass(frozen=True)
class DualState:
    """A candidate critical point with its cached diagnostics."""

    v: Field
    spec: ProblemSpec
    u_rescaled: Field          # R(Q_eps^(1/p) v), the PDE solution before rescaling
    energy: float
    grad_norm: float           # relative gradient norm (see from_field)
    nehari_residual: float     # |J'(v) v|
    quadratic_term: float

    @classmethod
    def from_field(cls, v: Field, spec: ProblemSpec) -> "DualState":
        q_root, rg, quad = _paired(v, spec)
        pp = spec.p_prime
        norm_pp = lp_norm(v, pp) ** pp
        en = norm_pp / pp - 0.5 * quad
        grad_vals = _dual_power(v.values, pp) - q_root * rg
        scale = _l2(np.abs(v.values) ** (pp - 1.0))
        grad_norm = _l2(grad_vals) / scale if scale > 0 else 0.0
        residual = abs(norm_pp - quad)
        return cls(v, spec, Field(v.grid, rg), float(en), grad_norm, float(residual), float(quad))


def nehari_t(v: Field, spec: ProblemSpec) -> float:
    """Unique t > 0 projecting v in the positive cone onto the Nehari manifold.

    t^(2-p') = int |v|^p' / int Q_eps^(1/p) v R(Q_eps^(1/p) v).
    """
    pp = spec.p_prime
    num = lp_norm(v, pp) ** pp
    if num == 0.0:
        raise ValueError("cannot project the zero field")
    den = quadratic_term(v, spec)
    if den <= 0.0:
        raise NotInPositiveCone(f"quadratic term {den} <= 0")
    return float((num / den) ** (1.0 / (2.0 - pp)))


def nehari_energy_identity(v: Field, spec: ProblemSpec) -> float:
    """(1/p' - 1/2) ||v||_p'^p' for v on the Nehari manifold; checked against J(v)."""
    pp = spec.p_prime
    norm_pp = lp_norm(v, pp) ** pp
    quad = quadratic_term(v, spec)
    if abs(norm_pp - quad) > 1e-6 * norm_pp:
        raise ValueError("input is not on the Nehari manifold")
    value = (1.0 / pp - 0.5) * norm_pp
    direct = norm_pp / pp - 0.5 * quad
    if abs(value - direct) > 1e-6 * abs(value):
        raise ValueError("Nehari energy identity violated beyond tolerance")
    return float(value)


def pde_residual(u_eps: Field, spec: ProblemSpec) -> float:
    """Relative L^2 residual of -Lap u - u = Q_eps |u|^(p-2) u on the grid.

    Normalized by the L^2 norm of the right-hand side; if that vanishes the
    absolute residual of the left-hand side is returned and a warning is
    emitted.
    """
    qe = spec.coefficient.sample_rescaled(u_eps.grid, spec.epsilon)
    rhs = qe.values * np.abs(u_eps.values) ** (spec.p - 2.0) * u_eps.values
    lhs = -spectral_laplacian(u_eps).values - u_eps.values
    denom = _l2(rhs)
    if denom == 0.0:
        warnings.warn("zero right-hand side: returning absolute residual", stacklevel=2)
        return _l2(lhs)
    return _l2(lhs - rhs) / denom
