"""Dual energy functional, Nehari projection, and the map back to PDE solutions.

The dual energy of a candidate v on the rescaled grid is

    J(v) = (1/p') int |v|^p' dx - (1/2) int Q_eps^(1/p) v R(Q_eps^(1/p) v) dx

with Q_eps(x) = Q(eps x), p' = p/(p-1).  Critical points satisfy the
integral equation |v|^(p'-2) v = Q_eps^(1/p) R(Q_eps^(1/p) v); from such a v
the PDE solution in rescaled coordinates is u = R(Q_eps^(1/p) v), and the
physical solution is a declared pure rescaling of it (never materialized).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import Field, Grid, lp_norm, spectral_laplacian
from .kernels import check_exponent
from .resolvent import ResolventConfig, _apply, apply_R


class NotInPositiveCone(ValueError):
    """The quadratic term of v is nonpositive: v has no Nehari projection."""


@dataclass(frozen=True)
class CoefficientSpec:
    """Bounded continuous coefficient Q >= 0 with an analytic description.

    kinds:
      constant       -- Q = floor everywhere (maximum set is all of space,
                        represented as an empty tuple of maxima).
      gaussian_bumps -- Q(x) = floor + sum_i amp_i exp(-|x - c_i|^2 / (2 w_i^2));
                        sup Q and the (finite) maximum set are taken from the
                        dominant bumps, which requires well-separated centers.
      expression     -- arbitrary callable with declared sup, limsup and maxima
                        (library use only, not serializable).
    """

    kind: str
    floor: float = 0.0
    centers: tuple[tuple[float, ...], ...] = ()
    amplitudes: tuple[float, ...] = ()
    widths: tuple[float, ...] = ()
    function: object = None
    declared_sup: float | None = None
    declared_limsup: float | None = None
    declared_maxima: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        if self.kind not in ("constant", "gaussian_bumps", "expression"):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.floor < 0:
            raise ValueError("coefficient floor must be nonnegative")
        if self.kind == "constant":
            if self.floor <= 0:
                raise ValueError("constant coefficient must be positive")
        if self.kind == "gaussian_bumps":
            if not (len(self.centers) == len(self.amplitudes) == len(self.widths)):
                raise ValueError("centers, amplitudes, widths must have equal length")
            if len(self.centers) == 0:
                raise ValueError("gaussian_bumps needs at least one bump")
            if any(a <= 0 for a in self.amplitudes) or any(w <= 0 for w in self.widths):
                raise ValueError("amplitudes and widths must be positive")
            self._check_separation()
        if self.kind == "expression":
            if self.function is None or self.declared_sup is None:
                raise ValueError("expression coefficient needs function and declared_sup")

    def _check_separation(self):
        # with >= 6 widths of separation the cross terms perturb sup Q by < 1e-7
        centers = np.asarray(self.centers, dtype=float)
        wmax = max(self.widths)
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                if np.linalg.norm(centers[i] - centers[j]) < 6.0 * wmax:
                    raise ValueError("gaussian bumps must be separated by >= 6 widths")

    @property
    def q_sup(self) -> float:
        """sup Q (analytic for the built-ins)."""
        if self.kind == "constant":
            return self.floor
        if self.kind == "gaussian_bumps":
            return self.floor + max(self.amplitudes)
        return float(self.declared_sup)

    @property
    def q_infinity(self) -> float:
        """limsup of Q at infinity."""
        if self.kind == "constant":
            return self.floor
        if self.kind == "gaussian_bumps":
            return self.floor
        if self.declared_limsup is None:
            raise ValueError("expression coefficient has no declared limsup")
        return float(self.declared_limsup)

    @property
    def maximum_set(self) -> tuple[tuple[float, ...], ...]:
        """Finite list of maximum points (empty for a constant coefficient)."""
        if self.kind == "constant":
            return ()
        if self.kind == "gaussian_bumps":
            amax = max(self.amplitudes)
            return tuple(c for c, a in zip(self.centers, self.amplitudes) if a == amax)
        return self.declared_maxima

    @property
    def has_strict_maximum(self) -> bool:
        """Whether limsup at infinity < sup (the compactness condition)."""
        return self.q_infinity < self.q_sup

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Q at an array of points with trailing axis of length dim."""
        points = np.asarray(points, dtype=float)
        if self.kind == "constant":
            return np.full(points.shape[:-1], self.floor)
        if self.kind == "expression":
            return np.asarray(self.function(points), dtype=float)
        out = np.full(points.shape[:-1], self.floor)
        for c, a, w in zip(self.centers, self.amplitudes, self.widths):
            d_sq = np.sum((points - np.asarray(c)) ** 2, axis=-1)
            out = out + a * np.exp(-d_sq / (2.0 * w * w))
        return out

    def sample_rescaled(self, grid: Grid, epsilon: float) -> Field:
        """Q_eps on the grid: Q evaluated analytically at eps * x (never interpolated)."""
        pts = np.stack([epsilon * grid.coords(d) for d in range(grid.dim)], axis=-1)
        return Field(grid, self.evaluate(pts))


def constant_coefficient(value: float) -> CoefficientSpec:
    return CoefficientSpec(kind="constant", floor=value)


@dataclass(frozen=True)
class ProblemSpec:
    """Exponent, frequency scale and coefficient of one dual problem instance."""

    p: float
    epsilon: float
    coefficient: CoefficientSpec
    resolvent: ResolventConfig = field(default_factory=ResolventConfig)

    def __post_init__(self):
        if self.p <= 2:
            raise ValueError("p must exceed 2")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def k(self) -> float:
        return 1.0 / self.epsilon

    def validate_for_grid(self, grid: Grid) -> None:
        check_exponent(grid.dim, self.p)
        if any(len(c) != grid.dim for c in self.coefficient.centers):
            raise ValueError("coefficient center dimension does not match the grid")

    def q_root(self, grid: Grid) -> Field:
        """Q_eps^(1/p) sampled on the grid."""
        qe = self.coefficient.sample_rescaled(grid, self.epsilon)
        return Field(grid, qe.values ** (1.0 / self.p))


def _dual_power(values: np.ndarray, p_prime: float) -> np.ndarray:
    """|v|^(p'-2) v, with the value 0 at v = 0 (p' > 1)."""
    return np.sign(values) * np.abs(values) ** (p_prime - 1.0)


def _resolve(grid: Grid, cfg: ResolventConfig, *gs: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """R g and int g R g for one or two g = Q_eps^(1/p) v: where R meets the dual variable."""
    rgs = [apply_R(Field(grid, gs[0]), cfg).values] if len(gs) == 1 else _apply(grid, cfg, *gs)
    quads = [float(grid.cell_volume * np.sum(g * rg)) for g, rg in zip(gs, rgs)]  # inner_product
    if not np.isfinite(quads).all():
        raise ValueError("field values must be finite")
    return list(zip(rgs, quads))


def energy(v: Field, spec: ProblemSpec) -> float:
    """Dual energy J(v)."""
    [(_, quad)] = _resolve(v.grid, spec.resolvent, spec.q_root(v.grid).values * v.values)
    pp = spec.p_prime
    return lp_norm(v, pp) ** pp / pp - 0.5 * quad


def gradient(v: Field, spec: ProblemSpec) -> Field:
    """L^2 representation of J'(v): |v|^(p'-2) v - Q_eps^(1/p) R(Q_eps^(1/p) v)."""
    qr = spec.q_root(v.grid).values
    [(rg, _)] = _resolve(v.grid, spec.resolvent, qr * v.values)
    return Field(v.grid, _dual_power(v.values, spec.p_prime) - qr * rg)


def quadratic_term(v: Field, spec: ProblemSpec) -> float:
    """int Q_eps^(1/p) v R(Q_eps^(1/p) v) dx; positive iff v is in the positive cone."""
    return _resolve(v.grid, spec.resolvent, spec.q_root(v.grid).values * v.values)[0][1]


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
        qr = spec.q_root(v.grid).values
        [(rg, quad)] = _resolve(v.grid, spec.resolvent, qr * v.values)
        pp = spec.p_prime
        norm_pp = lp_norm(v, pp) ** pp
        en = norm_pp / pp - 0.5 * quad
        grad_vals = _dual_power(v.values, pp) - qr * rg
        scale = np.linalg.norm(np.abs(v.values) ** (pp - 1.0))
        grad_norm = float(np.linalg.norm(grad_vals) / scale) if scale > 0 else 0.0
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


@dataclass(frozen=True)
class ScalingMetadata:
    """Declared rescaling from the working (rescaled) solution to the physical one.

    The physical solution is u(x) = amplitude * u_rescaled(k x); it is never
    sampled on a grid.
    """

    k: float
    p: float

    @property
    def amplitude(self) -> float:
        return self.k ** (2.0 / (self.p - 2.0))

    @property
    def inverse_amplitude(self) -> float:
        return self.k ** (-2.0 / (self.p - 2.0))


def pde_residual(u_eps: Field, spec: ProblemSpec) -> float:
    """Relative L^2 residual of -Lap u - u = Q_eps |u|^(p-2) u on the grid.

    Normalized by the L^2 norm of the right-hand side; if that vanishes the
    absolute residual of the left-hand side is returned and a warning is
    emitted.
    """
    qe = spec.coefficient.sample_rescaled(u_eps.grid, spec.epsilon)
    rhs = qe.values * np.abs(u_eps.values) ** (spec.p - 2.0) * u_eps.values
    lhs = -spectral_laplacian(u_eps).values - u_eps.values
    denom = np.linalg.norm(rhs)
    if denom == 0.0:
        warnings.warn("zero right-hand side: returning absolute residual", stacklevel=2)
        return float(np.linalg.norm(lhs))
    return float(np.linalg.norm(lhs - rhs) / denom)
