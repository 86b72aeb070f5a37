"""Experiment harness: energy comparison, concentration sweep, interaction decay.

Each experiment packages a prediction of the dual variational framework in a
falsifiable discrete form:

* energy_comparison -- ordering c_0 <= c_eps < c_inf of ground-state levels.
* concentration_sweep -- as eps decreases, barycenters of dual ground states
  approach the maximum set of Q and rescaled profiles approach the
  constant-coefficient limit state.
* interaction_decay -- the bilinear interaction of disjointly supported
  fields through the resolvent decays at least like r^(-lambda_p).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace

import numpy as np

from .grid import Field, Grid, _squared_distance, inner_product, lp_norm
from .kernels import lambda_p
from .functional import DualState, ProblemSpec
from .resolvent import ResolventConfig, apply_R
from .solver import SolverConfig, _ground_state, _ground_states, cutoff

#: a sweep point is trusted when at most this share of ||v||_p'^p' lies in the box's outer shell
EDGE_TRUST = 0.5
#: radius of the neighborhood of each maximum of Q that a sweep's truncation radius must
#: contain; a barycenter within it counts as localized at that maximum
NEIGHBORHOOD = 0.5
#: wavelengths (2 pi each) between the decay bumps' supports and the box boundary
BOUNDARY_WAVELENGTHS = 5.0
#: support radius of both decay bumps
BUMP_RADIUS = 2.0
#: relative quadrature slack of the lower bound c_eps >= c_0
LEVEL_SLACK = 1e-4


def _check_radius(rho: float) -> None:
    if not 0.0 < rho < np.inf:  # NaN fails too
        raise ValueError(f"rho must be positive and finite, got {rho}")


def barycenter(v: Field, epsilon: float, p_prime: float, rho: float) -> np.ndarray:
    """Truncated first moment of |v|^p' in original (unscaled) coordinates.

    beta(v) = ||v||_p'^(-p') * int Xi(eps x) |v(x)|^p' dx, with the truncation radius rho:
    Xi(y) = y for |y| < rho and the radial projection rho * y/|y| beyond, so far-field
    mass cannot drag the barycenter arbitrarily.
    """
    _check_radius(rho)
    weight = np.abs(v.values) ** p_prime
    total = weight.sum()
    if total == 0.0:
        raise ValueError("cannot take the barycenter of the zero field")
    grid = v.grid
    axes = np.ix_(*(epsilon * grid.x_axis,) * grid.dim)
    scale = _squared_distance(axes, (0.0,) * grid.dim)  # a new array: worked on in place
    np.sqrt(scale, out=scale)
    np.maximum(scale, rho, out=scale)
    weight *= np.divide(rho, scale, out=scale)  # Xi(y) = (rho/|y|) y beyond rho, else y
    return np.array([np.sum(weight * x) for x in axes]) / total


def edge_mass(v: Field, p_prime: float) -> float:
    """Fraction of ||v||_p'^p' in the box's outer shell (|x_d| > 0.9 L on some axis)."""
    grid = v.grid
    cut = 0.9 * grid.half_length
    outer = functools.reduce(np.logical_or,
                             (x > cut for x in np.ix_(*(np.abs(grid.x_axis),) * grid.dim)))
    weight = np.abs(v.values) ** p_prime
    total = weight.sum()
    if total == 0.0:
        raise ValueError("cannot take the edge mass of the zero field")
    return float(weight[outer].sum() / total)


def aligned_distance(v: Field, w0: Field, p_prime: float) -> tuple[float, tuple[float, ...]]:
    """||v(. + y) - s w0||_p' / ||w0||_p' at the shift y (in nodes) and sign s best in L^2.

    As ||v(. + y) - s w0||_2^2 = ||v||^2 + ||w0||^2 - 2 s C(y) for C(y) = <v(. + y), w0>,
    they maximize |C|: its lattice peak (by FFT) is refined by Newton steps of at most a
    node on C's trigonometric interpolant, unless its Hessian is not negative definite
    there (v = 0).  v is shifted band-limited.  Returns the distance and -y, the shift that
    rolls v onto s w0 (np.roll's sign).
    """
    grid = v.grid
    if grid != w0.grid:
        raise ValueError("fields live on different grids")
    denom = lp_norm(w0, p_prime)
    if denom == 0.0:
        raise ValueError("cannot measure the distance to the zero field")
    n, dim, axes = grid.points_per_axis, grid.dim, tuple(range(grid.dim))
    spectrum = np.fft.rfftn(v.values)
    cross = np.conjugate(np.fft.rfftn(w0.values)) * spectrum  # C's half spectrum
    c = np.fft.irfftn(cross, grid.shape, axes)
    top, bottom = np.argmax(c), np.argmin(c)
    sign = 1.0 if c.flat[top] >= -c.flat[bottom] else -1.0
    peak = np.unravel_index(top if sign > 0 else bottom, grid.shape)
    y = (np.array(peak) + n // 2) % n - n / 2  # the lattice peak, in [-n/2, n/2) nodes
    del c
    cross[..., 1:n // 2] *= 2.0  # an interior last-axis bin stands for its mirror too
    for _ in range(10):  # from a lattice peak two steps reach round-off on a sweep's points
        # C's interpolant is Re sum cross * prod_d phase_d(y_d); contracting the axes last
        # first gives its derivatives, keyed by their order in each y_d
        sums = {(): cross}
        for d in reversed(axes):
            phases = _phases(n, cross.shape[d], y[d])
            sums = {(o, *key): np.sum(part * phases[o], axis=-1)
                    for key, part in sums.items() for o in range(3 - sum(key))}
        # the gradient and Hessian of sign C, which has a maximum there
        grad = np.array([sign * sums[tuple(int(a == d) for a in axes)].real for d in axes])
        hess = np.array([[sign * sums[tuple((a == d) + (a == e) for a in axes)].real
                          for e in axes] for d in axes])
        if not np.all(np.linalg.eigvalsh(hess) < 0.0):
            break
        step = -np.linalg.solve(hess, grad)
        step /= max(1.0, float(np.max(np.abs(step))))
        y += step
        if np.max(np.abs(step)) <= 1e-9:
            break
    del cross
    for d in axes:  # the band-limited shift v(. + y)
        spectrum *= _phases(n, spectrum.shape[d], y[d])[0].reshape((-1,) + (1,) * (dim - 1 - d))
    shifted = np.fft.irfftn(spectrum, grid.shape, axes)
    del spectrum
    (np.subtract if sign > 0 else np.add)(shifted, w0.values, out=shifted)
    return lp_norm(Field(grid, shifted), p_prime) / denom, tuple(float(-yd) for yd in y)


def _phases(n: int, size: int, t: float) -> np.ndarray:
    """exp(i k t) and its first two derivatives in t (rows 0-2) at the first ``size`` DFT
    wavenumbers k of an n-node axis, in radians per node.  The Nyquist bin takes cos(pi t),
    the part of exp(+-i pi t) that a real field keeps, so a whole-node shift is np.roll."""
    k = 2.0 * np.pi * np.fft.fftfreq(n)[:size]
    phase = np.exp(1j * k * t)
    rows = np.array([phase, 1j * k * phase, -k * k * phase])
    c, s = np.cos(np.pi * t), np.sin(np.pi * t)
    rows[:, n // 2] = c, -np.pi * s, -np.pi ** 2 * c
    return rows


@dataclass(frozen=True)
class SweepRecord:
    """Diagnostics of one concentration-sweep point; its fields, in order, are the CSV columns."""

    epsilon: float
    converged: bool
    energy: float | None
    barycenter: tuple[float, ...] | None
    distance_to_maxima: float | None
    nearest_maximum: tuple[float, ...] | None
    limit_distance: float | None      # translation-aligned L^p' distance to w0
    grad_norm: float | None           # the state's dual defect (DualState.grad_norm)
    edge_mass: float | None
    edge_trusted: bool
    solution_maximum: tuple[float, ...] | None  # argmax of |u| in original coords
    failure: str | None = None


def to_csv(records) -> str:
    """A header of the records' field names, then one row per record, each cell formatted by
    its field's annotation; the records share one dataclass type."""
    columns = fields(records[0])
    rows = [[f.name for f in columns]]
    rows += [[_csv_cell(f.type, getattr(r, f.name)) for f in columns] for r in records]
    return "".join(",".join(row) + "\n" for row in rows)


def _csv_cell(kind: str, x) -> str:
    """A point as "(x y)", a number as its repr, None as an empty cell, else str."""
    if x is None:
        return ""
    if kind.startswith("tuple"):
        return "(" + " ".join(repr(float(c)) for c in x) + ")"
    if kind.startswith("float"):
        return repr(float(x))
    return str(x)


def _nearest_maximum(beta: np.ndarray, maxima) -> tuple[float, tuple[float, ...]]:
    dists = [float(np.linalg.norm(beta - np.asarray(y))) for y in maxima]
    i = int(np.argmin(dists))
    return dists[i], tuple(float(c) for c in maxima[i])


def sweep_point(spec: ProblemSpec, outcome, rho: float, limit_state: DualState) -> SweepRecord:
    """Record of one epsilon from its outcome (a state or the error that ended the point)."""
    if isinstance(outcome, Exception):
        return SweepRecord(spec.epsilon, False, None, None, None, None, None,
                           None, None, False, None, failure=str(outcome))
    state, grid = outcome, outcome.v.grid
    pp = spec.p_prime
    beta = barycenter(state.v, spec.epsilon, pp, rho)
    dist, nearest = _nearest_maximum(beta, spec.coefficient.maximum_set)
    ldist, _ = aligned_distance(state.v, limit_state.v, pp)
    u = state.u_rescaled
    em = edge_mass(state.v, pp)
    peak = np.unravel_index(np.argmax(np.abs(u.values)), grid.shape)
    sol_max = tuple(spec.epsilon * float(grid.x_axis[i]) for i in peak)
    return SweepRecord(
        epsilon=spec.epsilon, converged=True, energy=state.energy,
        barycenter=tuple(float(c) for c in beta), distance_to_maxima=dist,
        nearest_maximum=nearest, limit_distance=ldist, grad_norm=state.grad_norm,
        edge_mass=em, edge_trusted=em <= EDGE_TRUST,
        solution_maximum=sol_max,
    )


def concentration_sweep(template: ProblemSpec, epsilon_list, grid: Grid,
                        solver_cfg: SolverConfig, rho: float = 3.0,
                        limit_state: DualState | None = None):
    """(limit state, one record per epsilon) of ground-state solves over a decreasing list.

    ``rho`` is the barycenter's truncation radius; it must contain the NEIGHBORHOOD of
    every maximum of Q.

    Inputs that no sweep can succeed on raise ValueError before any solve.  The
    seeds of every point are solved together, two at a time (one transform pair for
    both, each seed's bits as alone); per-point failures
    (a cutoff outgrowing the box at small epsilon, a seed that fails) are recorded
    as flagged rows.  The limit state is None when no point fits the box.
    """
    eps = [float(e) for e in epsilon_list]
    if not eps:
        raise ValueError("epsilon list must not be empty")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilon list must be strictly decreasing")
    if not template.coefficient.maximum_set:
        raise ValueError("concentration sweep needs a coefficient with a "
                         "finite maximum set (not constant)")
    _check_radius(rho)
    if any(np.linalg.norm(y) + NEIGHBORHOOD > rho for y in template.coefficient.maximum_set):
        raise ValueError("truncation radius must contain the neighborhood of radius "
                         f"{NEIGHBORHOOD} of every maximum of Q")
    limit_state, outcomes = _ground_states(template, eps, grid, solver_cfg, limit_state)
    return limit_state, [sweep_point(replace(template, epsilon=e), outcome, rho, limit_state)
                         for e, outcome in zip(eps, outcomes)]


def compact_bump(grid: Grid, center, radius: float) -> Field:
    """Smooth bump supported in the ball of given radius around ``center``.

    Radial profile eta(2 r / radius) with the standard smooth cutoff eta
    (identically 1 up to half the radius, 0 beyond); it is not modulated.
    """
    r = np.sqrt(_squared_distance(np.ix_(*(grid.x_axis,) * grid.dim), center))
    return Field(grid, cutoff(2.0 * r / radius))


@dataclass(frozen=True)
class DecayRecord:
    r: float
    interaction: float  # |int u R v| / (||u||_p' ||v||_p')


@dataclass(frozen=True)
class DecayReport:
    lambda_p: float
    records: tuple[DecayRecord, ...]
    slope: float       # log-log least-squares slope over the largest decade

    @property
    def satisfies_bound(self) -> bool:
        """Fitted slope consistent with decay at least r^(-lambda_p) (with slack)."""
        return self.slope <= -self.lambda_p + 0.5


def interaction_decay(p: float, grid: Grid, r_list,
                      resolvent: ResolventConfig | None = None) -> DecayReport:
    """Normalized interaction |int u R v| of disjointly supported bumps vs distance.

    The dimension is the grid's.  u is a fixed unmodulated compact_bump at the
    origin (support radius BUMP_RADIUS); for each r the second bump is
    centered at distance r + 2 * BUMP_RADIUS along the first axis, so the
    supports are separated by exactly r.  Both supports must stay
    BOUNDARY_WAVELENGTHS wavelengths (2 pi each) away from the box boundary.
    """
    dim = grid.dim
    lam = lambda_p(dim, p)
    rl = [float(r) for r in r_list]
    # written so that NaN fails each comparison
    if (len(rl) < 3 or not all(b > a for a, b in zip(rl, rl[1:])) or not 1.0 <= rl[0]
            or not rl[-1] < np.inf):
        raise ValueError("r_list must be finite and increasing with at least 3 entries, r >= 1")
    fitted = sum(r >= rl[-1] / 10.0 for r in rl)  # the slope is fitted over the largest decade
    if fitted < 2:
        raise ValueError("r_list needs 2 separations in its largest decade (r >= r_max / 10)")
    margin = 2.0 * np.pi * BOUNDARY_WAVELENGTHS
    farthest = rl[-1] + 3.0 * BUMP_RADIUS
    if farthest + margin > grid.half_length:
        raise ValueError(
            f"box too small: need half_length >= {farthest + margin:.1f} "
            f"to keep supports {BOUNDARY_WAVELENGTHS} wavelengths off the boundary"
        )
    cfg = resolvent if resolvent is not None else ResolventConfig()
    pp = p / (p - 1.0)
    u = compact_bump(grid, (0.0,) * dim, BUMP_RADIUS)
    u_norm = lp_norm(u, pp)
    # int u R v = int (R u) v by symmetry of the real multiplier: one FFT total
    ru = apply_R(u, cfg)
    records = []
    for r in rl:
        center = (r + 2.0 * BUMP_RADIUS,) + (0.0,) * (dim - 1)
        v = compact_bump(grid, center, BUMP_RADIUS)
        val = abs(inner_product(ru, v)) / (u_norm * lp_norm(v, pp))
        records.append(DecayRecord(r=r, interaction=val))
    logs = np.log(rl[-fitted:])
    vals = np.log([max(rec.interaction, 1e-300) for rec in records[-fitted:]])
    slope = float(np.polyfit(logs, vals, 1)[0])
    return DecayReport(lambda_p=lam, records=tuple(records), slope=slope)


@dataclass(frozen=True)
class LevelRecord:
    level: str
    value: float


@dataclass(frozen=True)
class EnergyComparison:
    """Ground-state levels of one problem against its two constant-Q anchors."""

    c_eps: float
    c_0: float
    c_inf: float | None     # omitted when Q vanishes at infinity

    @property
    def lower_bound_holds(self) -> bool:
        """c_eps >= c_0 up to the relative quadrature slack LEVEL_SLACK (needs Q <= Q_0)."""
        return self.c_eps >= self.c_0 * (1.0 - LEVEL_SLACK)

    @property
    def upper_bound_holds(self) -> bool:
        """c_eps < c_inf (the compactness window); vacuous without c_inf."""
        return self.c_inf is None or self.c_eps < self.c_inf

    @property
    def levels(self) -> tuple[LevelRecord, ...]:
        """c_0, c_eps and, when present, c_inf: the rows of energies.csv."""
        levels = [LevelRecord("c_0", self.c_0), LevelRecord("c_eps", self.c_eps)]
        if self.c_inf is not None:
            levels.append(LevelRecord("c_inf", self.c_inf))
        return tuple(levels)


def energy_comparison(spec: ProblemSpec, grid: Grid, solver_cfg: SolverConfig) -> EnergyComparison:
    """c_0 (the limit at sup Q), c_eps and, when limsup Q > 0, c_inf (the limit there).

    The limit is solved once: c_inf is c_0 scaled by the exact law of homogeneity_ratio.
    """
    coef = spec.coefficient
    if not coef.has_strict_maximum:  # the window c_0 <= c_eps < c_inf needs one
        raise ValueError("energy comparison needs sup Q above its limsup at infinity")
    limit_state, state = _ground_state(spec, grid, solver_cfg)
    c_0, q_ratio = limit_state.energy, coef.q_infinity / coef.q_sup
    c_inf = c_0 * homogeneity_ratio(spec.p, q_ratio) if q_ratio > 0.0 else None
    return EnergyComparison(c_eps=state.energy, c_0=c_0, c_inf=c_inf)


def homogeneity_ratio(p: float, q_ratio: float) -> float:
    """c_0(Q_0 * q_ratio) / c_0(Q_0) for constant coefficients, exact on the grid as on R^N.

    J_q(lambda v) = lambda^p' J_1(v) when q^(2/p) lambda^(2 - p') = 1, so Nehari levels
    scale by q_ratio^(-(2/p) * p'/(2 - p')).
    """
    pp = p / (p - 1.0)
    return q_ratio ** (-(2.0 / p) * pp / (2.0 - pp))
