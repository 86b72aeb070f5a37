"""Ground-state search on the Nehari manifold.

The minimization runs projected descent: a negative-gradient trial step with
backtracking on the dual energy, followed by re-projection onto the Nehari
manifold.  The first trial of each iteration is the two-point step of
Barzilai and Borwein (IMA J. Numer. Anal. 8, 1988) from the last move, kept
monotone by the Armijo test as in Raydan (SIAM J. Optim. 7, 1997) up to a
round-off floor of RESOLVABLE_ULPS ulps of the energy, which makes a seed's
fate independent of the last bits of R; the step may exceed INITIAL_STEP only
while that test can resolve the decrease above the floor.  Each iteration
forms three grid sums and takes ||w||^2 and <w, pg> from the last iteration's,
and for integer p the power |w|^(p-2) is a few multiplications, not np.power.
Because the resolvent is indefinite, trial iterates can leave the positive
cone; those trigger step shrinking, and a seed whose step collapses is
abandoned.  Seeds descend two at a time, so both descents' resolvent
applications go as one 2-stack through one half-size FFT pair (see
resolvent._multiply).  Each seed keeps the bits it has alone; the pair makes
half the numpy calls of two applications, which counts on small grids (one
descent at a time made a 64^2 solve 6-10% slower).  The line search constants
(INITIAL_STEP ... RESOLVABLE_ULPS) are the same for every run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import Field, Grid, _squared_distance, lp_norm
from .functional import (
    DualState,
    NotInPositiveCone,
    ProblemSpec,
    _dual_power,
    _q_root,
    _resolve,
    constant_coefficient,
)
from .resolvent import ResolventConfig


#: thresholds below which multistart counts two converged states as one
DISTINCT_LP_DISTANCE = 0.1
DISTINCT_ENERGY_GAP = 1e-3

#: backtracking line search of every descent
INITIAL_STEP = 1.0
SHRINK_FACTOR = 0.5
SUFFICIENT_DECREASE = 1e-4
MIN_STEP = 1e-14
#: the two-point step's upper clip (with 2.0 or 8.0, 5 of 51 64^2 delta = 0 limit seeds
#: fail; with 4.0 none), allowed only while the Armijo slope exceeds RESOLVABLE_ULPS ulps
#: of the energy; below that the cap is INITIAL_STEP.  The Armijo test forgives as many
#: ulps: its round-off floor
MAX_STEP = 4.0
RESOLVABLE_ULPS = 1e4


class NoConvergence(RuntimeError):
    """Iteration budget exhausted above the gradient tolerance."""

    def __init__(self, message: str, iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


class AllSeedsLeftCone(RuntimeError):
    """Every restart seed fell out of the positive cone."""


class _StepCollapsed(NotInPositiveCone):
    """The step fell below MIN_STEP with every trial failing the Armijo test.

    The trials may all lie inside the positive cone; the seed loop tells this
    apart from a true cone exit.
    """


@dataclass(frozen=True)
class InitialGuess:
    """Descriptor of one restart seed: a radially modulated Gaussian bump.

    The modulation cos(kappa r) with kappa slightly above 1 pushes the
    spectrum of the seed just outside the unit sphere, where the resolvent
    multiplier is positive; an unmodulated Gaussian of moderate width sits
    below it and falls outside the positive cone.
    """

    width: float = 0.8
    modulation: float = 1.1
    perturbation: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError(f"seed width must be positive, got {self.width}")

    def build(self, grid: Grid) -> Field:
        """The seed centered at the origin of the grid, with peak value 1."""
        r_sq = _squared_distance(np.ix_(*(grid.x_axis,) * grid.dim), (0.0,) * grid.dim)
        vals = np.negative(r_sq)
        vals /= 2.0 * self.width**2
        np.exp(vals, out=vals)
        if self.modulation > 0.0:
            np.sqrt(r_sq, out=r_sq)
            r_sq *= self.modulation
            vals *= np.cos(r_sq, out=r_sq)
        if self.perturbation > 0.0:
            rng = np.random.default_rng(self.rng_seed)
            noise = rng.standard_normal(grid.shape)
            noise *= self.perturbation
            noise += 1.0
            vals *= noise
        return Field(grid, vals)


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 20000
    grad_tol: float = 1e-8
    restart_seeds: tuple[InitialGuess, ...] = (
        InitialGuess(width=0.5),
        InitialGuess(width=0.8),
        InitialGuess(width=1.2),
    )

    def __post_init__(self):
        if self.max_iters < 1 or not self.grad_tol > 0:
            raise ValueError("max_iters must be at least 1 and grad_tol positive")
        if not self.restart_seeds:
            raise ValueError("restart_seeds must not be empty")


def cutoff(r: np.ndarray) -> np.ndarray:
    """Smooth radial cutoff eta(r): 1 on the unit ball, 0 outside radius 2.

    eta(r) = s(2 - r) / (s(2 - r) + s(r - 1)) with s(t) = exp(-1/t)
    for t > 0 and s(t) = 0 otherwise.
    """
    r = np.asarray(r, dtype=float)
    upper = _mollifier(2.0 - r)
    lower = _mollifier(r - 1.0)
    denom = upper + lower
    out = np.zeros_like(r)
    inside = denom > 0.0
    out[inside] = upper[inside] / denom[inside]
    out[r <= 1.0] = 1.0
    return out


def _mollifier(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _abs_power(w: np.ndarray, p: float, spare: np.ndarray) -> np.ndarray:
    """|w|^(p-2) as a new array; spare, of w's shape, may be overwritten.

    For integer p by binary powering of w^2 (even p-2) or |w| (odd p-2): within a few
    ulps of np.power and several times cheaper.  np.power serves only a non-integer p.
    """
    k = p - 2.0
    if not k.is_integer():
        out = np.abs(w)
        out **= k
        return out
    k = int(k)
    base, e = (np.square(w), k // 2) if k % 2 == 0 else (np.abs(w), k)
    out = None
    while True:
        if e & 1:
            out = base if out is None else np.multiply(out, base, out=out)
        e >>= 1
        if not e:
            return out
        base = np.multiply(base, base, out=spare if base is out else base)


def _power(w: np.ndarray, q_root, p: float, cell: float):
    """|w|^(p-2), g = Q^(1/p) v and ||w||_p^p = int v w from one power (v = |w|^(p-2) w)."""
    g = np.empty_like(w)  # the power's scratch first
    w_pow = _abs_power(w, p, g)
    np.multiply(w_pow, w, out=g)
    norm_p = cell * float(np.sum(g * w))
    g *= q_root
    return w_pow, g, norm_p


def _nehari(norm_p: float, quad: float, p: float) -> tuple[float, float, float]:
    """Scale s onto the Nehari manifold ||w||_p^p = quad(v(w)); both terms rescaled by it."""
    if quad <= 0.0:
        raise NotInPositiveCone(f"quadratic term {quad} <= 0")
    s = (norm_p / quad) ** (1.0 / (p - 2.0))
    return s, norm_p * s**p, quad * s ** (2.0 * (p - 1.0))


def _two_point_step(ww: float, wp: float, wg: float, gp: float, pgpg: float,
                    shift: float, step: float) -> float:
    """BB1 step <dw,dw>/<dw,dgrad> of the last move; INITIAL_STEP where the curvature is not positive.

    The move is dw = shift w - step pg (shift = 1 - 1/s) and dgrad = grad - pg, so both
    pairings expand into the five sums of w, grad and pg that the descent holds: ww = <w,w>,
    wp = <w,pg>, wg = <w,grad>, gp = <grad,pg> and pgpg = <pg,pg>.  Neither difference is
    stored.
    """
    dw_dw = shift * shift * ww - 2.0 * shift * step * wp + step * step * pgpg
    dw_dg = shift * (wg - wp) - step * (gp - pgpg)
    return dw_dw / dw_dg if dw_dg > 0.0 else INITIAL_STEP


def _descend(seed: Field, spec: ProblemSpec, cfg: SolverConfig):
    """Projected descent from one seed: a coroutine sent (R g, int g R g) for each g it yields.

    In w = |v|^(p'-2) v the energy's first term is (1/p') ||w||_p^p with p > 2,
    so backtracking sees bounded curvature.  Each iteration first tries the
    two-point (Barzilai-Borwein) step of its last move, INITIAL_STEP on the
    first, and halves it until the Armijo test passes.  That test forgives
    RESOLVABLE_ULPS ulps of the energy, its round-off floor: near the float64
    floor a trial the energy cannot tell from the iterate is accepted, so the
    last bits of R or of this arithmetic do not decide whether a seed
    converges.  Above INITIAL_STEP the step is clipped at MAX_STEP, and only
    while the Armijo threshold can still resolve the decrease against the same
    round-off; near the floor steps stay at most INITIAL_STEP.

    Each iteration forms three grid sums, ||grad||^2, <w,grad> and <grad,pg>, each
    a pairwise np.sum.  The move is w = s (w_prev - step pg), so ||w||^2 and <w,pg>
    follow from the last iteration's sums.  Returns (DualState, iterations); the
    state is built from the descent's own last power and R g.
    """
    grid, p, pp = seed.grid, spec.p, spec.p_prime
    cell, q_root = grid.cell_volume, _q_root(spec, grid)
    w = _dual_power(seed.values, pp)  # seed is given in v; move to w
    del seed  # the descent's own arrays are all it keeps
    w_pow, g, norm_p = _power(w, q_root, p, cell)
    if norm_p == 0.0:
        raise ValueError("zero seed")
    rg, quad = yield g
    s, norm_p, quad = _nehari(norm_p, quad, p)
    en = norm_p / pp - 0.5 * quad
    pg = None  # the previous gradient, for the two-point step

    for it in range(cfg.max_iters):
        # onto the manifold: rg = R g = u; grad = w - Q^(1/p) u (the v-space gradient) in
        # the storage of g, which is spent
        w *= s
        rg *= s ** (p - 1.0)
        grad = np.multiply(rg, q_root, out=g)
        np.subtract(w, grad, out=grad)
        if pg is None:
            ww = float(np.sum(w * w))
        else:  # w = s (w_prev - step pg), and wg, pgpg are w_prev's and pg's sums
            wp = s * (wg - step * pgpg)
            ww = s * s * (ww - 2.0 * step * wg + step * step * pgpg)
        prod = np.multiply(w, grad)  # each grid sum's product, in one array
        wg = float(np.sum(prod))
        gg = float(np.sum(np.multiply(grad, grad, out=prod)))
        rel_grad = math.sqrt(gg) / math.sqrt(ww)  # ||grad|| / ||w||
        if rel_grad <= cfg.grad_tol:
            # v = |w|^(p-2) w, where w_pow is the power of w before its scaling by s
            v = np.multiply(w_pow, s ** (p - 2.0), out=w_pow)
            v *= w
            return DualState(Field(grid, v), spec, Field(grid, rg), en,
                             rel_grad, abs(norm_p - quad), quad), it
        del rg  # only a converged state keeps u
        prod *= w_pow  # w_pow is spent once the slope is formed: a trial brings its own
        slope = (p - 1.0) * cell * s ** (p - 2.0) * float(np.sum(prod))
        del w_pow
        floor = RESOLVABLE_ULPS * np.spacing(abs(en))  # the energy's round-off
        if pg is not None:
            cap = MAX_STEP if slope > floor else INITIAL_STEP
            gp = float(np.sum(np.multiply(grad, pg, out=prod)))
            step = min(_two_point_step(ww, wp, wg, gp, pgpg, 1.0 - 1.0 / s, step), cap)
        else:
            step = INITIAL_STEP
        del prod
        pg, pgpg = grad, gg
        while step >= MIN_STEP:
            trial = np.multiply(grad, step)
            np.subtract(w, trial, out=trial)
            t_pow, g, t_norm = _power(trial, q_root, p, cell)
            t_rg, t_quad = yield g
            if t_quad > 0.0:
                t_s, t_norm, t_quad = _nehari(t_norm, t_quad, p)
                t_en = t_norm / pp - 0.5 * t_quad
                if t_en <= en - SUFFICIENT_DECREASE * step * slope + floor:
                    w, w_pow, rg, s, en = trial, t_pow, t_rg, t_s, t_en
                    norm_p, quad = t_norm, t_quad
                    break
            del trial, t_pow, g, t_rg  # a rejected trial's arrays go before the next is built
            step *= SHRINK_FACTOR
        else:  # no trial step passed the Armijo test
            raise _StepCollapsed("step collapsed without an acceptable iterate")
        del trial, t_pow, t_rg  # the accepted arrays live on as w, w_pow and rg alone

    raise NoConvergence(
        f"gradient {rel_grad:.3e} above tolerance {cfg.grad_tol:.1e} "
        f"after {cfg.max_iters} iterations",
        iterations=cfg.max_iters,
    )


def solve_from_seed(seed: Field, spec: ProblemSpec, cfg: SolverConfig) -> tuple[DualState, int]:
    """Projected descent from one seed; raises NotInPositiveCone / NoConvergence."""
    return _raised(next(_solve_seeds([(seed, spec)], cfg)))


def solve_limit(q0: float, p: float, grid: Grid, cfg: SolverConfig,
                resolvent: ResolventConfig | None = None) -> DualState:
    """solve_ground_state on the constant-coefficient limit problem (Q_eps = q0 for every eps)."""
    if not 0.0 < q0 < np.inf:
        raise ValueError(f"q0 must be positive and finite, got {q0}")
    spec = ProblemSpec(p, 1.0, constant_coefficient(q0),
                       resolvent if resolvent is not None else ResolventConfig())
    return solve_ground_state(spec, grid, cfg)


def _solve_seeds(problems, cfg: SolverConfig):
    """Descend from every (seed, spec) on one grid and resolvent, two at a time, in seed order.

    A pair's applications share one call of the route: fewer numpy calls, the same bits.
    """
    pending, opened = iter(problems), itertools.count()  # no enumerate: it keeps its last item
    running: dict[int, list] = {}  # seed index -> [descent, next g]
    finished: dict[int, object] = {}  # seed index -> (DualState, iterations) or its exception
    key = None  # the first seed's (grid, resolvent): a pair shares one transform

    def advance(i: int, answer) -> None:
        running[i][1] = None  # the resolved g is spent: its descent reuses or drops it
        send = running[i][0].throw if isinstance(answer, Exception) else running[i][0].send
        try:
            running[i][1] = send(answer)
            return
        except StopIteration as stop:
            finished[i] = stop.value
        except (ValueError, NoConvergence) as err:
            finished[i] = err
        del running[i]

    for index in itertools.count():
        while index not in finished:
            for seed, spec in itertools.islice(pending, 2 - len(running)):  # as slots open
                key = key or (seed.grid, spec.resolvent)
                if (seed.grid, spec.resolvent) != key:
                    raise ValueError("seeds on different grids or resolvents")
                i = next(opened)
                running[i] = [_descend(seed, spec, cfg), None]
                del seed
                advance(i, None)
            if not running:
                if index in finished:  # the seeds just opened ended before any application
                    break
                return
            batch = list(running)
            try:
                answers = _resolve(*key, *(running[i][1] for i in batch))
            except ValueError as err:  # a non-finite pairing ends every seed in it
                answers = [err] * len(batch)
            while batch:  # each R g is dropped here once sent: its descent decides its life
                advance(batch.pop(0), answers.pop(0))
        yield finished.pop(index)


def _raised(outcome):
    """The outcome of a seed or a point, raised instead if it is the error that ended it."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _converged(outcomes) -> list[DualState]:
    """Converged states of a point's seed outcomes, in seed order: the one seed-failure rule.

    A cone exit (a collapsed step too) or a spent budget is its seed's; other errors are raised.
    No state raises AllSeedsLeftCone if every seed truly left the cone, else NoConvergence.
    """
    states, failures = [], []
    for outcome in outcomes:
        if isinstance(outcome, (NotInPositiveCone, NoConvergence)):
            failures.append(outcome)
        else:
            states.append(_raised(outcome)[0])
    if not states:
        if not failures:
            raise ValueError("no seeds")
        if all(isinstance(err, NotInPositiveCone) and not isinstance(err, _StepCollapsed)
               for err in failures):
            raise AllSeedsLeftCone("every seed left the positive cone")
        raise NoConvergence(f"no seed converged: {failures[-1]}")
    return states


def _best_state(outcomes) -> DualState:
    """Lowest-energy converged state (the first on ties); raises as _converged does."""
    return min(_converged(outcomes), key=lambda state: state.energy)


def _distinct(outcomes) -> list[DualState]:
    """The converged states in seed order, deduplicated; raises as _converged does.

    Two states are duplicates when their sign-aligned relative L^p' distance
    is at most DISTINCT_LP_DISTANCE and their relative energy gap at most
    DISTINCT_ENERGY_GAP (the functional is even, so v and -v are identified).
    """
    distinct: list[DualState] = []
    for state in _converged(outcomes):
        pp = state.spec.p_prime
        for kept in distinct:
            dist = min(
                lp_norm(state.v - kept.v, pp),
                lp_norm(state.v + kept.v, pp),
            ) / max(lp_norm(state.v, pp), lp_norm(kept.v, pp))
            energy_gap = abs(state.energy - kept.energy) / max(abs(kept.energy), 1e-300)
            if dist <= DISTINCT_LP_DISTANCE and energy_gap <= DISTINCT_ENERGY_GAP:
                break
        else:
            distinct.append(state)
    return distinct


def _cutoffs_misfit(points, epsilon: float, grid: Grid) -> ValueError | None:
    """The error if a support of eta(eps x - y), radius 2/eps around y/eps, outgrows the box."""
    if any((abs(c) + 2.0) / epsilon > grid.half_length for y in points for c in y):
        return ValueError("cutoff support exceeds the box: enlarge it or raise epsilon")
    return None


def _make_test_function(y: tuple[float, ...], epsilon: float, w: Field) -> Field:
    """Cutoff-localized translate of the limit state: eta(eps x - y) w(x - y/eps).

    The translation y/eps is snapped to the nearest lattice vector.  The caller has checked
    that y has the grid's dimension and that the cutoff's support fits inside the box.
    """
    grid = w.grid
    shift_nodes = [int(round(c / (epsilon * grid.spacing))) for c in y]
    # eta is +0.0 wherever some (eps x_d - y_d)^2 >= 4: it is evaluated on the box of the rest
    scaled = epsilon * grid.x_axis
    inside = [(scaled - c) ** 2 < 4.0 for c in y]
    r = _squared_distance(np.ix_(*(scaled[m] for m in inside)), y)
    eta = np.zeros(grid.shape)
    eta[np.ix_(*inside)] = cutoff(np.sqrt(r, out=r))
    del r
    eta *= np.roll(w.values, shift_nodes, axis=tuple(range(grid.dim)))
    return Field(grid, eta)


def _ground_states(template: ProblemSpec, epsilons, grid: Grid, cfg: SolverConfig,
                   limit_state: DualState | None = None, reduce=_best_state):
    """(limit state, per epsilon ``reduce`` of its seeds' outcomes or the error that ended it).

    Points whose cutoffs fit the box share one batch of seeds, each built as its slot opens:
    translates of the limit state (solved at sup Q if none was given), or restart seeds.
    A given limit state must be the template's limit problem: same grid, p and resolvent,
    and a constant coefficient at sup Q.
    """
    template.validate_for_grid(grid)
    if limit_state is not None:
        if limit_state.v.grid != grid:
            raise ValueError("limit state lives on another grid")
        lim, q_sup = limit_state.spec, template.coefficient.q_sup
        if (lim.p != template.p or lim.resolvent != template.resolvent
                or lim.coefficient.maximum_set  # a constant Q at sup Q, up to round-off
                or abs(lim.coefficient.q_sup - q_sup) > 1e-12 * q_sup):
            raise ValueError("limit state solves another problem than the limit at sup Q")
    maxima = template.coefficient.maximum_set
    specs = [replace(template, epsilon=e) for e in epsilons]  # each refuses a bad epsilon
    unfit = [_cutoffs_misfit(maxima, s.epsilon, grid) for s in specs]  # errors that leave no seeds
    solved = [spec for spec, err in zip(specs, unfit) if err is None]
    if not solved:
        return limit_state, unfit
    if not maxima:
        problems = ((s.build(grid), spec) for spec in solved for s in cfg.restart_seeds)
    else:
        if limit_state is None:
            limit_state = solve_limit(template.coefficient.q_sup, template.p, grid, cfg,
                                      resolvent=template.resolvent)
        problems = ((_make_test_function(y, spec.epsilon, limit_state.v), spec)
                    for spec in solved for y in maxima)
    per_point = len(maxima) or len(cfg.restart_seeds)
    outcomes = _solve_seeds(problems, cfg)
    states = []
    for outcome in unfit:  # None where the point is solved
        if outcome is None:
            point = list(itertools.islice(outcomes, per_point))  # whole: reduce may raise
            try:
                outcome = reduce(point)
            except (NoConvergence, AllSeedsLeftCone, ValueError) as err:
                outcome = err
        states.append(outcome)
    return limit_state, states


def _ground_state(spec, grid, cfg, limit_state=None, reduce=_best_state):
    """(limit state, ``reduce`` of the seeds' outcomes) at spec.epsilon; raises what ends it."""
    limit_state, [outcome] = _ground_states(spec, [spec.epsilon], grid, cfg, limit_state, reduce)
    return limit_state, _raised(outcome)


def solve_ground_state(spec: ProblemSpec, grid: Grid, cfg: SolverConfig,
                       limit_state: DualState | None = None) -> DualState:
    """Minimize the dual energy over the Nehari manifold for one problem instance.

    The returned energy is the minimum over converged seeds; global
    optimality is not certified.
    """
    return _ground_state(spec, grid, cfg, limit_state)[1]


def multistart(spec: ProblemSpec, grid: Grid, cfg: SolverConfig) -> list[DualState]:
    """Every distinct converged state (see _distinct) from the seeds of solve_ground_state.

    It refuses and fails as solve_ground_state does; the seeds are a cutoff translate of
    the limit state at each maximum of Q, or the restart seeds of a constant Q.
    """
    return _ground_state(spec, grid, cfg, reduce=_distinct)[1]
