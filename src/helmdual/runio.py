"""Run configuration parsing (strict schema) and atomic result persistence."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field

from . import __version__
from .grid import Grid, make_grid
from .functional import CoefficientSpec, ProblemSpec
from .resolvent import ResolventConfig
from .solver import InitialGuess, SolverConfig

CONFIG_VERSION = 1

EXPERIMENTS = ("validate", "solve", "limit", "sweep", "decay", "compare_energy")


class ConfigError(ValueError):
    """Schema violation in a run configuration."""


def _require(mapping, context: str, required=(), optional=()) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context}: expected an object")
    unknown = set(mapping) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(mapping)
    if missing:
        raise ConfigError(f"{context}: missing keys {sorted(missing)}")


def _number(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}: expected a number, got {value!r}")
    return float(value)


def _integer(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}: expected an integer, got {value!r}")
    return value


def _point_list(value, context: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{context}: expected a list of points")
    return tuple(
        tuple(_number(c, f"{context}[{i}]") for c in pt)
        for i, pt in enumerate(value)
    )


def _number_list(value, context: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{context}: expected a list of numbers")
    return tuple(_number(x, context) for x in value)


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one run, parsed from a strict JSON file."""

    experiment: str
    grid: Grid
    problem: ProblemSpec | None
    solver: SolverConfig
    params: dict
    seed: int
    raw_bytes: bytes = field(repr=False, compare=False, default=b"")

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_bytes).hexdigest()


def _parse_coefficient(obj) -> CoefficientSpec:
    _require(obj, "problem.coefficient", required=("kind",),
             optional=("floor", "centers", "amplitudes", "widths"))
    kind = obj["kind"]
    if kind == "constant":
        _require(obj, "problem.coefficient", required=("kind", "floor"))
        return CoefficientSpec(kind="constant",
                               floor=_number(obj["floor"], "coefficient.floor"))
    if kind == "gaussian_bumps":
        _require(obj, "problem.coefficient",
                 required=("kind", "floor", "centers", "amplitudes", "widths"))
        return CoefficientSpec(
            kind="gaussian_bumps",
            floor=_number(obj["floor"], "coefficient.floor"),
            centers=_point_list(obj["centers"], "coefficient.centers"),
            amplitudes=_number_list(obj["amplitudes"], "coefficient.amplitudes"),
            widths=_number_list(obj["widths"], "coefficient.widths"),
        )
    raise ConfigError(f"coefficient.kind must be 'constant' or 'gaussian_bumps', "
                      f"got {kind!r} (expression coefficients are library-only)")


def _parse_grid(obj) -> Grid:
    _require(obj, "grid", required=("dim", "half_length", "points_per_axis"),
             optional=("freq_shift",))
    shift = None
    if "freq_shift" in obj:
        shift = _number_list(obj["freq_shift"], "grid.freq_shift")
    try:
        return make_grid(_integer(obj["dim"], "grid.dim"),
                         _number(obj["half_length"], "grid.half_length"),
                         _integer(obj["points_per_axis"], "grid.points_per_axis"),
                         shift)
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err


def _parse_problem(obj) -> ProblemSpec:
    _require(obj, "problem", required=("p", "epsilon", "coefficient"),
             optional=("delta", "resolvent_mode"))
    resolvent = ResolventConfig(
        delta=_number(obj.get("delta", 0.0), "problem.delta"),
        mode=obj.get("resolvent_mode", "multiplier"),
    )
    try:
        return ProblemSpec(
            p=_number(obj["p"], "problem.p"),
            epsilon=_number(obj["epsilon"], "problem.epsilon"),
            coefficient=_parse_coefficient(obj["coefficient"]),
            resolvent=resolvent,
        )
    except ValueError as err:
        raise ConfigError(f"problem: {err}") from err


_SOLVER_KEYS = ("max_iters", "grad_tol", "initial_step", "shrink_factor",
                "growth_factor", "sufficient_decrease", "min_step",
                "distinct_lp_distance", "distinct_energy_gap",
                "seed_widths", "seed_modulation")


def _parse_solver(obj, seed: int) -> SolverConfig:
    _require(obj, "solver", optional=_SOLVER_KEYS)
    kwargs = {}
    for key in ("grad_tol", "initial_step", "shrink_factor", "growth_factor",
                "sufficient_decrease", "min_step", "distinct_lp_distance",
                "distinct_energy_gap"):
        if key in obj:
            kwargs[key] = _number(obj[key], f"solver.{key}")
    if "max_iters" in obj:
        kwargs["max_iters"] = _integer(obj["max_iters"], "solver.max_iters")
    widths = obj.get("seed_widths", [0.5, 0.8, 1.2])
    modulation = _number(obj.get("seed_modulation", 1.1), "solver.seed_modulation")
    kwargs["restart_seeds"] = tuple(
        InitialGuess(width=_number(w, "solver.seed_widths"),
                     modulation=modulation, rng_seed=seed)
        for w in widths
    )
    try:
        return SolverConfig(**kwargs)
    except ValueError as err:
        raise ConfigError(f"solver: {err}") from err


_PARAM_KEYS = {
    "validate": ("input_field",),
    "solve": (),
    "limit": ("q0",),
    "sweep": ("epsilon_list", "rho", "delta_nbhd", "edge_threshold"),
    "decay": ("r_list", "bump_radius", "modulation", "boundary_wavelengths"),
    "compare_energy": ("slack",),
}


def parse_config(raw: bytes) -> RunConfig:
    """Parse and validate a config file; any unknown key is an error."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    _require(obj, "config", required=("version", "experiment", "grid"),
             optional=("problem", "solver", "params", "seed"))
    if obj["version"] != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {obj['version']!r}")
    experiment = obj["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    grid = _parse_grid(obj["grid"])
    problem = None
    if "problem" in obj:
        problem = _parse_problem(obj["problem"])
    elif experiment in ("solve", "sweep", "decay", "compare_energy", "limit"):
        raise ConfigError(f"experiment {experiment!r} requires a 'problem' section")
    seed = _integer(obj.get("seed", 0), "seed")
    solver = _parse_solver(obj.get("solver", {}), seed)
    params = obj.get("params", {})
    _require(params, "params", optional=_PARAM_KEYS[experiment])
    return RunConfig(experiment=experiment, grid=grid, problem=problem,
                     solver=solver, params=params, seed=seed, raw_bytes=raw)


def load_config(path) -> RunConfig:
    with open(path, "rb") as fh:
        return parse_config(fh.read())


@dataclass
class RunRecord:
    """Persisted result of one run; serialized as a JSON manifest."""

    config_hash: str
    experiment: str
    started_at: float
    finished_at: float | None = None
    converged: bool = False
    energies: dict = field(default_factory=dict)
    iterations: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    library_version: str = __version__

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n"


def atomic_write(path, data: bytes) -> None:
    """Write via a temp file in the same directory followed by an atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_record(out_dir, record: RunRecord, force: bool) -> str:
    """Persist the manifest; refuses to overwrite an existing one unless forced."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "run.json")
    if os.path.exists(path) and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")
    record.finished_at = time.time()
    atomic_write(path, record.to_json().encode("utf-8"))
    return path
