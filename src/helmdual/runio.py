"""Run configuration parsing (strict schema) and atomic result persistence."""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field

from . import __version__
from .grid import Grid, make_grid
from .functional import CoefficientSpec, ProblemSpec
from .resolvent import ResolventConfig
from .solver import SolverConfig

CONFIG_VERSION = 1


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


def _typed(mapping, context: str, schema: dict, required=()) -> dict:
    """The keys of mapping, each checked by its schema entry; unknown or missing keys fail."""
    _require(mapping, context, required=required, optional=schema)
    return {key: schema[key](value, f"{context}.{key}") for key, value in mapping.items()}


def _number(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):  # json.loads also reads NaN, Infinity and -Infinity
        raise ConfigError(f"{context}: expected a finite number, got {value!r}")
    return number


def _integer(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}: expected an integer, got {value!r}")
    return value


def _string(value, context: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{context}: expected a string, got {value!r}")
    return value


def _number_list(value, context: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{context}: expected a list of numbers, got {value!r}")
    return tuple(_number(x, f"{context}[{i}]") for i, x in enumerate(value))


def _point_list(value, context: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{context}: expected a list of points, got {value!r}")
    return tuple(_number_list(pt, f"{context}[{i}]") for i, pt in enumerate(value))


#: each experiment's ``params`` keys: key -> (type check, required); the
#: defaults of the optional keys live in the library signatures they feed
_PARAMS = {
    "validate": {"input_field": (_string, False)},
    "solve": {},
    "limit": {},
    "sweep": {"epsilon_list": (_number_list, True), "rho": (_number, False)},
    "decay": {"r_list": (_number_list, True)},
    "compare_energy": {},
}

EXPERIMENTS = tuple(_PARAMS)


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one run, parsed from a strict JSON file."""

    experiment: str
    grid: Grid
    problem: ProblemSpec | None
    solver: SolverConfig
    params: dict               # typed values of the keys the config sets
    seed: int
    raw_bytes: bytes = field(repr=False, compare=False, default=b"")

    @property
    def config_hash(self) -> str:
        import hashlib  # loads OpenSSL: only a run that writes a record pays for it

        return hashlib.sha256(self.raw_bytes).hexdigest()


#: Gaussian bumps when centers, amplitudes and widths are set, else the constant floor
_COEFFICIENT = {"floor": _number, "centers": _point_list, "amplitudes": _number_list,
                "widths": _number_list}


def _parse_coefficient(obj, context: str) -> CoefficientSpec:
    kwargs = _typed(obj, context, _COEFFICIENT, required=("floor",))
    try:
        return CoefficientSpec(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{context}: {err}") from err


_GRID = {"dim": _integer, "half_length": _number, "points_per_axis": _integer}

_PROBLEM = {"p": _number, "epsilon": _number, "coefficient": _parse_coefficient,
            "delta": _number, "resolvent_mode": _string}

_SOLVER = {"max_iters": _integer, "grad_tol": _number}


def _parse_grid(obj) -> Grid:
    kwargs = _typed(obj, "grid", _GRID, required=_GRID)
    try:
        return make_grid(**kwargs)
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err


def _parse_problem(obj, grid: Grid) -> ProblemSpec:
    kwargs = _typed(obj, "problem", _PROBLEM, required=("p", "epsilon", "coefficient"))
    try:
        resolvent = ResolventConfig(delta=kwargs.pop("delta", ResolventConfig.delta),
                                    mode=kwargs.pop("resolvent_mode", ResolventConfig.mode))
        problem = ProblemSpec(resolvent=resolvent, **kwargs)
        problem.validate_for_grid(grid)
        return problem
    except ValueError as err:
        raise ConfigError(f"problem: {err}") from err


def _parse_solver(obj) -> SolverConfig:
    kwargs = _typed(obj, "solver", _SOLVER)
    try:
        return SolverConfig(**kwargs)
    except ValueError as err:
        raise ConfigError(f"solver: {err}") from err


def _parse_params(obj, experiment: str) -> dict:
    schema = _PARAMS[experiment]
    required = [key for key, (_, needed) in schema.items() if needed]
    return _typed(obj, "params", {key: check for key, (check, _) in schema.items()}, required)


def parse_config(raw: bytes) -> RunConfig:
    """Parse and validate a config file; any unknown key or mistyped value is an error."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    _require(obj, "config", required=("version", "experiment", "grid"),
             optional=("problem", "solver", "params", "seed"))
    if _integer(obj["version"], "version") != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {obj['version']!r}")
    experiment = obj["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    grid = _parse_grid(obj["grid"])
    problem = None
    if "problem" in obj:
        problem = _parse_problem(obj["problem"], grid)
    elif experiment != "validate":
        raise ConfigError(f"experiment {experiment!r} requires a 'problem' section")
    seed = _integer(obj.get("seed", 0), "seed")
    solver = _parse_solver(obj.get("solver", {}))
    params = _parse_params(obj.get("params", {}), experiment)
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


def refuse_rerun(out_dir, force: bool) -> str:
    """Path of the manifest in out_dir; raises FileExistsError if it exists, unless forced.

    An out_dir that is not a directory raises NotADirectoryError, forced or not.
    """
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise NotADirectoryError(f"output path {out_dir} exists and is not a directory")
    path = os.path.join(out_dir, "run.json")
    if os.path.exists(path) and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")
    return path


def write_record(out_dir, record: RunRecord, force: bool) -> str:
    """Persist the manifest; refuses to overwrite an existing one unless forced."""
    os.makedirs(out_dir, exist_ok=True)
    path = refuse_rerun(out_dir, force)
    record.finished_at = time.time()
    atomic_write(path, record.to_json().encode("utf-8"))
    return path
