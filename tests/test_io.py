"""Field file format, strict config parsing, and atomic run persistence."""

import copy
import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from helmdual.grid import Field, make_grid
from helmdual.fieldio import FieldFormatError, MAGIC, read_field, write_field
from helmdual.runio import (
    _SOLVER,
    ConfigError,
    RunRecord,
    atomic_write,
    parse_config,
    write_record,
)
from helmdual.solver import SolverConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def base_config(**overrides):
    cfg = {
        "version": 1,
        "experiment": "limit",
        "grid": {"dim": 2, "half_length": 30.0, "points_per_axis": 64},
        "problem": {
            "p": 8.0,
            "epsilon": 1.0,
            "delta": 0.0,
            "coefficient": {"floor": 1.0},
        },
        "solver": {"max_iters": 500},
        "seed": 3,
    }
    cfg.update(overrides)
    return json.dumps(cfg).encode("utf-8")


class TestFieldFormat:
    def test_roundtrip_exact(self, tmp_path):
        g = make_grid(3, 12.0, 16)
        rng = np.random.default_rng(21)
        f = Field(g, rng.standard_normal(g.shape))
        path = tmp_path / "f.fld"
        write_field(path, f)
        back = read_field(path)
        assert back.grid == g
        np.testing.assert_array_equal(back.values, f.values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fld"
        path.write_bytes(b"NOTAFIELD!!!" + b"\x00" * 64)
        with pytest.raises(FieldFormatError):
            read_field(path)

    def test_truncation(self, tmp_path):
        g = make_grid(2, 5.0, 16)
        path = tmp_path / "f.fld"
        write_field(path, Field(g, np.ones(g.shape)))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FieldFormatError):
            read_field(path)

    def test_bad_version(self, tmp_path):
        g = make_grid(2, 5.0, 16)
        path = tmp_path / "f.fld"
        write_field(path, Field(g, np.ones(g.shape)))
        data = bytearray(path.read_bytes())
        data[12] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(FieldFormatError):
            read_field(path)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_half_shift_stored_and_other_shifts_rejected(self, tmp_path, dim):
        g = make_grid(dim, 5.0, 8)
        path = tmp_path / "f.fld"
        write_field(path, Field(g, np.ones(g.shape)))
        data = bytearray(path.read_bytes())
        assert np.frombuffer(data, "<f8", dim, 40).tolist() == [0.5] * dim
        data[40 + 8 * (dim - 1):40 + 8 * dim] = np.float64(0.0).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(FieldFormatError, match="frequency shift"):
            read_field(path)

    def test_bad_dimension(self, tmp_path):
        g = make_grid(2, 5.0, 16)
        path = tmp_path / "f.fld"
        write_field(path, Field(g, np.ones(g.shape)))
        data = bytearray(path.read_bytes())
        data[len(MAGIC) + 4] = 7  # dim field
        path.write_bytes(bytes(data))
        with pytest.raises(FieldFormatError):
            read_field(path)


class TestParseConfig:
    def test_happy_path(self):
        cfg = parse_config(base_config())
        assert cfg.experiment == "limit"
        assert cfg.grid.points_per_axis == 64
        assert cfg.problem.p == 8.0
        assert cfg.solver.max_iters == 500
        assert cfg.seed == 3
        assert cfg.params == {}

    def test_config_hash_tracks_bytes(self):
        a = parse_config(base_config(seed=3))
        b = parse_config(base_config(seed=4))
        assert a.config_hash != b.config_hash
        assert len(a.config_hash) == 64

    def test_not_json(self):
        with pytest.raises(ConfigError):
            parse_config(b"{not json")

    def test_unknown_top_level_key(self):
        obj = json.loads(base_config())
        obj["extra"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(json.dumps(obj).encode())

    def test_unknown_grid_key(self):
        obj = json.loads(base_config())
        obj["grid"]["spacing"] = 0.1
        with pytest.raises(ConfigError, match="grid"):
            parse_config(json.dumps(obj).encode())

    def test_unknown_problem_key(self):
        obj = json.loads(base_config())
        obj["problem"]["k"] = 2.0
        with pytest.raises(ConfigError, match="problem"):
            parse_config(json.dumps(obj).encode())

    def test_unknown_coefficient_key(self):
        obj = json.loads(base_config())
        obj["problem"]["coefficient"]["sigma"] = 1.0
        with pytest.raises(ConfigError, match="coefficient"):
            parse_config(json.dumps(obj).encode())

    def test_unknown_solver_key(self):
        obj = json.loads(base_config())
        obj["solver"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match="solver"):
            parse_config(json.dumps(obj).encode())

    @pytest.mark.parametrize("key", ["initial_step", "shrink_factor", "growth_factor",
                                     "sufficient_decrease", "min_step"])
    def test_removed_line_search_key(self, key):
        obj = json.loads(base_config())
        obj["solver"][key] = 0.5
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(json.dumps(obj).encode())

    def test_solver_keys_match_solver_config(self):
        # a knob added to one side only would be unreachable or unparsed; the restart
        # seeds are set by library callers only
        fields = {f.name for f in dataclasses.fields(SolverConfig)} - {"restart_seeds"}
        assert set(_SOLVER) == fields

    def test_unknown_params_key(self):
        obj = json.loads(base_config())
        obj["params"] = {"rho": 3.0}  # belongs to sweep, not limit
        with pytest.raises(ConfigError, match="params"):
            parse_config(json.dumps(obj).encode())

    def test_bad_version(self):
        with pytest.raises(ConfigError, match="version"):
            parse_config(base_config(version=2))

    def test_bad_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(base_config(experiment="optimize"))

    def test_missing_problem_for_solve(self):
        obj = json.loads(base_config(experiment="solve"))
        del obj["problem"]
        obj["params"] = {}
        with pytest.raises(ConfigError, match="problem"):
            parse_config(json.dumps(obj).encode())

    def test_expression_coefficient_rejected(self):
        obj = json.loads(base_config())
        obj["problem"]["coefficient"] = {"kind": "expression"}
        with pytest.raises(ConfigError, match=r"problem.coefficient: unknown keys \['kind'\]"):
            parse_config(json.dumps(obj).encode())

    def test_type_errors(self):
        obj = json.loads(base_config())
        obj["grid"]["points_per_axis"] = 64.5
        with pytest.raises(ConfigError, match="integer"):
            parse_config(json.dumps(obj).encode())
        obj = json.loads(base_config())
        obj["solver"]["use_fixed_point"] = True
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(json.dumps(obj).encode())

    def test_domain_errors_become_config_errors(self):
        obj = json.loads(base_config())
        obj["problem"]["p"] = 2.0
        with pytest.raises(ConfigError):
            parse_config(json.dumps(obj).encode())
        obj = json.loads(base_config())
        obj["grid"]["points_per_axis"] = 63
        with pytest.raises(ConfigError):
            parse_config(json.dumps(obj).encode())
        # the free-space kernel reads no delta: a config that sets one is refused at load
        obj = json.loads(base_config())
        obj["problem"].update(delta=0.01, resolvent_mode="direct_oracle")
        with pytest.raises(ConfigError, match="problem: the free-space route reads no delta"):
            parse_config(json.dumps(obj).encode())


#: params of a config per experiment that sets every optional key
FULL_PARAMS = {
    "validate": {"input_field": "input.field"},
    "solve": {},
    "limit": {},
    "sweep": {"epsilon_list": [0.5, 0.25], "rho": 3.0},
    "decay": {"r_list": [5.0, 11.0, 17.0]},
    "compare_energy": {},
}


def full_config(experiment):
    return {
        "version": 1,
        "experiment": experiment,
        "grid": {"dim": 2, "half_length": 30.0, "points_per_axis": 16},
        "problem": {
            "p": 8.0, "epsilon": 0.5, "delta": 0.01, "resolvent_mode": "multiplier",
            "coefficient": {"floor": 0.25, "centers": [[0.8, 0.4]], "amplitudes": [0.75],
                            "widths": [1.5]},
        },
        "solver": {"max_iters": 100, "grad_tol": 5e-8},
        "params": FULL_PARAMS[experiment],
        "seed": 0,
    }


STRICT_CASES = {
    **{path.name: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))},
    **{f"full-{experiment}": full_config(experiment) for experiment in FULL_PARAMS},
}

#: one value of every JSON type (1.5 is a number but not an integer)
OTHER_TYPES = (None, True, 1.5, "x", [], {})


def value_paths(value, path=()):
    """The path (keys and list indices) of every value nested in a JSON document."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from value_paths(item, path + (key,))


class TestSchemaStrictness:
    @pytest.mark.parametrize("name", STRICT_CASES)
    def test_every_value_of_another_type_is_a_config_error(self, name):
        obj = STRICT_CASES[name]
        parse_config(json.dumps(obj).encode())  # valid as given
        not_refused = []
        for path in value_paths(obj):
            for other in OTHER_TYPES:
                mutated = copy.deepcopy(obj)
                parent = mutated
                for key in path[:-1]:
                    parent = parent[key]
                if type(parent[path[-1]]) is type(other):
                    continue
                parent[path[-1]] = other
                try:
                    parse_config(json.dumps(mutated).encode())
                except ConfigError:
                    continue
                except Exception as err:  # noqa: BLE001 - any other outcome is a hole
                    not_refused.append((path, other, type(err).__name__))
                else:
                    not_refused.append((path, other, "accepted"))
        assert not_refused == []


class TestRunRecord:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_write_and_refuse_overwrite(self, tmp_path):
        rec = RunRecord(config_hash="abc", experiment="limit", started_at=0.0)
        path = write_record(tmp_path, rec, force=False)
        assert os.path.basename(path) == "run.json"
        stored = json.loads(open(path).read())
        assert stored["experiment"] == "limit"
        assert stored["finished_at"] is not None
        with pytest.raises(FileExistsError):
            write_record(tmp_path, rec, force=False)
        write_record(tmp_path, rec, force=True)  # allowed with force
