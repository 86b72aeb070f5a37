"""End-to-end command-line behavior: exit codes, artifacts, reproducibility."""

import json
from dataclasses import fields
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from helmdual import cli
from helmdual.cli import _COMMANDS, main
from helmdual.experiments import DecayRecord
from helmdual.fieldio import read_field, write_field
from helmdual.grid import Field, make_grid
from helmdual.runio import load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, name="cfg.json", **overrides):
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
        "solver": {"max_iters": 5000},
        "seed": 0,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def run(cmd, cfg_path, out_dir, *extra):
    return main([cmd, "--config", cfg_path, "--out", str(out_dir), *extra])


class TestLimitCommand:
    def test_success_writes_manifest_and_fields(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert run("limit", cfg, out) == 0
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["converged"]
        assert manifest["energies"]["c_0"] > 0
        assert set(manifest["artifacts"]) == {"limit_v.field", "limit_u.field"}
        v = read_field(out / "limit_v.field")
        assert v.grid.points_per_axis == 64
        assert "c_0" in capsys.readouterr().out

    def test_rerun_refused_without_force(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert run("limit", cfg, out) == 0
        assert run("limit", cfg, out) == 4
        assert run("limit", cfg, out, "--force") == 0

    def test_refused_rerun_leaves_first_run_untouched(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        assert run("limit", write_config(tmp_path, "first.json"), out) == 0
        first = {path.name: path.read_bytes() for path in out.iterdir()}
        second = write_config(tmp_path, "second.json",
                              problem={"p": 8.0, "epsilon": 1.0, "delta": 0.0,
                                       "coefficient": {"floor": 2.0}})

        def no_solve(*args, **kwargs):
            raise AssertionError("a refused rerun must not solve")

        monkeypatch.setattr(cli, "solve_limit", no_solve)
        assert run("limit", second, out) == 4
        assert "--force" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == first
        monkeypatch.undo()
        assert run("limit", second, out, "--force") == 0
        assert json.loads((out / "run.json").read_text())["diagnostics"]["q0"] == 2.0

    def test_missing_config_file(self, tmp_path, capsys):
        assert run("limit", str(tmp_path / "nope.json"), tmp_path / "o") == 2

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bogus=1)
        assert run("limit", cfg, tmp_path / "o") == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, params", [
        ("sweep", {"epsilon_list": 0.1}),
        ("decay", {"r_list": None}),
    ], ids=["epsilon_list-number", "r_list-null"])
    def test_mistyped_param_is_config_error(self, tmp_path, capsys, experiment, params):
        cfg = write_config(tmp_path, experiment=experiment, params=params)
        out = tmp_path / "o"
        assert run(experiment, cfg, out) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("solver", [{"max_iters": 0}], ids=["no-iterations"])
    def test_degenerate_solver_is_config_error_before_any_solve(self, tmp_path, capsys,
                                                                 monkeypatch, solver):
        def no_solve(*args, **kwargs):
            raise AssertionError("a config error must not solve")

        monkeypatch.setattr(cli, "solve_limit", no_solve)
        out = tmp_path / "o"
        assert run("limit", write_config(tmp_path, solver=solver), out) == 2
        assert "config error: solver: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400],
                             ids=["NaN", "Infinity", "integer-beyond-float"])
    @pytest.mark.parametrize("keys", [
        ("grid", "half_length"), ("problem", "delta"), ("problem", "coefficient", "floor"),
        ("solver", "grad_tol"),
    ], ids=".".join)
    def test_non_finite_number_is_config_error_before_any_solve(self, tmp_path, capsys,
                                                                monkeypatch, keys, value):
        # json.loads reads the literals NaN and Infinity as floats, and integers of any size
        def no_solve(*args, **kwargs):
            raise AssertionError("a config error must not solve")

        monkeypatch.setattr(cli, "solve_limit", no_solve)
        path = Path(write_config(tmp_path))
        obj = json.loads(path.read_text())
        reduce(lambda section, key: section[key], keys[:-1], obj)[keys[-1]] = value
        path.write_text(json.dumps(obj))
        out = tmp_path / "o"
        assert run("limit", str(path), out) == 2
        assert f"{'.'.join(keys)}: expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_experiment_subcommand_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run("solve", cfg, tmp_path / "o") == 2

    @pytest.mark.parametrize("config, keys, value", [
        ("limit.json", ("grid", "freq_shift"), [0.5, 0.5]),
        ("decay.json", ("params", "bump_radius"), 2.0),
        ("limit.json", ("params", "q0"), 1.0),
        ("limit.json", ("solver", "seed_widths"), [0.5, 0.8]),
        ("limit.json", ("solver", "seed_modulation"), 1.1),
        ("sweep.json", ("params", "delta_nbhd"), 0.5),
        ("compare_energy.json", ("problem", "coefficient", "kind"), "gaussian_bumps"),
    ], ids=["freq_shift", "bump_radius", "q0", "seed_widths", "seed_modulation", "delta_nbhd",
            "kind"])
    def test_removed_key_is_config_error_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                           config, keys, value):
        # the limit level is sup Q of problem.coefficient; runs use the default restart seeds;
        # rho contains the constant NEIGHBORHOOD; centers, set or not, say whether Q has bumps
        cfg = json.loads((CONFIGS / config).read_text())
        *parents, key = keys
        reduce(lambda section, name: section.setdefault(name, {}), parents, cfg)[key] = value
        path = tmp_path / config
        path.write_text(json.dumps(cfg))

        def no_solve(*args, **kwargs):
            raise AssertionError("a config error must not solve")

        monkeypatch.setattr("helmdual.solver._solve_seeds", no_solve)
        for name in ("solve_limit", "interaction_decay"):
            monkeypatch.setattr(cli, name, no_solve)
        out = tmp_path / "o"
        assert run(cfg["experiment"].replace("_", "-"), str(path), out) == 2
        assert f"{'.'.join(parents)}: unknown keys ['{key}']" in capsys.readouterr().err
        assert not out.exists()

    def test_large_admissible_exponent_solves(self, tmp_path, capsys):
        # every p > 6 is admissible in 2D; at p = 1000 early trials overflow |w|^(p-2), which
        # their line searches reject, so each default seed converges and nothing is printed
        # to stderr (the suite turns a RuntimeWarning into an error)
        problem = {"p": 1000.0, "epsilon": 1.0, "delta": 0.01, "coefficient": {"floor": 1.0}}
        cfg = write_config(tmp_path, problem=problem,
                           solver={"max_iters": 2000, "grad_tol": 1e-6})
        assert run("limit", cfg, tmp_path / "o") == 0
        assert capsys.readouterr().err == ""
        record = json.loads((tmp_path / "o" / "run.json").read_text())
        assert record["energies"]["c_0"] == pytest.approx(1.7339244424579283, rel=1e-12)

    def test_singular_lattice_is_numeric_failure(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            grid={"dim": 2, "half_length": float(np.pi / np.sqrt(2.0)), "points_per_axis": 16},
        )
        assert run("limit", cfg, tmp_path / "o") == 3
        assert "numeric failure" in capsys.readouterr().err


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
    def test_loads_and_maps_to_a_subcommand(self, path):
        cfg = load_config(path)
        assert cfg.experiment in {experiment for experiment, _ in _COMMANDS.values()}


    @pytest.mark.parametrize("experiment, pinned", [
        ("limit", {("energies", "c_0"): 3.1510113831347706}),
        ("sweep", {("energies", "c_0"): 3.1510113831347706,
                   ("energies", "c_eps", "0.2"): 3.1633261190938677,
                   ("energies", "c_eps", "0.1"): 3.1580842846917703,
                   ("energies", "c_eps", "0.05"): 3.154738490092152}),
        ("decay", {("diagnostics", "slope"): -0.28504429199599546}),
        ("compare_energy", {("energies", "c_0"): 3.1510113831347706,
                            ("energies", "c_eps"): 3.154738490092152,
                            ("energies", "c_inf"): 5.001918784351906}),
        ("solve", {("energies", "c_eps"): 3.1547384900921474}),
    ], ids=["limit", "sweep", "decay", "compare_energy", "solve"])
    def test_same_numbers(self, tmp_path, capsys, experiment, pinned):
        out = tmp_path / "o"
        assert run(experiment.replace("_", "-"), str(CONFIGS / f"{experiment}.json"), out) == 0
        record = json.loads((out / "run.json").read_text())
        for keys, value in pinned.items():
            assert reduce(dict.__getitem__, keys, record) == pytest.approx(value, rel=1e-12)


class TestValidateCommand:
    def test_passes_and_prints_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="validate", params={})
        assert run("validate", cfg, tmp_path / "o") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_shipped_validate_config(self, tmp_path, capsys):
        # the config named by the README's validate command
        assert run("validate", str(CONFIGS / "validate.json"), tmp_path / "o") == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_input_field_checked(self, tmp_path, capsys):
        g = make_grid(2, 10.0, 16)
        fld = tmp_path / "input.field"
        write_field(fld, Field(g, np.ones(g.shape)))
        cfg = write_config(tmp_path, experiment="validate",
                           params={"input_field": str(fld)})
        assert run("validate", cfg, tmp_path / "o") == 0

    @pytest.mark.parametrize("mode, code", [("direct_oracle", 0), ("multiplier", 3)])
    def test_singular_lattice_only_on_the_multiplier_route(self, tmp_path, capsys, mode, code):
        # |xi| = 1 on this lattice: the multiplier route at delta = 0 is singular there, the
        # free-space route never sees the lattice
        problem = {"p": 8.0, "epsilon": 1.0, "delta": 0.0, "resolvent_mode": mode,
                   "coefficient": {"floor": 1.0}}
        grid = {"dim": 2, "half_length": float(np.pi / np.sqrt(2.0)), "points_per_axis": 16}
        cfg = write_config(tmp_path, experiment="validate", params={}, grid=grid,
                           problem=problem)
        assert run("validate", cfg, tmp_path / "o") == code
        out = capsys.readouterr().out
        assert ("singular lattice" in out) == (code == 3)
        assert ("FAIL" in out) == (code == 3)

    def test_corrupt_input_field_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.field"
        bad.write_bytes(b"garbage")
        cfg = write_config(tmp_path, experiment="validate",
                           params={"input_field": str(bad)})
        assert run("validate", cfg, tmp_path / "o") == 3
        assert "FAIL" in capsys.readouterr().out


@pytest.fixture()
def bump_problem():
    return {
        "p": 8.0,
        "epsilon": 0.5,
        "delta": 0.01,
        "coefficient": {"floor": 0.25,
                        "centers": [[0.8, 0.4]], "amplitudes": [0.75],
                        "widths": [1.5]},
    }


class TestSweepCommand:
    def test_csv_rows_match_epsilon_list(self, tmp_path, capsys, bump_problem):
        cfg = write_config(
            tmp_path, experiment="sweep", problem=bump_problem,
            solver={"max_iters": 8000, "grad_tol": 5e-8},
            params={"epsilon_list": [0.5, 0.25], "rho": 3.0},
        )
        out = tmp_path / "run"
        assert run("sweep", cfg, out) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("epsilon,")
        assert len(lines) == 3

    def test_reproducible_numerics(self, tmp_path, capsys, bump_problem):
        cfg = write_config(
            tmp_path, experiment="sweep", problem=bump_problem,
            solver={"max_iters": 8000, "grad_tol": 5e-8},
            params={"epsilon_list": [0.5], "rho": 3.0},
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("sweep", cfg, out_a) == 0
        assert run("sweep", cfg, out_b) == 0
        assert (out_a / "sweep.csv").read_text() == (out_b / "sweep.csv").read_text()


    @pytest.mark.parametrize("keys, value, message", [
        (("problem", "coefficient", "centers"), [[0.8, 0.4, 0.1]], "center dimension"),
        (("params", "epsilon_list"), [0.05, 0.1], "strictly decreasing"),
        (("params", "epsilon_list"), [0.2, 0.1, 0.0], "epsilon must be positive"),
        (("params", "epsilon_list"), [], "must not be empty"),
    ], ids=["3d-center-on-2d-grid", "increasing-epsilon-list", "zero-epsilon", "empty"])
    def test_config_error_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                           keys, value, message):
        cfg = json.loads((CONFIGS / "sweep.json").read_text())
        *parents, key = keys
        reduce(dict.__getitem__, parents, cfg)[key] = value
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))

        def no_solve(*args, **kwargs):
            raise AssertionError("a config error must not solve")

        monkeypatch.setattr("helmdual.solver._solve_seeds", no_solve)
        out = tmp_path / "o"
        assert run("sweep", str(path), out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_no_epsilon_fitting_the_box_solves_nothing(self, tmp_path, capsys, monkeypatch):
        # every cutoff outgrows the box, so not even the limit is solved: no c_0, no limit_v
        cfg = json.loads((CONFIGS / "sweep.json").read_text())
        cfg["params"]["epsilon_list"] = [0.02, 0.01]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))

        def no_solve(*args, **kwargs):
            raise AssertionError("a sweep with no point to solve must not solve")

        monkeypatch.setattr("helmdual.solver._solve_seeds", no_solve)
        out = tmp_path / "o"
        assert run("sweep", str(path), out) == 3
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(",False," in row and "cutoff support exceeds the box" in row for row in rows)
        record = json.loads((out / "run.json").read_text())
        assert "c_0" not in record["energies"]
        assert record["artifacts"] == ["sweep.csv"]
        assert not (out / "limit_v.field").exists()


class TestSolveCommand:
    def test_run_record_reports_the_dual_defect(self, tmp_path, capsys, bump_problem):
        # grad_norm, the descent's dual defect, is the one residual the record carries
        cfg = write_config(tmp_path, experiment="solve", problem=bump_problem,
                           solver={"max_iters": 8000, "grad_tol": 5e-8}, params={})
        out = tmp_path / "run"
        assert run("solve", cfg, out) == 0
        diagnostics = json.loads((out / "run.json").read_text())["diagnostics"]
        assert "pde_residual" not in diagnostics
        assert 0.0 < diagnostics["grad_norm"] <= 5e-8

    def test_cutoff_outgrowing_the_box_is_config_error_before_any_solve(
            self, tmp_path, capsys, monkeypatch):
        cfg = json.loads((CONFIGS / "sweep.json").read_text())
        cfg.update(experiment="solve", params={})
        cfg["problem"]["epsilon"] = 0.01  # cutoff radius 2/eps around y/eps: past L = 60
        path = tmp_path / "solve.json"
        path.write_text(json.dumps(cfg))

        def no_solve(*args, **kwargs):
            raise AssertionError("a config error must not solve")

        monkeypatch.setattr("helmdual.solver.solve_limit", no_solve)
        out = tmp_path / "o"
        assert run("solve", str(path), out) == 2
        assert "cutoff support exceeds the box" in capsys.readouterr().err
        assert not out.exists()


class TestDecayCommand:
    def test_runs_and_reports_slope(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, experiment="decay",
            grid={"dim": 2, "half_length": 80.0, "points_per_axis": 256},
            problem={"p": 8.0, "epsilon": 1.0, "delta": 0.01,
                     "coefficient": {"floor": 1.0}},
            params={"r_list": [5 + 2 * np.pi * j for j in range(6)]},
        )
        out = tmp_path / "run"
        assert run("decay", cfg, out) == 0
        assert "slope" in capsys.readouterr().out
        header, *rows = (out / "decay.csv").read_text().splitlines()
        # the columns are DecayRecord's fields, as sweep.csv's are SweepRecord's
        assert header.split(",") == [f.name for f in fields(DecayRecord)] == ["r", "interaction"]
        assert len(rows) == 6


class TestCompareEnergyCommand:
    def test_bounds_reported(self, tmp_path, capsys, bump_problem):
        bump_problem = dict(bump_problem, epsilon=0.25)
        cfg = write_config(
            tmp_path, experiment="compare_energy", problem=bump_problem,
            solver={"max_iters": 8000, "grad_tol": 5e-8}, params={},
        )
        out = tmp_path / "run"
        assert run("compare-energy", cfg, out) == 0
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["energies"]["c_0"] <= manifest["energies"]["c_eps"]
        assert manifest["energies"]["c_eps"] <= manifest["energies"]["c_inf"]

    def test_cutoff_outgrowing_the_box_is_config_error_before_any_solve(
            self, tmp_path, capsys, monkeypatch):
        cfg = json.loads((CONFIGS / "compare_energy.json").read_text())
        cfg["problem"]["epsilon"] = 0.01  # cutoff radius 2/eps around y/eps: past the box
        path = tmp_path / "compare_energy.json"
        path.write_text(json.dumps(cfg))

        def no_solve(*args, **kwargs):
            raise AssertionError("a config error must not solve")

        monkeypatch.setattr("helmdual.solver._solve_seeds", no_solve)
        out = tmp_path / "o"
        assert run("compare-energy", str(path), out) == 2
        assert "cutoff support exceeds the box" in capsys.readouterr().err
        assert not out.exists()


    def test_constant_coefficient_is_config_error_before_any_solve(
            self, tmp_path, capsys, monkeypatch):
        # c_0 = c_eps = c_inf for a constant Q: the window c_0 <= c_eps < c_inf cannot hold
        cfg = json.loads((CONFIGS / "compare_energy.json").read_text())
        cfg["problem"]["coefficient"] = {"floor": 1.0}
        path = tmp_path / "compare_energy.json"
        path.write_text(json.dumps(cfg))

        def no_solve(*args, **kwargs):
            raise AssertionError("a config error must not solve")

        monkeypatch.setattr("helmdual.solver._solve_seeds", no_solve)
        out = tmp_path / "o"
        assert run("compare-energy", str(path), out) == 2
        assert "sup Q above its limsup" in capsys.readouterr().err
        assert not out.exists()


class TestOutPath:
    @pytest.mark.parametrize("config", ["limit.json", "sweep.json"])
    @pytest.mark.parametrize("force", [False, True], ids=["plain", "force"])
    def test_existing_file_is_config_error_before_any_work(self, tmp_path, capsys,
                                                           monkeypatch, config, force):
        # --force overwrites a run record, never a file standing where the directory goes
        def no_solve(*args, **kwargs):
            raise AssertionError("a refused output path must not solve")

        monkeypatch.setattr("helmdual.solver._solve_seeds", no_solve)
        out = tmp_path / "taken"
        out.write_bytes(b"not a run directory")
        experiment = json.loads((CONFIGS / config).read_text())["experiment"]
        assert run(experiment, str(CONFIGS / config), out, *["--force"] * force) == 2
        assert "is not a directory" in capsys.readouterr().err
        assert out.read_bytes() == b"not a run directory"


class TestSeedOverride:
    def test_seed_flag_changes_config(self, tmp_path, capsys):
        # the limit solve is deterministic, so the override must not break it
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert run("limit", cfg, out, "--seed", "42") == 0
