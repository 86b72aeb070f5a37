"""The benchmark's workloads: set-up, one pass, and the check of a pass's outputs.

Importing this module imports helmdual from ``src/`` of the checkout that
holds it.  Every pass looks functions up through their helmdual module at
call time, so the tracer's wrappers see each call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from helmdual import cli, functional, grid, kernels, resolvent, runio, solver  # noqa: E402

SWEEP_CONFIG = ROOT / "configs" / "sweep.json"
REFERENCES = json.loads((Path(__file__).with_name("references.json")).read_text())

#: rungs of the oracle workload: (points per axis, half length, delta)
ORACLE_RUNGS = ((32, 30.0, 1e-3), (80, 60.0, 5e-4))


@dataclass(frozen=True)
class Workload:
    name: str
    #: build the inputs and apply the resolvent once on each grid
    setup: Callable[[int], None]
    #: one pass from the seed, writing only under the given directory
    run: Callable[[int, Path], dict]
    #: problems found in a pass's outputs; empty when they are correct
    check: Callable[[dict], list[str]]


def seeded(seed: int) -> tuple:
    """Default restart seeds carrying the benchmark seed as their RNG seed."""
    return tuple(replace(s, rng_seed=seed) for s in solver.SolverConfig().restart_seeds)


def inputs_depend_on_seed() -> bool:
    """The seed only reaches the restart seeds' noise, whose amplitude is 0."""
    sweep_seeds = runio.load_config(SWEEP_CONFIG).solver.restart_seeds
    return any(s.perturbation != 0.0 for s in seeded(0) + sweep_seeds)


def _check_level(label: str, value, reference: float, rtol: float) -> list[str]:
    if not isinstance(value, float) or not math.isfinite(value):
        return [f"{label}: {value!r} is not a finite number"]
    dev = abs(value - reference) / abs(reference)
    if dev <= rtol:
        return []
    return [f"{label} = {value!r}, reference {reference!r} (rel dev {dev:.2e})"]


def _apply_once(g, problem, seed: int) -> None:
    """One resolvent application on Q^(1/p) times the first restart seed."""
    v = seeded(seed)[0].build(g)
    q = problem.q_root(g)
    resolvent.apply_R(grid.Field(g, q.values * v.values), problem.resolvent)


# ------------------------------------------------------------------ sweep-2d

def _sweep_setup(seed: int) -> None:
    cfg = runio.load_config(SWEEP_CONFIG)
    _apply_once(cfg.grid, cfg.problem, seed)


def _sweep_run(seed: int, tmp: Path) -> dict:
    with tempfile.TemporaryDirectory(dir=tmp) as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--config", str(SWEEP_CONFIG), "--out", out,
                             "--seed", str(seed)])
        record = json.loads((Path(out) / "run.json").read_text())
    return {"exit_code": code, "converged": record["converged"],
            "energies": record["energies"]}


def _sweep_check(out: dict) -> list[str]:
    ref = REFERENCES["sweep-2d"]
    problems = [] if out["exit_code"] == 0 else [f"exit code {out['exit_code']}"]
    if not out["converged"]:
        problems.append("run.json reports converged = false")
    energies = out["energies"]
    problems += _check_level("c_0", energies.get("c_0"), ref["c_0"], ref["rtol"])
    c_eps = energies.get("c_eps", {})
    if set(c_eps) != set(ref["c_eps"]):
        problems.append(f"c_eps keys {sorted(c_eps)} != {sorted(ref['c_eps'])}")
    for eps, level in ref["c_eps"].items():
        problems += _check_level(f"c_eps[{eps}]", c_eps.get(eps), level, ref["rtol"])
    return problems


# ------------------------------------------------------------------ limit-3d

def _limit3d_setup(seed: int) -> None:
    problem = functional.ProblemSpec(p=5.0, epsilon=1.0,
                                     coefficient=functional.constant_coefficient(1.0),
                                     resolvent=resolvent.ResolventConfig(delta=1e-2))
    _apply_once(grid.make_grid(3, 16.0, 48), problem, seed)


def _limit3d_run(seed: int, tmp: Path) -> dict:
    cfg = solver.SolverConfig(grad_tol=5e-8, restart_seeds=seeded(seed))
    state = solver.solve_limit(1.0, 5.0, grid.make_grid(3, 16.0, 48), cfg,
                               resolvent=resolvent.ResolventConfig(delta=1e-2))
    return {"c_0": state.energy}


def _limit3d_check(out: dict) -> list[str]:
    ref = REFERENCES["limit-3d"]
    return _check_level("c_0", out["c_0"], ref["c_0"], ref["rtol"])


# ------------------------------------------------------------ homogeneity-64

def _homogeneity_setup(seed: int) -> None:
    problem = functional.ProblemSpec(p=8.0, epsilon=1.0,
                                     coefficient=functional.constant_coefficient(1.0))
    _apply_once(grid.make_grid(2, 30.0, 64), problem, seed)


def _homogeneity_run(seed: int, tmp: Path) -> dict:
    g = grid.make_grid(2, 30.0, 64)
    cfg = solver.SolverConfig(max_iters=5000, restart_seeds=seeded(seed))
    e1 = solver.solve_limit(1.0, 8.0, g, cfg).energy
    e2 = solver.solve_limit(2.0, 8.0, g, cfg).energy
    return {"c_0(q0=1)": e1, "c_0(q0=2)": e2}


def _homogeneity_check(out: dict) -> list[str]:
    ref = REFERENCES["homogeneity-64"]
    e1, e2 = out["c_0(q0=1)"], out["c_0(q0=2)"]
    if not all(isinstance(e, float) and math.isfinite(e) and e > 0 for e in (e1, e2)):
        return [f"levels {e1!r}, {e2!r} are not positive finite numbers"]
    return _check_level("c_0(2)/c_0(1)", e2 / e1, ref["ratio"], ref["ratio_rtol"])


# ----------------------------------------------------------------- oracle-2d

def _bump(g):
    r_sq = g.coords(0) ** 2 + g.coords(1) ** 2
    return grid.Field(g, np.exp(-r_sq / 72.0))


def _oracle_setup(seed: int) -> None:
    for n, half_length, delta in ORACLE_RUNGS:
        g = grid.make_grid(2, half_length, n)
        resolvent.apply_R(_bump(g), resolvent.ResolventConfig(delta=delta))


def _oracle_run(seed: int, tmp: Path) -> dict:
    errors = []
    for n, half_length, delta in ORACLE_RUNGS:
        g = grid.make_grid(2, half_length, n)
        bump = _bump(g)
        mult = resolvent.apply_R(bump, resolvent.ResolventConfig(delta=delta))
        direct = resolvent.apply_R_direct(bump, kernels.KernelSpec(2), max_nodes=n * n)
        errors.append(float(np.linalg.norm(mult.values - direct.values)
                            / np.linalg.norm(direct.values)))
    return {"errors": errors}


def _oracle_check(out: dict) -> list[str]:
    ref = REFERENCES["oracle-2d"]
    errors = out["errors"]
    if len(errors) != len(ORACLE_RUNGS) or not all(math.isfinite(e) for e in errors):
        return [f"errors {errors!r} are not {len(ORACLE_RUNGS)} finite numbers"]
    problems = []
    if errors[0] > ref["max_error"]:
        problems.append(f"coarse error {errors[0]:.3e} above {ref['max_error']}")
    if not all(a > b for a, b in zip(errors, errors[1:])):
        problems.append(f"errors {errors!r} do not decrease under refinement")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("sweep-2d", _sweep_setup, _sweep_run, _sweep_check),
    Workload("limit-3d", _limit3d_setup, _limit3d_run, _limit3d_check),
    Workload("homogeneity-64", _homogeneity_setup, _homogeneity_run, _homogeneity_check),
    Workload("oracle-2d", _oracle_setup, _oracle_run, _oracle_check),
)}
