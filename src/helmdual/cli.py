"""Command-line entry points.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 output exists (rerun with --force).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .grid import Field, dft_forward, dft_inverse, make_grid
from .kernels import KernelSpec, re_phi
from .resolvent import (
    ResolventConfig,
    SingularLatticeError,
    apply_R,
    apply_R_direct,
    resolvent_identity_residual,
)
from .functional import NotInPositiveCone, to_solution, pde_residual
from .fieldio import FieldFormatError, read_field, write_field
from .runio import ConfigError, RunConfig, RunRecord, load_config, write_record
from .solver import (
    AllSeedsLeftCone,
    NoConvergence,
    solve_ground_state,
    solve_limit,
)
from .experiments import (
    BarycenterConfig,
    concentration_sweep,
    energy_comparison,
    interaction_decay,
    sweep_to_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_EXISTS = 4


def _artifact(out_dir: str, name: str, f: Field, artifacts: list) -> None:
    path = os.path.join(out_dir, name)
    write_field(path, f)
    artifacts.append(name)


def cmd_validate(cfg: RunConfig, out_dir: str, force: bool) -> int:
    """Self-checks: DFT roundtrip, kernel spot values, resolvent oracle, formats."""
    checks: list[tuple[str, bool, str]] = []

    rng = np.random.default_rng(cfg.seed)
    small = make_grid(2, 30.0, 32)
    f = Field(small, rng.standard_normal(small.shape))
    rt = dft_inverse(dft_forward(f), small)
    err = np.linalg.norm(rt.values - f.values) / np.linalg.norm(f.values)
    checks.append(("dft roundtrip", err <= 1e-12, f"rel err {err:.2e}"))

    k3 = abs(re_phi(np.pi, 3) - (-1.0 / (4.0 * np.pi**2)))
    k2 = abs(re_phi(1.0, 2) - (-0.25 * 0.08825696421567696))
    ok = k3 <= 1e-12 and k2 <= 1e-12
    checks.append(("kernel spot values", ok, f"dev {max(k3, k2):.2e}"))

    r = np.sqrt(small.coords(0) ** 2 + small.coords(1) ** 2)
    bump = Field(small, np.exp(-(r**2) / 72.0))
    mult = apply_R(bump, ResolventConfig(delta=1e-3))
    direct = apply_R_direct(bump, KernelSpec(2))
    oerr = np.linalg.norm(mult.values - direct.values) / np.linalg.norm(direct.values)
    checks.append(("resolvent oracle", oerr <= 5e-2, f"rel err {oerr:.2e}"))

    ident = resolvent_identity_residual(f, ResolventConfig(delta=0.0))
    checks.append(("resolvent identity", ident <= 1e-10, f"residual {ident:.2e}"))

    if cfg.problem is not None and cfg.problem.resolvent.delta == 0.0 and cfg.grid.singular:
        checks.append(("singular lattice", False,
                       "delta = 0 with |xi| = 1 on the frequency lattice"))

    if "input_field" in cfg.params:
        try:
            read_field(cfg.params["input_field"])
            checks.append(("format", True, "field file readable"))
        except (OSError, FieldFormatError) as err:
            checks.append(("format", False, str(err)))

    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_NUMERIC


def cmd_limit(cfg: RunConfig, out_dir: str, force: bool) -> int:
    problem = cfg.problem
    q0 = float(cfg.params.get("q0", problem.coefficient.q_sup))
    record = RunRecord(cfg.config_hash, "limit", time.time())
    state = solve_limit(q0, problem.p, cfg.grid, cfg.solver, resolvent=problem.resolvent)
    record.converged = True
    record.energies["c_0"] = state.energy
    record.diagnostics.update(grad_norm=state.grad_norm,
                              nehari_residual=state.nehari_residual, q0=q0)
    os.makedirs(out_dir, exist_ok=True)
    _artifact(out_dir, "limit_v.field", state.v, record.artifacts)
    _artifact(out_dir, "limit_u.field", state.u_rescaled, record.artifacts)
    write_record(out_dir, record, force)
    print(f"c_0 = {state.energy!r} (grad {state.grad_norm:.2e})")
    return EXIT_OK


def cmd_solve(cfg: RunConfig, out_dir: str, force: bool) -> int:
    problem = cfg.problem
    record = RunRecord(cfg.config_hash, "solve", time.time())
    state = solve_ground_state(problem, cfg.grid, cfg.solver)
    u, scaling = to_solution(state.v, problem)
    record.converged = True
    record.energies["c_eps"] = state.energy
    record.diagnostics.update(
        grad_norm=state.grad_norm, nehari_residual=state.nehari_residual,
        pde_residual=pde_residual(u, problem), epsilon=problem.epsilon,
        physical_amplitude=scaling.amplitude,
    )
    os.makedirs(out_dir, exist_ok=True)
    _artifact(out_dir, "ground_v.field", state.v, record.artifacts)
    _artifact(out_dir, "ground_u.field", u, record.artifacts)
    write_record(out_dir, record, force)
    print(f"c_eps = {state.energy!r} (grad {state.grad_norm:.2e})")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out_dir: str, force: bool) -> int:
    problem = cfg.problem
    params = cfg.params
    if "epsilon_list" not in params:
        raise ConfigError("sweep requires params.epsilon_list")
    bary = BarycenterConfig(rho=float(params.get("rho", 3.0)),
                            delta_nbhd=float(params.get("delta_nbhd", 0.5)))
    record = RunRecord(cfg.config_hash, "sweep", time.time())
    limit_state = solve_limit(problem.coefficient.q_sup, problem.p, cfg.grid,
                              cfg.solver, resolvent=problem.resolvent)
    records = concentration_sweep(
        problem, params["epsilon_list"], cfg.grid, cfg.solver, bary,
        limit_state=limit_state,
        edge_threshold=float(params.get("edge_threshold", 0.5)),
    )
    record.energies["c_0"] = limit_state.energy
    record.energies["c_eps"] = {str(r.epsilon): r.energy for r in records}
    record.converged = all(r.converged for r in records)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w") as fh:
        fh.write(sweep_to_csv(records))
    record.artifacts.append("sweep.csv")
    _artifact(out_dir, "limit_v.field", limit_state.v, record.artifacts)
    write_record(out_dir, record, force)
    for r in records:
        status = f"c_eps={r.energy!r}" if r.converged else f"FAILED: {r.failure}"
        print(f"eps={r.epsilon}: {status}")
    return EXIT_OK if record.converged else EXIT_NUMERIC


def cmd_decay(cfg: RunConfig, out_dir: str, force: bool) -> int:
    problem = cfg.problem
    params = cfg.params
    if "r_list" not in params:
        raise ConfigError("decay requires params.r_list")
    record = RunRecord(cfg.config_hash, "decay", time.time())
    report = interaction_decay(
        cfg.grid.dim, problem.p, cfg.grid, params["r_list"],
        resolvent=problem.resolvent,
        bump_radius=float(params.get("bump_radius", 2.0)),
        modulation=float(params.get("modulation", 0.0)),
        boundary_wavelengths=float(params.get("boundary_wavelengths", 5.0)),
    )
    record.converged = True
    record.diagnostics.update(slope=report.slope, lambda_p=report.lambda_p,
                              satisfies_bound=report.satisfies_bound)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "decay.csv")
    with open(csv_path, "w") as fh:
        fh.write("r,interaction\n")
        for rec in report.records:
            fh.write(f"{rec.r!r},{rec.interaction!r}\n")
    record.artifacts.append("decay.csv")
    write_record(out_dir, record, force)
    print(f"slope = {report.slope:.4f}, -lambda_p = {-report.lambda_p:.4f}, "
          f"bound {'satisfied' if report.satisfies_bound else 'VIOLATED'}")
    return EXIT_OK if report.satisfies_bound else EXIT_NUMERIC


def cmd_compare_energy(cfg: RunConfig, out_dir: str, force: bool) -> int:
    problem = cfg.problem
    record = RunRecord(cfg.config_hash, "compare_energy", time.time())
    report = energy_comparison(problem, cfg.grid, cfg.solver,
                               slack=float(cfg.params.get("slack", 1e-4)))
    record.converged = True
    record.energies.update(c_0=report.c_0, c_eps=report.c_eps)
    if report.c_inf is not None:
        record.energies["c_inf"] = report.c_inf
    record.diagnostics.update(lower_bound_holds=report.lower_bound_holds,
                              upper_bound_holds=report.upper_bound_holds)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "energies.csv"), "w") as fh:
        fh.write(report.csv())
    record.artifacts.append("energies.csv")
    write_record(out_dir, record, force)
    print(report.csv(), end="")
    return EXIT_OK if report.lower_bound_holds and report.upper_bound_holds else EXIT_NUMERIC


_COMMANDS = {
    "validate": ("validate", cmd_validate),
    "solve": ("solve", cmd_solve),
    "limit": ("limit", cmd_limit),
    "sweep": ("sweep", cmd_sweep),
    "decay": ("decay", cmd_decay),
    "compare-energy": ("compare_energy", cmd_compare_energy),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helmdual",
        description="Dual variational solver for the nonlinear Helmholtz equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", default="runs", help="output directory")
        p.add_argument("--force", action="store_true",
                       help="overwrite an existing run record")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config RNG seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    expected, command = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        if cfg.experiment != expected:
            raise ConfigError(
                f"config declares experiment {cfg.experiment!r} but the "
                f"{args.command!r} subcommand expects {expected!r}"
            )
        if args.seed is not None:
            seeds = tuple(replace(s, rng_seed=args.seed) for s in cfg.solver.restart_seeds)
            cfg = replace(cfg, seed=args.seed,
                          solver=replace(cfg.solver, restart_seeds=seeds))
        return command(cfg, args.out, args.force)
    except (NoConvergence, AllSeedsLeftCone, NotInPositiveCone,
            SingularLatticeError, FieldFormatError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except FileExistsError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_EXISTS
    except (ValueError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
