"""Command-line entry points.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 output exists (rerun with --force).

``main`` runs every command the same way.  It refuses an existing run record
before any work, builds the record, runs the command, then writes the command's
artifacts and the record.  A ``cmd_*`` function only computes, fills the
record and prints; it returns its exit code and its artifacts, in order, as
(file name, field or CSV text) pairs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .grid import Field, _l2, _squared_distance, dft_forward, dft_inverse, make_grid
from .kernels import KernelSpec, re_phi
from .resolvent import (
    ResolventConfig,
    SingularLatticeError,
    _route,
    apply_R,
    apply_R_direct,
    resolvent_identity_residual,
)
from .functional import NotInPositiveCone, pde_residual
from .fieldio import FieldFormatError, read_field, write_field
from .runio import (
    EXPERIMENTS,
    ConfigError,
    RunConfig,
    RunRecord,
    load_config,
    refuse_rerun,
    write_record,
)
from .solver import (
    AllSeedsLeftCone,
    NoConvergence,
    solve_ground_state,
    solve_limit,
)
from .experiments import (
    BarycenterConfig,
    check_sweep,
    concentration_sweep,
    energy_comparison,
    interaction_decay,
    sweep_to_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_EXISTS = 4


def cmd_validate(cfg: RunConfig, record: RunRecord) -> tuple[int, list]:
    """Self-checks: DFT roundtrip, kernel spot values, resolvent oracle, formats."""
    checks: list[tuple[str, bool, str]] = []

    rng = np.random.default_rng(cfg.seed)
    small = make_grid(2, 30.0, 32)
    f = Field(small, rng.standard_normal(small.shape))
    rt = dft_inverse(dft_forward(f), small)
    err = _l2(rt.values - f.values) / _l2(f.values)
    checks.append(("dft roundtrip", err <= 1e-12, f"rel err {err:.2e}"))

    k3 = abs(re_phi(np.pi, 3) - (-1.0 / (4.0 * np.pi**2)))
    k2 = abs(re_phi(1.0, 2) - (-0.25 * 0.08825696421567696))
    ok = k3 <= 1e-12 and k2 <= 1e-12
    checks.append(("kernel spot values", ok, f"dev {max(k3, k2):.2e}"))

    r = np.sqrt(_squared_distance(np.ix_(small.x_axis, small.x_axis), (0.0, 0.0)))
    bump = Field(small, np.exp(-(r**2) / 72.0))
    mult = apply_R(bump, ResolventConfig(delta=1e-3))
    direct = apply_R_direct(bump, KernelSpec(2))
    oerr = _l2(mult.values - direct.values) / _l2(direct.values)
    checks.append(("resolvent oracle", oerr <= 5e-2, f"rel err {oerr:.2e}"))

    ident = resolvent_identity_residual(f, ResolventConfig(delta=0.0))
    checks.append(("resolvent identity", ident <= 1e-10, f"residual {ident:.2e}"))

    if cfg.problem is not None:
        try:
            _route(cfg.grid, cfg.problem.resolvent)
        except SingularLatticeError as err:
            checks.append(("singular lattice", False, str(err)))

    if "input_field" in cfg.params:
        try:
            read_field(cfg.params["input_field"])
            checks.append(("format", True, "field file readable"))
        except (OSError, FieldFormatError) as err:
            checks.append(("format", False, str(err)))

    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    return (EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_NUMERIC), []


def cmd_limit(cfg: RunConfig, record: RunRecord) -> tuple[int, list]:
    problem = cfg.problem
    q0 = problem.coefficient.q_sup
    state = solve_limit(q0, problem.p, cfg.grid, cfg.solver, resolvent=problem.resolvent)
    record.converged = True
    record.energies["c_0"] = state.energy
    record.diagnostics.update(grad_norm=state.grad_norm,
                              nehari_residual=state.nehari_residual, q0=q0)
    print(f"c_0 = {state.energy!r} (grad {state.grad_norm:.2e})")
    return EXIT_OK, [("limit_v.field", state.v), ("limit_u.field", state.u_rescaled)]


def cmd_solve(cfg: RunConfig, record: RunRecord) -> tuple[int, list]:
    problem = cfg.problem
    state = solve_ground_state(problem, cfg.grid, cfg.solver)
    record.converged = True
    record.energies["c_eps"] = state.energy
    record.diagnostics.update(
        grad_norm=state.grad_norm, nehari_residual=state.nehari_residual,
        pde_residual=pde_residual(state.u_rescaled, problem), epsilon=problem.epsilon,
        physical_amplitude=problem.amplitude,
    )
    print(f"c_eps = {state.energy!r} (grad {state.grad_norm:.2e})")
    return EXIT_OK, [("ground_v.field", state.v), ("ground_u.field", state.u_rescaled)]


def cmd_sweep(cfg: RunConfig, record: RunRecord) -> tuple[int, list]:
    problem, params = cfg.problem, cfg.params
    epsilon_list = params["epsilon_list"]
    bary = BarycenterConfig(**{key: params[key] for key in ("rho", "delta_nbhd") if key in params})
    check_sweep(problem, epsilon_list, bary)  # a config error costs no limit solve
    limit_state = solve_limit(problem.coefficient.q_sup, problem.p, cfg.grid,
                              cfg.solver, resolvent=problem.resolvent)
    records = concentration_sweep(problem, epsilon_list, cfg.grid, cfg.solver, bary,
                                  limit_state=limit_state)
    record.energies["c_0"] = limit_state.energy
    record.energies["c_eps"] = {str(r.epsilon): r.energy for r in records}
    record.converged = all(r.converged for r in records)
    for r in records:
        status = f"c_eps={r.energy!r}" if r.converged else f"FAILED: {r.failure}"
        print(f"eps={r.epsilon}: {status}")
    code = EXIT_OK if record.converged else EXIT_NUMERIC
    return code, [("sweep.csv", sweep_to_csv(records)), ("limit_v.field", limit_state.v)]


def cmd_decay(cfg: RunConfig, record: RunRecord) -> tuple[int, list]:
    problem = cfg.problem
    report = interaction_decay(problem.p, cfg.grid, cfg.params["r_list"],
                               resolvent=problem.resolvent)
    record.converged = True
    record.diagnostics.update(slope=report.slope, lambda_p=report.lambda_p,
                              satisfies_bound=report.satisfies_bound)
    csv = "r,interaction\n" + "".join(f"{rec.r!r},{rec.interaction!r}\n"
                                      for rec in report.records)
    print(f"slope = {report.slope:.4f}, -lambda_p = {-report.lambda_p:.4f}, "
          f"bound {'satisfied' if report.satisfies_bound else 'VIOLATED'}")
    return (EXIT_OK if report.satisfies_bound else EXIT_NUMERIC), [("decay.csv", csv)]


def cmd_compare_energy(cfg: RunConfig, record: RunRecord) -> tuple[int, list]:
    report = energy_comparison(cfg.problem, cfg.grid, cfg.solver)
    record.converged = True
    record.energies.update(c_0=report.c_0, c_eps=report.c_eps)
    if report.c_inf is not None:
        record.energies["c_inf"] = report.c_inf
    record.diagnostics.update(lower_bound_holds=report.lower_bound_holds,
                              upper_bound_holds=report.upper_bound_holds)
    csv = report.csv()
    print(csv, end="")
    holds = report.lower_bound_holds and report.upper_bound_holds
    return (EXIT_OK if holds else EXIT_NUMERIC), [("energies.csv", csv)]


#: subcommand -> (experiment, command); the subcommand spells the experiment with "-"
_COMMANDS = {name.replace("_", "-"): (name, globals()[f"cmd_{name}"]) for name in EXPERIMENTS}


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
                       help="override the config seed (only validate's random field uses it)")
    return parser


def _write_artifacts(out_dir: str, artifacts: list, record: RunRecord) -> None:
    """Write each (name, field or CSV text) artifact and list it in the record."""
    os.makedirs(out_dir, exist_ok=True)
    for name, data in artifacts:
        path = os.path.join(out_dir, name)
        if isinstance(data, Field):
            write_field(path, data)
        else:
            with open(path, "w") as fh:
                fh.write(data)
        record.artifacts.append(name)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    experiment, command = _COMMANDS[args.command]
    writes = experiment != "validate"  # validate only prints its checks
    try:
        cfg = load_config(args.config)
        if cfg.experiment != experiment:
            raise ConfigError(
                f"config declares experiment {cfg.experiment!r} but the "
                f"{args.command!r} subcommand expects {experiment!r}"
            )
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if writes:
            refuse_rerun(args.out, args.force)
        record = RunRecord(cfg.config_hash, experiment, time.time())
        code, artifacts = command(cfg, record)
        if writes:
            _write_artifacts(args.out, artifacts, record)
            write_record(args.out, record, args.force)
        return code
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
