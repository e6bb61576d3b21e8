"""Command-line entry point.

Subcommands cover the individual solver stages (check-kinetics, nutrient,
stationary), the dynamics (simulate, linearize), the flow-map inequality
checks (maps) and the orchestrated experiments (stability, sweep).
Exit codes: 0 pass, 1 experiment inequality violated, 2 solver error,
3 configuration error (a malformed command line included).
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, SolverError
from .experiments import (RunConfig, config_from_text, config_hash, emit_report,
                          run_stability_experiment, run_trajectory, stationary_for, sweep)
from .grid import RadialGrid
from .kinetics import validate_hypotheses
from .linearized import (ENSEMBLE_RECORD_EVERY, FIT_MIN_SAMPLES, build_operators,
                         decay_ensemble, ensemble_step, shortest_fit_steps, step_bound)
from .nutrient import solve_nutrient
from .simmaps import (SamplePlan, build_fstar, build_maps, check_map_bounds,
                      make_perturbed_velocity)

EXIT_PASS = 0
EXIT_EXPERIMENT_FAIL = 1
EXIT_SOLVER_ERROR = 2
EXIT_CONFIG_ERROR = 3


def _load_config(args):
    if args.config:
        cfg = config_from_text(Path(args.config).read_text())
    else:
        cfg = RunConfig()
    if args.seed is not None:
        try:
            cfg = replace(cfg, seed=args.seed)
        except ConfigError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def _check_finite(name, value, positive=True):
    """Reject NaN, infinity and, if positive, values <= 0 (before any solve)."""
    if not np.isfinite(value) or (positive and value <= 0):
        kind = "finite and positive" if positive else "finite"
        raise ConfigError(f"{name} must be {kind}, got {value}")


def _check_horizon(name, t_end, dt, output_every):
    """Reject, before any solve, a horizon t_end whose fit window would hold
    too few records for a fit: the run takes round(t_end / dt) steps of dt,
    as transport.output_steps counts, recorded every output_every."""
    if round(t_end / dt) < (shortest := shortest_fit_steps(dt, output_every)):
        raise ConfigError(f"{name} must be at least {shortest * dt:.12g}, "
                          "or the fit window holds too few records")


def _write_or_print(args, name, text):
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)
        print(f"wrote {out / name}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_check_kinetics(args):
    cfg = _load_config(args)
    report = validate_hypotheses(cfg.spec)
    lines = [f"{ch.name},{ch.passed},{ch.margin:.17g}" for ch in report.checks]
    _write_or_print(args, "kinetics.csv",
                    "check,ok,margin\n" + "\n".join(lines) + "\n")
    return EXIT_PASS if report.all_passed else EXIT_EXPERIMENT_FAIL


def cmd_nutrient(args):
    _check_finite("--z", args.z, positive=False)
    cfg = _load_config(args)
    grid = RadialGrid.uniform(cfg.grid_size)
    ns = solve_nutrient(cfg.spec, args.z, grid)
    rows = ["r,c,c_prime"]
    for r, c, cp in zip(grid.nodes, ns.c.values, ns.c_prime.values):
        rows.append(f"{r:.17g},{c:.17g},{cp:.17g}")
    _write_or_print(args, "nutrient.csv", "\n".join(rows) + "\n")
    print(f"z = {args.z}  residual = {ns.residual:.3e}  "
          f"newton_iterations = {ns.newton_iterations}")
    return EXIT_PASS


def cmd_stationary(args):
    cfg = _load_config(args)
    sol = stationary_for(cfg.spec, cfg.grid_size)
    for key, val in sorted(sol.residual_report.items()):
        print(f"{key} = {val}")
    rows = ["r,c_star,p_star,u_star"]
    for r, c, p, u in zip(sol.grid.nodes, sol.c_star.values,
                          sol.p_star.values, sol.u_star.values):
        rows.append(f"{r:.17g},{c:.17g},{p:.17g},{u:.17g}")
    _write_or_print(args, "stationary.csv", "\n".join(rows) + "\n")
    ok = sol.residual_report.get("lemma_checks_pass", False)
    return EXIT_PASS if ok else EXIT_EXPERIMENT_FAIL


def cmd_simulate(args):
    cfg = _load_config(args)
    traj = run_trajectory(cfg, stationary_for(cfg.spec, cfg.grid_size))
    rows = ["t,norm_x,norm_x0"]
    for t, nx, nx0 in zip(traj.times, traj.norm_x, traj.norm_x0):
        rows.append(f"{t:.17g},{nx:.17g},{nx0:.17g}")
    _write_or_print(args, "simulate.csv", "\n".join(rows) + "\n")
    print(f"final norm_x = {traj.norm_x[-1]:.6e}")
    return EXIT_PASS


def cmd_linearize(args):
    if args.ensemble < 1:
        raise ConfigError("--ensemble must be at least 1")
    _check_finite("--t-end", args.t_end)
    # a run under FIT_MIN_SAMPLES - 1 record intervals holds too few at any step
    if args.t_end < (shortest := (FIT_MIN_SAMPLES - 1) * ENSEMBLE_RECORD_EVERY):
        raise ConfigError(f"--t-end must be at least {shortest:.12g}, "
                          "or the fit window holds too few records")
    cfg = _load_config(args)
    ops = build_operators(stationary_for(cfg.spec, cfg.grid_size), cfg.spec)
    dt = ensemble_step(ops)
    _check_horizon("--t-end", args.t_end, dt, ENSEMBLE_RECORD_EVERY)
    ens = decay_ensemble(ops, n_runs=args.ensemble, t_end=args.t_end, seed=cfg.seed)
    fits = [pair[0 if args.norm == "X" else 1] for pair in ens]
    rows = ["run,norm,mu_fit,K_fit,r2,decades,valid"]
    for i, rep in enumerate(fits):
        rows.append(f"{i},{args.norm},{rep.mu_fit:.17g},"
                    f"{rep.K_fit:.17g},{rep.r2:.17g},{rep.decades:.17g},"
                    f"{rep.valid}")
    _write_or_print(args, "linearize.csv", "\n".join(rows) + "\n")
    print(f"dt = {dt:.12g}  propagator step bound = {step_bound(ops):.6g}  "
          f"record interval = {ENSEMBLE_RECORD_EVERY:g}")
    mus = [rep.mu_fit for rep in fits]
    run = int(np.argmin(mus))  # the fit that sets the rate estimate
    print(f"ensemble rate estimate (minimum over {len(mus)} runs): "
          f"{min(mus):.6f}  spread: [{min(mus):.6f}, {max(mus):.6f}]")
    if not fits[run].valid:
        print(f"rate-setting fit (run {run}) invalid: {fits[run].note}")
    return EXIT_PASS if fits[run].valid else EXIT_EXPERIMENT_FAIL


def cmd_maps(args):
    _check_finite("--epsilon", args.epsilon)
    _check_finite("--mu", args.mu)
    # the one epsilon runs at full and half amplitude: 2 n_pairs samples a radius
    if args.samples < (fewest := 2 * SamplePlan().n_pairs):
        raise ConfigError(f"--samples must be at least {fewest}, got {args.samples}")
    cfg = _load_config(args)
    sol = stationary_for(cfg.spec, cfg.grid_size)
    table = build_fstar(sol.u_star)
    plan = SamplePlan(epsilons=(args.epsilon,), mu=args.mu,
                      n_r=args.samples // fewest,
                      seed=cfg.seed)

    def make_maps(eps):
        w, w_dr = make_perturbed_velocity(sol.u_star, eps, args.mu)
        return build_maps(sol.u_star, w, w_dr, epsilon=eps, mu=args.mu,
                          table=table)

    report = check_map_bounds(make_maps, plan, raise_on_fail=False)
    _write_or_print(args, "maps.csv", str(report) + "\n")
    return EXIT_PASS if report.all_passed else EXIT_EXPERIMENT_FAIL


def cmd_stability(args):
    cfg = _load_config(args)
    if cfg.epsilon > 0:
        _check_horizon("t_end", cfg.t_end, cfg.dt, cfg.output_every)
    report = run_stability_experiment(cfg)
    if cfg.out_dir:
        for path in emit_report(report):
            print(f"wrote {path}")
        print(f"config hash: {config_hash(cfg)}")
    print(f"epsilon = {report.epsilon}  mu_x = {report.fit_x.mu_fit:.6f}  "
          f"mu_x0 = {report.fit_x0.mu_fit:.6f}  "
          f"linear response = {report.linear_response_ratio:.3f}")
    for norm, fit in (("X", report.fit_x), ("X0", report.fit_x0)):
        if not fit.valid:
            print(f"fit of norm {norm} invalid: {fit.note}")
    for name, ok in report.checks.items():
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    return EXIT_PASS if report.passed else EXIT_EXPERIMENT_FAIL


def cmd_sweep(args):
    try:
        epsilons = [float(e) for e in args.epsilons.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--epsilons: {exc}") from None
    cfg = _load_config(args)
    shapes = args.shapes.split(",") if args.shapes else [cfg.shape]
    configs = [replace(cfg, epsilon=e, shape=s, out_dir="")
               for e in epsilons for s in shapes]
    if max(epsilons) > 0:
        _check_horizon("t_end", cfg.t_end, cfg.dt, cfg.output_every)
    summary = sweep(configs)
    _write_or_print(args, "sweep.csv", summary.to_table())
    print(f"basin edge: {summary.basin_edge}")
    ok = all(row["passed"] or row["error"] for row in summary.rows)
    return EXIT_PASS if ok and not np.isnan(summary.basin_edge) else EXIT_EXPERIMENT_FAIL


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a run-config file")
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=int, default=None)

    parser = argparse.ArgumentParser(
        prog="tumorlab",
        description="radial two-species tumor model: solvers and experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check-kinetics", parents=[common]).set_defaults(
        func=cmd_check_kinetics)

    p = sub.add_parser("nutrient", parents=[common])
    p.add_argument("--z", type=float, default=0.0, help="log tumor radius")
    p.set_defaults(func=cmd_nutrient)

    sub.add_parser("stationary", parents=[common]).set_defaults(
        func=cmd_stationary)
    sub.add_parser("simulate", parents=[common]).set_defaults(
        func=cmd_simulate)

    p = sub.add_parser("linearize", parents=[common])
    p.add_argument("--ensemble", type=int, default=20)
    p.add_argument("--t-end", type=float, default=100.0)
    p.add_argument("--norm", choices=("X", "X0"), default="X")
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("maps", parents=[common])
    p.add_argument("--epsilon", type=float, default=1e-2)
    p.add_argument("--mu", type=float, default=0.08)
    p.add_argument("--samples", type=int, default=2000)
    p.set_defaults(func=cmd_maps)

    sub.add_parser("stability", parents=[common]).set_defaults(
        func=cmd_stability)

    p = sub.add_parser("sweep", parents=[common])
    p.add_argument("--epsilons", default="1e-3,1e-2")
    p.add_argument("--shapes", default="")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_CONFIG_ERROR if exc.code else EXIT_PASS
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
