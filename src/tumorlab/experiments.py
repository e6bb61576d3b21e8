"""Stability experiments, configuration, persistence and sweeps.

A RunConfig pins down one perturbed run of the nonlinear model: kinetics,
grid, time stepping, the initial perturbation family and the solver choice.
run_stability_experiment integrates it, fits exponential envelopes K e^{-mu t}
to the deviation norms and evaluates the three stability inequalities (sup
and weighted derivative deviation of the proliferating fraction p, and the
free-boundary radius through R = e^z).  sweep runs a batch of configs and
reports the empirical stability-basin edge; emit_report persists a
manifest, the trajectory table and a plot-ready decay table.
"""

import functools
import hashlib
import json
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, SolverError
from .grid import RadialGrid, RadialField
from .kinetics import KineticsSpec
from .linearized import FIT_R2_MIN, DecayReport, fit_decay
from .stationary import solve_stationary
from .transport import (RECORD_EVERY, TumorState, _check_dt, picard_solve,
                        simulate)

SHAPE_IDS = ("poly", "sine", "bump")
SOLVERS = ("direct", "picard")
TRANSIENT_FRACTION = 0.2
ENVELOPE_SLACK = 1.05
PICARD_RATE = 0.07
ZERO_EPS_TOL = 1e-6

_FLOAT_FMT = "%.17g"


def perturbation_shape(shape_id, r):
    """Unit-amplitude initial perturbation profiles on the grid nodes."""
    r = np.asarray(r, dtype=float)
    if shape_id == "poly":
        vals = 4.0 * r * (1.0 - r)
    elif shape_id == "sine":
        vals = np.sin(np.pi * r)
    elif shape_id == "bump":
        s = 2.0 * r - 1.0
        vals = np.zeros_like(r)
        inner = np.abs(s) < 1.0
        vals[inner] = np.exp(1.0 - 1.0 / (1.0 - s[inner] ** 2))
    else:
        raise ConfigError(f"unknown shape id {shape_id!r}, "
                          f"expected one of {SHAPE_IDS}")
    return vals


@dataclass(frozen=True)
class RunConfig:
    """One perturbed stability run: model, discretization and perturbation."""

    spec: KineticsSpec = KineticsSpec()
    grid_size: int = 801
    dt: float = 1e-2
    t_end: float = 40.0
    shape: str = "poly"
    epsilon: float = 1e-2
    z_offset: float = 0.3
    solver: str = "direct"
    seed: int = 0
    output_every: float = RECORD_EVERY
    out_dir: str = ""

    def __post_init__(self):
        if self.grid_size < 6:  # 5-point stencils; the stationary report reads nodes 1-5
            raise ConfigError("grid_size must be at least 6")
        for name in ("dt", "t_end", "output_every"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        try:
            _check_dt(self.dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 0.0 <= self.epsilon <= 0.1:
            raise ConfigError("epsilon must lie in [0, 0.1]")
        if self.shape not in SHAPE_IDS:
            raise ConfigError(f"shape must be one of {SHAPE_IDS}")
        if self.solver not in SOLVERS:
            raise ConfigError(f"solver must be one of {SOLVERS}")


def config_to_text(config):
    """Flat key = value serialization; values are JSON-typed scalars."""
    lines = []
    for f in fields(config.spec):
        lines.append(f"spec.{f.name} = {json.dumps(getattr(config.spec, f.name))}")
    for f in fields(config):
        if f.name == "spec":
            continue
        lines.append(f"{f.name} = {json.dumps(getattr(config, f.name))}")
    return "\n".join(lines) + "\n"


def config_from_text(text):
    """Parse the flat key = value form back into a RunConfig."""
    spec_kwargs, run_kwargs = {}, {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line: {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        try:
            value = json.loads(val.strip())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad value on config line {raw!r}: {exc}") from exc
        if key.startswith("spec."):
            spec_kwargs[key[5:]] = _typed_value(KineticsSpec, key, key[5:], value)
        else:
            run_kwargs[key] = _typed_value(RunConfig, key, key, value)
    try:
        return RunConfig(spec=KineticsSpec(**spec_kwargs), **run_kwargs)
    except ValueError as exc:  # KineticsSpec's unknown family
        raise ConfigError(str(exc)) from exc


def _typed_value(cls, key, name, value):
    """The value of the config key for the field name of cls, checked
    against the field's type: a float field also takes an int, as a float,
    and no NaN or infinity."""
    kinds = {f.name: type(f.default) for f in fields(cls) if f.name != "spec"}
    if name not in kinds:
        raise ConfigError(f"unknown config key {key!r}")
    kind = kinds[name]
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise ConfigError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN, inf, huge ints
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    return kind(value)


def config_hash(config):
    return hashlib.sha256(config_to_text(config).encode()).hexdigest()[:16]


@dataclass
class StabilityReport:
    """Outcome of one stability run against the stationary state.

    K fits are normalized per unit epsilon, so the fitted envelope reads
    norm(t) <= K_fit * epsilon * e^{-mu_fit t}.  checks maps each stability
    inequality to its pass flag; linear_response_ratio compares the peak
    sup-deviation at epsilon against a companion run at epsilon/10.
    """

    config: RunConfig
    epsilon: float
    fit_x: DecayReport
    fit_x0: DecayReport
    checks: dict
    linear_response_ratio: float
    trajectory: object = field(default=None, repr=False)
    reference: object = field(default=None, repr=False, compare=False)

    @property
    def passed(self):
        return all(self.checks.values())


@functools.cache
def stationary_for(spec, grid_size):
    """Cached stationary solve keyed by kinetics and grid size."""
    return solve_stationary(spec, RadialGrid.uniform(grid_size))


def initial_state(config, reference):
    grid = reference.grid
    bump = config.epsilon * perturbation_shape(config.shape, grid.nodes)
    p0 = np.clip(reference.p_star.values + bump, 0.0, 1.0)
    return TumorState(t=0.0, p=RadialField(grid, p0),
                      z=reference.z_star + config.epsilon * config.z_offset)


def _run_trajectory(config, reference):
    init = initial_state(config, reference)
    if config.solver == "picard":
        traj, _ = picard_solve(init, config.t_end, config.dt, config.spec,
                               reference, mu=PICARD_RATE,
                               output_every=config.output_every)
        return traj
    return simulate(init, config.t_end, config.dt, config.spec, reference,
                    output_every=config.output_every)


def _envelope_ok(times, series, mu, K, window):
    mask = times >= window[0]
    bound = ENVELOPE_SLACK * K * np.exp(-mu * times[mask])
    return bool(np.all(series[mask] <= bound))


def run_stability_experiment(config, reference=None, linear_response=True):
    """Run one perturbed trajectory and evaluate the stability inequalities.

    The three checks are the sup and the weighted derivative deviation of
    the proliferating fraction p and the radius deviation through R = e^z;
    q = 1 - p has none of its own, as q - q_* = -(p - p_*).  Each is
    required to stay below its fitted envelope K eps e^{-mu t} with 5%
    slack after the transient window (the first 20% of the horizon), with
    mu > 0 and r2 >= FIT_R2_MIN on the norm fits.  Solver failures are
    re-raised after persisting the manifest when an output directory is
    configured.
    """
    if reference is None:
        reference = stationary_for(config.spec, config.grid_size)
    try:
        traj = _run_trajectory(config, reference)
    except SolverError:
        if config.out_dir:
            _write_failure_manifest(config)
        raise

    eps = config.epsilon
    window = (TRANSIENT_FRACTION * config.t_end, config.t_end)
    times = traj.times

    if eps == 0.0:
        quiet = bool(np.max(traj.norm_x0) <= ZERO_EPS_TOL)
        checks = {name: quiet for name in
                  ("p_sup", "p_weighted_derivative", "radius")}
        nanfit = DecayReport(np.nan, np.nan, 0.0, 0.0, False,
                             "unperturbed run, nothing to fit")
        return StabilityReport(config=config, epsilon=0.0, fit_x=nanfit,
                               fit_x0=nanfit, checks=checks,
                               linear_response_ratio=np.nan, trajectory=traj,
                               reference=reference)

    fit_x = fit_decay(times, traj.norm_x, window)
    fit_x0 = fit_decay(times, traj.norm_x0, window)
    kx = fit_x.K_fit
    kx0 = fit_x0.K_fit

    fits_ok = (fit_x.mu_fit > 0 and fit_x0.mu_fit > 0
               and fit_x.r2 >= FIT_R2_MIN and fit_x0.r2 >= FIT_R2_MIN)
    p_sup_ok = fits_ok and _envelope_ok(times, traj.p_dev, fit_x.mu_fit, kx, window)
    wder_ok = fits_ok and _envelope_ok(times, traj.dp_dev, fit_x0.mu_fit, kx0, window)
    # R = e^z is monotone, so the radius envelope is checked on |z - z_*|
    radius_ok = fits_ok and _envelope_ok(times, traj.z_dev, fit_x.mu_fit, kx, window)
    checks = {
        "p_sup": p_sup_ok,
        "p_weighted_derivative": wder_ok,
        "radius": radius_ok,
    }

    ratio = np.nan
    if linear_response:
        small = replace(config, epsilon=eps / 10.0, out_dir="")
        small_traj = _run_trajectory(small, reference)
        peak_small = float(np.max(small_traj.norm_x))
        if peak_small > 0:
            ratio = float(np.max(traj.norm_x)) / peak_small

    return StabilityReport(
        config=config,
        epsilon=eps,
        fit_x=replace(fit_x, K_fit=kx / eps),
        fit_x0=replace(fit_x0, K_fit=kx0 / eps),
        checks=checks,
        linear_response_ratio=ratio,
        trajectory=traj,
        reference=reference,
    )


@dataclass
class SweepSummary:
    """Aggregated sweep outcome: one row per config plus the basin edge."""

    rows: list
    basin_edge: float

    def to_table(self):
        header = ("epsilon", "shape", "solver", "grid_size", "mu_fit_x",
                  "K_fit_x", "mu_fit_x0", "K_fit_x0", "passed", "error")
        lines = [",".join(header)]
        for row in self.rows:
            lines.append(",".join(str(row[k]) for k in header))
        return "\n".join(lines) + "\n"


def sweep(configs):
    """Run a batch of configs, aggregating fits and the stability-basin edge.

    The runs skip the linear-response companion run.  Per-run solver
    failures are recorded in the row and the sweep continues.  The basin
    edge is the largest epsilon among passing runs (nan if none pass).
    """
    if not configs:
        raise ConfigError("sweep needs at least one config")

    rows = []
    for config in configs:
        row = {
            "epsilon": config.epsilon, "shape": config.shape,
            "solver": config.solver, "grid_size": config.grid_size,
            "mu_fit_x": np.nan, "K_fit_x": np.nan,
            "mu_fit_x0": np.nan, "K_fit_x0": np.nan,
            "passed": False, "error": "",
        }
        try:
            rep = run_stability_experiment(config, linear_response=False)
        except (SolverError, ConfigError) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        else:
            row.update(
                mu_fit_x=rep.fit_x.mu_fit, K_fit_x=rep.fit_x.K_fit,
                mu_fit_x0=rep.fit_x0.mu_fit, K_fit_x0=rep.fit_x0.K_fit,
                passed=rep.passed,
            )
        rows.append(row)
    passing = [r["epsilon"] for r in rows if r["passed"]]
    return SweepSummary(rows=rows, basin_edge=max(passing) if passing else np.nan)


def _fmt(x):
    return _FLOAT_FMT % float(x)


def _write_failure_manifest(config):
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.txt").write_text(
        config_to_text(config)
        + f"config_hash = {json.dumps(config_hash(config))}\n"
        + 'status = "solver-error"\n'
    )


def emit_report(report, out_dir=None):
    """Persist a StabilityReport: manifest, trajectory table, decay table.

    Returns the written paths.  The manifest holds the config, its hash,
    package versions, the residuals of the stationary state the run was
    measured against (report.reference) and the fitted envelopes; the
    trajectory table has one row per recorded time; the decay table carries
    (t, log normX, fitted line) for plotting.
    """
    import scipy

    from . import __version__

    out = Path(out_dir if out_dir is not None else report.config.out_dir)
    if str(out) in ("", "."):
        raise ConfigError("emit_report needs an output directory")
    out.mkdir(parents=True, exist_ok=True)
    traj = report.trajectory
    reference = report.reference
    if traj is None or reference is None:
        raise ConfigError("report carries no trajectory or reference to persist")

    manifest = [config_to_text(report.config).rstrip("\n")]
    manifest.append(f"config_hash = {json.dumps(config_hash(report.config))}")
    manifest.append(f'versions = {json.dumps({"tumorlab": __version__, "numpy": np.__version__, "scipy": scipy.__version__})}')
    for key, val in sorted(reference.residual_report.items()):
        if isinstance(val, bool):
            manifest.append(f"stationary.{key} = {json.dumps(val)}")
        elif np.isscalar(val):
            manifest.append(f"stationary.{key} = {_fmt(val)}")
        else:
            manifest.append(
                f"stationary.{key} = [{', '.join(_fmt(v) for v in val)}]")
    for kind, fit in (("x", report.fit_x), ("x0", report.fit_x0)):
        manifest.append(f"fit_{kind}.mu = {_fmt(fit.mu_fit)}")
        manifest.append(f"fit_{kind}.K = {_fmt(fit.K_fit)}")
        manifest.append(f"fit_{kind}.r2 = {_fmt(fit.r2)}")
    for name, ok in report.checks.items():
        manifest.append(f"check.{name} = {json.dumps(bool(ok))}")
    manifest.append(f"linear_response_ratio = {_fmt(report.linear_response_ratio)}")
    manifest.append(f"passed = {json.dumps(report.passed)}")
    manifest_path = out / "manifest.txt"
    manifest_path.write_text("\n".join(manifest) + "\n")

    traj_path = out / "trajectory.csv"
    lines = ["t,norm_x,norm_x0,p_sup_dev,weighted_derivative_dev,z_dev,mass_residual"]
    for row in zip(traj.times, traj.norm_x, traj.norm_x0, traj.p_dev,
                   traj.dp_dev, traj.z_dev, traj.mass_residual):
        lines.append(",".join(_fmt(v) for v in row))
    traj_path.write_text("\n".join(lines) + "\n")

    decay_path = out / "decay.csv"
    lines = ["t,log_norm_x,fitted_line"]
    fit = report.fit_x
    logk = (np.log(fit.K_fit * max(report.epsilon, 1.0e-300))
            if np.isfinite(fit.K_fit) else np.nan)
    with np.errstate(divide="ignore"):
        for t, nx in zip(traj.times, traj.norm_x):
            lines.append(",".join(_fmt(v) for v in (
                t, np.log(nx) if nx > 0 else np.nan, logk - fit.mu_fit * t)))
    decay_path.write_text("\n".join(lines) + "\n")
    return [manifest_path, traj_path, decay_path]
