import dataclasses
import functools
import hashlib

import numpy as np
import pytest

from tumorlab import experiments
from tumorlab.errors import ConfigError, SolverError
from tumorlab.experiments import (RunConfig, StabilityReport, config_from_text,
                                  config_hash, config_to_text, emit_report,
                                  perturbation_shape, run_stability_experiment, sweep)
from tumorlab.grid import RadialGrid
from tumorlab.kinetics import KineticsSpec
from tumorlab.linearized import FIT_R2_MIN, fit_decay, shortest_fit_steps
from tumorlab.stationary import solve_stationary
from tumorlab.transport import DT_MAX, RECORD_EVERY, Trajectory


def small_config(**overrides):
    base = dict(grid_size=201, t_end=10.0, epsilon=1e-2)
    base.update(overrides)
    return RunConfig(**base)


def test_config_roundtrip_exact():
    cfg = RunConfig(spec=KineticsSpec(lam=2.0, family="saturating"),
                    epsilon=0.037, dt=0.005, shape="bump", seed=11)
    assert config_from_text(config_to_text(cfg)) == cfg


def test_config_text_skips_comments_and_blank_lines():
    cfg = RunConfig(spec=KineticsSpec(lam=2.0), epsilon=0.037, seed=11)
    text = "# a hand-edited run\n\n" + config_to_text(cfg) + "\n  # seed = 12\n"
    assert config_from_text(text) == cfg


def test_config_hash_changes_with_content():
    assert config_hash(RunConfig()) != config_hash(RunConfig(epsilon=1e-3))


def test_config_int_for_float_key_hashes_as_float():
    # the same run written with 1 or 1.0 has one config hash
    ints = config_from_text("spec.lam = 2\nt_end = 10\n")
    floats = config_from_text("spec.lam = 2.0\nt_end = 10.0\n")
    assert config_hash(ints) == config_hash(floats)


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(epsilon=0.5)
    with pytest.raises(ConfigError):
        RunConfig(t_end=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(dt=2 * DT_MAX)
    with pytest.raises(ConfigError):
        config_from_text("epsilon 0.1\n")
    with pytest.raises(ConfigError, match="shape must be one of"):
        RunConfig(shape="x")
    with pytest.raises(ConfigError, match="solver must be one of"):
        RunConfig(solver="x")
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        RunConfig(seed=-1)
    with pytest.raises(ConfigError, match="bad value on config line"):
        config_from_text("epsilon = 0.1.2\n")
    with pytest.raises(ConfigError, match="unknown shape id 'x'"):
        perturbation_shape("x", np.linspace(0.0, 1.0, 11))


def test_record_interval_is_a_whole_number_of_steps():
    # 0.25 at dt 2e-2 would record every round(12.5) = 12 steps, 0.24, and
    # half a step records at every step; 0.58 is 29 steps up to rounding
    with pytest.raises(ConfigError, match="output_every = 0.25 is not a whole number "
                                          "of steps of dt = 0.02"):
        RunConfig(output_every=0.25)
    with pytest.raises(ConfigError, match="not a whole number"):
        RunConfig(output_every=DT_MAX / 2)
    assert 0.58 / DT_MAX != 29
    RunConfig(output_every=0.58)


def test_shortest_stability_horizon_is_the_shortest_that_fits(stationary201):
    # records every 0.5 in steps of 2e-2: the fit window [0.756, 2.52] of a
    # 126-step run holds 1.0, 1.5, 2.0, 2.5 and 2.52; that of a 125-step run,
    # [0.75, 2.5], holds four, too few, and its fits are NaN
    steps = shortest_fit_steps(DT_MAX, RECORD_EVERY)
    assert steps == 126
    for horizon, fitted in ((steps, True), (steps - 1, False)):
        rep = run_stability_experiment(small_config(t_end=horizon * DT_MAX),
                                       linear_response=False)
        assert np.isfinite(rep.fit_x.mu_fit) == np.isfinite(rep.fit_x0.mu_fit) == fitted


def test_emit_report_needs_a_directory_and_a_run(tmp_path):
    # a report of a run that kept no trajectory or reference has nothing
    # to write, and one without a directory has nowhere to write it
    report = StabilityReport(config=RunConfig(), epsilon=0.0, fit_x=None, fit_x0=None,
                             checks={}, linear_response_ratio=np.nan)
    with pytest.raises(ConfigError, match="needs an output directory"):
        emit_report(report)
    with pytest.raises(ConfigError, match="no trajectory or reference"):
        emit_report(report, out_dir=tmp_path)


def test_shapes_vanish_at_endpoints():
    r = np.linspace(0.0, 1.0, 101)
    for shape in ("poly", "sine", "bump"):
        vals = perturbation_shape(shape, r)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[-1] == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(vals)) <= 4.0


def test_zero_perturbation_trivially_passes(stationary801):
    # needs the default grid: the coarse-grid fixed-point drift exceeds the
    # 1e-6 quiet threshold at 201 nodes.  Recorded every step, the drift
    # peaks at 7.6e-7
    rep = run_stability_experiment(
        RunConfig(grid_size=801, t_end=2.0, epsilon=0.0, output_every=DT_MAX),
        linear_response=False)
    assert rep.passed
    assert np.max(rep.trajectory.norm_x0) <= 1e-6


def test_zero_perturbation_is_loud_against_a_moved_reference(stationary201):
    # at 201 nodes a run that starts on the stationary state stays within
    # ZERO_EPS_TOL up to t = 0.1 (5.4e-7), and one that starts on a
    # reference with z_* moved by 1e-4 leaves it (3.3e-6): the quiet check,
    # read at every step, is False on every stability check
    cfg = RunConfig(grid_size=201, t_end=0.1, epsilon=0.0, output_every=DT_MAX)
    still = run_stability_experiment(cfg, reference=stationary201, linear_response=False)
    moved = run_stability_experiment(
        cfg, reference=dataclasses.replace(stationary201, z_star=stationary201.z_star + 1e-4),
        linear_response=False)
    assert still.passed
    assert not any(moved.checks.values())
    assert np.max(moved.trajectory.norm_x0) > 3e-6 > 5 * np.max(still.trajectory.norm_x0)


def test_envelope_check_rejects_a_series_above_its_slack():
    # a series 10% above K e^{-mu t} breaks the envelope; one 4% above is
    # inside its 5% slack
    times = np.linspace(0.0, 40.0, 401)
    mu, K = 0.08, 2.0
    exact = K * np.exp(-mu * times)
    assert experiments._envelope_ok(times, 1.04 * exact, mu, K)
    assert not experiments._envelope_ok(times, 1.10 * exact, mu, K)
    # it reads linearized.fit_window alone: 10% above before t = 10 passes
    assert experiments._envelope_ok(times, np.where(times < 10.0, 1.10, 1.0) * exact, mu, K)


def test_fit_gate_rejects_a_noisy_series(monkeypatch, stationary201):
    # a decaying series with period-5 log noise of zero sum: the 5-sample
    # smoothing leaves it monotone, so only r2 (0.90) fails it.  In the
    # report the noise sits in |z - z_*|, and p and its derivative are
    # clean and far below the fit, so their checks read False only through
    # the fit gate
    times = np.linspace(0.0, 40.0, 401)
    clean = np.exp(-0.05 * times)
    noisy = clean * np.exp(np.resize([0.2, -0.2, 0.1, -0.05, -0.05], times.size))
    fit = fit_decay(times, noisy)
    assert not fit.valid and fit.r2 < 0.9
    assert fit.note == f"fit quality r2 = {fit.r2:.4f} below {FIT_R2_MIN}"

    traj = Trajectory(times=times, states=[], p_dev=1e-3 * clean, dp_dev=1e-3 * clean,
                      z_dev=noisy, mass_residual=np.full(times.size, np.nan))
    monkeypatch.setattr(experiments, "run_trajectory", lambda config, reference: traj)
    rep = run_stability_experiment(small_config(t_end=40.0), reference=stationary201,
                                   linear_response=False)
    assert rep.checks == {"p_sup": False, "p_weighted_derivative": False, "radius": False}
    assert rep.fit_x.mu_fit > 0 and rep.fit_x0.mu_fit > 0
    assert max(rep.fit_x.r2, rep.fit_x0.r2) < 0.92


def test_fit_gate_rejects_a_rising_series(monkeypatch, stationary201):
    # a decaying series with a log ripple of period 2 and amplitude 0.03:
    # the fit decays at r2 above FIT_R2_MIN and the series stays inside its
    # envelope's 5% slack, but the smoothed log-norm rises on each ripple, so
    # the fit is invalid.  In the report the ripple sits in |z - z_*| and
    # reaches both norms, and each check reads False through the fit verdict
    times = np.linspace(0.0, 40.0, 401)
    clean = np.exp(-0.05 * times)
    rippled = clean * (1.0 + 0.03 * np.sin(np.pi * times))
    fit = fit_decay(times, rippled)
    assert fit.mu_fit > 0 and fit.r2 >= FIT_R2_MIN and not fit.valid
    assert fit.note == "norm not monotone over the window after smoothing"
    assert experiments._envelope_ok(times, rippled, fit.mu_fit, fit.K_fit)

    traj = Trajectory(times=times, states=[], p_dev=1e-3 * clean, dp_dev=1e-3 * clean,
                      z_dev=rippled, mass_residual=np.full(times.size, np.nan))
    monkeypatch.setattr(experiments, "run_trajectory", lambda config, reference: traj)
    rep = run_stability_experiment(small_config(t_end=40.0), reference=stationary201,
                                   linear_response=False)
    assert rep.checks == {"p_sup": False, "p_weighted_derivative": False, "radius": False}
    for fit in (rep.fit_x, rep.fit_x0):
        assert fit.mu_fit > 0 and fit.r2 >= FIT_R2_MIN
        assert fit.note == "norm not monotone over the window after smoothing"


def test_small_perturbation_passes_all_checks(stationary201):
    rep = run_stability_experiment(small_config(t_end=20.0),
                                   linear_response=False)
    assert rep.passed, rep.checks
    assert rep.fit_x.mu_fit > 0
    assert rep.fit_x0.mu_fit > 0


def test_emit_report_roundtrip(tmp_path, stationary201):
    rep = run_stability_experiment(small_config(t_end=5.0),
                                   linear_response=False)
    paths = emit_report(rep, out_dir=tmp_path)
    manifest = (tmp_path / "manifest.txt").read_text()
    assert config_from_text(
        "\n".join(l for l in manifest.splitlines()
                  if not l.startswith(("config_hash", "versions",
                                       "stationary.", "fit_", "check.",
                                       "linear_response", "passed")))
    ) == rep.config
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(rows) - 1 == round(5.0 / RECORD_EVERY) + 1
    assert rows[0].startswith("t,")
    assert len(paths) == 3


# SHA-256 of the report files of a short 201-node run per solver, recorded
# with numpy 2.4.6 and scipy 1.17.1 on x86-64; the manifest also holds the
# package versions, so a version change moves its digest.
# A refactoring leaves every digest as it is.  A change that moves numbers
# on purpose re-records the digests that move and lists old -> new in
# CHANGES.md, which keeps their history; another numpy or scipy build may
# round differently and move them too.
REPORT_DIGESTS = {
    "direct": {
        "manifest.txt":
            "04e3202c10caa3ef293a765f1a67d99a1aa1905cf91bafa59034a668ebf02a88",
        "trajectory.csv":
            "6d66d16f5dd3d6a5cc48c77b3002e507b85a7ad0d36ec3018b007ef294d7227e",
        "decay.csv":
            "2c51fd9eaa2800ce24584623ccfd10039f198712fc727bb138ba30077b017df6",
    },
    "picard": {
        "manifest.txt":
            "f055c8990886f73c866ec0bca6676b6bdb95ab8ba76b7eadaddf77d44635a17c",
        "trajectory.csv":
            "066144d7b3d9b97dcf8d7587380454d2bd26a9fe746b0cd4ae393e697aaf29ff",
        "decay.csv":
            "5328efedaeb820b119529a46036c90a4c87c95cb4c044aaa40d079d71170ee15",
    },
}


def test_emit_report_bytes_recorded(tmp_path, stationary201):
    """The report files of both solvers reproduce their recorded bytes: a
    change to the recorded states, their deviation series, the fits or the
    formatting shows here.  At t_end 3.5 the fit window [1.05, 3.5] holds
    five records at RECORD_EVERY 0.5, so the digests cover valid fits."""
    digests = {}
    for solver in REPORT_DIGESTS:
        cfg = RunConfig(grid_size=201, t_end=3.5, epsilon=1e-2, solver=solver)
        rep = run_stability_experiment(cfg, linear_response=False)
        assert rep.fit_x.valid and rep.fit_x0.valid, (rep.fit_x.note, rep.fit_x0.note)
        emit_report(rep, out_dir=tmp_path / solver)
        digests[solver] = {
            name: hashlib.sha256((tmp_path / solver / name).read_bytes()).hexdigest()
            for name in REPORT_DIGESTS[solver]}
    assert digests == REPORT_DIGESTS


def test_emit_report_uses_the_run_reference(tmp_path, monkeypatch, default_spec):
    # a reference the experiments cache does not hold: emit_report must
    # describe it, not solve the stationary state again
    monkeypatch.setattr(experiments, "stationary_for",
                        functools.cache(experiments.stationary_for.__wrapped__))
    ref = solve_stationary(default_spec, RadialGrid.uniform(101))
    cfg = RunConfig(grid_size=101, t_end=1.0, epsilon=1e-2)
    rep = run_stability_experiment(cfg, reference=ref, linear_response=False)

    def no_solve(*args, **kwargs):
        raise AssertionError("emit_report solved the stationary state again")

    monkeypatch.setattr(experiments, "solve_stationary", no_solve)
    emit_report(rep, out_dir=tmp_path)
    manifest = dict(line.split(" = ", 1) for line in
                    (tmp_path / "manifest.txt").read_text().splitlines())
    assert float(manifest["stationary.z_star"]) == ref.z_star


def test_sweep_aggregates_and_flags_failures(stationary201):
    configs = [small_config(t_end=5.0, epsilon=e) for e in (1e-3, 1e-2)]
    summary = sweep(configs)
    assert len(summary.rows) == 2
    assert summary.basin_edge == pytest.approx(1e-2)
    table = summary.to_table()
    assert table.splitlines()[0].startswith("epsilon,")


def test_sweep_records_a_failed_run_and_goes_on(monkeypatch, stationary201):
    simulate = experiments.simulate
    calls = []

    def fail_first(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == 1:
            raise SolverError("p escaped [0,1]")
        return simulate(*args, **kwargs)

    monkeypatch.setattr(experiments, "simulate", fail_first)
    summary = sweep([small_config(t_end=5.0, epsilon=e) for e in (1e-2, 1e-3)])
    failed, ran = summary.rows
    assert failed["error"].startswith("SolverError: p escaped")
    assert not failed["passed"] and np.isnan(failed["mu_fit_x"])
    assert calls == [5.0, 5.0] and ran["error"] == "" and ran["passed"]
    assert summary.basin_edge == 1e-3


def test_sweep_needs_configs():
    with pytest.raises(ConfigError):
        sweep([])
