import functools
import hashlib

import numpy as np
import pytest

from tumorlab import experiments
from tumorlab.errors import ConfigError, SolverError
from tumorlab.experiments import (RunConfig, StabilityReport, config_from_text,
                                  config_hash, config_to_text, emit_report,
                                  perturbation_shape,
                                  run_stability_experiment, sweep)
from tumorlab.grid import RadialGrid
from tumorlab.kinetics import KineticsSpec
from tumorlab.stationary import solve_stationary


def small_config(**overrides):
    base = dict(grid_size=201, t_end=10.0, epsilon=1e-2)
    base.update(overrides)
    return RunConfig(**base)


def test_config_roundtrip_exact():
    cfg = RunConfig(spec=KineticsSpec(lam=2.0, family="saturating"),
                    epsilon=0.037, dt=0.005, shape="bump", seed=11)
    assert config_from_text(config_to_text(cfg)) == cfg


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
        RunConfig(dt=0.05)  # above transport.DT_MAX
    with pytest.raises(ConfigError):
        config_from_text("epsilon 0.1\n")
    with pytest.raises(ConfigError, match="shape must be one of"):
        RunConfig(shape="x")
    with pytest.raises(ConfigError, match="solver must be one of"):
        RunConfig(solver="x")
    with pytest.raises(ConfigError, match="bad value on config line"):
        config_from_text("epsilon = 0.1.2\n")
    with pytest.raises(ConfigError, match="unknown shape id 'x'"):
        perturbation_shape("x", np.linspace(0.0, 1.0, 11))


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
    # 1e-6 quiet threshold at 201 nodes
    rep = run_stability_experiment(
        RunConfig(grid_size=801, t_end=2.0, epsilon=0.0),
        linear_response=False)
    assert rep.passed
    assert np.max(rep.trajectory.norm_x0) <= 1e-6


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
    assert len(rows) - 1 == int(5.0 / 0.1) + 1
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
            "ec0364ae12a605d2080d76e575d8fc4bd8cc6973c105625494e9d4ee12b9e0f1",
        "trajectory.csv":
            "3619cff2363533b2f613017483ea28c4be6c83b4000e392a57c02f9e70cc2aa0",
        "decay.csv":
            "aa2ead97658c21c79629fb56efd448368d7614162cdc08c5ffeacf0420143a89",
    },
    "picard": {
        "manifest.txt":
            "60781c0119380edeb9349b16ee56d3fc5df1002e43353c4c8f0080792c12d86e",
        "trajectory.csv":
            "fb9043b982c7c01f4b2ec4a17d35057d50646134be2008971f87483c909f3b99",
        "decay.csv":
            "20245aa76b9d75982e82eac4369ca9a529ead941f61f542df0cec8a3043a5355",
    },
}


def test_emit_report_bytes_recorded(tmp_path, stationary201):
    """The report files of both solvers reproduce their recorded bytes: a
    change to the recorded states, their deviation series, the fits or the
    formatting shows here."""
    digests = {}
    for solver in REPORT_DIGESTS:
        cfg = RunConfig(grid_size=201, t_end=1.0, epsilon=1e-2, solver=solver)
        emit_report(run_stability_experiment(cfg, linear_response=False),
                    out_dir=tmp_path / solver)
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
