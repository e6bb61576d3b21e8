import functools
import hashlib

import numpy as np
import pytest

from tumorlab import experiments
from tumorlab.errors import ConfigError
from tumorlab.experiments import (RunConfig, config_from_text, config_hash,
                                  config_to_text, emit_report,
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


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(epsilon=0.5)
    with pytest.raises(ConfigError):
        RunConfig(t_end=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(dt=0.05)  # above transport.DT_MAX
    with pytest.raises(ConfigError):
        config_from_text("epsilon 0.1\n")


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


def test_determinism_bit_identical(tmp_path, stationary201):
    cfg = small_config(t_end=3.0)
    outs = []
    for sub in ("a", "b"):
        rep = run_stability_experiment(cfg, linear_response=False)
        emit_report(rep, out_dir=tmp_path / sub)
        outs.append({name: (tmp_path / sub / name).read_bytes()
                     for name in ("manifest.txt", "trajectory.csv",
                                  "decay.csv")})
    assert outs[0] == outs[1]


# SHA-256 of the report files of a short 201-node run per solver, recorded
# with numpy 2.4.6 and scipy 1.17.1 on x86-64 after the merge of the two
# radial moment quadratures into grid.RadialMoments (the picard files again
# when Picard came to freeze the previous iterate's velocity on the nodes,
# both manifests when the q = 1 - p copies of the p checks went, and again
# when the closed-form cubic start moved stationary.u_weight_lower, and the
# manifests and trajectories when grid.RadialMoments came to sum Simpson
# pair totals); the manifest also holds the package versions, so a version
# change moves its digest.
REPORT_DIGESTS = {
    "direct": {
        "manifest.txt":
            "d96c55a45fb6ef344e9e838b42e4c8b8c60ea9b8fdb912a0e5002d8f5bec7e1f",
        "trajectory.csv":
            "db5bb2a653ad2aa9f2e515da5edf6ca6a71dc493e8aaee614ed980edd96d38a8",
        "decay.csv":
            "13710769fd4bb4c275cf3481fe7477dbf542af72f04cfb35c1c086144f00616b",
    },
    "picard": {
        "manifest.txt":
            "5bbd3f92a5058d992b4138f00c584a2fa474afef88e502a200bd5725ef377928",
        "trajectory.csv":
            "91f31f46ba8ea4b977fa340448e3b0f6d7adbc6f892162994531a5c3081765f3",
        "decay.csv":
            "98c1d42d623fbbfe3b791c79a3e3a1537b1bf86c64c1e24541376248ac243d70",
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


def test_sweep_needs_configs():
    with pytest.raises(ConfigError):
        sweep([])
