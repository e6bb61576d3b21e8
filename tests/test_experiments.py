import hashlib

import numpy as np
import pytest

from tumorlab.errors import ConfigError
from tumorlab.experiments import (RunConfig, config_from_text, config_hash,
                                  config_to_text, emit_report,
                                  perturbation_shape,
                                  run_stability_experiment, sweep)
from tumorlab.kinetics import KineticsSpec


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
# with numpy 2.4.6 and scipy 1.17.1 on x86-64; the manifest also holds the
# package versions, so a version change moves its digest.
REPORT_DIGESTS = {
    "direct": {
        "manifest.txt":
            "0d3c2d94142212c512fe455fe9baa0347c0308f4d05a82e7117b16e55fa71faf",
        "trajectory.csv":
            "a070fe836562bbfa64c4b4e773f8f4b84949e6ecc13b2d6651dcda60d03314a5",
        "decay.csv":
            "1cb082bf119db4ed61dff630fbdaa0b64b8de6d7198655d9bbf77bfa7ffe6865",
    },
    "picard": {
        "manifest.txt":
            "15459ca7a865221abbecf74e43e3a0b84cc3e74deb721ecc702a3f81451380a6",
        "trajectory.csv":
            "5277c0c23d01df047b9ccaf880b917d253ab2b23a3a710bb27694dadc3d45d1c",
        "decay.csv":
            "f1efd3d8852b378caa740f68cfb0c2c0a948124e95e5dcf12d4f4e392bc31cc1",
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
