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
# with numpy 2.4.6 and scipy 1.17.1 on x86-64 after the switch to the exact
# affine nutrient profile; the manifest also holds the package versions, so
# a version change moves its digest.
REPORT_DIGESTS = {
    "direct": {
        "manifest.txt":
            "e5d4ba6a3bb18b5836b077b9a0d55411f6d8d4141e64777fc04ee594046b7f75",
        "trajectory.csv":
            "fbe813f9caac153d7350068c6407319435584758a6359019a43aec6a24bea40b",
        "decay.csv":
            "916f83f2bcb43623d98aa5feb75c7afebe0bd1bb16b3299f07df4a443c382a8c",
    },
    "picard": {
        "manifest.txt":
            "9606cba4ded98b35022249780372c9b0d4840ca0a803ec6cbe15668beee948fe",
        "trajectory.csv":
            "8ebcbb0908712bcfeb46c1b706d95cf30d2b3b43eed33524c7f96f630eb26fc6",
        "decay.csv":
            "1a7c78c49da2089b855daf834f58a7b4d356e945a5d8e9bcb08d244edf84d0a7",
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
    monkeypatch.setattr(experiments, "_STATIONARY_CACHE", {})
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
