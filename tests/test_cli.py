import json

import pytest

from tumorlab.cli import (EXIT_CONFIG_ERROR, EXIT_EXPERIMENT_FAIL, EXIT_PASS,
                          main)
from tumorlab.experiments import RunConfig, config_to_text
from tumorlab.kinetics import KineticsSpec


@pytest.fixture()
def small_config_file(tmp_path):
    cfg = RunConfig(grid_size=201, t_end=5.0, epsilon=1e-2)
    path = tmp_path / "run.cfg"
    path.write_text(config_to_text(cfg))
    return str(path)


def test_check_kinetics_passes(capsys):
    assert main(["check-kinetics"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out.startswith("check,ok,margin")


def test_check_kinetics_flags_bad_rates(tmp_path, capsys):
    cfg = RunConfig(spec=KineticsSpec(b_rate=0.2, d_rate=0.5))
    path = tmp_path / "bad.cfg"
    path.write_text(config_to_text(cfg))
    assert main(["check-kinetics", "--config", str(path)]) == EXIT_EXPERIMENT_FAIL


def test_nutrient_writes_table(tmp_path, small_config_file):
    code = main(["nutrient", "--config", small_config_file, "--z", "0.5",
                 "--out", str(tmp_path / "n")])
    assert code == EXIT_PASS
    rows = (tmp_path / "n" / "nutrient.csv").read_text().splitlines()
    assert rows[0] == "r,c,c_prime"
    assert len(rows) == 202


def test_malformed_config_exits_3(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("epsilon = 0.5\n")
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG_ERROR


def test_config_step_above_bound_exits_3(tmp_path, capsys):
    # a step above transport.DT_MAX is a config error, not a traceback
    path = tmp_path / "coarse.cfg"
    path.write_text("dt = 0.05\n")
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert "DT_MAX" in capsys.readouterr().err


def test_stationary_and_simulate(tmp_path, small_config_file, stationary201,
                                 capsys):
    assert main(["stationary", "--config", small_config_file,
                 "--out", str(tmp_path / "s")]) == EXIT_PASS
    out = capsys.readouterr().out.splitlines()
    rep = stationary201.residual_report
    assert f"shoot_integrations = {rep['shoot_integrations']}" in out
    assert f"shoot_fallbacks = {rep['shoot_fallbacks']}" in out
    assert main(["simulate", "--config", small_config_file,
                 "--out", str(tmp_path / "r")]) == EXIT_PASS
    rows = (tmp_path / "r" / "simulate.csv").read_text().splitlines()
    assert rows[0] == "t,norm_x,norm_x0"


def test_linearize_reports_positive_rate(small_config_file, capsys,
                                         stationary201):
    code = main(["linearize", "--config", small_config_file,
                 "--ensemble", "2", "--t-end", "60"])
    assert code == EXIT_PASS
    assert "ensemble rate estimate" in capsys.readouterr().out


def test_stability_emits_report(tmp_path, small_config_file, stationary201,
                                capsys):
    code = main(["stability", "--config", small_config_file,
                 "--out", str(tmp_path / "st")])
    assert code == EXIT_PASS
    manifest = (tmp_path / "st" / "manifest.txt").read_text().splitlines()
    written_hash = json.loads(dict(line.split(" = ", 1) for line in manifest)
                              ["config_hash"])
    assert f"config hash: {written_hash}" in capsys.readouterr().out.splitlines()
    rep = stationary201.residual_report
    assert f"stationary.shoot_integrations = {rep['shoot_integrations']}" in manifest
    assert f"stationary.shoot_fallbacks = {rep['shoot_fallbacks']}" in manifest
    assert (tmp_path / "st" / "trajectory.csv").exists()
    assert (tmp_path / "st" / "decay.csv").exists()
