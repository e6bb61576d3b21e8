import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from tumorlab import cli, experiments
from tumorlab.cli import (EXIT_CONFIG_ERROR, EXIT_EXPERIMENT_FAIL, EXIT_PASS,
                          EXIT_SOLVER_ERROR, main)
from tumorlab.errors import SolverError
from tumorlab.experiments import (RunConfig, config_from_text, config_hash,
                                  config_to_text)
from tumorlab.kinetics import KineticsSpec
from tumorlab.linearized import build_operators, decay_ensemble, shortest_fit_steps


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


def test_nutrient_writes_table(tmp_path, small_config_file, capsys):
    code = main(["nutrient", "--config", small_config_file, "--z", "0.5",
                 "--out", str(tmp_path / "n")])
    assert code == EXIT_PASS
    rows = (tmp_path / "n" / "nutrient.csv").read_text().splitlines()
    assert rows[0] == "r,c,c_prime"
    assert len(rows) == 202
    # the affine profile is exact: no Newton step
    assert "residual = 0.000e+00  newton_iterations = 0" in capsys.readouterr().out


def test_nutrient_prints_newton_steps(tmp_path, capsys):
    path = tmp_path / "sat.cfg"
    path.write_text(config_to_text(RunConfig(spec=KineticsSpec(family="saturating"),
                                             grid_size=201)))
    assert main(["nutrient", "--config", str(path), "--z", "2.9"]) == EXIT_PASS
    steps = re.search(r"newton_iterations = (\d+)", capsys.readouterr().out)
    assert 0 < int(steps.group(1)) <= 12


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


@pytest.mark.parametrize("text, message", [
    ("grid_size = 5\n", "grid_size"),  # too few nodes for the 5-point stencils
    ('spec.family = "cubic"\n', "unknown rate family"),
    # a value of the wrong type names its key, not a traceback
    ("grid_size = 6.5\n", "config key 'grid_size' must be int"),
    ('spec.lam = "x"\n', "config key 'spec.lam' must be float"),
    ('grid_size = "abc"\n', "config key 'grid_size' must be int"),
    ('dt = "0.01"\n', "config key 'dt' must be float"),
    ("grid_size = true\n", "config key 'grid_size' must be int"),
    ("spec.bar = 1\n", "unknown config key 'spec.bar'"),
    ("dt = NaN\n", "config key 'dt' must be finite"),
    ("output_every = NaN\n", "config key 'output_every' must be finite"),
    ("t_end = Infinity\n", "config key 't_end' must be finite"),
    ("spec.lam = NaN\n", "config key 'spec.lam' must be finite"),
    ("z_offset = NaN\n", "config key 'z_offset' must be finite"),
    ("epsilon = -Infinity\n", "config key 'epsilon' must be finite"),
    pytest.param(f"spec.lam = 1{'0' * 400}\n", "config key 'spec.lam' must be finite",
                 id="int-beyond-float"),
])
def test_bad_config_value_exits_3(tmp_path, capsys, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["stationary", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["linearize", "--ensemble", "0"],
    ["sweep", "--epsilons", "abc"],
    ["linearize", "--t-end", "0"],
    ["linearize", "--t-end", "-1"],
    ["linearize", "--t-end", "nan"],
    ["maps", "--epsilon", "0"],
    ["maps", "--epsilon", "-0.01"],
    ["maps", "--epsilon", "nan"],
    ["maps", "--mu", "0"],
    ["maps", "--mu", "-1"],
    ["maps", "--mu", "inf"],
    ["nutrient", "--z", "nan"],
    ["nutrient", "--z", "inf"],
    # usage errors argparse finds: a value that is no float, and -inf,
    # which it reads as an option
    ["linearize", "--t-end", "abc"],
    ["nutrient", "--z", "-inf"],
    # a horizon whose fit window holds fewer than FIT_MIN_SAMPLES records
    ["linearize", "--t-end", "1e-6", "--ensemble", "2"],
    ["linearize", "--t-end", "0.5"],
])
def test_bad_argument_exits_3_before_any_solve(monkeypatch, capsys, argv):
    def banned(*args, **kwargs):
        raise AssertionError("a bad argument must stop the run before any solve")

    for name in ("stationary_for", "sweep", "solve_nutrient"):
        monkeypatch.setattr(cli, name, banned)
    assert main(argv) == EXIT_CONFIG_ERROR
    assert argv[1] in capsys.readouterr().err


def test_short_horizon_names_the_shortest_usable(capsys):
    # with the default dt (1e-2) the window of a 51-step run holds the
    # records at 0.2, 0.3, 0.4, 0.5 and 0.51, that of a 50-step run one fewer
    assert main(["linearize", "--t-end", "0.5"]) == EXIT_CONFIG_ERROR
    assert "--t-end must be at least 0.51," in capsys.readouterr().err
    assert shortest_fit_steps(1e-2) == 51


class _PastTheCheck(Exception):
    pass


@pytest.mark.parametrize("dt", [1e-2, 7e-3, 3e-3])
def test_short_horizon_check_counts_steps(tmp_path, monkeypatch, capsys, dt):
    # the run takes round(t_end / dt) steps: a t_end below the shortest
    # that rounds to its step count passes the check, and so does the
    # shortest as the error prints it; one that rounds a step lower fails
    def reached(*args, **kwargs):
        raise _PastTheCheck

    monkeypatch.setattr(cli, "stationary_for", reached)
    path = tmp_path / "run.cfg"
    path.write_text(f"dt = {dt!r}\n")
    argv = ["linearize", "--config", str(path), "--t-end"]
    assert main(argv + ["0.1"]) == EXIT_CONFIG_ERROR
    printed = capsys.readouterr().err.split("at least ")[1].split(",")[0]
    steps = shortest_fit_steps(dt)
    for t_end in (printed, repr((steps - 0.4) * dt)):
        with pytest.raises(_PastTheCheck):
            main(argv + [t_end])
    assert main(argv + [repr((steps - 0.6) * dt)]) == EXIT_CONFIG_ERROR


def test_help_exits_0(capsys):
    assert main(["--help"]) == EXIT_PASS
    assert main(["linearize", "--help"]) == EXIT_PASS
    assert "--t-end" in capsys.readouterr().out


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


def test_linearize_writes_the_chosen_norm(tmp_path, small_config_file, default_spec,
                                          stationary201):
    # every row names the --norm it fits, and its rates are decay_ensemble's
    # fits of that norm at the config's seed
    out = tmp_path / "lin"
    assert main(["linearize", "--config", small_config_file, "--norm", "X0",
                 "--ensemble", "2", "--t-end", "60", "--out", str(out)]) == EXIT_PASS
    rows = [row.split(",") for row in (out / "linearize.csv").read_text().splitlines()]
    assert rows[0][:3] == ["run", "norm", "mu_fit"]
    assert [row[1] for row in rows[1:]] == ["X0", "X0"]
    cfg = config_from_text(Path(small_config_file).read_text())
    ens = decay_ensemble(build_operators(stationary201, default_spec), n_runs=2,
                         t_end=60.0, dt=cfg.dt, seed=cfg.seed)
    assert [float(row[2]) for row in rows[1:]] == [fit_x0.mu_fit for _, fit_x0 in ens]


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


def test_maps_writes_one_row_per_inequality(tmp_path, small_config_file,
                                            stationary201):
    # 40 samples over 2 amplitudes and 10 time pairs: 2 points per pair
    code = main(["maps", "--config", small_config_file, "--samples", "40",
                 "--out", str(tmp_path / "m")])
    assert code == EXIT_PASS
    rows = (tmp_path / "m" / "maps.csv").read_text().splitlines()
    assert rows[0] == "inequality,samples,constant,halving_ratio,status"
    # the gradient hypothesis, 8 weight equivalences, 9 amplitude-linear bounds
    body = [row.split(",") for row in rows[1:-1]]
    assert len(body) == 18 == len({fields[0] for fields in body})
    assert all(len(fields) == 5 and fields[-1] == "pass" for fields in body)
    assert re.fullmatch(r"# 2 flow solves, [1-9]\d* right-hand-side evaluations", rows[-1])


def test_sweep_writes_one_row_per_epsilon(tmp_path, small_config_file, capsys):
    code = main(["sweep", "--config", small_config_file, "--epsilons", "1e-3,1e-2",
                 "--out", str(tmp_path / "sw")])
    assert code == EXIT_PASS
    rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("epsilon,") and len(rows) == 3
    assert "basin edge: 0.01" in capsys.readouterr().out.splitlines()


def test_seed_option_overrides_the_config(tmp_path, small_config_file):
    # --seed 5 on a seed-0 config draws the ensemble a seed-5 config draws
    seeded = tmp_path / "seeded.cfg"
    seeded.write_text(config_to_text(RunConfig(grid_size=201, t_end=5.0, epsilon=1e-2,
                                               seed=5)))
    tables = []
    for config, seed in ((small_config_file, ["--seed", "5"]), (str(seeded), []),
                         (small_config_file, [])):
        out = tmp_path / f"run{len(tables)}"
        assert main(["linearize", "--config", config, "--ensemble", "2", "--t-end", "1",
                     "--out", str(out)] + seed) == EXIT_PASS
        tables.append((out / "linearize.csv").read_bytes())
    assert tables[0] == tables[1] != tables[2]


def test_solver_error_exits_2_and_leaves_a_manifest(tmp_path, monkeypatch,
                                                    small_config_file, capsys):
    def failing(*args, **kwargs):
        raise SolverError("boom")

    monkeypatch.setattr(experiments, "simulate", failing)
    out = tmp_path / "failed"
    assert main(["stability", "--config", small_config_file,
                 "--out", str(out)]) == EXIT_SOLVER_ERROR
    assert "solver error: boom" in capsys.readouterr().err
    # the config lines, its hash and the status, out_dir set by --out
    cfg = replace(config_from_text(Path(small_config_file).read_text()), out_dir=str(out))
    assert (out / "manifest.txt").read_text() == (
        config_to_text(cfg) + f'config_hash = "{config_hash(cfg)}"\n'
        + 'status = "solver-error"\n')
