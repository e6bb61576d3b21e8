import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tumorlab import cli, experiments, linearized
from tumorlab.cli import (EXIT_CONFIG_ERROR, EXIT_EXPERIMENT_FAIL, EXIT_PASS,
                          EXIT_SOLVER_ERROR, main)
from tumorlab.errors import SolverError
from tumorlab.experiments import (RunConfig, config_from_text, config_hash,
                                  config_to_text)
from tumorlab.kinetics import KineticsSpec
from tumorlab.linearized import (ENSEMBLE_RECORD_EVERY, build_operators, decay_ensemble,
                                 ensemble_step, fit_decay, shortest_fit_steps, step_bound)
from tumorlab.transport import DT_MAX


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
    path.write_text(f"dt = {2 * DT_MAX}\n")
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
    ("seed = -1\n", "seed must be non-negative"),
    ("output_every = 0.25\n", "output_every = 0.25 is not a whole number of steps"),
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
    # numpy's default_rng takes no negative seed
    ["maps", "--seed", "-1"],
    ["linearize", "--seed", "-1"],
    # fewer samples than one radius of the plan takes
    ["maps", "--samples", "19"],
    ["maps", "--samples", "-5"],
])
def test_bad_argument_exits_3_before_any_solve(monkeypatch, capsys, argv):
    def banned(*args, **kwargs):
        raise AssertionError("a bad argument must stop the run before any solve")

    for name in ("stationary_for", "sweep", "solve_nutrient"):
        monkeypatch.setattr(cli, name, banned)
    assert main(argv) == EXIT_CONFIG_ERROR
    assert argv[1] in capsys.readouterr().err


@pytest.mark.parametrize("command", [["stability"], ["sweep", "--epsilons", "0,1e-2"]])
def test_short_stability_horizon_exits_3_before_any_solve(tmp_path, monkeypatch, capsys,
                                                          command):
    # records every 0.5 in steps of 2e-2: the fit window [0.6, 2.0] of a
    # t_end 2 run holds three records, too few for a fit, so a perturbed run
    # is refused, naming the shortest horizon whose window holds five
    def banned(*args, **kwargs):
        raise AssertionError("a short horizon must stop the run before any solve")

    for name in ("run_stability_experiment", "sweep", "stationary_for"):
        monkeypatch.setattr(cli, name, banned)
    path = tmp_path / "short.cfg"
    path.write_text("t_end = 2.0\n")
    assert main(command + ["--config", str(path)]) == EXIT_CONFIG_ERROR
    assert ("t_end must be at least 2.52, or the fit window holds too few records"
            in capsys.readouterr().err)


def test_short_horizon_names_the_shortest_usable(capsys, operators801):
    # the ensemble records every 1.0 in the propagator's step, 0.1 at the
    # default spec: the window of a 51-step run holds the records at 2, 3, 4,
    # 5 and 5.1, that of a 50-step run one fewer
    assert ensemble_step(operators801) == 0.1
    assert main(["linearize", "--t-end", "5"]) == EXIT_CONFIG_ERROR
    assert "--t-end must be at least 5.1," in capsys.readouterr().err
    assert shortest_fit_steps(0.1, ENSEMBLE_RECORD_EVERY) == 51


class _PastTheCheck(Exception):
    pass


@pytest.mark.parametrize("dt", [1e-2, 1 / 143, 1 / 300])
def test_short_horizon_check_counts_steps(monkeypatch, capsys, dt):
    # the run takes round(t_end / dt) steps of the ensemble's step: a t_end
    # below the shortest that rounds to its step count passes the check, and
    # so does the shortest as the error prints it; one that rounds a step
    # lower fails.  Under 4 record intervals no step holds enough records,
    # so such a horizon fails before the solve that finds the step.
    def reached(*args, **kwargs):
        raise _PastTheCheck

    solves = []
    monkeypatch.setattr(cli, "stationary_for", lambda *args: solves.append(args))
    monkeypatch.setattr(cli, "build_operators", lambda sol, spec: None)
    monkeypatch.setattr(cli, "ensemble_step", lambda ops: dt)
    monkeypatch.setattr(cli, "decay_ensemble", reached)
    argv = ["linearize", "--t-end"]
    assert main(argv + [repr(4.0 - 1e-9)]) == EXIT_CONFIG_ERROR and not solves
    assert "--t-end must be at least 4," in capsys.readouterr().err
    assert main(argv + ["4"]) == EXIT_CONFIG_ERROR and len(solves) == 1
    printed = capsys.readouterr().err.split("at least ")[1].split(",")[0]
    steps = shortest_fit_steps(dt, ENSEMBLE_RECORD_EVERY)
    for t_end in (printed, repr((steps - 0.4) * dt)):
        with pytest.raises(_PastTheCheck):
            main(argv + [t_end])
    assert main(argv + [repr((steps - 0.6) * dt)]) == EXIT_CONFIG_ERROR


def test_help_exits_0(capsys):
    assert main(["--help"]) == EXIT_PASS
    assert main(["linearize", "--help"]) == EXIT_PASS
    assert "--t-end" in capsys.readouterr().out


def test_stationary_and_simulate(tmp_path, small_config_file, stationary201,
                                 capsys, monkeypatch):
    assert main(["stationary", "--config", small_config_file,
                 "--out", str(tmp_path / "s")]) == EXIT_PASS
    out = capsys.readouterr().out.splitlines()
    rep = stationary201.residual_report
    assert f"shoot_integrations = {rep['shoot_integrations']}" in out
    assert f"shoot_fallbacks = {rep['shoot_fallbacks']}" in out
    # simulate prints the norm series of the run and fits nothing
    fits = []
    for owner in (experiments, linearized):
        monkeypatch.setattr(owner, "fit_decay", lambda *args: fits.append(args))
    assert main(["simulate", "--config", small_config_file,
                 "--out", str(tmp_path / "r")]) == EXIT_PASS
    rows = (tmp_path / "r" / "simulate.csv").read_text().splitlines()
    assert rows[0] == "t,norm_x,norm_x0"
    assert not fits


def test_linearize_reports_positive_rate(small_config_file, capsys,
                                         stationary201):
    code = main(["linearize", "--config", small_config_file,
                 "--ensemble", "2", "--t-end", "60"])
    assert code == EXIT_PASS
    assert "ensemble rate estimate" in capsys.readouterr().out


def test_linearize_prints_its_step_bound_and_record_interval(small_config_file, capsys,
                                                              default_spec, stationary201):
    # the step it took (the largest within the propagator's own bound that
    # divides the record interval, not the config's dt), that bound and the
    # ensemble's record interval
    assert main(["linearize", "--config", small_config_file,
                 "--ensemble", "1", "--t-end", "6"]) == EXIT_PASS
    ops = build_operators(stationary201, default_spec)
    bound = step_bound(ops)
    assert (f"dt = 0.1  propagator step bound = {bound:.6g}  record interval = 1"
            in capsys.readouterr().out.splitlines())
    assert f"{bound:.6g}" == "0.107143" and ensemble_step(ops) == 0.1


def test_linearize_writes_the_chosen_norm(tmp_path, small_config_file, default_spec,
                                          stationary201):
    # every row names the --norm it fits, and its rates are decay_ensemble's
    # fits of that norm at the config's seed and the ensemble's own step
    out = tmp_path / "lin"
    assert main(["linearize", "--config", small_config_file, "--norm", "X0",
                 "--ensemble", "2", "--t-end", "60", "--out", str(out)]) == EXIT_PASS
    rows = [row.split(",") for row in (out / "linearize.csv").read_text().splitlines()]
    assert rows[0][:3] == ["run", "norm", "mu_fit"]
    assert [row[1] for row in rows[1:]] == ["X0", "X0"]
    cfg = config_from_text(Path(small_config_file).read_text())
    ens = decay_ensemble(build_operators(stationary201, default_spec), n_runs=2,
                         t_end=60.0, seed=cfg.seed)
    assert [float(row[2]) for row in rows[1:]] == [fit_x0.mu_fit for _, fit_x0 in ens]


def _linearize_on(monkeypatch, pairs):
    """cmd_linearize over a stubbed ensemble of (fit of X, fit of X0) pairs,
    with no solve: it reads each fit as decay_ensemble returns it."""
    monkeypatch.setattr(cli, "stationary_for", lambda *args: None)
    monkeypatch.setattr(cli, "build_operators", lambda sol, spec: None)
    monkeypatch.setattr(cli, "ensemble_step", lambda ops: 0.1)
    monkeypatch.setattr(cli, "step_bound", lambda ops: 0.1)
    monkeypatch.setattr(cli, "decay_ensemble", lambda ops, n_runs, t_end, seed: pairs)
    return lambda norm: main(["linearize", "--ensemble", str(len(pairs)), "--t-end", "40",
                              "--norm", norm])


TIMES = np.linspace(0.0, 40.0, 401)
# period-5 log noise of zero sum: monotone after smoothing, r2 0.90 at rate 0.05
NOISE = np.resize([0.2, -0.2, 0.1, -0.05, -0.05], TIMES.size)


def _fit(mu, log_noise=0.0, late_jump=1.0):
    """fit_decay of e^{-mu t + log_noise}, times late_jump from t = 36 on."""
    jump = np.where(TIMES > 36.0, late_jump, 1.0)
    return fit_decay(TIMES, np.exp(-mu * TIMES + log_noise) * jump)


def test_linearize_fails_on_an_invalid_rate_setting_fit(monkeypatch, capsys):
    # every rate is positive, but the slowest fit, which sets the estimate,
    # is invalid: exit 1, and the fit's note on one line
    noisy = _fit(0.05, NOISE)
    assert noisy.mu_fit > 0 and not noisy.valid
    run = _linearize_on(monkeypatch, [(_fit(0.08), _fit(0.08)), (noisy, _fit(0.08))])
    assert run("X") == EXIT_EXPERIMENT_FAIL
    assert (f"rate-setting fit (run 1) invalid: {noisy.note}"
            in capsys.readouterr().out.splitlines())


def test_linearize_reads_only_the_rate_setting_fit(monkeypatch, capsys):
    # an invalid member that does not set the minimum leaves the exit at 0;
    # the other norm's rate-setting fit, run 0's, is invalid and gives 1
    pairs = [(_fit(0.05), _fit(0.05, NOISE)), (_fit(0.15, late_jump=1.5), _fit(0.08))]
    assert not pairs[1][0].valid and pairs[1][0].mu_fit > 0.05
    run = _linearize_on(monkeypatch, pairs)
    assert run("X") == EXIT_PASS
    assert "invalid" not in capsys.readouterr().out
    assert run("X0") == EXIT_EXPERIMENT_FAIL
    assert (f"rate-setting fit (run 0) invalid: {pairs[0][1].note}"
            in capsys.readouterr().out.splitlines())


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


MAP_INEQUALITIES = ["w_gradient_hypothesis", "T_shift", "S_shift", "dT_bound", "dS_bound",
                    "coeff_shift_sup", "coeff_shift_weighted", "cumulative_op_distance"]


def test_maps_writes_one_row_per_inequality(tmp_path, small_config_file,
                                            stationary201):
    # 40 samples over 2 amplitudes and 10 time pairs: 2 points per pair
    code = main(["maps", "--config", small_config_file, "--samples", "40",
                 "--out", str(tmp_path / "m")])
    assert code == EXIT_PASS
    rows = (tmp_path / "m" / "maps.csv").read_text().splitlines()
    assert rows[0] == "inequality,samples,constant,halving_ratio,status"
    # the gradient hypothesis, then 7 amplitude-linear bounds
    body = [row.split(",") for row in rows[1:-1]]
    assert [fields[0] for fields in body] == MAP_INEQUALITIES
    assert all(len(fields) == 5 and fields[-1] == "pass" for fields in body)
    assert re.fullmatch(r"# 2 flow solves, [1-9]\d* right-hand-side evaluations", rows[-1])


def test_maps_passes_at_a_steep_spec(tmp_path):
    # at b_rate 3.5 the backward flows push Psi_*(r) to within rounding of
    # r = 1, where finv rounds to 1.0: the report holds no quotient that
    # reads 0/0 there, and the flow's gap stays continuous, so DOP853 takes
    # 244 right-hand-side evaluations (5,320 with the gap zeroed at the ends)
    path = tmp_path / "steep.cfg"
    path.write_text(config_to_text(RunConfig(spec=KineticsSpec(b_rate=3.5), grid_size=201,
                                             seed=2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["maps", "--config", str(path), "--out", str(tmp_path / "m")])
    assert code == EXIT_PASS
    rows = (tmp_path / "m" / "maps.csv").read_text().splitlines()
    body = [row.split(",") for row in rows[1:-1]]
    assert [fields[0] for fields in body] == MAP_INEQUALITIES
    assert all(fields[-1] == "pass" for fields in body)
    evals = re.fullmatch(r"# 2 flow solves, (\d+) right-hand-side evaluations", rows[-1])
    assert int(evals.group(1)) <= 500


def test_sweep_writes_one_row_per_epsilon(tmp_path, small_config_file, capsys):
    code = main(["sweep", "--config", small_config_file, "--epsilons", "1e-3,1e-2",
                 "--out", str(tmp_path / "sw")])
    assert code == EXIT_PASS
    rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("epsilon,") and len(rows) == 3
    assert "basin edge: 0.01" in capsys.readouterr().out.splitlines()


def test_seed_option_overrides_the_config(tmp_path, small_config_file, default_spec,
                                          stationary201):
    # --seed 5 on a seed-0 config draws the ensemble a seed-5 config draws,
    # decay_ensemble's at seed 5 in its own step
    seeded = tmp_path / "seeded.cfg"
    seeded.write_text(config_to_text(RunConfig(grid_size=201, t_end=5.0, epsilon=1e-2,
                                               seed=5)))
    tables = []
    for config, seed in ((small_config_file, ["--seed", "5"]), (str(seeded), []),
                         (small_config_file, [])):
        out = tmp_path / f"run{len(tables)}"
        assert main(["linearize", "--config", config, "--ensemble", "2", "--t-end", "6",
                     "--out", str(out)] + seed) == EXIT_PASS
        tables.append((out / "linearize.csv").read_bytes())
    assert tables[0] == tables[1] != tables[2]
    ens = decay_ensemble(build_operators(stationary201, default_spec), n_runs=2,
                         t_end=6.0, seed=5)
    rows = [row.split(",") for row in tables[0].decode().splitlines()[1:]]
    assert [float(row[2]) for row in rows] == [fit_x.mu_fit for fit_x, _ in ens]


@pytest.mark.parametrize("command", ["simulate", "stability"])
def test_solver_error_exits_2_and_leaves_a_manifest(tmp_path, monkeypatch,
                                                    small_config_file, capsys, command):
    # the manifest is experiments.run_trajectory's, so each command that
    # runs one leaves it
    def failing(*args, **kwargs):
        raise SolverError("boom")

    monkeypatch.setattr(experiments, "simulate", failing)
    out = tmp_path / "failed"
    assert main([command, "--config", small_config_file,
                 "--out", str(out)]) == EXIT_SOLVER_ERROR
    assert "solver error: boom" in capsys.readouterr().err
    # the config lines, its hash and the status, out_dir set by --out
    cfg = replace(config_from_text(Path(small_config_file).read_text()), out_dir=str(out))
    assert (out / "manifest.txt").read_text() == (
        config_to_text(cfg) + f'config_hash = "{config_hash(cfg)}"\n'
        + 'status = "solver-error"\n')


@pytest.mark.parametrize("argv, text, says", [
    (["nutrient", "--z", "710"], "", "nutrient scale"),  # e^z overflows
    (["nutrient", "--z", "-800"], "", "nutrient scale"),  # k = sqrt(lam) e^z underflows to 0
    (["nutrient", "--z", "-720"], "", "nutrient scale"),  # k is subnormal: 1 / k overflows in c'
    (["nutrient", "--z", "709.5"], "", "nutrient scale"),  # k is finite, 2k is not
    # e^{2z} is inf
    (["nutrient", "--z", "400"], 'spec.family = "saturating"\n', "nutrient source scale"),
    # e^{2z} is finite, the Numerov stencil sum of the source is not
    (["nutrient", "--z", "354"], 'spec.family = "saturating"\n', "stalled at residual inf"),
    # every shooting evaluation fails, so the first one's error says why
    (["stationary"], "spec.lam = 0.0\n", "nutrient scale"),
    (["stationary"], "spec.lam = -1.0\n", "nutrient scale"),
    (["simulate"], "grid_size = 101\nz_offset = 1000000.0\nt_end = 1.0\n", "nutrient scale"),
], ids=["z710", "z-800", "z-720", "z709.5", "saturating-z400", "saturating-z354", "lam0",
        "lam-1", "simulate-z-offset"])
def test_unrepresentable_nutrient_scale_exits_2(tmp_path, capsys, argv, text, says):
    # a nutrient scale outside the floats is a solver error that names it,
    # not a traceback
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(argv + ["--config", str(path)]) == EXIT_SOLVER_ERROR
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and "Traceback" not in err
    assert says in err
