"""Run one-line semantic mutants of tumorlab against the tests that must kill them.

    python tools/mutants.py

Each mutant names a file under src/tumorlab, an exact old text that must
occur there once, the new text, and the test, not a digest test, that must
kill it.  The script copies src/, tests/ and pyproject.toml (for the test
settings: warnings are errors) to a temporary directory and writes nothing
in the checkout, nor any bytecode, so that no mutant reads another's
stale cache.  It first runs the named tests on the unmutated copy, then
applies one mutant at a time, runs only its test, and restores the file.

A mutant is killed when its test fails (pytest exit code 1).  The script
prints one row per mutant with its verdict and time, and exits 1 if the
unmutated tests fail, an old text is not found exactly once, or any mutant
is not killed: it survived, timed out, or broke collection.  It runs on one
BLAS thread and one process, and is not part of tier-1.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

# (name, file under src/tumorlab, old text, new text, killing test)
MUTANTS = [
    ("kappa's sign flipped", "linearized.py",
     "kappa = float(full)", "kappa = -float(full)",
     "tests/test_linearized.py::test_ensemble_rates_cluster"),
    ("b without f_c c_z", "linearized.py",
     "b_vals = rv.f_c(p) * sol.c_z.values + rp * (kappa - cum)",
     "b_vals = rp * (kappa - cum)",
     "tests/test_linearized.py::test_linearization_gap_is_second_order"),
    ("B's partial moment rp r^-3 M(r) dropped in the propagator", "linearized.py",
     "        dphi -= moment\n", "",
     "tests/test_linearized.py::test_stage_moments_match_simpson"),
    ("nutrient sensitivity's factor 2 -> 1", "nutrient.py",
     "fixed = 2.0 * e2z * nodes * rv.f_val", "fixed = 1.0 * e2z * nodes * rv.f_val",
     "tests/test_nutrient.py::test_numerov_matches_affine_closed_form"),
    ("an AB4 weight off by one", "transport.py",
     "np.roll((55.0, -9.0, 37.0, -59.0), s)", "np.roll((56.0, -9.0, 37.0, -59.0), s)",
     "tests/test_transport.py::test_simulate_multistep_is_fourth_order"),
    ("frame velocity with half of r u(1)", "velocity.py",
     "w = u - r * u[..., -1:]", "w = u - 0.5 * r * u[..., -1:]",
     "tests/test_velocity.py::test_frame_adjusted_velocity_vanishes_at_endpoints"),
    ("halving window [0.3, 3] widened to [0, 1e9]", "simmaps.py",
     "all(0.3 <= rr <= 3.0 for rr in ratios)", "all(0.0 <= rr <= 1e9 for rr in ratios)",
     "tests/test_simmaps.py::test_bounds_failure_raises"),
    ("REGRID_MAX_FACTOR 2.5 -> 25", "transport.py",
     "REGRID_MAX_FACTOR = 2.5", "REGRID_MAX_FACTOR = 25",
     "tests/test_transport.py::test_rk4_opens_every_regrid_cycle"),
    ("DT_MAX 2e-2 -> 5e-2", "transport.py",
     "DT_MAX = 2e-2", "DT_MAX = 5e-2",
     "tests/test_transport.py::test_halving_the_step_leaves_norm_x"),
    ("GRADIENT_HYPOTHESIS_CAP 100 -> 0", "simmaps.py",
     "GRADIENT_HYPOTHESIS_CAP = 100.0", "GRADIENT_HYPOTHESIS_CAP = 0.0",
     "tests/test_cli.py::test_maps_writes_one_row_per_inequality"),
    ("Picard's distance without e^{mu t}", "transport.py",
     "d = float(np.max(np.exp(mu * (path_times - initial.t)) * (p_term + z_term)))",
     "d = float(np.max(p_term + z_term))",
     "tests/test_transport.py::test_picard_first_distance_is_weighted_from_v0"),
    ("ENVELOPE_SLACK 1.05 -> 1e6", "experiments.py",
     "ENVELOPE_SLACK = 1.05", "ENVELOPE_SLACK = 1e6",
     "tests/test_experiments.py::test_envelope_check_rejects_a_series_above_its_slack"),
    ("fit window from 0.3 -> 0.4 of the span", "linearized.py",
     "times[0] + 0.3 * (times[-1]", "times[0] + 0.4 * (times[-1]",
     "tests/test_experiments.py::test_shortest_stability_horizon_is_the_shortest_that_fits"),
    ("FIT_R2_MIN 0.98 -> 0", "linearized.py",
     "FIT_R2_MIN = 0.98", "FIT_R2_MIN = 0.0",
     "tests/test_experiments.py::test_fit_gate_rejects_a_noisy_series"),
    ("valid ignores monotonicity", "linearized.py",
     "    elif not np.all(np.diff(smooth) <= 1e-10):\n", "    elif False:\n",
     "tests/test_experiments.py::test_fit_gate_rejects_a_rising_series"),
    ("ZERO_EPS_TOL 1e-6 -> 1e6", "experiments.py",
     "ZERO_EPS_TOL = 1e-6", "ZERO_EPS_TOL = 1e6",
     "tests/test_experiments.py::test_zero_perturbation_is_loud_against_a_moved_reference"),
    ("relative_gap zeroes the endpoints again", "simmaps.py",
     "        return gap\n", "        return np.where((r > 0.0) & (r < 1.0), gap, 0.0)\n",
     "tests/test_cli.py::test_maps_passes_at_a_steep_spec"),
    ("T without the stationary shift (t - s)", "simmaps.py",
     "table.finv(back), table.finv(back - d)", "table.finv(back), table.finv(back)",
     "tests/test_simmaps.py::test_similarity_maps_are_mutually_inverse"),
    ("derivative bounds never skipped", "simmaps.py",
     'if n in ("dT_bound", "dS_bound") and not grad_all_ok:',
     'if n in ("dT_bound", "dS_bound") and False:',
     "tests/test_simmaps.py::test_failed_gradient_hypothesis_skips_the_derivative_bounds"),
    ("r^-3 M's origin limit v(0)/3 -> v(0)/2", "grid.py",
     "moment[..., 0] = v[..., 0] / 3.0", "moment[..., 0] = v[..., 0] / 2.0",
     "tests/test_grid.py::test_third_moment_constant_limit"),
    ("fold leaves the cubic start unscaled", "grid.py",
     "        self.start *= g[:self.k]\n", "",
     "tests/test_linearized.py::test_stage_moments_match_simpson"),
    ("moments[i] gives row 0's start", "grid.py",
     "setattr(row, name, value[i] if",
     "setattr(row, name, value[0 if name == 'start' else i] if",
     "tests/test_grid.py::test_stacked_moments_match_row_builds"),
    ("an edge stencil weight off by one", "grid.py",
     "dv[0] = (-25 * v[0]", "dv[0] = (-24 * v[0]",
     "tests/test_grid.py::test_derivative_fourth_order"),
    ("K_D' with the wrong sign", "kinetics.py",
     "kd_d = cached_property(lambda self: -self.spec.d_rate",
     "kd_d = cached_property(lambda self: self.spec.d_rate",
     "tests/test_kinetics.py::test_default_family_satisfies_all_hypotheses"),
    ("the repelling center root", "stationary.py",
     "root = ((km - kn) + np.sqrt(disc))", "root = ((km - kn) - np.sqrt(disc))",
     "tests/test_stationary.py::test_center_root_balances_reaction"),
    ("linearize steps the ensemble at the config's dt", "cli.py",
     "t_end=args.t_end, seed=cfg.seed)", "t_end=args.t_end, dt=cfg.dt, seed=cfg.seed)",
     "tests/test_cli.py::test_linearize_writes_the_chosen_norm"),
    ("linearize's pre-solve horizon floor one interval lower", "cli.py",
     "(FIT_MIN_SAMPLES - 1) * ENSEMBLE_RECORD_EVERY",
     "(FIT_MIN_SAMPLES - 2) * ENSEMBLE_RECORD_EVERY",
     "tests/test_cli.py::test_short_horizon_check_counts_steps"),
    ("the horizon rule of stability and sweep at the ensemble's record interval", "cli.py",
     "shortest_fit_steps(dt, output_every)", "shortest_fit_steps(dt, ENSEMBLE_RECORD_EVERY)",
     "tests/test_cli.py::test_short_stability_horizon_exits_3_before_any_solve"),
    ("a negative seed admitted", "experiments.py",
     "if self.seed < 0:", "if self.seed < -1:",
     "tests/test_experiments.py::test_config_validation"),
    ("the record interval's whole-step tolerance 1e-9 -> 0.1", "transport.py",
     "<= 1e-9 * steps:", "<= 0.1 * steps:",
     "tests/test_experiments.py::test_record_interval_is_a_whole_number_of_steps"),
    ("linearize exits on every mu > 0", "cli.py",
     "EXIT_PASS if fits[run].valid else", "EXIT_PASS if all(m > 0 for m in mus) else",
     "tests/test_cli.py::test_linearize_fails_on_an_invalid_rate_setting_fit"),
    ("maps takes fewer samples than one radius of its plan", "cli.py",
     "(fewest := 2 * SamplePlan().n_pairs)", "(fewest := 1)",
     "tests/test_cli.py::test_bad_argument_exits_3_before_any_solve"),
]


def run_tests(work, tests):
    """pytest's exit code on the tests in the copy work (None on timeout)."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), OMP_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main():
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="tumorlab-mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)

        tests = sorted({m[-1] for m in MUTANTS})
        if run_tests(work, tests) != 0:
            print("the named tests fail on the unmutated copy")
            return 1

        failed = False
        print("| mutant | file | killing test | verdict | s |")
        print("| --- | --- | --- | --- | --- |")
        for name, path, old, new, test in MUTANTS:
            source = work / "src" / "tumorlab" / path
            text = source.read_text()
            if text.count(old) != 1:
                verdict, took = f"old text occurs {text.count(old)} times", 0.0
            else:
                source.write_text(text.replace(old, new))
                t0 = time.perf_counter()
                code = run_tests(work, [test])
                took = time.perf_counter() - t0
                source.write_text(text)
                verdict = {0: "SURVIVED", 1: "killed", None: "timeout"}.get(code, f"error {code}")
            failed |= verdict != "killed"
            print(f"| {name} | {path} | `{test.split('::')[-1]}` | {verdict} | {took:.1f} |")
    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
