"""End-to-end acceptance suite.

One test per release criterion; each prints a single PASS/FAIL line with the
measured quantity so the run log doubles as a report.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import numpy as np
import pytest

from tumorlab.experiments import (PICARD_RATE, RunConfig, emit_report,
                                  initial_state, perturbation_shape,
                                  run_stability_experiment)
from tumorlab.grid import RadialField, derivative_values
from tumorlab.kinetics import KineticsSpec
from tumorlab.linearized import (decay_ensemble, laplace_consistency,
                                 pure_transport, random_smooth_field,
                                 resolvent_apply, solve_linearized)
from tumorlab.nutrient import solve_nutrient
from tumorlab.simmaps import (SamplePlan, build_fstar, build_maps,
                              check_map_bounds, make_perturbed_velocity,
                              map_S, map_T, phi, psi)
from tumorlab.transport import (NutrientCache, TumorState, _rk4, deviation,
                                picard_solve, simulate, step)


def verdict(label, ok, detail):
    print(f"\n[{label}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def report_small_eps(default_spec, stationary801):
    cfg = RunConfig(epsilon=1e-3, t_end=40.0)
    return run_stability_experiment(cfg, reference=stationary801,
                                    linear_response=False)


@pytest.fixture(scope="module")
def report_large_eps(default_spec, stationary801):
    cfg = RunConfig(epsilon=1e-2, t_end=40.0)
    return run_stability_experiment(cfg, reference=stationary801,
                                    linear_response=False)


def test_01_nutrient_closed_form(grid801):
    # the affine consumption law has an exact sinh/r solution
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        for z in (-1.0, 0.0, 1.0):
            ns = solve_nutrient(KineticsSpec(lam=lam), z, grid801)
            k = np.exp(z) * np.sqrt(lam)
            r = grid801.nodes
            exact = np.empty_like(r)
            exact[1:] = np.sinh(k * r[1:]) / (r[1:] * np.sinh(k))
            exact[0] = k / np.sinh(k)
            worst = max(worst, float(np.max(np.abs(ns.c.values - exact))))
    verdict("01 nutrient oracle", worst <= 1e-8,
            f"max error {worst:.3e} (tol 1e-8)")


def test_02_stationary_fixed_point(default_spec, stationary801):
    sol = stationary801
    state = TumorState(t=0.0, p=sol.p_star, z=sol.z_star)
    dt = 1e-2
    after = step(state, dt, default_spec)
    p_dev, _, z_dev = deviation(sol.grid, after.p.values, after.z,
                                sol.p_star.values, sol.z_star)
    rate = (p_dev + z_dev) / dt
    u1 = abs(sol.u_star.values[-1])
    pp = derivative_values(sol.p_star.values, sol.grid)
    monotone = bool(np.all(np.diff(sol.p_star.values) > 0)
                    and np.all(pp[1:] > 0))
    u_vals = sol.u_star.values
    r = sol.grid.nodes
    c1 = float(np.max(-u_vals[1:-1] / (r[1:-1] * (1.0 - r[1:-1]))))
    inward = bool(np.all(u_vals[1:-1] < 0) and np.isfinite(c1) and c1 > 0)
    ok = rate <= 1e-6 and u1 <= 1e-10 and monotone and inward
    verdict("02 stationary fixed point", ok,
            f"residual rate {rate:.3e} (tol 1e-6), u(1) {u1:.3e} "
            f"(tol 1e-10), p increasing {monotone}, "
            f"velocity inward with weight constant {c1:.3f}")


def test_03_transport_contraction(grid801, rng):
    # 10 random inward velocities vanishing at both ends: the sup norm of a
    # passively advected field may never increase
    r = grid801.nodes
    worst = -np.inf
    for _ in range(10):
        amp = rng.uniform(0.2, 1.5)
        k = rng.integers(1, 4)
        mod = 1.0 + 0.7 * rng.uniform(-1.0, 1.0) * np.sin(k * np.pi * r) ** 2
        w = RadialField(grid801, -amp * r * (1.0 - r) * mod)
        q0 = random_smooth_field(grid801, rng, amplitude=1.0)
        sup, _ = pure_transport(w, q0, 2.0, 1e-2)
        worst = max(worst, float(np.max(np.diff(sup))))
    verdict("03 transport contraction", worst <= 1e-10,
            f"max per-step sup increase {worst:.3e} (tol 1e-10)")


def test_04_resolvent(operators801, stationary801, rng):
    lam = operators801.omega0 + 1.0
    f = random_smooth_field(operators801.grid, rng)
    _, res = resolvent_apply(stationary801.u_star, operators801.a, lam, f,
                             return_residual=True)
    q0 = random_smooth_field(operators801.grid, rng)
    disc = laplace_consistency(stationary801.u_star, operators801.a, lam, q0)
    ok = res <= 1e-6 and disc <= 1e-4
    verdict("04 resolvent", ok,
            f"formula residual {res:.3e} (tol 1e-6), Laplace-transform "
            f"discrepancy {disc:.3e} (tol 1e-4)")


def test_05_map_calculus(stationary801):
    u = stationary801.u_star
    table = build_fstar(u)
    plan = SamplePlan()
    w, w_dr = make_perturbed_velocity(u, 1e-2, plan.mu)
    maps = build_maps(u, w, w_dr, epsilon=1e-2, mu=plan.mu, table=table)
    r = np.linspace(0.05, 0.95, 31)
    t, s, tau = 4.0, 1.0, 2.0
    ident = max(
        float(np.max(np.abs(psi(maps, phi(maps, r, t, s), t, s) - r))),
        float(np.max(np.abs(map_S(maps, map_T(maps, r, t, s), t, s) - r))),
        float(np.max(np.abs(map_T(maps, r, t, s, method="compose")
                            - map_T(maps, r, t, s, method="integral")))),
        float(np.max(np.abs(phi(maps, psi(maps, r, t, s), tau, s)
                            - psi(maps, r, t, tau)))),
    )

    def make_maps(eps):
        we, we_dr = make_perturbed_velocity(u, eps, plan.mu)
        return build_maps(u, we, we_dr, epsilon=eps, mu=plan.mu, table=table)

    rep = check_map_bounds(make_maps, plan, raise_on_fail=False)
    ratios = [e.ratio for e in rep.entries
              if e.ratio is not None and not e.skipped]
    ratios_ok = bool(ratios) and all(0.3 <= x <= 3.0 for x in ratios)
    ok = ident <= 1e-7 and rep.all_passed and ratios_ok
    verdict("05 map calculus", ok,
            f"identity error {ident:.3e} (tol 1e-7), "
            f"{len(rep.entries)} inequalities on {plan.total_samples} "
            f"samples all passed {rep.all_passed}, halving ratios in "
            f"[{min(ratios):.2f}, {max(ratios):.2f}] (window [0.3, 3])")


def test_06_linearized_decay_ensemble(operators801):
    ens = decay_ensemble(operators801, n_runs=20, t_end=100.0, seed=0)
    mu_min = min(min(rx.mu_fit, r0.mu_fit) for rx, r0 in ens)
    r2_min = min(min(rx.r2, r0.r2) for rx, r0 in ens)
    gap = max(abs(rx.mu_fit - r0.mu_fit) / rx.mu_fit for rx, r0 in ens)
    ok = mu_min > 0 and r2_min >= 0.98 and gap <= 0.2
    verdict("06 linearized decay ensemble", ok,
            f"20 runs, min rate {mu_min:.4f} (> 0), min r2 {r2_min:.4f} "
            f"(>= 0.98), worst norm-pair rate gap {100 * gap:.1f}% (<= 20%)")


def test_07_nonlinear_stability(default_spec, stationary801, operators801,
                                report_small_eps, report_large_eps):
    checks_ok = report_small_eps.passed and report_large_eps.passed
    mu_ok = (report_small_eps.fit_x.mu_fit > 0
             and report_large_eps.fit_x.mu_fit > 0)
    ratio = (np.max(report_large_eps.trajectory.norm_x)
             / np.max(report_small_eps.trajectory.norm_x))

    # quadratic remainder: the deviation of the eps run tracks eps times the
    # linearized solution to within 5% of eps on the early-time window
    eps = report_large_eps.epsilon
    cfg = report_large_eps.config
    phi0 = RadialField(stationary801.grid,
                       perturbation_shape(cfg.shape, stationary801.grid.nodes))
    lin = solve_linearized(operators801, (phi0, cfg.z_offset), 5.0, cfg.dt,
                           output_every=cfg.output_every)
    gap = 0.0
    for i, t in enumerate(lin.times):
        st = report_large_eps.trajectory.states[i]
        assert abs(report_large_eps.trajectory.times[i] - t) < 1e-9
        dp = st.p.values - stationary801.p_star.values
        dz = st.z - stationary801.z_star
        lp = lin.states[i].p.values
        lz = lin.states[i].z
        gap = max(gap, float(np.max(np.abs(dp - eps * lp)))
                  + abs(dz - eps * lz))
    ok = checks_ok and mu_ok and 7.0 <= ratio <= 13.0 and gap <= 0.05 * eps
    verdict("07 nonlinear stability", ok,
            f"all envelope checks passed {checks_ok}, decay rates positive "
            f"{mu_ok}, amplitude-response ratio {ratio:.3f} (window [7, 13]), "
            f"linearization gap {gap:.3e} (tol {0.05 * eps:.1e})")


def test_08_picard_matches_direct(default_spec, stationary801):
    cfg = RunConfig(epsilon=1e-3, t_end=20.0)
    init = initial_state(cfg, stationary801)
    traj, dists = picard_solve(init, cfg.t_end, cfg.dt, default_spec,
                               stationary801, mu=PICARD_RATE, tol=1e-8)
    ratios = [dists[i + 1] / dists[i] for i in range(len(dists) - 1)
              if dists[i] > 1e-8]
    worst_ratio = max(ratios)
    direct = simulate(init, cfg.t_end, cfg.dt, default_spec, stationary801,
                      output_every=cfg.output_every)
    gap = 0.0
    for a, b in zip(traj.states, direct.states):
        gap = max(gap, float(np.max(np.abs(a.p.values - b.p.values)))
                  + abs(a.z - b.z))
    ok = worst_ratio <= 0.75 and gap <= 1e-4
    verdict("08 picard equivalence", ok,
            f"{len(dists)} iterations, worst contraction ratio "
            f"{worst_ratio:.3f} (<= 0.75), distance to direct solver "
            f"{gap:.3e} (tol 1e-4)")


def test_09_discretization_convergence(default_spec, stationary801,
                                       stationary201, report_large_eps):
    mus = [report_large_eps.fit_x.mu_fit]
    for m in (201, 401):
        rep = run_stability_experiment(
            RunConfig(grid_size=m, epsilon=1e-2, t_end=40.0),
            linear_response=False)
        mus.append(rep.fit_x.mu_fit)
    spread = (max(mus) - min(mus)) / min(mus)

    # one-step Richardson study on the particle system, no regridding
    grid = stationary801.grid
    cache = NutrientCache(default_spec, grid)
    p0 = np.clip(stationary801.p_star.values
                 + 1e-2 * perturbation_shape("poly", grid.nodes), 0.0, 1.0)
    z0 = stationary801.z_star + 0.3

    def advance(dt, n):
        r, p, z = grid.nodes.copy(), p0.copy(), z0
        for _ in range(n):
            r, p, z = _rk4(default_spec, cache, r, p, z, dt)
        return r, p, z

    r1, p1, z1 = advance(0.4, 1)
    r2, p2, z2 = advance(0.2, 2)
    r4, p4, z4 = advance(0.1, 4)
    e1 = (np.max(np.abs(p1 - p2)) + np.max(np.abs(r1 - r2)) + abs(z1 - z2))
    e2 = (np.max(np.abs(p2 - p4)) + np.max(np.abs(r2 - r4)) + abs(z2 - z4))
    richardson = e1 / e2
    ok = spread <= 0.10 and 12.0 <= richardson <= 20.0
    verdict("09 discretization convergence", ok,
            f"decay-rate spread over grids 201/401/801 {100 * spread:.2f}% "
            f"(<= 10%), step-halving error ratio {richardson:.2f} "
            f"(window [12, 20], 4th order is 16)")


def test_10_determinism(tmp_path, default_spec, stationary201):
    cfg = RunConfig(grid_size=201, t_end=5.0, epsilon=1e-2)
    outs = []
    for sub in ("a", "b"):
        rep = run_stability_experiment(cfg, linear_response=False)
        emit_report(rep, out_dir=tmp_path / sub)
        outs.append({name: (tmp_path / sub / name).read_bytes()
                     for name in ("manifest.txt", "trajectory.csv",
                                  "decay.csv")})
    ok = outs[0] == outs[1]
    verdict("10 determinism", ok,
            "repeated run produced bit-identical manifest, trajectory and "
            "decay tables" if ok else "output bytes differ between runs")
