import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson, simpson

import tumorlab.linearized as linearized
from tumorlab.experiments import (RunConfig, initial_state, perturbation_shape,
                                  stationary_for)
from tumorlab.grid import RadialField, RadialMoments
from tumorlab.linearized import (AB4_REAL_LIMIT, ENSEMBLE_AMPLITUDE,
                                 ENSEMBLE_RECORD_EVERY, STEP_MARGIN,
                                 LinearPropagator, apply_B, apply_F,
                                 build_operators, decay_ensemble, fit_decay,
                                 fit_window, laplace_consistency,
                                 random_smooth_field, resolvent_apply,
                                 shortest_fit_steps, solve_linearized, step_bound)
from tumorlab.simmaps import build_fstar
from tumorlab.transport import output_steps, simulate, trajectory


@pytest.fixture(scope="module")
def operators201(stationary201, default_spec):
    return build_operators(stationary201, default_spec)


def test_growth_bound_negative(operators801):
    # the multiplier a(r) stays strictly negative for the default rates
    assert operators801.omega0 < 0
    assert np.all(operators801.a.values < 0)


def test_zero_sensitivity_kills_coupling(stationary801, default_spec):
    zero = RadialField(stationary801.grid,
                       np.zeros(stationary801.grid.size))
    ops = build_operators(dataclasses.replace(stationary801, c_z=zero),
                          default_spec)
    assert np.max(np.abs(ops.b.values)) == 0.0
    assert ops.kappa == 0.0


def test_nonlocal_operators_linear(operators801, rng):
    q1 = random_smooth_field(operators801.grid, rng)
    q2 = random_smooth_field(operators801.grid, rng)
    combo = q1.with_values(2.0 * q1.values - 3.0 * q2.values)
    lhs = apply_B(operators801, combo).values
    rhs = 2.0 * apply_B(operators801, q1).values - 3.0 * apply_B(operators801, q2).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-14
    assert apply_F(operators801, combo) == pytest.approx(
        2.0 * apply_F(operators801, q1) - 3.0 * apply_F(operators801, q2))


def test_nonlocal_operator_vanishes_at_origin(operators801, rng):
    q = random_smooth_field(operators801.grid, rng)
    assert apply_B(operators801, q).values[0] == 0.0


def test_solver_is_linear_in_initial_data(operators801, rng):
    phi0 = random_smooth_field(operators801.grid, rng, amplitude=1e-2)
    t1 = solve_linearized(operators801, (phi0, 1e-3), 2.0, 1e-2)
    t2 = solve_linearized(operators801,
                          (phi0.with_values(2 * phi0.values), 2e-3), 2.0,
                          1e-2)
    gap = np.max(np.abs(t2.states[-1].p.values - 2 * t1.states[-1].p.values))
    assert gap <= 1e-13
    assert abs(t2.states[-1].z - 2 * t1.states[-1].z) <= 1e-13


def test_stage_moments_match_simpson(operators201, default_spec, monkeypatch):
    # every stage's moment operator is composite Simpson on v rho^2 away from
    # the origin start, and at every stage the cycle builds the folded rate equals
    # a phi + rp (M(1) - r^-3 M(g_p phi)) + b zeta to rounding, with an even
    # (200 nodes) and an odd (201) interval count; the folded cycle is
    # smaller than the per-stage a, b, g_p, rp, Simpson weights and r^-3 it
    # replaces
    built = []

    class Recorded(linearized._FoldedStage):
        def __init__(self, x, coef):
            super().__init__(x, coef)
            built.append((self, x))

    monkeypatch.setattr(linearized, "_FoldedStage", Recorded)
    rng = np.random.default_rng(11)
    op200 = build_operators(stationary_for(default_spec, 200), default_spec)
    for ops in (op200, operators201):
        built.clear()
        prop = LinearPropagator(ops, 1e-2)
        # four stages for each of the three RK4 start-up steps, the step
        # start alone for every Adams-Bashforth step
        assert len(built) == prop.cycle_len + 9
        coef = [f.interpolator() for f in (ops.a, ops.b, ops.g_p, ops.rp_prime)]
        folded_bytes = unfolded_bytes = 0
        for st, x in built:
            radial = RadialMoments(x)
            v = rng.standard_normal((3, x.size))
            moment = radial.cumulative(v)
            ref = cumulative_simpson(v * x * x, x=x, initial=0.0)
            k = radial.k
            inc = moment[:, k - 1:] - moment[:, k - 1:k]
            ref_inc = ref[:, k - 1:] - ref[:, k - 1:k]
            assert np.max(np.abs(inc - ref_inc)) <= 1e-13 * np.max(np.abs(ref_inc))

            a, b, gp, rp = (f(x) for f in coef)
            for rows in (1, 3, 20):
                phi = rng.standard_normal((rows, x.size))
                zeta = rng.standard_normal(rows)
                full, third = radial.full_and_third(gp * phi)
                b_op = rp * (full[:, None] - third)
                b_op[:, 0] = 0.0
                want = a * phi + b_op + b * zeta[:, None]
                dphi, dzeta = prop._stage_rate(st, phi, zeta)
                assert np.max(np.abs(dphi - want)) <= 1e-13 * np.max(np.abs(want))
                # M(1) and kappa zeta may cancel: the bound is on their size
                scale = np.max(np.abs(full) + abs(ops.kappa) * np.abs(zeta))
                assert np.max(np.abs(dzeta - (full + ops.kappa * zeta))) <= 1e-13 * scale
            # the stage's arrays and those of the moment operator it keeps
            arrays = [*vars(st).values(), *vars(st.moments).values()]
            folded_bytes += sum(arr.nbytes for arr in arrays if isinstance(arr, np.ndarray))
            unfolded_bytes += 5 * x.nbytes + radial.weights.nbytes
        assert folded_bytes < unfolded_bytes


def test_propagator_matches_decoupled_semigroup(operators201):
    # with b = rp' = 0 a particle's value obeys phi' = a(X) phi alone, so in
    # a regrid cycle it is its node value at the cycle's start times
    # exp(int_0^tau a(X(s)) ds), X(s) = finv(fstar(node) - s) in the
    # travel-time coordinate of u_*.  Checked 50 steps into the first
    # cycle (t = 0.5), where an Adams-Bashforth weight of 36 for 37 is 1e-2
    # off, and into the second, where a history carried over the regrid is
    # 2e-4 off; the error left is the fields' interpolation, as large with
    # RK4 steps.
    grid = operators201.grid
    zero = RadialField(grid, np.zeros(grid.size))
    ops = dataclasses.replace(operators201, b=zero, rp_prime=zero)
    table = build_fstar(ops.u_star)
    dt = 1e-2
    prop = LinearPropagator(ops, dt)
    cycle = prop.cycle_len
    f_nodes = table.fstar(grid.nodes[1:-1])
    s = 50 * dt * np.linspace(0.0, 1.0, 501)
    growth = np.exp(simpson(ops.a(table.finv(f_nodes[:, None] - s)), x=s, axis=1))
    errors = []
    for j, _, phi, _ in prop.records(np.cos(3 * grid.nodes), 0.0,
                                     (cycle + 50) * dt, output_every=dt):
        if j % cycle == 0:
            start = phi[0, 1:-1]
        elif j % cycle == 50:
            errors.append(np.max(np.abs(phi[0, 1:-1] - start * growth)))
    assert len(errors) == 2
    assert errors[0] <= 2e-7
    assert errors[1] <= 1e-7


def test_records_never_mutate_a_yielded_state(operators201, rng):
    # records hands out its arrays: every state it yielded stays as it was
    # through the RK4 start-ups, the Adams-Bashforth steps and a regrid
    prop = LinearPropagator(operators201, 1e-2)
    phi0 = rng.standard_normal((3, operators201.grid.size))
    held = []
    for _, *state in prop.records(phi0, rng.standard_normal(3),
                                  (prop.cycle_len + 10) * 1e-2, output_every=1e-2):
        held.append((state, [a.copy() for a in state]))
    assert len(held) == prop.cycle_len + 11
    for state, copies in held:
        assert all(np.array_equal(a, c) for a, c in zip(state, copies))


def test_propagator_rejects_steps_above_bound(operators201):
    # the bound is STEP_MARGIN of AB4's real-axis limit over -min a, the
    # fastest decay at the default spec (a in [-1.4, -0.2], kappa -0.048,
    # u_*' >= -0.1); a steeper a lowers it in proportion, and a step above
    # DT_MAX within it is taken
    bound = step_bound(operators201)
    assert bound == STEP_MARGIN * AB4_REAL_LIMIT / -np.min(operators201.a.values)
    steeper = dataclasses.replace(operators201, a=operators201.a.with_values(
        2.0 * operators201.a.values))
    assert step_bound(steeper) == bound / 2.0
    assert LinearPropagator(operators201, bound).dt == bound > 2e-2
    for ops, dt in ((operators201, 1.01 * bound), (steeper, bound)):
        with pytest.raises(ValueError, match="exceeds the propagator's step bound"):
            LinearPropagator(ops, dt)
        with pytest.raises(ValueError, match="exceeds the propagator's step bound"):
            decay_ensemble(ops, n_runs=1, t_end=1.0, dt=dt)


def test_ensemble_takes_the_largest_step_within_the_bound(operators201, monkeypatch):
    # by default the ensemble steps by the largest divisor of its record
    # interval within the bound: 0.1 under 0.107 at the default spec, 1/23
    # under 0.044 with a as steep as at b_rate 3 (min a -3.4)
    steps = []

    class Recorded(LinearPropagator):
        def __init__(self, ops, dt):
            super().__init__(ops, dt)
            steps.append(dt)

    monkeypatch.setattr(linearized, "LinearPropagator", Recorded)
    steep = dataclasses.replace(operators201, a=operators201.a.with_values(
        operators201.a.values * 3.4 / 1.4))
    for ops, n in ((operators201, 10), (steep, 23)):
        decay_ensemble(ops, n_runs=1, t_end=1.0)
        assert steps[-1] == ENSEMBLE_RECORD_EVERY / n
        assert ENSEMBLE_RECORD_EVERY / n <= step_bound(ops) < ENSEMBLE_RECORD_EVERY / (n - 1)


def test_ensemble_memory_does_not_grow_with_horizon(operators201):
    # the ensemble streams its states: a four times longer run holds only
    # a few more series samples, not one more snapshot per recorded step
    def peak(t_end):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        decay_ensemble(operators201, n_runs=3, t_end=t_end, seed=2)
        return tracemalloc.get_traced_memory()[1] - base

    # the first runs make the one-time allocations (cached interpolators,
    # numpy's and scipy's first-call set-up, Python's free lists) outside
    # the measured runs: the first two traced runs of a process peak up to
    # 70 KB higher than later ones
    tracemalloc.start()
    try:
        for _ in range(3):
            peak(40.0)
        growth = peak(40.0) - peak(10.0)
    finally:
        tracemalloc.stop()
    # records of the ensemble's step at the default spec (0.1)
    n_out = {t: len(output_steps(t, 0.1, ENSEMBLE_RECORD_EVERY)[1]) for t in (10.0, 40.0)}
    snapshot_bytes = (n_out[40.0] - n_out[10.0]) * 3 * operators201.grid.size * 8
    assert growth < 0.1 * snapshot_bytes


def test_ensemble_resamples_only_the_fit_window(operators201, monkeypatch):
    # decay_ensemble resamples and reduces only the records fit_decay reads,
    # and its fits equal those of the same runs resampled at every record
    n_runs, t_end, seed = 3, 10.0, 4
    resample = linearized.on_grid
    calls = []

    def counted(*args):
        calls.append(args[0])
        return resample(*args)

    monkeypatch.setattr(linearized, "on_grid", counted)
    ens = decay_ensemble(operators201, n_runs=n_runs, t_end=t_end, seed=seed)
    monkeypatch.undo()
    # the ensemble's own step at the default spec, and its record interval
    prop = LinearPropagator(operators201, 0.1)
    times = prop.record_times(t_end, ENSEMBLE_RECORD_EVERY)
    assert len(calls) == np.count_nonzero(times >= fit_window(times)[0]) < times.size

    grid = operators201.grid
    rng = np.random.default_rng(seed)
    phi0 = np.stack([random_smooth_field(grid, rng, ENSEMBLE_AMPLITUDE).values
                     for _ in range(n_runs)])
    zeta0 = ENSEMBLE_AMPLITUDE * rng.uniform(-1.0, 1.0, size=n_runs)
    times, phis, zetas = prop.run(phi0, zeta0, t_end, ENSEMBLE_RECORD_EVERY)
    for m, pair in enumerate(ens):
        traj = trajectory(grid, times, phis[:, m], zetas[:, m])
        assert pair == (fit_decay(times, traj.norm_x), fit_decay(times, traj.norm_x0))


def _linearization_gap_order(spec, sol, ops):
    """The order in eps, from eps 1e-3 to 2e-3, of test_07's linearization
    gap up to t = 5: the sup over the records every 0.1 of |p - p_* - eps phi|
    + |z - z_* - eps zeta|, the nonlinear run at eps against eps times one
    linearized run from the same perturbation."""
    cfg = RunConfig(t_end=5.0, output_every=0.1)
    phi0 = RadialField(sol.grid, perturbation_shape(cfg.shape, sol.grid.nodes))
    lin = solve_linearized(ops, (phi0, cfg.z_offset), cfg.t_end, cfg.dt,
                           output_every=cfg.output_every)
    gaps = []
    for eps in (1e-3, 2e-3):
        run = dataclasses.replace(cfg, epsilon=eps)
        traj = simulate(initial_state(run, sol), cfg.t_end, cfg.dt, spec, sol,
                        output_every=cfg.output_every)
        gaps.append(max(
            np.max(np.abs(st.p.values - sol.p_star.values - eps * ls.p.values))
            + abs(st.z - sol.z_star - eps * ls.z)
            for st, ls in zip(traj.states, lin.states, strict=True)))
    return np.log2(gaps[1] / gaps[0])


def test_linearization_gap_is_second_order(default_spec, stationary801, operators801):
    # the nonlinear run leaves eps times the linearized solution by O(eps^2)
    # only if the linearized coefficients are the nonlinear system's
    # derivatives.  The order reads 2.01 on the pair eps 1e-3 -> 2e-3; with
    # kappa, b, g_p or a scaled by 1.01 it reads 1.45, 1.18, 1.17 and 0.87,
    # and each of those four passes test_07's bound of 5% of eps at eps 1e-2
    order = _linearization_gap_order(default_spec, stationary801, operators801)
    assert 1.8 <= order <= 2.2


def test_perturbations_decay(operators801, rng):
    phi0 = random_smooth_field(operators801.grid, rng, amplitude=1e-2)
    traj = solve_linearized(operators801, (phi0, 1e-3), 30.0, 1e-2)
    assert traj.norm_x[-1] < 0.5 * traj.norm_x[0]
    rep = fit_decay(traj.times, traj.norm_x)
    assert rep.mu_fit > 0


@settings(max_examples=200, deadline=None)
@given(mu=st.floats(0.01, 1.0), K=st.floats(1e-3, 1e3))
def test_fit_decay_recovers_synthetic_rate(mu, K):
    # 2,000 random draws err by at most 8.9e-16 in mu and 2.0e-14 relative in K
    times = np.linspace(0.0, 50.0, 501)
    rep = fit_decay(times, K * np.exp(-mu * times))
    assert abs(rep.mu_fit - mu) <= 1e-12
    assert abs(rep.K_fit / K - 1.0) <= 1e-10
    assert rep.r2 >= 0.999
    assert rep.valid


@pytest.mark.parametrize("dt", [1e-2, 3e-3])
def test_shortest_fit_horizon_is_the_shortest_that_fits(operators201, dt):
    # at the shortest horizon every fit window holds FIT_MIN_SAMPLES
    # records; one step less leaves it too few, and no fit
    steps = shortest_fit_steps(dt, ENSEMBLE_RECORD_EVERY)
    for horizon, fitted in ((steps, True), (steps - 1, False)):
        [(fit_x, fit_x0)] = decay_ensemble(operators201, n_runs=1, t_end=horizon * dt, dt=dt)
        assert np.isfinite(fit_x.mu_fit) == np.isfinite(fit_x0.mu_fit) == fitted


def test_fit_decay_flags_short_windows():
    times = np.linspace(0.0, 5.0, 51)
    rep = fit_decay(times, np.exp(-0.05 * times))
    assert rep.decades < 2.0
    assert "decades" in rep.note


def test_fit_decay_flags_a_rising_norm():
    # two decades of decay and r2 above FIT_R2_MIN, but the norm jumps up
    # inside the fit window
    times = np.linspace(0.0, 50.0, 501)
    series = np.exp(-0.15 * times) * np.where(times > 45.0, 1.5, 1.0)
    rep = fit_decay(times, series)
    assert not rep.valid
    assert rep.note == "norm not monotone over the window after smoothing"


def test_ensemble_rates_cluster(operators801):
    ens = decay_ensemble(operators801, n_runs=4, t_end=80.0, seed=5)
    mus = [pair[0].mu_fit for pair in ens]
    assert all(m > 0 for m in mus)
    assert max(mus) / min(mus) <= 1.3


def test_resolvent_constant_coefficient_identity(operators801, stationary801):
    grid = stationary801.grid
    a0 = RadialField(grid, np.zeros(grid.size))
    f1 = RadialField(grid, np.ones(grid.size))
    q = resolvent_apply(stationary801.u_star, a0, 0.8, f1)
    assert np.max(np.abs(q.values + 1.0 / 0.8)) <= 1e-9


def test_resolvent_residual_and_norm_bound(operators801, stationary801, rng):
    f = random_smooth_field(operators801.grid, rng)
    lam = operators801.omega0 + 1.0
    q, res = resolvent_apply(stationary801.u_star, operators801.a, lam, f,
                             return_residual=True)
    assert res <= 1e-6
    assert np.max(np.abs(q.values)) <= np.max(np.abs(f.values)) / 1.0 + 1e-9


def test_resolvent_rejects_spectrum(operators801, stationary801, rng):
    f = random_smooth_field(operators801.grid, rng)
    with pytest.raises(ValueError):
        resolvent_apply(stationary801.u_star, operators801.a,
                        operators801.omega0 - 0.1, f)


def test_resolvent_complex_argument(operators801, stationary801, rng):
    f = random_smooth_field(operators801.grid, rng)
    lam = operators801.omega0 + 1.0 + 0.7j
    qr, qi = resolvent_apply(stationary801.u_star, operators801.a, lam, f)
    assert np.all(np.isfinite(qr.values))
    assert np.max(np.abs(qi.values)) > 0


def test_laplace_check_needs_lambda_right_of_max_a(operators201, stationary201, rng):
    q0 = random_smooth_field(operators201.grid, rng)
    with pytest.raises(ValueError, match=r"laplace check needs Re\(lambda\) > max a"):
        laplace_consistency(stationary201.u_star, operators201.a,
                            operators201.omega0 + 0.5j, q0)


def test_laplace_check_needs_a_short_truncation_tail(operators201, stationary201):
    # a start of sup 1e4 leaves e^{-16} 1e4 / (Re lambda - max a) = 1.1e-3
    # of the transform beyond the horizon, above its 5e-5 share
    q0 = RadialField(operators201.grid, np.full(operators201.grid.size, 1e4))
    with pytest.raises(ValueError, match="leaves truncation tail 1.13e-03"):
        laplace_consistency(stationary201.u_star, operators201.a,
                            operators201.omega0 + 1.0, q0)


def test_ensemble_rejects_a_run_that_overflows(operators201):
    # a multiplier of 1e300 overflows the first recorded state; a growth
    # rate does not bound the step, so the run takes 20 of 1e-2 explicitly
    ops = dataclasses.replace(operators201, a=operators201.a.with_values(
        np.full(operators201.grid.size, 1e300)))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="field values must be finite"):
        decay_ensemble(ops, n_runs=1, t_end=0.2, dt=1e-2)


def test_laplace_transform_consistency(operators801, stationary801, rng):
    q0 = random_smooth_field(operators801.grid, rng)
    lam = operators801.omega0 + 1.0
    disc = laplace_consistency(stationary801.u_star, operators801.a, lam, q0)
    assert disc <= 1e-4
