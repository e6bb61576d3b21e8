import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import tumorlab.linearized as linearized
import tumorlab.transport as transport
from tumorlab.experiments import (PICARD_RATE, RunConfig, initial_state,
                                  perturbation_shape, stationary_for)
from tumorlab.grid import RadialField, RadialGrid, RadialMoments
from tumorlab.errors import SolverError
from tumorlab.kinetics import KineticsSpec, RateValues
from tumorlab.linearized import (LinearPropagator, build_operators,
                                 decay_ensemble, pure_transport,
                                 solve_linearized)
from tumorlab.transport import (STARTUP_STEPS, TumorState, deviation,
                                picard_solve, simulate, step)


def make_negative_velocity(grid, rng):
    """Random smooth velocity, zero at the endpoints and negative inside."""
    r = grid.nodes
    bumps = sum(rng.uniform(0.2, 1.0) * np.sin(np.pi * k * r) ** 2
                for k in (1, 2, 3))
    return RadialField(grid, -r * (1.0 - r) * (0.3 + bumps))


def test_pure_transport_sup_contraction(grid201, rng):
    q0 = RadialField(grid201, np.sin(3 * grid201.nodes) + 0.2)
    w = make_negative_velocity(grid201, rng)
    sup, _ = pure_transport(w, q0, t_end=2.0, dt=1e-2)
    assert np.all(np.diff(sup) <= 1e-10)


def test_pure_transport_rejects_large_dt(grid201, rng):
    q0 = RadialField(grid201, np.sin(3 * grid201.nodes) + 0.2)
    w = make_negative_velocity(grid201, rng)
    with pytest.raises(ValueError, match="DT_MAX"):
        pure_transport(w, q0, t_end=0.04, dt=0.02)


def _kernel_path(field, grid):
    # the particles' path through a frozen field, stepped by a fresh
    # multistep kernel (as the linear propagator steps them)
    return transport.frozen_path(lambda j: (field.interpolator(),) * 4, grid.nodes,
                                 1e-2, grid.spacing,
                                 transport.AdamsBashforth((grid.nodes,)).step)


def test_frozen_path_stops_at_first_regrid(stationary201):
    grid = stationary201.grid
    path = list(_kernel_path(stationary201.u_star, grid))
    assert len(path) > 1
    assert [again for _, _, again in path] == [False] * (len(path) - 1) + [True]
    for stages, end, again in path:
        assert again == transport._needs_regrid(end, grid.spacing)
        # the rates are pinned at both endpoints, so no stage moves them
        for x in stages + [end]:
            assert x[0] == 0.0 and x[-1] == 1.0
    # each step starts where the one before it ended
    for (_, end, _), (stages, _, _) in zip(path, path[1:]):
        assert stages[0] is end


def _crossing_field(grid):
    # steep enough that one step at DT_MAX carries particles past each other
    r = grid.nodes
    return RadialField(grid, -100.0 * r * (1.0 - r) * (1.0 + np.sin(20 * np.pi * r)))


def test_crossing_characteristics_raise(stationary201, default_spec):
    grid = stationary201.grid
    w = _crossing_field(grid)
    crossing = pytest.raises(SolverError, match="characteristic crossing")
    with crossing:
        list(_kernel_path(w, grid))
    with crossing:
        pure_transport(w, RadialField(grid, np.ones(grid.size)), 1.0, 1e-2)
    ops = replace(build_operators(stationary201, default_spec), u_star=w)
    with crossing:
        LinearPropagator(ops, 1e-2)


@pytest.mark.parametrize("t_end", [0.2, 3.0])
def test_pure_transport_integrates_one_cycle(monkeypatch, stationary201, t_end):
    # u_* is frozen, so every regrid cycle repeats the positions of the
    # first: the propagator moves the particles through one whole cycle by
    # the multistep kernel, which takes STARTUP_STEPS Runge-Kutta steps
    # there, and q takes STARTUP_STEPS of them in each cycle begun
    grid = stationary201.grid
    cycle = len(list(_kernel_path(stationary201.u_star, grid)))
    n_steps = int(round(t_end / 1e-2))
    steps = []
    _counting(monkeypatch, "rk4", steps)
    sup, _ = pure_transport(stationary201.u_star,
                            RadialField(grid, np.sin(3 * grid.nodes) + 0.2), t_end, 1e-2)
    assert len(sup) == n_steps + 1
    assert len(steps) == STARTUP_STEPS * (1 + -(-n_steps // cycle))
    # the short run ends inside the first cycle, the long one runs past it
    assert (n_steps > cycle) == (t_end == 3.0)


def test_propagator_cycle_is_the_kernel_path(monkeypatch, stationary201, default_spec):
    # the propagator's cycle holds one folded operator for each stage that
    # the multistep kernel evaluates, built at the kernel's own stage
    # positions: four in each start-up step, the step start alone in each
    # Adams-Bashforth step
    built = []

    class Recorded(linearized._FoldedStage):
        def __init__(self, x, coef):
            super().__init__(x, coef)
            built.append(x)

    monkeypatch.setattr(linearized, "_FoldedStage", Recorded)
    prop = LinearPropagator(build_operators(stationary201, default_spec), 1e-2)
    path = list(_kernel_path(stationary201.u_star, stationary201.grid))
    assert [len(s) for s, _ in prop.steps] == (
        [4] * STARTUP_STEPS + [1] * (prop.cycle_len - STARTUP_STEPS))
    assert prop.cycle_len == len(path)
    stages = [x for step_stages, _, _ in path for x in step_stages]
    assert len(built) == len(stages)
    assert all(np.array_equal(x, y) for x, y in zip(built, stages))
    assert all(np.array_equal(end, path_end)
               for (_, end), (_, path_end, _) in zip(prop.steps, path))


def test_pure_transport_of_a_zero_field(monkeypatch, grid201):
    # no particle moves, so no regrid is ever needed: the cycle is the first
    # step, which every later one repeats, and q stays as it is (the path
    # is cut at 10 steps, so a cycle that waits for a regrid fails here)
    path = linearized.frozen_path
    monkeypatch.setattr(linearized, "frozen_path",
                        lambda *args: itertools.islice(path(*args), 10))
    zero = RadialField(grid201, np.zeros(grid201.size))
    q0 = RadialField(grid201, np.sin(3 * grid201.nodes))
    ops = linearized.LinearizedOperators(zero, zero, zero, 0.0, zero, zero)
    assert LinearPropagator(ops, 1e-2).cycle_len == 1
    sup, weighted = pure_transport(zero, q0, 0.5, 1e-2)
    assert np.all(sup == np.max(np.abs(q0.values)))
    assert np.all(weighted == weighted[0])


def _deviation_from(state, sol):
    return deviation(sol.grid, state.p.values, state.z, sol.p_star.values,
                     sol.z_star)


def test_stationary_state_is_fixed_point(stationary801, default_spec):
    state = TumorState(t=0.0, p=stationary801.p_star, z=stationary801.z_star)
    after = step(state, 1e-2, default_spec)
    p_dev, _, z_dev = _deviation_from(after, stationary801)
    assert (p_dev + z_dev) / 1e-2 <= 1e-6


def test_norms_vanish_at_reference(stationary801):
    state = TumorState(t=0.0, p=stationary801.p_star, z=stationary801.z_star)
    assert _deviation_from(state, stationary801) == (0.0, 0.0, 0.0)


def test_norm_x0_dominates_norm_x(stationary801, rng):
    # every deviation term is nonnegative, so norm_x0 = norm_x + dp_dev
    # dominates norm_x; the perturbation makes each term positive
    vals = np.clip(stationary801.p_star.values
                   + 1e-2 * np.sin(5 * stationary801.grid.nodes), 0, 1)
    state = TumorState(t=0.0, p=stationary801.p_star.with_values(vals),
                       z=stationary801.z_star + 1e-3)
    assert all(term > 0.0 for term in _deviation_from(state, stationary801))


def test_deviation_batch_matches_rows(rng):
    # a batch of states gives, row by row, the floats of one call per state
    grid = RadialGrid.uniform(101)
    ps = rng.standard_normal((5, grid.size))
    zs = rng.standard_normal(5)
    p_ref = np.sin(grid.nodes)
    batch = deviation(grid, ps, zs, p_ref, 0.25)
    for m in range(5):
        one = deviation(grid, ps[m], zs[m], p_ref, 0.25)
        assert all(type(term) is float for term in one)
        assert one == tuple(term[m] for term in batch)


def test_on_grid_rows_match_one_row_each(rng):
    # one row of positions per row of values gives each row what on_grid
    # gives it alone; a row whose particles sit on the nodes stays as it is
    nodes = np.linspace(0.0, 1.0, 101)
    positions = np.tile(nodes, (4, 1))
    positions[:3, 1:-1] += rng.uniform(-0.3, 0.3, (3, 99)) / 100
    values = rng.standard_normal((4, 101))
    batch = transport.on_grid(positions, values, nodes)
    for row_x, row_v, got in zip(positions, values, batch):
        assert np.array_equal(got, transport.on_grid(row_x, row_v, nodes))
    assert np.array_equal(batch[3], values[3])


def test_one_row_resamples_match_scipy(rng):
    # on_grid and regrid over one row of positions give scipy's monotone
    # cubic bit for bit, for one row of values and for a batch
    nodes = np.linspace(0.0, 1.0, 101)
    positions = nodes.copy()
    positions[1:-1] += rng.uniform(-0.3, 0.3, 99) / 100
    values = rng.standard_normal((4, 101))
    for v in (values, values[0]):
        want = PchipInterpolator(positions, v, axis=-1)(nodes)
        assert np.array_equal(transport.on_grid(positions, v, nodes), want)
        assert np.array_equal(transport.regrid(positions, v, nodes), want)


def test_simulate_records_expected_rows(stationary201, default_spec):
    r = stationary201.grid.nodes
    p0 = np.clip(stationary201.p_star.values + 1e-3 * r * (1 - r), 0, 1)
    init = TumorState(t=0.0, p=RadialField(stationary201.grid, p0),
                      z=stationary201.z_star)
    traj = simulate(init, 1.0, 1e-2, default_spec, stationary201,
                    output_every=0.1)
    assert len(traj.times) == 11
    assert len(traj.states) == 11
    assert np.all(np.isfinite(traj.norm_x))
    assert np.all(traj.mass_residual <= 1e-4)


def test_perturbation_decays_toward_stationary(stationary201, default_spec):
    r = stationary201.grid.nodes
    p0 = np.clip(stationary201.p_star.values + 1e-2 * np.sin(np.pi * r), 0, 1)
    init = TumorState(t=0.0, p=RadialField(stationary201.grid, p0),
                      z=stationary201.z_star + 1e-3)
    traj = simulate(init, 10.0, 1e-2, default_spec, stationary201)
    assert traj.norm_x[-1] < 0.6 * traj.norm_x[0]


def test_picard_rejects_large_dt(stationary201, default_spec):
    # the direct solver and Picard share one bound on the step
    init = TumorState(t=0.0, p=stationary201.p_star, z=stationary201.z_star)
    with pytest.raises(ValueError, match="DT_MAX"):
        picard_solve(init, 0.04, 0.02, default_spec, stationary201, mu=0.07)
    with pytest.raises(ValueError, match="DT_MAX"):
        simulate(init, 0.04, 0.02, default_spec, stationary201)


def _counted(original, counts, size=lambda *args: 1):
    # a wrapper of original that appends size(*args) per call
    def counted(*args):
        counts.append(size(*args))
        return original(*args)

    return counted


def _counting(monkeypatch, name, counts, size=lambda *args: 1):
    # replace transport.<name> by a wrapper that appends size(*args) per call
    monkeypatch.setattr(transport, name, _counted(getattr(transport, name), counts, size))


def test_picard_stage_budget(monkeypatch, stationary201, default_spec):
    # per iteration: f and the moment at each stage, four in each of the
    # STARTUP_STEPS rk4 steps and one in every Adams-Bashforth step, and,
    # per block of steps, one batched moment build of its stage positions
    # and one cubic build of its window's velocity rows; one direct stage
    # row per sweep (its end state's velocity) and one for V^0, and no
    # radial_average besides theirs: no path state is taken on the nodes
    direct, stages, regrids, builds, velocities, cubics = [], [], [], [], [], []
    _counting(monkeypatch, "_stage_rates", direct, lambda spec, cache, x, p, z: x.shape)
    _counting(monkeypatch, "_source_rates", stages)
    _counting(monkeypatch, "regrid", regrids)
    _counting(monkeypatch, "RadialMoments", builds, np.shape)
    _counting(monkeypatch, "radial_average", velocities, lambda g, x: g.shape)
    _counting(monkeypatch, "pchip_coefficients", cubics, lambda x, v: v.shape)
    r = stationary201.grid.nodes
    p0 = np.clip(stationary201.p_star.values + 1e-2 * np.sin(np.pi * r), 0, 1)
    init = TumorState(t=0.0, p=RadialField(stationary201.grid, p0),
                      z=stationary201.z_star + 1e-3)
    n_steps = 10
    _, distances = picard_solve(init, n_steps * 1e-2, 1e-2, default_spec,
                                stationary201, mu=0.07)
    iterations = len(distances)
    per_iteration = n_steps + 3 * transport.STARTUP_STEPS
    assert direct == velocities == (iterations + 1) * [r.shape]
    assert len(stages) == iterations * per_iteration
    # no regrid this early, so the blocks split only at PICARD_BLOCK_STEPS
    assert not regrids
    blocks = [min(transport.PICARD_BLOCK_STEPS, n_steps - k)
              for k in range(0, n_steps, transport.PICARD_BLOCK_STEPS)]
    assert len(builds) == iterations * len(blocks)
    assert sum(rows for rows, _ in builds) == iterations * per_iteration
    # per block the cubics of its window's rows, its end state's included,
    # then the batched on_grid of its states; no step-mean build
    assert cubics == iterations * [shape for steps in blocks
                                   for shape in ((steps + 1, r.size), (steps, r.size))]


def test_simulate_multistep_is_fourth_order(monkeypatch, stationary201, default_spec):
    # step-halving on simulate's Adams-Bashforth path, well inside the first
    # regrid cycle: the differences fall 16-fold per halving and stay far
    # above rounding (they are 1e-10 and 1e-11 here)
    grid = stationary201.grid
    p0 = np.clip(stationary201.p_star.values
                 + 0.1 * perturbation_shape("poly", grid.nodes), 0.0, 1.0)
    init = TumorState(t=0.0, p=RadialField(grid, p0), z=stationary201.z_star + 1.0)
    regrids, stages = [], []
    _counting(monkeypatch, "regrid", regrids)
    _counting(monkeypatch, "_stage_rates", stages)
    ends = [simulate(init, 0.6, dt, default_spec, stationary201, output_every=0.6).states[-1]
            for dt in (1e-2, 5e-3, 2.5e-3)]
    assert not regrids
    # one stage per step after the rk4 start-up of each run
    assert len(stages) == 60 + 120 + 240 + 3 * 3 * transport.STARTUP_STEPS
    e1, e2 = (np.max(np.abs(a.p.values - b.p.values)) + abs(a.z - b.z)
              for a, b in zip(ends, ends[1:]))
    assert e2 >= 1e-12
    assert 12.0 <= e1 / e2 <= 20.0


def _kernel_log(monkeypatch):
    """Record each AdamsBashforth's steps, "R" for an rk4 step and "A" for
    an Adams-Bashforth step, and its restarts, "|"."""
    log = {}
    cls, rk4 = transport.AdamsBashforth, transport.rk4
    step, restart = cls.step, cls.restart
    took = []

    def logged_rk4(*args):
        took.append(1)
        return rk4(*args)

    def logged_step(self, *args):
        took.clear()
        out = step(self, *args)
        log.setdefault(self, []).append("R" if took else "A")
        return out

    def logged_restart(self):
        log.setdefault(self, []).append("|")
        restart(self)

    monkeypatch.setattr(transport, "rk4", logged_rk4)
    monkeypatch.setattr(cls, "step", logged_step)
    monkeypatch.setattr(cls, "restart", logged_restart)
    return log


def _assert_rk4_opens_every_cycle(log, regrids):
    # each history restarts once per regrid, and every cycle between its
    # restarts opens with STARTUP_STEPS rk4 steps, then steps by
    # Adams-Bashforth alone
    startup = transport.STARTUP_STEPS
    assert sum(events.count("|") for events in log.values()) == regrids
    for events in log.values():
        for cycle in "".join(events).split("|"):
            assert len(cycle) > startup
            assert cycle == "R" * startup + "A" * (len(cycle) - startup)


def test_rk4_opens_every_regrid_cycle(monkeypatch, stationary201, default_spec):
    grid = stationary201.grid
    r = grid.nodes
    p0 = np.clip(stationary201.p_star.values + 1e-2 * np.sin(np.pi * r), 0, 1)
    init = TumorState(t=0.0, p=RadialField(grid, p0), z=stationary201.z_star + 1e-3)
    prop = LinearPropagator(build_operators(stationary201, default_spec), 1e-2)
    # (module whose regrid the run calls, run, histories restarted per
    # regrid): simulate and the propagator keep one history, Picard one for
    # the particles and one for (p, z) in each iteration
    runs = [
        (transport, lambda: simulate(init, 3.0, 1e-2, default_spec, stationary201), 1),
        (transport, lambda: picard_solve(init, 2.0, 1e-2, default_spec, stationary201,
                                         mu=0.07, tol=1e-6), 2),
        (linearized, lambda: list(prop.records(np.sin(np.pi * r), 1e-3,
                                               (2 * prop.cycle_len + 5) * 1e-2)), 1),
    ]
    for module, run, histories in runs:
        with pytest.MonkeyPatch.context() as mp:
            log, regrids = _kernel_log(mp), []
            mp.setattr(module, "regrid", _counted(module.regrid, regrids))
            run()
        assert len(regrids) >= 2
        _assert_rk4_opens_every_cycle(log, histories * len(regrids))


def test_step_and_rk4_stay_runge_kutta(monkeypatch, stationary201, default_spec):
    # step and the _rk4 of test_09's Richardson study keep no history: each
    # call is one classical Runge-Kutta step of four stages (the "step"
    # digest of INTEGRATOR_DIGESTS pins its bits)
    stages = []
    _counting(monkeypatch, "_stage_rates", stages)
    grid = stationary201.grid
    cache = transport.NutrientCache(default_spec, grid)
    y = (grid.nodes, stationary201.p_star.values, stationary201.z_star + 1e-3)
    for _ in range(transport.STARTUP_STEPS + 2):
        y = transport._rk4(default_spec, cache, *y, 1e-2)
    assert len(stages) == 4 * (transport.STARTUP_STEPS + 2)
    step(TumorState(t=0.0, p=stationary201.p_star, z=stationary201.z_star), 1e-2,
         default_spec)
    assert len(stages) == 4 * (transport.STARTUP_STEPS + 3)


def test_simulate_memory_does_not_grow_with_horizon(stationary201, default_spec):
    # the Adams-Bashforth history is four slots sized once: a four times
    # longer run, recorded at its two ends alone, peaks within a few rows
    # of the grid of the shorter one.  The peak is taken above what the run
    # leaves allocated, which the first traced runs inflate with one-time
    # set-up (cached interpolators, numpy's and scipy's first calls)
    grid = stationary201.grid
    p0 = np.clip(stationary201.p_star.values
                 + 1e-2 * perturbation_shape("poly", grid.nodes), 0.0, 1.0)
    init = TumorState(t=0.0, p=RadialField(grid, p0), z=stationary201.z_star + 3e-3)

    def peak(t_end):
        tracemalloc.start()
        try:
            simulate(init, t_end, 1e-2, default_spec, stationary201, output_every=t_end)
            left, top = tracemalloc.get_traced_memory()
            return top - left
        finally:
            tracemalloc.stop()

    assert abs(peak(8.0) - peak(2.0)) < 4 * grid.size * 8


@pytest.mark.parametrize("family", ["affine", "saturating"])
def test_stage_reads_no_rate_derivative(monkeypatch, family):
    # a stage reads f and g of the rates only, so neither the consumption F
    # nor any of the c-derivatives, all built lazily, may be computed on
    # its behalf; and the velocity a Picard sweep keeps at each step's
    # start is _stage_rates' w there, bit for bit, through the rk4 start-up
    # steps and past them
    spec = KineticsSpec(family=family)
    ref = stationary_for(spec, 201)
    cache = transport.NutrientCache(spec, ref.grid)
    nodes = ref.grid.nodes
    source_rates, starts = transport._source_rates, []

    def recorded(spec, cache, x, op, values, z):
        # _stage_rates first, so that both read one nutrient solve
        starts.append((x.copy(), transport._stage_rates(spec, cache, x, values, z)[0]))
        return source_rates(spec, cache, x, op, values, z)

    n_steps, startup = 6, transport.STARTUP_STEPS
    x_rows = np.tile(nodes, (n_steps + 1, 1))
    w_rows = np.tile(transport.frame_velocity(ref.u_star.values, nodes), (n_steps + 1, 1))
    p0 = np.clip(ref.p_star.values + 1e-2 * np.sin(np.pi * nodes), 0.0, 1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_source_rates", recorded)
        transport._picard_sweep(spec, cache, nodes, ref.grid.spacing, x_rows, w_rows,
                                p0, ref.z_star + 1e-3, 1e-2)
    for s in range(n_steps):
        start_x, w = starts[4 * min(s, startup) + max(0, s - startup)]
        assert np.array_equal(start_x, x_rows[s]) and np.array_equal(w, w_rows[s])

    cache.solve(ref.z_star)  # the Newton solve itself reads F'(c)

    def unread(self):
        raise AssertionError("a stage read F or a rate derivative")

    for name in ("f_val", "f_d", "kb_d", "kd_d", "kp_d", "kq_d", "km_d", "kn_d"):
        monkeypatch.setattr(RateValues, name, property(unread))
    x = nodes + 0.1 * ref.grid.spacing * np.sin(np.arange(201))
    x[0], x[-1] = 0.0, 1.0
    p = ref.p_star.values
    w, f, u1 = transport._stage_rates(spec, cache, x, p, ref.z_star)
    assert w.shape == f.shape == x.shape and np.isfinite(u1)
    # Picard's stage, on the same positions' moment operator
    f_picard, moment = transport._source_rates(spec, cache, x, RadialMoments(x), p, ref.z_star)
    assert np.array_equal(f_picard, f) and moment[-1] == u1


@pytest.mark.parametrize("entry,bad,fill", [("position", [7], np.nan),
                                             ("p", [0, 200], np.inf),
                                             ("p", [150], np.nan),
                                             ("z", [0], np.nan)])
def test_guard_names_first_non_finite_entry(stationary201, entry, bad, fill):
    # NaN compares false with every bound, so it must be caught by name
    positions = stationary201.grid.nodes.copy()
    values = stationary201.p_star.values.copy()
    z = fill if entry == "z" else stationary201.z_star
    if entry != "z":
        (positions if entry == "position" else values)[bad] = fill
    with pytest.raises(SolverError, match=f"non-finite {entry} at index {bad[0]} "):
        transport._guarded(positions, values, z)


def test_guard_rejects_finite_p_outside_the_unit_interval():
    with pytest.raises(SolverError,
                       match=r"p escaped \[0,1\]: range \[2\.000e-01, 1\.500e\+00\]$"):
        transport._guarded_values(np.array([0.2, 1.5]), 0.0)


def test_regrid_rejects_touching_particles():
    positions = np.array([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(SolverError, match="non-monotone particle positions in regrid"):
        transport.regrid(positions, positions, np.linspace(0.0, 1.0, 5))


def _picard_against_direct(family, epsilon, t_end):
    """The distances of a 201-node picard_solve (tol 1e-8) of family and
    the largest sup|p - p_direct| + |z - z_direct| over its recorded
    states against simulate's."""
    spec = KineticsSpec(family=family)
    ref = stationary_for(spec, 201)
    cfg = RunConfig(grid_size=201, epsilon=epsilon, t_end=t_end, spec=spec)
    init = initial_state(cfg, ref)
    traj, dists = picard_solve(init, cfg.t_end, cfg.dt, spec, ref,
                               mu=PICARD_RATE, tol=1e-8)
    direct = simulate(init, cfg.t_end, cfg.dt, spec, ref,
                      output_every=cfg.output_every)
    assert len(traj.states) == len(direct.states)
    return dists, max(float(np.max(np.abs(a.p.values - b.p.values))) + abs(a.z - b.z)
                      for a, b in zip(traj.states, direct.states))


@pytest.mark.parametrize("family", ["affine", "saturating"])
def test_picard_matches_direct(family):
    # test_08's tolerances on a short 201-node run of each rate family
    dists, gap = _picard_against_direct(family, 1e-3, 1.0)
    ratios = [dists[i + 1] / dists[i] for i in range(len(dists) - 1)
              if dists[i] > 1e-8]
    assert gap <= 1e-4
    assert max(ratios) <= 0.75


@pytest.mark.parametrize("family", ["affine", "saturating"])
def test_picard_fixed_point_is_the_direct_solution(family):
    # Picard freezes the velocity where simulate takes it, at the particles'
    # step-start positions, so its fixed point is simulate's solution up to
    # the cubics read inside the rk4 start-up steps: the gap is 1.25e-9 for
    # either family, where a velocity frozen on the nodes left 2.0e-6
    # (affine) and 9.0e-7 (saturating)
    _, gap = _picard_against_direct(family, 1e-2, 1.5)
    assert gap <= 1e-8


def test_picard_divergence_raises(monkeypatch, stationary201, default_spec):
    # each returned p path is pushed away from the last by a growing offset
    # (0.1, 0.4, 0.9): the distances grow from the second iterate on, and
    # the second increase in a row stops the iteration, naming them
    sweep, calls = transport._picard_sweep, []

    def pushed(*args):
        p, z = sweep(*args)
        calls.append(args)
        return p + 0.1 * len(calls) ** 2, z

    monkeypatch.setattr(transport, "_picard_sweep", pushed)
    r = stationary201.grid.nodes
    p0 = np.clip(stationary201.p_star.values + 1e-2 * np.sin(np.pi * r), 0, 1)
    init = TumorState(t=0.0, p=RadialField(stationary201.grid, p0),
                      z=stationary201.z_star + 1e-3)
    with pytest.raises(SolverError, match=r"^Picard iteration diverging: distances \[") as err:
        picard_solve(init, 0.2, 1e-2, default_spec, stationary201, mu=0.07)
    listed = str(err.value).split("[")[1].rstrip("]").split(", ")
    distances = [float(d) for d in listed]
    assert len(calls) == len(distances) == 3
    assert 0.1 < distances[0] < distances[1] < distances[2]


def test_picard_first_distance_is_weighted_from_v0(monkeypatch, stationary201, default_spec):
    # one sweep with every step recorded returns V^1, and its distance is
    # max_t e^{mu t} (sup|p1 - p0| + |z1 - z0|) from V^0, the initial
    # perturbation decayed at rate mu; without e^{mu t} it reads 6.8% lower
    monkeypatch.setattr(transport, "PICARD_MAX_ITERS", 1)
    cfg = RunConfig(grid_size=201, epsilon=1e-2, t_end=1.0, spec=default_spec)
    init = initial_state(cfg, stationary201)
    traj, dists = picard_solve(init, cfg.t_end, cfg.dt, default_spec, stationary201,
                               mu=PICARD_RATE, output_every=cfg.dt)
    assert len(dists) == 1 and len(traj.times) == 101
    since = traj.times - init.t
    p_star, z_star = stationary201.p_star.values, stationary201.z_star
    p0 = p_star + np.exp(-PICARD_RATE * since)[:, None] * (init.p.values - p_star)
    z0 = z_star + np.exp(-PICARD_RATE * since) * (init.z - z_star)
    p1 = np.array([state.p.values for state in traj.states])
    z1 = np.array([state.z for state in traj.states])
    gaps = np.max(np.abs(p1 - p0), axis=1) + np.abs(z1 - z0)
    assert np.max(np.exp(PICARD_RATE * since) * gaps) == dists[0]


def _trajectory_arrays(traj):
    return [traj.times, traj.norm_x, traj.norm_x0, traj.mass_residual,
            [s.z for s in traj.states]] + [s.p.values for s in traj.states]


def _integrator_outputs(sol, spec):
    """Short runs of the six characteristics integrators on a 201-node
    stationary state, each reduced to the list of its output arrays, and
    the number of regrids in picard_solve.

    The horizons are chosen so that simulate, pure_transport and
    LinearPropagator each regrid at least once, and picard_solve in every
    iteration.
    """
    grid = sol.grid
    r = grid.nodes
    p0 = np.clip(sol.p_star.values + 1e-2 * np.sin(np.pi * r), 0.0, 1.0)
    init = TumorState(t=0.0, p=RadialField(grid, p0), z=sol.z_star + 1e-3)
    ops = build_operators(sol, spec)
    after = step(init, 1e-2, spec)
    picard_regrids = []
    with pytest.MonkeyPatch.context() as mp:
        _counting(mp, "regrid", picard_regrids)
        traj, distances = picard_solve(init, 1.0, 1e-2, spec, sol, mu=0.07)
    sup, weighted = pure_transport(
        sol.u_star, RadialField(grid, np.sin(3 * r) + 0.2), 3.0, 1e-2)
    linear = solve_linearized(
        ops, (RadialField(grid, 1e-2 * np.sin(np.pi * r)), 1e-3), 2.0, 1e-2)
    fits = decay_ensemble(ops, n_runs=3, t_end=10.0, seed=0)
    return {
        "step": [after.p.values, [after.z]],
        "simulate": _trajectory_arrays(simulate(init, 1.0, 1e-2, spec, sol)),
        "picard_solve": _trajectory_arrays(traj) + [distances],
        "pure_transport": [sup, weighted],
        "solve_linearized": _trajectory_arrays(linear),
        "decay_ensemble": [[(f.mu_fit, f.K_fit, f.r2, f.decades)
                            for pair in fits for f in pair]],
    }, len(picard_regrids)


# SHA-256 of each integrator's output arrays (float64 bytes), recorded with
# numpy 2.4.6 and scipy 1.17.1 on x86-64.
# A refactoring leaves every digest as it is.  A change that moves numbers
# on purpose re-records the digests that move and lists old -> new in
# CHANGES.md, which keeps their history; another numpy or scipy build may
# round differently and move them too.
INTEGRATOR_DIGESTS = {
    "step":
        "85bc48cf574b24748f76d7e1592531e103008a50ee2035920f0aa567e7cbe2e9",
    "simulate":
        "1a4ea6cef41bdf576ca30f21346ee75cebf8eed39dc86f26be242b678e61253f",
    "picard_solve":
        "d4e1dc27aa35ea04181df59a9f150492f64853df48030271cdc0cd65130d1ce9",
    "pure_transport":
        "06dae8142d44dd003eca66898c52b585c10111c55400842e14afcf38bc89f372",
    "solve_linearized":
        "bdb8d56916bf27d603a17e876d855505f8117ae48595062104c35d475c4d89f5",
    "decay_ensemble":
        "87796283907e85f6f766b794e33ea29f7b7082f5193586012088e6a4b20474a9",
}


def test_integrators_bit_identical(stationary201, default_spec, digest):
    """Every characteristics integrator reproduces its recorded output bytes.

    All six share one Runge-Kutta step, and all but step one
    Adams-Bashforth kernel that starts with it, so a
    change to either, to the stage rates, to the post-step guard or to
    regridding shows here as a changed digest.  Refactoring must leave every digest as it is.  A
    deliberate numerical change must re-record the digests and say so in
    CHANGES.md.  Another numpy or scipy build may round differently and
    change them too.
    """
    outputs, picard_regrids = _integrator_outputs(stationary201, default_spec)
    got = {name: digest(*arrays) for name, arrays in outputs.items()}
    assert got == INTEGRATOR_DIGESTS
    # Picard's blocks end at a regrid at least once in every iteration
    assert picard_regrids >= len(outputs["picard_solve"][-1])
