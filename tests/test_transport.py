import hashlib

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import tumorlab.transport as transport
from tumorlab.experiments import (PICARD_RATE, RunConfig, initial_state,
                                  stationary_for)
from tumorlab.grid import RadialField, RadialGrid, RadialMoments
from tumorlab.errors import SolverError
from tumorlab.kinetics import KineticsSpec, RateValues
from tumorlab.linearized import (build_operators, decay_ensemble,
                                 solve_linearized)
from tumorlab.transport import (TumorState, deviation, picard_solve,
                                pure_transport, simulate, step)


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


def _counting(monkeypatch, name, counts, size=lambda *args: 1):
    # replace transport.<name> by a wrapper that appends size(*args) per call
    original = getattr(transport, name)

    def counted(*args):
        counts.append(size(*args))
        return original(*args)

    monkeypatch.setattr(transport, name, counted)


def test_picard_stage_budget(monkeypatch, stationary201, default_spec):
    # per iteration: the frame velocity of every state of the frozen path on
    # the nodes, f and u(1) at each Runge-Kutta stage, and one batched
    # moment build per block of steps, besides the nodes' one per solve
    node_velocity, stages, regrids, builds = [], [], [], []
    _counting(monkeypatch, "_stage_rates", node_velocity)
    _counting(monkeypatch, "_source_rates", stages)
    _counting(monkeypatch, "regrid", regrids)
    _counting(monkeypatch, "RadialMoments", builds, np.shape)
    r = stationary201.grid.nodes
    p0 = np.clip(stationary201.p_star.values + 1e-2 * np.sin(np.pi * r), 0, 1)
    init = TumorState(t=0.0, p=RadialField(stationary201.grid, p0),
                      z=stationary201.z_star + 1e-3)
    n_steps = 10
    _, distances = picard_solve(init, n_steps * 1e-2, 1e-2, default_spec,
                                stationary201, mu=0.07)
    iterations = len(distances)
    assert len(node_velocity) == iterations * (n_steps + 1)
    assert len(stages) == iterations * 4 * n_steps
    # no regrid this early, so the blocks split only at PICARD_BLOCK_STEPS
    assert not regrids
    blocks = -(-n_steps // transport.PICARD_BLOCK_STEPS)
    assert builds[0] == r.shape
    assert len(builds) == 1 + iterations * blocks
    assert sum(rows for rows, _ in builds[1:]) == iterations * 4 * n_steps


@pytest.mark.parametrize("family", ["affine", "saturating"])
def test_stage_reads_no_rate_derivative(monkeypatch, family):
    # a stage reads f and g of the rates only, so neither the consumption F
    # nor any of the c-derivatives, all built lazily, may be computed on
    # its behalf
    spec = KineticsSpec(family=family)
    ref = stationary_for(spec, 201)
    cache = transport.NutrientCache(spec, ref.grid)
    cache.solve(ref.z_star)  # the Newton solve itself reads F'(c)

    def unread(self):
        raise AssertionError("a stage read F or a rate derivative")

    for name in ("f_val", "f_d", "kb_d", "kd_d", "kp_d", "kq_d", "km_d", "kn_d"):
        monkeypatch.setattr(RateValues, name, property(unread))
    x = ref.grid.nodes + 0.1 * ref.grid.spacing * np.sin(np.arange(201))
    x[0], x[-1] = 0.0, 1.0
    p = ref.p_star.values
    w, f, u1 = transport._stage_rates(spec, cache, x, p, ref.z_star)
    assert w.shape == f.shape == x.shape and np.isfinite(u1)
    # Picard's stage, on the same positions' moment operator
    op = RadialMoments(x)
    work = (np.empty(201), np.empty((2, 100)), np.empty((2, 100)))
    f_picard, u1_picard = transport._source_rates(
        spec, cache, x, (op.weights, op.last, op.start), p, ref.z_star, work)
    assert np.array_equal(f_picard, f) and u1_picard == u1


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


@pytest.mark.parametrize("family", ["affine", "saturating"])
def test_picard_matches_direct(family):
    # test_08's tolerances on a short 201-node run of each rate family
    spec = KineticsSpec(family=family)
    ref = stationary_for(spec, 201)
    cfg = RunConfig(grid_size=201, epsilon=1e-3, t_end=1.0, spec=spec)
    init = initial_state(cfg, ref)
    traj, dists = picard_solve(init, cfg.t_end, cfg.dt, spec, ref,
                               mu=PICARD_RATE, tol=1e-8)
    direct = simulate(init, cfg.t_end, cfg.dt, spec, ref,
                      output_every=cfg.output_every)
    ratios = [dists[i + 1] / dists[i] for i in range(len(dists) - 1)
              if dists[i] > 1e-8]
    gap = max(float(np.max(np.abs(a.p.values - b.p.values))) + abs(a.z - b.z)
              for a, b in zip(traj.states, direct.states))
    assert len(traj.states) == len(direct.states)
    assert gap <= 1e-4
    assert max(ratios) <= 0.75


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


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
    fits = decay_ensemble(ops, n_runs=3, t_end=5.0, seed=0)
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
# numpy 2.4.6 and scipy 1.17.1 on x86-64 after the merge of the two radial
# moment quadratures into grid.RadialMoments, which moved u_* and the
# linearized stage moments; picard_solve's was recorded again when Picard
# came to freeze the previous iterate's velocity on the nodes, and simulate,
# picard_solve and solve_linearized when the cubic start of RadialMoments
# came to be built in closed form, and solve_linearized and decay_ensemble
# when each linear-propagator stage was folded into one operator on the
# even/odd node layout (summation order only); solve_linearized when that
# stage went back to node order on grid.pair_moments, and all but step when
# RadialMoments came to sum Simpson pair totals there too (summation order
# only); solve_linearized and decay_ensemble when the linear propagator
# came to step by four-step Adams-Bashforth after an RK4 start-up.
INTEGRATOR_DIGESTS = {
    "step":
        "84afe25a0ddae86755fa9aa647a42de5432a129a0455fc922e33a6a9ad0d5cf3",
    "simulate":
        "f50fe599b2063200cc28bf69b8c39dab4bff4f1308cea81ccfa6ac501c7b080e",
    "picard_solve":
        "ffdf184982b11e3dba9fcef3ef5b5a48ed356233c3dec3cf5fbb8018af5763af",
    "pure_transport":
        "af053d42c3b24a366a2048e6830b8e8ade3ccb09478b6c69d6bfd5cbb8863d09",
    "solve_linearized":
        "416a22852df614ecebc7b9549692e4356ce5339d6154eafc6685ff248a540762",
    "decay_ensemble":
        "84f9bbab8a7d82a170e7a556d7254681477d4a4174d5cc6f1cb3d5f88c075ecc",
}


def test_integrators_bit_identical(stationary201, default_spec):
    """Every characteristics integrator reproduces its recorded output bytes.

    All six share one Runge-Kutta step (the linear propagator as its
    Adams-Bashforth start-up), so a change to that step, to the stage
    rates, to the post-step guard or to regridding shows here as a changed
    digest.  Refactoring must leave every digest as it is.  A
    deliberate numerical change must re-record the digests and say so in
    CHANGES.md.  Another numpy or scipy build may round differently and
    change them too.
    """
    outputs, picard_regrids = _integrator_outputs(stationary201, default_spec)
    got = {name: _digest(*arrays) for name, arrays in outputs.items()}
    assert got == INTEGRATOR_DIGESTS
    # Picard's blocks end at a regrid at least once in every iteration
    assert picard_regrids >= len(outputs["picard_solve"][-1])
