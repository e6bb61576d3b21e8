import dataclasses
import gc
import hashlib
import time
from functools import partial

import numpy as np
import pytest
from scipy.integrate import OdeSolver
from scipy.interpolate import PPoly

import tumorlab.simmaps as simmaps
from tumorlab.errors import ExperimentFailure, SolverError
from tumorlab.grid import RadialField, RadialGrid
from tumorlab.simmaps import (SamplePlan, build_fstar, build_maps,
                              check_map_bounds, dT_dr, make_perturbed_velocity,
                              map_S, map_T, phi, phi_star, psi, psi_star)


@pytest.fixture(scope="module")
def logistic_table():
    # u = -r(1-r) has the closed form F_*(r) = log(r/(1-r))
    g = RadialGrid.uniform(1001)
    u = RadialField(g, -g.nodes * (1.0 - g.nodes))
    return build_fstar(u), u


def test_travel_time_closed_form(logistic_table):
    table, _ = logistic_table
    r = np.linspace(0.01, 0.99, 197)
    exact = np.log(r / (1.0 - r))
    assert np.max(np.abs(table.fstar(r) - exact)) <= 1e-8


def test_table_pieces_read_only_their_points(logistic_table):
    # each piece maps only its own points: the splines see none of the tail
    # points, and the tails raise no overflow for the points inside
    table, _ = logistic_table
    table = simmaps.FStarTable(table.r_table, table.f_table, table.u_prime0, table.u_prime1)
    read, inv = [], table._inv
    object.__setattr__(table, "_inv", lambda x, *nu: read.append(x.size) or inv(x, *nu))
    x = np.array([-2000.0, -20.0, 0.0, 1.0, 20.0, 2000.0])
    with np.errstate(over="raise", invalid="raise"):
        r, slope = table.finv(x), table.dfinv(x)
    assert read == [2, 2]  # the two points inside, by finv and by dfinv
    assert r.tolist()[::5] == [0.0, 1.0] and np.all(np.diff(r) > 0) and np.all(slope >= 0)


def test_inverse_roundtrip(logistic_table):
    table, _ = logistic_table
    r = np.linspace(1e-4, 1.0 - 1e-4, 333)
    assert np.max(np.abs(table.finv(table.fstar(r)) - r)) <= 1e-8


def test_stationary_flow_matches_logistic_solution(logistic_table):
    table, _ = logistic_table
    # dr/dt = -r(1-r) solves to r(t) = 1 / (1 + (1/r0 - 1) e^t)
    r0 = np.linspace(0.05, 0.95, 50)
    t = 1.7
    exact = 1.0 / (1.0 + (1.0 / r0 - 1.0) * np.exp(t))
    assert np.max(np.abs(phi_star(table, r0, t, 0.0) - exact)) <= 1e-8


def test_inverse_flow_undoes_flow(logistic_table):
    table, _ = logistic_table
    r = np.linspace(0.1, 0.9, 41)
    out = psi_star(table, phi_star(table, r, 2.0, 0.5), 2.0, 0.5)
    assert np.max(np.abs(out - r)) <= 1e-8


def test_flow_rejects_reversed_times(logistic_table):
    table, _ = logistic_table
    with pytest.raises(ValueError):
        phi_star(table, 0.5, 0.0, 1.0)


def test_table_reads_no_scalar_through_ppoly(monkeypatch, stationary201):
    # the march along u_* reads it through grid.scalar_ppoly: PPoly is
    # called only on arrays, and the table keeps its recorded bits
    # (SOLVER_DIGESTS["build_fstar"])
    scalar_calls = []
    call = PPoly.__call__

    def counted(self, x, *args, **kwargs):
        scalar_calls.append(np.ndim(x) == 0)
        return call(self, x, *args, **kwargs)

    monkeypatch.setattr(PPoly, "__call__", counted)
    build_fstar(stationary201.u_star)
    assert scalar_calls and not any(scalar_calls)


def test_positive_velocity_rejected():
    g = RadialGrid.uniform(101)
    u = RadialField(g, g.nodes * (1.0 - g.nodes))
    with pytest.raises(ValueError):
        build_fstar(u)
    # negative inside, but without a zero at r = 1: u'(1) = -2
    with pytest.raises(ValueError, match="positive slope at 1"):
        build_fstar(RadialField(g, -g.nodes ** 2))


def test_slow_velocity_stops_the_table():
    # the table holds about 1,400/s nodes for u = -s r (1 - r), so s = 1e-6
    # would need about 1.4e9: the march stops at TABLE_MAX_NODES and names
    # the endpoint slopes, also for a velocity slow only near r = 1/2
    g = RadialGrid.uniform(201)
    r = g.nodes
    start = time.process_time()
    budget = rf"passes {simmaps.TABLE_MAX_NODES} nodes at r = "
    with pytest.raises(SolverError, match=budget + r".*u'\(0\) = -1e-06, u'\(1\) = 1e-06"):
        build_fstar(RadialField(g, -1e-6 * r * (1.0 - r)))
    assert time.process_time() - start < 1.0
    with pytest.raises(SolverError, match=budget + r"0\.49.*u'\(0\) = -1, u'\(1\) = 1\)"):
        build_fstar(RadialField(g, -r * (1.0 - r) * (1e-6 + (2.0 * r - 1.0) ** 2)))


def test_failed_flow_raises(logistic_table):
    # a gap that reads NaN leaves DOP853 no step it can accept
    _, u = logistic_table
    w, w_dr = make_perturbed_velocity(u, 1e-2, 0.08)
    w.gap = lambda r, t: np.full(np.shape(r), np.nan)
    maps = build_maps(u, w, w_dr, epsilon=1e-2, mu=0.08)
    with pytest.raises(SolverError, match="characteristic flow integration failed"):
        phi(maps, 0.5, 1.0, 0.0)


@pytest.fixture(scope="module")
def perturbed_maps(logistic_table):
    _, u = logistic_table
    w, w_dr = make_perturbed_velocity(u, 1e-2, 0.08)
    return build_maps(u, w, w_dr, epsilon=1e-2, mu=0.08)


def test_relative_gap_is_the_family_gap(perturbed_maps):
    # the flow reads w's own gap: w/u_* - 1 to rounding inside, 0 at the ends
    maps = perturbed_maps
    r = np.linspace(0.0, 1.0, 101)
    for t in (0.0, 2.5):
        gap = maps.relative_gap(r, t)
        quotient = maps.w(r[1:-1], t) / maps.u_star(r[1:-1]) - 1.0
        assert np.max(np.abs(gap[1:-1] - quotient)) <= 1e-15
        assert gap[0] == gap[-1] == 0.0


def test_relative_gap_rejects_lost_negativity(logistic_table):
    # amplitude 2: 1 + 2 cos(pi r) <= 0 near r = 1, so w >= 0 there
    _, u = logistic_table
    w, w_dr = make_perturbed_velocity(u, 2.0, 0.0)
    maps = build_maps(u, w, w_dr, epsilon=2.0)
    r = np.linspace(0.0, 1.0, 101)
    assert np.any(w(r[1:-1], 0.0) >= 0.0)
    with pytest.raises(SolverError, match="negativity"):
        maps.relative_gap(r, 0.0)


def test_perturbed_inverse_roundtrip(perturbed_maps):
    r = np.linspace(0.05, 0.95, 31)
    out = psi(perturbed_maps, phi(perturbed_maps, r, 3.0, 1.0), 3.0, 1.0)
    assert np.max(np.abs(out - r)) <= 1e-7


def test_similarity_maps_are_mutually_inverse(perturbed_maps):
    r = np.linspace(0.05, 0.95, 31)
    out = map_S(perturbed_maps, map_T(perturbed_maps, r, 4.0, 1.0), 4.0, 1.0)
    assert np.max(np.abs(out - r)) <= 1e-7


def test_map_integral_form_agrees_with_composition(perturbed_maps):
    r = np.linspace(0.05, 0.95, 31)
    a = map_T(perturbed_maps, r, 4.0, 1.0, method="compose")
    b = map_T(perturbed_maps, r, 4.0, 1.0, method="integral")
    assert np.max(np.abs(a - b)) <= 1e-7


def test_flow_cocycle(perturbed_maps):
    # Phi(Psi(r, t, s), tau, s) = Psi(r, t, tau) for s <= tau <= t
    r = np.linspace(0.1, 0.9, 21)
    s, tau, t = 0.5, 1.5, 3.0
    left = phi(perturbed_maps, psi(perturbed_maps, r, t, s), tau, s)
    right = psi(perturbed_maps, r, t, tau)
    assert np.max(np.abs(left - right)) <= 1e-7


def test_unperturbed_maps_reduce_to_identity(logistic_table):
    table, u = logistic_table
    # the factor 1 + 0 e^{-mu t} cos(pi r) is exactly 1, so w = u_*
    w, w_dr = make_perturbed_velocity(u, 0.0, 0.0)
    maps = build_maps(u, w, w_dr, table=table)
    r = np.linspace(0.05, 0.95, 21)
    assert np.max(np.abs(map_T(maps, r, 3.0, 0.5) - r)) <= 1e-8


def _derivative_error(maps):
    r = np.array([0.3, 0.5, 0.7])
    h = 1e-5
    d = dT_dr(maps, r, 2.0, 0.5)
    fd = (map_T(maps, r + h, 2.0, 0.5) - map_T(maps, r - h, 2.0, 0.5)) / (2 * h)
    return np.max(np.abs(d - fd))


def test_flow_derivative_matches_difference_quotient(perturbed_maps):
    assert _derivative_error(perturbed_maps) <= 1e-6


def test_flow_derivative_needs_the_gap_rate(perturbed_maps):
    # the log-derivative integrates -gap_dt / (1 + gap); read with a zero
    # gap_dt it drops a term of order mu eps (t - s) and misses the quotient
    w = perturbed_maps.w

    def w_frozen(r, t):
        return w(r, t)

    w_frozen.gap = w.gap
    w_frozen.gap_dt = lambda r, t: np.zeros(np.broadcast(r, t).shape)
    assert _derivative_error(dataclasses.replace(perturbed_maps, w=w_frozen)) > 1e-4


def test_batched_flow_matches_each_flow_alone(monkeypatch, perturbed_maps):
    # one solve of groups with mixed spans, directions and shapes: every
    # component, coordinate and log-derivative, within 1e-9 of its group
    # solved alone at rtol 1e-13 / atol 1e-14
    maps = perturbed_maps
    x = maps.table.fstar(np.linspace(0.02, 0.98, 25))
    groups = [(x, 3.0, 1.0), (x[::2], 1.0, 3.0),
              (x, np.array([[8.5], [0.2]]), np.array([[0.5], [4.7]])), (x[5:9], 0.0, 6.0)]
    ends, logs, _ = simmaps._flow(maps, groups, logged=3)
    assert [e.shape for e in ends] == [(25,), (13,), (2, 25), (4,)] and len(logs) == 3
    monkeypatch.setattr(simmaps, "FLOW_RTOL", 1e-13)
    monkeypatch.setattr(simmaps, "FLOW_ATOL", 1e-14)
    for i, group in enumerate(groups):
        (alone,), (log_alone,), _ = simmaps._flow(maps, [group], logged=1)
        assert np.max(np.abs(ends[i] - alone)) <= 1e-9, i
        if i < len(logs):
            assert np.max(np.abs(logs[i] - log_alone)) <= 1e-9, i


def test_flow_leaves_no_solver_behind(perturbed_maps):
    # scipy's solver refers to itself, so only a collection frees its stage
    # arrays; with automatic collection off, _flow must make that collection
    gc.collect()
    gc.disable()
    try:
        phi(perturbed_maps, np.linspace(0.05, 0.95, 31), 3.0, 1.0)
        assert not [o for o in gc.get_objects() if isinstance(o, OdeSolver)]
    finally:
        gc.enable()


SMALL_PLAN = SamplePlan(epsilons=(1e-2,), n_pairs=3, n_r=40, n_test_funcs=5)


def _perturbed_family(u, mu):
    def make_maps(eps):
        w, w_dr = make_perturbed_velocity(u, eps, mu)
        return build_maps(u, w, w_dr, epsilon=eps, mu=mu)

    return make_maps


@pytest.fixture(scope="module")
def small_plan_report(logistic_table):
    _, u = logistic_table
    return check_map_bounds(_perturbed_family(u, SMALL_PLAN.mu), SMALL_PLAN)


def test_bounds_report_small_plan(small_plan_report):
    assert small_plan_report.all_passed
    # amplitude-linear bounds keep their constants under eps-halving
    for entry in small_plan_report.entries:
        if entry.ratio is not None and not entry.skipped:
            assert 0.3 <= entry.ratio <= 3.0


def test_report_prints_each_weakest_constant(small_plan_report):
    # a lower bound is weakest at its smallest constant, an upper bound at
    # its largest
    rows = str(small_plan_report).splitlines()[1:-1]
    for entry, row in zip(small_plan_report.entries, rows, strict=True):
        fit = min if entry.name.endswith("_lo") else max
        assert row.split(",")[:3] == [entry.name, str(entry.n_samples),
                                      f"{fit(entry.constants.values()):.6e}"]


def test_flow_solve_budget(monkeypatch, logistic_table, perturbed_maps,
                           small_plan_report):
    # one flow solve per map call on an array of interior points, and one
    # per amplitude in check_map_bounds: Psi, T and dT backward from r, S and
    # dS forward from Psi_*(r), and Phi, on the samples and the test-function
    # grid, share it; the report counts the solves and their evaluations
    solve = simmaps.solve_ivp
    nfevs = []

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        nfevs.append(sol.nfev)
        return sol

    monkeypatch.setattr(simmaps, "solve_ivp", counted)
    r = np.linspace(0.05, 0.95, 31)
    for fn in (phi, psi, map_T, partial(map_T, method="integral"), map_S, dT_dr):
        nfevs.clear()
        fn(perturbed_maps, r, 3.0, 1.0)
        assert len(nfevs) == 1, fn
    nfevs.clear()
    _, u = logistic_table
    report = check_map_bounds(_perturbed_family(u, SMALL_PLAN.mu), SMALL_PLAN)
    assert len(nfevs) == report.flow_solves == 2 * len(SMALL_PLAN.epsilons)
    assert report.flow_rhs_evals == sum(nfevs) > 0
    assert (report.flow_solves, report.flow_rhs_evals) == (
        small_plan_report.flow_solves, small_plan_report.flow_rhs_evals)
    assert str(report).endswith(
        f"# {report.flow_solves} flow solves, "
        f"{report.flow_rhs_evals} right-hand-side evaluations")


def test_bounds_failure_raises(logistic_table):
    # a perturbation whose amplitude is cubic in eps breaks the linear-in-eps
    # structure: the fitted constants drop by 1/4 under eps-halving, outside
    # the [0.3, 3] stability window
    _, u = logistic_table
    plan = SamplePlan(epsilons=(1e-2,), n_pairs=2, n_r=20, n_test_funcs=3,
                      mu=0.08)

    def make_maps(eps):
        w, w_dr = make_perturbed_velocity(u, 1e4 * eps ** 3, plan.mu)
        return build_maps(u, w, w_dr, epsilon=eps, mu=plan.mu)

    with pytest.raises(ExperimentFailure):
        check_map_bounds(make_maps, plan)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


# SHA-256 of every map's output on the logistic table (endpoints included)
# and of the small-plan bound constants, recorded with numpy 2.4.6 and
# scipy 1.17.1 on x86-64; every entry but phi_star and psi_star was
# recorded again when the flow came to read the relative gap that the
# velocity family carries (w.gap) in place of w / u_* - 1, and again when
# all flows came to run in normalised time through one batched solve that
# carries their log-derivatives (dT_dr from those, in place of a Simpson
# quadrature along a sampled path); bound_constants also when
# grid.RadialMoments came to sum Simpson pair totals.
MAP_DIGESTS = {
    "phi_star":
        "1f3bf6c0da1ec7ba2580f8b48ae6fa67bf7db5a343a1acfb90f4cead4acfde1c",
    "psi_star":
        "574856bfe718227d9f567870a4d99a8fb0b19d9d7191bf99188acfedce6a8d9a",
    "phi":
        "f317f341054ce7db60fd10147984e186ccaac323b9fbdc43c99f48c0cd71b0cf",
    "psi":
        "922be0ef6fe0a3f679549189167f844bdb70f9a72d1480a419f15530d11c448e",
    "map_T_compose":
        "6e37b44515f58d5fa66ca56657b3c14493f1dbd1e44a2099e7e253af7d787f8c",
    "map_T_integral":
        "e8ba8a18f91d5dd9499e36a7308213f364dc3622f1500c80556b7612d2c03526",
    "map_S":
        "659169c8d85da946db9672a98d517edf88857051ef59518628605f174178df4c",
    "dT_dr":
        "b05b63420e3b73dbd88bde3ce97140156b560f75b0ea3c0892685150ecbe09f5",
    "bound_constants":
        "ebcefe0a2f5fca6de9e8db0addac8926e591ff738f60acebd3cb9eda7e2d29a9",
}


def test_map_outputs_bit_identical(logistic_table, perturbed_maps,
                                   small_plan_report):
    """Every flow map and the bound constants reproduce their recorded bytes.

    A refactoring must leave every digest as it is; a deliberate numerical
    change must re-record them and say so in CHANGES.md.  Another numpy or
    scipy build may round differently and change them too.
    """
    table, _ = logistic_table
    maps = perturbed_maps
    r = np.linspace(0.0, 1.0, 41)
    t, s = 3.0, 1.0
    outputs = {
        "phi_star": phi_star(table, r, t, s),
        "psi_star": psi_star(table, r, t, s),
        "phi": phi(maps, r, t, s),
        "psi": psi(maps, r, t, s),
        "map_T_compose": map_T(maps, r, t, s),
        "map_T_integral": map_T(maps, r, t, s, method="integral"),
        "map_S": map_S(maps, r, t, s),
        "dT_dr": dT_dr(maps, r, t, s),
    }
    got = {name: _digest(out) for name, out in outputs.items()}
    got["bound_constants"] = _digest(*(list(e.constants.items())
                                       for e in small_plan_report.entries))
    assert got == MAP_DIGESTS


def test_map_points_endpoints_and_scalars(logistic_table, perturbed_maps):
    table, _ = logistic_table
    maps = perturbed_maps
    t, s = 2.0, 0.5
    for fn in (phi_star, psi_star):
        for bad in (-0.1, np.array([0.5, 1.5])):
            with pytest.raises(ValueError):
                fn(table, bad, t, s)
        assert fn(table, np.array([0.0, 1.0]), t, s).tolist() == [0.0, 1.0]
        assert isinstance(fn(table, 0.4, t, s), float)
    for fn in (phi, psi, map_T, map_S, dT_dr):
        assert isinstance(fn(maps, 0.4, t, s), float)
    assert dT_dr(maps, np.array([0.0, 0.5, 1.0]), t, s)[[0, -1]].tolist() == [1.0, 1.0]
    # the flow integrates in either direction, so only the t >= s check keeps
    # a reversed time out of the maps; at t == s every map is the identity
    r = np.array([0.0, 0.3, 0.7, 1.0])
    for fn in (phi, psi, map_T, partial(map_T, method="integral"), map_S, dT_dr):
        with pytest.raises(ValueError):
            fn(maps, r, s, t)
    for fn in (phi, psi, map_T, partial(map_T, method="integral"), map_S):
        assert np.array_equal(fn(maps, r, s, s), r)
    assert dT_dr(maps, r, s, s).tolist() == [1.0] * r.size
    with pytest.raises(ValueError, match="unknown method"):
        map_T(maps, r, s, s, method="midpoint")
