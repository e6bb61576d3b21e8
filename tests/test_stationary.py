from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from tumorlab import nutrient, stationary
from tumorlab.errors import SolverError
from tumorlab.grid import RadialField, RadialGrid
from tumorlab.kinetics import (FAMILIES, KineticsSpec, eval_rates,
                               validate_hypotheses)
from tumorlab.nutrient import (affine_profile, affine_value, solve_nutrient,
                               solve_sensitivity)
from tumorlab.stationary import (BOUNDARY_OFFSET, R_START, Z_BRACKET,
                                 _shoot_residual, _shooting_rhs, boundary_root,
                                 solve_stationary)
from tumorlab.velocity import radial_velocity


def test_center_root_balances_reaction(default_spec):
    # the attracting root of the reaction quadratic at a given nutrient level
    for c0 in (0.2, 0.5, 0.9):
        p0 = boundary_root(default_spec, c0)
        rv = eval_rates(default_spec, c0)
        assert rv.f(p0) == pytest.approx(0.0, abs=1e-12)
        assert rv.f_p(p0) < 0
        assert 0.0 < p0 <= 1.0


def test_center_root_needs_consistent_rates():
    # p_rate < 0 is outside the admitted specs: at c = 0.5 the center
    # quadratic's discriminant is 0.25 - 0.9 + 0.36 < 0
    spec = KineticsSpec(p_rate=-1.0)
    assert not validate_hypotheses(spec).all_passed
    with pytest.raises(SolverError, match="no real root of the center quadratic"):
        boundary_root(spec, 0.5)


def test_profile_leaving_the_unit_interval_raises():
    # with p_rate < 0 (outside the admitted specs) f(0, c) < 0, so p can
    # cross 0 on the way in
    spec = KineticsSpec(lam=4.0, b_rate=0.2, d_rate=2.2, p_rate=-0.3, q_rate=0.8)
    assert not validate_hypotheses(spec).all_passed
    nutrient = solve_nutrient(spec, 2.25, RadialGrid.uniform(101))
    with pytest.raises(SolverError, match=r"p left \[0,1\] at r="):
        stationary.integrate_profile(spec, nutrient)


def test_boundary_velocity_vanishes(stationary801):
    assert abs(stationary801.u_star.values[-1]) <= 1e-10


def test_profile_signs_and_monotonicity(stationary801):
    sol = stationary801
    r = sol.grid.nodes
    assert np.all(np.diff(sol.p_star.values) > 0)
    assert np.all(sol.p_star.values >= 0)
    assert np.all(sol.p_star.values <= 1)
    assert np.all(sol.u_star.values[1:-1] < 0)
    # velocity comparable to the boundary weight r(1-r) on both sides
    w = r[1:-1] * (1.0 - r[1:-1])
    q = -sol.u_star.values[1:-1] / w
    assert q.min() > 0.05
    assert q.max() < 2.0


def test_center_fraction_extrapolation(stationary801):
    assert stationary801.residual_report["p0_gap"] <= 1e-5
    assert 0.0 < stationary801.p0 < 1.0


def test_consistency_report_flags(stationary801):
    rep = stationary801.residual_report
    assert rep["lemma_checks_pass"]
    assert rep["transport_residual"] <= 1e-6
    assert rep["nutrient_residual"] <= 1e-8


LEMMA_FLAGS = ("p_monotone", "p_in_unit_interval", "c_monotone", "c_in_bounds",
               "u_negative_interior")


def _set(i, value):
    def change(values):
        out = values.copy()
        out[i] = value
        return out

    return change


def _swap_middle(values):
    out = values.copy()
    i = values.size // 2
    out[[i, i + 1]] = out[[i + 1, i]]
    return out


@pytest.mark.parametrize("name, change, flag", [
    ("p", None, None),
    ("p", _set(0, -1e-3), "p_in_unit_interval"),
    ("p", _swap_middle, "p_monotone"),
    ("c", _set(0, 0.0), "c_in_bounds"),
    ("c", _swap_middle, "c_monotone"),
    ("u", _set(100, 1e-9), "u_negative_interior"),
])
def test_each_lemma_check_can_fail(default_spec, stationary201, name, change, flag):
    # the consistency report's inputs at the 201-node default state, with
    # one of p, c and u perturbed so that exactly its lemma flag flips
    sol, rep = stationary201, stationary201.residual_report
    grid = sol.grid
    nut = solve_sensitivity(default_spec, solve_nutrient(default_spec, sol.z_star, grid))
    vel = radial_velocity(sol.p_star, nut, default_spec)
    values = {"p": sol.p_star.values, "c": nut.c.values, "u": vel.u.values}
    if change is not None:
        values[name] = change(values[name])
    diag = {"z": sol.z_star, "p0": sol.p0,
            **{key: rep[key] for key in ("u1_defect", "frobenius_beta", "p1_prime")}}
    report = stationary._consistency_report(
        default_spec, RadialField(grid, values["p"]),
        replace(vel, u=RadialField(grid, values["u"])),
        replace(nut, c=RadialField(grid, values["c"])), diag)
    assert {key: report[key] for key in LEMMA_FLAGS} == {
        key: key != flag for key in LEMMA_FLAGS}
    assert report["lemma_checks_pass"] is (flag is None)
    if flag is None:  # the inputs are the solve's own
        assert report.items() <= rep.items()


def test_singular_exponent_near_origin(stationary801):
    # p_* - p_*(0) behaves like r^beta with beta close to an integer; the
    # weighted-derivative convention shifts the reported exponent by one
    beta = stationary801.residual_report["frobenius_beta"]
    alpha_hat = stationary801.residual_report["alpha_hat"]
    assert abs(alpha_hat - (beta - 1.0)) < 0.1


def test_grid_refinement_converges(stationary201, stationary801):
    assert abs(stationary201.z_star - stationary801.z_star) <= 1e-5


def test_radius_exponentiates_log_radius(stationary801):
    assert stationary801.R_star == pytest.approx(np.exp(stationary801.z_star))


def test_saturating_family_also_has_stationary_state(grid201):
    sol = solve_stationary(KineticsSpec(family="saturating"), grid201)
    assert abs(sol.u_star.values[-1]) <= 5e-8
    assert sol.residual_report["lemma_checks_pass"]


def test_saturating_stationary_state_at_801_nodes(grid801):
    # the benchmark's bound on the quadrature u(1) at the benchmark's size
    sol = solve_stationary(KineticsSpec(family="saturating"), grid801)
    assert abs(sol.u_star.values[-1]) <= 1e-10
    assert sol.residual_report["lemma_checks_pass"]
    # z_* as the shooting found it at rtol 1e-12 with Brent's xtol 1e-13;
    # the spline defect resolves z to a few times 1e-11
    assert abs(sol.z_star - 2.9693061984053144) <= 5e-11


def test_saturating_stationary_state_at_1201_nodes():
    # at the bracket end z = 3.5 the Numerov c(0) lies about 2e-11 below 0;
    # the center root reads it clamped to [0, 1], as the shooting
    # right-hand side reads c, instead of raising an uncaught ValueError
    grid = RadialGrid.uniform(1201)
    spec = KineticsSpec(family="saturating")
    c0 = float(solve_nutrient(spec, Z_BRACKET[1], grid).c(0.0))
    assert -1e-10 < c0 < 0.0
    sol = solve_stationary(spec, grid)
    assert sol.residual_report["lemma_checks_pass"]
    assert abs(sol.u_star.values[-1]) <= 1e-10
    # z_* as the shooting found it at rtol 1e-12
    assert abs(sol.z_star - 2.969306198251546) <= 5e-11


def test_bracket_grows_until_the_defect_changes_sign(grid801):
    # the defect at the bracket's upper end 3.5 is still positive for this
    # spec, so that end grows until it changes sign
    spec = KineticsSpec(family="saturating", lam=0.1)
    assert validate_hypotheses(spec).all_passed
    sol = solve_stationary(spec, grid801)
    assert sol.z_star == pytest.approx(4.1206, abs=1e-4)
    assert sol.residual_report["lemma_checks_pass"]
    assert abs(sol.residual_report["u1_quadrature"]) <= 1e-10


def test_bracket_above_z_star_raises(monkeypatch, default_spec, grid201):
    # the defect is negative above z_* (2.82 at 201 nodes), so a bracket
    # there has no sign change and no end to grow
    monkeypatch.setattr(stationary, "Z_BRACKET", (3.0, 3.5))
    with pytest.raises(SolverError, match=r"no sign change of the shooting defect on "
                       r"bracket: u1\(3\.00\)=-1\.609e-02, u1\(3\.50\)=-4\.828e-02$"):
        solve_stationary(default_spec, grid201)


@pytest.mark.parametrize("family, lam, z", [("saturating", 2.0, "3.4538"),
                                             ("affine", 1.0, "3.7932")])
def test_a_jump_in_the_defect_is_no_root(grid201, family, lam, z):
    # Brent closes on the jump from a positive defect (about 4e-2) to the
    # sentinel -1.0 of the evaluations that raise just above; the state
    # there fails its own checks, so the solve raises instead of returning it
    spec = KineticsSpec(family=family, lam=lam, b_rate=3.0, d_rate=0.2)
    assert validate_hypotheses(spec).all_passed
    with pytest.raises(SolverError, match=f"defect jumps at z={z}"):
        solve_stationary(spec, grid201)


def test_shooting_defect_is_continuous_at_z_star(default_spec, grid201,
                                                 stationary201):
    # below z_* the integration completes, above it u reaches 0 early and
    # the defect is continued by -|u'(0)| r_e^3: no jump across z_*
    below, done_below, _ = _shoot_residual(default_spec, stationary201.z_star - 1e-3,
                                           grid201)
    above, done_above, _ = _shoot_residual(default_spec, stationary201.z_star + 1e-3,
                                           grid201)
    assert done_below and not done_above
    assert below > 0 > above
    assert max(below, -above) <= 1.5 * min(below, -above)


def test_affine_solve_integration_budget(monkeypatch, default_spec, grid201):
    calls = []
    integrate = stationary.integrate_profile

    def counted(*args, **kwargs):
        calls.append(args[1].z)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(stationary, "integrate_profile", counted)
    sol = solve_stationary(default_spec, grid201)
    assert len(calls) <= 9
    assert sol.residual_report["shoot_integrations"] == len(calls)
    # the final (dense) integration is at z_* and completed
    assert calls[-1] == sol.z_star
    assert 0 < sol.residual_report["shoot_fallbacks"] < len(calls)


def test_saturating_solve_budget(monkeypatch, grid801):
    # each cold nutrient solve takes a dozen Newton steps at most, and Brent
    # stops at the resolution of the spline defect; both counts are
    # deterministic
    banded, steps = [], []
    solve_banded, solve = nutrient.solve_banded, stationary.solve_nutrient

    def counted_banded(*args, **kwargs):
        banded.append(1)
        return solve_banded(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        before = len(banded)
        sol = solve(*args, **kwargs)
        steps.append(len(banded) - before)
        assert sol.newton_iterations == steps[-1]
        return sol

    monkeypatch.setattr(nutrient, "solve_banded", counted_banded)
    monkeypatch.setattr(stationary, "solve_nutrient", counted_solve)
    sol = solve_stationary(KineticsSpec(family="saturating"), grid801)
    assert sol.residual_report["shoot_integrations"] <= 9
    assert max(steps) <= 12


@pytest.mark.parametrize("family, integrations, rhs_evals",
                         [("affine", 9, 6741), ("saturating", 9, 6531)])
def test_shooting_rhs_budget(monkeypatch, grid201, family, integrations,
                             rhs_evals):
    # the right-hand-side evaluations of every shooting integration, the
    # final dense one included; both counts are deterministic
    nfev = []
    solve_ivp = stationary.solve_ivp

    def counted(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(stationary, "solve_ivp", counted)
    sol = solve_stationary(KineticsSpec(family=family), grid201)
    assert len(nfev) == sol.residual_report["shoot_integrations"] <= integrations
    assert sum(nfev) <= rhs_evals


@pytest.mark.parametrize("family", FAMILIES)
def test_shooting_tolerance_error_budget(monkeypatch, family, grid801):
    # the 801-node state at SHOOT_RTOL against the state at a hundred times
    # finer rtol: u_* moves by 1.4e-12 (affine) and 1.8e-12 (saturating), z_*
    # by 2.1e-12 and 3.9e-12, within the few times 1e-11 to which the spline
    # defect resolves z; at rtol 1e-9 u_* moves by 8.0e-12 and 2.6e-11
    spec = KineticsSpec(family=family)
    coarse = solve_stationary(spec, grid801)
    monkeypatch.setattr(stationary, "SHOOT_RTOL", stationary.SHOOT_RTOL / 100)
    fine = solve_stationary(spec, grid801)
    assert np.max(np.abs(coarse.u_star.values - fine.u_star.values)) <= 5e-12
    assert abs(coarse.z_star - fine.z_star) <= 3e-11


@pytest.mark.parametrize("family", FAMILIES)
def test_stationary_solves_each_nutrient_once(monkeypatch, family, grid201):
    # each shooting evaluation solves its nutrient profile once, and the
    # final dense integration at z_* reuses the solve of that evaluation
    calls = []
    solve = stationary.solve_nutrient

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(stationary, "solve_nutrient", counted)
    sol = solve_stationary(KineticsSpec(family=family), grid201)
    assert len(calls) == sol.residual_report["shoot_integrations"] - 1
    assert sol.z_star in calls


@pytest.mark.parametrize("family", FAMILIES)
def test_shooting_rhs_bit_identical(family, grid801):
    # the plain-float right-hand side against the eval_rates formula
    # written out on numpy scalars, compared with == (no tolerance): Brent's
    # path, and so z_*, depends on every bit.  c comes from scipy's C2
    # spline of the nutrient node values (clamped c'(0) = 0, not-a-knot at
    # r = 1) for the saturating law and from the scalar closed form for the
    # affine law, which is checked against the vector closed form below.
    spec = KineticsSpec(family=family)
    nutrient = solve_nutrient(spec, 2.9, grid801)
    rhs = _shooting_rhs(spec, nutrient)
    if family == "affine":
        c_ref = affine_value(spec, 2.9)
    else:
        spline = CubicSpline(grid801.nodes, nutrient.c.values,
                             bc_type=((1, 0.0), "not-a-knot"))

        def c_ref(r):
            return float(spline(r))

    def reference(r, y):
        p, J = y
        c = min(max(c_ref(r), 0.0), 1.0)
        rv = eval_rates(spec, c)
        f = float(rv.kp + (rv.km - rv.kn) * p - rv.km * p * p)
        return [f * r * r / J, float(-rv.kd + rv.km * p) * r * r]

    nodes = grid801.nodes
    rng = np.random.default_rng(7)
    radii = np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1]),
                            [1.0 - BOUNDARY_OFFSET, R_START],
                            rng.uniform(0.0, 1.0, 300)])
    states = np.column_stack([rng.uniform(0.0, 1.0, radii.size),
                              -rng.uniform(1e-9, 0.5, radii.size)])
    if family == "affine":
        # math and numpy round exp and expm1 differently (each within an
        # ulp of the exact value), so the two forms agree to a few ulp
        exact = affine_profile(spec, 2.9, radii)[0]
        scalar = np.array([c_ref(r) for r in radii.tolist()])
        assert np.all(np.abs(scalar - exact) <= 4 * np.spacing(exact))
    for r, y in zip(radii.tolist(), states):
        assert rhs(r, y) == reference(r, y), (r, y)
