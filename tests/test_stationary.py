import numpy as np
import pytest

from tumorlab.kinetics import FAMILIES, KineticsSpec, eval_rates
from tumorlab.grid import RadialGrid
from tumorlab.nutrient import affine_profile, affine_value, solve_nutrient
from tumorlab.stationary import (BOUNDARY_OFFSET, R_START_DEFAULT,
                                 _scalar_pchip, _shooting_rhs, boundary_root,
                                 solve_stationary)


def test_center_root_balances_reaction(default_spec):
    # the attracting root of the reaction quadratic at a given nutrient level
    from tumorlab.kinetics import reaction_f, reaction_f_dp
    for c0 in (0.2, 0.5, 0.9):
        p0 = boundary_root(default_spec, c0)
        assert reaction_f(default_spec, c0, p0) == pytest.approx(0.0, abs=1e-12)
        assert reaction_f_dp(default_spec, c0, p0) < 0
        assert 0.0 < p0 <= 1.0


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


def test_singular_exponent_near_origin(stationary801):
    # p_* - p_*(0) behaves like r^beta with beta close to an integer; the
    # weighted-derivative convention shifts the reported exponent by one
    beta = stationary801.residual_report["frobenius_beta"]
    assert abs(stationary801.alpha_hat - (beta - 1.0)) < 0.1


def test_grid_refinement_converges(stationary201, stationary801):
    assert abs(stationary201.z_star - stationary801.z_star) <= 1e-5


def test_radius_exponentiates_log_radius(stationary801):
    assert stationary801.R_star == pytest.approx(np.exp(stationary801.z_star))


def test_saturating_family_also_has_stationary_state(grid201):
    sol = solve_stationary(KineticsSpec(family="saturating"), grid201)
    assert abs(sol.u_star.values[-1]) <= 5e-8
    assert sol.residual_report["lemma_checks_pass"]


@pytest.mark.parametrize("family", FAMILIES)
def test_shooting_rhs_bit_identical(family, grid801):
    # the plain-float right-hand side against the eval_rates / reaction_f
    # formula on numpy scalars, compared with == (no tolerance): Brent's
    # path, and so z_*, depends on every bit.  c comes from the nutrient
    # field for the saturating law and from the scalar closed form for the
    # affine law, which is checked against the vector closed form below.
    spec = KineticsSpec(family=family)
    nutrient = solve_nutrient(spec, 2.9, grid801)
    cf = nutrient.c
    rhs = _shooting_rhs(spec, nutrient)
    if family == "affine":
        c_ref = affine_value(spec, 2.9)
    else:
        def c_ref(r):
            return float(cf(r))

    def reference(r, y):
        p, J = y
        c = min(max(c_ref(r), 0.0), 1.0)
        rv = eval_rates(spec, c)
        f = float(rv.kp + (rv.km - rv.kn) * p - rv.km * p * p)
        return [f * r * r / J, float(-rv.kd + rv.km * p) * r * r]

    nodes = grid801.nodes
    rng = np.random.default_rng(7)
    radii = np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1]),
                            [1.0 - BOUNDARY_OFFSET, R_START_DEFAULT],
                            rng.uniform(0.0, 1.0, 300)])
    states = np.column_stack([rng.uniform(0.0, 1.0, radii.size),
                              -rng.uniform(1e-9, 0.5, radii.size)])
    if family == "affine":
        # math and numpy round exp and expm1 differently (each within an
        # ulp of the exact value), so the two forms agree to a few ulp
        exact = affine_profile(spec, 2.9, radii)[0]
        scalar = np.array([c_ref(r) for r in radii.tolist()])
        assert np.all(np.abs(scalar - exact) <= 4 * np.spacing(exact))
    else:
        c_at = _scalar_pchip(cf)
        for r in radii.tolist():
            assert c_at(r) == c_ref(r), r
    for r, y in zip(radii.tolist(), states):
        assert rhs(r, y) == reference(r, y), (r, y)
