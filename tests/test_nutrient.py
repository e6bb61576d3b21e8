import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tumorlab import nutrient, stationary
from tumorlab.errors import SolverError
from tumorlab.grid import RadialGrid
from tumorlab.kinetics import KineticsSpec
from tumorlab.nutrient import (affine_c, affine_profile, solve_nutrient,
                               solve_sensitivity)


def sinh_solution(lam, z, r):
    """Closed form for the affine consumption law F(c) = lam * c."""
    k = np.exp(z) * np.sqrt(lam)
    c = np.empty_like(r)
    inner = r > 0
    c[inner] = np.sinh(k * r[inner]) / (r[inner] * np.sinh(k))
    c[~inner] = k / np.sinh(k)
    return c


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("z", [-1.0, 0.0, 1.0])
def test_affine_law_matches_sinh_oracle(lam, z, grid801):
    spec = KineticsSpec(lam=lam)
    ns = solve_nutrient(spec, z, grid801)
    exact = sinh_solution(lam, z, grid801.nodes)
    assert np.max(np.abs(ns.c.values - exact)) <= 1e-8


def test_boundary_and_symmetry_conditions(grid801):
    ns = solve_nutrient(KineticsSpec(), 0.5, grid801)
    assert ns.c.values[-1] == pytest.approx(1.0, abs=1e-12)
    assert ns.c_prime.values[0] == pytest.approx(0.0, abs=1e-10)


def test_monotone_increasing_profile(grid801):
    ns = solve_nutrient(KineticsSpec(), 1.0, grid801)
    assert np.all(np.diff(ns.c.values) >= -1e-14)
    assert np.all(ns.c.values >= -1e-14)


def test_saturating_family_residual_small(grid801):
    ns = solve_nutrient(KineticsSpec(family="saturating"), 0.7, grid801)
    assert ns.residual <= 1e-8


def test_sensitivity_matches_difference_quotient(grid801):
    spec = KineticsSpec()
    z = 0.4
    h = 1e-5
    base = solve_nutrient(spec, z, grid801)
    sens = solve_sensitivity(spec, base)
    hi = solve_nutrient(spec, z + h, grid801)
    lo = solve_nutrient(spec, z - h, grid801)
    fd = (hi.c.values - lo.c.values) / (2 * h)
    assert np.max(np.abs(sens.c_z.values - fd)) <= 1e-6


def test_larger_radius_depletes_center(grid801):
    spec = KineticsSpec()
    small = solve_nutrient(spec, -1.0, grid801)
    large = solve_nutrient(spec, 1.5, grid801)
    assert large.c.values[0] < small.c.values[0]


def test_cold_solve_converges_in_few_newton_steps(grid201):
    # from c = 1 the profile at z = 2.9 dips below 0 on the way; the
    # Jacobian is zero there, as the slope of the clipped source is, so
    # Newton converges fast and lands on the profile a solve warm-started
    # at z = 2.5 finds
    spec = KineticsSpec(family="saturating")
    cold = solve_nutrient(spec, 2.9, grid201)
    assert 0 < cold.newton_iterations <= 12
    assert cold.residual <= nutrient.RESIDUAL_TOL
    warm = solve_nutrient(spec, 2.9, grid201, solve_nutrient(spec, 2.5, grid201).c.values)
    assert np.max(np.abs(cold.c.values - warm.c.values)) <= 1e-8


@pytest.mark.parametrize("n", [201, 801])
def test_cold_saturating_solves_converge_on_grid(n):
    # the 38 of these 96 cases that raised before the Jacobian matched the
    # clip included every z >= 3 for lam >= 1
    grid = RadialGrid.uniform(n)
    for lam in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        for b_rate in (1.0, 3.0):
            spec = KineticsSpec(family="saturating", lam=lam, b_rate=b_rate)
            for z in (-3.0, 0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0):
                assert solve_nutrient(spec, z, grid).newton_iterations <= 12, (lam, z)


rate = st.floats(1e-3, 10.0)


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(0.1, 10.0), b_rate=rate, d_rate=rate, p_rate=rate,
       q_rate=rate, z=st.floats(-3.0, 8.0))
def test_cold_saturating_solve_converges(grid201, lam, b_rate, d_rate, p_rate,
                                         q_rate, z):
    spec = KineticsSpec(lam=lam, b_rate=b_rate, d_rate=d_rate, p_rate=p_rate,
                        q_rate=q_rate, family="saturating")
    assert solve_nutrient(spec, z, grid201).residual <= nutrient.RESIDUAL_TOL


def test_solve_on_the_rounding_floor_raises(grid201):
    # at z = 9.5 the source reaches e^19 and rounding holds the Numerov
    # residual just above the tolerance: Newton stops when a step no longer
    # lowers it, and the shooting defect takes the error as its sign
    spec = KineticsSpec(family="saturating", lam=2.0)
    with pytest.raises(SolverError) as err:
        solve_nutrient(spec, 9.5, grid201)
    assert err.value.residual > nutrient.RESIDUAL_TOL
    assert f"stalled at residual {err.value.residual:.3e}" in str(err.value)
    defect, done, error = stationary._shoot_residual(spec, 9.5, grid201)
    assert (defect, done) == (-1.0, None) and isinstance(error, SolverError)


def test_nutrient_scale_just_inside_the_floats(grid201):
    # just inside the ends of the affine guard (k a normal float, 2k finite)
    # the profile is finite; a saturating source scale e^{2z} that
    # underflows to 0 leaves c = 1
    for z in (-708.3, 709.08):
        c, cp = affine_profile(KineticsSpec(), z, grid201.nodes)
        assert np.all(np.isfinite(cp)) and c[-1] == 1.0
    sat = solve_nutrient(KineticsSpec(family="saturating"), -800.0, grid201)
    assert np.all(sat.c.values == 1.0)


def test_overflowing_numerov_residual_raises(grid201):
    # at z = 354 the saturating source scale e^{2z} (about 3e307) is finite
    # but the Numerov stencil sum of the source is not: a SolverError,
    # raised without a warning (tier-1 turns warnings into errors)
    with pytest.raises(SolverError, match="stalled at residual inf"):
        solve_nutrient(KineticsSpec(family="saturating"), 354.0, grid201)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("z", [-1.0, 0.0, 1.0, 2.8159])
def test_numerov_matches_affine_closed_form(lam, z, grid801):
    # solve_nutrient takes the exact profile for the affine law, so the
    # Numerov solvers the other laws use are checked against it directly
    spec = KineticsSpec(lam=lam)
    num = nutrient._solve_at(spec, z, grid801)
    c, _ = affine_profile(spec, z, grid801.nodes)
    assert np.max(np.abs(num.c.values - c)) <= 1e-8
    exact_cz = solve_sensitivity(spec, num).c_z.values
    numerov_cz = nutrient._numerov_sensitivity(spec, num)
    assert np.max(np.abs(numerov_cz - exact_cz)) <= 1e-8


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(0.1, 10.0), z=st.floats(-3.0, 9.0))
def test_affine_profile_properties(lam, z):
    spec = KineticsSpec(lam=lam)
    k = np.sqrt(lam) * np.exp(z)
    r = np.linspace(0.0, 1.0, 801)
    c, cp = affine_profile(spec, z, r)
    assert np.array_equal(affine_c(spec, z, r), c)  # the stages read c alone
    assert np.all(np.isfinite(c)) and np.all(np.isfinite(cp))
    assert c[-1] == 1.0
    assert cp[0] == 0.0
    assert np.all((c >= 0.0) & (c <= 1.0))
    # c ~ e^{-k(1-r)} falls below the normal doubles deep inside a large
    # tumor (k(1-r) > 700); elsewhere it is positive and strictly increasing
    normal = k * (1.0 - r) < 700.0
    assert np.all(c[~normal] < 1e-290)
    assert np.all(c[normal] > 0.0)
    assert np.all(np.diff(c[normal]) > 0.0)
    assert cp[-1] == pytest.approx(k / np.tanh(k) - 1.0, rel=1e-9, abs=1e-12)
