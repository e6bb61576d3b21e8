import numpy as np
import pytest

from tumorlab.grid import RadialField, RadialGrid
from tumorlab.kinetics import KineticsSpec
from tumorlab.nutrient import (NutrientSolution, solve_nutrient,
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


def test_non_uniform_grid_rejected():
    grid = RadialGrid(np.array([0.0, 0.1, 0.25, 0.45, 0.7, 1.0]))
    with pytest.raises(ValueError, match="uniform grid"):
        solve_nutrient(KineticsSpec(), 0.0, grid)
    ones = RadialField(grid, np.ones(grid.size))
    sol = NutrientSolution(z=0.0, c=ones, c_prime=ones.with_values(np.zeros(grid.size)))
    with pytest.raises(ValueError, match="uniform grid"):
        solve_sensitivity(KineticsSpec(), sol)
