import numpy as np
import pytest

from tumorlab.grid import RadialField, radial_average
from tumorlab.nutrient import solve_nutrient
from tumorlab.velocity import frame_velocity, radial_velocity


def test_constant_density_gives_linear_velocity(grid801):
    # g = 3 gives u(r) = r exactly
    u = radial_average(3.0 * np.ones(grid801.size), grid801.nodes)
    assert np.max(np.abs(u - grid801.nodes)) <= 1e-12


def test_polynomial_density_quadrature_accuracy(grid801):
    # g = 5 r^2 gives u(r) = r^3
    r = grid801.nodes
    u = radial_average(5.0 * r * r, grid801.nodes)
    # the quartic moment integrand is beyond Simpson exactness; the 1/r^2
    # prefactor amplifies the panel error near the origin
    assert np.max(np.abs(u - r ** 3)) <= 1e-8


def test_frame_adjusted_velocity_vanishes_at_endpoints(grid801):
    r = grid801.nodes
    u = radial_average(np.cos(2 * r) - 0.4, r)
    w = frame_velocity(u, r)
    assert w[0] == 0.0
    assert w[-1] == 0.0
    np.testing.assert_array_equal(w[1:-1], u[1:-1] - r[1:-1] * u[-1])


@pytest.mark.parametrize("size", [201, 801])
@pytest.mark.parametrize("rows", [1, 2, 9])
def test_frame_velocity_rows_match_one_row_each(rng, size, rows):
    # Picard takes the frame velocities of a block's path states in one
    # batch; each row must keep the bits it has alone
    r = np.linspace(0.0, 1.0, size)
    g = rng.standard_normal((rows, size)) + np.cos(np.arange(1, rows + 1)[:, None] * r)
    w = frame_velocity(radial_average(g, r), r)
    assert w.shape == g.shape
    for one, row in zip(g, w):
        assert np.array_equal(frame_velocity(radial_average(one, r), r), row)


def test_velocity_from_state_negative_near_boundary(grid801, default_spec):
    # a depleted interior with p below the death/growth balance pulls inward
    ns = solve_nutrient(default_spec, 2.0, grid801)
    p = RadialField(grid801, np.full(grid801.size, 0.2))
    field = radial_velocity(p, ns, default_spec)
    assert field.u.values[0] == 0.0
    assert field.u.values[-1] < 0


def test_grid_mismatch_raises(default_spec, grid801, grid201):
    from tumorlab.errors import GridMismatchError
    ns = solve_nutrient(default_spec, 0.0, grid801)
    p = RadialField(grid201, np.full(grid201.size, 0.5))
    with pytest.raises(GridMismatchError):
        radial_velocity(p, ns, default_spec)
