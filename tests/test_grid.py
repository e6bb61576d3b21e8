import numpy as np
import pytest

from tumorlab.errors import GridMismatchError
from tumorlab.grid import (RadialField, RadialGrid, cumulative_integral,
                           derivative_values, radial_average,
                           require_same_grid, third_moment)


def test_grid_requires_endpoints():
    with pytest.raises(ValueError):
        RadialGrid(np.linspace(0.1, 1.0, 10))
    with pytest.raises(ValueError):
        RadialGrid(np.array([0.0, 0.5, 0.2, 1.0]))


def test_uniform_spacing():
    g = RadialGrid.uniform(101)
    assert g.is_uniform
    assert g.spacing == pytest.approx(0.01)


def test_field_shape_checked():
    g = RadialGrid.uniform(11)
    with pytest.raises(GridMismatchError):
        RadialField(g, np.zeros(10))


def test_field_interpolation_hits_nodes():
    g = RadialGrid.uniform(21)
    f = RadialField(g, np.sin(g.nodes))
    np.testing.assert_allclose(f(g.nodes), f.values, atol=1e-15)


def test_require_same_grid():
    g1, g2 = RadialGrid.uniform(11), RadialGrid.uniform(12)
    f1 = RadialField(g1, np.zeros(11))
    f2 = RadialField(g2, np.zeros(12))
    with pytest.raises(GridMismatchError):
        require_same_grid(f1, f2)


def test_cumulative_integral_linear_exact():
    x = np.linspace(0.0, 1.0, 51)
    out = cumulative_integral(2.0 * x, x)
    np.testing.assert_allclose(out, x * x, atol=1e-14)


def test_radial_average_constant():
    g = RadialGrid.uniform(201)
    u = radial_average(np.ones(g.size), g.nodes)
    np.testing.assert_allclose(u, g.nodes / 3.0, atol=1e-14)


def test_third_moment_constant_limit():
    g = RadialGrid.uniform(201)
    out = third_moment(np.full(g.size, 6.0), g.nodes)
    np.testing.assert_allclose(out, 2.0, atol=1e-13)
    assert out[0] == pytest.approx(2.0)


def test_derivative_fourth_order():
    g = RadialGrid.uniform(101)
    d = derivative_values(np.exp(g.nodes), g)
    err = np.max(np.abs(d - np.exp(g.nodes)))
    assert err <= 1e-8
