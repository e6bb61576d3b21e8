"""Radial grids on [0,1] and fields living on them.

Everything downstream (nutrient, velocity, transport, linearization) stores
functions of r as node values on a shared RadialGrid and interpolates with a
monotone piecewise cubic (PCHIP), which preserves monotone profiles during
particle regridding.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import PchipInterpolator

from .errors import GridMismatchError


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing nodes spanning [0,1], both endpoints included."""

    nodes: np.ndarray
    is_uniform: bool = field(init=False, repr=False, compare=False)
    _spacing: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("grid needs at least 3 one-dimensional nodes")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError("grid must include both endpoints 0 and 1")
        h = np.diff(nodes)
        if np.any(h <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        nodes.setflags(write=False)
        # set once: the solvers read both on every call
        uniform = np.allclose(h, h[0], rtol=1e-12, atol=1e-15)
        object.__setattr__(self, "is_uniform", uniform)
        object.__setattr__(self, "_spacing", (nodes[-1] - nodes[0]) / (nodes.size - 1))

    @classmethod
    def uniform(cls, size=801):
        return cls(np.linspace(0.0, 1.0, size))

    @property
    def size(self):
        return self.nodes.size

    @property
    def spacing(self):
        """Uniform spacing h; raises for non-uniform grids."""
        if not self.is_uniform:
            raise ValueError("spacing is only defined for uniform grids")
        return self._spacing

    def __eq__(self, other):
        return isinstance(other, RadialGrid) and np.array_equal(self.nodes, other.nodes)

    def __hash__(self):
        return hash((self.nodes.size, float(self.nodes[1])))


@dataclass(frozen=True)
class RadialField:
    """Node values of a function of r with a monotone-cubic interpolation rule."""

    grid: RadialGrid
    values: np.ndarray
    interpolation: str = "pchip"
    _interp: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise GridMismatchError(
                f"field has {values.size} values for a grid of size {self.grid.size}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values.setflags(write=False)

    def interpolator(self):
        if self._interp is None:
            object.__setattr__(
                self, "_interp", PchipInterpolator(self.grid.nodes, self.values)
            )
        return self._interp

    def __call__(self, r):
        return self.interpolator()(r)

    def derivative(self, r):
        return self.interpolator().derivative()(r)

    def with_values(self, values):
        return RadialField(self.grid, values, self.interpolation)


def require_same_grid(*fields):
    g0 = fields[0].grid
    for f in fields[1:]:
        if f.grid != g0:
            raise GridMismatchError("fields live on different grids")
    return g0


def cumulative_integral(values, nodes):
    """Cumulative integral of node values from nodes[0], composite Simpson."""
    return cumulative_simpson(values, x=nodes, initial=0.0)


def radial_average(integrand, nodes):
    """u(r) = r^-2 * integral_0^r integrand(rho) rho^2 drho on the nodes.

    The 0/0 at the origin is removed by the series u(r) = g(0) r / 3 + O(r^3),
    which gives u(0) = 0 exactly.  Near the origin the Simpson error is
    amplified by the 1/r^2 prefactor, so the first few panels are integrated
    exactly against a cubic fit of the integrand instead.
    """
    integrand = np.asarray(integrand, dtype=float)
    moment = cumulative_integral(integrand * nodes * nodes, nodes)
    k = min(5, nodes.size)
    coef = np.polynomial.polynomial.polyfit(nodes[:k], integrand[:k], min(3, k - 1))
    start = np.zeros(k)
    for j, cj in enumerate(coef):
        start += cj / (j + 3) * nodes[:k] ** (j + 3)
    moment[k:] += start[k - 1] - moment[k - 1]
    moment[:k] = start
    u = np.empty_like(moment)
    u[1:] = moment[1:] / (nodes[1:] * nodes[1:])
    u[0] = 0.0
    return u


def third_moment(values, nodes):
    """r^-3 * integral_0^r values(rho) rho^2 drho with exact origin limit v(0)/3."""
    avg = radial_average(values, nodes)
    out = np.empty_like(avg)
    out[1:] = avg[1:] / nodes[1:]
    out[0] = values[0] / 3.0
    return out


def derivative_values(values, nodes):
    """Node derivatives: 4th-order central stencils on uniform grids
    (one-sided 5-point at the edges), np.gradient otherwise.
    """
    nodes = np.asarray(nodes, dtype=float)
    h = np.diff(nodes)
    if not np.allclose(h, h[0], rtol=1e-12, atol=1e-15):
        return np.gradient(values, nodes, edge_order=2)
    h = h[0]
    v = np.asarray(values, dtype=float)
    d = np.empty_like(v)
    d[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
    # one-sided / skewed 5-point stencils, also 4th order
    d[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)
    d[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12 * h)
    d[-2] = (3 * v[-1] + 10 * v[-2] - 18 * v[-3] + 6 * v[-4] - v[-5]) / (12 * h)
    d[-1] = (25 * v[-1] - 48 * v[-2] + 36 * v[-3] - 16 * v[-4] + 3 * v[-5]) / (12 * h)
    return d
