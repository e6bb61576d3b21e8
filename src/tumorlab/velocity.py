"""Nonlocal radial velocity from mass balance.

Given the cell fraction p and nutrient c, the radial velocity is

    u(r) = r^-2 * integral_0^r [ -K_D(c) + K_M(c) p ] rho^2 drho,

and the frame-adjusted velocity w(r) = u(r) - r u(1) vanishes at both
endpoints.  The transport operator's norm is controlled by sup |w / (r(1-r))|,
so that weighted quotient is computed alongside with its analytic endpoint
limits w'(0) and -w'(1).
"""

from dataclasses import dataclass

import numpy as np

from .grid import RadialField, radial_average, require_same_grid
from .kinetics import eval_rates


@dataclass(frozen=True)
class VelocityField:
    u: RadialField
    w: RadialField
    u_boundary: float
    w_over_weight: RadialField

    @property
    def grid(self):
        return self.u.grid


def frame_velocity(u, r):
    """w = u - r u(1) at the points r (r[0] = 0, r[-1] = 1)."""
    w = u - r * u[-1]
    # w(0)=w(1)=0 are algebraic identities; enforce against rounding
    w[0] = 0.0
    w[-1] = 0.0
    return w


def radial_velocity(p, nutrient, spec):
    """Velocity field for a cell-fraction field and nutrient solution."""
    grid = require_same_grid(p, nutrient.c)
    rv = eval_rates(spec, np.clip(nutrient.c.values, 0.0, 1.0))
    return velocity_from_density(-rv.kd + rv.km * p.values, grid)


def velocity_from_density(g, grid):
    """VelocityField of the integrand density g = -K_D + K_M p on the grid."""
    g = np.asarray(g, dtype=float)
    nodes = grid.nodes
    u_vals = radial_average(g, nodes)
    u1 = float(u_vals[-1])
    w_vals = frame_velocity(u_vals, nodes)
    weight = nodes * (1.0 - nodes)
    q = np.empty_like(w_vals)
    q[1:-1] = w_vals[1:-1] / weight[1:-1]
    # limits: w/(r(1-r)) -> w'(0) at 0 and -w'(1) at 1, with
    # u'(0) = g(0)/3 and u'(1) = g(1) - 2 u(1)
    q[0] = g[0] / 3.0 - u1
    q[-1] = -(g[-1] - 2.0 * u1 - u1)
    return VelocityField(
        u=RadialField(grid, u_vals),
        w=RadialField(grid, w_vals),
        u_boundary=u1,
        w_over_weight=RadialField(grid, q),
    )
