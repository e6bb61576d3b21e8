"""Nonlocal radial velocity from mass balance.

Given the cell fraction p and nutrient c, the radial velocity is

    u(r) = r^-2 * integral_0^r g(rho) rho^2 drho,   g = -K_D(c) + K_M(c) p,

and the frame-adjusted velocity w(r) = u(r) - r u(1), which moves the
characteristics, vanishes at both endpoints.
"""

from dataclasses import dataclass

import numpy as np

from .grid import RadialField, radial_average, require_same_grid
from .kinetics import eval_rates


@dataclass(frozen=True)
class VelocityField:
    """The density g and its radial velocity u."""

    g: RadialField
    u: RadialField


def frame_velocity(u, r):
    """w = u - r u(1) at the points r (r[0] = 0, r[-1] = 1), for each row
    of u (last axis)."""
    w = u - r * u[..., -1:]
    # w(0)=w(1)=0 are algebraic identities; enforce against rounding
    w[..., 0] = 0.0
    w[..., -1] = 0.0
    return w


def radial_velocity(p, nutrient, spec):
    """Velocity field for a cell-fraction field and nutrient solution."""
    grid = require_same_grid(p, nutrient.c)
    g = eval_rates(spec, np.clip(nutrient.c.values, 0.0, 1.0)).g(p.values)
    u = radial_average(g, grid.nodes)
    return VelocityField(g=RadialField(grid, g), u=RadialField(grid, u))
