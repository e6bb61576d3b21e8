"""Quasi-static radial nutrient diffusion.

Solves c'' + (2/r) c' = e^{2z} F(c) on [0,1] with c'(0)=0, c(1)=1, where z is
the log tumor radius, plus the z-sensitivity field c_z obtained from the
differentiated problem c_z'' + (2/r) c_z' = e^{2z} [F'(c) c_z + 2 F(c)],
c_z'(0)=0, c_z(1)=0.

For the affine law F(c) = lam c the problem is linear and its solution is
exact: c = sinh(kr) / (r sinh k) with k = sqrt(lam) e^z (affine_profile, and
the plain-float affine_value for one radius at a time).  Every other law is
solved numerically: on uniform grids the substitution v = r c turns the
operator into a plain second derivative, v'' = r e^{2z} F(v/r), v(0)=0,
v(1)=1, which a Numerov discretization solves to fourth order; a damped
Newton iteration handles the nonlinearity.  Both solvers need a uniform grid
and raise ValueError on any other.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import SolverError
from .grid import RadialField, derivative_values
from .kinetics import eval_rates

MAX_NEWTON_ITERS = 50
RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class NutrientSolution:
    """Converged nutrient profile at one log-radius z.

    c_z is filled in by solve_sensitivity and is None until then.
    """

    z: float
    c: RadialField
    c_prime: RadialField
    c_z: RadialField = None
    residual: float = 0.0

    @property
    def grid(self):
        return self.c.grid

    def with_sensitivity(self, c_z):
        return NutrientSolution(self.z, self.c, self.c_prime, c_z, self.residual)


def _affine_k(spec, z):
    """k = sqrt(lam) e^z of the affine law at log-radius z."""
    return math.sqrt(spec.lam) * math.exp(z)


def affine_profile(spec, z, r):
    """Exact (c, c') of the affine law F(c) = lam c at the radii r in [0,1].

    c = sinh(kr) / (r sinh k) with k = sqrt(lam) e^z, evaluated through
    sinh(kr) / sinh k = e^{k(r-1)} expm1(-2kr) / expm1(-2k) and
    cosh(kr) / sinh k = -e^{k(r-1)} (2 + expm1(-2kr)) / expm1(-2k), which
    stay finite at any k (sinh itself overflows above k ~ 710).  At r = 0,
    c = k / sinh k from the same form and c' = 0 exactly.
    """
    k = _affine_k(spec, z)
    m2k = -2.0 * k
    em_k = np.expm1(m2k)  # numpy's, like em below, so that c(1) = 1 exactly
    r = np.asarray(r, dtype=float)
    ex = np.exp(k * (r - 1.0))
    em = np.expm1(m2k * r)
    inner = r > 0.0
    rr = np.where(inner, r, 1.0)
    c = np.where(inner, ex * em / (em_k * rr), ex * (m2k / em_k))
    cosh_ratio = -ex * ((2.0 + em) / em_k)
    cp = np.where(inner, (k * cosh_ratio - c) / rr, 0.0)
    return c, cp


def affine_value(spec, z):
    """Plain-float twin of affine_profile's c at log-radius z: returns c(r)
    for one radius r, in the same operations (math's exp and expm1 may
    round a few ulp away from numpy's)."""
    k = _affine_k(spec, z)
    m2k = -2.0 * k
    em_k = math.expm1(m2k)
    exp, expm1 = math.exp, math.expm1

    def value(r):
        if r > 0.0:
            return exp(k * (r - 1.0)) * expm1(m2k * r) / (em_k * r)
        return exp(k * (r - 1.0)) * (m2k / em_k)

    return value


def _extrapolate_center(nodes, vals):
    """Value at r=0 of an even function sampled at the first three interior
    nodes, via the quartic even model a0 + a2 r^2 + a4 r^4."""
    r1, r2, r3 = nodes[1:4]
    A = np.array(
        [
            [1.0, r1**2, r1**4],
            [1.0, r2**2, r2**4],
            [1.0, r3**2, r3**4],
        ]
    )
    coeff = np.linalg.solve(A, vals[1:4])
    return coeff[0]


def _solve_numerov(source, source_jac, nodes, v_left, v_right, v_init):
    """Damped Newton on the Numerov discretization of v'' = g(r, v).

    source(v) and source_jac(v) give g and dg/dv at all nodes.  Returns the
    solution and the scheme residual scaled to ODE units (divided by h^2).
    """
    m = nodes.size
    h = nodes[1] - nodes[0]
    v = v_init.copy()
    v[0], v[-1] = v_left, v_right
    c12 = h * h / 12.0
    # rounding in the second difference floors the achievable residual at
    # a few ulps of v divided by h^2
    tol = max(RESIDUAL_TOL, 64.0 * np.finfo(float).eps / (h * h))

    def scheme_residual(v):
        g = source(v)
        res = (v[2:] - 2 * v[1:-1] + v[:-2]) - c12 * (g[2:] + 10 * g[1:-1] + g[:-2])
        return res

    last = np.inf
    for _ in range(MAX_NEWTON_ITERS):
        res = scheme_residual(v)
        rmax = np.max(np.abs(res)) / (h * h)
        if rmax <= tol:
            return v, rmax
        gj = source_jac(v)
        # tridiagonal Jacobian in banded form for the interior unknowns
        n = m - 2
        ab = np.zeros((3, n))
        ab[1, :] = -2.0 - 10.0 * c12 * gj[1:-1]
        ab[0, 1:] = 1.0 - c12 * gj[2:-1]  # superdiagonal
        ab[2, :-1] = 1.0 - c12 * gj[1:-2]  # subdiagonal
        delta = solve_banded((1, 1), ab, -res)
        # damping: halve the step until the residual stops growing
        step = 1.0
        for _ in range(8):
            trial = v.copy()
            trial[1:-1] += step * delta
            tmax = np.max(np.abs(scheme_residual(trial))) / (h * h)
            if tmax < rmax or tmax < tol:
                break
            step *= 0.5
        v = trial
        if tmax >= last and tmax > tol:
            break
        last = tmax
    rmax = np.max(np.abs(scheme_residual(v))) / (h * h)
    if rmax > tol:
        raise SolverError(
            f"nutrient Newton iteration stalled at residual {rmax:.3e}", residual=rmax
        )
    return v, rmax


def solve_nutrient(spec, z, grid, c_init=None):
    """Solve the nutrient boundary-value problem at log-radius z.

    Returns a NutrientSolution with c and c' fields (c_z left unset).  The
    affine law takes the exact profile (residual 0.0, c_init unused).  For
    the others c_init optionally warm-starts the Newton iteration with node
    values of c; if the Newton iteration stalls (steep depletion layers at
    large radius), the solve is retried by continuation in z from a milder
    radius.
    """
    if spec.family == "affine":
        _require_uniform(grid)
        c, cp = affine_profile(spec, z, grid.nodes)
        return NutrientSolution(z=z, c=RadialField(grid, c),
                                c_prime=RadialField(grid, cp))
    try:
        return _solve_at(spec, z, grid, c_init)
    except SolverError:
        pass
    # continuation: walk z up from a mild radius, warm-starting each step
    sol = None
    for zz in np.linspace(z - 2.0, z, 9):
        sol = _solve_at(spec, zz, grid,
                        sol.c.values if sol is not None else None)
    return sol


def _require_uniform(grid):
    if not grid.is_uniform:
        raise ValueError("the nutrient solvers need a uniform grid")


def _solve_at(spec, z, grid, c_init=None):
    _require_uniform(grid)
    nodes = grid.nodes
    e2z = np.exp(2.0 * z)
    if c_init is None:
        c_init = np.ones_like(nodes)

    def source(v):
        c = np.empty_like(v)
        c[1:] = v[1:] / nodes[1:]
        c[0] = 0.0  # r * F(c) vanishes at the origin regardless of c(0)
        g = np.empty_like(v)
        g[1:] = nodes[1:] * e2z * eval_rates(spec, np.clip(c[1:], 0.0, 1.0)).f_val
        g[0] = 0.0
        return g

    def source_jac(v):
        c = np.ones_like(v)
        c[1:] = v[1:] / nodes[1:]
        gj = e2z * eval_rates(spec, np.clip(c, 0.0, 1.0)).f_d
        gj[0] = e2z * eval_rates(spec, 1.0).f_d  # unused row, keep finite
        return gj

    v, rmax = _solve_numerov(source, source_jac, nodes, 0.0, 1.0, c_init * nodes)
    c = np.empty_like(v)
    c[1:] = v[1:] / nodes[1:]
    c[0] = _extrapolate_center(nodes, c)
    cp = derivative_values(c, nodes)
    cp[0] = 0.0  # symmetry boundary condition, exact
    return NutrientSolution(
        z=z,
        c=RadialField(grid, c),
        c_prime=RadialField(grid, cp),
        residual=float(rmax),
    )


def solve_sensitivity(spec, sol):
    """Solve the linear problem for c_z = dc/dz at the solution's z.

    Returns a new NutrientSolution carrying the c_z field.  For the affine
    law c_z is exact: k (cosh(kr)/sinh k - c coth k) = r c' - c'(1) c, which
    is k (1 - k coth k) / sinh k at r = 0 and 0 at r = 1.  Other laws solve
    the z-derivative of the nutrient problem (_numerov_sensitivity).
    """
    grid = sol.grid
    _require_uniform(grid)
    nodes = grid.nodes
    if spec.family == "affine":
        c, cp = affine_profile(spec, sol.z, nodes)
        cz = nodes * cp - cp[-1] * c
    else:
        cz = _numerov_sensitivity(spec, sol)
    return sol.with_sensitivity(RadialField(grid, cz))


def _numerov_sensitivity(spec, sol):
    """Node values of c_z from the z-derivative of the nutrient problem.

    The equation is linear in c_z, so a single banded Numerov solve
    suffices.
    """
    nodes = sol.grid.nodes
    e2z = np.exp(2.0 * sol.z)
    c = sol.c.values
    rv = eval_rates(spec, np.clip(c, 0.0, 1.0))
    # Numerov on s = r * c_z: s'' = e^{2z} (F'(c) s + 2 r F(c)),
    # s(0) = 0, s(1) = 0.
    m = nodes.size
    h = nodes[1] - nodes[0]
    c12 = h * h / 12.0
    gj = e2z * rv.f_d  # coefficient of s
    rhs_part = 2.0 * e2z * nodes * rv.f_val  # s-independent part
    rhs_part[0] = 0.0
    n = m - 2
    ab = np.zeros((3, n))
    ab[1, :] = -2.0 - 10.0 * c12 * gj[1:-1]
    ab[0, 1:] = 1.0 - c12 * gj[2:-1]
    ab[2, :-1] = 1.0 - c12 * gj[1:-2]
    rhs = c12 * (rhs_part[2:] + 10.0 * rhs_part[1:-1] + rhs_part[:-2])
    s = np.zeros(m)
    s[1:-1] = solve_banded((1, 1), ab, rhs)
    cz = np.empty(m)
    cz[1:] = s[1:] / nodes[1:]
    cz[0] = _extrapolate_center(nodes, cz)
    cz[-1] = 0.0
    return cz
