"""Quasi-static radial nutrient diffusion.

Solves c'' + (2/r) c' = e^{2z} F(c) on [0,1] with c'(0)=0, c(1)=1, where z is
the log tumor radius, plus the z-sensitivity field c_z obtained from the
differentiated problem c_z'' + (2/r) c_z' = e^{2z} [F'(c) c_z + 2 F(c)],
c_z'(0)=0, c_z(1)=0.

For the affine law F(c) = lam c the problem is linear and its solution is
exact: c = sinh(kr) / (r sinh k) with k = sqrt(lam) e^z (affine_c, with c'
in affine_profile, and the plain-float affine_value for one radius at a
time).  Every other law is solved numerically: the substitution v = r c
turns the operator into a plain second derivative, v'' = r e^{2z} F(v/r),
v(0)=0, v(1)=1, which a Numerov discretization solves to fourth order; a
damped Newton iteration handles the nonlinearity.  F is read at c clipped to
[0, 1] and the Jacobian is zero wherever the iterate leaves that interval, so
a cold start from c = 1 converges in about a dozen steps, with no
continuation in z.  Numerov needs equal spacing, which every RadialGrid has
by construction.
"""

import math
import sys
from dataclasses import dataclass, replace

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
    newton_iterations counts the Newton steps of a numerical solve (0 for
    the exact affine profile).
    """

    z: float
    c: RadialField
    c_prime: RadialField
    c_z: RadialField = None
    residual: float = 0.0
    newton_iterations: int = 0

    @property
    def grid(self):
        return self.c.grid


def _affine_k(spec, z):
    """k = sqrt(lam) e^z of the affine law at log-radius z; SolverError
    unless k is a positive normal float and 2k is finite (a subnormal k
    overflows 1 / k in c', an infinite 2k makes -2k r NaN at r = 0)."""
    try:
        k = math.sqrt(spec.lam) * math.exp(z)
    except (ValueError, OverflowError):  # lam < 0, or e^z past the float range
        k = math.nan
    if not (sys.float_info.min <= k and 2.0 * k < math.inf):
        raise SolverError("the affine nutrient scale k = sqrt(lam) e^z is no positive "
                          f"normal float with 2k finite at lam={spec.lam}, z={z}")
    return k


def affine_c(spec, z, r):
    """Exact c of the affine law F(c) = lam c at the radii r in [0,1].

    c = sinh(kr) / (r sinh k) with k = sqrt(lam) e^z, evaluated through
    sinh(kr) / sinh k = e^{k(r-1)} expm1(-2kr) / expm1(-2k), which stays
    finite at any k (sinh itself overflows above k ~ 710).  At r = 0,
    c = k / sinh k from the same form.
    """
    k = _affine_k(spec, z)
    m2k = -2.0 * k
    em_k = np.expm1(m2k)  # numpy's, like em below, so that c(1) = 1 exactly
    r = np.asarray(r, dtype=float)
    ex = np.exp(k * (r - 1.0))
    em = np.expm1(m2k * r)
    inner = r > 0.0
    return np.where(inner, ex * em / (em_k * np.where(inner, r, 1.0)), ex * (m2k / em_k))


def affine_profile(spec, z, r):
    """(c, c') of the affine law: c from affine_c, c' = (k cosh(kr) / sinh k - c) / r
    with cosh(kr) / sinh k = -e^{k(r-1)} (2 + expm1(-2kr)) / expm1(-2k), and 0 at r = 0."""
    k, r = _affine_k(spec, z), np.asarray(r, dtype=float)
    c = affine_c(spec, z, r)
    cosh_ratio = -np.exp(k * (r - 1.0)) * ((2.0 + np.expm1(-2.0 * k * r)) / np.expm1(-2.0 * k))
    return c, np.where(r > 0.0, (k * cosh_ratio - c) / np.where(r > 0.0, r, 1.0), 0.0)


def affine_value(spec, z):
    """Plain-float twin of affine_c at log-radius z: returns c(r)
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


def _divide_by_r(v, nodes):
    """v / r at the nodes, for v = r c with c even; the r = 0 value is that
    of the even quartic a0 + a2 r^2 + a4 r^4 through the first three
    interior nodes."""
    c = np.empty_like(v)
    c[1:] = v[1:] / nodes[1:]
    r1, r2, r3 = nodes[1:4]
    A = np.array([[1.0, r1**2, r1**4], [1.0, r2**2, r2**4], [1.0, r3**2, r3**4]])
    c[0] = np.linalg.solve(A, c[1:4])[0]
    return c


def _numerov_matrix(gj, c12):
    """Banded tridiagonal (solve_banded's layout) of the Numerov scheme for
    the interior unknowns of v'' = g, with dg/dv = gj at all nodes and
    c12 = h^2 / 12."""
    ab = np.zeros((3, gj.size - 2))
    ab[1, :] = -2.0 - 10.0 * c12 * gj[1:-1]
    ab[0, 1:] = 1.0 - c12 * gj[2:-1]  # superdiagonal
    ab[2, :-1] = 1.0 - c12 * gj[1:-2]  # subdiagonal
    return ab


def _solve_numerov(source, source_jac, nodes, v_left, v_right, v_init):
    """Damped Newton on the Numerov discretization of v'' = g(r, v).

    source(v) and source_jac(v) give g and dg/dv at all nodes.  Returns the
    solution, the scheme residual scaled to ODE units (divided by h^2) and
    the number of Newton steps taken.
    """
    h = nodes[1] - nodes[0]
    v = v_init.copy()
    v[0], v[-1] = v_left, v_right
    c12 = h * h / 12.0
    # rounding in the second difference floors the achievable residual at
    # a few ulps of v divided by h^2
    tol = max(RESIDUAL_TOL, 64.0 * np.finfo(float).eps / (h * h))

    def scheme_residual(v):
        g = source(v)
        with np.errstate(over="ignore", invalid="ignore"):  # the stencil sum may overflow
            res = (v[2:] - 2 * v[1:-1] + v[:-2]) - c12 * (g[2:] + 10 * g[1:-1] + g[:-2])
        return res, np.max(np.abs(res)) / (h * h)

    res, rmax = scheme_residual(v)
    for steps in range(MAX_NEWTON_ITERS + 1):
        if rmax <= tol:
            return v, rmax, steps
        if steps == MAX_NEWTON_ITERS or not np.isfinite(rmax):  # no Newton step from inf or NaN
            break
        delta = solve_banded((1, 1), _numerov_matrix(source_jac(v), c12), -res)
        # damping: halve the step until the residual falls; a step that no
        # halving lowers it by is a stall
        for k in range(8):
            trial = v.copy()
            trial[1:-1] += 0.5**k * delta
            trial_res, trial_max = scheme_residual(trial)
            if trial_max < rmax:
                break
        else:
            break
        v, res, rmax = trial, trial_res, trial_max
    raise SolverError(f"nutrient Newton iteration stalled at residual {rmax:.3e}",
                      residual=rmax)


def solve_nutrient(spec, z, grid, c_init=None):
    """Solve the nutrient boundary-value problem at log-radius z.

    Returns a NutrientSolution with c and c' fields (c_z left unset).  The
    affine law takes the exact profile (residual 0.0, c_init unused).  For
    the others c_init optionally warm-starts the Newton iteration with node
    values of c (c = 1 otherwise); a stalled iteration raises SolverError.
    """
    if spec.family == "affine":
        c, cp = affine_profile(spec, z, grid.nodes)
        return NutrientSolution(z=z, c=RadialField(grid, c),
                                c_prime=RadialField(grid, cp))
    return _solve_at(spec, z, grid, c_init)


def _solve_at(spec, z, grid, c_init=None):
    nodes = grid.nodes
    with np.errstate(over="ignore"):
        e2z = np.exp(2.0 * z)
    if not np.isfinite(e2z):
        raise SolverError(f"the nutrient source scale e^(2z) overflows at z={z}")
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
        gj[(c < 0.0) | (c > 1.0)] = 0.0  # where the clipped source is flat
        gj[0] = e2z * eval_rates(spec, 1.0).f_d  # unused row, keep finite
        return gj

    v, rmax, steps = _solve_numerov(source, source_jac, nodes, 0.0, 1.0, c_init * nodes)
    c = _divide_by_r(v, nodes)
    cp = derivative_values(c, grid)
    cp[0] = 0.0  # symmetry boundary condition, exact
    return NutrientSolution(
        z=z,
        c=RadialField(grid, c),
        c_prime=RadialField(grid, cp),
        residual=float(rmax),
        newton_iterations=steps,
    )


def solve_sensitivity(spec, sol):
    """Solve the linear problem for c_z = dc/dz at the solution's z.

    Returns a new NutrientSolution carrying the c_z field.  For the affine
    law c_z is exact: k (cosh(kr)/sinh k - c coth k) = r c' - c'(1) c, which
    is k (1 - k coth k) / sinh k at r = 0 and 0 at r = 1.  Other laws solve
    the z-derivative of the nutrient problem (_numerov_sensitivity).
    """
    grid = sol.grid
    nodes = grid.nodes
    if spec.family == "affine":
        c, cp = affine_profile(spec, sol.z, nodes)
        cz = nodes * cp - cp[-1] * c
    else:
        cz = _numerov_sensitivity(spec, sol)
    return replace(sol, c_z=RadialField(grid, cz))


def _numerov_sensitivity(spec, sol):
    """Node values of c_z from the z-derivative of the nutrient problem.

    Numerov on s = r c_z: s'' = e^{2z} (F'(c) s + 2 r F(c)), s(0) = s(1) = 0.
    The equation is linear in s, so the first Newton step of _solve_numerov
    from s = 0 is the banded solve, and its residual check then stops.
    """
    nodes = sol.grid.nodes
    e2z = np.exp(2.0 * sol.z)
    rv = eval_rates(spec, np.clip(sol.c.values, 0.0, 1.0))
    coef = e2z * rv.f_d  # e^{2z} F'(c), the coefficient of s
    fixed = 2.0 * e2z * nodes * rv.f_val  # the s-independent part
    fixed[0] = 0.0
    s, _, _ = _solve_numerov(lambda s: coef * s + fixed, lambda s: coef, nodes,
                             0.0, 0.0, np.zeros_like(nodes))
    return _divide_by_r(s, nodes)
