"""Stationary solution of the reduced tumor system.

The equilibrium (c_*, p_*, u_*, z_*) satisfies

    u_* p_*' = f(r, p_*, z_*),
    u_*' + (2/r) u_* = -K_D(c_*) + K_M(c_*) p_*,
    u_*(0) = u_*(1) = 0,

with c_* the nutrient profile at z_*.  Both endpoints of the p equation are
singular: u_* has simple zeros there.  The profile is found by shooting on the
log radius z: for each z the (p, u) pair is integrated from r=1 toward r=0,
and the leftover mass-balance defect (equivalently u(1) of the forward form)
drives a Brent root-find.  The shooting reads the exact c for the affine law
and the PCHIP of the numerical nutrient solve for the other laws.

Integration runs from r=1 inward because the p=1 endpoint is the attracting
one in that direction; integrating outward from r=0 the deviation modes grow
like (1-r)^{-gamma} near r=1 and generic trajectories leave [0,1].  The r=0
endpoint data (the quadratic root p_0 of f(0, p, z)=0 and the Frobenius
exponent of p - p_0) are kept as diagnostics.
"""

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import SolverError
from .grid import RadialField, derivative_values
from .kinetics import (eval_rates, reaction_f, reaction_f_dc, reaction_f_dp,
                       scalar_rates)
from .nutrient import affine_value, solve_nutrient, solve_sensitivity
from .velocity import radial_velocity

DEFAULT_BRACKET = (-2.0, 3.5)
SHOOT_RTOL = 1e-12
SHOOT_ATOL = 1e-14
R_START_DEFAULT = 1e-4
BOUNDARY_OFFSET = 1e-6  # series start distance from r=1


@dataclass(frozen=True)
class StationarySolution:
    z_star: float
    c_star: RadialField
    c_z: RadialField
    p_star: RadialField
    u_star: RadialField
    p0: float
    alpha_hat: float = np.nan
    residual_report: dict = field(default_factory=dict)

    @property
    def R_star(self):
        return float(np.exp(self.z_star))

    @property
    def grid(self):
        return self.p_star.grid


def boundary_root(spec, c0):
    """Center value p_0: the root in (0,1] of f(0, p) = 0 with df/dp < 0.

    f is the quadratic K_P + (K_M - K_N) p - K_M p^2 evaluated at the center
    nutrient level c0; the attracting root (negative p-slope) is the one the
    continuous profile reaches, the other cannot be approached along the
    singular ODE.
    """
    rv = eval_rates(spec, c0)
    km, kn, kp = float(rv.km), float(rv.kn), float(rv.kp)
    disc = (km - kn) ** 2 + 4.0 * km * kp
    if disc < 0:
        raise SolverError("no real root of the center quadratic (inconsistent rates)")
    root = ((km - kn) + np.sqrt(disc)) / (2.0 * km)  # df/dp = -sqrt(disc) < 0 here
    if not 0.0 < root <= 1.0 + 1e-12:
        raise SolverError(f"attracting center root {root} outside (0,1]")
    return min(root, 1.0)


def _boundary_series(spec, nutrient):
    """One-sided expansion of (p, J) at r=1, J(r) = -int_r^1 g rho^2 drho.

    Uses p(1)=1 (the bounded root of f(1, p)=0) and L'Hopital for p'(1).
    Returns (p_init, J_init, p1_prime) at r = 1 - BOUNDARY_OFFSET.
    """
    rv1 = eval_rates(spec, 1.0)
    km1, kn1 = float(rv1.km), float(rv1.kn)
    fp1 = (km1 - kn1) - 2.0 * km1
    cp1 = float(nutrient.c_prime(1.0))
    fc1 = float(reaction_f_dc(spec, 1.0, 1.0))
    # u'(1) = g(1) = K_M(1) since K_D(1)=0 and p(1)=1
    p1_prime = fc1 * cp1 / (km1 - fp1)
    g1 = km1
    g1_prime = float(-rv1.kd_d + rv1.km_d) * cp1 + km1 * p1_prime
    d = BOUNDARY_OFFSET
    p_init = 1.0 - p1_prime * d
    J_init = -g1 * d + (g1_prime + 2.0 * g1) * d * d / 2.0
    return p_init, J_init, p1_prime


def _scalar_pchip(radial_field):
    """Plain-float evaluator of a RadialField's PCHIP at one radius.

    Gives the same floats as radial_field(r): the interval is the one
    scipy's PPoly picks (half-open on the right, the last one closed) and
    the cubic is summed in PPoly's order.  The coefficient tables are
    array('d') rather than lists: a closure handed to solve_ivp lives in a
    reference cycle with the solver until the garbage collector runs.
    """
    interp = radial_field.interpolator()
    xs = array("d", interp.x)
    k0, k1, k2, k3 = (array("d", row) for row in interp.c)
    last = len(xs) - 2

    def value(r):
        i = min(max(bisect_right(xs, r) - 1, 0), last)
        s = r - xs[i]
        ss = s * s
        return ((k3[i] + k2[i] * s) + k1[i] * ss) + k0[i] * (ss * s)

    return value


def _shooting_rhs(spec, nutrient):
    """Right-hand side (p, J)' of the shooting ODE on plain floats.

    c is the exact profile for the affine law (affine_value) and the
    nutrient PCHIP otherwise (_scalar_pchip, the same floats as
    nutrient.c).  The rest gives the same floats as eval_rates and
    reaction_f on numpy scalars (scalar_rates repeats eval_rates'
    operations); the clamp of c to [0,1] stands in for eval_rates' domain
    check.
    """
    if spec.family == "affine":
        c_at = affine_value(spec, nutrient.z)
    else:
        c_at = _scalar_pchip(nutrient.c)

    def rhs(r, y):
        p, J = y.tolist()
        c = min(max(c_at(r), 0.0), 1.0)
        kp, kd, km, kn = scalar_rates(spec, c)
        f = kp + (km - kn) * p - km * p * p
        return [f * r * r / J, (-kd + km * p) * r * r]

    return rhs


def integrate_profile(spec, z, grid, r_start=R_START_DEFAULT, dense=False):
    """Integrate the stationary (p, u) pair at a trial log radius z.

    Integration goes from r = 1 (series start, p(1)=1) down to r_start with
    state (p, J), J(r) = -int_r^1 [-K_D + K_M p] rho^2 drho and u = J/r^2
    under the boundary condition u(1)=0.  The returned diagnostics carry the
    shooting defect: u1_defect = -(J(r_start) - g(0) r_start^3 / 3), which is
    the u(1) value the forward form would report and vanishes at z_*.

    Raises SolverError if u reaches 0 in the interior (invalid z regime) or
    if p leaves [0,1]; diagnostics in the exception note the exit radius.
    """
    nutrient = solve_nutrient(spec, z, grid)
    cf = nutrient.c
    p_init, J_init, p1_prime = _boundary_series(spec, nutrient)
    rhs = _shooting_rhs(spec, nutrient)

    def u_zero(r, y):
        return y[1]  # J crossing 0 means u >= 0 in the interior

    u_zero.terminal = True

    def p_exit(r, y):
        return min(y[0] + 1e-9, 1.0 + 1e-9 - y[0])

    p_exit.terminal = True

    sol = solve_ivp(
        rhs,
        (1.0 - BOUNDARY_OFFSET, r_start),
        [p_init, J_init],
        method="DOP853",
        rtol=SHOOT_RTOL,
        atol=SHOOT_ATOL,
        dense_output=dense,
        events=[u_zero, p_exit],
    )
    c0 = float(cf(0.0))
    p0 = boundary_root(spec, c0)
    rv0 = eval_rates(spec, c0)
    g0 = float(-rv0.kd + rv0.km * p0)
    u_prime0 = g0 / 3.0
    fp0 = float(reaction_f_dp(spec, c0, p0))
    diagnostics = {
        "z": z,
        "c0": c0,
        "p0": p0,
        "u_prime0": u_prime0,
        "frobenius_beta": fp0 / u_prime0 if u_prime0 != 0.0 else np.inf,
        "p1_prime": p1_prime,
        "completed": bool(sol.success and sol.t[-1] <= r_start * (1 + 1e-9)),
    }
    if not diagnostics["completed"]:
        exit_r = float(sol.t[-1]) if sol.t.size else 1.0
        diagnostics["exit_radius"] = exit_r
        if sol.t_events[1].size:
            raise SolverError(
                f"p left [0,1] at r={sol.t_events[1][0]:.4f} (z={z})"
            )
        diagnostics["u_zero_radius"] = exit_r
        return None, nutrient, diagnostics
    p_end, J_end = float(sol.y[0, -1]), float(sol.y[1, -1])
    diagnostics["u1_defect"] = -(J_end - g0 * r_start**3 / 3.0)
    diagnostics["p_end_gap"] = p_end - p0
    return sol, nutrient, diagnostics


def _shoot_residual(spec, z, grid, r_start):
    """Signed shooting residual for the Brent iteration.

    Positive for z below the equilibrium, negative above; early termination
    from u reaching 0 in the interior is mapped to a negative surrogate so
    the bracket logic still sees the correct sign.
    """
    try:
        sol, _, diag = integrate_profile(spec, z, grid, r_start=r_start)
    except SolverError:
        return -1.0
    if sol is None:
        return -(1.0 + (1.0 - diag.get("u_zero_radius", 1.0)))
    return diag["u1_defect"]


def solve_stationary(spec, grid, z_bracket=DEFAULT_BRACKET, r_start=R_START_DEFAULT,
                     n_scan=12):
    """Find z_* by Brent on the shooting defect and assemble all fields.

    The bracket is first scanned for a sign change (the defect is positive
    below z_* and negative above); SolverError if none is found.
    """
    z_lo, z_hi = z_bracket
    zs = np.linspace(z_lo, z_hi, n_scan)
    vals = [_shoot_residual(spec, z, grid, r_start) for z in zs]
    pair = None
    for i in range(len(zs) - 1):
        if vals[i] > 0 > vals[i + 1] or vals[i] < 0 < vals[i + 1]:
            pair = (zs[i], zs[i + 1])
            break
    if pair is None:
        sampled = ", ".join(f"u1({z:.2f})={v:.3e}" for z, v in zip(zs, vals))
        raise SolverError(f"no sign change of the shooting defect on bracket: {sampled}")
    z_star = brentq(
        lambda z: _shoot_residual(spec, z, grid, r_start),
        pair[0], pair[1], xtol=1e-13, rtol=8.9e-16,
    )
    sol, nutrient, diag = integrate_profile(spec, z_star, grid, r_start=r_start, dense=True)
    if sol is None:
        raise SolverError(f"converged z={z_star} fails to integrate (unexpected)")
    nutrient = solve_sensitivity(spec, nutrient)

    nodes = grid.nodes
    p_vals = np.empty_like(nodes)
    J_vals = np.empty_like(nodes)
    interior = sol.sol(nodes[1:-1])
    p_vals[1:-1] = interior[0]
    J_vals[1:-1] = interior[1]
    p_vals[-1] = 1.0
    J_vals[-1] = 0.0
    # center value by smooth extrapolation of the integrated profile; the
    # quadratic-root value p0 is recorded separately (they agree to the
    # interpolation error of c near 0)
    r1, r2, r3 = nodes[1:4]
    A = np.array([[1, r1, r1 * r1], [1, r2, r2 * r2], [1, r3, r3 * r3]])
    p_vals[0] = float(np.linalg.solve(A, p_vals[1:4])[0])
    J_vals[0] = 0.0
    # u from the same cumulative quadrature the velocity module applies, so
    # the assembled pair is an exact fixed point of the discrete evolution;
    # the ODE's J carries the shooting leftover, which 1/r^2 would amplify
    # near the origin.  The J-based values are kept for a consistency check.
    p_field = RadialField(grid, p_vals)
    u_ode = np.zeros_like(nodes)
    u_ode[1:] = J_vals[1:] / nodes[1:] ** 2
    u_ode[-1] = 0.0
    vel = radial_velocity(p_field, nutrient, spec)
    u_field = vel.u
    result = StationarySolution(
        z_star=z_star,
        c_star=nutrient.c,
        c_z=nutrient.c_z,
        p_star=p_field,
        u_star=u_field,
        p0=diag["p0"],
        residual_report={},
    )
    report = _consistency_report(spec, result, nutrient, diag)
    # ODE-integrated u against the quadrature u, away from the origin where
    # the shooting leftover divided by r^2 dominates
    off_origin = nodes >= 0.05
    report["ode_quadrature_gap"] = float(
        np.max(np.abs(u_ode[off_origin] - u_field.values[off_origin]))
    )
    result = StationarySolution(
        z_star=z_star,
        c_star=nutrient.c,
        c_z=nutrient.c_z,
        p_star=p_field,
        u_star=u_field,
        p0=diag["p0"],
        alpha_hat=report["alpha_hat"],
        residual_report=report,
    )
    return result


def _consistency_report(spec, sol, nutrient, diag):
    """Residuals and sign/monotonicity checks on the assembled fields."""
    grid = sol.grid
    r = grid.nodes
    c = np.clip(sol.c_star.values, 0.0, 1.0)
    p = sol.p_star.values
    u = sol.u_star.values
    pp = derivative_values(p, r)
    f = reaction_f(spec, c, p)
    transport_residual = float(np.max(np.abs(u[1:-1] * pp[1:-1] - f[1:-1])))
    vel = radial_velocity(sol.p_star, nutrient, spec)
    alpha_hat, alpha_fit_residual = _fit_singular_exponent(r, pp)
    weight = r[1:-1] * (1.0 - r[1:-1])
    uq = u[1:-1] / weight
    report = {
        "z_star": sol.z_star,
        "u1_defect": diag["u1_defect"],
        "u1_quadrature": vel.u_boundary,
        "transport_residual": transport_residual,
        "velocity_consistency": float(np.max(np.abs(vel.u.values - u))),
        "p0_gap": float(p[0] - diag["p0"]),
        "p_monotone": bool(np.all(np.diff(p) > -1e-12)),
        "p_in_unit_interval": bool(np.all((p >= 0.0) & (p <= 1.0 + 1e-12))),
        "c_monotone": bool(np.all(np.diff(sol.c_star.values) > 0)),
        "c_in_bounds": bool(
            sol.c_star.values[0] > 0 and np.all(sol.c_star.values <= 1.0 + 1e-12)
        ),
        "u_negative_interior": bool(np.all(u[1:-1] < 0)),
        "u_weight_lower": float(np.min(-uq)),  # C2 of the two-sided bound
        "u_weight_upper": float(np.max(-uq)),  # C1 of the two-sided bound
        "r_pprime_smallest": [float(r[i] * pp[i]) for i in range(1, 6)],
        "frobenius_beta": diag["frobenius_beta"],
        "alpha_hat": alpha_hat,
        "alpha_fit_residual": alpha_fit_residual,
        "p_boundary_value": float(p[-1]),
        "p1_prime": diag["p1_prime"],
        "nutrient_residual": nutrient.residual,
    }
    report["lemma_checks_pass"] = bool(
        report["p_monotone"]
        and report["p_in_unit_interval"]
        and report["c_monotone"]
        and report["c_in_bounds"]
        and report["u_negative_interior"]
        and report["u_weight_lower"] > 0
    )
    return report


def _fit_singular_exponent(r, pp):
    """Log-log slope of p' over the decade of grid nodes nearest r=0."""
    lo = r[1]
    mask = (r >= lo) & (r <= 10.0 * lo) & (np.abs(pp) > 0)
    x = np.log(r[mask])
    y = np.log(np.abs(pp[mask]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), resid


def singular_exponent(sol):
    """Estimated exponent of p_*' ~ C r^alpha near r=0 with classification.

    Returns (alpha_hat, fit_residual, label); label is "C1 at 0" when the
    derivative stays bounded (alpha_hat >= 0), "singular derivative" when
    -1 < alpha_hat < 0, and "inconclusive" when the log-log fit is poor.
    """
    r = sol.grid.nodes
    pp = derivative_values(sol.p_star.values, r)
    alpha_hat, resid = _fit_singular_exponent(r, pp)
    if resid > 0.1:
        label = "inconclusive"
    elif alpha_hat >= 0.0:
        label = "C1 at 0"
    else:
        label = "singular derivative"
    return alpha_hat, resid, label
