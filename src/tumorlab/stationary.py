"""Stationary solution of the reduced tumor system.

The equilibrium (c_*, p_*, u_*, z_*) satisfies

    u_* p_*' = f(r, p_*, z_*),
    u_*' + (2/r) u_* = -K_D(c_*) + K_M(c_*) p_*,
    u_*(0) = u_*(1) = 0,

with c_* the nutrient profile at z_*.  Both endpoints of the p equation are
singular: u_* has simple zeros there.  The profile is found by shooting on the
log radius z: for each z the (p, u) pair is integrated from r=1 toward r=0,
and the leftover mass-balance defect (equivalently u(1) of the forward form)
drives a Brent root-find.  Above z_* u reaches 0 before the origin, at a
radius r_e that shrinks to 0 as z falls to z_*; the defect is continued
there by -|u'(0)| r_e^3, so it is continuous across z_* and Brent converges
in a handful of integrations (9 for the default affine spec).  The
shooting reads the exact c for the affine law and, for the other laws, a C2
cubic spline of the numerical nutrient solve through grid.scalar_ppoly.

Integration runs from r=1 inward because the p=1 endpoint is the attracting
one in that direction; integrating outward from r=0 the deviation modes grow
like (1-r)^{-gamma} near r=1 and generic trajectories leave [0,1].  The r=0
endpoint data (the quadratic root p_0 of f(0, p, z)=0 and the Frobenius
exponent of p - p_0) are kept as diagnostics.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import SolverError
from .grid import RadialField, derivative_values, scalar_ppoly
from .kinetics import eval_rates, scalar_reaction
from .nutrient import affine_value, solve_nutrient, solve_sensitivity
from .velocity import radial_velocity

Z_BRACKET = (-2.0, 3.5)
Z_MAX = 10.0
DEFECT_TOL = 1e-8
SHOOT_RTOL = 1e-10
SHOOT_ATOL = 1e-14  # below J(R_START), about 1e-13, which the defect reads
SHOOT_XTOL = 1e-11  # Brent's tolerance on z
R_START = 1e-4  # the inner end of the shooting integration
EXIT_MARGIN = 1e-4  # an early exit stops about EXIT_MARGIN * r above J's root
BOUNDARY_OFFSET = 1e-6  # series start distance from r=1


@dataclass(frozen=True)
class StationarySolution:
    z_star: float
    c_star: RadialField
    c_z: RadialField
    p_star: RadialField
    u_star: RadialField
    p0: float
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
    km1 = float(rv1.km)
    cp1 = float(nutrient.c_prime(1.0))
    # u'(1) = g(1) = K_M(1) since K_D(1)=0 and p(1)=1
    p1_prime = float(rv1.f_c(1.0)) * cp1 / (km1 - float(rv1.f_p(1.0)))
    g1 = km1
    g1_prime = float(rv1.g_c(1.0)) * cp1 + km1 * p1_prime
    d = BOUNDARY_OFFSET
    p_init = 1.0 - p1_prime * d
    J_init = -g1 * d + (g1_prime + 2.0 * g1) * d * d / 2.0
    return p_init, J_init, p1_prime


def _shooting_rhs(spec, nutrient):
    """Right-hand side (p, J)' of the shooting ODE on plain floats.

    c is the exact profile for the affine law (affine_value).  Other laws
    read a C2 cubic spline of the nutrient node values through
    grid.scalar_ppoly (the same floats as the spline): the PCHIP of nutrient.c
    is only C1, and DOP853 at SHOOT_RTOL resolves every one of its kinks,
    while the spline's jumps sit in the third derivative.  The spline is
    clamped with the symmetry condition c'(0) = 0 and takes the not-a-knot
    condition at r = 1, which keeps it on the node values alone.  f and g
    come from kinetics.scalar_reaction, the same floats as eval_rates' f and
    g methods on numpy scalars; the clamp of c to [0,1] stands in for
    eval_rates' domain check.
    """
    if spec.family == "affine":
        c_at = affine_value(spec, nutrient.z)
    else:
        c_at = scalar_ppoly(CubicSpline(nutrient.grid.nodes, nutrient.c.values,
                                        bc_type=((1, 0.0), "not-a-knot")))

    def rhs(r, y):
        p, J = y.tolist()
        c = min(max(c_at(r), 0.0), 1.0)
        f, g = scalar_reaction(spec, c, p)
        return [f * r * r / J, g * r * r]

    return rhs


def integrate_profile(spec, nutrient, dense=False):
    """Integrate the stationary (p, u) pair against the nutrient solution at
    a trial log radius z = nutrient.z.

    Integration goes from r = 1 (series start, p(1)=1) down to R_START with
    state (p, J), J(r) = -int_r^1 [-K_D + K_M p] rho^2 drho and u = J/r^2
    under the boundary condition u(1)=0.

    Returns (solution, diagnostics); diagnostics["u1_defect"] is the signed
    shooting defect, positive for z below z_* and negative above.  A completed
    integration gives -(J(R_START) - g(0) R_START^3 / 3), the u(1) the forward
    form would report.  When u reaches 0 in the interior (z above z_*) the
    solution is None: p' = f r^2 / J blows up there, so the integration stops
    where J - EXIT_MARGIN r J' turns positive, short of the root r_e of J,
    which one Newton step r - J / J' finds.  The defect is then -|u'(0)| r_e^3,
    the leftover J ~ u'(0) r^3 the integration would have carried to the
    origin; r_e shrinks to 0 as z falls to z_*, so it meets the completed
    defect there without a jump.  Raises SolverError if p leaves [0,1].
    """
    p_init, J_init, p1_prime = _boundary_series(spec, nutrient)
    rhs = _shooting_rhs(spec, nutrient)

    def p_exit(r, y):
        return min(y[0] + 1e-9, 1.0 + 1e-9 - y[0])

    p_exit.terminal = True

    def near_zero(r, y):  # turns positive before J reaches 0 (u >= 0 inside)
        return y[1] - EXIT_MARGIN * r * rhs(r, y)[1]

    near_zero.terminal = True
    near_zero.direction = 1

    sol = solve_ivp(
        rhs,
        (1.0 - BOUNDARY_OFFSET, R_START),
        np.array([p_init, J_init]),  # the events see y0 as given, near_zero via rhs
        method="DOP853",
        rtol=SHOOT_RTOL,
        atol=SHOOT_ATOL,
        dense_output=dense,
        events=[p_exit, near_zero],
    )
    # clamped as the right-hand side clamps c: a fine Numerov solve can
    # leave c(0) a rounding below 0
    c0 = min(max(float(nutrient.c.values[0]), 0.0), 1.0)
    p0 = boundary_root(spec, c0)
    rv0 = eval_rates(spec, c0)
    g0 = float(rv0.g(p0))
    u_prime0 = g0 / 3.0
    fp0 = float(rv0.f_p(p0))
    diagnostics = {
        "z": nutrient.z,
        "p0": p0,
        "frobenius_beta": fp0 / u_prime0 if u_prime0 != 0.0 else np.inf,
        "p1_prime": p1_prime,
    }
    if not (sol.success and sol.t[-1] <= R_START * (1 + 1e-9)):
        if sol.t_events[0].size:
            raise SolverError(
                f"p left [0,1] at r={sol.t_events[0][0]:.4f} (z={nutrient.z})"
            )
        r, y = sol.t[-1], sol.y[:, -1]
        r_e = float(r - y[1] / rhs(r, y)[1]) if sol.t_events[1].size else float(r)
        diagnostics["u1_defect"] = -abs(u_prime0) * r_e**3
        return None, diagnostics
    J_end = float(sol.y[1, -1])
    diagnostics["u1_defect"] = -(J_end - g0 * R_START**3 / 3.0)
    return sol, diagnostics


def _shoot_residual(spec, z, grid):
    """(defect, nutrient, error) for the Brent iteration: integrate_profile's
    signed u1_defect, the nutrient solution at z if the integration
    completed, and the SolverError that left no defect (both else None).

    A SolverError (p leaving [0,1], no attracting center root, a nutrient
    solve held above its tolerance by rounding: all on the large-z side)
    leaves no defect and returns its sign, -1.0; a magnitude above any
    defect near z_* keeps Brent from taking that point for its best iterate.
    """
    try:
        nutrient = solve_nutrient(spec, z, grid)
        sol, diag = integrate_profile(spec, nutrient)
    except SolverError as err:
        return -1.0, None, err
    return diag["u1_defect"], None if sol is None else nutrient, None


def solve_stationary(spec, grid):
    """Find z_* by Brent on the shooting defect and assemble all fields.

    Brent starts on the ends of Z_BRACKET (the defect is positive below z_* and
    negative above; the upper end grows by 1 up to Z_MAX while both are
    positive, then SolverError if both keep one sign, chained to the first
    evaluation's error if none gave a defect) and evaluates no z twice.  It
    ends on a z whose integration completed: if its best z is an early exit,
    the completed evaluation with the smallest |defect| is taken
    instead, so the final dense integration cannot fail; it reuses that
    evaluation's nutrient solution.  A |defect| there above DEFECT_TOL is a
    jump (to a raising evaluation's -1.0): SolverError.  The residual report
    counts the integrations (shoot_integrations, the final one included)
    and the evaluations that exited early or raised (shoot_fallbacks).
    """
    evals = {}

    def residual(z):
        if z not in evals:
            evals[z] = _shoot_residual(spec, z, grid)
        return evals[z][0]

    z_lo, z_hi = Z_BRACKET
    f_lo, f_hi = residual(z_lo), residual(z_hi)
    while f_lo > 0 and f_hi > 0 and z_hi + 1.0 <= Z_MAX:
        z_hi += 1.0
        f_hi = residual(z_hi)
    if np.sign(f_lo) * np.sign(f_hi) > 0:
        first = evals[z_lo][2]
        if all(err is not None for _, _, err in evals.values()):
            raise SolverError(f"no shooting evaluation gave a defect: {first}") from first
        raise SolverError("no sign change of the shooting defect on bracket: "
                          f"u1({z_lo:.2f})={f_lo:.3e}, u1({z_hi:.2f})={f_hi:.3e}")
    # at SHOOT_RTOL the defect scatters about a line of slope -0.1 by about
    # 1e-16 with the exact affine c and by about 5e-13 at 801 nodes (2e-12
    # at 201) with the Numerov spline, so SHOOT_XTOL is above the rounding
    # for both laws and below the assembled state's own error
    z_star = brentq(residual, z_lo, z_hi, xtol=SHOOT_XTOL, rtol=8.9e-16)
    if evals[z_star][1] is None:
        z_star = min((z for z, (_, nut, _) in evals.items() if nut is not None),
                     key=lambda z: abs(evals[z][0]))
    defect, nutrient, _ = evals[z_star]
    if abs(defect) > DEFECT_TOL:
        raise SolverError(f"the shooting defect jumps at z={z_star:.6f}: it is "
                          f"{defect:.3e} there, above {DEFECT_TOL:.0e}")
    sol, diag = integrate_profile(spec, nutrient, dense=True)
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
    # u from the quadrature the evolution applies; the discrete equilibrium
    # differs from this pair by the drift of an epsilon = 0 run, norm_x 1.66e-5
    # at 201 nodes and 1.34e-7 at 801 by t = 100.  The ODE's J carries the
    # shooting leftover, which 1/r^2 would amplify near the origin; it is kept
    # for a consistency check.
    p_field = RadialField(grid, p_vals)
    u_ode = np.zeros_like(nodes)
    u_ode[1:] = J_vals[1:] / nodes[1:] ** 2
    vel = radial_velocity(p_field, nutrient, spec)
    report = _consistency_report(spec, p_field, vel, nutrient, diag)
    # ODE-integrated u against the quadrature u, away from the origin where
    # the shooting leftover divided by r^2 dominates
    off_origin = nodes >= 0.05
    report["ode_quadrature_gap"] = float(
        np.max(np.abs(u_ode[off_origin] - vel.u.values[off_origin]))
    )
    report["shoot_integrations"] = len(evals) + 1
    report["shoot_fallbacks"] = sum(nut is None for _, nut, _ in evals.values())
    return StationarySolution(
        z_star=z_star,
        c_star=nutrient.c,
        c_z=nutrient.c_z,
        p_star=p_field,
        u_star=vel.u,
        p0=diag["p0"],
        residual_report=report,
    )


def _consistency_report(spec, p_field, vel, nutrient, diag):
    """Residuals and sign/monotonicity checks on the assembled fields.

    vel is the quadrature velocity of p_field; its u(1) is the independent
    check of the shooting defect.
    """
    grid = p_field.grid
    r = grid.nodes
    c_vals = nutrient.c.values
    p = p_field.values
    u = vel.u.values
    pp = derivative_values(p, grid)
    f = eval_rates(spec, np.clip(c_vals, 0.0, 1.0)).f(p)
    transport_residual = float(np.max(np.abs(u[1:-1] * pp[1:-1] - f[1:-1])))
    alpha_hat, alpha_fit_residual = _fit_singular_exponent(r, pp)
    weight = r[1:-1] * (1.0 - r[1:-1])
    uq = u[1:-1] / weight
    report = {
        "z_star": diag["z"],
        "u1_defect": diag["u1_defect"],
        "u1_quadrature": float(vel.u.values[-1]),
        "transport_residual": transport_residual,
        "p0_gap": float(p[0] - diag["p0"]),
        "p_monotone": bool(np.all(np.diff(p) > -1e-12)),
        "p_in_unit_interval": bool(np.all((p >= 0.0) & (p <= 1.0 + 1e-12))),
        "c_monotone": bool(np.all(np.diff(c_vals) > 0)),
        "c_in_bounds": bool(c_vals[0] > 0 and np.all(c_vals <= 1.0 + 1e-12)),
        "u_negative_interior": bool(np.all(u[1:-1] < 0)),
        "u_weight_lower": float(np.min(-uq)),  # C2 of the two-sided bound
        "u_weight_upper": float(np.max(-uq)),  # C1 of the two-sided bound
        "r_pprime_smallest": [float(r[i] * pp[i]) for i in range(1, 6)],
        "frobenius_beta": diag["frobenius_beta"],
        "alpha_hat": alpha_hat,
        "alpha_fit_residual": alpha_fit_residual,
        "p1_prime": diag["p1_prime"],
        "nutrient_residual": nutrient.residual,
    }
    report["lemma_checks_pass"] = bool(
        report["p_monotone"]
        and report["p_in_unit_interval"]
        and report["c_monotone"]
        and report["c_in_bounds"]
        and report["u_negative_interior"]
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
