"""Linearization of the reduced tumor system about its stationary state.

The deviation (phi, zeta) = (p - p_*, z - z_*) evolves, to first order, by

    d phi/dt + u_* d phi/dr = a(r) phi + B(phi) + b(r) zeta,
    d zeta/dt = F(phi) + kappa zeta,

where a is the p-derivative of the reaction term at the stationary profile,
b collects the nutrient sensitivity c_z, B is the nonlocal velocity-feedback
operator and F / kappa drive the log-radius.  This module assembles those
coefficients from a stationary solution, integrates the linear system along
the frozen stationary characteristics (transport.AdamsBashforth: four-step
Adams-Bashforth after three Runge-Kutta steps that restart each regrid
cycle, every rate one folded grid.RadialMoments operator; with every
coefficient zero it is pure_transport), fits exponential decay rates to
norm series, and implements the explicit resolvent of the scalar transport
operator q -> -w q' + a q in the travel-time coordinate of w, together
with a Laplace-transform consistency check against the matching semigroup.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson, simpson
from scipy.interpolate import PchipInterpolator  # noqa: F401 (bench/spans.py patches it)
from scipy.linalg import solve_banded

from .grid import (RadialField, RadialMoments, derivative_values, radial_average,
                   require_same_grid)
from .kinetics import eval_rates
from .simmaps import _random_smooth, build_fstar
from .transport import (RECORD_EVERY, AdamsBashforth, _check_dt, deviation, frozen_path,
                        on_grid, output_steps, regrid, trajectory)

RESOLVENT_DS = 5e-4
LAPLACE_DT = 5e-3  # time step of the Laplace-transform quadrature
ENSEMBLE_AMPLITUDE = 1e-2
#: decay_ensemble's record interval: a two-parameter fit of a decay rate
#: near 0.08 needs no finer series
ENSEMBLE_RECORD_EVERY = 1.0
#: AB4 is stable for a real rate lambda while lambda dt > -AB4_REAL_LIMIT
AB4_REAL_LIMIT = 0.3
#: the share of AB4_REAL_LIMIT that step_bound admits
STEP_MARGIN = 0.5
FIT_WINDOW_FRACTION = 0.7
FIT_R2_MIN = 0.98
FIT_MIN_SAMPLES = 5


@dataclass(frozen=True)
class LinearizedOperators:
    """Coefficients of the linearized evolution on the stationary grid.

    kappa and b take their moments from g_c * c_z; rp_prime = r p_*'(r) is
    the prefactor shared by b and the nonlocal operator.
    """

    a: RadialField
    b: RadialField
    g_p: RadialField
    kappa: float
    rp_prime: RadialField
    u_star: RadialField

    @property
    def grid(self):
        return self.a.grid

    @property
    def omega0(self):
        """max a(r), the growth bound of the scalar transport semigroup."""
        return float(np.max(self.a.values))


def build_operators(sol, spec):
    """Assemble the linearization coefficients from a stationary solution."""
    grid = sol.grid
    nodes = grid.nodes
    c = np.clip(sol.c_star.values, 0.0, 1.0)
    p = sol.p_star.values
    rv = eval_rates(spec, c)
    require_same_grid(sol.c_star, sol.p_star, sol.c_z)

    full, cum = RadialMoments(nodes).full_and_third(rv.g_c(p) * sol.c_z.values)
    kappa = float(full)
    rp = nodes * derivative_values(p, grid)
    rp[0] = 0.0
    b_vals = rv.f_c(p) * sol.c_z.values + rp * (kappa - cum)

    return LinearizedOperators(
        a=RadialField(grid, rv.f_p(p)),
        b=RadialField(grid, b_vals),
        g_p=RadialField(grid, rv.km),  # dg/dp = K_M
        kappa=kappa,
        rp_prime=RadialField(grid, rp),
        u_star=sol.u_star,
    )


def apply_B(ops, q):
    """Nonlocal velocity-feedback operator on a field q.

    B(q) = r p_*' [ integral_0^1 g_p q rho^2 - r^-3 integral_0^r g_p q rho^2 ],
    with the value 0 at r = 0 (r p_*' vanishes there and the bracket is
    bounded).
    """
    require_same_grid(ops.g_p, q)
    full, partial = RadialMoments(ops.grid.nodes).full_and_third(
        ops.g_p.values * q.values)
    vals = ops.rp_prime.values * (full - partial)
    vals[0] = 0.0
    return q.with_values(vals)


def apply_F(ops, q):
    """Scalar moment F(q) = integral_0^1 g_p q rho^2 drho."""
    require_same_grid(ops.g_p, q)
    return float(radial_average(ops.g_p.values * q.values, ops.grid.nodes)[-1])


def step_bound(ops):
    """The largest step LinearPropagator takes on ops: STEP_MARGIN of AB4's
    real-axis limit over the fastest decay the cycle carries, that of phi
    (-min a), of zeta (|kappa|) or of the particle gaps (the steepest
    contraction of the frozen path, -min u_*'); infinite when none decays.
    A growth rate does not bound it: AB4 follows a growing mode."""
    contraction = -np.min(derivative_values(ops.u_star.values, ops.grid))
    stiffness = max(-np.min(ops.a.values), abs(ops.kappa), contraction)
    return STEP_MARGIN * AB4_REAL_LIMIT / stiffness if stiffness > 0 else np.inf


def ensemble_step(ops):
    """The largest step within step_bound(ops) dividing ENSEMBLE_RECORD_EVERY."""
    return ENSEMBLE_RECORD_EVERY / max(1, math.ceil(ENSEMBLE_RECORD_EVERY / step_bound(ops)))


class _FoldedStage:
    """One stage of the cycle as one operator, shared across steps and runs.

    M(g_p phi) is moments.cumulative(phi), the stage's grid.RadialMoments
    with g_p folded in by its fold.  Then dphi = a phi + rp M(1) + b zeta
    - rp r^-3 M: apply_B and apply_F in one pass.
    """

    def __init__(self, x, coef):
        a, b, gp, rp = (f(x) for f in coef)
        self.moments = radial = RadialMoments(x)
        radial.fold(gp)
        rp[0] = 0.0  # B vanishes at the origin
        self.a = a
        self.rp_b = np.array((rp, b))
        self.rp_inv_x3 = rp * radial.inv_x3
        del radial.inv_x3  # the stage keeps rp r^-3 alone


class LinearPropagator:
    """Characteristics integrator for the linearized system at fixed dt.

    The advecting field u_* is frozen, so the particle positions repeat the
    same cycle between regrids, and the rate of (phi, zeta) at a stage of
    the cycle is one fixed linear operator (_FoldedStage), built once and
    shared by steps and ensemble members, advanced together as rows of a
    matrix.  Particles and (phi, zeta) step by one transport.AdamsBashforth
    schedule: a cycle step holds an operator per stage the kernel evaluates
    (four in a start-up step, one after).  The history starts empty at t = 0
    and at every regrid, so one cycle is one fixed map; a step that moves no
    particle (w = 0) repeats forever, so it ends the cycle.  records streams
    the recorded states, so a caller that reduces each one (decay_ensemble)
    never holds the whole run; run collects them into arrays.  dt may not
    exceed step_bound(ops), checked once the cycle is built, so that
    characteristics that cross raise the path's SolverError first.
    """

    def __init__(self, ops, dt):
        self.ops = ops
        self.dt = dt
        grid = ops.grid
        self.nodes = grid.nodes
        fields = (ops.u_star.interpolator(),) * 4
        coef = [f.interpolator() for f in (ops.a, ops.b, ops.g_p, ops.rp_prime)]
        # one (folded stages, end positions) pair per step of the cycle
        self.steps = []
        for stages, end, _ in frozen_path(lambda j: fields, self.nodes, dt, grid.spacing,
                                          AdamsBashforth((self.nodes,)).step):
            self.steps.append(([_FoldedStage(x, coef) for x in stages], end))
            if np.array_equal(end, stages[0]):
                break
        self.cycle_len = len(self.steps)
        if dt > (bound := step_bound(ops)) * (1 + 1e-12):
            raise ValueError(f"dt={dt} exceeds the propagator's step bound {bound:.6g}")

    def _stage_rate(self, op, phi, zeta):
        """(dphi, dzeta) of a state at the _FoldedStage op.  Its matmul for
        rp M(1) + b zeta is the one product whose bits depend on the batch;
        explicit products cost 30 us against its 5 us (10 rows of 801 nodes,
        one x86-64 thread)."""
        moment = op.moments.cumulative(phi)
        fz = np.empty((phi.shape[0], 2))
        fz[:, 0] = moment[:, -1]
        fz[:, 1] = zeta
        dphi = fz @ op.rp_b
        moment *= op.rp_inv_x3
        dphi -= moment
        dphi += op.a * phi
        return dphi, fz[:, 0] + self.ops.kappa * zeta

    def record_times(self, t_end, output_every=RECORD_EVERY):
        """The times of the states records yields, from t = 0."""
        recorded = output_steps(t_end, self.dt, output_every)[1]
        return self.dt * np.array(recorded)

    def records(self, phi0, zeta0, t_end, output_every=RECORD_EVERY):
        """Integrate a batch of initial data (rows of phi0) and yield
        (j, positions, phi, zeta) at the j-th recorded step: phi holds the
        particle values at the positions, in node order, which a caller
        resamples onto the reference grid with transport.on_grid where it
        needs them; the times are record_times(t_end, output_every).
        """
        n_steps, recorded = output_steps(t_end, self.dt, output_every)
        phi = np.atleast_2d(np.asarray(phi0, dtype=float))
        zeta = np.atleast_1d(np.asarray(zeta0, dtype=float)).copy()
        yield 0, self.nodes, phi.copy(), zeta
        multistep = AdamsBashforth((phi, zeta))
        j = 1
        for k in range(1, n_steps + 1):
            stages, end_pos = self.steps[(k - 1) % self.cycle_len]
            phi, zeta = multistep.step(lambda i, y: self._stage_rate(stages[i], *y),
                                       (phi, zeta), self.dt)
            if k % self.cycle_len == 0:
                # the next cycle starts its history afresh
                phi = regrid(end_pos, phi, self.nodes)
                multistep.restart()
                end_pos = self.nodes
            if k == recorded[j]:
                yield j, end_pos, phi, zeta
                j += 1

    def run(self, phi0, zeta0, t_end, output_every=RECORD_EVERY):
        """The recorded states of records collected into arrays.

        Returns (times, phis, zetas) with phis of shape (n_times, n_runs,
        n_nodes) and zetas of shape (n_times, n_runs).
        """
        times = self.record_times(t_end, output_every)
        phi0 = np.atleast_2d(np.asarray(phi0, dtype=float))
        zeta0 = np.atleast_1d(np.asarray(zeta0, dtype=float))
        # snapshots go straight into arrays sized up front
        phis = np.empty((times.size,) + phi0.shape)
        zetas = np.empty((times.size,) + zeta0.shape)
        for j, pos, phi, zeta in self.records(phi0, zeta0, t_end, output_every):
            phis[j], zetas[j] = on_grid(pos, phi, self.nodes), zeta
        return times, phis, zetas


def solve_linearized(ops, init, t_end, dt, output_every=RECORD_EVERY):
    """Integrate the linearized system; returns a Trajectory of deviations.

    init is the pair (phi0: RadialField, zeta0: float).  The recorded states
    carry the deviation field in the p slot and zeta in the z slot; norms are
    the deviation norms (the reference is the zero deviation).
    """
    phi0, zeta0 = init
    require_same_grid(ops.a, phi0)
    times, phis, zetas = LinearPropagator(ops, dt).run(
        phi0.values[None, :], [zeta0], t_end, output_every=output_every)
    return trajectory(ops.grid, times, phis[:, 0, :], zetas[:, 0])


def pure_transport(w_field, q0_field, t_end, dt):
    """Advect q with a fixed velocity w and zero source; returns norm series.

    Used to observe the contraction property of the transport semigroup: the
    sup norm may never increase, and the weighted derivative grows at most
    exponentially.  q is phi of a LinearPropagator over w with every
    coefficient zero, recorded at every step: each stage adds exact zeros.
    dt is bounded by DT_MAX, as the nonlinear transport it observes.
    """
    _check_dt(dt)
    grid = q0_field.grid
    zero = RadialField(grid, np.zeros(grid.size))
    prop = LinearPropagator(LinearizedOperators(zero, zero, zero, 0.0, zero, w_field), dt)
    sup, weighted = [], []
    for _, pos, q, _ in prop.records(q0_field.values, 0.0, t_end, output_every=dt):
        sup.append(np.max(np.abs(q)))
        weighted.append(deviation(grid, on_grid(pos, q, prop.nodes), 0.0, 0.0, 0.0)[1][0])
    return np.array(sup), np.array(weighted)


# ---------------------------------------------------------------------------
# decay-rate fitting


@dataclass(frozen=True)
class DecayReport:
    """Log-linear fit of an exponential envelope K e^{-mu t} to a norm series."""

    mu_fit: float
    K_fit: float
    r2: float
    decades: float
    valid: bool
    note: str = ""


def fit_window(times):
    """The fit window of a run recorded at times: its last
    FIT_WINDOW_FRACTION (the early transient is excluded)."""
    t0 = times[0] + (1.0 - FIT_WINDOW_FRACTION) * (times[-1] - times[0])
    return float(t0), float(times[-1])


def shortest_fit_steps(dt, output_every):
    """The fewest steps of dt in a run recorded every output_every whose fit
    window holds FIT_MIN_SAMPLES records.  Of the runs that end within one
    record interval past the k-th record, the shortest (k intervals and one
    step) starts its window earliest and so holds the most records; the
    fewest k whose shortest run suffices gives it."""
    every = max(1, int(round(output_every / dt)))
    for k in itertools.count(1):
        steps = k * every + 1
        times = dt * np.array(output_steps(steps * dt, dt, output_every)[1])
        if np.count_nonzero(times >= fit_window(times)[0]) >= FIT_MIN_SAMPLES:
            return steps


def fit_decay(times, series):
    """Fit K e^{-mu t} to a norm series sampled at times, over fit_window(times).

    Samples whose norm is not above 1e-300 (NaN included) are left out.  The
    report is flagged invalid when the smoothed log-norm is not decreasing
    over the window or the fit quality r2 drops below FIT_R2_MIN.
    """
    mask = (times >= fit_window(times)[0]) & (series > 1e-300)
    t = times[mask]
    y = np.log(series[mask])
    if t.size < FIT_MIN_SAMPLES:
        return DecayReport(np.nan, np.nan, 0.0, 0.0, False,
                           f"window holds fewer than {FIT_MIN_SAMPLES} usable samples")
    slope, intercept = np.polyfit(t, y, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    # monotonicity after a 5-sample moving average
    k = min(5, t.size)
    kernel = np.ones(k) / k
    smooth = np.convolve(y, kernel, mode="valid")
    monotone = bool(np.all(np.diff(smooth) <= 1e-10))
    decades = float((y[0] - y[-1]) / np.log(10.0))
    note = ""
    if not monotone:
        note = "norm not monotone over the window after smoothing"
    elif decades < 2.0:
        note = f"window spans only {decades:.2f} decades of decay"
    return DecayReport(
        mu_fit=float(-slope),
        K_fit=float(np.exp(intercept)),
        r2=float(r2),
        decades=decades,
        valid=monotone and r2 >= FIT_R2_MIN,
        note=note,
    )


def random_smooth_field(grid, rng, amplitude=1.0):
    """Random smooth field with decaying Fourier content, sup-norm <= amplitude."""
    vals = _random_smooth(rng, grid.nodes)
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals *= amplitude / peak
    return RadialField(grid, vals)


def decay_ensemble(ops, n_runs=20, t_end=100.0, dt=None, seed=0):
    """Fitted decay rates for an ensemble of random initial perturbations.

    Each member starts from a random smooth phi and a uniform zeta, both of
    sup-norm at most ENSEMBLE_AMPLITUDE, and is recorded every
    ENSEMBLE_RECORD_EVERY time units; dt defaults to ensemble_step(ops).  The
    members are advanced together and streamed: each recorded state inside
    fit_window is resampled onto the grid and reduced to its deviation terms
    as it is produced, so only the (n_times, n_runs) series are held, never
    the states; the terms of the states before the window, which no fit
    reads, are left NaN.  Returns a list of (fit of norm_x, fit of norm_x0)
    pairs, one per run, each norm the sum transport.Trajectory forms; the
    empirical rate estimate is the ensemble minimum of the fitted rates.
    """
    rng = np.random.default_rng(seed)
    prop = LinearPropagator(ops, ensemble_step(ops) if dt is None else dt)
    phi0 = np.stack([
        random_smooth_field(ops.grid, rng, amplitude=ENSEMBLE_AMPLITUDE).values
        for _ in range(n_runs)
    ])
    zeta0 = ENSEMBLE_AMPLITUDE * rng.uniform(-1.0, 1.0, size=n_runs)
    times = prop.record_times(t_end, ENSEMBLE_RECORD_EVERY)
    fitted = times >= fit_window(times)[0]
    p_dev, dp_dev, z_dev = (np.full((times.size, n_runs), np.nan) for _ in range(3))
    for j, pos, phi, zeta in prop.records(phi0, zeta0, t_end, ENSEMBLE_RECORD_EVERY):
        if not np.all(np.isfinite(phi)):
            raise ValueError("field values must be finite")
        if fitted[j]:
            p_dev[j], dp_dev[j], z_dev[j] = deviation(
                ops.grid, on_grid(pos, phi, prop.nodes), zeta, 0.0, 0.0)
    norm_x = p_dev + z_dev
    norm_x0 = norm_x + dp_dev
    return [(fit_decay(times, norm_x[:, m]), fit_decay(times, norm_x0[:, m]))
            for m in range(n_runs)]


# ---------------------------------------------------------------------------
# resolvent of the scalar transport operator


def _coordinate_grid(table, nodes, ds, *margins):
    """Travel-time coordinates of the interior nodes, with a uniform
    coordinate grid of step at most ds (and its radii) that runs from the
    first node to the last one plus the margins, added in order."""
    s_nodes = table.fstar(nodes[1:-1])
    s_lo, s_hi = s_nodes[0], sum(margins, s_nodes[-1])
    s_grid = np.linspace(s_lo, s_hi, int(np.ceil((s_hi - s_lo) / ds)) + 1)
    return s_nodes, s_grid, table.finv(s_grid)


def resolvent_apply(w, a, lam, f, return_residual=False):
    """Solve -w q' + a q - lam q = f for the transport resolvent.

    The equation is integrated in the travel-time coordinate s of w, where
    -w d/dr becomes d/ds and the endpoint singularities disappear; a stable
    implicit box scheme marches backward from the decayed far field, and the
    endpoint values follow from the algebraic limit q = f/(a - lam) at the
    velocity zeros.  Requires Re(lam) > max a.  Returns a RadialField for a
    real result, otherwise the pair (real part, imaginary part); with
    return_residual=True a (result, residual) tuple, the residual measured
    on the internal coordinate grid by 4th-order differences.
    """
    require_same_grid(w, a, f)
    vals, res = _resolvent(build_fstar(w), a, lam, f)
    grid = w.grid
    if complex(lam).imag == 0.0 and np.max(np.abs(vals.imag)) < 1e-12:
        result = RadialField(grid, vals.real)
    else:
        result = (RadialField(grid, vals.real), RadialField(grid, vals.imag))
    return (result, res) if return_residual else result


def _resolvent(table, a, lam, f):
    """The complex node values of resolvent_apply and its residual, in the
    travel-time coordinate given by table."""
    lam = complex(lam)
    omega0 = float(np.max(a.values))
    if lam.real <= omega0:
        raise ValueError(
            f"resolvent needs Re(lambda) > max a = {omega0}, got {lam}")
    grid = a.grid
    s_nodes, s_grid, r_s = _coordinate_grid(
        table, grid.nodes, RESOLVENT_DS, min(40.0 / (lam.real - omega0), 400.0))
    a_s = a(r_s)
    f_s = f(r_s)
    ds = s_grid[1] - s_grid[0]
    n = s_grid.size

    # implicit box scheme for dq/ds + (a - lam) q = f, anchored at the far
    # field where q has settled to the algebraic limit
    ab = np.zeros((2, n), dtype=complex)
    rhs = np.empty(n, dtype=complex)
    ab[1, :-1] = -1.0 / ds + 0.5 * (a_s[:-1] - lam)   # diagonal, rows 0..n-2
    ab[0, 1:] = 1.0 / ds + 0.5 * (a_s[1:] - lam)      # superdiagonal
    rhs[:-1] = 0.5 * (f_s[:-1] + f_s[1:])
    ab[1, -1] = 1.0
    rhs[-1] = f_s[-1] / (a_s[-1] - lam)
    q_s = solve_banded((0, 1), ab, rhs)

    vals = np.empty(grid.size, dtype=complex)
    vals[1:-1] = np.interp(s_nodes, s_grid, q_s)
    vals[0] = f.values[0] / (a.values[0] - lam)
    vals[-1] = f.values[-1] / (a.values[-1] - lam)

    dq = np.empty_like(q_s)
    dq[2:-2] = (q_s[:-4] - 8 * q_s[1:-3] + 8 * q_s[3:-1] - q_s[4:]) / (12 * ds)
    res = dq[2:-2] + (a_s[2:-2] - lam) * q_s[2:-2] - f_s[2:-2]
    return vals, float(np.max(np.abs(res)))


def laplace_consistency(w, a, lam, q0):
    """Discrepancy between the resolvent and the Laplace-transformed semigroup.

    The transport-with-multiplier semigroup has a closed form in the
    travel-time coordinate (translation times an accumulated-multiplier
    exponential); its time quadrature (step LAPLACE_DT up to the horizon
    16 / (Re lam - max a)) against e^{-lam t} must equal minus the resolvent
    output.  Returns the sup discrepancy over the grid nodes.  Raises
    ValueError when the horizon leaves a truncation tail above the 1e-4
    consistency scale.
    """
    require_same_grid(w, a, q0)
    lam = complex(lam)
    omega0 = float(np.max(a.values))
    rate = lam.real - omega0
    if rate <= 0:
        raise ValueError(
            f"laplace check needs Re(lambda) > max a = {omega0}, got {lam}")
    horizon = 16.0 / rate
    q0_sup = float(np.max(np.abs(q0.values)))
    tail = q0_sup * np.exp(-rate * horizon) / rate
    if tail > 5e-5:
        raise ValueError(
            f"horizon {horizon} leaves truncation tail {tail:.2e} above the "
            "1e-4 consistency scale")

    # accumulated-multiplier table A(s) = int a(r(sigma)) dsigma on a fine
    # grid long enough to cover every shifted evaluation point
    table = build_fstar(w)
    s_nodes, s_fine, r_fine = _coordinate_grid(table, w.grid.nodes, 1e-3,
                                               horizon, 1.0)
    a_big = cumulative_simpson(a(r_fine), x=s_fine, initial=0.0)

    n_t = 2 * int(np.ceil(horizon / (2.0 * LAPLACE_DT))) + 1
    t_grid = np.linspace(0.0, horizon, n_t)
    sigma = s_nodes[:, None] + t_grid[None, :]
    q0_sig = q0(table.finv(sigma))
    a_shift = np.interp(sigma, s_fine, a_big) - np.interp(s_nodes, s_fine, a_big)[:, None]
    integrand = q0_sig * np.exp(a_shift - lam * t_grid[None, :])
    laplace = simpson(integrand, x=t_grid, axis=1)

    q_vals, _ = _resolvent(table, a, lam, q0)
    return float(np.max(np.abs(laplace + q_vals[1:-1])))
