"""Linearization of the reduced tumor system about its stationary state.

The deviation (phi, zeta) = (p - p_*, z - z_*) evolves, to first order, by

    d phi/dt + u_* d phi/dr = a(r) phi + B(phi) + b(r) zeta,
    d zeta/dt = F(phi) + kappa zeta,

where a is the p-derivative of the reaction term at the stationary profile,
b collects the nutrient sensitivity c_z, B is the nonlocal velocity-feedback
operator and F / kappa drive the log-radius.  This module assembles those
coefficients from a stationary solution, integrates the linear system along
the frozen stationary characteristics, fits exponential decay rates to norm
series, and implements the explicit resolvent of the scalar transport
operator q -> -w q' + a q in the travel-time coordinate of w, together with
a Laplace-transform consistency check against the matching semigroup.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import PchipInterpolator
from scipy.linalg import solve_banded

from .grid import (RadialField, cumulative_integral, derivative_values,
                   radial_average, require_same_grid, third_moment)
from .kinetics import eval_rates
from .simmaps import build_fstar
from .transport import (REGRID_MAX_FACTOR, REGRID_MIN_FACTOR, Trajectory,
                        TumorState)

RESOLVENT_DS = 5e-4
FIT_WINDOW_FRACTION = 0.7
FIT_R2_MIN = 0.98


@dataclass(frozen=True)
class LinearizedOperators:
    """Coefficients of the linearized evolution on the stationary grid.

    g_c_cz is the product g_c * c_z whose moments feed b and kappa;
    rp_prime = r p_*'(r) is the prefactor shared by b and the nonlocal
    operator; cum_gc_cz is the tabulated r^-3 cumulative moment of g_c_cz.
    """

    a: RadialField
    b: RadialField
    g_p: RadialField
    g_c_cz: RadialField
    kappa: float
    rp_prime: RadialField
    cum_gc_cz: RadialField
    u_star: RadialField

    @property
    def grid(self):
        return self.a.grid

    @property
    def omega0(self):
        """max a(r), the growth bound of the scalar transport semigroup."""
        return float(np.max(self.a.values))


def build_operators(sol, spec, c_z=None):
    """Assemble the linearization coefficients from a stationary solution.

    c_z overrides the nutrient sensitivity field (test hook; forcing it to
    zero must zero out b and kappa).
    """
    grid = sol.grid
    nodes = grid.nodes
    c = np.clip(sol.c_star.values, 0.0, 1.0)
    p = sol.p_star.values
    rv = eval_rates(spec, c)
    if c_z is None:
        c_z = sol.c_z
    require_same_grid(sol.c_star, sol.p_star, c_z)

    a_vals = (rv.km - rv.kn) - 2.0 * rv.km * p
    g_p_vals = rv.km
    g_c_vals = -rv.kd_d + rv.km_d * p
    g_c_cz = g_c_vals * c_z.values

    kappa = float(radial_average(g_c_cz, nodes)[-1])
    cum = third_moment(g_c_cz, nodes)
    rp = nodes * derivative_values(p, nodes)
    rp[0] = 0.0

    f_c = rv.kp_d + (rv.km_d - rv.kn_d) * p - rv.km_d * p * p
    b_vals = f_c * c_z.values + rp * (kappa - cum)

    return LinearizedOperators(
        a=RadialField(grid, a_vals),
        b=RadialField(grid, b_vals),
        g_p=RadialField(grid, g_p_vals),
        g_c_cz=RadialField(grid, g_c_cz),
        kappa=kappa,
        rp_prime=RadialField(grid, rp),
        cum_gc_cz=RadialField(grid, cum),
        u_star=sol.u_star,
    )


def apply_B(ops, q):
    """Nonlocal velocity-feedback operator on a field q.

    B(q) = r p_*' [ integral_0^1 g_p q rho^2 - r^-3 integral_0^r g_p q rho^2 ],
    with the value 0 at r = 0 (r p_*' vanishes there and the bracket is
    bounded).
    """
    require_same_grid(ops.g_p, q)
    nodes = ops.grid.nodes
    gq = ops.g_p.values * q.values
    full = float(radial_average(gq, nodes)[-1])
    partial = third_moment(gq, nodes)
    vals = ops.rp_prime.values * (full - partial)
    vals[0] = 0.0
    return q.with_values(vals)


def apply_F(ops, q):
    """Scalar moment F(q) = integral_0^1 g_p q rho^2 drho."""
    require_same_grid(ops.g_p, q)
    return float(radial_average(ops.g_p.values * q.values, ops.grid.nodes)[-1])


def _moment_weights(x):
    """Per-interval quadrature weights for cumulative integrals of v(rho) rho^2.

    For the interval [x_i, x_{i+1}] the integrand v is replaced by its
    interpolating quadratic through three neighboring nodes and integrated in
    closed form, matching composite-Simpson accuracy on nonuniform nodes.
    Returns (idx, wts) with idx the (n-1, 3) neighbor columns and wts the
    matching weights, the rho^2 factor folded in.
    """
    n = x.size
    ia = np.arange(n - 1) - 1
    ia[0] = 0
    idx = np.stack([ia, ia + 1, ia + 2], axis=1)
    xa, xb, xc = x[idx[:, 0]], x[idx[:, 1]], x[idx[:, 2]]
    s, t = x[:-1], x[1:]

    def int_pair(p, q):
        def anti(y):
            return y ** 3 / 3.0 - 0.5 * (p + q) * y * y + p * q * y
        return anti(t) - anti(s)

    wa = int_pair(xb, xc) / ((xa - xb) * (xa - xc))
    wb = int_pair(xa, xc) / ((xb - xa) * (xb - xc))
    wc = int_pair(xa, xb) / ((xc - xa) * (xc - xb))
    wts = np.stack([wa * xa * xa, wb * xb * xb, wc * xc * xc], axis=1)
    return idx, wts


def _start_matrix(x, k):
    """Matrix mapping the first k node values of v to the exact moments
    integral_0^{x_i} (cubic fit of v) rho^2 drho at those nodes, the same
    origin treatment as grid.radial_average.
    """
    deg = min(3, k - 1)
    vand = np.vander(x[:k], deg + 1, increasing=True)
    proj = np.linalg.pinv(vand)
    powers = np.arange(deg + 1)
    mom = x[:k, None] ** (powers[None, :] + 3) / (powers[None, :] + 3)
    return mom @ proj


class _StageOps:
    """Frozen per-stage data: particle positions, coefficient values and
    precomputed moment-quadrature weights, shared across steps and runs."""

    def __init__(self, x, interp, k=5):
        self.x = x
        self.a = interp["a"](x)
        self.b = interp["b"](x)
        self.gp = interp["gp"](x)
        self.rp = interp["rp"](x)
        self.k = k
        self.idx, self.wts = _moment_weights(x)
        self.start = _start_matrix(x, k)
        self.inv_x3 = np.zeros_like(x)
        self.inv_x3[1:] = 1.0 / x[1:] ** 3

    def moments(self, v):
        """(full, third) with full = integral_0^1 v rho^2 and third the
        r^-3 cumulative moment, batched over the leading axis of v."""
        k = self.k
        d = (v[:, self.idx[:, 0]] * self.wts[:, 0]
             + v[:, self.idx[:, 1]] * self.wts[:, 1]
             + v[:, self.idx[:, 2]] * self.wts[:, 2])
        moment = np.empty_like(v)
        moment[:, 0] = 0.0
        np.cumsum(d, axis=1, out=moment[:, 1:])
        head = v[:, :k] @ self.start.T
        moment[:, k:] += head[:, k - 1:k] - moment[:, k - 1:k]
        moment[:, :k] = head
        full = moment[:, -1].copy()
        third = moment * self.inv_x3
        third[:, 0] = v[:, 0] / 3.0
        return full, third


class LinearPropagator:
    """Characteristics integrator for the linearized system at fixed dt.

    The advecting field u_* is frozen, so the particle positions repeat the
    same cycle between regrids; the cycle of stage positions, coefficient
    values (a, b, g_p, r p_*') and moment-quadrature weights is precomputed
    once and reused across steps and ensemble members, which are advanced
    together as rows of a matrix.
    """

    def __init__(self, ops, dt):
        self.ops = ops
        self.dt = dt
        grid = ops.grid
        nodes = grid.nodes
        self.nodes = nodes
        h_ref = (grid.spacing if grid.is_uniform
                 else float(np.min(np.diff(nodes))))
        uf = ops.u_star.interpolator()
        interp = {
            "a": ops.a.interpolator(),
            "b": ops.b.interpolator(),
            "gp": ops.g_p.interpolator(),
            "rp": ops.rp_prime.interpolator(),
        }

        def vel(r):
            v = uf(r)
            v[0] = 0.0
            v[-1] = 0.0
            return v

        self.steps = []
        pos = nodes.copy()
        while True:
            k1 = vel(pos)
            p2 = pos + 0.5 * dt * k1
            k2 = vel(p2)
            p3 = pos + 0.5 * dt * k2
            k3 = vel(p3)
            p4 = pos + dt * k3
            k4 = vel(p4)
            new = pos + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            new[0], new[-1] = 0.0, 1.0
            self.steps.append({
                "stages": [_StageOps(pos, interp), _StageOps(p2, interp),
                           _StageOps(p3, interp), _StageOps(p4, interp)],
                "end": new,
            })
            gaps = np.diff(new)
            pos = new
            if (gaps.min() < REGRID_MIN_FACTOR * h_ref
                    or gaps.max() > REGRID_MAX_FACTOR * h_ref):
                break
        self.cycle_len = len(self.steps)

    def _stage_rate(self, st, phi, zeta):
        full, third = st.moments(st.gp * phi)
        b_op = st.rp * (full[:, None] - third)
        b_op[:, 0] = 0.0
        dphi = st.a * phi + b_op + st.b * zeta[:, None]
        dzeta = full + self.ops.kappa * zeta
        return dphi, dzeta

    def run(self, phi0, zeta0, t_end, output_every=0.1, t0=0.0):
        """Integrate a batch of initial data (rows of phi0) and record
        snapshots resampled onto the reference grid.

        Returns (times, phis, zetas) with phis of shape (n_times, n_runs,
        n_nodes) and zetas of shape (n_times, n_runs).
        """
        dt = self.dt
        n_steps = int(round((t_end - t0) / dt))
        every = max(1, int(round(output_every / dt)))
        phi = np.atleast_2d(np.asarray(phi0, dtype=float)).copy()
        zeta = np.atleast_1d(np.asarray(zeta0, dtype=float)).copy()
        # snapshots go straight into arrays sized up front: the initial
        # state, every `every`-th step and the last step
        n_out = 1 + -(-n_steps // every)
        times = np.empty(n_out)
        phis = np.empty((n_out,) + phi.shape)
        zetas = np.empty((n_out,) + zeta.shape)
        times[0], phis[0], zetas[0] = t0, phi, zeta
        j = 1
        k_cycle = 0
        for k in range(n_steps):
            step = self.steps[k_cycle]
            s1, s2, s3, s4 = step["stages"]
            d1, z1 = self._stage_rate(s1, phi, zeta)
            d2, z2 = self._stage_rate(s2, phi + 0.5 * dt * d1, zeta + 0.5 * dt * z1)
            d3, z3 = self._stage_rate(s3, phi + 0.5 * dt * d2, zeta + 0.5 * dt * z2)
            d4, z4 = self._stage_rate(s4, phi + dt * d3, zeta + dt * z3)
            phi = phi + dt / 6.0 * (d1 + 2 * d2 + 2 * d3 + d4)
            zeta = zeta + dt / 6.0 * (z1 + 2 * z2 + 2 * z3 + z4)
            k_cycle += 1
            end_pos = step["end"]
            if k_cycle == self.cycle_len:
                phi = PchipInterpolator(end_pos, phi, axis=1)(self.nodes)
                k_cycle = 0
                end_pos = self.nodes
            if (k + 1) % every == 0 or k == n_steps - 1:
                if end_pos is self.nodes:
                    phis[j] = phi
                else:
                    phis[j] = PchipInterpolator(end_pos, phi, axis=1)(self.nodes)
                times[j] = t0 + (k + 1) * dt
                zetas[j] = zeta
                j += 1
        return times, phis, zetas


def solve_linearized(ops, init, t_end, dt, output_every=0.1,
                     propagator=None):
    """Integrate the linearized system; returns a Trajectory of deviations.

    init is the pair (phi0: RadialField, zeta0: float).  The recorded states
    carry the deviation field in the p slot and zeta in the z slot; norms are
    the deviation norms (the reference is the zero deviation).  A prebuilt
    LinearPropagator can be passed to amortize the characteristic cycle over
    ensemble runs.
    """
    phi0, zeta0 = init
    require_same_grid(ops.a, phi0)
    if propagator is None or propagator.dt != dt:
        propagator = LinearPropagator(ops, dt)
    times, phis, zetas = propagator.run(phi0.values[None, :], [zeta0], t_end,
                                        output_every=output_every)
    return _deviation_trajectory(ops.grid, times, phis[:, 0, :], zetas[:, 0])


def _deviation_trajectory(grid, times, phis, zetas):
    nodes = grid.nodes
    weight = nodes * (1.0 - nodes)
    states, nx, nx0 = [], [], []
    for t, ph, ze in zip(times, phis, zetas):
        states.append(TumorState(t=float(t), p=RadialField(grid, ph), z=float(ze)))
        sup = float(np.max(np.abs(ph)) + abs(ze))
        nx.append(sup)
        d = derivative_values(ph, nodes)
        nx0.append(sup + float(np.max(weight * np.abs(d))))
    return Trajectory(
        times=times,
        states=states,
        norm_x=np.array(nx),
        norm_x0=np.array(nx0),
        mass_residual=np.full(len(times), np.nan),
        reference=None,
    )


# ---------------------------------------------------------------------------
# decay-rate fitting


@dataclass(frozen=True)
class DecayReport:
    """Log-linear fit of an exponential envelope K e^{-mu t} to a norm series."""

    mu_fit: float
    K_fit: float
    window: tuple
    norm_kind: str
    r2: float
    decades: float
    valid: bool
    note: str = ""


def fit_decay(traj, norm_kind="X", window=None):
    """Fit K e^{-mu t} to a trajectory's norm series.

    The fit uses the last 70% of the run by default (the early transient is
    excluded).  The report is flagged invalid when the smoothed log-norm is
    not decreasing over the window or the fit quality drops below r2 = 0.98.
    """
    series = traj.norm_x if norm_kind == "X" else traj.norm_x0
    times = traj.times
    if window is None:
        t0 = times[0] + (1.0 - FIT_WINDOW_FRACTION) * (times[-1] - times[0])
        window = (float(t0), float(times[-1]))
    mask = (times >= window[0]) & (times <= window[1]) & (series > 1e-300)
    t = times[mask]
    y = np.log(series[mask])
    if t.size < 5:
        return DecayReport(np.nan, np.nan, window, norm_kind, 0.0, 0.0, False,
                           "window holds fewer than 5 usable samples")
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
        window=window,
        norm_kind=norm_kind,
        r2=float(r2),
        decades=decades,
        valid=monotone and r2 >= FIT_R2_MIN,
        note=note,
    )


def random_smooth_field(grid, rng, amplitude=1.0, n_modes=6):
    """Random smooth field with decaying Fourier content, sup-norm <= amplitude."""
    r = grid.nodes
    vals = np.zeros_like(r)
    for k in range(1, n_modes + 1):
        vals += rng.normal() / k ** 2 * np.sin(np.pi * k * r)
        vals += rng.normal() / k ** 2 * np.cos(np.pi * k * r)
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals *= amplitude / peak
    return RadialField(grid, vals)


def decay_ensemble(ops, n_runs=20, t_end=100.0, dt=1e-2, seed=0,
                   amplitude=1e-2, output_every=0.1):
    """Fitted decay rates for an ensemble of random initial perturbations.

    Returns a list of (DecayReport_X, DecayReport_X0) pairs, one per run;
    the empirical rate estimate is the ensemble minimum of the fitted rates.
    """
    rng = np.random.default_rng(seed)
    prop = LinearPropagator(ops, dt)
    phi0 = np.stack([
        random_smooth_field(ops.grid, rng, amplitude=amplitude).values
        for _ in range(n_runs)
    ])
    zeta0 = amplitude * rng.uniform(-1.0, 1.0, size=n_runs)
    times, phis, zetas = prop.run(phi0, zeta0, t_end,
                                  output_every=output_every)
    out = []
    for j in range(n_runs):
        traj = _deviation_trajectory(ops.grid, times, phis[:, j, :],
                                     zetas[:, j])
        out.append((fit_decay(traj, "X"), fit_decay(traj, "X0")))
    return out


# ---------------------------------------------------------------------------
# resolvent of the scalar transport operator


def _resolvent_grid(w, a, lam, margin_rate):
    table = build_fstar(w)
    nodes = w.grid.nodes
    s_nodes = table.fstar(nodes[1:-1])
    margin = min(40.0 / margin_rate, 400.0)
    s_lo = s_nodes[0]
    s_hi = s_nodes[-1] + margin
    n = int(np.ceil((s_hi - s_lo) / RESOLVENT_DS)) + 1
    s_grid = np.linspace(s_lo, s_hi, n)
    r_s = table.finv(s_grid)
    return table, s_nodes, s_grid, r_s


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
    lam = complex(lam)
    omega0 = float(np.max(a.values))
    if lam.real <= omega0:
        raise ValueError(
            f"resolvent needs Re(lambda) > max a = {omega0}, got {lam}")
    table, s_nodes, s_grid, r_s = _resolvent_grid(w, a, lam, lam.real - omega0)
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

    grid = w.grid
    vals = np.empty(grid.size, dtype=complex)
    vals[1:-1] = np.interp(s_nodes, s_grid, q_s)
    vals[0] = f.values[0] / (a.values[0] - lam)
    vals[-1] = f.values[-1] / (a.values[-1] - lam)

    if abs(lam.imag) == 0.0 and np.max(np.abs(vals.imag)) < 1e-12:
        result = RadialField(grid, vals.real)
    else:
        result = (RadialField(grid, vals.real), RadialField(grid, vals.imag))
    if not return_residual:
        return result
    dq = np.empty_like(q_s)
    dq[2:-2] = (q_s[:-4] - 8 * q_s[1:-3] + 8 * q_s[3:-1] - q_s[4:]) / (12 * ds)
    res = dq[2:-2] + (a_s[2:-2] - lam) * q_s[2:-2] - f_s[2:-2]
    return result, float(np.max(np.abs(res)))


def laplace_consistency(w, a, lam, q0, horizon=None, dt_quad=5e-3):
    """Discrepancy between the resolvent and the Laplace-transformed semigroup.

    The transport-with-multiplier semigroup has a closed form in the
    travel-time coordinate (translation times an accumulated-multiplier
    exponential); its time quadrature against e^{-lam t} must equal minus the
    resolvent output.  Returns the sup discrepancy over the grid nodes.
    Raises ValueError when the requested horizon leaves a truncation tail
    above the 1e-4 consistency scale.
    """
    require_same_grid(w, a, q0)
    lam = complex(lam)
    omega0 = float(np.max(a.values))
    rate = lam.real - omega0
    if rate <= 0:
        raise ValueError(
            f"laplace check needs Re(lambda) > max a = {omega0}, got {lam}")
    if horizon is None:
        horizon = 16.0 / rate
    q0_sup = float(np.max(np.abs(q0.values)))
    tail = q0_sup * np.exp(-rate * horizon) / rate
    if tail > 5e-5:
        raise ValueError(
            f"horizon {horizon} leaves truncation tail {tail:.2e} above the "
            "1e-4 consistency scale")

    table = build_fstar(w)
    nodes = w.grid.nodes
    s_nodes = table.fstar(nodes[1:-1])

    # accumulated-multiplier table A(s) = int a(r(sigma)) dsigma on a fine
    # grid long enough to cover every shifted evaluation point
    ds = 1e-3
    s_lo = s_nodes[0]
    s_hi = s_nodes[-1] + horizon + 1.0
    s_fine = np.linspace(s_lo, s_hi, int(np.ceil((s_hi - s_lo) / ds)) + 1)
    a_fine = a(table.finv(s_fine))
    a_big = cumulative_integral(a_fine, s_fine)

    n_t = 2 * int(np.ceil(horizon / (2.0 * dt_quad))) + 1
    t_grid = np.linspace(0.0, horizon, n_t)
    sigma = s_nodes[:, None] + t_grid[None, :]
    q0_sig = q0(table.finv(sigma))
    a_shift = np.interp(sigma, s_fine, a_big) - np.interp(s_nodes, s_fine, a_big)[:, None]
    integrand = q0_sig * np.exp(a_shift - lam * t_grid[None, :])
    laplace = simpson(integrand, x=t_grid, axis=1)

    q = resolvent_apply(w, a, lam, q0)
    if isinstance(q, tuple):
        q_vals = q[0].values + 1j * q[1].values
    else:
        q_vals = q.values
    return float(np.max(np.abs(laplace + q_vals[1:-1])))
