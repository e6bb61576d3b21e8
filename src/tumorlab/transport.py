"""Nonlinear evolution of the reduced tumor system by characteristics.

The state is U = (p, z): the proliferating fraction on [0,1] and the log
tumor radius.  Along characteristics dr/dt = w(r,t) the p-equation becomes
dp/dt = f(r, p, z), and dz/dt = u(1, t).  The endpoints r=0 and r=1 are
characteristic lines and stay pinned.

Every characteristics integrator takes the same classical 4-stage
Runge-Kutta step, rk4(rates, y, dt), with its own state tuple y and stage
rates.  The direct step _rk4 (step, simulate) and picard_solve advance
(positions, p, z) and re-evaluate the nutrient profile and the velocity
quadrature at every stage (exact for the affine law, otherwise a
warm-started solve, z moves slowly); Picard takes the velocity from the
previous iterate's frozen path.  pure_transport and
linearized.LinearPropagator advance (positions,) in a fixed velocity field,
and the propagator then steps (phi, zeta) along the stage positions it
recorded.

Particles drift toward the origin (w < 0 in the interior), so the bundle is
resampled onto the reference grid with a monotone cubic whenever spacing
degrades.  Every run records the same way: output_steps picks the recorded
steps and trajectory builds the Trajectory.  Norms: deviation turns one
state into (sup|p - p_*|, sup r(1-r)|d(p - p_*)/dr|, |z - z_*|);
normX = sup|p - p_*| + |z - z_*| and normX0 adds the weighted derivative.
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import SolverError
from .grid import RadialField, derivative_values, radial_average, require_same_grid
from .kinetics import eval_rates
from .nutrient import affine_profile, solve_nutrient
from .velocity import frame_velocity

DT_MAX_DEFAULT = 1e-2
REGRID_MIN_FACTOR = 0.2
REGRID_MAX_FACTOR = 2.5
P_ESCAPE_TOL = 1e-9


@dataclass(frozen=True)
class TumorState:
    t: float
    p: RadialField
    z: float

    @property
    def q(self):
        """Quiescent fraction, derived: q = 1 - p identically."""
        return self.p.with_values(1.0 - self.p.values)


@dataclass
class Trajectory:
    """Recorded states and, per state, the three terms of deviation."""

    times: np.ndarray
    states: list
    p_dev: np.ndarray
    dp_dev: np.ndarray
    z_dev: np.ndarray
    mass_residual: np.ndarray

    @property
    def norm_x(self):
        return self.p_dev + self.z_dev

    @property
    def norm_x0(self):
        return self.norm_x + self.dp_dev


def deviation(nodes, p, z, p_ref, z_ref):
    """(sup|p - p_ref|, sup r(1-r)|(p - p_ref)'|, |z - z_ref|) of one state
    with node values p on the nodes."""
    diff = p - p_ref
    d = derivative_values(diff, nodes)
    return (float(np.max(np.abs(diff))),
            float(np.max(nodes * (1.0 - nodes) * np.abs(d))),
            float(abs(z - z_ref)))


def trajectory(grid, times, ps, zs, p_ref=0.0, z_ref=0.0, mass_residual=None):
    """The Trajectory of the states (ps, zs) on grid at times, with their
    deviations from (p_ref, z_ref); mass_residual defaults to NaN."""
    times = np.asarray(times, dtype=float)
    states = [TumorState(t=float(t), p=RadialField(grid, p), z=float(z))
              for t, p, z in zip(times, ps, zs)]
    p_dev, dp_dev, z_dev = map(np.array, zip(*(
        deviation(grid.nodes, st.p.values, st.z, p_ref, z_ref) for st in states)))
    if mass_residual is None:
        mass_residual = np.full(len(times), np.nan)
    return Trajectory(times=times, states=states, p_dev=p_dev, dp_dev=dp_dev,
                      z_dev=z_dev, mass_residual=np.asarray(mass_residual))


def output_steps(t_span, dt, output_every):
    """(n_steps, recorded steps) of a run of t_span in steps of dt: the
    recorded step indices are 0, every output_every time units, and n_steps."""
    n_steps = int(round(t_span / dt))
    every = max(1, int(round(output_every / dt)))
    return n_steps, sorted(set(range(0, n_steps + 1, every)) | {n_steps})


class NutrientCache:
    """Warm-started nutrient solves on a fixed reference grid."""

    def __init__(self, spec, grid):
        self.spec = spec
        self.grid = grid
        self._c_last = None
        self._z_last = None
        self._sol = None

    def solve(self, z):
        if self._sol is not None and z == self._z_last:
            return self._sol
        sol = solve_nutrient(self.spec, z, self.grid, c_init=self._c_last)
        self._c_last = sol.c.values
        self._z_last = z
        self._sol = sol
        return sol


def _stage_rates(spec, cache, positions, values, z):
    """w, f and u(1) at the particle positions for the current state.

    The affine law reads the exact c at the positions; the others
    interpolate the cached nutrient solve.
    """
    if spec.family == "affine":
        c = affine_profile(spec, z, positions)[0]
    else:
        c = cache.solve(z).c(positions)
    c = np.clip(c, 0.0, 1.0)
    rv = eval_rates(spec, c)
    g = -rv.kd + rv.km * values
    u = radial_average(g, positions)
    f = rv.kp + (rv.km - rv.kn) * values - rv.km * values * values
    return frame_velocity(u, positions), f, u[-1]


def rk4(rates, y, dt):
    """One classical Runge-Kutta step of y' = rates(i, y).

    y is a tuple of arrays and scalars; rates(i, y) returns the tuple of
    their derivatives at stage i = 0..3 for the stage state y it is given.
    Returns the new tuple and leaves y unchanged.
    """
    k1 = rates(0, y)
    k2 = rates(1, tuple(a + 0.5 * dt * k for a, k in zip(y, k1)))
    k3 = rates(2, tuple(a + 0.5 * dt * k for a, k in zip(y, k2)))
    k4 = rates(3, tuple(a + dt * k for a, k in zip(y, k3)))
    return tuple(a + dt / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))


def _guarded(positions, values, z):
    """Pin the endpoints, reject crossing characteristics and p escaping
    [0,1], then clip p; positions and values are changed in place."""
    positions[0] = 0.0
    positions[-1] = 1.0
    if np.any(np.diff(positions) < -1e-12):
        raise SolverError("characteristic crossing during step")
    if np.any(values < -P_ESCAPE_TOL) or np.any(values > 1.0 + P_ESCAPE_TOL):
        raise SolverError(
            f"p escaped [0,1]: range [{values.min():.3e}, {values.max():.3e}]"
        )
    np.clip(values, 0.0, 1.0, out=values)
    return positions, values, z


def _rk4(spec, cache, positions, values, z, dt):
    """One Runge-Kutta step of the full particle system."""
    def rates(i, y):
        return _stage_rates(spec, cache, *y)

    return _guarded(*rk4(rates, (positions, values, z), dt))


def _pinned_velocity(w_field):
    """Stage rates of particles (positions,) in the frozen velocity field
    w_field; the rate is zero at both endpoints, so they stay in place."""
    wf = w_field.interpolator()

    def rates(i, y):
        v = wf(y[0])
        v[0] = 0.0
        v[-1] = 0.0
        return (v,)

    return rates


def regrid(positions, values, nodes):
    """Resample particle values onto the nodes (monotone cubic)."""
    if np.any(np.diff(positions) <= 0):
        raise SolverError("non-monotone particle positions in regrid")
    return PchipInterpolator(positions, values)(nodes)


def on_grid(positions, values, nodes):
    """Particle values (along the last axis) at the nodes: as they are when
    the particles sit on the nodes, otherwise by the monotone cubic."""
    if np.array_equal(positions, nodes):
        return values
    return PchipInterpolator(positions, values, axis=-1)(nodes)


def _reference_spacing(grid):
    """The node spacing that particle gaps are compared with."""
    return grid.spacing if grid.is_uniform else float(np.min(np.diff(grid.nodes)))


def _needs_regrid(positions, h_ref):
    gaps = np.diff(positions)
    return gaps.min() < REGRID_MIN_FACTOR * h_ref or gaps.max() > REGRID_MAX_FACTOR * h_ref


def step(state, dt, spec, cache=None, dt_max=DT_MAX_DEFAULT):
    """Advance a grid state by one step and resample back to its grid."""
    if dt > dt_max * (1 + 1e-12):
        raise ValueError(f"dt={dt} exceeds dt_max={dt_max}")
    grid = state.p.grid
    if cache is None:
        cache = NutrientCache(spec, grid)
    r, p, z = _rk4(spec, cache, grid.nodes, state.p.values, state.z, dt)
    return TumorState(t=state.t + dt, p=RadialField(grid, regrid(r, p, grid.nodes)), z=z)


def _deviation_from(state, ref):
    grid = require_same_grid(state.p, ref.p_star)
    return deviation(grid.nodes, state.p.values, state.z, ref.p_star.values, ref.z_star)


def norm_X(state, ref):
    """sup |p - p_*| + |z - z_*|."""
    p_dev, _, z_dev = _deviation_from(state, ref)
    return p_dev + z_dev


def norm_X0(state, ref):
    """normX plus the weighted derivative term sup r(1-r)|d(p - p_*)/dr|."""
    p_dev, dp_dev, z_dev = _deviation_from(state, ref)
    return p_dev + z_dev + dp_dev


def _mass_residual(spec, cache, r, p, z):
    """Residual of the velocity divergence identity u' + 2u/r = -K_D + K_M p."""
    ns = cache.solve(z)
    rv = eval_rates(spec, np.clip(ns.c.values, 0.0, 1.0))
    g = -rv.kd + rv.km * p
    u = radial_average(g, r)
    du = derivative_values(u, r)
    # interior nodes only: the one-sided endpoint stencils dominate the error
    res = du[1:-1] + 2.0 * u[1:-1] / r[1:-1] - g[1:-1]
    return float(np.max(np.abs(res)))


def simulate(initial, t_end, dt, spec, reference, output_every=0.1,
             dt_max=DT_MAX_DEFAULT):
    """Integrate the nonlinear system and record norm series against reference.

    The trajectory is sampled every output_every time units (plus t=0 and
    t_end); between regrids the particle bundle evolves freely.
    """
    if dt > dt_max * (1 + 1e-12):
        raise ValueError(f"dt={dt} exceeds dt_max={dt_max}")
    grid = require_same_grid(initial.p, reference.p_star)
    nodes = grid.nodes
    cache = NutrientCache(spec, grid)
    h_ref = _reference_spacing(grid)
    n_steps, recorded = output_steps(t_end, dt, output_every)

    positions = nodes
    values = initial.p.values
    z = initial.z
    ps, zs, mres = [], [], []

    def record(positions, values, z):
        p = np.clip(on_grid(positions, values, nodes), 0.0, 1.0)
        ps.append(p)
        zs.append(z)
        mres.append(_mass_residual(spec, cache, nodes, p, z))

    record(positions, values, z)
    for k in range(1, n_steps + 1):
        positions, values, z = _rk4(spec, cache, positions, values, z, dt)
        if _needs_regrid(positions, h_ref):
            values = np.clip(regrid(positions, values, nodes), 0.0, 1.0)
            positions = nodes
        if k == recorded[len(zs)]:  # the next step to record
            record(positions, values, z)
    return trajectory(grid, initial.t + dt * np.array(recorded), ps, zs,
                      reference.p_star.values, reference.z_star, mres)


def pure_transport(w_field, q0_field, t_end, dt):
    """Advect q with a fixed velocity w and zero source; returns norm series.

    Used to observe the contraction property of the transport semigroup: the
    sup norm may never increase, and the weighted derivative grows at most
    exponentially.
    """
    grid = q0_field.grid
    nodes = grid.nodes
    h_ref = _reference_spacing(grid)
    positions = nodes
    values = q0_field.values
    n_steps = int(round(t_end / dt))
    rates = _pinned_velocity(w_field)
    sup_series, weighted_series = [], []

    def record(positions, values):
        # the sup of the particle values, the weighted derivative on the nodes
        sup_series.append(float(np.max(np.abs(values))))
        weighted_series.append(
            deviation(nodes, on_grid(positions, values, nodes), 0.0, 0.0, 0.0)[1])

    record(positions, values)
    for _ in range(n_steps):
        (positions,) = rk4(rates, (positions,), dt)
        if _needs_regrid(positions, h_ref):
            values = regrid(positions, values, nodes)
            positions = nodes
        record(positions, values)
    return np.array(sup_series), np.array(weighted_series)


def _interp_path(path_times, path_p, path_z, t):
    """Piecewise-linear lookup of the frozen coefficient path at time t."""
    t = min(max(t, path_times[0]), path_times[-1])
    i = min(int(np.searchsorted(path_times, t, side="right")) - 1, len(path_times) - 2)
    s = (t - path_times[i]) / (path_times[i + 1] - path_times[i])
    return (1 - s) * path_p[i] + s * path_p[i + 1], (1 - s) * path_z[i] + s * path_z[i + 1]


def picard_solve(initial, t_end, dt, spec, reference, mu, max_iters=12,
                 tol=1e-10, output_every=0.1):
    """Iterated frozen-velocity solves converging to the nonlinear solution.

    Iterate n+1 solves the semi-linear system whose advection velocity is
    computed from the previous iterate's path V^n(t) (p and z frozen), while
    the reaction term and dz/dt use the current unknown.  V^0 is the initial
    perturbation decayed at rate mu.  Returns the final trajectory and the
    weighted sup distances d(V^{n+1}, V^n) = sup_t e^{mu t} ||difference||_X.

    Raises SolverError if the distances increase twice in a row.
    """
    grid = require_same_grid(initial.p, reference.p_star)
    nodes = grid.nodes
    cache = NutrientCache(spec, grid)
    h_ref = _reference_spacing(grid)
    n_steps, recorded = output_steps(t_end, dt, output_every)
    path_times = initial.t + dt * np.arange(n_steps + 1)

    # V^0: frozen initial perturbation decayed at rate mu
    dp0 = initial.p.values - reference.p_star.values
    dz0 = initial.z - reference.z_star
    decay = np.exp(-mu * (path_times - initial.t))
    path_p = [reference.p_star.values + d * dp0 for d in decay]
    path_z = [reference.z_star + d * dz0 for d in decay]
    stage_dt = (0.0, 0.5 * dt, 0.5 * dt, dt)

    def rates(i, y):
        # w from the frozen path V^n at the stage time (t is the start of
        # the current step); f and u(1) from the current unknown
        pv, zv = _interp_path(path_times, path_p, path_z, t + stage_dt[i])
        path_values = PchipInterpolator(nodes, pv)(y[0])
        w = _stage_rates(spec, cache, y[0], path_values, zv)[0]
        _, f, u1 = _stage_rates(spec, cache, *y)
        return w, f, u1

    distances = []
    increases = 0
    for _ in range(max_iters):
        positions = nodes
        values = initial.p.values
        z = initial.z
        new_p = [values]
        new_z = [z]
        for k in range(n_steps):
            t = path_times[k]
            positions, values, z = _guarded(*rk4(rates, (positions, values, z), dt))
            if _needs_regrid(positions, h_ref):
                values = np.clip(regrid(positions, values, nodes), 0.0, 1.0)
                positions = nodes
            new_p.append(np.clip(on_grid(positions, values, nodes), 0.0, 1.0))
            new_z.append(z)
        weights = np.exp(mu * (path_times - initial.t))
        d = max(
            float(w * (np.max(np.abs(a - b)) + abs(za - zb)))
            for w, a, b, za, zb in zip(weights, new_p, path_p, new_z, path_z)
        )
        distances.append(d)
        path_p, path_z = new_p, new_z
        if len(distances) >= 2 and distances[-1] > distances[-2]:
            increases += 1
            if increases >= 2:
                raise SolverError(
                    f"Picard iteration diverging: distances {distances}"
                )
        else:
            increases = 0
        if d < tol:
            break

    traj = trajectory(grid, path_times[recorded], [path_p[i] for i in recorded],
                      [path_z[i] for i in recorded], reference.p_star.values,
                      reference.z_star)
    return traj, np.array(distances)
