"""Nonlinear evolution of the reduced tumor system by characteristics.

The state is U = (p, z): the proliferating fraction on [0,1] and the log
tumor radius.  Along characteristics dr/dt = w(r,t) the p-equation becomes
dp/dt = f(r, p, z), and dz/dt = u(1, t).  The endpoints r=0 and r=1 are
characteristic lines and stay pinned.

Every characteristics integrator takes the same classical 4-stage
Runge-Kutta step, rk4(rates, y, dt), with its own state tuple y and stage
rates.  The direct step _rk4 (step, simulate) advances (positions, p, z)
and re-evaluates the nutrient profile and the velocity quadrature at every
stage (exact for the affine law, otherwise a warm-started solve, z moves
slowly).  picard_solve advects with the previous iterate's frame velocity,
computed once per iteration on the nodes, so its particle positions do not
depend on the unknown (p, z): per block of steps (up to a regrid, at most
PICARD_BLOCK_STEPS) it advances (positions,) first, builds the moment
operators of all their stage positions in one grid.RadialMoments call, and
then steps (p, z) reading only f and u(1) at those positions.
pure_transport and linearized.LinearPropagator advance (positions,) in a
fixed velocity field, and the propagator then steps (phi, zeta) along the
positions it recorded: rk4 for the first steps of each regrid cycle, then
four-step Adams-Bashforth.

Particles drift toward the origin (w < 0 in the interior), so the bundle is
resampled onto the reference grid with a monotone cubic whenever spacing
degrades.  Every run records the same way: output_steps picks the recorded
steps and trajectory builds the Trajectory.  Norms: deviation turns a
state, or a batch of them, into (sup|p - p_*|, sup r(1-r)|d(p - p_*)/dr|,
|z - z_*|); a Trajectory's norm_x = sup|p - p_*| + |z - z_*| and norm_x0
adds the weighted derivative.
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PPoly
from scipy.interpolate import PchipInterpolator  # noqa: F401 (bench/spans.py patches it)

from .errors import SolverError
from .grid import (RadialField, RadialMoments, derivative_values, pair_moments,
                   pchip_coefficients, radial_average, require_same_grid)
from .kinetics import eval_rates
from .nutrient import affine_c, solve_nutrient
from .velocity import frame_velocity, radial_velocity

DT_MAX = 1e-2
PICARD_MAX_ITERS = 12
REGRID_MIN_FACTOR = 0.2
REGRID_MAX_FACTOR = 2.5
P_ESCAPE_TOL = 1e-9
#: most steps in one block of picard_solve; bounds the block's stacked arrays
PICARD_BLOCK_STEPS = 8


@dataclass(frozen=True)
class TumorState:
    t: float
    p: RadialField
    z: float


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


def deviation(grid, p, z, p_ref, z_ref):
    """(sup|p - p_ref|, sup r(1-r)|(p - p_ref)'|, |z - z_ref|) of one state
    with node values p on the grid, as floats; for a batch of states (one
    per row of p, one z each) each term is an array over the rows."""
    nodes = grid.nodes
    diff = p - p_ref
    d = derivative_values(diff, grid)
    terms = (np.max(np.abs(diff), axis=-1),
             np.max(nodes * (1.0 - nodes) * np.abs(d), axis=-1),
             np.abs(z - z_ref))
    return tuple(map(float, terms)) if np.ndim(diff) == 1 else terms


def trajectory(grid, times, ps, zs, p_ref=0.0, z_ref=0.0, mass_residual=None):
    """The Trajectory of the states (ps, zs) on grid at times, with their
    deviations from (p_ref, z_ref); mass_residual defaults to NaN."""
    times = np.asarray(times, dtype=float)
    states = [TumorState(t=float(t), p=RadialField(grid, p), z=float(z))
              for t, p, z in zip(times, ps, zs)]
    p_dev, dp_dev, z_dev = deviation(grid, np.asarray(ps, dtype=float),
                                     np.asarray(zs, dtype=float), p_ref, z_ref)
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
        self._z_last = None
        self._sol = None

    def solve(self, z):
        if self._sol is not None and z == self._z_last:
            return self._sol
        c_init = None if self._sol is None else self._sol.c.values
        sol = solve_nutrient(self.spec, z, self.grid, c_init=c_init)
        self._z_last = z
        self._sol = sol
        return sol


def _stage_kinetics(spec, cache, positions, z):
    """The rate laws at the particle positions for log radius z.

    The affine law reads the exact c at the positions; the others
    interpolate the cached nutrient solve.
    """
    if spec.family == "affine":
        c = affine_c(spec, z, positions)
    else:
        c = cache.solve(z).c(positions)
    return eval_rates(spec, np.clip(c, 0.0, 1.0))


def _stage_rates(spec, cache, positions, values, z, moments=None):
    """w, f and u(1) at the particle positions for the current state;
    moments is the positions' RadialMoments when the caller keeps one."""
    rv = _stage_kinetics(spec, cache, positions, z)
    u = radial_average(rv.g(values), positions, moments)
    return frame_velocity(u, positions), rv.f(values), u[-1]


def _source_rates(spec, cache, positions, moments, values, z, work):
    """f and u(1) of the state (values, z) at stage positions whose moment
    operator is moments, a (weights, last, start) row of a RadialMoments;
    work holds pair_moments' out, pair and tmp buffers."""
    rv = _stage_kinetics(spec, cache, positions, z)
    return rv.f(values), pair_moments(rv.g(values), *moments, *work)[-1]


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


def _require_finite(name, a):
    finite = np.isfinite(a)
    if not finite.all():
        raise SolverError(f"non-finite {name} at index {finite.argmin()} during step")


def _guarded_positions(positions):
    """Reject non-finite positions, pin the endpoints and reject crossing
    characteristics (in place)."""
    _require_finite("position", positions)
    positions[0] = 0.0
    positions[-1] = 1.0
    if np.any(np.diff(positions) < -1e-12):
        raise SolverError("characteristic crossing during step")
    return positions


def _guarded_values(values, z):
    """Reject non-finite entries and p escaping [0,1], then clip p (in place)."""
    _require_finite("p", values)
    _require_finite("z", np.atleast_1d(z))
    if np.any(values < -P_ESCAPE_TOL) or np.any(values > 1.0 + P_ESCAPE_TOL):
        raise SolverError(
            f"p escaped [0,1]: range [{values.min():.3e}, {values.max():.3e}]"
        )
    np.clip(values, 0.0, 1.0, out=values)
    return values, z


def _guarded(positions, values, z):
    """The post-step guard of positions, p and z."""
    return (_guarded_positions(positions), *_guarded_values(values, z))


def _rk4(spec, cache, positions, values, z, dt):
    """One Runge-Kutta step of the full particle system."""
    def rates(i, y):
        return _stage_rates(spec, cache, *y)

    return _guarded(*rk4(rates, (positions, values, z), dt))


def _pinned_velocity(*fields):
    """Stage rates of particles (positions,) in frozen velocity fields,
    callables of r: stage i reads fields[i], or the one field given reads
    every stage.  The rate is zero at both endpoints, so they stay in place."""
    stage_fields = fields * (4 // len(fields))

    def rates(i, y):
        v = stage_fields[i](y[0])
        v[0] = 0.0
        v[-1] = 0.0
        return (v,)

    return rates


def regrid(positions, values, nodes):
    """Resample particle values (along the last axis) onto the nodes
    (monotone cubic)."""
    if np.any(np.diff(positions) <= 0):
        raise SolverError("non-monotone particle positions in regrid")
    return on_grid(positions, values, nodes)


def on_grid(positions, values, nodes):
    """Particle values (along the last axis) at the nodes: as they are when
    the particles sit on the nodes, otherwise by the monotone cubic.

    positions is one row for every row of values, or one row each; either
    way one grid.pchip_coefficients build serves every moved row, bit for
    bit scipy's PchipInterpolator.
    """
    if positions.ndim == 1:
        if np.array_equal(positions, nodes):
            return values
        c = pchip_coefficients(positions, values)
        cubic = PPoly.construct_fast(np.moveaxis(c, (-2, -1), (0, 1)), positions)
        return np.moveaxis(cubic(nodes), 0, -1)
    out = values.copy()
    moved = np.flatnonzero(np.any(positions != nodes, axis=-1))
    coefs = pchip_coefficients(positions[moved], values[moved])
    for i, c in zip(moved, coefs):
        out[i] = PPoly.construct_fast(c, positions[i])(nodes)
    return out


def _needs_regrid(positions, h_ref):
    gaps = np.diff(positions)
    return gaps.min() < REGRID_MIN_FACTOR * h_ref or gaps.max() > REGRID_MAX_FACTOR * h_ref


def _check_dt(dt):
    """The one step bound of step, simulate and picard_solve."""
    if dt > DT_MAX * (1 + 1e-12):
        raise ValueError(f"dt={dt} exceeds DT_MAX={DT_MAX}")


def step(state, dt, spec):
    """Advance a grid state by one step (dt <= DT_MAX) and resample back to
    its grid."""
    _check_dt(dt)
    grid = state.p.grid
    cache = NutrientCache(spec, grid)
    r, p, z = _rk4(spec, cache, grid.nodes, state.p.values, state.z, dt)
    return TumorState(t=state.t + dt, p=RadialField(grid, regrid(r, p, grid.nodes)), z=z)


def _mass_residual(spec, cache, grid, p, z):
    """Residual of the velocity divergence identity u' + 2u/r = -K_D + K_M p."""
    vel = radial_velocity(RadialField(grid, p), cache.solve(z), spec)
    g = vel.g.values
    u = vel.u.values
    r = grid.nodes
    du = derivative_values(u, grid)
    # interior nodes only: the one-sided endpoint stencils dominate the error
    res = du[1:-1] + 2.0 * u[1:-1] / r[1:-1] - g[1:-1]
    return float(np.max(np.abs(res)))


def simulate(initial, t_end, dt, spec, reference, output_every=0.1):
    """Integrate the nonlinear system and record norm series against reference.

    The trajectory is sampled every output_every time units (plus t=0 and
    t_end); between regrids the particle bundle evolves freely.
    """
    _check_dt(dt)
    grid = require_same_grid(initial.p, reference.p_star)
    nodes = grid.nodes
    cache = NutrientCache(spec, grid)
    h_ref = grid.spacing
    n_steps, recorded = output_steps(t_end, dt, output_every)

    positions = nodes
    values = initial.p.values
    z = initial.z
    ps, zs, mres = [], [], []

    def record(positions, values, z):
        p = np.clip(on_grid(positions, values, nodes), 0.0, 1.0)
        ps.append(p)
        zs.append(z)
        mres.append(_mass_residual(spec, cache, grid, p, z))

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
    h_ref = grid.spacing
    positions = nodes
    values = q0_field.values
    n_steps = int(round(t_end / dt))
    rates = _pinned_velocity(w_field.interpolator())
    sup_series, weighted_series = [], []

    def record(positions, values):
        # the sup of the particle values, the weighted derivative on the nodes
        sup_series.append(float(np.max(np.abs(values))))
        weighted_series.append(
            deviation(grid, on_grid(positions, values, nodes), 0.0, 0.0, 0.0)[1])

    record(positions, values)
    for _ in range(n_steps):
        (positions,) = rk4(rates, (positions,), dt)
        if _needs_regrid(positions, h_ref):
            values = regrid(positions, values, nodes)
            positions = nodes
        record(positions, values)
    return np.array(sup_series), np.array(weighted_series)


class _FrozenPath:
    """Pinned stage rates of the steps of picard_solve's frozen path velocity.

    Step k reads the path's velocity w_k at its start (stage 0), the mean
    0.5 (w_k + w_{k+1}) at stages 1 and 2 and w_{k+1} at stage 3, each
    through the monotone cubic on the nodes.  The cubics of
    PICARD_BLOCK_STEPS steps at a time come from two batched builds, of the
    path states and of the step means.
    """

    def __init__(self, nodes, path_w):
        self.nodes = nodes
        self.path_w = path_w
        self.first = 0
        self.ends = self.means = ()  # built on the first call

    def rates(self, k):
        j = k - self.first
        if not 0 <= j < len(self.means):
            w = self.path_w[k:k + PICARD_BLOCK_STEPS + 1]
            self.first, j = k, 0
            self.ends = pchip_coefficients(self.nodes, w)
            self.means = pchip_coefficients(self.nodes, 0.5 * (w[:-1] + w[1:]))
        start, mid, end = (PPoly.construct_fast(c, self.nodes)
                           for c in (self.ends[j], self.means[j], self.ends[j + 1]))
        return _pinned_velocity(start, mid, mid, end)


def _block_positions(frozen, positions, k, n_steps, dt, h_ref):
    """Advance the particles alone from step k, to their first regrid or
    for at most PICARD_BLOCK_STEPS steps (or to step n_steps).

    Returns each step's four stage positions (steps, 4, n), its guarded end
    positions (steps, n) and whether the last step ends in a regrid.
    """
    steps = min(PICARD_BLOCK_STEPS, n_steps - k)
    stage_x = np.empty((steps, 4, positions.size))
    ends = np.empty((steps, positions.size))
    for j in range(steps):
        velocity = frozen.rates(k + j)

        def rates(i, y):
            stage_x[j, i] = y[0]
            return velocity(i, y)

        (positions,) = rk4(rates, (positions,), dt)
        ends[j] = _guarded_positions(positions)
        if _needs_regrid(positions, h_ref):
            return stage_x[:j + 1], ends[:j + 1], True
    return stage_x, ends, False


def _picard_sweep(spec, cache, nodes, h_ref, path_w, values, z, dt):
    """One Picard iterate from (values, z) on the nodes: its p on the nodes
    and its z at every step, advected by the frozen path velocity path_w.

    The positions depend on path_w alone, so each block of steps takes
    three passes: the particles move first (_block_positions), one
    RadialMoments call builds the moment operators of all their stage
    positions, and then (p, z) steps through the block reading only f and
    u(1) at those positions.  The block's states go onto the nodes in one
    batched on_grid.
    """
    n_steps = len(path_w) - 1
    n = nodes.size
    frozen = _FrozenPath(nodes, path_w)
    new_p = np.empty((n_steps + 1, n))
    new_z = np.empty(n_steps + 1)
    new_p[0], new_z[0] = values, z
    m = (n - 1) // 2
    work = (np.empty(n), np.empty((2, m)), np.empty((2, m)))
    positions = nodes
    k = 0
    while k < n_steps:
        stage_x, ends, regridded = _block_positions(frozen, positions, k,
                                                    n_steps, dt, h_ref)
        steps = len(ends)
        moments = RadialMoments(stage_x.reshape(4 * steps, n))
        weights, last, start = moments.weights, moments.last, moments.start
        block_p = new_p[k + 1:k + 1 + steps]
        for j in range(steps):

            def rates(i, y):
                r = 4 * j + i
                op = (weights[r], None if last is None else last[r], start[r])
                return _source_rates(spec, cache, stage_x[j, i], op, *y, work)

            values, z = _guarded_values(*rk4(rates, (values, z), dt))
            block_p[j] = values
            new_z[k + 1 + j] = z
        positions = ends[-1]
        if regridded:
            values = np.clip(regrid(positions, values, nodes), 0.0, 1.0)
            block_p[-1] = values
            ends[-1] = positions = nodes
        block_p[:] = np.clip(on_grid(ends, block_p, nodes), 0.0, 1.0)
        k += steps
    return new_p, new_z


def picard_solve(initial, t_end, dt, spec, reference, mu, tol=1e-10,
                 output_every=0.1):
    """Iterated frozen-velocity solves converging to the nonlinear solution.

    Iterate n+1 is advected by the frame velocity w of the previous iterate's
    path V^n, while the reaction term and dz/dt use the current unknown.  w
    is computed once per iteration, on the nodes, for every state of V^n;
    stage 0 of a step reads it at the step's start, stages 1 and 2 at the
    mean of the step's two ends and stage 3 at its end, each through a
    monotone cubic pinned to zero at both endpoints.  The positions thus
    depend on V^n alone: each block of steps moves its particles first, then
    builds their stage moment operators in one batch, then steps (p, z)
    (_picard_sweep).  V^0 is the initial
    perturbation decayed at rate mu.  Stops when a distance falls below tol,
    or after PICARD_MAX_ITERS iterates.  Returns the final trajectory and the
    weighted sup distances d(V^{n+1}, V^n) = sup_t e^{mu t} ||difference||_X.

    Raises SolverError if the distances increase twice in a row.
    """
    _check_dt(dt)
    grid = require_same_grid(initial.p, reference.p_star)
    nodes = grid.nodes
    cache = NutrientCache(spec, grid)
    node_moments = RadialMoments(nodes)
    n_steps, recorded = output_steps(t_end, dt, output_every)
    path_times = initial.t + dt * np.arange(n_steps + 1)

    # V^0: frozen initial perturbation decayed at rate mu
    dp0 = initial.p.values - reference.p_star.values
    dz0 = initial.z - reference.z_star
    decay = np.exp(-mu * (path_times - initial.t))
    path_p = reference.p_star.values + decay[:, None] * dp0
    path_z = reference.z_star + decay * dz0

    distances = []
    increases = 0
    for _ in range(PICARD_MAX_ITERS):
        path_w = np.empty_like(path_p)
        for k, (p, z) in enumerate(zip(path_p, path_z)):
            path_w[k] = _stage_rates(spec, cache, nodes, p, z, node_moments)[0]
        new_p, new_z = _picard_sweep(spec, cache, nodes, grid.spacing, path_w,
                                     initial.p.values, initial.z, dt)
        p_dev, _, z_dev = deviation(grid, new_p, new_z, path_p, path_z)
        d = float(np.max(np.exp(mu * (path_times - initial.t)) * (p_dev + z_dev)))
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

    traj = trajectory(grid, path_times[recorded], path_p[recorded],
                      path_z[recorded], reference.p_star.values, reference.z_star)
    return traj, np.array(distances)
