"""Nonlinear evolution of the reduced tumor system by characteristics.

The state is U = (p, z): the proliferating fraction on [0,1] and the log
tumor radius.  Along characteristics dr/dt = w(r,t) the p-equation becomes
dp/dt = f(r, p, z), and dz/dt = u(1, t).  The endpoints r=0 and r=1 are
characteristic lines and stay pinned.

Every characteristics integrator steps by the classical 4-stage
Runge-Kutta step, rk4(rates, y, dt), with its own state tuple y and stage
rates, or by the one multistep kernel AdamsBashforth: four-step
Adams-Bashforth on one rate per step, after STARTUP_STEPS rk4 steps that
open each regrid cycle.  step (by _rk4) and simulate (by AdamsBashforth)
advance (positions, p, z), re-evaluating the nutrient profile and the
velocity quadrature at every stage (exact for the affine law, otherwise a
warm-started solve).  frozen_path moves particles alone through frozen
velocity fields up to their first regrid.  picard_solve freezes the
previous iterate's frame velocity at its particles' step-start positions
and steps as simulate does, per block of steps (up to a regrid, at most
PICARD_BLOCK_STEPS): the particles' steps from frozen_path through the
cubics of those velocities, the moment operators of all their stage
positions in one grid.RadialMoments call, then (p, z) reading f and the
moment M there, whose M(1) is dz/dt and whose step-start rows give the
new iterate's velocity; both integrators take w from the stage moment.
In the fixed field of linearized.LinearPropagator (pure transport with
zero coefficients) every regrid cycle repeats the first, which frozen_path
gives once; the particles and (phi, zeta) step by one AdamsBashforth schedule.

Particles drift toward the origin (w < 0 in the interior), so the bundle is
resampled onto the reference grid with a monotone cubic whenever spacing
degrades.  Every run records the same way: output_steps picks the recorded
steps and trajectory builds the Trajectory.  Norms: deviation turns a
state, or a batch of them, into (sup|p - p_*|, sup r(1-r)|d(p - p_*)/dr|,
|z - z_*|); a Trajectory's norm_x = sup|p - p_*| + |z - z_*| and norm_x0
adds the weighted derivative.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PPoly
from scipy.interpolate import PchipInterpolator  # noqa: F401 (bench/spans.py patches it)

from .errors import SolverError
from .grid import (RadialField, RadialMoments, derivative_values, moment_average,
                   pchip, pchip_coefficients, radial_average, require_same_grid)
from .kinetics import eval_rates
from .nutrient import affine_c, solve_nutrient
from .velocity import frame_velocity, radial_velocity

DT_MAX = 2e-2  # the step bound of the nonlinear run, and RunConfig's step
PICARD_MAX_ITERS = 12
REGRID_MIN_FACTOR = 0.2
REGRID_MAX_FACTOR = 2.5
P_ESCAPE_TOL = 1e-9
RECORD_EVERY = 0.5  # the record interval of runs by default
#: most steps in one block of picard_solve; bounds the block's stacked arrays
PICARD_BLOCK_STEPS = 8
#: rk4 steps that open each regrid cycle of an AdamsBashforth history
STARTUP_STEPS = 3


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
    p_term, z_term = _x_terms(diff, z - z_ref)
    terms = (p_term, np.max(nodes * (1.0 - nodes) * np.abs(d), axis=-1), z_term)
    return tuple(map(float, terms)) if np.ndim(diff) == 1 else terms


def _x_terms(dp, dz):
    """The terms of the X norm of a difference (dp, dz) of states, or of
    each row of dp: (sup|dp|, |dz|)."""
    return np.max(np.abs(dp), axis=-1), np.abs(dz)


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


def _stage_rates(spec, cache, positions, values, z):
    """w, f and u(1) at the particle positions for the current state."""
    rv = _stage_kinetics(spec, cache, positions, z)
    u = radial_average(rv.g(values), positions)
    return frame_velocity(u, positions), rv.f(values), u[-1]


def _source_rates(spec, cache, positions, moments, values, z):
    """f and the moment M of g (u = r^-2 M, so M(1) = u(1)) of the state
    (values, z) at stage positions whose moment operator is moments, a
    RadialMoments of those positions alone."""
    rv = _stage_kinetics(spec, cache, positions, z)
    return rv.f(values), moments.cumulative(rv.g(values))


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


class AdamsBashforth:
    """Four-step Adams-Bashforth steps of a state tuple,

        y += dt/24 (55 f_n - 59 f_{n-1} + 37 f_{n-2} - 9 f_{n-3}),

    f_k the rates at the start of step k: one evaluation per step where rk4
    takes four.  The four-slot history, sized once from the tuple like,
    keeps a copy of each step's first-stage rates; it starts empty and
    restart() empties it again (at a regrid); the first STARTUP_STEPS steps
    after either are rk4 steps, whose first stage fills it (filled counts
    them).  step has rk4's signature and, like it, leaves y unchanged.
    """

    def __init__(self, like):
        # each entry's four slots as (4, size) rows, with the entry's shape
        self.history = [(np.empty((4, np.size(a))), np.shape(a)) for a in like]
        self.n = self.filled = 0

    def restart(self):
        self.filled = 0

    def _keep(self, f):
        for (h, _), a in zip(self.history, f):
            h[self.n % 4] = np.ravel(a)
        return f

    def step(self, rates, y, dt):
        self.n += 1
        if self.filled < STARTUP_STEPS:
            self.filled += 1
            return rk4(lambda i, y: self._keep(rates(i, y)) if i == 0 else rates(i, y), y, dt)
        self._keep(rates(0, y))
        w = _ab4_weights(dt)[self.n % 4]
        return tuple(a + (w @ h).reshape(shape) for a, (h, shape) in zip(y, self.history))


@functools.lru_cache(maxsize=8)
def _ab4_weights(dt):
    """AdamsBashforth's weights of the slots at step n: dt/24 times 55,
    -59, 37 and -9 from slot n % 4 back."""
    return [dt / 24.0 * np.roll((55.0, -9.0, 37.0, -59.0), s) for s in range(4)]


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
    """Reject non-finite entries and p escaping [0,1], then clip p (in place);
    NaN fails the min and max tests, so only a failing step names an entry."""
    if not (-P_ESCAPE_TOL <= values.min() and values.max() <= 1.0 + P_ESCAPE_TOL
            and np.isfinite(z)):
        _require_finite("p", values)
        _require_finite("z", np.atleast_1d(z))
        raise SolverError(f"p escaped [0,1]: range [{values.min():.3e}, {values.max():.3e}]")
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
        return np.moveaxis(pchip(positions, values)(nodes), 0, -1)
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
    """The step bound of the nonlinear integrators, RunConfig and
    pure_transport; the linear propagator takes its own
    (linearized.step_bound)."""
    if dt > DT_MAX * (1 + 1e-12):
        raise ValueError(f"dt={dt} exceeds DT_MAX={DT_MAX}")


def frozen_path(stage_fields, positions, dt, h_ref, method):
    """Particles (positions,) moved through frozen velocity fields.

    stage_fields(j) gives step j's fields, callables of r, one per stage of
    method, the step of the caller's AdamsBashforth (which reads the first
    alone after its start-up); each stage rate is pinned to zero at both
    endpoints, so they stay in place.  Yields (stage positions, end
    positions, needs regrid) per step, the end positions guarded, and stops
    after the first step that needs a regrid.
    """
    for j in itertools.count():
        fields = stage_fields(j)
        stages = []

        def rates(i, y):
            stages.append(y[0])
            v = fields[i](y[0])
            v[0] = 0.0
            v[-1] = 0.0
            return (v,)

        (positions,) = method(rates, (positions,), dt)
        again = _needs_regrid(_guarded_positions(positions), h_ref)
        yield stages, positions, again
        if again:
            return


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


def simulate(initial, t_end, dt, spec, reference, output_every=RECORD_EVERY):
    """Integrate the nonlinear system and record norm series against reference.

    The trajectory is sampled every output_every time units (plus t=0 and
    t_end); between regrids the particle bundle evolves freely, stepped by
    AdamsBashforth on one _stage_rates call per step (four in each of a
    cycle's STARTUP_STEPS rk4 steps).
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
    ps, zs, mres = np.empty((len(recorded), nodes.size)), [], []
    multistep = AdamsBashforth((positions, values, z))

    def record(positions, values, z):
        p = np.clip(on_grid(positions, values, nodes), 0.0, 1.0, out=ps[len(zs)])
        zs.append(z)
        mres.append(_mass_residual(spec, cache, grid, p, z))

    record(positions, values, z)
    for k in range(1, n_steps + 1):
        positions, values, z = _guarded(*multistep.step(
            lambda i, y: _stage_rates(spec, cache, *y), (positions, values, z), dt))
        if _needs_regrid(positions, h_ref):
            values = np.clip(regrid(positions, values, nodes), 0.0, 1.0)
            positions = nodes
            multistep.restart()
        if k == recorded[len(zs)]:  # the next step to record
            record(positions, values, z)
    return trajectory(grid, initial.t + dt * np.array(recorded), ps, zs,
                      reference.p_star.values, reference.z_star, mres)


def _picard_sweep(spec, cache, nodes, h_ref, x, w, values, z, dt):
    """One Picard iterate from (values, z) on the nodes: its p on the nodes
    and its z at every step, advected by the frame velocity of the frozen
    path given as rows (x, w), each step's start positions (its end state's
    last) and the path's frame velocity w there.  The new iterate's rows
    replace them in place.

    The positions depend on the frozen path alone, so each block of steps
    takes three passes: the particles move (frozen_path, through the
    cubics of the window's rows, built in one pchip_coefficients call: a
    step's start cubic at an Adams-Bashforth step; start, the mean of start
    and end twice, and end in an rk4 start-up step), one RadialMoments call
    builds the moment operators of all their stage positions, and then
    (p, z) steps through the block reading f and the moment M there.  M(1)
    is dz/dt, and at a step's first stage M gives the new row of w, bit for
    bit _stage_rates' w.  A window's rows are cubics before the block's
    steps overwrite them.  The particles and (p, z) each keep an
    AdamsBashforth history, both restarted at a regrid.  The block's states
    go onto the nodes in one batched on_grid, and one _stage_rates row
    gives the end state's w.
    """
    n_steps = len(x) - 1
    new_p = np.empty((n_steps + 1, nodes.size))
    new_z = np.empty(n_steps + 1)
    new_p[0], new_z[0] = values, z
    positions = nodes
    moves, sources = AdamsBashforth((nodes,)), AdamsBashforth((values, z))
    k = 0
    while k < n_steps:
        window = slice(k, k + PICARD_BLOCK_STEPS + 1)
        cubics = [PPoly.construct_fast(c, xk) for c, xk in
                  zip(pchip_coefficients(x[window], w[window]), x[window])]

        def stage_fields(j):
            begin, end = cubics[j:j + 2]
            return begin, *2 * [lambda r: 0.5 * (begin(r) + end(r))], end

        block = list(itertools.islice(
            frozen_path(stage_fields, positions, dt, h_ref, moves.step), len(cubics) - 1))
        steps = len(block)
        stage_x = [s for stages, _, _ in block for s in stages]
        moments = RadialMoments(np.array(stage_x))
        rows, step_rows = itertools.count(), itertools.count(k)

        def rates(i, y):
            r = next(rows)
            f, moment = _source_rates(spec, cache, stage_x[r], moments[r], *y)
            if i == 0:  # a step's start: its row of the new path (u(1) = M(1) as x = 1)
                s = next(step_rows)
                x[s] = stage_x[r]
                w[s] = frame_velocity(moment_average(moment, x[s]), x[s])
            return f, moment[-1]

        block_p = new_p[k + 1:k + 1 + steps]
        for j in range(steps):
            values, z = _guarded_values(*sources.step(rates, (values, z), dt))
            block_p[j] = values
            new_z[k + 1 + j] = z
        end_x = np.array([end for _, end, _ in block])
        positions = end_x[-1]
        if block[-1][2]:
            values = np.clip(regrid(positions, values, nodes), 0.0, 1.0)
            block_p[-1] = values
            end_x[-1] = positions = nodes
            moves.restart()
            sources.restart()
        block_p[:] = np.clip(on_grid(end_x, block_p, nodes), 0.0, 1.0)
        k += steps
    x[-1], w[-1] = positions, _stage_rates(spec, cache, positions, values, z)[0]
    return new_p, new_z


def picard_solve(initial, t_end, dt, spec, reference, mu, tol=1e-10,
                 output_every=RECORD_EVERY):
    """Iterated frozen-velocity solves converging to the nonlinear solution.

    Iterate n+1 is advected by the frame velocity w of the previous iterate's
    path V^n, while the reaction term and dz/dt use the current unknown.  w
    is kept where simulate takes it, at each step's start positions, from
    the moment each sweep already takes there, and read through a monotone
    cubic over those positions pinned to zero at both endpoints: at the
    start of an Adams-Bashforth step, and at the start, the mean of the
    start and end cubics and the end of an rk4 start-up step (simulate's
    steps).  The positions thus depend on V^n alone: each block of steps
    takes its particles' steps first, then builds their stage moment
    operators in one batch, then steps (p, z) (_picard_sweep).  V^0 is the
    initial perturbation decayed at rate mu on the nodes, with the velocity
    w_* + e^{-mu t} (w(V(0)) - w_*), first order in it as V^0 is.  Stops
    when a distance falls below tol, or after PICARD_MAX_ITERS iterates.
    Returns the final trajectory and the weighted sup distances
    d(V^{n+1}, V^n) = sup_t e^{mu t} ||difference||_X.

    Raises SolverError if the distances increase twice in a row.
    """
    _check_dt(dt)
    grid = require_same_grid(initial.p, reference.p_star)
    nodes = grid.nodes
    cache = NutrientCache(spec, grid)
    n_steps, recorded = output_steps(t_end, dt, output_every)
    path_times = initial.t + dt * np.arange(n_steps + 1)

    # V^0: frozen initial perturbation decayed at rate mu, on the nodes
    decay = np.exp(-mu * (path_times - initial.t))
    path_p = reference.p_star.values + decay[:, None] * (initial.p.values - reference.p_star.values)
    path_z = reference.z_star + decay * (initial.z - reference.z_star)
    w_star = frame_velocity(reference.u_star.values, nodes)
    w0 = _stage_rates(spec, cache, nodes, initial.p.values, initial.z)[0]
    x, w = np.tile(nodes, (n_steps + 1, 1)), w_star + decay[:, None] * (w0 - w_star)

    distances = []
    increases = 0
    for _ in range(PICARD_MAX_ITERS):
        new_p, new_z = _picard_sweep(spec, cache, nodes, grid.spacing, x, w,
                                     initial.p.values, initial.z, dt)
        p_term, z_term = _x_terms(new_p - path_p, new_z - path_z)
        d = float(np.max(np.exp(mu * (path_times - initial.t)) * (p_term + z_term)))
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
