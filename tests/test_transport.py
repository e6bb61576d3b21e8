import hashlib

import numpy as np
import pytest

from tumorlab.grid import RadialField
from tumorlab.linearized import (build_operators, decay_ensemble,
                                 solve_linearized)
from tumorlab.transport import (TumorState, norm_X, norm_X0, picard_solve,
                                pure_transport, simulate, step)


def make_negative_velocity(grid, rng):
    """Random smooth velocity, zero at the endpoints and negative inside."""
    r = grid.nodes
    bumps = sum(rng.uniform(0.2, 1.0) * np.sin(np.pi * k * r) ** 2
                for k in (1, 2, 3))
    return RadialField(grid, -r * (1.0 - r) * (0.3 + bumps))


def test_pure_transport_sup_contraction(grid201, rng):
    q0 = RadialField(grid201, np.sin(3 * grid201.nodes) + 0.2)
    w = make_negative_velocity(grid201, rng)
    sup, _ = pure_transport(w, q0, t_end=2.0, dt=1e-2)
    assert np.all(np.diff(sup) <= 1e-10)


def test_stationary_state_is_fixed_point(stationary801, default_spec):
    state = TumorState(t=0.0, p=stationary801.p_star, z=stationary801.z_star)
    after = step(state, 1e-2, default_spec)
    assert norm_X(after, stationary801) / 1e-2 <= 1e-6


def test_norms_vanish_at_reference(stationary801):
    state = TumorState(t=0.0, p=stationary801.p_star, z=stationary801.z_star)
    assert norm_X(state, stationary801) == 0.0
    assert norm_X0(state, stationary801) == 0.0


def test_norm_x0_dominates_norm_x(stationary801, rng):
    vals = np.clip(stationary801.p_star.values
                   + 1e-2 * np.sin(5 * stationary801.grid.nodes), 0, 1)
    state = TumorState(t=0.0, p=stationary801.p_star.with_values(vals),
                       z=stationary801.z_star + 1e-3)
    assert norm_X0(state, stationary801) >= norm_X(state, stationary801)


def test_simulate_records_expected_rows(stationary201, default_spec):
    r = stationary201.grid.nodes
    p0 = np.clip(stationary201.p_star.values + 1e-3 * r * (1 - r), 0, 1)
    init = TumorState(t=0.0, p=RadialField(stationary201.grid, p0),
                      z=stationary201.z_star)
    traj = simulate(init, 1.0, 1e-2, default_spec, stationary201,
                    output_every=0.1)
    assert len(traj.times) == 11
    assert len(traj.states) == 11
    assert np.all(np.isfinite(traj.norm_x))
    assert np.all(traj.mass_residual <= 1e-4)


def test_perturbation_decays_toward_stationary(stationary201, default_spec):
    r = stationary201.grid.nodes
    p0 = np.clip(stationary201.p_star.values + 1e-2 * np.sin(np.pi * r), 0, 1)
    init = TumorState(t=0.0, p=RadialField(stationary201.grid, p0),
                      z=stationary201.z_star + 1e-3)
    traj = simulate(init, 10.0, 1e-2, default_spec, stationary201)
    assert traj.norm_x[-1] < 0.6 * traj.norm_x[0]


def test_quiescent_fraction_complements(stationary201):
    state = TumorState(t=0.0, p=stationary201.p_star, z=stationary201.z_star)
    np.testing.assert_allclose(state.q.values, 1.0 - state.p.values,
                               rtol=0, atol=0)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _trajectory_arrays(traj):
    return [traj.times, traj.norm_x, traj.norm_x0, traj.mass_residual,
            [s.z for s in traj.states]] + [s.p.values for s in traj.states]


def _integrator_outputs(sol, spec):
    """Short runs of the six characteristics integrators on a 201-node
    stationary state, each reduced to the list of its output arrays.

    The horizons are chosen so that simulate, pure_transport and
    LinearPropagator each regrid at least once.
    """
    grid = sol.grid
    r = grid.nodes
    p0 = np.clip(sol.p_star.values + 1e-2 * np.sin(np.pi * r), 0.0, 1.0)
    init = TumorState(t=0.0, p=RadialField(grid, p0), z=sol.z_star + 1e-3)
    ops = build_operators(sol, spec)
    after = step(init, 1e-2, spec)
    traj, distances = picard_solve(init, 1.0, 1e-2, spec, sol, mu=0.07)
    sup, weighted = pure_transport(
        sol.u_star, RadialField(grid, np.sin(3 * r) + 0.2), 3.0, 1e-2)
    linear = solve_linearized(
        ops, (RadialField(grid, 1e-2 * np.sin(np.pi * r)), 1e-3), 2.0, 1e-2)
    fits = decay_ensemble(ops, n_runs=3, t_end=5.0, seed=0)
    return {
        "step": [after.p.values, [after.z]],
        "simulate": _trajectory_arrays(simulate(init, 1.0, 1e-2, spec, sol)),
        "picard_solve": _trajectory_arrays(traj) + [distances],
        "pure_transport": [sup, weighted],
        "solve_linearized": _trajectory_arrays(linear),
        "decay_ensemble": [[(f.mu_fit, f.K_fit, f.r2, f.decades)
                            for pair in fits for f in pair]],
    }


# SHA-256 of each integrator's output arrays (float64 bytes), recorded with
# numpy 2.4.6 and scipy 1.17.1 on x86-64 after the switch to the exact
# affine nutrient profile.
INTEGRATOR_DIGESTS = {
    "step":
        "2b8b1a43067a75f82672f2af00ca2af866da4f52d1c19837a70a262e7ff8e8d5",
    "simulate":
        "3e98ac6070cf82fa5b891379cd61d26237cc9694949d820a1d1bb7802a0adede",
    "picard_solve":
        "08a5b53b9e6cbdb2183d6f17b8084d68bd710020c574fe9c50d751a4e6d520af",
    "pure_transport":
        "34bc1f054a5bda423183f058721beb1a766bf87a748f225235d733522f07fe67",
    "solve_linearized":
        "5bf84c848f87b34c6ed36f4ea2c72b36708c1614e4b8a7466d89e831c012e454",
    "decay_ensemble":
        "9b87f71d339d7a75fe5a5cde5196034b489b765d599931d173a53a2909eab2c3",
}


def test_integrators_bit_identical(stationary201, default_spec):
    """Every characteristics integrator reproduces its recorded output bytes.

    All six share one Runge-Kutta step, so a change to that step, to the
    stage rates, to the post-step guard or to regridding shows here as a
    changed digest.  Refactoring must leave every digest as it is.  A
    deliberate numerical change must re-record the digests and say so in
    CHANGES.md.  Another numpy or scipy build may round differently and
    change them too.
    """
    outputs = _integrator_outputs(stationary201, default_spec)
    got = {name: _digest(*arrays) for name, arrays in outputs.items()}
    assert got == INTEGRATOR_DIGESTS
