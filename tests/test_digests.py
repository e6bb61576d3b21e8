import numpy as np

from tumorlab.kinetics import KineticsSpec
from tumorlab.linearized import (build_operators, laplace_consistency,
                                 random_smooth_field, resolvent_apply)
from tumorlab.simmaps import build_fstar
from tumorlab.stationary import solve_stationary


def _solver_outputs(spec, grid, sol):
    """The saturating stationary state, the travel-time table of the affine
    u_* and the resolvent and Laplace check on its operators, at 201 nodes,
    each reduced to the list of its output arrays."""
    sat = solve_stationary(KineticsSpec(family="saturating"), grid)
    table = build_fstar(sol.u_star)
    ops = build_operators(sol, spec)
    rng = np.random.default_rng(11)
    f = random_smooth_field(grid, rng)
    q0 = random_smooth_field(grid, rng)
    lam = ops.omega0 + 1.0
    q, res = resolvent_apply(sol.u_star, ops.a, lam, f, return_residual=True)
    qr, qi = resolvent_apply(sol.u_star, ops.a, lam + 0.7j, f)
    return {
        "stationary_saturating": [[sat.z_star], sat.p_star.values,
                                  sat.u_star.values],
        "build_fstar": [table.r_table, table.f_table,
                        [table.u_prime0, table.u_prime1]],
        "resolvent_apply": [q.values, [res], qr.values, qi.values],
        "laplace_consistency": [
            [laplace_consistency(sol.u_star, ops.a, lam, q0),
             laplace_consistency(sol.u_star, ops.a, lam + 0.7j, q0)]],
    }


# SHA-256 of each output's arrays (float64 bytes), recorded with numpy 2.4.6
# and scipy 1.17.1 on x86-64.
# A refactoring leaves every digest as it is.  A change that moves numbers
# on purpose re-records the digests that move and lists old -> new in
# CHANGES.md, which keeps their history; another numpy or scipy build may
# round differently and move them too.
SOLVER_DIGESTS = {
    "stationary_saturating":
        "00478a70e7be02d4348cd5b6d586d70e1b12f85aba3c7e42627c6ba8f66e6277",
    "build_fstar":
        "5ac8a25fdcf4a253925e686e0e9c3a46bc787c81796cac947c1221034120c4f1",
    "resolvent_apply":
        "4a3684effefa5e30aa1f1adad5f96dec9264e60fa84e301daffe87c5a351d703",
    "laplace_consistency":
        "eb4561e6dd1205ee1d5538d46e308e4b446b1101cbc395ec24893862f45ddb34",
}


def test_solver_outputs_bit_identical(default_spec, grid201, stationary201, digest):
    """The saturating stationary solve, the travel-time table and the
    resolvent with its Laplace check reproduce their recorded bytes.  A
    refactoring must leave every digest as it is; a deliberate numerical
    change re-records them and says so in CHANGES.md."""
    outputs = _solver_outputs(default_spec, grid201, stationary201)
    got = {name: digest(*arrays) for name, arrays in outputs.items()}
    assert got == SOLVER_DIGESTS
