"""Similarity calculus for radial characteristic flows.

The stationary velocity u_* is negative on (0,1) with simple zeros at the
endpoints, so its travel-time coordinate

    F_*(r) = -integral_{1/2}^r d_eta / u_*(eta)

maps (0,1) monotonically onto the whole real line and turns the stationary
flow dr/dt = u_*(r) into unit-speed translation x -> x - t.  This module
builds a numerically accurate F_* table (log singularities at the endpoints
split off analytically), the stationary flow maps Phi_*/Psi_*, the perturbed
flow maps Phi/Psi for a time-dependent velocity w(r,t) close to u_*, and the
conjugating diffeomorphisms

    T = Phi_* o Psi,    S = Phi o Psi_*,

which transport the perturbed characteristics onto the stationary ones.
check_map_bounds measures the comparison inequalities these maps satisfy
(weight equivalences, shift bounds linear in the perturbation size, spatial
derivative bounds, and the induced distance between cumulative-moment
operators) on a randomized sample plan.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.interpolate import CubicSpline, PchipInterpolator

from .errors import ExperimentFailure, SolverError
from .grid import derivative_values, third_moment

FLOW_RTOL = 1e-10
FLOW_ATOL = 1e-12
PSI_TOL = 1e-12
PSI_MAX_ITERS = 40
#: hypothesis threshold for sup |dw/dr - u_*'| / (eps e^{-mu t})
GRADIENT_HYPOTHESIS_CAP = 100.0


# ---------------------------------------------------------------------------
# travel-time coordinate


@dataclass(frozen=True)
class FStarTable:
    """Monotone table of the travel-time coordinate F_* and its inverse.

    The table covers [r_min, 1-r_min]; beyond it the closed-form logarithmic
    asymptotics F_* ~ slope0*log r (near 0) and F_* ~ -slope1*log(1-r)
    (near 1) take over, so fstar/finv are defined on all of [0,1] / R with
    the conventions fstar(0) = -inf and fstar(1) = +inf.
    """

    r_table: np.ndarray
    f_table: np.ndarray
    u_prime0: float
    u_prime1: float
    _fwd: object = field(default=None, repr=False, compare=False)
    _inv: object = field(default=None, repr=False, compare=False)

    @property
    def slope0(self):
        """d F_* / d log r near 0 (= 1/|u'(0)|)."""
        return -1.0 / self.u_prime0

    @property
    def slope1(self):
        """-d F_* / d log(1-r) near 1 (= 1/u'(1))."""
        return 1.0 / self.u_prime1

    def _splines(self):
        if self._fwd is None:
            object.__setattr__(self, "_fwd", CubicSpline(self.r_table, self.f_table))
            object.__setattr__(self, "_inv", CubicSpline(self.f_table, self.r_table))
        return self._fwd, self._inv

    def fstar(self, r):
        fwd, _ = self._splines()
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.empty_like(r_arr)
        r0, r1 = self.r_table[0], self.r_table[-1]
        f0, f1 = self.f_table[0], self.f_table[-1]
        lo = r_arr < r0
        hi = r_arr > r1
        mid = ~(lo | hi)
        out[mid] = fwd(r_arr[mid])
        with np.errstate(divide="ignore"):
            out[lo] = f0 + self.slope0 * np.log(r_arr[lo] / r0)
            out[hi] = f1 - self.slope1 * np.log((1.0 - r_arr[hi]) / (1.0 - r1))
        return out if np.ndim(r) else float(out[0])

    def finv(self, x):
        _, inv = self._splines()
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(x_arr)
        r0, r1 = self.r_table[0], self.r_table[-1]
        f0, f1 = self.f_table[0], self.f_table[-1]
        lo = x_arr < f0
        hi = x_arr > f1
        mid = ~(lo | hi)
        out[mid] = inv(x_arr[mid])
        out[lo] = r0 * np.exp((x_arr[lo] - f0) / self.slope0)
        out[hi] = 1.0 - (1.0 - r1) * np.exp(-(x_arr[hi] - f1) / self.slope1)
        return out if np.ndim(x) else float(out[0])


def build_fstar(u_star, u_prime0=None, u_prime1=None, points_per_unit=50,
                r_min=1e-6):
    """Tabulate the travel-time coordinate of a negative interior velocity.

    u_star is a RadialField, negative on (0,1) with simple zeros at both
    endpoints.  The reciprocal integrand 1/u is split into the two endpoint
    poles (integrated in closed form as logarithms) plus a bounded remainder
    integrated by composite 8-point Gauss-Legendre on a grid graded so that
    consecutive nodes are ~1/points_per_unit apart in the F_* coordinate.
    The remainder is evaluated through the smooth quotients u/r and u/(r-1),
    which avoids the catastrophic cancellation of subtracting two poles.
    """
    nodes = u_star.grid.nodes
    vals = u_star.values
    if np.any(vals[1:-1] >= 0.0):
        raise ValueError("velocity must be strictly negative on the interior")
    dv = derivative_values(vals, nodes)
    if u_prime0 is None:
        u_prime0 = float(dv[0])
    if u_prime1 is None:
        u_prime1 = float(dv[-1])
    if u_prime0 >= 0 or u_prime1 <= 0:
        raise ValueError("velocity must have a negative slope at 0 and a positive slope at 1")

    # smooth quotients m = u/r and n = u/(r-1), exact limits at the zeros
    m_vals = np.empty_like(vals)
    m_vals[0] = u_prime0
    m_vals[1:] = vals[1:] / nodes[1:]
    n_vals = np.empty_like(vals)
    n_vals[-1] = u_prime1
    n_vals[:-1] = vals[:-1] / (nodes[:-1] - 1.0)
    m_interp = PchipInterpolator(nodes, m_vals)
    n_interp = PchipInterpolator(nodes, n_vals)

    def g_reg(eta):
        """1/u minus both pole terms, evaluated cancellation-free."""
        eta = np.asarray(eta, dtype=float)
        out = np.empty_like(eta)
        left = eta <= 0.5
        el = eta[left]
        m = m_interp(el)
        out[left] = (u_prime0 - m) / (el * m * u_prime0) - 1.0 / (u_prime1 * (el - 1.0))
        er = eta[~left]
        n = n_interp(er)
        out[~left] = (u_prime1 - n) / ((er - 1.0) * n * u_prime1) - 1.0 / (u_prime0 * er)
        return out

    uf = u_star.interpolator()
    delta = 1.0 / points_per_unit

    def march(a, b):
        pts = [a]
        r = a
        while True:
            step = delta * max(abs(float(uf(r))), 1e-12 * r * (1.0 - r) + 1e-300)
            if r + step >= b:
                break
            r += step
            pts.append(r)
        pts.append(b)
        return pts

    r_nodes = np.array(march(r_min, 0.5) + march(0.5, 1.0 - r_min)[1:])
    i_half = int(np.searchsorted(r_nodes, 0.5))

    # composite Gauss-Legendre for the bounded remainder
    gx, gw = np.polynomial.legendre.leggauss(8)
    a = r_nodes[:-1]
    b = r_nodes[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * gx[None, :]
    panel = (g_reg(pts.ravel()).reshape(pts.shape) @ gw) * half
    cum = np.concatenate(([0.0], np.cumsum(panel)))
    i_reg = cum - cum[i_half]

    f_table = (-i_reg
               + (-1.0 / u_prime0) * np.log(2.0 * r_nodes)
               - (1.0 / u_prime1) * np.log(2.0 * (1.0 - r_nodes)))
    f_table[i_half] = 0.0
    if np.any(np.diff(f_table) <= 0):
        raise SolverError("travel-time table is not strictly increasing")
    return FStarTable(
        r_table=r_nodes, f_table=f_table,
        u_prime0=u_prime0, u_prime1=u_prime1,
    )


def _check_order(t, s):
    if t < s - 1e-12:
        raise ValueError(f"flow maps need t >= s, got t={t}, s={s}")


def phi_star(table, xi, t, s):
    """Stationary flow map: position at time t of a particle at xi at time s."""
    _check_order(t, s)
    with np.errstate(invalid="ignore"):
        out = table.finv(table.fstar(xi) - (t - s))
    return out


def psi_star(table, r, t, s):
    """Inverse stationary flow map: label at time s of the position r at t."""
    _check_order(t, s)
    with np.errstate(invalid="ignore"):
        return table.finv(table.fstar(r) + (t - s))


# ---------------------------------------------------------------------------
# perturbed flow


@dataclass
class DiffeoMaps:
    """Flow maps of a time-dependent velocity w(r,t) close to u_*.

    w is a vectorized callable (r_array, t) -> values; w_dr optionally gives
    its analytic radial derivative (finite differences otherwise).  epsilon
    and mu record the perturbation amplitude and decay rate of w - u_* for
    reporting; they do not enter the map evaluation itself.
    """

    table: FStarTable
    u_star: object
    w: object
    w_dr: object = None
    epsilon: float = 0.0
    mu: float = 0.0

    def relative_gap(self, r, t):
        """w(r,t)/u_*(r) - 1, the relative perturbation along the flow."""
        r = np.asarray(r, dtype=float)
        uv = self.u_star(r)
        wv = self.w(r, t)
        inner = (r > 0.0) & (r < 1.0)
        if np.any(wv[inner] >= 0.0):
            raise SolverError("perturbed velocity lost negativity on the interior")
        out = np.zeros_like(uv)
        out[inner] = wv[inner] / uv[inner] - 1.0
        return out

    def w_gradient(self, r, t):
        if self.w_dr is not None:
            return self.w_dr(r, t)
        r = np.asarray(r, dtype=float)
        h = np.minimum(1e-6, 0.5 * np.minimum(np.maximum(r, 1e-6), np.maximum(1.0 - r, 1e-6)))
        return (self.w(r + h, t) - self.w(r - h, t)) / (2.0 * h)


def make_perturbed_velocity(u_star, epsilon, mu):
    """Velocity family w(r,t) = u_*(r) [1 + eps e^{-mu t} cos(pi r)].

    The shape cos(pi r) changes sign and |cos(pi r)| <= 1.  Returns (w, w_dr)
    callables; w_dr uses the interpolated u_*' so it is consistent with w to
    interpolation accuracy.
    """
    def sh(r):
        return np.cos(np.pi * r)

    uf = u_star.interpolator()
    ud = uf.derivative()

    def w(r, t):
        return uf(r) * (1.0 + epsilon * np.exp(-mu * t) * sh(r))

    def w_dr(r, t):
        amp = epsilon * np.exp(-mu * t)
        return ud(r) * (1.0 + amp * sh(r)) + uf(r) * amp * (-np.pi * np.sin(np.pi * r))

    return w, w_dr


def build_maps(u_star, w=None, w_dr=None, epsilon=0.0, mu=0.0, table=None):
    """Assemble DiffeoMaps for a velocity path w; w=None means w = u_*."""
    if table is None:
        table = build_fstar(u_star)
    if w is None:
        uf = u_star.interpolator()
        w = lambda r, t: uf(r)
        w_dr = lambda r, t: uf.derivative()(r)
        epsilon = 0.0
    return DiffeoMaps(table=table, u_star=u_star.interpolator(), w=w, w_dr=w_dr,
                      epsilon=epsilon, mu=mu)


def _phi_in_coordinate(maps, x0, t, s, t_eval=None):
    """Integrate dx/dtau = -1 - gap(finv(x), tau) for a batch of labels.

    x0 are travel-time coordinates of the starting labels.  Returns either
    the final coordinates or, with t_eval, the (len(t_eval), len(x0)) matrix
    of coordinates along the path.
    """
    if t == s:
        if t_eval is None:
            return np.asarray(x0, dtype=float)
        return np.tile(np.asarray(x0, dtype=float), (len(t_eval), 1))

    table = maps.table

    def rhs(tau, x):
        r = table.finv(x)
        return -1.0 - maps.relative_gap(r, tau)

    sol = solve_ivp(rhs, (s, t), np.asarray(x0, dtype=float), method="DOP853",
                    rtol=FLOW_RTOL, atol=FLOW_ATOL, t_eval=t_eval)
    if not sol.success:
        raise SolverError(f"characteristic flow integration failed: {sol.message}")
    if t_eval is None:
        return sol.y[:, -1]
    return sol.y.T


def _split_endpoints(x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    interior = (x > 0.0) & (x < 1.0)
    if np.any((x < 0.0) | (x > 1.0)):
        raise ValueError("space argument outside [0,1]")
    return x, interior


def phi(maps, xi, t, s):
    """Perturbed flow map: position at t of the particle at xi at time s."""
    _check_order(t, s)
    xi_arr, interior = _split_endpoints(xi)
    out = xi_arr.copy()
    if np.any(interior):
        x0 = maps.table.fstar(xi_arr[interior])
        out[interior] = maps.table.finv(_phi_in_coordinate(maps, x0, t, s))
    return out if np.ndim(xi) else float(out[0])


def psi(maps, r, t, s):
    """Inverse perturbed flow map, by monotone root-find on phi.

    Works in the travel-time coordinate, where phi is the identity minus
    (t-s) minus a small accumulated perturbation; the fixed-point update
    contracts at the perturbation rate.
    """
    _check_order(t, s)
    r_arr, interior = _split_endpoints(r)
    out = r_arr.copy()
    if np.any(interior):
        x_target = maps.table.fstar(r_arr[interior])
        y = x_target + (t - s)  # stationary-flow initial guess
        for _ in range(PSI_MAX_ITERS):
            x_end = _phi_in_coordinate(maps, y, t, s)
            delta = x_target - x_end
            y = y + delta
            if np.max(np.abs(delta)) < PSI_TOL:
                break
        else:
            raise SolverError("inverse flow map iteration did not converge")
        out[interior] = maps.table.finv(y)
    return out if np.ndim(r) else float(out[0])


def _gap_time_integral(maps, xi, t, s, n_eval=None):
    """integral_s^t gap(Phi(xi,tau,s), tau) dtau for a batch of labels."""
    if t == s:
        return np.zeros_like(np.atleast_1d(np.asarray(xi, dtype=float)))
    if n_eval is None:
        n_eval = max(41, 2 * int(np.ceil((t - s) / 0.05)) + 1)
    taus = np.linspace(s, t, n_eval)
    x0 = maps.table.fstar(np.atleast_1d(np.asarray(xi, dtype=float)))
    path = _phi_in_coordinate(maps, x0, t, s, t_eval=taus)
    gaps = np.empty_like(path)
    for j, tau in enumerate(taus):
        gaps[j] = maps.relative_gap(maps.table.finv(path[j]), tau)
    return simpson(gaps, x=taus, axis=0)


def map_T(maps, r, t, s, method="compose"):
    """Conjugating map T: compose = Phi_* o Psi; integral = coordinate shift.

    The integral form translates the travel-time coordinate of r by the
    accumulated relative perturbation along the inverse characteristic, an
    independent computation used for cross-validation.
    """
    _check_order(t, s)
    r_arr, interior = _split_endpoints(r)
    out = r_arr.copy()
    if np.any(interior):
        xi = psi(maps, r_arr[interior], t, s)
        if method == "compose":
            out[interior] = phi_star(maps.table, xi, t, s)
        elif method == "integral":
            z = _gap_time_integral(maps, xi, t, s)
            out[interior] = maps.table.finv(maps.table.fstar(r_arr[interior]) + z)
        else:
            raise ValueError(f"unknown method {method!r}")
    return out if np.ndim(r) else float(out[0])


def map_S(maps, rbar, t, s):
    """Inverse conjugating map S = Phi o Psi_*."""
    _check_order(t, s)
    r_arr, interior = _split_endpoints(rbar)
    out = r_arr.copy()
    if np.any(interior):
        xi = psi_star(maps.table, r_arr[interior], t, s)
        out[interior] = phi(maps, xi, t, s)
    return out if np.ndim(rbar) else float(out[0])


def _flow_derivative_ratio(maps, xi, t, s, n_eval=None):
    """exp(int_s^t [u_*'(Phi_*(xi,tau,s)) - dw/dr(Phi(xi,tau,s),tau)] dtau).

    This is dPhi_*/dxi divided by dPhi/dxi; evaluated at xi = Psi(r,t,s) it
    equals dT/dr, and its reciprocal at xi = Psi_*(rbar,t,s) equals dS/drbar.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if t == s:
        return np.ones_like(xi)
    if n_eval is None:
        n_eval = max(41, 2 * int(np.ceil((t - s) / 0.05)) + 1)
    taus = np.linspace(s, t, n_eval)
    x0 = maps.table.fstar(xi)
    path = _phi_in_coordinate(maps, x0, t, s, t_eval=taus)
    ud = maps.u_star.derivative()
    integrand = np.empty_like(path)
    for j, tau in enumerate(taus):
        r_pert = maps.table.finv(path[j])
        r_stat = maps.table.finv(x0 - (tau - s))
        integrand[j] = ud(r_stat) - maps.w_gradient(r_pert, tau)
    return np.exp(simpson(integrand, x=taus, axis=0))


def dT_dr(maps, r, t, s):
    """Spatial derivative of T by the flow-derivative formula."""
    r_arr, interior = _split_endpoints(r)
    out = np.ones_like(r_arr)
    if np.any(interior):
        xi = psi(maps, r_arr[interior], t, s)
        out[interior] = _flow_derivative_ratio(maps, xi, t, s)
    return out if np.ndim(r) else float(out[0])


# ---------------------------------------------------------------------------
# measured inequality report


@dataclass(frozen=True)
class SamplePlan:
    """Randomized (r, t, s, eps) sample plan for check_map_bounds.

    Each epsilon in `epsilons` is also run at half amplitude to measure the
    stability of the fitted constants, so the total sample count is
    2 * len(epsilons) * n_pairs * n_r.
    """

    epsilons: tuple = (1e-2, 1e-3)
    mu: float = 0.08
    n_pairs: int = 10
    n_r: int = 250
    t_gap_range: tuple = (0.5, 8.0)
    s_max: float = 4.0
    seed: int = 7
    n_test_funcs: int = 20

    @property
    def total_samples(self):
        return 2 * len(self.epsilons) * self.n_pairs * self.n_r


@dataclass(frozen=True)
class BoundEntry:
    name: str
    n_samples: int
    constants: dict  # epsilon -> fitted constant
    ratio: float = None  # worst C(eps)/C(eps/2) over the halving pairs
    passed: bool = True
    skipped: bool = False
    note: str = ""


@dataclass(frozen=True)
class BoundsReport:
    entries: tuple
    plan: SamplePlan

    @property
    def all_passed(self):
        return all(e.passed or e.skipped for e in self.entries)

    def entry(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_rows(self):
        rows = []
        for e in self.entries:
            worst = max(e.constants.values()) if e.constants else float("nan")
            rows.append((e.name, e.n_samples, worst,
                         e.ratio if e.ratio is not None else float("nan"),
                         "skip" if e.skipped else ("pass" if e.passed else "FAIL")))
        return rows

    def __str__(self):
        lines = ["inequality,samples,constant,halving_ratio,status"]
        for name, n, c, ratio, status in self.to_rows():
            lines.append(f"{name},{n},{c:.6e},{ratio:.3f},{status}")
        return "\n".join(lines)


def _random_smooth(rng, nodes, n_modes=6):
    """Random smooth test function on [0,1] with decaying Fourier content."""
    out = np.zeros_like(nodes)
    for k in range(1, n_modes + 1):
        out += rng.normal() / k ** 2 * np.sin(np.pi * k * nodes)
        out += rng.normal() / k ** 2 * np.cos(np.pi * k * nodes)
    return out


def check_map_bounds(make_maps, plan=None, raise_on_fail=True):
    """Measure the comparison inequalities of the conjugating maps.

    make_maps: callable(epsilon) -> DiffeoMaps for the perturbation family
    under test (same mu as the plan).  For every inequality the smallest
    admissible constant is fitted on the sample; amplitude-linear bounds are
    additionally checked for stability of the constant under eps-halving
    (ratio within [0.3, 3]).  Raises ExperimentFailure on any violated
    inequality unless raise_on_fail is False.
    """
    if plan is None:
        plan = SamplePlan()
    rng = np.random.default_rng(plan.seed)
    mu = plan.mu

    # shared samples across amplitudes so the constants are comparable
    n3 = plan.n_r // 4
    r_samples = np.sort(np.concatenate([
        rng.uniform(0.02, 0.98, plan.n_r - 2 * n3),
        10.0 ** rng.uniform(-5, -1, n3),
        1.0 - 10.0 ** rng.uniform(-5, -1, n3),
    ]))
    s_vals = rng.uniform(0.0, plan.s_max, plan.n_pairs)
    t_vals = s_vals + rng.uniform(*plan.t_gap_range, plan.n_pairs)
    rg = np.linspace(0.0, 1.0, 201)
    test_funcs = [_random_smooth(rng, rg) for _ in range(plan.n_test_funcs)]

    # fixed smooth coefficient for the composition-shift bounds
    a_fun = lambda r: np.cos(2.0 * r) + 0.5 * r * r
    a_d = lambda r: -2.0 * np.sin(2.0 * r) + r
    a_dd = lambda r: -4.0 * np.cos(2.0 * r) + 1.0

    weight = r_samples * (1.0 - r_samples)
    names_ratio = ["T_shift", "S_shift", "phi_shift", "psi_shift",
                   "dT_bound", "dS_bound", "coeff_shift_sup",
                   "coeff_shift_weighted", "cumulative_op_distance"]
    names_equiv = ["T_weight_equiv_lo", "T_weight_equiv_hi",
                   "S_weight_equiv_lo", "S_weight_equiv_hi",
                   "psi_weight_equiv_lo", "psi_weight_equiv_hi",
                   "phi_weight_equiv_lo", "phi_weight_equiv_hi"]
    constants = {n: {} for n in names_ratio + names_equiv + ["w_gradient_hypothesis"]}
    gradient_ok = {}

    all_eps = []
    for eps in plan.epsilons:
        all_eps.extend([eps, 0.5 * eps])

    table = None
    for eps in all_eps:
        maps = make_maps(eps)
        table = maps.table
        acc = {n: [] for n in constants}
        grad_consts = []
        for tp, sp in zip(t_vals, s_vals):
            envelope = eps * (np.exp(-mu * sp) - np.exp(-mu * tp))

            xi_psi = psi(maps, r_samples, tp, sp)
            t_comp = phi_star(table, xi_psi, tp, sp)
            xi_ps = psi_star(table, r_samples, tp, sp)
            s_comp = phi(maps, xi_ps, tp, sp)
            phi_vals = phi(maps, r_samples, tp, sp)
            phistar_vals = phi_star(table, r_samples, tp, sp)
            psistar_vals = xi_ps

            # weight equivalences
            tw = t_comp * (1.0 - t_comp) / weight
            sw = s_comp * (1.0 - s_comp) / weight
            pw = (xi_psi * (1.0 - xi_psi)) / (psistar_vals * (1.0 - psistar_vals))
            fw = (phi_vals * (1.0 - phi_vals)) / (phistar_vals * (1.0 - phistar_vals))
            acc["T_weight_equiv_lo"].append(tw.min())
            acc["T_weight_equiv_hi"].append(tw.max())
            acc["S_weight_equiv_lo"].append(sw.min())
            acc["S_weight_equiv_hi"].append(sw.max())
            acc["psi_weight_equiv_lo"].append(pw.min())
            acc["psi_weight_equiv_hi"].append(pw.max())
            acc["phi_weight_equiv_lo"].append(fw.min())
            acc["phi_weight_equiv_hi"].append(fw.max())

            # amplitude-linear shift bounds
            acc["T_shift"].append(np.max(np.abs(t_comp - r_samples) / (envelope * weight)))
            acc["S_shift"].append(np.max(np.abs(s_comp - r_samples) / (envelope * weight)))
            pden = phistar_vals * (1.0 - phistar_vals)
            acc["phi_shift"].append(np.max(np.abs(phi_vals - phistar_vals) / (envelope * pden)))
            qden = psistar_vals * (1.0 - psistar_vals)
            acc["psi_shift"].append(np.max(np.abs(xi_psi - psistar_vals) / (envelope * qden)))

            # velocity-gradient hypothesis, measured on a fine grid
            rfine = np.linspace(1e-4, 1.0 - 1e-4, 400)
            ud = maps.u_star.derivative()
            for tau in (sp, 0.5 * (sp + tp), tp):
                dev = np.max(np.abs(maps.w_gradient(rfine, tau) - ud(rfine)))
                grad_consts.append(dev / (eps * np.exp(-mu * tau)))

            # spatial derivative bounds via the flow-derivative formula
            dT = _flow_derivative_ratio(maps, xi_psi, tp, sp)
            dS = 1.0 / _flow_derivative_ratio(maps, xi_ps, tp, sp)
            acc["dT_bound"].append(np.max(np.abs(np.log(dT))) / envelope)
            acc["dS_bound"].append(np.max(np.abs(np.log(dS))) / envelope)

            # composition-shift of a smooth coefficient
            a_norm1 = np.max(weight * np.abs(a_d(r_samples)))
            acc["coeff_shift_sup"].append(
                np.max(np.abs(a_fun(s_comp) - a_fun(r_samples))) / (a_norm1 * envelope))
            da_comp = a_d(s_comp) * dS
            a_norm2 = a_norm1 + np.max(weight ** 2 * np.abs(a_dd(r_samples)))
            acc["coeff_shift_weighted"].append(
                np.max(weight * np.abs(da_comp - a_d(r_samples))) / (a_norm2 * envelope))

            # cumulative-moment operator distance on the test functions
            t_g = map_T(maps, rg, tp, sp)
            s_g = map_S(maps, rg, tp, sp)
            worst = 0.0
            for q in test_funcs:
                base = third_moment(a_fun(rg) * q, rg)
                q_of_t = PchipInterpolator(rg, q)(t_g)
                tilde_base = third_moment(a_fun(rg) * q_of_t, rg)
                tilde = PchipInterpolator(rg, tilde_base)(s_g)
                gap = np.max(np.abs(tilde - base)) / max(np.max(np.abs(q)), 1e-300)
                worst = max(worst, gap)
            acc["cumulative_op_distance"].append(worst / envelope)

        for n in acc:
            if n == "w_gradient_hypothesis":
                continue
            vals = np.asarray(acc[n], dtype=float)
            if n.endswith("_lo"):
                constants[n][eps] = float(vals.min())
            else:
                constants[n][eps] = float(vals.max())
        gmax = float(np.max(grad_consts))
        constants["w_gradient_hypothesis"][eps] = gmax
        gradient_ok[eps] = np.isfinite(gmax) and gmax <= GRADIENT_HYPOTHESIS_CAP

    n_per_eps = plan.n_pairs * plan.n_r
    entries = []
    grad_all_ok = all(gradient_ok.values())

    gvals = constants["w_gradient_hypothesis"]
    entries.append(BoundEntry(
        name="w_gradient_hypothesis", n_samples=plan.n_pairs * 3 * 400 * len(all_eps),
        constants=gvals, passed=grad_all_ok,
        note="" if grad_all_ok else "gradient hypothesis fails; derivative bounds skipped"))

    for n in names_equiv:
        cv = constants[n]
        finite = all(np.isfinite(v) for v in cv.values())
        positive = all(v > 0 for v in cv.values())
        entries.append(BoundEntry(
            name=n, n_samples=n_per_eps * len(all_eps), constants=cv,
            passed=finite and positive))

    for n in names_ratio:
        if n in ("dT_bound", "dS_bound") and not grad_all_ok:
            entries.append(BoundEntry(
                name=n, n_samples=0, constants={}, skipped=True,
                note="skipped: velocity gradient hypothesis not satisfied"))
            continue
        cv = constants[n]
        ratios = []
        for eps in plan.epsilons:
            denom = cv[0.5 * eps]
            ratios.append(cv[eps] / denom if denom > 0 else np.inf)
        worst_ratio = float(max(ratios, key=abs))
        finite = all(np.isfinite(v) for v in cv.values())
        ok = finite and all(0.3 <= rr <= 3.0 for rr in ratios)
        entries.append(BoundEntry(
            name=n, n_samples=n_per_eps * len(all_eps), constants=cv,
            ratio=worst_ratio, passed=ok))

    report = BoundsReport(entries=tuple(entries), plan=plan)
    if raise_on_fail and not report.all_passed:
        bad = [e.name for e in report.entries if not (e.passed or e.skipped)]
        raise ExperimentFailure(f"map inequality check failed: {bad}")
    return report
