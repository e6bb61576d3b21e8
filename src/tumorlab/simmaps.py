"""Similarity calculus for radial characteristic flows.

The stationary velocity u_* is negative on (0,1) with simple zeros at the
endpoints, so its travel-time coordinate

    F_*(r) = -integral_{1/2}^r d_eta / u_*(eta)

maps (0,1) monotonically onto the whole real line and turns the stationary
flow dr/dt = u_*(r) into unit-speed translation x -> x - t.  This module
builds an F_* table, the stationary flow maps Phi_*/Psi_*, the perturbed
flow maps Phi/Psi for a time-dependent velocity w(r,t) close to u_*, and
the conjugating diffeomorphisms

    T = Phi_* o Psi,    S = Phi o Psi_*,

which transport the perturbed characteristics onto the stationary ones.
In the travel-time coordinate, forward (Phi) and backward (Psi) flows of
any span, with their log-derivatives, share one DOP853 solve, _flow, and
_conjugates reads every map off them: for the map functions and for
check_map_bounds, which measures the maps' comparison inequalities on a
randomized sample plan in one solve per amplitude.

Every map takes points of [0,1] and times t >= s (a point outside [0,1] or
t < s raises ValueError).  The maps act on the interior points only: each
endpoint is a zero of the velocity and maps to itself (dT_dr is 1.0 there),
and at t == s every point does.  A scalar point gives a float, an array an
array.
"""

import gc
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.interpolate import CubicSpline

from .errors import ExperimentFailure, SolverError
from .grid import RadialMoments, derivative_values, pchip, scalar_ppoly

FLOW_RTOL = 1e-10
FLOW_ATOL = 1e-12
#: travel-time table: nodes per unit of F_*, distance from the ends, node budget
POINTS_PER_UNIT = 50
R_MIN = 1e-6
TABLE_MAX_NODES = 100_000  # ~0.3 s of marching; u = -s r (1 - r) takes ~1,400/s
#: sample plan: the range of t - s and the largest s
T_GAP_RANGE = (0.5, 8.0)
S_MAX = 4.0
#: Fourier modes of a random smooth test function
N_MODES = 6
#: hypothesis threshold for sup |dw/dr - u_*'| / (eps e^{-mu t})
GRADIENT_HYPOTHESIS_CAP = 100.0


# ---------------------------------------------------------------------------
# travel-time coordinate


@dataclass(frozen=True)
class FStarTable:
    """Monotone table of the travel-time coordinate F_* and its inverse.

    The table covers [R_MIN, 1-R_MIN]; beyond it the closed-form logarithmic
    asymptotics F_* ~ slope0*log r (near 0) and F_* ~ -slope1*log(1-r)
    (near 1) take over, so fstar/finv are defined on all of [0,1] / R with
    the conventions fstar(0) = -inf and fstar(1) = +inf.
    """

    r_table: np.ndarray
    f_table: np.ndarray
    u_prime0: float
    u_prime1: float
    _fwd: object = field(init=False, repr=False, compare=False)
    _inv: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_fwd", CubicSpline(self.r_table, self.f_table))
        object.__setattr__(self, "_inv", CubicSpline(self.f_table, self.r_table))

    @property
    def slope0(self):
        """d F_* / d log r near 0 (= 1/|u'(0)|)."""
        return -1.0 / self.u_prime0

    @property
    def slope1(self):
        """-d F_* / d log(1-r) near 1 (= 1/u'(1))."""
        return 1.0 / self.u_prime1

    def _pieces(self, z, table, lo, hi, mid):
        """mid(z) on [table[0], table[-1]], lo(z) below, hi(z) above it, each
        piece evaluated on its own points only."""
        z = np.asarray(z, dtype=float)
        out = np.piecewise(z, [z < table[0], z > table[-1]], [lo, hi, mid])
        return out if out.ndim else float(out)

    def fstar(self, r):
        (r0, r1), (f0, f1) = self.r_table[[0, -1]], self.f_table[[0, -1]]
        with np.errstate(divide="ignore"):  # fstar(0) = -inf, fstar(1) = +inf
            return self._pieces(r, self.r_table, lambda r: f0 + self.slope0 * np.log(r / r0),
                                lambda r: f1 - self.slope1 * np.log((1.0 - r) / (1.0 - r1)),
                                self._fwd)

    def finv(self, x):
        (r0, r1), (f0, f1) = self.r_table[[0, -1]], self.f_table[[0, -1]]
        return self._pieces(x, self.f_table, lambda x: r0 * np.exp((x - f0) / self.slope0),
                            lambda x: 1.0 - (1.0 - r1) * np.exp(-(x - f1) / self.slope1),
                            self._inv)

    def dfinv(self, x):
        """d finv / dx: the table spline's derivative inside the table, the
        slopes of finv's logarithmic tails beyond it."""
        return self._pieces(x, self.f_table, lambda x: self.finv(x) / self.slope0,
                            lambda x: (1.0 - self.finv(x)) / self.slope1,
                            lambda x: self._inv(x, 1))


def build_fstar(u_star):
    """Tabulate the travel-time coordinate of a negative interior velocity.

    u_star is a RadialField, negative on (0,1) with simple zeros at both
    endpoints; its endpoint slopes u'(0) and u'(1) are taken from the node
    derivatives.  The reciprocal integrand 1/u is split into the two
    endpoint poles (integrated in closed form as logarithms) plus a bounded
    remainder integrated by composite 8-point Gauss-Legendre on a grid
    graded so that consecutive nodes are ~1/POINTS_PER_UNIT apart in the
    F_* coordinate (beyond TABLE_MAX_NODES nodes it raises SolverError).
    The remainder is evaluated through the smooth quotients u/r and u/(r-1),
    which avoids the catastrophic cancellation of subtracting two poles.
    """
    nodes = u_star.grid.nodes
    vals = u_star.values
    if np.any(vals[1:-1] >= 0.0):
        raise ValueError("velocity must be strictly negative on the interior")
    dv = derivative_values(vals, u_star.grid)
    u_prime0 = float(dv[0])
    u_prime1 = float(dv[-1])
    if u_prime0 >= 0 or u_prime1 <= 0:
        raise ValueError("velocity must have a negative slope at 0 and a positive slope at 1")

    # smooth quotients m = u/r and n = u/(r-1), exact limits at the zeros
    m_interp = pchip(nodes, np.concatenate(([u_prime0], vals[1:] / nodes[1:])))
    n_interp = pchip(nodes, np.concatenate((vals[:-1] / (nodes[:-1] - 1.0), [u_prime1])))

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

    u_at = scalar_ppoly(u_star.interpolator())
    delta = 1.0 / POINTS_PER_UNIT
    pts = [R_MIN]
    for b in (0.5, 1.0 - R_MIN):  # march along u_* to 1/2, then to the end
        r = pts[-1]
        while True:
            step = delta * max(abs(u_at(r)), 1e-12 * r * (1.0 - r) + 1e-300)
            if r + step >= b:
                break
            r += step
            pts.append(r)
            if len(pts) > TABLE_MAX_NODES:
                raise SolverError(f"travel-time table passes {TABLE_MAX_NODES} nodes at "
                                  f"r = {r:.6g}: the velocity is too slow (u'(0) = "
                                  f"{u_prime0:.3g}, u'(1) = {u_prime1:.3g})")
        pts.append(b)
    r_nodes = np.array(pts)
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
    return FStarTable(r_table=r_nodes, f_table=f_table, u_prime0=u_prime0, u_prime1=u_prime1)


def _on_interior(table, fn, x, t, s, endpoint=None):
    """Apply fn, a map from time s to time t of the travel-time coordinates,
    to F_*(x) at the interior points of x when t > s; each endpoint, and every
    point at t == s, maps to itself, or to `endpoint` when given."""
    if t < s - 1e-12:
        raise ValueError(f"flow maps need t >= s, got t={t}, s={s}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any((x_arr < 0.0) | (x_arr > 1.0)):
        raise ValueError("space argument outside [0,1]")
    interior = (x_arr > 0.0) & (x_arr < 1.0)
    out = x_arr.copy() if endpoint is None else np.full_like(x_arr, endpoint)
    if t > s and np.any(interior):
        out[interior] = fn(table.fstar(x_arr[interior]))
    return out if np.ndim(x) else float(out[0])


def phi_star(table, xi, t, s):
    """Stationary flow map: position at time t of a particle at xi at time s."""
    return _on_interior(table, lambda x: table.finv(x - (t - s)), xi, t, s)


def psi_star(table, r, t, s):
    """Inverse stationary flow map: label at time s of the position r at t."""
    return _on_interior(table, lambda x: table.finv(x + (t - s)), r, t, s)


# ---------------------------------------------------------------------------
# perturbed flow


@dataclass
class DiffeoMaps:
    """Flow maps of a time-dependent velocity w(r,t) close to u_*.

    w is a vectorized callable (r_array, t) -> values, t a scalar or an
    array that broadcasts against r; the flows read only the relative gap
    w.gap(r, t) = w/u_* - 1, on all of [0,1] (its limit at the endpoints),
    and its time derivative w.gap_dt(r, t, gap), given gap = w.gap(r, t)
    (make_perturbed_velocity builds one).  w_dr gives its radial derivative
    the same way.  epsilon and mu record the perturbation amplitude and
    decay rate of w - u_* for reporting only.
    """

    table: FStarTable
    u_star: object
    w: object
    w_dr: object
    epsilon: float = 0.0
    mu: float = 0.0

    def relative_gap(self, r, t):
        """w(r,t)/u_*(r) - 1, the relative perturbation along the flow: w.gap
        at every point, the endpoints too, so the flow's right-hand side does
        not jump where finv rounds to 0 or 1.  A gap of -1 or below inside is
        w >= 0 (u_* < 0 there) and raises SolverError."""
        r = np.asarray(r, dtype=float)
        gap = self.w.gap(r, t)
        if np.any(gap[(r > 0.0) & (r < 1.0)] <= -1.0):
            raise SolverError("perturbed velocity lost negativity on the interior")
        return gap


def make_perturbed_velocity(u_star, epsilon, mu):
    """Velocity family w(r,t) = u_*(r) [1 + eps e^{-mu t} cos(pi r)].

    The shape cos(pi r) changes sign and |cos(pi r)| <= 1.  Returns (w, w_dr)
    callables; w.gap(r, t) = eps e^{-mu t} cos(pi r) is its relative gap
    w/u_* - 1, w.gap_dt = -mu gap its time derivative, and w_dr uses the
    interpolated u_*' so it is consistent with w to interpolation accuracy.
    """
    def gap(r, t):
        return epsilon * np.exp(-mu * t) * np.cos(np.pi * r)

    uf = u_star.interpolator()
    ud = uf.derivative()

    def w(r, t):
        return uf(r) * (1.0 + gap(r, t))

    def w_dr(r, t):
        amp = epsilon * np.exp(-mu * t)
        return ud(r) * (1.0 + gap(r, t)) + uf(r) * amp * (-np.pi * np.sin(np.pi * r))

    w.gap = gap
    w.gap_dt = lambda r, t, gap: -mu * gap
    return w, w_dr


def build_maps(u_star, w, w_dr, epsilon=0.0, mu=0.0, table=None):
    """Assemble DiffeoMaps for a velocity path w with r-derivative w_dr."""
    return DiffeoMaps(table=build_fstar(u_star) if table is None else table,
                      u_star=u_star.interpolator(), w=w, w_dr=w_dr, epsilon=epsilon, mu=mu)


def _flow(maps, groups, logged=0, theta=None):
    """Solve dx/dtau = G(x, tau) = -1 - gap(finv x, tau) for groups (x, t0, t1)
    of travel-time coordinates, each broadcast together, in one DOP853 solve.

    x flows from t0 to t1, forward (Phi) or backward (Psi), at
    tau = t0 + theta (t1 - t0) for the normalised time theta in [0, 1].  The
    first `logged` groups carry l = log dx(t1)/dx(t0) too; as
    dG/dtau = G_x G + G_tau along a path,
    l = log(G(t1)/G(t0)) + int -gap_dt/(1 + gap) dtau.
    Returns every group's end coordinates, l of the logged groups and
    the count of right-hand-side evaluations; given theta, every group's
    coordinates at those times, shaped (len(theta),) + the group's shape.
    """
    table, w = maps.table, maps.w
    groups = [np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in g)) for g in groups]
    sizes = [g[0].size for g in groups]
    x0, t0, t1 = (np.concatenate([g[i].ravel() for g in groups]) for i in range(3))
    span = t1 - t0
    n, k = x0.size, sum(sizes[:logged])

    def rhs(th, y):
        tau = t0 + th * span
        r = table.finv(y[:n])
        gap = maps.relative_gap(r, tau)
        return np.concatenate((-span * (1.0 + gap),
                               -span[:k] * w.gap_dt(r[:k], tau[:k], gap[:k]) / (1.0 + gap[:k])))

    sol = solve_ivp(rhs, (0.0, 1.0), np.concatenate((x0, np.zeros(k))),
                    method="DOP853", rtol=FLOW_RTOL, atol=FLOW_ATOL, t_eval=theta)
    # scipy's solver refers to itself through its counting wrapper of rhs:
    # collect it now, or the (16, n + k) stage arrays of each batch pile up
    gc.collect(1)
    if not sol.success:
        raise SolverError(f"characteristic flow integration failed: {sol.message}")

    def split(v, m):  # the first m groups' parts of v's last axis, group-shaped
        parts = np.split(v, np.cumsum(sizes[:m])[:-1], -1)
        return [p.reshape(v.shape[:-1] + g[0].shape) for p, g in zip(parts, groups[:m])]

    if theta is not None:
        return split(sol.y[:n].T, len(groups))
    end = sol.y[:n, -1]
    log_g = (np.log1p(maps.relative_gap(table.finv(end[:k]), t1[:k]))
             - np.log1p(maps.relative_gap(table.finv(x0[:k]), t0[:k])))
    return split(end, len(groups)), split(sol.y[n:, -1] + log_g, logged), sol.nfev


def _conjugates(table, d, x=None, back=None, fwd=None, l_back=None, l_fwd=None):
    """Psi, Phi, T, S, T' and S' (keys psi, phi, T, S, dT, dS), formed here
    only, from the flows given between s and t = s + d: back is x = F_*(r)
    flowed over t -> s, fwd is x + d = F_*(Psi_*(r)) (for Phi any label's
    coordinate) flowed over s -> t, l_back and l_fwd their log-derivatives."""
    out = {}
    if back is not None:
        out["psi"], out["T"] = table.finv(back), table.finv(back - d)
    if fwd is not None:
        out["phi"] = out["S"] = table.finv(fwd)
    if l_back is not None:
        out["dT"] = np.exp(l_back) * table.dfinv(back - d) / table.dfinv(x)
    if l_fwd is not None:
        out["dS"] = np.exp(l_fwd) * table.dfinv(fwd) / table.dfinv(x)
    return out


def phi(maps, xi, t, s):
    """Perturbed flow map: position at t of the particle at xi at time s."""
    return _on_interior(maps.table, lambda x: _conjugates(
        maps.table, t - s, fwd=_flow(maps, [(x, s, t)])[0][0])["phi"], xi, t, s)


def psi(maps, r, t, s):
    """Inverse perturbed flow map: label at time s of the position r at t."""
    return _on_interior(maps.table, lambda x: _conjugates(
        maps.table, t - s, back=_flow(maps, [(x, t, s)])[0][0])["psi"], r, t, s)


def map_T(maps, r, t, s, method="compose"):
    """Conjugating map T: compose = Phi_* o Psi; integral = coordinate shift.

    The integral form, an independent cross-check, shifts the travel-time
    coordinate of r by integral_s^t gap(Phi(xi,tau,s), tau) dtau, a quadrature
    along the inverse characteristic sampled at least 41 times, <= 0.025 apart.
    """
    if method not in ("compose", "integral"):
        raise ValueError(f"unknown method {method!r}")
    table = maps.table

    def conjugate(x):
        if method == "compose":
            return _conjugates(table, t - s, back=_flow(maps, [(x, t, s)])[0][0])["T"]
        theta = np.linspace(0.0, 1.0, max(41, 2 * int(np.ceil((t - s) / 0.05)) + 1))
        taus = t + theta * (s - t)
        path, = _flow(maps, [(x, t, s)], theta=theta)
        gaps = maps.relative_gap(table.finv(path), taus[:, None])
        # the path runs from t back to s, so simpson gives minus the integral
        return table.finv(x - simpson(gaps, x=taus, axis=0))

    return _on_interior(table, conjugate, r, t, s)


def map_S(maps, rbar, t, s):
    """Inverse conjugating map S = Phi o Psi_*."""
    return _on_interior(maps.table, lambda x: _conjugates(
        maps.table, t - s, fwd=_flow(maps, [(x + (t - s), s, t)])[0][0])["S"], rbar, t, s)


def dT_dr(maps, r, t, s):
    """Spatial derivative T' of T = Phi_* o Psi."""
    def slope(x):
        (back,), (l_back,), _ = _flow(maps, [(x, t, s)], logged=1)
        return _conjugates(maps.table, t - s, x, back, l_back=l_back)["dT"]

    return _on_interior(maps.table, slope, r, t, s, endpoint=1.0)


# ---------------------------------------------------------------------------
# measured inequality report


@dataclass(frozen=True)
class SamplePlan:
    """Randomized (r, t, s, eps) sample plan for check_map_bounds.

    Each epsilon in `epsilons` is also run at half amplitude to measure the
    stability of the fitted constants, so the total sample count is
    2 * len(epsilons) * n_pairs * n_r.  Each pair draws s from [0, S_MAX]
    and t - s from T_GAP_RANGE.
    """

    epsilons: tuple = (1e-2, 1e-3)
    mu: float = 0.08
    n_pairs: int = 10
    n_r: int = 250
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


@dataclass(frozen=True)
class BoundsReport:
    entries: tuple
    flow_solves: int = 0  # DOP853 solves of the report's flows
    flow_rhs_evals: int = 0  # their right-hand-side evaluations

    @property
    def all_passed(self):
        return all(e.passed or e.skipped for e in self.entries)

    def __str__(self):
        lines = ["inequality,samples,constant,halving_ratio,status"]
        for e in self.entries:
            worst = max(e.constants.values(), default=np.nan)
            ratio = e.ratio if e.ratio is not None else float("nan")
            status = "skip" if e.skipped else ("pass" if e.passed else "FAIL")
            lines.append(f"{e.name},{e.n_samples},{worst:.6e},{ratio:.3f},{status}")
        lines.append(f"# {self.flow_solves} flow solves, "
                     f"{self.flow_rhs_evals} right-hand-side evaluations")
        return "\n".join(lines)


def _random_smooth(rng, nodes, rows=()):
    """Random smooth test functions on [0,1] with decaying Fourier content,
    shaped rows + nodes.shape and drawn one function after another."""
    coef = rng.normal(size=rows + (N_MODES, 2))
    out = np.zeros(rows + nodes.shape)
    for k in range(1, N_MODES + 1):
        out += coef[..., k - 1, 0, None] / k ** 2 * np.sin(np.pi * k * nodes)
        out += coef[..., k - 1, 1, None] / k ** 2 * np.cos(np.pi * k * nodes)
    return out


def check_map_bounds(make_maps, plan, raise_on_fail=True):
    """Measure the comparison inequalities of the conjugating maps, each once.

    make_maps: callable(epsilon) -> DiffeoMaps for the perturbation family
    under test (same mu as the SamplePlan plan).  The entries come in the
    order computed: first the velocity-gradient hypothesis (at most
    GRADIENT_HYPOTHESIS_CAP; the derivative bounds are skipped when it
    fails), then the amplitude-linear bounds, each the smallest constant
    fitted on the sample, passed when finite and stable under eps-halving
    (ratio within [0.3, 3]): the shifts of T and S and of their spatial
    derivatives, a coefficient's composition shift and the induced distance
    between cumulative-moment operators.  Psi's and Phi's shifts are T's and
    S's read at Psi_*(r), so neither is an entry.  Raises ExperimentFailure
    on any violated inequality unless raise_on_fail is False.
    """
    rng = np.random.default_rng(plan.seed)

    # shared samples across amplitudes so the constants are comparable
    n3 = plan.n_r // 4
    r_samples = np.sort(np.concatenate([
        rng.uniform(0.02, 0.98, plan.n_r - 2 * n3),
        10.0 ** rng.uniform(-5, -1, n3),
        1.0 - 10.0 ** rng.uniform(-5, -1, n3),
    ]))
    s_vals = rng.uniform(0.0, S_MAX, plan.n_pairs)
    t_vals = s_vals + rng.uniform(*T_GAP_RANGE, plan.n_pairs)

    # fixed smooth coefficient for the composition-shift bounds
    a_fun = lambda r: np.cos(2.0 * r) + 0.5 * r * r
    a_d = lambda r: -2.0 * np.sin(2.0 * r) + r
    a_dd = lambda r: -4.0 * np.cos(2.0 * r) + 1.0

    # test functions q on rg, one per row: interpolants, base moments, sup norms
    rg = np.linspace(0.0, 1.0, 201)
    a_rg = a_fun(rg)
    moments = RadialMoments(rg)
    q = _random_smooth(rng, rg, (plan.n_test_funcs,))
    q_interp = pchip(rg, q)
    base = moments.full_and_third(a_rg * q)[1]
    q_sup = np.maximum(np.max(np.abs(q), axis=-1), 1e-300)

    weight = r_samples * (1.0 - r_samples)
    rfine = np.linspace(1e-4, 1.0 - 1e-4, 400)
    all_eps = [e for eps in plan.epsilons for e in (eps, 0.5 * eps)]
    t_col, s_col = t_vals[:, None], s_vals[:, None]
    d = t_col - s_col
    taus = np.stack((s_vals, 0.5 * (s_vals + t_vals), t_vals), axis=1).reshape(-1, 1)
    a_norm1 = np.max(weight * np.abs(a_d(r_samples)))
    a_norm2 = a_norm1 + np.max(weight ** 2 * np.abs(a_dd(r_samples)))
    constants = {}  # name -> {eps: fitted constant}, in computation order
    flow_rhs_evals = 0

    for eps in all_eps:
        maps = make_maps(eps)
        envelope = eps * (np.exp(-plan.mu * s_vals) - np.exp(-plan.mu * t_vals))[:, None]
        fit = {}

        # velocity-gradient hypothesis, measured on a fine grid
        dev = np.max(np.abs(maps.w_dr(rfine, taus) - maps.u_star.derivative()(rfine)), axis=1)
        fit["w_gradient_hypothesis"] = np.max(dev / (eps * np.exp(-plan.mu * taus[:, 0])))

        # every flow of the amplitude in one solve, a row per pair: backward
        # from r (T, dT) and forward from Psi_*(r) (S, dS), on r_samples and
        # on rg's interior
        x_s, x_g = maps.table.fstar(r_samples), maps.table.fstar(rg[1:-1])
        (back, fwd, back_g, fwd_g), (l_back, l_fwd), nfev = _flow(maps, [
            (x_s, t_col, s_col), (x_s + d, s_col, t_col), (x_g, t_col, s_col),
            (x_g + d, s_col, t_col)], logged=2)
        flow_rhs_evals += nfev
        at_r = _conjugates(maps.table, d, x_s, back, fwd, l_back, l_fwd)
        at_g = _conjugates(maps.table, d, back=back_g, fwd=fwd_g)

        # amplitude-linear shift bounds of T and S against the identity, and
        # of their spatial derivatives
        fit["T_shift"] = np.max(np.abs(at_r["T"] - r_samples) / (envelope * weight))
        fit["S_shift"] = np.max(np.abs(at_r["S"] - r_samples) / (envelope * weight))
        fit["dT_bound"] = np.max(np.abs(np.log(at_r["dT"])) / envelope)
        fit["dS_bound"] = np.max(np.abs(np.log(at_r["dS"])) / envelope)

        # composition-shift of a smooth coefficient
        fit["coeff_shift_sup"] = np.max(
            np.abs(a_fun(at_r["S"]) - a_fun(r_samples)) / (a_norm1 * envelope))
        fit["coeff_shift_weighted"] = np.max(
            weight * np.abs(a_d(at_r["S"]) * at_r["dS"] - a_d(r_samples)) / (a_norm2 * envelope))

        # cumulative-moment operator distance on the test functions, with
        # rg's endpoints fixed
        worst = []
        for t_g, s_g in np.pad(np.stack((at_g["T"], at_g["S"]), axis=1),
                               ((0, 0), (0, 0), (1, 1)), constant_values=(0.0, 1.0)):
            tilde_base = moments.full_and_third(a_rg * q_interp(t_g).T)[1]
            tilde = pchip(rg, tilde_base)(s_g).T
            worst.append(np.max(np.max(np.abs(tilde - base), axis=-1) / q_sup))
        fit["cumulative_op_distance"] = np.max(np.array(worst) / envelope[:, 0])

        for n, value in fit.items():
            constants.setdefault(n, {})[eps] = float(value)

    gvals = constants.pop("w_gradient_hypothesis")
    grad_all_ok = all(np.isfinite(g) and g <= GRADIENT_HYPOTHESIS_CAP for g in gvals.values())
    entries = [BoundEntry(
        name="w_gradient_hypothesis", n_samples=plan.n_pairs * 3 * rfine.size * len(all_eps),
        constants=gvals, passed=grad_all_ok)]

    for n, cv in constants.items():
        if n in ("dT_bound", "dS_bound") and not grad_all_ok:
            entries.append(BoundEntry(name=n, n_samples=0, constants={}, skipped=True))
            continue
        ratios = [cv[eps] / cv[0.5 * eps] if cv[0.5 * eps] > 0 else np.inf
                  for eps in plan.epsilons]
        ok = all(np.isfinite(v) for v in cv.values()) and all(0.3 <= rr <= 3.0 for rr in ratios)
        entries.append(BoundEntry(name=n, n_samples=plan.total_samples, constants=cv,
                                  ratio=float(max(ratios, key=abs)), passed=ok))

    report = BoundsReport(entries=tuple(entries), flow_solves=len(all_eps),
                          flow_rhs_evals=flow_rhs_evals)
    if raise_on_fail and not report.all_passed:
        bad = [e.name for e in report.entries if not (e.passed or e.skipped)]
        raise ExperimentFailure(f"map inequality check failed: {bad}")
    return report
