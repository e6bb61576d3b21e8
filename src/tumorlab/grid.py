"""Radial grids on [0,1], fields living on them, and the radial moment.

Everything downstream (nutrient, velocity, transport, linearization) stores
functions of r as node values on a shared RadialGrid and interpolates with a
monotone piecewise cubic (PCHIP), which preserves monotone profiles during
particle regridding.  Every monotone cubic, a RadialField's interpolator
included, comes from pchip_coefficients, which builds scipy's PCHIP for
many rows at once, bit for bit; pchip reads it as one PPoly.  A RadialGrid
is its node count: its nodes are linspace(0, 1, size), built once, so the
equal spacing that the Numerov nutrient solver and the fourth-order
derivative stencils need holds by construction, and two grids are equal
when their sizes are.  scalar_ppoly reads any PPoly at one point on plain
floats, with its floats and without its per-call overhead.

Every radial moment integral_0^r v rho^2 drho, in the velocity u and in
the linearized operators B and F alike, is taken by one kernel,
pair_moments: Simpson pair totals summed along the rows in node order after
an exact cubic start.  RadialMoments holds its weights for one set of
positions, built in closed form (no SVD; r^-3 only on demand), or for
stacked rows of positions in one call, each row with the bits of its own
build; radial_average is a thin function over it (moment_average turns
any row of moments into u = r^-2 M), and each linearized stage
folds g_p into its own (linearized._FoldedStage).  The kernel is
batch-invariant: a row has the same moments alone as in any batch.
"""

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.interpolate import PchipInterpolator  # noqa: F401 (bench/spans.py patches it)
from scipy.interpolate import PPoly

from .errors import GridMismatchError


@dataclass(frozen=True)
class RadialGrid:
    """size equally spaced nodes spanning [0,1], both endpoints included."""

    size: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the 5-point derivative stencils read node 4
        if not isinstance(self.size, (int, np.integer)) or self.size < 5:
            raise ValueError(f"grid needs an integer size of at least 5, got {self.size!r}")
        nodes = np.linspace(0.0, 1.0, self.size)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, size):
        return cls(size)

    @property
    def spacing(self):
        """The node spacing h."""
        return 1.0 / (self.size - 1)


@dataclass(frozen=True)
class RadialField:
    """Node values of a function of r with a monotone-cubic interpolation rule."""

    grid: RadialGrid
    values: np.ndarray
    _interp: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise GridMismatchError(
                f"field has {values.size} values for a grid of size {self.grid.size}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values.setflags(write=False)

    def interpolator(self):
        if self._interp is None:
            object.__setattr__(self, "_interp", pchip(self.grid.nodes, self.values))
        return self._interp

    def __call__(self, r):
        return self.interpolator()(r)

    def with_values(self, values):
        return RadialField(self.grid, values)


def _pchip_end_slope(h0, h1, m0, m1):
    """scipy's shape-preserving one-sided three-point end slope."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    keep = np.sign(d) == np.sign(m0)
    steep = keep & (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(keep, np.where(steep, 3.0 * m0, d), 0.0)


def pchip_coefficients(x, y):
    """The monotone cubic through rows of node values y (last axis) at the
    strictly increasing points x (one row for all, or one per row), as the
    power-basis coefficients c[..., j, i] of interval i, highest power
    first.

    The operations are those of scipy's PchipInterpolator, in its order, so
    PPoly.construct_fast(c[row], x[row]) reproduces its values bit for bit;
    one call builds every row.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("pchip points and values must be finite")
    h = x[..., 1:] - x[..., :-1]
    if np.any(h <= 0):
        raise ValueError("pchip points must be strictly increasing")
    m = (y[..., 1:] - y[..., :-1]) / h
    s = np.sign(m)
    flat = (s[..., 1:] != s[..., :-1]) | (m[..., 1:] == 0) | (m[..., :-1] == 0)
    w1 = 2 * h[..., 1:] + h[..., :-1]
    w2 = h[..., 1:] + 2 * h[..., :-1]
    d = np.empty(y.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the weighted harmonic mean of the two slopes, 0 where flat
        whmean = (w1 / m[..., :-1] + w2 / m[..., 1:]) / (w1 + w2)
        np.divide(1.0, whmean, out=d[..., 1:-1])
    d[..., 1:-1][flat] = 0.0
    d[..., 0] = _pchip_end_slope(h[..., 0], h[..., 1], m[..., 0], m[..., 1])
    d[..., -1] = _pchip_end_slope(h[..., -1], h[..., -2], m[..., -1], m[..., -2])
    t = (d[..., :-1] + d[..., 1:] - 2 * m) / h
    c = np.empty(y.shape[:-1] + (4, h.shape[-1]))
    np.divide(t, h, out=c[..., 0, :])
    np.subtract((m - d[..., :-1]) / h, t, out=c[..., 1, :])
    c[..., 2, :] = d[..., :-1]
    c[..., 3, :] = y[..., :-1]
    return c


def pchip(x, y):
    """The monotone cubic through the rows of y (last axis) at one row of
    points x, from one pchip_coefficients build, as a PPoly whose values
    put y's rows last."""
    return PPoly.construct_fast(np.moveaxis(pchip_coefficients(x, y), (-2, -1), (0, 1)), x)


def scalar_ppoly(ppoly):
    """Plain-float evaluator of a one-dimensional scipy PPoly at one point.

    Gives the same floats as float(ppoly(r)): the interval is the one PPoly
    picks (half-open on the right, the last one closed, the end intervals
    extended outside the breakpoints) and the polynomial is summed in
    PPoly's order, constant term first with the powers of s built up by
    repeated multiplication.  The coefficient tables are array('d') rather
    than lists: a closure handed to solve_ivp lives in a reference cycle
    with the solver until the garbage collector runs.
    """
    xs = array("d", ppoly.x)
    rows = [array("d", row) for row in ppoly.c[::-1]]  # constant term first
    last = len(xs) - 2

    def value(r):
        i = min(max(bisect_right(xs, r) - 1, 0), last)
        s = r - xs[i]
        total = 0.0
        power = 1.0
        for row in rows:
            total = total + row[i] * power
            power *= s
        return total

    return value


def require_same_grid(*fields):
    g0 = fields[0].grid
    for f in fields[1:]:
        if f.grid != g0:
            raise GridMismatchError("fields live on different grids")
    return g0


def _interval_weights(a, b):
    """Node weights (near, middle, far) of the integral, over an interval of
    width a, of the quadratic through its ends and a node b beyond them,
    formed from the widths alone (Cartwright's eqn (8), as scipy does), so
    each keeps full relative precision."""
    r = a / (a + b)
    rq = r * (a / b)
    a6 = a / 6.0
    return a6 * (3.0 - r), a6 * (3.0 + rq + r), -a6 * rq


def _simpson_weights(x):
    """Composite-Simpson weights for rows of positions x (last axis),
    paired as scipy's cumulative Simpson rule pairs them: intervals 2m and
    2m+1 both integrate the quadratic through nodes 2m, 2m+1 and 2m+2, and
    an odd last interval reads the last three nodes.

    Returns (weights, last): weights[..., j, 0, m] weighs node 2m+j in the
    integral over pair m, weights[..., j, 1, m] in the one over its first
    interval; last[..., :] weighs the last three nodes in an odd last
    interval, else None.
    """
    h = x[..., 1:] - x[..., :-1]
    m = h.shape[-1] // 2
    a, b = h[..., 0:2 * m:2], h[..., 1:2 * m:2]  # first and second intervals
    first = _interval_weights(a, b)
    second = _interval_weights(b, a)[::-1]  # its near node is 2m+2
    weights = np.empty(x.shape[:-1] + (3, 2, m))
    for j in range(3):
        weights[..., j, 1, :] = first[j]
        np.add(first[j], second[j], out=weights[..., j, 0, :])
    if h.shape[-1] % 2 == 0:
        return weights, None
    return weights, np.stack(_interval_weights(h[..., -1], h[..., -2])[::-1], axis=-1)


def pair_moments(v, weights, last, start):
    """A new array of the cumulative moments of the rows of v (last axis,
    node order).

    weights[..., j, 0, m] weighs node 2m+j in the Simpson total of pair m
    (intervals 2m and 2m+1), weights[..., j, 1, m] in its first interval;
    last weighs the last three nodes in an odd last interval, or is None;
    start gives the first k moments from the first k values.  The operator
    is one for every row of v, or one per row (leading axes).  Past x_4
    each even node is a cumulative sum of pair totals, and each odd node
    adds its pair's first interval to the even node before it.  Each step
    is elementwise or a sum along a row, so a row has the same bits alone
    as in any batch: the start and the odd last interval are einsum sums,
    as a matmul's bits depend on how many rows share the call.
    """
    k = start.shape[-1]
    n2 = 2 * weights.shape[-1]
    pair = v[..., None, 0:n2:2] * weights[..., 0, :, :]
    tmp = v[..., None, 1:n2:2] * weights[..., 1, :, :]
    pair += tmp
    pair += np.multiply(v[..., None, 2:n2 + 1:2], weights[..., 2, :, :], out=tmp)
    out = np.empty_like(v)
    out[..., :k] = np.einsum("...j,...ij->...i", v[..., :k], start)
    if out.shape[-1] > k:  # then k = 5, and the sums continue from x_4
        pair[..., 0, 1] = out[..., 4]
        np.cumsum(pair[..., 0, 1:], axis=-1, out=out[..., 4:n2 + 1:2])
        np.add(out[..., 4:n2 - 1:2], pair[..., 1, 2:], out=out[..., 5:n2:2])
        if last is not None:
            out[..., -1] = out[..., -2] + np.einsum("...j,...j->...", v[..., -3:], last)
    return out


class RadialMoments:
    """M(x_i) = integral_0^{x_i} v(rho) rho^2 drho for rows of node values v
    (last axis) at the positions x, x[..., 0] = 0.

    Composite Simpson with rho^2 folded into the weights, applied by
    pair_moments (the fields weights, last and start).  The r^-2
    and r^-3 prefactors of the velocity and of the linearized operators
    amplify the Simpson error near the origin, so the first five moments
    are exact for the least-squares cubic through the first five values and
    the Simpson sums continue from the fifth.  The cubic comes from its
    normal equations in x / x[4], refined once against the residual (each
    start row within 2e-13 of exact arithmetic, relative to its largest).

    x may stack several rows of positions (leading axes): the operator then
    holds one set of fields per row, each bit for bit the one built from
    that row alone, and applies row i of the fields to row i of v.
    """

    def __init__(self, x):
        x = np.asarray(x, dtype=float)
        self.weights, last = _simpson_weights(x)
        n2 = 2 * self.weights.shape[-1]
        x2 = x * x
        for j in range(3):
            self.weights[..., j, :, :] *= x2[..., None, j:n2 + j:2]
        self.last = None if last is None else last * x2[..., -3:]
        self.k = k = min(5, x.shape[-1])
        # fit: the refined cubic in t = x / x[k-1]; its moments x_i^3 t_i^j / (j+3)
        powers = np.arange(min(4, k))
        t = x[..., :k] / x[..., k - 1:k]
        v = t[..., None] ** powers
        vt = v.swapaxes(-1, -2)
        inv = np.linalg.inv(vt @ v)
        fit = inv @ vt
        fit += inv @ (vt @ (np.eye(k) - v @ fit))
        self.start = (v * x[..., :k, None] ** 3 / (powers + 3)) @ fit
        self._x = x

    @cached_property
    def inv_x3(self):
        """r^-3 at the positions, 0 at the origin; built on first use, it replaces them."""
        x = vars(self).pop("_x")
        inv = np.zeros_like(x)
        np.divide(1.0, x[..., 1:] ** 3, out=inv[..., 1:])
        return inv

    def cumulative(self, v):
        """M at every position, a new array shaped like v."""
        return pair_moments(np.asarray(v, dtype=float), self.weights, self.last, self.start)

    def full_and_third(self, v):
        """(M(1), r^-3 M) from one pass, r^-3 M with its origin limit v(0)/3."""
        v = np.asarray(v, dtype=float)
        moment = self.cumulative(v)
        full = moment[..., -1].copy()
        moment *= self.inv_x3
        moment[..., 0] = v[..., 0] / 3.0
        return full, moment


def radial_average(integrand, nodes):
    """u(r) = r^-2 * integral_0^r integrand(rho) rho^2 drho on the nodes, for
    each row of integrand (last axis), with u(0) = 0 (the series
    u(r) = g(0) r / 3 + O(r^3)); a row has the same bits alone as in any
    batch."""
    return moment_average(RadialMoments(nodes).cumulative(integrand), nodes)


def moment_average(moment, x):
    """u = r^-2 M at the positions x (x[..., 0] = 0) from the moments M
    there, in place, with u(0) = 0: radial_average's last step, so a
    moment taken elsewhere gives its bits."""
    moment[..., 1:] /= x[..., 1:] * x[..., 1:]
    moment[..., 0] = 0.0
    return moment


def derivative_values(values, grid):
    """Node derivatives on a RadialGrid along the last axis: 4th-order
    central stencils (one-sided 5-point at the edges).
    """
    nodes = grid.nodes
    h = nodes[1] - nodes[0]
    v = np.asarray(values, dtype=float)
    d = np.empty_like(v)
    # index the node axis first: v[i] is a scalar for one state, a column
    # of values for a batch
    v, dv = v.T, d.T
    dv[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
    # one-sided / skewed 5-point stencils, also 4th order
    dv[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)
    dv[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12 * h)
    dv[-2] = (3 * v[-1] + 10 * v[-2] - 18 * v[-3] + 6 * v[-4] - v[-5]) / (12 * h)
    dv[-1] = (25 * v[-1] - 48 * v[-2] + 36 * v[-3] - 16 * v[-4] + 3 * v[-5]) / (12 * h)
    return d
