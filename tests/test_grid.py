from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline, PchipInterpolator, PPoly

from tumorlab.errors import GridMismatchError
from tumorlab.grid import (RadialField, RadialGrid, RadialMoments,
                           derivative_values, pchip, pchip_coefficients,
                           radial_average, require_same_grid, scalar_ppoly)


def test_grid_requires_endpoints():
    # the nodes are linspace(0, 1, size): read-only, with exact endpoints
    # and the spacing the stencils use
    g = RadialGrid.uniform(101)
    assert np.array_equal(g.nodes, np.linspace(0.0, 1.0, 101))
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0 and g.nodes[1] == g.spacing
    with pytest.raises(ValueError):
        g.nodes[3] = 0.5


@pytest.mark.parametrize("size", [101.0, "101", None])
def test_grid_size_must_be_an_integer(size):
    with pytest.raises(ValueError, match="integer size"):
        RadialGrid(size)


@pytest.mark.parametrize("size", [2, 3, 4])
def test_grid_needs_five_nodes(size):
    # the 5-point derivative stencils read node 4
    with pytest.raises(ValueError, match="at least 5"):
        RadialGrid.uniform(size)
    g = RadialGrid.uniform(5)
    assert np.allclose(derivative_values(g.nodes ** 2, g), 2 * g.nodes)


def test_equal_grids_hash_equal():
    # grids of one size are equal with equal hashes, so one keys a dict
    # entry that the other finds, a numpy integer size included
    size = np.int64(101)
    a, b = RadialGrid.uniform(101), RadialGrid(size)
    assert a == b and hash(a) == hash(b)
    assert {a: "uniform"}[b] == "uniform"
    assert RadialGrid.uniform(51) not in {a: "uniform"}


def test_uniform_spacing():
    g = RadialGrid.uniform(101)
    assert g.spacing == pytest.approx(0.01)


def test_field_shape_checked():
    g = RadialGrid.uniform(11)
    with pytest.raises(GridMismatchError):
        RadialField(g, np.zeros(10))


def test_field_interpolation_hits_nodes():
    g = RadialGrid.uniform(21)
    f = RadialField(g, np.sin(g.nodes))
    np.testing.assert_allclose(f(g.nodes), f.values, atol=1e-15)


def test_field_values_must_be_finite():
    values = np.zeros(11)
    values[4] = np.nan
    with pytest.raises(ValueError, match="field values must be finite"):
        RadialField(RadialGrid.uniform(11), values)


@pytest.mark.parametrize("x, y, message", [
    ([0.0, 0.5, 1.0], [0.0, np.inf, 1.0], "pchip points and values must be finite"),
    ([0.0, np.nan, 1.0], [0.0, 0.5, 1.0], "pchip points and values must be finite"),
    ([0.0, 0.5, 0.5, 1.0], [0.0, 0.5, 0.6, 1.0], "pchip points must be strictly increasing"),
    ([0.0, 0.6, 0.5, 1.0], [0.0, 0.5, 0.6, 1.0], "pchip points must be strictly increasing"),
], ids=["inf-value", "nan-point", "touching", "decreasing"])
def test_pchip_rejects_bad_points(x, y, message):
    with pytest.raises(ValueError, match=message):
        pchip_coefficients(np.array(x), np.array(y))


def test_require_same_grid():
    g1, g2 = RadialGrid.uniform(11), RadialGrid.uniform(12)
    f1 = RadialField(g1, np.zeros(11))
    f2 = RadialField(g2, np.zeros(12))
    with pytest.raises(GridMismatchError):
        require_same_grid(f1, f2)


def test_radial_average_constant():
    g = RadialGrid.uniform(201)
    u = radial_average(np.ones(g.size), g.nodes)
    np.testing.assert_allclose(u, g.nodes / 3.0, atol=1e-14)


def test_third_moment_constant_limit():
    g = RadialGrid.uniform(201)
    out = RadialMoments(g.nodes).full_and_third(np.full(g.size, 6.0))[1]
    np.testing.assert_allclose(out, 2.0, atol=1e-13)
    assert out[0] == pytest.approx(2.0)


def test_derivative_fourth_order():
    g = RadialGrid.uniform(101)
    d = derivative_values(np.exp(g.nodes), g)
    err = np.max(np.abs(d - np.exp(g.nodes)))
    assert err <= 1e-8


def _node_sets():
    rng = np.random.default_rng(3)
    jittered = np.linspace(0.0, 1.0, 801)
    jittered[1:-1] += rng.uniform(-0.3, 0.3, 799) / 800
    odd = np.linspace(0.0, 1.0, 200)
    odd[1:-1] += rng.uniform(-0.3, 0.3, 198) / 199
    return {"uniform": np.linspace(0.0, 1.0, 801), "jittered": jittered,
            "odd_intervals": odd}


def _stored_and_exact(op, x, i):
    """The operator's stored weights that interval i enters, each with its
    exact values: the odd last interval's, or its pair's totals and
    first-interval weights."""
    if op.last is not None and i == x.size - 2:
        return [(op.last, _exact_weights(x, i))]
    m = i // 2
    first, second = _exact_weights(x, 2 * m), _exact_weights(x, 2 * m + 1)
    return [(op.weights[:, 0, m], [a + b for a, b in zip(first, second)]),
            (op.weights[:, 1, m], first)]


def _exact_weights(x, i):
    """x_j^2 times the integral over [x_i, x_{i+1}] of the Lagrange basis
    quadratics of the Simpson triple interval i reads, in exact arithmetic."""
    n = x.size
    first = n - 3 if (n - 1) % 2 and i == n - 2 else 2 * (i // 2)
    xs = [Fraction(float(x[first + j])) for j in range(3)]
    s, t = Fraction(float(x[i])), Fraction(float(x[i + 1]))
    out = []
    for j in range(3):
        a, b = (xs[l] for l in range(3) if l != j)
        # (rho - a)(rho - b) = rho^2 - (a + b) rho + a b, integrated over [s, t]
        integral = ((t ** 3 - s ** 3) / 3 - (a + b) * (t * t - s * s) / 2
                    + a * b * (t - s))
        out.append(xs[j] ** 2 * integral / ((xs[j] - a) * (xs[j] - b)))
    return out


@pytest.mark.parametrize("name,intervals", [("uniform", (1, 400, 799)),
                                            ("odd_intervals", (1, 100, 198))])
def test_moment_weights_match_exact_arithmetic(name, intervals):
    # each weight is formed without cancellation, so the pair totals, the
    # first-interval weights and the odd last interval's keep full relative
    # precision
    x = _node_sets()[name]
    op = RadialMoments(x)
    for i in intervals:
        for got, exact in _stored_and_exact(op, x, i):
            for w, e in zip(got, exact):
                assert abs(Fraction(float(w)) - e) <= 1e-13 * abs(e)


@pytest.mark.parametrize("name", ["uniform", "jittered", "odd_intervals"])
def test_moments_match_cumulative_simpson(name):
    # away from the exact cubic start the operator is composite Simpson on
    # v rho^2, row by row
    x = _node_sets()[name]
    v = np.random.default_rng(5).standard_normal((4, x.size))
    op = RadialMoments(x)
    k = op.k
    got = op.cumulative(v)
    ref = cumulative_simpson(v * x * x, x=x, initial=0.0)
    got_inc = got[:, k - 1:] - got[:, k - 1:k]
    ref_inc = ref[:, k - 1:] - ref[:, k - 1:k]
    assert np.max(np.abs(got_inc - ref_inc)) <= 1e-13 * np.max(np.abs(ref_inc))
    full, third = op.full_and_third(v)
    assert np.array_equal(full, got[:, -1])
    assert np.array_equal(third[:, 1:], got[:, 1:] * (1.0 / x[1:] ** 3))
    assert np.array_equal(third[:, 0], v[:, 0] / 3.0)
    np.testing.assert_allclose(op.cumulative(v[2]), got[2], rtol=1e-14)


def test_moment_start_exact_for_cubics():
    # the origin start integrates a cubic integrand exactly
    x = _node_sets()["jittered"]
    v = 1.0 - 2.0 * x + 3.0 * x ** 2 - 4.0 * x ** 3
    exact = x ** 3 / 3 - 2.0 * x ** 4 / 4 + 3.0 * x ** 5 / 5 - 4.0 * x ** 6 / 6
    got = RadialMoments(x).cumulative(v)
    np.testing.assert_allclose(got[:5], exact[:5], rtol=1e-12, atol=0)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("n", range(3, 10))
def test_moments_on_small_grids(n, rows):
    # up to 5 nodes the start gives every moment; from 6 the pair totals
    # take over at x_4, with an odd last interval at 6 and 8 nodes
    x = np.linspace(0.0, 1.0, n)
    x[1:-1] += np.random.default_rng(n).uniform(-0.2, 0.2, n - 2) / (n - 1)
    op = RadialMoments(x)
    k = op.k
    powers = np.arange(min(4, k))[:, None]  # a quadratic fit at 3 nodes
    coef = np.random.default_rng(rows).standard_normal((rows, powers.size))
    v = coef @ x ** powers
    exact = coef @ (x ** (powers + 3) / (powers + 3))
    got = op.cumulative(v)
    np.testing.assert_allclose(got[:, :k], exact[:, :k], rtol=1e-12, atol=1e-15)
    ref = cumulative_simpson(v * x * x, x=x, initial=0.0)
    got_inc = got[:, k - 1:] - got[:, k - 1:k]
    ref_inc = ref[:, k - 1:] - ref[:, k - 1:k]
    assert np.max(np.abs(got_inc - ref_inc), initial=0.0) <= 1e-13 * np.max(np.abs(ref_inc))


def _exact_start(x):
    """The cubic start in exact arithmetic: row i weighs the first k values
    in the moment at x_i of their least-squares cubic, from the normal
    equations solved by Gauss-Jordan elimination over the rationals."""
    k = min(5, x.size)
    n = min(4, k)
    xs = [Fraction(float(v)) for v in x[:k]]
    rows = [[sum(xi ** (a + b) for xi in xs) for b in range(n)]
            + [xj ** a for xj in xs] for a in range(n)]
    for col in range(n):
        pivot = rows[col][col]
        rows[col] = [e / pivot for e in rows[col]]
        for r in range(n):
            if r != col:
                rows[r] = [e - rows[r][col] * p for e, p in zip(rows[r], rows[col])]
    fit = [row[n:] for row in rows]  # (V^T V)^-1 V^T
    return [[sum(xi ** (m + 3) / (m + 3) * fit[m][j] for m in range(n))
             for j in range(k)] for xi in xs]


def _start_node_sets():
    """Uniform nodes and, at the same sizes, positions whose first five
    spacings are drawn from [0.2, 2.5] h, the spacings regridding allows."""
    rng = np.random.default_rng(15)
    sets = [np.linspace(0.0, 1.0, n) for n in (3, 4, 201, 801)]
    for n in (201, 801):
        h = 1.0 / (n - 1)
        gaps = [rng.uniform(0.2, 2.5, 5) for _ in range(12)]
        gaps += [np.array(g) for g in ([2.5, 0.2, 0.2, 0.2, 1.0],
                                       [0.2, 0.2, 0.2, 2.5, 1.0],
                                       [0.2, 0.2, 2.5, 2.5, 1.0])]
        for g in gaps:
            head = np.concatenate([[0.0], np.cumsum(g * h)])
            sets.append(np.concatenate([head, np.linspace(head[-1], 1.0, n - 5)[1:]]))
    return sets


def test_moment_start_matches_exact_least_squares(monkeypatch):
    # the start is built in closed form, with no SVD, and each row is the
    # exact least-squares row to 2e-13 of its largest weight
    def banned(*args, **kwargs):
        raise AssertionError("the cubic start must not need an SVD")

    monkeypatch.setattr(np.linalg, "pinv", banned)
    monkeypatch.setattr(np.linalg, "svd", banned)
    for x in _start_node_sets():
        start = RadialMoments(x).start
        for got, exact in zip(start, _exact_start(x)):
            scale = max(abs(e) for e in exact)
            err = max(abs(Fraction(float(g)) - e) for g, e in zip(got, exact))
            assert err <= 2e-13 * scale, (x[:5], float(err / scale) if scale else err)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _jittered_rows(n, rows, seed):
    """rows rows of n positions on [0,1], each node moved by up to 0.3 h."""
    x = np.tile(np.linspace(0.0, 1.0, n), (rows, 1))
    x[:, 1:-1] += np.random.default_rng(seed).uniform(-0.3, 0.3, (rows, n - 2)) / (n - 1)
    return x


@pytest.mark.parametrize("rows", [1, 3, 40])
@pytest.mark.parametrize("n", [200, 201, 801])
def test_stacked_moments_match_row_builds(n, rows):
    # one build over stacked rows of positions gives each row the bits of
    # its own build, so the rows a batch holds cannot change a row's moments
    x = _jittered_rows(n, rows, n + rows)
    v = np.random.default_rng(rows).standard_normal((rows, n))
    op = RadialMoments(x)
    moments = op.cumulative(v)
    for i in range(rows):
        one = RadialMoments(x[i])
        assert _same_bits(op.weights[i], one.weights)
        assert _same_bits(op.start[i], one.start)
        assert (op.last is None) == (one.last is None) == (n % 2 == 1)
        assert one.last is None or _same_bits(op.last[i], one.last)
        assert _same_bits(moments[i], one.cumulative(v[i]))
    # and one shared operator gives a row the bits it has alone, in a batch
    # of 20 rows and of 2
    shared = RadialMoments(x[0])
    w = np.random.default_rng(n + rows).standard_normal((20, n))
    batch, pair = shared.cumulative(w), shared.cumulative(w[:2])
    for i in range(20):
        alone = shared.cumulative(w[i])
        assert _same_bits(batch[i], alone)
        assert i >= 2 or _same_bits(pair[i], alone)


def _pchip_values(kind, shape, rng):
    if kind == "normal":
        return rng.standard_normal(shape)
    if kind == "steps":  # repeated values: zero slopes
        return np.round(rng.standard_normal(shape), 1)
    if kind == "monotone":
        return np.cumsum(rng.uniform(0.0, 1.0, shape), axis=-1)
    if kind == "clipped":  # flat runs between sign changes
        return np.clip(rng.standard_normal(shape), -0.5, 0.5)
    return rng.choice([0.0, -0.0, 1.0, -1.0], shape)  # signed zeros


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 60), rows=st.sampled_from([None, 1, 4]),
       shared=st.booleans(),
       kind=st.sampled_from(["normal", "steps", "monotone", "clipped", "zeros"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pchip_coefficients_match_scipy(n, rows, shared, kind, seed):
    # the batched monotone cubic has scipy's bits in every row: its
    # coefficients, and its values anywhere, the ends and beyond included;
    # so has a RadialField's interpolator on the uniform grid, with its
    # derivative
    rng = np.random.default_rng(seed)
    shape = (n,) if rows is None else (rows, n)
    y = _pchip_values(kind, shape, rng)
    x = _jittered_rows(n, 1 if shared else int(np.prod(shape[:-1])), seed)
    x = x.reshape((n,) if shared else shape)
    c = pchip_coefficients(x, y)
    xq = np.concatenate([[-0.05, 0.0], rng.uniform(0.0, 1.0, 30), x.ravel(), [1.0, 1.05]])
    for i in np.ndindex(shape[:-1]):
        row_x = x if shared else x[i]
        ref = PchipInterpolator(row_x, y[i])
        assert _same_bits(c[i], ref.c)
        assert _same_bits(PPoly.construct_fast(c[i], row_x)(xq), ref(xq))
        if n >= 5:  # a RadialGrid's fewest nodes
            grid = RadialGrid.uniform(n)
            field = RadialField(grid, y[i]).interpolator()
            ref = PchipInterpolator(grid.nodes, y[i])
            at = np.concatenate([xq, grid.nodes])
            assert _same_bits(field.c, ref.c)
            assert _same_bits(field(at), ref(at))
            assert _same_bits(field.derivative()(at), ref.derivative()(at))


@pytest.mark.parametrize("build", ["pchip", "spline"])
@pytest.mark.parametrize("n", [5, 201, 801])
def test_scalar_ppoly_matches_ppoly(build, n):
    # the plain-float reader has PPoly's bits at every breakpoint (where
    # PPoly's interval is half-open on the right, the last one closed), at
    # the midpoints and beyond both ends
    x = _jittered_rows(n, 1, n)[0]
    y = np.sin(3.0 * x) + np.random.default_rng(n).uniform(0.0, 0.1, n)
    ppoly = (pchip(x, y) if build == "pchip"
             else CubicSpline(x, y, bc_type=((1, 0.0), "not-a-knot")))
    at = np.concatenate([x, 0.5 * (x[1:] + x[:-1]), [-0.1, -1e-300, np.nextafter(1.0, 2.0), 1.2]])
    read = scalar_ppoly(ppoly)
    assert _same_bits([read(r) for r in at.tolist()], [float(ppoly(r)) for r in at])
