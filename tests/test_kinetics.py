import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tumorlab.kinetics import (FAMILIES, KineticsSpec, eval_rates,
                               scalar_reaction, validate_hypotheses)


def test_default_family_satisfies_all_hypotheses():
    report = validate_hypotheses(KineticsSpec())
    assert report.all_passed, report.failed_names()


def test_saturating_family_satisfies_all_hypotheses():
    report = validate_hypotheses(KineticsSpec(family="saturating"))
    assert report.all_passed, report.failed_names()


def test_invalid_spec_reported_not_raised():
    # death rate above proliferation breaks K_B' + K_D' > 0
    report = validate_hypotheses(KineticsSpec(b_rate=0.2, d_rate=0.5))
    assert not report.all_passed
    assert "K_B'+K_D'>0" in report.failed_names()


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        KineticsSpec(family="cubic")


def test_km_kn_composition():
    c = np.linspace(0.0, 1.0, 11)
    rv = eval_rates(KineticsSpec(), c)
    np.testing.assert_allclose(rv.km, rv.kb + rv.kd, rtol=0, atol=0)
    np.testing.assert_allclose(rv.kn, rv.kp + rv.kq, rtol=0, atol=0)
    np.testing.assert_allclose(rv.km_d, rv.kb_d + rv.kd_d, rtol=0, atol=0)


_rate = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)
_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_specs = st.builds(
    lambda lam, d_rate, b_gap, p_rate, q_rate, family: KineticsSpec(
        lam=lam, b_rate=d_rate + b_gap, d_rate=d_rate, p_rate=p_rate,
        q_rate=q_rate, family=family),
    _rate, _rate, _rate, _rate, _rate, st.sampled_from(FAMILIES))


@settings(max_examples=300, deadline=None)
@given(spec=_specs, c=_unit, p=_unit)
def test_scalar_reaction_matches_rate_values(spec, c, p):
    # the shooting path's plain-float (f, g) must stay bit-identical to the
    # RateValues methods for every family and parameter set
    rv = eval_rates(spec, c)
    f, g = scalar_reaction(spec, c, p)
    assert (f, g) == (rv.f(p), rv.g(p))
    assert type(f) is float and type(g) is float


@settings(max_examples=300, deadline=None)
@given(spec=_specs, c=st.floats(min_value=0.01, max_value=0.99), p=_unit)
def test_rate_derivatives_match_central_differences(spec, c, p):
    # f and g are affine in c and quadratic in p, so central differences are
    # exact up to the rounding of f and g, a few ulp of the largest rate
    h = 1e-3
    rv, lo, hi = eval_rates(spec, c), eval_rates(spec, c - h), eval_rates(spec, c + h)
    scale = 1.0 + float(np.max(np.abs([rv.km, rv.kn, rv.kp, rv.kd])))
    tol = 32 * np.finfo(float).eps * scale / h
    assert rv.f_p(p) == pytest.approx((rv.f(p + h) - rv.f(p - h)) / (2 * h), abs=tol)
    assert rv.f_c(p) == pytest.approx((hi.f(p) - lo.f(p)) / (2 * h), abs=tol)
    assert rv.g_c(p) == pytest.approx((hi.g(p) - lo.g(p)) / (2 * h), abs=tol)


@settings(max_examples=300, deadline=None)
@given(spec=_specs, cs=st.lists(_unit, min_size=1, max_size=6), scalar=st.booleans())
def test_lazy_derivatives_match_eager_expressions(spec, cs, scalar):
    # the c-derivatives are built on first read, from the same expressions
    # eval_rates once evaluated eagerly, so they are the same bytes
    c = cs[0] if scalar else np.array(cs)
    rv = eval_rates(spec, c)
    c = np.asarray(c, dtype=float)
    one = np.ones_like(c)
    eager = {"f_d": spec.lam * one if spec.family == "affine"
             else spec.lam / (1.0 + c) ** 2,
             "kb_d": spec.b_rate * one, "kd_d": -spec.d_rate * one,
             "kp_d": spec.p_rate * one, "kq_d": -spec.q_rate * one}
    eager["km_d"] = eager["kb_d"] + eager["kd_d"]
    eager["kn_d"] = eager["kp_d"] + eager["kq_d"]
    for name, want in eager.items():
        got = getattr(rv, name)
        assert type(got) is type(want) and np.shape(got) == np.shape(want), name
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
        assert getattr(rv, name) is got  # computed once


@pytest.mark.parametrize("c", [np.nan, [0.2, np.nan, 0.5], [np.nan, 2.0]])
def test_eval_rates_rejects_nan(c):
    # NaN compares false with both bounds of [0,1]
    with pytest.raises(ValueError, match="outside"):
        eval_rates(KineticsSpec(), c)


def test_reaction_roots_bracket_unit_interval():
    # f(c, 0) = K_P > 0 for c > 0 and f(c, 1) = -K_Q - K_D < 0 for c < 1,
    # so the logistic-type reaction pushes p into (0, 1) from both sides
    c = np.linspace(0.05, 0.95, 19)
    rv = eval_rates(KineticsSpec(), c)
    assert np.all(rv.f(np.zeros_like(c)) > 0)
    assert np.all(rv.f(np.ones_like(c)) < 0)


def test_families_enumerated():
    assert set(FAMILIES) == {"affine", "saturating"}
