import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tumorlab.kinetics import (FAMILIES, KineticsSpec, eval_rates,
                               reaction_f, reaction_f_dp, scalar_rates,
                               validate_hypotheses)


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


@settings(max_examples=300, deadline=None)
@given(lam=_rate, d_rate=_rate, b_gap=_rate, p_rate=_rate, q_rate=_rate,
       family=st.sampled_from(FAMILIES),
       c=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_scalar_rates_match_eval_rates(lam, d_rate, b_gap, p_rate, q_rate,
                                       family, c):
    # the shooting path's plain-float rates must stay bit-identical to
    # eval_rates for every family and parameter set
    spec = KineticsSpec(lam=lam, b_rate=d_rate + b_gap, d_rate=d_rate,
                        p_rate=p_rate, q_rate=q_rate, family=family)
    rv = eval_rates(spec, c)
    kp, kd, km, kn = scalar_rates(spec, c)
    assert (kp, kd, km, kn) == (rv.kp, rv.kd, rv.km, rv.kn)
    assert all(type(k) is float for k in (kp, kd, km, kn))


def test_reaction_roots_bracket_unit_interval():
    # f(c, 0) = K_P > 0 for c > 0 and f(c, 1) = -K_Q - K_D < 0 for c < 1,
    # so the logistic-type reaction pushes p into (0, 1) from both sides
    c = np.linspace(0.05, 0.95, 19)
    spec = KineticsSpec()
    assert np.all(reaction_f(spec, c, np.zeros_like(c)) > 0)
    assert np.all(reaction_f(spec, c, np.ones_like(c)) < 0)


def test_reaction_dp_matches_difference_quotient():
    spec = KineticsSpec()
    c = np.linspace(0.1, 0.9, 9)
    p = np.linspace(0.2, 0.8, 9)
    h = 1e-6
    fd = (reaction_f(spec, c, p + h) - reaction_f(spec, c, p - h)) / (2 * h)
    np.testing.assert_allclose(reaction_f_dp(spec, c, p), fd, atol=1e-8)


def test_spec_roundtrip_dict():
    spec = KineticsSpec(lam=2.0, b_rate=1.5, family="saturating")
    assert KineticsSpec.from_dict(spec.to_dict()) == spec


def test_families_enumerated():
    assert set(FAMILIES) == {"affine", "saturating"}
