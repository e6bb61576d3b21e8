"""Parametric rate-law families for the two-species tumor model.

The model needs five rates of the nutrient level c: a consumption law F and
four cell-kinetic laws K_B (proliferation), K_D (death), K_P (quiescent to
proliferating transfer) and K_Q (the reverse transfer).  The structural
hypotheses are F(0)=0, F'>0, K_B and K_P increasing from 0, K_D and K_Q
decreasing to 0 at c=1, and K_B'+K_D'>0.  The default family is affine in c,
which satisfies all of them transparently whenever b_rate > d_rate; a second
family with saturating consumption F(c) = lambda*c/(1+c) is provided to check
that nothing downstream depends on affineness.  Every solver reads the
reaction term f, the density g and their derivatives from the RateValues
methods; scalar_reaction is their plain-float twin.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

FAMILIES = ("affine", "saturating")

#: sample resolution for hypothesis validation
_N_SAMPLE = 1001


@dataclass(frozen=True)
class KineticsSpec:
    """Parameter set selecting one member of a rate-law family.

    All slopes are dimensionless (time is rescaled).  Validity (positivity,
    b_rate > d_rate) is checked by `validate_hypotheses`, not the constructor,
    so that deliberately invalid specs can be built and reported on.
    """

    lam: float = 1.0
    b_rate: float = 1.0
    d_rate: float = 0.5
    p_rate: float = 0.4
    q_rate: float = 0.3
    family: str = "affine"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown rate family {self.family!r}; choose from {FAMILIES}")


@dataclass(frozen=True)
class RateValues:
    """All rate laws at one nutrient level c and their c-derivatives.

    km = kb + kd and kn = kp + kq hold by construction; the consumption F
    (f_val) and the derivatives (f_d, kb_d ... kn_d) are built on first
    read.  Fields may be scalars or arrays depending on the input c.
    """

    spec: KineticsSpec
    c: object
    kb: object
    kd: object
    kp: object
    kq: object
    km: object = field(init=False)
    kn: object = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "km", self.kb + self.kd)
        object.__setattr__(self, "kn", self.kp + self.kq)

    @cached_property
    def f_val(self):
        if self.spec.family == "affine":
            return self.spec.lam * self.c
        return self.spec.lam * self.c / (1.0 + self.c)

    @cached_property
    def f_d(self):
        if self.spec.family == "affine":
            return self.spec.lam * np.ones_like(self.c)
        return self.spec.lam / (1.0 + self.c) ** 2

    kb_d = cached_property(lambda self: self.spec.b_rate * np.ones_like(self.c))
    kd_d = cached_property(lambda self: -self.spec.d_rate * np.ones_like(self.c))
    kp_d = cached_property(lambda self: self.spec.p_rate * np.ones_like(self.c))
    kq_d = cached_property(lambda self: -self.spec.q_rate * np.ones_like(self.c))
    km_d = cached_property(lambda self: self.kb_d + self.kd_d)
    kn_d = cached_property(lambda self: self.kp_d + self.kq_d)

    def f(self, p):
        """Reaction term f = K_P + (K_M - K_N) p - K_M p^2, dp/dt along
        characteristics; p may leave [0,1] (root finders probe outside)."""
        return _reaction(self.kp, self.km, self.kn, p)

    def f_p(self, p):
        """df/dp = (K_M - K_N) - 2 K_M p."""
        return (self.km - self.kn) - 2.0 * self.km * p

    def f_c(self, p):
        """df/dc: f is linear in the rates, so f of their c-derivatives."""
        return _reaction(self.kp_d, self.km_d, self.kn_d, p)

    def g(self, p):
        """Mass-balance density g = -K_D + K_M p, the source of u."""
        return _density(self.kd, self.km, p)

    def g_c(self, p):
        """dg/dc = -K_D' + K_M' p."""
        return _density(self.kd_d, self.km_d, p)


def _reaction(kp, km, kn, p):
    return kp + (km - kn) * p - km * p * p


def _density(kd, km, p):
    return -kd + km * p


def _check_domain(c):
    c = np.asarray(c, dtype=float)
    lo, hi = c.min(), c.max()
    if not (lo >= -1e-12 and hi <= 1 + 1e-12):  # NaN fails both
        raise ValueError(f"nutrient level outside [0,1]: range [{lo}, {hi}]")
    return c


def eval_rates(spec, c):
    """Evaluate every rate law at nutrient level c; RateValues computes F and
    the derivatives when they are first read.

    c may be a scalar or an array; values are broadcast elementwise.
    Raises ValueError if c leaves [0,1] by more than 1e-12 or is NaN.
    """
    c = _check_domain(c)
    return RateValues(spec, c, kb=spec.b_rate * c,
                      kd=spec.d_rate * (1.0 - c), kp=spec.p_rate * c,
                      kq=spec.q_rate * (1.0 - c))


def scalar_reaction(spec, c, p):
    """Plain-float (f, g) at one nutrient level c in [0,1] and fraction p.

    The same operations in the same order as eval_rates and the RateValues
    methods, so the values are bit-identical, but without the domain check,
    the arrays and the RateValues record: the shooting right-hand side calls
    this once per evaluation.  The consumption law F does not enter, so
    every family shares it.
    """
    kb = spec.b_rate * c
    kd = spec.d_rate * (1.0 - c)
    kp = spec.p_rate * c
    kq = spec.q_rate * (1.0 - c)
    km = kb + kd
    return _reaction(kp, km, kp + kq, p), _density(kd, km, p)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float  # worst signed margin; positive means satisfied with room


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def all_passed(self):
        return all(ch.passed for ch in self.checks)

    def failed_names(self):
        return [ch.name for ch in self.checks if not ch.passed]


def validate_hypotheses(spec):
    """Check the structural hypotheses on a 1001-point sample of [0,1].

    Equality conditions (F(0)=0 etc.) use margin = -|violation|; strict
    inequalities use the worst sampled value.  Failures are reported, never
    raised, so invalid specs can be inspected.
    """
    c = np.linspace(0.0, 1.0, _N_SAMPLE)
    rv = eval_rates(spec, c)
    tol = 1e-12

    def eq_check(name, value):
        m = -abs(float(value))
        return CheckResult(name, abs(float(value)) <= tol, m)

    def pos_check(name, values):
        m = float(np.min(values))
        return CheckResult(name, m > 0.0, m)

    def neg_check(name, values):
        m = float(np.max(values))
        return CheckResult(name, m < 0.0, -m)

    checks = (
        eq_check("F(0)=0", rv.f_val[0]),
        pos_check("F'>0", rv.f_d),
        pos_check("K_B'>0", rv.kb_d),
        eq_check("K_B(0)=0", rv.kb[0]),
        neg_check("K_D'<0", rv.kd_d),
        eq_check("K_D(1)=0", rv.kd[-1]),
        pos_check("K_P'>0", rv.kp_d),
        eq_check("K_P(0)=0", rv.kp[0]),
        neg_check("K_Q'<0", rv.kq_d),
        eq_check("K_Q(1)=0", rv.kq[-1]),
        pos_check("K_B'+K_D'>0", rv.km_d),
    )
    return ValidationReport(checks)
