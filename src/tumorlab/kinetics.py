"""Parametric rate-law families for the two-species tumor model.

The model needs five rates of the nutrient level c: a consumption law F and
four cell-kinetic laws K_B (proliferation), K_D (death), K_P (quiescent to
proliferating transfer) and K_Q (the reverse transfer).  The structural
hypotheses are F(0)=0, F'>0, K_B and K_P increasing from 0, K_D and K_Q
decreasing to 0 at c=1, and K_B'+K_D'>0.  The default family is affine in c,
which satisfies all of them transparently whenever b_rate > d_rate; a second
family with saturating consumption F(c) = lambda*c/(1+c) is provided to check
that nothing downstream depends on affineness.
"""

from dataclasses import dataclass, field

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

    def to_dict(self):
        return {
            "lam": self.lam,
            "b_rate": self.b_rate,
            "d_rate": self.d_rate,
            "p_rate": self.p_rate,
            "q_rate": self.q_rate,
            "family": self.family,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


@dataclass(frozen=True)
class RateValues:
    """All rate laws and their c-derivatives evaluated at one nutrient level.

    km = kb + kd and kn = kp + kq hold by construction.  Fields may be scalars
    or arrays depending on the input c.
    """

    f_val: object
    kb: object
    kd: object
    kp: object
    kq: object
    km: object = field(init=False)
    kn: object = field(init=False)
    f_d: object = 0.0
    kb_d: object = 0.0
    kd_d: object = 0.0
    kp_d: object = 0.0
    kq_d: object = 0.0
    km_d: object = field(init=False)
    kn_d: object = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "km", self.kb + self.kd)
        object.__setattr__(self, "kn", self.kp + self.kq)
        object.__setattr__(self, "km_d", self.kb_d + self.kd_d)
        object.__setattr__(self, "kn_d", self.kp_d + self.kq_d)


def _check_domain(c):
    c = np.asarray(c, dtype=float)
    if np.any(c < -1e-12) or np.any(c > 1 + 1e-12):
        raise ValueError(
            f"nutrient level outside [0,1]: range [{np.min(c)}, {np.max(c)}]"
        )
    return c


def eval_rates(spec, c):
    """Evaluate every rate law and its derivative at nutrient level c.

    c may be a scalar or an array; values are broadcast elementwise.
    Raises ValueError if c leaves [0,1] by more than 1e-12.
    """
    c = _check_domain(c)
    if spec.family == "affine":
        f_val = spec.lam * c
        f_d = spec.lam * np.ones_like(c)
    else:  # saturating
        f_val = spec.lam * c / (1.0 + c)
        f_d = spec.lam / (1.0 + c) ** 2
    one = np.ones_like(c)
    return RateValues(
        f_val=f_val,
        kb=spec.b_rate * c,
        kd=spec.d_rate * (1.0 - c),
        kp=spec.p_rate * c,
        kq=spec.q_rate * (1.0 - c),
        f_d=f_d,
        kb_d=spec.b_rate * one,
        kd_d=-spec.d_rate * one,
        kp_d=spec.p_rate * one,
        kq_d=-spec.q_rate * one,
    )


def scalar_rates(spec, c):
    """Plain-float (kp, kd, km, kn) at one nutrient level c in [0,1].

    The same operations in the same order as eval_rates, so the values are
    bit-identical, but without the domain check, the arrays and the
    RateValues record: the shooting right-hand side calls this once per
    evaluation.  The consumption law F does not enter, so every family
    shares it.
    """
    kb = spec.b_rate * c
    kd = spec.d_rate * (1.0 - c)
    kp = spec.p_rate * c
    kq = spec.q_rate * (1.0 - c)
    return kp, kd, kb + kd, kp + kq


def reaction_f(spec, c, p):
    """Reaction term f(c, p) = K_P + (K_M - K_N) p - K_M p^2.

    Governs dp/dt along characteristics.  p is unrestricted (root finders
    probe outside [0,1]); c must be a valid nutrient level.
    """
    rv = eval_rates(spec, c)
    p = np.asarray(p, dtype=float)
    return rv.kp + (rv.km - rv.kn) * p - rv.km * p * p


def reaction_f_dp(spec, c, p):
    """Partial derivative of reaction_f in p: (K_M - K_N) - 2 K_M p."""
    rv = eval_rates(spec, c)
    p = np.asarray(p, dtype=float)
    return (rv.km - rv.kn) - 2.0 * rv.km * p


def reaction_f_dc(spec, c, p):
    """Partial derivative of reaction_f in c: K_P' + (K_M'-K_N') p - K_M' p^2."""
    rv = eval_rates(spec, c)
    p = np.asarray(p, dtype=float)
    return rv.kp_d + (rv.km_d - rv.kn_d) * p - rv.km_d * p * p


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

    def __str__(self):
        lines = []
        for ch in self.checks:
            status = "pass" if ch.passed else "FAIL"
            lines.append(f"{status}  {ch.name:16s} worst margin {ch.margin:+.3e}")
        return "\n".join(lines)


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
