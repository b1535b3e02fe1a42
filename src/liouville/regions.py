"""Exact classification of exponent pairs (p, q).

The plane splits into six nonexistence/sharpness regions G1..G6 and, off
the line p+q=1, into four parameter regions K1..K4 that drive the choice
of the test-exponent pair (s, t) for the energy estimates.  All
comparisons are exact rational arithmetic; float inputs are rejected so
boundary cases (q = 2, p + q = 1, ...) stay meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError

ON_LINE = "on-line-p+q=1"

G_LABELS = ("G1", "G2", "G3", "G4", "G5", "G6")
K_LABELS = ("K1", "K2", "K3", "K4")


def _rational(value, name: str) -> Fraction:
    if isinstance(value, float):
        raise InputError(
            f"{name} must be exact (int, Fraction, or string); rationalize floats explicitly"
        )
    try:
        return Fraction(value)
    except (TypeError, ValueError):
        raise InputError(f"cannot interpret {name}={value!r} as a rational")


@dataclass(frozen=True)
class PQPoint:
    p: Fraction
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", _rational(self.p, "p"))
        object.__setattr__(self, "q", _rational(self.q, "q"))


def pq(p, q) -> PQPoint:
    return PQPoint(p, q)


def classify_g(point: PQPoint) -> str:
    """The one G label whose defining inequalities hold; a gap or an
    overlap in the definitions raises."""
    label, = [label for label in G_LABELS if in_g_region(label, point)]
    return label


def in_g_region(label: str, point: PQPoint) -> bool:
    """Re-evaluate the raw defining inequalities of a G-label."""
    p, q = point.p, point.q
    if label == "G1":
        return p >= 0 and 1 - p < q < 2
    if label == "G2":
        return q >= 2
    if label == "G3":
        return p < 0 and 1 < q < 2
    if label == "G4":
        return p < 0 and q == 1
    if label == "G5":
        return p + q == 1 and ((p >= 0 and q > 0) or q < 0)
    if label == "G6":
        return (p < 1 - q and q < 1) or (p == 1 and q == 0)
    raise InputError(f"unknown G label {label!r}")


def classify_k(point: PQPoint) -> str:
    """The one K label whose defining inequalities hold, or the on-line
    marker when p+q=1."""
    if point.p + point.q == 1:
        return ON_LINE
    label, = [label for label in K_LABELS if in_k_region(label, point)]
    return label


def in_k_region(label: str, point: PQPoint) -> bool:
    p, q = point.p, point.q
    if label == "K1":
        return p < 1 - q and q <= 1
    if label == "K2":
        return p >= 0 and 1 - p < q <= 1
    if label == "K3":
        return p > 1 - q and q > 1
    if label == "K4":
        return p < 0 and 1 < q < 1 - p
    raise InputError(f"unknown K label {label!r}")


def st_condition(point: PQPoint, s: Fraction, t: Fraction) -> bool:
    """The admissibility system for the energy-estimate exponents, exact.

    Requires (2p+q+t(q-2))/(p+q-t) > 1, (p+q-t)/(1-t) > 1, and
    s > (2p+q+t(q-2))/(p+q-1).
    """
    p, q = point.p, point.q
    s, t = Fraction(s), Fraction(t)
    if p + q == t or t == 1 or p + q == 1:
        return False
    a = (2 * p + q + t * (q - 2)) / (p + q - t)
    gamma = (p + q - t) / (1 - t)
    s_min = (2 * p + q + t * (q - 2)) / (p + q - 1)
    return a > 1 and gamma > 1 and s > s_min


@dataclass(frozen=True)
class STSelection:
    """A concrete admissible (s, t) pair with its source interval.

    t_range is an open interval; t_hi None means unbounded above.  s_min is
    the exact lower bound (2p+q+t(q-2))/(p+q-1) evaluated at t_default.
    """

    k_region: str
    t_lo: Fraction
    t_hi: Fraction | None
    t_default: Fraction
    s_min: Fraction
    s_default: Fraction

    def contains_t(self, t) -> bool:
        t = Fraction(t)
        if not t > self.t_lo:
            return False
        return self.t_hi is None or t < self.t_hi


def choose_st(point: PQPoint) -> STSelection:
    """The per-region t-interval, with a deterministic default.

    K1: t > 1.  K2: 0 < t < 1.  K3: max(-p/(q-1), 0) < t < 1.
    K4: 1 < t < -p/(q-1).  Finite intervals default to the midpoint,
    half-lines to endpoint + 1; s defaults to s_min + 1.
    """
    p, q = point.p, point.q
    k = classify_k(point)
    if k == ON_LINE:
        raise InputError("no K region on the line p+q=1")
    if k == "K1":
        t_lo, t_hi = Fraction(1), None
    elif k == "K2":
        t_lo, t_hi = Fraction(0), Fraction(1)
    elif k == "K3":
        t_lo, t_hi = max(-p / (q - 1), Fraction(0)), Fraction(1)
    else:
        t_lo, t_hi = Fraction(1), -p / (q - 1)
    t_default = t_lo + 1 if t_hi is None else (t_lo + t_hi) / 2
    s_min = (2 * p + q + t_default * (q - 2)) / (p + q - 1)
    s_default = s_min + 1
    return STSelection(k_region=k, t_lo=t_lo, t_hi=t_hi, t_default=t_default,
                       s_min=s_min, s_default=s_default)


@dataclass(frozen=True)
class Exponents:
    sigma: Fraction
    beta: Fraction
    lam: Fraction


def exponents(point: PQPoint, family: str = "I") -> Exponents:
    """Radial construction exponents.

    Family "I" (generic, needs p+q != 1):
        lam = (p+1)/(p+q-1), beta = 1/(p+q-1), sigma = (2-q)/(p+q-1).
    Family "III" (needs q != 1):
        beta = 1/(q-1), sigma = (2-q)/(q-1), and the weight shell carries
        the same polynomial exponent beta.
    """
    p, q = point.p, point.q
    if family == "I":
        if p + q == 1:
            raise InputError("family I exponents need p+q != 1")
        denom = p + q - 1
        return Exponents(sigma=(2 - q) / denom, beta=Fraction(1) / denom,
                         lam=(p + 1) / denom)
    if family == "III":
        if q == 1:
            raise InputError("family III exponents need q != 1")
        denom = q - 1
        return Exponents(sigma=(2 - q) / denom, beta=Fraction(1) / denom,
                         lam=Fraction(1) / denom)
    raise InputError(f"unknown exponent family {family!r}")
