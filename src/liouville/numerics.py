"""Precision management and tolerance-aware inequality checks.

All analytic evaluation in the package runs on mpmath floats under an
explicit precision context.  Inequality verdicts are never plain boolean
comparisons: each records a signed margin together with the magnitude of
the dominant term, and "holds" means the margin does not exceed a small
relative tolerance of that magnitude.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import MPZ, bitcount, ften, from_int, mpf_div, mpf_mul, mpf_pow_int, mpf_shift

DEFAULT_PRECISION_BITS = 128
MIN_PRECISION_BITS = 53         # a float64 significand
PRECISION_ENV_VAR = "LIOUVILLE_PRECISION_BITS"

# Relative tolerance for inequality certificates, as a fraction of the
# dominant term's magnitude.
DEFAULT_REL_TOL = "1e-30"


def default_precision_bits() -> int:
    """Default significand size, overridable via LIOUVILLE_PRECISION_BITS."""
    raw = os.environ.get(PRECISION_ENV_VAR)
    if raw is None:
        return DEFAULT_PRECISION_BITS
    try:
        bits = int(raw)
    except ValueError:
        raise ValueError(f"{PRECISION_ENV_VAR} must be an integer, got {raw!r}")
    if bits < MIN_PRECISION_BITS:
        raise ValueError(f"{PRECISION_ENV_VAR} must be at least {MIN_PRECISION_BITS}, "
                         f"got {bits}")
    return bits


@contextmanager
def precision(bits: int | None = None):
    """Context manager pinning the mpmath working precision in bits."""
    if bits is None:
        bits = default_precision_bits()
    with mp.workprec(bits):
        yield


def rel_tol() -> mp.mpf:
    return mp.mpf(DEFAULT_REL_TOL)


# A plain ASCII decimal: sign and integer digits, fraction digits, exponent.
# Every other spelling mp.mpf accepts (inf, nan, a/b, surrounding space,
# non-ASCII digits, a trailing l) goes to mp.mpf itself, but for digit
# separators, which `parse_decimal` rejects.
_DECIMAL = re.compile(r"([+-]?[0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?")
# 5^k as raw mpf values for the divisions 10^-k = 5^-k 2^-k of `parse_decimal`;
# beyond 400 digits mpmath multiplies by a power of ten instead.
_POW5 = tuple((0, MPZ(5) ** k, 0, bitcount(MPZ(5) ** k)) for k in range(401))


def parse_decimal(text: str) -> mp.mpf:
    """mp.mpf(text), bit for bit, at the working precision.

    A plain decimal man * 10^e is rounded as mpmath's `from_str` rounds it,
    with man and e split off as its `str_to_man_exp` splits them.  For
    -400 <= e < 0 mpmath divides man by the integer 10^-e; dividing by 5^-e
    and scaling by 2^e gives the same correctly rounded quotient without
    forming 10^-e and stripping its trailing zero bits.  A zero denominator
    in an a/b rational raises ValueError, like any other malformed string.
    So does a digit separator "_", which mpmath misreads after the point
    (mp.mpf("1.5_5") is 0.155), so no input number may carry one.
    """
    m = _DECIMAL.fullmatch(text)
    if m is None or not (m[1].lstrip("+-") or m[2]):
        if "_" in text:
            raise ValueError(f"digit separator in {text!r}")
        try:
            return mp.mpf(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}")
    digits, frac, e = m.groups()
    exp = int(e) if e else 0
    if frac is not None:
        frac = frac.rstrip("0")
        exp -= len(frac)
        digits += frac
    man = int(digits)               # "-.0" leaves "-", which mpmath rejects here too
    prec, rnd = mp.mp._prec_rounding
    if abs(exp) > 400:
        value = mpf_mul(from_int(man, prec + 10), mpf_pow_int(ften, exp, prec + 10), prec, rnd)
    elif exp >= 0:
        value = from_int(man * 10 ** exp, prec, rnd)
    else:
        value = mpf_shift(mpf_div(from_int(man), _POW5[-exp], prec, rnd), exp)
    return mp.make_mpf(value)


def to_mpf(x) -> mp.mpf:
    """Convert ints, Fractions, decimal strings, floats, or mpfs to mpf.

    Fractions convert by exact integer division at the working precision.
    """
    if isinstance(x, mp.mpf):
        return x
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    if isinstance(x, str):
        return parse_decimal(x)
    if isinstance(x, (int, float)):
        return mp.mpf(x)
    raise TypeError(f"cannot convert {type(x).__name__} to mpf")


class memo(dict):
    """fn, with each value kept for the rest of one call (no state across calls).

    `memo(parse_decimal)` converts each distinct string of one file once
    (a materialized ball holds a handful of distinct decimals); a key fn
    rejects raises every time.
    """

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value

    __call__ = dict.__getitem__


def all_finite(values) -> bool:
    """Every mpf is finite: on raw values, a zero mantissa with a nonzero
    exponent is inf, -inf or nan."""
    return all(man or not exp for _, man, exp, _ in (v._mpf_ for v in values))


def all_positive(values) -> bool:
    """Every mpf is positive and finite: sign 0 and a nonzero mantissa."""
    return not any(sign or not man for sign, man, _, _ in (v._mpf_ for v in values))


@dataclass(frozen=True)
class InequalityCheck:
    """Outcome of testing `value <= 0`, relative to a scale.

    margin: the signed value tested (nonpositive is good).
    scale:  magnitude of the dominant term entering the inequality.
    tol:    relative tolerance applied.
    holds:  margin <= tol * scale.
    """

    margin: mp.mpf
    scale: mp.mpf
    tol: mp.mpf
    holds: bool

    @property
    def borderline(self) -> bool:
        """True when |margin| sits within ten tolerances of zero (sign fragile)."""
        return abs(self.margin) <= 10 * self.tol * self.scale and self.margin != 0


def check_nonpositive(value, scale, tol=None) -> InequalityCheck:
    """Record `value <= 0` up to tol * scale."""
    value = to_mpf(value)
    scale = abs(to_mpf(scale))
    tol = rel_tol() if tol is None else to_mpf(tol)
    return InequalityCheck(margin=value, scale=scale, tol=tol, holds=value <= tol * scale)


def check_le(lhs, rhs, tol=None) -> InequalityCheck:
    """Record `lhs <= rhs` up to tol * max(|lhs|, |rhs|)."""
    lhs = to_mpf(lhs)
    rhs = to_mpf(rhs)
    return check_nonpositive(lhs - rhs, max(abs(lhs), abs(rhs)), tol)


def mpf_str(x, digits: int = 25) -> str:
    """Deterministic decimal rendering used in reports."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if mp.isinf(to_mpf(x)):
        return "inf" if to_mpf(x) > 0 else "-inf"
    return mp.nstr(to_mpf(x), digits, strip_zeros=True)
