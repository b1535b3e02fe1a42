"""Precision management and tolerance-aware inequality checks.

All analytic evaluation in the package runs on mpmath floats under an
explicit precision context.  Inequality verdicts are never plain boolean
comparisons: each records a signed margin together with the magnitude of
the dominant term, and "holds" means the margin does not exceed a small
relative tolerance of that magnitude.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

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


def to_mpf(x) -> mp.mpf:
    """Convert ints, Fractions, decimal strings, floats, or mpfs to mpf.

    Fractions convert by exact integer division at the working precision.
    """
    if isinstance(x, mp.mpf):
        return x
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    if isinstance(x, (int, float, str)):
        return mp.mpf(x)
    raise TypeError(f"cannot convert {type(x).__name__} to mpf")


def mpf_memo():
    """mp.mpf on strings, converting each distinct string once.

    For one parse at one precision: a file of repeated decimals (a
    materialized ball holds a handful of distinct ones) pays for each
    distinct string once.  A string mp.mpf rejects raises every time.
    """
    cache: dict[str, mp.mpf] = {}

    def convert(text: str) -> mp.mpf:
        value = cache.get(text)
        if value is None:
            value = cache[text] = mp.mpf(text)
        return value

    return convert


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
