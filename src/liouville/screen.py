"""The float64 screen in front of the margin pass of `verify`, the
power-log volume band and the walk diagnostics with the pointwise bound.

Each bounds log2 of every item's mpf quantity in float64, and mpf then
evaluates only the items whose bounds cannot settle a verdict or an
extreme.  Each caller keeps its input stage, how it reads the log2 of its
inputs; the reader, the one error budget and the picker are here.
"""

from __future__ import annotations

import math
from math import expm1, ldexp, log2

import mpmath as mp

SLACK = 2.0 ** -44          # allowance per unit of magnitude of a log2 bound
UNDECIDED = 2.0 ** -10      # a log2 bound wider than this decides nothing
EXCUSE = -(2.0 ** -30)      # log2(term/|lap|) provably below this: a pass, not borderline
FAILS = 2.0 ** -20          # log2(term/|lap|) provably above this: a failure far above tol
_TINY = 2.0 ** -1000        # absolute widening of a margin: covers float64's subnormal range
_EXP_CAP = 1 << 40          # a binary exponent a float carries exactly, far from overflow
LN2 = math.log(2)


def top53(man: int, exp: int):
    """(f, E) with man 2^exp ~ f 2^E, 1/2 <= f < 1, f the top 53 bits of man > 0.

    The rescale is exact and the truncation's relative error below 2^-52;
    E stays a Python int, so no value leaves the float range.
    """
    bc = man.bit_length()
    return (ldexp(man >> (bc - 53), -53) if bc > 53 else ldexp(man, -bc)), exp + bc


def log2_abs(x: mp.mpf):
    """(x < 0, log2|x|) from the top 53 bits of x, within 2 units plus half a
    unit of the result; None for zero, a non-finite x or a binary exponent
    beyond 2^40, which no bound could decide."""
    sign, man, exp, _ = x._mpf_
    if not man:
        return None
    f, e = top53(man, exp)
    return (sign, log2(f) + e) if -_EXP_CAP < e < _EXP_CAP else None


def exponent_floats(*exponents):
    """The mpf exponents of a screened quantity as floats; None where the
    screen must decline every item: below 53 bits, or with an exponent
    that is not zero and whose float is 0, infinite or beyond 1e+-300."""
    if mp.mp.prec < 53:
        return None
    floats = [float(x) for x in exponents]
    if any(x and not 1e-300 < abs(f) < 1e300 for x, f in zip(exponents, floats)):
        return None
    return floats


def log2_bound(const, terms):
    """(y, err) with y = const + sum of c l over the (c, l) terms, and err a
    bound on |y - log2 Q|, where Q is the mpf quantity y stands for; None
    where err exceeds 2^-10 (or is not finite).

    Q = K x_1^C_1 ... x_m^C_m (m <= 4) is formed in mpf at the working
    precision prec >= 53 from its inputs x_i: a power per factor (none
    for C = +-1), and at most eight further roundings (products, a
    quotient, a square, a square root, the constant K's own).  const is
    log2 K, within 2 + |const|/2 units; each l is log2 x_i, read within
    24 + |l|/2 units of it (by `log2_abs`, or by a caller's own float64
    input stage, which derives its own input error); each c is the float
    of C_i, within |C_i|/2 units.  A unit is u = 2^-52, the most an ulp
    can be relative to the value at prec >= 53.  With
    S = 1 + |const| + sum (|c| + |c l|), in units:
    - float64: the inputs, |c| (24 + |l|/2) each; c against C and the
      product c l, half a unit of |c l| each; the constant; the float
      sums, half a unit of S each, at most four: under
      24 sum |c| + 1.5 sum |c l| + 2.5 S + 2;
    - mpf: each power x^C within (4 + |C ln x|) ulps (an integer power or
      a square root within a few; exp(C ln x) with ln x at prec + 10
      bits), so 6 + 1.1 |c l| in log2, and the eight roundings, 1.45/2
      each: under 24 + 1.1 sum |c l| + 6.
    All of it is below 64 S units; err = 2^-44 S is four times that.
    A caller whose input stage carries an error of its own that does not
    scale with S (`verify`'s Laplacian under cancellation) adds it to err.
    """
    y, size = const, 1.0 + abs(const)
    for c, l in terms:
        t = c * l
        y += t
        size += abs(c) + abs(t)
    err = SLACK * size
    return (y, err) if err <= UNDECIDED else None


def solution_check(p, half_q, lu, lap, lg2, widen=0.0):
    """(verdict, bounds) of the re-check lap + term <= 0, term = u^p (grad^2)^(q/2).

    lap is (lap < 0, ll = log2|lap|) as `log2_abs` reads it, lu = log2 u
    and lg2 = log2 grad^2.  A positive Laplacian fails (False).  Otherwise
    the `log2_bound` of ell = log2(term/|lap|), its err widened by `widen`
    (an error of the caller's ll outside the budget), decides: ell below
    -2^-30 proves lap + term < 0 with |lap + term|/|lap| > 6e-10, far
    beyond ten tolerances (True, with bounds on log2|lap + term| =
    ll + log2(1 - 2^ell)); ell above 2^-20 proves (lap + term)/term > 6e-7,
    far above tol (False); anything else is None.  bounds is None but
    for True.
    """
    negative, ll = lap
    if not negative:
        return False, None
    bound = log2_bound(0.0, ((p, lu), (half_q, lg2), (-1.0, ll)))
    if bound is None:
        return None, None
    ell, err = bound[0], bound[1] + widen
    if not ell + err < EXCUSE:
        return (False if ell - err > FAILS else None), None
    # log2(1 - 2^y) falls with y; the roundings of the mpf sum lap + term
    # and of libm's expm1 and log2 are a few units of each end
    g_lo = log2(-expm1((ell + err) * LN2))
    g_hi = log2(-expm1((ell - err) * LN2))
    return True, (ll + g_lo - widen - SLACK * (1 + abs(ll) + abs(g_lo)),
                  ll + g_hi + widen + SLACK * (1 + abs(ll) + abs(g_hi)))


def _falling(y):
    """(1 - 2^y) / max(1, 2^y), decreasing in y."""
    return -expm1(y * LN2) if y <= 0 else expm1(-y * LN2)


def _valley(x):
    """max(-r, r - 1) / max(1, r) at r = 2^x: falls to -1/2 at x = -1, then rises."""
    if x < -1:
        return -(2.0 ** x)
    return expm1(x * LN2) if x < 0 else -expm1(-x * LN2)


def margin_bounds(shape, const, terms):
    """Bounds (lo, hi) on a margin given as a function of y, from the
    `log2_bound(const, terms)` (y, err) of y; None where that is None or
    the bounds are not finite.

    shape "falling": (1 - 2^y)/max(1, 2^y); "valley": `_valley`, the
    sandwich margin at y = log2(|lap|/drop); "rising": 2^y - 1.  The final
    mpf roundings of the margin (a subtraction and a division, or one
    subtraction) and libm's expm1 move it by a few units relative to
    itself; the bounds are widened by 2^-44 relative, and by 2^-1000, to
    cover them.
    """
    bound = log2_bound(const, terms)
    if bound is None:
        return None
    y, err = bound
    a, b = y - err, y + err
    if shape == "falling":
        lo, hi = _falling(b), _falling(a)
    elif shape == "rising":
        if b > 1000:
            return None             # 2^b beyond the float range
        lo, hi = expm1(a * LN2), expm1(b * LN2)
    else:
        ends = _valley(a), _valley(b)
        lo, hi = (-0.5 if a <= -1 <= b else min(ends)), max(ends)
    lo -= abs(lo) * SLACK + _TINY
    hi += abs(hi) * SLACK + _TINY
    return (lo, hi) if math.isfinite(lo) and math.isfinite(hi) else None


def extremes(bounds, low=False, high=False) -> list[int]:
    """Positions, in order, of the items whose bounds could hold the
    smallest value (low) or the largest (high).

    bounds[i] is (lo, hi) with lo <= value_i <= hi, or None where the
    screen did not decide.  An item is left out only when its bounds prove
    its value strictly below some other item's (for high) and strictly
    above some other item's (for low), so the extremes of the items
    returned, and the first position at which each occurs, are those of
    all the items.
    """
    # some value is >= top and some <= bottom; a side not asked for is +-inf
    top = max([b[0] for b in bounds if b], default=-math.inf) if high else math.inf
    bottom = min([b[1] for b in bounds if b], default=math.inf) if low else -math.inf
    return [i for i, b in enumerate(bounds) if not b or b[1] >= top or b[0] <= bottom]
