"""The float64 screen in front of the margin pass of `verify`, the
power-log volume band, the walk diagnostics with the pointwise bound and
the minimum of Lambda over a tail window.

Each bounds log2 of every item's mpf quantity in float64, and mpf then
evaluates only the items whose bounds cannot settle a verdict or an
extreme.  Each caller keeps its input stage, how it reads the log2 of its
inputs; the reader with its float-pair arithmetic, the one error budget,
which hands out each item's bounds (lo, hi) or None, and the picker are
here.
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


def _fsum(fa, ea, fb, eb):
    """(f, e), f 2^e the float sum of fa 2^ea and fb 2^eb (fa, fb > 0), within
    half a unit: the term of lower exponent is scaled down, never up."""
    if ea >= eb:
        return fa + math.ldexp(fb, eb - ea), ea
    return math.ldexp(fa, ea - eb) + fb, eb


def _ratio(fa, ea, fb, eb) -> float:
    """The float fa 2^ea / (fb 2^eb), its binary exponent capped at 1000: the
    bounds' fa/fb exceeds 1/8, so a capped ratio still exceeds 2^996, which
    no rho <= 2^-8 allows."""
    return math.ldexp(fa / fb, min(ea - eb, 1000))


def _log2(f, e) -> float:
    """log2(f 2^e), f > 0 a float and e an int: frexp splits f exactly, so
    libm's log2 reads a number in [1/2, 1), within half a unit, and the sum
    rounds once, by half a unit of the result."""
    f, k = math.frexp(f)
    return math.log2(f) + (e + k)


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


def log2_bound(rows):
    """Per row (const, terms, widen), bounds (lo, hi) = y -+ (err + widen) on
    log2 Q, Q the mpf quantity y = const + sum of c l over the (c, l) terms
    stands for and err the budget's bound on |y - log2 Q|; None for a row
    None (an item the caller's input stage declines) or where err exceeds
    2^-10 (or is not finite), whatever widen is.

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
    widen is an error of the caller's input stage that does not scale
    with S (`verify`'s Laplacian under cancellation), 0.0 where none.
    """
    out = []
    for row in rows:
        if row is None:
            out.append(None)
            continue
        y, terms, widen = row
        size = 1.0 + abs(y)
        for c, l in terms:
            t = c * l
            y += t
            size += abs(c) + abs(t)
        err = SLACK * size
        if err <= UNDECIDED:
            err += widen
            out.append((y - err, y + err))
        else:
            out.append(None)
    return out


def _ell_bounds(p, half_q, rows):
    """The `log2_bound` of ell = log2(term/|lap|) per row of `solution_check`."""
    return log2_bound(row and (0.0, ((p, row[0]), (half_q, row[2]), (-1.0, row[1][1])), row[3])
                      for row in rows)


def solution_check(p, half_q, rows):
    """Per item, the verdict of the re-check lap + term <= 0, term = u^p (grad^2)^(q/2).

    A row is (lu, lap, lg2, widen), or None where the caller's input stage
    declines the item: lap is (lap < 0, ll = log2|lap|) as `log2_abs` reads
    it, lu = log2 u, lg2 = log2 grad^2 and widen an error of the caller's
    ll outside the budget.  A positive Laplacian fails (False).  Otherwise
    the `log2_bound` (lo, hi) of ell = log2(term/|lap|), with widen as its
    row's, decides: ell below -2^-30 proves lap + term < 0 with
    |lap + term|/|lap| > 6e-10, far beyond ten tolerances (a pass, given
    as bounds (lo, hi) on log2|lap + term| = ll + log2(1 - 2^ell)); ell
    above 2^-20 proves (lap + term)/term > 6e-7, far above tol (False);
    anything else, and a declined item, is None.
    """
    rows = list(rows)               # read twice: by the budget, then by the verdict
    ells = _ell_bounds(p, half_q, rows)
    verdicts = []
    for row, bound in zip(rows, ells):
        if row is None or bound is None or not row[1][0]:
            verdicts.append(None if row is None or row[1][0] else False)
            continue
        (_, ll), widen = row[1], row[3]
        lo, hi = bound
        if not hi < EXCUSE:
            verdicts.append(False if lo > FAILS else None)
            continue
        # log2(1 - 2^y) falls with y; the roundings of the mpf sum lap + term
        # and of libm's expm1 and log2 are a few units of each end
        g_lo = log2(-expm1(hi * LN2))
        g_hi = log2(-expm1(lo * LN2))
        verdicts.append((ll + g_lo - widen - SLACK * (1 + abs(ll) + abs(g_lo)),
                         ll + g_hi + widen + SLACK * (1 + abs(ll) + abs(g_hi))))
    return verdicts


def failure_bounds(p, half_q, rows):
    """Per row of an item `solution_check` proved to fail, bounds (lo, hi) on
    log2 of its margin lap + term > 0; None for a row None or where the budget
    declines it.

    A row is `solution_check`'s.  With ell = log2(term/|lap|) and its
    `log2_bound` (a, b), widen included, the margin is |lap| (1 + 2^ell) for
    lap > 0 and |lap| (2^ell - 1) for lap < 0, where ell > 2^-20; log2 of
    each is ll + f(ell), f increasing, so it lies in [ll - widen + f(a),
    ll + widen + f(b)].  The mpf sum's rounding and libm's log2, log1p and
    expm1 move f by a few units, covered as in `solution_check`.
    """
    rows = list(rows)               # read twice: by the budget, then here
    out = []
    for row, bound in zip(rows, _ell_bounds(p, half_q, rows)):
        if bound is None:
            out.append(None)
            continue
        (negative, ll), widen = row[1], row[3]
        ends = []
        for y in bound:             # y + log2(1 -+ 2^-y) = log2(2^y -+ 1), for y > 0
            if negative:
                f = y + log2(-expm1(-y * LN2))
            else:
                f = y + math.log1p(2.0 ** -y) / LN2 if y > 0 else math.log1p(2.0 ** y) / LN2
            ends.append(f)
        out.append((ll - widen + ends[0] - SLACK * (1 + abs(ll) + abs(ends[0])),
                    ll + widen + ends[1] + SLACK * (1 + abs(ll) + abs(ends[1]))))
    return out


def _falling(y):
    """(1 - 2^y) / max(1, 2^y), decreasing in y."""
    return -expm1(y * LN2) if y <= 0 else expm1(-y * LN2)


def _valley(x):
    """max(-r, r - 1) / max(1, r) at r = 2^x: falls to -1/2 at x = -1, then rises."""
    if x < -1:
        return -(2.0 ** x)
    return expm1(x * LN2) if x < 0 else -expm1(-x * LN2)


def margin_bounds(shape, const, rows):
    """Per item, bounds (lo, hi) on a margin given as a function of y, from
    the `log2_bound` (a, b) of y, the items' common constant const and
    their terms rows; None where that is None or the bounds are not finite.

    shape "falling": (1 - 2^y)/max(1, 2^y); "valley": `_valley`, the
    sandwich margin at y = log2(|lap|/drop); "rising": 2^y - 1.  The final
    mpf roundings of the margin (a subtraction and a division, or one
    subtraction) and libm's expm1 move it by a few units relative to
    itself; the bounds are widened by 2^-44 relative, and by 2^-1000, to
    cover them.
    """
    out = []
    for bound in log2_bound(None if terms is None else (const, terms, 0.0) for terms in rows):
        if bound is None or shape == "rising" and bound[1] > 1000:
            out.append(None)        # "rising": 2^b beyond the float range
            continue
        a, b = bound
        if shape == "falling":
            lo, hi = _falling(b), _falling(a)
        elif shape == "rising":
            lo, hi = expm1(a * LN2), expm1(b * LN2)
        else:
            ends = _valley(a), _valley(b)
            lo, hi = (-0.5 if a <= -1 <= b else min(ends)), max(ends)
        lo -= abs(lo) * SLACK + _TINY
        hi += abs(hi) * SLACK + _TINY
        out.append((lo, hi) if math.isfinite(lo) and math.isfinite(hi) else None)
    return out


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
