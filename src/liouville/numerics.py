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
from functools import cache
from math import factorial, isqrt

import mpmath as mp
from mpmath.libmp import (MPZ, bitcount, fone, ften, from_int, ftwo, mpf_add, mpf_div, mpf_exp,
                          mpf_log, mpf_mul, mpf_pow_int, normalize, round_down, round_nearest,
                          round_up)
from mpmath.libmp.libelefun import LOG_TAYLOR_PREC, exp_basecase, ln2_fixed, log_taylor_cached

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


# A plain ASCII decimal with a digit: sign and integer digits, fraction
# digits, exponent, the groups `decimal_value` reads.  The radial reader's
# line pattern embeds it.  Every other spelling mp.mpf accepts (inf, nan,
# a/b, surrounding space, non-ASCII digits, a trailing l) goes to mp.mpf
# itself, but for digit separators, which `parse_decimal` rejects.
NUMBER = r"([+-]?(?=\.?[0-9])[0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?"
DECIMAL = re.compile(NUMBER)
# 5^k and its bit count, for the products 10^k = 5^k 2^k and quotients 10^-k
# = 5^-k 2^-k of `decimal_value`; beyond 400 digits mpmath multiplies by a
# power of ten instead.
_POW5 = tuple((MPZ(5) ** k, bitcount(MPZ(5) ** k)) for k in range(401))


def _pow10(n: int, wp: int):
    """mpf_pow_int(ften, n, wp)'s raw value, bit for bit, for |n| > 400, or
    None where the enclosure below cannot decide it.

    With k = |n| and b = bitcount(k), mpmath rounds its power P ~ 5^k to Wr
    bits, then scales by 2^k: RD with Wr = wp for n > 0; RU with Wr = wp +
    5 for n < 0, which it then divides 1 by at wp bits, RD.  Its binary
    powering cuts every product to W = Wr + 4b + 4 bits, all in the one
    direction, each cut by less than 2^(1-W) relatively.  Squaring doubles
    an error, so the j-th square 5^(2^j) is within (2^j - 1) 2^(1-W), and
    the at most b products give P within sum_j 2^j 2^(1-W) < 2^(b+1-W) of
    5^k; the second-order terms of upward cuts at most double that.  So P
    is within 2^(b+3-W) of 5^k.

    Here 5^k = 5^r (5^400)^q is formed from `_POW5` in an integer m of t =
    W + 8 bits, by the same binary powering on 5^400: 5^r, 5^400 and every
    product and square are cut toward zero to t bits, each by less than
    u = 2^(1-t), so the j-th square is within (2^(j+1) - 1) u and m within
    (4q + 1) u of 5^k 2^-e, which lies in [m, m + 16q].  P 2^-e lies
    within 2^(b+3-W) 2^(t+1) = 2^(b+12) of it: inside [lo, hi] =
    m -+ (16q + 2^(b+12)).  Where hi has t bits like m, and the top Wr bits
    of lo and hi, cut in mpmath's direction, agree (Ziv's rounding test, as
    in `geometric_run`), lo has t bits too and P rounds to those bits.  The
    test fails where 5^k fits in Wr bits, which mpmath may hold exactly.
    """
    k = abs(n)
    wr = wp if n > 0 else wp + 5
    b = k.bit_length()
    t = wr + 4 * b + 12
    q, r = divmod(k, 400)
    rad = 16 * q + (1 << (b + 12))
    (man, bc), (five, five_bc) = _POW5[r], _POW5[400]
    c, cut = max(five_bc - t, 0), bc - t
    five, m, e = five >> c, (man >> cut if cut >= 0 else man << -cut), k + cut
    while q:
        if q & 1:
            m *= five
            cut = m.bit_length() - t
            m, e = m >> cut, e + cut + c
        q >>= 1
        if q:
            five *= five
            cut = max(five.bit_length() - t, 0)
            five, c = five >> cut, 2 * c + cut
    lo, hi, s = m - rad, m + rad, t - wr
    if n > 0:
        top = lo >> s
        return normalize(0, top, e + s, wr, wr, round_down) if top == hi >> s else None
    top = -(-lo >> s)
    if top != -(-hi >> s) or hi >> t:
        return None
    return mpf_div(fone, normalize(0, top, e + s, top.bit_length(), wr, round_up), wp, round_down)


def decimal_value(digits: str, frac: str | None, e: str | None, prec: int, rnd: str) -> mp.mpf:
    """mp.mpf of the decimal whose `NUMBER` groups are digits, frac and e,
    bit for bit, at prec bits in mode rnd (the context's `_prec_rounding`,
    which a reader reads once per file).

    A plain decimal man * 10^e is rounded as mpmath's `from_str` rounds it,
    with man and e split off as its `str_to_man_exp` splits them.  For
    0 <= e <= 400 mpmath rounds the integer man 10^e; here man 5^e, from
    `_POW5`, is rounded by `normalize` with 2^e in the exponent, the same
    value.  For -400 <= e < 0 mpmath divides man by the integer 10^-e, and
    its `mpf_div` rounds the quotient correctly.  Here one integer division
    of |man| 2^s by 5^-e, with s chosen so the quotient has at least prec +
    5 bits and a nonzero remainder kept as a sticky last bit, is rounded
    once by `normalize`, and 2^e goes into the exponent: the same correctly
    rounded value (Clinger's method).  For |e| > 400 mpmath multiplies by
    its own power of ten at prec + 10 bits, which is not correctly rounded;
    `_pow10` gives its bits where it can decide them, and the call itself
    gives them elsewhere.
    """
    exp = int(e) if e else 0
    if frac:
        frac = frac.rstrip("0")
        exp -= len(frac)
        digits += frac
    man = int(digits)               # "-.0" leaves "-", which mpmath rejects here too
    if not -400 <= exp <= 400:
        ten = _pow10(exp, prec + 10) or mpf_pow_int(ften, exp, prec + 10)
        return mp.make_mpf(mpf_mul(from_int(man, prec + 10), ten, prec, rnd))
    sign, man = (1, -man) if man < 0 else (0, man)
    if exp >= 0:
        man *= _POW5[exp][0]
        return mp.make_mpf(normalize(sign, man, exp, man.bit_length(), prec, rnd))
    den, den_bc = _POW5[-exp]
    shift = prec + den_bc - man.bit_length()
    shift = shift + 5 if shift > 0 else 5
    quot, rem = divmod(man << shift, den)
    if rem:
        quot, shift = quot << 1 | 1, shift + 1
    return mp.make_mpf(normalize(sign, quot, exp - shift, quot.bit_length(), prec, rnd))


def parse_decimal(text: str) -> mp.mpf:
    """mp.mpf(text), bit for bit, at the working precision: a plain
    decimal through `DECIMAL` and `decimal_value`, any other spelling
    through mp.mpf.  A zero denominator in an a/b rational raises
    ValueError, like any other malformed string.  So does a digit separator
    "_", which mpmath misreads after the point (mp.mpf("1.5_5") is 0.155),
    so no input number may carry one.
    """
    m = DECIMAL.fullmatch(text)
    if m is not None:
        return decimal_value(*m.groups(), *mp.mp._prec_rounding)
    if "_" in text:
        raise ValueError(f"digit separator in {text!r}")
    try:
        return mp.mpf(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}")


def parse_index(text: str) -> int:
    """int(text) for an index field, but a digit separator "_" is a
    ValueError, as in a number: "0_3" is not the index 3."""
    if "_" in text:
        raise ValueError(f"digit separator in {text!r}")
    return int(text)


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


def content_lines(text: str):
    """The stripped lines of text that are neither blank nor `#` comments,
    lazily: the one line rule of every input file."""
    return (ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#"))


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

    def run(self, keys: range) -> list:
        """[self(k) for k in keys], the keys not yet kept made by one fn.run
        (an increasing list)."""
        if gap := [k for k in keys if k not in self]:
            self.update(zip(gap, self.fn.run(gap)))
        return [self[k] for k in keys]


# A geometric run carries prec + _GUARD_BITS bits; its radius counts units
# of its last bit, 2^-64 of a prec-bit ulp.  Its start and ratio are rounded
# at prec + _SEED_BITS bits.
_GUARD_BITS = 64
_SEED_BITS = _GUARD_BITS + 20
_HALF_ULP = 1 << (_GUARD_BITS - 1)
# mpf_exp below this many bits, and the radius that covers it (see geometric_run).
_EXP_RUN_MAX_PREC = 600
_EXP_RADIUS = 1 << 56


def geometric_run(x0: tuple, ratio: tuple, count: int, prec: int, radius: int, exact):
    """Yield, for i < count, the prec-bit round-to-nearest of x0 ratio^i as a
    raw mpf, or exact(i), the raw value of the call the run stands in for.

    The run carries an integer m of exactly wp = prec + 64 bits, x_i =
    m 2^e: m_0 is x0's mantissa cut to wp bits, and each step multiplies m
    by ratio's mantissa and cuts the product back to wp bits (toward zero).
    x0 and ratio must be positive and within 2^-wp of the exact terms
    relatively (`exp_run` rounds them at prec + 84 bits).  The first cut
    and every step's cut lose less than 2^(1-wp) each, so x_i is within
    (3 + 3i) 2^-wp relatively, that is within 3i + 3 < 4 count units of m's
    last bit, of the exact term.

    `radius` bounds, in the same units, how far the unrounded result of the
    call exact(i) may lie from the exact term.  A value is taken from the
    run only when its 64 guard bits lie more than radius + 4 count units
    from every rounding boundary: from the midpoints between prec-bit
    neighbours and from the prec-bit values themselves (Ziv's rounding
    test).  The exact term, the run's value and the call's unrounded result
    then lie strictly between the same two boundaries and round to the
    same value, the call's own result.  Round-to-nearest cannot change at a
    prec-bit value, but excluding them costs only twice the fallbacks: an
    exact term, such as exp(0) = 1, comes from the call with its special
    cases, and a term next to a power of 2, where the spacing halves, lies
    near a prec-bit value and needs no argument.  Every other value, a
    share of about 4 (radius + 4 count) / 2^64, is exact(i).

    `exp_run`'s radius covers mpf_exp(x, p) for p <= 600.  It works at wp'
    = p + 14 bits: x reduced by a multiple of ln 2 (within 2 ulps of wp'), a
    Taylor sum at wp' + r bits, r = floor(sqrt(wp')), and r squarings, which
    double its relative error while its extra r bits absorb them.  Counting
    each truncation as one unit gives fewer than 1.5 sqrt(wp') + 10 ulps of
    wp' (48 at 600 bits); the largest error seen on 2,300 arguments lam n at
    53 to 512 bits was 10.3.  The radius allows 64 ulps of p + 14 bits: 2^56
    units.  Above 600 bits mpf_exp takes other paths (integer x goes through
    a power of a rounded e), and the run is not used there.
    """
    wp = prec + _GUARD_BITS
    lo = radius + 4 * count
    hi = _HALF_ULP - lo
    _, man, exp, bc = x0
    cut = bc - wp
    m, e = (man >> cut if cut >= 0 else man << -cut), exp + cut
    _, r_man, r_exp, _ = ratio
    for i in range(count):
        if lo < m & (_HALF_ULP - 1) < hi:   # the guard bits, away from every boundary
            yield normalize(0, m, e, wp, prec, round_nearest)
        else:
            yield exact(i)
        m *= r_man
        cut = m.bit_length() - wp
        m >>= cut
        e += r_exp + cut


def exp_run(lam: tuple, ns: range, prec: int):
    """mpf_exp(lam n, prec), with lam n formed exactly, for n in ns, bit for
    bit, as raw values: one `geometric_run` with ratio exp(lam step), whose
    undecided values are that call.  Above `_EXP_RUN_MAX_PREC` bits, which
    its radius does not cover, every value is the call."""
    def exp(n, bits=prec):
        return mpf_exp(mpf_mul(lam, from_int(n)), bits, round_nearest)

    if not ns or prec > _EXP_RUN_MAX_PREC:
        return map(exp, ns)
    wp = prec + _SEED_BITS
    return geometric_run(exp(ns[0], wp), exp(ns.step, wp), len(ns), prec, _EXP_RADIUS,
                         lambda i: exp(ns[i]))


# A carried log takes at most _MAX_TERMS series terms per step, exp(y c)
# three times as many; where more are needed, a seed costs less.  Both keep
# 32 guard bits, where mpf_exp's radius is 2^24 units.
_MAX_TERMS = 8
_RUN_GUARD_BITS = 32


@cache
def _series(W: int):
    """floor(2^W / (2j + 1)) for j <= _MAX_TERMS (atanh(z)/z in z^2) and
    floor(2^W / k!) for k <= 3 _MAX_TERMS (exp), each with its reversed
    prefixes (Horner's order)."""
    odd = tuple((1 << W) // (2 * j + 1) for j in range(_MAX_TERMS + 1))
    fac = tuple((1 << W) // factorial(k) for k in range(3 * _MAX_TERMS + 1))
    return (odd, tuple(odd[j - 1::-1] if j else () for j in range(len(odd))),
            fac, tuple(fac[k - 1::-1] if k else () for k in range(len(fac))))


def _ln_fixed(x: tuple, wp: int) -> int:
    """mpf_log's integer for x > 2 at wp <= LOG_TAYLOR_PREC bits (`log_run`)."""
    _, man, exp, bc = x
    if man == 1:
        return exp * ln2_fixed(wp)
    return log_taylor_cached(man << (wp - bc), wp) + (exp + bc) * ln2_fixed(wp)


def power_log(a: tuple, b: tuple, n: int, prec: int) -> tuple:
    """exp(A ln n + B ln ln n) for finite raw a, b (A, B) and an int n >= 2,
    as three calls round it (ln n and ln ln n, t = A ln n + B ln ln n at prec
    + 20 bits, exp(t) at prec), bit for bit: from one fixed-point pass where
    Ziv's test decides, else from the calls.

    At W = prec + 64 bits, with nb n's bit count and S = (ceil|A| + 2
    ceil|B|) nb: L1 = `_ln_fixed(n, W)` lies within E1 = 16 + W/6 + 2 nb
    units of 2^W ln n (`log_run`), L2 (the same of L1 2^-W cut to W bits)
    within E1/2 + E2 + 2 of 2^W ln ln n (ln n > 2 at n >= 8); T = A L1 + B
    L2 adds a unit per product, T = k ln2_fixed(W) + r adds |k| <= 1.45 S +
    1, exp_basecase(r, W) (a Taylor sum and floor(sqrt W) squarings below
    600 bits) 1.5 sqrt(W) + 10, the cut to W bits 1: under 2^46 (S + 1)
    units of the last bit.  The calls' value before its last rounding lies
    within mpf_exp's 2^56 units (`geometric_run`) plus t's five roundings at
    prec + 20 bits, 3.1 2^-(prec+20) (|A ln n| + |B ln ln n| + |B|) < 2^46 S
    units.  Where the guard bits lie farther than R = 2^56 + 2^47 (S + 1)
    from every multiple of half a prec-bit ulp, all three round alike.  The
    calls run at n <= 7 (mpf_log's near-1 branch at ln n < 2), for W > 600
    (prec > 600 among them; W stays within LOG_TAYLOR_PREC) and for |A| or
    |B| past 2^16.
    """
    W, nb = prec + _GUARD_BITS, n.bit_length()
    sa, ma, ea, ba = a
    sb, mb, eb, bb = b
    if n > 7 and nb <= W <= _EXP_RUN_MAX_PREC and max(ea + ba, eb + bb) <= 16:
        radius = _EXP_RADIUS + (((-(-ma >> -ea) if ea < 0 else ma << ea)
                                 + 2 * (-(-mb >> -eb) if eb < 0 else mb << eb)) * nb + 1 << 47)
        L1 = _ln_fixed(from_int(n), W)
        T = (-ma if sa else ma) * L1
        T = T << ea if ea >= 0 else T >> -ea
        if mb:
            s = L1.bit_length() - W
            L2 = (-mb if sb else mb) * _ln_fixed((0, L1 >> s, s - W, W), W)
            T += L2 << eb if eb >= 0 else L2 >> -eb
        k, r = divmod(T, ln2_fixed(W))
        m = exp_basecase(r, W)
        cut = m.bit_length() - W
        m >>= cut
        if radius < m & (_HALF_ULP - 1) < _HALF_ULP - radius:
            return normalize(0, m, k - W + cut, W, prec, round_nearest)
    wp = prec + 20
    ln_n = mpf_log(from_int(n), wp, round_nearest)
    t = mpf_mul(a, ln_n, wp, round_nearest)
    if mb:
        t = mpf_add(t, mpf_mul(b, mpf_log(ln_n, wp, round_nearest), wp, round_nearest),
                    wp, round_nearest)
    return mpf_exp(t, prec, round_nearest)


def log_run(xs: list, *precs: int) -> list:
    """[[mpf_log(x, p) for x in xs] for p in precs] (round to nearest), bit
    for bit, for increasing raw xs: one integer L, 2^W ln x with W =
    max(precs) + 32, carried from x to x of the run.

    For x > 2 (mag = exp + bc >= 2), mpf_log(x, p) rounds `_ln_fixed(x, wp)`,
    wp = p + 20 <= LOG_TAYLOR_PREC, within E = 16 + wp/6 + 2 mag units of
    2^wp ln x: the cached log of x 2^-mag's top 9 bits, cut from 20 or more
    bits more (1.13 units); 2 atanh(v), v < 2^-9 within 1.5 units, in J <=
    wp/36 + 1 terms of v^4 < 2^-36, each within 1 unit and each of its two
    floor divisions 1 more (7.2 + 5.4 J); mag ln2_fixed(wp) (1.01 mag).  A
    seed is `_ln_fixed(x, W + 16)` cut to W: 3 units of 2^-W.  A step to x'
    adds 2 atanh(z), z = (x' - x)/(x' + x) = a/b exactly, |z| < 2^-q, q >=
    4: Z = floor(a 2^W / b), Z2 = floor(Z^2 2^-W) (1 and 1.4 units),
    Horner's sum S of floor(2^W / (2j + 1)) Z2^j, 2j + 3 >= (W + 1)/q (3.6
    units with the tail), and 2 floor(S Z 2^-W): 6 units.  A step of more
    than `_MAX_TERMS` terms seeds instead.  So mpmath's integer and L lie
    within E 2^(W-wp) + err units of L's last bit of ln x, err the run's
    sum, and where L's bits below the p-th lie farther than that from every
    rounding boundary (Ziv's test, as in `geometric_run`) both round alike.
    Elsewhere, at x <= 2 (mpf_log's near-1 branch) and if W + 16 >
    LOG_TAYLOR_PREC, a value is the call.
    """
    W = max(precs) + _RUN_GUARD_BITS
    if W + 16 > LOG_TAYLOR_PREC:
        return [[mpf_log(x, p, round_nearest) for x in xs] for p in precs]
    odd, rev = _series(W)[:2]
    X0, E, L, err = None, 0, None, 0    # the last x carried as X0 2^E, its L
    Ls = []
    for x in xs:
        _, man, exp, bc = x
        if exp + bc < 3 and (exp + bc < 2 or x == ftwo):
            X0 = L = None           # the call
        elif X0 is None:
            X0, E, L, err = man, exp, _ln_fixed(x, W + 16) >> 16, err + 3
        else:
            if exp < E:
                X0, E = X0 << (E - exp), exp
            X = man << (exp - E)
            a, b = X - X0, X + X0
            q = b.bit_length() - abs(a).bit_length() - 1    # |z| < 2^-q
            j = max(0, (-(-(W + 1) // q) - 2) // 2) if q >= 4 else W
            if j > _MAX_TERMS:
                L = _ln_fixed(x, W + 16) >> 16
            else:
                Z = (a << W) // b
                Z2 = Z * Z >> W
                S = odd[j]
                for c in rev[j]:
                    S = (S * Z2 >> W) + c
                L += 2 * (S * Z >> W)
            X0, err = X, err + 6
        Ls.append(L)
    mag, out = max((x[2] + x[3] for x in xs[:1] + xs[-1:]), default=0), []
    for p in precs:
        r = ((16 + (p + 20) // 6 + 2 * mag) << (W - p - 20)) + err
        out.append([normalize(0, L, -W, n, p, round_nearest) if L is not None and
                    r < L & ((h := 1 << ((n := L.bit_length()) - p - 1)) - 1) < h - r
                    else mpf_log(x, p, round_nearest) for x, L in zip(xs, Ls)])
    return out


def exp_steps(y: tuple, cs: list, prec: int) -> list:
    """[mpf_exp(y c, prec) for c in cs] (round to nearest), y c exact, bit for
    bit, for raw cs: an integer m of wp = prec + 32 bits carries exp(y c)
    from c to c of the run, with `geometric_run`'s radius (at 32 guard
    bits) and Ziv test.  A seed is exp(y c) at wp + 20 bits cut to wp: 3
    units.  A step multiplies m by exp(d), d = y (c' - c) exactly, |d| <
    2^-q, q >= 4, and cuts it to wp bits, 3 more units: Horner's sum of
    floor(2^W / k!) D^k, k <= W/q, D = floor(d 2^W), W = wp + 4, each level
    within 2 units and damped by |d|, is with D's cut and the tail within
    4.5 units of exp(d) >= 0.93.  A step of more than 3 `_MAX_TERMS` terms
    seeds instead; above `_EXP_RUN_MAX_PREC` bits every value is the call.
    """
    if prec > _EXP_RUN_MAX_PREC:
        return [mpf_exp(mpf_mul(y, c), prec, round_nearest) for c in cs]
    wp = prec + _RUN_GUARD_BITS
    W, most = wp + 4, 3 * _MAX_TERMS
    fac, rev = _series(W)[2:]
    ym = -y[1] if y[0] else y[1]
    C0, E, m, e, err = None, 0, None, 0, 0  # the last c carried as C0 2^E, m 2^e
    ms = []
    for c in cs:
        sign, man, exp, _ = c
        man = -man if sign else man
        k = most + 1
        if C0 is not None:
            if exp < E:
                C0, E = C0 << (E - exp), exp
            C = man << (exp - E)
            D, s = ym * (C - C0), y[2] + E + W
            D = D << s if s >= 0 else D >> -s
            q = W - abs(D).bit_length()     # |d| < 2^-q
            k = W // q if q >= 4 else W
        if k > most:
            C, E = man, exp
            _, m, e, bc = mpf_exp(mpf_mul(y, c), wp + 20, round_nearest)
            cut = bc - wp
            m, e = (m >> cut if cut >= 0 else m << -cut), e + cut
        else:
            t = fac[k]
            for f in rev[k]:
                t = (t * D >> W) + f
            m *= t
            cut = m.bit_length() - wp
            m, e = m >> cut, e + cut - W
        C0, err = C, err + 3
        ms.append((m, e))
    half = 1 << (_RUN_GUARD_BITS - 1)
    lo = (_EXP_RADIUS >> (_GUARD_BITS - _RUN_GUARD_BITS)) + err
    return [normalize(0, m, e, wp, prec, round_nearest) if lo < m & (half - 1) < half - lo
            else mpf_exp(mpf_mul(y, c), prec, round_nearest) for c, (m, e) in zip(cs, ms)]


def power_run(xs: list, ys: tuple, prec: int) -> list:
    """[[mpf_pow(x, y, prec) for x in xs] for y in ys] (round to nearest) for
    positive raw xs of at most prec bits, bit for bit, on mpf_pow's branches:
    mpf_pow_int for an integer y (1: x), mpf_sqrt's root for y = k/2, and
    None for any other y (exp(y mpf_log(x, prec + 10)): `exp_steps`).  mpf_sqrt
    is correctly rounded, so one math.isqrt per x, with a sticky bit, at the
    largest precision ys need, gives every precision's bits."""
    rnd = round_nearest
    halves = [y[0] or y[1] != 1 for y in ys if y[2] == -1]     # True: at prec + 10
    top = prec + 10 if any(halves) else prec
    roots = []
    for _, man, exp, bc in xs if halves else ():
        if exp & 1:
            man, exp, bc = man << 1, exp - 1, bc + 1
        shift = max(4, 2 * top - bc + 4)
        shift += shift & 1
        n = man << shift
        root = isqrt(n)
        if root * root != n:
            root, shift = 2 * root + 1, shift + 2
        roots.append((root, (exp - shift) // 2, root.bit_length()))
    out = []
    for sign, man, exp, _ in ys:
        n = -man if sign else man
        if exp >= 0:
            out.append(list(xs) if n == 1 and not exp else
                       [mpf_pow_int(x, n << exp, prec, rnd) for x in xs])
        elif exp < -1:
            out.append(None)
        elif n == 1:
            out.append([normalize(0, r, e, bc, prec, rnd) for r, e, bc in roots])
        else:
            out.append([mpf_div(fone, normalize(0, r, e, bc, prec + 10, rnd), prec, rnd)
                        if n == -1 else
                        mpf_pow_int(normalize(0, r, e, bc, prec + 10, rnd), n, prec, rnd)
                        for r, e, bc in roots])
    return out


def nearest_sum(m: int, e: int, prec: int, n: int = 0, f: int = 0) -> tuple[int, int]:
    """(man, exp) with man 2^exp the sum m 2^e + n 2^f of positive integers
    m and n (n = 0: m 2^e alone) rounded to nearest even at prec bits; man
    may end in zeros.  These are mpf_mul_int's bits for m = N x's mantissa,
    and mpf_add's for two positive raw values, by its rule: where one term's
    top bit lies more than prec + 4 bits above the other's, and its lowest
    set bit more than 100 above the other's, the smaller term is a sticky
    bit below the larger, so no aligned sum grows past prec + 5 bits more
    than the larger mantissa.  That is the correct rounding unless the
    larger term is wider than prec bits."""
    if n:
        d = e + m.bit_length() - f - n.bit_length()     # m's top bit above n's
        if d < 0:
            m, e, n, f, d = n, f, m, e, -d
        if d > prec + 4 and e + (m & -m).bit_length() - f - (n & -n).bit_length() > 100:
            m, e = (m << prec + 4) + 1, e - prec - 4
        elif e >= f:
            m, e = (m << e - f) + n, f
        else:
            m += n << f - e
    k = m.bit_length() - prec
    if k > 0:       # add half less one, and one more where the kept part is odd
        m = (m + (1 << k - 1) - 1 + (m >> k & 1)) >> k
        e += k
    return m, e


def exact_sum(x1: int, e1: int, x2: int, e2: int):
    """(y, e) with y 2^e = x1 2^e1 + x2 2^e2, exactly; None where the
    exponents of two nonzero terms lie more than 2^14 apart."""
    if not x1:
        e1 = e2
    elif not x2:
        e2 = e1
    k = e1 - e2
    if not -16384 <= k <= 16384:
        return None
    return ((x1 << k) + x2, e2) if k >= 0 else (x1 + (x2 << -k), e1)


def raw_positive(m: int, e: int) -> tuple:
    """The normalized raw mpf of m 2^e, m > 0: trailing zeros moved to e."""
    z = (m & -m).bit_length() - 1
    m >>= z
    return 0, m, e + z, m.bit_length()


def quotient_cmp(a: tuple, b: tuple, c: tuple, d: tuple) -> int:
    """The sign (-1, 0 or 1) of a/b - c/d, exactly, for positive finite raw
    mpfs (only mantissas and exponents are read).  The cross products a d
    and c b are compared by their top bits first; where those agree, the
    exponents differ by at most the products' width, and so does a shift."""
    x, y, s = a[1] * d[1], c[1] * b[1], a[2] + d[2] - c[2] - b[2]
    top = x.bit_length() + s - y.bit_length()
    if top:
        return 1 if top > 0 else -1
    if s > 0:
        x <<= s
    else:
        y <<= -s
    return (x > y) - (x < y)


def max_quotient_pair(pairs) -> tuple:
    """The pair (a, b) of positive finite raw mpfs with the largest exact
    quotient a/b by `quotient_cmp`, the first of equals; (1, 1) where none
    exceeds 1.  Rounding is monotone, so a/b divided once is the largest of
    the rounded quotients: each caller makes that one division."""
    top = fone, fone
    for pair in pairs:
        if quotient_cmp(*pair, *top) > 0:
            top = pair
    return top


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


def check_le(lhs, rhs) -> InequalityCheck:
    """Record `lhs <= rhs` up to rel_tol() * max(|lhs|, |rhs|)."""
    lhs = to_mpf(lhs)
    rhs = to_mpf(rhs)
    return check_nonpositive(lhs - rhs, max(abs(lhs), abs(rhs)))


def mpf_str(x, digits: int = 25) -> str:
    """Deterministic decimal rendering used in reports."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if mp.isinf(to_mpf(x)):
        return "inf" if to_mpf(x) > 0 else "-inf"
    return mp.nstr(to_mpf(x), digits, strip_zeros=True)
