"""The shared float64 screen as it read when its kernels took one item per
call: the budget `log2_bound`, the verdict `solution_check` and the margin
shapes `margin_bounds`, and their callers, each calling them once per item:
the margin pass's `_screen`, `_band_bounds`, `_window_bounds` with the Lambda
kernels' `at`, and the screening loops of `walk_diagnostics` and
`_pointwise_core`.

The column kernels of `liouville.screen` and their callers must give the
same bounds and verdicts, float for float, with None at the same items.
These copies read the package's reader (`screen.top53`, `screen.log2_abs`),
its constants, its picker and the helpers no screen change touched.  The
float-pair helpers `_fsum`, `_ratio` and `_log2`, the family accumulator
`_Family`, the Lambda screen's record `_Screened` (here `_LambdaScreened`)
with its `_NEGATIVE` and the pointwise bound's sentinels `_UNDEFINED` and
`_NOT_A_SOLUTION` are copied here as they read then, so that the reference
does not change with the package.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial
from math import expm1, log2
from typing import NamedTuple

import mpmath as mp

from liouville import screen
from liouville.counterexamples import term_kernel
from liouville.descent import (BoundFamily, WalkDiagnostics, PointwiseBoundReport, _site_logs,
                               _averaging, _sandwich, _gradient_ratio, _pointwise_power,
                               _pointwise_margin)
from liouville.errors import InputError
from liouville.graphs import checked_p0
from liouville.numerics import rel_tol, to_mpf
from liouville.regions import PQPoint
from liouville.screen import EXCUSE, FAILS, LN2, SLACK, UNDECIDED, _TINY


# `at`'s verdict at an m whose Lambda is proved negative
_NEGATIVE = "negative"


class _LambdaScreened(NamedTuple):
    """The Lambda kernel's screen of a window, per m: float64 bounds (lo, hi)
    on log2 Lambda(m) where Lambda(m) > 0 is proved, else None; and whether
    Lambda(m) < 0 is proved."""

    bounds: list
    negative: list


_UNDEFINED, _NOT_A_SOLUTION = object(), object()


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


class _Family:
    def __init__(self):
        self.margins = []
        self.ok = True

    def add(self, margin, ok):
        self.margins.append(margin)
        if not ok:
            self.ok = False

    def done(self) -> BoundFamily:
        return BoundFamily(checked=len(self.margins), holds=self.ok,
                           worst_margin=max(self.margins) if self.margins else None)


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


def _aligned(x1: int, e1: int, x2: int, e2: int):
    """(y1, y2, e) with x1 2^e1 = y1 2^e and x2 2^e2 = y2 2^e, exactly; None
    where the exponents of two nonzero terms lie more than 2^14 apart."""
    if not x1:
        e1 = e2
    elif not x2:
        e2 = e1
    k = e1 - e2
    if not -16384 <= k <= 16384:
        return None
    return (x1 << k, x2, e2) if k >= 0 else (x1, x2 << -k, e1)


def _exact_sum(x1: int, e1: int, x2: int, e2: int):
    """(y, e) with y 2^e = x1 2^e1 + x2 2^e2, exactly; None where `_aligned`
    finds the exponents of two nonzero terms more than 2^14 apart."""
    d = _aligned(x1, e1, x2, e2)
    return d and (d[0] + d[1], d[2])


def _screen(tree, u, layers, term_of) -> list:
    """Float64 bounds (lo, hi) on log2|margin| per layer, or None where undecided.

    A layer gets bounds only when they prove, about the values the mpf
    stream computes at the working precision, that u_n > 0, lap < 0 and
    that `solution_check` passes lap + term: it is then negative and
    neither fails nor is borderline.  This is the check's input stage.
    The differences d_out, d_in and S = a d_out + b d_in,
    P = |a d_out| + |b d_in|, G = a d_out^2 + b d_in^2 and A = a + b (d_in
    = 0 where b = 0) are formed exactly from the integer mantissas of u and
    `conductances(n)`; log2|lap| = log2(|S|/A) and log2 grad^2
    = log2(G/2A) are read from the top 53 bits of each, within 5 units plus
    half a unit of the result, and the stream's grad^2 is within 10 more
    (the differences rounded once each, then 7 roundings).  The one error
    outside the shared budget is the mpf Laplacian's: the differences,
    a d_out, b d_in, their sum, a + b and the quotient are rounded, so
    |lap_mpf - lap| <= 5.1 2^-prec kappa |lap|, kappa = P/|S|.  With
    r = 5.2 2^-prec kappa_float <= 2^-8 (else None; 2^-1000 stands in for
    2^-prec beyond 1000 bits), log2|lap_mpf| is within 1.45 r of log2|lap|,
    and the check is widened by that.  u covers the tree (`_verify_pass`).
    """
    floats = screen.exponent_floats(term_of.p, term_of.half_q)
    if floats is None:
        return [None] * len(layers)
    p, h = floats
    unit_bits = min(mp.mp.prec, 1000)   # 2^-unit_bits >= 2^-prec, and a normal float
    r_unit = 5.2 * math.ldexp(1.0, -unit_bits)
    kappa_bits = unit_bits - 12         # kappa beyond 2^kappa_bits cannot give r <= 2^-8
    log2, top53 = math.log2, screen.top53
    values, lo_u = u.values(), u.lo

    def diff(k):                        # u_{k+1} - u_k as (D, e), exactly, D a signed int
        s1, m1, x1, _ = values[k + 1]._mpf_
        s0, m0, x0, _ = values[k]._mpf_
        return _exact_sum(-m1 if s1 else m1, x1, m0 if s0 else -m0, x0)

    k0 = max(layers.start - lo_u - 1, 0)    # the differences over the layers' span, once each
    diffs = [diff(k) for k in range(k0, layers.stop - lo_u)]

    def bounds(n):
        a, b = tree.conductances(n)
        _, ma, xa, _ = a._mpf_
        _, mb, xb, _ = b._mpf_
        i = n - lo_u
        lu = screen.log2_abs(values[i])
        d_out, d_in = diffs[i - k0], diffs[i - k0 - 1] if mb else (0, 0)   # -d_in
        if lu is None or lu[0] or not (d_out and d_in):
            return None
        (do, xo), (di, xi) = d_out, d_in
        t1, t2 = ma * do, mb * di       # a d_out and -b d_in
        prods = _aligned(t1, xa + xo, -t2, xb + xi)
        ab = _aligned(ma, xa, mb, xb)
        squares = _aligned(t1 * do, xa + 2 * xo, t2 * di, xb + 2 * xi)
        if not (prods and ab and squares):
            return None
        y1, y2, e = prods
        S = -y1 - y2                    # -(a d_out + b d_in)
        P = abs(y1) + abs(y2)
        if S <= 0 or P.bit_length() - S.bit_length() > kappa_bits:
            return None
        r = r_unit * (P / S)
        if not r <= 0.00390625:
            return None
        fA, eA = top53(ab[0] + ab[1], ab[2])
        fS, eS = top53(S, e)
        fG, eG = top53(squares[0] + squares[1], squares[2])
        return solution_check(p, h, lu[1], (1, log2(fS / fA) + (eS - eA)),
                                     log2(fG / fA) + (eG - eA - 1), 1.45 * r)[1]

    return [bounds(n) for n in layers]


def _band_bounds(vols: list, law: PowerLogLaw, window: range) -> list:
    """Float64 bounds (lo, hi) on log2 of the mpf ratio vols[n] / law(n),
    per n of the window; (-inf, inf) where undecided.

    The screen's input stage: the ratio is vols[n] n^-A (ln n)^-B, A and B
    the law's exponents, and `log2_bound` takes log2 vols[n], read
    from the exact running volume, as its constant, and log2 n and
    log2 ln n from libm.  The law,
    exp(A ln n + B ln ln n) at prec + 20 bits, is within 1 + 2^-18 (1 +
    |A ln n| + |B ln ln n| + |B|) ulps: inside the budget's (4 + |C ln x|)
    ulps per power.  An n whose volume is not positive or whose bound
    decides nothing stays a candidate and excuses no other n; so does every
    n of a law with an exponent floats cannot carry, or below 53 bits.
    """
    undecided = (-math.inf, math.inf)
    floats = screen.exponent_floats(law.expo, law.logexp)
    if floats is None:
        return [undecided] * len(window)
    a, b = -floats[0], -floats[1]
    log2, log, log2_abs = math.log2, math.log, screen.log2_abs
    bounds = []
    for n in window:
        lv = log2_abs(vols[n])
        bound = lv and not lv[0] and log2_bound(lv[1], ((a, log2(n)), (b, log2(log(n)))))
        bounds.append((bound[0] - bound[1], bound[0] + bound[1]) if bound else undecided)
    return bounds


def _bound(terms, rho):        # the log2_bound of a value, widened by 1.45 rho
    b = log2_bound(0.0, terms)
    return b and (b[0] - b[1] - 1.45 * rho, b[0] + b[1] + 1.45 * rho)


def _drift_kernel(plus_one: bool, p, q, unit, c_g, c_x, c_q, param):
    """combine and at of u = delta/g (I), or of delta/g + 1 (III, plus_one)."""

    def combine(prev, cur, nxt):
        Wm, g_dn, Wn, gn, g_up = map(mp.make_mpf, (*prev, *cur, nxt[1]))
        w = Wn + Wm
        drift = 1 - gn * (Wn / g_up + Wm / g_dn) / w
        inv_n = 1 / gn
        quad = (Wn * (inv_n - 1 / g_up) ** 2 + Wm * (1 / g_dn - inv_n) ** 2) / (w * 2)
        value = drift * (inv_n + 1) ** -p / gn if plus_one else gn ** (p - 1) * drift
        return value * quad ** (-q / 2)

    def at(i, W, g, rW, rg, dn, up):
        # drift = D / ((Wn + Wm) g_up g_dn), D = Wn g_dn d_up - Wm g_up d_dn with the
        # differences d_up = g_up - gn, d_dn = gn - g_dn, and kappa = gn (Wn g_dn +
        # Wm g_up) / D; quad = (Wn (d_up / (gn g_up))^2 + Wm (d_dn / (g_dn gn))^2) /
        # (2 (Wn + Wm)), and 1/g - 1/g' has kappa_q = (g + g') / |g' - g|
        (mWm, xWm), (mWn, xWn), (mgd, xgd), (mgu, xgu) = W[i - 1], W[i], g[i - 1], g[i + 1]
        D = dn and up and _exact_sum(mWn * mgd * up[0], xWn + xgd + up[1],
                                     -mWm * mgu * dn[0], xWm + xgu + dn[1])
        if not D:
            return None
        fD, eD = screen.top53(abs(D[0]), D[1])
        (fWm, eWm), (fWn, eWn) = rW[i - 1], rW[i]
        (fgd, egd), (fgn, egn), (fgu, egu) = rg[i - 1], rg[i], rg[i + 1]
        fP, eP = _fsum(fWn * fgd, eWn + egd, fWm * fgu, eWm + egu)
        rho_d = 5.2 * unit * (_ratio(fP * fgn, eP + egn, fD, eD) + 1)
        k_q = max(_ratio(*_fsum(fgd, egd, fgn, egn), dn[2], dn[3]),
                  _ratio(*_fsum(fgn, egn, fgu, egu), up[2], up[3]))
        rho_q = 2.1 * unit * (k_q + 4)
        if not max(rho_d, rho_q) <= 0.00390625:
            return None
        if D[0] < 0:
            return _NEGATIVE
        fw, ew = _fsum(fWm, eWm, fWn, eWn)
        t_up, t_dn = up[2] / (fgn * fgu), dn[2] / (fgd * fgn)
        fs, es = _fsum(fWn * t_up * t_up, eWn + 2 * (up[3] - egn - egu),
                       fWm * t_dn * t_dn, eWm + 2 * (dn[3] - egd - egn))
        drift = _log2(fD / (fw * fgd * fgu), eD - ew - egd - egu)
        quad = _log2(fs / fw, es - ew - 1)
        rho = rho_d + abs(c_q) * rho_q
        if not plus_one:
            return _bound(((c_g, math.log2(fgn) + egn), (1.0, drift), (c_q, quad)), rho)
        fx, ex = screen.top53(*_exact_sum(*g[i], 1, 0))                        # gn + 1
        return _bound(((1.0, drift), (c_x, _log2(fx / fgn, ex - egn)),
                       (-1.0, math.log2(fgn) + egn), (c_q, quad)), rho + abs(c_x) * 2.1 * unit)

    return combine, at


def _log_kernel(p, q, unit, c_g, c_x, c_q, param):
    """combine and at of u = f + 1 (II)."""

    def combine(prev, cur, nxt):
        Wm, f_dn, Wn, fn, f_up = map(mp.make_mpf, (*prev, *cur, nxt[1]))
        w = Wn + Wm
        neg_lap = fn - (Wn * f_up + Wm * f_dn) / w
        quad = (Wn * (f_up - fn) ** 2 + Wm * (f_dn - fn) ** 2) / (w * 2)
        if quad == 0 and q > 0:
            raise InputError(f"regime II: eps is too small for the working precision "
                             f"({mp.mp.prec} bits): (ln m)^(-eps/2) is flat")
        return neg_lap * (fn + 1) ** -p * quad ** (-q / 2)

    def at(i, W, f, rW, rf, dn, up):
        # neg_lap = L / (Wn + Wm), L = Wm d_dn - Wn d_up with the differences
        # d_up = f_up - fn, d_dn = fn - f_dn, and kappa = (Wn f_up + Wm f_dn) / L;
        # quad = (Wn d_up^2 + Wm d_dn^2) / (2 (Wn + Wm))
        (mWm, xWm), (mWn, xWn) = W[i - 1], W[i]
        L = dn and up and _exact_sum(mWm * dn[0], xWm + dn[1], -mWn * up[0], xWn + up[1])
        if not L or L[0] <= 0:
            return None
        fL, eL = screen.top53(*L)
        (fWm, eWm), (fWn, eWn), (fu, eu), (fd, ed) = rW[i - 1], rW[i], rf[i + 1], rf[i - 1]
        rho_d = 4.2 * unit * (_ratio(*_fsum(fWn * fu, eWn + eu, fWm * fd, eWm + ed),
                                       fL, eL) + 1)
        if not rho_d <= 0.00390625:
            return None
        fw, ew = _fsum(fWm, eWm, fWn, eWn)
        fs, es = _fsum(fWn * up[2] * up[2], eWn + 2 * up[3], fWm * dn[2] * dn[2],
                       eWm + 2 * dn[3])
        fx, ex = screen.top53(*_exact_sum(*f[i], 1, 0))                        # fn + 1
        return _bound(((1.0, _log2(fL / fw, eL - ew)), (c_x, math.log2(fx) + ex),
                       (c_q, _log2(fs / fw, es - ew - 1))),
                      rho_d + (1.1 * abs(c_x) + 7.2 * abs(c_q)) * unit)

    return combine, at


def _reciprocal_kernel(p, q, unit, c_g, c_x, c_q, lam):
    """combine and at of u = delta (1/m + 1) (IV), r = e^(-lam)."""
    r = mp.e ** (-to_mpf(lam))
    one_r, two_one_r = 1 + r, 2 * (1 + r)

    def combine(prev, cur, nxt):
        m_dn, inv_dn, _, inv_n, _, inv_up = map(mp.make_mpf, (*prev, *cur, *nxt))
        drift = inv_n - (inv_up + r / m_dn) / one_r
        quad = ((inv_up - inv_n) ** 2 + r * (inv_dn - inv_n) ** 2) / two_one_r
        return drift * (inv_n + 1) ** -p * quad ** -0.5

    (_, m_r, x_r, _), (_, m_o, x_o, _) = r._mpf_, one_r._mpf_
    (fr, er), (fo, eo), (ft, et) = (screen.top53(*x._mpf_[1:3]) for x in (r, one_r, two_one_r))

    def at(i, M, V, rM, rV, dn, up):
        # drift = T / ((1 + r) m_dn), T = m_dn inv_n (1 + r) - m_dn inv_up - r, and
        # kappa = (m_dn inv_up + r) / T; quad = (d_up^2 + r d_dn^2) / (2 (1 + r)), d_up
        # and d_dn the differences of 1/m
        (m_dn, x_dn), (m_n, x_n), (m_up, x_up) = M[i - 1], V[i], V[i + 1]
        T = dn and up and _exact_sum(m_dn * m_n * m_o, x_dn + x_n + x_o, -m_dn * m_up,
                                     x_dn + x_up)
        T = T and _exact_sum(*T, -m_r, x_r)
        if not T:
            return None
        fT, eT = screen.top53(abs(T[0]), T[1])
        (fm, em), (fu, eu) = rM[i - 1], rV[i + 1]
        rho_d = 3.2 * unit * (_ratio(*_fsum(fm * fu, em + eu, fr, er), fT, eT) + 1)
        if not rho_d <= 0.00390625:
            return None
        if T[0] < 0:
            return _NEGATIVE
        fs, es = _fsum(up[2] * up[2], 2 * up[3], fr * dn[2] * dn[2], er + 2 * dn[3])
        fx, ex = screen.top53(*_exact_sum(m_n, x_n, 1, 0))                     # inv_n + 1
        return _bound(((1.0, _log2(fT / (fo * fm), eT - eo - em)), (c_x, math.log2(fx) + ex),
                       (-0.5, _log2(fs / ft, es - et))), rho_d + (1.1 * abs(c_x) + 3.6) * unit)

    return combine, at


def _window_bounds(rows, at) -> _LambdaScreened:
    """at(m, A, B, rA, rB, dn, up) for each inner row m of the profile rows,
    split into `_Screened`: at gives bounds, None or _NEGATIVE.  A and B hold
    each row's values (A, B) as (mantissa, exponent), exactly, rA and rB
    their `screen.top53`, and dn and up are the differences of the pairs of
    rows below and above m, (D, e, f, E) with D 2^e = B_{k+1} - B_k exactly
    and (f, E) the top53 of |D|, or None where that is zero (or its
    exponents lie far apart); all are read once.
    Undecided at every m where at is None (an exponent floats cannot carry)
    or a value is not positive or has a binary exponent beyond 2^40 in
    size, which keeps sums of a few exponents exact as floats."""
    cap = screen._EXP_CAP
    if not at or not all(not x[0] and x[1] and -cap < x[2] < cap for row in rows for x in row):
        return _LambdaScreened([None] * (len(rows) - 2), [False] * (len(rows) - 2))
    top53 = screen.top53
    A = [(a[1], a[2]) for a, _ in rows]
    B = [(b[1], b[2]) for _, b in rows]
    diffs = []
    for (m1, x1), (m0, x0) in zip(B[1:], B):
        d = _exact_sum(m1, x1, -m0, x0)
        diffs.append(d and d[0] and (*d, *top53(abs(d[0]), d[1])))
    reads = A, B, [top53(*a) for a in A], [top53(*b) for b in B]
    verdicts = [at(i, *reads, diffs[i - 1], diffs[i]) for i in range(1, len(rows) - 1)]
    negative = [v is _NEGATIVE for v in verdicts]
    return _LambdaScreened([None if neg else v for v, neg in zip(verdicts, negative)], negative)


class _Screened:
    """A family's margins behind the float64 screen: `_Family`, fed bounds.

    `add(item, bounds)` records one margin of the family: `margin_of(item)`
    gives the mpf margin and its verdict, and bounds is (lo, hi) with
    lo <= that margin <= hi, or None where the screen did not decide.
    `done` evaluates in mpf, in order, the items `screen.extremes` picks
    for the maximum, and excuses the rest: an excused margin lies strictly
    below an evaluated one, so the maximum and its first occurrence are
    unchanged, and so is `holds`.  A margin fails only above tol, and then
    the larger evaluated one fails too (the sandwich's sign condition only
    fails unbounded items).  A nan margin (only from non-finite inputs)
    voids the screen, since the maximum of a list holding a nan depends on
    where the nan sits: then every item is evaluated.  The report equals
    `_Family`'s over every margin bit for bit.
    """

    def __init__(self, margin_of):
        self.margin_of = margin_of
        self.items = []

    def add(self, item, bounds):
        self.items.append((item, bounds))

    def done(self) -> BoundFamily:
        picked = screen.extremes([b for _, b in self.items], high=True)
        checks = [self.margin_of(self.items[i][0]) for i in picked]
        if any(mp.isnan(m) for m, _ in checks):
            checks = [self.margin_of(item) for item, _ in self.items]
        family = _Family()
        for check in checks:
            family.add(*check)
        return replace(family.done(), checked=len(self.items))


def walk_diagnostics(walk: DescentWalk, p0=None,
                     point: PQPoint | None = None) -> WalkDiagnostics:
    """Per-step bound margins over a recorded walk.

    Margins are normalized by the dominant magnitude of each comparison.
    Passing p0 (finite, at least 1) enables the gradient ratio family;
    passing the exponent pair enables the solution re-check and the
    pointwise power family.

    Each normalized margin is a monotone function of one log2 quantity y
    of the step's mpf values (for the sandwich, falling then rising), so a
    float64 bound on y bounds the margin (`margin_bounds`).  mpf
    evaluates a family's margin only at the steps `_Screened` cannot
    excuse, and the re-check only where `solution_check` leaves it
    open; a step whose u, lap or grad is zero or not finite, or any step
    below 53 bits, is evaluated in mpf throughout.  The report equals that
    of the loop evaluating every margin in mpf, bit for bit.
    """
    tol = rel_tol()
    sqrt2 = mp.sqrt(2)
    exponents = []
    if p0 is not None:
        p0 = checked_p0(p0)
        ratio_factor = mp.sqrt((1 + p0 ** 2) / 2)
        log_rf = screen.log2_abs(ratio_factor)[1]
    if point is not None:
        term_of = term_kernel(point.p, point.q)
        neg_p, one_minus_q = -to_mpf(point.p), 1 - to_mpf(point.q)
        exponents = [term_of.p, term_of.half_q, neg_p, one_minus_q]
    floats = screen.exponent_floats(*exponents)
    if exponents and floats is not None:
        p, half_q, neg_p_f, one_minus_q_f = floats
    bounds = margin_bounds
    dec = _Family()
    sand = _Screened(lambda s: _sandwich(s, tol))
    avg = _Screened(lambda s: _averaging(s, sqrt2, tol))
    gratio = _Screened(lambda s: _gradient_ratio(s, ratio_factor, tol))
    ppower = _Screened(lambda s: _pointwise_power(s, sqrt2, neg_p, one_minus_q, tol))
    solution_sites = 0
    for step in walk.steps:
        logs = _site_logs(step.u, step.lap, step.grad) if floats is not None else None
        if logs:
            lu, (lap_negative, ll), lg = logs
            drop = step.drop is not None and screen.log2_abs(step.drop)
            ld = drop[1] if drop and not drop[0] else None
        avg.add(step, logs and bounds("falling", 0.5, ((1.0, lg), (-1.0, ll))))
        solves = False
        if point is not None:
            solves = logs and solution_check(p, half_q, lu, logs[1], 2 * lg)[0]
            if solves is None:
                check = term_of.check(step.u, step.lap, step.grad ** 2)
                solves = check is not None and check.holds
            if solves:
                solution_sites += 1
        if step.drop is not None:
            dec.add(-step.drop, step.drop > 0)
            screened = logs is not None and ld is not None
            if solves:
                sand.add(step, screened and lap_negative
                         and bounds("valley", 0.0, ((1.0, ll), (-1.0, ld))) or None)
            # the gradient ratio bound only needs a nonpositive Laplacian and
            # a strict drop, not the full solution property
            if p0 is not None and step.drop > 0 and step.lap <= 0:
                gratio.add(step, screened
                           and bounds("falling", log_rf, ((1.0, ld), (-1.0, lg))) or None)
        if point is not None and solves and step.grad > 0:
            ppower.add(step, logs and bounds("falling", 0.5, ((neg_p_f, lu), (one_minus_q_f, lg))))
    return WalkDiagnostics(
        n_sites=len(walk.steps),
        strict_decrease=dec.done(),
        sandwich=sand.done(),
        averaging=avg.done(),
        gradient_ratio=gratio.done() if p0 is not None else None,
        pointwise_power=ppower.done() if point is not None else None,
        solution_sites=solution_sites,
    )


def _pointwise_core(sites, class_of, reps, operators, point: PQPoint) -> PointwiseBoundReport:
    """Margin of u^(p-1) |grad u|^q - 1 at every site solving the inequality.

    Sites of one class share their operators: each class is evaluated once,
    at its representative reps[c], and the report is read off site by site
    in the order of `sites`, whose i-th entry is in class class_of[i].
    The re-check and the margin go through the float64 screen of
    `walk_diagnostics`: the margin is 2^w - 1 with w = (p-1) log2 u +
    (q/2) log2 grad^2, and mpf evaluates a class only where the re-check
    is open or the class could hold the maximum.
    """
    term_of = term_kernel(point.p, point.q)
    p1 = to_mpf(point.p - 1)
    floats = screen.exponent_floats(term_of.p, term_of.half_q, p1)
    if floats is not None:
        p, half_q_f, p1_f = floats
    margins = _Screened(lambda ug: _pointwise_margin(*ug, p1, term_of))
    verdicts = []
    for u_val, lap, grad_sq in map(operators, reps):
        logs = _site_logs(u_val, lap, grad_sq) if floats is not None else None
        solves = logs and solution_check(p, half_q_f, *logs)[0]
        if solves is None:
            check = term_of.check(u_val, lap, grad_sq)
            if check is None:
                verdicts.append(_UNDEFINED)
                continue
            solves = check.holds
        if not solves:
            verdicts.append(_NOT_A_SOLUTION)
            continue
        verdicts.append(None)
        margins.add((u_val, grad_sq), logs and margin_bounds(
            "rising", 0.0, ((p1_f, logs[0]), (half_q_f, logs[2]))))
    family = margins.done()
    checked = 0
    skipped = []
    failures = []
    for site, c in zip(sites, class_of):
        verdict = verdicts[c]
        if verdict is _UNDEFINED:
            skipped.append(site)
        elif verdict is _NOT_A_SOLUTION:
            failures.append(site)
        else:
            checked += 1
    return PointwiseBoundReport(
        checked=checked, holds=family.holds, max_margin=family.worst_margin,
        skipped=tuple(skipped), hypothesis_failures=tuple(failures),
    )


KERNELS = {"I": partial(_drift_kernel, False), "II": _log_kernel,
           "III": partial(_drift_kernel, True), "IV": _reciprocal_kernel}


def lambda_screen(regime: str, point: PQPoint, param):
    """The screen `_lambda_kernel` returned: profile rows to `_window_bounds`."""
    p, q = to_mpf(point.p), to_mpf(point.q)
    unit = math.ldexp(1.0, -min(mp.mp.prec, 1000))      # >= 2^-prec, and a normal float
    floats = screen.exponent_floats(p - 1, -p, -q / 2)
    _, at = KERNELS[regime](p, q, unit, *floats or (0.0, 0.0, 0.0), param)
    return lambda rows: _window_bounds(rows, floats and at)
