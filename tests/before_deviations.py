"""The readers of a radial function as they read when u was stored as its
values alone, each differencing u itself: the operator stream
`layer_operators`, the reference operators `laplacian_at` and
`gradient_sq_at` (methods of the layer chain, here functions of the tree),
the margin pass's float64 screen `_screen` and the search's `_decreasing`.

With base 0 a radial function's deviations are its values, so the package's
readers, which difference the deviations, must give what these give, bit for
bit and float for float.
"""

from __future__ import annotations

import math
from typing import Callable

import mpmath as mp
from mpmath.libmp import (fzero, mpf_add, mpf_div, mpf_mul, mpf_mul_int, mpf_neg, mpf_pow_int,
                          mpf_sub, round_nearest)

from liouville import screen
from liouville.numerics import exact_sum
from liouville.radial import RadialFunction


def layer_operators(tree, u: RadialFunction) -> Callable[[int], tuple]:
    """The operator stream of u on a radial tree: n -> (u_n, lap, grad^2).

    The cover is checked once, here; nothing else is done per layer until
    a layer is asked for.  Each operation is the `mpmath.libmp` call that
    mpf's own operator makes in `laplacian_at` and `gradient_sq_at`, on
    raw values at the precision and rounding read at call time, so the
    values are theirs bit for bit; all read `conductances(n)`, so layers
    outside `interior_layers()` raise as they do.  Per-layer loops read
    `map(ops, layers)`; a walk calls `ops(n)` and reads the last layer's
    differences from `d_out` and `d_in`.

    The stream rolls: when ops(n) follows ops(n - 1) at the same precision
    under round-to-nearest, n is not 1 and b is not 0, the inward products
    at n are the outward ones at n - 1.  The inward conductance at n is the
    outward one w_{n-1} at n - 1 (only a root's outward conductance differs
    from its shell weight: (N - 1) w_0, or 1), and
    d_in(n) = fl(u_{n-1} - u_n) = -fl(u_n - u_{n-1}) = -d_out(n - 1), since
    rounding to nearest is odd.  So b d_in = -(a d_out) at n - 1 and
    b d_in^2 = a d_out^2 there, the same bits.  Any other call order forms
    both differences afresh.
    """
    tree.check_covers(u)
    return _LayerStream(tree, u)


class _LayerStream:
    """`layer_operators`' stream; `d_out` and `d_in` are the raw differences
    u_{n+1} - u_n and u_{n-1} - u_n at the last layer n (d_in None where the
    inward conductance is 0)."""

    __slots__ = ("_conductances", "_values", "_ulo", "_pr", "_last", "_prec", "_ad", "_ad2",
                 "d_out", "d_in")

    def __init__(self, tree, u: RadialFunction):
        self._conductances = tree.conductances
        self._values, self._ulo = u.values(), u.lo
        self._pr = mp.mp._prec_rounding         # mpmath updates this list in place
        self._last = self._prec = self._ad = self._ad2 = self.d_out = self.d_in = None

    def __call__(self, n):
        a, b = self._conductances(n)
        a, b = a._mpf_, b._mpf_
        prec, rnd = self._pr
        values = self._values
        i = n - self._ulo
        un = values[i]
        d_out = mpf_sub(values[i + 1]._mpf_, un._mpf_, prec, rnd)
        if b == fzero:                  # no inward edge: u_{n-1} is not read
            d_in, bd, bd2 = None, fzero, fzero
        elif n - 1 == self._last and n != 1 and prec == self._prec and rnd == round_nearest:
            d_in = mpf_neg(self.d_out)
            bd, bd2 = mpf_neg(self._ad), self._ad2
        else:
            d_in = mpf_sub(values[i - 1]._mpf_, un._mpf_, prec, rnd)
            bd = mpf_mul(b, d_in, prec, rnd)
            bd2 = mpf_mul(b, mpf_pow_int(d_in, 2, prec, rnd), prec, rnd)
        ad = mpf_mul(a, d_out, prec, rnd)
        ad2 = mpf_mul(a, mpf_pow_int(d_out, 2, prec, rnd), prec, rnd)
        ab = mpf_add(a, b, prec, rnd)
        self._last, self._prec, self._ad, self._ad2 = n, prec, ad, ad2
        self.d_out, self.d_in = d_out, d_in
        return (un, mp.make_mpf(mpf_div(mpf_add(ad, bd, prec, rnd), ab, prec, rnd)),
                mp.make_mpf(mpf_div(mpf_add(ad2, bd2, prec, rnd), mpf_mul_int(ab, 2, prec, rnd),
                                 prec, rnd)))


def _site(tree, u: RadialFunction, n: int) -> tuple:
    """(a, b, u_{n+1} - u_n, u_{n-1} - u_n) at layer n, (a, b) its
    conductances; where b = 0 the inward difference is 0, u_{n-1} unread."""
    tree.check_covers(u)
    a, b = tree.conductances(n)
    un = u.value(n)
    return a, b, u.value(n + 1) - un, u.value(n - 1) - un if b else b


def laplacian_at(tree, u: RadialFunction, n: int) -> mp.mpf:
    """lap at layer n by the formulas of `liouville.radial`'s docstring."""
    a, b, d_out, d_in = _site(tree, u, n)
    return (a * d_out + b * d_in) / (a + b)


def gradient_sq_at(tree, u: RadialFunction, n: int) -> mp.mpf:
    """grad^2 at layer n by the formulas of `liouville.radial`'s docstring."""
    a, b, d_out, d_in = _site(tree, u, n)
    return (a * d_out ** 2 + b * d_in ** 2) / (2 * (a + b))


def _screen(tree, u, layers, term_of) -> list:
    """Float64 bounds (lo, hi) on log2|margin| per layer, or None where undecided.

    A layer gets bounds only when they prove, about the values the mpf
    stream computes at the working precision, that u_n > 0, lap < 0 and
    that `screen.solution_check` passes lap + term: it is then negative and
    neither fails nor is borderline.  This is the check's input stage.
    The differences d_out, d_in and S = a d_out + b d_in,
    P = |a d_out| + |b d_in|, G = a d_out^2 + b d_in^2 and A = a + b (d_in
    = 0 where b = 0) are formed exactly from the integer mantissas of u and
    `conductances(n)` (None where two nonzero terms of a sum lie over 2^14
    binary places apart); log2|lap| = log2(|S|/A) and log2 grad^2
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
    unit_bits = min(mp.mp.prec, 1000)   # 2^-unit_bits >= 2^-prec, and a normal float
    r_unit = 5.2 * math.ldexp(1.0, -unit_bits)
    kappa_bits = unit_bits - 12         # kappa beyond 2^kappa_bits cannot give r <= 2^-8
    log2, top53, cap = math.log2, screen.top53, screen._EXP_CAP
    values, lo_u = u.values(), u.lo
    first = layers.start - lo_u
    rows, d_out, nxt = [], None, values[max(first - 1, 0)]._mpf_
    for i in range(max(first - 1, 0), layers.stop - lo_u):
        (s, m, x, _), nxt = nxt, values[i + 1]._mpf_
        s1, m1, x1, _ = nxt
        d_in, d_out = d_out, exact_sum(-m1 if s1 else m1, x1, m if s else -m, x)   # u_{i+1} - u_i
        if i < first:
            continue
        a, b = tree.conductances(i + lo_u)
        _, ma, xa, _ = a._mpf_
        _, mb, xb, _ = b._mpf_
        if s or not m or d_out is None or mb and d_in is None:
            rows.append(None)
            continue
        (do, xo), (di, xi) = d_out, d_in if mb else (0, d_out[1])     # -d_in
        fu, eu = top53(m, x)
        k, j = xa - xb if ma and mb else 0, xo - xi   # |j| <= 2^14 where u_i != 0
        if not (-cap < eu < cap and -16384 <= k <= 16384) or ma and do and mb and di \
                and not (-16384 <= k + j <= 16384 and -16384 <= k + 2 * j <= 16384):
            rows.append(None)
            continue
        a, b = (ma << k, mb) if k >= 0 else (ma, mb << -k)
        do, di, e = (do << j, di, xi) if j >= 0 else (do, di << -j, xo)
        t1, t2 = a * do, b * di         # a d_out and -b d_in, over a common exponent
        S, P = t2 - t1, abs(t1) + abs(t2)
        if S <= 0 or P.bit_length() - S.bit_length() > kappa_bits \
                or not (r := r_unit * (P / S)) <= 0.00390625:
            rows.append(None)
            continue
        fA, eA = top53(a + b, 0)
        fS, eS = top53(S, e)
        fG, eG = top53(t1 * do + t2 * di, 2 * e)
        rows.append((log2(fu) + eu, (1, log2(fS / fA) + (eS - eA)),
                     log2(fG / fA) + (eG - eA - 1), 1.45 * r))
    return [check or None for check in screen.solution_check(*floats, rows)]


def _decreasing(u: RadialFunction) -> bool:
    """u_n > u_(n+1) at every stored layer (both arms), exactly, on signed
    mantissas aligned per pair (mpf's compare subtracts: six times slower)."""
    xs = [(-m if s else m, e) for s, m, e, _ in (v._mpf_ for v in u.values())]
    return all((x0 << e0 - e1 > x1) if e0 >= e1 else (x0 > x1 << e1 - e0)
               for (x0, e0), (x1, e1) in zip(xs, xs[1:]))
