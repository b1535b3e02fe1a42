"""Radially symmetric positive solutions on homogeneous trees.

Each admissible exponent region has a recipe: shell weights and layerwise
values on T_N making u a positive solution of

    Delta u + u^p |grad u|^q <= 0

while the ball volumes realize the growth rate that the nonexistence
theory shows to be critical.  Six families are implemented:

    I   polynomial-log weights, decaying u            (region G1)
    II  n (ln n)^(1+eps) weights, u -> 1 from above   (region G2)
    III polynomial-log weights, u -> 1 from above     (region G3)
    IV  exponential weights, u -> delta from above    (region G4)
    V1  exponential weights, exponentially decaying u (p+q=1, p>=0, q>0)
    V2  two-sided tree, u decaying one way and        (p+q=1, q<0)
        growing the other

Whether a recipe solves the inequality at a layer reduces to a per-layer
calibration function: the interior inequality at layer n is equivalent to
`threshold <= Lambda(n + n0)` where the threshold is a power of delta
(families I, III, IV), the constant 1 (family II), or a rate-dependent
closed form (family V).  Calibration searches n0 (or the rate lambda)
until the pointwise check passes on the requested horizon, then
re-verifies every layer margin directly from the tree.

A verified report is a *finite-horizon certificate*: margins are checked
pointwise up to the horizon and the calibration function must clear twice
the calibrated threshold on the tail half of the window.  It is evidence,
not a proof for all n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import Callable

import mpmath as mp
from mpmath.libmp import (from_int, mpf_add, mpf_div, mpf_exp, mpf_gt, mpf_log, mpf_lt,
                          mpf_mul, round_nearest)

from . import screen
from .errors import CalibrationError, InputError
from .graphs import GraphFunction, WeightedGraph, site_classes, site_operators
from .numerics import check_nonpositive, precision, rel_tol, to_mpf
from .radial import RadialFunction, RadialTree, TwoSidedRadialTree, layer_operators
from .regions import PQPoint, classify_g, exponents, pq

REGIMES = ("I", "II", "III", "IV", "V1", "V2")

# Acceptance factor for the rate search in family V: the closed-form layer
# conditions must clear 1 with five percent to spare.
V_COND_MARGIN = Fraction(21, 20)

_N0_CAP = 2 ** 34
_LAMBDA_CAP = 64
_MAX_PRECISION_BUMPS = 2


@dataclass(frozen=True)
class RegimeSpec:
    """A fully pinned construction: regime, exponents, and parameters.

    horizon is the number of certified layers: margins are checked for
    0 <= n <= horizon (both arms for V2).  eps applies to regimes I-III,
    lam to IV and V, delta to I, III, IV; n0 is ignored by V1/V2.
    """

    regime: str
    p: Fraction
    q: Fraction
    N: int
    horizon: int
    eps: Fraction | None = None
    lam: mp.mpf | None = None
    n0: int = 2
    delta: mp.mpf | None = None

    @property
    def point(self) -> PQPoint:
        return pq(self.p, self.q)


def _region_matches(regime: str, point: PQPoint) -> bool:
    if regime == "V1":
        return point.p + point.q == 1 and point.p >= 0 and point.q > 0
    if regime == "V2":
        return point.p + point.q == 1 and point.q < 0
    return classify_g(point) == {"I": "G1", "II": "G2", "III": "G3", "IV": "G4"}[regime]


def _check_size(N: int, horizon: int) -> None:
    if N < 2:
        raise InputError("tree degree N must be at least 2")
    if horizon < 2:
        raise InputError("horizon must be at least 2")


def validate_spec(spec: RegimeSpec) -> None:
    if spec.regime not in REGIMES:
        raise InputError(f"unknown regime {spec.regime!r}")
    if not _region_matches(spec.regime, spec.point):
        raise InputError(
            f"(p,q)=({spec.p},{spec.q}) is not in the exponent region of regime {spec.regime}"
        )
    _check_size(spec.N, spec.horizon)
    if spec.regime in ("I", "II", "III", "IV") and spec.n0 < 2:
        raise InputError("n0 must be at least 2 (logarithms need n + n0 >= 2)")
    if spec.regime in ("I", "II", "III") and spec.eps is None:
        raise InputError(f"regime {spec.regime} needs eps")
    if spec.regime in ("IV", "V1", "V2"):
        if spec.lam is None or not to_mpf(spec.lam) > 0:
            raise InputError(f"regime {spec.regime} needs a positive lam")
    if spec.regime in ("I", "III", "IV"):
        if spec.delta is None or not to_mpf(spec.delta) > 0:
            raise InputError(f"regime {spec.regime} needs a positive delta")


# ---------------------------------------------------------------------------
# Closed-form profiles and construction


def _poly_profiles(spec: RegimeSpec):
    """m -> (w_m, u_m) in the absolute index m = n + n0, regimes I-IV.

    mpf(m) and ln m are formed once per m and shared by w and u.
    """
    point = spec.point
    if spec.regime == "IV":
        lam = to_mpf(spec.lam)
        delta = to_mpf(spec.delta)
        return lambda m: (lam * mp.e ** (lam * m), delta / mp.mpf(m) + delta)
    eps = to_mpf(spec.eps)
    if spec.regime == "II":
        w_log, u_log = 1 + eps, -eps / 2

        def profile(m):
            ln_m = mp.ln(m)
            return mp.mpf(m) * ln_m ** w_log, ln_m ** u_log + 1

        return profile
    if spec.regime not in ("I", "III"):
        raise InputError(f"regime {spec.regime} has no polynomial profile")
    ex = exponents(point, spec.regime)
    beta, sigma = to_mpf(ex.beta), to_mpf(ex.sigma)
    # I weights m^lam (ln m)^(beta+eps), III weights m^beta (ln m)^(beta+eps)
    w_pow = to_mpf(ex.lam) if spec.regime == "I" else beta
    w_log = beta + eps
    delta = to_mpf(spec.delta)
    plus_one = spec.regime == "III"         # III's u tends to 1, I's to 0

    def profile(m):
        mf, ln_m = mp.mpf(m), mp.ln(m)
        u = delta / (mf ** sigma * ln_m ** beta)
        return mf ** w_pow * ln_m ** w_log, (u + 1 if plus_one else u)

    return profile


@dataclass(frozen=True)
class BuiltCounterexample:
    tree: RadialTree | TwoSidedRadialTree
    u: RadialFunction
    spec: RegimeSpec


def build(spec: RegimeSpec) -> BuiltCounterexample:
    """Realize the recipe with stored layers one past the certified horizon."""
    validate_spec(spec)
    stored = spec.horizon + 1
    if spec.regime in ("I", "II", "III", "IV"):
        profile = _poly_profiles(spec)
        weights, values = zip(*(profile(n + spec.n0) for n in range(stored + 1)))
        return BuiltCounterexample(RadialTree(spec.N, weights),
                                   RadialFunction(values), spec)
    lam = to_mpf(spec.lam)
    if spec.regime == "V1":
        weights = [lam * mp.e ** (lam * n) for n in range(stored + 1)]
        values = [mp.e ** (-lam * n / 4) for n in range(stored + 1)]
        return BuiltCounterexample(RadialTree(spec.N, weights),
                                   RadialFunction(values), spec)
    # V2: one arm per sign, same normalized shell law on both.
    M = stored
    pos = [lam * mp.e ** (lam * n) for n in range(0, M)]
    neg = [lam * mp.e ** (lam * n) for n in range(-1, -M - 1, -1)]
    values = [mp.e ** (-(lam - 1) * n) for n in range(-M, M + 1)]
    return BuiltCounterexample(TwoSidedRadialTree(spec.N, pos, neg),
                               RadialFunction(values, lo=-M), spec)


# ---------------------------------------------------------------------------
# Margin verification


@dataclass(frozen=True)
class MarginReport:
    """Pointwise margins F(n) = lap + u^p grad^q over the checked layers."""

    verified: bool
    max_margin: mp.mpf
    worst_layer: int
    layers: tuple[int, int]
    n_layers: int
    precision_bits: int
    tol: mp.mpf
    failures: tuple[tuple[int, mp.mpf], ...]
    undefined_layers: tuple[int, ...]
    label: str = "finite-horizon certificate"


class _TermKernel:
    """u^p |grad u|^q with p, q and q/2 converted once, at construction.

    Calling it on (u, grad^2) gives the nonlinear term, with the q = 0
    convention |grad u|^0 = 1; a value that is not positive, or a zero
    gradient with q < 0, is undefined and raises.  `grad_power` is the
    factor |grad u|^q from the gradient norm itself, `site` one site of the
    energy estimates, and `half_q` the exponent of grad^2 in the term (0
    when q = 0), which the float64 screens read.
    """

    __slots__ = ("p", "q", "_q", "half_q", "_sign")

    def __init__(self, p, q):
        self.q = Fraction(q)
        self.p = to_mpf(p)
        self._q = to_mpf(self.q)
        self.half_q = self._q / 2
        self._sign = (self.q > 0) - (self.q < 0)

    def __call__(self, u_value: mp.mpf, grad_sq: mp.mpf) -> mp.mpf:
        if not u_value > 0:
            raise InputError("solution value must be positive")
        if not self._sign:
            return mp.power(u_value, self.p)
        if grad_sq == 0:
            if self._sign > 0:
                return mp.mpf(0)
            raise InputError("zero gradient with q < 0: u^p |grad u|^q undefined")
        return mp.power(u_value, self.p) * mp.power(grad_sq, self.half_q)

    def grad_power(self, grad: mp.mpf) -> mp.mpf:
        """|grad u|^q from the gradient norm, 1 when q = 0."""
        return mp.power(grad, self._q) if self._sign else mp.mpf(1)

    def site(self, u_value, lap, grad_sq, tol):
        """(|grad u|^q, whether lap + u^p |grad u|^q <= 0 holds) at a site,
        with |grad u| = sqrt(grad^2); None for a zero gradient with q < 0."""
        grad = mp.sqrt(grad_sq)
        if grad == 0 and self._sign < 0:
            return None
        gq = self.grad_power(grad)
        term = mp.power(u_value, self.p) * gq
        return gq, check_nonpositive(lap + term, max(abs(lap), term), tol).holds


def term_kernel(p, q) -> _TermKernel:
    """The nonlinear term's kernel for exponents (p, q), for per-site loops."""
    return _TermKernel(p, q)


def nonlinear_term(u_value, grad_sq, p, q) -> mp.mpf:
    """u^p |grad u|^q with the q = 0 convention |grad u|^0 = 1.

    A zero gradient with q < 0 is undefined and raises; it is never a pass.
    """
    return term_kernel(p, q)(to_mpf(u_value), to_mpf(grad_sq))


def margin_at(tree, u: RadialFunction, p, q, n: int) -> mp.mpf:
    """F(n) for one layer; raises on a zero gradient with q < 0."""
    un, lap, grad_sq = layer_operators(tree, u)(n)
    return lap + term_kernel(p, q)(un, grad_sq)


def _checked_layers(tree, horizon: int | None) -> range:
    deepest = tree.interior_layers().stop - 1
    if horizon is None and deepest < 0:
        raise InputError("the tree has no checkable layer (it needs u at layer 1)")
    h = deepest if horizon is None else horizon
    if h < 0:
        raise InputError(f"horizon must be at least 0, got {h}")
    if h > deepest:
        raise InputError(f"horizon {h} exceeds checkable layers (needs u at {h + 1})")
    return range(0 if tree.one_sided else -h, h + 1)


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


def _screen(tree, u, layers, term_of) -> list:
    """Float64 bounds (lo, hi) on log2|margin| per layer, or None where undecided.

    A layer gets bounds only when they prove, about the values the mpf
    stream computes at the working precision, that u_n > 0, lap < 0 and
    that `screen.solution_check` passes lap + term: it is then negative and
    neither fails nor is borderline.  This is the check's input stage.
    The differences d_out, d_in and S = a d_out + b d_in,
    P = |a d_out| + |b d_in|, G = a d_out^2 + b d_in^2 and A = a + b (a one-
    sided root: a = 1, b = 0) are formed exactly from the integer mantissas
    of u and the conductances (a, b); log2|lap| = log2(|S|/A) and log2 grad^2
    = log2(G/2A) are read from the top 53 bits of each, within 5 units plus
    half a unit of the result, and the stream's grad^2 is within 10 more
    (the differences rounded once each, then 7 roundings).  The one error
    outside the shared budget is the mpf Laplacian's: the differences,
    a d_out, b d_in, their sum, a + b and the quotient are rounded, so
    |lap_mpf - lap| <= 5.1 2^-prec kappa |lap|, kappa = P/|S|.  With
    r = 5.2 2^-prec kappa_float <= 2^-8 (else None; 2^-1000 stands in for
    2^-prec beyond 1000 bits), log2|lap_mpf| is within 1.45 r of log2|lap|,
    and the check is widened by that.
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
        d = _aligned(-m1 if s1 else m1, x1, m0 if s0 else -m0, x0)
        return d and (d[0] + d[1], d[2])

    k0 = max(layers.start - lo_u - 1, 0)    # the differences over the layers' span, once each
    diffs = [diff(k) for k in range(k0, min(layers.stop - lo_u, len(values) - 1))]

    def bounds(n):
        root = n == 0 and tree.one_sided
        i = n - lo_u
        if not 0 <= i - k0 - (not root) < len(diffs) - (not root):
            return None
        lu = screen.log2_abs(values[i])
        d_out, d_in = diffs[i - k0], (0, 0) if root else diffs[i - k0 - 1]   # -d_in
        if lu is None or lu[0] or not (d_out and d_in):
            return None
        (do, xo), (di, xi) = d_out, d_in
        if root:                        # lap = d_out, grad^2 = d_out^2/2: a = 1, b = 0
            if tree.horizon < 1:
                return None
            ma, xa, mb, xb = 1, 0, 0, 0
        else:
            try:
                a, b = tree.conductances(n)
            except InputError:
                return None             # the stream raises here; leave it to it
            _, ma, xa, _ = a._mpf_
            _, mb, xb, _ = b._mpf_
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
        return screen.solution_check(p, h, lu[1], (1, log2(fS / fA) + (eS - eA)),
                                     log2(fG / fA) + (eG - eA - 1), 1.45 * r)[1]

    return [bounds(n) for n in layers]


def _verify_pass(tree, u, p, q, layers, bits, force) -> MarginReport | None:
    """One pass over the checked layers; None on a borderline margin unless forced.

    `_screen` excuses, in float64, the layers whose margin is provably
    negative, not borderline and below some other layer's margin, so that
    none of them can fail, ask for precision or hold the maximum.  Every
    other layer, undecided or a candidate for the maximum (the smallest
    |margin|), goes in layer order through the tree's operator stream and
    the term kernel with the verdict of `check_nonpositive`, so the report
    equals that of a loop over the reference functions bit for bit.
    """
    ops = layer_operators(tree, u)
    term_of = term_kernel(p, q)
    picked = screen.extremes(_screen(tree, u, layers, term_of), low=True)
    tol = rel_tol()
    ten_tol = 10 * tol
    max_margin = mp.mpf("-inf")
    worst = layers.start
    failures = []
    undefined = []
    for n in map(layers.__getitem__, picked):
        un, lap, grad_sq = ops(n)
        try:
            term = term_of(un, grad_sq)
        except InputError:
            undefined.append(n)
            continue
        margin = lap + term
        scale = max(abs(lap), term)
        if margin != 0 and abs(margin) <= ten_tol * scale and not force:
            return None
        if margin > max_margin:
            max_margin = margin
            worst = n
        if not margin <= tol * scale and len(failures) < 20:
            failures.append((n, margin))
    return MarginReport(
        verified=not failures and not undefined,
        max_margin=max_margin,
        worst_layer=worst,
        layers=(layers.start, layers.stop - 1),
        n_layers=len(layers) - len(undefined),
        precision_bits=bits,
        tol=tol,
        failures=tuple(failures),
        undefined_layers=tuple(undefined),
    )


def verify_radial(tree, u: RadialFunction, p, q, horizon: int | None = None,
                  rebuild_spec: RegimeSpec | None = None) -> MarginReport:
    """Check F(n) <= 0 at every layer within the horizon.

    Margins are compared against the relative tolerance of their dominant
    term.  If any nonzero margin lands within ten tolerances of zero, the
    pass is redone at doubled precision (rebuilding from closed forms when
    a spec is available) so borderline signs cannot be rounding artifacts.
    """
    bits = mp.mp.prec
    for bump in range(_MAX_PRECISION_BUMPS + 1):
        force = bump == _MAX_PRECISION_BUMPS
        with precision(bits):
            if bump > 0 and rebuild_spec is not None:
                rebuilt = build(rebuild_spec)
                tree, u = rebuilt.tree, rebuilt.u
            layers = _checked_layers(tree, horizon)
            report = _verify_pass(tree, u, p, q, layers, bits, force)
        if report is not None:
            return report
        bits *= 2
    raise AssertionError("unreachable: final verification pass is forced")


def verify(built: BuiltCounterexample, horizon: int | None = None) -> MarginReport:
    return verify_radial(built.tree, built.u, built.spec.p, built.spec.q,
                         horizon=horizon, rebuild_spec=built.spec)


def verify_graph(g: WeightedGraph, u: GraphFunction, p, q) -> MarginReport:
    """Vertexwise margin check on an explicit finite graph.

    A vertex's margin and verdict are functions of its stencil, so they are
    computed once per class of `site_classes`, at its first vertex; the
    report is then read off vertex by vertex in id order, as a loop over
    every vertex would write it.
    """
    ops = site_operators(g, u)
    term_of = term_kernel(p, q)
    tol = rel_tol()
    bits = mp.mp.prec
    class_of, reps = site_classes(g, u)
    checks = []                 # per class; None where the term is undefined
    for x in reps:
        ux, lap, grad_sq = ops(x)
        grad = mp.sqrt(grad_sq)
        try:
            term = term_of(ux, grad * grad)
        except InputError:
            checks.append(None)
            continue
        checks.append(check_nonpositive(lap + term, max(abs(lap), term), tol))
    max_margin = mp.mpf("-inf")
    worst = 0
    failures = []
    undefined = []
    for x, c in enumerate(class_of):
        check = checks[c]
        if check is None:
            undefined.append(x)
            continue
        if check.margin > max_margin:
            max_margin = check.margin
            worst = x
        if not check.holds and len(failures) < 20:
            failures.append((x, check.margin))
    return MarginReport(
        verified=not failures and not undefined,
        max_margin=max_margin,
        worst_layer=worst,
        layers=(0, g.n_vertices - 1),
        n_layers=g.n_vertices - len(undefined),
        precision_bits=bits,
        tol=tol,
        failures=tuple(failures),
        undefined_layers=tuple(undefined),
    )


# ---------------------------------------------------------------------------
# Calibration functions Lambda and their reported limits


def _lambda_kernel(regime: str, point: PQPoint, param):
    """(profile, combine) for regimes I-IV, with every constant hoisted.

    Lambda(m) = combine(profile(m-1), profile(m), profile(m+1)); a profile
    is the pair (W, g) for I and III, (W, f) for II and (m, 1/m) for IV.
    """
    p, q = to_mpf(point.p), to_mpf(point.q)
    neg_p, neg_half_q = -p, -q / 2
    if regime in ("I", "III"):
        ex = exponents(point, regime)
        lam_w, beta, sigma = to_mpf(ex.lam), to_mpf(ex.beta), to_mpf(ex.sigma)
        w_log = beta + to_mpf(param)
        p_minus_1 = p - 1

        def profile(m):
            m = mp.mpf(m)
            ln_m = mp.ln(m)
            return m ** lam_w * ln_m ** w_log, m ** sigma * ln_m ** beta

        def combine(prev, cur, nxt):
            (Wm, g_dn), (Wn, gn), (_, g_up) = prev, cur, nxt
            drift = 1 - gn * (Wn / g_up + Wm / g_dn) / (Wn + Wm)
            quad = ((Wn * (1 / gn - 1 / g_up) ** 2 + Wm * (1 / g_dn - 1 / gn) ** 2)
                    / (2 * (Wn + Wm)))
            if regime == "I":
                return gn ** p_minus_1 * drift * quad ** neg_half_q
            return drift * (1 / gn + 1) ** neg_p / gn * quad ** neg_half_q

        return profile, combine
    if regime == "II":
        eps = to_mpf(param)
        w_log, f_log = 1 + eps, -eps / 2

        def profile(m):
            m = mp.mpf(m)
            ln_m = mp.ln(m)
            return m * ln_m ** w_log, ln_m ** f_log

        def combine(prev, cur, nxt):
            (Wm, f_dn), (Wn, fn), (_, f_up) = prev, cur, nxt
            neg_lap = fn - (Wn * f_up + Wm * f_dn) / (Wn + Wm)
            quad = (Wn * (f_up - fn) ** 2 + Wm * (f_dn - fn) ** 2) / (2 * (Wn + Wm))
            return neg_lap * (fn + 1) ** neg_p * quad ** neg_half_q

        return profile, combine
    if regime == "IV":
        r = mp.e ** (-to_mpf(param))
        one_r = 1 + r
        two_one_r = 2 * one_r
        neg_half = mp.mpf("-0.5")

        def profile(m):
            m = mp.mpf(m)
            return m, 1 / m

        def combine(prev, cur, nxt):
            (m_dn, inv_dn), (_, inv_n), (_, inv_up) = prev, cur, nxt
            drift = inv_n - (inv_up + r / m_dn) / one_r
            quad = ((inv_up - inv_n) ** 2 + r * (inv_dn - inv_n) ** 2) / two_one_r
            return drift * (inv_n + 1) ** neg_p * quad ** neg_half

        return profile, combine
    raise InputError(f"unknown regime {regime!r}")


def _lambda_window(regime: str, point: PQPoint, param, lo: int, hi: int) -> list[mp.mpf]:
    """Lambda(m) for m = lo..hi (regimes I-IV) from one table of profiles.

    Equal, value for value, to lambda_fn at each m: the same kernel runs on
    the same profile values, each computed once instead of three times.
    """
    _check_lambda_index(regime, lo)
    profile, combine = _lambda_kernel(regime, point, param)
    table = [profile(m) for m in range(lo - 1, hi + 2)]
    return [combine(*table[i - 1:i + 2]) for i in range(1, len(table) - 1)]


def _v1_layer_rhs(point: PQPoint, lam, n: int) -> mp.mpf:
    """Closed-form right-hand sides whose value >= 1 makes layer n work."""
    q = to_mpf(point.q)
    lam = to_mpf(lam)
    root = 2 ** (q / 2) * (1 - mp.e ** (-lam / 4)) ** (1 - q)
    if n == 0:
        return root
    r = mp.e ** (-lam)
    return (root * ((1 + r) / (1 + mp.e ** (-lam / 2))) ** (q / 2)
            * (1 - mp.e ** (-3 * lam / 4)) / (1 + r))


def _v2_layer_rhs(point: PQPoint, lam) -> mp.mpf:
    q = to_mpf(point.q)
    lam = to_mpf(lam)
    if lam <= 1:
        return mp.mpf(0)
    r = mp.e ** (-lam)
    return ((1 - mp.e ** (-(lam - 1))) ** (1 - q)
            * (2 * (1 + r) / (1 + mp.e ** (lam - 2))) ** (q / 2)
            * (1 - mp.e ** (-1)) / (1 + r))


def lambda_fn(regime: str, point: PQPoint, param, n: int) -> mp.mpf:
    """Per-layer calibration value for the given regime at absolute index n.

    Regimes I-III need n >= 3 so that ln(n-1) stays positive; regime IV
    needs n >= 2.  For V1, n = 0 selects the root condition and any n >= 1
    the (n-independent) interior one; for V2 the closed form does not
    depend on n at all.
    """
    _check_lambda_index(regime, n)
    if regime == "V1":
        return _v1_layer_rhs(point, param, n)
    if regime == "V2":
        return _v2_layer_rhs(point, param)
    profile, combine = _lambda_kernel(regime, point, param)
    return combine(profile(n - 1), profile(n), profile(n + 1))


def _check_lambda_index(regime: str, n: int) -> None:
    if regime in ("I", "II", "III") and n < 3:
        raise InputError(f"regime {regime} calibration needs n >= 3, got {n}")
    if regime == "IV" and n < 2:
        raise InputError(f"regime IV calibration needs n >= 2, got {n}")


def lambda_limit(regime: str, point: PQPoint, param) -> mp.mpf:
    """Reported large-n limit of the calibration function (+inf for II)."""
    if regime == "II":
        return mp.inf
    if regime in ("I", "III"):
        sigma = to_mpf(exponents(point, regime).sigma)
        q = to_mpf(point.q)
        return (2 / sigma) ** (q / 2 - 1) * to_mpf(param)
    if regime == "IV":
        lam = to_mpf(param)
        return mp.sqrt(2) * (1 - mp.e ** (-lam)) / (1 + mp.e ** (-lam))
    raise InputError(f"regime {regime} has no closed-form limit; use lambda_fn directly")


# ---------------------------------------------------------------------------
# delta_0 thresholds from the root condition


@dataclass(frozen=True)
class DeltaBound:
    value: mp.mpf
    direction: str  # "upper" or "lower"


def _delta0_value(regime: str, point: PQPoint, n0: int) -> DeltaBound:
    p, q = to_mpf(point.p), to_mpf(point.q)
    if regime == "IV":
        return DeltaBound(2 ** (1 / (2 * p)) / (1 / mp.mpf(n0) + 1), "lower")
    if regime == "I":
        ex = exponents(point, "I")
        e = p + q - 1
    elif regime == "III":
        ex = exponents(point, "III")
        e = q - 1
    else:
        raise InputError(f"regime {regime} has no delta_0 formula")
    beta, sigma = to_mpf(ex.beta), to_mpf(ex.sigma)

    def g(m):
        return mp.mpf(m) ** sigma * mp.ln(m) ** beta

    diff = 1 / g(n0) - 1 / g(n0 + 1)
    if regime == "I":
        value = 2 ** (q / (2 * e)) * g(n0) ** (p / e) * diff ** ((1 - q) / e)
    else:
        value = 2 ** (q / (2 * e)) * (1 / g(n0) + 1) ** (-p / e) * diff ** ((1 - q) / e)
    return DeltaBound(value, "upper")


def delta0(spec: RegimeSpec) -> DeltaBound:
    """Closed-form root-layer bound on delta for regimes I, III, IV.

    For I and III delta must stay below the bound, for IV above it (p < 0
    flips the power).  The IV formula reduces to 2^(1/2p) (1/n0 + 1)^(-1):
    its root inequality does not involve the shell weights at all.
    """
    return _delta0_value(spec.regime, spec.point, spec.n0)


def interior_threshold(spec: RegimeSpec) -> mp.mpf:
    """The quantity that must stay below Lambda at every interior layer."""
    if spec.regime == "I":
        return mp.power(to_mpf(spec.delta), to_mpf(spec.p + spec.q - 1))
    if spec.regime == "III":
        return mp.power(to_mpf(spec.delta), to_mpf(spec.q - 1))
    if spec.regime == "IV":
        return mp.power(to_mpf(spec.delta), to_mpf(spec.p))
    return mp.mpf(1)


# ---------------------------------------------------------------------------
# Tail margin


@dataclass(frozen=True)
class TailReport:
    """Calibration-function clearance on the outer half of the horizon.

    A passing verify() plus a passing tail is still only a finite-horizon
    certificate with an empirical tail margin, never a proof for all n.
    """

    ok: bool
    window: tuple[int, int]
    min_value: mp.mpf
    threshold: mp.mpf
    required: mp.mpf
    label: str = "finite-horizon certificate + tail margin"


def tail_check(spec: RegimeSpec, horizon: int | None = None) -> TailReport:
    H = spec.horizon if horizon is None else horizon
    if spec.regime in ("V1", "V2"):
        vals = [lambda_fn(spec.regime, spec.point, spec.lam, n) for n in (0, 1)]
        min_value = min(vals)
        required = to_mpf(V_COND_MARGIN)
        return TailReport(ok=min_value >= required, window=_tail_window(H),
                          min_value=min_value, threshold=mp.mpf(1), required=required)
    param = spec.eps if spec.regime in ("I", "II", "III") else spec.lam
    return _interior_tail(spec, H, _window_min(spec.regime, spec.point, param, spec.n0, H))


def _tail_window(H: int) -> tuple[int, int]:
    return max(1, math.ceil(H / 2)), H


def _window_min(regime, point, param, n0, H) -> mp.mpf:
    """min Lambda(n + n0) over the tail window of horizon H."""
    lo, hi = _tail_window(H)
    return min(_lambda_window(regime, point, param, lo + n0, hi + n0))


def _interior_tail(spec: RegimeSpec, H: int, min_value) -> TailReport:
    """The tail report of regimes I-IV, given the window minimum."""
    threshold = interior_threshold(spec)
    required = 2 * threshold
    return TailReport(ok=min_value >= required, window=_tail_window(H),
                      min_value=min_value, threshold=threshold, required=required)


# ---------------------------------------------------------------------------
# Certification: a pinned spec, or the calibration search


@dataclass(frozen=True)
class Certificate:
    """A construction with the margin report and tail that certify it."""

    built: BuiltCounterexample
    report: MarginReport
    tail: TailReport

    @property
    def spec(self) -> RegimeSpec:
        return self.built.spec

    @property
    def ok(self) -> bool:
        return self.report.verified and self.tail.ok


def certify_spec(spec: RegimeSpec) -> Certificate:
    """Build, verify and tail a fully pinned spec, once each."""
    built = build(spec)
    return Certificate(built, verify(built), tail_check(spec))


def _probe_offsets(H: int) -> list[int]:
    probes = {1, 2, 3, 5, H // 2, H}
    k = 8
    while k < H:
        probes.add(k)
        k *= 4
    return sorted(n for n in probes if n >= 1)


def certify(regime: str, point: PQPoint, *, N: int, horizon: int,
            eps=None, lam=None) -> Certificate:
    """Search the free parameters until build + verify + tail all pass.

    Returns the accepted candidate's build, margin report and tail, so a
    caller never has to recompute them.  Regimes I-IV walk n0 through
    powers of two; the shift n -> n + n0 is what makes the calibration
    function positive and flat enough on the horizon.  delta is fixed from
    the recipe bounds: the root bound delta_0, the limit-based
    delta_1 = (limit/2)^(1/e), and a tail cap (window-minimum/2)^(1/e)
    that keeps the factor-two tail clearance reachable; with p < 0 (regime
    IV) the three combine through max instead of min.  Regimes V double
    the rate lambda from 1 until the closed-form layer conditions clear 1
    with a five percent margin.
    """
    if regime not in REGIMES:
        raise InputError(f"unknown regime {regime!r}")
    if not _region_matches(regime, point):
        raise InputError(
            f"(p,q)=({point.p},{point.q}) is not in the exponent region of regime {regime}"
        )
    _check_size(N, horizon)
    if regime in ("I", "II", "III"):
        if eps is None:
            raise InputError(f"regime {regime} calibration needs eps")
        eps = Fraction(eps)
        if eps <= 0:
            raise InputError("eps must be positive")
    if regime == "IV" and lam is None:
        raise InputError("regime IV calibration needs lam")
    if regime in ("V1", "V2"):
        return _certify_rate(regime, point, N=N, horizon=horizon)
    if regime == "II":
        return _certify_log(point, eps, N=N, horizon=horizon)
    return _certify_poly(regime, point, eps=eps, lam=lam, N=N, horizon=horizon)


def calibrate(regime: str, point: PQPoint, *, N: int, horizon: int,
              eps=None, lam=None) -> RegimeSpec:
    """The spec `certify` accepts: the calibrated free parameters."""
    return certify(regime, point, N=N, horizon=horizon, eps=eps, lam=lam).spec


def _certify_poly(regime, point, *, eps, lam, N, horizon) -> Certificate:
    if regime == "I":
        e = to_mpf(point.p + point.q - 1)
        param = eps
    elif regime == "III":
        e = to_mpf(point.q - 1)
        param = eps
    else:
        e = to_mpf(point.p)
        param = to_mpf(lam)
    delta1 = mp.power(lambda_limit(regime, point, param) / 2, 1 / e)
    probes = _probe_offsets(horizon)
    profile, lam_of = _lambda_kernel(regime, point, param)

    def probe(m):
        """lambda_fn(regime, point, param, m), from the kernel built once above."""
        _check_lambda_index(regime, m)
        return lam_of(profile(m - 1), profile(m), profile(m + 1))

    best_margin = None
    n0 = 2
    while n0 <= _N0_CAP:
        # the first non-positive probe rules the candidate out; skip the rest
        probe_vals = list(takewhile(lambda v: v > 0, (probe(n + n0) for n in probes)))
        if len(probe_vals) == len(probes):
            wmin = _window_min(regime, point, param, n0, horizon)
            d0 = _delta0_value(regime, point, n0)
            tail_cap = mp.power(wmin / 2, 1 / e)
            combine = max if regime == "IV" else min
            delta = combine(d0.value, delta1, tail_cap)
            spec = RegimeSpec(regime=regime, p=point.p, q=point.q, N=N, horizon=horizon,
                              eps=None if regime == "IV" else eps,
                              lam=to_mpf(lam) if regime == "IV" else None,
                              n0=n0, delta=delta)
            if min(probe_vals) >= interior_threshold(spec):
                built = build(spec)
                cert = Certificate(built, verify(built), _interior_tail(spec, horizon, wmin))
                if cert.ok:
                    return cert
                if best_margin is None or cert.report.max_margin < best_margin:
                    best_margin = cert.report.max_margin
        n0 *= 2
    raise CalibrationError(
        f"regime {regime}: no passing n0 up to {_N0_CAP}", best_margin=best_margin
    )


def _certify_log(point, eps, *, N, horizon) -> Certificate:
    best_margin = None
    n0 = 2
    while n0 <= _N0_CAP:
        spec = RegimeSpec(regime="II", p=point.p, q=point.q, N=N, horizon=horizon,
                          eps=eps, n0=n0)
        built = build(spec)
        report = verify(built)
        if report.verified:
            tail = tail_check(spec)
            if tail.ok:
                return Certificate(built, report, tail)
        if best_margin is None or report.max_margin < best_margin:
            best_margin = report.max_margin
        n0 *= 2
    raise CalibrationError(f"regime II: no passing n0 up to {_N0_CAP}",
                           best_margin=best_margin)


def _certify_rate(regime, point, *, N, horizon) -> Certificate:
    required = to_mpf(V_COND_MARGIN)
    best_margin = None
    lam = mp.mpf(1)
    while lam <= _LAMBDA_CAP:
        conds = [lambda_fn(regime, point, lam, n) for n in (0, 1)]
        if min(conds) >= required:
            spec = RegimeSpec(regime=regime, p=point.p, q=point.q, N=N,
                              horizon=horizon, lam=lam)
            built = build(spec)
            report = verify(built)
            if report.verified:
                return Certificate(built, report, tail_check(spec))
            if best_margin is None or report.max_margin < best_margin:
                best_margin = report.max_margin
        lam *= 2
    raise CalibrationError(
        f"regime {regime}: closed-form conditions never cleared {required} up to "
        f"lambda={_LAMBDA_CAP}", best_margin=best_margin)


# ---------------------------------------------------------------------------
# Volume growth


@dataclass(frozen=True)
class VolumeBand:
    ratio_min: mp.mpf
    ratio_max: mp.mpf

    @property
    def spread(self) -> mp.mpf:
        return self.ratio_max / self.ratio_min


def _law_parameter(x, what: str) -> mp.mpf:
    """A growth law's parameter as a finite mpf at the working precision."""
    x = to_mpf(x)
    if not mp.isfinite(x):
        raise InputError(f"{what} must be finite, got {x}")
    return x


@dataclass(frozen=True)
class PowerLogLaw:
    """The growth law n^expo (ln n)^logexp: positive and finite for n >= 2.

    The exponents are converted to finite mpfs when the law is built, and
    kept, so that `volume_band` can bound log2 of the law in float64 before
    it evaluates it anywhere.  A call evaluates exp(expo ln n + logexp ln ln n)
    at 20 bits above the working precision, with one final rounding to it
    (its error is bounded in `_band_bounds`).
    """

    expo: mp.mpf
    logexp: mp.mpf

    def __post_init__(self):
        object.__setattr__(self, "expo", _law_parameter(self.expo, "power-log exponent"))
        object.__setattr__(self, "logexp", _law_parameter(self.logexp, "power-log exponent"))

    def __call__(self, n: int) -> mp.mpf:
        prec = mp.mp.prec
        wp = prec + 20
        ln_n = mpf_log(from_int(n), wp, round_nearest)
        t = mpf_mul(self.expo._mpf_, ln_n, wp, round_nearest)
        if self.logexp:
            lnln_n = mpf_log(ln_n, wp, round_nearest)
            t = mpf_add(t, mpf_mul(self.logexp._mpf_, lnln_n, wp, round_nearest),
                        wp, round_nearest)
        return mp.make_mpf(mpf_exp(t, prec, round_nearest))


@dataclass(frozen=True)
class ExpLaw:
    """The growth law exp(lam n): positive and finite for every int n.

    lam is converted to a finite mpf when the law is built.  A call forms
    lam n exactly and rounds only exp(lam n), once, to the working precision:
    mpmath's exp is within 1 ulp there.  (Raising e, itself rounded, to the
    power lam n would multiply e's rounding error by lam n.)
    """

    lam: mp.mpf

    def __post_init__(self):
        object.__setattr__(self, "lam", _law_parameter(self.lam, "exponential rate"))

    def __call__(self, n: int) -> mp.mpf:
        return mp.make_mpf(mpf_exp(mpf_mul(self.lam._mpf_, from_int(n)), mp.mp.prec,
                                   round_nearest))


def volume_target(spec: RegimeSpec) -> PowerLogLaw | ExpLaw:
    """The growth law the construction is designed to realize."""
    point = spec.point
    if spec.regime == "I":
        expo = (2 * spec.p + spec.q) / (spec.p + spec.q - 1)
        logexp = to_mpf(exponents(point, "I").beta) + to_mpf(spec.eps)
        return PowerLogLaw(expo, logexp)
    if spec.regime == "II":
        return PowerLogLaw(2, 1 + to_mpf(spec.eps))
    if spec.regime == "III":
        logexp = to_mpf(exponents(point, "III").beta) + to_mpf(spec.eps)
        return PowerLogLaw(spec.q / (spec.q - 1), logexp)
    return ExpLaw(spec.lam)


def _band_bounds(vols: list, law: PowerLogLaw, window: range) -> list:
    """Float64 bounds (lo, hi) on log2 of the mpf ratio vols[n] / law(n),
    per n of the window; (-inf, inf) where undecided.

    The screen's input stage: the ratio is vols[n] n^-A (ln n)^-B, A and B
    the law's exponents, and `screen.log2_bound` takes log2 vols[n], read
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
    log2, log, log2_abs, log2_bound = math.log2, math.log, screen.log2_abs, screen.log2_bound
    bounds = []
    for n in window:
        lv = log2_abs(vols[n])
        bound = lv and not lv[0] and log2_bound(lv[1], ((a, log2(n)), (b, log2(log(n)))))
        bounds.append((bound[0] - bound[1], bound[0] + bound[1]) if bound else undecided)
    return bounds


def volume_band(built: BuiltCounterexample, target: Callable[[int], object],
                n_lo: int, n_hi: int) -> VolumeBand:
    """Min and max of mu(B(o, n)) / target(n) over [n_lo, n_hi].

    A bounded band certifies two-sided comparability at desk scale; a band
    that keeps widening as n_hi grows is how a wrong growth law shows up.

    For a `PowerLogLaw` target, `_band_bounds` excuses in float64 every n
    whose ratio is provably above another n's and below a third's, so that
    it can hold neither extreme; the law is evaluated in mpf only at the
    others, in increasing n, and the band equals that of the loop over every
    n bit for bit.  Any other target (an `ExpLaw`, whose ratios are flat to
    rounding, or a plain callable) is evaluated at every n and must be
    positive and finite there.
    """
    window = _band_window(n_lo, n_hi)
    return _volume_band(built.tree.ball_volumes(n_hi), target, window)


def _band_window(n_lo: int, n_hi: int) -> range:
    """The radii n_lo..n_hi of a volume band, checked."""
    if n_lo < 2:
        raise InputError("volume band needs n_lo >= 2 (targets may involve ln n)")
    if n_hi < n_lo:
        raise InputError("need n_hi >= n_lo")
    return range(n_lo, n_hi + 1)


def _volume_band(vols: list, target: Callable[[int], object], window: range) -> VolumeBand:
    """`volume_band` over a checked window, from the running volumes vols[0..n_hi]."""
    if isinstance(target, PowerLogLaw):
        picked = screen.extremes(_band_bounds(vols, target, window), low=True, high=True)
        window = [window[i] for i in picked]
    prec = mp.mp.prec
    ratio_min = ratio_max = None
    for n in window:                # on raw mpf values: the operations of mpf's /, < and >
        t = to_mpf(target(n))
        raw = t._mpf_
        if raw[0] or not raw[1]:    # negative, zero, infinite or nan
            raise InputError(f"target must be positive, got {t} at n={n}")
        ratio = mpf_div(vols[n]._mpf_, raw, prec, round_nearest)
        if ratio_min is None or mpf_lt(ratio, ratio_min):
            ratio_min = ratio
        if ratio_max is None or mpf_gt(ratio, ratio_max):
            ratio_max = ratio
    return VolumeBand(ratio_min=mp.make_mpf(ratio_min), ratio_max=mp.make_mpf(ratio_max))


def layer_rows(built: BuiltCounterexample, horizon: int | None = None):
    """Yield (layer, w, u, lap, grad, margin) across the checked layers."""
    layers = _checked_layers(built.tree, horizon)
    term_of = term_kernel(built.spec.p, built.spec.q)
    for n, (un, lap, grad_sq) in zip(layers, map(layer_operators(built.tree, built.u), layers)):
        grad = mp.sqrt(grad_sq)
        try:
            margin = lap + term_of(un, grad * grad)
        except InputError:
            margin = mp.nan
        try:
            w = built.tree.weight(n)
        except InputError:
            w = mp.nan
        yield (n, w, un, lap, grad, margin)
