"""The closed forms as they read before each was evaluated once per certify.

`_poly_profiles` (the profile `build` read for regimes I-IV), `build`,
`_lambda_kernel` and `_delta0_value` are the package's functions as they
were written, on mpf expressions: the I-III profile spelled out in all
three, and the exponential builds as `mp.e ** (lam * n)`.  `lambda_fn` and
`lambda_window` evaluate Lambda from this kernel as the package's
`lambda_fn` and `_lambda_window` did.  `test_reference.py` holds the
raw-value closed forms to these, exactly.
"""

from __future__ import annotations

import mpmath as mp

from liouville.counterexamples import (BuiltCounterexample, DeltaBound, RegimeSpec,
                                       validate_spec)
from liouville.errors import InputError
from liouville.numerics import to_mpf
from liouville.radial import RadialFunction, RadialTree, TwoSidedRadialTree
from liouville.regions import PQPoint, exponents


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


def lambda_fn(regime: str, point: PQPoint, param, n: int) -> mp.mpf:
    profile, combine = _lambda_kernel(regime, point, param)
    return combine(profile(n - 1), profile(n), profile(n + 1))


def lambda_window(regime: str, point: PQPoint, param, lo: int, hi: int) -> list[mp.mpf]:
    profile, combine = _lambda_kernel(regime, point, param)
    table = [profile(m) for m in range(lo - 1, hi + 2)]
    return [combine(*table[i - 1:i + 2]) for i in range(1, len(table) - 1)]
