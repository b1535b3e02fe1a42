"""The calibration search as it read before its three loops became one.

`_certify_poly` (regimes I, III, IV), `_certify_log` (II) and
`_certify_rate` (V1, V2) are the package's search loops as they were
written, each with its own build, verify, tail, best margin and
`CalibrationError`; `certify` is the dispatch that called them, past its
parameter checks.  The caps are this module's own, so a test that lowers
the package's must lower these too.  `test_reference.py` holds the one
search loop to them, exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import takewhile

import mpmath as mp

from liouville.counterexamples import (V_COND_MARGIN, Certificate, RegimeSpec, _check_lambda_index,
                                       _delta0_value, _interior_tail, _lambda_kernel,
                                       _probe_offsets, _window_min, build, interior_threshold,
                                       lambda_fn, lambda_limit, tail_check, verify)
from liouville.errors import CalibrationError
from liouville.numerics import to_mpf

_N0_CAP = 2 ** 34
_LAMBDA_CAP = 64


def certify(regime, point, *, N, horizon, eps=None, lam=None) -> Certificate:
    if regime in ("I", "II", "III"):
        eps = Fraction(eps)
    if regime in ("V1", "V2"):
        return _certify_rate(regime, point, N=N, horizon=horizon)
    if regime == "II":
        return _certify_log(point, eps, N=N, horizon=horizon)
    return _certify_poly(regime, point, eps=eps, lam=lam, N=N, horizon=horizon)


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
    profile, lam_of, _ = _lambda_kernel(regime, point, param)

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
