"""The fast paths against their reference definitions, exactly.

The fused margin pass must report what a loop over the per-layer reference
functions (`laplacian_at`, `gradient_sq_at`, `nonlinear_term`, `margin_at`,
`check_nonpositive`) reports, and the tabulated Lambda window must equal
`lambda_fn` point by point.  The nonexistence machinery, rewritten onto
the operator streams and the term kernel, must report what its per-site
loops did (kept verbatim in `before_streams.py`; the graph checks and the
CSV rows, which read the radial arithmetic, against those loops with only
the lines of that arithmetic changed), and the tree classes,
merged onto one layer chain, must give what their separate bodies gave
(kept verbatim in `before_layer_chain.py`).  The volume band, which
screens its window in float64, must give what the loop over every n gave
(kept verbatim in `before_band.py`), and the Nash-Williams sum, which
runs on raw mpf values, must give what its loop over mpf objects gave
(kept verbatim in `before_nash_williams.py`).  The closed forms, each
evaluated once per certify on raw values, must give what their mpf
expressions gave (kept verbatim in `before_build.py`; the exponentials of
IV, V1 and V2 against that file with only its powers of the rounded e made
the exp-once call), and the exponentials and exponential volume laws made
from geometric runs must give the one mpmath call per n they stand in for.
The decimal reader `parse_decimal` must give what `mp.mpf` gives.  Every
comparison is `==`: the fast paths perform the same floating-point
operations in the same order, or, for the geometric runs, use a value only
where a rounding test shows it is the call's, so any difference at all is
a bug.
"""

import __future__
import dataclasses
import inspect
import math
import random
import types
from fractions import Fraction as F

import mpmath as mp
import pytest
from mpmath.libmp import ften, mpf_pow_int
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import before_band
import before_build
import before_deviations
import before_layer_chain as before
import before_nash_williams
import before_quotients
import before_screen
import before_search
import before_streams as old
import liouville as lv
from liouville import caccioppoli, descent, graphs, numerics, radial, screen
from liouville import counterexamples as cx
from liouville.errors import CalibrationError, InputError

# The six acceptance regimes with their free parameters, as in the benchmark.
REGIMES = {
    "I": (F(2), F(1), {"eps": F(1, 10)}),
    "II": (F(0), F(3), {"eps": F(1, 2)}),
    "III": (F(-1), F(3, 2), {"eps": F(1, 10)}),
    "IV": (F(-2), F(1), {"lam": F(1)}),
    "V1": (F(1, 2), F(1, 2), {}),
    "V2": (F(2), F(-1), {}),
}


def reference_pass(tree, u, p, q, layers):
    """The margin pass as a loop over the reference functions.

    Returns the report's fields and whether any margin was borderline.
    """
    tol = lv.rel_tol()
    max_margin = mp.mpf("-inf")
    worst = layers.start
    failures, undefined = [], []
    borderline = False
    for n in layers:
        lap = tree.laplacian_at(u, n)
        try:
            term = lv.nonlinear_term(u.value(n), tree.gradient_sq_at(u, n), p, q)
        except InputError:
            undefined.append(n)
            continue
        assert lv.margin_at(tree, u, p, q, n) == lap + term
        check = lv.check_nonpositive(lap + term, max(abs(lap), term), tol)
        borderline = borderline or check.borderline
        if check.margin > max_margin:
            max_margin = check.margin
            worst = n
        if not check.holds and len(failures) < 20:
            failures.append((n, check.margin))
    fields = {
        "verified": not failures and not undefined,
        "max_margin": max_margin,
        "worst_layer": worst,
        "failures": tuple(failures),
        "undefined_layers": tuple(undefined),
        "n_layers": len(layers) - len(undefined),
    }
    return fields, borderline


def assert_pass_matches(tree, u, p, q, layers):
    """The fused pass equals the reference loop; returns the reference verdicts."""
    expected, borderline = reference_pass(tree, u, p, q, layers)
    bits = mp.mp.prec
    forced = cx._verify_pass(tree, u, p, q, layers, bits, force=True)
    got = {name: getattr(forced, name) for name in expected}
    assert got == expected
    assert forced.layers == (layers.start, layers.stop - 1)
    assert forced.precision_bits == bits and forced.tol == lv.rel_tol()
    unforced = cx._verify_pass(tree, u, p, q, layers, bits, force=False)
    assert (unforced is None) == borderline
    if unforced is not None:
        assert unforced == forced
    return expected, borderline


# ---------------------------------------------------------------------------
# fused margin pass


@pytest.mark.parametrize("regime", list(REGIMES))
def test_fused_pass_matches_reference_on_regimes(regime):
    p, q, params = REGIMES[regime]
    cert = lv.certify(regime, lv.pq(p, q), N=3, horizon=40, **params)
    built = cert.built
    layers = built.tree.checked_layers(None)
    assert_pass_matches(built.tree, built.u, p, q, layers)


def test_fused_pass_matches_reference_on_a_failing_build():
    spec = lv.RegimeSpec(regime="I", p=F(2), q=F(1), N=3, horizon=60, eps=F(1, 10),
                         n0=2, delta=mp.mpf(100))
    built = lv.build(spec)
    expected, _ = assert_pass_matches(built.tree, built.u, spec.p, spec.q,
                                      range(0, 61))
    assert expected["failures"] and not expected["verified"]


EXPONENTS = [(F(2), F(1)), (F(1, 2), F(1, 2)), (F(2), F(-1)), (F(0), F(3)),
             (F(-1), F(3, 2)), (F(1), F(0)), (F(-3, 2), F(0)), (F(3), F(-1, 2))]


def random_profile(rng, lo, hi):
    values = [mp.mpf(rng.uniform(0.1, 3.0)) for _ in range(lo, hi + 1)]
    k = rng.randrange(1, len(values) - 1)
    values[k - 1] = values[k + 1] = values[k]          # one flat layer
    if rng.random() < 0.3:
        values[rng.randrange(len(values))] = -mp.mpf(rng.uniform(0.1, 1.0))
    return lv.RadialFunction(values, lo=lo)


@pytest.mark.parametrize("seed", range(6))
def test_fused_pass_matches_reference_on_random_one_sided(seed):
    rng = random.Random(1000 + seed)
    for p, q in EXPONENTS:
        H = rng.randrange(3, 40)
        tree = lv.RadialTree(rng.choice([2, 3, 4]),
                             [mp.mpf(rng.uniform(0.2, 5.0)) for _ in range(H + 1)])
        u = random_profile(rng, 0, H)
        for h in (0, rng.randrange(0, H), H - 1):   # the root alone, and longer runs
            assert_pass_matches(tree, u, p, q, range(0, h + 1))


@pytest.mark.parametrize("seed", range(6))
def test_fused_pass_matches_reference_on_random_two_sided(seed):
    rng = random.Random(2000 + seed)
    for p, q in EXPONENTS:
        M = rng.randrange(2, 25)
        tree = lv.TwoSidedRadialTree(rng.choice([2, 3, 4]),
                                     [mp.mpf(rng.uniform(0.2, 5.0)) for _ in range(M)],
                                     [mp.mpf(rng.uniform(0.2, 5.0)) for _ in range(M)])
        u = random_profile(rng, -M, M)
        for h in (0, rng.randrange(0, M), M - 1):
            assert_pass_matches(tree, u, p, q, range(-h, h + 1))


def test_fused_pass_flat_layer_semantics():
    tree = lv.RadialTree(3, [1, 2, 3, 4, 5])
    u = lv.RadialFunction([3, 2, 2, 2, 1])          # layer 2 has zero gradient
    for q, undefined in ((F(-1), (2,)), (F(1), ()), (F(0), ())):
        expected, _ = assert_pass_matches(tree, u, F(1), q, range(0, 4))
        assert expected["undefined_layers"] == undefined


def test_fused_pass_ties_and_all_undefined():
    """A constant profile: every margin ties at 0 (q > 0), or none is defined (q < 0)."""
    tree = lv.TwoSidedRadialTree(3, [1, 2, 3, 4], [4, 3, 2, 1])
    u = lv.RadialFunction([2] * 9, lo=-4)
    tied, _ = assert_pass_matches(tree, u, F(1), F(1), range(-3, 4))
    assert tied["worst_layer"] == -3 and tied["max_margin"] == 0
    none, _ = assert_pass_matches(tree, u, F(1), F(-1), range(-3, 4))
    assert none["worst_layer"] == -3 and none["n_layers"] == 0


@pytest.mark.parametrize("excess,borderline", [("1e-35", True), ("5e-30", True),
                                               ("1e-27", False)])
def test_fused_pass_borderline_matches_reference(excess, borderline):
    """Layer 2 is tuned so that lap = -u^p (1 + excess): within ten relative
    tolerances of zero the pass must ask for more precision."""
    tree = lv.RadialTree(3, [1, 2, 3, 4, 5, 6])
    u_n = mp.mpf(2)
    a, b = tree.conductances(2)
    values = [mp.mpf(3), u_n, u_n, u_n - u_n * (a + b) / a * (1 + mp.mpf(excess)),
              mp.mpf("0.5"), mp.mpf("0.25"), mp.mpf("0.1")]
    u = lv.RadialFunction(values)
    assert assert_pass_matches(tree, u, F(1), F(0), range(0, 5))[1] == borderline


# ---------------------------------------------------------------------------
# the float64 screen in front of the margin pass

SCREEN_EXPONENTS = EXPONENTS + [(F(0), F(0))]
# tau in lap = -u^p (1 + tau) at a planted layer (q = 0): margin/scale is
# -tau/(1 + tau), so these sit on both sides of tol, of ten tolerances, of
# zero and of the screen's own threshold 1 - 2^(-2^-30) ~ 6.5e-10.
PLANTED_TAUS = ["0", "1e-30", "-1e-30", "1e-29", "-1e-29", "1.1e-29", "-1.1e-29",
                "6.4e-10", "-6.4e-10", "6.6e-10", "7e-10", "1e-9", "1e-8", "1e-3"]


@st.composite
def screen_cases(draw):
    """A recipe for a profile on a one- or two-sided tree, built by `build_case`."""
    kind = draw(st.sampled_from(["scaled", "near_constant", "ties", "planted"]))
    exponents = SCREEN_EXPONENTS if kind != "planted" else [(F(1), F(0)), (F(-3, 2), F(0)),
                                                            (F(0), F(0))]
    one_sided = draw(st.booleans())
    M = draw(st.integers(2, 9))
    n_values = M + 1 if one_sided else 2 * M + 1
    floats = st.floats(0.1, 3.0)
    return {
        "bits": draw(st.sampled_from([53, 256])),
        "one_sided": one_sided,
        "N": draw(st.integers(2, 4)),
        "M": M,
        "kind": kind,
        "pq": draw(st.sampled_from(exponents)),
        "weights": draw(st.lists(floats, min_size=2 * M + 1, max_size=2 * M + 1)),
        "weight_exp": draw(st.sampled_from([-400, 0, 400])),
        "growth": draw(st.sampled_from([0, 1, 8])),
        "values": draw(st.lists(floats, min_size=n_values, max_size=n_values)),
        "value_exp": draw(st.sampled_from([-400, 0, 400])),
        "constant": draw(st.sampled_from(["1", "2.5"])),
        "digits": draw(st.integers(0, 35)),
        "curvature": draw(st.sampled_from(["0.5", "1", "4"])),
        "plant": (draw(st.integers(0, 2 * M)), draw(st.sampled_from(PLANTED_TAUS))),
        "flat": draw(st.none() | st.integers(0, n_values - 1)),
        "non_positive": draw(st.none() | st.tuples(st.integers(0, n_values - 1),
                                                   st.sampled_from(["0", "-0.5"]))),
        "negated": draw(st.booleans()),
    }


def build_case(case):
    """(tree, u, p, q, layers) at the working precision."""
    M, lo = case["M"], 0 if case["one_sided"] else -case["M"]
    p, q = case["pq"]
    scale = mp.mpf(10) ** case["weight_exp"]
    w = [mp.mpf(x) * scale * mp.e ** (case["growth"] * k) for k, x in enumerate(case["weights"])]
    if case["kind"] == "ties":
        w = [w[0]] * len(w)
        c = mp.mpf(case["curvature"])
        values = [c * (M + 1) ** 2 + 1 - c * n * n for n in range(lo, M + 1)]
    elif case["kind"] == "near_constant":
        tiny = mp.mpf(10) ** -case["digits"]
        values = [mp.mpf(case["constant"]) + tiny * mp.mpf(x) for x in case["values"]]
    else:
        scale = mp.mpf(10) ** case["value_exp"]
        values = [mp.mpf(x) * scale for x in case["values"]]
    if case["one_sided"]:
        tree = lv.RadialTree(case["N"], w[:M + 1])
    else:
        tree = lv.TwoSidedRadialTree(case["N"], w[:M], w[M:2 * M])
    layers = tree.checked_layers(None)
    if case["kind"] == "planted":
        # set u_{j+1} so that lap_j = -u_j^p (1 + tau)
        j = layers[case["plant"][0] % len(layers)]
        target = -mp.power(values[j - lo], p) * (1 + mp.mpf(case["plant"][1]))
        if j == 0 and case["one_sided"]:
            values[1] = values[0] + target
        else:
            a, b = tree.conductances(j)
            d_in = values[j - 1 - lo] - values[j - lo]
            values[j + 1 - lo] = values[j - lo] + (target * (a + b) - b * d_in) / a
    if case["flat"] is not None and 0 < case["flat"] < len(values) - 1:
        k = case["flat"]
        values[k - 1] = values[k + 1] = values[k]
    if case["non_positive"] is not None:
        k, value = case["non_positive"]
        values[k] = mp.mpf(value)
    if case["negated"]:
        values = [-v for v in values]
    return tree, lv.RadialFunction(values, lo=lo), p, q, layers


def assert_screen_sound(tree, u, p, q, layers):
    """Every layer the screen bounds as a pass is a negative, passing,
    non-borderline margin whose log2|margin| lies inside the bounds; every
    layer it bounds as a failure a positive, failing, non-borderline margin
    whose log2 margin lies inside them."""
    bounds, fails = cx._screen(tree, u, layers, lv.term_kernel(p, q))
    assert len(bounds) == len(fails) == len(layers)
    ops = lv.layer_operators(tree, u)
    for n, bound, fail in zip(layers, bounds, fails):
        assert bound is None or fail is None
        if bound is None and fail is None:
            continue
        un, lap, grad_sq = ops(n)
        term = lv.nonlinear_term(un, grad_sq, p, q)
        check = lv.check_nonpositive(lap + term, max(abs(lap), term))
        assert un > 0 and grad_sq > 0 and not check.borderline
        if fail:
            assert check.margin > 0 and not check.holds
            assert fail[0] <= mp.log(check.margin, 2) <= fail[1]
            continue
        assert lap < 0 and check.margin < 0 and check.holds
        assert bound[0] <= mp.log(-check.margin, 2) <= bound[1]
    return bounds


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(screen_cases())
def test_screened_pass_matches_reference(case):
    with mp.workprec(case["bits"]):
        tree, u, p, q, layers = build_case(case)
        assert_pass_matches(tree, u, p, q, layers)
        assert_screen_sound(tree, u, p, q, layers)


def test_screen_bounds_hold_at_53_bits_under_cancellation():
    """A layer whose Laplacian cancels, a d_out ~ -b d_in with kappa up to
    ~1e12 (regime III's range): at 53 bits the mpf lap is then off by up to
    ~1e-4 relative, and the bounds must still hold."""
    rng = random.Random(53)
    with mp.workprec(53):
        screened = 0
        for digits in range(2, 13):
            for _ in range(6):
                tree = lv.RadialTree(3, [mp.mpf(rng.uniform(0.2, 5.0)) for _ in range(4)])
                a, b = tree.conductances(1)
                D = mp.mpf(10) ** digits * mp.mpf(rng.uniform(1, 2))
                lap = -mp.mpf(rng.uniform(1.05, 2.0))
                u1 = 3 * D
                values = [u1 + D, u1, u1 - (b * D - lap * (a + b)) / a, mp.mpf(1)]
                u = lv.RadialFunction(values)
                bounds = assert_screen_sound(tree, u, F(0), F(0), range(1, 2))
                screened += bounds[0] is not None
                assert_pass_matches(tree, u, F(0), F(0), range(0, 3))
        assert screened >= 50


@pytest.mark.parametrize("bits", [53, 256])
def test_screen_bounds_hold_at_its_threshold(bits):
    """term/|lap| = 1/(1 + tau) on a grid of tau around the screen's threshold
    2^(2^-30) - 1 ~ 6.5e-10, where log2(1 - 2^x) is steepest."""
    rng = random.Random(bits)
    with mp.workprec(bits):
        for k in range(-40, 41):
            tau = mp.mpf("6.456e-10") * (1 + mp.mpf(k) / 400)
            tree = lv.RadialTree(3, [mp.mpf(rng.uniform(0.2, 5.0)) for _ in range(4)])
            values = [mp.mpf(rng.uniform(0.5, 3.0)) for _ in range(4)]
            a, b = tree.conductances(1)
            d_in = values[0] - values[1]
            values[2] = values[1] + (-(1 + tau) * (a + b) - b * d_in) / a
            u = lv.RadialFunction(values)
            assert_screen_sound(tree, u, F(0), F(0), range(1, 2))
            assert_pass_matches(tree, u, F(0), F(0), range(0, 3))


def test_screen_bounds_cover_extreme_magnitudes():
    """u ~ 1e-401 under weights ~ e^3680, and u = 1 + 1e-35: the screen still
    decides, and its bounds hold."""
    for bits in (53, 128, 256):
        with mp.workprec(bits):
            lam = mp.mpf(8)
            tree = lv.RadialTree(3, [lam * mp.e ** (lam * n) for n in range(455, 466)])
            u = lv.RadialFunction([mp.e ** (-lam * n / 4) for n in range(455, 466)])
            layers = range(0, 10)
            bounds = assert_screen_sound(tree, u, F(1, 2), F(1, 2), layers)
            assert all(b is not None for b in bounds[1:])
            assert_pass_matches(tree, u, F(1, 2), F(1, 2), layers)
            near = lv.RadialFunction([1 + mp.mpf(10) ** -35 * mp.mpf(2) ** -n
                                      for n in range(11)])
            assert_screen_sound(tree, near, F(-1), F(3, 2), layers)
            assert_pass_matches(tree, near, F(-1), F(3, 2), layers)


# The bench's certify horizons: the six acceptance configurations.
SCREEN_HORIZONS = {"I": 150, "II": 270, "III": 125, "IV": 600, "V1": 460, "V2": 280}


@pytest.mark.parametrize("regime", list(REGIMES))
def test_screen_sends_few_layers_to_mpf(monkeypatch, regime):
    """The screen decides all but a handful of layers: a screen that declined
    every layer would send all 126-561 of them through the mpf stream."""
    p, q, params = REGIMES[regime]
    cert = lv.certify(regime, lv.pq(p, q), N=3, horizon=SCREEN_HORIZONS[regime], **params)
    passes = []
    stream = cx.layer_operators

    def counting(tree, u):
        ops, calls = stream(tree, u), []
        passes.append(calls)

        def counted(n):
            calls.append(n)
            return ops(n)
        return counted

    monkeypatch.setattr(cx, "layer_operators", counting)
    report = cx.verify(cert.built)
    assert report == cert.report
    assert passes and all(1 <= len(calls) <= 16 for calls in passes)
    assert report.worst_layer in passes[-1]

# ---------------------------------------------------------------------------
# tabulated Lambda window

# The per-point calibration functions as first written; lambda_fn must still
# give exactly these values, since calibration and the reports depend on them.


def old_lambda_poly(point, eps, n, family):
    p, q = lv.to_mpf(point.p), lv.to_mpf(point.q)
    ex = lv.exponents(point, family)
    lam_w, beta, sigma = lv.to_mpf(ex.lam), lv.to_mpf(ex.beta), lv.to_mpf(ex.sigma)
    eps = lv.to_mpf(eps)
    n = mp.mpf(n)

    def W(m):
        return m ** lam_w * mp.ln(m) ** (beta + eps)

    def g(m):
        return m ** sigma * mp.ln(m) ** beta

    Wn, Wm = W(n), W(n - 1)
    gn, g_up, g_dn = g(n), g(n + 1), g(n - 1)
    drift = 1 - gn * (Wn / g_up + Wm / g_dn) / (Wn + Wm)
    quad = (Wn * (1 / gn - 1 / g_up) ** 2 + Wm * (1 / g_dn - 1 / gn) ** 2) / (2 * (Wn + Wm))
    if family == "I":
        return gn ** (p - 1) * drift * quad ** (-q / 2)
    return drift * (1 / gn + 1) ** (-p) / gn * quad ** (-q / 2)


def old_lambda_log(point, eps, n):
    p, q = lv.to_mpf(point.p), lv.to_mpf(point.q)
    eps = lv.to_mpf(eps)
    n = mp.mpf(n)

    def W(m):
        return m * mp.ln(m) ** (1 + eps)

    def f(m):
        return mp.ln(m) ** (-eps / 2)

    Wn, Wm = W(n), W(n - 1)
    neg_lap = f(n) - (Wn * f(n + 1) + Wm * f(n - 1)) / (Wn + Wm)
    quad = (Wn * (f(n + 1) - f(n)) ** 2 + Wm * (f(n - 1) - f(n)) ** 2) / (2 * (Wn + Wm))
    return neg_lap * (f(n) + 1) ** (-p) * quad ** (-q / 2)


def old_lambda_exp(point, lam, n):
    p = lv.to_mpf(point.p)
    lam = lv.to_mpf(lam)
    n = mp.mpf(n)
    r = mp.e ** (-lam)
    drift = 1 / n - (1 / (n + 1) + r / (n - 1)) / (1 + r)
    quad = ((1 / (n + 1) - 1 / n) ** 2 + r * (1 / (n - 1) - 1 / n) ** 2) / (2 * (1 + r))
    return drift * (1 / n + 1) ** (-p) * quad ** mp.mpf("-0.5")


def old_lambda(regime, point, param, n):
    if regime == "II":
        return old_lambda_log(point, param, n)
    if regime == "IV":
        return old_lambda_exp(point, param, n)
    return old_lambda_poly(point, param, n, regime)


WINDOW_CASES = [
    ("I", lv.pq(2, 1), F(1, 10)),
    ("I", lv.pq(3, F(1, 2)), F(1, 4)),
    ("II", lv.pq(0, 3), F(1, 2)),
    ("II", lv.pq(10, F(5, 2)), F(1, 2)),
    ("III", lv.pq(-1, F(3, 2)), F(1, 10)),
    ("IV", lv.pq(-2, 1), mp.mpf(1)),
    ("IV", lv.pq(-3, F(1, 2)), mp.mpf("0.5")),
]
SMALLEST = {"I": 3, "II": 3, "III": 3, "IV": 2}


@pytest.mark.parametrize("regime,point,param", WINDOW_CASES)
def test_lambda_window_equals_lambda_fn(regime, point, param):
    lo = SMALLEST[regime]
    for a, b in ((lo, lo), (lo, lo + 40), (1000, 1060), (2 ** 27 + 60, 2 ** 27 + 125)):
        window = cx._lambda_window(regime, point, param, a, b)
        assert len(window) == b - a + 1
        for m, value in zip(range(a, b + 1), window):
            assert value == lv.lambda_fn(regime, point, param, m)
            assert value == old_lambda(regime, point, param, m)


@pytest.mark.parametrize("regime", ["I", "II", "III", "IV"])
def test_lambda_window_keeps_the_index_guards(regime):
    point, param = next((pt, prm) for r, pt, prm in WINDOW_CASES if r == regime)
    below = SMALLEST[regime] - 1
    with pytest.raises(InputError):
        lv.lambda_fn(regime, point, param, below)
    with pytest.raises(InputError):
        cx._lambda_window(regime, point, param, below, below + 10)


@pytest.mark.parametrize("regime", ["I", "II", "III", "IV"])
def test_tail_check_is_the_minimum_of_lambda_fn(regime):
    p, q, params = REGIMES[regime]
    spec = lv.calibrate(regime, lv.pq(p, q), N=3, horizon=60, **params)
    param = spec.lam if regime == "IV" else spec.eps
    tail = lv.tail_check(spec)
    assert tail.window == (30, 60)
    assert tail.min_value == min(lv.lambda_fn(regime, spec.point, param, n + spec.n0)
                                 for n in range(30, 61))


# ---------------------------------------------------------------------------
# the search hands back what it computed


@pytest.mark.parametrize("regime", list(REGIMES))
def test_certify_returns_what_a_recomputation_gives(regime):
    p, q, params = REGIMES[regime]
    cert = lv.certify(regime, lv.pq(p, q), N=3, horizon=50, **params)
    assert cert.spec == lv.calibrate(regime, lv.pq(p, q), N=3, horizon=50, **params)
    again = lv.certify_spec(cert.spec)
    assert again.built.u.values() == cert.built.u.values()
    assert again.report == cert.report
    assert again.tail == cert.tail
    assert cert.ok


# ---------------------------------------------------------------------------
# the one search loop against the three it replaced (tests/before_search.py)


@pytest.mark.parametrize("horizon", [40, 50])
@pytest.mark.parametrize("regime", list(REGIMES))
def test_search_matches_the_old_loops(regime, horizon):
    p, q, params = REGIMES[regime]
    new = lv.certify(regime, lv.pq(p, q), N=3, horizon=horizon, **params)
    old = before_search.certify(regime, lv.pq(p, q), N=3, horizon=horizon, **params)
    assert new.spec == old.spec
    assert new.built.u.values() == old.built.u.values()
    assert new.report == old.report
    assert new.tail == old.tail


# (regime, p, q, horizon, params, n0 cap): no lambda clears V2's screen; the
# last regime I candidate under the cap verifies and fails its tail.
EXHAUSTED = {
    "V2 screen": ("V2", F(101, 100), F(-1, 100), 20, {}, None),
    "I tail": ("I", F(2), F(1), 40, {"eps": F(1, 10)}, 2 ** 13),
}


@pytest.mark.parametrize("case", list(EXHAUSTED))
def test_exhausted_search_matches_the_old_loops(monkeypatch, case):
    regime, p, q, horizon, params, cap = EXHAUSTED[case]
    if cap is not None:
        monkeypatch.setattr(cx, "_N0_CAP", cap)
        monkeypatch.setattr(before_search, "_N0_CAP", cap)
    with pytest.raises(CalibrationError) as new:
        lv.certify(regime, lv.pq(p, q), N=3, horizon=horizon, **params)
    with pytest.raises(CalibrationError) as old:
        before_search.certify(regime, lv.pq(p, q), N=3, horizon=horizon, **params)
    assert new.value.best_margin == old.value.best_margin
    assert (new.value.best_margin is None) == (cap is None)


@st.composite
def search_cases(draw):
    """Regime I, III or IV at a point of its region with its eps or lam, a
    horizon of 8 to 80, an n0 cap of 2 to 2^20 and a precision."""
    regime = draw(st.sampled_from(["I", "III", "IV"]))
    point = _regime_point(draw, regime)
    param = _rational(draw, 0, 4, 32) if regime == "IV" else _rational(draw, 0, 2, 40)
    return {"regime": regime, "point": point,
            "params": {"lam" if regime == "IV" else "eps": param},
            "N": draw(st.integers(2, 4)), "H": draw(st.integers(8, 80)),
            "cap": 2 ** draw(st.integers(1, 20)), "bits": draw(st.sampled_from([53, 128]))}


def search_outcome(certify, case):
    """What a search gives: the certificate's spec, values, report and tail,
    or the best margin of its CalibrationError."""
    try:
        cert = certify(case["regime"], case["point"], N=case["N"], horizon=case["H"],
                       **case["params"])
    except CalibrationError as error:
        return error.best_margin
    return cert.spec, cert.built.u.values(), cert.report, cert.tail


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(search_cases())
@example({"regime": "I", "point": lv.pq(2, 1), "params": {"eps": F(1, 10)}, "N": 3,
          "H": 80, "cap": 2 ** 14, "bits": 128})
@example({"regime": "III", "point": lv.pq(-1, F(3, 2)), "params": {"eps": F(1, 10)}, "N": 3,
          "H": 80, "cap": 2 ** 20, "bits": 53})                # undecided probes past 2^16
@example({"regime": "IV", "point": lv.pq(-2, 1), "params": {"lam": F(1, 8)}, "N": 3,
          "H": 8, "cap": 2 ** 3, "bits": 53})
def test_screened_search_is_the_old_loop(case):
    """The n0 search of I, III and IV, its probes screened far end first,
    gives the old nearest-first loop's certificate, or its best margin, with
    the same refusals (`REFUSING_CERTIFY`)."""
    with pytest.MonkeyPatch.context() as patch, lv.precision(case["bits"]):
        patch.setattr(cx, "_N0_CAP", case["cap"])
        patch.setitem(REFUSING_SEARCH, "_N0_CAP", case["cap"])
        assert search_outcome(lv.certify, case) == search_outcome(REFUSING_CERTIFY, case)


# ---------------------------------------------------------------------------
# the closed forms on raw values against their mpf expressions
# (tests/before_build.py), bit for bit

def retargeted(namespace, fn, *edits):
    """`fn` of a before_* module with each (old, new) text edit made once in
    its source, compiled into `namespace` (a copy of that module's)."""
    text = inspect.getsource(fn)
    for before_text, after_text in edits:
        assert text.count(before_text) == 1, before_text
        text = text.replace(before_text, after_text)
    exec(compile(text, inspect.getsourcefile(fn), "exec",
                 __future__.annotations.compiler_flag, dont_inherit=True), namespace)
    return namespace[fn.__name__]


# The old n0 loop with the search's two refusals of a constant u: a delta
# that is not positive is passed over, and a candidate that passes with a
# stored u not strictly decreasing is refused and kept out of the best margin.
REFUSING_SEARCH = {**vars(before_search), "_decreasing": cx._decreasing}
retargeted(REFUSING_SEARCH, before_search._certify_poly,
           ("if min(probe_vals)", "if delta > 0 and min(probe_vals)"),
           ("if cert.ok:", "if cert.ok and _decreasing(built.u):"),
           ("if best_margin is None or cert", "if not cert.ok and (best_margin is None or cert"),
           ("< best_margin:\n", "< best_margin):\n"))
REFUSING_CERTIFY = retargeted(REFUSING_SEARCH, before_search.certify)


# Every exponential `build` stores is exp(rate n) with rate n exact, rounded
# once.  The reference for IV, V1 and V2 is before_build with only its powers
# `mp.e ** (rate * n)` made that call, `ExpLaw(rate)(n)`.
EXP_ONCE = {**vars(before_build), "ExpLaw": cx.ExpLaw}
retargeted(EXP_ONCE, before_build._poly_profiles,
           ("lam * mp.e ** (lam * m)", "lam * ExpLaw(lam)(m)"))
EXP_ONCE_BUILD = retargeted(
    EXP_ONCE, before_build.build,
    ("[lam * mp.e ** (lam * n) for n in range(stored + 1)]",
     "[lam * ExpLaw(lam)(n) for n in range(stored + 1)]"),
    ("mp.e ** (-lam * n / 4)", "ExpLaw(-lam / 4)(n)"),
    ("[lam * mp.e ** (lam * n) for n in range(0, M)]",
     "[lam * ExpLaw(lam)(n) for n in range(0, M)]"),
    ("[lam * mp.e ** (lam * n) for n in range(-1, -M - 1, -1)]",
     "[lam * ExpLaw(lam)(n) for n in range(-1, -M - 1, -1)]"),
    ("mp.e ** (-(lam - 1) * n)", "ExpLaw(-(lam - 1))(n)"))

# The horizons of tests/test_cli.py::CONSTRUCT_DIGESTS, whose parameters are
# REGIMES'; "III n0=2^27" is III pinned at the n0 its search reaches, on the
# horizon where the regime III precision fault shows.
CLOSED_FORM_CASES = {"I": 150, "II": 270, "III": 125, "IV": 600, "V1": 460, "V2": 280,
                     "III n0=2^27": 1000}


def raw(values):
    return [x._mpf_ for x in values]


def closed_form_spec(case):
    regime = case.split()[0]
    p, q, params = REGIMES[regime]
    with lv.precision(128):
        spec = lv.calibrate(regime, lv.pq(p, q), N=3, horizon=CLOSED_FORM_CASES[regime],
                            **params)
    if case == "III n0=2^27":
        spec = dataclasses.replace(spec, n0=2 ** 27, horizon=CLOSED_FORM_CASES[case])
    return spec


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("case", list(CLOSED_FORM_CASES))
def test_build_is_its_mpf_expressions(case, bits):
    spec = closed_form_spec(case)
    reference = EXP_ONCE_BUILD if spec.regime in ("IV", "V1", "V2") else before_build.build
    with lv.precision(bits):
        new, old = cx.build(spec), reference(spec)
    assert (new.tree.layer_lo, new.tree.layer_hi) == (old.tree.layer_lo, old.tree.layer_hi)
    assert raw(new.tree._w) == raw(old.tree._w)         # V2: both arms, one tuple
    assert new.u.lo == old.u.lo and raw(new.u.values()) == raw(old.u.values())
    if spec.regime == "V2":
        assert new.tree.layer_lo == -spec.horizon - 1 and new.u.lo == -spec.horizon - 1


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("case", [c for c in CLOSED_FORM_CASES if not c.startswith("V")])
def test_lambda_and_delta0_are_their_mpf_expressions(case, bits):
    spec = closed_form_spec(case)
    regime, point = spec.regime, spec.point
    param = spec.lam if regime == "IV" else spec.eps
    lo, hi = spec.n0 + 1, spec.n0 + spec.horizon
    with lv.precision(bits):
        window = cx._lambda_window(regime, point, param, lo, hi)
        assert raw(window) == raw(before_build.lambda_window(regime, point, param, lo, hi))
        for m in (lo, (lo + hi) // 2, hi):
            assert (lv.lambda_fn(regime, point, param, m)._mpf_
                    == before_build.lambda_fn(regime, point, param, m)._mpf_)
        if regime != "II":
            assert (cx.delta0(spec).value._mpf_
                    == before_build._delta0_value(regime, point, spec.n0).value._mpf_)


# Points where the power e of the threshold delta^e (I: p + q - 1, III: q - 1,
# IV: p) is not dyadic, so that e formed from the rounded p and q (as delta_0
# forms it) differs from e rounded once (as the threshold and the search do).
NON_DYADIC = {"I": (F(1, 3), F(4, 3)), "III": (F(-1, 3), F(5, 3)), "IV": (F(-2, 3), F(1))}


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("regime", list(NON_DYADIC))
def test_delta0_and_threshold_at_non_dyadic_points(regime, bits):
    p, q = NON_DYADIC[regime]
    exact_e = {"I": p + q - 1, "III": q - 1, "IV": p}[regime]
    with lv.precision(bits):
        P, Q = lv.to_mpf(p), lv.to_mpf(q)
        rounded_e = {"I": P + Q - 1, "III": Q - 1, "IV": P}[regime]
        assert (rounded_e == lv.to_mpf(exact_e)) == (regime == "IV")    # the trap is live
        for n0 in (2, 8, 2 ** 20):
            spec = lv.RegimeSpec(regime=regime, p=p, q=q, N=3, horizon=10, n0=n0,
                                 delta=mp.mpf(3) / 7)
            assert (cx.delta0(spec).value._mpf_
                    == before_build._delta0_value(regime, spec.point, n0).value._mpf_)
            assert (lv.interior_threshold(spec)._mpf_
                    == mp.power(spec.delta, lv.to_mpf(exact_e))._mpf_)


# ---------------------------------------------------------------------------
# the float64 screen of a Lambda tail window (`_lambda_kernel`'s bounds and
# `_window_min`) against the mpf window, bit for bit


def _rational(draw, lo, hi, den=12):
    """A rational lo + (hi - lo) t/d, 0 < t < d <= den: strictly inside (lo, hi)."""
    d = draw(st.integers(2, den))
    return lo + (hi - lo) * F(draw(st.integers(1, d - 1)), d)


def _regime_point(draw, regime):
    """A point in the region of regime I, II, III or IV."""
    if regime == "I":
        p = draw(st.sampled_from([F(0), F(1, 2), F(1), F(2), F(3), F(5, 2)]))
        q = _rational(draw, 1 - p, 2)
    elif regime == "II":
        p, q = _rational(draw, -3, 10), _rational(draw, 2, 5) if draw(st.booleans()) else F(2)
    else:
        p = _rational(draw, -4, 0)
        q = F(1) if regime == "IV" else _rational(draw, 1, 2)
    return lv.pq(p, q)


@st.composite
def lambda_window_cases(draw):
    """A point in the region of regime I, II, III or IV with its eps or lam,
    an n0 among 2, 4, ..., 2^34, a horizon up to 400 and a precision."""
    regime = draw(st.sampled_from(["I", "II", "III", "IV"]))
    point = _regime_point(draw, regime)
    param = _rational(draw, 0, 4, 8) if regime == "IV" else _rational(draw, 0, 2, 10)
    return {"regime": regime, "point": point, "param": param,
            "n0": 2 ** draw(st.integers(1, 34)), "H": draw(st.integers(2, 400)),
            "bits": draw(st.sampled_from([53, 128, 256]))}


def assert_lambda_bounds_hold(regime, point, param, lo, hi):
    """Every m the screen proves negative (False) has Lambda < 0, and every
    bound encloses log2 of the mpf Lambda `_lambda_window` gives at its m;
    the window and the screen are returned."""
    window = cx._lambda_window(regime, point, param, lo, hi)
    profile, _, screened = cx._lambda_kernel(regime, point, param)
    found = screened([profile(m) for m in range(lo - 1, hi + 2)])
    assert len(found) == len(window)
    for m, value, bound in zip(range(lo, hi + 1), window, found):
        if bound is False:
            assert value < 0, m
        elif bound is not None:
            assert value > 0, m
            with mp.workprec(mp.mp.prec + 64):
                assert bound[0] <= mp.log(value, 2) <= bound[1], m
    return window, found


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lambda_window_cases())
@example({"regime": "I", "point": lv.pq(2, 1), "param": F(1, 10), "n0": 2, "H": 300,
          "bits": 128})                                 # Lambda < 0 over the window
@example({"regime": "III", "point": lv.pq(-1, F(3, 2)), "param": F(1, 10), "n0": 2 ** 27,
          "H": 125, "bits": 128})                       # III's calibrated window
@example({"regime": "IV", "point": lv.pq(-2, 1), "param": F(1), "n0": 2 ** 34, "H": 400,
          "bits": 53})
@example({"regime": "II", "point": lv.pq(0, 3), "param": F("1e-400"), "n0": 4, "H": 20,
          "bits": 128})                                 # flat: (ln m)^(-eps/2) rounds to 1
def test_screened_window_min_is_the_window_minimum(case):
    regime, point, param, n0, H = (case[k] for k in ("regime", "point", "param", "n0", "H"))
    lo, hi = (n + n0 for n in cx._tail_window(H))
    with lv.precision(case["bits"]):
        try:
            window, _ = assert_lambda_bounds_hold(regime, point, param, lo, hi)
        except InputError:                                  # II's flat profile
            with pytest.raises(InputError, match="flat"):
                cx._window_min(regime, point, param, n0, H)
            return
        found = cx._window_min(regime, point, param, n0, H)
        assert found._mpf_ == min(window)._mpf_
        assert found._mpf_ == min(before_build.lambda_window(regime, point, param, lo, hi))._mpf_
        table = numerics.memo(cx._profile(regime, point, param))
        assert cx._window_min(regime, point, param, n0, H, table)._mpf_ == found._mpf_


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lambda_window_cases().filter(lambda case: case["regime"] != "II"))
@example({"regime": "I", "point": lv.pq(2, 1), "param": F(1, 10), "n0": 2 ** 13, "H": 150,
          "bits": 128})                                 # I's bench n0: every probe positive
@example({"regime": "III", "point": lv.pq(-1, F(3, 2)), "param": F(1, 10), "n0": 2 ** 17,
          "H": 80, "bits": 53})                         # undecided probes, Lambda < 0
def test_probe_min_is_the_minimum_over_every_probe(case):
    """`_probe_min` on the n0 search's probes, far end first, is combine's
    minimum over every probe when all are positive, bit for bit, and None
    when one is not."""
    regime, point, param, n0, H = (case[k] for k in ("regime", "point", "param", "n0", "H"))
    with lv.precision(case["bits"]):
        profile, combine, screened = cx._lambda_kernel(regime, point, param)
        ms = [n + n0 for n in reversed(cx._probe_offsets(H))]
        values = [combine(*profile.run(range(m - 1, m + 2))) for m in ms]
        found = cx._probe_min(ms, numerics.memo(profile), combine, screened)
    if all(value > 0 for value in values):
        assert found._mpf_ == min(values)._mpf_
    else:
        assert found is None


# Windows (param, lo, hi) over which Lambda changes sign, between the m
# in the comments; II's is positive over its window, and its screen proves
# no m negative.  At 53 bits the screen leaves the m near I's and III's
# second change and IV's at lambda = 2^-12 undecided (rho > 2^-8 there),
# where combine's sign is not always that of the exact drift.
SIGN_CHANGE_WINDOWS = {
    "I": (lv.pq(2, 1), [(F(1, 10), 3, 60), (F(1, 10), 7300, 7500)]),   # 13|14, 7374|7375
    "II": (lv.pq(0, 3), [(F(1, 2), 3, 60)]),
    "III": (lv.pq(-1, F(3, 2)), [(F(1, 10), 3, 60),                    # 10|11
                                 (F(1, 10), 65656100, 65656200)]),     # 65656147|65656148
    "IV": (lv.pq(-2, 1), [(F(1, 8), 3, 60), (F(1, 4096), 8142, 8242)]),  # 16|17, 8192|8193
}


@pytest.mark.parametrize("bits", [53, 128, 256])
@pytest.mark.parametrize("regime", list(SIGN_CHANGE_WINDOWS))
def test_lambda_screen_signs_hold_across_a_sign_change(regime, bits):
    """The kernel's screen where Lambda changes sign: every m it proves
    negative has combine < 0 and every log2 bound encloses Lambda; on I,
    III and IV it proves both signs."""
    point, windows = SIGN_CHANGE_WINDOWS[regime]
    negative = positive = 0
    with lv.precision(bits):
        for param, lo, hi in windows:
            window, found = assert_lambda_bounds_hold(regime, point, param, lo, hi)
            assert (min(window) < 0 < max(window)) == (regime != "II")
            negative += sum(b is False for b in found)
            positive += sum(isinstance(b, tuple) for b in found)
    assert (negative > 0) == (regime != "II") and positive > 0


def test_screened_windows_hold_non_positive_and_undecided_m():
    """The examples above reach what the screen leaves to mpf: regime I at
    n0 = 2 has Lambda < 0 over its whole window, and II's flat profile
    raises, from `_window_min` as from the full window."""
    with lv.precision(128):
        window = cx._lambda_window("I", lv.pq(2, 1), F(1, 10), 152, 302)
        assert max(window) < 0
        assert cx._window_min("I", lv.pq(2, 1), F(1, 10), 2, 300)._mpf_ == min(window)._mpf_
        with pytest.raises(InputError, match="flat"):
            cx._window_min("II", lv.pq(0, 3), F("1e-400"), 4, 20)


# ---------------------------------------------------------------------------
# the I-III profile from runs (carried logs, carried exp(y c), square roots
# from math.isqrt) against its mpf expressions (tests/before_build.py), bit
# for bit

# Points whose exponents lam, beta, sigma are integers (mpf_pow_int), halves
# of odd integers (square roots) or neither (exp(y log)), and II's eps for
# 1 + eps and -eps/2 likewise; eps for I and III makes beta + eps any of the
# three too.
PROFILE_POINTS = {
    "I": [(F(2), F(1)), (F(1), F(1)), (F(0), F(3, 2)), (F(1, 3), F(4, 3)), (F(3), F(1, 2)),
          (F(1, 2), F(3, 4)), (F(7, 4), F(1, 2))],
    "II": [(F(0), F(3)), (F(-2), F(2)), (F(5, 2), F(7, 3))],
    "III": [(F(-1), F(3, 2)), (F(-1, 2), F(5, 3)), (F(-3), F(5, 4)), (F(-1, 3), F(7, 5)),
            (F(-2), F(8, 5))],
}
PROFILE_EPS = [F(1, 2), F(1), F(3, 2), F(2), F(3), F(1, 10), F(2, 7), F(5, 3)]


@st.composite
def profile_runs(draw):
    """A regime, a point of its region (PROFILE_POINTS, or any rational one),
    eps, a precision, and one to four runs of consecutive m, each from 1 to
    40 long, the first from m in [2, 2^34] and the next ones a jump of -60 to
    +60 past the end of the one before (at least 2)."""
    regime = draw(st.sampled_from(["I", "II", "III"]))
    if draw(st.booleans()):
        p, q = draw(st.sampled_from(PROFILE_POINTS[regime]))
    elif regime == "I":
        p = _rational(draw, 0, 3)
        q = _rational(draw, 1 - p if p < 1 else 0, 2)
    elif regime == "II":
        p, q = _rational(draw, -3, 3), 2 + _rational(draw, 0, 3)
    else:
        p, q = _rational(draw, -4, 0), _rational(draw, 1, 2)
    eps = draw(st.sampled_from(PROFILE_EPS)) if draw(st.booleans()) else _rational(draw, 0, 4, 20)
    m = draw(st.integers(2, 40) | st.integers(2, 2 ** 34))
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 40))
        runs.append(range(m, m + n))
        m = max(2, m + n + draw(st.integers(-60, 60)))
    return {"regime": regime, "point": lv.pq(p, q), "eps": eps, "runs": runs,
            "bits": draw(st.sampled_from([53, 128, 256, 512, 600]))}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(profile_runs())
@example({"regime": "I", "point": lv.pq(2, 1), "eps": F(1, 10), "bits": 128,
          "runs": [range(2, 40), range(8192, 8195), range(8195, 8196), range(8269, 8300)]})
@example({"regime": "II", "point": lv.pq(0, 3), "eps": F(1, 2), "bits": 600,
          "runs": [range(2, 30), range(28, 33)]})
@example({"regime": "III", "point": lv.pq(-1, F(3, 2)), "eps": F(1, 10), "bits": 53,
          "runs": [range(2 ** 34 - 3, 2 ** 34 + 20), range(2 ** 33, 2 ** 33 + 3)]})
@example({"regime": "II", "point": lv.pq(0, 3), "eps": F(1), "bits": 53,   # mpf_log(m, 53)
          "runs": [range(11823829900, 11823829910), range(16197344590, 16197344600)]})
@example({"regime": "I", "point": lv.pq(2, 1), "eps": F(1, 10), "bits": 128,  # mpf_exp
          "runs": [range(13080, 13090), range(16095, 16105)]})
def test_profile_runs_are_the_mpf_expressions(case):
    """Every row a profile's runs give, across its calls, is its mpf
    expressions' row: (W, g) or (W, f) as before_build's Lambda kernel
    spells them, and build's (W, u) as `_poly_profiles` spells them.  The
    last two examples hold the first m found where mpmath's result is not
    the exact value correctly rounded: mpf_log(m, 53), two among 1.5
    million m in [3, 2^34], and I's (ln m)^0.6 at 128 bits, two in m =
    8192..16099; the run must give mpmath's bits there, not the exact ones."""
    regime, point, eps = case["regime"], case["point"], case["eps"]
    spec = lv.RegimeSpec(regime=regime, p=point.p, q=point.q, N=3, horizon=2, eps=eps,
                         delta=mp.mpf(3) / 7)
    with lv.precision(case["bits"]):
        profile = cx._profile(regime, point, eps)
        kernel = before_build._lambda_kernel(regime, point, eps)[0]
        poly = before_build._poly_profiles(spec)
        delta = lv.to_mpf(spec.delta)
        assert profile.run(range(2, 2)) == []
        for ms in case["runs"]:
            for m, (W, g) in zip(ms, profile.run(ms)):
                assert (W, g) == tuple(x._mpf_ for x in kernel(m)), m
                g = mp.make_mpf(g)
                u = g + 1 if regime == "II" else delta / g + (regime == "III")
                assert (W, u._mpf_) == tuple(x._mpf_ for x in poly(m)), m


@pytest.mark.parametrize("bits", [53, 128, 256, 512, 610])
def test_mpf_log_lies_within_the_log_run_radius(bits):
    """mpf_log(x, p) rounds `numerics._ln_fixed(x, p + 20)`, which lies within
    16 + wp/6 + 2 mag units of 2^wp ln x (`numerics.log_run`'s radius):
    2,000 arguments per precision, integers m up to 2^36 (powers of 2 among
    them) and p-bit values ln m in (2, 25)."""
    rng = random.Random(bits)
    wp = bits + 20
    ms = [rng.randrange(3, 2 ** rng.randint(2, 36)) for _ in range(900)]
    ms += [2 ** rng.randint(2, 36) for _ in range(100)]
    with mp.workprec(bits):
        xs = [mp.mpf(m)._mpf_ for m in ms] + [mp.log(m)._mpf_ for m in ms if m > 7]
        xs += [(mp.mpf(2) + 23 * mp.rand())._mpf_ for _ in range(2000 - len(xs))]
    assert len(xs) == 2000
    worst = 0
    for x in xs:
        M = numerics._ln_fixed(x, wp)
        assert mp.libmp.normalize(0, M, -wp, M.bit_length(), bits, "n") == \
            mp.libmp.mpf_log(x, bits, "n")
        with mp.workprec(wp + 64):
            err = abs(mp.mpf(M) - mp.ldexp(mp.log(mp.make_mpf(x)), wp))
        radius = 16 + wp // 6 + 2 * (x[2] + x[3])
        assert err < radius, (x, err)
        worst = max(worst, err / radius)
    assert worst > 0


# ---------------------------------------------------------------------------
# build's exponentials and exponential laws from one geometric run against
# their per-n call exp(rate n), rate n exact (`ExpLaw(rate)(n)`;
# tests/before_band.py), bit for bit

E_POWER_RATES = [F(1), F(2), F(4), F(8), F(-2), F(-3), F(-1, 4), F(-1, 2), F(3, 2)]
# ascending from 0 and from an n0, descending (the V2 arm), crossing zero both
# ways, one element on either side of zero, empty, and far from zero both ways
E_POWER_RANGES = [range(0, 461), range(2, 603), range(-1, -282, -1), range(-281, 282),
                  range(150, -151, -1), range(7, 8), range(-5, -4), range(0, 1), range(5, 5),
                  range(2 ** 21, 2 ** 21 + 4), range(-2 ** 21, -2 ** 21 - 4, -1)]


def e_powers_expression(rate, ns, scale=None):
    """The per-n exp-once call of build's weights and values (EXP_ONCE_BUILD's)."""
    powers = [cx.ExpLaw(rate)(n) for n in ns]
    return raw(powers if scale is None else [scale * x for x in powers])


def counted_runs(monkeypatch, decide=True):
    """Count the values the runs hand to `_nearest` and those it leaves to
    the call they stand in for; with decide False it decides none."""
    counts = {"values": 0, "calls": 0}
    nearest = numerics._nearest

    def counted(*args):
        found = nearest(*args) if decide else None
        counts["values"] += 1
        counts["calls"] += found is None
        return found

    monkeypatch.setattr(numerics, "_nearest", counted)
    return counts


@pytest.mark.parametrize("bits", [53, 128, 256])
@pytest.mark.parametrize("rate", E_POWER_RATES, ids=str)
def test_e_powers_are_their_mpf_expressions(monkeypatch, rate, bits):
    """Every rate takes its exponentials from runs, which hand few values to
    the call (each exact e^0 = 1 among them)."""
    counts = counted_runs(monkeypatch)
    with mp.workprec(bits):
        r = lv.to_mpf(rate)
        for ns in E_POWER_RANGES:
            assert raw(cx._e_powers(r, ns)) == e_powers_expression(r, ns), ns
        ns = E_POWER_RANGES[1]
        assert raw(cx._e_powers(r, ns, abs(r))) == e_powers_expression(r, ns, abs(r))
    assert counts["values"] == sum(map(len, E_POWER_RANGES)) + len(ns)
    assert counts["calls"] < counts["values"] // 16


@pytest.mark.parametrize("bits", [53, 128, 256])
@pytest.mark.parametrize("lam", [F(-1), F(0), F(1, 2), F(1), F(3, 2), F(8)], ids=str)
def test_exp_law_band_is_the_full_loop(monkeypatch, lam, bits):
    """The band of an `ExpLaw` over [2, 1990] is the loop over every n, and its
    run gives law(n) at every n; exp(0 n) = 1 is exact, so it never leaves
    the run's fallback."""
    with mp.workprec(bits):
        spec = lv.RegimeSpec(regime="IV", p=F(-2), q=F(1), N=3, horizon=1991, n0=2,
                             lam=mp.mpf(1), delta=mp.mpf(1))
        built = lv.build(spec)
        law = lv.ExpLaw(lam)
        counts = counted_runs(monkeypatch)
        assert band_bits(cx.volume_band, built.tree, law, 2, 1990) == \
            band_bits(before_band.volume_band, built.tree, law, 2, 1990)
        assert counts["values"] == 1989
        if lam == 0:
            assert counts["calls"] == 1989
        else:
            assert counts["calls"] < 1989 // 16
        assert list(law.run(range(2, 1991))) == [law(n)._mpf_ for n in range(2, 1991)]


def test_exp_law_makes_its_calls_above_the_precision_its_radius_covers(monkeypatch):
    counts = counted_runs(monkeypatch)
    with mp.workprec(numerics._EXP_RUN_MAX_PREC + 1):
        law = lv.ExpLaw(F(3, 2))
        assert list(law.run(range(2, 50))) == [law(n)._mpf_ for n in range(2, 50)]
    assert counts["values"] == 0


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_runs_that_decide_nothing_are_the_calls(monkeypatch, bits):
    """With `_nearest` deciding no value, every value is the call the run
    stands in for, and the bits are the same: the fallback is that call."""
    counts = counted_runs(monkeypatch, decide=False)
    with mp.workprec(bits):
        for rate in (F(1), F(8), F(-3)):
            r = lv.to_mpf(rate)
            for ns in E_POWER_RANGES[:5]:
                assert raw(cx._e_powers(r, ns)) == e_powers_expression(r, ns)
        assert counts["calls"] == counts["values"] == 3 * sum(map(len, E_POWER_RANGES[:5]))
        law = lv.ExpLaw(F(3, 2))
        assert list(law.run(range(2, 300))) == [law(n)._mpf_ for n in range(2, 300)]
    assert counts["calls"] == counts["values"] == 3 * sum(map(len, E_POWER_RANGES[:5])) + 298


# ---------------------------------------------------------------------------
# the operator streams and the term kernel against the per-site loops they
# replaced (tests/before_streams.py), exactly

def exact(x):
    """x with every mpf replaced by its exact (sign, mantissa, exponent, bits).

    Comparing these with == is `==` on every mpf field, except that a nan
    equals itself, so reports holding nan compare too.
    """
    if isinstance(x, (mp.mpf, mp.mpc)):
        return type(x).__name__, x._mpf_ if isinstance(x, mp.mpf) else x._mpc_
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple(exact(getattr(x, f.name))
                                       for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(exact(v) for v in x)
    return x


def fraction(x):
    """The exact value of a finite mpf, or of a raw one."""
    sign, man, exp, _ = x if isinstance(x, tuple) else x._mpf_
    return F(-man if sign else man) * F(2) ** exp


def outcome(fn, *args, **kwargs):
    """The exact result of a call, or the type and message of what it raised."""
    try:
        return "ok", exact(fn(*args, **kwargs))
    except (InputError, ValueError, ZeroDivisionError) as exc:
        return "raised", type(exc).__name__, str(exc)


def same(new_fn, old_fn, *args, **kwargs):
    got, want = outcome(new_fn, *args, **kwargs), outcome(old_fn, *args, **kwargs)
    assert got == want
    return want


# The graph checks and the CSV rows read the radial backend's arithmetic:
# the term from grad^2 itself, not from sqrt(grad^2) squared, and the
# left-hand side's product as ((mu u^(p-t)) |grad u|^q) phi^s.  Their
# references are the loops of before_streams with only those lines changed,
# each compiled into its own copy of that module's namespace.
STREAMS = {**vars(old), "gradient_form": graphs.gradient_form}
OLD_VERIFY_GRAPH = retargeted(
    {**STREAMS}, old.verify_graph,
    ("nonlinear_term(u[x], grad * grad, p, q)",
     "nonlinear_term(u[x], gradient_form(g, u, u, x), p, q)"))
OLD_LAYER_ROWS = retargeted(
    {**STREAMS}, old.layer_rows,
    ("nonlinear_term(built.u.value(n), grad * grad,",
     "nonlinear_term(built.u.value(n), built.tree.gradient_sq_at(built.u, n),"))
OLD_ESTIMATE_SIDES = retargeted(
    {**STREAMS}, old.estimate_sides,
    ("weight_term = mp.power(u[x], p_t) * (mp.power(grad, q) if point.q != 0 else mp.mpf(1))",
     "gq = mp.power(grad, q) if point.q != 0 else mp.mpf(1)"),
    ("vertex_measure(g, x) * weight_term * to_mpf(phi_x) ** s_m",
     "vertex_measure(g, x) * mp.power(u[x], p_t) * gq * to_mpf(phi_x) ** s_m"))

# The pointwise bound's re-check forms the term from grad^2 too, where the
# loop squared the gradient norm: its sites carry grad^2 beside the norm,
# which the margin still reads.
POINTWISE = {**STREAMS}
OLD_POINTWISE_CORE = retargeted(
    POINTWISE, old._pointwise_core,
    ("for site, u_val, lap, grad in sites:", "for site, u_val, lap, grad, grad_sq in sites:"),
    ("nonlinear_term(u_val, grad ** 2,", "nonlinear_term(u_val, grad_sq,"))
OLD_POINTWISE_BOUND = retargeted(
    POINTWISE, old.pointwise_bound_check,
    ("gradient_norm(g, u, x))", "gradient_norm(g, u, x), gradient_form(g, u, u, x))"))
OLD_POINTWISE_BOUND_BUILT = retargeted(
    POINTWISE, old.pointwise_bound_check_built,
    ("tree.gradient_at(u, n))", "tree.gradient_at(u, n), tree.gradient_sq_at(u, n))"))


# Exponent pairs for the nonexistence machinery: p + q != 1 so that the
# estimate constants exist, with q > 0, q = 0 and q < 0.
POINTS = [lv.pq(2, 1), lv.pq(-1, F(3, 2)), lv.pq(3, 0), lv.pq(F(1, 2), 0),
          lv.pq(2, F(-1, 2)), lv.pq(-2, 1)]
CUTOFFS = ["h:1", "h:3", "phi:1", "phi:2"]
ST = [(F(7), F(1, 3)), (F(5, 2), F(5, 4))]


def flat_profile(rng, lo, hi, positive=True):
    """Random values with one flat layer (zero gradient) and, unless
    positive, sometimes a non-positive value."""
    values = [mp.mpf(rng.uniform(0.1, 3.0)) for _ in range(lo, hi + 1)]
    k = rng.randrange(1, len(values) - 1)
    values[k - 1] = values[k + 1] = values[k]
    if not positive and rng.random() < 0.5:
        values[rng.randrange(len(values))] = -mp.mpf(rng.uniform(0.1, 1.0))
    return lv.RadialFunction(values, lo=lo)


def one_sided_case(rng, H):
    tree = lv.RadialTree(rng.choice([2, 3]), [mp.mpf(rng.uniform(0.2, 5.0))
                                              for _ in range(H + 1)])
    return tree, flat_profile(rng, 0, H)


def two_sided_case(rng, M):
    tree = lv.TwoSidedRadialTree(rng.choice([2, 3]),
                                 [mp.mpf(rng.uniform(0.2, 5.0)) for _ in range(M)],
                                 [mp.mpf(rng.uniform(0.2, 5.0)) for _ in range(M)])
    return tree, flat_profile(rng, -M, M)


def conftest_builds(request):
    return [request.getfixturevalue(name) for name in
            ("regime1_small", "regime3_small", "regime4_walk", "regime5_walk")]


def test_term_kernel_is_nonlinear_term():
    values = [mp.mpf(3) / 7, mp.mpf(2), mp.mpf(0), -mp.mpf(1)]
    for p, q in [(F(2), F(1)), (F(-1), F(3, 2)), (F(3), F(0)), (F(2), F(-1, 2)),
                 (2, "1/3"), (mp.mpf("0.25"), F(-2))]:
        kernel = cx.term_kernel(p, q)
        for u_value in values:
            for grad_sq in values[:3]:
                want = outcome(old.nonlinear_term, u_value, grad_sq, p, q)
                assert outcome(kernel, u_value, grad_sq) == want
                assert outcome(lv.nonlinear_term, u_value, grad_sq, p, q) == want
            grad = mp.sqrt(values[0])
            idiom = mp.power(grad, lv.to_mpf(F(q))) if F(q) != 0 else mp.mpf(1)
            assert exact(kernel.grad_power(grad)) == exact(idiom)


@pytest.mark.parametrize("seed", range(3))
def test_estimate_sides_radial_matches_old(request, seed):
    rng = random.Random(3000 + seed)
    cases = [(b.tree, b.u) for b in conftest_builds(request)[:2]] if seed == 0 else []
    cases += [one_sided_case(rng, rng.randrange(8, 14)) for _ in range(2)]
    for tree, u in cases:
        for tf_text in CUTOFFS:
            tf = caccioppoli.TestFunction.parse(tf_text)
            for point in POINTS:
                for (s, t), variant in zip(ST, ("est1", "est2")):
                    for p0 in (None, tree.p0() * 2):
                        same(lv.estimate_sides_radial, old.estimate_sides_radial,
                             tree, u, tf, s, t, point, p0=p0, variant=variant)
    tree, _ = one_sided_case(rng, 8)         # a non-positive value raises in both
    bad = lv.RadialFunction([1] * 4 + [-1] + [1] * 4)
    want = same(lv.estimate_sides_radial, old.estimate_sides_radial,
                tree, bad, caccioppoli.TestFunction.parse("h:2"), 7, F(1, 2), POINTS[0])
    assert want[0] == "raised"


def ball_case(rng, radius):
    tree, u = one_sided_case(rng, radius + 2)
    g, layers = tree.materialize(radius)
    return g, lv.induced_graph_function(u, layers), layers, tree


@pytest.mark.parametrize("seed", range(3))
def test_estimate_sides_matches_old(request, seed):
    rng = random.Random(4000 + seed)
    g, gu, layers, tree = ball_case(rng, 4)
    if seed == 0:
        b = conftest_builds(request)[0]
        g, layers = b.tree.materialize(4)
        gu = lv.induced_graph_function(b.u, layers)
    inner = [x for x, n in enumerate(layers) if n <= 2]
    strict = sorted(set(inner) | set(rng.sample(range(g.n_vertices), 5)))
    p0 = lv.p0_of(g)
    for omega in (None, strict, inner):
        for tf_text in CUTOFFS:
            tf = caccioppoli.TestFunction.parse(tf_text)
            for point in POINTS[::2] + POINTS[4:5]:
                for (s, t), variant in zip(ST, ("est1", "est2")):
                    same(lv.estimate_sides, OLD_ESTIMATE_SIDES, g, gu, 0, tf, s, t,
                         point, p0, variant=variant, omega=omega)


@pytest.mark.parametrize("seed", range(4))
def test_radial_walks_and_diagnostics_match_old(request, seed):
    rng = random.Random(5000 + seed)
    cases = []
    if seed == 0:
        cases += [(b.tree, b.u, b.spec.point) for b in conftest_builds(request)]
    for _ in range(3):
        tree, u = one_sided_case(rng, rng.randrange(4, 30))
        cases.append((tree, u, rng.choice(POINTS)))
        tree, u = two_sided_case(rng, rng.randrange(2, 15))
        cases.append((tree, u, rng.choice(POINTS)))
    for tree, u, point in cases:
        starts = {tree.layer_lo, tree.layer_lo + 1, 0, tree.layer_hi - 1, tree.layer_hi,
                  rng.randrange(tree.layer_lo, tree.layer_hi + 1)}
        for start in sorted(starts):
            for steps in (0, 3, 300):
                want = same(lv.radial_descent_walk, old.radial_descent_walk,
                            tree, u, start, steps)
                if want[0] != "ok":
                    continue
                walk = lv.radial_descent_walk(tree, u, start, steps)
                for p0 in (None, tree.p0()):
                    for pt in (None, point, lv.pq(3, 0), lv.pq(2, F(-1, 2))):
                        same(lv.walk_diagnostics, old.walk_diagnostics, walk, p0, pt)


@pytest.mark.parametrize("seed", range(3))
def test_graph_walks_match_old(request, seed):
    rng = random.Random(6000 + seed)
    g, gu, layers, _ = ball_case(rng, 5)
    if seed == 0:
        b = conftest_builds(request)[0]
        g, layers = b.tree.materialize(6)
        gu = lv.induced_graph_function(b.u, layers)
    for start in [0, 1, g.n_vertices - 1, -1, g.n_vertices] + rng.sample(range(g.n_vertices), 6):
        for steps in (0, 2, 50):
            want = same(lv.descent_walk, old.descent_walk, g, gu, start, steps)
            if want[0] == "ok":
                walk = lv.descent_walk(g, gu, start, steps)
                same(lv.walk_diagnostics, old.walk_diagnostics, walk, lv.p0_of(g),
                     rng.choice(POINTS))


@pytest.mark.parametrize("seed", range(3))
def test_pointwise_bounds_and_verify_graph_match_old(request, seed):
    rng = random.Random(7000 + seed)
    builds = conftest_builds(request) if seed == 0 else []
    for _ in range(2):
        for tree, u in (one_sided_case(rng, rng.randrange(3, 25)),
                        two_sided_case(rng, rng.randrange(2, 12))):
            if rng.random() < 0.5:
                u = flat_profile(rng, u.lo, u.hi, positive=False)
            for point in POINTS:
                spec = lv.RegimeSpec(regime="I", p=point.p, q=point.q, N=tree.N, horizon=2)
                builds.append(cx.BuiltCounterexample(tree, u, spec))
    for built in builds:
        deepest = built.tree.interior_layers().stop - 1
        for horizon in (None, 0, 3):
            if horizon is not None and horizon > deepest:   # the old loop clamped it
                with pytest.raises(InputError, match="exceeds checkable layers"):
                    lv.pointwise_bound_check_built(built, horizon)
                continue
            same(lv.pointwise_bound_check_built, OLD_POINTWISE_BOUND_BUILT,
                 built, horizon)
        for horizon in (None, 2):
            same(lambda *a: list(lv.layer_rows(*a)), lambda *a: list(OLD_LAYER_ROWS(*a)),
                 built, horizon)
        radius = min(3, built.tree.layer_hi - 1) if built.u.lo == 0 else 2
        g, layers = built.tree.materialize(radius)
        gu = lv.induced_graph_function(built.u, layers)
        point = built.spec.point
        same(lv.pointwise_bound_check, OLD_POINTWISE_BOUND, g, gu, point)
        for p, q in ((point.p, point.q), (F(1), F(0)), (F(2), F(-1))):
            same(lv.verify_graph, OLD_VERIFY_GRAPH, g, gu, p, q)
        same(lv.harnack_check, old.harnack_check, g, gu, 2)
        if built.u.is_positive():
            new_h, old_h = (built.tree.harnack_check(built.u, 1),
                            old.radial_harnack_check(built.tree, built.u, 1))
            assert exact((new_h.worst_ratio, new_h.worst_edge)) == \
                exact((old_h.worst_ratio, old_h.worst_edge))


# ---------------------------------------------------------------------------
# the stencil quotient under verify_graph, pointwise_bound_check and
# estimate_sides against the per-vertex loops, exactly

STAR_WEIGHTS = ["1", "2", "1/3"]
STAR_VALUES = ["1", "3/2", "2", "5"]


@st.composite
def star_cases(draw):
    """Stars, each repeated, hung off a hub vertex 0 or left disjoint.

    Values and weights come from small sets, so stencils repeat inside a
    copy and across stars; a copy may be nudged by one unit in the last
    place of one leaf value or weight, or list its leaves in reverse order
    (the same (w, u(y)) multiset in another neighbour order).  A flat star
    (every leaf at the centre's value) puts zero-gradient leaves in one class.
    """
    fraction = st.sampled_from(STAR_VALUES)
    stars = []
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(1, 3))
        centre = draw(fraction)
        flat = draw(st.booleans())
        leaves = [(draw(st.sampled_from(STAR_WEIGHTS)), centre if flat else draw(fraction))
                  for _ in range(k)]
        copies = draw(st.integers(1, 4))
        variant = draw(st.sampled_from([None, "value", "weight", "reversed"]))
        stars.append((draw(st.sampled_from(STAR_WEIGHTS)), centre, tuple(leaves), copies,
                      variant, draw(st.integers(0, k - 1))))
    return ("stars", draw(st.booleans()), draw(fraction), tuple(stars))


def ulp_up(x):
    """The next mpf above x > 0 at the working precision."""
    _, _, exp, bits = x._mpf_
    return x + mp.ldexp(1, exp + bits - mp.mp.prec)


def build_stars(case):
    """(graph, function) of a `star_cases` recipe."""
    _, hub, hub_value, stars = case
    edges, values = [], [lv.to_mpf(F(hub_value))]
    for hub_weight, centre, leaves, copies, variant, which in stars:
        for copy in range(copies):
            c = len(values)
            values.append(lv.to_mpf(F(centre)))
            if hub:
                edges.append((0, c, lv.to_mpf(F(hub_weight))))
            copy_leaves = [(lv.to_mpf(F(w)), lv.to_mpf(F(v))) for w, v in leaves]
            if copy == copies - 1 and variant == "value":
                w, v = copy_leaves[which]
                copy_leaves[which] = (w, ulp_up(v))
            elif copy == copies - 1 and variant == "weight":
                w, v = copy_leaves[which]
                copy_leaves[which] = (ulp_up(w), v)
            elif copy == copies - 1 and variant == "reversed":
                copy_leaves.reverse()
            for w, v in copy_leaves:
                edges.append((c, len(values), w))
                values.append(v)
    if not hub:                 # vertex 0 stands alone otherwise
        edges.append((0, len(values), mp.mpf(1)))
        values.append(values[0])
    return lv.WeightedGraph(len(values), edges), lv.GraphFunction(values)


ball_cases = st.tuples(st.just("ball"), st.integers(0, 10 ** 6), st.integers(1, 4))


def build_graph_case(case):
    if case[0] == "stars":
        return build_stars(case)
    g, gu, _, _ = ball_case(random.Random(case[1]), case[2])
    return g, gu


def assert_quotient_matches(case, point, cutoff, st_pair):
    g, gu = build_graph_case(case)
    for p, q in ((point.p, point.q), (F(2), F(1)), (F(1), F(0)), (F(2), F(-1))):
        same(lv.verify_graph, OLD_VERIFY_GRAPH, g, gu, p, q)
    same(lv.pointwise_bound_check, OLD_POINTWISE_BOUND, g, gu, point)
    reachable = [x for x, d in enumerate(g.distances_from(0)) if d >= 0]
    omega = None if len(reachable) == g.n_vertices else reachable
    tf = caccioppoli.TestFunction.parse(cutoff)
    (s, t), variant = st_pair
    same(lv.estimate_sides, OLD_ESTIMATE_SIDES, g, gu, 0, tf, s, t, point, lv.p0_of(g),
         variant=variant, omega=omega)


# Twelve copies of a star whose leaves sit below its centre: more than 20
# failing leaves in two classes.  A constant function on stars of different
# weights: margin 0 (q > 0) in every class, a tie for the maximum.
MANY_FAILURES = ("stars", True, "1", (("1", "5", (("1", "1"), ("2", "3/2")), 4, None, 0),) * 3)
CONSTANT_TIES = ("stars", True, "2", (("1", "2", (("1", "2"),), 2, None, 0),
                                      ("1/3", "2", (("2", "2"), ("1/3", "2")), 3, None, 0)))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(star_cases(), ball_cases), point=st.sampled_from(POINTS),
       cutoff=st.sampled_from(CUTOFFS), st_pair=st.sampled_from(list(zip(ST, ("est1", "est2")))))
@example(case=MANY_FAILURES, point=POINTS[0], cutoff="h:1", st_pair=(ST[1], "est2"))
@example(case=CONSTANT_TIES, point=POINTS[0], cutoff="h:1", st_pair=(ST[1], "est2"))
@example(case=CONSTANT_TIES, point=POINTS[4], cutoff="h:1", st_pair=(ST[1], "est2"))
def test_stencil_quotient_matches_the_vertex_loops(case, point, cutoff, st_pair):
    assert_quotient_matches(case, point, cutoff, st_pair)


def test_quotient_examples_cover_their_cases():
    g, gu = build_stars(MANY_FAILURES)
    class_of = lv.site_classes(g, gu)[0]
    assert sum(lv.laplacian(g, gu, x) > 0 for x in g.vertices()) > 20   # so margin > 0
    report = lv.verify_graph(g, gu, 2, 1)
    assert len(report.failures) == 20 and len({class_of[x] for x, _ in report.failures}) > 2
    g, gu = build_stars(CONSTANT_TIES)
    assert len(set(lv.site_classes(g, gu)[0])) > 2
    assert lv.verify_graph(g, gu, 2, 1).max_margin == 0
    undefined = lv.verify_graph(g, gu, 2, F(-1, 2)).undefined_layers
    assert undefined == tuple(g.vertices())


def counted_site_streams(monkeypatch):
    """Wrap the graph operator stream where the graph checks read it; the
    returned list grows by one per site evaluated."""
    calls = []

    def site_operators(g, u):
        ops = graphs.site_operators(g, u)

        def counted(x):
            calls.append(x)
            return ops(x)

        return counted

    for module in (cx, descent):
        monkeypatch.setattr(module, "site_operators", site_operators)
    return calls


@pytest.mark.parametrize("fixture, radius", [("regime1_small", 6), ("regime4_walk", 6)])
def test_graph_checks_evaluate_each_layer_of_a_ball_once(request, monkeypatch, fixture, radius):
    built = request.getfixturevalue(fixture)
    g, layers = built.tree.materialize(radius)
    gu = lv.induced_graph_function(built.u, layers)
    calls = counted_site_streams(monkeypatch)
    lv.verify_graph(g, gu, built.spec.p, built.spec.q)
    assert len(calls) == radius + 1
    calls.clear()
    lv.pointwise_bound_check(g, gu, built.spec.point)
    assert len(calls) == radius + 1


# ---------------------------------------------------------------------------
# the layer-chain base under both tree classes against the two classes it
# replaced (tests/before_layer_chain.py), exactly

def kind(fn, *args):
    """The exact result of a call, or the type of what it raised."""
    try:
        result = fn(*args)
    except InputError as exc:
        return "raised", type(exc).__name__
    if isinstance(result, tuple) and isinstance(result[0], lv.WeightedGraph):
        g, layers = result
        return "ok", g.n_vertices, exact(g.edges()), layers
    return "ok", exact(result)


def shell_weights(rng, n, style):
    if style == "flat":
        return [mp.mpf(rng.choice([1, 3, "0.7"]))] * n
    if style == "extreme":
        return [mp.mpf(10) ** rng.randrange(-300, 301) * rng.uniform(0.5, 2) for _ in range(n)]
    return [mp.mpf(rng.uniform(0.1, 10)) for _ in range(n)]


@pytest.mark.parametrize("style", ["random", "flat", "extreme"])
@pytest.mark.parametrize("seed", range(4))
def test_layer_chain_matches_the_two_classes(style, seed):
    rng = random.Random(8000 + 10 * seed + len(style))
    for _ in range(3):
        N = rng.choice([2, 3, 4, 5])
        H = rng.randrange(0, 6)
        ws = shell_weights(rng, H + 1, style)
        M = rng.randrange(1, 6)
        pos, neg = shell_weights(rng, M, style), shell_weights(rng, M, style)
        pairs = [(lv.RadialTree(N, ws), before.RadialTree(N, ws)),
                 (lv.TwoSidedRadialTree(N, pos, neg), before.TwoSidedRadialTree(N, pos, neg))]
        for new, old_tree in pairs:
            lo, hi = old_tree.layer_lo, old_tree.layer_hi
            assert (new.N, new.layer_lo, new.layer_hi) == (old_tree.N, lo, hi)
            assert new.interior_layers() == old_tree.interior_layers()
            for n in range(lo - 2, hi + 3):
                for method in ("weight", "conductances", "layer_measure", "ball_volume",
                               "ball_volumes", "materialize"):
                    want = kind(getattr(old_tree, method), n)
                    if method == "conductances" and new.one_sided and n == 0 < hi:
                        want = "ok", exact((mp.mpf(1), mp.mpf(0)))   # the root as a site
                    assert kind(getattr(new, method), n) == want, (method, n)
            for u_lo in (lo - 1, lo, lo + 1):
                for u_hi in range(max(u_lo, hi - 1), hi + 2):
                    u = lv.RadialFunction([1] * (u_hi - u_lo + 1), lo=u_lo)
                    assert kind(new.check_covers, u) == kind(old_tree.check_covers, u)
        (one, old_one), (two, old_two) = pairs
        assert exact(one.p0()) == exact(old_one.p0())
        assert one.horizon == old_one.horizon and two.arm_horizon == old_two.arm_horizon
        # the two-sided p0 is the old one with the parent-edge ratio of
        # positive layer 1 added (layer 1 is a leaf when M = 1)
        want = old_two.p0()
        if M >= 2:
            want = max(want, (pos[1] + pos[0]) / pos[0])
        assert exact(two.p0()) == exact(want)


# ---------------------------------------------------------------------------
# the volume band's float64 screen against the loop over every n
# (tests/before_band.py), exactly

class StoredVolumes:
    """A stand-in tree with its running volumes mu(B(o, 0..H)) given outright."""

    def __init__(self, vols):
        self.vols = vols

    def ball_volumes(self, n_max):
        if not 0 <= n_max < len(self.vols):
            raise InputError(f"radius {n_max} exceeds the volume-computable horizon")
        return self.vols[:n_max + 1]


def band_bits(band_fn, tree, law, n_lo, n_hi):
    """The exact band, or the type and message of what it raised."""
    try:
        band = band_fn(types.SimpleNamespace(tree=tree), law, n_lo, n_hi)
    except InputError as exc:
        return "raised", type(exc).__name__, str(exc)
    return band.ratio_min._mpf_, band.ratio_max._mpf_


rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def band_cases(draw):
    """A recipe for running volumes and a power-log law, built by `build_band_case`."""
    H = draw(st.integers(2, 40))
    n_lo = draw(st.sampled_from([0, 1, 2, 2]) | st.integers(2, H))
    n_hi = draw(st.sampled_from([n_lo, n_lo - 1, H, H + 1]) | st.integers(n_lo, H))
    return {
        "bits": draw(st.sampled_from([53, 256])),
        "expo": draw(rationals | st.sampled_from([F(0), F(2), F(-3, 2)])),
        "int_expo": draw(st.booleans()),
        "logexp": draw(rationals | st.sampled_from([F(0), F(-1), F(1, 2)])),
        "kind": draw(st.sampled_from(["tree", "flat", "ties"])),
        "N": draw(st.integers(2, 4)),
        "weights": draw(st.lists(st.floats(0.1, 3.0), min_size=H + 1, max_size=H + 1)),
        "growth": draw(st.sampled_from([-2, 0, 1, 3])),
        "scale": draw(st.sampled_from(["1e-300", "1", "3.7", "1e300"])),
        "ties": draw(st.lists(st.sampled_from(["0.5", "1", "2"]), min_size=H + 1,
                              max_size=H + 1)),
        "plant": draw(st.none() | st.tuples(
            st.integers(0, H), st.sampled_from(["max", "min"]),
            st.sampled_from([0, 1, -1, 2, -2]) | st.sampled_from([-24, -32, -36, -40]).map(
                lambda k: F(2) ** k) | st.sampled_from([-24, -32, -36, -40]).map(
                lambda k: -F(2) ** k))),
        "n_lo": n_lo,
        "n_hi": n_hi,
    }


def build_band_case(case):
    """(tree, law) at the working precision: a real tree, volumes c law(n)
    (flat to rounding) or volumes exactly c_n law(n) with c_n in {1/2, 1, 2}
    (ties), with one n's ratio then set to the window's extreme give or take
    a few ulps or a relative 2^-24..2^-40, near the screen's own bounds."""
    expo = int(case["expo"]) if case["int_expo"] else lv.to_mpf(case["expo"])
    law = lv.PowerLogLaw(expo, lv.to_mpf(case["logexp"]))
    H = len(case["weights"]) - 1
    scale = mp.mpf(case["scale"])
    if case["kind"] == "tree":
        weights = [mp.mpf(x) * scale * mp.mpf(k + 2) ** case["growth"]
                   for k, x in enumerate(case["weights"])]
        vols = lv.RadialTree(case["N"], weights).ball_volumes(H)
    elif case["kind"] == "flat":
        vols = [scale] * 2 + [scale * law(n) for n in range(2, H + 1)]
    else:
        vols = [scale] * 2 + [mp.mpf(case["ties"][n]) * law(n) for n in range(2, H + 1)]
    window = range(max(case["n_lo"], 2), min(case["n_hi"], H) + 1)
    if case["plant"] is not None and window:
        k, side, nudge = case["plant"]
        j = window[k % len(window)]
        ratios = [vols[n] / law(n) for n in window]
        extreme = max(ratios) if side == "max" else min(ratios)
        v = extreme * law(j)
        if isinstance(nudge, int):
            vols[j] = v + nudge * mp.ldexp(1, mp.frexp(v)[1] - mp.mp.prec)
        else:
            vols[j] = v * (1 + lv.to_mpf(nudge))
    if case["kind"] == "tree" and case["plant"] is None:
        return lv.RadialTree(case["N"], weights), law
    return StoredVolumes(vols), law


def assert_band_bounds_hold(tree, law, window):
    """Every decided bound encloses log2 of the mpf ratio."""
    vols = tree.ball_volumes(window.stop - 1)
    bounds = cx._band_bounds(vols, law, window)
    assert len(bounds) == len(window)
    for n, bound in zip(window, bounds):
        lo, hi = bound or (-math.inf, math.inf)
        ratio = vols[n] / law(n)
        with mp.workprec(mp.mp.prec + 64):
            assert lo <= mp.log(ratio, 2) <= hi, n
    return bounds


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(band_cases())
def test_screened_band_matches_the_full_loop(case):
    with mp.workprec(case["bits"]):
        tree, law = build_band_case(case)
        n_lo, n_hi = case["n_lo"], case["n_hi"]
        assert band_bits(cx.volume_band, tree, law, n_lo, n_hi) == \
            band_bits(before_band.volume_band, tree, law, n_lo, n_hi)
        window = range(max(n_lo, 2), min(n_hi, len(case["weights"]) - 1) + 1)
        if window:
            assert_band_bounds_hold(tree, law, window)


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_band_bounds_hold_on_the_regimes(bits):
    """The bounds enclose every ratio of the I/II/III laws on n0 = 2 builds and
    on the calibrated shifts, over [2, 600]."""
    with mp.workprec(bits):
        for regime, (p, q, params) in REGIMES.items():
            if regime not in ("I", "II", "III"):
                continue
            for n0 in (2, 8192):
                spec = lv.RegimeSpec(regime=regime, p=p, q=q, N=3, horizon=601, n0=n0,
                                     delta=mp.mpf(1), **params)
                built = lv.build(spec)
                law = lv.volume_target(spec)
                assert_band_bounds_hold(built.tree, law, range(2, 601))
                assert band_bits(cx.volume_band, built.tree, law, 2, 600) == \
                    band_bits(before_band.volume_band, built.tree, law, 2, 600)


def counted_band(monkeypatch, built, law, n_lo, n_hi):
    """The band, and the n at which the law was evaluated: through the call
    of a `PowerLogLaw`, or else through a wrapper around the callable."""
    calls = []
    if isinstance(law, lv.PowerLogLaw):
        call = lv.PowerLogLaw.__call__
        monkeypatch.setattr(lv.PowerLogLaw, "__call__",
                            lambda self, n: calls.append(n) or call(self, n))
        band = lv.volume_band(built, law, n_lo, n_hi)
        monkeypatch.undo()
    else:
        band = lv.volume_band(built, lambda n: calls.append(n) or law(n), n_lo, n_hi)
    return band, calls


@pytest.mark.parametrize("regime", list(REGIMES))
def test_band_evaluates_power_log_laws_at_few_n(monkeypatch, regime):
    """On the certify builds the I/II/III laws are evaluated at no more than 8
    of the 110-255 n of `construct`'s band; the exponential laws, flat to
    rounding, and an opaque callable are evaluated at every n."""
    p, q, params = REGIMES[regime]
    horizon = SCREEN_HORIZONS[regime]
    cert = lv.certify(regime, lv.pq(p, q), N=3, horizon=horizon, **params)
    law = lv.volume_target(cert.spec)
    window = list(range(16, horizon + 1))
    band, calls = counted_band(monkeypatch, cert.built, law, 16, horizon)
    assert band == before_band.volume_band(cert.built, law, 16, horizon)
    if regime in ("I", "II", "III"):
        assert 1 <= len(calls) <= 8 and calls == sorted(set(calls))
        _, calls = counted_band(monkeypatch, cert.built, lambda n: law(n), 16, horizon)
    assert calls == window


def test_band_evaluates_the_bench_law_at_few_n(monkeypatch):
    """The n0 = 2 regime I build over [16, 4096]: at most 8 of 4081 n."""
    p, q, params = REGIMES["I"]
    spec = lv.RegimeSpec(regime="I", p=p, q=q, N=3, horizon=4100, n0=2,
                         delta=mp.mpf(1), **params)
    built = lv.build(spec)
    law = lv.volume_target(spec)
    band, calls = counted_band(monkeypatch, built, law, 16, 4096)
    assert 1 <= len(calls) <= 8
    assert band == before_band.volume_band(built, law, 16, 4096)


def test_band_takes_a_law_with_an_exponent_floats_cannot_carry():
    """An exponent beyond the float range leaves every n undecided: the band
    is the loop over every n, with no OverflowError."""
    tree = lv.RadialTree(3, [mp.mpf(k + 1) for k in range(12)])
    vols = tree.ball_volumes(9)
    for expo in (10 ** 400, F(1, 10 ** 400), -10 ** 400):
        law = lv.PowerLogLaw(expo, mp.mpf(1))
        assert cx._band_bounds(vols, law, range(2, 10)) == [None] * 8
        band = cx._volume_band(vols, law, range(2, 10))
        assert (band.ratio_min._mpf_, band.ratio_max._mpf_) == \
            band_bits(before_band.volume_band, tree, law, 2, 9)


# ---------------------------------------------------------------------------
# the Nash-Williams sum on raw mpf values against its loop over mpf objects
# (tests/before_nash_williams.py), exactly

def nash_bits(nash_fn, profile, n_max, n_min):
    """The exact sum, or the type and message of what it raised."""
    try:
        return nash_fn(profile, n_max, n_min=n_min)._mpf_
    except InputError as exc:
        return "raised", type(exc).__name__, str(exc)


def random_volume(rng, n):
    """A positive volume in one of the forms a profile may return."""
    kind = rng.randrange(5)
    if kind == 0:       # magnitudes far apart, so additions round or perturb
        return mp.ldexp(mp.mpf(rng.random()) + mp.mpf(2) ** -60, rng.randrange(-600, 600))
    if kind == 1:
        return mp.mpf(n) ** rng.choice([2, 3, mp.mpf("1.5")]) * mp.ln(n + 1)
    if kind == 2:
        return rng.randrange(1, 10 ** 6)
    if kind == 3:
        return F(rng.randrange(1, 10 ** 9), rng.randrange(1, 10 ** 9))
    return rng.uniform(1e-3, 1e3)


@pytest.mark.parametrize("bits", [53, 128, 256])
@pytest.mark.parametrize("seed", range(3))
def test_nash_williams_sum_matches_the_mpf_loop(bits, seed):
    rng = random.Random(9100 + 10 * seed + bits)
    with mp.workprec(bits):
        for _ in range(12):
            n_min = rng.randrange(1, 50)
            n_max = n_min + rng.randrange(0, 400)
            vols = {n: random_volume(rng, n) for n in range(n_min, n_max + 1)}
            assert nash_bits(graphs.nash_williams_partial, vols.__getitem__, n_max, n_min) == \
                nash_bits(before_nash_williams.nash_williams_partial, vols.__getitem__,
                          n_max, n_min)


@pytest.mark.parametrize("bad", [0, -3, F(-1, 2), mp.mpf(0), mp.mpf("-2.5"), mp.inf, -mp.inf,
                                 mp.nan, float("nan"), "-1e-300"])
def test_nash_williams_errors_match_the_mpf_loop(bad):
    profile = lambda n: bad if n == 7 else mp.mpf(n) ** 2
    want = nash_bits(before_nash_williams.nash_williams_partial, profile, 20, 2)
    assert want[0] == "raised"
    assert nash_bits(graphs.nash_williams_partial, profile, 20, 2) == want
    for n_max, n_min in ((5, 0), (3, 5)):
        assert nash_bits(graphs.nash_williams_partial, profile, n_max, n_min) == \
            nash_bits(before_nash_williams.nash_williams_partial, profile, n_max, n_min)


# ---------------------------------------------------------------------------
# the float64 screen in front of the walk diagnostics and the pointwise bound
# against the loops evaluating every margin in mpf (tests/before_streams.py)

# Normalized margins planted in one family: on both sides of 0, of tol and of
# ten tolerances.  "0" is planted exactly where the family allows it.
WALK_MARGINS = ["0", "1e-35", "-1e-35", "5e-30", "-5e-30", "1e-27", "-1e-27"]
WALK_PLANTS = ["averaging", "sandwich_low", "sandwich_half", "sandwich_high",
               "gradient_ratio", "pointwise_power", "solution", "bound"]
WALK_P0S = [None, 1, F(3, 2), 4]

step_recipes = st.fixed_dictionaries({
    "values": st.lists(st.floats(0.1, 3.0), min_size=4, max_size=4),
    "exps": st.sampled_from([(0, 0, 0, 0), (-400,) * 4, (400,) * 4])
    | st.lists(st.sampled_from([-400, 0, 400]), min_size=4, max_size=4).map(tuple),
    "u_sign": st.sampled_from([1] * 8 + [0, -1]),
    "lap_sign": st.sampled_from([-1] * 6 + [0, 1, 1]),
    "drop": st.sampled_from(["positive"] * 6 + ["zero", "negative"]),
    "grad_zero": st.sampled_from([False] * 7 + [True]),
    "plant": st.none() | st.sampled_from(WALK_PLANTS),
    "margin": st.sampled_from(WALK_MARGINS),
    "copy": st.none() | st.integers(0, 7),
})


@st.composite
def walk_cases(draw):
    """A recipe for a recorded walk, built by `build_walk`: steps with planted
    margins, copies of earlier steps (ties for the maximum) or one step
    repeated (flat families), at 53 or 128 bits."""
    return {
        "bits": draw(st.sampled_from([53, 128])),
        "steps": draw(st.lists(step_recipes, min_size=1, max_size=8)),
        "flat": draw(st.sampled_from([False, False, False, True])),
        "p0": draw(st.sampled_from(WALK_P0S)),
        "point": draw(st.sampled_from(POINTS + [None])),
    }


def planted_step(r, p0, point):
    """(u, lap, grad, drop) of a step recipe at the working precision."""
    u, lap, grad, drop = (mp.mpf(v) * mp.mpf(10) ** e for v, e in zip(r["values"], r["exps"]))
    u *= r["u_sign"]
    lap *= r["lap_sign"]
    grad = mp.mpf(0) if r["grad_zero"] else grad
    drop = {"positive": drop, "zero": mp.mpf(0), "negative": -drop}[r["drop"]]
    m, plant, sqrt2 = mp.mpf(r["margin"]), r["plant"], mp.sqrt(2)
    if plant is None or not u > 0:
        return u, lap, grad, drop
    if plant == "averaging" and grad > 0:
        # (|lap| - sqrt2 grad) / max(|lap|, sqrt2 grad) = m
        rhs = sqrt2 * grad
        lap = -(rhs / (1 - m) if m > 0 else rhs * (1 + m))
    elif plant == "gradient_ratio" and p0 is not None and drop > 0:
        bound = mp.sqrt((1 + lv.to_mpf(p0) ** 2) / 2) * drop
        lap = -abs(lap)
        grad = bound / (1 - m) if m > 0 else bound * (1 + m)
    elif point is None or grad == 0:
        pass
    elif plant.startswith("sandwich") and drop > 0:
        # r = |lap|/drop with max(-r, r - 1) / max(1, r) = m, on either side of
        # r = 1/2, or r = 1/2 itself, the margin's minimum -1/2
        if plant == "sandwich_half":
            r_ = mp.mpf(0.5)
        else:
            r_ = 1 / (1 - m) if m >= 0 else (-m if plant == "sandwich_low" else 1 + m)
        lap = -r_ * drop
        # u^p grad^q = |lap|/2, so that the step solves
        p, q = lv.to_mpf(point.p), lv.to_mpf(point.q)
        u = (abs(lap) / 2 / mp.power(grad, q)) ** (1 / p)
    elif plant == "pointwise_power":
        # sqrt2 u^-p grad^(1-q) = rhs, with (1 - rhs) / max(1, rhs) = m
        p, q = lv.to_mpf(point.p), lv.to_mpf(point.q)
        rhs = 1 - m if m >= 0 else 1 / (1 + m)
        u = (rhs / (sqrt2 * mp.power(grad, 1 - q))) ** (-1 / p)
        lap = -2 * lv.nonlinear_term(u, grad ** 2, point.p, point.q)
    elif plant == "bound":
        # u^(p-1) grad^q = 1 + m
        p, q = lv.to_mpf(point.p), lv.to_mpf(point.q)
        u = ((1 + m) / mp.power(grad, q)) ** (1 / (p - 1))
        lap = -2 * lv.nonlinear_term(u, grad ** 2, point.p, point.q)
    elif plant == "solution":
        # term / |lap| = 1 + m
        lap = -lv.nonlinear_term(u, grad ** 2, point.p, point.q) / (1 + m)
    return u, lap, grad, drop


def build_walk(case):
    """The recorded walk of a `walk_cases` recipe, at the working precision."""
    rows = []
    for r in case["steps"]:
        if r["copy"] is not None and r["copy"] < len(rows):
            rows.append(rows[r["copy"]])
        else:
            rows.append(planted_step(r, case["p0"], case["point"]))
    if case["flat"]:
        rows = rows[:1] * len(rows)
    steps = [descent.DescentStep(site=i, u=u, lap=lap, grad=grad,
                                 drop=drop if i < len(rows) - 1 else None)
             for i, (u, lap, grad, drop) in enumerate(rows)]
    return descent.DescentWalk(steps=tuple(steps), termination="max-steps",
                               revisit_flagged=False)


def assert_pointwise_core_matches(walk, point):
    """`_pointwise_core` on the walk's (u, lap, grad^2), equal sites sharing a
    class, against the loop over every site."""
    sites = [(s.u, s.lap, s.grad ** 2) for s in walk.steps]
    index, class_of, reps = {}, [], []
    for i, site in enumerate(sites):
        c = index.setdefault(tuple(x._mpf_ for x in site), len(reps))
        if c == len(reps):
            reps.append(i)
        class_of.append(c)
    same(lambda: descent._pointwise_core(range(len(sites)), class_of, reps,
                                         sites.__getitem__, point),
         lambda: OLD_POINTWISE_CORE([(i, u, lap, mp.sqrt(g2), g2)
                                     for i, (u, lap, g2) in enumerate(sites)], point))


def check_bounds(monkeypatch):
    """Make every screened family (`descent._screened`) check each bound of its
    column against the mpf margin; a second call (the next example of a
    Hypothesis test) keeps it."""
    screened = descent._screened
    if getattr(screened, "checks_bounds", False):
        return

    def checked(items, bounds, margin_of):
        for item, bound in zip(items, bounds):
            if bound is not None:
                margin, _ = margin_of(item)
                assert bound[0] <= margin <= bound[1], (bound, margin)
        return screened(items, bounds, margin_of)

    checked.checks_bounds = True
    monkeypatch.setattr(descent, "_screened", checked)


def planted_walk(plants, point=POINTS[0], p0=4, bits=128):
    """A `walk_cases` recipe of unit-scale steps, one per (plant, margin)."""
    step = {"values": [1.0, 0.7, 1.3, 0.9], "exps": (0, 0, 0, 0), "u_sign": 1,
            "lap_sign": -1, "drop": "positive", "grad_zero": False, "copy": None}
    return {"bits": bits, "flat": False, "p0": p0, "point": point,
            "steps": [dict(step, plant=plant, margin=m) for plant, m in plants]
            + [dict(step, plant=None, margin="0")]}


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(walk_cases())
@example(planted_walk([("solution", m) for m in WALK_MARGINS]))
@example(planted_walk([("sandwich_half", "0"), ("sandwich_low", "-1e-35"),
                       ("sandwich_high", "1e-35")]))
@example(planted_walk([(plant, m) for plant in WALK_PLANTS for m in ("0", "5e-30")],
                      point=POINTS[4], p0=1))
def test_screened_diagnostics_match_the_mpf_loops(monkeypatch, case):
    check_bounds(monkeypatch)
    with mp.workprec(case["bits"]):
        walk = build_walk(case)
        same(lv.walk_diagnostics, old.walk_diagnostics, walk, case["p0"], case["point"])
        if case["point"] is not None:
            assert_pointwise_core_matches(walk, case["point"])


def planted_tree(rng, point, margin):
    """A one-sided tree whose profile is scaled so that the pointwise bound's
    margin is `margin` at one layer solving the inequality, if one does."""
    tree, u = one_sided_case(rng, rng.randrange(4, 12))
    ops = lv.layer_operators(tree, u)
    p, q = lv.to_mpf(point.p), lv.to_mpf(point.q)
    layers = [n for n in range(tree.layer_hi)
              if ops(n)[1] < 0 and abs(ops(n)[1]) > 2 * ops(n)[0] and ops(n)[2] > 0]
    if layers:
        n = rng.choice(layers)
        un, _, grad_sq = ops(n)
        x = mp.power(un, p - 1) * mp.power(grad_sq, q / 2)
        c = ((1 + mp.mpf(margin)) / x) ** (1 / (p - 1 + q))
        u = lv.RadialFunction([v * c for v in u.values()])
    return tree, u


@pytest.mark.parametrize("seed", range(3))
def test_screened_pointwise_bound_matches_on_planted_trees(monkeypatch, seed):
    """pointwise_bound_check_built, pointwise_bound_check on the materialized
    ball and the walk diagnostics on trees with a planted pointwise margin."""
    check_bounds(monkeypatch)
    rng = random.Random(9000 + seed)
    for bits in (53, 128):
        with mp.workprec(bits):
            for point in POINTS:
                for margin in WALK_MARGINS:
                    tree, u = planted_tree(rng, point, margin)
                    spec = lv.RegimeSpec(regime="I", p=point.p, q=point.q, N=tree.N, horizon=2)
                    built = cx.BuiltCounterexample(tree, u, spec)
                    same(lv.pointwise_bound_check_built, OLD_POINTWISE_BOUND_BUILT,
                         built, None)
                    g, layers = tree.materialize(min(3, tree.layer_hi - 1))
                    gu = lv.induced_graph_function(u, layers)
                    same(lv.pointwise_bound_check, OLD_POINTWISE_BOUND, g, gu, point)
                    if same(lv.radial_descent_walk, old.radial_descent_walk,
                            tree, u, 0, 50)[0] == "ok":
                        walk = lv.radial_descent_walk(tree, u, 0, 50)
                        same(lv.walk_diagnostics, old.walk_diagnostics, walk, tree.p0(), point)


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_walk_screen_bounds_hold(monkeypatch, request, bits):
    """Every bound the screen hands a family contains the family's mpf margin,
    on the conftest IV and V1 walks rebuilt at the precision, their pointwise
    bounds and the 10^-400..10^400 walks of random trees."""
    check_bounds(monkeypatch)
    rng = random.Random(bits)
    with mp.workprec(bits):
        for name in ("regime4_walk", "regime5_walk"):
            built = lv.build(request.getfixturevalue(name).spec)
            walk = lv.radial_descent_walk(built.tree, built.u, 0, 1000)
            same(lv.walk_diagnostics, old.walk_diagnostics, walk, built.tree.p0(),
                 built.spec.point)
            same(lv.pointwise_bound_check_built, OLD_POINTWISE_BOUND_BUILT, built, 1000)
        for scale in ("1e-400", "1", "1e400"):
            tree, u = one_sided_case(rng, 30)
            u = lv.RadialFunction([v * mp.mpf(scale) for v in u.values()])
            walk = lv.radial_descent_walk(tree, u, 1, 30)
            for point in POINTS:
                same(lv.walk_diagnostics, old.walk_diagnostics, walk, tree.p0(), point)


def counted_margins(monkeypatch):
    """Wrap the mpf margins of the walk diagnostics and the pointwise bound,
    and the site verdict `_TermKernel.check` that re-checks the inequality;
    the returned dict counts the calls per function."""
    calls = {}
    targets = [(descent, name) for name in ("_averaging", "_sandwich", "_gradient_ratio",
                                            "_pointwise_power", "_pointwise_margin")]
    for owner, name in targets + [(cx._TermKernel, "check")]:
        fn = getattr(owner, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("fixture", ["regime4_walk", "regime5_walk"])
def test_walk_screen_sends_few_steps_to_mpf(monkeypatch, request, fixture):
    """On the conftest IV walk (1000 steps) each family and the re-check reach
    mpf at a handful of steps.  V1 is self-similar: its gradient-ratio margins
    and its pointwise-bound margins agree to 1e-30, so those two reach mpf at
    every step, and the other families still at a handful."""
    built = request.getfixturevalue(fixture)
    walk = lv.radial_descent_walk(built.tree, built.u, 0, 1000)
    point = built.spec.point
    want_walk = old.walk_diagnostics(walk, built.tree.p0(), point)
    want_bound = OLD_POINTWISE_BOUND_BUILT(built, 1000)
    calls = counted_margins(monkeypatch)
    diag = lv.walk_diagnostics(walk, built.tree.p0(), point)
    walk_calls = dict(calls)
    calls.clear()
    bound = lv.pointwise_bound_check_built(built, 1000)
    assert exact(diag) == exact(want_walk) and exact(bound) == exact(want_bound)
    every = {"_gradient_ratio", "_pointwise_margin"} if fixture == "regime5_walk" else set()
    for name in ("_averaging", "_sandwich", "_gradient_ratio", "_pointwise_power", "check"):
        n = walk_calls.get(name, 0)
        assert n >= 990 if name in every else n <= 4, (name, n)
    n = calls.get("_pointwise_margin", 0)
    assert n >= 990 if "_pointwise_margin" in every else n <= 4
    assert "check" not in calls


# ---------------------------------------------------------------------------
# The screen's callers, one column call per pass, against their per-item
# forms (tests/before_screen.py): the same bounds and verdicts, float for
# float, with None and _NEGATIVE at the same items

COLUMN_BITS = [53, 128, 256, 1100]
# a value planted into one stored u, running volume, profile row or walk
# input: zero, negated, or scaled by 2^e with e past the reader's exponent
# cap or more than 2^14 binary places from its neighbours'
WILD = ["zero", "negated", 1 << 41, -(1 << 41), 1 << 40, 20000, -20000]


def planted(x, wild):
    """x with a `WILD` value planted."""
    if wild == "zero":
        return mp.mpf(0)
    return -x if wild == "negated" else mp.ldexp(x, wild)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(screen_cases(), st.sampled_from(COLUMN_BITS),
       st.none() | st.tuples(st.integers(0, 18), st.sampled_from(WILD)))
def test_column_margin_screen_is_the_per_layer_screen(case, bits, wild):
    with mp.workprec(bits):
        tree, u, p, q, layers = build_case(case)
        if wild is not None:
            values = list(u.values())
            k = wild[0] % len(values)
            values[k] = planted(values[k], wild[1])
            u = lv.RadialFunction(values, lo=u.lo)
        term_of = lv.term_kernel(p, q)
        assert cx._screen(tree, u, layers, term_of)[0] == \
            before_screen._screen(tree, u, layers, term_of)


@pytest.mark.parametrize("bits", COLUMN_BITS)
def test_column_margin_screen_on_a_two_sided_build_and_a_one_sided_root(regime1_small, bits):
    """A V2 build over both arms, and regime I's one-sided build from its
    root, rebuilt at the precision: the screen decides layers on both arms
    and at the root, as the per-layer screen does."""
    with lv.precision(128):
        v2 = lv.calibrate("V2", lv.pq(2, -1), N=3, horizon=40)
    with mp.workprec(bits):
        for spec in (v2, regime1_small.spec):
            built = lv.build(spec)
            layers = built.tree.checked_layers(None)
            term_of = lv.term_kernel(spec.point.p, spec.point.q)
            bounds = cx._screen(built.tree, built.u, layers, term_of)[0]
            assert bounds == before_screen._screen(built.tree, built.u, layers, term_of)
            decided = [n for n, b in zip(layers, bounds) if b is not None]
            assert layers[0] == (-40 if spec is v2 else 0) and decided
            assert min(decided) < 0 < max(decided) if spec is v2 else 0 in decided


@pytest.mark.parametrize("bits", [53, 128, 1100])
def test_column_margin_screen_declines_terms_far_apart_as_before(bits):
    """A sum whose two nonzero terms lie more than 2^14 binary places apart
    leaves its layer undecided.  Layer 3 has u_2 = 2^-gap beside u_3 = 1, or
    w_3 = 2^wgap beside w_2 = 1: at gap 10^4 only the squares' sum a d_out^2
    + b d_in^2 is that far apart, at 17000 u_3 - u_2 itself, and at 5000
    nothing is.  The root has u_1 = 2^-gap beside u_0 = 1, where the one
    difference decides."""
    term_of = lv.term_kernel(2, 1)
    with mp.workprec(bits):
        for gap, wgap, layer, decided in ((5000, 0, 3, True), (10000, 0, 3, False),
                                          (17000, 0, 3, False), (0, 17000, 3, False),
                                          (5000, 0, 0, True), (17000, 0, 0, False)):
            weights = [mp.mpf(1)] * 3 + [mp.ldexp(1, wgap), mp.mpf(1), mp.mpf(1)]
            tree = lv.RadialTree(2, weights)
            values = [mp.mpf(4), mp.mpf(3), mp.ldexp(1, -gap), mp.mpf(1), mp.mpf("0.9"),
                      mp.mpf("0.8"), mp.mpf("0.7")]
            if layer == 0:
                values[:2] = [mp.mpf(1), mp.ldexp(1, -gap)]
            u = lv.RadialFunction(values)
            layers = tree.checked_layers(None)
            bounds = cx._screen(tree, u, layers, term_of)[0]
            assert bounds == before_screen._screen(tree, u, layers, term_of)
            assert (bounds[layers.index(layer)] is not None) == decided, (gap, wgap, layer)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(band_cases(), st.sampled_from(COLUMN_BITS),
       st.none() | st.tuples(st.integers(0, 40), st.sampled_from(WILD)))
def test_column_band_bounds_are_the_per_radius_bounds(case, bits, wild):
    with mp.workprec(bits):
        tree, law = build_band_case(case)
        H = len(case["weights"]) - 1
        vols = list(tree.ball_volumes(H))
        if wild is not None:
            k = wild[0] % (H + 1)
            vols[k] = planted(vols[k], wild[1])
        window = range(2, H + 1)
        assert cx._band_bounds(vols, law, window) == [
            None if b == (-math.inf, math.inf) else b
            for b in before_screen._band_bounds(vols, law, window)]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lambda_window_cases(), st.sampled_from(COLUMN_BITS),
       st.none() | st.tuples(st.integers(0, 400), st.integers(0, 1), st.sampled_from(WILD)))
@example({"regime": "III", "point": lv.pq(-1, F(3, 2)), "param": F(1, 10), "n0": 2 ** 27,
          "H": 125, "bits": 128}, 1100, None)
def test_column_window_bounds_are_the_per_m_bounds(case, bits, wild):
    """The Lambda kernels' screens of a tail window, each kernel's `at`
    returning its terms and rho: the same bounds and the same m proved
    negative as with `at` bounding each m itself, the reference's
    (bounds, negative) read as one list with False at a negative m."""
    regime, point, param, n0, H = (case[k] for k in ("regime", "point", "param", "n0", "H"))
    lo, hi = (n + n0 for n in cx._tail_window(H))
    with mp.workprec(bits):
        profile, _, screened = cx._lambda_kernel(regime, point, param)
        rows = [profile(m) for m in range(lo - 1, hi + 2)]
        if wild is not None:
            k, j, kind = wild[0] % len(rows), wild[1], wild[2]
            row = list(rows[k])
            row[j] = planted(mp.make_mpf(row[j]), kind)._mpf_
            rows[k] = tuple(row)
        want = before_screen.lambda_screen(regime, point, param)(rows)
        assert screened(rows) == [False if negative else bound
                                  for bound, negative in zip(*want)]


def recorded_families(patch):
    """Record the (items, bounds) columns each screened family of the walk
    diagnostics and the pointwise bound is given, in order, from the package
    and from the per-item reference."""
    got, want = [], []
    screened = descent._screened
    patch.setattr(descent, "_screened", lambda items, bounds, margin_of: (
        got.append((list(items), list(bounds))) or screened(items, bounds, margin_of)))

    class Recorded(before_screen._Screened):
        def done(self):
            want.append(([item for item, _ in self.items], [b for _, b in self.items]))
            return super().done()

    patch.setattr(before_screen, "_Screened", Recorded)
    return got, want


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(walk_cases(), st.sampled_from(COLUMN_BITS),
       st.none() | st.tuples(st.integers(0, 7), st.sampled_from(["u", "lap", "grad", "drop"]),
                             st.sampled_from(WILD)))
def test_column_walk_screens_are_the_per_step_screens(case, bits, wild):
    """Every family of the walk diagnostics and the pointwise bound gets the
    bounds the per-step screen gave it, and the same report."""
    with mp.workprec(bits):
        walk = build_walk(case)
        if wild is not None:
            k, name, kind = wild[0] % len(walk.steps), wild[1], wild[2]
            steps = list(walk.steps)
            if getattr(steps[k], name) is not None:
                steps[k] = dataclasses.replace(steps[k], **{name: planted(getattr(steps[k], name),
                                                                         kind)})
            walk = dataclasses.replace(walk, steps=tuple(steps))
        point = case["point"]
        with pytest.MonkeyPatch.context() as patch:
            got, want = recorded_families(patch)
            same(lv.walk_diagnostics, before_screen.walk_diagnostics, walk, case["p0"], point)
            if point is not None:
                sites = [(s.u, s.lap, s.grad ** 2) for s in walk.steps]
                same(descent._pointwise_core, before_screen._pointwise_core, range(len(sites)),
                     range(len(sites)), range(len(sites)), sites.__getitem__, point)
        assert got == want


def counted_kernels(patch):
    """Count the calls of the screen's budget, verdict and shape kernels."""
    calls = {}
    for name in ("log2_bound", "solution_check", "margin_bounds"):
        fn = getattr(screen, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        patch.setattr(screen, name, counted)
    return calls


def test_each_screen_pass_makes_one_call_per_kernel(regime4_walk):
    """A 700-layer verify, a 4,081-n band, a tail window's minimum and a
    pointwise bound over 1,000 layers each call each kernel they use once
    (a verdict or shape call makes its own budget call); a walk's
    diagnostics call them a fixed number of times, whatever its length."""
    with lv.precision(128):
        built = lv.build(lv.calibrate("I", lv.pq(2, 1), N=3, horizon=700, eps=F(1, 10)))
        spec = built.spec
        law = lv.volume_target(spec)
        wide = lv.build(dataclasses.replace(spec, horizon=4097))
        long_walk = lv.radial_descent_walk(regime4_walk.tree, regime4_walk.u, 0, 1000)
        short_walk = lv.radial_descent_walk(regime4_walk.tree, regime4_walk.u, 0, 10)
        runs = {
            "verify": lambda: lv.verify_radial(built.tree, built.u, spec.p, spec.q, 700),
            "band": lambda: lv.volume_band(wide, law, 16, 4096),
            "window": lambda: cx._window_min("I", spec.point, spec.eps, spec.n0, 700),
            "bound": lambda: lv.pointwise_bound_check_built(regime4_walk, 1000),
            "walk": lambda: lv.walk_diagnostics(long_walk, 4, regime4_walk.spec.point),
            "short walk": lambda: lv.walk_diagnostics(short_walk, 4, regime4_walk.spec.point),
        }
        counts = {}
        for name, run in runs.items():
            with pytest.MonkeyPatch.context() as patch:
                calls = counted_kernels(patch)
                result = run()
            counts[name] = calls
            if name == "verify":
                assert result.n_layers == 701 and result.precision_bits == 128
    assert counts["verify"] == {"solution_check": 1, "log2_bound": 1}
    assert counts["band"] == {"log2_bound": 1}
    assert counts["window"] == {"log2_bound": 1}
    assert counts["bound"] == {"solution_check": 1, "margin_bounds": 1, "log2_bound": 2}
    assert counts["walk"] == counts["short walk"] == {
        "solution_check": 1, "margin_bounds": 4, "log2_bound": 5}
    assert len(long_walk.steps) == 1001 and len(short_walk.steps) == 11


# ---------------------------------------------------------------------------
# The decimal reader against mp.mpf

READER_BITS = [53, 128, 256, 512, 1024]


def mpf_or_error(convert, text):
    """convert(text)._mpf_ at each of READER_BITS, or the exception type raised."""
    out = []
    for bits in READER_BITS:
        with mp.workprec(bits):
            try:
                out.append(convert(text)._mpf_)
            except (ValueError, ZeroDivisionError) as exc:
                out.append(type(exc))
    return out


@st.composite
def decimal_strings(draw):
    """Plain decimals: 1-60 digits, some trailing zeros, a sign, the point
    anywhere (integer or fraction part possibly empty) or absent, and an
    exponent across +-3000, on both sides of mpmath's 400 cutoff and over
    the V1 and V2 certificates' range."""
    digits = draw(st.text("0123456789", min_size=1, max_size=60))
    digits += "0" * draw(st.integers(0, 8))
    sign = draw(st.sampled_from(["", "+", "-"]))
    point = draw(st.none() | st.integers(0, len(digits)))
    body = digits if point is None else digits[:point] + "." + digits[point:]
    exponent = draw(st.none() | st.integers(-3000, 3000))
    if exponent is not None:
        body += draw(st.sampled_from(["e", "E"])) + draw(st.sampled_from(["", "+"])
                                                         if exponent >= 0 else st.just(""))
        body += str(exponent)
    return sign + body


@settings(max_examples=1500, deadline=None)
@given(decimal_strings())
@example("1e400")
@example("1e401")
@example("1e-400")
@example("1e-401")
@example("1.5e-399")
@example("-100e-402")
@example("0.000e-450")
@example("12345678901234567890123456789012345678901234567890123456789.0e-420")
@example("2.670204358332546958482251799636454240798e+2436")
@example("-2.051584664733314668441615715220063499696e+441")
@example("1.315637887248350860337409760415375138650e-609")
@example("4.874280926300401658022303013486096046844e-441")
@example("2.670204358332546958482251799636454240798e+34836")
@example("3e-447")         # 5^447 fits in 1024 + 15 bits: `_pow10` leaves it to mpmath
@example("1.00000000000000011102230246251565404236316680908203125")
@example("1.00000000000000033306690738754696212708950042724609375")
@example("-1.00000000000000011102230246251565404236316680908203125")
@example("-1.00000000000000033306690738754696212708950042724609375")
@example("-0.0")
def test_parse_decimal_is_mpf(text):
    """Bit for bit; mpmath's own rejections (".0", whose digits strip to
    nothing) included.  The reprs are compared too: a sign that is the bool
    True instead of mpmath's int 1 equals it, but prints otherwise."""
    got, want = mpf_or_error(lv.parse_decimal, text), mpf_or_error(mp.mpf, text)
    assert got == want
    assert repr(got) == repr(want)


def test_parse_decimal_divides_once(monkeypatch):
    """A negative exponent costs one integer quotient, rounded once: no
    mpf is made of the mantissa, no mpf division, no shift.  The 53-bit
    ties above (1 + 2^-53 down to 1, 1 + 3 2^-53 up to 1 + 2^-51) and the
    property test hold the bits."""
    texts = ["0.1", "-2.5e-7", "2.270075335734646803520915403211727302541"]
    with mp.workprec(128):
        want = [repr(mp.mpf(t)._mpf_) for t in texts]      # the sign an int, as mpmath's

    def forbidden(*args, **kwargs):
        raise AssertionError("parse_decimal went through an mpf conversion")

    for name in ("from_int", "mpf_div", "mpf_shift"):
        monkeypatch.setattr(numerics, name, forbidden, raising=False)
    with mp.workprec(128):
        assert [repr(numerics.parse_decimal(t)._mpf_) for t in texts] == want


def test_parse_decimal_reads_tabulated_powers_of_five(monkeypatch):
    """Past 10^400 the power of ten comes from `_POW5`: no mpf power is
    taken for the 40-digit decimals of a V1 or V2 certificate, and they
    read with mp.mpf's bits and reprs."""
    texts = ["2.670204358332546958482251799636454240798e+2436", "8.0",
             "1.31563788724835086033740976041537513865e-609",
             "2.650396553004310816338679447269582701525e-261",
             "7.122089044302971081064932582242749227171e-610",
             "2.051584664733314668441615715220063499696e+457",
             "4.874280926300401658022303013486096046844e-458"]
    with mp.workprec(128):
        want = [repr(mp.mpf(t)._mpf_) for t in texts]

    def forbidden(*args, **kwargs):
        raise AssertionError("parse_decimal took an mpf power of ten")

    monkeypatch.setattr(numerics, "mpf_pow_int", forbidden)
    with mp.workprec(128):
        assert [repr(numerics.parse_decimal(t)._mpf_) for t in texts] == want


def test_parse_decimal_multiplies_by_tabulated_powers_of_five(monkeypatch):
    """A positive exponent up to 400 multiplies by `_POW5[e]` and puts e
    into the binary exponent: no 10^e is formed and no `from_int` called."""
    texts = ["12e5", "-3e400", "7e0", "8.0", "2.5e+380", "123456789012345678901234567890e17"]
    with mp.workprec(128):
        want = [repr(mp.mpf(t)._mpf_) for t in texts]

    def forbidden(*args, **kwargs):
        raise AssertionError("parse_decimal went through from_int")

    monkeypatch.setattr(numerics, "from_int", forbidden)
    with mp.workprec(128):
        assert [repr(numerics.parse_decimal(t)._mpf_) for t in texts] == want


def _exact_decimal(num: int, k: int) -> str:
    """num / 2^k written out exactly: num 5^k / 10^k."""
    digits = str(abs(num) * 5 ** k).rjust(k + 1, "0")
    return ("-" if num < 0 else "") + digits[:-k] + "." + digits[-k:]


def test_parse_decimal_rounds_128_bit_midpoints_half_even():
    """Exact midpoints between 128-bit neighbours, which random decimals
    almost never hit: (2m + 1) 2^(e-1) rounds to the even one of m 2^e and
    (m + 1) 2^e, through the quotient (a fraction) and through the
    tabulated powers of five (t 10^E with t 5^E = 2m + 1); one more digit
    past a midpoint rounds away from m."""
    parities = set()
    with mp.workprec(128):
        for m in (2 ** 127 + 12345, 2 ** 127 + 12346, 3 * 2 ** 126 + 1, 2 ** 128 - 2):
            parities.add(m & 1)
            for text in (_exact_decimal(2 * m + 1, 128), _exact_decimal(-(2 * m + 1), 128)):
                got = lv.parse_decimal(text)
                assert repr(got._mpf_) == repr(mp.mpf(text)._mpf_), text
                assert abs(got) == mp.ldexp(m + (m & 1), -127)
                past = lv.parse_decimal(text + "1")    # a hair past it: a sticky bit
                assert repr(past._mpf_) == repr(mp.mpf(text + "1")._mpf_), text
                assert abs(past) == mp.ldexp(m + 1, -127)
        for t, E in ((2 ** 59 + 1, 30), (2 ** 59 + 3, 30), (2 ** 122 + 1, 3), (2 ** 122 + 3, 3)):
            odd = t * 5 ** E                # 2m + 1, of 129 bits
            assert odd.bit_length() == 129
            m = odd >> 1
            parities.add(2 + (m & 1))
            text = f"{t}e{E}"
            got = lv.parse_decimal(text)
            assert repr(got._mpf_) == repr(mp.mpf(text)._mpf_), text
            assert got == mp.ldexp(m + (m & 1), E + 1)
    assert parities == {0, 1, 2, 3}         # both parities on both paths


def test_parse_decimal_carries_a_midpoint_into_the_next_binade():
    """(2^129 - 1) 2^(e-1) lies halfway between the largest 128-bit
    mantissa, which is odd, and 2^128: it rounds up to the power of 2, as
    a fraction and as an integer (e = 0)."""
    with mp.workprec(128):
        for text in (_exact_decimal(2 ** 129 - 1, 129), str(2 ** 129 - 1),
                     "-" + str(2 ** 129 - 1)):
            got = lv.parse_decimal(text)
            assert repr(got._mpf_) == repr(mp.mpf(text)._mpf_), text
            assert got._mpf_[1:] == (1, 129 if "." not in text else 0, 1)


def test_parse_decimal_reads_every_positive_exponent_to_400_as_mpf():
    """The `_POW5[e]` branch at every e from 0 to 400, with 1- to 45-digit
    mantissas of both signs, at every reader precision."""
    rng = random.Random(26)
    for e in range(401):
        for text in (f"{rng.randrange(1, 10 ** rng.randint(1, 45))}e{e}",
                     f"-{rng.randrange(1, 10 ** 40)}E+{e}", f"{rng.randrange(10 ** 30)}.e{e}"):
            got, want = mpf_or_error(lv.parse_decimal, text), mpf_or_error(mp.mpf, text)
            assert repr(got) == repr(want), text


def test_pow10_is_mpmaths_power_where_decided():
    """`_pow10` against mpf_pow_int at every |n| from 401 to 3000, and at a
    few up to 10^6 (5^400 squared up to eleven times), at the prec + 10 bits
    `parse_decimal` asks for: equal wherever it decides, and deciding every
    n below 1024 bits.  At 1034 bits it leaves only the n whose 5^|n| fits
    in the bits mpmath rounds to, which mpmath may hold exactly."""
    for wp in (63, 138, 266, 522, 1034):
        undecided = []
        for k in [*range(401, 3001), 34817, 123457, 10 ** 6 + 3]:
            for n in (k, -k):
                got = numerics._pow10(n, wp)
                if got is None:
                    undecided.append(n)
                else:
                    assert got == mpf_pow_int(ften, n, wp), (n, wp)
        if wp < 1034:
            assert undecided == [], wp
        else:
            assert -447 in undecided
            assert all((5 ** abs(n)).bit_length() <= wp + 5 * (n < 0) for n in undecided)


@pytest.mark.parametrize("text", ["inf", "+inf", "-inf", "Infinity", "nan", "NaN", "1/3",
                                  "-2/7", "3/-4", "0/5", " 1.5 ", "1.5\n",
                                  "١٢", "1l", "2.5L", "1E5", "0x10"])
def test_parse_decimal_special_spellings_are_mpf(text):
    assert mpf_or_error(lv.parse_decimal, text) == mpf_or_error(mp.mpf, text)


@pytest.mark.parametrize("text", ["1_0", "1.5_5", "1.00_1", "1_000e-3", "1/2_0", "_1"])
def test_parse_decimal_rejects_digit_separators(text):
    """mp.mpf misreads a separator after the point (1.5_5 as 0.155), so no
    spelling with one is read."""
    assert mpf_or_error(lv.parse_decimal, text) == [ValueError] * len(READER_BITS)
    with mp.workprec(128):
        assert mp.mpf("1.5_5") == mp.mpf("0.155")


@pytest.mark.parametrize("text", ["", ".", "e5", "1e", "1.2.3", "--1", ".0", "-.00e3", "+",
                                  "1e+", ".e5", "abc"])
def test_parse_decimal_rejects_malformed_strings_as_mpf_does(text):
    assert mpf_or_error(mp.mpf, text) == [ValueError] * len(READER_BITS)
    assert mpf_or_error(lv.parse_decimal, text) == [ValueError] * len(READER_BITS)


@pytest.mark.parametrize("text", ["1/0", "0/0", "-1/0"])
def test_parse_decimal_turns_a_zero_denominator_into_value_error(text):
    assert mpf_or_error(mp.mpf, text) == [ZeroDivisionError] * len(READER_BITS)
    assert mpf_or_error(lv.parse_decimal, text) == [ValueError] * len(READER_BITS)


# ---------------------------------------------------------------------------
# the rolling layer stream and the walk that reads it


def _scaled(draw, lo, hi):
    """A random mpf of either sign within [lo, hi) in magnitude's log2."""
    man = draw(st.integers(1, 2 ** 60))
    return mp.mpf(draw(st.sampled_from([1, -1])) * man) * mp.mpf(2) ** draw(st.integers(lo, hi))


@st.composite
def stream_cases(draw):
    """A one- or two-sided tree with weights and values spanning 2^+-1000,
    and a call sequence that goes forward, backward, repeats a layer and
    jumps (out of range too), each call at one of three precisions."""
    N = draw(st.integers(2, 4))
    if draw(st.booleans()):
        H = draw(st.integers(1, 12))
        tree = lv.RadialTree(N, [abs(_scaled(draw, -1000, 1000)) for _ in range(H + 1)])
        u = lv.RadialFunction([_scaled(draw, -1000, 1000) for _ in range(H + 1)])
    else:
        M = draw(st.integers(1, 8))
        tree = lv.TwoSidedRadialTree(N, [abs(_scaled(draw, -1000, 1000)) for _ in range(M)],
                                     [abs(_scaled(draw, -1000, 1000)) for _ in range(M)])
        u = lv.RadialFunction([_scaled(draw, -1000, 1000) for _ in range(2 * M + 1)], lo=-M)
    n = draw(st.integers(tree.layer_lo, tree.layer_hi))
    bits = draw(st.sampled_from([53, 128, 256]))
    calls = []
    for move, change in draw(st.lists(st.tuples(
            st.sampled_from(["forward"] * 4 + ["backward", "repeat", "jump"]),
            st.sampled_from([None] * 3 + [53, 128, 256])), max_size=40)):
        if move == "forward":
            n += 1
        elif move == "backward":
            n -= 1
        elif move == "jump":
            n = draw(st.integers(tree.layer_lo - 1, tree.layer_hi + 1))
        bits = change or bits           # a workprec change between two calls
        calls.append((n, bits))
    return tree, u, calls


def _reference_operators(tree, u, n):
    lap, grad_sq = tree.laplacian_at(u, n), tree.gradient_sq_at(u, n)
    return u.value(n), lap, grad_sq


@settings(max_examples=300, deadline=None)
@given(stream_cases())
def test_layer_stream_is_the_reference_operators(case):
    """Every call, rolled or not, gives the reference values bit for bit,
    and raises where they raise; after a call, `d_out` and `d_in` are the
    layer's differences."""
    tree, u, calls = case
    ops = lv.layer_operators(tree, u)
    for n, bits in calls:
        with mp.workprec(bits):
            got = outcome(ops, n)
            assert got == outcome(_reference_operators, tree, u, n)
            if got[0] == "ok":
                _assert_differences(ops, tree, u, n)


def _assert_differences(ops, tree, u, n):
    assert ops.d_out == (u.value(n + 1) - u.value(n))._mpf_
    if n == 0 and tree.one_sided:
        assert ops.d_in is None
    else:
        assert ops.d_in == (u.value(n - 1) - u.value(n))._mpf_


@pytest.mark.parametrize("two_sided", [False, True])
def test_layer_stream_rolls_forward_through_the_root(two_sided):
    """Forward over every layer (across the root of a two-sided tree) at
    each precision, back, and forward again; then forward with the
    precision alternating between 53 and 256 bits from call to call."""
    rng = random.Random(8100)
    tree, u = two_sided_case(rng, 6) if two_sided else one_sided_case(rng, 12)
    layers = list(tree.interior_layers())
    for bits in (53, 128, 256):
        with mp.workprec(bits):
            ops = lv.layer_operators(tree, u)
            for order in (layers, layers[::-1], layers):
                for n in order:
                    assert exact(ops(n)) == exact(_reference_operators(tree, u, n))
                    _assert_differences(ops, tree, u, n)
    ops = lv.layer_operators(tree, u)
    for k, n in enumerate(layers):
        with mp.workprec((53, 256)[k % 2]):
            assert exact(ops(n)) == exact(_reference_operators(tree, u, n))


def test_layer_stream_builds_without_touching_the_layers():
    """Building the stream checks the cover and reads no layer."""
    rng = random.Random(8101)
    tree, u = one_sided_case(rng, 5)
    with pytest.raises(InputError, match="does not cover"):
        lv.layer_operators(tree, lv.RadialFunction(u.values()[:-1]))
    ops = lv.layer_operators(tree, u)
    assert ops.d_out is None and ops.d_in is None


@pytest.mark.parametrize("seed", range(3))
def test_walk_drops_are_the_value_differences(request, seed):
    """Each step's drop is u(x_i) - u(x_{i+1}) bit for bit, at 53, 128 and
    256 bits, on the conftest builds and on random trees of both kinds."""
    rng = random.Random(8200 + seed)
    cases = [(b.tree, b.u) for b in conftest_builds(request)] if seed == 0 else []
    for _ in range(3):
        cases.append(one_sided_case(rng, rng.randrange(4, 30)))
        cases.append(two_sided_case(rng, rng.randrange(2, 15)))
    for bits in (53, 128, 256):
        with mp.workprec(bits):
            for tree, u in cases:
                starts = {tree.layer_lo + 1, 0, tree.layer_hi - 1,
                          rng.randrange(tree.layer_lo + 1, tree.layer_hi)}
                for start in sorted(starts):
                    try:
                        walk = lv.radial_descent_walk(tree, u, start, 300)
                    except InputError:      # a flat start: no descent
                        continue
                    for step, nxt in zip(walk.steps, walk.steps[1:]):
                        assert step.drop._mpf_ == (u.value(step.site) - u.value(nxt.site))._mpf_
                    assert walk.steps[-1].drop is None


def test_walk_value_ties_pick_the_parent():
    """A tie between parent and child goes to the parent, the smaller
    breadth-first id, and at a two-sided root to the positive arm."""
    tree = lv.RadialTree(3, [1] * 8)
    u = lv.RadialFunction([6, 5, 4, 3, 4, 2, 1, 0.5, 0.25])
    walk = lv.radial_descent_walk(tree, u, 3, 10)
    assert [s.site for s in walk.steps] == [3, 2] and walk.termination == "revisit"
    assert exact(walk) == exact(old.radial_descent_walk(tree, u, 3, 10))
    tree = lv.TwoSidedRadialTree(3, [1] * 4, [1] * 4)
    u = lv.RadialFunction([1, 2, 3, 4, 5, 4, 3, 2, 1], lo=-4)
    walk = lv.radial_descent_walk(tree, u, 0, 10)
    assert [s.site for s in walk.steps] == [0, 1, 2, 3]
    assert exact(walk) == exact(old.radial_descent_walk(tree, u, 0, 10))


def test_walk_compares_values_not_rounded_differences():
    """At 53 bits u_{n-1} - u_n and u_{n+1} - u_n round to the same float
    while u_{n+1} < u_{n-1}, stored at 128 bits: the child must win."""
    with mp.workprec(128):
        big = mp.mpf(2) ** 60
        tree = lv.RadialTree(3, [1] * 6)
        u = lv.RadialFunction([big * 4, big + 2, 1, big + 1, 0.5, 0.25, 0.125])
    with mp.workprec(53):
        assert u.value(1) - u.value(2) == u.value(3) - u.value(2)
        walk = lv.radial_descent_walk(tree, u, 2, 10)
        assert [s.site for s in walk.steps][:2] == [2, 3]
        assert exact(walk) == exact(old.radial_descent_walk(tree, u, 2, 10))


@pytest.mark.parametrize("seed", range(4))
def test_harnack_check_evaluates_each_value_pair_once(request, monkeypatch, seed):
    """The report equals the every-edge scan bit for bit, worst edge
    included, on balls (each layer pair repeats on many edges) and on
    random graphs drawing values from a few, so that pairs and the maximum
    repeat; the scan divides the largest exact ratio once, and else only
    pairs whose exact ratio lies within 2 ulps below the rounded maximum."""
    rng = random.Random(8300 + seed)
    if seed == 0:
        b = conftest_builds(request)[0]
        g, layers = b.tree.materialize(6)
        cases = [(g, lv.induced_graph_function(b.u, layers))]
    else:
        cases = [ball_case(rng, 5)[:2]]
    for _ in range(3):
        n = rng.randrange(2, 40)
        pool = [mp.mpf(rng.choice([1, 2, 3, 5])) / rng.choice([1, 3, 7]) for _ in range(3)]
        edges = {(x, rng.randrange(x + 1, n), 1) for x in range(n - 1)
                 for _ in range(rng.randrange(1, 3))}
        cases.append((lv.WeightedGraph(n, sorted(edges)),
                      lv.GraphFunction([rng.choice(pool) for _ in range(n)])))
    for g, gu in cases:
        for p0 in (1, 2, lv.p0_of(g)):
            same(graphs.harnack_check, old.harnack_check, g, gu, p0)
        pairs = {(gu[x], gu[y]) for (x, y), _ in g.edges()}
        divisions = []
        real_div = graphs.mpf_div
        monkeypatch.setattr(graphs, "mpf_div", lambda *a: divisions.append(1) or real_div(*a))
        worst = graphs.harnack_check(g, gu, 2).worst_ratio
        monkeypatch.undo()
        ulp = F(2) ** (mp.frexp(worst)[1] - mp.mp.prec)
        ratios = [max(fraction(a) / fraction(b), fraction(b) / fraction(a)) for a, b in pairs]
        near = sum(r >= fraction(worst) - 2 * ulp for r in ratios)
        assert 1 <= len(divisions) <= 1 + near
    bad = lv.GraphFunction([mp.mpf(1), mp.mpf(0), mp.mpf(1)])
    path = lv.WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
    same(graphs.harnack_check, old.harnack_check, path, bad, 2)


# ---------------------------------------------------------------------------
# extremes of ratios picked by exact comparison and divided once, and the
# running volume summed in integers, against the loops that divided every
# ratio (tests/before_quotients.py, before_band.py) and added in mpf
# (before_layer_chain.py), exactly

def wide_weights(rng, n, bits):
    """Weights made at 3 bits + 20 bits, so that sums at bits round wide terms."""
    with mp.workprec(3 * bits + 20):
        return [mp.mpf(rng.uniform(0.1, 10)) * mp.mpf(2) ** rng.randrange(-300, 300)
                for _ in range(n)]


@pytest.mark.parametrize("bits", [53, 128, 256])
@pytest.mark.parametrize("style", ["random", "flat", "extreme", "wide"])
def test_edge_ratio_maxima_are_the_division_loops(style, bits):
    rng = random.Random(8400 + bits + len(style))
    with mp.workprec(bits):
        for _ in range(4):
            N, H, M = rng.choice([2, 3, 4, 5]), rng.randrange(0, 8), rng.randrange(1, 8)

            def weights(n):
                return wide_weights(rng, n, bits) if style == "wide" else \
                    shell_weights(rng, n, style)

            for tree in (lv.RadialTree(N, weights(H + 1)),
                         lv.TwoSidedRadialTree(N, weights(M), weights(M))):
                assert exact(tree._max_edge_ratio()) == \
                    exact(before_quotients.max_edge_ratio(tree))
                assert exact(tree.ball_volumes(tree.layer_hi - 1 + tree.one_sided)) == exact(
                    before.RadialTree(N, tree._w).ball_volumes(H) if tree.one_sided else
                    before.TwoSidedRadialTree(N, tree._w[M:], tree._w[M - 1::-1])
                    .ball_volumes(M - 1))
                if tree.layer_hi >= 1:
                    g, _ = tree.materialize(min(tree.layer_hi, 3))
                    assert exact(graphs.p0_of(g)) == exact(before_quotients.p0_of(g))
            n = rng.randrange(2, 12)
            edges = [(x, x + 1, w) for x, w in enumerate(weights(n - 1))]
            edges += [(0, n - 1, w) for w in weights(1)] if n > 2 else []
            g = lv.WeightedGraph(n, edges)
            assert exact(graphs.p0_of(g)) == exact(before_quotients.p0_of(g))


@st.composite
def flat_cases(draw):
    """A geometric sequence c r^n rounded at bits (r = 1 + k 2^-j, or a
    ratio an ulp from 1): every quotient of neighbours, and every volume over
    its law, is the same up to rounding, so the extremes are near-ties that
    no float64 bound can part; one item may be nudged by a unit."""
    bits = draw(st.sampled_from([53, 128, 256, 512]))
    H = draw(st.integers(3, 60))
    j = draw(st.sampled_from([1, 4, 20, bits - 1, bits + 3]))
    return {"bits": bits, "H": H, "ratio": 1 + F(draw(st.integers(1, 9)), 2 ** j),
            "c": draw(st.sampled_from([F(1), F(3, 7), F(10) ** 300, F(1, 10 ** 300)])),
            "law": draw(st.sampled_from(["power", "exp", "callable"])),
            "nudge": draw(st.none() | st.tuples(st.integers(0, H), st.sampled_from([-1, 1])))}


def flat_sequence(case):
    seq = [lv.to_mpf(case["c"]) * lv.to_mpf(case["ratio"]) ** n for n in range(case["H"] + 1)]
    if case["nudge"] is not None:
        k, d = case["nudge"]
        seq[k] += d * mp.ldexp(1, mp.frexp(seq[k])[1] - mp.mp.prec)
    return seq


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flat_cases())
def test_band_and_harnack_scan_on_flat_sequences_are_the_division_loops(case):
    with mp.workprec(case["bits"]):
        seq = flat_sequence(case)
        laws = {"power": lv.PowerLogLaw(2, mp.mpf(1)), "exp": lv.ExpLaw(F(1, 3))}
        law = laws.get(case["law"], laws["power"])
        target = law if case["law"] in laws else (lambda n: law(n))
        vols = StoredVolumes([s * law(max(n, 2)) for n, s in enumerate(seq)])
        H = case["H"]
        assert band_bits(cx.volume_band, vols, target, 2, H) == \
            band_bits(before_band.volume_band, vols, target, 2, H)
        pairs = [((n, n + 1), a, b) for n, (a, b) in enumerate(zip(seq, seq[1:]))]
        pairs += pairs[::-1]
        for p0 in (1, lv.to_mpf(case["ratio"])):
            assert outcome(graphs.harnack_scan, pairs, p0, "{},{}") == \
                outcome(before_quotients.harnack_scan, pairs, p0, "{},{}")


def test_band_and_running_volumes_make_no_per_n_mpf_call(monkeypatch):
    """The bench's IV build over [16, 4096]: `volume_band` divides twice, for
    an `ExpLaw` and an opaque callable alike, and `ball_volumes` adds in
    integers, with the bits of the loops that divided and added in mpf."""
    spec = lv.RegimeSpec(regime="IV", p=F(-2), q=F(1), N=3, horizon=4100, n0=2,
                         lam=mp.mpf(1), delta=mp.mpf(1))
    built = lv.build(spec)
    law = lv.volume_target(spec)
    calls = {"div": 0, "add": 0}
    real_div, real_add = cx.mpf_div, radial.mpf_add
    monkeypatch.setattr(cx, "mpf_div",
                        lambda *a: calls.__setitem__("div", calls["div"] + 1) or real_div(*a))
    monkeypatch.setattr(radial, "mpf_add",
                        lambda *a: calls.__setitem__("add", calls["add"] + 1) or real_add(*a))
    vols = built.tree.ball_volumes(4096)
    assert calls["add"] == 0
    bands = [lv.volume_band(built, target, 16, 4096)
             for target in (law, lambda n: law(n) * mp.mpf(n) ** 2)]
    assert calls == {"div": 4, "add": 0}
    monkeypatch.undo()
    assert exact(vols) == exact(before.RadialTree(3, built.tree._w).ball_volumes(4096))
    for band, target in zip(bands, (law, lambda n: law(n) * mp.mpf(n) ** 2)):
        assert band == before_band.volume_band(built, target, 16, 4096)


# ---------------------------------------------------------------------------
# u stored as deviations from an exact base: with base 0, the readers give
# what they gave when they differenced u itself (tests/before_deviations.py),
# exactly; with a base, they stay nearer the exact operators than u rounded


@settings(max_examples=200, deadline=None)
@given(stream_cases(), st.booleans())
def test_base_0_operators_are_those_of_the_values(case, explicit):
    """The stream, in any call order and at any precision, and the reference
    operators give the values' own operators bit for bit, and raise where
    they raise, whether base 0 is the default or given."""
    tree, u, calls = case
    if explicit:
        u = lv.RadialFunction(u.values(), lo=u.lo, base=0)
    assert u.deviations() is u.values() and u.base == 0
    ops, old_ops = lv.layer_operators(tree, u), before_deviations.layer_operators(tree, u)
    for n, bits in calls:
        with mp.workprec(bits):
            got = outcome(ops, n)
            assert got == outcome(old_ops, n)
            if got[0] == "ok":
                assert (ops.d_out, ops.d_in) == (old_ops.d_out, old_ops.d_in)
            for name in ("laplacian_at", "gradient_sq_at"):
                assert outcome(getattr(tree, name), u, n) == \
                    outcome(getattr(before_deviations, name), tree, u, n)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(screen_cases())
def test_base_0_screen_rows_and_reports_are_those_of_the_values(case):
    """With base 0 the margin screen's rows, `verify_radial`'s report and the
    search's decrease test are those of the readers that differenced u."""
    with mp.workprec(case["bits"]):
        tree, u, p, q, layers = build_case(case)
        term_of = lv.term_kernel(p, q)
        assert cx._screen(tree, u, layers, term_of)[0] == \
            before_deviations._screen(tree, u, layers, term_of)
        assert cx._decreasing(u) == before_deviations._decreasing(u)
        got = outcome(cx.verify_radial, tree, u, p, q)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cx, "layer_operators", before_deviations.layer_operators)
            patch.setattr(cx, "_screen", lambda tree, u, layers, term_of: (
                before_deviations._screen(tree, u, layers, term_of), [None] * len(layers)))
            assert got == outcome(cx.verify_radial, tree, u, p, q)


@st.composite
def based_cases(draw):
    """A one- or two-sided tree and u = base + v at 53 or 128 bits, each v a
    full-width mantissa 2^16..2^(2 prec) times below the base."""
    bits = draw(st.sampled_from([53, 128]))
    N = draw(st.integers(2, 4))
    M = draw(st.integers(2, 8))
    one_sided = draw(st.booleans())
    weights = [mp.mpf(draw(st.floats(0.1, 5.0))) for _ in range(2 * M + 1)]
    base = mp.mpf(draw(st.sampled_from([1, 2.5, -3, 0.75])))
    gap = draw(st.integers(16, 2 * bits))
    mantissas = st.integers(2 ** (bits - 1), 2 ** bits - 1)
    devs = [mp.ldexp(draw(st.sampled_from([1, -1])) * draw(mantissas), -bits - gap
                     - draw(st.integers(0, 3))) for _ in range(M + 1 if one_sided else 2 * M + 1)]
    return bits, N, M, one_sided, weights, base, devs


@settings(max_examples=150, deadline=None)
@given(based_cases())
def test_deviation_operators_are_within_their_rounding_of_u_exact(case):
    """At each layer lap and grad^2 of u = base + v, stored as its deviations,
    lie within their formulas' own rounding of the operators at 4x the
    precision on u exact: 6 roundings of (|a d_out| + |b d_in|) / (a + b) for
    lap, 8 of grad^2.  The operators of the stored values, u rounded, carry
    the base's rounding too, |base| 2^-prec in every difference, and read
    lap = grad^2 = 0 where u rounds to the base."""
    bits, N, M, one_sided, weights, base, devs = case
    lo = 0 if one_sided else -M
    with mp.workprec(bits):
        tree = (lv.RadialTree(N, weights[:M + 1]) if one_sided
                else lv.TwoSidedRadialTree(N, weights[:M], weights[M:2 * M]))
        u = lv.RadialFunction(devs, lo=lo, base=base)
        layers = tree.checked_layers(None)
        ours = list(map(lv.layer_operators(tree, u), layers))
    with mp.workprec(4 * bits):
        exact_u = lv.RadialFunction([base + v for v in devs], lo=lo)
        unit = mp.ldexp(1, -bits)
        for n, (_, lap, g2) in zip(layers, ours):
            a, b, d_out, d_in = tree._site(exact_u, n)
            ref_lap, ref_g2 = tree.laplacian_at(exact_u, n), tree.gradient_sq_at(exact_u, n)
            assert abs(lap - ref_lap) <= 6 * unit * (abs(a * d_out) + abs(b * d_in)) / (a + b)
            assert abs(g2 - ref_g2) <= 8 * unit * ref_g2


def test_margin_screen_declines_differences_far_apart_beside_a_zero_deviation():
    """u_1 is its base where v_1 = v_2 = 0, so the screen reads layer 1; its
    differences, 0 and -v_0, have exponents 10^6 apart.  The layer is left
    undecided, as a sum of terms far apart is, with no shift across the gap,
    and the margin pass still reports every layer."""
    tree = lv.RadialTree(2, [1] * 4)
    u = lv.RadialFunction([mp.ldexp(1, 10 ** 6), 0, 0, mp.mpf(-1), mp.mpf(-2)], base=1)
    layers = tree.checked_layers(None)
    term_of = lv.term_kernel(2, 1)
    passes, fails = cx._screen(tree, u, layers, term_of)
    assert passes[1] is None and fails[1] is None
    assert lv.verify_radial(tree, u, 2, 1).n_layers == len(layers)


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_verify_checks_twenty_failures_and_the_maximum_in_mpf(monkeypatch, bits):
    """On 200 layers of random values, about half of them failing, the
    report is that of the forced loop over every layer, bit for bit, while
    mpf checks only the first 20 proved failures (the report's list), the
    candidates for the maximum and the layers the screen leaves open."""
    rng = random.Random(bits)
    checked = []
    site_checks = cx._site_checks
    monkeypatch.setattr(cx, "_site_checks", lambda ops, sites, *rest: checked.extend(sites)
                        or site_checks(ops, sites, *rest))
    with mp.workprec(bits):
        tree = lv.RadialTree(3, [mp.mpf(rng.uniform(0.5, 2.0)) for _ in range(201)])
        u = lv.RadialFunction([mp.mpf(rng.uniform(1.0, 2.0)) for _ in range(201)])
        layers = tree.checked_layers(None)
        every = site_checks(lv.layer_operators(tree, u), layers, lv.term_kernel(2, 1), True)
        full = cx._margin_report(layers, every, (layers.start, layers.stop - 1), bits)
        assert exact(lv.verify_radial(tree, u, 2, 1)) == exact(full)
    assert sum(not check.holds for check in every) > 60 and len(full.failures) == 20
    assert len(checked) < 30
