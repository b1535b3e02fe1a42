"""The certificate hot path against its reference definitions, exactly.

The fused margin pass must report what a loop over the per-layer reference
functions (`laplacian_at`, `gradient_sq_at`, `nonlinear_term`, `margin_at`,
`check_nonpositive`) reports, and the tabulated Lambda window must equal
`lambda_fn` point by point.  Every comparison is `==`: the fast paths
perform the same floating-point operations in the same order, so any
difference at all is a bug.
"""

import random
from fractions import Fraction as F

import mpmath as mp
import pytest

import liouville as lv
from liouville import counterexamples as cx
from liouville.errors import InputError

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
    layers = cx._checked_layers(built.tree, None)
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
