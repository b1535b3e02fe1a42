"""The fast paths against their reference definitions, exactly.

The fused margin pass must report what a loop over the per-layer reference
functions (`laplacian_at`, `gradient_sq_at`, `nonlinear_term`, `margin_at`,
`check_nonpositive`) reports, and the tabulated Lambda window must equal
`lambda_fn` point by point.  The nonexistence machinery, rewritten onto
the operator streams and the term kernel, must report what its per-site
loops did (kept verbatim in `before_streams.py`), and the tree classes,
merged onto one layer chain, must give what their separate bodies gave
(kept verbatim in `before_layer_chain.py`).  Every comparison is
`==`: the fast paths perform the same floating-point operations in the
same order, so any difference at all is a bug.
"""

import dataclasses
import random
from fractions import Fraction as F

import mpmath as mp
import pytest

import before_layer_chain as before
import before_streams as old
import liouville as lv
from liouville import caccioppoli
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
                    same(lv.estimate_sides, old.estimate_sides, g, gu, 0, tf, s, t,
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
        for horizon in (None, 0, 3, 10 ** 6):
            same(lv.pointwise_bound_check_built, old.pointwise_bound_check_built,
                 built, horizon)
        for horizon in (None, 2):
            same(lambda *a: list(lv.layer_rows(*a)), lambda *a: list(old.layer_rows(*a)),
                 built, horizon)
        radius = min(3, built.tree.layer_hi - 1) if built.u.lo == 0 else 2
        g, layers = built.tree.materialize(radius)
        gu = lv.induced_graph_function(built.u, layers)
        point = built.spec.point
        same(lv.pointwise_bound_check, old.pointwise_bound_check, g, gu, point)
        for p, q in ((point.p, point.q), (F(1), F(0)), (F(2), F(-1))):
            same(lv.verify_graph, old.verify_graph, g, gu, p, q)
        same(lv.harnack_check, old.harnack_check, g, gu, 2)
        if built.u.is_positive():
            new_h, old_h = (built.tree.harnack_check(built.u, 1),
                            old.radial_harnack_check(built.tree, built.u, 1))
            assert exact((new_h.worst_ratio, new_h.worst_edge)) == \
                exact((old_h.worst_ratio, old_h.worst_edge))


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
                    assert kind(getattr(new, method), n) == \
                        kind(getattr(old_tree, method), n), (method, n)
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
