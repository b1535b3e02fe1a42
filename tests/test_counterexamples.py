import hashlib
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

import liouville as lv
from liouville import counterexamples as cx
from liouville import numerics
from liouville.errors import CalibrationError, InputError


def spec_I(n0=2, delta="1", horizon=30, eps=F(1, 10)):
    return lv.RegimeSpec(regime="I", p=F(2), q=F(1), N=3, horizon=horizon,
                         eps=eps, n0=n0, delta=mp.mpf(delta))


# ---------------------------------------------------------------------------
# build


def test_build_regime_I_closed_forms():
    built = lv.build(spec_I())
    # independent high-precision evaluation of the shell and solution laws
    assert abs(built.tree.weight(0) - mp.mpf("2.2700753357346468067")) < mp.mpf("1e-15")
    assert abs(built.u.value(0) - mp.mpf("0.84932180028801904272")) < mp.mpf("1e-15")
    w5 = mp.mpf(7) ** mp.mpf("1.5") * mp.ln(7) ** mp.mpf("0.6")
    assert abs(built.tree.weight(5) - w5) < mp.mpf("1e-25") * w5


def test_build_regime_IV_solution_shape():
    spec = lv.RegimeSpec(regime="IV", p=F(-2), q=F(1), N=3, horizon=20,
                         lam=mp.mpf(1), n0=2, delta=mp.mpf(2))
    built = lv.build(spec)
    for n in range(20):
        expected = mp.mpf(2) / (n + 2) + 2
        assert abs(built.u.value(n) - expected) < mp.mpf("1e-30")
        assert built.u.value(n + 1) < built.u.value(n)


def test_build_regime_V1_unit_decay():
    spec = lv.RegimeSpec(regime="V1", p=F(1, 2), q=F(1, 2), N=3, horizon=10,
                         lam=mp.mpf(4))
    built = lv.build(spec)
    for n in range(11):
        assert abs(built.u.value(n) - mp.e ** (-n)) < mp.mpf("1e-28")


def test_build_regime_V2_two_sided_shape():
    spec = lv.RegimeSpec(regime="V2", p=F(2), q=F(-1), N=3, horizon=5, lam=mp.mpf(4))
    built = lv.build(spec)
    assert isinstance(built.tree, lv.TwoSidedRadialTree)
    assert built.u.lo == -6 and built.u.hi == 6
    # decaying outward on the positive arm, growing on the negative one
    assert built.u.value(3) < built.u.value(0) < built.u.value(-3)


def test_build_rejects_region_mismatch():
    with pytest.raises(InputError):
        lv.build(lv.RegimeSpec(regime="I", p=F(-2), q=F(1), N=3, horizon=10,
                               eps=F(1, 10), n0=2, delta=mp.mpf(1)))


def test_build_rejects_small_n0():
    with pytest.raises(InputError):
        lv.build(spec_I(n0=1))


def stored_exponentials(regime, lam, horizon):
    """(value, rate, n) for every exponential `build` stores at this lam: the
    shells lam e^(lam n), read as e^(lam n) (lam is 1 or 2, so the scaling is
    exact), and the values e^(-lam n / 4) (V1) or e^(-(lam - 1) n) (V2)."""
    p, q = {"V1": (F(1, 2), F(1, 2)), "V2": (F(2), F(-1))}[regime]
    built = lv.build(lv.RegimeSpec(regime=regime, p=p, q=q, N=3, horizon=horizon,
                                   lam=mp.mpf(lam)))
    tree, u = built.tree, built.u
    rate = -F(lam, 4) if regime == "V1" else F(1 - lam)
    return ([(tree.weight(n) / lam, F(lam), n) for n in range(tree.layer_lo, tree.layer_hi)]
            + [(u.value(n), rate, n) for n in range(u.lo, u.hi + 1)])


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_build_stores_each_exponential_within_one_ulp(bits):
    """Every exponential `build` stores is within 1 ulp of exp(rate n), for
    rates 1, 2, -1 and -1/4 over n = 0..4096 (V2 on both sides of 0), and so
    is each of `_e_powers`, which IV and V make theirs from, at rate 3/2.  A
    rounded e raised to the power rate n drifts by hundreds of ulps there."""
    with mp.workprec(bits):
        stored = (stored_exponentials("V1", 1, 4095) + stored_exponentials("V2", 2, 4095)
                  + [(x, F(3, 2), n) for n, x in enumerate(cx._e_powers(mp.mpf(1.5),
                                                                        range(4097)))])
    assert {rate for _, rate, _ in stored} == {1, 2, -1, F(-1, 4), F(3, 2)}
    with mp.workprec(2 * bits + 40):
        for x, rate, n in stored:
            _, man, exp, bc = x._mpf_
            ulp = mp.ldexp(1, exp + bc - bits)
            assert abs(x - mp.exp(mp.mpf(rate.numerator) * n / rate.denominator)) <= ulp, \
                (rate, n)


# ---------------------------------------------------------------------------
# delta0


def test_delta0_regime_I_value_and_direction():
    bound = lv.delta0(spec_I())
    assert bound.direction == "upper"
    assert abs(bound.value - mp.mpf("1.4001843760509165114")) < mp.mpf("1e-15")


def test_delta0_regime_I_difference_factors_cancel_at_q1():
    # with q = 1 the two difference factors cancel: delta0 = 2^(1/4) g(n0)
    bound = lv.delta0(spec_I())
    g2 = mp.sqrt(2 * mp.ln(2))
    assert abs(bound.value - 2 ** mp.mpf("0.25") * g2) < mp.mpf("1e-30")


def test_delta0_regime_I_is_exact_root_threshold():
    # at delta = delta0 the root margin vanishes; slightly above it fails
    bound = lv.delta0(spec_I())
    eps = mp.mpf("1e-6")
    for factor, expect_ok in ((1 - eps, True), (1 + eps, False)):
        built = lv.build(spec_I(delta=bound.value * factor))
        margin = lv.margin_at(built.tree, built.u, F(2), F(1), 0)
        assert (margin <= 0) == expect_ok


def test_delta0_regime_IV_direction_lower():
    spec = lv.RegimeSpec(regime="IV", p=F(-2), q=F(1), N=3, horizon=10,
                         lam=mp.mpf(1), n0=2, delta=mp.mpf(1))
    bound = lv.delta0(spec)
    assert bound.direction == "lower"
    expected = 2 ** (1 / (2 * mp.mpf(-2))) / (1 + mp.mpf(1) / 2)
    assert abs(bound.value - expected) < mp.mpf("1e-30")


def test_delta0_regime_IV_is_root_threshold():
    bound = lv.delta0(lv.RegimeSpec(regime="IV", p=F(-2), q=F(1), N=3, horizon=10,
                                    lam=mp.mpf(1), n0=2, delta=mp.mpf(1)))
    eps = mp.mpf("1e-6")
    for factor, expect_ok in ((1 + eps, True), (1 - eps, False)):
        spec = lv.RegimeSpec(regime="IV", p=F(-2), q=F(1), N=3, horizon=10,
                             lam=mp.mpf(1), n0=2, delta=bound.value * factor)
        built = lv.build(spec)
        margin = lv.margin_at(built.tree, built.u, F(-2), F(1), 0)
        assert (margin <= 0) == expect_ok


def test_delta0_unsupported_regime():
    with pytest.raises(InputError):
        lv.delta0(lv.RegimeSpec(regime="II", p=F(0), q=F(3), N=3, horizon=10,
                                eps=F(1, 2), n0=2))


@pytest.mark.parametrize("fn", [
    lv.interior_threshold, lv.tail_check, lv.build, lv.volume_target, lv.delta0,
    lambda spec: lv.lambda_limit(spec.regime, spec.point, spec.eps),
    lambda spec: lv.lambda_fn(spec.regime, spec.point, spec.eps, 10),
], ids=["interior_threshold", "tail_check", "build", "volume_target", "delta0",
        "lambda_limit", "lambda_fn"])
def test_unknown_regime_is_named(fn):
    spec = lv.RegimeSpec(regime="X", p=F(2), q=F(1), N=3, horizon=10, eps=F(1, 10),
                         lam=mp.mpf(1), n0=2, delta=mp.mpf(1))
    with pytest.raises(InputError, match="^unknown regime 'X'$"):
        fn(spec)


# ---------------------------------------------------------------------------
# lambda functions


def test_lambda1_frozen_value_at_1e6():
    v = lv.lambda_fn("I", lv.pq(2, 1), F(1, 10), 10 ** 6)
    assert abs(v - mp.mpf("0.022990766065603724851")) < mp.mpf("1e-15")


def test_lambda1_negative_at_small_n():
    assert lv.lambda_fn("I", lv.pq(2, 1), F(1, 10), 1000) < 0


def test_lambda3_frozen_value_at_1e6():
    v = lv.lambda_fn("III", lv.pq(-1, F(3, 2)), F(1, 10), 10 ** 6)
    assert abs(v - mp.mpf("-0.02078252441823125778")) < mp.mpf("1e-15")


def test_lambda_limits():
    assert abs(lv.lambda_limit("I", lv.pq(2, 1), F(1, 10)) - mp.mpf("0.05")) < mp.mpf("1e-30")
    assert lv.lambda_limit("II", lv.pq(0, 3), F(1, 2)) == mp.inf
    v = lv.lambda_limit("III", lv.pq(-1, F(3, 2)), F(1, 10))
    assert abs(v - 2 ** mp.mpf("-0.25") / 10) < mp.mpf("1e-30")
    v4 = lv.lambda_limit("IV", lv.pq(-2, 1), 1)
    assert abs(v4 - mp.mpf("0.65353235120240618407")) < mp.mpf("1e-15")
    with pytest.raises(InputError):
        lv.lambda_limit("V1", lv.pq(F(1, 2), F(1, 2)), 8)


def test_lambda_domain_errors():
    with pytest.raises(InputError):
        lv.lambda_fn("I", lv.pq(2, 1), F(1, 10), 2)
    with pytest.raises(InputError):
        lv.lambda_fn("IV", lv.pq(-2, 1), 1, 1)


def test_lambda_fn_refuses_a_layer_below_a_one_sided_tree():
    """V1's tree has no layer below its root 0, as I-IV have no m below
    their least; V2's tree is two-sided, so its negative n stay valid."""
    for n in (-1, -7):
        with pytest.raises(InputError, match="needs n >= 0"):
            lv.lambda_fn("V1", lv.pq(F(1, 2), F(1, 2)), 2, n)
        assert lv.lambda_fn("V2", lv.pq(2, -1), 4, n) == lv.lambda_fn("V2", lv.pq(2, -1), 4, 1)
    assert lv.lambda_fn("V1", lv.pq(F(1, 2), F(1, 2)), 2, 0) != \
        lv.lambda_fn("V1", lv.pq(F(1, 2), F(1, 2)), 2, 1)


def test_v1_conditions_at_lambda8():
    root = lv.lambda_fn("V1", lv.pq(F(1, 2), F(1, 2)), 8, 0)
    interior = lv.lambda_fn("V1", lv.pq(F(1, 2), F(1, 2)), 8, 1)
    assert abs(root - mp.mpf("1.1058121763447322436")) < mp.mpf("1e-15")
    assert abs(interior - mp.mpf("1.0978011229883013195")) < mp.mpf("1e-15")
    assert root >= 1 and interior >= 1


def test_v2_condition_blows_up():
    vals = [lv.lambda_fn("V2", lv.pq(2, -1), lam, 1) for lam in (2, 4, 8, 16, 32)]
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))
    assert vals[-1] > 100


def test_lambda_convergence_monotone_on_grid():
    grid = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    for regime, pt, param in [
        ("I", lv.pq(2, 1), F(1, 10)),
        ("III", lv.pq(-1, F(3, 2)), F(1, 10)),
        ("IV", lv.pq(-2, 1), 1),
    ]:
        limit = lv.lambda_limit(regime, pt, param)
        devs = [abs(lv.lambda_fn(regime, pt, param, n) / limit - 1) for n in grid]
        assert all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))


# ---------------------------------------------------------------------------
# verify


def test_verify_constant_function_all_margins_zero():
    tree = lv.RadialTree(3, [2 ** n for n in range(6)])
    u = lv.RadialFunction([mp.mpf(5)] * 6)
    rep = lv.verify_radial(tree, u, F(2), F(1))
    assert rep.verified
    assert rep.max_margin == 0


def test_verify_zero_gradient_with_negative_q_reported():
    tree = lv.RadialTree(3, [1] * 6)
    u = lv.RadialFunction([mp.mpf(5)] * 6)
    rep = lv.verify_radial(tree, u, F(2), F(-1))
    assert not rep.verified
    assert rep.undefined_layers == (0, 1, 2, 3, 4)


def test_verify_miscalibrated_delta_fails(regime1_small):
    spec = regime1_small.spec
    bad = lv.RegimeSpec(**{**spec.__dict__, "delta": spec.delta * 10})
    rep = lv.verify(lv.build(bad))
    assert not rep.verified
    assert rep.max_margin > 0


def test_verify_margin_sign_tracks_lambda(regime1_small):
    # the direct margin and the calibration function decide identically
    spec = regime1_small.spec
    thr = lv.interior_threshold(spec)
    for n in (1, 5, 20, 60):
        lam = lv.lambda_fn("I", spec.point, spec.eps, n + spec.n0)
        margin = lv.margin_at(regime1_small.tree, regime1_small.u, spec.p, spec.q, n)
        assert (margin <= 0) == (thr <= lam)


def test_verify_agrees_with_materialized_bruteforce(regime1_small):
    built = regime1_small
    g, layers = built.tree.materialize(8)
    gu = lv.induced_graph_function(built.u, layers)
    for n in range(0, 7):
        x = layers.index(n)
        direct = lv.laplacian(g, gu, x) + lv.nonlinear_term(
            gu[x], lv.gradient_norm(g, gu, x) ** 2, built.spec.p, built.spec.q)
        radial = lv.margin_at(built.tree, built.u, built.spec.p, built.spec.q, n)
        assert abs(direct - radial) <= mp.mpf("1e-25") * max(abs(direct), abs(radial))


def test_verify_horizon_bounds_checked(regime1_small):
    with pytest.raises(InputError):
        lv.verify(regime1_small, horizon=regime1_small.tree.horizon)


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_regime_I_small(regime1_small):
    spec = regime1_small.spec
    assert spec.n0 >= 2 and spec.delta > 0
    assert lv.verify(regime1_small).verified
    assert lv.tail_check(spec).ok


def test_calibrate_consistency_invariant(regime1_small, regime3_small):
    # master inequality: threshold <= Lambda(n + n0) across the horizon
    for built in (regime1_small, regime3_small):
        spec = built.spec
        thr = lv.interior_threshold(spec)
        for n in range(1, spec.horizon + 1):
            assert thr <= lv.lambda_fn(spec.regime, spec.point, spec.eps, n + spec.n0)


def test_calibrate_regime_II_immediate():
    spec = lv.calibrate("II", lv.pq(0, 3), N=3, horizon=50, eps=F(1, 2))
    assert spec.n0 == 2
    assert spec.delta is None
    assert lv.verify(lv.build(spec)).verified


def test_calibrate_regime_II_root_condition_search():
    # at (10, 5/2) the root inequality fails for n0 = 2 and the search must
    # walk n0 up until it holds
    bad = lv.RegimeSpec(regime="II", p=F(10), q=F(5, 2), N=3, horizon=50,
                        eps=F(1, 2), n0=2)
    rep = lv.verify(lv.build(bad))
    assert not rep.verified and rep.worst_layer == 0
    spec = lv.calibrate("II", lv.pq(10, F(5, 2)), N=3, horizon=50, eps=F(1, 2))
    assert spec.n0 > 2
    assert lv.verify(lv.build(spec)).verified


def test_verify_bumps_precision_on_borderline_margin():
    # pinning delta exactly at the root threshold leaves a margin at rounding
    # scale, which must trigger re-evaluation at higher precision
    d0 = lv.delta0(spec_I(horizon=5))
    rep = lv.verify(lv.build(spec_I(horizon=5, delta=d0.value)))
    assert rep.precision_bits > 128


def test_harnack_on_thousand_layer_regime_I():
    spec = lv.calibrate("I", lv.pq(2, 1), N=3, horizon=1000, eps=F(1, 10))
    built = lv.build(spec)
    assert built.tree.harnack_check(built.u, built.tree.p0()).holds


def test_calibrate_rejects_bad_region():
    with pytest.raises(InputError):
        lv.calibrate("I", lv.pq(-2, 1), N=3, horizon=20, eps=F(1, 10))


def test_calibrate_requires_params():
    with pytest.raises(InputError):
        lv.calibrate("I", lv.pq(2, 1), N=3, horizon=20)
    with pytest.raises(InputError):
        lv.calibrate("IV", lv.pq(-2, 1), N=3, horizon=20)


def test_calibrated_builds_positive_monotone_harnack(regime1_small, regime4_walk,
                                                     regime5_walk):
    for built, decreasing in ((regime1_small, True), (regime4_walk, True),
                              (regime5_walk, True)):
        u = built.u
        assert u.is_positive()
        if decreasing:
            for n in range(u.lo, u.hi):
                assert u.value(n + 1) < u.value(n)
        assert built.tree.harnack_check(u, built.tree.p0()).holds


def test_v2_build_positive_and_monotone_in_layer():
    spec = lv.calibrate("V2", lv.pq(2, -1), N=3, horizon=30)
    built = lv.build(spec)
    assert built.u.is_positive()
    for n in range(built.u.lo, built.u.hi):
        assert built.u.value(n + 1) < built.u.value(n)  # decreasing left to right
    assert built.tree.harnack_check(built.u, built.tree.p0()).holds


# ---------------------------------------------------------------------------
# volume


def test_volume_band_regime_I():
    spec = spec_I(horizon=520)
    built = lv.build(spec)
    band = lv.volume_band(built, lv.volume_target(spec), 16, 512)
    assert band.spread <= 4


def test_volume_band_wrong_target_blows_up():
    spec = spec_I(horizon=520)
    built = lv.build(spec)
    target = lv.volume_target(spec)
    wrong = lambda n: target(n) * mp.mpf(n) ** 2
    band = lv.volume_band(built, wrong, 16, 512)
    assert band.spread > 100


def test_volume_band_regime_IV_exponential():
    spec = lv.RegimeSpec(regime="IV", p=F(-2), q=F(1), N=3, horizon=300,
                         lam=mp.mpf(1), n0=2, delta=mp.mpf(1))
    built = lv.build(spec)
    band = lv.volume_band(built, lv.volume_target(spec), 16, 256)
    assert band.spread <= 4


def test_volume_band_v2_bounded():
    spec = lv.RegimeSpec(regime="V2", p=F(2), q=F(-1), N=3, horizon=200, lam=mp.mpf(4))
    built = lv.build(spec)
    band = lv.volume_band(built, lv.volume_target(spec), 16, 199)
    assert band.spread <= 4


def test_volume_targets_declare_their_laws():
    """I/II/III grow like a power-log law, IV/V1/V2 exponentially at the build's rate."""
    law = lv.volume_target(spec_I())
    assert isinstance(law, lv.PowerLogLaw) and law.expo == mp.mpf("2.5")
    for regime, p, q, lam in (("IV", -2, 1, F(1)), ("V1", F(1, 2), F(1, 2), F(3, 2)),
                              ("V2", 2, -1, F(4))):
        spec = lv.RegimeSpec(regime=regime, p=F(p), q=F(q), N=3, horizon=30, lam=lam,
                             delta=mp.mpf(1))
        assert lv.volume_target(spec) == lv.ExpLaw(lam)


def test_growth_laws_convert_their_parameters():
    law = lv.PowerLogLaw(F(9, 2), 2)
    assert isinstance(law.expo, mp.mpf) and isinstance(law.logexp, mp.mpf)
    assert law == lv.PowerLogLaw(mp.mpf("4.5"), mp.mpf(2))
    assert law(16) == lv.PowerLogLaw(mp.mpf("4.5"), mp.mpf(2))(16)
    assert lv.ExpLaw(F(1, 2)) == lv.ExpLaw(mp.mpf("0.5"))
    assert lv.ExpLaw(3).lam == 3 and isinstance(lv.ExpLaw(3).lam, mp.mpf)


@pytest.mark.parametrize("bad", [mp.nan, mp.inf, -mp.inf, "nan", float("inf")])
def test_growth_laws_reject_non_finite_parameters(bad):
    with pytest.raises(InputError, match="power-log exponent must be finite"):
        lv.PowerLogLaw(bad, 1)
    with pytest.raises(InputError, match="power-log exponent must be finite"):
        lv.PowerLogLaw(2, bad)
    with pytest.raises(InputError, match="exponential rate must be finite"):
        lv.ExpLaw(bad)


def ulps(x, ref, bits):
    """|x - ref| in units of the last place of x, a bits-bit mpf."""
    return abs(x - ref) / mp.ldexp(1, mp.frexp(x)[1] - bits)


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_exp_law_is_within_an_ulp(bits):
    """exp(n) rounded once; e ** n, by contrast, raises e's own rounding
    error to the n-th power and misses by hundreds of ulps at n = 4096."""
    with mp.workprec(bits):
        law = lv.ExpLaw(1)
        for n in (2, 16, 100, 1000, 4096):
            value, powered = law(n), mp.e ** n
            with mp.workprec(2 * bits):
                ref = mp.exp(n)
                assert ulps(value, ref, bits) <= 1, n
        assert ulps(powered, ref, bits) > 100


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_power_log_law_is_within_its_error_bound(bits):
    """Relative error under 2^(1 - prec) (1 + 2^-18 (1 + |A ln n| + |B ln ln n| + |B|)),
    as derived in `_band_bounds`: exp's rounding, and t = A ln n + B ln ln n
    formed 20 bits above the working precision."""
    laws = [(F(5, 2), F(11, 10)), (2, F(3, 2)), (3, F(-9, 10)), (F(-7, 3), 0),
            (0, F(5, 3)), (40, -12), (F(-59, 3), F(47, 5)), (F(1, 7), F(-50, 3))]
    with mp.workprec(bits):
        for expo, logexp in laws:
            law = lv.PowerLogLaw(expo, logexp)
            A, B = law.expo, law.logexp
            for n in (2, 3, 10, 16, 100, 4096, 10 ** 6, 2 ** 40):
                value = law(n)
                with mp.workprec(2 * bits + 64):
                    ref = mp.mpf(n) ** A * mp.ln(n) ** B
                    bound = 1 + mp.ldexp(1, -18) * (1 + abs(A * mp.ln(n))
                                                    + abs(B * mp.ln(mp.ln(n))) + abs(B))
                    assert abs(value / ref - 1) <= mp.ldexp(1, 1 - bits) * bound, (expo, n)


def three_call_law(A, B, n):
    """exp(A ln n + B ln ln n) as the law's three libmp calls round it: the
    logs and t at 20 bits above the working precision, exp(t) at it."""
    from mpmath.libmp import from_int, mpf_add, mpf_exp, mpf_log, mpf_mul
    prec = mp.mp.prec
    wp = prec + 20
    ln_n = mpf_log(from_int(n), wp, "n")
    t = mpf_mul(A._mpf_, ln_n, wp, "n")
    if B:
        t = mpf_add(t, mpf_mul(B._mpf_, mpf_log(ln_n, wp, "n"), wp, "n"), wp, "n")
    return mpf_exp(t, prec, "n")


LAW_EXPONENT = st.fractions(min_value=-40, max_value=40, max_denominator=30)


@settings(max_examples=300, deadline=None)
@given(A=LAW_EXPONENT, B=st.fractions(min_value=F(-50, 3), max_value=F(50, 3),
                                      max_denominator=30),
       n=st.integers(2, 2 ** 40), bits=st.sampled_from([53, 128, 256, 601]))
@example(A=F(0), B=F(0), n=2, bits=128)
@example(A=F(-59, 3), B=F(47, 5), n=2 ** 40, bits=53)
@example(A=F(5, 2), B=F(3, 5), n=4096, bits=601)
def test_power_log_law_is_the_three_calls_bit_for_bit(A, B, n, bits):
    """The one fixed-point pass behind Ziv's test gives the three calls'
    bits, for rational exponents of either sign or zero, n up to 2^40 and
    precisions on both sides of the pass's 600-bit limit."""
    with mp.workprec(bits):
        law = lv.PowerLogLaw(A, B)
        assert law(n)._mpf_ == three_call_law(law.expo, law.logexp, n)


@pytest.mark.parametrize("bits", [128, 601])
def test_power_log_law_takes_the_pass_and_falls_back(monkeypatch, bits):
    """On the regime I volume law over n = 2..4096 at 128 bits, the pass
    decides all but a few percent of the values and the three calls (the
    only mpf_exp) give the rest, n <= 7 among them; at 601 bits every value
    is the calls'."""
    calls = []
    real = numerics.mpf_exp
    monkeypatch.setattr(numerics, "mpf_exp", lambda *args: calls.append(1) or real(*args))
    with mp.workprec(bits):
        law, called = lv.PowerLogLaw(F(5, 2), F(3, 5)), []
        for n in range(2, 4097):
            before = len(calls)
            assert law(n)._mpf_ == three_call_law(law.expo, law.logexp, n), n
            called += [n] * (len(calls) - before)
    if bits > 600:
        assert called == list(range(2, 4097))
    else:
        assert called[:6] == list(range(2, 8))
        assert 0 < len(called) - 6 <= 4095 // 20


def test_volume_band_input_checks(regime1_small):
    with pytest.raises(InputError):
        lv.volume_band(regime1_small, lambda n: mp.mpf(1), 1, 10)
    with pytest.raises(InputError):
        lv.volume_band(regime1_small, lambda n: mp.mpf(0), 2, 10)


@pytest.mark.parametrize("bad", ["+inf", "nan"])
def test_volume_band_rejects_a_non_finite_target(regime1_small, bad):
    """An infinite target would give a ratio of 0 and a spread of 1/0."""
    target = lambda n: mp.mpf(bad) if n == 7 else mp.mpf(n) ** 3
    with pytest.raises(InputError, match="target must be positive, got .* at n=7"):
        lv.volume_band(regime1_small, target, 2, 10)


def test_layer_rows_shape(regime1_small):
    rows = list(lv.layer_rows(regime1_small, horizon=10))
    assert len(rows) == 11
    n, w, u, lap, grad, margin = rows[3]
    assert n == 3 and w > 0 and u > 0 and margin <= 0


# ---------------------------------------------------------------------------
# an exhausted search


def test_search_exhausted_before_any_candidate_is_built():
    """On (101/100, -1/100) no lambda up to the cap clears V2's closed-form
    screen, so nothing is verified and the error carries no best candidate."""
    with pytest.raises(CalibrationError) as exc:
        lv.certify("V2", lv.pq(F(101, 100), F(-1, 100)), N=3, horizon=20)
    assert exc.value.best_margin is None and exc.value.best_spec is None


def test_search_exhausted_reports_its_best_candidate(monkeypatch):
    """Regime I at (2, 1) calibrates to n0 = 2^14 on horizon 40; with the cap
    at 2^13 the n0 = 2^13 candidate verifies but fails its tail, and its
    margin, the smallest of those verified, comes back with its spec."""
    point = lv.pq(2, 1)
    assert lv.calibrate("I", point, N=3, horizon=40, eps=F(1, 10)).n0 == 2 ** 14
    monkeypatch.setattr(cx, "_N0_CAP", 2 ** 13)
    with pytest.raises(CalibrationError) as exc:
        lv.certify("I", point, N=3, horizon=40, eps=F(1, 10))
    best = exc.value.best_spec
    assert best.n0 == 2 ** 13
    cert = lv.certify_spec(best)
    assert cert.report.verified and not cert.tail.ok
    assert exc.value.best_margin == cert.report.max_margin
    assert mp.nstr(exc.value.best_margin, 4) == "-1.514e-17"


def test_certify_refuses_a_constant_stored_u():
    """At 128 bits III at (-1/2, 5/4) with eps 1/10 stored u = 1 + delta/g
    rounded, and from n0 = 2^23 on delta/g fell by less than an ulp of 1 over
    the horizon: every stored u was one number and every margin exactly 0,
    and the search refused n0 = 2^23 through 2^34 and failed.  u is now
    stored as its deviations delta/g, which fall at every layer, and the
    first n0 the search screens, 2^18, is accepted.  A stored u that is one
    number, deviations and all, is still refused, and counted."""
    with lv.precision(128):
        cert = lv.certify("III", lv.pq(F(-1, 2), F(5, 4)), N=3, horizon=200, eps=F(1, 10))
        u = cert.built.u
        devs = u.deviations()
        flat = lv.RadialFunction([devs[0]] * len(devs), base=u.base)
    assert cert.spec.n0 == 2 ** 18 and cert.ok
    assert all(a > b for a, b in zip(devs, devs[1:]))
    constant = cx.Certificate(cx.BuiltCounterexample(cert.built.tree, flat, cert.spec),
                              cert.report, cert.tail)
    with pytest.raises(CalibrationError) as exc:
        cx._accepted([constant], "regime III: no passing n0", 1)
    assert str(exc.value).endswith("; 1 candidates refused: stored u not strictly decreasing")
    assert exc.value.best_spec is None


@pytest.mark.parametrize("regime, point, params, counts", [
    ("III", lv.pq(-3, F(7, 4)), {"eps": F(1, 10)}, "n0 up to 17179869184; 34 of 34 candidates "
     "screened out before build, 0 built: 0 failed verify, 0 failed the tail; 0"),
    ("III", lv.pq(-1, F(9, 7)), {"eps": F(1, 10)}, "n0 up to 17179869184; 18 of 34 "
     "candidates screened out before build, 16 built: 0 failed verify, 16 failed the tail; 0"),
    ("V2", lv.pq(F(101, 100), F(-1, 100)), {}, "lambda up to 64; 7 of 7 candidates screened "
     "out before build, 0 built: 0 failed verify, 0 failed the tail; 0"),
])
def test_a_failed_search_counts_its_candidates_by_outcome(regime, point, params, counts):
    """The search's error counts every n0 (2 .. 2^34) or lambda (1 .. 64) it
    tried: screened out before `build`, built and failed verify, failed the
    tail, or refused.  III at (-3, 7/4) said only "0 candidates refused",
    though its probe screen had rejected every n0."""
    with lv.precision(128), pytest.raises(CalibrationError) as exc:
        lv.certify(regime, point, N=3, horizon=200 if regime == "III" else 20, **params)
    assert str(exc.value) == (f"regime {regime}: no passing {counts} candidates refused: "
                              f"stored u not strictly decreasing")


@st.composite
def iii_points(draw):
    """A rational point strictly inside III's region, -4 < p < 0 and 1 < q < 2."""
    d, e = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    return lv.pq(-4 + 4 * F(draw(st.integers(1, d - 1)), d), 1 + F(draw(st.integers(1, e - 1)), e))


@seed(13)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(point=iii_points(), horizon=st.sampled_from([20, 40, 60, 125]))
@example(point=lv.pq(-1, F(9, 7)), horizon=125)             # fails: 16 failed the tail
@example(point=lv.pq(F(-12, 11), F(5, 4)), horizon=125)     # accepted at n0 = 2^18
@example(point=lv.pq(F(-8, 5), F(4, 3)), horizon=40)        # accepted at n0 = 2^20
@example(point=lv.pq(F(-16, 7), F(7, 5)), horizon=40)       # accepted at n0 = 2^22
@example(point=lv.pq(-2, F(3, 2)), horizon=60)              # accepted at n0 = 2^26
def test_iii_certificates_store_a_decreasing_u_and_refusals_are_counted(point, horizon):
    """Random III points at eps = 1/10, whose searches reach n0 = 2^18..2^26
    and beyond, where 128 bits round u = 1 + v flat: every certificate
    `certify` returns stores strictly decreasing deviations v, and a search
    that fails counts, in its CalibrationError, each candidate it refused.
    (While u was stored rounded, (-12/11, 5/4) refused 12 candidates, n0 =
    2^23..2^34, and (-8/5, 4/3) one.)"""
    refused = []
    decreasing = cx._decreasing

    def counted(u):
        found = decreasing(u)
        refused.append(not found)
        return found

    with pytest.MonkeyPatch.context() as patch, lv.precision(128):
        patch.setattr(cx, "_decreasing", counted)
        try:
            cert = lv.certify("III", point, N=3, horizon=horizon, eps=F(1, 10))
        except CalibrationError as exc:
            assert str(exc).endswith(f"; {sum(refused)} candidates refused: stored u not "
                                     f"strictly decreasing")
            return
        values = cert.built.u.deviations()
    assert refused[-1] is False and decreasing(cert.built.u)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_certify_evaluates_each_profile_once_per_call(monkeypatch):
    """A certify call evaluates the closed-form profile once per m it reads
    (probes, tail windows, delta_0 and build share one memo), and keeps
    nothing for the next call: an identical call evaluates as many again.
    Every row comes from a run of the profile, so the run is what counts."""
    make = cx._profile
    evaluated = []

    def counted(*args):
        profile = make(*args)
        run = profile.run

        def evaluate(ms):
            evaluated.extend(ms)
            return run(ms)

        profile.run = evaluate
        return profile

    monkeypatch.setattr(cx, "_profile", counted)
    counts = []
    for _ in range(2):
        evaluated.clear()
        lv.certify("I", lv.pq(2, 1), N=3, horizon=150, eps=F(1, 10))
        assert len(evaluated) == len(set(evaluated))
        counts.append(len(evaluated))
    assert counts[0] == counts[1] > 150


@pytest.mark.parametrize("regime, args, horizon", [
    ("V1", ["--p", "1/2", "--q", "1/2"], 460),
    ("IV", ["--p", "-2", "--q", "1", "--lam", "1"], 600),
])
def test_construct_makes_exponentials_from_runs_not_per_layer(monkeypatch, capsys, regime,
                                                              args, horizon):
    """`construct` at the bench horizons makes its powers of e (`_e_powers`)
    and its exponential volume target (`ExpLaw`) from geometric runs, not
    with one mpf_pow of e or mpf_exp per layer: each run calls mpf_pow_int of
    e or mpf_exp for its start and ratio and for each value it leaves
    undecided (about 1 in 64).  counterexamples makes no raw mpf_pow call."""
    from liouville.cli import main
    e = mp.e._mpf_
    calls = []
    for module, name in ((cx, "mpf_exp"), (numerics, "mpf_exp"), (numerics, "mpf_pow_int")):
        call = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, name=name, call=call: (
            (name == "mpf_exp" or a[0] == e) and calls.append(name)) or call(*a))
    code = main(["--precision-bits", "128", "construct", "--regime", regime, "--N", "3",
                 "--horizon", str(horizon)] + args)
    capsys.readouterr()
    assert code == 0
    assert 0 < len(calls) < horizon // 16


@pytest.mark.parametrize("regime, args, horizon", [
    ("I", ["--p", "2", "--q", "1", "--eps", "1/10"], 150),
    ("II", ["--p", "0", "--q", "3", "--eps", "1/2"], 270),
    ("III", ["--p", "-1", "--q", "3/2", "--eps", "1/10"], 125),
])
def test_construct_makes_profile_logs_and_exps_from_runs_not_per_layer(monkeypatch, capsys,
                                                                      regime, args, horizon):
    """`construct` at the bench horizons and at twice them makes the I-III
    profile's logs and powers from runs (`numerics.log_run`, `exp_steps`), not
    with an mpf_log or mpf_exp per layer: the calls at twice the horizon
    exceed those at the horizon only by the values the runs leave
    undecided (about 1 in 64), and the calls at the horizon are the runs'
    seeds (a few per n0 of the search), the m <= 7 of the first candidates
    and the volume law's few, where a per-m profile made one or more per
    row."""
    from liouville.cli import main
    calls = []
    for module, name in ((cx, "mpf_exp"), (numerics, "mpf_log"), (numerics, "mpf_exp")):
        call = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, call=call: calls.append(a) or call(*a))
    counts = []
    for H in (horizon, 2 * horizon):
        calls.clear()
        code = main(["--precision-bits", "128", "construct", "--regime", regime, "--N", "3",
                     "--horizon", str(H)] + args)
        capsys.readouterr()
        assert code == 0
        counts.append(len(calls))
    assert 0 < counts[0] < 128
    assert counts[1] - counts[0] < horizon // 8


CSV_REGIMES = [
    ("I", lv.pq(2, 1), {"eps": F(1, 10)}),
    ("II", lv.pq(0, 3), {"eps": F(1, 2)}),
    ("III", lv.pq(-1, F(3, 2)), {"eps": F(1, 10)}),
    ("IV", lv.pq(-2, 1), {"lam": F(1)}),
    ("V1", lv.pq(F(1, 2), F(1, 2)), {}),
    ("V2", lv.pq(2, -1), {}),
]


@pytest.mark.parametrize("regime, point, kw", CSV_REGIMES, ids=[r[0] for r in CSV_REGIMES])
def test_layer_rows_margins_are_the_certificates(regime, point, kw):
    """The CSV's margin column is the certificate's margin, bit for bit: every
    row's margin is `margin_at`'s, and at the worst layer it is the report's
    max_margin when the check ran at the working precision."""
    cert = lv.certify(regime, point, N=3, horizon=125, **kw)
    built, report = cert.built, cert.report
    rows = list(lv.layer_rows(built))
    assert len(rows) == report.layers[1] - report.layers[0] + 1
    for n, _, _, _, _, margin in rows:
        assert margin._mpf_ == cx.margin_at(built.tree, built.u, point.p, point.q, n)._mpf_, n
    if report.precision_bits == mp.mp.prec:
        worst = rows[report.worst_layer - report.layers[0]]
        assert worst[5]._mpf_ == report.max_margin._mpf_


# the bench's six `construct` configurations (bench/workloads.py)
BENCH_CONSTRUCTS = {
    "I": (["--p", "2", "--q", "1", "--eps", "1/10"], 150),
    "II": (["--p", "0", "--q", "3", "--eps", "1/2"], 270),
    "III": (["--p", "-1", "--q", "3/2", "--eps", "1/10"], 125),
    "IV": (["--p", "-2", "--q", "1", "--lam", "1"], 600),
    "V1": (["--p", "1/2", "--q", "1/2"], 460),
    "V2": (["--p", "2", "--q", "-1"], 280),
}
# III's probes combined at 2 and its table ran 47 times while its search
# built, verified and tail-checked n0 = 2^26, rejected it on the rounding of
# a stored 1 + v, and did it all again for 2^27; with u stored as deviations
# it accepts the first n0 it screens
PROBE_COMBINES = {"I": 1, "II": 0, "III": 1, "IV": 1, "V1": 0, "V2": 0}
# `numerics.memo.run` calls per bench construct: a read of a stretch of m
# split into more runs shows up here
PROFILE_RUNS = {"I": 24, "II": 2, "III": 36, "IV": 11, "V1": 0, "V2": 0}


# sha256 of the values each bench construct's certificate stores (N = 3,
# 128 bits), as "sign mantissa exponent" per layer (hex mantissa) joined by
# ";", recorded on the same specs built when u was stored as its values
# alone: stored as deviations from a base, u keeps every bit of them.
BENCH_VALUE_DIGESTS = {
    "I": "1c3afc5e39ff54e36380f2884d01a87e2bae218242231de1c0b10a8261f1d090",
    "II": "3e4b4882226b290a9dd624314a0250aed0ff66b76f95af9f2a2e5fd072370988",
    "III": "cf464b1861b0727d9730c376f6fb97be6115993e2be691156f7d65ca60d66d46",
    "IV": "0a8e683f8ff3be46662cdd83d0956a5d3a13cd8397d46aac1febe73f0393027a",
    "V1": "d4f5550a590e84b07e1693e84eb4be6b7055ba10a5b122b47b8933d990fae55b",
    "V2": "e05d83a7685a618c665fc607dc6c78dfc0abf47b2bccd710ba8f8081f98c8f1d",
}


@pytest.mark.parametrize("regime", list(BENCH_CONSTRUCTS))
def test_bench_builds_store_the_bits_of_their_values(regime):
    args, horizon = BENCH_CONSTRUCTS[regime]
    opts = dict(zip(args[::2], args[1::2]))
    params = {k[2:]: F(v) for k, v in opts.items() if k in ("--eps", "--lam")}
    with lv.precision(128):
        u = lv.certify(regime, lv.pq(F(opts["--p"]), F(opts["--q"])), N=3, horizon=horizon,
                       **params).built.u
    text = ";".join(f"{s} {int(m):x} {e}" for s, m, e, _ in (v._mpf_ for v in u.values()))
    assert hashlib.sha256(text.encode()).hexdigest() == BENCH_VALUE_DIGESTS[regime]
    assert (u.deviations() is u.values()) == (u.base == 0) == (regime not in ("II", "III", "IV"))


@pytest.mark.parametrize("regime", list(BENCH_CONSTRUCTS))
def test_construct_screens_its_lambda_windows(monkeypatch, capsys, regime):
    """`construct` at the bench horizons runs the Lambda kernel's combine at
    no more than three m per tail window (`_window_min`), where it ran it at
    every m of the window.  The probes of the n0 search, counted apart, take
    their signs from the kernel's screen, far end first, so a rejected n0
    costs one profile run and no combine, and combine runs only where the
    screen cannot rule out the minimum (PROBE_COMBINES; each probe cost a
    combine, 35 for I, 52 for III and 10 for IV, when they went nearest
    first unscreened).  PROFILE_RUNS pins the table's runs (I 38 and III 58
    nearest first)."""
    from liouville.cli import main
    counts = {"probe": 0, "window": 0, "windows": 0, "runs": 0}
    inside = []
    kernel, window_min = cx._lambda_kernel, cx._window_min

    def counted_kernel(*args):
        profile, combine, *rest = kernel(*args)

        def counted(*rows):
            counts["window" if inside else "probe"] += 1
            return combine(*rows)

        return (profile, counted, *rest)

    def counted_window_min(*args, **kwargs):
        counts["windows"] += 1
        inside.append(True)
        try:
            return window_min(*args, **kwargs)
        finally:
            inside.pop()

    def counted_run(table, keys):
        counts["runs"] += 1
        return run(table, keys)

    run = numerics.memo.run
    monkeypatch.setattr(cx, "_lambda_kernel", counted_kernel)
    monkeypatch.setattr(cx, "_window_min", counted_window_min)
    monkeypatch.setattr(numerics.memo, "run", counted_run)
    args, horizon = BENCH_CONSTRUCTS[regime]
    code = main(["--precision-bits", "128", "construct", "--regime", regime, "--N", "3",
                 "--horizon", str(horizon)] + args)
    capsys.readouterr()
    assert code == 0
    assert counts["probe"] == PROBE_COMBINES[regime]
    assert counts["runs"] == PROFILE_RUNS[regime]
    assert (counts["windows"] > 0) == (regime not in ("V1", "V2"))
    assert counts["window"] <= 3 * counts["windows"], counts
