import random
from fractions import Fraction as F

import mpmath as mp
import pytest

import liouville as lv
from liouville.errors import InputError


# ---------------------------------------------------------------------------
# cutoff functions


def test_h_values():
    assert lv.h_value(4, 0) == 1
    assert lv.h_value(4, 4) == 1
    assert lv.h_value(4, 6) == F(1, 2)
    assert lv.h_value(4, 8) == 0
    assert lv.h_value(4, 100) == 0


def test_h_increments_bounded_and_supported():
    for n in (1, 3, 8):
        for d in range(0, 3 * n):
            step = abs(lv.h_value(n, d + 1) - lv.h_value(n, d))
            assert step <= F(1, n)
            if d >= 2 * n:
                assert step == 0


def test_phi_plateau_and_support():
    for i in (1, 2, 3):
        tf = lv.TestFunction("phi", i)
        for d in range(0, 2 ** (2 * i - 1) + 4):
            v = lv.phi_value(i, d)
            assert 0 <= v <= 1
            if d <= 2 ** (i - 1):
                assert v == 1
            if d >= 2 ** (2 * i - 1):
                assert v == 0
        assert tf.support_radius() == 2 ** (2 * i - 1) - 1
        assert tf.plateau_radius() == 2 ** (i - 1)


def test_test_function_on_graph():
    tree = lv.RadialTree(3, [2 ** n for n in range(10)])
    g, layers = tree.materialize(9)
    tf = lv.TestFunction("phi", 2)
    for x in range(g.n_vertices):
        assert lv.test_function_value(tf, g, x, 0) == lv.phi_value(2, layers[x])


def test_test_function_parse():
    assert lv.TestFunction.parse("h:8") == lv.TestFunction("h", 8)
    assert lv.TestFunction.parse("phi:3") == lv.TestFunction("phi", 3)
    with pytest.raises(InputError):
        lv.TestFunction.parse("spline:2")


# ---------------------------------------------------------------------------
# constants


def test_c_constant_unit_case():
    consts = lv.c_constant(1, 1, lv.pq(2, 1))
    assert abs(consts.C - 2) < mp.mpf("1e-35")
    assert abs(consts.C_prime - consts.C) < mp.mpf("1e-35")  # exponent 1 at t=1


def test_c_constant_monotone_in_p0():
    vals = [lv.c_constant(p0, 1, lv.pq(2, 1)).C for p0 in (1, 2, 4)]
    assert vals[0] < vals[1] < vals[2]


def test_c_constant_degenerate_rejected():
    with pytest.raises(InputError):
        lv.c_constant(2, 3, lv.pq(2, 1))  # p + q = t
    with pytest.raises(InputError):
        lv.c_constant(2, F(1, 2), lv.pq(F(1, 2), F(1, 2)))  # p + q = 1


# ---------------------------------------------------------------------------
# estimates


def test_estimate_zero_cutoff_on_domain():
    g = lv.WeightedGraph(6, [(i, i + 1, 1) for i in range(5)])
    u = lv.GraphFunction.constant(g, 1)
    tf = lv.TestFunction("h", 1)
    rep = lv.estimate_sides(g, u, 0, tf, F(7), F(1, 2), lv.pq(2, 1), 2,
                            variant="est2", omega=[4, 5])
    assert rep.hypotheses_ok
    assert rep.lhs == 0 and rep.rhs == 0 and rep.holds


def test_estimate_constant_solution_holds():
    g = lv.WeightedGraph(6, [(i, i + 1, 1) for i in range(5)])
    u = lv.GraphFunction.constant(g, 3)
    rep = lv.estimate_sides(g, u, 0, lv.TestFunction("h", 1), F(7), F(1, 2),
                            lv.pq(2, 1), 2, variant="est2")
    assert rep.hypotheses_ok
    assert rep.lhs == 0 and rep.holds


def test_estimate_radial_regime_I_holds(regime1_small):
    built = regime1_small
    sel = lv.choose_st(lv.pq(2, 1))
    rep = lv.estimate_sides_radial(built.tree, built.u, lv.TestFunction("phi", 3),
                                   sel.s_default, sel.t_default, lv.pq(2, 1),
                                   variant="est2")
    assert rep.hypotheses_ok, rep.hypothesis_failures
    assert rep.holds and rep.lhs < rep.rhs


def test_estimate_radial_matches_materialized(regime1_small):
    built = regime1_small
    sel = lv.choose_st(lv.pq(2, 1))
    tf = lv.TestFunction("phi", 2)  # support radius 7
    p0 = built.tree.p0()
    rep_rad = lv.estimate_sides_radial(built.tree, built.u, tf, sel.s_default,
                                       sel.t_default, lv.pq(2, 1), p0=p0)
    g, layers = built.tree.materialize(9)
    gu = lv.induced_graph_function(built.u, layers)
    rep_g = lv.estimate_sides(g, gu, 0, tf, sel.s_default, sel.t_default,
                              lv.pq(2, 1), p0)
    for a, b in ((rep_rad.lhs, rep_g.lhs), (rep_rad.rhs, rep_g.rhs),
                 (rep_rad.edge_sum, rep_g.edge_sum)):
        assert abs(a - b) <= mp.mpf("1e-30") * max(abs(a), abs(b))


def test_estimate_est1_chains_to_est2(regime1_small):
    built = regime1_small
    sel = lv.choose_st(lv.pq(2, 1))
    s, t = sel.s_default, sel.t_default
    tf = lv.TestFunction("h", 8)
    rep1 = lv.estimate_sides_radial(built.tree, built.u, tf, s, t, lv.pq(2, 1),
                                    variant="est1")
    rep2 = lv.estimate_sides_radial(built.tree, built.u, tf, s, t, lv.pq(2, 1),
                                    variant="est2")
    assert rep1.hypotheses_ok and rep1.holds
    p, q, tm, sm = (lv.to_mpf(v) for v in (2, 1, t, s))
    a = (2 * p + q + tm * (q - 2)) / (p + q - tm)
    rho = (p + q - tm) / (p + q - 1)
    theta = (p + tm * (q - 1)) / (p + q - tm)
    chained = (rep1.constants.C * (2 * sm) ** a * tm ** -theta) ** rho * rep1.edge_sum
    # the middle factor never exceeds the left-hand side, so est-1 implies est-2
    assert rep1.middle_factor <= rep1.lhs * (1 + mp.mpf("1e-30"))
    assert abs(chained - rep2.rhs) <= mp.mpf("1e-28") * rep2.rhs


def test_estimate_est1_rejected_for_t_above_one(regime3_small):
    built = regime3_small
    sel = lv.choose_st(lv.pq(-1, F(3, 2)))
    assert sel.t_default > 1  # K4 draw
    rep = lv.estimate_sides_radial(built.tree, built.u, lv.TestFunction("h", 8),
                                   sel.s_default, sel.t_default,
                                   lv.pq(-1, F(3, 2)), variant="est1")
    assert not rep.hypotheses_ok
    assert any("est-1" in msg for msg in rep.hypothesis_failures)


def test_estimate_radial_regime_III_est2_holds(regime3_small):
    built = regime3_small
    sel = lv.choose_st(lv.pq(-1, F(3, 2)))
    rep = lv.estimate_sides_radial(built.tree, built.u, lv.TestFunction("h", 16),
                                   sel.s_default, sel.t_default,
                                   lv.pq(-1, F(3, 2)), variant="est2")
    assert rep.hypotheses_ok, rep.hypothesis_failures
    assert rep.holds


def test_estimate_flags_non_solution(regime1_small):
    spec = regime1_small.spec
    bad = lv.build(lv.RegimeSpec(**{**spec.__dict__, "delta": spec.delta * 50}))
    sel = lv.choose_st(lv.pq(2, 1))
    rep = lv.estimate_sides_radial(bad.tree, bad.u, lv.TestFunction("h", 8),
                                   sel.s_default, sel.t_default, lv.pq(2, 1))
    assert not rep.hypotheses_ok
    assert any("inequality fails" in msg for msg in rep.hypothesis_failures)
    with pytest.raises(lv.HypothesisNotMetError):
        from liouville.caccioppoli import require_hypotheses
        require_hypotheses(rep)


def test_estimate_flags_bad_st(regime1_small):
    rep = lv.estimate_sides_radial(regime1_small.tree, regime1_small.u,
                                   lv.TestFunction("h", 8), F(1, 10), F(1, 2),
                                   lv.pq(2, 1))
    assert not rep.hypotheses_ok
    assert any("admissibility" in msg for msg in rep.hypothesis_failures)


def test_estimate_random_draws_hold(regime1_small, regime3_small):
    # smaller cousin of the acceptance sweep
    rng = random.Random(4242)
    cases = [(regime1_small, lv.pq(2, 1)), (regime3_small, lv.pq(-1, F(3, 2)))]
    cutoffs = [lv.TestFunction("h", 8), lv.TestFunction("h", 16),
               lv.TestFunction("phi", 2), lv.TestFunction("phi", 3)]
    for built, point in cases:
        sel = lv.choose_st(point)
        hi = sel.t_hi
        for k in range(10):
            t = sel.t_lo + (hi - sel.t_lo) * F(rng.randint(1, 15), 16)
            s_min = (2 * point.p + point.q + t * (point.q - 2)) / (point.p + point.q - 1)
            s = s_min + F(rng.randint(1, 8), 4)
            assert lv.st_condition(point, s, t)
            tf = cutoffs[k % len(cutoffs)]
            rep = lv.estimate_sides_radial(built.tree, built.u, tf, s, t, point)
            assert rep.hypotheses_ok, rep.hypothesis_failures
            assert rep.holds
            if t < 1:
                rep1 = lv.estimate_sides_radial(built.tree, built.u, tf, s, t,
                                                point, variant="est1")
                assert rep1.hypotheses_ok and rep1.holds
                assert rep1.middle_factor <= rep1.lhs * (1 + mp.mpf("1e-30"))


# ---------------------------------------------------------------------------
# exponential volume bound machinery


def test_exp_volume_bound_log_value():
    kappa = mp.mpf("0.05")
    b = lv.exp_volume_bound(2, 100, 100, mp.e ** (2 * kappa * 100))
    expected = 100 * (2 * kappa + mp.ln(2))
    assert abs(b.log_value - expected) < mp.mpf("1e-25")
    assert abs(b.value - mp.e ** expected) < mp.mpf("1e-20") * b.value


def test_exp_volume_bound_optimal_theta_rate():
    # z = theta n with theta = 1/(sqrt(2 p0) e) gives log-rate 2 kappa - theta
    p0 = mp.mpf(2)
    kappa = mp.mpf("0.05")
    theta = 1 / (mp.sqrt(2 * p0) * mp.e)
    for n in (50, 500):
        b = lv.exp_volume_bound(p0, theta * n, n, mp.e ** (2 * kappa * n))
        assert abs(b.log_value / n - (2 * kappa - theta)) < mp.mpf("1e-20")


def test_exp_volume_bound_vanishes_below_kappa0():
    p0 = mp.mpf(2)
    kappa = lv.kappa0(p0, "V1") / 2
    theta = 1 / (mp.sqrt(2 * p0) * mp.e)
    vals = [lv.exp_volume_bound(p0, theta * n, n, mp.e ** (2 * kappa * n)).value
            for n in (100, 1000, 10000)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < mp.mpf("1e-100")


@pytest.mark.parametrize("log", [1000, 10 ** 5, 10 ** 8])
def test_exp_volume_bound_value_is_exp_of_its_log(log):
    """At 128 bits the value is within 1 ulp of exp(log_value) taken at 256
    bits (e ** log_value, with e itself rounded, is 1.7e7 ulps off at 1e8)."""
    with mp.workprec(128):
        # sqrt(2 p0) = z = n = 1, so log_value = ln vol2n
        b = lv.exp_volume_bound(mp.mpf(1) / 2, 1, 1, mp.exp(log))
        ulp = mp.ldexp(1, mp.frexp(b.value)[1] - 128)
    with mp.workprec(256):
        assert abs(b.value - mp.exp(b.log_value)) <= ulp


def test_exp_volume_bound_overflow_sentinel():
    b = lv.exp_volume_bound(2, mp.mpf("1e9"), 2, 1)
    assert b.value == mp.inf
    assert mp.isfinite(b.log_value)


def test_kappa0_values():
    assert abs(lv.kappa0(2, "V1") - 1 / (4 * mp.e)) < mp.mpf("1e-30")
    expected = 1 / ((6 * mp.e) ** 3 * 16)
    assert abs(lv.kappa0(2, "V2", q=-1) - expected) < mp.mpf("1e-30")


def test_kappa0_monotone_in_p0():
    vals = [lv.kappa0(p0, "V1") for p0 in (1, 2, 4)]
    assert vals[0] > vals[1] > vals[2]


def test_kappa0_v2_requires_negative_q():
    with pytest.raises(InputError):
        lv.kappa0(2, "V2")
    with pytest.raises(InputError):
        lv.kappa0(2, "V2", q=1)


def test_holder_conjugate_exact():
    for lam in (F(3, 2), F(7, 3), F(101, 100)):
        z = lv.holder_conjugate(lam)
        assert (lam - 1) / lam * z == 1
    with pytest.raises(InputError):
        lv.holder_conjugate(F(1))
