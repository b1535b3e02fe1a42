import random
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import liouville as lv
from liouville import caccioppoli
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


def test_phi_value_is_the_averaged_ramp_stack():
    """The integer sum over the denominator i 2^(2i-2) is the Fraction
    average of the ramps h_{2^k}, k = i-1 .. 2i-2, at every distance inside
    the 2^(2i)-ball, and an index below 1 or a negative distance raises."""
    for i in range(1, 7):
        for d in range(2 ** (2 * i)):
            assert lv.phi_value(i, d) == sum(lv.h_value(2 ** k, d)
                                             for k in range(i - 1, 2 * i - 1)) / F(i)
    for i, d in ((0, 0), (-1, 3), (1, -1), (4, -9)):
        with pytest.raises(InputError):
            lv.phi_value(i, d)


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


def test_c_constant_rejects_a_p0_that_is_not_finite():
    for p0 in (mp.inf, mp.nan, F(1, 2)):
        with pytest.raises(InputError, match="p0 must be finite and at least 1"):
            lv.c_constant(p0, F(1, 2), lv.pq(2, 1))


# ---------------------------------------------------------------------------
# estimates


@pytest.mark.parametrize("p, q, t, message", [
    (F(1, 2), F(1, 2), F(1, 2), "p \\+ q - 1 vanishes"),
    (2, 1, 3, "p \\+ q - t vanishes"),
    (F(3, 2), F(1, 2), 2, "p \\+ q - t vanishes"),
])
@pytest.mark.parametrize("variant", ["est1", "est2"])
def test_estimate_where_its_exponents_are_undefined_is_an_input_error(p, q, t, message,
                                                                       variant):
    """On the line p + q = 1, and at t = p + q, the estimate's exponents
    divide by zero; both backends say so before any division."""
    g = lv.WeightedGraph(3, [(0, 1, 1), (1, 2, 2)])
    u = lv.GraphFunction([3, 2, 1])
    tree = lv.RadialTree(3, [1, 2, 3, 4, 5])
    tf = lv.TestFunction("h", 1)
    with pytest.raises(InputError, match=message):
        lv.estimate_sides(g, u, 0, tf, 7, t, lv.pq(p, q), 2, variant=variant)
    with pytest.raises(InputError, match=message):
        lv.estimate_sides_radial(tree, lv.RadialFunction([6, 5, 4, 3, 2]), tf, 7, t,
                                 lv.pq(p, q), 2, variant=variant)


@pytest.mark.parametrize("s, t", [(0, F(1, 2)), (-1, F(1, 2)), (7, 0), (7, -1)])
def test_estimate_needs_positive_s_and_t(s, t):
    g = lv.WeightedGraph(3, [(0, 1, 1), (1, 2, 2)])
    with pytest.raises(InputError, match="s > 0 and t > 0"):
        lv.estimate_sides(g, lv.GraphFunction([3, 2, 1]), 0, lv.TestFunction("h", 1),
                          s, t, lv.pq(2, 1), 2)


def test_estimate_est1_with_a_vanishing_middle_sum_is_undefined():
    """A constant u has |grad u|^q = 0 at q > 0, so the middle sum is 0; at
    p + q < t its exponent (1-t)/(p+q-t) is negative and the right-hand
    side is undefined, which the report says instead of raising."""
    g = lv.WeightedGraph(3, [(0, 1, 1), (1, 2, 2)])
    rep = lv.estimate_sides(g, lv.GraphFunction([2, 2, 2]), 0, lv.TestFunction("h", 1),
                            1, F(1, 2), lv.pq(-2, F(3, 2)), 1, variant="est1")
    assert rep.middle_factor == 0 and mp.isnan(rep.rhs) and not rep.holds
    assert not rep.hypotheses_ok
    assert any("right-hand side raises a zero sum" in m for m in rep.hypothesis_failures)


def test_estimate_zero_cutoff_on_domain():
    g = lv.WeightedGraph(6, [(i, i + 1, 1) for i in range(5)])
    u = lv.GraphFunction.constant(g, 1)
    tf = lv.TestFunction("h", 1)
    rep = lv.estimate_sides(g, u, 0, tf, F(7), F(1, 2), lv.pq(2, 1), 2,
                            variant="est2", omega=[4, 5])
    assert rep.hypotheses_ok
    assert rep.lhs == 0 and rep.rhs == 0 and rep.holds


@pytest.mark.parametrize("variant", ["est1", "est2"])
def test_estimate_on_a_disjoint_union_reads_the_cutoff_as_0_off_the_base(variant):
    """On A + B with the base in A, the cutoff is 0 on B, which the base
    cannot reach: the sums are A's bit for bit, and B's hypothesis failures
    (here the ratio bound) are still reported."""
    a_edges, a_u = [(i, i + 1, i + 1) for i in range(4)], [5, 4, 3, 2, 1]
    alone = lv.WeightedGraph(5, a_edges)
    union = lv.WeightedGraph(7, a_edges + [(5, 6, 1)])
    tf = lv.TestFunction("h", 2)
    assert [lv.test_function_value(tf, union, x, 0) for x in (5, 6)] == [0, 0]
    reps = [lv.estimate_sides(g, lv.GraphFunction(u), 0, tf, 7, F(1, 2), lv.pq(2, 1), 2,
                              variant=variant)
            for g, u in ((alone, a_u), (union, a_u + [1, 100]))]
    for field in ("lhs", "edge_sum", "middle_factor"):
        a, b = (getattr(rep, field) for rep in reps)
        assert (a is None and b is None) or repr(a._mpf_) == repr(b._mpf_), field
    ratio = "adjacent-ratio bound fails for the given p0"
    assert ratio not in reps[0].hypothesis_failures
    assert ratio in reps[1].hypothesis_failures


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


def test_an_estimate_forms_its_exponents_once(monkeypatch, regime1_small):
    """One (a, rho, theta) serves an estimate's sums, its constants C and C'
    and its right-hand side, on either backend."""
    calls = []
    exponents = caccioppoli._estimate_exponents
    monkeypatch.setattr(caccioppoli, "_estimate_exponents",
                        lambda *args: calls.append(args) or exponents(*args))
    built, point = regime1_small, lv.pq(2, 1)
    sel = lv.choose_st(point)
    tf = lv.TestFunction("phi", 2)
    rep = lv.estimate_sides_radial(built.tree, built.u, tf, sel.s_default, sel.t_default,
                                   point, variant="est2")
    assert calls == [(point, sel.t_default)] and rep.holds
    g, layers = built.tree.materialize(9)
    lv.estimate_sides(g, lv.induced_graph_function(built.u, layers), 0, tf, sel.s_default,
                      sel.t_default, point, built.tree.p0(), variant="est2")
    assert len(calls) == 2


@pytest.mark.parametrize("cutoff", ["h:8", "h:16", "phi:2", "phi:3"])
def test_est2_forms_no_middle_term_and_phi_adds_no_fraction(monkeypatch, regime1_small,
                                                            cutoff):
    """On the benchmark's cutoffs, est-2 hands `_finish_report` no middle sum
    and multiplies three times per site of the cutoff's support (its
    left-hand side's term; `site` forms the site's own) and once per shell
    the cutoff changes across (its edge term), while est-1 also forms its
    middle terms; `phi_value` adds no Fraction."""
    counts = {"mul": 0, "fraction adds": 0}
    middles, in_phi = [], []
    mul, finish, phi_value = caccioppoli.mpf_mul, caccioppoli._finish_report, lv.phi_value

    def counted_mul(*args):
        counts["mul"] += 1
        return mul(*args)

    def counted_add(add):
        def wrapped(a, b):
            counts["fraction adds"] += bool(in_phi)
            return add(a, b)
        return wrapped

    def watched_phi(i, d):
        in_phi.append(True)
        try:
            return phi_value(i, d)
        finally:
            in_phi.pop()

    monkeypatch.setattr(caccioppoli, "mpf_mul", counted_mul)
    monkeypatch.setattr(caccioppoli, "_finish_report",
                        lambda *args: middles.append(args[8]) or finish(*args))
    monkeypatch.setattr(caccioppoli, "phi_value", watched_phi)
    monkeypatch.setattr(F, "__add__", counted_add(F.__add__))
    monkeypatch.setattr(F, "__radd__", counted_add(F.__radd__))
    built, point = regime1_small, lv.pq(2, 1)
    sel, tf = lv.choose_st(point), lv.TestFunction.parse(cutoff)
    sites = tf.support_radius() + 1
    products = 3 * sites + sum(tf.value(n + 1) != tf.value(n) for n in range(sites))
    for variant in ("est2", "est1"):
        counts["mul"] = 0
        rep = lv.estimate_sides_radial(built.tree, built.u, tf, sel.s_default, sel.t_default,
                                       point, variant=variant)
        assert rep.hypotheses_ok
        if variant == "est2":
            assert counts["mul"] == products and middles == [None]
    assert counts["mul"] > products and middles[1] == rep.middle_factor > 0
    assert counts["fraction adds"] == 0


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


def close(a, b, rel=mp.mpf("1e-25")):
    """Both None, or within rel of the larger magnitude."""
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rel * max(abs(a), abs(b))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), N=st.sampled_from([2, 3]), horizon=st.integers(2, 8),
       point=st.sampled_from([lv.pq(2, 1), lv.pq(-1, F(3, 2)), lv.pq(3, 0),
                              lv.pq(2, F(-1, 2))]),
       variant=st.sampled_from(["est1", "est2"]))
def test_estimate_radial_matches_materialized_ball(data, N, horizon, point, variant):
    """On random one-sided trees, the layer evaluation and the graph
    evaluation on a materialized ball agree on every side of the estimate
    when the cutoff vanishes one layer inside the ball."""
    R = data.draw(st.integers(2, horizon), label="radius")
    cutoffs = [tf for tf in (lv.TestFunction(kind, k) for kind in ("h", "phi")
                             for k in (1, 2, 3, 4)) if tf.support_radius() <= R - 1]
    tf = data.draw(st.sampled_from(cutoffs), label="cutoff")
    weights = data.draw(st.lists(st.floats(0.2, 5.0), min_size=horizon + 1,
                                 max_size=horizon + 1), label="weights")
    values = data.draw(st.lists(st.floats(0.1, 3.0), min_size=horizon + 1,
                                max_size=horizon + 1), label="values")
    s, t = (F(7), F(1, 3)) if variant == "est1" else (F(5, 2), F(5, 4))
    tree, u = lv.RadialTree(N, weights), lv.RadialFunction(values)
    p0 = tree.p0()
    radial = lv.estimate_sides_radial(tree, u, tf, s, t, point, p0=p0, variant=variant)
    g, layers = tree.materialize(R)
    ball = lv.estimate_sides(g, lv.induced_graph_function(u, layers), 0, tf, s, t, point, p0,
                             variant=variant)
    for field in ("lhs", "middle_factor", "edge_sum", "rhs"):
        assert close(getattr(radial, field), getattr(ball, field)), field
    assert radial.holds == ball.holds


def test_estimate_radial_rejects_a_two_sided_tree():
    tree = lv.TwoSidedRadialTree(3, [1] * 6, [1] * 6)
    u = lv.RadialFunction([1] * 13, lo=-6)
    with pytest.raises(InputError, match="one-sided"):
        lv.estimate_sides_radial(tree, u, lv.TestFunction("h", 1), 7, F(1, 3), lv.pq(2, 1))


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
