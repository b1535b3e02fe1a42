import random

import mpmath as mp
import pytest

import before_streams
import liouville as lv
from liouville.errors import InputError


def path(values):
    n = len(values)
    g = lv.WeightedGraph(n, [(i, i + 1, 1) for i in range(n - 1)])
    return g, lv.GraphFunction(values)


def test_constant_function_cannot_descend():
    g, u = path([2, 2, 2])
    with pytest.raises(InputError):
        lv.descent_walk(g, u, 0, 5)


def test_forced_minima_walk():
    g, u = path([3, 2, 1])
    walk = lv.descent_walk(g, u, 0, 10)
    assert [s.site for s in walk.steps] == [0, 1, 2]
    assert walk.termination == "revisit"  # endpoint forces turning back
    assert walk.revisit_flagged
    assert walk.steps[-1].drop is None


def test_walk_respects_max_steps():
    g, u = path([5, 4, 3, 2, 1])
    walk = lv.descent_walk(g, u, 0, 2)
    assert [s.site for s in walk.steps] == [0, 1, 2]
    assert walk.termination == "max-steps"


def test_both_walks_reject_negative_max_steps():
    g, u = path([5, 4, 3, 2, 1])
    with pytest.raises(InputError, match="max_steps"):
        lv.descent_walk(g, u, 0, -1)
    tree = lv.RadialTree(3, [1] * 12)
    u = lv.RadialFunction([mp.mpf(1) / (n + 1) for n in range(12)])
    with pytest.raises(InputError, match="max_steps"):
        lv.radial_descent_walk(tree, u, max_steps=-1)


def test_walk_tie_break_smallest_id():
    # star: center 0 with leaves 1, 2, 3 at the same minimal value
    g = lv.WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    u = lv.GraphFunction([2, 1, 1, 1])
    walk = lv.descent_walk(g, u, 0, 5)
    assert walk.steps[1].site == 1


def test_walk_determinism():
    rng = random.Random(11)
    g = lv.WeightedGraph(8, [(i, i + 1, 1) for i in range(7)] + [(0, 4, 2), (2, 6, 1)])
    u = lv.GraphFunction([mp.mpf(rng.uniform(0.5, 3)) for _ in range(8)])
    w1 = lv.descent_walk(g, u, 0, 20)
    w2 = lv.descent_walk(g, u, 0, 20)
    assert [s.site for s in w1.steps] == [s.site for s in w2.steps]
    assert w1.termination == w2.termination


def test_radial_walk_regime_IV(regime4_walk):
    built = regime4_walk
    walk = lv.radial_descent_walk(built.tree, built.u, 0, 1000)
    assert len(walk.steps) == 1001
    assert [s.site for s in walk.steps] == list(range(1001))
    diag = lv.walk_diagnostics(walk, p0=built.tree.p0(), point=built.spec.point)
    assert diag.strict_decrease.holds
    assert diag.sandwich.holds
    assert diag.averaging.holds
    assert diag.gradient_ratio.holds
    assert diag.pointwise_power.holds
    assert diag.solution_sites == 1001


def test_radial_walk_regime_V1(regime5_walk):
    built = regime5_walk
    walk = lv.radial_descent_walk(built.tree, built.u, 0, 1000)
    assert len(walk.steps) == 1001
    diag = lv.walk_diagnostics(walk, p0=built.tree.p0(), point=built.spec.point)
    assert diag.strict_decrease.holds and diag.sandwich.holds
    assert diag.averaging.holds and diag.pointwise_power.holds


def test_radial_walk_two_sided_goes_positive():
    spec = lv.calibrate("V2", lv.pq(2, -1), N=3, horizon=50)
    built = lv.build(spec)
    walk = lv.radial_descent_walk(built.tree, built.u, 0, 30)
    assert [s.site for s in walk.steps] == list(range(31))


def test_radial_walk_horizon_termination(regime5_walk):
    built = regime5_walk
    walk = lv.radial_descent_walk(built.tree, built.u, 0, 10 ** 6)
    assert walk.termination == "horizon"
    assert walk.steps[-1].site == built.tree.horizon - 1


def test_radial_walk_uphill_start_revisits():
    # u increasing in the layer: walk goes to the parent, then wants to come back
    tree = lv.RadialTree(3, [1] * 6)
    u = lv.RadialFunction([1, 2, 3, 4, 5, 6])
    walk = lv.radial_descent_walk(tree, u, start_layer=2, max_steps=10)
    assert [s.site for s in walk.steps] == [2, 1, 0]
    assert walk.termination == "revisit" and walk.revisit_flagged


def test_jensen_single_edge_example():
    g, u = path([0, 1, 2])
    diag = lv.walk_diagnostics(
        lv.DescentWalk(steps=(lv.DescentStep(site=1, u=mp.mpf(1),
                                             lap=lv.laplacian(g, u, 1),
                                             grad=lv.gradient_norm(g, u, 1),
                                             drop=None),),
                       termination="max-steps", revisit_flagged=False))
    assert diag.averaging.holds


def test_gradient_ratio_single_edge():
    g = lv.WeightedGraph(2, [(0, 1, 1)])
    u = lv.GraphFunction([1, "0.5"])
    walk = lv.descent_walk(g, u, 0, 1)
    diag = lv.walk_diagnostics(walk, p0=1, point=lv.pq(2, -1))
    # |grad| = 0.5/sqrt(2) <= sqrt((1+1)/2) * 0.5 = 0.5
    assert diag.gradient_ratio.checked == 1
    assert diag.gradient_ratio.holds


def test_universal_jensen_random_triples():
    rng = random.Random(314159)
    sqrt2 = mp.sqrt(2)
    for _ in range(200):
        n = rng.randint(2, 9)
        edges = [(i, rng.randrange(i), mp.mpf(rng.uniform(0.1, 3))) for i in range(1, n)]
        g = lv.WeightedGraph(n, edges)
        u = lv.GraphFunction([mp.mpf(rng.uniform(-4, 4)) for _ in range(n)])
        for x in g.vertices():
            lap = abs(lv.laplacian(g, u, x))
            bound = sqrt2 * lv.gradient_norm(g, u, x)
            assert lap <= bound * (1 + mp.mpf("1e-30"))


def test_pointwise_bound_constant_u():
    g, u = path([2, 2, 2])
    rep = lv.pointwise_bound_check(g, u, lv.pq(2, 1))
    assert rep.holds and rep.checked == 3
    assert rep.max_margin == -1  # u^(p-1) grad^q = 0 everywhere


def test_pointwise_bound_regime_V1(regime5_walk):
    rep = lv.pointwise_bound_check_built(regime5_walk, horizon=1000)
    assert rep.holds
    assert rep.checked == 2001 or rep.checked == 1001


def test_pointwise_bound_hypothesis_gate():
    g = lv.WeightedGraph(2, [(0, 1, 1)])
    u = lv.GraphFunction([1, 2])  # increasing: not a solution at vertex 0
    rep = lv.pointwise_bound_check(g, u, lv.pq(2, 1))
    assert 0 in rep.hypothesis_failures


def test_pointwise_bound_skips_zero_gradient_negative_q():
    g = lv.WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    u = lv.GraphFunction([1, 1, 1])
    rep = lv.pointwise_bound_check(g, u, lv.pq(2, -1))
    assert rep.checked == 0
    assert set(rep.skipped) == {0, 1, 2}


@pytest.mark.parametrize("p0", [-3, mp.mpf("0.5"), 0, mp.nan, mp.inf, "-inf"])
def test_walk_diagnostics_rejects_a_meaningless_p0(p0):
    """p0 below 1 would read -3 as 3 through its square; nan or inf has no
    gradient ratio bound at all."""
    g = lv.WeightedGraph(2, [(0, 1, 1)])
    walk = lv.descent_walk(g, lv.GraphFunction([1, "0.5"]), 0, 1)
    with pytest.raises(InputError, match="p0 must be finite and at least 1"):
        lv.walk_diagnostics(walk, p0=p0, point=lv.pq(2, -1))
    assert lv.walk_diagnostics(walk, p0=1).gradient_ratio.holds


@pytest.mark.parametrize("horizon", [-1, -5])
def test_pointwise_bound_rejects_a_negative_horizon(regime5_walk, horizon):
    """A negative horizon checked no layer and reported the bound as holding."""
    with pytest.raises(InputError, match="horizon must be at least 0"):
        lv.pointwise_bound_check_built(regime5_walk, horizon=horizon)
    assert lv.pointwise_bound_check_built(regime5_walk, horizon=0).checked == 1


def test_pointwise_bound_rejects_a_horizon_past_the_deepest_layer(regime5_walk):
    """Horizon 1006 is one past the deepest checkable layer: the bound clamped
    it to 1005 and reported holding on fewer layers than asked, where verify
    raises."""
    message = "horizon 1006 exceeds checkable layers"
    with pytest.raises(InputError, match=message):
        lv.verify(regime5_walk, horizon=1006)
    with pytest.raises(InputError, match=message):
        lv.pointwise_bound_check_built(regime5_walk, horizon=1006)
    assert lv.pointwise_bound_check_built(regime5_walk, horizon=1005).checked == 1006


def big_p0_walk():
    """The walk of the large-p0 regression: u_n = 1/(n + 1) on a binary-growth
    tree, five steps from layer 1."""
    tree = lv.RadialTree(3, [mp.mpf(2) ** k for k in range(12)])
    u = lv.RadialFunction([1 / mp.mpf(n + 1) for n in range(13)])
    return lv.radial_descent_walk(tree, u, 1, 5)


def test_walk_diagnostics_take_a_p0_beyond_the_readers_exponents():
    """A finite p0 whose ratio factor has a binary exponent past the screen's
    cap: the gradient ratio family declines the screen and is evaluated in
    mpf, and the report is that of the loop evaluating every margin."""
    walk = big_p0_walk()
    p0 = mp.mpf("1e15000000000000")
    for point in (None, lv.pq(2, 1)):
        diag = lv.walk_diagnostics(walk, p0=p0, point=point)
        assert diag == before_streams.walk_diagnostics(walk, p0, point)
        assert diag.gradient_ratio.checked == 4


def raw(x):
    """x with every mpf replaced by its raw tuple (so a nan equals itself)."""
    if isinstance(x, mp.mpf):
        return x._mpf_
    if isinstance(x, tuple):
        return tuple(map(raw, x))
    if hasattr(x, "__dataclass_fields__"):
        return tuple(raw(getattr(x, f)) for f in x.__dataclass_fields__)
    return x


def hand_walk(*rows):
    """A walk of steps (u, lap, grad, drop) at sites 0, 1, ..."""
    return lv.DescentWalk(steps=tuple(lv.DescentStep(i, *map(lambda v: v if v is None else
                                                             mp.mpf(v), row))
                                      for i, row in enumerate(rows)),
                          termination="max-steps", revisit_flagged=False)


@pytest.mark.parametrize("case", ["zero drop", "zero laplacian", "nan", "inf"])
def test_raw_margins_match_mpf_on_edge_values(case):
    """The margins on raw values give mpf's operators' report, bit for bit,
    where a drop or a Laplacian is exactly zero (the sandwich's zero scale,
    the strict-decrease and gradient-ratio member tests on 0) and where a
    value is not finite, whose nan margin voids `_screened`'s screen and
    whose maximum then depends on where the nan sits."""
    rows = {
        "zero drop": [(1, -2, 1, 0), (1, -1, "0.5", "0.25"), (2, -3, 1, 0), ("0.5", -1, 1, None)],
        "zero laplacian": [(1, 0, 0, 0), (1, 0, 1, "0.5"), (1, -1, 1, "0.5"), (1, -1, 1, None)],
        "nan": [(1, -2, 1, "0.5"), (1, "nan", 1, "0.5"), (1, -2, "nan", "nan"), (1, -1, 1, None)],
        "inf": [(1, "-inf", 1, "0.5"), (1, -2, "+inf", "0.5"), (1, -1, 1, "-inf"),
                (1, -1, 1, None)],
    }[case]
    walk = hand_walk(*rows)
    for p0 in (None, 1, 3):
        for point in (None, lv.pq(2, 1), lv.pq(-1, "3/2"), lv.pq(2, -1)):
            got = lv.walk_diagnostics(walk, p0, point)
            assert raw(got) == raw(before_streams.walk_diagnostics(walk, p0, point)), \
                (p0, point)
