import random
import time
import tracemalloc

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import before_layer_chain as before
import liouville as lv
from liouville.errors import InputError


def random_one_sided(rng, horizon=9):
    N = rng.choice([2, 3, 4])
    weights = [mp.mpf(rng.uniform(0.2, 5.0)) for _ in range(horizon + 1)]
    return lv.RadialTree(N, weights)


def random_two_sided(rng, arm=6):
    N = rng.choice([2, 3, 4])
    pos = [mp.mpf(rng.uniform(0.2, 5.0)) for _ in range(arm)]
    neg = [mp.mpf(rng.uniform(0.2, 5.0)) for _ in range(arm)]
    return lv.TwoSidedRadialTree(N, pos, neg)


def random_radial_function(rng, lo, hi):
    return lv.RadialFunction([mp.mpf(rng.uniform(0.1, 3.0)) for _ in range(lo, hi + 1)],
                             lo=lo)


TOL = mp.mpf("1e-25")


def rel_close(a, b):
    scale = max(abs(a), abs(b), mp.mpf(1) / 10 ** 10)
    return abs(a - b) <= TOL * scale


def test_one_sided_matches_materialization_random_profiles():
    rng = random.Random(101)
    for _ in range(10):
        tree = random_one_sided(rng, horizon=9)
        u = random_radial_function(rng, 0, 9)
        g, layers = tree.materialize(9)
        gu = lv.induced_graph_function(u, layers)
        for n in range(0, 8):
            x = layers.index(n)
            assert rel_close(tree.laplacian_at(u, n), lv.laplacian(g, gu, x))
            assert rel_close(tree.gradient_at(u, n), lv.gradient_norm(g, gu, x))
        for n in range(0, 8):
            assert rel_close(tree.ball_volume(n), lv.ball_volume(g, 0, n))


def test_layer_constancy_on_materialization():
    rng = random.Random(55)
    tree = random_one_sided(rng, horizon=6)
    u = random_radial_function(rng, 0, 6)
    g, layers = tree.materialize(6)
    gu = lv.induced_graph_function(u, layers)
    for n in range(0, 5):
        values = {lv.laplacian(g, gu, x) for x in g.vertices() if layers[x] == n}
        assert len(values) == 1  # identical across the whole layer


def test_two_sided_matches_materialization():
    rng = random.Random(303)
    for _ in range(5):
        tree = random_two_sided(rng, arm=6)
        u = random_radial_function(rng, -6, 6)
        g, layers = tree.materialize(6)
        gu = lv.induced_graph_function(u, layers)
        for n in range(-5, 6):
            x = layers.index(n)
            assert rel_close(tree.laplacian_at(u, n), lv.laplacian(g, gu, x))
            assert rel_close(tree.gradient_at(u, n), lv.gradient_norm(g, gu, x))
        for n in range(0, 6):
            assert rel_close(tree.ball_volume(n), lv.ball_volume(g, 0, n))


def test_two_sided_p0_matches_materialization():
    # on a few of these trees the largest ratio is the parent-edge ratio of
    # positive layer 1, (w_1 + w_0) / w_0
    for seed in range(60):
        rng = random.Random(9900 + seed)
        N, M = rng.choice([2, 3, 4]), rng.choice([2, 3, 4])
        tree = lv.TwoSidedRadialTree(N, [mp.mpf(rng.uniform(0.1, 10)) for _ in range(M)],
                                     [mp.mpf(rng.uniform(0.1, 10)) for _ in range(M)])
        g, _ = tree.materialize(M)
        assert rel_close(tree.p0(), lv.p0_of(g)), (seed, N, M)


def test_one_sided_p0_matches_materialization():
    rng = random.Random(17)
    tree = random_one_sided(rng, horizon=6)
    g, _ = tree.materialize(6)
    assert rel_close(tree.p0(), lv.p0_of(g))


def test_p0_is_computed_once_per_tree_and_precision(monkeypatch):
    """Repeated calls on one tree reuse the scan; another precision redoes it."""
    tree = lv.RadialTree(3, [mp.mpf(k + 1) / 7 for k in range(8)])
    scans = []
    scan = lv.RadialTree._max_edge_ratio
    monkeypatch.setattr(lv.RadialTree, "_max_edge_ratio",
                        lambda self: scans.append(1) or scan(self))
    first = tree.p0()
    assert tree.p0() is first and len(scans) == 1
    with mp.workprec(256):
        fine = tree.p0()
        assert fine._mpf_ == scan(tree)._mpf_ and fine._mpf_ != first._mpf_
    assert tree.p0()._mpf_ == first._mpf_ and len(scans) == 3


def test_root_structure_two_sided():
    tree = lv.TwoSidedRadialTree(3, [1, 1, 1], [1, 1, 1])
    g, layers = tree.materialize(3)
    # root: N-1 positive children plus the special vertex
    assert sorted(layers[y] for y, _ in g.neighbors(0)) == [-1, 1, 1]
    # every non-leaf vertex has degree N
    dist = g.distances_from(0)
    for x in g.vertices():
        if dist[x] < 3:
            assert g.degree(x) == 3


def test_conductances_are_the_layer_model():
    """Every layer of interior_layers() is a site with two conductances: the
    stored weights off the roots (the same objects), ((N-1) w_0, w_{-1}) at
    a two-sided root and (1, 0) at a one-sided one; no other layer has any."""
    one = lv.RadialTree(3, ["0.5", 2, 3, 4])
    two = lv.TwoSidedRadialTree(3, ["0.5", 2, 3], [5, 6, 7])
    a, b = one.conductances(2)
    assert a is one.weight(2) and b is one.weight(1)
    assert one.conductances(0) == (1, 0)
    assert two.conductances(0) == (2 * two.weight(0), two.weight(-1))
    assert two.conductances(-1) == (two.weight(-1), two.weight(-2))
    for tree in (one, two):
        inner = tree.interior_layers()
        for n in (inner.start - 1, inner.stop):
            with pytest.raises(InputError, match="no stored inward and outward edge"):
                tree.conductances(n)


def test_radius_beyond_horizon_rejected():
    tree = lv.RadialTree(3, [1, 1, 1])
    with pytest.raises(InputError):
        tree.ball_volume(3)
    with pytest.raises(InputError):
        tree.materialize(5)


def test_operators_need_neighbor_layer():
    tree = lv.RadialTree(3, [1, 1, 1])
    u = lv.RadialFunction([1, 2, 3])
    with pytest.raises(InputError):
        tree.laplacian_at(u, 2)  # would read u at layer 3


def test_radial_function_range_checks():
    u = lv.RadialFunction([1, 2], lo=-1)
    assert u.lo == -1 and u.hi == 0
    with pytest.raises(InputError):
        u.value(1)


def test_radial_text_roundtrip_one_sided():
    rng = random.Random(5)
    tree = random_one_sided(rng, horizon=5)
    tree2 = lv.parse_radial_text(lv.format_radial_text(tree))
    assert isinstance(tree2, lv.RadialTree)
    assert tree2.N == tree.N and tree2.horizon == tree.horizon
    for n in range(6):
        assert abs(tree2.weight(n) / tree.weight(n) - 1) < mp.mpf("1e-28")


def test_radial_text_roundtrip_two_sided():
    rng = random.Random(6)
    tree = random_two_sided(rng, arm=4)
    tree2 = lv.parse_radial_text(lv.format_radial_text(tree))
    assert isinstance(tree2, lv.TwoSidedRadialTree)
    assert tree2.N == tree.N and tree2.arm_horizon == tree.arm_horizon
    for n in range(-4, 4):
        assert abs(tree2.weight(n) / tree.weight(n) - 1) < mp.mpf("1e-28")


def test_radial_parse_errors():
    with pytest.raises(InputError):
        lv.parse_radial_text("radial N=3\n0 1.0\n")
    with pytest.raises(InputError):
        lv.parse_radial_text("radial N=3 horizon=2\n0 1.0\n")  # missing layers


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "0", "-1"])
def test_non_finite_or_nonpositive_weights_rejected(bad):
    with pytest.raises(InputError):
        lv.RadialTree(3, [1, mp.mpf(bad), 2])
    with pytest.raises(InputError):
        lv.TwoSidedRadialTree(3, [1, 2], [mp.mpf(bad), 2])
    with pytest.raises(InputError):
        lv.TwoSidedRadialTree(3, [1, mp.mpf(bad)], [1, 2])
    with pytest.raises(InputError):
        lv.parse_radial_text(f"radial N=3 horizon=1\n0 1\n1 {bad}\n")


def test_radial_parse_non_numeric_entries():
    for line in ("x 1.0", "0 abc", "1.5 2.0"):
        with pytest.raises(InputError):
            lv.parse_radial_text(f"radial N=3 horizon=1\n{line}\n1 2.0\n")


def test_two_sided_ball_volumes_running_sum():
    rng = random.Random(7)
    tree = random_two_sided(rng, arm=6)
    vols = tree.ball_volumes(5)
    acc = mp.mpf(0)
    for k in range(6):
        acc += tree.layer_measure(k)
        assert vols[k] == acc
        assert rel_close(vols[k], tree.ball_volume(k))
    g, layers = tree.materialize(5)
    for k in range(5):
        assert rel_close(vols[k], lv.ball_volume(g, 0, k))
    with pytest.raises(InputError):
        tree.ball_volumes(6)


def test_ball_volumes_of_weights_2_to_the_2_to_the_30_apart_are_quick_and_small():
    """Neighbouring weights 2^(+-2^30) apart: each sum keeps the smaller term
    as a sticky bit, as mpf_add does, so the volumes are mpf_add's and no
    integer near 2^30 bits is built."""
    far = mp.ldexp(1, 2 ** 30)
    ws = [mp.mpf(3), far * 5, mp.mpf(1) / 7, 11 / far, mp.mpf(2), far / 3, mp.mpf(9)]
    trees = [(lv.RadialTree(3, ws), before.RadialTree(3, ws), 6),
             (lv.TwoSidedRadialTree(3, ws, ws[::-1]), before.TwoSidedRadialTree(3, ws, ws[::-1]),
              6)]
    for tree, old, n in trees:
        tracemalloc.start()
        start = time.perf_counter()
        vols = tree.ball_volumes(n)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert elapsed < 0.1 and peak < 100_000
        assert [v._mpf_ for v in vols] == [v._mpf_ for v in old.ball_volumes(n)]


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_non_finite_values_rejected(bad):
    with pytest.raises(InputError, match="finite"):
        lv.RadialFunction([1, mp.mpf(bad), 2])
    with pytest.raises(InputError, match="finite"):
        lv.RadialFunction.from_callable(-1, 1, lambda n: mp.mpf(bad) if n == 0 else 1)
    with pytest.raises(InputError, match="finite"):
        lv.GraphFunction([3, mp.mpf(bad), 1])


@pytest.mark.parametrize("text", [
    "radial N=3 horizon=2\n0 1\n1 2\n1 5\n2 3\n",              # duplicate shell 1
    "radial N=3 horizon=2\n0 1\n1 2\n2 3\n3 4\n",              # past the horizon
    "radial N=3 horizon=2\n-1 7\n0 1\n1 2\n2 3\n",             # negative, one-sided
    "radial N=3 horizon=2 two-sided\narm +\n0 1\n1 2\narm -\n-1 3\n-2 4\n-1 5\n",
    "radial N=3 horizon=2 two-sided\narm +\n0 1\n1 2\n2 9\narm -\n-1 3\n-2 4\n",
    "radial N=3 horizon=2 two-sided\narm +\n0 1\n1 2\narm -\n-1 3\n-2 4\n-3 9\n",
])
def test_radial_parse_rejects_duplicate_and_out_of_range_shells(text):
    with pytest.raises(InputError, match="shell index"):
        lv.parse_radial_text(text)


def test_radial_parse_names_the_missing_shell_past_2_63():
    """A horizon past 2^63 made len() of its shell range overflow: an
    OverflowError traceback where a missing shell is an input error."""
    with pytest.raises(InputError, match="^missing shell weight for layer 3$"):
        lv.parse_radial_text("radial N=3 horizon=9999999999999999999999999999992\n"
                             "0 1\n1 2\n2 3\n")


def test_radial_parse_accepts_each_shell_once():
    one = lv.parse_radial_text("radial N=3 horizon=2\n2 3\n0 1\n1 2\n")
    assert [one.weight(n) for n in range(3)] == [1, 2, 3]
    two = lv.parse_radial_text(
        "radial N=3 horizon=2 two-sided\narm +\n0 1\n1 2\narm -\n-1 3\n-2 4\n")
    assert [two.weight(n) for n in range(-2, 2)] == [4, 3, 1, 2]


def _harnack_verdicts(tree, u, ball, layers, p0):
    radial = tree.harnack_check(u, p0)
    graph = lv.harnack_check(ball, lv.induced_graph_function(u, layers), p0)
    assert radial.worst_ratio == graph.worst_ratio
    return radial.holds, graph.holds


@pytest.mark.parametrize("two_sided", [False, True])
def test_harnack_radial_and_ball_agree_at_the_boundary(two_sided):
    rng = random.Random(11)
    if two_sided:
        tree = random_two_sided(rng, arm=3)
        u = random_radial_function(rng, -3, 3)
        ball, layers = tree.materialize(3)
    else:
        tree = random_one_sided(rng, horizon=4)
        u = random_radial_function(rng, 0, 4)
        ball, layers = tree.materialize(4)
    worst = tree.harnack_check(u, 1).worst_ratio
    assert worst > 1
    # at the worst ratio, just above it, just below it inside the 1e-30
    # tolerance, and just below it outside the tolerance
    cases = [(worst, True), (worst * (1 + mp.mpf("1e-20")), True),
             (worst * (1 - mp.mpf("1e-32")), True), (worst * (1 - mp.mpf("1e-20")), False)]
    for p0, expected in cases:
        assert _harnack_verdicts(tree, u, ball, layers, p0) == (expected, expected)


@pytest.mark.parametrize("two_sided", [False, True])
def test_harnack_radial_rejects_p0_below_one(two_sided):
    rng = random.Random(12)
    tree = random_two_sided(rng, arm=3) if two_sided else random_one_sided(rng, horizon=4)
    u = random_radial_function(rng, tree.layer_lo, tree.layer_hi)
    with pytest.raises(InputError, match="p0"):
        tree.harnack_check(u, mp.mpf("0.999"))
    assert tree.harnack_check(u, 1).p0 == 1


@settings(max_examples=150, deadline=None)
@given(bits=st.sampled_from([53, 128, 256]),
       kind=st.sampled_from(["one-sided", "two-sided", "graph"]),
       raw=st.lists(st.tuples(st.integers(1, 1 << 300), st.integers(-3000, 3000)),
                    min_size=2, max_size=12))
def test_the_writers_default_digits_read_back_every_weight(bits, kind, raw):
    """At 30 digits, `parse_radial_text(format_radial_text(tree))` changed
    all 152 weights of the 128-bit regime-I build at horizon 150.  The
    default is now mpmath's repr digits at the working precision, so every
    weight, down to 2^-3000 and up to 2^3300, reads back bit for bit."""
    with mp.workprec(bits):
        w = [mp.ldexp(mp.mpf(m), e) for m, e in raw]
        k = len(w) // 2
        if kind == "one-sided":
            tree = lv.parse_radial_text(lv.format_radial_text(lv.RadialTree(3, w)))
            back = [tree.weight(n) for n in range(len(w))]
        elif kind == "two-sided":
            tree = lv.TwoSidedRadialTree(3, w[:k], w[k:2 * k])
            w = w[k:2 * k][::-1] + w[:k]
            tree = lv.parse_radial_text(lv.format_radial_text(tree))
            back = [tree.weight(n) for n in range(-k, k)]
        else:
            g = lv.WeightedGraph(len(w) + 1, [(i, i + 1, x) for i, x in enumerate(w)])
            back = [x for _, x in lv.parse_graph_text(lv.format_graph_text(g)).edges()]
        assert [(x._mpf_, repr(x)) for x in back] == [(x._mpf_, repr(x)) for x in w]
