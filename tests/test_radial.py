import random

import mpmath as mp
import pytest

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
