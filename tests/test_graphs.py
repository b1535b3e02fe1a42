import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liouville as lv
from liouville.errors import InputError, IsolatedVertexError


def path3():
    return lv.WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])


def test_vertex_measure_path():
    g = path3()
    assert lv.vertex_measure(g, 1) == 2


def test_vertex_measure_half_weight_edge():
    g = lv.WeightedGraph(2, [(0, 1, "0.5")])
    assert lv.vertex_measure(g, 0) == mp.mpf("0.5")


def test_vertex_measure_t3_root():
    tree = lv.RadialTree(3, [2 ** n for n in range(4)])  # raw unit weights
    g, layers = tree.materialize(2)
    assert layers[0] == 0
    assert lv.vertex_measure(g, 0) == 3


def test_unknown_vertex_rejected():
    with pytest.raises(InputError):
        lv.vertex_measure(path3(), 7)


def test_isolated_vertex_rejected_at_construction():
    with pytest.raises(IsolatedVertexError):
        lv.WeightedGraph(3, [(0, 1, 1)])


@pytest.mark.parametrize("bad", [
    [(0, 0, 1)],                    # self loop
    [(0, 1, 1), (1, 0, 2)],         # duplicate under symmetry
    [(0, 1, 0)],                    # nonpositive weight
    [(0, 1, mp.inf)],               # infinite weight
    [(0, 1, mp.nan)],               # not a number
    [(0, 5, 1)],                    # unknown id
])
def test_bad_edges_rejected(bad):
    with pytest.raises(InputError):
        lv.WeightedGraph(2, bad)


def test_laplacian_constant_zero():
    g = path3()
    u = lv.GraphFunction.constant(g, 7)
    assert all(lv.laplacian(g, u, x) == 0 for x in g.vertices())


def test_laplacian_linear_on_path():
    g = path3()
    u = lv.GraphFunction([0, 1, 2])
    assert lv.laplacian(g, u, 1) == 0


def test_laplacian_radial_root():
    tree = lv.RadialTree(4, [1, 1, 1])
    u = lv.RadialFunction([1, "0.5", "0.25"])
    assert tree.laplacian_at(u, 0) == mp.mpf("-0.5")


def test_gradient_norm_path_center():
    g = path3()
    u = lv.GraphFunction([0, 1, 2])
    assert abs(lv.gradient_norm(g, u, 1) - mp.sqrt(mp.mpf(1) / 2)) < mp.mpf("1e-30")


def test_gradient_norm_radial_root():
    # at the root the gradient is |u0 - u1| / sqrt(2) whatever the weights
    tree = lv.RadialTree(5, ["0.37", "1.1", 2])
    u = lv.RadialFunction([1, "0.25", "0.2"])
    expected = mp.mpf("0.75") / mp.sqrt(2)
    assert abs(tree.gradient_at(u, 0) - expected) < mp.mpf("1e-30")


def test_restricted_gradient_full_set_matches():
    g = path3()
    u = lv.GraphFunction([0, 1, 2])
    full = lv.restricted_gradient_norm(g, u, 1, {0, 1, 2})
    assert full == lv.gradient_norm(g, u, 1)


def test_restricted_gradient_singleton_zero():
    g = path3()
    u = lv.GraphFunction([0, 1, 2])
    assert lv.restricted_gradient_norm(g, u, 1, {1}) == 0


def test_restricted_gradient_partial():
    g = path3()
    u = lv.GraphFunction([0, 1, 2])
    assert lv.restricted_gradient_norm(g, u, 1, {1, 2}) == mp.mpf("0.5")


def test_restricted_gradient_requires_membership():
    g = path3()
    u = lv.GraphFunction([0, 1, 2])
    with pytest.raises(InputError):
        lv.restricted_gradient_norm(g, u, 0, {1, 2})


def test_p0_single_edge():
    g = lv.WeightedGraph(2, [(0, 1, "2.5")])
    assert lv.p0_of(g) == 1


def test_p0_path_interior():
    assert lv.p0_of(path3()) == 2


def test_p0_homogeneous_tree():
    tree = lv.RadialTree(3, [2 ** n for n in range(6)])  # raw unit weights
    assert tree.p0() == 3
    g, _ = tree.materialize(5)
    assert lv.p0_of(g) == 3


def test_ball_volume_t3_unit_weights():
    tree = lv.RadialTree(3, [2 ** n for n in range(4)])
    assert tree.ball_volume(0) == 3
    assert tree.ball_volume(1) == 12


def test_nash_williams_harmonic():
    s = lv.nash_williams_partial(lambda n: mp.mpf(n) ** 2, 10 ** 4)
    assert abs(s - mp.mpf("9.7876060360443822642")) < mp.mpf("1e-15")


def test_nash_williams_convergent_vs_divergent():
    prof = lambda n: mp.mpf(n) ** 2 * mp.ln(n) ** mp.mpf("1.5")
    head = lv.nash_williams_partial(prof, 10 ** 3, n_min=2)
    tail = lv.nash_williams_partial(prof, 10 ** 5, n_min=10 ** 3 + 1)
    assert tail < head


def test_nash_williams_geometric_domination():
    s = lv.nash_williams_partial(lambda n: mp.e ** n, 200)
    assert s < 2


def test_nash_williams_rejects_nonpositive():
    with pytest.raises(InputError):
        lv.nash_williams_partial(lambda n: mp.mpf(n) - 1, 5)


def test_harnack_constant_holds():
    g = path3()
    rep = lv.harnack_check(g, lv.GraphFunction.constant(g, 3), 1)
    assert rep.holds and rep.worst_ratio == 1


def test_harnack_violation_reported():
    g = lv.WeightedGraph(2, [(0, 1, 1)])
    rep = lv.harnack_check(g, lv.GraphFunction([1, 3]), 2)
    assert not rep.holds
    assert rep.worst_ratio == 3
    assert rep.worst_edge == (0, 1)


def test_harnack_requires_positive():
    g = lv.WeightedGraph(2, [(0, 1, 1)])
    with pytest.raises(InputError):
        lv.harnack_check(g, lv.GraphFunction([0, 1]), 2)


def test_harnack_regime1_with_tree_p0(regime1_small):
    rep = regime1_small.tree.harnack_check(regime1_small.u, regime1_small.tree.p0())
    assert rep.holds


# ---------------------------------------------------------------------------
# Random-instance properties


def random_graph(rng, n_min=2, n_max=10):
    n = rng.randint(n_min, n_max)
    edges = [(i, rng.randrange(i), mp.mpf(rng.uniform(0.1, 4.0))) for i in range(1, n)]
    seen = {(min(x, y), max(x, y)) for x, y, _ in edges}
    for _ in range(rng.randint(0, n)):
        x, y = rng.randrange(n), rng.randrange(n)
        if x != y and (min(x, y), max(x, y)) not in seen:
            seen.add((min(x, y), max(x, y)))
            edges.append((x, y, mp.mpf(rng.uniform(0.1, 4.0))))
    return lv.WeightedGraph(n, edges)


def random_function(rng, g, positive=False):
    lo = 0.05 if positive else -5.0
    return lv.GraphFunction([mp.mpf(rng.uniform(lo, 5.0)) for _ in g.vertices()])


@given(st.integers(0, 10 ** 6), st.integers(-8, 8), st.integers(-8, 8))
@settings(max_examples=60, deadline=None)
def test_laplacian_linearity(seed, a, b):
    rng = random.Random(seed)
    g = random_graph(rng)
    u, v = random_function(rng, g), random_function(rng, g)
    combo = u.combine(a, v, b)
    for x in g.vertices():
        lhs = lv.laplacian(g, combo, x)
        rhs = a * lv.laplacian(g, u, x) + b * lv.laplacian(g, v, x)
        assert abs(lhs - rhs) <= mp.mpf("1e-30") * (1 + abs(rhs))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_laplacian_zero_mean_against_measure(seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    u = random_function(rng, g)
    total = mp.fsum(lv.vertex_measure(g, x) * lv.laplacian(g, u, x) for x in g.vertices())
    scale = mp.fsum(abs(lv.vertex_measure(g, x) * lv.laplacian(g, u, x))
                    for x in g.vertices())
    assert abs(total) <= mp.mpf("1e-30") * (1 + scale)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_gradient_norm_squares_bilinear_form(seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    u = random_function(rng, g)
    for x in g.vertices():
        gn = lv.gradient_norm(g, u, x)
        form = lv.gradient_form(g, u, u, x)
        assert abs(gn ** 2 - form) <= mp.mpf("1e-30") * (1 + abs(form))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_edge_difference_bound(seed):
    # |u(y) - u(x)| <= sqrt(2 p0) |grad u|(x) on every directed edge
    rng = random.Random(seed)
    g = random_graph(rng)
    u = random_function(rng, g)
    root = mp.sqrt(2 * lv.p0_of(g))
    for (x, y), _ in g.edges():
        for a, b in ((x, y), (y, x)):
            bound = root * lv.gradient_norm(g, u, a)
            assert abs(u[b] - u[a]) <= bound * (1 + mp.mpf("1e-30"))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_jensen_bound(seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    u = random_function(rng, g)
    for x in g.vertices():
        lap = abs(lv.laplacian(g, u, x))
        bound = mp.sqrt(2) * lv.gradient_norm(g, u, x)
        assert lap <= bound * (1 + mp.mpf("1e-30"))


def test_restricted_gradient_never_exceeds_full():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng)
        u = random_function(rng, g)
        omega = [x for x in g.vertices() if rng.random() < 0.6]
        for x in omega:
            assert lv.restricted_gradient_norm(g, u, x, omega) \
                <= lv.gradient_norm(g, u, x) * (1 + mp.mpf("1e-30"))


def test_graph_text_roundtrip():
    g = lv.WeightedGraph(4, [(0, 1, "1.25"), (1, 2, "0.5"), (2, 3, 2), (0, 3, "0.125")])
    g2 = lv.parse_graph_text(lv.format_graph_text(g))
    assert g2.n_vertices == 4
    assert [(e, w) for e, w in g2.edges()] == [(e, w) for e, w in g.edges()]


def test_graph_text_comments_and_errors():
    text = "# a path\ngraph v=2\n0 1 1.0\n"
    g = lv.parse_graph_text(text)
    assert g.n_vertices == 2
    with pytest.raises(InputError):
        lv.parse_graph_text("graph v=x\n")
    with pytest.raises(InputError):
        lv.parse_graph_text("0 1 1.0\n")
