import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liouville as lv
from liouville.errors import InputError
from liouville.regions import G_LABELS, K_LABELS, ON_LINE


# Labelled by hand from the paper's definitions, not from the package's
# own inequalities: every G boundary (q = 2; q = 1 with p < 0, p = 0 and
# p > 0; p = 0 for 1 < q < 2; p + q = 1 with q > 0, q = 0 and q < 0) and a
# point inside each region.
@pytest.mark.parametrize("p,q,label", [
    (2, 1, "G1"),
    (1, 0, "G6"),
    (0, 2, "G2"),
    (-1, F(3, 2), "G3"),
    (-2, 1, "G4"),
    (F(1, 2), F(1, 2), "G5"),
    (0, 1, "G5"),          # p+q=1, p>=0, q>0
    (3, -2, "G5"),         # p+q=1, q<0
    (-5, 0, "G6"),
    (0, F(3, 2), "G1"),    # boundary p=0
    (-3, 2, "G2"),         # q=2, p<0
    (1, 1, "G1"),          # q=1, p>0
    (-1, 1, "G4"),         # q=1, p<0
    (2, -1, "G5"),         # p+q=1, q<0
    (2, F(1, 2), "G1"),
    (-1, F(6, 5), "G3"),
    (2, F(3, 2), "G1"),
])
def test_classify_g_examples(p, q, label):
    assert lv.classify_g(lv.pq(p, q)) == label


@pytest.mark.parametrize("p,q,label", [
    (2, F(3, 2), "K3"),
    (F(1, 2), F(1, 2), ON_LINE),
    (-1, F(6, 5), "K4"),
    (-2, 0, "K1"),
    (2, F(1, 2), "K2"),
    (0, 2, "K3"),          # q=2, p > 1-q
    (-3, 2, "K4"),         # q=2, 1 < q < 1-p
    (0, F(3, 2), "K3"),
    (-1, F(3, 2), "K4"),
    (1, 1, "K2"),          # q=1, p>0
    (-1, 1, "K1"),         # q=1, p<0
    (0, 1, ON_LINE),
    (1, 0, ON_LINE),
    (2, -1, ON_LINE),
    (3, -2, ON_LINE),
    (-5, 0, "K1"),
])
def test_classify_k_examples(p, q, label):
    assert lv.classify_k(lv.pq(p, q)) == label


def test_floats_rejected():
    with pytest.raises(InputError):
        lv.pq(0.5, 1)


def test_choose_st_k3_interval():
    sel = lv.choose_st(lv.pq(2, F(3, 2)))
    assert sel.k_region == "K3"
    assert (sel.t_lo, sel.t_hi) == (F(0), F(1))
    assert sel.t_default == F(1, 2)


def test_choose_st_k2_interval():
    sel = lv.choose_st(lv.pq(F(1, 2), F(51, 100)))
    assert sel.k_region == "K2"
    assert (sel.t_lo, sel.t_hi) == (F(0), F(1))


def test_choose_st_k4_interval():
    sel = lv.choose_st(lv.pq(-1, F(6, 5)))
    assert sel.k_region == "K4"
    assert (sel.t_lo, sel.t_hi) == (F(1), F(5))
    assert sel.t_default == F(3)


def test_choose_st_k3_negative_p_lower_endpoint():
    sel = lv.choose_st(lv.pq(F(-1, 2), 2))
    assert sel.t_lo == F(1, 2)  # -p/(q-1)
    assert sel.t_hi == F(1)


def test_choose_st_k1_half_line():
    sel = lv.choose_st(lv.pq(-2, 0))
    assert sel.k_region == "K1"
    assert sel.t_lo == F(1) and sel.t_hi is None
    assert sel.t_default == F(2)


def test_choose_st_on_line_rejected():
    with pytest.raises(InputError):
        lv.choose_st(lv.pq(F(1, 2), F(1, 2)))


def test_st_selection_satisfies_condition():
    for p, q in [(2, 1), (2, F(3, 2)), (-1, F(6, 5)), (-2, 0), (0, 3), (5, -1)]:
        sel = lv.choose_st(lv.pq(p, q))
        assert lv.st_condition(lv.pq(p, q), sel.s_default, sel.t_default)
        assert sel.contains_t(sel.t_default)
        assert sel.s_default > sel.s_min


def test_exponents_family_I():
    ex = lv.exponents(lv.pq(2, 1), "I")
    assert (ex.sigma, ex.beta, ex.lam) == (F(1, 2), F(1, 2), F(3, 2))


def test_exponents_unit_denominator():
    ex = lv.exponents(lv.pq(0, 2), "I")
    assert (ex.sigma, ex.beta, ex.lam) == (F(0), F(1), F(1))


def test_exponents_family_III():
    ex = lv.exponents(lv.pq(-1, F(3, 2)), "III")
    assert (ex.sigma, ex.beta) == (F(1), F(2))


def test_exponents_degenerate_rejected():
    with pytest.raises(InputError):
        lv.exponents(lv.pq(F(1, 2), F(1, 2)), "I")
    with pytest.raises(InputError):
        lv.exponents(lv.pq(0, 1), "III")


def _random_point(rng):
    return lv.pq(F(rng.randint(-400, 400), rng.randint(1, 40)),
                 F(rng.randint(-400, 400), rng.randint(1, 40)))


def test_partition_random_sample():
    rng = random.Random(8123)
    for _ in range(4000):
        pt = _random_point(rng)
        label = lv.classify_g(pt)
        assert sum(lv.in_g_region(lbl, pt) for lbl in G_LABELS) == 1
        assert lv.in_g_region(label, pt)
        k = lv.classify_k(pt)
        if pt.p + pt.q == 1:
            assert k == ON_LINE
        else:
            assert k in K_LABELS
            assert lv.in_k_region(k, pt)


def test_boundary_points_classified():
    # measure-zero boundaries must land somewhere definite
    cases = [(0, 2, "G2"), (-3, 2, "G2"), (1, 1, "G1"), (0, 1, "G5"),
             (-1, 1, "G4"), (1, 0, "G6"), (F(1, 2), F(1, 2), "G5"), (2, -1, "G5")]
    for p, q, want in cases:
        assert lv.classify_g(lv.pq(p, q)) == want


def test_g1_inside_k2_union_k3():
    rng = random.Random(99)
    found = 0
    for _ in range(20000):
        pt = _random_point(rng)
        if lv.classify_g(pt) == "G1" and pt.p + pt.q != 1:
            found += 1
            assert lv.classify_k(pt) in ("K2", "K3")
    assert found > 500


@given(st.integers(-60, 60), st.integers(1, 12), st.integers(-60, 60), st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_st_condition_holds_at_default(pn, pd, qn, qd):
    pt = lv.pq(F(pn, pd), F(qn, qd))
    if pt.p + pt.q == 1:
        return
    sel = lv.choose_st(pt)
    assert lv.st_condition(pt, sel.s_default, sel.t_default)
