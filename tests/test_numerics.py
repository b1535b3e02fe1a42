import ast
import re
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, mpf_add, mpf_mul_int, round_nearest

import liouville as lv
from liouville.numerics import (PRECISION_ENV_VAR, all_finite, all_positive,
                                default_precision_bits, memo, mpf_str, nearest_sum,
                                quotient_cmp, raw_positive)


def test_default_precision_at_least_100_bits():
    assert default_precision_bits() >= 100
    with lv.precision():
        assert mp.mp.prec >= 100


def test_precision_env_override(monkeypatch):
    monkeypatch.setenv(PRECISION_ENV_VAR, "160")
    assert default_precision_bits() == 160
    with lv.precision():
        assert mp.mp.prec == 160


def test_precision_env_rejects_garbage(monkeypatch):
    monkeypatch.setenv(PRECISION_ENV_VAR, "many")
    with pytest.raises(ValueError):
        default_precision_bits()
    monkeypatch.setenv(PRECISION_ENV_VAR, "16")
    with pytest.raises(ValueError):
        default_precision_bits()


def test_to_mpf_fraction_exact():
    with lv.precision(64):
        x = lv.to_mpf(F(1, 3))
        assert abs(x - mp.mpf(1) / 3) == 0


RAW_CASES = ["0", "-0", "1", "-1", "1e-999999", "-1e-999999", "1e999999", "inf", "-inf",
             "nan"]


@pytest.mark.parametrize("text", RAW_CASES)
def test_raw_value_checks_match_mpf_comparisons(text):
    x = mp.mpf(text)
    assert all_finite([x]) == bool(mp.isfinite(x))
    assert all_positive([x]) == (0 < x < mp.inf)
    one, two = mp.mpf(1), mp.mpf(2)
    assert all_finite([one, x, two]) == all_finite([x])
    assert all_positive([one, x, two]) == all_positive([x])


def test_to_mpf_reads_strings_with_parse_decimal():
    with lv.precision(64):
        assert lv.to_mpf("0.1")._mpf_ == mp.mpf("0.1")._mpf_
        with pytest.raises(ValueError):
            lv.to_mpf("1/0")


def test_check_nonpositive_margins():
    chk = lv.check_nonpositive(mp.mpf("-1e-5"), 1)
    assert chk.holds and chk.margin == mp.mpf("-1e-5")
    chk = lv.check_nonpositive(mp.mpf("1e-5"), 1)
    assert not chk.holds
    # within tolerance of the scale counts as holding
    chk = lv.check_nonpositive(mp.mpf("1e-40"), 1)
    assert chk.holds and chk.borderline


def test_check_le():
    assert lv.check_le(1, 2).holds
    assert not lv.check_le(2, 1).holds
    assert lv.check_le(1, 1).holds


def test_mpf_str_deterministic():
    with lv.precision():
        a = mpf_str(mp.mpf(2) / 3)
        b = mpf_str(mp.mpf(2) / 3)
    assert a == b
    assert mpf_str(mp.inf) == "inf"


# ---------------------------------------------------------------------------
# the integer kernels against mpmath and Fraction

KERNEL_PRECS = [53, 128, 256, 512]


@st.composite
def sum_cases(draw):
    """(prec, a, b, shift): positive raw a and b, normalized, at 1 to 2 prec +
    10 bits, with b's exponent near a's, near mpf_add's sticky-bit rule,
    2^20 bits or more away, or half a's last unit (a tie); shift unnormalizes
    a's mantissa."""
    prec = draw(st.sampled_from(KERNEL_PRECS))
    widths = st.sampled_from([1, 8, prec, prec + 1, 2 * prec + 10])
    m = draw(st.integers(1, 2 ** draw(widths) - 1))
    e = draw(st.integers(-2 ** 40, 2 ** 40))
    n = draw(st.integers(1, 2 ** draw(widths) - 1))
    kind = draw(st.sampled_from(["near", "rule", "far", "tie"]))
    if kind == "tie":           # a of prec bits, plus half its last unit
        m, n, f = m % (1 << prec - 1) | 1 << prec - 1, 1, e - 1
    elif kind == "near":
        f = e + draw(st.integers(-prec - 8, prec + 8))
    elif kind == "rule":        # top bits prec + 4 apart, give or take 2
        f = e + m.bit_length() - n.bit_length() + draw(st.integers(-prec - 6, -prec - 2))
    else:
        f = e + draw(st.sampled_from([-1, 1])) * draw(st.integers(2 ** 20, 2 ** 21))
    a, b = from_man_exp(m, e), from_man_exp(n, f)
    if draw(st.booleans()):
        a, b = b, a
    return prec, a, b, draw(st.integers(0, 3))


def WIDE_SUM(k, gap):
    """A 253-bit term whose bits below the top 53 are half a unit less 2^k,
    its lowest set bit, plus 2^k + 2^(k - gap): the exact sum rounds up.
    mpf_add keeps the smaller term as a sticky bit, and rounds down, where
    gap > 100 and the top bits lie more than 57 apart (k < 195)."""
    return (53, from_man_exp(((1 << 52) + 5 << 200) + (1 << 199) - (1 << k), 0),
            from_man_exp((1 << k) + (1 << k - gap), 0), 0)


@settings(max_examples=600, deadline=None)
@given(sum_cases(), st.sampled_from([2, 3, 4, 5, 7]) | st.integers(2, 2 ** 70))
@example((53, from_man_exp((1 << 52) + 1, 0), from_man_exp(1, -1), 0), 3)      # ties
@example((53, from_man_exp((1 << 53) - 1, 0), from_man_exp(1, -1), 2), 3)
@example((128, from_man_exp((1 << 127) + 3, 5), from_man_exp(1, 4), 1), 3)
@example(WIDE_SUM(150, 100), 2)
@example(WIDE_SUM(150, 101), 2)
@example(WIDE_SUM(195, 120), 2)
@example(WIDE_SUM(194, 120), 2)
def test_nearest_sum_is_mpf_add_and_mpf_mul_int(case, N):
    prec, a, b, shift = case
    _, m, e, _ = a
    _, n, f, _ = b
    assert raw_positive(*nearest_sum(m << shift, e - shift, prec, n, f)) == \
        mpf_add(a, b, prec, round_nearest)
    assert raw_positive(*nearest_sum(N * m << shift, e - shift, prec)) == \
        mpf_mul_int(a, N, prec, round_nearest)


def exact_value(x):
    return F(x[1]) * F(2) ** x[2]


@st.composite
def quotient_cases(draw):
    """Four positive raw mpfs at prec bits: c/d any, equal to a/b (a and b
    scaled alike), or a/b with a moved by one unit of its last of prec bits."""
    prec = draw(st.sampled_from(KERNEL_PRECS))

    def raw():
        return from_man_exp(draw(st.integers(1, 2 ** prec - 1)), draw(st.integers(-3000, 3000)))

    a, b = raw(), raw()
    kind = draw(st.sampled_from(["any", "equal", "ulp"]))
    if kind == "any":
        c, d = raw(), raw()
    elif kind == "equal":
        k, s = draw(st.integers(1, 2 ** prec)), draw(st.integers(-200, 200))
        c, d = from_man_exp(a[1] * k, a[2] + s), from_man_exp(b[1] * k, b[2] + s)
    else:
        shift = prec - a[3]
        c = from_man_exp((a[1] << shift) + draw(st.sampled_from([-1, 1])), a[2] - shift)
        d = b
    return a, b, c, d


@settings(max_examples=600, deadline=None)
@given(quotient_cases())
def test_quotient_cmp_is_the_fraction_comparison(case):
    a, b, c, d = case
    p, q = exact_value(a) / exact_value(b), exact_value(c) / exact_value(d)
    assert quotient_cmp(a, b, c, d) == (p > q) - (p < q)
    assert quotient_cmp(c, d, a, b) == (q > p) - (q < p)


def test_memo_run_makes_every_missing_key_in_one_run():
    """A table hands its fn all the keys it lacks, in order, as one run,
    and keeps each value for the next read."""
    runs = []

    class Squares:
        def __call__(self, k):
            return k * k

        def run(self, ks):
            runs.append(list(ks))
            return [k * k for k in ks]

    table = memo(Squares())
    assert table(3) == 9 and table(6) == 36
    assert table.run(range(10)) == [k * k for k in range(10)]
    assert runs == [[0, 1, 2, 4, 5, 7, 8, 9]]
    assert table.run(range(2, 8)) == [k * k for k in range(2, 8)]
    assert runs == [[0, 1, 2, 4, 5, 7, 8, 9]]


def test_mpmath_is_the_version_the_pins_were_recorded_with():
    """pyproject.toml states the mpmath range; the digest pins and the run
    kernels reproduce mpmath 1.3's exact bits, not correctly rounded ones,
    so another version fails here once rather than in every digest test."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    lo, hi = re.search(r'"mpmath>=([0-9.]+),<([0-9.]+)"', text).groups()
    version = tuple(int(x) for x in re.findall(r"[0-9]+", mp.__version__)[:3])
    lo, hi = (tuple(map(int, bound.split("."))) for bound in (lo, hi))
    assert lo <= version < hi, (
        f"mpmath {mp.__version__} is outside >={lo},<{hi}: the digest pins and the run "
        "kernels reproduce mpmath 1.3's exact bits")


def libelefun_imports(tree):
    """The lines of tree that import from mpmath's elementary-function module
    `mpmath.libmp.libelefun`, or import the module itself."""
    inner = "mpmath.libmp.libelefun"
    return sorted(node.lineno for node in ast.walk(tree) if
                  isinstance(node, ast.ImportFrom) and (
                      (node.module or "").startswith(inner)
                      or node.module == "mpmath.libmp"
                      and any(a.name == "libelefun" for a in node.names))
                  or isinstance(node, ast.Import)
                  and any(a.name.startswith(inner) for a in node.names))


def test_only_numerics_reaches_into_libelefun():
    """mpmath's fixed-point internals (ln2_fixed, log_taylor_cached,
    exp_basecase, ...) are one seam: numerics.py imports them, and every
    other module reaches them through its kernels."""
    package = Path(lv.__file__).parent
    found = [path.name for path in sorted(package.glob("*.py"))
             if libelefun_imports(ast.parse(path.read_text()))]
    assert found == ["numerics.py"]
    source = ("from mpmath.libmp.libelefun import ln2_fixed\n"
              "import mpmath.libmp.libelefun as le\n"
              "from mpmath.libmp import libelefun, mpf_exp\n"
              "from mpmath.libmp import mpf_log\n"
              "try:\n    from mpmath.libmp.libelefun import exp_basecase\n"
              "except ImportError:\n    pass\n")
    assert libelefun_imports(ast.parse(source)) == [1, 2, 3, 6]
