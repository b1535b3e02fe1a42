from fractions import Fraction as F

import mpmath as mp
import pytest

import liouville as lv
from liouville.numerics import (PRECISION_ENV_VAR, all_finite, all_positive,
                                default_precision_bits, mpf_str)


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
