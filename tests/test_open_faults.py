"""The program's known faults, each stated as the behaviour it should have.

Each test names the FOUND line of CHANGES.md (by its line number) that it
tracks.  A fault still open is a strict xfail: the test asserts the right
behaviour against an independent oracle and fails today for the stated
reason, so a mend turns it into an XPASS, which fails the suite, and the
mending change removes the marker.  A mended fault's test passes.
"""

from fractions import Fraction as F

import mpmath as mp
import pytest

import liouville as lv
from liouville import counterexamples as cx

III = lv.pq(-1, F(3, 2))        # the bench's III configuration, eps 1/10, N = 3


def rel_diff(x, y):
    return abs(x - y) / abs(y)


def rebuilt_at(bits, spec):
    """verify() of the spec built afresh at the given precision."""
    with lv.precision(bits):
        return lv.verify(lv.build(spec))


@pytest.fixture(scope="module")
def bench_iii():
    """The certificate `construct III` prints at the bench's horizon, and its
    512-bit rebuild."""
    with lv.precision(128):
        cert = lv.certify("III", III, N=3, horizon=125, eps=F(1, 10))
    return cert, rebuilt_at(512, cert.spec)


@pytest.mark.parametrize("horizon", [70, 125, 700, 1000])
def test_iii_search_builds_and_verifies_its_first_candidate(monkeypatch, horizon):
    """FOUND 65 (mended): at 128 bits III's first screened candidate,
    n0 = 2^26, failed verify on the rounding of a stored u = 1 + v (+2.826e-39
    at layer 116 at every one of these horizons), so the search built,
    verified and tail-checked 2^27 too.  With u stored as deviations it
    verifies, to 1e-15 of a 512-bit rebuild, and is the only build."""
    builds = []
    build = cx.build

    def counted(spec, **kwargs):
        builds.append(spec.n0)
        return build(spec, **kwargs)

    monkeypatch.setattr(cx, "build", counted)
    with lv.precision(128):
        cert = lv.certify("III", III, N=3, horizon=horizon, eps=F(1, 10))
    assert builds == [2 ** 26] and cert.ok
    wide = rebuilt_at(512, cert.spec)
    assert wide.verified and wide.worst_layer == cert.report.worst_layer == 1
    assert rel_diff(cert.report.max_margin, wide.max_margin) < mp.mpf("1e-15")


def test_construct_iii_margin_agrees_with_512_bits_to_15_digits(bench_iii):
    """FOUND 2 (mended to 15 digits): `construct III` reported -1.099e-37 at
    layer 125, 4.2e-2 off a 512-bit rebuild.  Its margin now agrees to 1e-15."""
    cert, wide = bench_iii
    assert cert.report.worst_layer == wide.worst_layer == 1
    assert rel_diff(cert.report.max_margin, wide.max_margin) < mp.mpf("1e-15")


@pytest.mark.xfail(strict=True, reason=(
    "FOUND 2 and 100, ROADMAP direction 1: 128-bit deviations agree to 6.2e-18 at n0 = 2^26. "
    "|lap| at layer 1 is 6.5e-41, 3e-6 of v/m^2, so the one rounding of each stored "
    "v = delta/g is amplified past the bench's AGREE of 1e-20"))
def test_construct_iii_margin_agrees_with_512_bits_to_the_bench_tolerance(bench_iii):
    cert, wide = bench_iii
    assert rel_diff(cert.report.max_margin, wide.max_margin) < mp.mpf("1e-20")


@pytest.mark.xfail(strict=True, reason=(
    "FOUND 3, ROADMAP direction 3: construct's volume band compares the n0-shifted "
    "build with the unshifted law, so the spread grows with the horizon: from 1000 "
    "to 3000 it grows 5.4-fold for I and 12.3-fold for III"))
@pytest.mark.parametrize("regime, point", [("I", lv.pq(2, 1)), ("III", III)], ids=["I", "III"])
def test_volume_band_spread_settles_as_the_horizon_grows(regime, point):
    spreads = []
    with lv.precision(128):
        for horizon in (1000, 3000):
            cert = lv.certify(regime, point, N=3, horizon=horizon, eps=F(1, 10))
            spreads.append(lv.volume_band(cert.built, lv.volume_target(cert.spec), 16,
                                          horizon).spread)
    assert spreads[1] <= 2 * spreads[0], [mp.nstr(s, 6) for s in spreads]
