"""Tests of the benchmark itself: the smoke pass, and each check rejecting
a wrong output.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

liouville = run.load_package()
import oracle  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(autouse=True)
def _working_precision():
    with liouville.precision(wl.WORKING_BITS):
        yield


@pytest.fixture(scope="module")
def certify_ops(tmp_path_factory):
    with liouville.precision(wl.WORKING_BITS):
        return {op.kind: op for op in wl.make("certify", 1, tmp_path_factory.mktemp("c"))}


@pytest.fixture(scope="module")
def recheck_ops(tmp_path_factory):
    with liouville.precision(wl.WORKING_BITS):
        return {op.kind: op for op in wl.make("recheck", 1, tmp_path_factory.mktemp("r"))}


@pytest.fixture(scope="module")
def nonexistence_ops(tmp_path_factory):
    with liouville.precision(wl.WORKING_BITS):
        return {op.kind: op
                for op in wl.make("nonexistence", 1, tmp_path_factory.mktemp("n"))}


def _edit(output, **changes):
    code, text = output
    rep = json.loads(text)
    rep.update(changes)
    return code, json.dumps(rep)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_sends_every_kind_through_its_check(workload, capsys):
    assert run.main(["--smoke", "--workload", workload]) == 0
    out = capsys.readouterr().out
    assert "smoke: ok" in out
    assert "FAILED" not in out


def test_known_fault_is_the_only_failure(certify_ops, recheck_ops):
    for ops in (certify_ops, recheck_ops):
        for op in ops.values():
            problems = op.check(op.run())
            assert bool(problems) == bool(op.known_fault), (op.kind, problems)


# certify ------------------------------------------------------------------


def test_construct_check_rejects_flipped_margin(certify_ops):
    op = certify_ops["construct I"]
    out = op.run()
    assert op.check(out) == []
    margin = json.loads(out[1])["max_margin"]
    assert op.check(_edit(out, max_margin=margin.lstrip("-")))


def test_construct_check_rejects_inverted_verdict(certify_ops):
    op = certify_ops["construct V1"]
    out = op.run()
    assert op.check(_edit(out, verified=False))
    assert op.check((1, out[1]))


def test_construct_check_rejects_wrong_worst_layer(certify_ops):
    op = certify_ops["construct IV"]
    out = op.run()
    worst = json.loads(out[1])["worst_layer"]
    assert op.check(_edit(out, worst_layer=worst - 1))


def test_construct_check_rejects_failed_tail(certify_ops):
    op = certify_ops["construct II"]
    out = op.run()
    rep = json.loads(out[1])
    rep["tail"]["ok"] = False
    assert op.check((0, json.dumps(rep)))


def test_closed_form_matches_the_package_build():
    spec = liouville.calibrate("I", liouville.pq(2, 1), N=3, horizon=40,
                               eps=Fraction(1, 10))
    built = liouville.build(spec)
    cf = oracle.ClosedForm({"regime": "I", "p": "2", "q": "1", "N": 3, "eps": "1/10",
                            "n0": spec.n0, "delta": mp.nstr(spec.delta, 40)})
    for n in (0, 1, 17, 40):
        assert oracle.rel_diff(cf.u(n), built.u.value(n)) < mp.mpf("1e-30")
        m, _ = oracle.closed_form_margin(cf, n)
        ref = liouville.margin_at(built.tree, built.u, spec.p, spec.q, n)
        assert oracle.rel_diff(m, ref) < mp.mpf("1e-20")


# recheck ------------------------------------------------------------------


def test_verify_check_rejects_inverted_verdict(recheck_ops):
    op = recheck_ops["verify I"]
    out = op.run()
    assert op.check(out) == []
    assert op.check(_edit((1, out[1]), verified=False))


def test_verify_check_rejects_perturbed_margin(recheck_ops):
    op = recheck_ops["verify IV"]
    out = op.run()
    margin = mp.mpf(json.loads(out[1])["max_margin"])
    assert op.check(_edit(out, max_margin=mp.nstr(margin * (1 + mp.mpf("1e-18")), 30)))


def test_negative_control_check_rejects_a_pass(recheck_ops):
    op = recheck_ops["verify II negative"]
    out = op.run()
    assert op.check(out) == []
    assert op.check(_edit((0, out[1]), verified=True))
    assert op.check(_edit(out, max_margin="-1e-10"))


def test_ball_check_rejects_interior_worst_vertex_and_flipped_margin(recheck_ops):
    op = recheck_ops["verify ball I"]
    out = op.run()
    assert op.check(out) == []
    assert op.check(_edit(out, worst_layer=0))
    margin = json.loads(out[1])["max_margin"]
    assert op.check(_edit(out, max_margin="-" + margin))


# nonexistence -------------------------------------------------------------


def test_estimate_check_rejects_inverted_verdict(nonexistence_ops):
    op = nonexistence_ops["estimate radial I"]
    reports = op.run()
    assert op.check(reports) == []
    bad = [dataclasses.replace(reports[0], holds=False)] + reports[1:]
    assert op.check(bad)
    swapped = dataclasses.replace(reports[1], lhs=reports[1].rhs * 2)
    assert op.check([reports[0], swapped])


def test_parity_check_rejects_a_1e20_perturbation(nonexistence_ops):
    op = nonexistence_ops["estimate ball I"]
    rep = op.run()
    assert op.check(rep) == []
    for name in ("lhs", "edge_sum", "rhs"):
        moved = getattr(rep, name) * (1 + mp.mpf("1e-20"))
        assert op.check(dataclasses.replace(rep, **{name: moved}))


def test_radial_walk_check_rejects_a_rise_and_a_failed_family(nonexistence_ops):
    op = nonexistence_ops["radial walk IV"]
    walk, diag = op.run()
    assert op.check((walk, diag)) == []
    steps = list(walk.steps)
    steps[5] = dataclasses.replace(steps[5], u=steps[4].u * 2)
    assert op.check((dataclasses.replace(walk, steps=tuple(steps)), diag))
    bad = dataclasses.replace(diag, sandwich=dataclasses.replace(diag.sandwich, holds=False))
    assert op.check((walk, bad))


def test_bound_check_rejects_inverted_verdict(nonexistence_ops):
    op = nonexistence_ops["pointwise bound V1"]
    rep = op.run()
    assert op.check(rep) == []
    assert op.check(dataclasses.replace(rep, holds=False))


def test_graph_walk_check_rejects_averaging_violation(nonexistence_ops):
    op = nonexistence_ops["graph walk I"]
    walk, bound = op.run()
    assert op.check((walk, bound)) == []
    steps = list(walk.steps)
    steps[0] = dataclasses.replace(steps[0], lap=-2 * steps[0].grad)
    assert op.check((dataclasses.replace(walk, steps=tuple(steps)), bound))
    assert op.check((walk, dataclasses.replace(bound, hypothesis_failures=())))


def test_band_checks_reject_wide_band_narrow_wrong_band_and_bad_sum(nonexistence_ops):
    op = nonexistence_ops["volume band I"]
    band, nw = op.run()
    assert op.check((band, nw)) == []
    wide = dataclasses.replace(band, ratio_max=band.ratio_min * 5)
    assert op.check((wide, nw))
    assert op.check((band, nw * (1 + mp.mpf("1e-8"))))
    wrong = nonexistence_ops["volume band I n^2"]
    wrong_band = wrong.run()
    assert wrong.check(wrong_band) == []
    assert wrong.check(dataclasses.replace(wrong_band, ratio_max=wrong_band.ratio_min * 50))


def test_fingerprint_tells_outputs_apart(nonexistence_ops):
    op = nonexistence_ops["pointwise bound IV"]
    a, b = op.run(), op.run()
    assert run.fingerprint(a) == run.fingerprint(b)
    moved = dataclasses.replace(a, max_margin=a.max_margin * (1 + mp.mpf("1e-35")))
    assert run.fingerprint(moved) != run.fingerprint(a)


def test_scaled_call_reports_time_at_reference_speed(monkeypatch):
    slow = 2 * run.PROBE_S              # probes say the machine runs at half speed
    monkeypatch.setattr(run, "probe", lambda: slow)
    out, wall, scaled, after = run.scaled_call(lambda: sum(range(10 ** 5)), slow)
    assert out == sum(range(10 ** 5)) and after == slow
    assert scaled == pytest.approx(wall / 2)
