import argparse
import ast
import csv
import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, repr_dps

import before_streams
import liouville as lv
from liouville import cli
from liouville import counterexamples as cx
from liouville.cli import build_parser, main


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    payload = json.loads(out) if out.strip().startswith("{") else None
    return code, payload


def test_classify_g6_point(capsys):
    code, payload = run_cli(capsys, "classify", "--p", "1", "--q", "0")
    assert code == 0
    assert payload["g"] == "G6"
    assert payload["schema"] == 1


def test_classify_emits_st_selection(capsys):
    code, payload = run_cli(capsys, "classify", "--p", "2", "--q", "3/2")
    assert code == 0
    assert payload["k"] == "K3"
    assert payload["t_range"] == {"lo": "0", "hi": "1"}
    assert payload["t_default"] == "1/2"


def test_classify_determinism(capsys):
    _, first = run_cli(capsys, "classify", "--p", "22/7", "--q", "-3")
    code = main(["classify", "--p", "22/7", "--q", "-3"])
    second = capsys.readouterr().out
    assert code == 0
    assert json.dumps(first, indent=2, sort_keys=True) == second.strip()


def test_classify_rejects_bad_rational(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--p", "sqrt2", "--q", "1"])
    assert exc.value.code == 2


# sha256 of `classify` stdout (all exit 0) on every G boundary: q = 2; q = 1
# with p < 0, p = 0 and p > 0; p = 0 for 1 < q < 2; p + q = 1 with q > 0,
# q = 0 and q < 0; and in each K region.  Recorded while the G and K labels
# were still decision trees written beside the regions' inequalities.
CLASSIFY_DIGESTS = {
    ("0", "2"): "c96cced7f416ae7c07608f4a33a088ba0f8e1c1bbd900ad9c879efc042bfaf81",
    ("-3", "2"): "c0493b026cbd7d9cc03f2d4424673aacd53afd3af4859e7e77c2d48f8ba693fc",
    ("0", "3/2"): "bb1d98737910b9897dfba79392913304b3d0c6c0a9383abc7c0b36fa988e443d",
    ("-1", "3/2"): "c08059cfa5306f3a75746bd523fb5a97a6af3b2d47ad0c1d393e5d0eacd9d386",
    ("1", "1"): "abbe608da6aa256e30899d57eba7b1597c3a12fc1b3c8e0effe9f99a1d16daf1",
    ("0", "1"): "ab0e7cbae884f95e2aaf72705bdf71e9bf94c1abb3fafa8a6e2a7869a878d22d",
    ("-1", "1"): "58b870f395c9abc75b6fd30d4b7793194c2f06aa98075edd00d1ccd3410f8beb",
    ("1", "0"): "12fd022e0492597b2a2bcc257bb1f55f469f2be415bcd25a272888235d48a41a",
    ("1/2", "1/2"): "b623486d544a104452a5561b9ecfe478d3938d3fe3c7c7c7f58c37353c9cecf3",
    ("2", "-1"): "e49bbc34ec835c6a4953114b8274cdcc4a654b64f75fd02c1bd94033d457d255",
    ("3", "-2"): "c313461af93a1fe16f51f41d0fd72ce8ccb816e0f702d1c50c73e07a92b1c56c",
    ("-5", "0"): "96af02f85aa70b5a92361c29c0813ae322597801397c5a6ea5f0ecb27707ad07",
    ("2", "1/2"): "e8aceffbffac400b5ba681f12381d3a40f3918ecb04237fd0771aa16c65c68fb",
    ("-1", "6/5"): "f86567a736688469e7aad20fb5b6d7981931fee203da8822a997188708c87f47",
    ("2", "3/2"): "6e4bad7bc6a3a880e8e3ec8f0584aef0665344769fe69a35aaeaffc489b2f620",
}


@pytest.mark.parametrize("p, q", list(CLASSIFY_DIGESTS), ids=" ".join)
def test_classify_report_digest(capsys, p, q):
    code = main(["classify", "--p", p, "--q", q])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, CLASSIFY_DIGESTS[p, q])


def test_construct_v1_verifies(capsys, tmp_path):
    csv_path = tmp_path / "layers.csv"
    code, payload = run_cli(capsys, "construct", "--regime", "V1", "--p", "1/2",
                            "--q", "1/2", "--N", "3", "--horizon", "120",
                            "--csv", str(csv_path))
    assert code == 0
    assert payload["verified"] is True
    assert payload["tail"]["ok"] is True
    header = csv_path.read_text().splitlines()[0]
    assert header == "layer,w,u,laplacian,grad,margin"


def test_construct_deliberate_miscalibration_fails(capsys):
    code, payload = run_cli(capsys, "construct", "--regime", "I", "--p", "2",
                            "--q", "1", "--eps", "1/10", "--N", "3",
                            "--horizon", "60", "--delta", "100")
    assert code == 1
    assert payload["verified"] is False
    assert mp.mpf(payload["max_margin"]) > 0


def test_construct_report_determinism(capsys):
    args = ["construct", "--regime", "IV", "--p", "-2", "--q", "1", "--lam", "1",
            "--N", "3", "--horizon", "80"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_roundtrip(capsys, tmp_path):
    spec = lv.calibrate("I", lv.pq(2, 1), N=3, horizon=40, eps=F(1, 10))
    built = lv.build(spec)
    tree_path = tmp_path / "tree.txt"
    u_path = tmp_path / "u.csv"
    tree_path.write_text(lv.format_radial_text(built.tree))
    rows = ["layer,value"] + [
        f"{n},{mp.nstr(built.u.value(n), 30)}" for n in range(built.u.lo, built.u.hi + 1)
    ]
    u_path.write_text("\n".join(rows) + "\n")
    code, payload = run_cli(capsys, "verify", "--graph", str(tree_path),
                            "--u", str(u_path), "--p", "2", "--q", "1")
    assert code == 0
    assert payload["verified"] is True


def test_verify_graph_failure_exit(capsys, tmp_path):
    g = lv.WeightedGraph(2, [(0, 1, 1)])
    (tmp_path / "g.txt").write_text(lv.format_graph_text(g))
    (tmp_path / "u.csv").write_text("0,1\n1,2\n")
    code, payload = run_cli(capsys, "verify", "--graph", str(tmp_path / "g.txt"),
                            "--u", str(tmp_path / "u.csv"), "--p", "2", "--q", "1")
    assert code == 1
    assert payload["verified"] is False


def test_estimate_cli_radial(capsys, tmp_path):
    spec = lv.calibrate("I", lv.pq(2, 1), N=3, horizon=40, eps=F(1, 10))
    built = lv.build(spec)
    tree_path = tmp_path / "tree.txt"
    u_path = tmp_path / "u.csv"
    tree_path.write_text(lv.format_radial_text(built.tree))
    rows = [f"{n},{mp.nstr(built.u.value(n), 30)}"
            for n in range(built.u.lo, built.u.hi + 1)]
    u_path.write_text("\n".join(rows) + "\n")
    code, payload = run_cli(capsys, "estimate", "--graph", str(tree_path),
                            "--u", str(u_path), "--phi", "phi:2", "--s", "13/4",
                            "--t", "1/2", "--p", "2", "--q", "1", "--p0", "3.2")
    assert code == 0
    assert payload["holds"] is True and payload["hypotheses_ok"] is True


def test_estimate_cli_hypothesis_exit(capsys, tmp_path):
    g = lv.WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
    (tmp_path / "g.txt").write_text(lv.format_graph_text(g))
    (tmp_path / "u.csv").write_text("0,1\n1,2\n2,4\n")  # not a solution
    code, payload = run_cli(capsys, "estimate", "--graph", str(tmp_path / "g.txt"),
                            "--u", str(tmp_path / "u.csv"), "--phi", "h:1",
                            "--s", "7", "--t", "1/2", "--p", "2", "--q", "1",
                            "--p0", "2")
    assert code == 3
    assert payload["hypotheses_ok"] is False


def test_volume_cli_band_and_offset(capsys):
    code, payload = run_cli(capsys, "volume", "--regime", "I", "--p", "2", "--q", "1",
                            "--eps", "1/10", "--N", "3", "--n-lo", "16",
                            "--n-hi", "256", "--nash-williams")
    assert code == 0
    assert mp.mpf(payload["spread"]) < 4
    assert mp.mpf(payload["nash_williams_partial"]) > 0
    code, payload = run_cli(capsys, "volume", "--regime", "I", "--p", "2", "--q", "1",
                            "--eps", "1/10", "--N", "3", "--n-lo", "16",
                            "--n-hi", "256", "--exponent-offset", "2")
    assert code == 0
    assert mp.mpf(payload["spread"]) > 100


def test_descend_cli(capsys, tmp_path):
    spec = lv.calibrate("IV", lv.pq(-2, 1), N=3, horizon=60, lam=F(1))
    built = lv.build(spec)
    tree_path = tmp_path / "tree.txt"
    u_path = tmp_path / "u.csv"
    csv_path = tmp_path / "walk.csv"
    tree_path.write_text(lv.format_radial_text(built.tree))
    rows = [f"{n},{mp.nstr(built.u.value(n), 30)}"
            for n in range(built.u.lo, built.u.hi + 1)]
    u_path.write_text("\n".join(rows) + "\n")
    code, payload = run_cli(capsys, "descend", "--graph", str(tree_path),
                            "--u", str(u_path), "--start", "0", "--steps", "50",
                            "--p", "-2", "--q", "1", "--p0", "4",
                            "--csv", str(csv_path))
    assert code == 0
    assert payload["n_sites"] == 51
    assert payload["strict_decrease"]["holds"] is True
    assert payload["sandwich"]["holds"] is True
    assert len(csv_path.read_text().splitlines()) == 52


def test_missing_file_is_usage_error(capsys):
    code = main(["verify", "--graph", "/nonexistent/tree.txt", "--u", "/nonexistent/u.csv",
                 "--p", "2", "--q", "1"])
    assert code == 2


# sha256 of `construct` stdout at the benchmark's certify horizons (N = 3,
# 128 bits), recorded before the search began handing back its build, margin
# report and tail.  A faster path must leave every byte as it was.  III's was
# re-pinned when u came to be stored as deviations: its search accepts
# n0 = 2^26, with max_margin -3.262145855e-41 at layer 1 (6.2e-18 from a
# 512-bit rebuild), where it rejected 2^26 on rounding and certified 2^27
# with -1.099089338e-37 at layer 125.
CONSTRUCT_DIGESTS = {
    "I": ("2", "1", ["--eps", "1/10"], 150,
          "82724c76455793c2a9951d6ed13a81414c6404e7fc2fbf47bcc5d9712fffedaa"),
    "II": ("0", "3", ["--eps", "1/2"], 270,
           "f8108bf8a246dbb88a65a3221eb84d2e2d5cc43d62978e7ebd66f5e12d4b8ba8"),
    "III": ("-1", "3/2", ["--eps", "1/10"], 125,
            "ba6919c9cfbd391ca17a155e3bb62ca74cce8aded41553fdcea2ffa1b3c8bd3c"),
    "IV": ("-2", "1", ["--lam", "1"], 600,
           "4ff546f267870a9b059fa92e6a404fa2321d55ec21d296672d22b34947558248"),
    "V1": ("1/2", "1/2", [], 460,
           "b694d09094e14e4fe315127b6e31c67b068616c6c8c0a54f21abf062028c2791"),
    "V2": ("2", "-1", [], 280,
           "56b22f661ca38a6d3abcb7ae6bdc2fcc099201b08e3b08def0e798fb684930e2"),
}


@pytest.mark.parametrize("regime", list(CONSTRUCT_DIGESTS))
def test_each_digest_certificate_stores_a_strictly_decreasing_u(regime):
    """The certificate `certify` returns for each digest's spec stores a u
    that falls at every stored layer (both arms for V2): none is a constant."""
    p, q, extra, horizon, _ = CONSTRUCT_DIGESTS[regime]
    params = {name.lstrip("-"): F(value) for name, value in zip(extra[::2], extra[1::2])}
    with lv.precision(128):
        cert = lv.certify(regime, lv.pq(F(p), F(q)), N=3, horizon=horizon, **params)
    values = cert.built.u.values()
    assert len(values) == (2 if regime == "V2" else 1) * (horizon + 1) + 1
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("regime", list(CONSTRUCT_DIGESTS))
def test_pointwise_bound_counts_the_layers_verify_finds_solving(regime):
    """On each digest's certificate the layers the pointwise bound counts
    (neither skipped nor a hypothesis failure) are the layers where the site
    verdict holds in a forced verify pass over every checked layer."""
    p, q, extra, horizon, _ = CONSTRUCT_DIGESTS[regime]
    params = {name.lstrip("-"): F(value) for name, value in zip(extra[::2], extra[1::2])}
    with lv.precision(128):
        built = lv.certify(regime, lv.pq(F(p), F(q)), N=3, horizon=horizon, **params).built
        bound = lv.pointwise_bound_check_built(built, horizon)
        layers = built.tree.checked_layers(horizon)
        checks = cx._site_checks(lv.layer_operators(built.tree, built.u), layers,
                                 cx.term_kernel(F(p), F(q)), force=True)
    solving = {n for n, check in zip(layers, checks) if check is not None and check.holds}
    counted = set(layers) - set(bound.skipped) - set(bound.hypothesis_failures)
    assert bound.checked == len(counted) and counted == solving


@pytest.mark.parametrize("regime", list(CONSTRUCT_DIGESTS))
def test_construct_report_digest(capsys, regime):
    p, q, extra, horizon, digest = CONSTRUCT_DIGESTS[regime]
    code = main(["--precision-bits", "128", "construct", "--regime", regime, "--p", p,
                 "--q", q, "--N", "3", "--horizon", str(horizon)] + extra)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 and exit code of `construct` stdout (N = 3, 128 bits) at rates that
# leave rate n a non-integer: IV's weights at lam = 3/2, V1's values
# e^(-lam n / 4) at lam = 2, and both V2 laws at lam = 5/2.  Recorded before
# the exponentials were made from geometric runs, on the code of that time,
# when `build` raised the rounded e to the power rate n; exp(rate n) rounded
# once leaves every printed digit.
FALLBACK_DIGESTS = {
    "IV": (["--p", "-2", "--q", "1", "--lam", "3/2", "--horizon", "200"], 0,
           "4fdea7c02a81d923b89dcf1c234b57a178c3ae10bf91710fb855eee6bee50f1a"),
    "V1": (["--p", "1/2", "--q", "1/2", "--lam", "2", "--horizon", "200"], 1,
           "85388d1fc8ecd34c967d203b08cf55a5e1351fb7cfbf5864441fc41a3f77bc9a"),
    "V2": (["--p", "2", "--q", "-1", "--lam", "5/2", "--horizon", "100"], 1,
           "270e48c2b6d22b5bbafcbe3b9a08b1a18a53ee494a07424f84a5bd34c1334a8f"),
}


@pytest.mark.parametrize("regime", list(FALLBACK_DIGESTS))
def test_construct_digest_at_a_non_integer_rate(capsys, regime):
    args, exit_code, digest = FALLBACK_DIGESTS[regime]
    code = main(["--precision-bits", "128", "construct", "--regime", regime, "--N", "3"] + args)
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 and exit code of regime IV's `volume` and pinned `construct` stdout
# (N = 3, 128 bits) at n0 = 2^21, where the run of exponentials starts far
# from zero: at exp(2^21) for lam = 1 and exp(3 2^21) for lam = 3.  Recorded
# on the per-n mpf_pow code, before the exponentials were made from geometric
# runs.
IV = ["--regime", "IV", "--N", "3", "--p", "-2", "--q", "1", "--n0", "2097152"]
LARGE_N0_DIGESTS = [
    (["volume", *IV, "--lam", "1", "--n-lo", "2", "--n-hi", "4"], 0,
     "20e700a0b8c2cfba62c98d695cf64edfb40b6f2036b6b569a531d8401361945f"),
    (["construct", *IV, "--lam", "1", "--delta", "1", "--horizon", "40"], 1,
     "2b848f9a3db9cff470ceaea59ea97a0474ac04e1d289705a7e597e182f48d33f"),
    (["construct", *IV, "--lam", "3", "--delta", "1", "--horizon", "40"], 1,
     "c4b1f777d4d5192be893b0205b732a3ae11c3dccab987fe0c2e070dabf2fd1e2"),
]


@pytest.mark.parametrize("args, exit_code, digest", LARGE_N0_DIGESTS,
                         ids=["volume", "construct lam 1", "construct lam 3"])
def test_iv_digest_at_a_large_n0(capsys, args, exit_code, digest):
    code = main(["--precision-bits", "128"] + args)
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 and exit code of `estimate` stdout at 128 bits on the conftest I
# and III builds (horizon 70), stored as a 40-digit radial file and values
# CSV, and on the materialized radius-4 ball of the I build; (s, t) is the
# point's `choose_st` default unless given.  III's t = 3/2 leaves est-1
# unevaluated, so (s, t) = (7/2, 1/4), outside the admissibility system,
# evaluates its right-hand side too; the ball's leaves do not solve the
# inequality.  Each report prints its sums either way.  Recorded on the
# object-arithmetic estimate, before its raw site pass.  III's were re-pinned
# when its build moved from n0 = 2^27 to 2^26: 40 digits of u ~ 1 resolve
# 1e-39, not the 2^26 build's layer-1 |lap| of 6.5e-41, so on the file the
# inequality fails at layers inside the support and est-2 exits 3 where it
# exited 0 (the file path's open fault).
ESTIMATE_DIGESTS = {
    ("I", "est1", "h:8", ""):
        (0, "a4b23e6fe8d462018a183fb2a32b207db12a73ca3b870522541cb9039352fba6"),
    ("I", "est1", "phi:3", ""):
        (0, "4db0379ba47bf005c9f65ba9c625fe2ae03d02a4eb45e8908f3b585ffd874643"),
    ("I", "est2", "h:8", ""):
        (0, "d4d3149bdee848ace7100601f2d5e32229dea8ed89945771e1c092627b40d707"),
    ("I", "est2", "phi:3", ""):
        (0, "6a31ce9e25017178127e2bb373580dd02673f965de74a98a28c6fbfa086054ec"),
    ("III", "est1", "h:8", ""):
        (3, "03c68600d3af15699711315aa5949cce217b461b946ca6a826f64804354c5eb3"),
    ("III", "est1", "phi:3", ""):
        (3, "b4bc7508d703f208943c7ba1a2120cbb7221106f6579b0cc992596bb524a793e"),
    ("III", "est2", "h:8", ""):
        (3, "3b0879e2dce885fe64cb93374dd42f69df4f9227f90e326263be623063d8cf39"),
    ("III", "est2", "phi:3", ""):
        (3, "06e55e81abe1d0a8f4e4d2c019203894a0bf60313f074d59823d1fe7902c722b"),
    ("III", "est1", "h:8", "7/2 1/4"):
        (3, "1a2d1f3457a8c6ead546bfca94bf614d22c4cababb0bde79b90c69c4062039c7"),
    ("III", "est1", "phi:3", "7/2 1/4"):
        (3, "c1c95850b79a53afe26d7a5b261985889964ae3c4cb33a241ffe5f199d01ae97"),
    ("ball", "est2", "h:2", ""):
        (3, "c72f5d8e310a27fa70cc2a0045653e8a8463cbf40250ff62f28dc1d5d3de7317"),
}


@pytest.fixture(scope="module")
def estimate_files(tmp_path_factory, regime1_small, regime3_small):
    """(radial file, values CSV) of the conftest I and III builds, and
    (graph file, values CSV) of the I build's radius-4 ball, under "ball"."""
    root = tmp_path_factory.mktemp("estimate")
    files = {}
    with lv.precision(128):
        for name, built in (("I", regime1_small), ("III", regime3_small)):
            paths = root / f"{name}.tree", root / f"{name}.csv"
            paths[0].write_text(lv.format_radial_text(built.tree, digits=40))
            paths[1].write_text(_values_csv({n: built.u.value(n)
                                             for n in range(built.u.lo, built.u.hi + 1)}))
            files[name] = paths, built.spec.point, built.tree.p0()
        g, layers = regime1_small.tree.materialize(4)
        gu = lv.induced_graph_function(regime1_small.u, layers)
        paths = root / "ball.txt", root / "ball.csv"
        paths[0].write_text(lv.format_graph_text(g, digits=40))
        paths[1].write_text("\n".join(f"{x},{mp.nstr(gu[x], 40, strip_zeros=False)}"
                                      for x in g.vertices()) + "\n")
        files["ball"] = paths, regime1_small.spec.point, regime1_small.tree.p0()
    return files


@pytest.mark.parametrize("case", list(ESTIMATE_DIGESTS),
                         ids=lambda case: " ".join(filter(None, case)))
def test_estimate_report_digest(capsys, estimate_files, case):
    name, variant, cutoff, st_pair = case
    (graph, values), point, p0 = estimate_files[name]
    sel = lv.choose_st(point)
    s, t = st_pair.split() if st_pair else (sel.s_default, sel.t_default)
    code = main(["--precision-bits", "128", "estimate", "--graph", str(graph),
                 "--u", str(values), "--phi", cutoff, "--s", str(s), "--t", str(t),
                 "--p", str(point.p), "--q", str(point.q), "--p0", mp.nstr(p0, 40),
                 "--variant", variant])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == ESTIMATE_DIGESTS[case]


# ---------------------------------------------------------------------------
# malformed input ends in exit 2, never a traceback


def _verify_args(tree_path, u_path):
    return ["verify", "--graph", str(tree_path), "--u", str(u_path), "--p", "2", "--q", "1"]


@pytest.mark.parametrize("line", ["x 1.0", "0 abc", "1.5 2.0"])
def test_radial_file_with_non_numeric_line_is_usage_error(capsys, tmp_path, line):
    (tmp_path / "tree.txt").write_text(f"radial N=3 horizon=1\n{line}\n1 2.0\n")
    (tmp_path / "u.csv").write_text("0,1\n1,0.5\n")
    code = main(_verify_args(tmp_path / "tree.txt", tmp_path / "u.csv"))
    assert code == 2
    assert "bad shell line" in capsys.readouterr().err


@pytest.mark.parametrize("rows", ["0,1\n1\n", "0,1\n1,abc\n", "0,3,junk\n1,2\n"])
def test_values_csv_bad_row_is_usage_error(capsys, tmp_path, rows):
    g = lv.WeightedGraph(2, [(0, 1, 1)])
    (tmp_path / "g.txt").write_text(lv.format_graph_text(g))
    (tmp_path / "u.csv").write_text(rows)
    code = main(_verify_args(tmp_path / "g.txt", tmp_path / "u.csv"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_estimate_bad_omega_is_usage_error(capsys, tmp_path):
    g = lv.WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
    (tmp_path / "g.txt").write_text(lv.format_graph_text(g))
    (tmp_path / "u.csv").write_text("0,3\n1,2\n2,1\n")
    # not an id, an id past the graph, a negative id that indexing would wrap,
    # and a digit separator, which int reads as the vertex 1
    for omega in ("0,a", "0,1,99", "0,1,-1", "0,0_1"):
        code = main(["estimate", "--graph", str(tmp_path / "g.txt"),
                     "--u", str(tmp_path / "u.csv"), "--phi", "h:1", "--s", "7",
                     "--t", "1/2", "--p", "2", "--q", "1", "--p0", "2", "--omega", omega])
        err = capsys.readouterr().err
        assert code == 2, omega
        assert err.count("\n") == 1 and err.startswith("error:") and "omega" in err, err


@pytest.mark.parametrize("phi, message", [
    ("h:1_6", "cannot parse test function 'h:1_6'; expected kind:param"),
    ("h", "cannot parse test function 'h'; expected kind:param"),
    ("h:0", "test function parameter must be >= 1"),
    ("phi:-1", "test function parameter must be >= 1"),
    ("q:3", "unknown test function kind 'q'"),
])
def test_estimate_bad_phi_names_its_fault(capsys, tmp_path, phi, message):
    """A digit separator is refused, as in every other index field (int
    read h:1_6 as h:16), and a kind or parameter the cutoff refuses reports
    the cutoff's own message, not the parse error."""
    args = _estimate_files(tmp_path, "graph")
    args[args.index("--phi") + 1] = phi
    code = main([*args, "--s", "7", "--t", "1/2", "--p", "2", "--q", "1", "--p0", "2"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_estimate_rejects_a_two_sided_tree(capsys, tmp_path):
    (tmp_path / "tree.txt").write_text("radial two-sided N=2 horizon=2\n"
                                       "-2 1\n-1 1\n0 1\n1 1\n")
    (tmp_path / "u.csv").write_text("".join(f"{n},{3 + n}\n" for n in range(-2, 3)))
    code = main(["estimate", "--graph", str(tmp_path / "tree.txt"),
                 "--u", str(tmp_path / "u.csv"), "--phi", "h:1", "--s", "7",
                 "--t", "1/2", "--p", "2", "--q", "1", "--p0", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: estimate expects an edge-list graph or a one-sided radial tree\n"


ESTIMATE_FILES = {
    "graph": ("graph v=3\n0 1 1\n1 2 2\n", "0,3\n1,2\n2,1\n"),
    "radial": ("radial N=3 horizon=4\n0 1\n1 2\n2 3\n3 4\n4 5\n",
               "".join(f"{n},{6 - n}\n" for n in range(5))),
}


def _estimate_files(tmp_path, which):
    graph, values = ESTIMATE_FILES[which]
    (tmp_path / "g.txt").write_text(graph)
    (tmp_path / "u.csv").write_text(values)
    return ["estimate", "--graph", str(tmp_path / "g.txt"), "--u", str(tmp_path / "u.csv"),
            "--phi", "h:1"]


@pytest.mark.parametrize("which", sorted(ESTIMATE_FILES))
@pytest.mark.parametrize("p, q, t, message", [
    ("1/2", "1/2", "1/2", "p + q - 1 vanishes"),
    ("2", "1", "3", "p + q - t vanishes"),
])
def test_estimate_with_undefined_exponents_exits_2(capsys, tmp_path, which, p, q, t, message):
    """On p + q = 1, or at t = p + q, the estimate used to die dividing by
    zero in `_estimate_exponents` and exit 1 with a traceback."""
    code = main(_estimate_files(tmp_path, which)
                + ["--s", "7", "--t", t, "--p", p, "--q", q, "--p0", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: c_constant undefined: {message}\n"


_estimate_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _estimate_exponent_args(draw):
    """p, q, s and t on and off the lines p + q = 1, t = p + q and t = 1."""
    p = draw(_estimate_fraction)
    q = draw(st.sampled_from([1 - p]) | _estimate_fraction)
    t = draw(st.sampled_from([p + q, F(1)]) | _estimate_fraction)
    s = draw(_estimate_fraction)
    return [f"--p={p}", f"--q={q}", f"--s={s}", f"--t={t}"]


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(exponents=_estimate_exponent_args(), p0=st.sampled_from(["1", "2", "inf", "nan"]),
       which=st.sampled_from(sorted(ESTIMATE_FILES)), variant=st.sampled_from(["est1", "est2"]))
def test_estimate_exits_0_to_3_for_any_exponents(capsys, tmp_path, exponents, p0, which,
                                                 variant):
    """Whatever the exponents and p0, estimate gives a report (exit 0, 1 or
    3) or one error line (exit 2), and never a traceback."""
    code = main(_estimate_files(tmp_path, which) + exponents
                + [f"--p0={p0}", "--variant", variant])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("error:"), err
    else:
        assert out.startswith("{"), (code, err)


def test_estimate_on_a_radial_tree_takes_only_the_root_as_base(capsys, tmp_path):
    """--base names the cutoff's base vertex; a radial estimate is centred
    at the root, so any other base is an input error, not ignored."""
    args = _estimate_files(tmp_path, "radial") + ["--s", "7", "--t", "1/2", "--p", "2",
                                                  "--q", "1", "--p0", "2"]
    assert main(args) == main(args + ["--base", "0"])
    capsys.readouterr()
    code = main(args + ["--base", "99"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: radial estimates support only --base 0, the root\n"


def test_an_indented_radial_header_reads_as_radial(capsys, tmp_path):
    """Both readers strip their lines, so the file sniffer does too: an
    indented header verifies as the unindented file does."""
    (tmp_path / "u.csv").write_text("".join(f"{n},{6 - n}\n" for n in range(5)))
    reports = []
    for name, indent in (("plain.txt", ""), ("indented.txt", "  ")):
        (tmp_path / name).write_text(f"{indent}radial N=3 horizon=4\n0 1\n1 2\n2 3\n3 4\n4 5\n")
        main(["verify", "--graph", str(tmp_path / name), "--u", str(tmp_path / "u.csv"),
              "--p", "2", "--q", "1"])
        out, err = capsys.readouterr()
        assert out.startswith("{") and err == "", err
        reports.append(out)
    assert reports[0] == reports[1]


def test_descend_from_a_negative_layer_of_a_one_sided_tree_exits_2(capsys, tmp_path):
    """A one-sided tree has no layer -1; the walk's start check, read from
    `interior_layers()`, says so before the operator stream is asked."""
    (tmp_path / "tree.txt").write_text("radial N=3 horizon=4\n0 1\n1 2\n2 3\n3 4\n4 5\n")
    (tmp_path / "u.csv").write_text("".join(f"{n},{6 - n}\n" for n in range(5)))
    code = main(["descend", "--graph", str(tmp_path / "tree.txt"), "--u",
                 str(tmp_path / "u.csv"), "--start", "-1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: start layer -1 has no stored neighborhood\n"


@pytest.mark.parametrize("which", ["graph", "values"])
def test_input_that_is_not_utf8_is_usage_error(capsys, tmp_path, which):
    graph, values = b"graph v=2\n0 1 1\n", b"0,1\n1,2\n"
    if which == "graph":
        graph = graph.replace(b"1\n", b"\xff\n")
    else:
        values = values.replace(b"2", b"\xff2")
    (tmp_path / "g.txt").write_bytes(graph)
    (tmp_path / "u.csv").write_bytes(values)
    code = main(_verify_args(tmp_path / "g.txt", tmp_path / "u.csv"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error:") and "UTF-8" in err, err


def test_values_csv_field_over_the_csv_limit_is_usage_error(capsys, tmp_path):
    (tmp_path / "g.txt").write_text("graph v=2\n0 1 1\n")
    (tmp_path / "u.csv").write_text('0,1\n1,"' + "2" * 200_000 + '"\n')
    code = main(_verify_args(tmp_path / "g.txt", tmp_path / "u.csv"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error:") and "field limit" in err, err


# Tokens the parsers and the values CSV treat specially, or that Python's
# int() and mpmath's mpf() accept in surprising spellings.
FUZZ_TOKENS = ["", " ", "0", "1", "-1", "2", "3", "1e999999", "1e-999999", "nan", "inf",
               "-inf", "0x1p3", "1/2", "\u0661", "9" * 30, "#", ",", "\x00", "\t", "\r",
               "\n", "\ufeff", '"', "'", "\u00e9", "graph", "radial", "v=", "v=3", "v=0",
               "v=-1", "N=3", "N=1", "horizon=2", "horizon=0", "horizon=-1", "two-sided",
               "arm", "0.5", "-0", "1_0", "+1", "layer,value", "1/0", "0/0"]
_fuzz_line = (st.lists(st.sampled_from(FUZZ_TOKENS), max_size=5).map(" ".join)
              | st.lists(st.sampled_from(FUZZ_TOKENS), max_size=4).map(",".join))


def _spliced(valid: list[str]):
    """A valid file with a run of its characters replaced by a garbage line."""
    return st.builds(lambda text, at, cut, line: text[:at] + line + text[at + cut:],
                     st.sampled_from(valid), st.integers(0, 40), st.integers(0, 6),
                     _fuzz_line)


def _garbage(valid: list[str]):
    text = (st.lists(_fuzz_line, max_size=8).map("\n".join) | st.text(max_size=60)
            | _spliced(valid))
    return text.map(lambda t: t.encode("utf-8", "surrogatepass")) | st.binary(max_size=40)


FUZZ_GRAPHS = ["graph v=3\n0 1 1\n1 2 2\n", "radial N=3 horizon=2\n0 1\n1 2\n2 3\n",
               "radial two-sided N=2 horizon=2\n-2 1\n-1 1\n0 1\n1 1\n"]
FUZZ_VALUES = ["0,1\n1,2\n2,3\n", "layer,value\n-2,1\n-1,1\n0,1\n1,2\n2,3\n"]
FUZZ_COMMANDS = {
    "verify": ["--p", "2", "--q", "1"],
    "estimate": ["--p", "2", "--q", "1", "--phi", "h:1", "--s", "7", "--t", "1/2",
                 "--p0", "4"],
    "descend": ["--start", "0", "--steps", "3"],
}


@settings(max_examples=1000, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph=_garbage(FUZZ_GRAPHS), values=_garbage(FUZZ_VALUES),
       command=st.sampled_from(sorted(FUZZ_COMMANDS)))
def test_garbage_files_exit_2_with_one_error_line(capsys, tmp_path, graph, values, command):
    """parse_graph_text, parse_radial_text and the values CSV through main:
    malformed input exits 2 with one error line, and nothing escapes as a
    traceback; input that happens to be well formed gets a report."""
    (tmp_path / "g.txt").write_bytes(graph)
    (tmp_path / "u.csv").write_bytes(values)
    code = main([command, "--graph", str(tmp_path / "g.txt"), "--u", str(tmp_path / "u.csv")]
                + FUZZ_COMMANDS[command])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("error:"), err
    else:
        assert out.startswith("{"), (code, err)

def test_graph_file_with_infinite_weight_is_usage_error(capsys, tmp_path):
    (tmp_path / "g.txt").write_text("graph v=2\n0 1 inf\n")
    (tmp_path / "u.csv").write_text("0,1\n1,2\n")
    code = main(_verify_args(tmp_path / "g.txt", tmp_path / "u.csv"))
    assert code == 2


@pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
def test_graph_values_not_finite_is_usage_error(capsys, tmp_path, bad):
    g = lv.WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
    (tmp_path / "g.txt").write_text(lv.format_graph_text(g))
    (tmp_path / "u.csv").write_text(f"0,3\n1,{bad}\n2,1\n")
    code = main(_verify_args(tmp_path / "g.txt", tmp_path / "u.csv"))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_radial_values_not_finite_is_usage_error(capsys, tmp_path, bad):
    (tmp_path / "tree.txt").write_text("radial N=3 horizon=2\n0 1\n1 2\n2 3\n")
    (tmp_path / "u.csv").write_text(f"0,3\n1,{bad}\n2,1\n")
    code = main(_verify_args(tmp_path / "tree.txt", tmp_path / "u.csv"))
    assert code == 2
    assert "finite" in capsys.readouterr().err


# A zero denominator in each loader: a graph weight, a shell weight, a value.
ZERO_DENOMINATOR_FILES = {
    "graph weight": ("graph v=2\n0 1 {bad}\n", "0,1\n1,2\n"),
    "shell weight": ("radial N=3 horizon=2\n0 1\n1 {bad}\n2 3\n", "0,3\n1,2\n2,1\n"),
    "value": ("graph v=2\n0 1 1\n", "0,1\n1,{bad}\n"),
}


@pytest.mark.parametrize("bad", ["1/0", "0/0", "-1/0"])
@pytest.mark.parametrize("loader", sorted(ZERO_DENOMINATOR_FILES))
def test_zero_denominator_is_usage_error(capsys, tmp_path, loader, bad):
    """A zero-denominator rational escaped main as a ZeroDivisionError."""
    graph, values = ZERO_DENOMINATOR_FILES[loader]
    (tmp_path / "g.txt").write_text(graph.format(bad=bad))
    (tmp_path / "u.csv").write_text(values.format(bad=bad))
    code = main(_verify_args(tmp_path / "g.txt", tmp_path / "u.csv"))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and bad in err


# A digit separator in each loader: mp.mpf would read 1.5_5 as 0.155.
SEPARATOR_FILES = {
    "graph weight": ("graph v=2\n0 1 1_0\n", "0,1\n1,2\n"),
    "shell weight": ("radial N=3 horizon=2\n0 1\n1 1.5_5\n2 3\n", "0,3\n1,2\n2,1\n"),
    "value": ("graph v=2\n0 1 1\n", "0,1\n1,1.5_5\n"),
}


@pytest.mark.parametrize("loader", sorted(SEPARATOR_FILES))
def test_digit_separator_is_usage_error(capsys, tmp_path, loader):
    graph, values = SEPARATOR_FILES[loader]
    (tmp_path / "g.txt").write_text(graph)
    (tmp_path / "u.csv").write_text(values)
    code = main(_verify_args(tmp_path / "g.txt", tmp_path / "u.csv"))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "_" in err


def test_real_option_with_digit_separator_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--regime", "IV", "--p", "-2", "--q", "1", "--lam", "1.5_5"])
    assert exc.value.code == 2
    assert "not a real number" in capsys.readouterr().err


@pytest.mark.parametrize("bits", [53, 256])
def test_real_options_are_read_at_the_run_precision(monkeypatch, bits):
    """--lam, --delta and --p0 are rounded at --precision-bits, not at
    mpmath's ambient 53 bits."""
    from liouville import cli
    seen = {}

    def capture(args):
        for name in ("lam", "delta", "p0"):
            if getattr(args, name, None) is not None:
                seen[name] = getattr(args, name)._mpf_
        seen["prec"] = mp.mp.prec
        return 0

    monkeypatch.setattr(cli, "_cmd_construct", capture)
    monkeypatch.setattr(cli, "_cmd_descend", capture)
    assert main(["--precision-bits", str(bits), "construct", "--regime", "IV", "--p", "-2",
                 "--q", "1", "--lam", "0.1", "--delta", "1/3"]) == 0
    assert main(["--precision-bits", str(bits), "descend", "--graph", "g", "--u", "u",
                 "--p0", "0.1"]) == 0
    with mp.workprec(bits):
        tenth, third = mp.mpf("0.1")._mpf_, (mp.mpf(1) / 3)._mpf_
    assert seen == {"lam": tenth, "delta": third, "p0": tenth, "prec": bits}
    if bits > 53:
        with mp.workprec(53):
            assert mp.mpf("0.1")._mpf_ != tenth


@pytest.mark.parametrize("lam", ["1/0", "0/0"])
def test_real_option_with_zero_denominator_is_usage_error(capsys, lam):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--regime", "IV", "--p", "-2", "--q", "1", "--lam", lam])
    assert exc.value.code == 2
    assert "not a real number" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    "0 1\n1 2\n1 3\n2 4\n",               # duplicate shell 1
    "0 1\n1 2\n2 3\n3 4\n",               # shell 3 past horizon 2
    "-1 1\n0 1\n1 2\n2 3\n",              # a negative shell on a one-sided tree
])
def test_radial_file_bad_shell_index_is_usage_error(capsys, tmp_path, body):
    (tmp_path / "tree.txt").write_text("radial N=3 horizon=2\n" + body)
    (tmp_path / "u.csv").write_text("0,3\n1,2\n2,1\n")
    code = main(_verify_args(tmp_path / "tree.txt", tmp_path / "u.csv"))
    assert code == 2
    assert "shell index" in capsys.readouterr().err


@pytest.mark.parametrize("bits", ["4", "52", "abc"])
def test_precision_bits_below_float64_rejected(capsys, bits):
    with pytest.raises(SystemExit) as exc:
        main(["--precision-bits", bits, "classify", "--p", "2", "--q", "1"])
    assert exc.value.code == 2


def test_precision_bits_floor_accepted(capsys):
    code, payload = run_cli(capsys, "--precision-bits", "53", "classify", "--p", "2",
                            "--q", "1")
    assert code == 0 and payload["g"] == "G1"


def test_bad_precision_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("LIOUVILLE_PRECISION_BITS", "4")
    assert main(["classify", "--p", "2", "--q", "1"]) == 2
    assert "LIOUVILLE_PRECISION_BITS" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# volume: one running-volume loop behind the band, the sum and the CSV


def test_volume_two_sided_csv_and_nash_williams(capsys, tmp_path):
    csv_path = tmp_path / "vol.csv"
    code, payload = run_cli(capsys, "volume", "--regime", "V2", "--p", "2", "--q", "-1",
                            "--lam", "4", "--N", "3", "--n-lo", "4", "--n-hi", "30",
                            "--nash-williams", "--csv", str(csv_path))
    assert code == 0
    spec = lv.RegimeSpec(regime="V2", p=F(2), q=F(-1), N=3, horizon=31, lam=mp.mpf(4))
    tree = lv.build(spec).tree
    vols, acc = [], mp.mpf(0)
    for k in range(31):
        acc += tree.layer_measure(k)
        vols.append(acc)
    assert payload["nash_williams_partial"] == lv.mpf_str(
        lv.nash_williams_partial(lambda n: vols[n], 30))
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "n,volume,target,ratio"
    digits = repr_dps(mp.mp.prec)
    assert [r.split(",")[:2] for r in rows[1:]] == [[str(n), lv.mpf_str(vols[n], digits)]
                                                     for n in range(4, 31)]


@pytest.mark.parametrize("bits", [128, 256])
def test_construct_csv_reads_back_with_the_certificates_bits(capsys, tmp_path, bits):
    """At 25 digits none of the 151 w and none of the 151 u read back with
    the certificate's bits."""
    csv_path = tmp_path / "layers.csv"
    code = main(["--precision-bits", str(bits), "construct", "--regime", "I", "--p", "2",
                 "--q", "1", "--eps", "1/10", "--horizon", "150", "--csv", str(csv_path)])
    capsys.readouterr()
    assert code == 0
    with lv.precision(bits):
        built = lv.certify("I", lv.pq(2, 1), N=3, horizon=150, eps=F(1, 10)).built
        rows = list(csv.DictReader(csv_path.open()))
        assert [int(row["layer"]) for row in rows] == list(range(151))
        assert [lv.parse_decimal(row["w"])._mpf_ for row in rows] \
            == [built.tree.weight(n)._mpf_ for n in range(151)]
        assert [lv.parse_decimal(row["u"])._mpf_ for row in rows] \
            == [built.u.value(n)._mpf_ for n in range(151)]


def test_volume_sums_the_running_volume_once(capsys, tmp_path, monkeypatch):
    calls = []
    ball_volumes = lv.radial._LayerChain.ball_volumes

    def counted(self, n_max):
        calls.append(n_max)
        return ball_volumes(self, n_max)

    monkeypatch.setattr(lv.radial._LayerChain, "ball_volumes", counted)
    code, payload = run_cli(capsys, "volume", "--regime", "I", "--p", "2", "--q", "1",
                            "--eps", "1/10", "--N", "3", "--n-lo", "16", "--n-hi", "256",
                            "--nash-williams", "--csv", str(tmp_path / "vol.csv"))
    assert code == 0 and "nash_williams_partial" in payload
    assert calls == [256]

@pytest.mark.parametrize("window", [["--n-lo", "1", "--n-hi", "1000000000"],
                                    ["--n-lo", "50", "--n-hi", "20"]], ids=["n_lo", "order"])
def test_volume_checks_its_window_before_it_builds(capsys, monkeypatch, window):
    """A bad window exits 2 before any tree is built, as in construct: a
    window out to 10^9 costs nothing."""
    def build(spec):
        raise AssertionError("built before the window was checked")

    monkeypatch.setattr(cx, "build", build)
    code, payload = run_cli(capsys, "volume", "--regime", "I", "--p", "2", "--q", "1",
                            "--eps", "1/10", "--N", "3", *window)
    assert code == 2 and payload is None


def test_volume_offset_keeps_a_power_log_law_screened(capsys, monkeypatch):
    """--exponent-offset k on a power-log law is the law n^(a + k) (ln n)^b, so
    the band still goes through the float64 screen; an exponential law keeps
    the product and is evaluated at every n."""
    calls = []
    for cls in (lv.PowerLogLaw, lv.ExpLaw):
        monkeypatch.setattr(cls, "__call__", lambda self, n, call=cls.__call__:
                            calls.append((self, n)) or call(self, n))
    code, _ = run_cli(capsys, "volume", "--regime", "I", "--p", "2", "--q", "1",
                      "--eps", "1/10", "--N", "3", "--n-lo", "16", "--n-hi", "512",
                      "--exponent-offset", "2")
    assert code == 0
    assert 1 <= len(calls) <= 8
    assert {(type(law), law.expo) for law, _ in calls} == {(lv.PowerLogLaw, mp.mpf("4.5"))}
    calls.clear()
    code, _ = run_cli(capsys, "volume", "--regime", "IV", "--p", "-2", "--q", "1",
                      "--lam", "1", "--N", "3", "--n-lo", "16", "--n-hi", "64",
                      "--exponent-offset", "-1")
    assert code == 0
    assert [(type(law), n) for law, n in calls] == [(lv.ExpLaw, n) for n in range(16, 65)]


# sha256 of `volume` stdout at 128 bits (N = 3, n0 = 2 unless given), recorded
# before the band gained its float64 screen: the I/II/III bands, the regime I
# band with --exponent-offset among them, go through the screen, the
# exponential laws do not.
VOLUME_DIGESTS = [
    (["--regime", "I", "--p", "2", "--q", "1", "--eps", "1/10", "--n-lo", "16",
      "--n-hi", "2048"],
     "fcdbdbaf8b4823b4c85567fcbaed51b5aec0e50cdaf1d8c026230cbf0c5568c3"),
    (["--regime", "II", "--p", "0", "--q", "3", "--eps", "1/2", "--n-lo", "16",
      "--n-hi", "1024"],
     "b711b51a4f193b5b4152040e5e1234f54ef8c48a56e2d4db4cfa439fe1a0ef70"),
    (["--regime", "III", "--p", "-1", "--q", "3/2", "--eps", "1/10", "--n-lo", "2",
      "--n-hi", "1024"],
     "96a6fe6105a74b38ce711857f483346bea73da1255f1bed0eb813669435ee4d3"),
    (["--regime", "IV", "--p", "-2", "--q", "1", "--lam", "1", "--n-lo", "16",
      "--n-hi", "600"],
     "61b4c59297cc0cba64879b4a329672108e1e29caf7e90ae1303f126b52c7c65f"),
    (["--regime", "V1", "--p", "1/2", "--q", "1/2", "--lam", "1", "--n-lo", "16",
      "--n-hi", "460"],
     "8f33c357ab03f9e782a787c4f9a651631ccda7f1accc6eb8f562935096207183"),
    (["--regime", "V2", "--p", "2", "--q", "-1", "--lam", "4", "--n-lo", "4",
      "--n-hi", "280"],
     "170a625f174acfcc333140fb8859db35bf5a7b5011ed8c6d6f9615792ba5c333"),
    (["--regime", "I", "--p", "2", "--q", "1", "--eps", "1/10", "--n-lo", "16",
      "--n-hi", "512", "--exponent-offset", "2"],
     "86e284c63858a938b12baaa7bf92695e1818cb236c0472a3a996a200d6610260"),
    (["--regime", "III", "--p", "-1", "--q", "3/2", "--eps", "1/10", "--n-lo", "16",
      "--n-hi", "512", "--n0", "8192", "--nash-williams"],
     "cc0fb58bc7aab7bacbb4d1f95bd64113886b766c2a4cc366f8cc805713521815"),
]


@pytest.mark.parametrize("args, digest", VOLUME_DIGESTS,
                         ids=[" ".join(a[1:2] + a[-2:]) for a, _ in VOLUME_DIGESTS])
def test_volume_report_digest(capsys, args, digest):
    code = main(["--precision-bits", "128", "volume", "--N", "3"] + args)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# recheck: `verify` on stored certificates, pinned byte for byte

# sha256 of `verify` stdout at 128 bits on each regime's certificate at
# horizon 200 (N = 3, the parameters of CONSTRUCT_DIGESTS), stored as a
# 40-digit radial file and a 40-digit values CSV, and on the same files with
# layer 67 lowered below both neighbours.  Recorded before the margin pass
# gained its float64 screen.  III's files are those of the spec its search
# calibrated while u was stored rounded, pinned (RECHECK_PINS): at the
# n0 = 2^26 it calibrates now, 40 digits of u ~ 1 resolve 1e-39, not layer 1's
# |lap| of 6.5e-41, the file path's open fault; its certified report carries
# the 128-bit fault of a file of u rounded, and stays as it is.
RECHECK_HORIZON = 200
RECHECK_LOWERED = 67
RECHECK_PINS = {"III": {"n0": 2 ** 27,
                        "delta": "0.0000019027400149700373489508300901465848123811"}}
VERIFY_DIGESTS = {
    "I": ("4e56e9716f975e032cf2e6fd514cc8c27559eeb9e74d073a01c319165bb09710",
         "9d12d9e05a97645f9d6b30e729349478e65567f57a15806c84d88e34102dbe94"),
    "II": ("8f63a423b5fe0d784e09ed02cac83b0d3a50bb0d8f159efe99737f5501365530",
          "21d366a52ed527357e8cc9d2f5a53775c7da8c42f4ff7725a9bd94adcdc6038a"),
    "III": ("e28539295c3f8f5eef6b72ffa02cd8c37f17351efb8ce47bb2f7c6f9cdc4d189",
           "c982233e1aa529249d4d5e155de8904261ca6c38728f9ad45973c331ada541e6"),
    "IV": ("d38f1c63d235cc02dafd205e5f65f6b0255ca1bb1410b0cab865a985422649e1",
          "6f1329be901b48e05556b0928f95dafaa9ceee97f91b642961217c5760c8eedd"),
    "V1": ("87c93df822fe6b0c9e1063d3e2b71c86c65aa66ee8ee0edb1780ac1b1370d894",
          "95fe411334478423101c72aa30bff9491022db5752ef3cfadb4c1206a6ddad42"),
    "V2": ("3d5c8dd9ab6996967d51c824494ed05f077806ae4153a723134bd85b44633e66",
          "addf8e7ec8c71c253d4adcee007e54e87c90edf95bb83ecb31f3594db484fb07"),
}


def _values_csv(values: dict) -> str:
    rows = ["layer,value"] + [f"{n},{mp.nstr(v, 40, strip_zeros=False)}"
                              for n, v in sorted(values.items())]
    return "\n".join(rows) + "\n"


def stored_certificate_files(regime, tmp_path):
    """(tree path, values path, lowered values path) of a stored certificate."""
    p, q, extra, _, _ = CONSTRUCT_DIGESTS[regime]
    params = {k.lstrip("-"): F(v) for k, v in zip(extra[::2], extra[1::2])}
    if regime in RECHECK_PINS:
        pin = RECHECK_PINS[regime]
        built = lv.certify_spec(cx.RegimeSpec(regime, F(p), F(q), 3, RECHECK_HORIZON, n0=pin["n0"],
                                              delta=mp.mpf(pin["delta"]), **params)).built
    else:
        built = lv.certify(regime, lv.pq(F(p), F(q)), N=3, horizon=RECHECK_HORIZON,
                           **params).built
    values = {n: built.u.value(n) for n in range(built.u.lo, built.u.hi + 1)}
    k = RECHECK_LOWERED
    lowered = dict(values)
    lowered[k] = min(values[k - 1], values[k + 1]) * (1 - mp.mpf("1e-6"))
    paths = (tmp_path / f"{regime}.tree", tmp_path / f"{regime}.csv",
             tmp_path / f"{regime}.low.csv")
    paths[0].write_text(lv.format_radial_text(built.tree, digits=40))
    paths[1].write_text(_values_csv(values))
    paths[2].write_text(_values_csv(lowered))
    return paths


def verify_stdout(capsys, regime, tree_path, values_path):
    p, q = CONSTRUCT_DIGESTS[regime][:2]
    code = main(["--precision-bits", "128", "verify", "--graph", str(tree_path),
                 "--u", str(values_path), "--p", p, "--q", q])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("regime", list(VERIFY_DIGESTS))
def test_verify_report_digest(capsys, tmp_path, regime):
    tree_path, values_path, lowered_path = stored_certificate_files(regime, tmp_path)
    certified, negative = VERIFY_DIGESTS[regime]
    code, out = verify_stdout(capsys, regime, tree_path, values_path)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == certified
    code, out = verify_stdout(capsys, regime, tree_path, lowered_path)
    assert code == 1 and json.loads(out)["verified"] is False
    assert hashlib.sha256(out.encode()).hexdigest() == negative


def test_verify_rejects_a_negative_horizon(capsys, tmp_path):
    """--horizon -1 checked no layer and reported a vacuous certificate."""
    tree_path, values_path, _ = stored_certificate_files("I", tmp_path)
    code = main(["verify", "--graph", str(tree_path), "--u", str(values_path),
                 "--p", "2", "--q", "1", "--horizon", "-1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: horizon must be at least 0, got -1\n"


def test_verify_says_a_horizon_0_tree_has_no_checkable_layer(capsys, tmp_path):
    """With no --horizon this read "horizon must be at least 0, got -1"."""
    (tmp_path / "tree.txt").write_text("radial N=3 horizon=0\n0 1\n")
    (tmp_path / "u.csv").write_text("0,1\n")
    code = main(_verify_args(tmp_path / "tree.txt", tmp_path / "u.csv"))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: the tree has no checkable layer (it needs u at layer 1)\n"


@pytest.mark.parametrize("horizon", ["0", "-3"])
@pytest.mark.parametrize("regime", ["I", "III", "IV"])
def test_construct_rejects_a_short_horizon(capsys, regime, horizon):
    """I, III and IV died in the n0 search on an empty probe list; they now
    exit 2 with validate_spec's message, as II, V1 and V2 do."""
    p, q, extra, _, _ = CONSTRUCT_DIGESTS[regime]
    code = main(["construct", "--regime", regime, "--p", p, "--q", q, "--N", "3",
                 "--horizon", horizon] + extra)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: horizon must be at least 2\n"


def test_descend_rejects_a_p0_below_one(capsys, tmp_path):
    g = lv.WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
    (tmp_path / "g.txt").write_text(lv.format_graph_text(g))
    (tmp_path / "u.csv").write_text("0,3\n1,2\n2,1\n")
    args = ["descend", "--graph", str(tmp_path / "g.txt"), "--u", str(tmp_path / "u.csv"),
            "--start", "0", "--steps", "2", "--p0"]
    code = main(args + ["-3"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err == "error: p0 must be finite and at least 1\n"
    assert main(args + ["1"]) == 0


@pytest.mark.parametrize("args, message", [
    (["--regime", "II", "--p", "0", "--q", "3", "--eps", "0", "--n0", "4"],
     "regime II needs a positive eps"),
    (["--regime", "IV", "--p", "-2", "--q", "1", "--lam", "0"],
     "regime IV needs a positive lam"),
    (["--regime", "IV", "--p", "-2", "--q", "1", "--lam=-1"],
     "regime IV needs a positive lam"),
    (["--regime", "I", "--p", "2", "--q", "1", "--eps=-1/10", "--delta", "1/100"],
     "regime I needs a positive eps"),
], ids=["pinned II eps 0", "searched IV lam 0", "searched IV lam -1", "pinned I eps < 0"])
def test_construct_rejects_a_non_positive_eps_or_lam(capsys, args, message):
    """Pinned II with eps 0 and searched IV with lam 0 died dividing by zero;
    searched IV with lam -1 tried every n0 and exited 1, pinned I with a
    negative eps exited 1.  The shared parameter check stops each of them."""
    code = main(["construct", "--N", "3", "--horizon", "20"] + args)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("pinned", [[], ["--n0", "4"]], ids=["searched", "pinned"])
def test_construct_rejects_an_eps_too_small_for_the_precision(capsys, pinned):
    """At 128 bits (ln m)^(-eps/2) rounds to 1 for eps = 1e-400, so the regime
    II profile is flat and Lambda's quad^(-q/2) divides by zero: a
    ZeroDivisionError traceback (exit 1) before, a one-line exit 2 now."""
    code = main(["--precision-bits", "128", "construct", "--regime", "II", "--p", "0",
                 "--q", "3", "--eps", "1e-400", "--N", "3", "--horizon", "20"] + pinned)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("error: regime II: eps is too small for the working precision "
                   "(128 bits): (ln m)^(-eps/2) is flat\n")


def test_construct_certifies_the_iii_spec_it_refused_as_constant(capsys):
    """III at (-1/2, 5/4) stored u = 1 + delta/g rounded, one number from
    n0 = 2^23 on at the default 128 bits: `construct` certified it with every
    margin 0, then exited 1 after refusing 12 candidates.  Stored as the
    deviations delta/g, which fall at every layer, the first n0 it screens,
    2^18, certifies."""
    code = main(["construct", "--regime", "III", "--p", "-1/2", "--q", "5/4", "--N", "3",
                 "--horizon", "200", "--eps", "1/10"])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert (code, err) == (0, "")
    assert rep["spec"]["n0"] == 2 ** 18 and rep["verified"] and rep["tail"]["ok"]
    assert (rep["max_margin"], rep["worst_layer"]) == ("-8.390999540178947215902021e-48", 200)


def test_construct_certifies_the_pinned_spec_it_refused_as_constant(capsys):
    """The spec the search refused first, pinned: at n0 = 2^23 and the delta
    the search computed there, 128 bits stored III's u = 1 + delta/g rounded
    as one number.  It exited 0 with `max_margin` 0.0, then 1, refused.  Its
    deviations fall at every layer, and it certifies with every margin < 0."""
    code = main(["construct", "--regime", "III", "--p", "-1/2", "--q", "5/4", "--N", "3",
                 "--horizon", "200", "--eps", "1/10", "--n0", "8388608", "--delta",
                 "0.0000000018447428591983512438861583888655906632"])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert (code, err) == (0, "")
    assert rep["verified"] and rep["tail"]["ok"]
    assert (rep["max_margin"], rep["worst_layer"]) == ("-7.998565666974716713053081e-52", 200)


def test_construct_exits_1_when_the_search_is_exhausted(capsys):
    """On (101/100, -1/100) no lambda up to the cap clears V2's screen."""
    code = main(["construct", "--regime", "V2", "--p", "101/100", "--q=-1/100",
                 "--N", "3", "--horizon", "20"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("calibration failed: regime V2: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# negative numbers as separate option values, and duplicate CSV indices

def _path_graph_files(tmp_path):
    g = lv.WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
    (tmp_path / "g.txt").write_text(lv.format_graph_text(g))
    (tmp_path / "u.csv").write_text("0,3\n1,2\n2,1\n")
    return ["--graph", str(tmp_path / "g.txt"), "--u", str(tmp_path / "u.csv")]


@pytest.mark.parametrize("command, separated, code", [
    (["classify"], ["--p", "-3/2", "--q", "-1/2"], 0),
    (["verify", "FILES"], ["--p", "2", "--q", "-1/2"], 1),
    (["verify", "FILES"], ["--p", "-3/2", "--q", "1/2"], 1),
    (["construct", "--regime", "V2", "--N", "3", "--horizon", "20"],
     ["--p", "5/2", "--q", "-3/2"], 0),
    (["construct", "--regime", "IV", "--p", "-2", "--q", "1", "--N", "3", "--horizon", "20"],
     ["--lam", "-1/2"], 2),
    (["construct", "--regime", "I", "--p", "2", "--q", "1", "--N", "3", "--horizon", "20"],
     ["--eps", "-1e-3", "--delta", "-.5"], 2),
    (["descend", "FILES", "--p", "2", "--q", "1"], ["--p0", "-1/2"], 2),
], ids=["classify", "verify q", "verify p", "construct", "construct lam", "construct eps",
        "descend p0"])
def test_a_negative_number_may_follow_its_option(capsys, tmp_path, command, separated, code):
    """`--q -1/2` reads as `--q=-1/2`: argparse took -1/2 (and -1e-3, -.5)
    for an option and exited 2 with "expected one argument"."""
    files = _path_graph_files(tmp_path)
    command = [a for arg in command for a in (files if arg == "FILES" else [arg])]
    joined = [f"{opt}={value}" for opt, value in zip(separated[::2], separated[1::2])]
    assert main(command + separated) == code
    out, err = capsys.readouterr()
    assert main(command + joined) == code
    assert capsys.readouterr() == (out, err)
    assert "expected one argument" not in err and err.count("\n") <= 1


@pytest.mark.parametrize("args", [["--bogus"], ["--bogus", "-1/2"], ["--q"]])
def test_an_unknown_option_or_a_missing_value_still_exits_2(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--p", "1", "--q", "-1/2"] + args)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["graph", "radial"])
def test_values_csv_with_a_duplicate_index_is_usage_error(capsys, tmp_path, kind):
    """A second row for an index was read over the first without a word."""
    if kind == "graph":
        args = _path_graph_files(tmp_path)
        rows, index = "0,3\n1,2\n1,5\n2,1\n", 1
    else:
        (tmp_path / "tree.txt").write_text("radial N=3 horizon=2\n0 1\n1 1\n2 1\n")
        args = ["--graph", str(tmp_path / "tree.txt"), "--u", str(tmp_path / "u.csv")]
        rows, index = "layer,value\n0,4\n1,3\n2,2\n2,7\n3,1\n", 2
    (tmp_path / "u.csv").write_text(rows)
    code = main(["verify"] + args + ["--p", "2", "--q", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: {tmp_path / 'u.csv'}: duplicate index {index}\n"


# ---------------------------------------------------------------------------
# construct's volume window, a values CSV's header row

@pytest.mark.parametrize("window, message", [
    (["--volume-lo", "1"], "volume band needs n_lo >= 2 (targets may involve ln n)"),
    (["--volume-lo", "30", "--volume-hi", "10"], "need n_hi >= n_lo"),
], ids=["lo below 2", "hi below lo"])
def test_construct_rejects_a_bad_volume_window(capsys, window, message):
    """`construct` printed "volume_band": null and exited 0 on a window that
    `volume` rejects; both exit 2 now, through the same check."""
    code = main(["construct", "--regime", "V1", "--p", "1/2", "--q", "1/2", "--N", "3",
                 "--horizon", "40"] + window)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    code = main(["volume", "--regime", "V1", "--p", "1/2", "--q", "1/2", "--lam", "1",
                 "--n-lo", window[1]] + (["--n-hi", window[3]] if len(window) > 2 else []))
    assert code == 2 and capsys.readouterr().err == f"error: {message}\n"


def test_construct_below_the_volume_window_keeps_a_null_band(capsys):
    code, payload = run_cli(capsys, "construct", "--regime", "V1", "--p", "1/2", "--q", "1/2",
                            "--N", "3", "--horizon", "12", "--volume-lo", "16")
    assert code == 0 and payload["volume_band"] is None
    code, payload = run_cli(capsys, "construct", "--regime", "V1", "--p", "1/2", "--q", "1/2",
                            "--N", "3", "--horizon", "20", "--volume-lo", "16")
    assert code == 0 and (payload["volume_band"]["n_lo"], payload["volume_band"]["n_hi"]) \
        == (16, 20)


@pytest.mark.parametrize("rows, bad", [
    ("0,3\n1.0,7\n1,2\n2,1\n", ["1.0", "7"]),
    ("index,value\n0,3\nlayer,value\n1,2\n2,1\n", ["layer", "value"]),
    ("# note\n\n0,3\n1,2\nx\n2,1\n", ["x"]),
], ids=["stray float index", "second header", "after a comment"])
def test_values_csv_takes_only_its_first_row_as_a_header(capsys, tmp_path, rows, bad):
    """Every row whose index was not an integer was skipped as a header; only
    the first row (past blank and comment rows) may be one now."""
    args = _path_graph_files(tmp_path)
    (tmp_path / "u.csv").write_text(rows)
    code = main(["verify"] + args + ["--p", "2", "--q", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (f"error: {tmp_path / 'u.csv'}: bad index in row {bad!r} (only the first "
                   f"row may be a header)\n")


def test_values_csv_header_may_follow_comments(capsys, tmp_path):
    args = _path_graph_files(tmp_path)
    (tmp_path / "u.csv").write_text("# values\n\nvertex,value\n0,3\n1,2\n2,1\n")
    code = main(["verify"] + args + ["--p", "2", "--q", "1"])
    out, _ = capsys.readouterr()
    assert code in (0, 1) and out.startswith("{")


@pytest.mark.parametrize("header, field", [
    ("radial N=3 N=5 horizon=2", "N"),
    ("radial N=3 horizon=2 horizon=3", "horizon"),
    ("radial horizon=2 two-sided N=3 N=3", "N"),
])
def test_radial_header_with_a_repeated_field_is_usage_error(capsys, tmp_path, header, field):
    """`radial N=3 N=5 horizon=3` read as N=5, the last of the two."""
    (tmp_path / "tree.txt").write_text(header + "\n0 1\n1 1\n2 1\n")
    (tmp_path / "u.csv").write_text("0,4\n1,3\n2,2\n3,1\n")
    code = main(["verify", "--graph", str(tmp_path / "tree.txt"), "--u",
                 str(tmp_path / "u.csv"), "--p", "2", "--q", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: radial header repeats the field {field}=: {header!r}\n"


@pytest.mark.parametrize("header, field", [
    ("radial N=3 horizon=2 Nn=7", "Nn"),
    ("radial Horizon=3 N=3 horizon=2", "Horizon"),
    ("radial N=3 horizon=2 two-sided=1", "two-sided"),
])
def test_radial_header_with_an_unknown_field_is_usage_error(capsys, tmp_path, header, field):
    """`radial N=3 horizon=2 Nn=7` read as N=3, the misspelt field unseen."""
    (tmp_path / "tree.txt").write_text(header + "\n0 1\n1 1\n2 1\n")
    (tmp_path / "u.csv").write_text("0,4\n1,3\n2,2\n")
    code = main(["verify", "--graph", str(tmp_path / "tree.txt"), "--u",
                 str(tmp_path / "u.csv"), "--p", "2", "--q", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: radial header has the unknown field {field}=: {header!r}\n"


COMMANDS = ("classify", "construct", "verify", "estimate", "volume", "descend")


@pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name in COMMANDS])
def test_help_is_that_of_the_parser_with_every_command(capsys, argv):
    """`main` adds arguments only to the command it runs; the help it
    prints is the full parser's, word for word."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    got = capsys.readouterr().out
    assert exc.value.code == 0 and got.startswith("usage: liouville")
    with pytest.raises(SystemExit):
        build_parser(list(COMMANDS)).parse_args(argv)
    assert got == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--precision-bits", "1", "verify", "--graph", "g.txt", "--u", "u.csv"],
    ["--precision-bits", "x", "construct"],
    ["bogus", "verify"],
    ["classify", "verify"],
    [],
])
def test_main_parser_errors_are_those_of_the_parser_with_every_command(capsys, argv):
    """`main` makes a subparser only for a command argv names; the main
    parser's usage, its choices and its errors still list all six."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    got = capsys.readouterr()
    assert exc.value.code == 2 and got.out == "" and got.err.startswith("usage: liouville")
    with pytest.raises(SystemExit):
        build_parser(list(COMMANDS)).parse_args(argv)
    assert got.err == capsys.readouterr().err


# ---------------------------------------------------------------------------
# one input path: the line rule, the byte order mark, the arm markers

ONE_SIDED = ("radial N=3 horizon=3\n0 1\n1 2\n2 3\n3 4\n", "0,4\n1,3\n2,2\n3,1\n")
PATH_GRAPH = ("graph v=3\n0 1 1\n1 2 1\n", "vertex,value\n0,3\n1,2\n2,1\n")
TWO_SIDED = ("radial N=3 horizon=2 two-sided\narm +\n0 1\n1 2\narm -\n-1 1\n-2 2\n",
             "layer,value\n-2,1\n-1,2\n0,3\n1,2\n2,1\n")


def _verify_files(capsys, tmp_path, graph: str, values: str):
    """(exit code, stdout, stderr) of `verify` on the two texts, UTF-8 encoded."""
    (tmp_path / "g.txt").write_bytes(graph.encode())
    (tmp_path / "u.csv").write_bytes(values.encode())
    code = main(_verify_args(tmp_path / "g.txt", tmp_path / "u.csv"))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("files", [ONE_SIDED, PATH_GRAPH, TWO_SIDED],
                         ids=["one-sided", "graph", "two-sided"])
@pytest.mark.parametrize("which", ["graph", "values"])
def test_a_leading_byte_order_mark_is_dropped(capsys, tmp_path, files, which):
    """A BOM sent a tree file to the graph reader (`bad graph header:
    '\\ufeffradial ...'`), and made a values CSV without a header lose its
    first row as the header (`values missing for layers [0]`)."""
    expected = _verify_files(capsys, tmp_path, *files)
    graph, values = files
    if which == "graph":
        graph = "\ufeff" + graph
    else:
        values = "\ufeff" + values.removeprefix("vertex,value\n").removeprefix("layer,value\n")
    got = _verify_files(capsys, tmp_path, graph, values)
    assert expected[0] in (0, 1) and expected[2] == ""
    assert got == expected


@pytest.mark.parametrize("line, message", [
    ("armada 5 7 x", "bad shell line: 'armada 5 7 x'"),
    ("arm", "bad shell line: 'arm'"),
    ("arm 5", "bad shell line (needs an integer index and a number): 'arm 5'"),
    ("arm +-", "bad shell line (needs an integer index and a number): 'arm +-'"),
])
def test_only_the_two_arm_markers_are_skipped(capsys, tmp_path, line, message):
    """Every line that started with "arm" was skipped, so a mistyped shell
    line went unnoticed and `verify` ran on the rest."""
    graph = ONE_SIDED[0].replace("1 2\n", f"{line}\n1 2\n")
    code, out, err = _verify_files(capsys, tmp_path, graph, ONE_SIDED[1])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("blank", ["   ", "\t", " \t ", ",", " , \t"])
def test_a_values_csv_row_of_blank_fields_is_skipped(capsys, tmp_path, blank):
    """A whitespace-only row was read as a bad index (`bad index in row
    ['   ']`), or as the header when it came first; it is skipped as a
    blank line is, so the header may follow it."""
    expected = _verify_files(capsys, tmp_path, *PATH_GRAPH)
    values = PATH_GRAPH[1]
    for spliced in (f"{blank}\n{values}", values.replace("1,2\n", f"1,2\n{blank}\n")):
        assert _verify_files(capsys, tmp_path, PATH_GRAPH[0], spliced) == expected


def test_estimate_on_a_disconnected_graph_reads_the_cutoff_as_0_off_the_base(capsys,
                                                                             tmp_path):
    """It exited 2 with `distance must be nonnegative`."""
    (tmp_path / "g.txt").write_text("graph v=4\n0 1 1\n2 3 1\n")
    (tmp_path / "u.csv").write_text("0,3\n1,2\n2,3\n3,2\n")
    code = main(["estimate", "--graph", str(tmp_path / "g.txt"), "--u", str(tmp_path / "u.csv"),
                 "--phi", "h:1", "--s", "7", "--t", "1/2", "--p", "2", "--q", "1", "--p0", "2"])
    out, err = capsys.readouterr()
    assert code in (0, 1, 3) and out.startswith("{"), err


_FILLER = st.sampled_from(["", " ", "\t", " \t  ", "#", "# note", "  # a comment, with a comma",
                           "\t#x"])
_INSERTS = st.lists(st.tuples(st.integers(0, 99), _FILLER), max_size=6)


def _spliced_lines(text: str, inserts) -> str:
    lines = text.splitlines()
    for at, line in inserts:
        lines.insert(at % (len(lines) + 1), line)
    return "\n".join(lines) + "\n"


@settings(max_examples=120, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files=st.sampled_from([ONE_SIDED, PATH_GRAPH, TWO_SIDED]), graph_inserts=_INSERTS,
       value_inserts=_INSERTS, boms=st.tuples(st.booleans(), st.booleans()))
def test_blank_and_comment_lines_and_a_bom_leave_verify_unchanged(capsys, tmp_path, files,
                                                                  graph_inserts, value_inserts,
                                                                  boms):
    """Blank, whitespace-only and `#` comment lines anywhere in either file,
    and a leading BOM on either, leave `verify`'s output byte for byte."""
    expected = _verify_files(capsys, tmp_path, *files)
    graph, values = (("\ufeff" if bom else "") + _spliced_lines(text, inserts)
                     for text, inserts, bom in zip(files, (graph_inserts, value_inserts), boms))
    assert _verify_files(capsys, tmp_path, graph, values) == expected


@pytest.mark.parametrize("files, message", [
    ((ONE_SIDED[0].replace("\n3 4\n", "\n0_3 4\n"), ONE_SIDED[1]),
     "bad shell line (needs an integer index and a number): '0_3 4'"),
    ((PATH_GRAPH[0].replace("1 2 1", "1 2_0 1"), PATH_GRAPH[1]),
     "bad vertex id in line: '1 2_0 1'"),
    ((ONE_SIDED[0], ONE_SIDED[1].replace("3,1", "0_3,1")),
     "{u}: bad index in row ['0_3', '1'] (only the first row may be a header)"),
])
def test_an_index_with_a_digit_separator_is_usage_error(capsys, tmp_path, files, message):
    """int() reads "0_3" as 3, so `0_3 4` was shell 3, `0_3,1` layer 3 and
    `1 2_0 1` an edge to vertex 20, where a value with a separator exits 2."""
    code, out, err = _verify_files(capsys, tmp_path, *files)
    assert (code, out, err) == (2, "", f"error: {message.format(u=tmp_path / 'u.csv')}\n")


@pytest.mark.parametrize("files, message", [
    ((ONE_SIDED[0].replace("horizon=3", "horizon=0_3"), ONE_SIDED[1]),
     "radial header needs integer N= and horizon=: 'radial N=3 horizon=0_3'"),
    ((ONE_SIDED[0].replace("N=3", "N=0_3"), ONE_SIDED[1]),
     "radial header needs integer N= and horizon=: 'radial N=0_3 horizon=3'"),
    ((PATH_GRAPH[0].replace("v=3", "v=0_3"), PATH_GRAPH[1]),
     "bad vertex count in header: 'graph v=0_3'"),
])
def test_a_header_count_with_a_digit_separator_is_usage_error(capsys, tmp_path, files,
                                                              message):
    """A header's count is read as an index is: int() read `horizon=0_3` as
    3 and `v=0_3` as 3 vertices, and verify ran to a report."""
    code, out, err = _verify_files(capsys, tmp_path, *files)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("files", [
    (ONE_SIDED[0].replace("\n1 2\n", "\n+1 2\n").replace("\n2 3\n", "\n\u0662\t3.0\n"),
     ONE_SIDED[1].replace("1,3", "01,3").replace("2,2", " \u0662 ,2")),
    (PATH_GRAPH[0].replace("1 2 1", "+1\t\u0662 1.0e0"), PATH_GRAPH[1].replace("2,1", "+2,1")),
])
def test_every_other_index_spelling_int_reads_is_read(capsys, tmp_path, files):
    """A sign, a leading zero, non-ASCII digits, a tab: the lines the line
    patterns do not match are read as before."""
    canonical = ONE_SIDED if files[0].startswith("radial") else PATH_GRAPH
    assert _verify_files(capsys, tmp_path, *files) == _verify_files(capsys, tmp_path, *canonical)


def _exact(positive: bool):
    """An exact mpf: a 1- to 160-bit mantissa times 2^e, |e| up to 9000
    (decimal exponents on both sides of 400, both signs)."""
    sign = st.just(0) if positive else st.sampled_from([0, 1])
    return st.builds(lambda s, man, e: mp.make_mpf(from_man_exp(-man if s else man, e)),
                     sign, st.integers(1, 2 ** 160), st.integers(-9000, 9000))


@st.composite
def _certificates(draw):
    """(kind, weights, values) of a one-sided tree, a two-sided tree or a
    path graph, with values of either sign and zeros."""
    kind = draw(st.sampled_from(["one-sided", "two-sided", "graph"]))
    H = draw(st.integers(1, 5))
    n_weights, n_values = {"one-sided": (H + 1, H + 1), "two-sided": (2 * H, 2 * H + 1),
                           "graph": (H, H + 1)}[kind]
    weights = draw(st.lists(_exact(True), min_size=n_weights, max_size=n_weights))
    values = draw(st.lists(_exact(False) | st.just(mp.mpf(0)), min_size=n_values,
                           max_size=n_values))
    return kind, weights, values


def _certificate_texts(kind, weight_texts, value_texts):
    """The tree or graph file and the values CSV holding the given numbers."""
    k = len(weight_texts)
    if kind == "graph":
        graph = [f"graph v={k + 1}", *(f"{i} {i + 1} {t}" for i, t in enumerate(weight_texts))]
        lo = 0
    elif kind == "one-sided":
        graph = [f"radial N=3 horizon={k - 1}", *map("{} {}".format, range(k), weight_texts)]
        lo = 0
    else:
        H = k // 2
        graph = [f"radial N=3 horizon={H} two-sided", "arm +",
                 *map("{} {}".format, range(H), weight_texts[:H]), "arm -",
                 *map("{} {}".format, range(-1, -H - 1, -1), weight_texts[H:])]
        lo = -H
    values = ["layer,value", *map("{},{}".format, range(lo, lo + len(value_texts)), value_texts)]
    return "\n".join(graph) + "\n", "\n".join(values) + "\n"


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(certificate=_certificates(), strip=st.booleans())
def test_certificate_files_read_back_with_the_bits_of_mpf(tmp_path, certificate, strip):
    """Trees, graphs and values written at 40 digits and at mpmath's repr
    digits read through `main`'s loader with mp.mpf(text)'s bits, and its
    reprs (the sign an int), at 53, 128, 256 and 1024 bits: the radial line
    pattern, the CSV field match and the graph reader all reach the kernel
    or mp.mpf with what mp.mpf would read."""
    kind, weights, values = certificate
    for bits in (53, 128, 256, 1024):
        for digits in sorted({40, repr_dps(bits)}):
            texts = [[mp.nstr(x, digits, strip_zeros=strip) for x in xs]
                     for xs in (weights, values)]
            graph, csv_text = _certificate_texts(kind, *texts)
            (tmp_path / "g.txt").write_text(graph)
            (tmp_path / "u.csv").write_text(csv_text)
            with mp.workprec(bits):
                obj, u = cli._load_pair(argparse.Namespace(graph=str(tmp_path / "g.txt"),
                                                           u=str(tmp_path / "u.csv")))
                if kind == "graph":
                    got_weights = [w for _, w in obj.edges()]
                elif kind == "one-sided":
                    got_weights = [obj.weight(n) for n in range(len(weights))]
                else:
                    H = len(weights) // 2
                    got_weights = [obj.weight(n) for n in [*range(H), *range(-1, -H - 1, -1)]]
                want = [[repr(mp.mpf(t)._mpf_) for t in ts] for ts in texts]
                got = [[repr(x._mpf_) for x in xs] for xs in (got_weights, u.values())]
            assert got == want, (bits, digits)


# ---------------------------------------------------------------------------
# an option the run cannot read, a values row for an index the file lacks

V1_VOLUME = ["volume", "--regime", "V1", "--p", "1/2", "--q", "1/2", "--lam", "1", "--N", "3",
             "--n-lo", "4", "--n-hi", "30"]


@pytest.mark.parametrize("args, message", [
    (["construct", "--regime", "I", "--p", "2", "--q", "1", "--eps", "1/10", "--horizon", "50",
      "--n0", "8"], "regime I reads --n0 only with --delta (without it the search picks n0)"),
    (["construct", "--regime", "II", "--p", "0", "--q", "3", "--eps", "1/2", "--horizon", "50",
      "--delta", "5"], "regime II does not read --delta"),
    (["construct", "--regime", "IV", "--p", "-2", "--q", "1", "--lam", "1", "--horizon", "50",
      "--eps", "1/3"], "regime IV does not read --eps"),
    (["construct", "--regime", "I", "--p", "2", "--q", "1", "--eps", "1/10", "--horizon", "50",
      "--lam", "7"], "regime I does not read --lam"),
    (["construct", "--regime", "V1", "--p", "1/2", "--q", "1/2", "--horizon", "50",
      "--eps", "1/10"], "regime V1 does not read --eps"),
    (V1_VOLUME + ["--delta", "9", "--n0", "77"], "regime V1 does not read --delta"),
    (V1_VOLUME + ["--n0", "77"], "regime V1 does not read --n0"),
    (["volume", "--regime", "I", "--p", "2", "--q", "1", "--eps", "1/10", "--n-lo", "16",
      "--n-hi", "64", "--delta", "9"],
     "volume does not read --delta: volumes depend only on the weights"),
    (["verify", "FILES", "--p", "2", "--q", "1", "--horizon", "0"],
     "--horizon applies only to a radial tree; a graph is checked at every vertex"),
    (["descend", "FILES", "--p", "2"], "descend reads --p and --q only together"),
    (["descend", "FILES", "--q", "1"], "descend reads --p and --q only together"),
], ids=["construct I n0 without delta", "construct II delta", "construct IV eps",
        "construct I lam", "construct V1 eps", "volume V1 delta and n0", "volume V1 n0",
        "volume I delta", "verify graph horizon", "descend p alone", "descend q alone"])
def test_an_option_the_run_cannot_read_exits_2(capsys, tmp_path, args, message):
    """Each of these exited 0 (or 1) with the option dropped: the report of
    the run without it, or a spec that echoed a value no step read."""
    files = _path_graph_files(tmp_path)
    args = [a for arg in args for a in (files if arg == "FILES" else [arg])]
    code = main(args)
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {message}\n")


# What `construct` and `volume` do given one build option alone, written out
# by hand: "reads" (the run goes on to the region check, since (p, q) is
# outside the regime's region), "unread" (the regime does not read it),
# "pin" (construct reads --n0 only beside --delta), "weights" (volume never
# reads --delta) or "lam" (volume needs --lam first).
OPTION_POLICY = {   # regime: {option: (construct, volume)}
    "I": {"eps": ("reads", "reads"), "lam": ("unread", "unread"),
          "delta": ("reads", "weights"), "n0": ("pin", "reads")},
    "II": {"eps": ("reads", "reads"), "lam": ("unread", "unread"),
           "delta": ("unread", "unread"), "n0": ("reads", "reads")},
    "III": {"eps": ("reads", "reads"), "lam": ("unread", "unread"),
            "delta": ("reads", "weights"), "n0": ("pin", "reads")},
    "IV": {"eps": ("unread", "unread"), "lam": ("reads", "reads"),
           "delta": ("reads", "weights"), "n0": ("pin", "lam")},
    "V1": {"eps": ("unread", "unread"), "lam": ("reads", "reads"),
           "delta": ("unread", "unread"), "n0": ("unread", "unread")},
    "V2": {"eps": ("unread", "unread"), "lam": ("reads", "reads"),
           "delta": ("unread", "unread"), "n0": ("unread", "unread")},
}
OPTION_VALUES = {"eps": "1/3", "lam": "1", "delta": "1/2", "n0": "8"}
POLICY_CASES = [(command, regime, option, outcomes[k])
                for k, command in enumerate(["construct", "volume"])
                for regime, row in OPTION_POLICY.items() for option, outcomes in row.items()]


@pytest.mark.parametrize("command, regime, option, outcome", POLICY_CASES,
                         ids=["-".join(case[:3]) for case in POLICY_CASES])
def test_each_regime_reads_its_build_options(capsys, command, regime, option, outcome):
    p, q = ("2", "1") if regime == "IV" else ("-2", "1")
    code = main([command, "--regime", regime, "--p", p, "--q", q,
                 f"--{option}", OPTION_VALUES[option]])
    message = {
        "reads": f"(p,q)=({p},{q}) is not in the exponent region of regime {regime}",
        "unread": f"regime {regime} does not read --{option}",
        "pin": f"regime {regime} reads --n0 only with --delta (without it the search picks n0)",
        "weights": "volume does not read --delta: volumes depend only on the weights",
        "lam": f"regime {regime} volume needs --lam",
    }[outcome]
    assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")


def regime_names(tree) -> list:
    """String constants equal to a regime's name, as "line name"."""
    return sorted(f"{n.lineno} {n.value}" for n in ast.walk(tree) if isinstance(n, ast.Constant)
                  and n.value in ("I", "II", "III", "IV", "V1", "V2"))


def names_outside_table(tree) -> list:
    """`regime_names` of a module outside its `RECIPES = ...` statement."""
    table = next(n for n in tree.body if isinstance(n, ast.Assign)
                 and [getattr(t, "id", None) for t in n.targets] == ["RECIPES"])
    return [name for name in regime_names(tree)
            if not table.lineno <= int(name.split()[0]) <= table.end_lineno]


def test_counterexamples_names_no_regime_outside_its_table():
    """Each family's closed forms are its `RECIPES` entry, so no function of
    counterexamples.py compares a regime name: one named outside the table
    is a branch on it."""
    source = Path(lv.counterexamples.__file__).read_text()
    assert names_outside_table(ast.parse(source)) == []
    source = 'RECIPES = {"I": 1,\n           "II": 2}\nif regime == "III":\n    pass\n'
    assert names_outside_table(ast.parse(source)) == ["3 III"]


def test_cli_names_no_regime():
    """What each regime reads, searches and pins is `counterexamples.RECIPES`;
    a regime named in cli.py is a second statement of it."""
    assert regime_names(ast.parse(Path(cli.__file__).read_text())) == []
    source = 'if regime in ("IV", "V1"):\n    pin = {"II": "n0"}.get(regime, "delta")\n'
    assert regime_names(ast.parse(source)) == ["1 IV", "1 V1", "2 II"]


@pytest.mark.parametrize("files, rows, named", [
    (PATH_GRAPH, "7,5\n", "vertices the file does not have [7]"),
    (PATH_GRAPH, "9,1\n-1,1\n3,1\n12,1\n8,1\n4,1\n",
     "vertices the file does not have [-1, 3, 4, 8, 9]"),
    (ONE_SIDED, "4,1\n", "layers the file does not have [4]"),
    (TWO_SIDED, "-3,1\n3,1\n", "layers the file does not have [-3, 3]"),
], ids=["graph", "graph, five of six", "one-sided", "two-sided"])
def test_a_values_row_for_an_index_the_file_lacks_exits_2(capsys, tmp_path, files, rows, named):
    """On the 3-vertex path a row `7,5` was read and dropped without a word."""
    code, out, err = _verify_files(capsys, tmp_path, files[0], files[1] + rows)
    assert (code, out, err) == (2, "", f"error: values given for {named}\n")


# ---------------------------------------------------------------------------
# one output path: every report goes out through `_emit`

def envelope_outside_emit(tree):
    """Reads of SCHEMA, and "schema" or "command" keys of a dict, a subscript
    or a keyword, anywhere but in the function `_emit`, as "line what"."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "_emit":
            continue
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and n.id == "SCHEMA" and isinstance(n.ctx, ast.Load):
                found.append(f"{n.lineno} SCHEMA")
            keys = n.keys if isinstance(n, ast.Dict) else [n.slice] \
                if isinstance(n, ast.Subscript) else []
            found += [f"{k.lineno} {k.value} key" for k in keys
                      if isinstance(k, ast.Constant) and k.value in ("schema", "command")]
            if isinstance(n, ast.keyword) and n.arg in ("schema", "command"):
                found.append(f"{n.value.lineno} {n.arg} key")
    return found


def test_only_emit_writes_the_envelope():
    """A command that writes its own schema or name is a second envelope
    that a schema bump would have to find."""
    assert envelope_outside_emit(ast.parse(Path(cli.__file__).read_text())) == []
    source = ("SCHEMA = 1\nr = {'schema': SCHEMA, 'command': 'x'}\nr['command'] = 'y'\n"
              "d = dict(schema=1)\nsub = add_subparsers(dest='command')\n"
              "def _emit(args, report):\n    return {'schema': SCHEMA, **report}\n")
    assert envelope_outside_emit(ast.parse(source)) == [
        "2 schema key", "2 command key", "2 SCHEMA", "3 command key", "4 schema key"]


@pytest.mark.parametrize("command, args", [
    ("classify", ["--p", "2", "--q", "1"]),
    ("construct", ["--regime", "V1", "--p", "1/2", "--q", "1/2", "--N", "3", "--horizon", "12"]),
    ("verify", ["FILES", "--p", "2", "--q", "1"]),
    ("estimate", ["FILES", "--phi", "h:1", "--s", "7", "--t", "1/2", "--p", "2", "--q", "1",
                  "--p0", "2"]),
    ("volume", V1_VOLUME[1:]),
    ("descend", ["FILES", "--start", "0", "--steps", "2"]),
])
def test_every_command_reports_the_schema_and_its_name(capsys, tmp_path, command, args):
    files = _path_graph_files(tmp_path)
    args = [a for arg in args for a in (files if arg == "FILES" else [arg])]
    json_path = tmp_path / "report.json"
    main([command, *args, "--json", str(json_path)])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert (payload["schema"], payload["command"]) == (1, command)
    assert json_path.read_text() == out


def test_descend_takes_a_p0_beyond_the_screens_exponents(capsys, tmp_path):
    """`descend --p0 1e15000000000000` exits 0 with the report of the loop
    evaluating every margin in mpf (it raised a TypeError in the screen)."""
    tree = lv.RadialTree(3, [mp.mpf(2) ** k for k in range(12)])
    (tmp_path / "tree.txt").write_text(lv.format_radial_text(tree))
    (tmp_path / "u.csv").write_text("".join(f"{n},{2 ** -n}\n" for n in range(12)))
    code, payload = run_cli(capsys, "descend", "--graph", str(tmp_path / "tree.txt"), "--u",
                            str(tmp_path / "u.csv"), "--start", "1", "--steps", "5",
                            "--p0", "1e15000000000000")
    assert code == 0
    with lv.precision(128):
        u = lv.RadialFunction([mp.ldexp(1, -n) for n in range(12)])
        walk = lv.radial_descent_walk(tree, u, 1, 5)
        want = before_streams.walk_diagnostics(walk, mp.mpf("1e15000000000000"))
    for name in ("strict_decrease", "sandwich", "averaging", "gradient_ratio"):
        family = getattr(want, name)
        margin = family.worst_margin
        assert payload[name] == {"checked": family.checked, "holds": family.holds,
                                 "worst_margin": None if margin is None else lv.mpf_str(margin)}
    assert payload["gradient_ratio"]["checked"] == 5
