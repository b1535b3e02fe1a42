import hashlib
import json
from fractions import Fraction as F

import mpmath as mp
import pytest

import liouville as lv
from liouville.cli import main


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
# report and tail.  A faster path must leave every byte as it was; III's
# report carries the known 128-bit precision-bump fault and stays as it is.
CONSTRUCT_DIGESTS = {
    "I": ("2", "1", ["--eps", "1/10"], 150,
          "82724c76455793c2a9951d6ed13a81414c6404e7fc2fbf47bcc5d9712fffedaa"),
    "II": ("0", "3", ["--eps", "1/2"], 270,
           "f8108bf8a246dbb88a65a3221eb84d2e2d5cc43d62978e7ebd66f5e12d4b8ba8"),
    "III": ("-1", "3/2", ["--eps", "1/10"], 125,
            "1ce614a3910838e9fe35ca20a1d34e7a58c69f70824e74235df510c3ad4206b5"),
    "IV": ("-2", "1", ["--lam", "1"], 600,
           "4ff546f267870a9b059fa92e6a404fa2321d55ec21d296672d22b34947558248"),
    "V1": ("1/2", "1/2", [], 460,
           "b694d09094e14e4fe315127b6e31c67b068616c6c8c0a54f21abf062028c2791"),
    "V2": ("2", "-1", [], 280,
           "56b22f661ca38a6d3abcb7ae6bdc2fcc099201b08e3b08def0e798fb684930e2"),
}


@pytest.mark.parametrize("regime", list(CONSTRUCT_DIGESTS))
def test_construct_report_digest(capsys, regime):
    p, q, extra, horizon, digest = CONSTRUCT_DIGESTS[regime]
    code = main(["--precision-bits", "128", "construct", "--regime", regime, "--p", p,
                 "--q", q, "--N", "3", "--horizon", str(horizon)] + extra)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("rows", ["0,1\n1\n", "0,1\n1,abc\n"])
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
    # not an id, an id past the graph, and a negative id that indexing would wrap
    for omega in ("0,a", "0,1,99", "0,1,-1"):
        code = main(["estimate", "--graph", str(tmp_path / "g.txt"),
                     "--u", str(tmp_path / "u.csv"), "--phi", "h:1", "--s", "7",
                     "--t", "1/2", "--p", "2", "--q", "1", "--p0", "2", "--omega", omega])
        err = capsys.readouterr().err
        assert code == 2, omega
        assert err.count("\n") == 1 and err.startswith("error:") and "omega" in err, err


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
    assert [r.split(",")[:2] for r in rows[1:]] == [[str(n), lv.mpf_str(vols[n])]
                                                     for n in range(4, 31)]
