"""Command-line front end.

Subcommands: classify, construct, verify, estimate, volume, descend.
Reports are JSON (schema 1) on stdout, with optional --json/--csv file
output.  Real numbers are rendered as decimal strings at a fixed number of
significant digits, so identical configs at identical precision give
byte-identical reports.

Exit status: 0 success, 1 verification/certification failure, 2 bad
arguments or unreadable input, 3 mathematical hypotheses not met.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp

from . import counterexamples as cx
from . import descent as dsc
from .caccioppoli import TestFunction, estimate_sides, estimate_sides_radial
from .errors import CalibrationError, HypothesisNotMetError, InputError, LiouvilleError
from .graphs import GraphFunction, WeightedGraph, nash_williams_partial, parse_graph_text
from .numerics import (MIN_PRECISION_BITS, default_precision_bits, memo, mpf_str,
                       parse_decimal, precision)
from .radial import RadialFunction, parse_radial_text
from .regions import ON_LINE, choose_st, classify_g, classify_k, pq

SCHEMA = 1

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_HYPOTHESES = 3


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


# Options read by `_real`; `main` converts them at the run's precision.
_REAL_OPTIONS = ("lam", "delta", "p0")


def _real(text: str) -> str:
    """A decimal string (a/b rationals also accepted), checked here and
    kept as text: `main` converts it once the run's precision is set."""
    try:
        parse_decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a real number: {text!r}")
    return text


def _precision_bits(text: str) -> int:
    try:
        bits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if bits < MIN_PRECISION_BITS:
        raise argparse.ArgumentTypeError(f"must be at least {MIN_PRECISION_BITS}, got {bits}")
    return bits


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _emit(report: dict, path: str | None) -> None:
    payload = json.dumps(report, indent=2, sort_keys=True)
    print(payload)
    if path:
        Path(path).write_text(payload + "\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([mpf_str(c) if isinstance(c, mp.mpf) else c for c in row])


def _read_text(path: str) -> str:
    """The file's contents as UTF-8 text; other bytes are an input error."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})")


def _load_graph_file(path: str):
    text = _read_text(path)
    stripped = next((ln for ln in text.splitlines() if ln.strip()
                     and not ln.strip().startswith("#")), "")
    if stripped.startswith("radial"):
        return parse_radial_text(text)
    return parse_graph_text(text)


def _load_values_csv(path: str) -> dict[int, mp.mpf]:
    """Two-column CSV: vertex (or layer) index, value.  Header row optional."""
    values: dict[int, mp.mpf] = {}
    value = memo(parse_decimal)
    try:
        rows = list(csv.reader(io.StringIO(_read_text(path), newline="")))
    except csv.Error as exc:                # e.g. a field over the csv field limit
        raise InputError(f"{path}: {exc}")
    for row in rows:
        if not row or row[0].strip().startswith("#"):
            continue
        try:
            idx = int(row[0])
        except ValueError:
            continue  # header
        if len(row) < 2:
            raise InputError(f"{path}: row {row!r} needs an index and a value")
        try:
            values[idx] = value(row[1])
        except ValueError:
            raise InputError(f"{path}: bad value in row {row!r}")
    if not values:
        raise InputError(f"no values found in {path}")
    return values


def _graph_function(g: WeightedGraph, values: dict[int, mp.mpf]) -> GraphFunction:
    missing = [x for x in g.vertices() if x not in values]
    if missing:
        raise InputError(f"values missing for vertices {missing[:5]}")
    return GraphFunction([values[x] for x in g.vertices()])


def _radial_function(tree, values: dict[int, mp.mpf]) -> RadialFunction:
    lo, hi = tree.layer_lo, tree.layer_hi
    missing = [n for n in range(lo, hi + 1) if n not in values]
    if missing:
        raise InputError(f"values missing for layers {missing[:5]}")
    return RadialFunction([values[n] for n in range(lo, hi + 1)], lo=lo)


# ---------------------------------------------------------------------------
# classify


def _cmd_classify(args) -> int:
    point = pq(args.p, args.q)
    g_label = classify_g(point)
    k_label = classify_k(point)
    report = {
        "schema": SCHEMA,
        "command": "classify",
        "p": _frac_str(point.p),
        "q": _frac_str(point.q),
        "g": g_label,
        "k": k_label,
    }
    if k_label != ON_LINE:
        sel = choose_st(point)
        report["t_range"] = {
            "lo": _frac_str(sel.t_lo),
            "hi": None if sel.t_hi is None else _frac_str(sel.t_hi),
        }
        report["t_default"] = _frac_str(sel.t_default)
        report["s_min"] = _frac_str(sel.s_min)
        report["s_default"] = _frac_str(sel.s_default)
    _emit(report, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct


def _spec_dict(spec: cx.RegimeSpec) -> dict:
    return {
        "regime": spec.regime,
        "p": _frac_str(spec.p),
        "q": _frac_str(spec.q),
        "N": spec.N,
        "horizon": spec.horizon,
        "eps": None if spec.eps is None else _frac_str(spec.eps),
        "lam": None if spec.lam is None else mpf_str(spec.lam),
        "n0": spec.n0,
        "delta": None if spec.delta is None else mpf_str(spec.delta),
    }


def _certify(args) -> cx.Certificate:
    """Certify the spec pinned on the command line (delta for I/III/IV, n0
    for II, lam for V), or else the one the calibration search accepts."""
    point = pq(args.p, args.q)
    regime = args.regime
    if regime == "IV" and args.lam is None:
        raise InputError("regime IV needs --lam")
    pinned = {
        "I": args.delta is not None,
        "II": args.n0 is not None,
        "III": args.delta is not None,
        "IV": args.delta is not None,
        "V1": args.lam is not None,
        "V2": args.lam is not None,
    }[regime]
    if pinned:
        return cx.certify_spec(cx.RegimeSpec(
            regime=regime, p=point.p, q=point.q, N=args.N, horizon=args.horizon,
            eps=args.eps, lam=args.lam,
            n0=args.n0 if args.n0 is not None else 2,
            delta=args.delta,
        ))
    return cx.certify(regime, point, N=args.N, horizon=args.horizon,
                      eps=args.eps, lam=args.lam)


def _cmd_construct(args) -> int:
    cert = _certify(args)
    spec, built, report, tail = cert.spec, cert.built, cert.report, cert.tail
    band = None
    v_hi = min(args.volume_hi, spec.horizon)
    if v_hi >= args.volume_lo >= 2:
        vb = cx.volume_band(built, cx.volume_target(spec), args.volume_lo, v_hi)
        band = {"n_lo": args.volume_lo, "n_hi": v_hi,
                "ratio_min": mpf_str(vb.ratio_min), "ratio_max": mpf_str(vb.ratio_max),
                "spread": mpf_str(vb.spread)}
    payload = {
        "schema": SCHEMA,
        "command": "construct",
        "spec": _spec_dict(spec),
        "verified": report.verified,
        "max_margin": mpf_str(report.max_margin),
        "worst_layer": report.worst_layer,
        "layers": list(report.layers),
        "certificate": tail.label if tail.ok else report.label,
        "tail": {
            "ok": tail.ok,
            "window": list(tail.window),
            "min_value": mpf_str(tail.min_value),
            "required": mpf_str(tail.required),
        },
        "volume_band": band,
        "precision_bits": report.precision_bits,
    }
    _emit(payload, args.json)
    if args.csv:
        _write_csv(args.csv, ["layer", "w", "u", "laplacian", "grad", "margin"],
                   cx.layer_rows(built))
    return EXIT_OK if cert.ok else EXIT_FAILED


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    obj = _load_graph_file(args.graph)
    values = _load_values_csv(args.u)
    point = pq(args.p, args.q)
    if isinstance(obj, WeightedGraph):
        u = _graph_function(obj, values)
        report = cx.verify_graph(obj, u, point.p, point.q)
    else:
        u = _radial_function(obj, values)
        report = cx.verify_radial(obj, u, point.p, point.q, horizon=args.horizon)
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "verified": report.verified,
        "max_margin": mpf_str(report.max_margin),
        "worst_layer": report.worst_layer,
        "layers": list(report.layers),
        "n_layers": report.n_layers,
        "undefined_layers": list(report.undefined_layers),
        "precision_bits": report.precision_bits,
        "label": report.label,
    }
    _emit(payload, args.json)
    return EXIT_OK if report.verified else EXIT_FAILED


# ---------------------------------------------------------------------------
# estimate


def _cmd_estimate(args) -> int:
    obj = _load_graph_file(args.graph)
    values = _load_values_csv(args.u)
    tf = TestFunction.parse(args.phi)
    point = pq(args.p, args.q)
    if isinstance(obj, WeightedGraph):
        u = _graph_function(obj, values)
        omega = None
        if args.omega != "all":
            try:
                omega = [int(tok) for tok in args.omega.split(",")]
            except ValueError:
                raise InputError(f"--omega needs 'all' or comma-separated vertex ids, "
                                 f"got {args.omega!r}")
        report = estimate_sides(obj, u, args.base, tf, args.s, args.t, point,
                                args.p0, variant=args.variant, omega=omega)
    elif obj.one_sided:
        u = _radial_function(obj, values)
        if args.omega != "all":
            raise InputError("radial estimates support only --omega all")
        report = estimate_sides_radial(obj, u, tf, args.s, args.t, point,
                                       p0=args.p0, variant=args.variant)
    else:
        raise InputError("estimate expects an edge-list graph or a one-sided radial tree")
    payload = {
        "schema": SCHEMA,
        "command": "estimate",
        "variant": report.variant,
        "lhs": mpf_str(report.lhs),
        "rhs": mpf_str(report.rhs),
        "holds": report.holds,
        "hypotheses_ok": report.hypotheses_ok,
        "hypothesis_failures": list(report.hypothesis_failures),
        "C": mpf_str(report.constants.C),
        "C_prime": mpf_str(report.constants.C_prime),
        "s": _frac_str(report.s),
        "t": _frac_str(report.t),
        "p0": mpf_str(report.p0),
        "omega": report.omega,
        "edge_sum": mpf_str(report.edge_sum),
        "middle_factor": mpf_str(report.middle_factor) if report.middle_factor is not None else None,
    }
    _emit(payload, args.json)
    if not report.hypotheses_ok:
        return EXIT_HYPOTHESES
    return EXIT_OK if report.holds else EXIT_FAILED


# ---------------------------------------------------------------------------
# volume


def _cmd_volume(args) -> int:
    point = pq(args.p, args.q)
    regime = args.regime
    delta = args.delta
    if regime in ("I", "III", "IV") and delta is None:
        delta = mp.mpf(1)  # volumes depend only on the weights
    lam = args.lam
    if regime in ("V1", "V2") and lam is None:
        raise InputError(f"regime {regime} volume needs --lam")
    if regime == "IV" and lam is None:
        raise InputError("regime IV volume needs --lam")
    horizon = max(args.n_hi + 1, 2)
    spec = cx.RegimeSpec(regime=regime, p=point.p, q=point.q, N=args.N,
                         horizon=horizon, eps=args.eps, lam=lam,
                         n0=args.n0, delta=delta)
    built = cx.build(spec)
    target = cx.volume_target(spec)
    if args.exponent_offset and isinstance(target, cx.PowerLogLaw):
        target = cx.PowerLogLaw(target.expo + args.exponent_offset, target.logexp)
    elif args.exponent_offset:
        base_target = target
        off = mp.mpf(args.exponent_offset)
        target = lambda n: base_target(n) * mp.mpf(n) ** off
    window = cx._band_window(args.n_lo, args.n_hi)
    vols = built.tree.ball_volumes(args.n_hi)
    band = cx._volume_band(vols, target, window)
    payload = {
        "schema": SCHEMA,
        "command": "volume",
        "spec": _spec_dict(spec),
        "n_lo": args.n_lo,
        "n_hi": args.n_hi,
        "exponent_offset": args.exponent_offset,
        "ratio_min": mpf_str(band.ratio_min),
        "ratio_max": mpf_str(band.ratio_max),
        "spread": mpf_str(band.spread),
    }
    if args.nash_williams:
        payload["nash_williams_partial"] = mpf_str(
            nash_williams_partial(lambda n: vols[n], args.n_hi))
    _emit(payload, args.json)
    if args.csv:
        rows = []
        for n in window:
            t = target(n)
            rows.append((n, vols[n], t, vols[n] / t))
        _write_csv(args.csv, ["n", "volume", "target", "ratio"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# descend


def _cmd_descend(args) -> int:
    obj = _load_graph_file(args.graph)
    values = _load_values_csv(args.u)
    point = pq(args.p, args.q) if args.p is not None and args.q is not None else None
    if isinstance(obj, WeightedGraph):
        u = _graph_function(obj, values)
        walk = dsc.descent_walk(obj, u, args.start, args.steps)
    else:
        u = _radial_function(obj, values)
        walk = dsc.radial_descent_walk(obj, u, start_layer=args.start,
                                       max_steps=args.steps)
    diag = dsc.walk_diagnostics(walk, p0=args.p0, point=point)

    def fam(f):
        if f is None:
            return None
        return {"checked": f.checked, "holds": f.holds,
                "worst_margin": mpf_str(f.worst_margin) if f.worst_margin is not None else None}

    payload = {
        "schema": SCHEMA,
        "command": "descend",
        "n_sites": diag.n_sites,
        "termination": walk.termination,
        "revisit_flagged": walk.revisit_flagged,
        "strict_decrease": fam(diag.strict_decrease),
        "sandwich": fam(diag.sandwich),
        "averaging": fam(diag.averaging),
        "gradient_ratio": fam(diag.gradient_ratio),
        "pointwise_power": fam(diag.pointwise_power),
        "solution_sites": diag.solution_sites,
    }
    _emit(payload, args.json)
    if args.csv:
        rows = ((s.site, s.u, s.lap, s.grad, s.drop if s.drop is not None else "")
                for s in walk.steps)
        _write_csv(args.csv, ["site", "u", "laplacian", "grad", "drop"], rows)
    ok = diag.strict_decrease.holds and diag.averaging.holds and not walk.revisit_flagged
    return EXIT_OK if ok else EXIT_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liouville",
        description="Verification tools for Delta u + u^p |grad u|^q <= 0 on weighted graphs",
    )
    parser.add_argument("--precision-bits", type=_precision_bits, default=None,
                        help="working significand size (default: env or 128)")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify an exponent pair")
    c.add_argument("--p", type=_fraction, required=True)
    c.add_argument("--q", type=_fraction, required=True)
    c.add_argument("--json", default=None)
    c.set_defaults(fn=_cmd_classify)

    def common_build_args(sp, volume=False):
        sp.add_argument("--regime", required=True,
                        choices=list(cx.REGIMES))
        sp.add_argument("--p", type=_fraction, required=True)
        sp.add_argument("--q", type=_fraction, required=True)
        sp.add_argument("--eps", type=_fraction, default=None)
        sp.add_argument("--lam", type=_real, default=None)
        sp.add_argument("--N", type=int, default=3)
        sp.add_argument("--n0", type=int, default=None if not volume else 2)
        sp.add_argument("--delta", type=_real, default=None)
        sp.add_argument("--json", default=None)
        sp.add_argument("--csv", default=None)

    c = sub.add_parser("construct", help="build, calibrate, and verify a counterexample")
    common_build_args(c)
    c.add_argument("--horizon", type=int, default=10000)
    c.add_argument("--volume-lo", type=int, default=16)
    c.add_argument("--volume-hi", type=int, default=4096)
    c.set_defaults(fn=_cmd_construct)

    c = sub.add_parser("verify", help="margin check for a stored graph or tree + values")
    c.add_argument("--graph", required=True)
    c.add_argument("--u", required=True)
    c.add_argument("--p", type=_fraction, required=True)
    c.add_argument("--q", type=_fraction, required=True)
    c.add_argument("--horizon", type=int, default=None)
    c.add_argument("--json", default=None)
    c.set_defaults(fn=_cmd_verify)

    c = sub.add_parser("estimate", help="evaluate one energy estimate")
    c.add_argument("--graph", required=True)
    c.add_argument("--u", required=True)
    c.add_argument("--phi", required=True, help="test function, e.g. phi:3 or h:8")
    c.add_argument("--s", type=_fraction, required=True)
    c.add_argument("--t", type=_fraction, required=True)
    c.add_argument("--p", type=_fraction, required=True)
    c.add_argument("--q", type=_fraction, required=True)
    c.add_argument("--p0", type=_real, required=True)
    c.add_argument("--variant", choices=["est1", "est2"], default="est2")
    c.add_argument("--base", type=int, default=0, help="base vertex of the cutoff")
    c.add_argument("--omega", default="all",
                   help='"all" or a comma-separated vertex list')
    c.add_argument("--json", default=None)
    c.set_defaults(fn=_cmd_estimate)

    c = sub.add_parser("volume", help="volume growth band for a construction")
    common_build_args(c, volume=True)
    c.add_argument("--n-lo", type=int, default=16)
    c.add_argument("--n-hi", type=int, default=4096)
    c.add_argument("--exponent-offset", type=int, default=0,
                   help="multiply the target by n^offset (wrong-target control)")
    c.add_argument("--nash-williams", action="store_true",
                   help="include the partial sum of n / volume(n)")
    c.set_defaults(fn=_cmd_volume)

    c = sub.add_parser("descend", help="greedy minimizing-neighbor walk + diagnostics")
    c.add_argument("--graph", required=True)
    c.add_argument("--u", required=True)
    c.add_argument("--start", type=int, default=0)
    c.add_argument("--steps", type=int, default=1000)
    c.add_argument("--p", type=_fraction, default=None)
    c.add_argument("--q", type=_fraction, default=None)
    c.add_argument("--p0", type=_real, default=None)
    c.add_argument("--json", default=None)
    c.add_argument("--csv", default=None)
    c.set_defaults(fn=_cmd_descend)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        bits = args.precision_bits or default_precision_bits()
    except ValueError as exc:            # a bad LIOUVILLE_PRECISION_BITS
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with precision(bits):
            for name in _REAL_OPTIONS:
                if getattr(args, name, None) is not None:
                    setattr(args, name, parse_decimal(getattr(args, name)))
            return args.fn(args)
    except HypothesisNotMetError as exc:
        print(f"hypotheses not met: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESES
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LiouvilleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
