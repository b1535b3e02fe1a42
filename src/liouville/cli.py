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
from functools import partial
from pathlib import Path

import mpmath as mp
from mpmath.libmp import repr_dps

from . import counterexamples as cx
from . import descent as dsc
from .caccioppoli import TestFunction, estimate_sides, estimate_sides_radial
from .errors import CalibrationError, HypothesisNotMetError, InputError, LiouvilleError
from .graphs import GraphFunction, WeightedGraph, nash_williams_partial, parse_graph_text
from .numerics import (MIN_PRECISION_BITS, content_lines, default_precision_bits, mpf_str,
                       parse_decimal, parse_index, precision)
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


def _emit(args, report: dict) -> None:
    """Print the report under the schema and the command's name, and write
    it to --json too when that is given."""
    payload = json.dumps({"schema": SCHEMA, "command": args.command, **report},
                         indent=2, sort_keys=True)
    print(payload)
    if args.json:
        Path(args.json).write_text(payload + "\n")


def _margin_fields(report: cx.MarginReport) -> dict:
    """The margin report's fields, as construct and verify print them."""
    return {"verified": report.verified, "max_margin": mpf_str(report.max_margin),
            "worst_layer": report.worst_layer, "layers": list(report.layers),
            "precision_bits": report.precision_bits}


def _band_fields(band: cx.VolumeBand) -> dict:
    """The volume band's fields, as construct and volume print them."""
    return {"ratio_min": mpf_str(band.ratio_min), "ratio_max": mpf_str(band.ratio_max),
            "spread": mpf_str(band.spread)}


def _write_csv(path: str, header: list[str], rows) -> None:
    digits = repr_dps(mp.mp.prec)       # mpmath's repr digits: cells read back with their bits
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([mpf_str(c, digits) if isinstance(c, mp.mpf) else c for c in row])


def _read_text(path: str) -> str:
    """The file's contents as UTF-8 text, a leading byte order mark
    dropped; other bytes are an input error."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})")


def _load_values_csv(path: str) -> dict[int, mp.mpf]:
    """Two-column CSV: vertex (or layer) index, value, each index once.
    The first row (past blank and comment rows) may be a header; a later
    row whose index is not an integer, or a row with more or fewer than
    two fields, is an input error."""
    values: dict[int, mp.mpf] = {}
    read: dict[str, mp.mpf] = {}        # each distinct field once: a ball's values repeat
    try:
        rows = list(csv.reader(io.StringIO(_read_text(path), newline="")))
    except csv.Error as exc:                # e.g. a field over the csv field limit
        raise InputError(f"{path}: {exc}")
    # `content_lines`' rule on each row's joined fields; only a row whose
    # first field is blank needs the join
    rows = [row for row in rows if (head := row and (row[0].strip() or "".join(row).strip()))
            and not head.startswith("#")]
    for k, row in enumerate(rows):
        try:
            idx = parse_index(row[0])
        except ValueError:
            if k == 0:
                continue                    # the header
            raise InputError(f"{path}: bad index in row {row!r} (only the first row "
                             f"may be a header)")
        if len(row) != 2:
            raise InputError(f"{path}: row {row!r} needs an index and a value, "
                             f"and nothing more")
        if idx in values:
            raise InputError(f"{path}: duplicate index {idx}")
        field = row[1]
        if (value := read.get(field)) is None:
            try:
                value = read[field] = parse_decimal(field)
            except ValueError:
                raise InputError(f"{path}: bad value in row {row!r}")
        values[idx] = value
    if not values:
        raise InputError(f"no values found in {path}")
    return values


def _load_pair(args):
    """(graph or tree, u) from the files --graph and --u.  The first content
    line of --graph picks its reader; u needs a value at every vertex of a
    graph, or at every layer of a tree, and at no other index."""
    text = _read_text(args.graph)
    if next(content_lines(text), "").startswith("radial"):
        obj = parse_radial_text(text)
        keys, what = range(obj.layer_lo, obj.layer_hi + 1), "layers"
        make = partial(RadialFunction, lo=obj.layer_lo)
    else:
        obj = parse_graph_text(text)
        keys, what, make = obj.vertices(), "vertices", GraphFunction
    values = _load_values_csv(args.u)
    missing = [k for k in keys if k not in values]
    if missing:
        raise InputError(f"values missing for {what} {missing[:5]}")
    if len(values) > len(keys):         # every key has its value, so some index is not a key
        extra = sorted(k for k in values if k not in keys)
        raise InputError(f"values given for {what} the file does not have {extra[:5]}")
    return obj, make([values[k] for k in keys])


# ---------------------------------------------------------------------------
# classify


def _cmd_classify(args) -> int:
    point = pq(args.p, args.q)
    g_label = classify_g(point)
    k_label = classify_k(point)
    report = {
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
    _emit(args, report)
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


def _refuse_unread_options(args) -> None:
    """An input error for a build option the run would drop: one its regime
    (`cx.RECIPES`) does not read, `volume --delta` (volumes depend only on
    the weights), or for `construct` a searched option without the pin."""
    regime, recipe = args.regime, cx.RECIPES[args.regime]
    for name in ("eps", "lam", "delta", "n0"):
        if getattr(args, name) is None:
            continue
        if name != recipe.param and name not in recipe.searched:
            raise InputError(f"regime {regime} does not read --{name}")
        if name == "delta" and args.command == "volume":
            raise InputError("volume does not read --delta: volumes depend only on the weights")
        pin = recipe.searched[-1]
        if args.command == "construct" and name in recipe.searched and getattr(args, pin) is None:
            raise InputError(f"regime {regime} reads --{name} only with --{pin} "
                             f"(without it the search picks {name})")


def _spec(args, horizon: int, delta) -> cx.RegimeSpec:
    return cx.RegimeSpec(regime=args.regime, p=args.p, q=args.q, N=args.N, horizon=horizon,
                         eps=args.eps, lam=args.lam, delta=delta,
                         n0=args.n0 if args.n0 is not None else 2)


def _cmd_construct(args) -> int:
    _refuse_unread_options(args)
    cx._band_window(args.volume_lo, args.volume_hi)     # a bad window exits 2, as in volume
    if getattr(args, cx.RECIPES[args.regime].searched[-1]) is not None:    # the pin
        cert = cx.certify_spec(_spec(args, args.horizon, args.delta))
    else:
        cert = cx.certify(args.regime, pq(args.p, args.q), N=args.N, horizon=args.horizon,
                          eps=args.eps, lam=args.lam)
    spec, built, report, tail = cert.spec, cert.built, cert.report, cert.tail
    band = None
    v_hi = min(args.volume_hi, spec.horizon)
    if v_hi >= args.volume_lo:          # else the horizon stops short of the window
        vb = cx.volume_band(built, cx.volume_target(spec), args.volume_lo, v_hi)
        band = {"n_lo": args.volume_lo, "n_hi": v_hi, **_band_fields(vb)}
    _emit(args, {
        "spec": _spec_dict(spec),
        **_margin_fields(report),
        "certificate": tail.label if tail.ok else report.label,
        "tail": {
            "ok": tail.ok,
            "window": list(tail.window),
            "min_value": mpf_str(tail.min_value),
            "required": mpf_str(tail.required),
        },
        "volume_band": band,
    })
    if args.csv:
        _write_csv(args.csv, ["layer", "w", "u", "laplacian", "grad", "margin"],
                   cx.layer_rows(built))
    return EXIT_OK if cert.ok else EXIT_FAILED


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    obj, u = _load_pair(args)
    point = pq(args.p, args.q)
    if isinstance(obj, WeightedGraph):
        if args.horizon is not None:
            raise InputError("--horizon applies only to a radial tree; a graph is checked "
                             "at every vertex")
        report = cx.verify_graph(obj, u, point.p, point.q)
    else:
        report = cx.verify_radial(obj, u, point.p, point.q, horizon=args.horizon)
    _emit(args, {
        **_margin_fields(report),
        "n_layers": report.n_layers,
        "undefined_layers": list(report.undefined_layers),
        "label": report.label,
    })
    return EXIT_OK if report.verified else EXIT_FAILED


# ---------------------------------------------------------------------------
# estimate


def _cmd_estimate(args) -> int:
    obj, u = _load_pair(args)
    tf = TestFunction.parse(args.phi)
    point = pq(args.p, args.q)
    if isinstance(obj, WeightedGraph):
        omega = None
        if args.omega != "all":
            try:
                omega = [parse_index(tok) for tok in args.omega.split(",")]
            except ValueError:
                raise InputError(f"--omega needs 'all' or comma-separated vertex ids, "
                                 f"got {args.omega!r}")
        report = estimate_sides(obj, u, args.base, tf, args.s, args.t, point,
                                args.p0, variant=args.variant, omega=omega)
    elif obj.one_sided:
        if args.omega != "all":
            raise InputError("radial estimates support only --omega all")
        if args.base != 0:
            raise InputError("radial estimates support only --base 0, the root")
        report = estimate_sides_radial(obj, u, tf, args.s, args.t, point,
                                       p0=args.p0, variant=args.variant)
    else:
        raise InputError("estimate expects an edge-list graph or a one-sided radial tree")
    _emit(args, {
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
    })
    if not report.hypotheses_ok:
        return EXIT_HYPOTHESES
    return EXIT_OK if report.holds else EXIT_FAILED


# ---------------------------------------------------------------------------
# volume


def _cmd_volume(args) -> int:
    _refuse_unread_options(args)
    recipe = cx.RECIPES[args.regime]
    if recipe.param == "lam" and args.lam is None:
        raise InputError(f"regime {args.regime} volume needs --lam")
    spec = _spec(args, max(args.n_hi + 1, 2),
                 mp.mpf(1) if "delta" in recipe.searched else None)
    window = cx._band_window(args.n_lo, args.n_hi)      # before the tree is built
    built = cx.build(spec)
    target = cx.volume_target(spec)
    if args.exponent_offset and isinstance(target, cx.PowerLogLaw):
        target = cx.PowerLogLaw(target.expo + args.exponent_offset, target.logexp)
    elif args.exponent_offset:
        base_target = target
        off = mp.mpf(args.exponent_offset)
        target = lambda n: base_target(n) * mp.mpf(n) ** off
    vols = built.tree.ball_volumes(args.n_hi)
    band = cx._volume_band(vols, target, window)
    payload = {
        "spec": _spec_dict(spec),
        "n_lo": args.n_lo,
        "n_hi": args.n_hi,
        "exponent_offset": args.exponent_offset,
        **_band_fields(band),
    }
    if args.nash_williams:
        payload["nash_williams_partial"] = mpf_str(
            nash_williams_partial(lambda n: vols[n], args.n_hi))
    _emit(args, payload)
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
    if (args.p is None) != (args.q is None):
        raise InputError("descend reads --p and --q only together")
    obj, u = _load_pair(args)
    point = None if args.p is None else pq(args.p, args.q)
    if isinstance(obj, WeightedGraph):
        walk = dsc.descent_walk(obj, u, args.start, args.steps)
    else:
        walk = dsc.radial_descent_walk(obj, u, start_layer=args.start,
                                       max_steps=args.steps)
    diag = dsc.walk_diagnostics(walk, p0=args.p0, point=point)

    def fam(f):
        if f is None:
            return None
        return {"checked": f.checked, "holds": f.holds,
                "worst_margin": mpf_str(f.worst_margin) if f.worst_margin is not None else None}

    _emit(args, {
        "n_sites": diag.n_sites,
        "termination": walk.termination,
        "revisit_flagged": walk.revisit_flagged,
        "strict_decrease": fam(diag.strict_decrease),
        "sandwich": fam(diag.sandwich),
        "averaging": fam(diag.averaging),
        "gradient_ratio": fam(diag.gradient_ratio),
        "pointwise_power": fam(diag.pointwise_power),
        "solution_sites": diag.solution_sites,
    })
    if args.csv:
        rows = ((s.site, s.u, s.lap, s.grad, s.drop if s.drop is not None else "")
                for s in walk.steps)
        _write_csv(args.csv, ["site", "u", "laplacian", "grad", "drop"], rows)
    ok = diag.strict_decrease.holds and diag.averaging.holds and not walk.revisit_flagged
    return EXIT_OK if ok else EXIT_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv.  Every command is listed with its help, but only
    a command named by a token of argv gets a subparser: making the six
    subparsers and their arguments takes argparse about a millisecond, and
    a run uses one command.  argparse runs the subparser of the token it
    reads as the command, so that token is in argv; the main parser's
    usage, help and errors read only the names and their help."""
    parser = argparse.ArgumentParser(
        prog="liouville",
        description="Verification tools for Delta u + u^p |grad u|^q <= 0 on weighted graphs",
    )
    parser.add_argument("--precision-bits", type=_precision_bits, default=None,
                        help="working significand size (default: env or 128)")

    def subparser(prog, **kwargs):      # prog is "liouville <command>"
        return argparse.ArgumentParser(prog, **kwargs) if prog.split()[-1] in argv else None

    sub = parser.add_subparsers(dest="command", required=True, parser_class=subparser)

    def command(name, text, fn):
        if c := sub.add_parser(name, help=text):
            c.set_defaults(fn=fn)
        return c

    if c := command("classify", "classify an exponent pair", _cmd_classify):
        c.add_argument("--p", type=_fraction, required=True)
        c.add_argument("--q", type=_fraction, required=True)
        c.add_argument("--json", default=None)

    def common_build_args(sp):
        sp.add_argument("--regime", required=True,
                        choices=list(cx.REGIMES))
        sp.add_argument("--p", type=_fraction, required=True)
        sp.add_argument("--q", type=_fraction, required=True)
        sp.add_argument("--eps", type=_fraction, default=None)
        sp.add_argument("--lam", type=_real, default=None)
        sp.add_argument("--N", type=int, default=3)
        sp.add_argument("--n0", type=int, default=None)
        sp.add_argument("--delta", type=_real, default=None)
        sp.add_argument("--json", default=None)
        sp.add_argument("--csv", default=None)

    if c := command("construct", "build, calibrate, and verify a counterexample", _cmd_construct):
        common_build_args(c)
        c.add_argument("--horizon", type=int, default=10000)
        c.add_argument("--volume-lo", type=int, default=16)
        c.add_argument("--volume-hi", type=int, default=4096)

    if c := command("verify", "margin check for a stored graph or tree + values", _cmd_verify):
        c.add_argument("--graph", required=True)
        c.add_argument("--u", required=True)
        c.add_argument("--p", type=_fraction, required=True)
        c.add_argument("--q", type=_fraction, required=True)
        c.add_argument("--horizon", type=int, default=None)
        c.add_argument("--json", default=None)

    if c := command("estimate", "evaluate one energy estimate", _cmd_estimate):
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

    if c := command("volume", "volume growth band for a construction", _cmd_volume):
        common_build_args(c)
        c.add_argument("--n-lo", type=int, default=16)
        c.add_argument("--n-hi", type=int, default=4096)
        c.add_argument("--exponent-offset", type=int, default=0,
                       help="multiply the target by n^offset (wrong-target control)")
        c.add_argument("--nash-williams", action="store_true",
                       help="include the partial sum of n / volume(n)")

    if c := command("descend", "greedy minimizing-neighbor walk + diagnostics", _cmd_descend):
        c.add_argument("--graph", required=True)
        c.add_argument("--u", required=True)
        c.add_argument("--start", type=int, default=0)
        c.add_argument("--steps", type=int, default=1000)
        c.add_argument("--p", type=_fraction, default=None)
        c.add_argument("--q", type=_fraction, default=None)
        c.add_argument("--p0", type=_real, default=None)
        c.add_argument("--json", default=None)
        c.add_argument("--csv", default=None)

    return parser


def _joined(argv: list[str]) -> list[str]:
    """argv with each negative number joined to the option before it: "--q
    -1/2" becomes "--q=-1/2".  argparse reads a token that starts with "-"
    as an option unless it has the shape -1 or -0.5, so -1/2 or -1e-3 would
    not reach the option as its value."""
    out: list[str] = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and len(tok) > 1 and tok[0] == "-" and tok[1] in "0123456789."):
            tok = f"{out.pop()}={tok}"
        out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _joined(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv).parse_args(argv)
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
