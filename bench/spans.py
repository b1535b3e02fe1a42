"""Spans around the package's public functions, and the per-layer metrics
derived from them.

`Tracer.install()` replaces each function listed in `TRACED` by a wrapper,
in every `liouville` module that binds it, so calls made from inside the
package (calibrate -> verify -> build, cli -> parse_radial_text, ...) are
caught too.  A wrapper records one span (name, phase, start, end, parent
span, work units) in memory; nothing is written until the run ends.

A function's self time is its span minus the time its child spans cover.
A layer is a module of the package; its self time is the self time of its
traced functions.  `regions` and `numerics` are left untraced: every layer
calls them, and they are too cheap to carry metrics of their own.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
from collections import defaultdict

import mpmath as mp


def _lines(text) -> int:
    return sum(1 for ln in text.splitlines() if ln.strip())


# (module, qualified name) -> work units of one call, from its arguments and
# result.  The unit is what the metric name says it is counted per.
TRACED = {
    ("cli", "main"): lambda a, k, r: 1,
    ("counterexamples", "calibrate"): lambda a, k, r: _candidates(r),
    ("counterexamples", "build"): lambda a, k, r: len(r.u.values()),
    ("counterexamples", "verify_radial"): lambda a, k, r: r.n_layers,
    ("counterexamples", "verify_graph"): lambda a, k, r: r.n_layers,
    ("counterexamples", "tail_check"): lambda a, k, r: 2 if a[0].regime in ("V1", "V2")
                                                        else r.window[1] - r.window[0] + 1,
    ("counterexamples", "volume_band"): lambda a, k, r: a[3] - a[2] + 1,
    ("counterexamples", "lambda_fn"): lambda a, k, r: 1,
    ("radial", "parse_radial_text"): lambda a, k, r: _lines(a[0]),
    ("radial", "format_radial_text"): lambda a, k, r: _lines(r),
    ("radial", "RadialTree.materialize"): lambda a, k, r: r[0].n_vertices,
    ("radial", "TwoSidedRadialTree.materialize"): lambda a, k, r: r[0].n_vertices,
    ("graphs", "parse_graph_text"): lambda a, k, r: _lines(a[0]),
    ("graphs", "nash_williams_partial"): lambda a, k, r: a[1] - k.get("n_min", 1) + 1,
    ("caccioppoli", "estimate_sides"): lambda a, k, r: a[0].n_vertices,
    ("caccioppoli", "estimate_sides_radial"): lambda a, k, r: a[2].support_radius() + 1,
    ("descent", "radial_descent_walk"): lambda a, k, r: len(r.steps),
    ("descent", "descent_walk"): lambda a, k, r: len(r.steps),
    ("descent", "walk_diagnostics"): lambda a, k, r: len(a[0].steps),
    ("descent", "pointwise_bound_check"): lambda a, k, r: a[0].n_vertices,
    ("descent", "pointwise_bound_check_built"): lambda a, k, r: r.checked
                                                               + len(r.skipped)
                                                               + len(r.hypothesis_failures),
}


def _candidates(spec) -> int:
    """n0 or lambda values calibrate tried: n0 doubles from 2, lambda from 1."""
    if spec.regime in ("V1", "V2"):
        return round(math.log2(float(spec.lam))) + 1
    return round(math.log2(spec.n0))


# Per-layer metrics: name -> (unit, how it is derived, span name or module).
# The kinds are "layer" (self time of a module per operation), "self_ms"
# (self time per call), "calls" (calls per operation), "per_unit" (inclusive
# time per work unit, in µs), "units" (work units per call) and "bumps"
# (precision doublings per call).  All come from the timed loop, and read 0
# when the workload does not call the function there, except "setup_unit"
# (per_unit over the set-up): format_radial_text and materialize run only
# while a workload writes its inputs.
METRICS = {
    "cli.self_ms": ("ms", "layer", "cli"),
    "counterexamples.self_ms": ("ms", "layer", "counterexamples"),
    "radial.self_ms": ("ms", "layer", "radial"),
    "graphs.self_ms": ("ms", "layer", "graphs"),
    "caccioppoli.self_ms": ("ms", "layer", "caccioppoli"),
    "descent.self_ms": ("ms", "layer", "descent"),
    "counterexamples.calibrate.self_ms": ("ms", "self_ms", "counterexamples.calibrate"),
    "counterexamples.calibrate.candidates": ("count", "units", "counterexamples.calibrate"),
    "counterexamples.lambda_fn.calls": ("count", "calls", "counterexamples.lambda_fn"),
    "counterexamples.lambda_fn.us_per_call": ("us", "per_unit", "counterexamples.lambda_fn"),
    "counterexamples.build.calls": ("count", "calls", "counterexamples.build"),
    "counterexamples.build.us_per_layer": ("us", "per_unit", "counterexamples.build"),
    "counterexamples.verify_radial.calls": ("count", "calls", "counterexamples.verify_radial"),
    "counterexamples.verify_radial.us_per_layer":
        ("us", "per_unit", "counterexamples.verify_radial"),
    "counterexamples.verify_radial.precision_bumps":
        ("count", "bumps", "counterexamples.verify_radial"),
    "counterexamples.tail_check.calls": ("count", "calls", "counterexamples.tail_check"),
    "counterexamples.tail_check.us_per_layer": ("us", "per_unit", "counterexamples.tail_check"),
    "counterexamples.verify_graph.us_per_vertex":
        ("us", "per_unit", "counterexamples.verify_graph"),
    "counterexamples.volume_band.us_per_layer": ("us", "per_unit", "counterexamples.volume_band"),
    "radial.parse_radial_text.us_per_line": ("us", "per_unit", "radial.parse_radial_text"),
    "graphs.parse_graph_text.us_per_line": ("us", "per_unit", "graphs.parse_graph_text"),
    "radial.format_radial_text.us_per_line": ("us", "setup_unit", "radial.format_radial_text"),
    "radial.materialize.us_per_vertex": ("us", "setup_unit", "radial.materialize"),
    "caccioppoli.estimate_sides_radial.us_per_layer":
        ("us", "per_unit", "caccioppoli.estimate_sides_radial"),
    "caccioppoli.estimate_sides.us_per_vertex": ("us", "per_unit", "caccioppoli.estimate_sides"),
    "descent.radial_descent_walk.us_per_step": ("us", "per_unit", "descent.radial_descent_walk"),
    "descent.descent_walk.us_per_step": ("us", "per_unit", "descent.descent_walk"),
    "descent.walk_diagnostics.us_per_step": ("us", "per_unit", "descent.walk_diagnostics"),
    "descent.pointwise_bound_check.us_per_site":
        ("us", "per_unit", "descent.pointwise_bound_check"),
    "graphs.nash_williams_partial.us_per_term": ("us", "per_unit", "graphs.nash_williams_partial"),
}


class Tracer:
    """In-memory span recorder.  `phase` tags spans ("setup" or "loop")."""

    def __init__(self):
        self.spans = []     # [name, phase, start, end, parent, units, bumps]
        self._stack = []
        self.phase = "setup"
        self.active = False

    # -- recording -----------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens, around one operation."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, 1, 0)

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.phase, time.perf_counter(), None, parent, 0, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx, units, bumps) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.spans[idx][5] = units
        self.spans[idx][6] = bumps
        self._stack.pop()

    def wrap(self, name: str, fn, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            prec_in = mp.mp.prec
            idx = self._open(name)
            units = bumps = 0
            try:
                result = fn(*args, **kwargs)
                units = measure(args, kwargs, result)
                if name == "counterexamples.verify_radial":
                    bumps = round(math.log2(result.precision_bits / prec_in))
                return result
            finally:
                self._close(idx, units, bumps)
        return wrapper

    def install(self) -> None:
        """Wrap every TRACED function wherever a liouville module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "liouville" or n.startswith("liouville.")]
        for (mod_name, qual), measure in TRACED.items():
            home = sys.modules[f"liouville.{mod_name}"]
            name = f"{mod_name}.{qual.split('.')[-1]}"
            if "." in qual:          # a method: patch the class attribute
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr), measure))
                continue
            original = getattr(home, qual)
            wrapped = self.wrap(name, original, measure)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    # -- reduction -----------------------------------------------------
    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def metrics(self, n_ops: int) -> dict:
        """Per-layer metrics; n_ops is the number of operations in the loop."""
        selfs = self.self_times()
        agg = {ph: defaultdict(lambda: [0, 0.0, 0.0, 0, 0]) for ph in ("setup", "loop")}
        for s, st in zip(self.spans, selfs):
            a = agg[s[1]][s[0]]     # calls, inclusive s, self s, units, bumps
            a[0] += 1
            a[1] += s[3] - s[2]
            a[2] += st
            a[3] += s[5]
            a[4] += s[6]
        out = {}
        for metric, (unit, kind, key) in METRICS.items():
            if kind == "layer":
                total = sum(v[2] for k, v in agg["loop"].items() if k.split(".")[0] == key)
                value = 1000 * total / n_ops
            else:
                phase = "setup" if kind == "setup_unit" else "loop"
                calls, incl, self_s, units, bumps = agg[phase].get(key, [0, 0.0, 0.0, 0, 0])
                if calls == 0:
                    value = 0
                elif kind == "calls":
                    value = calls / n_ops
                elif kind == "self_ms":
                    value = 1000 * self_s / calls
                elif kind == "units":
                    value = units / calls
                elif kind == "bumps":
                    value = bumps / calls
                else:
                    value = 1e6 * incl / units if units else 0
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
