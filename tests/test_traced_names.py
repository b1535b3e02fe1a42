"""The benchmark traces package functions by name (`bench/spans.py`); every
name it lists must still resolve, or a traced run breaks at install."""

import importlib
import importlib.util
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import liouville as lv

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module_name, qualname in spans.TRACED:
        target = importlib.import_module(f"liouville.{module_name}")
        for part in qualname.split("."):
            assert hasattr(target, part), (module_name, qualname)
            target = getattr(target, part)
        assert callable(target), (module_name, qualname)


# Pairs of traced functions that evaluate one check on the two backends.  The
# tracer reads a call's work units from that call's own arguments
# (`estimate_sides` counts a[0].n_vertices), so neither may reach the other.
SIBLINGS = [("caccioppoli", "estimate_sides", "estimate_sides_radial"),
            ("caccioppoli", "estimate_sides_radial", "estimate_sides"),
            ("counterexamples", "verify_graph", "verify_radial"),
            ("counterexamples", "verify_radial", "verify_graph"),
            ("descent", "pointwise_bound_check", "pointwise_bound_check_built"),
            ("descent", "pointwise_bound_check_built", "pointwise_bound_check"),
            ("descent", "descent_walk", "radial_descent_walk"),
            ("descent", "radial_descent_walk", "descent_walk")]


@pytest.mark.parametrize("module_name, runs, forbidden", SIBLINGS)
def test_traced_siblings_do_not_call_each_other(monkeypatch, regime1_small, module_name,
                                                runs, forbidden):
    original = getattr(importlib.import_module(f"liouville.{module_name}"), forbidden)

    def forbid(*args, **kwargs):
        raise AssertionError(f"{runs} called {forbidden}")

    for name, module in list(sys.modules.items()):
        if name == "liouville" or name.startswith("liouville."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, forbid)
    tree, u, spec = regime1_small.tree, regime1_small.u, regime1_small.spec
    g, layers = tree.materialize(4)
    gu = lv.induced_graph_function(u, layers)
    tf = lv.TestFunction("h", 1)
    calls = {
        "estimate_sides": lambda: lv.estimate_sides(g, gu, 0, tf, 7, F(1, 3), spec.point,
                                                    tree.p0()),
        "estimate_sides_radial": lambda: lv.estimate_sides_radial(tree, u, tf, 7, F(1, 3),
                                                                  spec.point),
        "verify_graph": lambda: lv.verify_graph(g, gu, spec.p, spec.q),
        "verify_radial": lambda: lv.verify_radial(tree, u, spec.p, spec.q),
        "pointwise_bound_check": lambda: lv.pointwise_bound_check(g, gu, spec.point),
        "pointwise_bound_check_built": lambda: lv.pointwise_bound_check_built(regime1_small),
        "descent_walk": lambda: lv.descent_walk(g, gu, 0, 50),
        "radial_descent_walk": lambda: lv.radial_descent_walk(tree, u, 0, 50),
    }
    calls[runs]()
