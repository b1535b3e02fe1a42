"""The benchmark traces package functions by name (`bench/spans.py`); every
name it lists must still resolve, or a traced run breaks at install."""

import importlib
import importlib.util
from pathlib import Path

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
