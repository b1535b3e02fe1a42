"""The shared float64 screen: its error budget, its picker, and that no
other module writes a budget or a reader of its own (nor a second search
loop or margin report, nor a second copy of a closed form or of a rule)."""

import ast
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import before_screen as before
from liouville import descent, screen

PACKAGE = Path(screen.__file__).parent

# Exponents of the screened quantities: +-1 (no power), the integer and
# half-integer powers of the margins, and powers exp(C ln x) proper.
EXPONENTS = [1, -1, 2, F(1, 2), F(-1, 2), F(3, 2), F(-3, 2), F(1, 3), F(-7, 3), 5, F(-21, 10)]

factors = st.tuples(st.sampled_from(EXPONENTS), st.floats(1.0, 2.0, exclude_max=True),
                    st.integers(-1000, 1000))


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bits=st.sampled_from([53, 128, 256]), constant=st.sampled_from(["1", "sqrt2", "rf"]),
       terms=st.lists(factors, min_size=1, max_size=3))
@example(bits=53, constant="sqrt2", terms=[(F(-7, 3), 1.9999999999999998, 1000),
                                           (5, 1.0000000000000002, -1000)])
def test_log2_bound_holds_log2_of_the_mpf_quantity(bits, constant, terms):
    """Q = K x_1^C_1 ... x_m^C_m formed in mpf, with x = f 2^e across 2^+-1000:
    log2 Q lies within the bounds (lo, hi) wherever the budget decides."""
    with mp.workprec(bits):
        if constant == "1":
            q, const = mp.mpf(1), 0.0
        elif constant == "sqrt2":
            q, const = mp.sqrt(2), 0.5
        else:
            q = mp.sqrt((1 + mp.mpf(3) ** 2) / 2)
            const = screen.log2_abs(q)[1]
        pairs = []
        for C, f, e in terms:
            x = mp.ldexp(mp.mpf(f), e)
            c = mp.mpf(C.numerator) / C.denominator if isinstance(C, F) else mp.mpf(C)
            q *= x if C == 1 else 1 / x if C == -1 else mp.power(x, c)
            pairs.append((float(c), screen.log2_abs(x)[1]))
        bound, = screen.log2_bound([(const, pairs, 0.0)])
    if bound is None:
        return
    lo, hi = bound
    with mp.workprec(bits + 64):
        assert lo <= mp.log(q, 2) <= hi


values = st.lists(st.integers(-4, 4), min_size=1, max_size=12)


def sound_bounds(draw, vals):
    """A bound per value: None, or (v - a, v + b) with a, b >= 0, some exact."""
    out = []
    for v in vals:
        kind = draw(st.sampled_from(["none", "exact", "wide"]))
        if kind == "none":
            out.append(None)
        elif kind == "exact":
            out.append((float(v), float(v)))
        else:
            out.append((v - draw(st.floats(0, 3)), v + draw(st.floats(0, 3))))
    return out


def first_extreme(vals, positions, pick):
    """(extreme, first position holding it) over the given positions."""
    best = pick(vals[i] for i in positions)
    return best, next(i for i in positions if vals[i] == best)


@settings(max_examples=400, deadline=None)
@given(st.data(), values)
def test_extremes_keep_each_extreme_and_its_first_occurrence(data, vals):
    bounds = sound_bounds(data.draw, vals)
    every = range(len(vals))
    for low, high in ((True, False), (False, True), (True, True)):
        picked = screen.extremes(bounds, low=low, high=high)
        assert picked == sorted(set(picked))
        if high:
            assert first_extreme(vals, picked, max) == first_extreme(vals, every, max)
        if low:
            assert first_extreme(vals, picked, min) == first_extreme(vals, every, min)


@settings(max_examples=300, deadline=None)
@given(st.data(), values, st.lists(st.integers(0, 11), max_size=3))
def test_screened_family_equals_the_full_evaluation(data, vals, nans):
    """`descent._screened` over the columns of items and their bounds, against
    the count, the conjunction of the verdicts and the maximum, in order, over
    every item; a nan margin (unbounded, as the screen leaves every non-finite
    input) makes `_screened` evaluate every item."""
    margins = [mp.mpf(v) / 4 for v in vals]
    bounds = sound_bounds(data.draw, vals)
    for i in nans:
        if i < len(margins):
            margins[i], bounds[i] = mp.nan, None
    bounds = [b and (b[0] / 4, b[1] / 4) for b in bounds]
    got = descent._screened(range(len(margins)), bounds, lambda i: (margins[i], margins[i] <= 0))
    assert (got.checked, got.holds, got.worst_margin._mpf_) == \
        (len(margins), all(m <= 0 for m in margins), max(margins)._mpf_)


def is_float_power_of_two(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Constant) and isinstance(node.left.value, float)
            and node.left.value == 2.0)


def is_hand_interval(node):
    """`X[0] + X[1]` or `X[0] - X[1]` on one X: a budget pair (y, err) made
    into an end of an interval by hand."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
            and isinstance(node.left, ast.Subscript) and isinstance(node.right, ast.Subscript)
            and ast.dump(node.left.value) == ast.dump(node.right.value)
            and [getattr(n.slice, "value", None) for n in (node.left, node.right)] == [0, 1])


def is_sentinel(node):
    """A call `object()`: a marker that only its identity tells apart."""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "object"
            and not node.args and not node.keywords)


def violations(name, tree):
    """Module-level `2.0 ** k` constants (a slack, an undecided cut, a
    widening), functions reading the top 53 bits of a mantissa
    (`bit_length` with the constant 53), imports of another module's
    private names, hand-made intervals (`is_hand_interval`) and screen
    records, a value convention beside the screen's (lo, hi), False or None:
    a `NamedTuple` subclass or a module-level `object()` sentinel, as
    "name:line what"."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None \
                and any(map(is_float_power_of_two, ast.walk(stmt.value))):
            found.append(f"{name}:{stmt.lineno} budget constant")
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None \
                and any(map(is_sentinel, ast.walk(stmt.value))):
            found.append(f"{name}:{stmt.lineno} screen record")
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            inner = list(ast.walk(node))
            if any(isinstance(n, ast.Attribute) and n.attr == "bit_length" for n in inner) \
                    and any(isinstance(n, ast.Constant) and n.value == 53 for n in inner):
                found.append(f"{name}:{node.lineno} top-53 reader")
        if isinstance(node, ast.ImportFrom) and node.level \
                and any(a.name.startswith("_") for a in node.names):
            found.append(f"{name}:{node.lineno} private import")
        if is_hand_interval(node):
            found.append(f"{name}:{node.lineno} hand-made interval")
        if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
                for base in node.bases):
            found.append(f"{name}:{node.lineno} screen record")
    return found


def test_no_module_but_screen_writes_a_budget_or_a_reader():
    """A new screen takes the shared budget and reader of `screen.py`, and
    the budget's intervals as it hands them out: no module, `screen.py`
    included, forms one by hand or keeps a screen record of its own."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += [v for v in violations(path.name, ast.parse(path.read_text()))
                  if path.name != "screen.py"
                  or v.endswith(("hand-made interval", "screen record"))]
    assert found == []


def test_the_guard_sees_the_spellings_it_forbids():
    source = ("SLACK = 2.0 ** -40\nCUT = -(2.0 ** -30)\nCAP = 2 ** 34\n"
              "def top(man, exp):\n    bc = man.bit_length()\n    return man >> (bc - 53)\n"
              "from .counterexamples import _top53, term_kernel\n"
              "lo, hi = b[0] - b[1], b[0] + b[1]\nok = v[0] + w[1] > b[1] - b[0]\n"
              "class Pair(NamedTuple):\n    a: list\n"
              "_A, _B = object(), object()\n"
              "def f():\n    mark = object()\n    return object.__new__(int)\n"
              "class Row(typing.NamedTuple):\n    a: list\n")
    assert violations("m.py", ast.parse(source)) == [
        "m.py:1 budget constant", "m.py:2 budget constant", "m.py:12 screen record",
        "m.py:4 top-53 reader", "m.py:7 private import", "m.py:10 screen record",
        "m.py:16 screen record", "m.py:8 hand-made interval", "m.py:8 hand-made interval"]


def single_steps(tree):
    """How many `raise CalibrationError(...)` statements and `MarginReport(...)`
    calls the module holds: the search's one exit and the one report builder."""
    raises = sum(isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
                 and getattr(n.exc.func, "id", None) == "CalibrationError"
                 for n in ast.walk(tree))
    reports = sum(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "MarginReport"
                  for n in ast.walk(tree))
    return raises, reports


def test_one_search_exit_and_one_margin_report():
    """The calibration search is one loop and the verify backends share one
    report builder; a second copy of either shows up here."""
    counts = [single_steps(ast.parse(path.read_text())) for path in PACKAGE.glob("*.py")]
    assert tuple(map(sum, zip(*counts))) == (1, 1)
    source = "raise CalibrationError('a')\nr = MarginReport(verified=True)\nraise InputError('b')\n"
    assert single_steps(ast.parse(source)) == (1, 1)


def closed_form_copies(tree):
    """Second copies of a closed form in counterexamples.py, as "line what":
    a `_poly_profiles` definition, a function or a logarithm inside
    `_delta0_value` (a profile of its own) and any read of `mp.e` inside
    `build` or its exponential helper `_e_powers` (a power of the rounded e,
    not exp rounded once)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        inner = [n for n in ast.walk(node) if n is not node]
        if node.name == "_poly_profiles":
            found.append(f"{node.lineno} _poly_profiles")
        if node.name == "_delta0_value":
            found += [f"{n.lineno} profile in _delta0_value" for n in inner
                      if isinstance(n, (ast.FunctionDef, ast.Lambda))
                      or isinstance(n, ast.Attribute) and n.attr in ("ln", "log", "mpf_log")]
        if node.name in ("build", "_e_powers"):
            found += [f"{n.lineno} mp.e in {node.name}" for n in inner
                      if isinstance(n, ast.Attribute) and n.attr == "e"
                      and getattr(n.value, "id", None) == "mp"]
    return found


def test_each_closed_form_is_written_once():
    """The I-III profile lives in `_profile` alone, and `build`'s exponentials
    in `_e_powers`, from exp rounded once; a copy spelled out again, or a
    power of the rounded e, shows up here."""
    assert closed_form_copies(ast.parse((PACKAGE / "counterexamples.py").read_text())) == []
    source = ("def _poly_profiles(spec):\n    pass\n"
              "def _delta0_value(regime, point, n0):\n"
              "    def g(m):\n        return m ** s * mp.ln(m) ** b\n"
              "def build(spec):\n    return [lam * mp.e ** (lam * n) for n in ns]\n"
              "def _e_powers(rate, ns):\n    return pow_run(mp.e._mpf_, list(ns), prec)\n")
    assert closed_form_copies(ast.parse(source)) == [
        "1 _poly_profiles", "4 profile in _delta0_value", "5 profile in _delta0_value",
        "7 mp.e in build", "9 mp.e in _e_powers"]


def is_p_plus_q(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and {getattr(node.left, "attr", None), getattr(node.right, "attr", None)}
            == {"p", "q"})


def is_line_test(node):
    """`point.p + point.q == 1`, the one comparison the classifiers make."""
    return (is_p_plus_q(node.left) and [type(op) for op in node.ops] == [ast.Eq]
            and getattr(node.comparators[0], "value", None) == 1)


def is_shift(node):
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)


def second_statements(tree):
    """Second statements of a rule owned elsewhere, as "line what": a
    comparison in `classify_g` or `classify_k` other than the p + q == 1
    line test (the regions are `in_g_region`/`in_k_region`), a `RECIPES`
    region lambda forming pt.p + pt.q itself (G5's line is `in_g_region`'s),
    and in `_screen` a sum or difference with a shifted operand (a rolled
    difference aligned by hand) or other than one `exact_sum` call."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in ("classify_g", "classify_k"):
            found += [f"{n.lineno} comparison in {node.name}" for n in ast.walk(node)
                      if isinstance(n, ast.Compare) and not is_line_test(n)]
        if isinstance(node, ast.FunctionDef) and node.name == "_screen":
            found += [f"{n.lineno} shifted difference in _screen" for n in ast.walk(node)
                      if isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Add, ast.Sub))
                      and (is_shift(n.left) or is_shift(n.right))]
            sums = sum(1 for n in ast.walk(node) if isinstance(n, ast.Call)
                       and getattr(n.func, "id", None) == "exact_sum")
            if sums != 1:
                found.append(f"{node.lineno} {sums} exact_sum calls in _screen")
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] \
                == ["RECIPES"]:
            regions = [call.args[0] for call in ast.walk(node.value)
                       if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Recipe"
                       and call.args and isinstance(call.args[0], ast.Lambda)]
            found += [f"{n.lineno} p + q in a RECIPES region" for region in regions
                      for n in ast.walk(region) if is_p_plus_q(n)]
    return sorted(found, key=lambda what: int(what.split()[0]))


def test_each_rule_is_stated_once():
    """The G and K labels are read off the regions' own inequalities, the V
    recipes take G5's line from them, and `_screen`'s rolled differences
    are `exact_sum`'s; a decision tree, a line written out again or a
    difference aligned by hand shows up here."""
    for module in ("regions.py", "counterexamples.py"):
        assert second_statements(ast.parse((PACKAGE / module).read_text())) == []
    source = ("def classify_g(point):\n    if point.q >= 2:\n        return 'G2'\n"
              "def classify_k(point):\n    if point.p + point.q == 1:\n        return ON_LINE\n"
              "    return 'K1' if p < 1 - q else 'K2'\n"
              "RECIPES = _Table({'V2': Recipe(lambda pt: pt.p + pt.q == 1 and pt.q < 0, 'lam')})\n"
              "def _screen(tree, u, layers, term_of):\n"
              "    d_out = ((v1 << k) - v, x) if k >= 0 else (v1 - (v << -k), x1)\n"
              "    return (a << k) + b, exact_sum(*d_out, 0, 0), exact_sum(a, 0, b, 0)\n")
    assert second_statements(ast.parse(source)) == [
        "2 comparison in classify_g", "7 comparison in classify_k",
        "8 p + q in a RECIPES region", "9 2 exact_sum calls in _screen",
        "10 shifted difference in _screen", "10 shifted difference in _screen",
        "11 shifted difference in _screen"]


def kept_state(tree):
    """Lines of functions other than `__init__` that assign to an attribute
    of `self`: state a kernel keeps from one call to the next."""
    found = []
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef) or f.name == "__init__":
            continue
        for n in ast.walk(f):
            targets = (n.targets if isinstance(n, ast.Assign) else
                       [n.target] if isinstance(n, (ast.AugAssign, ast.AnnAssign)) else [])
            found += [t.lineno for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self"]
    return sorted(found)


def test_no_numerics_kernel_keeps_state_between_calls():
    """Every numerics kernel is a function of one call: a run starts afresh,
    and only a caller's memo keeps values from one run to the next."""
    assert kept_state(ast.parse((PACKAGE / "numerics.py").read_text())) == []
    source = ("class LogRun:\n    def __init__(self, *precs):\n        self.last = None\n"
              "    def run(self, xs):\n        X0, L = self.last\n"
              "        self.last = X0, L\n        self.count += 1\n"
              "        self.a, (self.b, c) = 1, (2, 3)\n        return xs\n")
    assert kept_state(ast.parse(source)) == [6, 7, 8, 8]


def guard_bit_tests(tree):
    """Names of the functions that compare a masked value, m & (half - 1), with
    a radius: Ziv's rounding test for round-to-nearest, written out."""
    return sorted({f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                   for n in ast.walk(f) if isinstance(n, ast.Compare)
                   for side in (n.left, *n.comparators)
                   if isinstance(side, ast.BinOp) and isinstance(side.op, ast.BitAnd)})


def test_only_nearest_tests_guard_bits():
    """Every fixed-point kernel of numerics.py rounds through `_nearest`, the
    one statement of Ziv's test; `_pow10`'s directed test compares cut ends
    instead, and `nearest_sum`'s sticky-bit rule reads a lowest set bit."""
    assert guard_bit_tests(ast.parse((PACKAGE / "numerics.py").read_text())) == ["_nearest"]
    source = ("def geometric_run(m, lo, hi):\n    if lo < m & (_HALF_ULP - 1) < hi:\n"
              "        yield m\n"
              "def log_run(L, r, n, p):\n"
              "    return r < L & ((h := 1 << (n - p - 1)) - 1) < h - r\n"
              "def exp_steps(m, lo, half):\n    return m & (half - 1) > lo\n"
              "def nearest_sum(m, e):\n    return e + (m & -m).bit_length() > 100\n")
    assert guard_bit_tests(ast.parse(source)) == ["exp_steps", "geometric_run", "log_run"]


def loads(tree, attributes=True):
    """The names tree reads: loaded names, and attribute names if asked."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if attributes and isinstance(n, ast.Attribute)})


def unused_names(modules):
    """"module:line name" for each name a module (but the package's
    `__init__`, which imports to re-export) imports and never reads, and for
    each private module-level name no module of the package reads, by name
    or as an attribute (`screen._fsum`)."""
    read_anywhere = set().union(*map(loads, modules.values()))
    found = []
    for module, tree in sorted(modules.items()):
        read = loads(tree, attributes=False)
        for node in ast.walk(tree) if module != "__init__" else ():
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                found += [f"{module}:{node.lineno} {bound}" for alias in node.names
                          if (bound := (alias.asname or alias.name).split(".")[0]) not in read]
        for node in tree.body:
            names = ([node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else
                     [t.id for target in node.targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)] if isinstance(node, ast.Assign) else
                     [node.target.id] if isinstance(node, ast.AnnAssign) else [])
            found += [f"{module}:{node.lineno} {name}" for name in names
                      if name.startswith("_") and not name.startswith("__")
                      and name not in read_anywhere]
    return found


def test_no_module_keeps_an_unused_name():
    """No import a module never reads and no private name nothing reads: the
    leftovers of a fold or a move."""
    modules = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert unused_names(modules) == []
    source = {"numerics": "from __future__ import annotations\n"
                          "from mpmath.libmp import mpf_exp, mpf_log\nimport os.path\n"
                          "_HALF_ULP = 1 << 63\n_GUARD_BITS: int = 64\n"
                          "def _nearest(m):\n    return mpf_exp(m, _GUARD_BITS)\n"
                          "def _unread(x):\n    return _nearest(x)\n",
              "screen": "def _fsum(xs):\n    return sum(xs)\n",
              "counterexamples": "from . import screen\nscreen._fsum([])\n",
              "__init__": "from .numerics import _nearest\n"}
    assert unused_names({k: ast.parse(v) for k, v in source.items()}) == [
        "numerics:2 mpf_log", "numerics:3 os", "numerics:4 _HALF_ULP", "numerics:8 _unread"]


# ---------------------------------------------------------------------------
# the column kernels against the per-item kernels they replaced
# (tests/before_screen.py), float for float

READ_BITS = [53, 128, 256, 1100]
# an mpf input of a row: f 2^e across the float range and beyond the reader's
# exponent cap, or zero, negative or not finite
wild_inputs = st.sampled_from(["0", "-1.5", "-3e-200", "inf", "-inf", "nan"]) | st.tuples(
    st.floats(0.5, 2.0), st.sampled_from([-(1 << 41), -(1 << 40), (1 << 40) - 60, 1 << 40,
                                          1 << 41]))
mpf_inputs = st.tuples(st.tuples(st.floats(0.5, 2.0), st.integers(-1100, 1100)),
                       st.sampled_from([False] * 5 + [True]), wild_inputs).map(
    lambda t: t[2] if t[1] else t[0])
widens = st.sampled_from([0.0, 2.0 ** -60, 1e-12, 0.003, 1.45 * 2.0 ** -8])
PLANTS = [None, "0", "1e-30", "-1e-30", "6.4e-10", "-6.4e-10", "6.6e-10", "-1e-9", "6e-7",
          "7e-7", "-1e-3", "1e-3"]


def as_mpf(x):
    return mp.mpf(x) if isinstance(x, str) else mp.ldexp(mp.mpf(x[0]), x[1])


def read(x):
    """log2|x| as `screen.log2_abs` reads it, None where it declines x."""
    found = screen.log2_abs(as_mpf(x))
    return found and found[1]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bits=st.sampled_from(READ_BITS),
       items=st.lists(st.tuples(mpf_inputs, st.lists(
           st.tuples(st.sampled_from(EXPONENTS), mpf_inputs), max_size=4)), max_size=8))
def test_column_budget_is_the_per_item_budget(bits, items):
    with mp.workprec(bits):
        rows = []
        for const, factors in items:
            logs = [read(const)] + [read(x) for _, x in factors]
            rows.append(None if None in logs else
                        (logs[0], tuple((float(C), l) for (C, _), l in zip(factors, logs[1:])),
                         0.0))
    want = []
    for row in rows:
        bound = row and before.log2_bound(*row[:2])
        want.append(bound and (bound[0] - bound[1], bound[0] + bound[1]))
    assert screen.log2_bound(rows) == want
    assert screen.log2_bound(iter(rows)) == want


site_rows = st.tuples(mpf_inputs, mpf_inputs, mpf_inputs, widens, st.sampled_from(PLANTS),
                      st.sampled_from([-1] * 5 + [1]))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bits=st.sampled_from(READ_BITS), pq=st.sampled_from(EXPONENTS + [0]),
       half_q=st.sampled_from(EXPONENTS + [0]), items=st.lists(site_rows, max_size=8))
def test_column_verdict_is_the_per_item_verdict(bits, pq, half_q, items):
    """Rows as `descent._site_logs` reads them, some with lap planted at
    -term (1 + tau) around the verdict's cuts; the per-item (True, bounds)
    is the column's bounds, False and None themselves."""
    p, h = float(pq), float(half_q)
    rows = []
    with mp.workprec(bits):
        for u, lap, g2, widen, tau, sign in items:
            u, lap, g2 = as_mpf(u), sign * as_mpf(lap), as_mpf(g2)
            if tau is not None and u > 0 and g2 > 0 and mp.isfinite(u * g2):
                lap = -mp.power(u, pq) * mp.power(g2, half_q) * (1 + mp.mpf(tau))
            logs = descent._site_logs(u, lap, g2)
            rows.append(logs and (*logs, widen))
    want = []
    for row in rows:
        verdict, bounds = before.solution_check(p, h, *row) if row else (None, None)
        want.append(bounds if verdict else verdict)
    assert screen.solution_check(p, h, rows) == want
    assert screen.solution_check(p, h, iter(rows)) == want


term_logs = st.floats(-1100, 1100) | st.sampled_from(
    [0.0, -1.0, 1.0, 1000.0, 999.9999999, -1e-12, 1e-12, -0.5, 2.0 ** -30])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=st.sampled_from(["falling", "valley", "rising"]),
       const=st.sampled_from([0.0, 0.5, 1.5 ** 0.5, -3.25]),
       rows=st.lists(st.none() | st.lists(st.tuples(st.sampled_from([1.0, -1.0, 0.5, -2.0]),
                                                    term_logs), min_size=1, max_size=2),
                     max_size=8))
def test_column_shapes_are_the_per_item_shapes(shape, const, rows):
    want = [None if terms is None else before.margin_bounds(shape, const, terms)
            for terms in rows]
    assert screen.margin_bounds(shape, const, rows) == want
