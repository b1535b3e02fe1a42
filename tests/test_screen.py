"""The shared float64 screen: its error budget, its picker, and that no
other module writes a budget or a reader of its own."""

import ast
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
    log2 Q lies within err of y wherever the bound decides."""
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
        bound = screen.log2_bound(const, pairs)
    if bound is None:
        return
    y, err = bound
    with mp.workprec(bits + 64):
        assert y - err <= mp.log(q, 2) <= y + err


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
    """`descent._Screened` over the picked items, against `_Family` over
    every item; a nan margin (unbounded, as the screen leaves every
    non-finite input) makes both evaluate every item."""
    margins = [mp.mpf(v) / 4 for v in vals]
    bounds = sound_bounds(data.draw, vals)
    for i in nans:
        if i < len(margins):
            margins[i], bounds[i] = mp.nan, None
    bounds = [b and (b[0] / 4, b[1] / 4) for b in bounds]
    screened, family = descent._Screened(lambda i: (margins[i], margins[i] <= 0)), \
        descent._Family()
    for i, b in enumerate(bounds):
        screened.add(i, b)
        family.add(margins[i], margins[i] <= 0)
    got, want = screened.done(), family.done()
    assert (got.checked, got.holds, got.worst_margin._mpf_) == \
        (want.checked, want.holds, want.worst_margin._mpf_)


def is_float_power_of_two(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Constant) and isinstance(node.left.value, float)
            and node.left.value == 2.0)


def violations(name, tree):
    """Module-level `2.0 ** k` constants (a slack, an undecided cut, a
    widening), functions reading the top 53 bits of a mantissa
    (`bit_length` with the constant 53) and imports of another module's
    private names, as "name:line what"."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None \
                and any(map(is_float_power_of_two, ast.walk(stmt.value))):
            found.append(f"{name}:{stmt.lineno} budget constant")
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            inner = list(ast.walk(node))
            if any(isinstance(n, ast.Attribute) and n.attr == "bit_length" for n in inner) \
                    and any(isinstance(n, ast.Constant) and n.value == 53 for n in inner):
                found.append(f"{name}:{node.lineno} top-53 reader")
        if isinstance(node, ast.ImportFrom) and node.level \
                and any(a.name.startswith("_") for a in node.names):
            found.append(f"{name}:{node.lineno} private import")
    return found


def test_no_module_but_screen_writes_a_budget_or_a_reader():
    """A new screen takes the shared budget and reader of `screen.py`."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "screen.py":
            found += violations(path.name, ast.parse(path.read_text()))
    assert found == []


def test_the_guard_sees_the_spellings_it_forbids():
    source = ("SLACK = 2.0 ** -40\nCUT = -(2.0 ** -30)\nCAP = 2 ** 34\n"
              "def top(man, exp):\n    bc = man.bit_length()\n    return man >> (bc - 53)\n"
              "from .counterexamples import _top53, term_kernel\n")
    assert violations("m.py", ast.parse(source)) == [
        "m.py:1 budget constant", "m.py:2 budget constant", "m.py:4 top-53 reader",
        "m.py:7 private import"]
