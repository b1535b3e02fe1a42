"""Greedy minimizing-neighbor walks and the pointwise bounds they witness.

A descent walk follows, from a starting vertex with nonzero gradient, the
neighbor of least value, ties broken by smallest vertex id.  On a positive
solution of the inequality this walk strictly decreases, which is the
engine behind the nonexistence results in the region below the line
p + q = 1.  The diagnostics evaluate, per step:

    strict decrease        u(x_{i+1}) < u(x_i)
    negative sandwich      0 > lap(x_i) >= u(x_{i+1}) - u(x_i)
    averaging bound        |lap| <= sqrt(2) |grad|        (holds universally)
    ratio gradient bound   |grad| <= sqrt((1+p0^2)/2) (u(x_i) - u(x_{i+1}))
    pointwise power bound  1 <= sqrt(2) u^(-p) |grad|^(1-q)

The non-universal families only follow from the solution property (plus
the measure ratio bound for the gradient one), so they are gated on a
per-step re-check of the inequality and skipped, not failed, where the
gate is closed.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import (fnan, fone, fzero, mpf_abs, mpf_div, mpf_eq, mpf_gt, mpf_le, mpf_lt,
                          mpf_mul, mpf_neg, mpf_pow, mpf_sqrt, mpf_sub)

from . import screen
from .counterexamples import BuiltCounterexample, term_kernel
from .errors import InputError
from .graphs import GraphFunction, WeightedGraph, checked_p0, site_classes, site_operators
from .numerics import rel_tol, to_mpf
from .radial import RadialFunction, RadialTree, TwoSidedRadialTree, layer_operators
from .regions import PQPoint


@dataclass(frozen=True)
class DescentStep:
    site: int
    u: mp.mpf
    lap: mp.mpf
    grad: mp.mpf
    drop: mp.mpf | None  # u(x_i) - u(x_{i+1}); None on the final site


@dataclass(frozen=True)
class DescentWalk:
    steps: tuple[DescentStep, ...]
    termination: str  # "max-steps" | "zero-gradient" | "revisit" | "horizon"
    revisit_flagged: bool

    def __len__(self) -> int:
        return len(self.steps)


def _walk(ops, move, x, max_steps: int, kind: str, inside=lambda x: True) -> DescentWalk:
    """The walk loop of both backends, from site x.

    `ops(x)` is (u, lap, grad^2) at x, and `move(x, ux)`, called right after
    `ops(x)`, is the minimizing neighbour y of x and the drop ux - u(y).
    The walk records each site, stops at a zero gradient, after max_steps
    moves, at a revisit (flagged) or at a move onto a site outside `inside`
    (termination "horizon").  A negative max_steps is rejected here, for
    both backends.  grad is mp.sqrt's libmp call on the raw grad^2 (never
    negative), and it is zero exactly where grad^2 is.
    """
    if max_steps < 0:
        raise InputError("max_steps must be nonnegative")
    prec, rnd = mp.mp._prec_rounding
    site = ops(x)
    if site[2]._mpf_ == fzero:
        raise InputError(f"no descent possible: zero gradient at the start {kind}")
    records = []
    visited = {x}
    termination = "max-steps"
    revisit = False
    while True:
        ux, lap, grad_sq = site
        records.append([x, ux, lap, mp.make_mpf(mpf_sqrt(grad_sq._mpf_, prec, rnd)), None])
        if grad_sq._mpf_ == fzero:
            termination = "zero-gradient"
            break
        if len(records) == max_steps + 1:
            break
        nxt, drop = move(x, ux)
        if nxt in visited:
            termination = "revisit"
            revisit = True
            break
        if not inside(nxt):
            termination = "horizon"
            break
        records[-1][4] = drop
        visited.add(nxt)
        x = nxt
        site = ops(x)
    steps = tuple(DescentStep(*r) for r in records)
    return DescentWalk(steps=steps, termination=termination, revisit_flagged=revisit)


def descent_walk(g: WeightedGraph, u: GraphFunction, x0: int,
                 max_steps: int) -> DescentWalk:
    """Walk x_0, x_1, ... with u(x_{i+1}) = min over neighbors of x_i.

    Requires u > 0 everywhere and a nonzero gradient at the start.  The
    walk stops early at a zero-gradient vertex.  A strictly decreasing
    walk cannot revisit a vertex, so any revisit is a hypothesis violation
    and hard-stops the walk with a flag.
    """
    if not u.is_positive():
        raise InputError("descent needs a positive function")

    def move(x, ux):
        y = min(g.neighbors(x), key=lambda yw: (u[yw[0]], yw[0]))[0]
        return y, ux - u[y]

    return _walk(site_operators(g, u), move, x0, max_steps, "vertex")


def radial_descent_walk(tree: RadialTree | TwoSidedRadialTree, u: RadialFunction,
                        start_layer: int = 0, max_steps: int = 1000) -> DescentWalk:
    """Descent walk on a radial tree, tracked by layer index.

    The start is read as the first breadth-first vertex of its layer, so
    the walk reproduces the canonical materialized one exactly: the parent
    always has the smaller id (winning value ties; at the two-sided root
    the positive arm comes first), and an immediate direction reversal is
    a vertex revisit.  Layers lie on a line, so that reversal is the walk's
    first revisit.  A start outside `interior_layers()` is an input error,
    and a move out of it stops the walk with termination "horizon".
    """
    inner = tree.interior_layers()
    if not u.is_positive():
        raise InputError("descent needs a positive function")
    if start_layer not in inner:
        raise InputError(f"start layer {start_layer} has no stored neighborhood")

    ops = layer_operators(tree, u)
    values, u_lo = u.values(), u.lo

    def move(n, ux):
        # the values themselves decide, exactly: the parent (layer 1 at a root)
        # wins a tie, and is all a layer with no inward difference has; the drop
        # is -(u_next - u_n) from the stream, the same bits as ux - u_next
        parent, child = (n - 1, n + 1) if n > 0 else (n + 1, n - 1)
        nxt = parent if ops.d_in is None or mpf_le(values[parent - u_lo]._mpf_,
                                                   values[child - u_lo]._mpf_) else child
        return nxt, mp.make_mpf(mpf_neg(ops.d_out if nxt > n else ops.d_in))

    return _walk(ops, move, start_layer, max_steps, "layer", inner.__contains__)


@dataclass(frozen=True)
class BoundFamily:
    checked: int
    holds: bool
    worst_margin: mp.mpf | None


@dataclass(frozen=True)
class WalkDiagnostics:
    n_sites: int
    strict_decrease: BoundFamily
    sandwich: BoundFamily
    averaging: BoundFamily
    gradient_ratio: BoundFamily | None
    pointwise_power: BoundFamily | None
    solution_sites: int


def _screened(items, bounds, margin_of) -> BoundFamily:
    """A family's report, its margins behind the float64 screen.

    items are the family's members, in order, and bounds[i] is (lo, hi) with
    lo <= the mpf margin of items[i] <= hi, or None where the screen did not
    decide; `margin_of(item)` gives that margin and its verdict.  mpf
    evaluates, in order, the items `screen.extremes` picks for the maximum,
    and excuses the rest: an excused margin lies strictly below an
    evaluated one, so the maximum and its first occurrence are unchanged,
    and so is `holds`.  A margin fails only above tol, and then the larger
    evaluated one fails too (the sandwich's sign condition only fails
    unbounded items).  A nan margin (only from non-finite inputs) voids the
    screen, since the maximum of a list holding a nan depends on where the
    nan sits: then every item is evaluated.  The report equals the count,
    the conjunction of the verdicts and the maximum, in order, over every
    margin bit for bit.
    """
    picked = screen.extremes(bounds, high=True)
    checks = [margin_of(items[i]) for i in picked]
    if any(m._mpf_ == fnan for m, _ in checks):
        checks = [margin_of(item) for item in items]
    worst = _max(m._mpf_ for m, _ in checks)
    return BoundFamily(checked=len(items), holds=all(ok for _, ok in checks),
                       worst_margin=worst and mp.make_mpf(worst))


def _max(values):
    """max(values) of raw mpfs, None for none, in Python's first-of-equals and
    nan order, by mpf_gt (the libmp call of mpf's >)."""
    top = None
    for v in values:
        if top is None or mpf_gt(v, top):
            top = v
    return top


def _site_logs(u, lap, g):
    """(log2 u, `screen.log2_abs(lap)`, log2 g) where u, lap and g are finite
    and nonzero and u and g positive; None otherwise."""
    lu, ll, lg = screen.log2_abs(u), screen.log2_abs(lap), screen.log2_abs(g)
    if lu and ll and lg and not lu[0] and not lg[0]:
        return lu[1], ll, lg[1]
    return None


# The mpf margins, as the loops over every step compute them, on raw values:
# the libmp calls of mpf's operators at the working precision.

def _averaging(step, sqrt2, tol):
    prec, rnd = mp.mp._prec_rounding
    lap, rhs = mpf_abs(step.lap._mpf_, prec, rnd), mpf_mul(sqrt2._mpf_, step.grad._mpf_, prec, rnd)
    scale = _max((lap, rhs))
    m = mpf_div(mpf_sub(lap, rhs, prec, rnd), scale, prec, rnd) if mpf_gt(scale, fzero) else fzero
    return mp.make_mpf(m), mpf_le(m, tol._mpf_)


def _sandwich(step, tol):
    prec, rnd = mp.mp._prec_rounding
    lap, drop = step.lap._mpf_, step.drop._mpf_
    scale = _max((mpf_abs(lap, prec, rnd), mpf_abs(drop, prec, rnd)))
    if mpf_eq(scale, fzero):
        return mp.make_mpf(fzero), False     # lap must be strictly negative
    m = mpf_div(_max((lap, mpf_sub(mpf_neg(drop, prec, rnd), lap, prec, rnd))), scale, prec, rnd)
    return mp.make_mpf(m), mpf_lt(lap, fzero) and mpf_le(m, tol._mpf_)


def _gradient_ratio(step, ratio_factor, tol):
    prec, rnd = mp.mp._prec_rounding
    grad, bound = step.grad._mpf_, mpf_mul(ratio_factor._mpf_, step.drop._mpf_, prec, rnd)
    m = mpf_div(mpf_sub(grad, bound, prec, rnd), _max((grad, bound)), prec, rnd)
    return mp.make_mpf(m), mpf_le(m, tol._mpf_)


def _pointwise_power(step, sqrt2, neg_p, one_minus_q, tol):
    prec, rnd = mp.mp._prec_rounding
    rhs = mpf_mul(mpf_mul(sqrt2._mpf_, mpf_pow(step.u._mpf_, neg_p._mpf_, prec, rnd), prec, rnd),
                  mpf_pow(step.grad._mpf_, one_minus_q._mpf_, prec, rnd), prec, rnd)
    m = mpf_div(mpf_sub(fone, rhs, prec, rnd), _max((fone, rhs)), prec, rnd)
    return mp.make_mpf(m), mpf_le(m, tol._mpf_)


def _pointwise_margin(u, grad_sq, p1, term_of):
    prec, rnd = mp.mp._prec_rounding
    grad = term_of.grad_power(mp.make_mpf(mpf_sqrt(grad_sq._mpf_, prec, rnd)))._mpf_
    m = mpf_sub(mpf_mul(mpf_pow(u._mpf_, p1._mpf_, prec, rnd), grad, prec, rnd), fone, prec, rnd)
    return mp.make_mpf(m), mpf_le(m, term_of.tol._mpf_)


def _solves(term_of, p, half_q, rows, ops) -> list:
    """Per item, True where it solves the inequality, False where it does
    not and None where its term is undefined: `screen.solution_check` on
    rows, and `term_of.check` on ops(i) = (u, lap, grad^2), made only for
    an item i the screen leaves open."""
    return [verdict is not False if verdict is not None
            else None if (check := term_of.check(*ops(i))) is None else check.holds
            for i, verdict in enumerate(screen.solution_check(p, half_q, rows))]


def walk_diagnostics(walk: DescentWalk, p0=None,
                     point: PQPoint | None = None) -> WalkDiagnostics:
    """Per-step bound margins over a recorded walk.

    Margins are normalized by the dominant magnitude of each comparison.
    Passing p0 (finite, at least 1) enables the gradient ratio family;
    passing the exponent pair enables the solution re-check and the
    pointwise power family.

    Each normalized margin is a monotone function of one log2 quantity y
    of the step's mpf values (for the sandwich, falling then rising), so a
    float64 bound on y bounds the margin (`screen.margin_bounds`, one call
    per family, handed with the family's steps to `_screened`).  The
    re-check, made only with the exponent pair, is `_solves`: the column
    solves holds each step's verdict (None, an undefined term, reads as no
    solution), and the families' members are read off it and the step
    values.  mpf evaluates a family's margin only
    at the steps `_screened` cannot excuse; a step
    whose u, lap or grad is zero or not finite, or any step below 53 bits,
    is evaluated in mpf throughout, and so is the gradient ratio family of
    a p0 too large for `screen.log2_abs`.  The report equals that of the
    loop evaluating every margin in mpf, bit for bit.
    """
    tol = rel_tol()
    sqrt2 = mp.sqrt(2)
    exponents, log_rf = [], None
    if p0 is not None:
        p0 = checked_p0(p0)
        ratio_factor = mp.sqrt((1 + p0 ** 2) / 2)
        log_rf = screen.log2_abs(ratio_factor)
    if point is not None:
        term_of = term_kernel(point.p, point.q)
        neg_p, one_minus_q = -to_mpf(point.p), 1 - to_mpf(point.q)
        exponents = [term_of.p, term_of.half_q, neg_p, one_minus_q]
    floats = screen.exponent_floats(*exponents)
    p, half_q, neg_p_f, one_minus_q_f = floats if exponents and floats else (0.0,) * 4
    steps = walk.steps
    reads = []          # (log2 u, log2_abs(lap), log2 grad, log2 drop or None) per step
    for s in steps:
        logs = floats is not None and _site_logs(s.u, s.lap, s.grad)
        drop = logs and s.drop is not None and screen.log2_abs(s.drop)
        reads.append(logs and (*logs, drop[1] if drop and not drop[0] else None) or None)
    solves = [False] * len(steps)
    if point is not None:
        solves = _solves(term_of, p, half_q, [r and (r[0], r[1], 2 * r[2], 0.0) for r in reads],
                         lambda i: (steps[i].u, steps[i].lap, steps[i].grad ** 2))

    def family(members, margin_of, shape, const, terms_of):
        terms = (reads[i] and terms_of(reads[i]) for i in members)
        return _screened([steps[i] for i in members],
                         screen.margin_bounds(shape, const, terms), margin_of)

    every = range(len(steps))
    drops = [i for i in every if steps[i].drop is not None]
    prec, rnd = mp.mp._prec_rounding
    rises = [mpf_neg(steps[i].drop._mpf_, prec, rnd) for i in drops]
    top = _max(rises)
    return WalkDiagnostics(
        n_sites=len(steps),
        strict_decrease=BoundFamily(len(rises), all(mpf_lt(m, fzero) for m in rises),
                                    top and mp.make_mpf(top)),
        sandwich=family([i for i in drops if solves[i]], lambda s: _sandwich(s, tol),
                        "valley", 0.0, lambda r: r[1][0] and r[3] is not None
                        and ((1.0, r[1][1]), (-1.0, r[3])) or None),
        averaging=family(every, lambda s: _averaging(s, sqrt2, tol), "falling", 0.5,
                         lambda r: ((1.0, r[2]), (-1.0, r[1][1]))),
        # the gradient ratio bound only needs a nonpositive Laplacian and a
        # strict drop, not the full solution property
        gradient_ratio=None if p0 is None else family(
            [i for i in drops if mpf_gt(steps[i].drop._mpf_, fzero)
             and mpf_le(steps[i].lap._mpf_, fzero)],
            lambda s: _gradient_ratio(s, ratio_factor, tol), "falling", log_rf and log_rf[1],
            lambda r: log_rf and r[3] is not None and ((1.0, r[3]), (-1.0, r[2])) or None),
        pointwise_power=None if point is None else family(
            [i for i in every if solves[i] and mpf_gt(steps[i].grad._mpf_, fzero)],
            lambda s: _pointwise_power(s, sqrt2, neg_p, one_minus_q, tol), "falling", 0.5,
            lambda r: ((neg_p_f, r[0]), (one_minus_q_f, r[2]))),
        solution_sites=sum(1 for ok in solves if ok),
    )


@dataclass(frozen=True)
class PointwiseBoundReport:
    checked: int
    holds: bool
    max_margin: mp.mpf | None
    skipped: tuple[int, ...]
    hypothesis_failures: tuple[int, ...]


def _pointwise_core(sites, class_of, reps, operators, point: PQPoint) -> PointwiseBoundReport:
    """Margin of u^(p-1) |grad u|^q - 1 at every site solving the inequality.

    Sites of one class share their operators: each class is evaluated once,
    at its representative reps[c], and the report is read off site by site
    in the order of `sites`, whose i-th entry is in class class_of[i].
    The re-check and the margin go through the float64 screen of
    `walk_diagnostics`, one column call each: the margin is 2^w - 1 with
    w = (p-1) log2 u + (q/2) log2 grad^2, and mpf evaluates a class only
    where the re-check is open or the class could hold the maximum.  A
    site counts as checked, a hypothesis failure or skipped by its class's
    entry of the column solves (`_solves`: True, False or None).
    """
    term_of = term_kernel(point.p, point.q)
    p1 = to_mpf(point.p - 1)
    floats = screen.exponent_floats(term_of.p, term_of.half_q, p1)
    p, half_q_f, p1_f = floats or (0.0, 0.0, 0.0)
    ops = list(map(operators, reps))
    reads = [floats and _site_logs(*site) for site in ops]
    solves = _solves(term_of, p, half_q_f, [r and (*r, 0.0) for r in reads], ops.__getitem__)
    members = [c for c, ok in enumerate(solves) if ok]
    family = _screened([(ops[c][0], ops[c][2]) for c in members], screen.margin_bounds(
        "rising", 0.0, (reads[c] and ((p1_f, reads[c][0]), (half_q_f, reads[c][2]))
                        for c in members)), lambda ug: _pointwise_margin(*ug, p1, term_of))
    verdicts = [solves[c] for c in class_of]
    return PointwiseBoundReport(
        checked=sum(1 for ok in verdicts if ok), holds=family.holds,
        max_margin=family.worst_margin,
        skipped=tuple(site for site, ok in zip(sites, verdicts) if ok is None),
        hypothesis_failures=tuple(site for site, ok in zip(sites, verdicts) if ok is False),
    )


def pointwise_bound_check(g: WeightedGraph, u: GraphFunction,
                          point: PQPoint) -> PointwiseBoundReport:
    """u^(p-1) |grad u|^q <= 1 at every vertex where u solves the inequality."""
    if not u.is_positive():
        raise InputError("pointwise bound needs a positive function")
    class_of, reps = site_classes(g, u)
    return _pointwise_core(g.vertices(), class_of, reps, site_operators(g, u), point)


def pointwise_bound_check_built(built: BuiltCounterexample,
                                horizon: int | None = None) -> PointwiseBoundReport:
    """Layerwise version for radial builds, over the tree's `checked_layers`."""
    layers = built.tree.checked_layers(horizon)
    return _pointwise_core(layers, range(len(layers)), layers,
                           layer_operators(built.tree, built.u), built.spec.point)
