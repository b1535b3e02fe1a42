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

from dataclasses import dataclass, replace

import mpmath as mp
from mpmath.libmp import fzero, mpf_le, mpf_neg, mpf_sqrt

from . import screen
from .counterexamples import BuiltCounterexample, term_kernel
from .errors import InputError
from .graphs import GraphFunction, WeightedGraph, site_classes, site_operators
from .numerics import check_nonpositive, rel_tol, to_mpf
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
    first revisit.  A move onto a layer whose operators would need data
    beyond the stored horizon stops the walk with termination "horizon".
    """
    two_sided = not tree.one_sided
    lo, hi = tree.layer_lo, tree.layer_hi

    def interior(n):
        return lo < n < hi if two_sided else n < hi

    if not u.is_positive():
        raise InputError("descent needs a positive function")
    if not interior(start_layer):
        raise InputError(f"start layer {start_layer} has no stored neighborhood")

    ops = layer_operators(tree, u)
    values, u_lo = u.values(), u.lo

    def move(n, ux):
        # the values themselves decide, exactly: the parent, or the positive
        # arm at a two-sided root, wins a tie; the drop is -(u_next - u_n)
        # from the stream, the same bits as ux - u_next
        if n == 0:
            nxt = 1 if not two_sided or mpf_le(values[1 - u_lo]._mpf_,
                                               values[-1 - u_lo]._mpf_) else -1
        else:
            parent, child = (n - 1, n + 1) if n > 0 else (n + 1, n - 1)
            nxt = parent if mpf_le(values[parent - u_lo]._mpf_,
                                   values[child - u_lo]._mpf_) else child
        return nxt, mp.make_mpf(mpf_neg(ops.d_out if nxt > n else ops.d_in))

    return _walk(ops, move, start_layer, max_steps, "layer", interior)


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


class _Family:
    def __init__(self):
        self.margins = []
        self.ok = True

    def add(self, margin, ok):
        self.margins.append(margin)
        if not ok:
            self.ok = False

    def done(self) -> BoundFamily:
        return BoundFamily(checked=len(self.margins), holds=self.ok,
                           worst_margin=max(self.margins) if self.margins else None)


class _Screened:
    """A family's margins behind the float64 screen: `_Family`, fed bounds.

    `add(item, bounds)` records one margin of the family: `margin_of(item)`
    gives the mpf margin and its verdict, and bounds is (lo, hi) with
    lo <= that margin <= hi, or None where the screen did not decide.
    `done` evaluates in mpf, in order, the items `screen.extremes` picks
    for the maximum, and excuses the rest: an excused margin lies strictly
    below an evaluated one, so the maximum and its first occurrence are
    unchanged, and so is `holds`.  A margin fails only above tol, and then
    the larger evaluated one fails too (the sandwich's sign condition only
    fails unbounded items).  A nan margin (only from non-finite inputs)
    voids the screen, since the maximum of a list holding a nan depends on
    where the nan sits: then every item is evaluated.  The report equals
    `_Family`'s over every margin bit for bit.
    """

    def __init__(self, margin_of):
        self.margin_of = margin_of
        self.items = []

    def add(self, item, bounds):
        self.items.append((item, bounds))

    def done(self) -> BoundFamily:
        picked = screen.extremes([b for _, b in self.items], high=True)
        checks = [self.margin_of(self.items[i][0]) for i in picked]
        if any(mp.isnan(m) for m, _ in checks):
            checks = [self.margin_of(item) for item, _ in self.items]
        family = _Family()
        for check in checks:
            family.add(*check)
        return replace(family.done(), checked=len(self.items))


def _site_logs(u, lap, g):
    """(log2 u, `screen.log2_abs(lap)`, log2 g) where u, lap and g are finite
    and nonzero and u and g positive; None otherwise."""
    lu, ll, lg = screen.log2_abs(u), screen.log2_abs(lap), screen.log2_abs(g)
    if lu and ll and lg and not lu[0] and not lg[0]:
        return lu[1], ll, lg[1]
    return None


# The mpf margins and the re-check, as the loops over every step compute them.

def _solution_check(u, lap, grad, term_of, tol):
    """Whether u solves the inequality at a site; None where the term is undefined."""
    try:
        term = term_of(u, grad ** 2)
    except InputError:
        return None
    return check_nonpositive(lap + term, max(abs(lap), term), tol).holds


def _averaging(step, sqrt2, tol):
    rhs = sqrt2 * step.grad
    scale = max(abs(step.lap), rhs)
    m = (abs(step.lap) - rhs) / scale if scale > 0 else mp.mpf(0)
    return m, m <= tol


def _sandwich(step, tol):
    scale = max(abs(step.lap), abs(step.drop))
    if scale == 0:
        return mp.mpf(0), False     # lap must be strictly negative
    m = max(step.lap, -step.drop - step.lap) / scale
    return m, step.lap < 0 and m <= tol


def _gradient_ratio(step, ratio_factor, tol):
    bound = ratio_factor * step.drop
    m = (step.grad - bound) / max(step.grad, bound)
    return m, m <= tol


def _pointwise_power(step, sqrt2, neg_p, one_minus_q, tol):
    rhs = sqrt2 * mp.power(step.u, neg_p) * mp.power(step.grad, one_minus_q)
    m = (1 - rhs) / max(mp.mpf(1), rhs)
    return m, m <= tol


def _pointwise_margin(u, grad_sq, p1, term_of, tol):
    m = mp.power(u, p1) * term_of.grad_power(mp.sqrt(grad_sq)) - 1
    return m, m <= tol


def walk_diagnostics(walk: DescentWalk, p0=None,
                     point: PQPoint | None = None) -> WalkDiagnostics:
    """Per-step bound margins over a recorded walk.

    Margins are normalized by the dominant magnitude of each comparison.
    Passing p0 (finite, at least 1) enables the gradient ratio family;
    passing the exponent pair enables the solution re-check and the
    pointwise power family.

    Each normalized margin is a monotone function of one log2 quantity y
    of the step's mpf values (for the sandwich, falling then rising), so a
    float64 bound on y bounds the margin (`screen.margin_bounds`).  mpf
    evaluates a family's margin only at the steps `_Screened` cannot
    excuse, and the re-check only where `screen.solution_check` leaves it
    open; a step whose u, lap or grad is zero or not finite, or any step
    below 53 bits, is evaluated in mpf throughout.  The report equals that
    of the loop evaluating every margin in mpf, bit for bit.
    """
    tol = rel_tol()
    sqrt2 = mp.sqrt(2)
    exponents = []
    if p0 is not None:
        p0 = to_mpf(p0)
        if not (mp.isfinite(p0) and p0 >= 1):
            raise InputError("p0 must be at least 1")
        ratio_factor = mp.sqrt((1 + p0 ** 2) / 2)
        log_rf = screen.log2_abs(ratio_factor)[1]
    if point is not None:
        term_of = term_kernel(point.p, point.q)
        neg_p, one_minus_q = -to_mpf(point.p), 1 - to_mpf(point.q)
        exponents = [term_of.p, term_of.half_q, neg_p, one_minus_q]
    floats = screen.exponent_floats(*exponents)
    if exponents and floats is not None:
        p, half_q, neg_p_f, one_minus_q_f = floats
    bounds = screen.margin_bounds
    dec = _Family()
    sand = _Screened(lambda s: _sandwich(s, tol))
    avg = _Screened(lambda s: _averaging(s, sqrt2, tol))
    gratio = _Screened(lambda s: _gradient_ratio(s, ratio_factor, tol))
    ppower = _Screened(lambda s: _pointwise_power(s, sqrt2, neg_p, one_minus_q, tol))
    solution_sites = 0
    for step in walk.steps:
        logs = _site_logs(step.u, step.lap, step.grad) if floats is not None else None
        if logs:
            lu, (lap_negative, ll), lg = logs
            drop = step.drop is not None and screen.log2_abs(step.drop)
            ld = drop[1] if drop and not drop[0] else None
        avg.add(step, logs and bounds("falling", 0.5, ((1.0, lg), (-1.0, ll))))
        solves = False
        if point is not None:
            solves = logs and screen.solution_check(p, half_q, lu, logs[1], 2 * lg)[0]
            if solves is None:
                solves = _solution_check(step.u, step.lap, step.grad, term_of, tol) is True
            if solves:
                solution_sites += 1
        if step.drop is not None:
            dec.add(-step.drop, step.drop > 0)
            screened = logs is not None and ld is not None
            if solves:
                sand.add(step, screened and lap_negative
                         and bounds("valley", 0.0, ((1.0, ll), (-1.0, ld))) or None)
            # the gradient ratio bound only needs a nonpositive Laplacian and
            # a strict drop, not the full solution property
            if p0 is not None and step.drop > 0 and step.lap <= 0:
                gratio.add(step, screened
                           and bounds("falling", log_rf, ((1.0, ld), (-1.0, lg))) or None)
        if point is not None and solves and step.grad > 0:
            ppower.add(step, logs and bounds("falling", 0.5, ((neg_p_f, lu), (one_minus_q_f, lg))))
    return WalkDiagnostics(
        n_sites=len(walk.steps),
        strict_decrease=dec.done(),
        sandwich=sand.done(),
        averaging=avg.done(),
        gradient_ratio=gratio.done() if p0 is not None else None,
        pointwise_power=ppower.done() if point is not None else None,
        solution_sites=solution_sites,
    )


@dataclass(frozen=True)
class PointwiseBoundReport:
    checked: int
    holds: bool
    max_margin: mp.mpf | None
    skipped: tuple[int, ...]
    hypothesis_failures: tuple[int, ...]


_UNDEFINED, _NOT_A_SOLUTION = object(), object()


def _pointwise_core(sites, class_of, reps, operators, point: PQPoint) -> PointwiseBoundReport:
    """Margin of u^(p-1) |grad u|^q - 1 at every site solving the inequality.

    Sites of one class share their operators: each class is evaluated once,
    at its representative reps[c], and the report is read off site by site
    in the order of `sites`, whose i-th entry is in class class_of[i].
    The re-check and the margin go through the float64 screen of
    `walk_diagnostics`: the margin is 2^w - 1 with w = (p-1) log2 u +
    (q/2) log2 grad^2, and mpf evaluates a class only where the re-check
    is open or the class could hold the maximum.
    """
    tol = rel_tol()
    term_of = term_kernel(point.p, point.q)
    p1 = to_mpf(point.p - 1)
    floats = screen.exponent_floats(term_of.p, term_of.half_q, p1)
    if floats is not None:
        p, half_q_f, p1_f = floats
    margins = _Screened(lambda ug: _pointwise_margin(*ug, p1, term_of, tol))
    verdicts = []
    for u_val, lap, grad_sq in map(operators, reps):
        logs = _site_logs(u_val, lap, grad_sq) if floats is not None else None
        solves = logs and screen.solution_check(p, half_q_f, *logs)[0]
        if solves is None:
            solves = _solution_check(u_val, lap, mp.sqrt(grad_sq), term_of, tol)
            if solves is None:
                verdicts.append(_UNDEFINED)
                continue
        if not solves:
            verdicts.append(_NOT_A_SOLUTION)
            continue
        verdicts.append(None)
        margins.add((u_val, grad_sq), logs and screen.margin_bounds(
            "rising", 0.0, ((p1_f, logs[0]), (half_q_f, logs[2]))))
    family = margins.done()
    checked = 0
    skipped = []
    failures = []
    for site, c in zip(sites, class_of):
        verdict = verdicts[c]
        if verdict is _UNDEFINED:
            skipped.append(site)
        elif verdict is _NOT_A_SOLUTION:
            failures.append(site)
        else:
            checked += 1
    return PointwiseBoundReport(
        checked=checked, holds=family.holds, max_margin=family.worst_margin,
        skipped=tuple(skipped), hypothesis_failures=tuple(failures),
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
    """Layerwise version for radial builds: the interior layers within the horizon."""
    if horizon is not None and horizon < 0:
        raise InputError(f"horizon must be at least 0, got {horizon}")
    inner = built.tree.interior_layers()
    h = inner.stop - 1 if horizon is None else min(horizon, inner.stop - 1)
    layers = range(max(inner.start, -h), h + 1)
    return _pointwise_core(layers, range(len(layers)), layers,
                           layer_operators(built.tree, built.u), built.spec.point)
