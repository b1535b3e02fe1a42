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


def _walk(ops, value, x, next_site, max_steps: int, kind: str,
          inside=lambda x: True) -> DescentWalk:
    """The walk loop of both backends, from site x.

    `ops(x)` is (u, lap, grad^2) at x, `value(x)` is u(x) and `next_site(x)`
    the minimizing neighbour.  The walk records each site, stops at a zero
    gradient, after max_steps moves, at a revisit (flagged) or at a move
    onto a site outside `inside` (termination "horizon").  A negative
    max_steps is rejected here, for both backends.
    """
    if max_steps < 0:
        raise InputError("max_steps must be nonnegative")
    site = ops(x)
    if site[2] == 0:
        raise InputError(f"no descent possible: zero gradient at the start {kind}")
    records = []
    visited = {x}
    termination = "max-steps"
    revisit = False
    while True:
        ux, lap, grad_sq = site
        grad = mp.sqrt(grad_sq)
        records.append([x, ux, lap, grad, None])
        if grad == 0:
            termination = "zero-gradient"
            break
        if len(records) == max_steps + 1:
            break
        nxt = next_site(x)
        if nxt in visited:
            termination = "revisit"
            revisit = True
            break
        if not inside(nxt):
            termination = "horizon"
            break
        records[-1][4] = ux - value(nxt)
        visited.add(nxt)
        x = nxt
        site = ops(x)
    steps = tuple(DescentStep(site=r[0], u=r[1], lap=r[2], grad=r[3], drop=r[4])
                  for r in records)
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

    def next_vertex(x):
        return min(g.neighbors(x), key=lambda yw: (u[yw[0]], yw[0]))[0]

    return _walk(site_operators(g, u), u.__getitem__, x0, next_vertex, max_steps, "vertex")


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

    def next_layer(n):
        if two_sided and n == 0:
            cands = [(u.value(1), 1, 1), (u.value(-1), 2, -1)]
        elif n == 0:
            cands = [(u.value(1), 1, 1)]
        else:
            parent = n - 1 if n > 0 else n + 1
            child = n + 1 if n > 0 else n - 1
            cands = [(u.value(parent), 0, parent), (u.value(child), 1, child)]
        return min(cands)[2]

    return _walk(layer_operators(tree, u), u.value, start_layer, next_layer, max_steps,
                 "layer", interior)


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


def walk_diagnostics(walk: DescentWalk, p0=None,
                     point: PQPoint | None = None) -> WalkDiagnostics:
    """Per-step bound margins over a recorded walk.

    Margins are normalized by the dominant magnitude of each comparison.
    Passing p0 enables the gradient ratio family; passing the exponent
    pair enables the solution re-check and the pointwise power family.
    """
    tol = rel_tol()
    sqrt2 = mp.sqrt(2)
    if p0 is not None:
        ratio_factor = mp.sqrt((1 + to_mpf(p0) ** 2) / 2)
    if point is not None:
        term_of = term_kernel(point.p, point.q)
        neg_p, one_minus_q = -to_mpf(point.p), 1 - to_mpf(point.q)
    dec, sand, avg, gratio, ppower = (_Family() for _ in range(5))
    solution_sites = 0
    for step in walk.steps:
        rhs = sqrt2 * step.grad
        scale = max(abs(step.lap), rhs)
        m = (abs(step.lap) - rhs) / scale if scale > 0 else mp.mpf(0)
        avg.add(m, m <= tol)
        solves = False
        if point is not None:
            try:
                term = term_of(step.u, step.grad ** 2)
                solves = check_nonpositive(step.lap + term,
                                           max(abs(step.lap), term), tol).holds
            except InputError:
                solves = False
            if solves:
                solution_sites += 1
        if step.drop is not None:
            dec.add(-step.drop, step.drop > 0)
            if solves:
                scale = max(abs(step.lap), abs(step.drop))
                if scale == 0:
                    sand.add(mp.mpf(0), False)  # lap must be strictly negative
                else:
                    m = max(step.lap, -step.drop - step.lap) / scale
                    sand.add(m, step.lap < 0 and m <= tol)
            # the gradient ratio bound only needs a nonpositive Laplacian and
            # a strict drop, not the full solution property
            if p0 is not None and step.drop > 0 and step.lap <= 0:
                bound = ratio_factor * step.drop
                m = (step.grad - bound) / max(step.grad, bound)
                gratio.add(m, m <= tol)
        if point is not None and solves and step.grad > 0:
            rhs = sqrt2 * mp.power(step.u, neg_p) * mp.power(step.grad, one_minus_q)
            m = (1 - rhs) / max(mp.mpf(1), rhs)
            ppower.add(m, m <= tol)
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
    """
    tol = rel_tol()
    term_of = term_kernel(point.p, point.q)
    p1 = to_mpf(point.p - 1)
    verdicts = []
    for u_val, lap, grad_sq in map(operators, reps):
        grad = mp.sqrt(grad_sq)
        try:
            term = term_of(u_val, grad ** 2)
        except InputError:
            verdicts.append(_UNDEFINED)
            continue
        if not check_nonpositive(lap + term, max(abs(lap), term), tol).holds:
            verdicts.append(_NOT_A_SOLUTION)
            continue
        verdicts.append(mp.power(u_val, p1) * term_of.grad_power(grad) - 1)
    margins = []
    skipped = []
    failures = []
    for site, c in zip(sites, class_of):
        verdict = verdicts[c]
        if verdict is _UNDEFINED:
            skipped.append(site)
        elif verdict is _NOT_A_SOLUTION:
            failures.append(site)
        else:
            margins.append(verdict)
    holds = all(m <= tol for m in margins)
    return PointwiseBoundReport(
        checked=len(margins), holds=holds,
        max_margin=max(margins) if margins else None,
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
    inner = built.tree.interior_layers()
    h = inner.stop - 1 if horizon is None else min(horizon, inner.stop - 1)
    layers = range(max(inner.start, -h), h + 1)
    return _pointwise_core(layers, range(len(layers)), layers,
                           layer_operators(built.tree, built.u), built.spec.point)
