"""The per-site loops as they read before the operator streams.

Each function here is the body of the package function of the same name
as it was written when every loop called `laplacian_at`/`gradient_at`,
`laplacian`/`gradient_norm` and `nonlinear_term` per site (the radial
Harnack scan, `radial_harnack_check`, is the one-sided method with its
layer range read from the tree, so that it serves both tree classes).
`test_reference.py` holds the rewritten functions to these, exactly.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

from liouville.caccioppoli import (EstimateReport, TestFunction, _estimate_exponents,
                                   _finish_report)
from liouville.counterexamples import BuiltCounterexample, MarginReport, _checked_layers
from liouville.descent import (DescentWalk, DescentStep, PointwiseBoundReport,
                               WalkDiagnostics, _Family)
from liouville.errors import InputError
from liouville.graphs import (GraphFunction, HarnackReport, WeightedGraph, _require_total,
                              gradient_norm, laplacian, vertex_measure)
from liouville.numerics import check_le, check_nonpositive, rel_tol, to_mpf
from liouville.radial import RadialFunction, RadialTree, TwoSidedRadialTree
from liouville.regions import PQPoint, st_condition

def nonlinear_term(u_value, grad_sq, p, q) -> mp.mpf:
    """u^p |grad u|^q with the q = 0 convention |grad u|^0 = 1.

    A zero gradient with q < 0 is undefined and raises; it is never a pass.
    """
    u_value = to_mpf(u_value)
    if not u_value > 0:
        raise InputError("solution value must be positive")
    q = Fraction(q)
    if q == 0:
        return mp.power(u_value, to_mpf(p))
    grad_sq = to_mpf(grad_sq)
    if grad_sq == 0:
        if q > 0:
            return mp.mpf(0)
        raise InputError("zero gradient with q < 0: u^p |grad u|^q undefined")
    return mp.power(u_value, to_mpf(p)) * mp.power(grad_sq, to_mpf(q) / 2)


def verify_graph(g: WeightedGraph, u: GraphFunction, p, q) -> MarginReport:
    """Vertexwise margin check on an explicit finite graph."""
    tol = rel_tol()
    bits = mp.mp.prec
    max_margin = mp.mpf("-inf")
    worst = 0
    failures = []
    undefined = []
    for x in g.vertices():
        lap = laplacian(g, u, x)
        grad = gradient_norm(g, u, x)
        try:
            term = nonlinear_term(u[x], grad * grad, p, q)
        except InputError:
            undefined.append(x)
            continue
        check = check_nonpositive(lap + term, max(abs(lap), term), tol)
        if check.margin > max_margin:
            max_margin = check.margin
            worst = x
        if not check.holds and len(failures) < 20:
            failures.append((x, check.margin))
    return MarginReport(
        verified=not failures and not undefined,
        max_margin=max_margin,
        worst_layer=worst,
        layers=(0, g.n_vertices - 1),
        n_layers=g.n_vertices - len(undefined),
        precision_bits=bits,
        tol=tol,
        failures=tuple(failures),
        undefined_layers=tuple(undefined),
    )


def layer_rows(built: BuiltCounterexample, horizon: int | None = None):
    """Yield (layer, w, u, lap, grad, margin) across the checked layers."""
    for n in _checked_layers(built.tree, horizon):
        lap = built.tree.laplacian_at(built.u, n)
        grad = mp.sqrt(built.tree.gradient_sq_at(built.u, n))
        try:
            margin = lap + nonlinear_term(built.u.value(n), grad * grad,
                                          built.spec.p, built.spec.q)
        except InputError:
            margin = mp.nan
        try:
            w = built.tree.weight(n)
        except InputError:
            w = mp.nan
        yield (n, w, built.u.value(n), lap, grad, margin)


def harnack_check(g: WeightedGraph, u: GraphFunction, p0) -> HarnackReport:
    """Scan all edges for 1/p0 <= u(x)/u(y) <= p0.

    Requires u > 0; reports the extremal adjacent ratio and the edge where
    it occurs.
    """
    _require_total(g, u)
    p0 = to_mpf(p0)
    if p0 < 1:
        raise InputError("p0 must be at least 1")
    worst_ratio = mp.mpf(1)
    worst_edge: tuple[int, int] | None = None
    for (x, y), _ in g.edges():
        if not (u[x] > 0 and u[y] > 0):
            raise InputError(f"harnack_check needs positive values, edge ({x},{y})")
        ratio = max(u[x] / u[y], u[y] / u[x])
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_edge = (x, y)
    holds = check_le(worst_ratio, p0).holds
    return HarnackReport(holds=holds, worst_edge=worst_edge, worst_ratio=worst_ratio, p0=p0)


def radial_harnack_check(self, u: RadialFunction, p0) -> HarnackReport:
    """Layerwise Harnack scan; every E_n edge realizes the ratio u_n : u_{n+1}."""
    self.check_covers(u)
    p0 = to_mpf(p0)
    worst_ratio = mp.mpf(1)
    worst_edge = None
    for n in range(self.layer_lo, self.layer_hi):
        a, b = u.value(n), u.value(n + 1)
        if not (a > 0 and b > 0):
            raise InputError(f"harnack_check needs positive values, layers {n},{n + 1}")
        ratio = max(a / b, b / a)
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_edge = (n, n + 1)
    return HarnackReport(holds=worst_ratio <= p0, worst_edge=worst_edge,
                         worst_ratio=worst_ratio, p0=p0)


def estimate_sides(g: WeightedGraph, u: GraphFunction, o: int, tf: TestFunction,
                   s, t, point: PQPoint, p0, variant: str = "est2",
                   omega=None) -> EstimateReport:
    """Evaluate one energy estimate on an explicit graph by direct summation.

    omega = None means the whole vertex set.  Sums over pairs are over
    ordered pairs, so each edge contributes both directions.
    """
    if variant not in ("est1", "est2"):
        raise InputError(f"unknown estimate variant {variant!r}")
    s, t = Fraction(s), Fraction(t)
    failures = []
    omega_set = set(g.vertices()) if omega is None else set(omega)
    omega_desc = "all" if omega is None else f"{len(omega_set)} vertices"
    full = len(omega_set) == g.n_vertices
    if not u.is_positive():
        failures.append("u is not strictly positive")
    if not st_condition(point, s, t):
        failures.append("(s, t) violates the admissibility system")
    if not harnack_check(g, u, p0).holds:
        failures.append("adjacent-ratio bound fails for the given p0")
    # The cutoff lives on omega: values outside the domain never enter a sum,
    # and on a finite graph compact support is automatic.
    dist = g.distances_from(o)
    tol = rel_tol()
    p, q = to_mpf(point.p), to_mpf(point.q)
    p_t = p - to_mpf(t)
    s_m = to_mpf(s)
    ineq_bad = 0
    lhs_terms = []
    grads = {}
    domain = sorted(omega_set)  # fixed reduction order, bit-reproducible sums
    for x in domain:
        phi_x = tf.value(dist[x])
        grad = gradient_norm(g, u, x)
        grads[x] = grad
        lap = laplacian(g, u, x)
        if grad == 0 and point.q < 0:
            failures.append(f"zero gradient with q < 0 at vertex {x}")
            continue
        term = mp.power(u[x], p) * (mp.power(grad, q) if point.q != 0 else mp.mpf(1))
        if not check_nonpositive(lap + term, max(abs(lap), term), tol).holds:
            ineq_bad += 1
        if phi_x == 0:
            continue
        weight_term = mp.power(u[x], p_t) * (mp.power(grad, q) if point.q != 0 else mp.mpf(1))
        lhs_terms.append(vertex_measure(g, x) * weight_term * to_mpf(phi_x) ** s_m)
    if ineq_bad:
        failures.append(f"the inequality fails at {ineq_bad} domain vertices")
    if not full:
        for x in domain:
            for y, _ in g.neighbors(x):
                if y not in omega_set and u[y] < u[x]:
                    failures.append("boundary monotonicity u(y) >= u(x) fails")
                    break
            else:
                continue
            break
    lhs = mp.fsum(lhs_terms)
    a, rho, _ = _estimate_exponents(point, s, t)
    edge_terms = []
    middle_terms = []
    for x in domain:
        phi_x = tf.value(dist[x])
        for y, w in g.neighbors(x):
            if y not in omega_set:
                continue
            dphi = abs(to_mpf(tf.value(dist[y]) - phi_x))
            if dphi == 0:
                continue
            edge_terms.append(w * mp.power(dphi, a * rho))
            if phi_x != 0:
                grad = grads[x]
                if grad == 0 and point.q < 0:
                    continue
                gq = mp.power(grad, q) if point.q != 0 else mp.mpf(1)
                middle_terms.append(w * to_mpf(phi_x) ** s_m * mp.power(u[x], p_t) * gq)
    edge_sum = mp.fsum(edge_terms)
    middle = mp.fsum(middle_terms)
    return _finish_report(variant, point, s, t, p0, omega_desc, lhs, middle,
                          edge_sum, failures)


def estimate_sides_radial(tree: RadialTree, u: RadialFunction, tf: TestFunction,
                          s, t, point: PQPoint, p0=None,
                          variant: str = "est2") -> EstimateReport:
    """Layer-compressed estimate evaluation on a radial tree, domain = all.

    The cutoff is a function of the layer, so every sum collapses to shell
    sums: layer measures are N w_0 and N (w_{k-1} + w_k), and the shell
    E_n contributes total edge weight N w_n per direction.  Equals the
    explicit-graph evaluation on a materialized ball containing the
    cutoff's support (asserted in the test suite at small radius).
    """
    if variant not in ("est1", "est2"):
        raise InputError(f"unknown estimate variant {variant!r}")
    s, t = Fraction(s), Fraction(t)
    R = tf.support_radius()
    if tree.horizon < R + 1:
        raise InputError(
            f"tree horizon {tree.horizon} too small for support radius {R} (needs R+1)"
        )
    if p0 is None:
        p0 = tree.p0()
    failures = []
    if not u.is_positive():
        failures.append("u is not strictly positive")
    if not st_condition(point, s, t):
        failures.append("(s, t) violates the admissibility system")
    if not tree.harnack_check(u, p0).holds:
        failures.append("adjacent-ratio bound fails for the given p0")
    tol = rel_tol()
    p, q = to_mpf(point.p), to_mpf(point.q)
    p_t = p - to_mpf(t)
    s_m = to_mpf(s)
    grads = {}
    ineq_bad = 0
    lhs_terms = []
    for n in range(0, R + 1):
        grad = tree.gradient_at(u, n)
        grads[n] = grad
        if grad == 0 and point.q < 0:
            failures.append(f"zero gradient with q < 0 at layer {n}")
            continue
        gq = mp.power(grad, q) if point.q != 0 else mp.mpf(1)
        lap = tree.laplacian_at(u, n)
        term = mp.power(u.value(n), p) * gq
        if not check_nonpositive(lap + term, max(abs(lap), term), tol).holds:
            ineq_bad += 1
        phi_n = tf.value(n)
        if phi_n == 0:
            continue
        lhs_terms.append(tree.layer_measure(n) * mp.power(u.value(n), p_t) * gq
                         * to_mpf(phi_n) ** s_m)
    if ineq_bad:
        failures.append(f"the inequality fails at {ineq_bad} layers inside the support")
    lhs = mp.fsum(lhs_terms)
    a, rho, _ = _estimate_exponents(point, s, t)
    edge_terms = []
    middle_terms = []
    for n in range(0, R + 1):
        dphi = abs(to_mpf(tf.value(n + 1) - tf.value(n)))
        if dphi == 0:
            continue
        shell = tree.N * tree.weight(n)
        edge_terms.append(2 * shell * mp.power(dphi, a * rho))
        for end in (n, n + 1):
            phi_e = tf.value(end)
            if phi_e == 0:
                continue
            grad = grads.get(end)
            if grad is None:
                grad = tree.gradient_at(u, end)
            if grad == 0 and point.q < 0:
                continue
            gq = mp.power(grad, q) if point.q != 0 else mp.mpf(1)
            middle_terms.append(shell * to_mpf(phi_e) ** s_m
                                * mp.power(u.value(end), p_t) * gq)
    edge_sum = mp.fsum(edge_terms)
    middle = mp.fsum(middle_terms)
    return _finish_report(variant, point, s, t, p0, "all", lhs, middle,
                          edge_sum, failures)


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
    if max_steps < 0:
        raise InputError("max_steps must be nonnegative")
    if gradient_norm(g, u, x0) == 0:
        raise InputError("no descent possible: zero gradient at the start vertex")
    records = []
    visited = {x0}
    x = x0
    termination = "max-steps"
    revisit = False
    while True:
        lap = laplacian(g, u, x)
        grad = gradient_norm(g, u, x)
        records.append([x, u[x], lap, grad, None])
        if grad == 0:
            termination = "zero-gradient"
            break
        if len(records) == max_steps + 1:
            break
        nxt = min(g.neighbors(x), key=lambda yw: (u[yw[0]], yw[0]))[0]
        if nxt in visited:
            termination = "revisit"
            revisit = True
            break
        records[-1][4] = u[x] - u[nxt]
        visited.add(nxt)
        x = nxt
    steps = tuple(DescentStep(site=r[0], u=r[1], lap=r[2], grad=r[3], drop=r[4])
                  for r in records)
    return DescentWalk(steps=steps, termination=termination, revisit_flagged=revisit)


def radial_descent_walk(tree: RadialTree | TwoSidedRadialTree, u: RadialFunction,
                        start_layer: int = 0, max_steps: int = 1000) -> DescentWalk:
    """Descent walk on a radial tree, tracked by layer index.

    The start is read as the first breadth-first vertex of its layer, so
    the walk reproduces the canonical materialized one exactly: the parent
    always has the smaller id (winning value ties; at the two-sided root
    the positive arm comes first), and an immediate direction reversal is
    a vertex revisit.  A move onto a layer whose operators would need data
    beyond the stored horizon stops the walk with termination "horizon".
    """
    two_sided = isinstance(tree, TwoSidedRadialTree)
    lo, hi = tree.layer_lo, tree.layer_hi

    def interior(n):
        return lo < n < hi if two_sided else n < hi

    if not u.is_positive():
        raise InputError("descent needs a positive function")
    if not interior(start_layer):
        raise InputError(f"start layer {start_layer} has no stored neighborhood")
    if tree.gradient_at(u, start_layer) == 0:
        raise InputError("no descent possible: zero gradient at the start layer")

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

    records = []
    x = start_layer
    prev = None
    termination = "max-steps"
    revisit = False
    while True:
        lap = tree.laplacian_at(u, x)
        grad = tree.gradient_at(u, x)
        records.append([x, u.value(x), lap, grad, None])
        if grad == 0:
            termination = "zero-gradient"
            break
        if len(records) == max_steps + 1:
            break
        nxt = next_layer(x)
        if prev is not None and nxt == prev:
            termination = "revisit"
            revisit = True
            break
        if not interior(nxt):
            termination = "horizon"
            break
        records[-1][4] = u.value(x) - u.value(nxt)
        prev = x
        x = nxt
    steps = tuple(DescentStep(site=r[0], u=r[1], lap=r[2], grad=r[3], drop=r[4])
                  for r in records)
    return DescentWalk(steps=steps, termination=termination, revisit_flagged=revisit)


def walk_diagnostics(walk: DescentWalk, p0=None,
                     point: PQPoint | None = None) -> WalkDiagnostics:
    """Per-step bound margins over a recorded walk.

    Margins are normalized by the dominant magnitude of each comparison.
    Passing p0 enables the gradient ratio family; passing the exponent
    pair enables the solution re-check and the pointwise power family.
    """
    tol = rel_tol()
    sqrt2 = mp.sqrt(2)
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
                term = nonlinear_term(step.u, step.grad ** 2, point.p, point.q)
                solves = check_nonpositive(step.lap + term,
                                           max(abs(step.lap), term)).holds
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
                bound = mp.sqrt((1 + to_mpf(p0) ** 2) / 2) * step.drop
                m = (step.grad - bound) / max(step.grad, bound)
                gratio.add(m, m <= tol)
        if point is not None and solves and step.grad > 0:
            rhs = sqrt2 * mp.power(step.u, -to_mpf(point.p)) \
                * mp.power(step.grad, 1 - to_mpf(point.q))
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


def _pointwise_core(sites, point: PQPoint) -> PointwiseBoundReport:
    """Margin of u^(p-1) |grad u|^q - 1 at every site solving the inequality."""
    tol = rel_tol()
    margins = []
    skipped = []
    failures = []
    p1 = to_mpf(point.p - 1)
    for site, u_val, lap, grad in sites:
        try:
            term = nonlinear_term(u_val, grad ** 2, point.p, point.q)
        except InputError:
            skipped.append(site)
            continue
        if not check_nonpositive(lap + term, max(abs(lap), term)).holds:
            failures.append(site)
            continue
        gq = mp.power(grad, to_mpf(point.q)) if point.q != 0 else mp.mpf(1)
        margins.append(mp.power(u_val, p1) * gq - 1)
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
    sites = ((x, u[x], laplacian(g, u, x), gradient_norm(g, u, x))
             for x in g.vertices())
    return _pointwise_core(sites, point)


def pointwise_bound_check_built(built: BuiltCounterexample,
                                horizon: int | None = None) -> PointwiseBoundReport:
    """Layerwise version for radial builds."""
    tree, u = built.tree, built.u
    if isinstance(tree, TwoSidedRadialTree):
        deepest = tree.arm_horizon - 1
        h = deepest if horizon is None else min(horizon, deepest)
        layers = range(-h, h + 1)
    else:
        h = tree.horizon - 1 if horizon is None else min(horizon, tree.horizon - 1)
        layers = range(0, h + 1)
    sites = ((n, u.value(n), tree.laplacian_at(u, n), tree.gradient_at(u, n))
             for n in layers)
    return _pointwise_core(sites, built.spec.point)
