"""Finite weighted graphs and their discrete calculus.

A weighted graph carries symmetric positive edge weights mu_xy.  The vertex
measure is mu(x) = sum of incident edge weights, the Laplacian is the
mu-normalized difference operator, and the gradient norm is the square root
of the quadratic form sum_y (mu_xy / 2 mu(x)) (u(y) - u(x))^2.

Graphs and functions are immutable once built; every operation here is a
pure read, safe to call concurrently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import mpmath as mp
from mpmath.libmp import (fone, fzero, mpf_add, mpf_div, mpf_rdiv_int, mpf_sum, repr_dps,
                          round_nearest)

from .errors import InputError, IsolatedVertexError
from .numerics import (all_finite, all_positive, check_le, content_lines, max_quotient_pair, memo,
                       parse_decimal, parse_index, quotient_cmp, to_mpf)


class WeightedGraph:
    """Undirected graph with dense integer vertex ids and positive edge weights.

    Edges are canonicalized to (min, max) pairs, so symmetry of the weight
    is structural.  Self-loops, repeated edges, weights that are not positive
    and finite, and isolated vertices are rejected at construction.
    """

    __slots__ = ("_n", "_adj", "_edges", "_measures", "_dist_cache")

    def __init__(self, n_vertices: int, edges: Iterable[tuple[int, int, object]]):
        if n_vertices <= 0:
            raise InputError("graph needs at least one vertex")
        canonical: dict[tuple[int, int], mp.mpf] = {}
        for x, y, w in edges:
            if not (0 <= x < n_vertices and 0 <= y < n_vertices):
                raise InputError(f"edge ({x},{y}) references an unknown vertex")
            if x == y:
                raise InputError(f"self-loop at vertex {x}")
            key = (x, y) if x < y else (y, x)
            if key in canonical:
                raise InputError(f"duplicate edge {key}")
            weight = to_mpf(w)
            sign, man, _, _ = weight._mpf_
            if sign or not man:             # not positive and finite
                raise InputError(f"edge {key} has weight {w}; weights must be positive and finite")
            canonical[key] = weight
        # before any per-vertex list: the first isolated id is at most the
        # number of vertices the edges touch, however large n_vertices is
        touched = {v for key in canonical for v in key}
        if len(touched) < n_vertices:
            v = next(v for v in range(n_vertices) if v not in touched)
            raise IsolatedVertexError(f"vertex {v} is isolated; the Laplacian is undefined there")
        adj: list[list[tuple[int, mp.mpf]]] = [[] for _ in range(n_vertices)]
        for (x, y), w in sorted(canonical.items()):
            adj[x].append((y, w))
            adj[y].append((x, w))
        self._n = n_vertices
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        self._edges = tuple(sorted(canonical.items()))
        # mp.fsum's bits: it ends in this one mpf_sum of the raw weights
        prec, rnd = mp.mp._prec_rounding
        self._measures = tuple(mp.make_mpf(mpf_sum([w._mpf_ for _, w in nbrs], prec, rnd))
                               for nbrs in self._adj)
        self._dist_cache: dict[int, tuple[int, ...]] = {}

    @property
    def n_vertices(self) -> int:
        return self._n

    def vertices(self) -> range:
        return range(self._n)

    def edges(self) -> tuple[tuple[tuple[int, int], mp.mpf], ...]:
        """Canonical (x, y) with x < y, paired with the weight."""
        return self._edges

    def neighbors(self, x: int) -> tuple[tuple[int, mp.mpf], ...]:
        self._check_vertex(x)
        return self._adj[x]

    def degree(self, x: int) -> int:
        return len(self.neighbors(x))

    def weight(self, x: int, y: int) -> mp.mpf:
        for z, w in self.neighbors(x):
            if z == y:
                return w
        return mp.mpf(0)

    def _check_vertex(self, x: int) -> None:
        if not (isinstance(x, int) and 0 <= x < self._n):
            raise InputError(f"unknown vertex {x}")

    def distances_from(self, o: int) -> tuple[int, ...]:
        """BFS distances from o; unreachable vertices get -1.  Cached per root."""
        self._check_vertex(o)
        cached = self._dist_cache.get(o)
        if cached is not None:
            return cached
        dist = [-1] * self._n
        dist[o] = 0
        queue = deque([o])
        while queue:
            x = queue.popleft()
            for y, _ in self._adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        result = tuple(dist)
        self._dist_cache[o] = result
        return result

    def ball(self, o: int, radius: int) -> list[int]:
        if radius < 0:
            raise InputError("radius must be nonnegative")
        dist = self.distances_from(o)
        return [v for v in self.vertices() if 0 <= dist[v] <= radius]


class GraphFunction:
    """A real-valued function defined on every vertex of a graph."""

    __slots__ = ("_values",)

    def __init__(self, values: Sequence):
        self._values = tuple(to_mpf(v) for v in values)
        if not all_finite(self._values):
            raise InputError("function values must be finite")

    @classmethod
    def constant(cls, g: WeightedGraph, value) -> "GraphFunction":
        return cls([value] * g.n_vertices)

    @classmethod
    def from_callable(cls, g: WeightedGraph, fn: Callable[[int], object]) -> "GraphFunction":
        return cls([fn(x) for x in g.vertices()])

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, x: int) -> mp.mpf:
        return self._values[x]

    def values(self) -> tuple[mp.mpf, ...]:
        return self._values

    def is_positive(self) -> bool:
        return all_positive(self._values)

    def combine(self, a, other: "GraphFunction", b) -> "GraphFunction":
        """Pointwise a*self + b*other."""
        a, b = to_mpf(a), to_mpf(b)
        return GraphFunction([a * u + b * v for u, v in zip(self._values, other._values)])


def _require_total(g: WeightedGraph, u: GraphFunction) -> None:
    if len(u) != g.n_vertices:
        raise InputError(f"function defined on {len(u)} vertices, graph has {g.n_vertices}")


def vertex_measure(g: WeightedGraph, x: int) -> mp.mpf:
    """mu(x) = sum of weights of edges at x.  Positive by construction."""
    g._check_vertex(x)
    m = g._measures[x]
    if not m > 0:
        raise IsolatedVertexError(f"vertex {x} has measure zero")
    return m


def laplacian(g: WeightedGraph, u: GraphFunction, x: int) -> mp.mpf:
    """Delta u(x) = sum_y (mu_xy / mu(x)) (u(y) - u(x))."""
    _require_total(g, u)
    m = vertex_measure(g, x)
    return mp.fsum(w * (u[y] - u[x]) for y, w in g.neighbors(x)) / m


def gradient_form(g: WeightedGraph, u: GraphFunction, v: GraphFunction, x: int) -> mp.mpf:
    """Bilinear form Gamma(u, v)(x) = sum_y (mu_xy / 2 mu(x)) (u(y)-u(x))(v(y)-v(x))."""
    _require_total(g, u)
    _require_total(g, v)
    m = vertex_measure(g, x)
    return mp.fsum(w * (u[y] - u[x]) * (v[y] - v[x]) for y, w in g.neighbors(x)) / (2 * m)


def site_operators(g: WeightedGraph, u: GraphFunction) -> Callable[[int], tuple]:
    """The operator stream of u on g: x -> (u(x), lap, grad^2).

    u is checked against the graph once, here.  Each neighbour difference
    d = u(y) - u(x) is formed once; lap sums w d and grad^2 sums (w d) d, in
    neighbour order, exactly as `laplacian` and `gradient_form(u, u)` do, so
    the values are theirs bit for bit.
    """
    _require_total(g, u)
    values, adj, measures = u.values(), g._adj, g._measures
    check_vertex = g._check_vertex

    def ops(x):
        check_vertex(x)
        ux = values[x]
        lap_terms, grad_terms = [], []
        for y, w in adj[x]:
            d = values[y] - ux
            wd = w * d
            lap_terms.append(wd)
            grad_terms.append(wd * d)
        m = measures[x]
        return ux, mp.fsum(lap_terms) / m, mp.fsum(grad_terms) / (2 * m)

    return ops


def site_classes(g: WeightedGraph, u: GraphFunction,
                 sites: Iterable[int] | None = None) -> tuple[list[int], list[int]]:
    """Group sites (default: every vertex, in id order) by their exact stencil.

    The stencil of x is u(x) followed by (mu_xy, u(y)) for each neighbour y
    in adjacency order, compared bit for bit.  `site_operators` and mu(x)
    are pure functions of it, so at one precision every site of a class has
    the same u, lap and grad^2 to the last bit, and so does anything computed
    from them alone.  Returns (class_of, reps): class_of[i] is the class of
    the i-th site, and reps[c] is the first site of class c, classes being
    numbered in order of first appearance.  A materialized radial ball has
    one class per layer; on a graph without repeats every class is a
    singleton.
    """
    _require_total(g, u)
    values = [v._mpf_ for v in u.values()]
    adj = g._adj
    index: dict[tuple, int] = {}
    class_of, reps = [], []
    for x in g.vertices() if sites is None else sites:
        key = (values[x], *[(w._mpf_, values[y]) for y, w in adj[x]])
        c = index.setdefault(key, len(reps))
        if c == len(reps):
            reps.append(x)
        class_of.append(c)
    return class_of, reps


def gradient_norm(g: WeightedGraph, u: GraphFunction, x: int) -> mp.mpf:
    """|grad u|(x) = sqrt(Gamma(u, u)(x))."""
    return mp.sqrt(gradient_form(g, u, u, x))


def restricted_gradient_norm(
    g: WeightedGraph, u: GraphFunction, x: int, omega: Iterable[int]
) -> mp.mpf:
    """Gradient norm keeping only neighbors inside omega.

    The normalization stays the full vertex measure mu(x), so this is a lower
    bound for the true gradient norm, not the gradient of the induced
    subgraph.
    """
    _require_total(g, u)
    omega_set = set(omega)
    if x not in omega_set:
        raise InputError(f"vertex {x} is outside the restriction set")
    m = vertex_measure(g, x)
    acc = mp.fsum(w * (u[y] - u[x]) ** 2 for y, w in g.neighbors(x) if y in omega_set)
    return mp.sqrt(acc / (2 * m))


def p0_of(g: WeightedGraph) -> mp.mpf:
    """Smallest p0 with mu_xy / mu(x) >= 1/p0 on every directed edge.

    Equals the maximum of mu(x)/mu_xy over both orientations of all edges;
    always at least 1.  The largest exact ratio is `max_quotient_pair`'s,
    divided once.
    """
    measures = g._measures
    top = max_quotient_pair((m._mpf_, w._mpf_) for (x, y), w in g.edges()
                            for m in (measures[x], measures[y]))
    return mp.make_mpf(mpf_div(*top, mp.mp.prec, round_nearest))


def ball_volume(g: WeightedGraph, o: int, n: int) -> mp.mpf:
    """mu(B(o, n)): total vertex measure within graph distance n of o."""
    if n < 0:
        raise InputError("radius must be nonnegative")
    return mp.fsum(vertex_measure(g, x) for x in g.ball(o, n))


def nash_williams_partial(
    volume_profile: Callable[[int], object], n_max: int, n_min: int = 1
) -> mp.mpf:
    """Partial sum of n / mu(B(o, n)) for n in [n_min, n_max].

    Divergence of the full series certifies parabolicity: every nonnegative
    supersolution of the Laplace inequality is constant.
    """
    if n_min < 1 or n_max < n_min:
        raise InputError("need 1 <= n_min <= n_max")
    prec = mp.mp.prec
    total = fzero
    for n in range(n_min, n_max + 1):   # on raw mpf values: the operations of mpf's += and /
        vol = to_mpf(volume_profile(n))
        raw = vol._mpf_
        if raw[0] or not raw[1]:        # negative, zero, infinite or nan
            raise InputError(f"volume profile must be positive, got {vol} at n={n}")
        total = mpf_add(total, mpf_rdiv_int(n, raw, prec, round_nearest), prec, round_nearest)
    return mp.make_mpf(total)


def checked_p0(p0) -> mp.mpf:
    """p0 as an mpf, or an input error unless it is finite and at least 1."""
    p0 = to_mpf(p0)
    if not 1 <= p0 < mp.inf:            # nan fails both comparisons
        raise InputError("p0 must be finite and at least 1")
    return p0


@dataclass(frozen=True)
class HarnackReport:
    holds: bool
    worst_edge: tuple[int, int] | None
    worst_ratio: mp.mpf
    p0: mp.mpf


def harnack_scan(pairs, p0, what: str) -> HarnackReport:
    """Scan ((x, y), u(x), u(y)) edge triples for 1/p0 <= u(x)/u(y) <= p0.

    Requires a finite p0 >= 1 and u > 0 (`what`, a format string, names the edge in
    the error); reports the extremal adjacent ratio and the first edge
    where it occurs, decided by the tolerant `check_le`.  The largest exact
    ratio is `max_quotient_pair`'s, divided once; the worst edge is the
    first whose rounded ratio equals it, above 1.  A ratio that rounds to it
    lies within 2 ulps of it, so only the pairs that close are divided, in
    edge order, until one does.  No pair is hashed: `harnack_check` hands a
    graph's distinct value pairs once each, and a tree's layers seldom repeat.
    """
    p0 = checked_p0(p0)
    prec = mp.mp.prec
    ratios = []
    for edge, a, b in pairs:
        a, b = a._mpf_, b._mpf_
        if a[0] or b[0] or not (a[1] and b[1]):    # not positive and finite
            raise InputError("harnack_check needs positive values, " + what.format(*edge))
        ratios.append((edge, (a, b) if quotient_cmp(a, b, fone, fone) >= 0 else (b, a)))
    worst = mpf_div(*max_quotient_pair(ratio for _, ratio in ratios), prec, round_nearest)
    worst_edge = None
    if worst != fone:
        _, man, exp, bc = worst
        near = (0, (man << prec - bc) - 2, exp - prec + bc, 0)     # 2 ulps below worst
        worst_edge = next(edge for edge, ratio in ratios if quotient_cmp(*ratio, near, fone) >= 0
                          and mpf_div(*ratio, prec, round_nearest) == worst)
    worst_ratio = mp.make_mpf(worst)
    holds = check_le(worst_ratio, p0).holds
    return HarnackReport(holds=holds, worst_edge=worst_edge, worst_ratio=worst_ratio, p0=p0)


def harnack_check(g: WeightedGraph, u: GraphFunction, p0) -> HarnackReport:
    """Scan all edges for 1/p0 <= u(x)/u(y) <= p0, by `harnack_scan`, each
    distinct pair of values once, at its first edge: a ball repeats each
    layer pair on many edges."""
    _require_total(g, u)
    first = {}
    for (x, y), _ in g.edges():
        pair = u[x]._mpf_, u[y]._mpf_
        if pair not in first:
            first[pair] = (x, y), u[x], u[y]
    return harnack_scan(first.values(), p0, "edge ({},{})")


# Edge-list text format: header "graph v=<count>", then "x y mu" lines.
# Lines starting with '#' are comments.  The writers' default digits are
# mpmath's repr digits at the working precision, enough to read back the
# same bits.

def format_graph_text(g: WeightedGraph, digits: int | None = None) -> str:
    digits = repr_dps(mp.mp.prec) if digits is None else digits
    lines = [f"graph v={g.n_vertices}"]
    for (x, y), w in g.edges():
        lines.append(f"{x} {y} {mp.nstr(w, digits, strip_zeros=True)}")
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> WeightedGraph:
    lines = content_lines(text)
    head = next(lines, None)
    if head is None:
        raise InputError("empty graph file")
    header = head.split()
    if len(header) != 2 or header[0] != "graph" or not header[1].startswith("v="):
        raise InputError(f"bad graph header: {head!r}")
    try:
        n = parse_index(header[1][2:])
    except ValueError:
        raise InputError(f"bad vertex count in header: {head!r}")
    edges = []
    # Split, not one line pattern as in the radial reader: a ball's weights
    # repeat, so each distinct one is read once, and a pattern's groups cost
    # more per line than the split.
    weight = memo(parse_decimal)
    for ln in lines:
        parts = ln.split()
        if len(parts) != 3:
            raise InputError(f"bad edge line: {ln!r}")
        try:
            x, y = parse_index(parts[0]), parse_index(parts[1])
        except ValueError:
            raise InputError(f"bad vertex id in line: {ln!r}")
        try:
            edges.append((x, y, weight(parts[2])))
        except ValueError:
            raise InputError(f"bad edge weight in line: {ln!r}")
    return WeightedGraph(n, edges)
