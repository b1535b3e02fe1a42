"""The extremes of ratios as they read when every ratio was divided.

`p0_of`, the radial tree's `_max_edge_ratio` and `harnack_scan` divided
each edge's ratio in mpf and kept the largest.  These are their bodies
verbatim (`max_edge_ratio` takes the tree as its argument).
`test_reference.py` holds the versions that compare exact ratios and
divide once to these, exactly.
"""

from __future__ import annotations

import mpmath as mp

from liouville.errors import InputError
from liouville.graphs import HarnackReport, WeightedGraph, checked_p0, vertex_measure
from liouville.numerics import check_le


def p0_of(g: WeightedGraph) -> mp.mpf:
    """Smallest p0 with mu_xy / mu(x) >= 1/p0 on every directed edge.

    Equals the maximum of mu(x)/mu_xy over both orientations of all edges;
    always at least 1.
    """
    worst = mp.mpf(1)
    for (x, y), w in g.edges():
        worst = max(worst, vertex_measure(g, x) / w, vertex_measure(g, y) / w)
    return worst


def max_edge_ratio(self) -> mp.mpf:
    w, z, N = self._w, -self._lo, self._N
    if self.one_sided:
        ratios = [mp.mpf(N)]                # N equal edges at the root
    else:
        root = (N - 1) * w[z] + w[z - 1]
        ratios = [root / w[z], root / w[z - 1]]
    for n in range(self._lo + 1, self._hi):
        if n == 0:
            continue
        wn, wm = w[z + n], w[z + n - 1]
        w_out, w_in = (wn, wm) if n > 0 else (wm, wn)
        ratios += [(wn + wm) / w_in, (N - 1) * (wn + wm) / w_out]
    return max(ratios)


def harnack_scan(pairs, p0, what: str) -> HarnackReport:
    """Scan ((x, y), u(x), u(y)) edge triples for 1/p0 <= u(x)/u(y) <= p0.

    Requires a finite p0 >= 1 and u > 0 (`what`, a format string, names the edge in
    the error); reports the extremal adjacent ratio and the first edge
    where it occurs, decided by the tolerant `check_le`.  The ratio is a
    function of the pair (u(x), u(y)), so each distinct pair of values is
    evaluated once: a repeated pair repeats a ratio that did not exceed the
    maximum so far, and cannot be the first edge at a strict maximum.
    """
    p0 = checked_p0(p0)
    worst_ratio = mp.mpf(1)
    worst_edge: tuple[int, int] | None = None
    seen = set()
    for edge, a, b in pairs:
        pair = (a._mpf_, b._mpf_)
        if pair in seen:
            continue
        seen.add(pair)
        if not (a > 0 and b > 0):
            raise InputError("harnack_check needs positive values, " + what.format(*edge))
        ratio = a / b if a >= b else b / a
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_edge = edge
    holds = check_le(worst_ratio, p0).holds
    return HarnackReport(holds=holds, worst_edge=worst_edge, worst_ratio=worst_ratio, p0=p0)
