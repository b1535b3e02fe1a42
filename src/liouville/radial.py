"""Layer-compressed spherically symmetric trees.

A homogeneous tree T_N (every vertex of degree N) with weights constant on
each edge shell E_n reduces to a one-dimensional recurrence.  Raw shell
weights mu_n would have to fight the (N-1)^n shell growth, so trees store
the normalized weights

    w_n = mu_n * (N-1)^n            (one-sided, and the positive arm)
    w_n = mu_n * (N-1)^(-n-1)       (negative arm of a two-sided tree)

All operator values depend only on ratios w_n : w_{n-1}, so the
normalization is exact.  At an interior layer n,

    lap   = [w_n (u_{n+1}-u_n) + w_{n-1} (u_{n-1}-u_n)] / (w_n + w_{n-1})
    grad^2 = [w_n (u_{n+1}-u_n)^2 + w_{n-1} (u_{n-1}-u_n)^2] / (2 (w_n + w_{n-1}))

while at the root of a one-sided tree lap = u_1 - u_0 and
grad^2 = (u_1 - u_0)^2 / 2.  Brute-force equivalence with materialized
balls is part of the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import mpmath as mp

from .errors import InputError
from .graphs import GraphFunction, HarnackReport, WeightedGraph
from .numerics import check_le, to_mpf


class RadialFunction:
    """Layerwise values u_n, constant on each layer by construction."""

    __slots__ = ("_values", "_lo")

    def __init__(self, values: Sequence, lo: int = 0):
        self._values = tuple(to_mpf(v) for v in values)
        if not self._values:
            raise InputError("radial function needs at least one layer")
        if not all(map(mp.isfinite, self._values)):
            raise InputError("radial function values must be finite")
        self._lo = lo

    @classmethod
    def from_callable(cls, lo: int, hi: int, fn: Callable[[int], object]) -> "RadialFunction":
        return cls([fn(n) for n in range(lo, hi + 1)], lo=lo)

    @property
    def lo(self) -> int:
        return self._lo

    @property
    def hi(self) -> int:
        return self._lo + len(self._values) - 1

    def value(self, n: int) -> mp.mpf:
        if not (self._lo <= n <= self.hi):
            raise InputError(f"layer {n} outside stored range [{self._lo}, {self.hi}]")
        return self._values[n - self._lo]

    def values(self) -> tuple[mp.mpf, ...]:
        return self._values

    def is_positive(self) -> bool:
        return min(self._values) > 0        # values are finite, and there is one at least


@dataclass(frozen=True)
class RadialLayer:
    """Structural view of one layer: counts are implied by the tree degree."""

    index: int
    vertex_count: int
    outward_degree: int
    outward_weight: mp.mpf  # normalized shell weight


def _running_volumes(tree, n_max: int) -> list[mp.mpf]:
    """mu(B(o, n)) for n = 0..n_max, summed layer by layer in order."""
    vols = []
    acc = mp.mpf(0)
    for k in range(n_max + 1):
        acc += tree.layer_measure(k)
        vols.append(acc)
    return vols


def _laplacian_at(tree, u: RadialFunction, n: int) -> mp.mpf:
    """lap at layer n by the formulas of the module docstring (the reference)."""
    tree.check_covers(u)
    if n == 0 and tree.one_sided:
        if tree.horizon < 1:
            raise InputError("horizon too small for the root Laplacian")
        return u.value(1) - u.value(0)
    wn, wm = tree.conductances(n)
    return (wn * (u.value(n + 1) - u.value(n)) + wm * (u.value(n - 1) - u.value(n))) / (wn + wm)


def _gradient_sq_at(tree, u: RadialFunction, n: int) -> mp.mpf:
    """grad^2 at layer n by the formulas of the module docstring (the reference)."""
    tree.check_covers(u)
    if n == 0 and tree.one_sided:
        if tree.horizon < 1:
            raise InputError("horizon too small for the root gradient")
        return (u.value(1) - u.value(0)) ** 2 / 2
    wn, wm = tree.conductances(n)
    return (
        wn * (u.value(n + 1) - u.value(n)) ** 2 + wm * (u.value(n - 1) - u.value(n)) ** 2
    ) / (2 * (wn + wm))


def _gradient_at(tree, u: RadialFunction, n: int) -> mp.mpf:
    return mp.sqrt(tree.gradient_sq_at(u, n))


def _harnack_check(tree, u: RadialFunction, p0) -> HarnackReport:
    """Layerwise Harnack scan; every E_n edge realizes the ratio u_n : u_{n+1}.

    Decided like `graphs.harnack_check` (tolerant `check_le`, p0 >= 1), so a
    tree and its materialized ball agree on the verdict.
    """
    tree.check_covers(u)
    p0 = to_mpf(p0)
    if p0 < 1:
        raise InputError("p0 must be at least 1")
    worst_ratio = mp.mpf(1)
    worst_edge = None
    values = u.values()[tree.layer_lo - u.lo:]
    for n, a, b in zip(range(tree.layer_lo, tree.layer_hi), values, values[1:]):
        if not (a > 0 and b > 0):
            raise InputError(f"harnack_check needs positive values, layers {n},{n + 1}")
        ratio = a / b if a >= b else b / a
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_edge = (n, n + 1)
    return HarnackReport(holds=check_le(worst_ratio, p0).holds, worst_edge=worst_edge,
                         worst_ratio=worst_ratio, p0=p0)


def layer_operators(tree, u: RadialFunction) -> Callable[[int], tuple]:
    """The operator stream of u on a radial tree: n -> (u_n, lap, grad^2).

    The cover is checked once, here.  At each layer the outward and inward
    differences are formed once and feed both lap and grad^2 by the
    operations of `laplacian_at` and `gradient_sq_at`, so the values are
    theirs bit for bit; layers without both neighbours raise as they do.
    Per-layer loops read `map(ops, layers)`; a walk calls `ops(n)`.
    """
    tree.check_covers(u)
    values, lo = u.values(), u.lo
    conductances = tree.conductances
    one_sided = tree.one_sided
    root_ok = one_sided and tree.horizon >= 1

    def ops(n):
        if n == 0 and one_sided:
            if not root_ok:
                raise InputError("horizon too small for the root operators")
            un = values[0]
            d_out = values[1] - un
            return un, d_out, d_out ** 2 / 2
        a, b = conductances(n)
        i = n - lo
        un = values[i]
        d_out = values[i + 1] - un
        d_in = values[i - 1] - un
        ab = a + b
        return un, (a * d_out + b * d_in) / ab, (a * d_out ** 2 + b * d_in ** 2) / (2 * ab)

    return ops


class RadialTree:
    """One-sided radial tree: root layer 0, horizon H, weights w_0..w_H."""

    __slots__ = ("_N", "_w")
    one_sided = True        # the root, layer 0, has no inward edge

    def __init__(self, N: int, weights: Sequence):
        if not (isinstance(N, int) and N >= 2):
            raise InputError("tree degree N must be an integer >= 2")
        self._N = N
        self._w = tuple(to_mpf(w) for w in weights)
        if not self._w:
            raise InputError("radial tree needs at least one shell weight")
        if any(not 0 < w < mp.inf for w in self._w):
            raise InputError("shell weights must be positive and finite")

    @property
    def N(self) -> int:
        return self._N

    @property
    def horizon(self) -> int:
        return len(self._w) - 1

    @property
    def layer_lo(self) -> int:
        return 0

    @property
    def layer_hi(self) -> int:
        return self.horizon

    def weight(self, n: int) -> mp.mpf:
        if not (0 <= n <= self.horizon):
            raise InputError(f"shell index {n} outside stored range [0, {self.horizon}]")
        return self._w[n]

    def layer(self, n: int) -> RadialLayer:
        count = 1 if n == 0 else self._N * (self._N - 1) ** (n - 1)
        return RadialLayer(index=n, vertex_count=count,
                           outward_degree=self._N if n == 0 else self._N - 1,
                           outward_weight=self.weight(n))

    def check_covers(self, u: RadialFunction) -> None:
        if u.lo != 0 or u.hi < self.horizon:
            raise InputError("radial function does not cover the tree's layers")

    def interior_layers(self) -> range:
        """Layers where both operators are defined (need u at n-1, n, n+1)."""
        return range(0, self.horizon)

    def conductances(self, n: int) -> tuple[mp.mpf, mp.mpf]:
        """(outward, inward) weights (w_n, w_{n-1}) at a layer 1 <= n <= H-1."""
        if not (1 <= n <= self.horizon - 1):
            raise InputError(f"layer {n} has no stored outward edge")
        return self._w[n], self._w[n - 1]

    laplacian_at = _laplacian_at
    gradient_sq_at = _gradient_sq_at
    gradient_at = _gradient_at

    def layer_measure(self, k: int) -> mp.mpf:
        """mu(D_k) of the infinite tree, in normalized form: N w_0, then N (w_{k-1} + w_k)."""
        if not (0 <= k <= self.horizon):
            raise InputError(f"layer {k} outside stored range")
        if k == 0:
            return self._N * self._w[0]
        return self._N * (self._w[k - 1] + self._w[k])

    def ball_volume(self, n: int) -> mp.mpf:
        if not (0 <= n <= self.horizon):
            raise InputError(f"radius {n} exceeds stored horizon {self.horizon}")
        return mp.fsum(self.layer_measure(k) for k in range(n + 1))

    def ball_volumes(self, n_max: int) -> list[mp.mpf]:
        """Running volumes mu(B(o, 0..n_max)) in one sweep."""
        if not (0 <= n_max <= self.horizon):
            raise InputError(f"radius {n_max} exceeds stored horizon {self.horizon}")
        return _running_volumes(self, n_max)

    def p0(self) -> mp.mpf:
        """Smallest admissible p0 of the horizon-truncated tree (leaf layer has ratio 1)."""
        worst = mp.mpf(self._N)
        H = self.horizon
        for n in range(0, H):
            wn = self._w[n]
            if n >= 1:
                worst = max(worst, (self._N - 1) * (wn + self._w[n - 1]) / wn)
            if n + 1 <= H - 1:
                worst = max(worst, (self._w[n + 1] + wn) / wn)
        return worst

    harnack_check = _harnack_check

    def materialize(self, radius: int) -> tuple[WeightedGraph, tuple[int, ...]]:
        """Explicit ball of the given radius, plus each vertex's layer.

        Vertex ids are breadth-first: the root is 0, children are appended
        shell by shell in parent order.  Edge weights are the raw
        mu_n = w_n / (N-1)^n.
        """
        if not (0 <= radius <= self.horizon):
            raise InputError(f"radius {radius} exceeds stored horizon {self.horizon}")
        layers = [0]
        edges = []
        prev_shell = [0]
        next_id = 1
        for n in range(radius):
            mu_n = self._w[n] / mp.mpf(self._N - 1) ** n
            shell = []
            for parent in prev_shell:
                n_children = self._N if n == 0 else self._N - 1
                for _ in range(n_children):
                    edges.append((parent, next_id, mu_n))
                    layers.append(n + 1)
                    shell.append(next_id)
                    next_id += 1
            prev_shell = shell
        if next_id == 1:
            raise InputError("cannot materialize a single isolated root")
        return WeightedGraph(next_id, edges), tuple(layers)


class TwoSidedRadialTree:
    """Radial tree with a distinguished neighbor of the root growing its own arm.

    The root keeps N-1 outward edges (positive layers) and one edge to the
    special vertex at layer -1, below which the negative arm branches with
    degree N-1.  Layers range over [-M, M]; shell weights w_n exist for
    n in [-M, M-1], where E_n joins layer n to layer n+1.
    """

    __slots__ = ("_N", "_wpos", "_wneg")
    one_sided = False

    def __init__(self, N: int, pos_weights: Sequence, neg_weights: Sequence):
        if not (isinstance(N, int) and N >= 2):
            raise InputError("tree degree N must be an integer >= 2")
        self._N = N
        self._wpos = tuple(to_mpf(w) for w in pos_weights)
        self._wneg = tuple(to_mpf(w) for w in neg_weights)
        if len(self._wpos) != len(self._wneg):
            raise InputError("two-sided tree needs equally long arms")
        if not self._wpos:
            raise InputError("two-sided tree needs at least one shell per arm")
        if any(not 0 < w < mp.inf for w in self._wpos + self._wneg):
            raise InputError("shell weights must be positive and finite")

    @property
    def N(self) -> int:
        return self._N

    @property
    def arm_horizon(self) -> int:
        return len(self._wpos)

    @property
    def layer_lo(self) -> int:
        return -self.arm_horizon

    @property
    def layer_hi(self) -> int:
        return self.arm_horizon

    def weight(self, n: int) -> mp.mpf:
        """w_n for the shell E_n joining layers n and n+1; n in [-M, M-1]."""
        M = self.arm_horizon
        if 0 <= n <= M - 1:
            return self._wpos[n]
        if -M <= n <= -1:
            return self._wneg[-n - 1]
        raise InputError(f"shell index {n} outside stored range [{-M}, {M - 1}]")

    def check_covers(self, u: RadialFunction) -> None:
        if u.lo > self.layer_lo or u.hi < self.layer_hi:
            raise InputError("radial function does not cover the tree's layers")

    def interior_layers(self) -> range:
        return range(self.layer_lo + 1, self.layer_hi)

    def conductances(self, n: int) -> tuple[mp.mpf, mp.mpf]:
        """(outward, inward) weights at an interior layer; the root's outward
        conductance is (N-1) w_0 and its inward one w_{-1}."""
        if n == 0:
            return (self._N - 1) * self.weight(0), self.weight(-1)
        if not (self.layer_lo + 1 <= n <= self.layer_hi - 1):
            raise InputError(f"layer {n} is not interior to the stored range")
        return self.weight(n), self.weight(n - 1)

    laplacian_at = _laplacian_at
    gradient_sq_at = _gradient_sq_at
    gradient_at = _gradient_at

    def layer_measure(self, k: int) -> mp.mpf:
        """mu(D_k) summed over both arms of the infinite tree, normalized form."""
        M = self.arm_horizon
        if k == 0:
            return (self._N - 1) * self.weight(0) + self.weight(-1)
        if not (1 <= k <= M - 1):
            raise InputError(f"layer {k} outside the volume-computable range")
        pos = (self._N - 1) * (self.weight(k) + self.weight(k - 1))
        neg = self.weight(-k) + self.weight(-k - 1)
        return pos + neg

    def ball_volume(self, n: int) -> mp.mpf:
        if not (0 <= n <= self.arm_horizon - 1):
            raise InputError(f"radius {n} exceeds the volume-computable horizon")
        return mp.fsum(self.layer_measure(k) for k in range(n + 1))

    def ball_volumes(self, n_max: int) -> list[mp.mpf]:
        """Running volumes mu(B(o, 0..n_max)) over both arms in one sweep."""
        if not (0 <= n_max <= self.arm_horizon - 1):
            raise InputError(f"radius {n_max} exceeds the volume-computable horizon")
        return _running_volumes(self, n_max)

    def p0(self) -> mp.mpf:
        root_measure = (self._N - 1) * self.weight(0) + self.weight(-1)
        worst = max(root_measure / self.weight(0), root_measure / self.weight(-1))
        M = self.arm_horizon
        for n in range(1, M):
            wn, wm = self.weight(n), self.weight(n - 1)
            worst = max(worst, (self._N - 1) * (wn + wm) / wn)
            if n <= M - 2:
                worst = max(worst, (self.weight(n + 1) + wn) / wn)
        for n in range(-M, 0):
            wn = self.weight(n)
            if n - 1 >= -M:
                worst = max(worst, (wn + self.weight(n - 1)) / wn)
            if n + 1 <= -1:
                worst = max(worst, (self._N - 1) * (self.weight(n + 1) + wn) / wn)
        return worst

    harnack_check = _harnack_check

    def materialize(self, radius: int) -> tuple[WeightedGraph, tuple[int, ...]]:
        """Explicit two-sided ball; layer entries are signed."""
        if not (1 <= radius <= self.arm_horizon):
            raise InputError(f"radius {radius} exceeds stored arm horizon")
        layers = [0]
        edges = []
        next_id = 1
        pos_shell = []
        mu0 = self.weight(0)
        for _ in range(self._N - 1):
            edges.append((0, next_id, mu0))
            layers.append(1)
            pos_shell.append(next_id)
            next_id += 1
        mu_m1 = self.weight(-1)
        edges.append((0, next_id, mu_m1))
        layers.append(-1)
        neg_shell = [next_id]
        next_id += 1
        for d in range(1, radius):
            mu_pos = self.weight(d) / mp.mpf(self._N - 1) ** d
            new_pos = []
            for parent in pos_shell:
                for _ in range(self._N - 1):
                    edges.append((parent, next_id, mu_pos))
                    layers.append(d + 1)
                    new_pos.append(next_id)
                    next_id += 1
            pos_shell = new_pos
            mu_neg = self.weight(-d - 1) * mp.mpf(self._N - 1) ** (-d)
            new_neg = []
            for parent in neg_shell:
                for _ in range(self._N - 1):
                    edges.append((parent, next_id, mu_neg))
                    layers.append(-d - 1)
                    new_neg.append(next_id)
                    next_id += 1
            neg_shell = new_neg
        return WeightedGraph(next_id, edges), tuple(layers)


def induced_graph_function(u: RadialFunction, layers: Sequence[int]) -> GraphFunction:
    """Spread layerwise values onto a materialized ball."""
    return GraphFunction([u.value(n) for n in layers])


# Radial serialization: "radial N=<N> horizon=<H>" then "n w_n" lines;
# two-sided trees add "two-sided" to the header and arm markers.

def format_radial_text(tree, digits: int = 30) -> str:
    if isinstance(tree, RadialTree):
        lines = [f"radial N={tree.N} horizon={tree.horizon}"]
        for n in range(tree.horizon + 1):
            lines.append(f"{n} {mp.nstr(tree.weight(n), digits, strip_zeros=True)}")
        return "\n".join(lines) + "\n"
    if isinstance(tree, TwoSidedRadialTree):
        M = tree.arm_horizon
        lines = [f"radial N={tree.N} horizon={M} two-sided", "arm +"]
        for n in range(0, M):
            lines.append(f"{n} {mp.nstr(tree.weight(n), digits, strip_zeros=True)}")
        lines.append("arm -")
        for n in range(-1, -M - 1, -1):
            lines.append(f"{n} {mp.nstr(tree.weight(n), digits, strip_zeros=True)}")
        return "\n".join(lines) + "\n"
    raise InputError(f"not a radial tree: {type(tree).__name__}")


def parse_radial_text(text: str):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise InputError("empty radial file")
    header = lines[0].split()
    if not header or header[0] != "radial":
        raise InputError(f"bad radial header: {lines[0]!r}")
    fields = {}
    two_sided = False
    for tok in header[1:]:
        if tok == "two-sided":
            two_sided = True
        elif "=" in tok:
            k, v = tok.split("=", 1)
            fields[k] = v
        else:
            raise InputError(f"bad header token {tok!r}")
    try:
        N = int(fields["N"])
        horizon = int(fields["horizon"])
    except (KeyError, ValueError):
        raise InputError(f"radial header needs integer N= and horizon=: {lines[0]!r}")
    shells = range(-horizon, horizon) if two_sided else range(0, horizon + 1)
    entries: dict[int, mp.mpf] = {}
    for ln in lines[1:]:
        if ln.startswith("arm"):
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise InputError(f"bad shell line: {ln!r}")
        try:
            n, w = int(parts[0]), mp.mpf(parts[1])
        except ValueError:
            raise InputError(f"bad shell line (needs an integer index and a number): {ln!r}")
        if n not in shells:
            raise InputError(f"shell index {n} outside the header's range "
                             f"[{shells.start}, {shells.stop - 1}]: {ln!r}")
        if n in entries:
            raise InputError(f"duplicate shell index {n}: {ln!r}")
        entries[n] = w
    if two_sided:
        try:
            pos = [entries[n] for n in range(0, horizon)]
            neg = [entries[n] for n in range(-1, -horizon - 1, -1)]
        except KeyError as missing:
            raise InputError(f"missing shell weight for layer {missing}")
        return TwoSidedRadialTree(N, pos, neg)
    try:
        weights = [entries[n] for n in range(0, horizon + 1)]
    except KeyError as missing:
        raise InputError(f"missing shell weight for layer {missing}")
    return RadialTree(N, weights)
