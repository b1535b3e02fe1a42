"""The two radial tree classes as they read before the layer-chain base.

`RadialTree` and `TwoSidedRadialTree` kept their own shell storage and
their own `weight`, `check_covers`, `interior_layers`, `conductances`,
`layer_measure`, `ball_volume(s)`, `p0` and `materialize`.  These are
their bodies verbatim, with the constructors they read from; the operator
methods, shared already, are left out.  `test_reference.py` holds the
merged classes to these, exactly (two-sided `p0` aside: the merged one
adds the parent-edge ratio of positive layer 1 that this copy misses).
"""

from __future__ import annotations

from typing import Sequence

import mpmath as mp

from liouville.errors import InputError
from liouville.graphs import WeightedGraph
from liouville.numerics import to_mpf
from liouville.radial import RadialFunction


def _running_volumes(tree, n_max: int) -> list[mp.mpf]:
    """mu(B(o, n)) for n = 0..n_max, summed layer by layer in order."""
    vols = []
    acc = mp.mpf(0)
    for k in range(n_max + 1):
        acc += tree.layer_measure(k)
        vols.append(acc)
    return vols


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
