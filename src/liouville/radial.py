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

from typing import Callable, Sequence

import mpmath as mp
from mpmath.libmp import (from_int, fzero, mpf_add, mpf_div, mpf_mul, mpf_mul_int, mpf_neg,
                          mpf_pow_int, mpf_sub, round_nearest)

from .errors import InputError
from .graphs import GraphFunction, HarnackReport, WeightedGraph
from .numerics import all_finite, all_positive, check_le, parse_decimal, to_mpf

_TWO = from_int(2)


class RadialFunction:
    """Layerwise values u_n, constant on each layer by construction."""

    __slots__ = ("_values", "_lo")

    def __init__(self, values: Sequence, lo: int = 0):
        self._values = tuple(to_mpf(v) for v in values)
        if not self._values:
            raise InputError("radial function needs at least one layer")
        if not all_finite(self._values):
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
        return all_positive(self._values)


def layer_operators(tree, u: RadialFunction) -> Callable[[int], tuple]:
    """The operator stream of u on a radial tree: n -> (u_n, lap, grad^2).

    The cover is checked once, here; nothing else is done per layer until
    a layer is asked for.  Each operation is the `mpmath.libmp` call that
    mpf's own operator makes in `laplacian_at` and `gradient_sq_at`, on
    raw values at the precision and rounding read at call time, so the
    values are theirs bit for bit; layers without both neighbours raise as
    they do.  Per-layer loops read `map(ops, layers)`; a walk calls `ops(n)`
    and reads the last layer's differences from `d_out` and `d_in`.

    The stream rolls: when ops(n) follows ops(n - 1) at the same precision
    under round-to-nearest, and n - 1 is neither 0 nor the root, the
    inward products at n are the outward ones at n - 1.  The inward weight
    at n is the outward weight w_{n-1} at n - 1 (only layer 0 scales its
    outward weight by N - 1, and a one-sided root has none), and
    d_in(n) = fl(u_{n-1} - u_n) = -fl(u_n - u_{n-1}) = -d_out(n - 1), since
    rounding to nearest is odd.  So b d_in = -(a d_out) at n - 1 and
    b d_in^2 = a d_out^2 there, the same bits.  Any other call order forms
    both differences afresh.
    """
    tree.check_covers(u)
    return _LayerStream(tree, u)


class _LayerStream:
    """`layer_operators`' stream; `d_out` and `d_in` are the raw differences
    u_{n+1} - u_n and u_{n-1} - u_n at the last layer n (d_in None at a
    one-sided root)."""

    __slots__ = ("_w", "_lo", "_span", "_fan", "_values", "_ulo", "_one_sided", "_root_ok",
                 "_pr", "_last", "_prec", "_ad", "_ad2", "d_out", "d_in")

    def __init__(self, tree, u: RadialFunction):
        self._w, self._lo = tree._w, tree.layer_lo
        self._span = tree.layer_hi - tree.layer_lo
        self._fan = tree.N - 1
        self._values, self._ulo = u.values(), u.lo
        self._one_sided = tree.one_sided
        self._root_ok = tree.one_sided and tree.layer_hi >= 1
        self._pr = mp.mp._prec_rounding         # mpmath updates this list in place
        self._last = self._prec = self._ad = self._ad2 = self.d_out = self.d_in = None

    def __call__(self, n):
        prec, rnd = self._pr
        values = self._values
        if n == 0 and self._one_sided:
            if not self._root_ok:
                raise InputError("horizon too small for the root operators")
            un = values[0]
            d_out = mpf_sub(values[1]._mpf_, un._mpf_, prec, rnd)
            self._last, self.d_out, self.d_in = 0, d_out, None
            return un, mp.make_mpf(d_out), mp.make_mpf(
                mpf_div(mpf_pow_int(d_out, 2, prec, rnd), _TWO, prec, rnd))
        j = n - self._lo
        if not 0 < j < self._span:
            raise InputError(f"layer {n} has no stored inward and outward edge")
        a, b = self._w[j]._mpf_, self._w[j - 1]._mpf_
        if n == 0:
            a = mpf_mul_int(a, self._fan, prec, rnd)
        i = n - self._ulo
        un = values[i]
        d_out = mpf_sub(values[i + 1]._mpf_, un._mpf_, prec, rnd)
        if n - 1 == self._last and n != 1 and prec == self._prec and rnd == round_nearest:
            d_in = mpf_neg(self.d_out)
            bd, bd2 = mpf_neg(self._ad), self._ad2
        else:
            d_in = mpf_sub(values[i - 1]._mpf_, un._mpf_, prec, rnd)
            bd = mpf_mul(b, d_in, prec, rnd)
            bd2 = mpf_mul(b, mpf_pow_int(d_in, 2, prec, rnd), prec, rnd)
        ad = mpf_mul(a, d_out, prec, rnd)
        ad2 = mpf_mul(a, mpf_pow_int(d_out, 2, prec, rnd), prec, rnd)
        ab = mpf_add(a, b, prec, rnd)
        self._last, self._prec, self._ad, self._ad2 = n, prec, ad, ad2
        self.d_out, self.d_in = d_out, d_in
        return (un, mp.make_mpf(mpf_div(mpf_add(ad, bd, prec, rnd), ab, prec, rnd)),
                mp.make_mpf(mpf_div(mpf_add(ad2, bd2, prec, rnd), mpf_mul_int(ab, 2, prec, rnd),
                                 prec, rnd)))


class _LayerChain:
    """A radial tree as its quotient: a chain of layers, one weight per shell.

    `_w` holds every normalized shell weight in one tuple, w_n at position
    n - layer_lo.  Every method is written once for both trees; `one_sided`
    is read only where the root differs: a one-sided root has N children
    and no inward edge, a two-sided root N-1 children plus the arm edge
    E_{-1}.
    """

    __slots__ = ("_N", "_w", "_lo", "_hi", "_p0")
    one_sided: bool

    def __init__(self, N: int, weights: tuple, layer_lo: int, layer_hi: int):
        if not (isinstance(N, int) and N >= 2):
            raise InputError("tree degree N must be an integer >= 2")
        if not all_positive(weights):
            raise InputError("shell weights must be positive and finite")
        self._N = N
        self._w = weights
        self._lo = layer_lo
        self._hi = layer_hi
        self._p0 = None         # (precision, p0()) once computed; the chain never changes

    @property
    def N(self) -> int:
        return self._N

    @property
    def layer_lo(self) -> int:
        return self._lo

    @property
    def layer_hi(self) -> int:
        return self._hi

    def weight(self, n: int) -> mp.mpf:
        """w_n for the shell E_n joining layers n and n+1."""
        if not 0 <= n - self._lo < len(self._w):
            raise InputError(f"shell index {n} outside stored range "
                             f"[{self._lo}, {self._lo + len(self._w) - 1}]")
        return self._w[n - self._lo]

    def check_covers(self, u: RadialFunction) -> None:
        # a one-sided root reads u_0 and u_1 by position, so u starts at 0
        if u.lo > self._lo or u.hi < self._hi or (self.one_sided and u.lo != 0):
            raise InputError("radial function does not cover the tree's layers")

    def interior_layers(self) -> range:
        """Layers where both operators are defined (need u at n-1, n, n+1);
        a one-sided root needs only u_1."""
        return range(self._lo if self.one_sided else self._lo + 1, self._hi)

    def conductances(self, n: int) -> tuple[mp.mpf, mp.mpf]:
        """(outward, inward) weights (w_n, w_{n-1}) at a layer with both edges;
        at a two-sided root they are ((N-1) w_0, w_{-1})."""
        i = n - self._lo
        if not 0 < i < self._hi - self._lo:
            raise InputError(f"layer {n} has no stored inward and outward edge")
        if n == 0:
            return (self._N - 1) * self._w[i], self._w[i - 1]
        return self._w[i], self._w[i - 1]

    def laplacian_at(self, u: RadialFunction, n: int) -> mp.mpf:
        """lap at layer n by the formulas of the module docstring (the reference)."""
        self.check_covers(u)
        if n == 0 and self.one_sided:
            if self._hi < 1:
                raise InputError("horizon too small for the root Laplacian")
            return u.value(1) - u.value(0)
        wn, wm = self.conductances(n)
        return (wn * (u.value(n + 1) - u.value(n))
                + wm * (u.value(n - 1) - u.value(n))) / (wn + wm)

    def gradient_sq_at(self, u: RadialFunction, n: int) -> mp.mpf:
        """grad^2 at layer n by the formulas of the module docstring (the reference)."""
        self.check_covers(u)
        if n == 0 and self.one_sided:
            if self._hi < 1:
                raise InputError("horizon too small for the root gradient")
            return (u.value(1) - u.value(0)) ** 2 / 2
        wn, wm = self.conductances(n)
        return (
            wn * (u.value(n + 1) - u.value(n)) ** 2 + wm * (u.value(n - 1) - u.value(n)) ** 2
        ) / (2 * (wn + wm))

    def gradient_at(self, u: RadialFunction, n: int) -> mp.mpf:
        return mp.sqrt(self.gradient_sq_at(u, n))

    def harnack_check(self, u: RadialFunction, p0) -> HarnackReport:
        """Layerwise Harnack scan; every E_n edge realizes the ratio u_n : u_{n+1}.

        Decided like `graphs.harnack_check` (tolerant `check_le`, p0 >= 1), so a
        tree and its materialized ball agree on the verdict.
        """
        self.check_covers(u)
        p0 = to_mpf(p0)
        if p0 < 1:
            raise InputError("p0 must be at least 1")
        worst_ratio = mp.mpf(1)
        worst_edge = None
        values = u.values()[self.layer_lo - u.lo:]
        for n, a, b in zip(range(self.layer_lo, self.layer_hi), values, values[1:]):
            if not (a > 0 and b > 0):
                raise InputError(f"harnack_check needs positive values, layers {n},{n + 1}")
            ratio = a / b if a >= b else b / a
            if ratio > worst_ratio:
                worst_ratio = ratio
                worst_edge = (n, n + 1)
        return HarnackReport(holds=check_le(worst_ratio, p0).holds, worst_edge=worst_edge,
                             worst_ratio=worst_ratio, p0=p0)

    def layer_measure(self, k: int) -> mp.mpf:
        """mu(D_k) of the infinite tree in normalized form: N w_0, then
        N (w_{k-1} + w_k) on a one-sided tree; (N-1) w_0 + w_{-1}, then
        (N-1)(w_{k-1} + w_k) + (w_{-k} + w_{-k-1}) over both arms of a two-sided one."""
        if not 0 <= k < len(self._w) + self._lo:
            raise InputError(f"layer {k} outside the volume-computable range")
        return mp.make_mpf(self._measure(k, mp.mp.prec))

    def _measure(self, k: int, prec: int) -> tuple:
        """`layer_measure` at a checked k as a raw mpf value: the operations
        of mpf's + and of int * mpf at prec, rounded to nearest."""
        w, z, rnd = self._w, -self._lo, round_nearest
        if self.one_sided:
            pair = mpf_add(w[k - 1]._mpf_, w[k]._mpf_, prec, rnd) if k else w[0]._mpf_
            return mpf_mul_int(pair, self._N, prec, rnd)
        fan = self._N - 1
        if k == 0:
            return mpf_add(mpf_mul_int(w[z]._mpf_, fan, prec, rnd), w[z - 1]._mpf_, prec, rnd)
        inner = mpf_mul_int(mpf_add(w[z + k - 1]._mpf_, w[z + k]._mpf_, prec, rnd), fan,
                            prec, rnd)
        return mpf_add(inner, mpf_add(w[z - k]._mpf_, w[z - k - 1]._mpf_, prec, rnd), prec, rnd)

    def _radii(self, n: int) -> range:
        """0..n, if mu(B(o, n)) is computable from the stored shells."""
        if not 0 <= n < len(self._w) + self._lo:
            raise InputError(f"radius {n} exceeds the volume-computable horizon")
        return range(n + 1)

    def ball_volume(self, n: int) -> mp.mpf:
        return mp.fsum(self.layer_measure(k) for k in self._radii(n))

    def ball_volumes(self, n_max: int) -> list[mp.mpf]:
        """Running volumes mu(B(o, 0..n_max)), summed layer by layer in order."""
        prec = mp.mp.prec
        vols = []
        acc = fzero
        for k in self._radii(n_max):    # on raw mpf values: the operations of mpf's +=
            acc = mpf_add(acc, self._measure(k, prec), prec, round_nearest)
            vols.append(mp.make_mpf(acc))
        return vols

    def p0(self) -> mp.mpf:
        """Smallest admissible p0 of the horizon-truncated tree: the largest
        mu(x) / mu_xy over the directed edges of its ball (a leaf's is 1).

        Off the root, a vertex at layer n has mu(x) proportional to
        w_n + w_{n-1}; its edge away from the root carries the ratio
        (N-1)(w_n + w_{n-1}) / w_out and its edge toward it
        (w_n + w_{n-1}) / w_in.  The value is kept per tree, for the last
        working precision it was asked at.
        """
        prec = mp.mp.prec
        if self._p0 is None or self._p0[0] != prec:
            self._p0 = (prec, self._max_edge_ratio())
        return self._p0[1]

    def _max_edge_ratio(self) -> mp.mpf:
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

    def materialize(self, radius: int) -> tuple[WeightedGraph, tuple[int, ...]]:
        """Explicit ball of the given radius, plus each vertex's signed layer.

        Vertex ids are breadth-first: the root is 0, and each shell's
        children are appended in parent order, the positive arm's before the
        negative arm's.  Edge weights are the raw mu_n = w_n / (N-1)^n on the
        positive arm and w_n (N-1)^(n+1) on the negative arm.
        """
        if not 1 <= radius <= self._hi:
            raise InputError(f"radius {radius} outside the materializable range [1, {self._hi}]")
        N = self._N
        arms = [(1, N)] if self.one_sided else [(1, N - 1), (-1, 1)]
        shells = {sign: [0] for sign, _ in arms}
        layers = [0]
        edges = []
        for d in range(radius):
            for sign, root_fan in arms:
                n = d if sign > 0 else -d - 1
                w = self.weight(n)
                mu = w / mp.mpf(N - 1) ** n if sign > 0 else w * mp.mpf(N - 1) ** (n + 1)
                shell = []
                for parent in shells[sign]:
                    for _ in range(root_fan if d == 0 else N - 1):
                        edges.append((parent, len(layers), mu))
                        shell.append(len(layers))
                        layers.append(sign * (d + 1))
                shells[sign] = shell
        return WeightedGraph(len(layers), edges), tuple(layers)


class RadialTree(_LayerChain):
    """One-sided radial tree: root layer 0, horizon H, weights w_0..w_H."""

    __slots__ = ()
    one_sided = True        # the root, layer 0, has no inward edge

    def __init__(self, N: int, weights: Sequence):
        w = tuple(to_mpf(w) for w in weights)
        if not w:
            raise InputError("radial tree needs at least one shell weight")
        super().__init__(N, w, 0, len(w) - 1)

    @property
    def horizon(self) -> int:
        return self._hi


class TwoSidedRadialTree(_LayerChain):
    """Radial tree with a distinguished neighbor of the root growing its own arm.

    The root keeps N-1 outward edges (positive layers) and one edge to the
    special vertex at layer -1, below which the negative arm branches with
    degree N-1.  Layers range over [-M, M]; shell weights w_n exist for
    n in [-M, M-1], where E_n joins layer n to layer n+1.
    """

    __slots__ = ()
    one_sided = False

    def __init__(self, N: int, pos_weights: Sequence, neg_weights: Sequence):
        pos = tuple(to_mpf(w) for w in pos_weights)
        neg = tuple(to_mpf(w) for w in neg_weights)      # w_{-1}, w_{-2}, ...
        if len(pos) != len(neg):
            raise InputError("two-sided tree needs equally long arms")
        if not pos:
            raise InputError("two-sided tree needs at least one shell per arm")
        super().__init__(N, neg[::-1] + pos, -len(pos), len(pos))

    @property
    def arm_horizon(self) -> int:
        return self._hi


def induced_graph_function(u: RadialFunction, layers: Sequence[int]) -> GraphFunction:
    """Spread layerwise values onto a materialized ball."""
    return GraphFunction([u.value(n) for n in layers])


# Radial serialization: "radial N=<N> horizon=<H>" then "n w_n" lines;
# two-sided trees add "two-sided" to the header and arm markers.

def format_radial_text(tree, digits: int = 30) -> str:
    if not isinstance(tree, _LayerChain):
        raise InputError(f"not a radial tree: {type(tree).__name__}")
    H = tree.layer_hi

    def shells(layers):
        return [f"{n} {mp.nstr(tree.weight(n), digits, strip_zeros=True)}" for n in layers]

    if tree.one_sided:
        lines = [f"radial N={tree.N} horizon={H}", *shells(range(H + 1))]
    else:
        lines = [f"radial N={tree.N} horizon={H} two-sided", "arm +", *shells(range(H)),
                 "arm -", *shells(range(-1, -H - 1, -1))]
    return "\n".join(lines) + "\n"


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
            n, w = int(parts[0]), parse_decimal(parts[1])
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
